"""Dead-code guard: no unused imports, no unused module-private names, no
alias methods and no drift of the export list; and the mpmath internals the
package relies on.

Each module of the package (except ``__init__.py``, which only re-exports)
and each script is parsed with ``ast``.  An imported name must be referenced
somewhere in its module, counting names inside string annotations such as
``"Sequence"``; a module-level ``_private`` function, class or constant must
be referenced in its module.  A public method must do more than return
another attribute of ``self`` or ``cls``, or the result of calling one:
such a method is a second name for the same job.

``mpmath.libmp`` is mpmath's undocumented low-level layer.  Every name the
package imports from it is listed in LIBMP_NAMES and imported one by one
here, so an mpmath release that drops or moves one of them fails the test
named after it.
"""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*(ROOT / "src" / "seqlab").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    if p.name != "__init__.py"
)


def _annotation_names(node: ast.AST) -> set[str]:
    """Names inside the string constants of an annotation."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def _referenced(tree: ast.Module) -> set[str]:
    """Every name the module loads, including those in string annotations
    and in a literal ``__all__``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if ann is not None:
                names |= _annotation_names(ann)
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            names |= {e.value for e in ast.walk(node.value)
                      if isinstance(e, ast.Constant) and isinstance(e.value, str)}
    return names


def _imported(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [a.asname or a.name for a in node.names]
    return names


def _module_private(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _returned(fn: ast.AST) -> ast.AST | None:
    """The expression a function returns when its whole body, after an
    optional docstring, is one ``return``; None otherwise."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) == 1 and isinstance(body[0], ast.Return):
        return body[0].value
    return None


def _aliases(tree: ast.Module) -> list[str]:
    """``Class.method`` for each public method whose whole body, after an
    optional docstring, is ``return self.x`` or ``return cls.x(...)``, or
    ``return not <expr>`` where the class's ``__bool__`` returns
    ``bool(<expr>)``."""
    found = []
    for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
        methods = [fn for fn in cls.body
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))]
        truth = next((_returned(fn) for fn in methods if fn.name == "__bool__"), None)
        bool_of = None  # the dumped <expr> of ``__bool__``'s ``return bool(<expr>)``
        if (isinstance(truth, ast.Call) and isinstance(truth.func, ast.Name)
                and truth.func.id == "bool" and len(truth.args) == 1):
            bool_of = ast.dump(truth.args[0])
        for fn in methods:
            value = _returned(fn)
            if fn.name.startswith("_") or value is None:
                continue
            if isinstance(value, ast.UnaryOp) and isinstance(value.op, ast.Not):
                if ast.dump(value.operand) == bool_of:
                    found.append(f"{cls.name}.{fn.name}")
                continue
            if isinstance(value, ast.Call):
                value = value.func
            if (isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name)
                    and value.value.id in ("self", "cls") and value.attr != fn.name):
                found.append(f"{cls.name}.{fn.name}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
class TestNoDeadNames:
    def test_imports_used(self, path):
        tree = ast.parse(path.read_text())
        used = _referenced(tree)
        assert [n for n in _imported(tree) if n not in used] == []

    def test_private_names_used(self, path):
        tree = ast.parse(path.read_text())
        used = _referenced(tree)
        assert [n for n in _module_private(tree) if n not in used] == []

    def test_no_alias_methods(self, path):
        assert _aliases(ast.parse(path.read_text())) == []


SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _top_modules(path: Path) -> set[str]:
    """The first component of each module name that a file imports."""
    tree = ast.parse(path.read_text())
    modules = {a.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names}
    modules |= {node.module.split(".")[0] if node.module else a.name
                for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    return modules


# the study scripts parse arguments and print; the numeric work of each
# study lives in seqlab.pipeline
@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.stem)
def test_study_script_does_no_numeric_work(path):
    assert _top_modules(path).isdisjoint({"mpmath", "fractions"})


def test_readme_names_every_script():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"scripts/[\w/.-]*?\.py", readme))
    assert {f"scripts/{p.name}" for p in SCRIPTS} <= named
    assert [n for n in sorted(named) if not (ROOT / n).is_file()] == []


def test_all_lists_every_reexport():
    # seqlab.__all__ names exactly what __init__.py imports, once each
    tree = ast.parse((ROOT / "src" / "seqlab" / "__init__.py").read_text())
    imported = [a.asname or a.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    exported = importlib.import_module("seqlab").__all__
    assert len(set(exported)) == len(exported)
    assert sorted(exported) == sorted(imported)


# every name the package imports from mpmath.libmp: report.py's decimal
# rendering, the fixed-point kernel of fixed.py, and the raw-mpf steps of
# asympt.py's estimators and of pipeline.py
LIBMP_NAMES = [
    "dps_to_prec", "finf", "fnan", "fninf", "fone", "from_float", "from_int",
    "fzero", "mpf_abs", "mpf_add", "mpf_div", "mpf_mul", "mpf_pow", "mpf_sub",
    "normalize", "pi_fixed", "round_nearest", "to_fixed", "to_str",
]
# the further names the tests import from mpmath.libmp as reference oracles:
# from_rational for decimal rounding, log_int_fixed for the prime-log
# table, mpf_log for a value's log, mpf_exp (with from_man_exp for its
# argument) for the kernel's exp, mpf_sqrt for sqrt_nearest and _inv_sqrt
LIBMP_TEST_NAMES = ["from_man_exp", "from_rational", "log_int_fixed", "mpf_exp", "mpf_log",
                    "mpf_sqrt"]


def _libmp_imports(paths):
    imported = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "mpmath.libmp":
                imported |= {a.name for a in node.names}
    return imported


def test_libmp_names_listed():
    assert sorted(_libmp_imports(MODULES)) == LIBMP_NAMES


def test_libmp_test_names_listed():
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert sorted(_libmp_imports(tests) - set(LIBMP_NAMES)) == LIBMP_TEST_NAMES


@pytest.mark.parametrize("name", LIBMP_NAMES + LIBMP_TEST_NAMES)
def test_libmp_name(name):
    getattr(importlib.import_module("mpmath.libmp"), name)


def test_exact_toolkit_is_float_free():
    # series.py, the integer-polynomial and exact-series toolkit, imports
    # neither mpmath nor decimal
    path = ROOT / "src" / "seqlab" / "series.py"
    assert _top_modules(path).isdisjoint({"mpmath", "decimal"})


def test_fixed_kernel_layering():
    # the fixed-point kernel stands below the estimators: fixed.py imports
    # only errors of the package and only mpmath from outside the standard
    # library; report.py, which renders every value from its exact value,
    # imports no module of the package
    src = ROOT / "src" / "seqlab"
    assert _top_modules(src / "fixed.py") - sys.stdlib_module_names == {"errors", "mpmath"}
    package = {path.stem for path in src.glob("*.py")} | {"seqlab"}
    assert _top_modules(src / "report.py").isdisjoint(package)


# the package's modules import one another without a cycle, so each can be
# loaded, read and tested above the modules it needs: sequences below the
# D-finite models of dfinite, and those below the guessers of guess
PACKAGE = sorted((ROOT / "src" / "seqlab").glob("*.py"))


def _package_imports(tree: ast.Module) -> set[str]:
    """The modules of the package that a module imports, by file stem,
    ``__init__`` for the package itself; an import under ``if
    TYPE_CHECKING`` counts too."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for parts in (a.name.split(".") for a in node.names):
                if parts[0] == "seqlab":
                    found.add(parts[1] if len(parts) > 1 else "__init__")
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 1:
                found |= {parts[0]} if node.module else {a.name for a in node.names}
            elif node.level == 0 and parts[0] == "seqlab":
                found.add(parts[1] if len(parts) > 1 else "__init__")
    return found


def _cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of the import graph, as a path that ends where it starts,
    or None: a depth-first search in sorted order."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for module in sorted(graph.get(node, ())):
            found = visit(module)
            if found:
                return found
        path.pop()
        done.add(node)
        return None

    return next((found for found in map(visit, sorted(graph)) if found), None)


def test_module_graph():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE}
    graph = {name: _package_imports(tree) for name, tree in trees.items()}
    assert _cycle(graph) is None
    assert graph["sequences"].isdisjoint({"dfinite", "guess"})
    assert "guess" not in graph["dfinite"]
    uses = {name: _mentions(tree, {"TYPE_CHECKING"}) for name, tree in trees.items()}
    assert {name: found for name, found in uses.items() if found} == {}


def test_guard_catches_import_cycles():
    sources = {
        "sequences": "from .dfinite import check_init\n",
        "dfinite": ("import typing\n"
                    "if typing.TYPE_CHECKING:\n"
                    "    from .guess import guess_prec\n"),
        "guess": "import math\nfrom . import sequences\nfrom seqlab.series import Poly\n",
        "cli": "import seqlab.pipeline\nfrom seqlab import Poly\n",
    }
    trees = {name: ast.parse(text) for name, text in sources.items()}
    graph = {name: _package_imports(tree) for name, tree in trees.items()}
    assert graph == {"sequences": {"dfinite"}, "dfinite": {"guess"},
                     "guess": {"sequences", "series"}, "cli": {"pipeline", "__init__"}}
    assert _cycle(graph) == ["dfinite", "guess", "sequences", "dfinite"]
    assert _cycle({**graph, "dfinite": set()}) is None
    assert _mentions(trees["dfinite"], {"TYPE_CHECKING"}) == ["TYPE_CHECKING"]


# the package reads number text in one function, fixed._parse, behind
# fixed._read_number, which the CLI, HpContext.raw, bst_extrapolate and
# lll_reduce call: only it builds a Decimal, no module imports mpmath's own
# parser from_str, and HpContext.raw hands no value to mpmath's constructor
# or precision.  cli.py builds no number and counts no digits, no module
# that takes numbers as text parses one with Fraction, and neither cli.py
# nor pipeline.py renders or works at a precision of its own: HpContext sets
# the precision and report.decimal_str renders
TEXT_READER = "_parse"
TEXT_TAKERS = ("asympt.py", "identify.py", "pipeline.py", "cli.py")
NUMBER_BUILDERS = {"Decimal", "Fraction", "mpf", "make_mpf"}


def _call_name(node: ast.AST) -> str | None:
    """The called name of a call, bare or an attribute; None for any other
    node."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")


def _builds_outside(tree: ast.Module, reader: str | None,
                    builders: set[str] = NUMBER_BUILDERS) -> list[str]:
    """``def:builder`` for each call of a `builders` name (bare or an
    attribute) that lies outside the module-level function `reader`;
    ``def`` is the enclosing module-level function, or <module>."""
    found = []
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        if owner != reader:
            found += [f"{owner}:{name}" for name in map(_call_name, ast.walk(top))
                      if name in builders]
    return found


def _raw_entry_calls(tree: ast.Module) -> list[str] | None:
    """The calls of ``mpf``, ``work`` or ``workdps`` (bare or an attribute)
    inside the method raw of class HpContext; None when there is no such
    method."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and cls.name == "HpContext":
            for fn in cls.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "raw":
                    return [name for name in map(_call_name, ast.walk(fn))
                            if name in {"mpf", "work", "workdps"}]
    return None


def _one_argument_calls(tree: ast.Module, name: str) -> list[int]:
    """The line of each call of `name` (bare or an attribute) with exactly
    one argument, as Fraction(text) parses text."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if _call_name(node) == name and len(node.args) + len(node.keywords) == 1)


def _mentions(tree: ast.Module, names: set[str]) -> list[str]:
    """Each use of one of `names`: as a name, an attribute or an import."""
    found = []
    for node in ast.walk(tree):
        name = (node.id if isinstance(node, ast.Name) else node.attr
                if isinstance(node, ast.Attribute) else node.name
                if isinstance(node, ast.alias) else None)
        if name in names:
            found.append(name)
    return found


def test_cli_reads_numbers_in_one_place():
    tree = ast.parse((ROOT / "src" / "seqlab" / "cli.py").read_text())
    assert _builds_outside(tree, None) == []
    assert _mentions(tree, {"workdps", "isdigit", "_text_digits"}) == []


# guess._search owns the attempt rule, rows >= k + margin: no other function
# of guess.py compares or combines `margin` with anything, and each guesser
# only passes its margin on to _search
def _margin_uses(tree: ast.Module) -> dict[str, list[str]]:
    """For each module-level function, the sorted uses of the loaded name
    `margin`: ``passed`` as an argument of a call of _search, else the type
    of the node that holds it (``Compare``, ``BinOp``, ``Call``, ...)."""
    uses = {}
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        holders = {child: node for node in ast.walk(fn) for child in ast.iter_child_nodes(node)}
        for name in ast.walk(fn):
            if (isinstance(name, ast.Name) and name.id == "margin"
                    and isinstance(name.ctx, ast.Load)):
                holder = holders[name]
                if isinstance(holder, ast.keyword):
                    holder = holders[holder]
                uses.setdefault(fn.name, []).append(
                    "passed" if _call_name(holder) == "_search" else type(holder).__name__)
    return {name: sorted(found) for name, found in uses.items()}


def test_guessers_share_one_attempt_rule():
    uses = _margin_uses(ast.parse((ROOT / "src" / "seqlab" / "guess.py").read_text()))
    rule = uses.pop("_search")
    assert uses == {"guess_prec": ["passed"], "guess_algeq": ["passed"]}
    assert {"Compare", "BinOp"} <= set(rule)


def test_guard_catches_a_threshold_of_its_own():
    tree = ast.parse(
        "def _search(n, margin):\n"
        "    return n >= 2 + margin\n"
        "def guess_prec(terms, margin=4):\n"
        "    if margin < 0:\n"
        "        raise ValueError(f'margin {margin}')\n"
        "    rows = max(len(terms), margin + 1)\n"
        "    return _search(rows, margin=margin), _search(max(margin, 1), margin)\n"
    )
    assert _margin_uses(tree) == {
        "_search": ["BinOp"],
        "guess_prec": ["BinOp", "Call", "Compare", "FormattedValue", "passed", "passed"]}


def test_package_reads_number_text_in_one_place():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    decimals = {name: _builds_outside(tree, TEXT_READER if name == "fixed.py" else None,
                                      {"Decimal"})
                for name, tree in trees.items()}
    assert {name: found for name, found in decimals.items() if found} == {}
    assert TEXT_READER in {top.name for top in trees["fixed.py"].body
                           if isinstance(top, ast.FunctionDef)}
    parsers = {name: _mentions(tree, {"from_str"}) for name, tree in trees.items()}
    assert {name: found for name, found in parsers.items() if found} == {}
    assert _raw_entry_calls(trees["fixed.py"]) == []


def test_text_takers_parse_no_text_with_fraction():
    parses = [f"{name}:{line}" for name in TEXT_TAKERS for line in _one_argument_calls(
        ast.parse((ROOT / "src" / "seqlab" / name).read_text()), "Fraction")]
    assert parses == []


def test_pipeline_renders_through_report():
    tree = ast.parse((ROOT / "src" / "seqlab" / "pipeline.py").read_text())
    assert _mentions(tree, {"nstr"}) == []


# series.py is the one home of the exact polynomial algorithms: no other
# module uses the pseudo-division, the exact sign or the Sturm chain
EXACT_POLY_NAMES = {"pseudo_divmod", "sign_at", "sturm_chain"}


def test_exact_polynomial_algorithms_live_in_series():
    uses = {path.name: _mentions(ast.parse(path.read_text()), EXACT_POLY_NAMES)
            for path in MODULES if path.name != "series.py"}
    assert {name: found for name, found in uses.items() if found} == {}


# HpContext owns the working precision: only fixed.py, which defines it,
# sets mpmath's precision
WORKDPS_HOMES = {"fixed.py"}


def test_working_precision_comes_from_hpcontext():
    uses = {path.name: _mentions(ast.parse(path.read_text()), {"workdps"})
            for path in MODULES if path.name not in WORKDPS_HOMES}
    assert {name: found for name, found in uses.items() if found} == {}


# HpContext.raw (or HpContext.mpf) is the one rule by which a number enters
# the working precision: only fixed.py, which defines it, calls mpmath's
# constructor or rounds an int or a quotient to a precision
ROUNDING_HOMES = {"fixed.py"}


def _mpmath_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module binds to mpmath (or its ``mp`` context) and to
    mpmath's mpf class."""
    modules, classes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name for a in node.names if a.name == "mpmath"}
        elif isinstance(node, ast.ImportFrom) and node.module == "mpmath":
            modules |= {a.asname or a.name for a in node.names if a.name == "mp"}
            classes |= {a.asname or a.name for a in node.names if a.name == "mpf"}
    return modules, classes


def _roundings(tree: ast.Module) -> list[str]:
    """``name:line`` for each call of quotient_nearest, for each call of
    from_int with a precision argument (more than one argument), and
    ``mpf:line`` for each call of mpmath's mpf constructor: ``mpmath.mpf``,
    ``mpmath.mp.mpf`` or an ``mpf`` imported from mpmath."""
    modules, classes = _mpmath_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            root = func
            while isinstance(root, ast.Attribute):
                root = root.value
            if (name == "quotient_nearest"
                    or name == "from_int" and len(node.args) + len(node.keywords) > 1):
                found.append(f"{name}:{node.lineno}")
            elif (isinstance(func, ast.Name) and name in classes
                    or name == "mpf" and isinstance(root, ast.Name) and root.id in modules):
                found.append(f"mpf:{node.lineno}")
    return found


def test_values_enter_through_hpcontext():
    uses = {path.name: _roundings(ast.parse(path.read_text()))
            for path in MODULES if path.name not in ROUNDING_HOMES}
    assert {name: found for name, found in uses.items() if found} == {}


# a stage reads its precision from its HpContext, never from mpmath's global
# state: only report.py, whose default D is mp.dps + 5, reads mp.dps
GLOBAL_PRECISION_HOMES = {"report.py"}


def _global_precision(tree: ast.Module) -> list[str]:
    """``attr:line`` for each ``dps`` or ``prec`` attribute of mpmath's
    ``mp`` context, read or set: ``mpmath.mp.dps`` or ``mp.prec`` for an
    ``mp`` imported from mpmath."""
    modules, _ = _mpmath_names(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("dps", "prec"):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id in modules
                    or isinstance(owner, ast.Attribute) and owner.attr == "mp"
                    and isinstance(owner.value, ast.Name) and owner.value.id in modules):
                found.append(f"{node.attr}:{node.lineno}")
    return found


def test_precision_is_read_from_hpcontext():
    uses = {path.name: _global_precision(ast.parse(path.read_text()))
            for path in MODULES if path.name not in GLOBAL_PRECISION_HOMES}
    assert {name: found for name, found in uses.items() if found} == {}


def test_guard_catches_global_precision():
    tree = ast.parse(
        "import mpmath\n"
        "import mpmath as mm\n"
        "from mpmath import mp\n"
        "def bound(ctx, x):\n"
        "    return 10 ** mpmath.mp.dps, mp.prec, mm.mp.dps, ctx.prec, x.context.prec\n"
        "def widen():\n"
        "    mp.dps = 50\n"
    )
    assert sorted(_global_precision(tree)) == ["dps:5", "dps:5", "dps:7", "prec:5"]


def test_guard_catches_private_roundings():
    tree = ast.parse(
        "from mpmath.libmp import from_int, round_nearest\n"
        "from .fixed import quotient_nearest\n"
        "def terms(seq, ctx):\n"
        "    return [from_int(t, ctx.prec, round_nearest) for t in seq.terms]\n"
        "def index(n):\n"
        "    return libmp.from_int(n), libmp.from_int(n, prec=53)\n"
        "def ratio(x, prec):\n"
        "    return fixed.quotient_nearest(x.numerator, x.denominator, prec)\n"
        "import mpmath\n"
        "from mpmath import mp, mpf as real\n"
        "def constants(ctx, n):\n"
        "    a = mpmath.mpf(13) / 6\n"
        "    return a, real(n), mp.mpf(n), mpmath.mp.mpf(n), ctx.mpf(n), ctx.mpf(n, 'n')\n"
    )
    assert sorted(_roundings(tree)) == [
        "from_int:4", "from_int:6", "mpf:12", "mpf:13", "mpf:13", "mpf:13",
        "quotient_nearest:8"]


def test_guard_catches_workdps():
    tree = ast.parse(
        "import mpmath\n"
        "from mpmath import workdps\n"
        "def root(p, digits):\n"
        "    with mpmath.workdps(digits + 10):\n"
        "        return p.root()\n"
    )
    assert _mentions(tree, {"workdps"}) == ["workdps", "workdps"]


def test_guard_catches_exact_poly_calls():
    tree = ast.parse(
        "from .series import Poly\n"
        "def _sturm_chain(p):\n"
        "    chain = [p, p.derivative()]\n"
        "    chain.append(-chain[-2].pseudo_divmod(chain[-1])[1])\n"
        "    return chain\n"
        "def root(p):\n"
        "    return p.sturm_chain(), p.squarefree_part(), p.sign_at(1, 2)\n"
    )
    assert sorted(_mentions(tree, EXACT_POLY_NAMES)) == [
        "pseudo_divmod", "sign_at", "sturm_chain"]


def test_guard_catches_number_builders():
    tree = ast.parse(
        "import mpmath\n"
        "from decimal import Decimal\n"
        "from mpmath import nstr\n"
        "ZERO = Decimal(0)\n"
        "def _read_number(text, ctx):\n"
        "    return ctx.mpf(Fraction(Decimal(text)))\n"
        "def _fraction(text):\n"
        "    return Fraction(text)\n"
        "def resolve_mu(text):\n"
        "    with mpmath.workdps(30):\n"
        "        return mpmath.mpf(text)\n"
        "def show(x):\n"
        "    return nstr(x, 5) + mpmath.nstr(x, 3)\n"
        "def _parse(text):\n"
        "    return Fraction(Decimal(text)), len(Decimal(text).as_tuple().digits)\n"
        "def digits(text):\n"
        "    return sum(ch.isdigit() for ch in text), fractions.Fraction(1, 2)\n"
    )
    assert _builds_outside(tree, TEXT_READER) == [
        "<module>:Decimal", "_read_number:mpf", "_read_number:Fraction",
        "_read_number:Decimal", "_fraction:Fraction", "resolve_mu:mpf", "digits:Fraction"]
    assert _builds_outside(tree, None, {"Decimal"}) == [
        "<module>:Decimal", "_read_number:Decimal", "_parse:Decimal", "_parse:Decimal"]
    assert _one_argument_calls(tree, "Fraction") == [6, 8, 15]
    assert _mentions(tree, {"workdps", "isdigit"}) == ["workdps", "isdigit"]
    assert _mentions(tree, {"nstr"}) == ["nstr", "nstr", "nstr"]
    # a text entry through mpmath: its parser imported, and raw calling its
    # constructor under a precision of its own
    tree = ast.parse(
        "import mpmath\n"
        "from mpmath.libmp import from_int, from_str as parse\n"
        "class HpContext:\n"
        "    def raw(self, x, at=None):\n"
        "        if isinstance(x, int):\n"
        "            return from_int(x, self.prec)\n"
        "        with self.work(), mpmath.workdps(30):\n"
        "            return mpmath.mpf(x)._mpf_, self.mpf(x)\n"
        "    def mpf(self, x):\n"
        "        return mpmath.mp.make_mpf(self.raw(x))\n"
    )
    assert _raw_entry_calls(tree) == ["work", "workdps", "mpf", "mpf"]
    assert _mentions(tree, {"from_str"}) == ["from_str"]
    assert _raw_entry_calls(ast.parse("class HpContext:\n    pass\n")) is None


def test_guard_catches_dead_names():
    tree = ast.parse(
        "from math import gcd, lcm\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .sequences import Sequence\n"
        "_LIMIT = 3\n"
        "def _unused(): pass\n"
        "def f(x: 'Sequence') -> int:\n"
        "    return gcd(x, _LIMIT) if TYPE_CHECKING else 0\n"
    )
    used = _referenced(tree)
    assert [n for n in _imported(tree) if n not in used] == ["lcm"]
    assert [n for n in _module_private(tree) if n not in used] == ["_unused"]


def test_guard_catches_aliases():
    tree = ast.parse(
        "class A:\n"
        "    def items(self):\n"
        "        return self.entries\n"
        "    @property\n"
        "    def degree_x(self):\n"
        "        'Same as degree.'\n"
        "        return self.degree\n"
        "    @classmethod\n"
        "    def from_grid(cls, grid):\n"
        "        return cls.from_lists(grid)\n"
        "    def _private(self):\n"
        "        return self.entries\n"
        "    def size(self):\n"
        "        return len(self.entries)\n"
        "    def first(self):\n"
        "        return self.entries[0]\n"
        "    def copy(self):\n"
        "        entries = self.entries\n"
        "        return entries\n"
        "class B:\n"
        "    def __bool__(self):\n"
        "        return bool(self.coeffs)\n"
        "    def is_zero(self):\n"
        "        'Same as not b.'\n"
        "        return not self.coeffs\n"
        "    def is_empty(self):\n"
        "        return not self.terms\n"
        "class C:\n"
        "    def is_zero(self):\n"
        "        return not self.coeffs\n"
    )
    assert _aliases(tree) == ["A.items", "A.degree_x", "A.from_grid", "B.is_zero"]
