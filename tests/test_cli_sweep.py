"""A generated sweep of every leaf command over a fixed catalogue of bad,
degenerate and extreme inputs.

Each command starts from a cheap valid invocation (BASE); each case
changes one input: SOURCE for a command that reads a b-file, --n, the
global --precision, --value, --K, --maxden or --maxdeg, and for a command that reads SOURCE
also --n and --K at and above its term count.  Whatever the input, a run
ends with exit status 0, or with status 1 and exactly one ``Error:`` line
on stderr, never with a traceback or an uncaught exception.  Every run is offline,
with an empty cache, so ``fetch`` fails on the cache miss.
"""

import click
import pytest
from click.testing import CliRunner

from seqlab.cli import main
from conftest import CATALAN


def _leaves(group: click.Group, path=()):
    for name, command in sorted(group.commands.items()):
        if isinstance(command, click.Group):
            yield from _leaves(command, (*path, name))
        else:
            yield (*path, name)


SOURCE = "catalan.txt"

# a cheap valid invocation of each leaf command, options after the path
BASE = {
    ("analyze", "powerlaw"): [SOURCE, "--mu", "4"],
    ("analyze", "ratios"): [SOURCE],
    ("analyze", "square"): [SOURCE],
    ("analyze", "stretched"): [SOURCE],
    ("expand", "algeq"): [SOURCE, "--n", "20", "--dxmax", "2", "--dymax", "2"],
    ("expand", "rational"): ["--num", "1", "--den", "1,-1", "--n", "5"],
    ("expand", "rec"): [SOURCE, "--n", "20"],
    ("extrapolate", "bst"): [SOURCE],
    ("fetch",): ["A000108"],
    ("fit", "amplitude"): [SOURCE, "--mu", "4", "--g", "3/2", "--K", "2"],
    ("gen", "lconvex-area"): ["--n", "5"],
    ("gen", "lconvex-perimeter"): ["--n", "5"],
    ("gen", "stack"): ["--n", "5"],
    ("guess", "algeq"): [SOURCE, "--dxmax", "2", "--dymax", "2"],
    ("guess", "rec"): [SOURCE],
    ("identify", "minpoly"): ["--value", "1.5", "--digits", "40", "--maxdeg", "2"],
    ("identify", "mult"): ["--value", "0.5", "--maxden", "1000"],
    ("identify", "rational"): ["--value", "0.5", "--maxden", "1000"],
    ("oracle", "ascent"): ["--pattern", "201", "--n", "5"],
    ("oracle", "lconvex"): ["--n", "4"],
    ("oracle", "stack"): ["--n", "4"],
}

BFILES = {
    "empty": "",
    "comment-only": "# no terms\n",
    "one-line": "0 1\n",
    "non-digit": "0 1\n1 x\n",
    "three-terms": "1 1\n2 2\n3 6\n",
}

OPTION_VALUES = {
    "--n": ["0", "-1"],
    "--value": ["inf", "nan", "1e300", "1e1001", "x"],
    "--K": ["-1"],
    "--maxden": ["0", "-1"],
    "--maxdeg": ["0"],
}

# sizes at and above SOURCE's 14 terms, for the commands that read it: the
# brute-force oracles would take seconds at these sizes
SOURCE_OPTION_VALUES = {
    "--n": ["15", "28"],
    "--K": ["14", "15"],
}


def _with(args: list, option: str, value: str) -> list:
    i = args.index(option)
    return [*args[:i + 1], value, *args[i + 2:]]


def _cases():
    for path, args in BASE.items():
        name = " ".join(path)
        for precision in ("0", "10001"):
            yield pytest.param(["--precision", precision, *path, *args],
                               id=f"{name}--precision-{precision}")
        if args and args[0] == SOURCE:
            for key in BFILES:
                yield pytest.param([*path, f"{key}.txt", *args[1:]], id=f"{name}-{key}")
        sized = SOURCE_OPTION_VALUES if args and args[0] == SOURCE else {}
        for option, values in [*OPTION_VALUES.items(), *sized.items()]:
            if option in args:
                for value in values:
                    yield pytest.param([*path, *_with(args, option, value)],
                                       id=f"{name}-{option}-{value}")


def test_base_covers_every_leaf_command():
    assert sorted(BASE) == sorted(_leaves(main))


@pytest.mark.parametrize("args", _cases())
def test_exits_cleanly(args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / SOURCE).write_text("".join(f"{n} {c}\n" for n, c in enumerate(CATALAN[:14])))
    for key, text in BFILES.items():
        (tmp_path / f"{key}.txt").write_text(text)
    res = CliRunner().invoke(main, ["--offline", "--cache-dir", "cache", *args])
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in (0, 1), res.output
    assert "Traceback" not in res.output
    if res.exit_code == 1:
        assert res.stderr.startswith("Error: ") and len(res.stderr.splitlines()) == 1
