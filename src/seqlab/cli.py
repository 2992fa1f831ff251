"""Command-line front end.

One command = one run = one JSON report (plus CSV side files named by
figure key for plot data).  Sequences are read from b-files on disk or
fetched by A-number with a local cache; all high-precision scalars are
printed and serialized as decimal strings.

Every command body parses its options, calls the library or
`seqlab.pipeline`, and returns its report fields; `run` does the rest.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import click

from . import pipeline
from .asympt import (
    AMPLITUDE_WINDOWS,
    HpSeq,
    amplitude_fit,
    bst_extrapolate,
    square_subsample,
)
from .dfinite import expand_algebraic, expand_prec_decimal
from .errors import RUN_ERRORS, PrecisionTooLow
from .fixed import MAX_TERMS, HpContext, _bounded, _parse, _read_number
from .guess import guess_algeq, guess_prec
from .identify import identify_rational, identify_with_multipliers, min_poly, working_context
from .oeis import (
    bfile_text,
    canonical_a_number,
    fetch_oeis,
    parse_bfile,
    parse_bfile_decimal,
    parse_bfile_tail,
)
from .report import (
    decimal_str,
    identification_entry,
    scalar_entry,
    sequence_entry,
    text_digest,
    write_run,
)
from .sequences import (
    Sequence,
    enum_ascent_avoiding,
    enum_lconvex_bruteforce,
    enum_stack_bruteforce,
    expand_rational,
    gen_lconvex_area,
    gen_lconvex_perimeter,
    gen_stack_area,
)
from .series import Poly


@dataclass
class CliState:
    precision: int
    offline: bool
    cache_dir: Optional[Path]
    report_path: Path
    ctx: Optional[HpContext] = None  # the working precision, built by `run`


class _SeqlabGroup(click.Group):
    """Keeps the arguments `main` received, for the report's command echo."""

    def make_context(self, info_name, args, parent=None, **extra):
        argv = list(args)
        ctx = super().make_context(info_name, args, parent=parent, **extra)
        ctx.meta["seqlab.argv"] = argv
        return ctx


@click.group(cls=_SeqlabGroup)
@click.option("--precision", default=100, show_default=True,
              help="Working precision in decimal digits.")
@click.option("--offline", is_flag=True, help="Never touch the network; cache only.")
@click.option("--cache-dir", type=click.Path(path_type=Path), default=None,
              help="b-file cache directory [default: $SEQLAB_CACHE_DIR, "
                   "else ~/.cache/seqlab].")
@click.option("--report", "report_path", type=click.Path(path_type=Path),
              default=Path("report.json"), show_default=True,
              help="Where to write the JSON analysis report.")
@click.pass_context
def main(ctx, precision, offline, cache_dir, report_path):
    """Exact and high-precision analysis of integer counting sequences."""
    ctx.obj = CliState(precision, offline, cache_dir, report_path)


@dataclass
class Source:
    """A loaded SOURCE argument: its b-file text, the digest of that text,
    its name.  The terms are parsed on first use, so a malformed b-file
    fails there."""

    text: str
    digest: str
    label: str

    @functools.cached_property
    def seq(self) -> Sequence:
        return parse_bfile(self.text)

    def tail(self, k: int) -> Sequence:
        """The last k terms: every line is checked, only these converted."""
        return parse_bfile_tail(self.text, k)


def _load(state: CliState, source: str) -> Source:
    """Resolve a b-file path or A-number."""
    p = Path(source)
    if p.exists():
        text = p.read_text(encoding="utf-8")
        return Source(text, text_digest(text), str(p))
    try:
        canonical_a_number(source)
    except ValueError:
        raise click.ClickException(
            f"input {source!r} is neither an existing file nor an A-number"
        )
    bf = fetch_oeis(source, cache_dir=state.cache_dir, offline=state.offline)
    return Source(bf.text, text_digest(bf.text), bf.a_number)


def run(body):
    """Turn a command body into its click callback.

    This is the one place where a command loads SOURCE, builds and writes
    its report, prints, and fails.  The body receives the CliState, the
    loaded `Source` in place of a SOURCE argument, and its options; a body
    reads its terms before it parses its options, so a malformed b-file is
    reported first, as it was when SOURCE was parsed on loading.  The
    context of ``--precision`` is built once, and ``--n`` (`_n_option`)
    is checked against MAX_TERMS, before SOURCE loads.  It
    returns the AnalysisReport fields (`input_digest` defaults to the
    digest of SOURCE, and `parameters` gain SOURCE's name as "source"),
    plus its figure `csvs` and its `stdout`: text, or text blocks rendered
    one by one once the report is written.  A
    library error, bad input or failed file access while loading, computing
    or writing ends as ``Error: <message>`` with exit status 1.
    """
    @click.pass_context
    @functools.wraps(body)
    def callback(ctx, **kwargs):
        state = ctx.obj
        try:
            state.ctx = HpContext(_bounded(state.precision))
            if "n_terms" in kwargs:
                _bounded(kwargs["n_terms"], "n", MAX_TERMS)
            if "source" in kwargs:
                kwargs["source"] = _load(state, kwargs["source"])
            fields = body(state, **kwargs)
            if "source" in kwargs:
                source = kwargs["source"]
                fields.setdefault("input_digest", source.digest)
                fields["parameters"] = {"source": source.label, **fields["parameters"]}
            stdout = write_run(state.report_path,
                               "seqlab " + " ".join(ctx.meta["seqlab.argv"]), fields)
        except RUN_ERRORS as exc:
            raise click.ClickException(str(exc)) from exc
        click.echo(f"report: {state.report_path}", err=True)
        for block in [stdout] if isinstance(stdout, str) else stdout:
            click.echo(block, nl=False)
    return callback


def _int_list(name: str, text: str) -> list[int]:
    values = [_read_number(name, tok) for tok in text.replace(",", " ").split()]
    if any(v.denominator != 1 for v in values):
        raise click.ClickException(f"expected a comma-separated integer list, got {text!r}")
    return [int(v) for v in values]


def _resolve_mu(state: CliState, mu: Optional[str], mu_from_poly: Optional[str]):
    if (mu is None) == (mu_from_poly is None):
        raise click.ClickException("give exactly one of --mu or --mu-from-poly")
    if mu is not None:
        return _read_number("mu", mu, state.ctx), {"mu": mu}
    coeffs = _int_list("mu_from_poly", mu_from_poly)
    return pipeline.growth_rate(Poly(coeffs), state.ctx)[1], {"mu_from_poly": coeffs}


def _sequence_fields(name: str, offset: int, values: list, **fields) -> dict:
    """Fields of a run whose output is one sequence, given by the decimal
    strings of its terms (`**sequence_entry(...)` supplies both).  The
    report entry and stdout's b-file share the strings, so each term is
    converted to decimal once; stdout is rendered block by block after the
    report is written, so it is never held whole, nor next to the report's
    JSON."""
    return dict(fields, sequences={name: {"offset": offset, "values": values}},
                stdout=bfile_text(offset, values))


def _n_option(help: str):
    """--n, the term count of a gen, oracle or expand command, which `run`
    bounds by MAX_TERMS."""
    return click.option("--n", "n_terms", type=int, required=True, help=help)


def _generated(name: str, seq: Sequence, params: dict) -> dict:
    return _sequence_fields(name, **sequence_entry(seq.offset, seq.terms),
                            parameters=params,
                            input_digest=text_digest(repr(sorted(params.items()))))


# ---------------------------------------------------------------------------
# gen / oracle
# ---------------------------------------------------------------------------

@main.group()
def gen():
    """Exact series-based generators."""


def _generator(name: str, key: str, generate, doc: str) -> None:
    """Register `gen <name>`: the first --n terms of `generate`, as `key`."""
    @gen.command(name, help=doc)
    @_n_option("Number of terms.")
    @run
    def command(state, n_terms):
        return _generated(key, generate(n_terms), {"generator": name, "n": n_terms})


_generator("lconvex-area", "lconvex_area", gen_lconvex_area,
           "Counts of L-convex polyominoes by cell count.")
_generator("lconvex-perimeter", "lconvex_perimeter", gen_lconvex_perimeter,
           "Counts of L-convex polyominoes by half-perimeter.")
_generator("stack", "stack_area", gen_stack_area, "Counts of stack polyominoes by cell count.")


@main.group()
def oracle():
    """Independent counts for cross-checks, from no guessed model: slow
    brute-force enumerations, except ascent 201 (and its spellings), counted
    by a polynomial-time state recursion."""


def _bruteforce(name: str, enumerate_counts) -> None:
    """Register `oracle <name>`: brute-force counts by area up to --n."""
    @oracle.command(name)
    @_n_option("Largest area.")
    @click.option("--budget", type=int, default=5_000_000, show_default=True)
    @run
    def command(state, n_terms, budget):
        return _generated(f"{name}_area_bruteforce", enumerate_counts(n_terms, budget),
                          {"oracle": name, "n": n_terms})


_bruteforce("lconvex", enum_lconvex_bruteforce)
_bruteforce("stack", enum_stack_bruteforce)


@oracle.command("ascent")
@click.option("--pattern", required=True, help="Pattern digits, e.g. 201.")
@_n_option("Largest length.")
@click.option("--budget", type=int, default=50_000_000, show_default=True)
@run
def oracle_ascent_cmd(state, pattern, n_terms, budget):
    return _generated(f"ascent_avoiding_{pattern}",
                      enum_ascent_avoiding(pattern, n_terms, budget),
                      {"oracle": "ascent", "pattern": pattern, "n": n_terms})


# ---------------------------------------------------------------------------
# guess / expand
# ---------------------------------------------------------------------------

def _options(*options):
    """Click options as one decorator, in the order given."""
    return lambda f: functools.reduce(lambda g, option: option(g), reversed(options), f)


def _margin(default: int):
    """--margin, with the default of the guesser it is passed to."""
    return click.option("--margin", default=default, show_default=True,
                        help="Spare equations a shape needs beyond its unknowns.")


# option sets, each defined once and shared by the commands that take it
_REC_GRID = _options(
    click.option("--rmax", default=8, show_default=True, help="Largest recurrence order."),
    click.option("--dmax", default=4, show_default=True, help="Largest coefficient degree."),
    _margin(0))
_ALGEQ_GRID = _options(
    click.option("--dxmax", default=12, show_default=True, help="Largest x-degree."),
    click.option("--dymax", default=3, show_default=True, help="Largest y-degree."),
    _margin(3))
# a growth constant is given by exactly one of these (_resolve_mu)
_MU = _options(
    click.option("--mu", default=None, help="Growth constant as a decimal string."),
    click.option("--mu-from-poly", default=None,
                 help="Ascending integer coefficients; mu = 1/smallest positive root."))
_VALUE = click.option("--value", required=True, help="Decimal string.")
_DIGITS = click.option("--digits", type=int, default=None,
                       help="Certified digits of the value [default: count its digits].")
_MAXDEN = click.option("--maxden", default=1000, show_default=True)


@main.group()
def guess():
    """Exact recurrence / algebraic-equation guessing: one exact nullspace
    over all equations per shape; --margin counts the spare equations a
    shape needs beyond its unknowns."""


def _guesser(name: str, find, grid_options, noun: str, shape, prefix: str, doc: str) -> None:
    """Register `guess <name>`: `find` on SOURCE over the grid that
    `grid_options` take; a model found reports its `shape` fields and its
    coefficient lists as prefix0, prefix1, ..."""
    @guess.command(name, help=doc)
    @click.argument("source")
    @grid_options
    @run
    def command(state, source, **grid):
        model = find(source.seq, **grid)
        if model is None:
            return dict(parameters=grid, stdout=f"no {noun} found\n",
                        notes=[f"no {noun} found within the search grid"])
        return dict(
            parameters={**grid, **shape(model)},
            sequences={f"{prefix}{j}": sequence_entry(0, cs)
                       for j, cs in enumerate(model.coeff_lists())},
            notes=[str(model)], stdout=f"{model}\n",
        )


_guesser("rec", guess_prec, _REC_GRID, "recurrence",
         lambda rec: {"order": rec.order, "degree": rec.degree}, "p",
         "Guess a linear recurrence with polynomial coefficients.")
_guesser("algeq", guess_algeq, _ALGEQ_GRID, "algebraic equation",
         lambda eq: {"degree_x": eq.degree, "degree_y": eq.degree_y}, "c",
         "Guess a polynomial equation P(x, y(x)) = 0 for the series y.")


@main.group()
def expand():
    """Extend a sequence exactly from a guessed or explicit model."""


def _expander(name: str, find, grid_options, noun: str, extend, doc: str) -> None:
    """Register `expand <name>`: `find` on SOURCE over the grid that
    `grid_options` take, then the model's first --n terms, as `extend`
    gives them: the offset and decimal strings of a `sequence_entry`."""
    @expand.command(name, help=doc)
    @click.argument("source")
    @_n_option("Terms to produce.")
    @grid_options
    @run
    def command(state, source, n_terms, **grid):
        model = find(source.seq, **grid)
        if model is None:
            raise click.ClickException(f"no {noun} found within the search grid")
        return _sequence_fields("extended", **extend(model, source.seq, n_terms),
                                notes=[str(model)], parameters={"n": n_terms, **grid})


_expander("rec", guess_prec, _REC_GRID, "recurrence",
          lambda rec, seq, n: {"offset": seq.offset, "values": expand_prec_decimal(rec, seq, n)},
          "Guess a recurrence from SOURCE, then extend it to --n terms.")
_expander("algeq", guess_algeq, _ALGEQ_GRID, "algebraic equation",
          lambda eq, seq, n: sequence_entry(0, expand_algebraic(eq, seq.terms, n).terms),
          "Guess an algebraic equation from SOURCE, then expand its branch.")


@expand.command("rational")
@click.option("--num", required=True, help="Numerator coefficients, ascending.")
@click.option("--den", required=True, help="Denominator coefficients, ascending.")
@_n_option("Terms to produce.")
@run
def expand_rational_cmd(state, num, den, n_terms):
    """Taylor/Laurent coefficients of a rational function num/den."""
    num_c, den_c = _int_list("num", num), _int_list("den", den)
    laurent = expand_rational(Poly(num_c), Poly(den_c), n_terms)
    return _sequence_fields(
        "coefficients", **sequence_entry(laurent.offset, laurent.coeffs, state.precision),
        input_digest=text_digest(f"{num}|{den}|{n_terms}"),
        parameters={"num": num_c, "den": den_c, "n": n_terms},
    )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _hpseq(state: CliState, seq: Sequence) -> HpSeq:
    return HpSeq.from_sequence(seq, state.ctx).slice_from(max(seq.offset, 1))


@main.group()
def analyze():
    """Ratio, stretched-exponential and power-law estimator pipelines."""


@analyze.command("ratios")
@click.argument("source")
@run
def analyze_ratios_cmd(state, source):
    """Successive ratios, tabulated against 1/n and 1/sqrt(n)."""
    table = pipeline.ratio_table(_hpseq(state, source.seq))
    last = table.ratios.values[-1]
    return dict(
        parameters={"precision": state.precision},
        scalars={"last_ratio": scalar_entry(last, state.precision, table.spread)},
        csvs=table.csvs, stdout=f"last ratio: {decimal_str(last, 20)}\n",
    )


@analyze.command("stretched")
@click.argument("source")
@run
def analyze_stretched_cmd(state, source):
    """Three-parameter stretched-exponential fit on successive triples."""
    s = _hpseq(state, source.seq)
    fit = pipeline.stretched_fit(s)
    model, spreads = fit.model, fit.spreads
    with state.ctx.work():
        amplitude = 1 / model.c
    return dict(
        parameters={"precision": state.precision, "beta": "1/2"},
        scalars={
            "a": scalar_entry(model.a, state.precision, spreads["a"]),
            "a_squared": scalar_entry(fit.a_squared, state.precision),
            "delta": scalar_entry(model.delta, state.precision, spreads["delta"]),
            "c_denominator": scalar_entry(model.c, state.precision, spreads["log_c"]),
            "c_amplitude": scalar_entry(amplitude, state.precision),
        },
        notes=[
            "model: s_n ~ exp(a*pi*n^(1/2)) / (c_denominator * n^delta); "
            "c_amplitude = 1/c_denominator is the same constant in the "
            "multiplying convention",
        ],
        csvs={**pipeline.ratio_loglog(s), **fit.csvs},
        stdout=f"a: {decimal_str(model.a, 15)}  a^2: {decimal_str(fit.a_squared, 15)}\n"
               f"delta: {decimal_str(model.delta, 15)}\n",
    )


@analyze.command("square")
@click.argument("source")
@run
def analyze_square_cmd(state, source):
    """Square-subsampled ratios and their inverse-power eliminations."""
    sq = pipeline.square_ratios(_hpseq(state, source.seq))
    return dict(
        parameters={"precision": state.precision},
        scalars={"intercept": scalar_entry(sq.intercept, state.precision, sq.spread)},
        csvs=sq.csvs, stdout=f"intercept: {decimal_str(sq.intercept, 15)}\n",
    )


@analyze.command("powerlaw")
@click.argument("source")
@_MU
@click.option("--square", is_flag=True, help="Square-subsample the input first.")
@run
def analyze_powerlaw_cmd(state, source, mu, mu_from_poly, square):
    """Estimate the power g in s_n ~ D mu^n n^g from ratio corrections."""
    s = _hpseq(state, source.seq)
    mu_val, mu_params = _resolve_mu(state, mu, mu_from_poly)
    # the power-law fit needs 4 terms, so 4 squares
    diag, csvs = pipeline.power_law(square_subsample(s, 4) if square else s, mu_val)
    return dict(
        parameters={"precision": state.precision, "square": square, **mu_params},
        scalars={
            "mu": scalar_entry(mu_val, state.precision),
            "g": scalar_entry(diag.g_estimate, state.precision, diag.g_spread),
        },
        csvs=csvs, stdout=f"g: {decimal_str(diag.g_estimate, 15)}\n",
    )


# ---------------------------------------------------------------------------
# extrapolate / fit
# ---------------------------------------------------------------------------

@main.group()
def extrapolate():
    """Sequence-to-limit extrapolation."""


@extrapolate.command("bst")
@click.argument("source")
@click.option("--w", default="1/2", show_default=True,
              help="Exponent parameter of the tableau, as a rational.")
@click.option("--square", is_flag=True, help="Square-subsample the input first.")
@run
def extrapolate_bst_cmd(state, source, w, square):
    """Bulirsch-Stoer extrapolation of the input terms."""
    s = _hpseq(state, source.seq)
    w_frac = _read_number("w", w)
    res = bst_extrapolate(square_subsample(s, 4) if square else s, w_frac)
    notes = []
    if res.spread >= abs(res.value):
        notes.append("spread >= |limit|, so the terms do not fix the limit")
        click.echo(f"note: {notes[0]}", err=True)
    return dict(
        parameters={"precision": state.precision, "w": str(w_frac), "square": square,
                    "depth": res.depth},
        scalars={"limit": scalar_entry(res.value, state.precision, res.spread)},
        notes=notes,
        stdout=f"limit: {decimal_str(res.value, 20)}  spread: {decimal_str(res.spread, 5)}\n",
    )


@main.group()
def fit():
    """Model fitting against exact terms."""


@fit.command("amplitude")
@click.argument("source")
@_MU
@click.option("--g", "g_str", required=True,
              help="Normalizing power as a rational, e.g. 9/2 for s_n n^(9/2)/mu^n.")
@click.option("--k", "--K", "k_corr", type=int, required=True,
              help="Number of 1/n correction terms.")
@run
def fit_amplitude_cmd(state, source, mu, mu_from_poly, g_str, k_corr):
    """Fit s_n n^g / mu^n = C (1 + a_1/n + ... + a_K/n^K) exactly-sized."""
    # the fit reads only these terms; a negative K is amplitude_fit's to reject
    seq = source.tail(max(k_corr, 0) + AMPLITUDE_WINDOWS)
    mu_val, mu_params = _resolve_mu(state, mu, mu_from_poly)
    g_frac = _read_number("g", g_str)
    res = amplitude_fit(seq, mu_val, g_frac, k_corr, state.ctx)
    return dict(
        parameters={"precision": state.precision, "g": str(g_frac), "K": k_corr,
                    "cond_estimate": decimal_str(res.cond_estimate, 5),
                    "window_end": res.window_end, **mu_params},
        scalars={
            "mu": scalar_entry(mu_val, state.precision),
            "C": scalar_entry(res.model.C, state.precision, res.c_spread),
        },
        sequences={"corrections": sequence_entry(1, res.model.corrections, digits=25)},
        stdout=f"C: {decimal_str(res.model.C, 25)}  spread: {decimal_str(res.c_spread, 5)}\n",
    )


# ---------------------------------------------------------------------------
# identify / fetch
# ---------------------------------------------------------------------------

@main.group()
def identify():
    """Recognize high-precision constants."""


def _value_and_digits(value: str, digits: Optional[int]) -> tuple:
    """(value, d): d is --digits or else the value's digits, as the reader's
    one parse counts them (a ratio counts both parts), and the value is
    read for d digits.  A value read as inf or nan has no digits to count,
    so it needs --digits."""
    x, n = _parse("value", value, True)
    d = _bounded(digits if digits is not None else n)
    x = _read_number("value", x, working_context(d))
    if digits is None and not d:
        raise ValueError(f"value {value!r} has no digits to count: give --digits")
    return x, d


def _identified(value: str, params: dict, found: Optional[tuple], missing: str) -> dict:
    """Fields of an identify run; `found` is (identification entry, stdout line)."""
    fields = dict(input_digest=text_digest(value), parameters={"value": value, **params})
    if found is None:
        return dict(fields, notes=[missing], stdout="not found\n")
    return dict(fields, identifications=[found[0]], stdout=f"{found[1]}\n")


@identify.command("rational")
@_options(_VALUE, _MAXDEN, _DIGITS)
@run
def identify_rational_cmd(state, value, maxden, digits):
    """Recognize a rational p/q with q <= maxden."""
    x, d = _value_and_digits(value, digits)
    frac = identify_rational(x, maxden, digits=d)
    found = None if frac is None else (identification_entry("rational", str(frac), d),
                                       f"{frac.numerator}/{frac.denominator}")
    return _identified(value, {"maxden": maxden, "digits": d}, found,
                       "no rational identification")


@identify.command("mult")
@_options(_VALUE, _MAXDEN, _DIGITS)
@run
def identify_mult_cmd(state, value, maxden, digits):
    """Recognize a rational multiple of a dictionary constant."""
    x, d = _value_and_digits(value, digits)
    ident = identify_with_multipliers(x, maxden=maxden, digits=d)
    found = None
    if ident is not None:
        found = (identification_entry(ident.kind, str(ident), ident.certified_digits),
                 f"{ident}  [certified digits: {ident.certified_digits}]")
    return _identified(value, {"maxden": maxden, "digits": d}, found,
                       "no dictionary-multiple identification")


@identify.command("minpoly")
@_options(_VALUE, click.option("--maxdeg", default=3, show_default=True), _DIGITS)
@run
def identify_minpoly_cmd(state, value, maxdeg, digits):
    """Find an integer minimal polynomial via lattice reduction."""
    x, d = _value_and_digits(value, digits)
    try:
        p = min_poly(x, maxdeg, d)
    except PrecisionTooLow as exc:
        if digits is not None:
            raise
        raise PrecisionTooLow(f"{exc}; --value {value!r} gives {d}: give --digits") from None
    found = None if p is None else (identification_entry("algebraic", p.format("x"), d),
                                    p.format("x"))
    fields = _identified(value, {"maxdeg": maxdeg, "digits": d}, found,
                         "no integer polynomial relation found")
    if p is not None:
        fields["sequences"] = {"min_poly": sequence_entry(0, p.coeffs)}
    return fields


@main.command("fetch")
@click.argument("a_number")
@run
def fetch_cmd(state, a_number):
    """Download (or serve from cache) the b-file for an A-number."""
    bf = fetch_oeis(a_number, cache_dir=state.cache_dir, offline=state.offline)
    offset, values = parse_bfile_decimal(bf.text)
    return _sequence_fields(
        bf.a_number, offset, values, input_digest=text_digest(bf.text),
        parameters={"a_number": bf.a_number, "terms": len(values), "offset": offset},
    )


if __name__ == "__main__":
    main()
