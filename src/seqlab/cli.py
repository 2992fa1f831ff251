"""Command-line front end.

One command = one run = one JSON report (plus CSV side files named by
figure key for plot data).  Sequences are read from b-files on disk or
fetched by A-number with a local cache; all high-precision scalars are
printed and serialized as decimal strings.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

import click
import mpmath

from .asympt import (
    HpContext,
    HpSeq,
    amplitude_fit,
    bst_extrapolate,
    elim_power,
    loglog_gradient,
    poly_smallest_positive_root,
    powerlaw_pipeline,
    ratios,
    square_subsample,
    stretched_lambda,
    stretched_triple_fit,
    summarize_stretched,
)
from .errors import SeqLabError
from .guess import guess_algeq, guess_prec
from .identify import identify_rational, identify_with_multipliers, min_poly
from .oeis import canonical_a_number, fetch_oeis, parse_bfile, render_bfile
from .report import (
    AnalysisReport,
    decimal_str,
    emit_csv,
    identification_entry,
    scalar_entry,
    sequence_entry,
    text_digest,
)
from .sequences import (
    Sequence,
    enum_ascent_avoiding,
    enum_lconvex_bruteforce,
    enum_stack_bruteforce,
    expand_algebraic,
    expand_prec,
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

    @property
    def ctx(self) -> HpContext:
        return HpContext(self.precision)


pass_state = click.make_pass_decorator(CliState)


@click.group()
@click.option("--precision", default=100, show_default=True,
              help="Working precision in decimal digits.")
@click.option("--offline", is_flag=True, help="Never touch the network; cache only.")
@click.option("--cache-dir", type=click.Path(path_type=Path), default=None,
              envvar="SEQLAB_CACHE_DIR",
              help="b-file cache directory [env: SEQLAB_CACHE_DIR].")
@click.option("--report", "report_path", type=click.Path(path_type=Path),
              default=Path("report.json"), show_default=True,
              help="Where to write the JSON analysis report.")
@click.pass_context
def main(ctx, precision, offline, cache_dir, report_path):
    """Exact and high-precision analysis of integer counting sequences."""
    ctx.obj = CliState(precision, offline, cache_dir, report_path)


def _fail(exc: Exception):
    raise click.ClickException(str(exc))


def _load(state: CliState, source: str) -> tuple[Sequence, str, str]:
    """Resolve a b-file path or A-number into (sequence, digest, label)."""
    p = Path(source)
    if p.exists():
        text = p.read_text(encoding="utf-8")
        return parse_bfile(text), text_digest(text), str(p)
    try:
        canonical_a_number(source)
    except ValueError:
        raise click.ClickException(
            f"input {source!r} is neither an existing file nor an A-number"
        )
    bf = fetch_oeis(source, cache_dir=state.cache_dir, offline=state.offline)
    return bf.sequence(), text_digest(bf.text), bf.a_number


def _write(state: CliState, report: AnalysisReport, csvs: Optional[dict] = None):
    state.report_path.parent.mkdir(parents=True, exist_ok=True)
    state.report_path.write_text(report.to_json(), encoding="utf-8")
    for key, text in (csvs or {}).items():
        (state.report_path.parent / f"{key}.csv").write_text(text, encoding="utf-8")
    click.echo(f"report: {state.report_path}", err=True)


def _echo_bfile(seq: Sequence):
    click.echo(render_bfile(seq), nl=False)


def _command_echo() -> str:
    return "seqlab " + " ".join(sys.argv[1:])


def _int_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise click.ClickException(f"expected a comma-separated integer list, got {text!r}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.ClickException(f"expected a rational like 1/2, got {text!r}")


def _text_digits(text: str) -> int:
    mantissa = text.lower().split("e")[0]
    return sum(ch.isdigit() for ch in mantissa)


def _resolve_mu(state: CliState, mu: Optional[str], mu_from_poly: Optional[str]):
    if (mu is None) == (mu_from_poly is None):
        raise click.ClickException("give exactly one of --mu or --mu-from-poly")
    with state.ctx.work():
        if mu is not None:
            return mpmath.mpf(mu), {"mu": mu}
        coeffs = _int_list(mu_from_poly)
        root = poly_smallest_positive_root(Poly(coeffs), digits=state.precision + 10)
        return 1 / root, {"mu_from_poly": coeffs}


def _seq_report(state: CliState, name: str, seq: Sequence, params: dict):
    report = AnalysisReport(
        command=_command_echo(),
        input_digest=text_digest(repr(sorted(params.items()))),
        parameters=params,
        sequences={name: sequence_entry(seq.offset, seq.terms)},
    )
    _write(state, report)
    _echo_bfile(seq)


# ---------------------------------------------------------------------------
# gen / oracle
# ---------------------------------------------------------------------------

@main.group()
def gen():
    """Exact series-based generators."""


@gen.command("lconvex-area")
@click.option("--n", "n_terms", type=int, required=True, help="Number of terms.")
@pass_state
def gen_lconvex_area_cmd(state, n_terms):
    """Counts of L-convex polyominoes by cell count."""
    _seq_report(state, "lconvex_area", gen_lconvex_area(n_terms),
                {"generator": "lconvex-area", "n": n_terms})


@gen.command("lconvex-perimeter")
@click.option("--n", "n_terms", type=int, required=True, help="Number of terms.")
@pass_state
def gen_lconvex_perimeter_cmd(state, n_terms):
    """Counts of L-convex polyominoes by half-perimeter."""
    try:
        seq = gen_lconvex_perimeter(n_terms)
    except SeqLabError as exc:
        _fail(exc)
    _seq_report(state, "lconvex_perimeter", seq,
                {"generator": "lconvex-perimeter", "n": n_terms})


@gen.command("stack")
@click.option("--n", "n_terms", type=int, required=True, help="Number of terms.")
@pass_state
def gen_stack_cmd(state, n_terms):
    """Counts of stack polyominoes by cell count."""
    _seq_report(state, "stack_area", gen_stack_area(n_terms),
                {"generator": "stack", "n": n_terms})


@gen.command("ascent")
@click.option("--pattern", required=True, help="Pattern digits, e.g. 201.")
@click.option("--n", "n_max", type=int, required=True, help="Largest length.")
@click.option("--budget", type=int, default=50_000_000, show_default=True)
@pass_state
def gen_ascent_cmd(state, pattern, n_max, budget):
    """Counts of pattern-avoiding ascent sequences by length."""
    try:
        seq = enum_ascent_avoiding(pattern, n_max, budget)
    except SeqLabError as exc:
        _fail(exc)
    _seq_report(state, f"ascent_avoiding_{pattern}", seq,
                {"generator": "ascent", "pattern": pattern, "n": n_max})


@main.group()
def oracle():
    """Independent brute-force enumerations (slow, for cross-checks)."""


@oracle.command("lconvex")
@click.option("--n", "n_max", type=int, required=True, help="Largest area.")
@click.option("--budget", type=int, default=5_000_000, show_default=True)
@pass_state
def oracle_lconvex_cmd(state, n_max, budget):
    try:
        seq = enum_lconvex_bruteforce(n_max, budget)
    except SeqLabError as exc:
        _fail(exc)
    _seq_report(state, "lconvex_area_bruteforce", seq,
                {"oracle": "lconvex", "n": n_max})


@oracle.command("stack")
@click.option("--n", "n_max", type=int, required=True, help="Largest area.")
@click.option("--budget", type=int, default=5_000_000, show_default=True)
@pass_state
def oracle_stack_cmd(state, n_max, budget):
    try:
        seq = enum_stack_bruteforce(n_max, budget)
    except SeqLabError as exc:
        _fail(exc)
    _seq_report(state, "stack_area_bruteforce", seq, {"oracle": "stack", "n": n_max})


@oracle.command("ascent")
@click.option("--pattern", required=True, help="Pattern digits, e.g. 201.")
@click.option("--n", "n_max", type=int, required=True, help="Largest length.")
@click.option("--budget", type=int, default=50_000_000, show_default=True)
@pass_state
def oracle_ascent_cmd(state, pattern, n_max, budget):
    try:
        seq = enum_ascent_avoiding(pattern, n_max, budget)
    except SeqLabError as exc:
        _fail(exc)
    _seq_report(state, f"ascent_avoiding_{pattern}", seq,
                {"oracle": "ascent", "pattern": pattern, "n": n_max})


# ---------------------------------------------------------------------------
# guess / expand
# ---------------------------------------------------------------------------

@main.group()
def guess():
    """Exact recurrence / algebraic-equation guessing with held-out checks."""


@guess.command("rec")
@click.argument("source")
@click.option("--rmax", default=8, show_default=True, help="Largest recurrence order.")
@click.option("--dmax", default=4, show_default=True, help="Largest coefficient degree.")
@click.option("--margin", default=4, show_default=True, help="Held-out terms.")
@pass_state
def guess_rec_cmd(state, source, rmax, dmax, margin):
    """Guess a linear recurrence with polynomial coefficients."""
    seq, digest, label = _load(state, source)
    try:
        rec = guess_prec(seq, rmax=rmax, dmax=dmax, margin=margin)
    except SeqLabError as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "rmax": rmax, "dmax": dmax, "margin": margin},
    )
    if rec is None:
        report.notes.append("no recurrence found within the search grid")
        click.echo("no recurrence found")
    else:
        report.notes.append(str(rec))
        report.parameters.update({"order": rec.order, "degree": rec.degree})
        for j, cs in enumerate(rec.coeff_lists()):
            report.sequences[f"p{j}"] = sequence_entry(0, cs)
        click.echo(str(rec))
    _write(state, report)


@guess.command("algeq")
@click.argument("source")
@click.option("--dxmax", default=12, show_default=True, help="Largest x-degree.")
@click.option("--dymax", default=3, show_default=True, help="Largest y-degree.")
@click.option("--margin", default=4, show_default=True, help="Held-out terms.")
@pass_state
def guess_algeq_cmd(state, source, dxmax, dymax, margin):
    """Guess a polynomial equation P(x, y(x)) = 0 for the series y."""
    seq, digest, label = _load(state, source)
    try:
        eq = guess_algeq(seq, dxmax=dxmax, dymax=dymax, margin=margin)
    except SeqLabError as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "dxmax": dxmax, "dymax": dymax, "margin": margin},
    )
    if eq is None:
        report.notes.append("no algebraic equation found within the search grid")
        click.echo("no algebraic equation found")
    else:
        report.notes.append(str(eq))
        report.parameters.update({"degree_x": eq.degree_x, "degree_y": eq.degree_y})
        for j, c in enumerate(eq.coeffs):
            report.sequences[f"c{j}"] = sequence_entry(0, list(c.int_coeffs()))
        click.echo(str(eq))
    _write(state, report)


@main.group()
def expand():
    """Extend a sequence exactly from a guessed or explicit model."""


@expand.command("rec")
@click.argument("source")
@click.option("--n", "n_terms", type=int, required=True, help="Terms to produce.")
@click.option("--rmax", default=8, show_default=True)
@click.option("--dmax", default=4, show_default=True)
@click.option("--margin", default=4, show_default=True)
@pass_state
def expand_rec_cmd(state, source, n_terms, rmax, dmax, margin):
    """Guess a recurrence from SOURCE, then extend it to --n terms."""
    seq, digest, label = _load(state, source)
    try:
        rec = guess_prec(seq, rmax=rmax, dmax=dmax, margin=margin)
        if rec is None:
            raise click.ClickException("no recurrence found within the search grid")
        extended = expand_prec(rec, seq, n_terms)
    except SeqLabError as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "n": n_terms, "rmax": rmax, "dmax": dmax,
                    "margin": margin},
        sequences={"extended": sequence_entry(extended.offset, extended.terms)},
        notes=[str(rec)],
    )
    _write(state, report)
    _echo_bfile(extended)


@expand.command("algeq")
@click.argument("source")
@click.option("--n", "n_terms", type=int, required=True, help="Terms to produce.")
@click.option("--dxmax", default=12, show_default=True)
@click.option("--dymax", default=3, show_default=True)
@click.option("--margin", default=4, show_default=True)
@pass_state
def expand_algeq_cmd(state, source, n_terms, dxmax, dymax, margin):
    """Guess an algebraic equation from SOURCE, then expand its branch."""
    seq, digest, label = _load(state, source)
    if seq.offset != 0:
        raise click.ClickException("algebraic expansion expects a series offset of 0")
    try:
        eq = guess_algeq(seq, dxmax=dxmax, dymax=dymax, margin=margin)
        if eq is None:
            raise click.ClickException("no algebraic equation found within the search grid")
        extended = expand_algebraic(eq, seq.terms, n_terms)
    except SeqLabError as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "n": n_terms, "dxmax": dxmax, "dymax": dymax,
                    "margin": margin},
        sequences={"extended": sequence_entry(extended.offset, extended.terms)},
        notes=[str(eq)],
    )
    _write(state, report)
    _echo_bfile(extended)


@expand.command("rational")
@click.option("--num", required=True, help="Numerator coefficients, ascending.")
@click.option("--den", required=True, help="Denominator coefficients, ascending.")
@click.option("--n", "n_terms", type=int, required=True, help="Terms to produce.")
@pass_state
def expand_rational_cmd(state, num, den, n_terms):
    """Taylor/Laurent coefficients of a rational function num/den."""
    num_p = Poly(_int_list(num))
    den_p = Poly(_int_list(den))
    try:
        laurent = expand_rational(num_p, den_p, n_terms)
    except SeqLabError as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(),
        input_digest=text_digest(f"{num}|{den}|{n_terms}"),
        parameters={"num": _int_list(num), "den": _int_list(den), "n": n_terms},
        sequences={"coefficients": {
            "offset": laurent.offset,
            "values": [str(c) for c in laurent.coeffs],
        }},
    )
    _write(state, report)
    for n, c in zip(range(laurent.offset, laurent.offset + len(laurent.coeffs)),
                    laurent.coeffs):
        click.echo(f"{n} {c}")


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
@pass_state
def analyze_ratios_cmd(state, source):
    """Successive ratios, tabulated against 1/n and 1/sqrt(n)."""
    seq, digest, label = _load(state, source)
    s = _hpseq(state, seq)
    try:
        r = ratios(s)
    except (SeqLabError, ZeroDivisionError) as exc:
        _fail(exc)
    with state.ctx.work():
        inv_n = [(mpmath.mpf(1) / n, v) for n, v in zip(r.indices(), r.values)]
        inv_sqrt = [(1 / mpmath.sqrt(n), v) for n, v in zip(r.indices(), r.values)]
        tail = r.tail(10).values
        spread = max(tail) - min(tail)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "precision": state.precision},
        scalars={"last_ratio": scalar_entry(r.values[-1], state.precision, spread)},
    )
    _write(state, report, {
        "ratios_vs_inv_n": emit_csv(inv_n, ("inv_n", "ratio")),
        "ratios_vs_inv_sqrt_n": emit_csv(inv_sqrt, ("inv_sqrt_n", "ratio")),
    })
    click.echo(f"last ratio: {decimal_str(r.values[-1], 20)}")


@analyze.command("stretched")
@click.argument("source")
@pass_state
def analyze_stretched_cmd(state, source):
    """Three-parameter stretched-exponential fit on successive triples."""
    seq, digest, label = _load(state, source)
    s = _hpseq(state, seq)
    try:
        lam = stretched_lambda(s)
        e1, e2, e3 = stretched_triple_fit(lam)
        model, spreads = summarize_stretched(e1, e2, e3)
        r = ratios(s)
        with state.ctx.work():
            shifted = r.map(lambda v: v - 1)
            grad = loglog_gradient(shifted)
            loglog_pts = [(mpmath.log(n), mpmath.log(v))
                          for n, v in zip(shifted.indices(), shifted.values) if v > 0]
            grad_pts = [(mpmath.mpf(1) / n, v) for n, v in zip(grad.indices(), grad.values)]
            e1_pts = [(mpmath.mpf(1) / n, v) for n, v in zip(e1.indices(), e1.values)]
            e2_pts = [(mpmath.mpf(1) / n, v) for n, v in zip(e2.indices(), e2.values)]
            e1_sq = e1.values[-1] ** 2
            amplitude = 1 / model.c
    except (SeqLabError, ZeroDivisionError) as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "precision": state.precision, "beta": "1/2"},
        scalars={
            "a": scalar_entry(model.a, state.precision, spreads["a"]),
            "a_squared": scalar_entry(e1_sq, state.precision),
            "delta": scalar_entry(model.delta, state.precision, spreads["delta"]),
            "c_denominator": scalar_entry(model.c, state.precision, spreads["log_c"]),
            "c_amplitude": scalar_entry(amplitude, state.precision),
        },
        notes=[
            "model: s_n ~ exp(a*pi*n^(1/2)) / (c_denominator * n^delta); "
            "c_amplitude = 1/c_denominator is the same constant in the "
            "multiplying convention",
        ],
    )
    _write(state, report, {
        "loglog": emit_csv(loglog_pts, ("log_n", "log_ratio_minus_1")),
        "gradient": emit_csv(grad_pts, ("inv_n", "gradient")),
        "e1": emit_csv(e1_pts, ("inv_n", "e1")),
        "e2": emit_csv(e2_pts, ("inv_n", "e2")),
    })
    click.echo(f"a: {decimal_str(model.a, 15)}  a^2: {decimal_str(e1_sq, 15)}")
    click.echo(f"delta: {decimal_str(model.delta, 15)}")


@analyze.command("square")
@click.argument("source")
@pass_state
def analyze_square_cmd(state, source):
    """Square-subsampled ratios and their inverse-power eliminations."""
    seq, digest, label = _load(state, source)
    try:
        sub = square_subsample(_hpseq(state, seq))
        r = ratios(sub)
        i1 = elim_power(r, 1)
        i2 = elim_power(i1, 2)
    except (SeqLabError, ZeroDivisionError) as exc:
        _fail(exc)
    with state.ctx.work():
        r_pts = [(mpmath.mpf(k), v) for k, v in zip(r.indices(), r.values)]
        i1_pts = [(mpmath.mpf(1) / k, v) for k, v in zip(i1.indices(), i1.values)]
        i2_pts = [(mpmath.mpf(1) / k, v) for k, v in zip(i2.indices(), i2.values)]
        tail = i2.tail(5).values
        spread = max(tail) - min(tail)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "precision": state.precision},
        scalars={"intercept": scalar_entry(i2.values[-1], state.precision, spread)},
    )
    _write(state, report, {
        "r_sq": emit_csv(r_pts, ("k", "ratio")),
        "intercepts": emit_csv(i1_pts, ("inv_k", "intercept")),
        "t_n": emit_csv(i2_pts, ("inv_k", "t")),
    })
    click.echo(f"intercept: {decimal_str(i2.values[-1], 15)}")


@analyze.command("powerlaw")
@click.argument("source")
@click.option("--mu", default=None, help="Growth constant as a decimal string.")
@click.option("--mu-from-poly", default=None,
              help="Ascending integer coefficients; mu = 1/smallest positive root.")
@click.option("--square", is_flag=True, help="Square-subsample the input first.")
@pass_state
def analyze_powerlaw_cmd(state, source, mu, mu_from_poly, square):
    """Estimate the power g in s_n ~ D mu^n n^g from ratio corrections."""
    seq, digest, label = _load(state, source)
    mu_val, mu_params = _resolve_mu(state, mu, mu_from_poly)
    try:
        s = _hpseq(state, seq)
        if square:
            s = square_subsample(s)
        diag = powerlaw_pipeline(s, mu_val)
    except (SeqLabError, ZeroDivisionError) as exc:
        _fail(exc)
    with state.ctx.work():
        g_pts = [(mpmath.mpf(1) / n, v) for n, v in zip(diag.g_seq.indices(), diag.g_seq.values)]
        g2_pts = [(mpmath.mpf(1) / n, v) for n, v in zip(diag.g2_seq.indices(), diag.g2_seq.values)]
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "precision": state.precision,
                    "square": square, **mu_params},
        scalars={
            "mu": scalar_entry(mu_val, state.precision),
            "g": scalar_entry(diag.g_estimate, state.precision, diag.g_spread),
        },
    )
    _write(state, report, {
        "g_n": emit_csv(g_pts, ("inv_n", "g")),
        "g2_n": emit_csv(g2_pts, ("inv_n", "g2")),
    })
    click.echo(f"g: {decimal_str(diag.g_estimate, 15)}")


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
@pass_state
def extrapolate_bst_cmd(state, source, w, square):
    """Bulirsch-Stoer extrapolation of the input terms."""
    seq, digest, label = _load(state, source)
    w_frac = _fraction(w)
    try:
        s = _hpseq(state, seq)
        if square:
            s = square_subsample(s)
        res = bst_extrapolate(s, w_frac)
    except SeqLabError as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "precision": state.precision,
                    "w": str(w_frac), "square": square, "depth": res.depth},
        scalars={"limit": scalar_entry(res.value, state.precision, res.spread)},
    )
    _write(state, report)
    click.echo(f"limit: {decimal_str(res.value, 20)}  spread: {decimal_str(res.spread, 5)}")


@main.group()
def fit():
    """Model fitting against exact terms."""


@fit.command("amplitude")
@click.argument("source")
@click.option("--mu", default=None, help="Growth constant as a decimal string.")
@click.option("--mu-from-poly", default=None,
              help="Ascending integer coefficients; mu = 1/smallest positive root.")
@click.option("--g", "g_str", required=True,
              help="Normalizing power as a rational, e.g. 9/2 for s_n n^(9/2)/mu^n.")
@click.option("--k", "--K", "k_corr", type=int, required=True,
              help="Number of 1/n correction terms.")
@pass_state
def fit_amplitude_cmd(state, source, mu, mu_from_poly, g_str, k_corr):
    """Fit s_n n^g / mu^n = C (1 + a_1/n + ... + a_K/n^K) exactly-sized."""
    seq, digest, label = _load(state, source)
    mu_val, mu_params = _resolve_mu(state, mu, mu_from_poly)
    g_frac = _fraction(g_str)
    try:
        res = amplitude_fit(seq, mu_val, g_frac, k_corr, state.ctx)
    except SeqLabError as exc:
        _fail(exc)
    with state.ctx.work():
        corr = sequence_entry(1, res.model.corrections, digits=25)
    report = AnalysisReport(
        command=_command_echo(), input_digest=digest,
        parameters={"source": label, "precision": state.precision,
                    "g": str(g_frac), "K": k_corr,
                    "cond_estimate": decimal_str(res.cond_estimate, 5),
                    "window_end": res.window_end, **mu_params},
        scalars={
            "mu": scalar_entry(mu_val, state.precision),
            "C": scalar_entry(res.model.C, state.precision, res.c_spread),
        },
        sequences={"corrections": corr},
    )
    _write(state, report)
    click.echo(f"C: {decimal_str(res.model.C, 25)}  spread: {decimal_str(res.c_spread, 5)}")


# ---------------------------------------------------------------------------
# identify / fetch
# ---------------------------------------------------------------------------

@main.group()
def identify():
    """Recognize high-precision constants."""


def _value_and_digits(value: str, digits: Optional[int]) -> tuple:
    d = digits if digits is not None else _text_digits(value)
    with mpmath.workdps(max(d, 15) + 10):
        return mpmath.mpf(value), d


@identify.command("rational")
@click.option("--value", required=True, help="Decimal string.")
@click.option("--maxden", default=1000, show_default=True)
@click.option("--digits", type=int, default=None,
              help="Certified digits of the value [default: count its digits].")
@pass_state
def identify_rational_cmd(state, value, maxden, digits):
    """Recognize a rational p/q with q <= maxden."""
    x, d = _value_and_digits(value, digits)
    frac = identify_rational(x, maxden, digits=d)
    report = AnalysisReport(
        command=_command_echo(), input_digest=text_digest(value),
        parameters={"value": value, "maxden": maxden, "digits": d},
    )
    if frac is None:
        report.notes.append("no rational identification")
        click.echo("not found")
    else:
        report.identifications.append(
            identification_entry("rational", str(frac), d)
        )
        click.echo(f"{frac.numerator}/{frac.denominator}")
    _write(state, report)


@identify.command("mult")
@click.option("--value", required=True, help="Decimal string.")
@click.option("--maxden", default=1000, show_default=True)
@click.option("--digits", type=int, default=None,
              help="Certified digits of the value [default: count its digits].")
@pass_state
def identify_mult_cmd(state, value, maxden, digits):
    """Recognize a rational multiple of a dictionary constant."""
    x, d = _value_and_digits(value, digits)
    ident = identify_with_multipliers(x, maxden=maxden, digits=d)
    report = AnalysisReport(
        command=_command_echo(), input_digest=text_digest(value),
        parameters={"value": value, "maxden": maxden, "digits": d},
    )
    if ident is None:
        report.notes.append("no dictionary-multiple identification")
        click.echo("not found")
    else:
        tag, frac = ident.payload
        report.identifications.append(
            identification_entry("dictionary-multiple", f"({frac}) * {tag}",
                                 ident.certified_digits)
        )
        click.echo(f"({frac}) * {tag}  [certified digits: {ident.certified_digits}]")
    _write(state, report)


@identify.command("minpoly")
@click.option("--value", required=True, help="Decimal string.")
@click.option("--maxdeg", default=3, show_default=True)
@click.option("--digits", type=int, default=None,
              help="Certified digits of the value [default: count its digits].")
@pass_state
def identify_minpoly_cmd(state, value, maxdeg, digits):
    """Find an integer minimal polynomial via lattice reduction."""
    x, d = _value_and_digits(value, digits)
    try:
        p = min_poly(x, maxdeg, d)
    except SeqLabError as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(), input_digest=text_digest(value),
        parameters={"value": value, "maxdeg": maxdeg, "digits": d},
    )
    if p is None:
        report.notes.append("no integer polynomial relation found")
        click.echo("not found")
    else:
        report.identifications.append(
            identification_entry("algebraic", p.format("x"), d)
        )
        report.sequences["min_poly"] = sequence_entry(0, [int(c) for c in p.coeffs])
        click.echo(p.format("x"))
    _write(state, report)


@main.command("fetch")
@click.argument("a_number")
@pass_state
def fetch_cmd(state, a_number):
    """Download (or serve from cache) the b-file for an A-number."""
    try:
        bf = fetch_oeis(a_number, cache_dir=state.cache_dir, offline=state.offline)
        seq = bf.sequence()
    except SeqLabError as exc:
        _fail(exc)
    report = AnalysisReport(
        command=_command_echo(), input_digest=text_digest(bf.text),
        parameters={"a_number": bf.a_number, "terms": len(seq),
                    "offset": seq.offset},
        sequences={bf.a_number: sequence_entry(seq.offset, seq.terms)},
    )
    _write(state, report)
    _echo_bfile(seq)


if __name__ == "__main__":
    main()
