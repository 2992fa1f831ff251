"""Stage chains shared by the command line and the study scripts.

Each function runs one chain of estimators and returns its results; the
chains that feed figures also return their CSVs as ``{key: csv_text}``,
whose values print at the requested digits of the input's context.  The
studies `lconvex_study` and `ascent_study` run a whole chain and return a
run's fields, as a CLI body does; the CLI and ``scripts/`` add only option
parsing, `report.write_run` and printing.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import NamedTuple, Optional

import mpmath
from mpmath.libmp import fone, from_int, mpf_div, round_nearest

from .asympt import (
    HpSeq,
    PowerLawDiagnostics,
    StretchedModel,
    amplitude_fit,
    bst_extrapolate,
    elim_power,
    loglog_gradient,
    loglog_points,
    poly_smallest_positive_root,
    powerlaw_pipeline,
    ratios,
    square_subsample,
    stretched_amplitudes,
    stretched_lambda,
    stretched_triple_fit,
    summarize_stretched,
)
from .dfinite import algeq_residual, expand_prec, ode_residual, prec_to_ode
from .errors import InsufficientTerms, SeqLabError
from .fixed import HpContext, sqrt_nearest
from .guess import guess_algeq, guess_prec
from .identify import identify_with_multipliers, min_poly
from .oeis import parse_bfile
from .report import decimal_str, emit_csv, identification_entry, scalar_entry, text_digest
from .sequences import Sequence, gen_lconvex_area, gen_stack_area
from .series import Poly, div_one_minus_qm

# Numerator of the rational shift R(x) = (1+18x-45x^2+26x^3+x^4)/(x-1) that
# turns 12 x^3 U(x) - R(x) into a cubic series branch, U being the
# generating function of the 201-avoiding ascent sequences.
BRANCH_SHIFT_NUM = Poly([1, 18, -45, 26, 1])


def _inv_index(s: HpSeq):
    """Figure points (1/n, s_n), with 1/n exact, so that it is rounded once
    when printed."""
    return ((Fraction(1, n), v) for n, v in zip(s.indices(), s.values))


def _inv_sqrt(n: int, prec: int) -> mpmath.mpf:
    """1 / sqrt(n) as `1 / mpmath.sqrt(n)` gives it at prec bits, each
    step rounded to nearest, computed on raw mpfs."""
    root = sqrt_nearest(from_int(n), prec)
    return mpmath.mp.make_mpf(mpf_div(fone, root, prec, round_nearest))


class RatioTable(NamedTuple):
    ratios: HpSeq
    spread: mpmath.mpf  # over the last 10 ratios
    csvs: dict


def ratio_table(s: HpSeq) -> RatioTable:
    """Successive ratios, tabulated against 1/n and 1/sqrt(n); the spread
    covers two ratios at least, so 3 terms."""
    if len(s) < 3:
        raise InsufficientTerms(f"ratios need at least 3 terms, got {len(s)}")
    r = ratios(s)
    inv_sqrt = ((_inv_sqrt(n, s.ctx.prec), v) for n, v in zip(r.indices(), r.values))
    return RatioTable(r, r.spread(10), {
        "ratios_vs_inv_n": emit_csv(_inv_index(r), ("inv_n", "ratio"), s.ctx.digits),
        "ratios_vs_inv_sqrt_n": emit_csv(inv_sqrt, ("inv_sqrt_n", "ratio"), s.ctx.digits),
    })


def ratio_loglog(s: HpSeq) -> dict:
    """Figures of log(r_n - 1) against log n and of its two-point gradient."""
    shifted = ratios(s).map(lambda v: v - 1)
    points = loglog_points(shifted)
    grad = loglog_gradient(shifted, points)
    return {
        "loglog": emit_csv(points, ("log_n", "log_ratio_minus_1"), s.ctx.digits),
        "gradient": emit_csv(_inv_index(grad), ("inv_n", "gradient"), s.ctx.digits),
    }


class StretchedFit(NamedTuple):
    e1: HpSeq
    e2: HpSeq
    e3: HpSeq
    model: StretchedModel
    spreads: dict
    a_squared: mpmath.mpf  # square of the last e1
    csvs: dict


def stretched_fit(s: HpSeq) -> StretchedFit:
    """Triple fit of exp(a pi n^(1/2)) / (c n^delta) with its e1/e2 figures;
    the 10 estimates its spreads cover need 12 terms."""
    if len(s) < 12:
        raise InsufficientTerms(f"the stretched fit needs 12 terms at n >= 1, got {len(s)}")
    e1, e2, e3 = stretched_triple_fit(stretched_lambda(s))
    model, spreads = summarize_stretched(e1, e2, e3)
    with s.ctx.work():
        a_squared = e1.values[-1] ** 2
    return StretchedFit(e1, e2, e3, model, spreads, a_squared, {
        "e1": emit_csv(_inv_index(e1), ("inv_n", "e1"), s.ctx.digits),
        "e2": emit_csv(_inv_index(e2), ("inv_n", "e2"), s.ctx.digits),
    })


class SquareRatios(NamedTuple):
    squares: HpSeq  # s at the square indices, reindexed k = 1, 2, ...
    intercept: mpmath.mpf  # last value of the twice-eliminated ratios t_k
    spread: mpmath.mpf  # over the last 5 values of t_k
    csvs: dict


def square_ratios(s: HpSeq) -> SquareRatios:
    """Ratios r_k of the square subsequence and their 1/k, then 1/k^2
    eliminations (the intercepts and t_k); the spread covers two t_k at
    least, so the first 5 squares."""
    squares = square_subsample(s, 5)
    r = ratios(squares)
    i1 = elim_power(r, 1)
    i2 = elim_power(i1, 2)
    return SquareRatios(squares, i2.values[-1], i2.spread(5), {
        "r_sq": emit_csv(zip(r.indices(), r.values), ("k", "ratio"), s.ctx.digits),
        "intercepts": emit_csv(_inv_index(i1), ("inv_k", "intercept"), s.ctx.digits),
        "t_n": emit_csv(_inv_index(i2), ("inv_k", "t"), s.ctx.digits),
    })


def power_law(s: HpSeq, mu) -> tuple[PowerLawDiagnostics, dict]:
    """powerlaw_pipeline with its g_n and g2_n figures."""
    diag = powerlaw_pipeline(s, mu)
    return diag, {
        "g_n": emit_csv(_inv_index(diag.g_seq), ("inv_n", "g"), s.ctx.digits),
        "g2_n": emit_csv(_inv_index(diag.g2_seq), ("inv_n", "g2"), s.ctx.digits),
    }


def growth_rate(p: Poly, ctx: HpContext) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(rho, mu): the smallest positive root of p and mu = 1/rho, at the
    working precision of ctx."""
    with ctx.work():
        rho = poly_smallest_positive_root(p, digits=ctx.digits + ctx.guard)
        return rho, 1 / rho


def branch_series(u: Sequence, order: int) -> Sequence:
    """Integer coefficients 0..order-1 of w(x) = 12 x^3 U(x) - R(x), the
    series branch of a cubic equation, from the ascent counts u.  Since
    -R(x) = num(x)/(1 - x), that term is the prefix sum of num."""
    w = (list(BRANCH_SHIFT_NUM.coeffs) + [0] * order)[:order]
    div_one_minus_qm(w, 1)
    for k in range(3, order):
        w[k] += 12 * u.terms[k - 3]
    return Sequence(0, w)


def lconvex_study(terms: int, digits: int, squares: Optional[int] = None) -> dict:
    """The L-convex polyomino study: stretched-exponential triple fit,
    square-subsequence ratio intercept and power law, Bulirsch-Stoer
    amplitude constant on the first `squares` squares (by default every
    square up to `terms`) and its identification, and the stack counts
    against their asymptotic form.  Returns the run's fields, which record
    the squares used; raises before any stage runs unless terms >= 25,
    4 <= squares <= isqrt(terms) and digits >= 1."""
    if terms < 25:
        raise InsufficientTerms("need the terms at indices 1 to 25 (the squares 1, 4, 9, 16, 25)")
    held = isqrt(terms)
    squares = held if squares is None else squares
    if squares < 4:
        raise InsufficientTerms(f"extrapolation needs at least 4 squares, got {squares}")
    if squares > held:
        raise InsufficientTerms(f"{terms} terms hold {held} squares, not {squares}")
    ctx = HpContext(digits)
    counts = gen_lconvex_area(terms + 1)
    hs = HpSeq.from_sequence(counts, ctx).slice_from(1)

    fit = stretched_fit(hs)
    e1, e2, e3 = (e.values[-1] for e in (fit.e1, fit.e2, fit.e3))
    sq = square_ratios(hs)
    with ctx.work():
        a_true = mpmath.sqrt(ctx.mpf(Fraction(13, 6)))
        target = mpmath.exp(mpmath.pi * a_true)
    diagnostics, power_csvs = power_law(sq.squares, target)
    # the amplitudes at the squares that the extrapolation reads, and no others
    amplitudes = stretched_amplitudes(hs, a_true, Fraction(1, 2), Fraction(3, 2),
                                      [k * k for k in range(1, squares + 1)])
    bst = bst_extrapolate(HpSeq(1, amplitudes, ctx), Fraction(1, 2))
    identified = identify_with_multipliers(bst.value, digits=12)
    stacks = gen_stack_area(terms)
    quarter = stacks.last_index // 4
    identifications = []

    with ctx.work():
        def stack_ratio(n: int):
            n_ = ctx.mpf(n)
            return stacks.term(n) / (mpmath.exp(2 * mpmath.pi * mpmath.sqrt(n_ / 3)) / (
                8 * mpmath.power(3, ctx.mpf(Fraction(3, 4))) * n_ ** ctx.mpf(Fraction(5, 4))))
        r_quarter, r_last = stack_ratio(quarter), stack_ratio(stacks.last_index)
        exact = 13 * mpmath.sqrt(2) / 768
        lines = [
            f"triple fit at n = {hs.last_index}:",
            f"  e1   = {decimal_str(e1, 12)}  "
            f"(e1^2 = {decimal_str(fit.a_squared, 12)}, expect 13/6 = 2.1666...)",
            f"  e2   = {decimal_str(e2, 10)}  (expect -3/2)",
            f"  e3   = {decimal_str(e3, 10)}",
            "  tail spreads: " + ", ".join(
                f"{k} {decimal_str(v, 3)}" for k, v in fit.spreads.items()),
            f"square-subsequence ratio intercept = {decimal_str(sq.intercept, 12)}",
            f"  vs exp(pi sqrt(13/6)) = {decimal_str(target, 12)}  "
            f"(diff {decimal_str(abs(sq.intercept - target), 3)})",
            f"power-law exponent on squares = "
            f"{decimal_str(diagnostics.g_estimate, 8)}  (expect -3, i.e. delta = 3/2)",
            f"extrapolated amplitude constant = {decimal_str(bst.value, 15)}  "
            f"(spread {decimal_str(bst.spread, 3)}, depth {bst.depth})",
            f"  vs 13 sqrt(2)/768 = {decimal_str(exact, 15)}  "
            f"(diff {decimal_str(abs(bst.value - exact), 3)})",
        ]
        if identified is not None:
            identifications.append(identification_entry(
                identified.kind, str(identified), identified.certified_digits))
            lines.append(f"  identified: {identified}  "
                         f"[{identified.certified_digits} certified digits]")
        lines.append(f"stack counts vs exp(2 pi sqrt(n/3))/(8*3^(3/4) n^(5/4)): "
                     f"ratio {decimal_str(r_quarter, 8)} at n={quarter}, "
                     f"{decimal_str(r_last, 8)} at n={stacks.last_index}")

    return dict(
        input_digest=text_digest(",".join(str(t) for t in counts.terms)),
        parameters={"terms": terms, "digits": digits, "squares": squares},
        scalars={
            "e1": scalar_entry(e1, 12, spread=fit.spreads["a"]),
            "e1_squared": scalar_entry(fit.a_squared, 12),
            "e2": scalar_entry(e2, 12, spread=fit.spreads["delta"]),
            "e3": scalar_entry(e3, 12, spread=fit.spreads["log_c"]),
            "ratio_intercept": scalar_entry(sq.intercept, 12),
            "g_estimate": scalar_entry(diagnostics.g_estimate, 10, diagnostics.g_spread),
            "amplitude_constant": scalar_entry(bst.value, 14, spread=bst.spread),
            "stack_ratio_last": scalar_entry(r_last, 10),
        },
        identifications=identifications,
        notes=["model: counts ~ exp(e1 pi sqrt(n)) * n^e2 * exp(e3)",
               "amplitude constant extrapolated on the square subsequence"],
        csvs={**sq.csvs, **fit.csvs, **power_csvs},
        stdout="".join(line + "\n" for line in lines),
    )


def ascent_study(bfile_text: str, terms: int, digits: int, corrections: int) -> dict:
    """The 201-avoiding ascent sequence study on a b-file's text, in the
    paper's order: the recurrence guessed from the first 23 terms and checked
    on every stored term, its differential equation checked on 2000 terms,
    the cubic of the shifted branch guessed on 64 coefficients and checked
    on 200, rho as the smallest positive root of the ODE's leading
    coefficient and mu = 1/rho, the amplitude C fitted with `corrections`
    1/n terms on `terms` terms, and the minimal polynomial of
    A^2 = (16 sqrt(pi) C / 105)^2.  Returns the run's fields; raises before
    any stage runs unless corrections >= 0, terms >= corrections + 3 (the
    fit reads corrections + 2 terms at n >= 1 of the `terms` from n = 0) and
    digits >= 1, and raises SeqLabError when a guess or a check fails."""
    if corrections < 0:
        raise ValueError(f"need corrections >= 0, got {corrections}")
    if terms < corrections + 3:
        raise InsufficientTerms(f"an amplitude fit with {corrections} corrections reads "
                                f"K + 2 = {corrections + 2} terms at n >= 1, so it "
                                f"needs terms >= {corrections + 3}, got {terms}")
    ctx = HpContext(digits)
    stored = parse_bfile(bfile_text)
    head = stored.head(23)
    rec = guess_prec(head)
    if rec is None:
        raise SeqLabError("no recurrence found from the 23-term prefix")
    u = expand_prec(rec, head, max(2000, terms, len(stored)))
    wrong = next((n for n, t, v in zip(stored.indices(), stored.terms, u.terms)
                  if t != v), None)
    if wrong is not None:
        raise SeqLabError(f"the recurrence from the 23-term prefix disagrees with the "
                          f"b-file at n = {wrong}")
    ode = prec_to_ode(rec, head)
    residual = ode_residual(ode, u.head(2000))
    nonzero = None if residual is None else f"nonzero at x^{residual}"
    branch = branch_series(u, 200)
    cubic = guess_algeq(branch.head(64), 12, 3)
    if cubic is None:
        raise SeqLabError("no algebraic equation found from 64 branch coefficients")
    failed_at = algeq_residual(cubic, branch)
    if failed_at is not None:
        raise SeqLabError(f"the algebraic equation fails at x^{failed_at} of the branch")

    rho, mu = growth_rate(ode.coeffs[-1], ctx)
    fit = amplitude_fit(u.head(terms), mu, Fraction(9, 2), corrections, ctx)
    c_value = fit.model.C
    with ctx.work():
        a_sq = (c_value * 16 * mpmath.sqrt(mpmath.pi) / 105) ** 2
        poly_a_sq = min_poly(a_sq, maxdeg=3, digits=50)
        closed_mu = ctx.mpf(Fraction(8, 3)) + ctx.mpf(Fraction(14, 3)) * mpmath.cos(
            mpmath.acos(ctx.mpf(Fraction(13, 14))) / 3)
        s = mpmath.sqrt(9289)
        inner = mpmath.pi / 3 + mpmath.acos(255709 * s / 24653006) / 3
        closed_c = ctx.mpf(Fraction(35, 16)) * mpmath.sqrt(
            4107 / mpmath.pi - 84 / mpmath.pi * s * mpmath.cos(inner))
        d_closed = abs(c_value - closed_c)
        lines = [
            f"recurrence (order {rec.order}, degree {rec.degree}) from 23 terms: {rec}",
            f"  reproduces all {len(stored)} stored terms",
            f"derived ODE: order {ode.order}, degree {ode.degree}; residual on "
            f"2000 terms: {nonzero or 'all zero'}",
            f"algebraic equation of the shifted branch: degree {cubic.degree} in x, "
            f"{cubic.degree_y} in y; residual on 200 coefficients: all zero",
            f"singularity rho = {decimal_str(rho, 20)} "
            f"(smallest positive root of the ODE's leading coefficient)",
            f"growth constant mu = 1/rho = {decimal_str(mu, 20)}",
            f"  vs (14/3)cos(arccos(13/14)/3) + 8/3: "
            f"diff {decimal_str(abs(mu - closed_mu), 3)}",
            f"amplitude C = {decimal_str(c_value, 20)} "
            f"(window spread {decimal_str(fit.c_spread, 3)})",
        ]
        if poly_a_sq is not None:
            lines.append(f"minimal polynomial of A^2 (A = 16 sqrt(pi) C / 105): "
                         f"{poly_a_sq.format('B')} = 0")
        else:
            lines.append("minimal polynomial of A^2: not found")
        lines.append(f"closed-form radical for C: diff {decimal_str(d_closed, 3)}")

    return dict(
        input_digest=text_digest(bfile_text),
        parameters={"terms": terms, "digits": digits, "corrections": corrections,
                    "recurrence": rec.coeff_lists(),
                    "algebraic_equation": cubic.coeff_lists()},
        scalars={
            "rho": scalar_entry(rho, digits),
            "mu": scalar_entry(mu, digits),
            "amplitude_C": scalar_entry(c_value, digits, spread=fit.c_spread),
            "A_squared": scalar_entry(a_sq, digits),
            "closed_form_C_diff": scalar_entry(d_closed, 5),
        },
        notes=[
            f"ODE order {ode.order}, degree {ode.degree}, residual {nonzero or 'all-zero'}",
            "A^2 minimal polynomial: "
            + (poly_a_sq.format("B") if poly_a_sq is not None else "not found"),
        ],
        stdout="".join(line + "\n" for line in lines),
    )
