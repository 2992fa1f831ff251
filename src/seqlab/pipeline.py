"""Stage chains shared by the command line and the study scripts.

Each function runs one chain of estimators and returns its results; the
chains that feed figures also return their CSVs as ``{key: csv_text}``,
built at the working precision of the input (digits plus guard).  The CLI
and ``scripts/`` call these functions and add only option parsing,
printing and the report.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import mpmath

from .asympt import (
    BstResult,
    HpContext,
    HpReal,
    HpSeq,
    PowerLawDiagnostics,
    StretchedModel,
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
from .errors import InsufficientTerms
from .report import emit_csv
from .sequences import Sequence
from .series import Poly, TruncSeries

# Numerator of the rational shift R(x) = (1+18x-45x^2+26x^3+x^4)/(x-1) that
# turns 12 x^3 U(x) - R(x) into a cubic series branch, U being the
# generating function of the 201-avoiding ascent sequences.
BRANCH_SHIFT_NUM = Poly([1, 18, -45, 26, 1])


def _inv_index(s: HpSeq):
    """Figure points (1/n, s_n)."""
    return ((mpmath.mpf(1) / n, v) for n, v in zip(s.indices(), s.values))


class RatioTable(NamedTuple):
    ratios: HpSeq
    spread: HpReal  # over the last 10 ratios
    csvs: dict


def ratio_table(s: HpSeq) -> RatioTable:
    """Successive ratios, tabulated against 1/n and 1/sqrt(n)."""
    if len(s) < 2:
        raise InsufficientTerms(f"ratios need at least 2 terms, got {len(s)}")
    r = ratios(s)
    with s.ctx.work():
        inv_sqrt = ((1 / mpmath.sqrt(n), v) for n, v in zip(r.indices(), r.values))
        return RatioTable(r, r.spread(10), {
            "ratios_vs_inv_n": emit_csv(_inv_index(r), ("inv_n", "ratio")),
            "ratios_vs_inv_sqrt_n": emit_csv(inv_sqrt, ("inv_sqrt_n", "ratio")),
        })


def ratio_loglog(s: HpSeq) -> dict:
    """Figures of log(r_n - 1) against log n and of its two-point gradient."""
    r = ratios(s)
    with s.ctx.work():
        shifted = r.map(lambda v: v - 1)
        grad = loglog_gradient(shifted)
        loglog = ((mpmath.log(n), mpmath.log(v))
                  for n, v in zip(shifted.indices(), shifted.values) if v > 0)
        return {
            "loglog": emit_csv(loglog, ("log_n", "log_ratio_minus_1")),
            "gradient": emit_csv(_inv_index(grad), ("inv_n", "gradient")),
        }


class StretchedFit(NamedTuple):
    e1: HpSeq
    e2: HpSeq
    e3: HpSeq
    model: StretchedModel
    spreads: dict
    a_squared: HpReal  # square of the last e1
    csvs: dict


def stretched_fit(s: HpSeq) -> StretchedFit:
    """Triple fit of exp(a pi n^(1/2)) / (c n^delta) with its e1/e2 figures."""
    e1, e2, e3 = stretched_triple_fit(stretched_lambda(s))
    model, spreads = summarize_stretched(e1, e2, e3)
    with s.ctx.work():
        return StretchedFit(e1, e2, e3, model, spreads, e1.values[-1] ** 2, {
            "e1": emit_csv(_inv_index(e1), ("inv_n", "e1")),
            "e2": emit_csv(_inv_index(e2), ("inv_n", "e2")),
        })


class SquareRatios(NamedTuple):
    squares: HpSeq  # s at the square indices, reindexed k = 1, 2, ...
    intercept: HpReal  # last value of the twice-eliminated ratios t_k
    spread: HpReal  # over the last 5 values of t_k
    csvs: dict


def square_ratios(s: HpSeq) -> SquareRatios:
    """Ratios r_k of the square subsequence and their 1/k, then 1/k^2
    eliminations (the intercepts and t_k); needs the first 4 squares."""
    squares = square_subsample(s, 4)
    r = ratios(squares)
    i1 = elim_power(r, 1)
    i2 = elim_power(i1, 2)
    with s.ctx.work():
        return SquareRatios(squares, i2.values[-1], i2.spread(5), {
            "r_sq": emit_csv(zip(r.indices(), r.values), ("k", "ratio")),
            "intercepts": emit_csv(_inv_index(i1), ("inv_k", "intercept")),
            "t_n": emit_csv(_inv_index(i2), ("inv_k", "t")),
        })


def power_law(s: HpSeq, mu) -> tuple[PowerLawDiagnostics, dict]:
    """powerlaw_pipeline with its g_n and g2_n figures."""
    diag = powerlaw_pipeline(s, mu)
    with s.ctx.work():
        return diag, {
            "g_n": emit_csv(_inv_index(diag.g_seq), ("inv_n", "g")),
            "g2_n": emit_csv(_inv_index(diag.g2_seq), ("inv_n", "g2")),
        }


def square_bst(s: HpSeq, w, count: Optional[int] = None) -> BstResult:
    """Bulirsch-Stoer limit of s on its first `count` square indices 1, 4,
    9, ... (all of them by default); needs the first 4 squares."""
    squares = square_subsample(s, 4)
    return bst_extrapolate(HpSeq(1, squares.values[:count], s.ctx), w)


def growth_rate(p: Poly, ctx: HpContext) -> tuple[HpReal, HpReal]:
    """(rho, mu): the smallest positive root of p and mu = 1/rho, at the
    working precision of ctx."""
    with ctx.work():
        rho = poly_smallest_positive_root(p, digits=ctx.digits + 10)
        return rho, 1 / rho


def branch_series(u: Sequence, order: int) -> Sequence:
    """Integer coefficients 0..order-1 of w(x) = 12 x^3 U(x) - R(x), the
    series branch of a cubic equation, from the ascent counts u."""
    series = TruncSeries(u.terms[:order])
    w = (
        series.shift(3).truncate(order) * 12
        - TruncSeries.from_poly(BRANCH_SHIFT_NUM, order)
        * TruncSeries.from_poly(Poly([-1, 1]), order).inverse()
    )
    return Sequence(0, w.coeffs)
