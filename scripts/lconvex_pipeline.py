#!/usr/bin/env python3
"""Stretched-exponential analysis of the L-convex polyomino area counts.

Generates the exact counts, fits the three stretched-exponential parameters
on sliding index triples, cross-checks the growth scale on the square
subsequence, estimates the power-law exponent, extrapolates the amplitude
constant with Bulirsch-Stoer acceleration, and identifies it as a rational
multiple of sqrt(2).  Also reports how the stack polyomino counts approach
their classical asymptotic form.  Writes one JSON report plus figure CSVs.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import mpmath

from seqlab import (
    AnalysisReport,
    HpContext,
    HpSeq,
    gen_lconvex_area,
    gen_stack_area,
    identification_entry,
    identify_with_multipliers,
    scalar_entry,
    stretched_amplitude_seq,
    text_digest,
)
from seqlab.errors import RUN_ERRORS
from seqlab.pipeline import power_law, square_bst, square_ratios, stretched_fit
from seqlab.report import write_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--terms", type=int, default=2000,
                        help="number of area counts to analyze")
    parser.add_argument("--digits", type=int, default=100,
                        help="working precision in decimal digits")
    parser.add_argument("--squares", type=int, default=44,
                        help="square-subsampled values fed to the extrapolator")
    parser.add_argument("--report", type=Path, default=Path("lconvex_report.json"))
    args = parser.parse_args()
    try:
        return study(args)
    except RUN_ERRORS as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1


def study(args: argparse.Namespace) -> int:
    counts = gen_lconvex_area(args.terms + 1)
    ctx = HpContext(args.digits)
    hs = HpSeq.from_sequence(counts, ctx).slice_from(1)

    fit = stretched_fit(hs)
    e1, e2, e3 = (e.values[-1] for e in (fit.e1, fit.e2, fit.e3))
    with ctx.work():
        print(f"triple fit at n = {hs.last_index}:")
        print(f"  e1   = {mpmath.nstr(e1, 12)}  "
              f"(e1^2 = {mpmath.nstr(fit.a_squared, 12)}, expect 13/6 = 2.1666...)")
        print(f"  e2   = {mpmath.nstr(e2, 10)}  (expect -3/2)")
        print(f"  e3   = {mpmath.nstr(e3, 10)}")
        print(f"  tail spreads: " + ", ".join(
            f"{k} {mpmath.nstr(v, 3)}" for k, v in fit.spreads.items()))

    sq = square_ratios(hs)
    with ctx.work():
        target = mpmath.exp(mpmath.pi * mpmath.sqrt(mpmath.mpf(13) / 6))
        print(f"square-subsequence ratio intercept = {mpmath.nstr(sq.intercept, 12)}")
        print(f"  vs exp(pi sqrt(13/6)) = {mpmath.nstr(target, 12)}  "
              f"(diff {mpmath.nstr(abs(sq.intercept - target), 3)})")

    diagnostics, power_csvs = power_law(sq.squares, target)
    with ctx.work():
        print(f"power-law exponent on squares = "
              f"{mpmath.nstr(diagnostics.g_estimate, 8)}  (expect -3, i.e. delta = 3/2)")

    with ctx.work():
        a_true = mpmath.sqrt(mpmath.mpf(13) / 6)
    amplitudes = stretched_amplitude_seq(hs, a_true, Fraction(1, 2), Fraction(3, 2))
    bst = square_bst(amplitudes, Fraction(1, 2), args.squares)
    identified = identify_with_multipliers(bst.value, digits=12)
    with ctx.work():
        exact = 13 * mpmath.sqrt(2) / 768
        print(f"extrapolated amplitude constant = {mpmath.nstr(bst.value, 15)}  "
              f"(spread {mpmath.nstr(bst.spread, 3)}, depth {bst.depth})")
        print(f"  vs 13 sqrt(2)/768 = {mpmath.nstr(exact, 15)}  "
              f"(diff {mpmath.nstr(abs(bst.value - exact), 3)})")
    if identified is not None:
        tag, frac = identified.payload
        print(f"  identified: ({frac}) * {tag}  "
              f"[{identified.certified_digits} certified digits]")

    stacks = gen_stack_area(args.terms)
    with ctx.work():
        def stack_prediction(n: int):
            n_ = mpmath.mpf(n)
            return mpmath.exp(2 * mpmath.pi * mpmath.sqrt(n_ / 3)) / (
                8 * mpmath.power(3, mpmath.mpf(3) / 4)
                * mpmath.power(n_, mpmath.mpf(5) / 4)
            )

        quarter = stacks.last_index // 4
        r_quarter = stacks.term(quarter) / stack_prediction(quarter)
        r_last = stacks.term(stacks.last_index) / stack_prediction(stacks.last_index)
        print(f"stack counts vs exp(2 pi sqrt(n/3))/(8*3^(3/4) n^(5/4)): "
              f"ratio {mpmath.nstr(r_quarter, 8)} at n={quarter}, "
              f"{mpmath.nstr(r_last, 8)} at n={stacks.last_index}")

    csvs = {**sq.csvs, **fit.csvs, **power_csvs}

    report = AnalysisReport(
        command="scripts/lconvex_pipeline.py " + " ".join(sys.argv[1:]),
        input_digest=text_digest(",".join(str(t) for t in counts.terms)),
        parameters={
            "terms": args.terms,
            "digits": args.digits,
            "squares": args.squares,
        },
        scalars={
            "e1": scalar_entry(e1, 12, spread=fit.spreads["a"]),
            "e1_squared": scalar_entry(fit.a_squared, 12),
            "e2": scalar_entry(e2, 12, spread=fit.spreads["delta"]),
            "e3": scalar_entry(e3, 12, spread=fit.spreads["log_c"]),
            "ratio_intercept": scalar_entry(sq.intercept, 12),
            "g_estimate": scalar_entry(
                diagnostics.g_estimate, 10, spread=diagnostics.g_spread
            ),
            "amplitude_constant": scalar_entry(bst.value, 14, spread=bst.spread),
            "stack_ratio_last": scalar_entry(r_last, 10),
        },
        identifications=(
            [identification_entry(
                identified.kind,
                f"({identified.payload[1]}) * {identified.payload[0]}",
                identified.certified_digits,
            )]
            if identified is not None
            else []
        ),
        notes=[
            "model: counts ~ exp(e1 pi sqrt(n)) * n^e2 * exp(e3)",
            "amplitude constant extrapolated on the square subsequence",
        ],
    )
    write_report(args.report, report, csvs)
    print(f"report: {args.report} (+ {len(csvs)} CSV files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
