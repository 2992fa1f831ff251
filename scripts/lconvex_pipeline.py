#!/usr/bin/env python3
"""Stretched-exponential analysis of the L-convex polyomino area counts.

Generates the exact counts, fits the three stretched-exponential parameters
on sliding index triples, cross-checks the growth scale on the square
subsequence, estimates the power-law exponent, extrapolates the amplitude
constant with Bulirsch-Stoer acceleration, and identifies it as a rational
multiple of sqrt(2).  Also reports how the stack polyomino counts approach
their classical asymptotic form.  Writes one JSON report plus figure CSVs.
The chain is `seqlab.pipeline.lconvex_study`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from seqlab.errors import RUN_ERRORS
from seqlab.pipeline import lconvex_study
from seqlab.report import write_run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--terms", type=int, default=2000,
                        help="number of area counts to analyze")
    parser.add_argument("--digits", type=int, default=100,
                        help="working precision in decimal digits")
    parser.add_argument("--squares", type=int,
                        help="square-subsampled values fed to the extrapolator "
                             "(default: every square up to --terms)")
    parser.add_argument("--report", type=Path, default=Path("lconvex_report.json"))
    args = parser.parse_args()
    try:
        fields = lconvex_study(args.terms, args.digits, args.squares)
        stdout = write_run(args.report,
                           "scripts/lconvex_pipeline.py " + " ".join(sys.argv[1:]), fields)
    except RUN_ERRORS as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    print(stdout, end="")
    print(f"report: {args.report} (+ {len(fields['csvs'])} CSV files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
