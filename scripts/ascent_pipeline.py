#!/usr/bin/env python3
"""Full experimental workflow for the 201-avoiding ascent sequence counts.

From a stored b-file: guess the recurrence from the first 23 terms and
check it on every stored term, derive and check the differential equation,
guess and check the cubic of the generating function itself, take the
dominant singularity from the differential equation's leading coefficient
and the exponent there from its indicial equation, fit the asymptotic
amplitude at high precision, and recover the amplitude's minimal polynomial
plus the matching radical expression.  Writes one JSON report and prints a
summary.
The chain is `seqlab.pipeline.ascent_study`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from seqlab.errors import RUN_ERRORS
from seqlab.pipeline import ascent_study
from seqlab.report import write_run

DEFAULT_BFILE = Path(__file__).resolve().parents[1] / "tests" / "data" / "b202062.txt"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bfile", type=Path, default=DEFAULT_BFILE)
    parser.add_argument("--terms", type=int, default=5000,
                        help="expansion length for the amplitude fit")
    parser.add_argument("--digits", type=int, default=250,
                        help="working precision for the amplitude fit")
    parser.add_argument("--corrections", type=int, default=20,
                        help="number of 1/n correction terms in the fit")
    parser.add_argument("--report", type=Path, default=Path("ascent_report.json"))
    args = parser.parse_args()
    try:
        fields = ascent_study(args.bfile.read_text(encoding="utf-8"),
                              args.terms, args.digits, args.corrections)
        stdout = write_run(args.report,
                           "scripts/ascent_pipeline.py " + " ".join(sys.argv[1:]), fields)
    except RUN_ERRORS as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1
    print(stdout, end="")
    print(f"report: {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
