#!/usr/bin/env python3
"""Cross-check the bundled 201-avoider b-file against independent oracles.

Verifies, in order: the brute-force enumerator reproduces the stored head;
the recurrence guessed from a 24-term prefix annihilates every stored term
and predicts the remaining ones; the derived differential equation
annihilates a long expansion; and the shifted cubic combination of the
generating function closes algebraically.  Exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from seqlab import (
    algeq_residual,
    enum_ascent_avoiding,
    expand_prec,
    guess_algeq,
    guess_prec,
    ode_residual,
    parse_bfile,
    prec_residual,
    prec_to_ode,
)
from seqlab.errors import RUN_ERRORS
from seqlab.pipeline import branch_series

DEFAULT_BFILE = Path(__file__).resolve().parents[1] / "tests" / "data" / "b202062.txt"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bfile", type=Path, default=DEFAULT_BFILE)
    parser.add_argument(
        "--brute-max", type=int, default=12,
        help="largest length to enumerate by brute force (default 12)",
    )
    args = parser.parse_args()
    try:
        return study(args)
    except RUN_ERRORS as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1


def study(args: argparse.Namespace) -> int:
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        failures += 0 if ok else 1

    stored = parse_bfile(args.bfile.read_text(encoding="utf-8"))
    check(f"b-file parsed: {len(stored)} terms from index {stored.offset}", True)

    brute = enum_ascent_avoiding("201", args.brute_max)
    check(
        f"brute-force enumeration matches stored terms 0..{args.brute_max}",
        brute.terms == stored.terms[: args.brute_max + 1],
    )

    head = stored.head(24)
    rec = guess_prec(head)
    check("recurrence guessed from 24-term prefix", rec is not None)
    if rec is None:
        return 1
    print(f"     {rec}")
    check(
        "recurrence annihilates every stored term",
        prec_residual(rec, stored) == len(stored) - rec.order,
    )
    u = expand_prec(rec, head, max(len(stored), 600))
    check(
        f"recurrence predicts stored terms 24..{stored.last_index}",
        u.head(len(stored)).terms == stored.terms,
    )

    ode = prec_to_ode(rec, head)
    check(
        f"derived order-{ode.order} differential equation annihilates 600 terms",
        ode_residual(ode, u.head(600)) is None,
    )

    w64 = branch_series(u.head(64), 64)
    cubic = guess_algeq(w64, dxmax=12, dymax=3)
    check("cubic equation guessed for the shifted branch", cubic is not None)
    if cubic is not None:
        w200 = branch_series(u.head(200), 200)
        check(
            "cubic residual all-zero against 200 branch coefficients",
            algeq_residual(cubic, w200) is None,
        )

    print("all checks passed" if failures == 0 else f"{failures} check(s) failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
