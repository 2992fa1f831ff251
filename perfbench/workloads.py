"""The four study workloads: inputs from a seed, one timed study, its checks.

A workload makes every input and every reference value in the set-up
process, before any study runs; references never come from seqlab.
`study` is the timed part and reaches seqlab only through public
functions, wrapping each call in a span named after the seqlab module that
does the work.  `check` runs untimed in the same child and turns the study's
outputs into a verdict: ok, digits matching the reference, and for the CLI
the report digest that repeated commands must share.

Why each workload exists, and which layer metric should move on which of
them, is written down in perfbench/README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import mpmath

from harness import Design, pick_int, significant_digits

import seqlab
import seqlab.cli
from seqlab import (
    AnalysisReport,
    HpContext,
    HpSeq,
    Poly,
    Sequence,
    TruncSeries,
    algeq_residual,
    amplitude_fit,
    bst_extrapolate,
    elim_power,
    emit_csv,
    enum_ascent_avoiding,
    expand_prec,
    gen_lconvex_area,
    gen_stack_area,
    guess_algeq,
    guess_prec,
    identification_entry,
    identify_rational,
    identify_with_multipliers,
    min_poly,
    ode_residual,
    parse_bfile,
    poly_smallest_positive_root,
    powerlaw_pipeline,
    prec_residual,
    prec_to_ode,
    ratios,
    scalar_entry,
    square_subsample,
    stretched_amplitude_seq,
    stretched_lambda,
    stretched_triple_fit,
    summarize_stretched,
    text_digest,
)

BFILE = Path("tests") / "data" / "b202062.txt"

# Irreducible cubic whose smallest positive root is the dominant singularity
# of the 201-avoiding ascent generating function.
SINGULARITY_CUBIC = (1, -8, 5, 1)
# Minimal polynomial of A^2 = (16 sqrt(pi) C / 105)^2, ascending.
A_SQUARED_POLY = (1, 17839, -1369, 1)
# Numerator of the rational shift that turns 12 x^3 U(x) into a cubic branch.
BRANCH_SHIFT_NUM = (1, 18, -45, 26, 1)


def read_bfile_terms(text: str) -> tuple[int, list[int]]:
    """(offset, terms) of b-file text; the harness's own reader, not seqlab's."""
    offset, terms = None, []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            idx, value = (int(f) for f in line.split())
            if offset is None:
                offset = idx
            if idx != offset + len(terms):
                raise ValueError(f"b-file index {idx} out of order")
            terms.append(value)
    return offset, terms


def stack_counts(n_max: int) -> list[int]:
    """Stack polyominoes of area 1..n_max, counted by their first tallest column.

    Columns left of it form a partition into parts below its height p, the
    columns right of it a partition into parts of at most p.
    """
    def partitions(max_part: int) -> list[int]:
        ways = [1] + [0] * n_max
        for part in range(1, max_part + 1):
            for total in range(part, n_max + 1):
                ways[total] += ways[total - part]
        return ways

    counts = [0] * (n_max + 1)
    for p in range(1, n_max + 1):
        left, right = partitions(p - 1), partitions(p)
        for n in range(p, n_max + 1):
            counts[n] += sum(left[l] * right[n - p - l] for l in range(n - p + 1))
    return counts[1:]


def closed_form_c(dps: int) -> str:
    """The ascent amplitude C as the closed-form radical, to dps digits."""
    with mpmath.workdps(dps + 20):
        s = mpmath.sqrt(9289)
        inner = mpmath.pi / 3 + mpmath.acos(255709 * s / 24653006) / 3
        c = mpmath.mpf(35) / 16 * mpmath.sqrt(
            4107 / mpmath.pi - 84 / mpmath.pi * s * mpmath.cos(inner)
        )
        return mpmath.nstr(c, dps)


def int_coeffs(p) -> list[int]:
    """Ascending integer coefficients of a seqlab Poly."""
    out = []
    for c in p.coeffs:
        c = Fraction(c)
        if c.denominator != 1:
            raise ValueError(f"non-integral coefficient {c}")
        out.append(c.numerator)
    return out


def same_up_to_sign(found: list[int], planted) -> bool:
    planted = list(planted)
    return found == planted or found == [-c for c in planted]


def nearest_root_digits(coeffs: list[int], value: str, cap: int) -> float:
    """Digits to which the root of `coeffs` nearest to `value` matches it."""
    with mpmath.workdps(cap + 30):
        x = mpmath.mpf(value)
        roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=4 * cap)
        best = min(roots, key=lambda r: abs(r - x))
        return significant_digits(mpmath.re(best), x, cap)


# ---------------------------------------------------------------------------
# lconvex: the L-convex polyomino study at 100 digits
# ---------------------------------------------------------------------------

class LConvex:
    name = "lconvex"
    cycle = 1
    # Term counts.  Below 900 the 29-square window (841..899 terms) gives the
    # extrapolated amplitude too few digits to identify; see README.md.
    lo, hi = 900, 1300
    digits = 100
    squares = 44

    def make_inputs(self, seed: int, n: int, root: Path) -> dict:
        design = Design(seed, 1, n)
        studies = [
            {"terms": pick_int(design.point(i)[0], self.lo, self.hi)} for i in range(n)
        ]
        with mpmath.workdps(130):
            amplitude = mpmath.nstr(13 * mpmath.sqrt(2) / 768, 120)
        return {"studies": studies, "refs": {"amplitude": amplitude}}

    def study(self, inp: dict, refs: dict, tr) -> dict:
        n_terms = inp["terms"]
        with tr.span("sequences.gen"):
            counts = gen_lconvex_area(n_terms + 1)
            stacks = gen_stack_area(n_terms)
        tr.count("sequences.terms", len(counts) + len(stacks))
        tr.peak("sequences.max_term_bits", max(counts.terms).bit_length())

        ctx = HpContext(self.digits)
        with tr.span("asympt.hpseq"):
            hs = HpSeq.from_sequence(counts, ctx).slice_from(1)
        with tr.span("asympt.stretched"):
            lam = stretched_lambda(hs, Fraction(1, 2))
            e1, e2, e3 = stretched_triple_fit(lam)
            _, spreads = summarize_stretched(e1, e2, e3)
        with tr.span("asympt.ratio"):
            subsampled = square_subsample(hs)
            ratio_seq = ratios(subsampled)
            intercept_1 = elim_power(ratio_seq, 1)
            intercept_2 = elim_power(intercept_1, 2)
            with ctx.work():
                target = mpmath.exp(mpmath.pi * mpmath.sqrt(mpmath.mpf(13) / 6))
                a_true = mpmath.sqrt(mpmath.mpf(13) / 6)
            diagnostics = powerlaw_pipeline(subsampled, target)
        with tr.span("asympt.stretched"):
            amplitudes = stretched_amplitude_seq(
                hs, a_true, Fraction(1, 2), Fraction(3, 2)
            )
        with tr.span("asympt.bst"):
            at_squares = square_subsample(amplitudes)
            bst = bst_extrapolate(
                HpSeq(1, at_squares.values[: self.squares], ctx), Fraction(1, 2)
            )
        with tr.span("identify.rational"):
            identified = identify_with_multipliers(bst.value, digits=12)
        with tr.span("asympt.ratio"), ctx.work():
            last = stacks.last_index
            n_ = mpmath.mpf(last)
            predicted = mpmath.exp(2 * mpmath.pi * mpmath.sqrt(n_ / 3)) / (
                8 * mpmath.power(3, mpmath.mpf(3) / 4) * mpmath.power(n_, mpmath.mpf(5) / 4)
            )
            stack_ratio = stacks.term(last) / predicted

        with tr.span("report.csv"), ctx.work():
            inv = lambda seq: ((mpmath.mpf(1) / k, v) for k, v in zip(seq.indices(), seq.values))
            csvs = {
                "r_sq": emit_csv(zip(ratio_seq.indices(), ratio_seq.values), ("k", "ratio")),
                "intercepts": emit_csv(inv(intercept_1), ("inv_k", "intercept")),
                "t_n": emit_csv(inv(intercept_2), ("inv_k", "t")),
                "e1": emit_csv(inv(e1), ("inv_n", "e1")),
                "e2": emit_csv(inv(e2), ("inv_n", "e2")),
                "g_n": emit_csv(inv(diagnostics.g_seq), ("inv_n", "g")),
                "g2_n": emit_csv(inv(diagnostics.g2_seq), ("inv_n", "g2")),
            }
        with tr.span("report.json"), ctx.work():
            report = AnalysisReport(
                command=f"lconvex study --terms {n_terms}",
                input_digest=text_digest(",".join(str(t) for t in counts.terms)),
                parameters={"terms": n_terms, "digits": self.digits, "squares": self.squares},
                scalars={
                    "e1": scalar_entry(e1.values[-1], 12, spread=spreads["a"]),
                    "e2": scalar_entry(e2.values[-1], 12, spread=spreads["delta"]),
                    "e3": scalar_entry(e3.values[-1], 12, spread=spreads["log_c"]),
                    "ratio_intercept": scalar_entry(intercept_2.values[-1], 12),
                    "g_estimate": scalar_entry(
                        diagnostics.g_estimate, 10, spread=diagnostics.g_spread
                    ),
                    "amplitude_constant": scalar_entry(bst.value, 14, spread=bst.spread),
                    "stack_ratio_last": scalar_entry(stack_ratio, 10),
                },
                identifications=[identification_entry(
                    identified.kind,
                    f"({identified.payload[1]}) * {identified.payload[0]}",
                    identified.certified_digits,
                )] if identified is not None else [],
            )
            text = report.to_json()
        tr.count("report.bytes", len(text) + sum(len(c) for c in csvs.values()))
        return {"bst": bst.value, "identified": identified}

    def check(self, inp: dict, refs: dict, out: dict) -> dict:
        ident = out["identified"]
        ok = ident is not None and ident.payload == ("sqrt(2)", Fraction(13, 768))
        digits = significant_digits(out["bst"], refs["amplitude"], self.digits)
        return {"ok": ok, "digits": digits, "detail": None if ok else f"identified {ident!r}"}


# ---------------------------------------------------------------------------
# ascent: the 201-avoiding ascent sequence study
# ---------------------------------------------------------------------------

def branch_series(u: Sequence, order: int) -> Sequence:
    """w(x) = 12 x^3 U(x) - R(x), whose coefficients satisfy a cubic equation."""
    series = TruncSeries(u.terms[:order])
    w = (
        series.shift(3).truncate(order) * 12
        - TruncSeries.from_poly(Poly(list(BRANCH_SHIFT_NUM)), order)
        * TruncSeries.from_poly(Poly([-1, 1]), order).inverse()
    )
    if not w.is_integral():
        raise ValueError("branch series is not integral")
    return Sequence(0, tuple(int(c) for c in w.coeffs))


class Ascent:
    name = "ascent"
    cycle = 1
    # Sizes; K below 16 leaves C with fewer than the ~48 digits that
    # min_poly(A^2, 3, 50) needs (see README.md).
    prefix = (24, 28)
    ode_terms = (600, 2000)
    fit_terms = (3000, 5000)
    corrections = (16, 20)
    digits = (150, 250)
    enum_n = (7, 9)

    def make_inputs(self, seed: int, n: int, root: Path) -> dict:
        design = Design(seed, 6, n)
        studies = []
        for i in range(n):
            u = design.point(i)
            studies.append({
                "prefix": pick_int(u[0], *self.prefix),
                "ode_terms": pick_int(u[1], *self.ode_terms),
                "fit_terms": pick_int(u[2], *self.fit_terms),
                "K": pick_int(u[3], *self.corrections),
                "digits": pick_int(u[4], *self.digits),
                "enum_n": pick_int(u[5], *self.enum_n),
            })
        text = (root / BFILE).read_text(encoding="utf-8")
        return {"studies": studies, "refs": {
            "bfile": text,
            "terms": [str(t) for t in read_bfile_terms(text)[1]],
            "C": closed_form_c(300),
        }}

    def study(self, inp: dict, refs: dict, tr) -> dict:
        out = {}
        with tr.span("oeis.parse"):
            stored = parse_bfile(refs["bfile"])
        with tr.span("sequences.enum"):
            out["brute"] = enum_ascent_avoiding("201", inp["enum_n"]).terms
        head = stored.head(inp["prefix"])
        with tr.span("guess.guess"):
            rec = guess_prec(head)
        out["rec_order"] = None if rec is None else rec.order
        if rec is None:
            return out
        with tr.span("guess.residual"):
            out["prec_residual"] = prec_residual(rec, stored)
        with tr.span("sequences.expand"):
            out["predicted"] = expand_prec(rec, head, len(stored)).terms
            u_ode = expand_prec(rec, head, inp["ode_terms"])
        with tr.span("guess.ode"):
            ode = prec_to_ode(rec, head)
        with tr.span("guess.residual"):
            out["ode_residual"] = ode_residual(ode, u_ode)
        with tr.span("sequences.expand"):
            u64 = expand_prec(rec, head, 64)
            u200 = expand_prec(rec, head, 200)
        with tr.span("series.branch"):
            w64 = branch_series(u64, 64)
            w200 = branch_series(u200, 200)
        with tr.span("guess.guess"):
            cubic = guess_algeq(w64, dxmax=12, dymax=3)
        out["cubic"] = cubic is not None
        if cubic is not None:
            with tr.span("guess.residual"):
                out["algeq_residual"] = algeq_residual(cubic, w200)

        digits = inp["digits"]
        ctx = HpContext(digits)
        with tr.span("asympt.root"), ctx.work():
            rho = poly_smallest_positive_root(Poly(list(SINGULARITY_CUBIC)), digits=digits + 10)
            mu = 1 / rho
        with tr.span("sequences.expand"):
            u_long = expand_prec(rec, head, inp["fit_terms"])
        tr.count("sequences.terms",
                 len(out["predicted"]) + len(u_ode) + len(u64) + len(u200) + len(u_long))
        tr.peak("sequences.max_term_bits", max(u_long.terms).bit_length())
        with tr.span("asympt.amplitude"):
            fit = amplitude_fit(u_long, mu, Fraction(9, 2), inp["K"], ctx)
        with ctx.work():
            c_value = fit.model.C
            a_sq = (c_value * 16 * mpmath.sqrt(mpmath.pi) / 105) ** 2
        with tr.span("identify.minpoly"):
            poly = min_poly(a_sq, maxdeg=3, digits=50)
        tr.count("identify.minpoly_calls", 1)
        out["C"] = c_value
        out["minpoly"] = poly
        with tr.span("report.json"), ctx.work():
            report = AnalysisReport(
                command="ascent study",
                input_digest=text_digest(refs["bfile"]),
                parameters={**inp, "recurrence": rec.coeff_lists()},
                scalars={
                    "rho": scalar_entry(rho, digits),
                    "mu": scalar_entry(mu, digits),
                    "amplitude_C": scalar_entry(c_value, digits, spread=fit.c_spread),
                    "A_squared": scalar_entry(a_sq, digits),
                },
            )
            text = report.to_json()
        tr.count("report.bytes", len(text))
        return out

    def check(self, inp: dict, refs: dict, out: dict) -> dict:
        stored = tuple(int(t) for t in refs["terms"])
        if out["rec_order"] is None:
            return {"ok": False, "digits": None, "detail": "no recurrence guessed"}
        found = int_coeffs(out["minpoly"]) if out["minpoly"] is not None else None
        failures = [label for label, good in (
            ("brute force", out["brute"] == stored[: inp["enum_n"] + 1]),
            ("recurrence residual", out["prec_residual"] == len(stored) - out["rec_order"]),
            ("recurrence terms", out["predicted"] == stored),
            ("ode residual", out["ode_residual"] is None),
            ("cubic guessed", out["cubic"]),
            ("cubic residual", out.get("algeq_residual", 0) is None),
            ("A^2 minimal polynomial", found is not None
             and same_up_to_sign(found, A_SQUARED_POLY)),
        ) if not good]
        digits = significant_digits(out["C"], refs["C"], inp["digits"])
        if digits < 40:
            failures.append(f"C matches the radical to {digits:.1f} digits")
        hit = found is not None and same_up_to_sign(found, A_SQUARED_POLY)
        return {"ok": not failures, "digits": digits, "planted": 1, "planted_found": int(hit),
                "detail": ", ".join(failures) or None}


# ---------------------------------------------------------------------------
# planted constants for minpoly and cli
# ---------------------------------------------------------------------------

SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13)


def _expand_shift_power(c: int, d: int, a: int) -> list[int]:
    """Ascending coefficients of (x - c)^d - a."""
    coeffs = [comb(d, k) * (-c) ** (d - k) for k in range(d + 1)]
    coeffs[0] -= a
    return coeffs


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_sub(p: list[int], q: list[int]) -> list[int]:
    n = max(len(p), len(q))
    p, q = p + [0] * (n - len(p)), q + [0] * (n - len(q))
    return [a - b for a, b in zip(p, q)]


def plant(rng: random.Random, degree: int, dps: int) -> dict:
    """An algebraic number of exactly `degree` and its minimal polynomial.

    Families, irreducible by construction: a^(1/d) + c with squarefree a
    (Eisenstein at a prime dividing a, shifted), sqrt(a) + sqrt(b) for
    degree 4, cbrt(a) + sqrt(b) for degree 6 (compositum of coprime-degree
    fields), and Eisenstein polynomials at p = 2 or 3 with a real root.
    Values come from mpmath alone, at dps digits.
    """
    family = rng.choice(("radical", "eisenstein", "sum"))
    with mpmath.workdps(dps + 20):
        if family == "sum" and degree in (4, 6):
            a, b = rng.sample(SQUAREFREE, 2)
            if degree == 4:
                value = mpmath.sqrt(a) + mpmath.sqrt(b)
                coeffs = [(a - b) ** 2, 0, -2 * (a + b), 0, 1]
            else:
                value = mpmath.cbrt(a) + mpmath.sqrt(b)
                # (x^3 + 3 b x - a)^2 - b (3 x^2 + b)^2
                coeffs = _poly_sub(
                    _poly_mul([-a, 3 * b, 0, 1], [-a, 3 * b, 0, 1]),
                    [b * t for t in _poly_mul([b, 0, 3], [b, 0, 3])],
                )
            label = f"{family}({a},{b})"
        elif family == "eisenstein":
            p = rng.choice((2, 3))
            while True:
                coeffs = [p * rng.randint(-2, 2) for _ in range(degree)] + [1]
                coeffs[0] = p * rng.choice((-2, -1, 1, 2))
                if coeffs[0] % (p * p) == 0:
                    continue
                roots = mpmath.polyroots(coeffs[::-1], maxsteps=200, extraprec=2 * dps)
                real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** (-dps)]
                if real:
                    value = max(real)
                    break
            label = f"eisenstein{p}({coeffs})"
        else:
            a = rng.choice(SQUAREFREE)
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            value = mpmath.root(a, degree) + c
            coeffs = _expand_shift_power(c, degree, a)
            label = f"radical({a}^(1/{degree}){c:+d})"
        return {"value": mpmath.nstr(value, dps), "poly": coeffs, "label": label}


TRANSCENDENTAL_MULTIPLIERS = ("pi", "sqrt(pi)", "1/pi", "pi^2")

# min_poly(x, deg, digits) accepts a candidate p when |p(x)| is below a bound
# that grows with max(1, |x|)^deg; at 100 digits and degree 6 that bound
# admits false relations from |x| of about 3.5 on (see README.md).  The
# minpoly workload therefore draws every constant in [1, 2) or (0, 2).
BAND = (1, 2)


def control(rng: random.Random, kind: str, dps: int) -> dict:
    """A constant in (0, 2) with no integer polynomial relation of small degree.

    "multiple" is a rational multiple of a transcendental dictionary
    constant, which identify_with_multipliers must name; "transcendental"
    is exp or log of a rational, moved into [1, 2) by an integer, which
    nothing may identify.
    """
    with mpmath.workdps(dps + 20):
        if kind == "multiple":
            tag = rng.choice(TRANSCENDENTAL_MULTIPLIERS)
            base = {"pi": mpmath.pi, "sqrt(pi)": mpmath.sqrt(mpmath.pi),
                    "1/pi": 1 / mpmath.pi, "pi^2": mpmath.pi ** 2}[tag]
            while True:
                r = Fraction(rng.randint(1, 40), rng.randint(2, 40))
                value = base * r.numerator / r.denominator
                if value < BAND[1]:
                    break
            return {"value": mpmath.nstr(value, dps), "multiple": [tag, str(r)],
                    "label": f"({r}) * {tag}"}
        r = Fraction(rng.randint(2, 30), rng.randint(2, 30))
        if r == 1:
            r = Fraction(3, 2)
        fn = rng.choice(("exp", "log"))
        value = getattr(mpmath, fn)(mpmath.mpf(r.numerator) / r.denominator)
        k = int(mpmath.floor(value)) - BAND[0]
        return {"value": mpmath.nstr(value - k, dps), "label": f"{fn}({r}){-k:+d}"}


def _taylor_shift(coeffs: list[int], k: int) -> list[int]:
    """Ascending coefficients of p(x + k)."""
    return [sum(c * comb(i, j) * k ** (i - j) for i, c in enumerate(coeffs) if i >= j)
            for j in range(len(coeffs))]


def into_band(planted: dict, dps: int) -> dict:
    """The planted number moved by an integer k into [1, 2), with p(x + k)."""
    with mpmath.workdps(dps + 20):
        value = mpmath.mpf(planted["value"])
        k = int(mpmath.floor(value)) - BAND[0]
        return {"value": mpmath.nstr(value - k, dps),
                "poly": _taylor_shift(planted["poly"], k),
                "label": f"{planted['label']}{-k:+d}"}


# ---------------------------------------------------------------------------
# minpoly: constant recognition at 100 digits
# ---------------------------------------------------------------------------

class MinPoly:
    name = "minpoly"
    # One cycle: planted degrees 2..6 and one control.  The cost of min_poly
    # jumps about 3x per degree and varies with the number, so the median
    # must sit inside one class with many samples: three cheaper constants
    # below ten quartics, three dearer ones above.
    slots = (2, 3, 3) + (4,) * 10 + (5, 6, "control")
    cycle = len(slots)
    digits = 100
    maxdeg = 6

    def make_inputs(self, seed: int, n: int, root: Path) -> dict:
        rng = random.Random(seed)
        studies = []
        for i in range(n):
            slot = self.slots[i % self.cycle]
            if slot == "control":
                kind = rng.choice(("transcendental", "multiple"))
                studies.append(control(rng, kind, self.digits + 20))
            else:
                studies.append(into_band(plant(rng, slot, self.digits + 20),
                                         self.digits + 20))
        return {"studies": studies, "refs": {}}

    def study(self, inp: dict, refs: dict, tr) -> dict:
        with mpmath.workdps(self.digits + 20):
            x = mpmath.mpf(inp["value"])
        with tr.span("identify.rational"):
            rational = identify_rational(x, digits=self.digits)
            multiple = identify_with_multipliers(x, digits=self.digits)
        with tr.span("identify.minpoly"):
            poly = min_poly(x, self.maxdeg, self.digits)
        tr.count("identify.minpoly_calls", 1)
        return {"rational": rational, "multiple": multiple, "poly": poly}

    def check(self, inp: dict, refs: dict, out: dict) -> dict:
        found = int_coeffs(out["poly"]) if out["poly"] is not None else None
        failures = []
        if out["rational"] is not None:
            failures.append(f"identify_rational gave {out['rational']}")
        digits = None
        hit = 0
        if "poly" in inp:
            if found is None or not same_up_to_sign(found, inp["poly"]):
                failures.append(f"min_poly gave {found}, planted {inp['poly']}")
            else:
                hit = 1
                digits = nearest_root_digits(found, inp["value"], self.digits)
        else:
            if found is not None:
                failures.append(f"control {inp['label']} gave polynomial {found}")
            mult = out["multiple"]
            got = None if mult is None else [mult.payload[0], str(mult.payload[1])]
            if got != inp.get("multiple"):
                failures.append(f"identify_with_multipliers gave {got}")
        return {"ok": not failures, "digits": digits, "planted": int("poly" in inp),
                "planted_found": hit, "detail": "; ".join(failures) or None}


# ---------------------------------------------------------------------------
# cli: a terminal session through seqlab.cli.main
# ---------------------------------------------------------------------------

# Stack counts checked against the harness's own enumeration.
STACK_HEAD = 40

CLI_SPANS = {
    "guess_rec": "cli.guess_rec", "expand_rec": "cli.expand_rec",
    "fit_amplitude": "cli.fit_amplitude", "gen_stack": "cli.gen",
    "analyze_ratios": "cli.analyze", "analyze_stretched": "cli.analyze",
    "extrapolate_bst": "cli.extrapolate_bst", "identify_rational": "cli.identify",
    "identify_mult": "cli.identify", "identify_minpoly": "cli.identify",
}


class Cli:
    name = "cli"
    expand_terms = (1000, 5000)
    # A fixed K: the digits of C move in steps of about 3 per unit of K.
    fit_corrections = 12
    fit_precision = (150, 250)
    stack_terms = (300, 600)
    # Commands of one session, in order.  A study is one session; each command
    # is a step in its own child and its own working directory s<session>/c<k>.
    session = ("guess_rec", "expand_rec", "fit_amplitude", "gen_stack",
               "analyze_ratios", "analyze_stretched", "extrapolate_bst",
               "identify_rational", "identify_mult", "identify_minpoly")
    cycle = 1

    def make_inputs(self, seed: int, n: int, root: Path) -> dict:
        design = Design(seed, 3, n)
        rng = random.Random(seed)
        studies = []
        for s in range(n):
            u = design.point(s)
            terms = pick_int(u[0], *self.expand_terms)
            precision = pick_int(u[1], *self.fit_precision)
            stack = pick_int(u[2], *self.stack_terms)
            r = Fraction(rng.randint(1, 999), rng.randint(2, 999))
            with mpmath.workdps(60):
                rational = mpmath.nstr(mpmath.mpf(r.numerator) / r.denominator, 40)
            tag = rng.choice(("sqrt(2)", "sqrt(3)", "sqrt(5)") + TRANSCENDENTAL_MULTIPLIERS)
            m = Fraction(rng.randint(1, 60), rng.randint(2, 60))
            with mpmath.workdps(60):
                base = {"sqrt(2)": mpmath.sqrt(2), "sqrt(3)": mpmath.sqrt(3),
                        "sqrt(5)": mpmath.sqrt(5), "pi": mpmath.pi,
                        "sqrt(pi)": mpmath.sqrt(mpmath.pi), "1/pi": 1 / mpmath.pi,
                        "pi^2": mpmath.pi ** 2}[tag]
                multiple = mpmath.nstr(base * m.numerator / m.denominator, 40)
            planted = plant(rng, rng.choice((2, 3)), 50)
            commands = {
                "guess_rec": (["guess", "rec", "../../b202062.txt"], {}),
                "expand_rec": (["expand", "rec", "../../b202062.txt", "--n", str(terms)],
                               {"terms": terms}),
                "fit_amplitude": ([f"--precision={precision}", "fit", "amplitude",
                                   "../c1/stdout.txt", "--mu-from-poly", "1,-8,5,1",
                                   "--g", "9/2", "--K", str(self.fit_corrections)],
                                  {"precision": precision, "terms": terms}),
                "gen_stack": (["gen", "stack", "--n", str(stack)], {"terms": stack}),
                "analyze_ratios": (["analyze", "ratios", "../c3/stdout.txt"], {"terms": stack}),
                "analyze_stretched": (["analyze", "stretched", "../c3/stdout.txt"],
                                      {"terms": stack}),
                "extrapolate_bst": (["extrapolate", "bst", "../c3/stdout.txt", "--square"],
                                    {"terms": stack}),
                "identify_rational": (["identify", "rational", "--value", rational],
                                      {"expect": f"{r.numerator}/{r.denominator}"}),
                "identify_mult": (["identify", "mult", "--value", multiple],
                                  {"expect": f"({m}) * {tag}"}),
                "identify_minpoly": (["identify", "minpoly", "--value", planted["value"]],
                                     {"expect": planted["poly"]}),
            }
            studies.append({"session": s, "commands": [
                {"session": s, "slot": k, "command": name,
                 "argv": ["--report", "report.json", *commands[name][0]], **commands[name][1]}
                for k, name in enumerate(self.session)
            ]})
        text = (root / BFILE).read_text(encoding="utf-8")
        return {"studies": studies, "refs": {
            "bfile": text,
            "terms": [str(t) for t in read_bfile_terms(text)[1]],
            "stack": [str(t) for t in stack_counts(STACK_HEAD)],
            "C": closed_form_c(300),
        }}

    def steps(self, inp: dict) -> list[dict]:
        return inp["commands"]

    def prepare_run(self, workdir: Path, refs: dict) -> None:
        """Copy the fixture into the run directory; each command makes its own directory."""
        (workdir / "b202062.txt").write_text(refs["bfile"], encoding="utf-8")

    def study(self, inp: dict, refs: dict, tr) -> dict:
        cwd = Path(f"s{inp['session']}") / f"c{inp['slot']}"
        cwd.mkdir(parents=True, exist_ok=True)
        os.chdir(cwd)
        sys.argv = ["seqlab", *inp["argv"]]
        code = 0
        with tr.span(CLI_SPANS[inp["command"]]):
            with open("stdout.txt", "w", encoding="utf-8") as out, \
                    contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                try:
                    seqlab.cli.main(args=inp["argv"], prog_name="seqlab")
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
        written = sum(p.stat().st_size for p in Path(".").iterdir())
        tr.count("cli.bytes_out", written)
        return {"code": code, "stderr": err.getvalue()[-500:]}

    def check(self, inp: dict, refs: dict, out: dict) -> dict:
        planted = int(inp["command"] == "identify_minpoly")
        if out["code"] != 0:
            return {"ok": False, "digits": None, "planted": planted, "planted_found": 0,
                    "detail": f"exit {out['code']}: {out['stderr']}"}
        report = json.loads(Path("report.json").read_text(encoding="utf-8"))
        stdout = Path("stdout.txt").read_text(encoding="utf-8")
        name = inp["command"]
        digits = None
        failures = []
        if name in ("expand_rec", "gen_stack"):
            offset, terms = read_bfile_terms(stdout)
            if len(terms) != inp["terms"]:
                failures.append(f"{len(terms)} terms, asked for {inp['terms']}")
            head = [int(t) for t in refs["terms" if name == "expand_rec" else "stack"]]
            if (offset, terms[: len(head)]) != (0 if name == "expand_rec" else 1, head):
                failures.append("leading terms disagree with the reference")
        elif name == "fit_amplitude":
            digits = significant_digits(report["scalars"]["C"]["value"], refs["C"],
                                        inp["precision"])
            if digits < 25:
                failures.append(f"C matches the radical to {digits:.1f} digits")
        elif name == "identify_rational":
            if stdout.strip() != inp["expect"]:
                failures.append(f"printed {stdout.strip()!r}, expected {inp['expect']!r}")
        elif name == "identify_mult":
            got = [i["payload"] for i in report["identifications"]]
            if got != [inp["expect"]]:
                failures.append(f"identified {got}, expected {inp['expect']}")
        elif name == "identify_minpoly":
            seq = report["sequences"].get("min_poly")
            found = [int(v) for v in seq["values"]] if seq else None
            if found is None or not same_up_to_sign(found, inp["expect"]):
                failures.append(f"min_poly {found}, planted {inp['expect']}")
        return {"ok": not failures, "digits": digits, "planted": planted,
                "planted_found": int(planted and not failures),
                "repeat_key": json.dumps(inp["argv"]) + json.dumps(
                    {k: v for k, v in inp.items() if k in ("terms", "precision")}),
                "digest": report["report_digest"],
                "detail": "; ".join(failures) or None}


WORKLOADS = {w.name: w for w in (LConvex(), Ascent(), MinPoly(), Cli())}
