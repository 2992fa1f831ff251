"""End-to-end acceptance checks, one test per numbered item.

Each test writes a single ``acceptance NN: PASS/FAIL`` summary line through
pytest's terminal reporter (so it stays visible under output capture, with
or without -v) and then asserts the same outcome: a red line always comes
with a red test.  Checks that quote decimal references state the tolerance
inline; items with a runtime budget assert it.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest

from seqlab import (
    HpContext,
    HpSeq,
    Poly,
    Sequence,
    TruncSeries,
    algeq_residual,
    amplitude_fit,
    bst_extrapolate,
    elim_power,
    enum_ascent_avoiding,
    enum_lconvex_bruteforce,
    enum_stack_bruteforce,
    expand_prec,
    gen_lconvex_area,
    gen_lconvex_perimeter,
    gen_stack_area,
    guess_algeq,
    guess_prec,
    identify_with_multipliers,
    min_poly,
    ode_residual,
    poly_smallest_positive_root,
    powerlaw_pipeline,
    prec_to_ode,
    ratios,
    square_subsample,
    stretched_amplitude_seq,
    stretched_lambda,
    stretched_triple_fit,
)
from conftest import ASCENT_INIT, BRANCH_SHIFT_NUM, CATALAN, GROWTH_POLY

MINUTES = 600.0  # budget, in seconds, for items allowed to take "minutes"


def _fmt(x) -> str:
    """Short scientific rendering of a (possibly mpf) magnitude."""
    return f"{float(x):.2e}"


@pytest.fixture
def acceptance(request):
    """Collect named boolean checks and emit one summary line per item."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def write(line: str) -> None:
        if reporter is not None:
            reporter.write_line(line)
        else:  # pragma: no cover - non-terminal runners
            print(line)

    @contextmanager
    def run(number: int, title: str):
        results: list[tuple[str, bool]] = []

        def check(label: str, ok) -> bool:
            results.append((label, bool(ok)))
            return bool(ok)

        try:
            yield check
        except BaseException as exc:
            write(
                f"acceptance {number:02d} ({title}): FAIL — "
                f"{type(exc).__name__}: {exc}"
            )
            raise
        ok = all(flag for _, flag in results)
        detail = "; ".join(
            label if flag else f"{label} [FAILED]" for label, flag in results
        )
        write(f"acceptance {number:02d} ({title}): {'PASS' if ok else 'FAIL'} — {detail}")
        assert ok, f"acceptance {number:02d} ({title}): {detail}"

    return run


@pytest.fixture(scope="module")
def amplitude_result(u5000):
    """Amplitude fit of the ascent counts at 250 digits, with timing.

    The reciprocal of the root must be formed at working precision: an
    mpf division outside a work() block runs at mpmath's ambient default
    and would truncate mu to ~15 digits, silently capping the fit.
    """
    t0 = time.perf_counter()
    ctx = HpContext(250)
    with ctx.work():
        mu = 1 / poly_smallest_positive_root(GROWTH_POLY, digits=260)
    fit = amplitude_fit(u5000, mu, Fraction(9, 2), 20, ctx)
    return ctx, fit, time.perf_counter() - t0


@pytest.fixture(scope="module")
def lconvex_hp(lconvex_2000):
    """The 2000-term L-convex area counts as a 100-digit sequence from n=1."""
    ctx = HpContext(100)
    return ctx, HpSeq.from_sequence(lconvex_2000, ctx).slice_from(1)


def _branch_series(u: Sequence, order: int) -> Sequence:
    """Integer coefficients of 12 x^3 U(x) - (1+18x-45x^2+26x^3+x^4)/(x-1).

    This shifted combination of the ascent generating function U is the
    series branch annihilated by the pinned cubic.
    """
    u_ser = TruncSeries(u.terms[:order])
    w = (
        u_ser.shift(3).truncate(order) * 12
        - TruncSeries.from_poly(BRANCH_SHIFT_NUM, order)
        * TruncSeries.from_poly(Poly([-1, 1]), order).inverse()
    )
    assert w.is_integral()
    return Sequence(0, tuple(int(c) for c in w.coeffs))


def test_generator_heads_are_exact(acceptance):
    with acceptance(1, "exact generator heads") as check:
        t0 = time.perf_counter()
        area = gen_lconvex_area(5)
        perimeter = gen_lconvex_perimeter(4)
        ascent = enum_ascent_avoiding("201", 4)
        elapsed = time.perf_counter() - t0
        check("area counts start (1,1,2,6,15)", area.terms == (1, 1, 2, 6, 15))
        check("perimeter counts start (1,2,7,24)", perimeter.terms == (1, 2, 7, 24))
        check("201-avoider counts start (1,1,2,5,15)", ascent.terms == (1, 1, 2, 5, 15))
        check(f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0)


def test_bruteforce_oracles_match_generators(acceptance):
    with acceptance(2, "brute-force oracles") as check:
        t0 = time.perf_counter()
        check(
            "L-convex brute force matches generator on areas 1..9",
            enum_lconvex_bruteforce(9).terms == gen_lconvex_area(10).terms[1:10],
        )
        check(
            "stack brute force matches generator on areas 1..20",
            enum_stack_bruteforce(20).terms == gen_stack_area(20).terms,
        )
        check(
            "012-avoider counts are 2^(n-1) for n in 1..12",
            enum_ascent_avoiding("012", 12).terms
            == tuple(1 if n == 0 else 2 ** (n - 1) for n in range(13)),
        )
        check(
            "102-avoider counts are (3^(n-1)+1)/2 for n in 1..12",
            enum_ascent_avoiding("102", 12).terms
            == tuple(1 if n == 0 else (3 ** (n - 1) + 1) // 2 for n in range(13)),
        )
        check(
            "101-avoider counts are the Catalan numbers up to n=12",
            enum_ascent_avoiding("101", 12).terms == CATALAN[:13],
        )
        elapsed = time.perf_counter() - t0
        check(f"runtime {elapsed:.1f}s < {MINUTES:.0f}s", elapsed < MINUTES)


def test_recurrence_recovered_and_predicts_next_terms(acceptance, ascent_rec, b202062):
    with acceptance(3, "recurrence from 24 terms") as check:
        head = b202062.head(24)
        found = guess_prec(head)
        check(
            "guessed recurrence equals the pinned normal form",
            found == ascent_rec,
        )
        if found is not None:
            extended = expand_prec(found, head, 28)
            check(
                "recurrence predicts reference terms 24..27",
                extended.terms[24:28] == b202062.terms[24:28],
            )


def test_ode_normal_form_and_residual(acceptance, ascent_rec, ascent_ode, u2000):
    with acceptance(4, "differential equation") as check:
        check(
            "pinned order-3 equation annihilates 2000 series terms",
            ode_residual(ascent_ode, u2000) is None,
        )
        derived = prec_to_ode(ascent_rec, Sequence(0, ASCENT_INIT))
        check(
            "recurrence-derived equation has the same normal form",
            derived == ascent_ode,
        )
        check(
            "derived equation annihilates the series as well",
            ode_residual(derived, u2000) is None,
        )


def test_cubic_equation_recovered_and_verified(acceptance, ascent_cubic, b202062):
    with acceptance(5, "algebraic equation") as check:
        head = b202062.head(24)
        rec = guess_prec(head)
        check("extension recurrence found from 24 terms", rec is not None)
        if rec is not None:
            w64 = _branch_series(expand_prec(rec, head, 64), 64)
            found = guess_algeq(w64, dxmax=12, dymax=3)
            check(
                "cubic recovered in the pinned content-normalized form",
                found == ascent_cubic,
            )
            w200 = _branch_series(expand_prec(rec, head, 200), 200)
            check(
                "cubic residual is all-zero against 200 terms",
                algeq_residual(ascent_cubic, w200) is None,
            )


def test_growth_constant_and_closed_form(acceptance):
    with acceptance(6, "growth constant") as check:
        t0 = time.perf_counter()
        ctx = HpContext(60)
        with ctx.work():
            rho = poly_smallest_positive_root(GROWTH_POLY, digits=60)
            mu = 1 / rho
            d_rho = abs(rho - mpmath.mpf("0.1370633395"))
            d_mu_quoted = abs(mu - mpmath.mpf("7.295896946"))
            d_mu_rounded = abs(mu - mpmath.mpf("7.295896943"))
            cos_term = mpmath.cos(mpmath.acos(mpmath.mpf(13) / 14) / 3)
            closed = mpmath.mpf(14) / 3 * cos_term + mpmath.mpf(8) / 3
            d_closed = abs(mu - closed)
        elapsed = time.perf_counter() - t0
        check(
            f"smallest positive root is 0.1370633395 to 10 digits (diff {_fmt(d_rho)})",
            d_rho < 5e-11,
        )
        # The quoted 10-digit reference for the reciprocal ends ...946; the
        # computed value is 7.2958969432..., so agreement with the quote is
        # capped near 9 digits while the correctly rounded 10-digit value
        # matches at half-ulp.
        check(
            f"reciprocal within 5e-9 of quoted 7.295896946 (diff {_fmt(d_mu_quoted)})",
            d_mu_quoted < 5e-9,
        )
        check(
            f"reciprocal is 7.295896943 to 10 digits (diff {_fmt(d_mu_rounded)})",
            d_mu_rounded < 5e-10,
        )
        check(
            "matches (14/3)cos(arccos(13/14)/3) + 8/3 to >= 40 digits "
            f"(diff {_fmt(d_closed)})",
            d_closed < 1e-40,
        )
        check(f"runtime {elapsed:.2f}s < 1s", elapsed < 1.0)


def test_amplitude_matches_reference_digits(acceptance, amplitude_result):
    with acceptance(7, "amplitude of the ascent counts") as check:
        ctx, fit, elapsed = amplitude_result
        with ctx.work():
            c_value = fit.model.C
            rel_diff = abs(c_value - mpmath.mpf("13.4299960869")) / c_value
            rel_spread = fit.c_spread / c_value
        check(
            f"C agrees with 13.4299960869 to >= 10 digits (rel diff {_fmt(rel_diff)})",
            rel_diff < 1e-10,
        )
        check(
            f"C stable to >= 40 digits across fit windows (rel spread {_fmt(rel_spread)})",
            rel_spread < 1e-40,
        )
        check(f"runtime {elapsed:.1f}s < {MINUTES:.0f}s", elapsed < MINUTES)


def test_amplitude_algebraicity_and_closed_form(acceptance, amplitude_result):
    with acceptance(8, "amplitude minimal polynomial") as check:
        ctx, fit, _ = amplitude_result
        with ctx.work():
            c_value = fit.model.C
            a_value = c_value * 16 * mpmath.sqrt(mpmath.pi) / 105
            found = min_poly(a_value * a_value, maxdeg=3, digits=50)
            # Explicit trigonometric root of the cubic below, scaled back
            # from the squared generating-function amplitude to C.
            s = mpmath.sqrt(9289)
            inner = mpmath.pi / 3 + mpmath.acos(255709 * s / 24653006) / 3
            closed = (
                mpmath.mpf(35)
                / 16
                * mpmath.sqrt(4107 / mpmath.pi - 84 / mpmath.pi * s * mpmath.cos(inner))
            )
            d_closed = abs(c_value - closed)
        check(
            "minimal polynomial of A^2 is B^3 - 1369 B^2 + 17839 B + 1",
            found == Poly([1, 17839, -1369, 1]),
        )
        check(
            f"closed-form radical matches fitted C to >= 30 digits (diff {_fmt(d_closed)})",
            d_closed < 1e-30,
        )


def test_stretched_exponential_diagnostics(acceptance, lconvex_hp):
    with acceptance(9, "stretched-exponential diagnostics") as check:
        t0 = time.perf_counter()
        ctx, hs = lconvex_hp
        lam = stretched_lambda(hs, Fraction(1, 2))
        e1, e2, _ = stretched_triple_fit(lam)
        with ctx.work():
            e1_sq = e1.values[-1] ** 2
            e2_last = e2.values[-1]
            target = mpmath.exp(mpmath.pi * mpmath.sqrt(mpmath.mpf(13) / 6))
        subsampled = square_subsample(hs)
        intercept = elim_power(elim_power(ratios(subsampled), 1), 2).values[-1]
        with ctx.work():
            d_quoted = abs(intercept - mpmath.mpf("101.931"))
            d_target = abs(intercept - target)
        diagnostics = powerlaw_pipeline(subsampled, target)
        with ctx.work():
            d_g = abs(diagnostics.g_estimate + 3)
        elapsed = time.perf_counter() - t0
        check(
            f"e1^2 = {float(e1_sq):.6f} lies in [2.16, 2.17]",
            2.16 < e1_sq < 2.17,
        )
        check(
            f"e2 = {float(e2_last):.4f} lies in [-1.6, -1.4]",
            -1.6 < e2_last < -1.4,
        )
        check(
            f"ratio intercept {float(intercept):.4f} within 0.5 of 101.931",
            d_quoted < 0.5,
        )
        check("ratio intercept within 0.5 of exp(pi sqrt(13/6))", d_target < 0.5)
        check(
            f"power-law exponent {float(diagnostics.g_estimate):.5f} within 0.1 of -3",
            d_g < 0.1,
        )
        check(f"runtime {elapsed:.1f}s < {MINUTES:.0f}s", elapsed < MINUTES)


def test_extrapolated_constant_identification(acceptance, lconvex_hp):
    with acceptance(10, "extrapolated amplitude constant") as check:
        ctx, hs = lconvex_hp
        with ctx.work():
            a_true = mpmath.sqrt(mpmath.mpf(13) / 6)
        amplitudes = stretched_amplitude_seq(hs, a_true, Fraction(1, 2), Fraction(3, 2))
        at_squares = square_subsample(amplitudes)
        result = bst_extrapolate(HpSeq(1, at_squares.values[:44], ctx), Fraction(1, 2))
        with ctx.work():
            d_quoted = abs(result.value - mpmath.mpf("0.0239385108214195"))
            exact = 13 * mpmath.sqrt(2) / 768
            d_exact_quote = abs(exact - mpmath.mpf("0.023938510821419577"))
        identified = identify_with_multipliers(result.value, digits=12)
        check(
            f"extrapolated limit is 0.0239385108214195 to >= 10 digits "
            f"(diff {_fmt(d_quoted)})",
            d_quoted < 2.4e-12,
        )
        check(
            "limit identified as (13/768) * sqrt(2)",
            identified is not None
            and identified.kind == "dictionary-multiple"
            and identified.payload == ("sqrt(2)", Fraction(13, 768)),
        )
        check(
            f"13 sqrt(2)/768 equals 0.023938510821419577 to the shown digits "
            f"(diff {_fmt(d_exact_quote)})",
            d_exact_quote < 1e-18,
        )


def test_stack_ratio_approaches_closed_form(acceptance, stack_2000):
    with acceptance(11, "stack asymptotic ratio") as check:
        ctx = HpContext(50)
        with ctx.work():

            def predicted(n: int):
                n_ = mpmath.mpf(n)
                return mpmath.exp(2 * mpmath.pi * mpmath.sqrt(n_ / 3)) / (
                    8
                    * mpmath.power(3, mpmath.mpf(3) / 4)
                    * mpmath.power(n_, mpmath.mpf(5) / 4)
                )

            r_500 = stack_2000.term(500) / predicted(500)
            r_2000 = stack_2000.term(2000) / predicted(2000)
            check(
                f"ratio at n=2000 ({float(r_2000):.6f}) is closer to 1 than "
                f"at n=500 ({float(r_500):.6f})",
                abs(r_2000 - 1) < abs(r_500 - 1),
            )
            check("ratio at n=2000 within 10% of 1", abs(r_2000 - 1) < 0.1)


def test_planted_parameter_recovery(acceptance):
    with acceptance(12, "planted-parameter recovery") as check:
        rng = random.Random(20260814)

        # elim_power on its own model class: exact rational cancellation.
        ctx60 = HpContext(60)
        exact = True
        for _ in range(5):
            limit = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            coeff = Fraction(rng.randint(1, 99), rng.randint(1, 20))
            power = rng.randint(1, 3)
            seq = HpSeq(
                1,
                tuple(limit + coeff / Fraction(n**power) for n in range(1, 25)),
                ctx60,
            )
            exact &= all(v == limit for v in elim_power(seq, power).values)
        check("elim_power cancels planted 1/n^p terms exactly", exact)

        # Bulirsch-Stoer on a finite sum of half-integer powers.
        ctx50 = HpContext(50)
        with ctx50.work():
            bst_limit = mpmath.mpf(rng.randint(1, 9))
            cs = [mpmath.mpf(rng.randint(-9, 9)) for _ in range(3)]
            values = tuple(
                bst_limit
                + cs[0] / mpmath.sqrt(n)
                + cs[1] / n
                + cs[2] / mpmath.power(n, mpmath.mpf(3) / 2)
                for n in range(1, 41)
            )
        bst = bst_extrapolate(HpSeq(1, values, ctx50), Fraction(1, 2))
        with ctx50.work():
            d_bst = abs(bst.value - bst_limit)
        check(f"bst_extrapolate recovers planted limit (err {_fmt(d_bst)})", d_bst < 1e-38)

        # Triple fit on an exactly-in-class stretched exponential.
        ctx100 = HpContext(100)
        a_sq = Fraction(rng.randint(2, 30), rng.randint(1, 12))
        e2_frac = Fraction(rng.randint(-40, 40), 16)
        e3_frac = Fraction(rng.randint(-40, 40), 16)
        with ctx100.work():
            a_planted = mpmath.sqrt(ctx100.mpf(a_sq))
            e2_planted = ctx100.mpf(e2_frac)
            e3_planted = ctx100.mpf(e3_frac)
            planted = tuple(
                mpmath.exp(
                    a_planted * mpmath.pi * mpmath.sqrt(n)
                    + e2_planted * mpmath.log(n)
                    + e3_planted
                )
                for n in range(1, 61)
            )
        lam = stretched_lambda(HpSeq(1, planted, ctx100), Fraction(1, 2))
        f1, f2, f3 = stretched_triple_fit(lam)
        with ctx100.work():
            d_triple = max(
                abs(f1.values[-1] - a_planted),
                abs(f2.values[-1] - e2_planted),
                abs(f3.values[-1] - e3_planted),
            )
        check(
            f"triple fit recovers planted stretched parameters (err {_fmt(d_triple)})",
            d_triple < 1e-80,
        )

        # Amplitude fit on an exactly-in-class power-law expansion.
        ctx80 = HpContext(80)
        c_planted = rng.randint(2, 9)
        a1_planted = rng.randint(-9, 9)
        a2_planted = rng.randint(-9, 9)
        base = rng.randint(2, 5)
        grown = Sequence(
            1,
            tuple(
                c_planted * base**n * (n * n + a1_planted * n + a2_planted)
                for n in range(1, 61)
            ),
        )
        fit = amplitude_fit(grown, base, -2, 2, ctx80)
        with ctx80.work():
            d_fit = max(
                abs(fit.model.C - c_planted),
                abs(fit.model.corrections[0] - a1_planted),
                abs(fit.model.corrections[1] - a2_planted),
            )
        check(
            f"amplitude fit recovers planted prefactor and corrections (err {_fmt(d_fit)})",
            d_fit < 1e-40,
        )
        check(
            "amplitude fit reports the planted growth and power",
            fit.model.mu == base and fit.model.g == 2,
        )
        pure = Sequence(1, tuple(5 * 3**n for n in range(1, 41)))
        fit0 = amplitude_fit(pure, 3, 0, 0, ctx50)
        with ctx50.work():
            d_pure = abs(fit0.model.C - 5)
        check(
            f"pure-power amplitude recovered with no corrections (err {_fmt(d_pure)})",
            d_pure < 1e-40,
        )

        # Minimal polynomials of planted algebraic numbers, degrees 1..5.
        primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
        degrees_ok = True
        for degree in range(1, 6):
            c = primes[rng.randrange(len(primes))]
            digits = 10 * (degree + 1) + 40
            with mpmath.workdps(digits + 10):
                value = mpmath.power(c, mpmath.mpf(1) / degree)
            found = min_poly(value, maxdeg=degree, digits=digits)
            degrees_ok &= found == Poly([-c] + [0] * (degree - 1) + [1])
        check("min_poly recovers x^d - prime for d in 1..5", degrees_ok)
