"""High-precision extrapolation machinery, tested on exactly known plants."""

from decimal import Decimal
from fractions import Fraction
from math import isqrt, log2

import hashlib
import random
import subprocess
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import (
    AmplitudeFit,
    HpContext,
    HpSeq,
    Poly,
    Sequence,
    amplitude_fit,
    bst_extrapolate,
    elim_power,
    gen_lconvex_area,
    loglog_gradient,
    loglog_points,
    poly_smallest_positive_root,
    powerlaw_pipeline,
    ratios,
    square_subsample,
    stretched_amplitude_seq,
    stretched_lambda,
    stretched_triple_fit,
    summarize_stretched,
)
from mpmath.libmp import (
    from_int,
    from_man_exp,
    log_int_fixed,
    mpf_div,
    mpf_exp,
    mpf_log,
    mpf_sqrt,
    normalize,
    round_nearest,
    to_fixed,
)
from seqlab.asympt import AMPLITUDE_WINDOWS, stretched_amplitudes, vandermonde_inverse
from seqlab.errors import (
    IllConditioned,
    InsufficientTerms,
    NonPositiveValue,
    NoPositiveRoot,
    SingularSystem,
    TableauBlowup,
)
from seqlab.fixed import Fixed, quotient_nearest, sqrt_nearest
from seqlab.identify import identify_rational
from test_cli import child_env

CTX50 = HpContext(50)
CTX100 = HpContext(100)


def frac_seq(offset, values):
    return HpSeq(offset, tuple(Fraction(v) for v in values), CTX50)


class TestHpContext:
    @pytest.mark.parametrize("digits", [0, -5])
    def test_digits_below_one_rejected(self, digits):
        with pytest.raises(ValueError, match="need digits >= 1"):
            HpContext(digits)

    def test_wide_fraction_rounded_once(self):
        # rounding 3^40 + 1 to 20 bits first, then the quotient, lands one
        # unit below the nearest value 1031588 * 2^35
        got = HpContext(5, 0).mpf(Fraction(3**40 + 1, 343))
        assert got == 1031588 * 2**35

    def test_fractions_rounded_to_nearest(self):
        rng = random.Random(1908)
        for _ in range(400):
            ctx = HpContext(rng.randrange(1, 40), rng.randrange(0, 5))
            x = Fraction(rng.randrange(-10**60, 10**60), rng.randrange(1, 10**30))
            got = ctx.mpf(x)
            with ctx.work():
                prec = mpmath.mp.prec
            want = mpf_div(from_int(x.numerator), from_int(x.denominator), prec, round_nearest)
            assert got._mpf_ == want, x
            # within half a unit in the last of prec bits
            _, man, exp, bc = got._mpf_
            half_ulp = Fraction(2) ** (exp + bc - prec - 1)
            assert abs(Fraction(man) * Fraction(2) ** exp - abs(x)) <= half_ulp, x


class TestTextEntry:
    """Text enters the working precision as the CLI reads it: exactly, within
    the reader's bounds, and rounded once, as its Fraction is."""

    @staticmethod
    def exact(text, ctx):
        value = Fraction(text)
        return quotient_nearest(value.numerator, value.denominator, ctx.prec)

    # mpmath's own parser rounds these twice, one unit in the last place low
    @pytest.mark.parametrize("digits, text", [
        (19, "131345e482"), (32, "242938723816e-824"), (27, "13156789681e-733")])
    def test_far_exponents_round_once(self, digits, text):
        ctx = HpContext(digits)
        assert ctx.raw(text) == self.exact(text, ctx)

    def test_seeded_far_exponents_round_once(self):
        # at this seed 3 of the texts read one unit low through mpmath's parser
        rng = random.Random(4904)
        for _ in range(2000):
            ctx = HpContext(rng.randint(15, 60))
            digits = str(rng.randint(1, 9)) + "".join(
                rng.choice("0123456789") for _ in range(rng.randint(1, 30)))
            exp = rng.choice((1, -1)) * rng.randint(401, 1000) - (len(digits) - 1)
            text = f"{rng.choice(['', '-'])}{digits}e{exp}"
            assert ctx.raw(text) == self.exact(text, ctx), (text, ctx.digits)

    @pytest.mark.parametrize("text, match", [
        ("1e2000", "^value '1e2000' is out of range: need a decimal exponent between "
                   "-1000 and 1000, got 2000$"),
        ("1" * 10_001, "^need digits <= 10000, got 10001$"),
    ], ids=["exponent", "digits"])
    def test_beyond_the_bounds(self, text, match):
        with pytest.raises(ValueError, match=match):
            HpContext(20).mpf(text)
        with pytest.raises(ValueError, match=match):
            identify_rational(text, digits=20)

    def test_names_the_parameter(self):
        ctx = HpContext(30)
        with pytest.raises(ValueError, match="^g 'abc' is not a number: expected a decimal "
                                             "or a ratio p/q, inf or nan$"):
            ctx.mpf("abc", "g")
        with pytest.raises(ValueError, match="^value 'abc' is not a number"):
            ctx.raw("abc", 3)
        with pytest.raises(ValueError, match="^non-finite parameter g$"):
            ctx.mpf("nan", "g")
        assert ctx.raw("-inf") == mpmath.ninf._mpf_

    def test_other_types_raise(self):
        with pytest.raises(TypeError, match="^cannot enter a Decimal into the working precision$"):
            HpContext(20).raw(Decimal("0.1"))

    @pytest.mark.parametrize("digits", [1, 6, 15, 100])
    def test_floats_round_as_mpf(self, digits):
        # from_float at prec gives the mpf that mpmath.mpf gives under work()
        ctx = HpContext(digits)
        rng = random.Random(digits)
        floats = [0.0, -0.0, 5e-324, -2.2e-308, 1.7976931348623157e308, 0.1,
                  float("inf"), float("-inf"), float("nan")]
        floats += [rng.uniform(-1, 1) * 2.0 ** rng.randint(-1074, 1000) for _ in range(500)]
        with ctx.work():
            want = [mpmath.mpf(x)._mpf_ for x in floats]
        assert [ctx.raw(x) for x in floats] == want

    @pytest.mark.parametrize("digits", [1, 15, 100])
    def test_constants_evaluate_at_prec(self, digits):
        ctx = HpContext(digits)
        constants = [mpmath.pi, mpmath.e, mpmath.euler, mpmath.ln2]
        with ctx.work():
            want = [mpmath.mpf(c)._mpf_ for c in constants]
        with mpmath.workdps(5):  # not the global precision
            assert [ctx.raw(c) for c in constants] == want


class TestHpSeq:
    def test_accessors(self):
        s = frac_seq(3, [10, 20, 30, 40])
        assert len(s) == 4
        assert s.last_index == 6
        assert s.value(5) == 30
        assert list(s.indices()) == [3, 4, 5, 6]
        with pytest.raises(IndexError):
            s.value(7)

    def test_slice_tail_map(self):
        s = frac_seq(1, [1, 2, 3, 4, 5])
        assert s.slice_from(3).values == (3, 4, 5)
        assert s.slice_from(0) is s
        assert s.tail(2).offset == 4
        assert s.tail(9) == s
        for k in (0, -1):
            with pytest.raises(ValueError, match="k >= 1"):
                HpSeq(1, (10, 20, 30), CTX50).tail(k)
        assert s.map(lambda v: 2 * v).values == (2, 4, 6, 8, 10)

    def test_spread(self):
        s = frac_seq(1, [5, 1, 4, 2, 3])
        assert s.spread(3) == 2  # over 4, 2, 3
        assert s.spread(9) == 4
        with pytest.raises(ValueError, match="k >= 1"):
            s.spread(0)

    def test_from_sequence(self):
        hs = HpSeq.from_sequence(Sequence(0, (1, 2, 3)), CTX50)
        assert hs.offset == 0
        assert hs.values[2] == 3

    @pytest.mark.parametrize("digits", [1, 15, 100])
    def test_from_sequence_rounds_as_mpf(self, digits):
        # each term is the mpf that mpmath.mpf gives under ctx.work(): ints
        # wider than prec, exact ties at prec + 1 bits (both parities of the
        # kept bits), negative ints and zero
        ctx = HpContext(digits)
        prec, rng = ctx.prec, random.Random(digits)
        terms = [0, 1, -1]
        for _ in range(600):
            kept = rng.getrandbits(prec) | 1 << prec - 1
            terms += [(2 * kept + 1) << rng.randrange(40),
                      rng.getrandbits(rng.randint(1, 3 * prec))]
        terms += [-t for t in terms]
        hs = HpSeq.from_sequence(Sequence(-2, terms), ctx)
        with ctx.work():
            want = [mpmath.mpf(t)._mpf_ for t in terms]
        assert [v._mpf_ for v in hs.values] == want
        assert (hs.offset, hs.ctx) == (-2, ctx)


def motzkin(count):
    """M_1, ..., M_count, from (n + 2) M_n = (2n + 1) M_(n-1) + 3 (n - 1) M_(n-2)."""
    m = [1, 1]
    for n in range(2, count + 1):
        m.append(((2 * n + 1) * m[-1] + 3 * (n - 1) * m[-2]) // (n + 2))
    return m[1:]


def mpf_tuples(s):
    return [v._mpf_ for v in s.values]


class TestValuesEnterTheContext:
    """HpContext.raw is the one rule by which a value enters the working
    precision: an int or a float in an HpSeq becomes a context float at
    construction, so every estimator reads it as from_sequence gives it."""

    @pytest.mark.parametrize("digits", [1, 15, 100])
    def test_int_values_round_as_from_sequence(self, digits):
        ctx = HpContext(digits)
        rng = random.Random(4100 + digits)
        ints = [0, 1, -1] + [rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 3 * ctx.prec))
                             for _ in range(300)]
        assert sum(abs(t).bit_length() > ctx.prec for t in ints) > 100
        direct = HpSeq(-1, tuple(ints), ctx)
        assert mpf_tuples(direct) == mpf_tuples(HpSeq.from_sequence(Sequence(-1, ints), ctx))

    def test_int_valued_motzkin_matches_from_sequence(self):
        terms = motzkin(59)

        def outputs(s):
            r = ratios(s)
            lam = stretched_lambda(s)
            diag = powerlaw_pipeline(s, 3)
            bst = bst_extrapolate(r, 1)
            seqs = [r, elim_power(r, 1), diag.g_seq, diag.g2_seq, lam, *stretched_triple_fit(lam)]
            scalars = diag.g_estimate, diag.g_spread, bst.value, bst.spread
            return [mpf_tuples(q) for q in seqs], [x._mpf_ for x in scalars]

        ints = HpSeq(1, tuple(terms), CTX50)
        assert outputs(ints) == outputs(HpSeq.from_sequence(Sequence(1, terms), CTX50))
        # a 53-bit float ratio truncated to an int sent the limit to 2
        assert abs(bst_extrapolate(ratios(ints), 1).value - 3) < 1e-12

    def test_float_values_match_their_fractions(self):
        floats = [3 - 1.5 / n ** 1.5 for n in range(1, 20)]
        got = bst_extrapolate(HpSeq(1, tuple(floats), CTX50), 1)
        want = bst_extrapolate(HpSeq(1, tuple(map(Fraction, floats)), CTX50), 1)
        assert (got.value._mpf_, got.spread._mpf_) == (want.value._mpf_, want.spread._mpf_)
        assert mpmath.nstr(got.value, 15) == "3.00005046248064"

    @pytest.mark.parametrize("index", [1, 8, 15])
    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_non_finite_value_is_an_error(self, bad, index):
        # BST and the power law name the index as the stretched estimators do
        values = [2 ** n * (n * n + 1) for n in range(1, 16)]
        values[index - 1] = mpmath.mpf(bad)
        s = HpSeq(1, tuple(values), HpContext(30))
        for estimate in (lambda: bst_extrapolate(s, 1), lambda: powerlaw_pipeline(s, 2),
                         lambda: stretched_lambda(s)):
            with pytest.raises(ValueError, match=f"^non-finite value at index {index}$"):
                estimate()


class TestRatios:
    def test_values_and_offset(self):
        s = frac_seq(0, [1, 2, 6, 24])
        r = ratios(s)
        assert r.offset == 1
        assert r.values == (Fraction(2), Fraction(3), Fraction(4))

    def test_zero_term(self):
        with pytest.raises(ZeroDivisionError):
            ratios(frac_seq(0, [1, 0, 2]))


class TestElimPower:
    def test_cancels_planted_term_exactly(self):
        # s_n = 4 + 3/n is mapped to the constant 4 by the p = 1 filter
        s = frac_seq(1, [4 + Fraction(3, n) for n in range(1, 12)])
        out = elim_power(s, 1)
        assert out.offset == 2
        assert all(v == 4 for v in out.values)

    def test_second_power(self):
        s = frac_seq(1, [7 + Fraction(5, n * n) for n in range(1, 12)])
        assert all(v == 7 for v in elim_power(s, 2).values)

    def test_composition_residue(self):
        # after p=1 then p=2 the residue of a 1/n + 1/n^2 plant is exactly
        # b / ((2n-1)(n-1)(n-2))
        a, b, lim = Fraction(3), Fraction(-5), Fraction(11)
        s = frac_seq(
            1,
            [lim + a / n + b / (n * n) for n in range(1, 15)],
        )
        out = elim_power(elim_power(s, 1), 2)
        for n, v in zip(out.indices(), out.values):
            assert v - lim == b / ((2 * n - 1) * (n - 1) * (n - 2))

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            elim_power(frac_seq(1, [1, 2]), 0)


class TestSquareSubsample:
    def test_on_hpseq(self):
        s = frac_seq(1, [n * n for n in range(1, 26)])
        sub = square_subsample(s)
        assert isinstance(sub, HpSeq)
        assert sub.values == (1, 16, 81, 256, 625)

    def test_too_short(self):
        with pytest.raises(InsufficientTerms):
            square_subsample(frac_seq(0, [1]))
        with pytest.raises(InsufficientTerms):
            square_subsample(frac_seq(2, range(50)))


class TestLogLogGradient:
    def test_pure_power_is_exact(self):
        with CTX100.work():
            s = HpSeq(
                1,
                tuple(7 * mpmath.mpf(n) ** Fraction(5, 2) for n in range(1, 30)),
                CTX100,
            )
        g = loglog_gradient(s)
        assert g.offset == 2
        for v in g.values:
            assert abs(v - Fraction(5, 2)) < mpmath.mpf(10) ** -90

    def test_given_points(self):
        s = frac_seq(1, [3, 5, 11, 20])
        points = loglog_points(s)
        with s.ctx.work():
            assert points == [(mpmath.log(n), mpmath.log(v)) for n, v in
                              zip(range(1, 5), (3, 5, 11, 20))]
        assert loglog_gradient(s, points) == loglog_gradient(s)

    def test_guards(self):
        with pytest.raises(ValueError):
            loglog_gradient(frac_seq(0, [1, 2]))
        with pytest.raises(NonPositiveValue):
            loglog_gradient(frac_seq(1, [1, -2, 3]))

    @pytest.mark.parametrize("bad", [mpmath.inf, mpmath.nan])
    def test_non_finite_value_rejected(self, bad):
        s = HpSeq(1, (mpmath.mpf(2), mpmath.mpf(bad), mpmath.mpf(5)), CTX50)
        with pytest.raises(ValueError, match="non-finite value at index 2"):
            loglog_points(s)


class TestStretchedFit:
    def plant(self, a, e2, e3, n_max, ctx=CTX100):
        # lambda_n = a + e2 log(n)/(pi sqrt n) + e3/(pi sqrt n) exactly
        with ctx.work():
            pi = mpmath.pi
            vals = tuple(
                mpmath.exp(
                    a * pi * mpmath.sqrt(n)
                    + e2 * mpmath.log(n)
                    + e3
                )
                for n in range(1, n_max + 1)
            )
        return HpSeq(1, vals, ctx)

    def test_triple_fit_recovers_plant(self):
        a, e2, e3 = Fraction(3, 2), Fraction(-5, 4), Fraction(7, 8)
        s = self.plant(a, e2, e3, 40)
        lam = stretched_lambda(s)
        f1, f2, f3 = stretched_triple_fit(lam)
        eps = mpmath.mpf(10) ** -80
        assert f1.offset == lam.offset + 1
        assert all(abs(v - a) < eps for v in f1.values)
        assert all(abs(v - e2) < eps for v in f2.values)
        assert all(abs(v - e3) < eps for v in f3.values)

    def test_summary_and_spreads(self):
        s = self.plant(Fraction(2), Fraction(-3, 2), Fraction(1, 3), 40)
        lam = stretched_lambda(s)
        model, spreads = summarize_stretched(*stretched_triple_fit(lam))
        with CTX100.work():
            eps = mpmath.mpf(10) ** -60
            expected_c = mpmath.exp(-mpmath.mpf(1) / 3)
        assert abs(model.a - 2) < eps
        assert abs(model.delta - Fraction(3, 2)) < eps
        # c is the reciprocal of the amplitude exp(e3)
        assert abs(model.c - expected_c) < eps
        assert set(spreads) == {"a", "delta", "log_c"}
        assert all(abs(v) < eps for v in spreads.values())

    def test_amplitude_seq_inverts_model(self):
        # s_n = A exp(a pi sqrt n) / n^delta gives back A at every index
        a, delta, amp = Fraction(1, 2), Fraction(3, 2), Fraction(9, 4)
        with CTX100.work():
            vals = tuple(
                amp
                * mpmath.exp(a * mpmath.pi * mpmath.sqrt(n))
                / mpmath.mpf(n) ** delta
                for n in range(1, 30)
            )
        c_seq = stretched_amplitude_seq(
            HpSeq(1, vals, CTX100), a, Fraction(1, 2), delta
        )
        eps = mpmath.mpf(10) ** -85
        assert all(abs(v - amp) < eps for v in c_seq.values)

    def test_lambda_rejects_non_positive(self):
        # as a Fraction or as a float, the first non-positive value is named,
        # by the amplitude sequence too
        exact = frac_seq(1, [1, -1, 0])
        floats = HpSeq(1, tuple(map(CTX50.mpf, exact.values)), CTX50)
        for s in (exact, floats):
            with pytest.raises(NonPositiveValue, match="index 2"):
                stretched_lambda(s)
            with pytest.raises(NonPositiveValue, match="index 2"):
                stretched_amplitude_seq(s, 1, Fraction(1, 2), 0)

    def test_triple_fit_needs_three(self):
        with pytest.raises(InsufficientTerms):
            stretched_triple_fit(frac_seq(1, [1, 2]))

    def test_triple_fit_needs_indices_from_one(self):
        with pytest.raises(ValueError, match="^triple fit needs indices >= 1$"):
            stretched_triple_fit(frac_seq(0, [1, 2, 3]))

    def test_triple_fit_singular(self):
        # at two digits the rows of a far-out triple round to dependent ones
        lam = HpSeq(10**6, (1, 2, 3), HpContext(2, 0))
        with pytest.raises(SingularSystem, match="index 1000001"):
            stretched_triple_fit(lam)

    @pytest.mark.parametrize("source, terms, digits", [
        pytest.param("planted", 400, 60, id="planted"),
        pytest.param("lconvex", 400, 60, id="lconvex"),
        pytest.param("lconvex", 2000, 100, id="lconvex-2000-100"),
        pytest.param("lconvex", 300, 250, id="lconvex-300-250"),
    ])
    def test_triple_fit_keeps_requested_digits(self, source, terms, digits):
        # lambda, every triple-fit estimator and the amplitude sequence agree
        # with the same calls at digits + 100 to the requested significant
        # digits, and no triple of the fit is singular
        counts = gen_lconvex_area(terms + 1) if source == "lconvex" else None
        abc = Fraction(13, 7), Fraction(-3, 2), Fraction(-29, 9)

        def estimators(ctx):
            if source == "planted":
                s, a = self.plant(*abc, terms, ctx), abc[0]
            else:
                s = HpSeq.from_sequence(counts, ctx).slice_from(1)
                with ctx.work():
                    a = mpmath.sqrt(mpmath.mpf(13) / 6)
            lam = stretched_lambda(s)
            return (lam, *stretched_triple_fit(lam),
                    stretched_amplitude_seq(s, a, Fraction(1, 2), Fraction(3, 2)))

        lo, hi = estimators(HpContext(digits)), estimators(HpContext(digits + 100))
        names = ("lambda", "e1", "e2", "e3", "amplitude")
        with mpmath.workdps(digits + 100):
            for name, est_lo, est_hi in zip(names, lo, hi):
                assert len(est_lo) == len(est_hi) == terms - 2 * (name[0] == "e")
                for n, x, y in zip(est_lo.indices(), est_lo.values, est_hi.values):
                    assert abs(x - y) <= abs(y) * mpmath.mpf(10) ** -digits, (name, n)

    @pytest.mark.parametrize("terms, digits", [(400, 60), (2000, 100), (300, 250)])
    def test_estimators_round_once(self, terms, digits):
        # fed the same inputs, each value at digits is within 2^(1-prec) of
        # the same call at digits + 100 (prec: the working bits): the kernel
        # loses none of the guard digits, and each value is rounded once
        lo, hi = HpContext(digits), HpContext(digits + 100)
        s = HpSeq.from_sequence(gen_lconvex_area(terms + 1), lo).slice_from(1)
        lam = stretched_lambda(s)
        with lo.work():
            a = mpmath.sqrt(mpmath.mpf(13) / 6)
            unit = +mpmath.eps  # 2^(1-prec)

        def estimators(ctx):
            return (stretched_lambda(HpSeq(1, s.values, ctx)),
                    *stretched_triple_fit(HpSeq(1, lam.values, ctx)),
                    stretched_amplitude_seq(HpSeq(1, s.values, ctx), a,
                                            Fraction(1, 2), Fraction(3, 2)))

        names = ("lambda", "e1", "e2", "e3", "amplitude")
        with mpmath.workdps(digits + 100):
            for name, est_lo, est_hi in zip(names, estimators(lo), estimators(hi)):
                for n, x, y in zip(est_lo.indices(), est_lo.values, est_hi.values):
                    assert abs(x - y) <= abs(y) * unit, (name, n)

    def test_fraction_values_match_floats(self):
        # a Fraction-valued sequence is read as its context floats
        values = [Fraction(k * k + 1, k + 2) for k in range(1, 13)]
        exact = frac_seq(1, values)
        floats = HpSeq(1, tuple(CTX50.mpf(v) for v in values), CTX50)
        assert stretched_lambda(exact).values == stretched_lambda(floats).values
        assert ([e.values for e in stretched_triple_fit(exact)]
                == [e.values for e in stretched_triple_fit(floats)])
        args = Fraction(1, 3), Fraction(1, 2), Fraction(3, 2)
        assert (stretched_amplitude_seq(exact, *args).values
                == stretched_amplitude_seq(floats, *args).values)

    def test_non_finite_value_is_an_error(self):
        with CTX50.work():
            s = HpSeq(1, (mpmath.mpf(2), mpmath.inf, mpmath.mpf(3)), CTX50)
        with pytest.raises(ValueError, match="non-finite value at index 2"):
            stretched_triple_fit(s)
        with pytest.raises(ValueError, match="non-finite value at index 2"):
            stretched_lambda(s)

    @pytest.mark.parametrize("beta, delta", [
        (Fraction(1, 3), Fraction(-2, 5)),
        (mpmath.mpf("0.625"), mpmath.mpf(2) / 3),
    ], ids=["fractions", "floats"])
    def test_any_exponent_matches_mpmath(self, beta, delta):
        # exponents other than 1/2 take n^beta as exp(beta log n) in the kernel
        s = self.plant(Fraction(6, 5), Fraction(-1, 2), Fraction(1, 4), 60, CTX50)
        lam = stretched_lambda(s, beta)
        amp = stretched_amplitude_seq(s, Fraction(6, 5), beta, delta)
        with mpmath.workdps(150):
            b, d = (mpmath.mpf(x.numerator) / x.denominator if isinstance(x, Fraction)
                    else x for x in (beta, delta))
            for n, v, x, c in zip(s.indices(), s.values, lam.values, amp.values):
                lam_ref = mpmath.log(v) / (mpmath.pi * mpmath.mpf(n) ** b)
                amp_ref = v * mpmath.mpf(n) ** d * mpmath.exp(
                    -mpmath.mpf(6) / 5 * mpmath.pi * mpmath.mpf(n) ** b)
                assert abs(x - lam_ref) <= abs(lam_ref) * mpmath.mpf(10) ** -50
                assert abs(c - amp_ref) <= abs(amp_ref) * mpmath.mpf(10) ** -50


class TestStretchedAmplitudesAtIndices:
    def test_values_at_squares(self, lconvex_2000):
        # the values at the given indices are those of the whole sequence
        ctx = HpContext(60)
        s = HpSeq.from_sequence(lconvex_2000, ctx).slice_from(1)
        args = Fraction(7, 5), Fraction(1, 2), Fraction(3, 2)
        squares = [k * k for k in range(1, 45)]
        whole = stretched_amplitude_seq(s, *args)
        assert stretched_amplitudes(s, *args, squares) == tuple(
            whole.value(n) for n in squares)
        assert stretched_amplitudes(s, *args, [9, 2, 9]) == (
            whole.value(9), whole.value(2), whole.value(9))

    def test_indices_below_one_rejected(self):
        s = frac_seq(0, [1, 2, 3])
        with pytest.raises(ValueError, match="need indices >= 1, got 0"):
            stretched_amplitudes(s, 1, Fraction(1, 2), 0, [0])


class TestNonFiniteParameter:
    """A model parameter enters the working precision as a sequence value
    does (HpContext.raw), so an inf or a nan raises ValueError naming it
    rather than giving a plausible wrong answer."""

    S = HpSeq(1, tuple(2 ** n * (n * n + 1) for n in range(1, 16)), HpContext(30))
    FINITE = {"a": 1, "beta": Fraction(1, 2), "delta": 1}

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("name", ["a", "beta", "delta"])
    def test_stretched_amplitudes(self, name, bad):
        params = {**self.FINITE, name: mpmath.mpf(bad)}
        match = f"^non-finite parameter {name}$"
        with pytest.raises(ValueError, match=match):
            stretched_amplitude_seq(self.S, **params)
        with pytest.raises(ValueError, match=match):
            stretched_amplitudes(self.S, **params, indices=[1, 4, 9])

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_stretched_lambda(self, bad):
        with pytest.raises(ValueError, match="^non-finite parameter beta$"):
            stretched_lambda(self.S, mpmath.mpf(bad))

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    def test_amplitude_fit_g(self, bad):
        s = Sequence(1, tuple(3 * 2 ** n for n in range(1, 12)))
        with pytest.raises(ValueError, match="^non-finite parameter g$"):
            amplitude_fit(s, 2, mpmath.mpf(bad), 2, CTX50)

    def test_raw_names_an_index_or_a_parameter(self):
        ctx = HpContext(30)
        with pytest.raises(ValueError, match="^non-finite value at index 0$"):
            ctx.raw(mpmath.inf, 0)
        with pytest.raises(ValueError, match="^non-finite parameter g$"):
            ctx.mpf("nan", "g")
        assert ctx.raw(mpmath.inf) == mpmath.inf._mpf_


class ReferenceKernel(Fixed):
    """The kernel's logs, roots and exps as they were before its tables:
    log_int_fixed at P bits for log n, mpf_log at P bits for a value's log
    (at the scale of its last bit, which holds it exactly), isqrt for
    sqrt n, and mpf_exp at P bits for an exp, so that an amplitude is
    mpf_mul of s_n and that exp at prec and n^beta (beta != 1/2) is
    to_fixed of it at P bits."""

    def sqrt(self, n):
        return isqrt(n << 2 * self.bits)

    def log(self, n):
        return log_int_fixed(n, self.bits)

    def log_raw(self, raw):
        sign, man, exp, _ = mpf_log(raw, self.bits)
        return -man if sign else man, -exp

    def exp(self, x, scale):
        _, man, exp, _ = mpf_exp(from_man_exp(x, -scale), self.bits)
        return man, -exp


def random_raws(rng, count):
    """Positive raw mpfs with mantissas of 1 to 900 bits and exponents in
    [-10^4, 10^4]."""
    raws = []
    for _ in range(count):
        bits = rng.randint(1, 900)
        man = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        raws.append(from_man_exp(man, rng.randint(-10 ** 4, 10 ** 4)))
    return raws


class TestKernelLog:
    """The log table and the general log of Fixed against mpmath at more
    bits, within the bounds its docstring states."""

    @pytest.mark.parametrize("digits, last", [(15, 2000), (100, 20000), (250, 2000)])
    def test_integer_logs(self, digits, last):
        fx = Fixed(HpContext(digits), 1, last)
        table = fx.table
        for n in range(1, last + 1):
            # the entry falls short of log n 2^T by less than 2 T log2 n units
            short = log_int_fixed(n, table.prec + 64) - (table.logs[n] << 64)
            assert -(1 << 64) < short < (2 * table.prec * log2(n) + 1) * 2 ** 64, n
            assert fx.log(n) == table.logs[n] >> table.guard
            assert fx.sqrt(n) == isqrt(n << 2 * fx.bits)

    @pytest.mark.parametrize("digits", [15, 100, 250])
    def test_value_logs(self, digits):
        # a value's log is off by less than 21 T units of 2^-T
        fx = Fixed(HpContext(digits), 1, 1300)
        prec = fx.table.prec
        for raw in random_raws(random.Random(digits), 7000):
            ref = to_fixed(mpf_log(raw, prec + 80), prec + 80)
            m, scale = fx.log_raw(raw)
            assert scale == prec
            assert abs(ref - (m << 80)) < 21 * prec << 80, raw

    @pytest.mark.parametrize("digits", [15, 100, 250])
    def test_logs_near_one(self, digits):
        # in the band 1 - 2^-10 <= x < 1 + 2^-9 a value's log keeps T bits
        # relative: x = 1 +- f 2^-k, f in [1/2, 1) of up to prec bits and
        # k from 10 to 3 prec, is off by less than 2^-(prec + 64) of log x.
        # mpf_log keeps its precision relative near 1, so T + 80 bits of it
        # placed at scale + 80 are an exact enough reference
        fx = Fixed(HpContext(digits), 1, 1300)
        prec, rng = fx.prec, random.Random(digits)
        assert fx.log_raw(from_int(1)) == (0, fx.table.prec)
        for k in range(10, 3 * prec + 1):
            for sign in (1, -1):
                d = rng.getrandbits(rng.randint(1, prec)) | 1
                shift = k + d.bit_length()
                raw = from_man_exp((1 << shift) + sign * d, -shift)
                m, scale = fx.log_raw(raw)
                ref = to_fixed(mpf_log(raw, fx.table.prec + 80), scale + 80)
                assert abs(ref - (m << 80)) << prec + 64 < abs(ref), raw

    def test_band_edges(self):
        # 1 - 2^-10 and 1 + 2^-9 - 2^-40 lie in the band; 1 - 2^-10 - 2^-40
        # and 1 + 2^-9 lie outside it and take the table at scale T
        fx = Fixed(HpContext(30), 1, 100)
        prec = fx.table.prec
        inside = [from_man_exp(1023, -10), from_man_exp(2 ** 40 + 2 ** 31 - 1, -40)]
        outside = [from_man_exp(2 ** 40 - 2 ** 30 - 1, -40), from_man_exp(513, -9)]
        for raw in inside + outside:
            m, scale = fx.log_raw(raw)
            assert (scale > prec) == (raw in inside), raw
            ref = to_fixed(mpf_log(raw, prec + 80), scale + 80)
            assert abs(ref - (m << 80)) << 64 < abs(ref), raw

    def test_indices_past_the_table(self):
        # a range far from 1 leaves the table at 1023 entries: its logs are
        # values' logs, within their bound, and its roots come from isqrt
        fx = Fixed(HpContext(100), 10 ** 6, 10 ** 6 + 99)
        prec = fx.table.prec
        assert len(fx.table.logs) == 1024
        for n in range(10 ** 6, 10 ** 6 + 100):
            ref = log_int_fixed(n, prec + 64)
            assert abs(ref - (fx.int_log(n) << 64)) < 21 * prec << 64, n
            assert fx.sqrt(n) == isqrt(n << 2 * fx.bits)

    def test_multiples_of_log2_beyond_2_to_32(self):
        fx = Fixed(HpContext(30), 1, 100)
        prec = fx.table.prec
        for e in (2 ** 32 - 1, -(2 ** 32), 3 ** 40, -(7 ** 30)):
            raw = from_man_exp(12345, e)
            ref = to_fixed(mpf_log(raw, prec + 80), prec + 80)
            m, scale = fx.log_raw(raw)
            assert scale == prec
            assert abs(ref - (m << 80)) < 21 * prec << 80, e


class TestKernelExp:
    """Fixed.exp against mpf_exp at T + 64 bits, within the relative error
    (68 T + 2^12) 2^-T that the Fixed docstring states."""

    @staticmethod
    def assert_within_bound(fx, x, scale):
        T = fx.table.prec
        m, shift = fx.exp(x, scale)
        assert m >> T == 1, x  # exp(r) for r in [0, log 2)
        ref = to_fixed(mpf_exp(from_man_exp(x, -scale), T + 64), shift + 64)
        assert abs(ref - (m << 64)) << T < (68 * T + 4096) * ref, x

    @pytest.mark.parametrize("digits, last", [(15, 300), (100, 2000), (250, 20000)])
    def test_seeded_arguments(self, digits, last):
        # |x| up to 2^25 at the kernel's scale 2^-2P, every magnitude below
        fx = Fixed(HpContext(digits), 1, last)
        scale, rng = 2 * fx.bits, random.Random(digits)
        xs = [0, 1, -1, 1 << scale + 25, -(1 << scale + 25)]
        for _ in range(3000):
            x = rng.getrandbits(rng.randint(1, scale + 25))
            xs += [x, -x]
        for x in xs:
            self.assert_within_bound(fx, x, scale)
        # another input scale, below T + 64 bits
        for x in xs[:200]:
            self.assert_within_bound(fx, x >> scale - 60, 60)

    @pytest.mark.parametrize("digits", [15, 100, 250])
    def test_near_multiples_of_log2(self, digits):
        # x just below and above k log 2, where the reduction's k steps and
        # r lies at either end of [0, log 2)
        fx = Fixed(HpContext(digits), 1, 2000)
        scale, rng = 2 * fx.bits, random.Random(digits)
        for k in [0, 1, -1, 2, -2, *(rng.randint(-2 ** 25, 2 ** 25) for _ in range(300))]:
            with mpmath.workprec(scale + 64):
                at = int(mpmath.floor(k * mpmath.ln2 * mpmath.ldexp(1, scale)))
            for d in (1, 1 << 40, 1 << scale - 30, 1 << scale - 8):
                for x in (at - d, at + d):
                    self.assert_within_bound(fx, x, scale)

    def test_exact_at_zero(self):
        fx = Fixed(HpContext(30), 1, 100)
        T = fx.table.prec
        assert fx.exp(0, 2 * fx.bits) == (1 << T, T)
        assert [row[0] for row in fx.table.exps] == [1 << T] * 4
        # r < log 2 keeps the first chunk floor(256 r) at or below 177
        assert [len(row) for row in fx.table.exps] == [178, 256, 256, 256]
        assert (fx.table.ln2 * 256 >> T + 64) == 177


def stretched_values(s, beta, delta, a):
    """The _mpf_ tuples of lambda, of the triple fit at beta = 1/2, and of
    the amplitudes."""
    lam = stretched_lambda(s, beta)
    seqs = [lam, *(stretched_triple_fit(lam) if beta == Fraction(1, 2) else ()),
            stretched_amplitude_seq(s, a, beta, delta)]
    return [v._mpf_ for seq in seqs for v in seq.values]


class TestKernelMatchesMpmathLogs:
    """The kernel's table logs and exps give the tuples that mpmath's logs
    and exps gave."""

    @pytest.mark.parametrize("digits", [15, 60, 100, 250])
    def test_stretched_estimators(self, digits, lconvex_2000, stack_2000, monkeypatch):
        ctx = HpContext(digits)
        with ctx.work():
            a = mpmath.sqrt(mpmath.mpf(13) / 6)
        cases = [(counts, terms, Fraction(1, 2), Fraction(3, 2))
                 for counts in (lconvex_2000, stack_2000) for terms in (300, 2000)]
        cases.append((stack_2000, 1300, Fraction(1, 3), Fraction(-2, 5)))
        compared = 0
        for counts, terms, beta, delta in cases:
            s = HpSeq(1, HpSeq.from_sequence(counts, ctx).slice_from(1).values[:terms], ctx)
            new = stretched_values(s, beta, delta, a)
            with monkeypatch.context() as m:
                m.setattr("seqlab.asympt.Fixed", ReferenceKernel)
                assert new == stretched_values(s, beta, delta, a), (terms, beta)
            compared += len(new)
        assert compared > 25000

    def test_indices_past_the_table(self, lconvex_2000, monkeypatch):
        ctx = HpContext(100)
        s = HpSeq(10 ** 5, HpSeq.from_sequence(lconvex_2000, ctx).values[1:301], ctx)
        args = Fraction(1, 2), Fraction(3, 2), Fraction(7, 5)
        new = stretched_values(s, *args)
        points = loglog_points(s)
        with monkeypatch.context() as m:
            m.setattr("seqlab.asympt.Fixed", ReferenceKernel)
            assert new == stretched_values(s, *args)
        with ctx.work():
            assert points == [(mpmath.log(n), mpmath.log(v))
                              for n, v in zip(s.indices(), s.values)]

    @pytest.mark.parametrize("digits", [15, 60, 100, 250])
    def test_loglog_points(self, digits, lconvex_2000, stack_2000):
        ctx = HpContext(digits)
        counts = [HpSeq.from_sequence(c, ctx).slice_from(1) for c in (lconvex_2000, stack_2000)]
        with ctx.work():
            raws = random_raws(random.Random(100 + digits), 5000)
            seqs = [*counts, *(ratios(c).map(lambda v: v - 1) for c in counts),
                    HpSeq(1, tuple(map(mpmath.mp.make_mpf, raws)), ctx)]
        compared = 0
        for s in seqs:
            points = loglog_points(s)
            with ctx.work():
                ref = [(mpmath.log(n), mpmath.log(v)) for n, v in zip(s.indices(), s.values)]
            assert [(x._mpf_, y._mpf_) for x, y in points] == [
                (x._mpf_, y._mpf_) for x, y in ref]
            compared += 2 * len(points)
        assert compared > 25000


COLD_START = """
from fractions import Fraction
from mpmath.libmp import libelefun
from seqlab import (HpContext, HpSeq, gen_lconvex_area, gen_stack_area, loglog_points,
                    stretched_amplitude_seq, stretched_lambda, stretched_triple_fit)
from seqlab.pipeline import ratio_loglog
ctx = HpContext(100)
for counts in (gen_stack_area(600), gen_lconvex_area(1301)):
    s = HpSeq.from_sequence(counts, ctx).slice_from(1)
    stretched_triple_fit(stretched_lambda(s))
    stretched_amplitude_seq(s, Fraction(7, 5), Fraction(1, 2), Fraction(3, 2))
    loglog_points(s)
    ratio_loglog(s)
    print(len(libelefun.log_taylor_cache), len(libelefun.log_int_cache))
"""


def test_stretched_chain_leaves_mpmath_log_caches_empty():
    # a fresh process runs the stretched chain, the log-log points and the
    # log-log figures of the ratios (whose r_n - 1 start near 1) on counts
    # without filling mpmath's log caches
    proc = subprocess.run([sys.executable, "-c", COLD_START], env=child_env(),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"] * 2


class TestPowerLaw:
    def test_pure_exponential_gives_zero_power(self):
        s = frac_seq(1, [Fraction(5) * 3 ** n for n in range(1, 20)])
        diag = powerlaw_pipeline(s, 3)
        assert all(v == 0 for v in diag.g_seq.values)
        assert diag.g_estimate == 0
        assert diag.g_spread == 0

    def test_planted_power_converges(self):
        with CTX100.work():
            vals = tuple(
                mpmath.mpf(3) ** n * mpmath.mpf(n) ** -3
                for n in range(1, 60)
            )
        diag = powerlaw_pipeline(HpSeq(1, vals, CTX100), 3)
        # the once-accelerated estimator is O(1/n^2) accurate
        assert abs(diag.g2_seq.values[-1] + 3) < 0.01
        assert abs(diag.g_estimate + 3) < 0.01

    def test_rejects_non_positive_mu(self):
        with pytest.raises(ValueError):
            powerlaw_pipeline(frac_seq(1, [1, 2, 3, 4]), 0)


class TestBst:
    def test_planted_three_power_model(self):
        with CTX50.work():
            vals = tuple(
                5
                + 3 / mpmath.sqrt(n)
                - 2 / mpmath.mpf(n)
                + 7 / mpmath.mpf(n) ** Fraction(3, 2)
                for n in range(1, 26)
            )
        res = bst_extrapolate(HpSeq(1, vals, CTX50), Fraction(1, 2))
        assert abs(res.value - 5) < mpmath.mpf(10) ** -38
        assert res.depth == 24

    def test_constant_sequence(self):
        res = bst_extrapolate(frac_seq(1, [7] * 10), Fraction(1, 2))
        assert res.value == 7
        assert res.spread == 0

    def test_guards(self):
        with pytest.raises(InsufficientTerms):
            bst_extrapolate(frac_seq(1, [1, 2, 3]), Fraction(1, 2))
        with pytest.raises(ValueError):
            bst_extrapolate(frac_seq(0, [1, 2, 3, 4]), Fraction(1, 2))
        with pytest.raises(ValueError):
            bst_extrapolate(frac_seq(1, [1, 2, 3, 4]), Fraction(0))

    def test_tableau_blowup(self):
        # with w = 1 the first update hits (x_1/x_2)(1 - D/Dp) - 1 = 0
        # exactly when s = (1, 2, ...): all quantities are dyadic
        with pytest.raises(TableauBlowup):
            bst_extrapolate(frac_seq(1, [1, 2, 5, 9]), Fraction(1))


def mpf_tableau(s, w):
    """bst_extrapolate's tableau as it was before it ran on raw tuples:
    mpf objects under s.ctx.work(); returns (value, spread)."""
    if any(isinstance(v, Fraction) for v in s.values):
        s = s.map(s.ctx.mpf)
    n_terms = len(s)
    with s.ctx.work():
        w_ = s.ctx.mpf(Fraction(w))
        prev2 = [mpmath.mpf(0)] * (n_terms + 1)
        prev1 = list(s.values)
        for m in range(1, n_terms):
            cur = []
            for i in range(n_terms - m):
                hi, lo = prev1[i + 1], prev1[i]
                delta = hi - lo
                if delta == 0:
                    cur.append(hi)
                    continue
                dprev = hi - prev2[i + 1]
                if dprev == 0:
                    cur.append(hi)
                    continue
                n = s.offset + i
                ratio = mpmath.power(mpmath.mpf(n + m) / n, w_)
                bracket = ratio * (1 - delta / dprev) - 1
                if bracket == 0:
                    raise TableauBlowup(f"zero denominator at depth {m}, index {n}")
                cur.append(hi + delta / bracket)
            prev2, prev1 = prev1, cur
        return prev1[0], abs(prev1[0] - prev2[1])


def sticky_quotient(num, den, bits, shift=0):
    """The rounding that quotient_nearest replaced: num / (den 2^shift)
    to bits + 3 or more bits with the remainder as a sticky last bit, for
    normalize to round."""
    sign = int((num < 0) != (den < 0))
    num, den = abs(num), abs(den)
    k = bits + 3 + den.bit_length() - num.bit_length()
    q, r = divmod(num << k, den) if k >= 0 else divmod(num, den << -k)
    man = 2 * q + (r != 0)
    return sign, man, -k - 1 - shift, man.bit_length()


class TestQuotientNearest:
    @staticmethod
    def cases(rng, count):
        """(num, den, prec, shift): numerators of 0 to 900 bits and
        denominators of 1 to 600 bits of either sign, a zero numerator, and
        every third an exact tie at prec + 1 bits, times den; shifts in
        [-1000, 1000] and +-1000 itself."""
        for i in range(count):
            prec = rng.randint(1, 400)
            den = rng.choice((1, -1)) * (rng.getrandbits(rng.randint(0, 600)) + 1)
            if i % 3 == 0:
                kept = rng.getrandbits(prec) | 1 << prec - 1
                num = rng.choice((1, -1)) * ((2 * kept + 1) << rng.randrange(20)) * den
            elif i % 50 == 1:
                num = 0
            else:
                num = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 900))
            shift = rng.choice((-1000, 1000)) if i % 7 == 0 else rng.randint(-1000, 1000)
            yield num, den, prec, shift

    def test_matches_normalized_sticky_quotient(self):
        rng = random.Random(3232)
        ties = 0
        for num, den, prec, shift in self.cases(rng, 100_000):
            got = quotient_nearest(num, den, prec, shift)
            want = normalize(*sticky_quotient(num, den, prec, shift), prec, round_nearest)
            assert got == want, (num, den, prec, shift)
            ties += num % den == 0 and (abs(num) // abs(den)).bit_length() > prec
        assert ties > 30_000

    def test_ties_go_to_even(self):
        # a + 1/2 and a + 3/2 for the even a = 2^(prec - 1) lie halfway
        # between two floats of prec bits: both go to the even neighbour
        for prec in (2, 3, 53, 300):
            a = 1 << prec - 1
            assert quotient_nearest(2 * a + 1, 2, prec) == from_int(a)
            assert quotient_nearest(2 * a + 3, -2, prec, 5) == from_man_exp(-(a + 2), -5)

    def test_zero_numerator(self):
        assert quotient_nearest(0, -7, 53, 1000) == (0, 0, 0, 0)


@pytest.mark.parametrize("digits", [15, 100, 260])
def test_sqrt_nearest_matches_mpf_sqrt(digits):
    # every index ratio (n + m)/n of a tableau of up to 34 terms at n < 300,
    # odd and even exponents and exact squares among them
    prec = HpContext(digits).prec
    for n in range(1, 300):
        for m in range(1, 34):
            q = mpf_div(from_int(n + m), from_int(n), prec, round_nearest)
            assert sqrt_nearest(q, prec) == mpf_sqrt(q, prec, round_nearest), (n, m)


class TestBstRawTableau:
    """bst_extrapolate runs its tableau on raw mpf tuples; its value and
    spread are bit for bit those of the mpf-object tableau, and it raises
    TableauBlowup at the same depth and index."""

    WS = [Fraction(1, 2), Fraction(1), Fraction(1, 3), Fraction(2)]

    @staticmethod
    def outcome(fn, s, w):
        try:
            value, spread = fn(s, w)
        except TableauBlowup as exc:
            return str(exc)
        return value._mpf_, spread._mpf_

    @staticmethod
    def raw_bst(s, w):
        res = bst_extrapolate(s, w)
        return res.value, res.spread

    def test_seeded_sequences(self):
        rng = random.Random(1926)
        for _ in range(160):
            digits, w = rng.randint(15, 250), rng.choice(self.WS)
            ctx = HpContext(digits, rng.choice([0, 3, 10]))
            offset, n_terms = rng.randint(1, 6), rng.randint(4, 14)
            # limit plus powers of n^-w, the terms at a precision of their
            # own: below, at or above the context's
            with mpmath.workdps(rng.choice([digits - 5, digits + ctx.guard, digits + 40])):
                coeffs = [mpmath.mpf(rng.uniform(-3, 3)) for _ in range(4)]
                values = tuple(
                    sum(c / mpmath.mpf(k) ** (j * w) for j, c in enumerate(coeffs))
                    for k in range(offset, offset + n_terms))
            s = HpSeq(offset, values, ctx)
            want = self.outcome(mpf_tableau, s, w)
            assert isinstance(want, tuple)
            assert self.outcome(self.raw_bst, s, w) == want

    def test_blowups_and_converged_entries(self):
        """Short sequences of small integers, as Fractions and as mpfs: their
        tableaux meet zero differences and zero brackets."""
        rng = random.Random(1927)
        blowups = 0
        for _ in range(1500):
            w = rng.choice(self.WS)
            ctx = HpContext(rng.randint(15, 60))
            values = [rng.randint(-3, 3) for _ in range(rng.randint(4, 7))]
            for s in (frac_seq(1, values), HpSeq(rng.randint(1, 3), tuple(
                    ctx.mpf(v) for v in values), ctx)):
                want = self.outcome(mpf_tableau, s, w)
                assert self.outcome(self.raw_bst, s, w) == want
                blowups += isinstance(want, str)
        assert blowups > 50


BAD_MU = ["-2", "0", "inf", "nan"]


class TestGrowthConstantChecked:
    """Both consumers of a growth constant reject one that is not finite
    and positive, with the same message."""

    MESSAGE = "^the growth constant mu must be finite and positive$"

    @pytest.mark.parametrize("mu", BAD_MU)
    def test_powerlaw(self, mu):
        with pytest.raises(ValueError, match=self.MESSAGE):
            powerlaw_pipeline(frac_seq(1, [1, 2, 3, 4]), mpmath.mpf(mu))

    @pytest.mark.parametrize("mu", BAD_MU)
    def test_amplitude_fit(self, mu):
        s = Sequence(1, tuple(3 * 2 ** n for n in range(1, 12)))
        with pytest.raises(ValueError, match=self.MESSAGE):
            amplitude_fit(s, mpmath.mpf(mu), 1, 2, CTX50)


class TestAmplitudeFit:
    def test_planted_one_correction(self):
        # s_n = 3 * 2^n (n + 1) = 2^n n (3 + 3/n): C = 3, a_1 = 1, g = 1
        s = Sequence(1, tuple(3 * 2 ** n * (n + 1) for n in range(1, 41)))
        fit = amplitude_fit(s, 2, -1, 1, CTX50)
        eps = mpmath.mpf(10) ** -40
        assert abs(fit.model.C - 3) < eps
        assert abs(fit.model.corrections[0] - 1) < eps
        assert fit.model.mu == 2
        assert fit.model.g == 1
        assert fit.c_spread < eps
        assert fit.window_end == 40

    def test_planted_pure_power(self):
        s = Sequence(1, tuple(5 * 3 ** n for n in range(1, 20)))
        fit = amplitude_fit(s, 3, 0, 0, CTX50)
        assert abs(fit.model.C - 5) < mpmath.mpf(10) ** -45
        assert fit.model.corrections == ()

    def test_needs_enough_terms(self):
        with pytest.raises(InsufficientTerms):
            amplitude_fit(Sequence(1, (1, 2, 3)), 2, 0, 5, CTX50)

    def test_needs_terms_at_positive_indices(self):
        # the fit nodes are 1/n, so index 0 cannot enter a window, and the
        # spread needs two windows: K + 2 terms at indices n >= 1
        for terms in ((1, 2, 3), (1, 2, 4, 8)):
            with pytest.raises(InsufficientTerms,
                               match="^need K\\+2 = 4 terms at indices n >= 1, for two windows$"):
                amplitude_fit(Sequence(0, terms), 2, 0, 2, CTX50)
        fit = amplitude_fit(Sequence(0, (1, 2, 4, 8, 16)), 2, 0, 2, CTX50)
        assert abs(fit.model.C - 1) < mpmath.mpf(10) ** -45
        assert fit.c_spread < mpmath.mpf(10) ** -45

    def test_mpf_g(self):
        s = Sequence(1, (6, 12, 24, 48))
        ctx = HpContext(30)
        fit = amplitude_fit(s, 2, mpmath.mpf(1), 1, ctx)
        assert fit.model.C == amplitude_fit(s, 2, Fraction(1), 1, ctx).model.C

    def test_ill_conditioned_at_low_precision(self, b202062):
        mu = 1 / poly_smallest_positive_root(Poly([1, -8, 5, 1]), digits=40)
        with pytest.raises(IllConditioned):
            amplitude_fit(b202062, mu, Fraction(9, 2), 20, HpContext(30))


class TestAmplitudeFitWindow:
    """amplitude_fit reads only the last K + AMPLITUDE_WINDOWS terms, so
    the CLI may hand it just those: the same fit, or the same error."""

    @staticmethod
    def outcome(s, K, ctx):
        try:
            fit = amplitude_fit(s, 3, Fraction(-1), K, ctx)
        except (InsufficientTerms, IllConditioned) as exc:
            return type(exc), str(exc), getattr(exc, "cond_estimate", None)
        return (fit.model.C, fit.c_spread, fit.cond_estimate,
                fit.model.corrections, fit.window_end)

    @pytest.mark.parametrize("K", [0, 1, 5, 12])
    @pytest.mark.parametrize("offset", [-3, 0, 1, 5])
    def test_tail_gives_the_same_fit(self, offset, K):
        rng = random.Random(1000 * K + offset)
        kinds, short = set(), set()
        for length in range(K + 1, K + 13):
            terms = tuple(3 ** max(n, 0) * (n * n + rng.randint(1, 50))
                          for n in range(offset, offset + length))
            full = Sequence(offset, terms)
            keep = min(length, K + AMPLITUDE_WINDOWS)
            tail = Sequence(full.last_index - keep + 1, terms[-keep:])
            for ctx in (CTX50, HpContext(12)):
                got = self.outcome(full, K, ctx)
                assert self.outcome(tail, K, ctx) == got
                kinds.add(got[0] if isinstance(got[0], type) else AmplitudeFit)
                if got[0] is InsufficientTerms:
                    short.add(length)
        # each case meets a fit; lengths short of K + 2 terms at indices
        # n >= 1 (two windows) fail, and 12 digits leave none for the larger K
        assert AmplitudeFit in kinds
        assert short == set(range(K + 1, K + 2 + max(1 - offset, 0)))
        assert (IllConditioned in kinds) == (K >= 5)


class TestVandermondeInverse:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=20),
           st.integers(min_value=1, max_value=10 ** 4))
    def test_exact_inverse(self, k, start):
        ns = list(range(start, start + k + 1))
        inv = vandermonde_inverse(ns)
        ident = [[int(r == c) for c in range(k + 1)] for r in range(k + 1)]
        # V[r][j] = ns[r]^(-j); both products must be the identity exactly
        assert [
            [sum(Fraction(inv[j][c], n ** j) for j in range(k + 1)) for c in range(k + 1)]
            for n in ns
        ] == ident
        assert [
            [sum(row[r] / Fraction(n ** j) for r, n in enumerate(ns)) for j in range(k + 1)]
            for row in inv
        ] == ident


class TestAmplitudeFitVsLu:
    """The exact-inverse fit against mpmath's LU solve at twice the precision."""

    @staticmethod
    def _lu_reference(s, mu, g, K, digits):
        """C, corrections, C spread over 10 windows and 1-norm condition."""
        with mpmath.workdps(2 * digits):
            def solve(end):
                ns = range(end - K, end + 1)
                mat = mpmath.matrix([[mpmath.mpf(n) ** -k for k in range(K + 1)] for n in ns])
                rhs = mpmath.matrix([
                    mpmath.mpf(s.term(n)) * mpmath.mpf(n) ** g / mpmath.mpf(mu) ** n
                    for n in ns
                ])
                return mat, mpmath.lu_solve(mat, rhs)

            def norm1(m):
                return max(sum(abs(m[i, j]) for i in range(m.rows)) for j in range(m.cols))

            mat, sol = solve(s.last_index)
            c_values = [solve(s.last_index - t)[1][0] for t in range(10)]
            return (
                sol[0],
                [sol[k] / sol[0] for k in range(1, K + 1)],
                max(abs(c - sol[0]) for c in c_values),
                norm1(mat) * norm1(mpmath.inverse(mat)),
            )

    @pytest.mark.parametrize("K,digits", [(5, 50), (12, 120), (20, 200)])
    def test_planted_model_matches_lu(self, K, digits):
        # s_n = mu^n n^h (C + sum_k p_k / n^k) with h = K + 3 > K, so the
        # fit truncates the model and the solve is a genuine least-data fit
        rng = random.Random(K)
        mu, h = 3, K + 3
        poly = [rng.randint(1, 10 ** 6)] + [rng.randint(-10 ** 6, 10 ** 6) for _ in range(h)]
        terms = tuple(
            mu ** n * sum(p * n ** (h - k) for k, p in enumerate(poly))
            for n in range(1, 2001)
        )
        s = Sequence(1, terms)
        fit = amplitude_fit(s, mu, -h, K, HpContext(digits))
        c_ref, corr_ref, spread_ref, cond_ref = self._lu_reference(s, mu, -h, K, digits)
        with mpmath.workdps(2 * digits):
            # digits left after the condition number, less a safety margin
            tol = cond_ref * mpmath.mpf(10) ** (2 - digits)
            assert tol < 1e-10
            assert abs(fit.model.C / c_ref - 1) < tol
            assert len(fit.model.corrections) == K
            for got, want in zip(fit.model.corrections, corr_ref):
                assert abs(got - want) < tol * max(1, abs(want))
            assert abs(fit.c_spread - spread_ref) < tol * abs(c_ref)
            assert abs(fit.cond_estimate / cond_ref - 1) < mpmath.mpf(10) ** -digits


class TestPolyRoot:
    TOL = mpmath.mpf(10) ** -45  # default digits=50, a few ulps of slack

    def test_rational_root(self):
        r = poly_smallest_positive_root(Poly([-1, 2]))  # 2x - 1
        assert abs(r - 0.5) < self.TOL

    def test_picks_smallest(self):
        # (2x - 1)(x - 3)
        r = poly_smallest_positive_root(Poly([-1, 2]) * Poly([-3, 1]))
        assert abs(r - 0.5) < self.TOL

    def test_repeated_root(self):
        p = Poly([-1, 1]) * Poly([-1, 1]) * Poly([-3, 1])
        assert abs(poly_smallest_positive_root(p) - 1) < self.TOL

    def test_root_at_origin_ignored(self):
        r = poly_smallest_positive_root(Poly([0, 0, -1, 1]))  # x^2 (x - 1)
        assert abs(r - 1) < self.TOL

    def test_irrational_root_residual(self):
        p = Poly([-2, 0, 1])  # x^2 - 2
        r = poly_smallest_positive_root(p, digits=60)
        with HpContext(60).work():
            assert abs(r - mpmath.sqrt(2)) < mpmath.mpf(10) ** -58

    def test_no_positive_root(self):
        for p in (Poly([1, 0, 1]), Poly([1, 1]), Poly([0, 1]), Poly([3])):
            with pytest.raises(NoPositiveRoot):
                poly_smallest_positive_root(p)

    # sha256 of repr([mpf tuple, ...]) over ROOT_GRID, recorded from the
    # Fraction bisection before it moved to integer numerators
    ROOT_DIGEST = "3c6eaed00cb946ffec1ee492a9ad35655ef8f09641075c064e37c9ddae232ae7"
    ROOT_GRID = [(Poly([1, -8, 5, 1]), d) for d in (40, 110, 160, 210, 260)] + [
        (Poly([-1, 2]), 50),  # 2x - 1, bound 3/2
        (Poly([-1, 1]), 50),  # x - 1: the first midpoint is the root
        (Poly([-1, 2]) * Poly([-3, 1]), 50),
        (Poly([2, -3, 1]), 50),  # (x - 1)(x - 2): isolation ends on the root
        (Poly([0, 0, -1, 1]), 50),  # x^2 (x - 1): origin stripped, exact midpoint
        (Poly([-1, 1]) * Poly([-1, 1]) * Poly([-3, 1]), 50),  # square-free branch
        (Poly([-2, 0, 3]), 60),  # 3x^2 - 2: bound 5/3
    ]

    def test_roots_pinned(self):
        tuples = []
        for p, digits in self.ROOT_GRID:
            sign, man, exp, bc = poly_smallest_positive_root(p, digits=digits)._mpf_
            tuples.append((sign, int(man), exp, bc))
        digest = hashlib.sha256(repr(tuples).encode()).hexdigest()
        assert digest == self.ROOT_DIGEST

    def test_root_rounded_once_as_before(self):
        # the root enters HpContext(digits) as a Fraction (HpContext.mpf);
        # it gives the tuple of the conversion it replaced, the numerator as
        # an mpf divided by the denominator under HpContext(digits).work()
        rng = random.Random(4200)
        growth_cubic = [(Poly([1, -8, 5, 1]), d) for d in (20, 100, 250, 260)]
        checked = 0
        while checked < 300:
            if growth_cubic:
                p, digits = growth_cubic.pop()
            else:
                cs = [rng.randint(-30, 30) for _ in range(rng.randint(2, 7))]
                p, digits = Poly(cs[:-1] + [cs[-1] or 1]), rng.randint(20, 260)
            try:
                root = p.smallest_positive_root(digits)
            except NoPositiveRoot:
                continue
            with HpContext(digits).work():
                before = mpmath.mpf(root.numerator) / root.denominator
            assert poly_smallest_positive_root(p, digits)._mpf_ == before._mpf_
            checked += 1

    def test_random_polys_match_mpmath(self):
        import random

        rng = random.Random(99)
        checked = 0
        for _ in range(40):
            cs = [rng.randint(-20, 20) for _ in range(rng.randint(2, 5))]
            if not cs[-1]:
                cs[-1] = 1
            p = Poly(cs)
            try:
                mine = poly_smallest_positive_root(p, digits=40)
            except NoPositiveRoot:
                mine = None
            with mpmath.workdps(60):
                roots = mpmath.polyroots(
                    [int(c) for c in reversed(p.coeffs)],
                    maxsteps=200,
                    extraprec=200,
                )
                pos = sorted(
                    r.real
                    for r in roots
                    if abs(r.imag) < mpmath.mpf(10) ** -30
                    and r.real > mpmath.mpf(10) ** -30
                )
                expect = pos[0] if pos else None
                if expect is None:
                    assert mine is None
                else:
                    assert mine is not None
                    assert abs(mine - expect) < mpmath.mpf(10) ** -25
                    checked += 1
        assert checked > 10
