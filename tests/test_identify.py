"""Constant recognition: rational sieve, multiplier dictionary, LLL, min-poly."""

import hashlib
import math
import random
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import (
    Poly,
    identify_rational,
    identify_with_multipliers,
    lll_reduce,
    min_poly,
)
from seqlab.errors import PrecisionTooLow, RankDeficient
from seqlab.identify import _MULTIPLIERS, _gram_row, _rational, _reduce, working_context
from seqlab.series import primitive_int
from test_cli import child_env


def mp(value, dps=50):
    with mpmath.workdps(dps):
        return mpmath.mpf(value)


class TestIdentifyRational:
    def test_simple(self):
        with mpmath.workdps(50):
            assert identify_rational(mpmath.mpf(1) / 3, digits=50) == Fraction(1, 3)
            assert identify_rational(mpmath.mpf("0.5"), digits=50) == Fraction(1, 2)
            assert identify_rational(mpmath.mpf(-22) / 7, digits=50) == Fraction(-22, 7)
            assert identify_rational(mpmath.mpf(4), digits=50) == Fraction(4)

    def test_rejects_irrational(self):
        with mpmath.workdps(50):
            assert identify_rational(mpmath.sqrt(2), digits=50) is None
            assert identify_rational(mpmath.pi, digits=50) is None

    def test_maxden_limits_search(self):
        with mpmath.workdps(50):
            x = mpmath.mpf(13) / 768
            assert identify_rational(x, maxden=1000, digits=50) == Fraction(13, 768)
            assert identify_rational(x, maxden=700, digits=50) is None

    def test_non_finite(self):
        with mpmath.workdps(50):
            assert identify_rational(mpmath.inf, digits=50) is None
            assert identify_rational(mpmath.nan, digits=50) is None

    def test_low_precision_value_not_overclaimed(self):
        # a 6-digit approximation of 1/3 must not pass a 30-digit test
        with mpmath.workdps(30):
            x = mpmath.mpf("0.333333")
            assert identify_rational(x, digits=30) is None
            assert identify_rational(x, digits=6) == Fraction(1, 3)

    def test_nonzero_never_identifies_as_zero(self):
        # the continued fraction of 1e-8 rounds to 0/1, which is within
        # 10^(4 - 9) of it; a nonzero value must not be named 0
        with mpmath.workdps(30):
            assert identify_rational(mpmath.mpf("0.00000001"), digits=9) is None
            assert identify_rational(mpmath.mpf("-1e-30"), digits=20) is None
            assert identify_rational(mpmath.mpf(0), digits=20) == 0
            assert identify_with_multipliers(mpmath.mpf("0.0000000001"), digits=11) is None

    def test_numerator_beyond_working_precision_not_found(self):
        # at 15 digits the working precision is 25 digits: a 25-digit
        # numerator is read, a 26-digit one would be mostly rounding noise
        with mpmath.workdps(30):
            assert identify_rational(mpmath.mpf(10) ** 24, digits=15) == 10**24
            assert identify_rational(mpmath.mpf(10) ** 25, digits=15) is None
            assert identify_rational(mpmath.mpf("1e300"), digits=1) is None
            assert identify_with_multipliers(mpmath.mpf("1e300"), digits=1) is None

    @pytest.mark.parametrize("digits", [0, -3])
    def test_digits_below_one_rejected(self, digits):
        with pytest.raises(ValueError, match="need digits >= 1"):
            identify_rational(mpmath.mpf("0.5"), digits=digits)
        with pytest.raises(ValueError, match="need digits >= 1"):
            identify_with_multipliers(mpmath.mpf("0.5"), digits=digits)

    @pytest.mark.parametrize("maxden", [0, -1])
    def test_maxden_below_one_rejected(self, maxden):
        for identify_fn in (identify_rational, identify_with_multipliers):
            with pytest.raises(ValueError, match=f"need maxden >= 1, got {maxden}"):
                identify_fn(mpmath.mpf("0.5"), maxden, digits=20)

    def test_digits_required(self):
        # the caller states the certified digits; the ambient dps is no default
        for identify in (identify_rational, identify_with_multipliers):
            with pytest.raises(TypeError):
                identify(mpmath.mpf("0.5"))
            with pytest.raises(TypeError):
                identify(mpmath.mpf("0.5"), 1000, 50)


def _fraction_rational(x, maxden, bound, tol):
    """identify._rational as it was, on Fraction arithmetic: the reference."""
    sign, man, exp, _ = x._mpf_
    v = Fraction(0) if man == 0 else Fraction(man) * Fraction(2) ** exp
    cand = (-v if sign else v).limit_denominator(maxden)
    if cand == 0 and x != 0 or abs(cand.numerator) >= bound:
        return None
    err = abs(x - mpmath.mpf(cand.numerator) / cand.denominator)
    return cand if err < tol else None


class TestIntegerReconstruction:
    """_rational's integer continued fraction makes the decisions of
    Fraction.limit_denominator on the exact value of x."""

    MAXDENS = (1, 2, 10, 1000, 10**6)

    @staticmethod
    def values(rng, maxden):
        """Seeded mpfs at 30 digits of every kind the loop can meet."""
        out = [mpmath.mpf(0)]
        for _ in range(300):
            out.append(mpmath.mpf(rng.randint(-10**6, 10**6)))
            out.append(mpmath.ldexp(rng.randint(-999, 999), -rng.randint(0, maxden.bit_length())))
            out.append(mpmath.ldexp(rng.getrandbits(100) | 1, rng.randint(-1100, -900)))
            out.append(mpmath.ldexp(rng.getrandbits(100) | 1, rng.randint(900, 1000)))
            out.append(mpmath.ldexp(rng.getrandbits(100) | 1, rng.randint(-200, 0)))
            out.append(-mpmath.ldexp(rng.getrandbits(100) | 1, rng.randint(-200, 0)))
        return out

    @staticmethod
    def near_rationals(rng, maxden):
        """p/q with q up to 2 maxden, exact and moved by up to 9 * 2^-90."""
        out = []
        for _ in range(150):
            x = mpmath.mpf(rng.randint(-10**4, 10**4)) / rng.randint(1, 2 * maxden)
            out += [x, x * (1 + mpmath.ldexp(rng.randint(-9, 9), -90))]
        return out

    def test_matches_fraction_reference(self):
        rng = random.Random(4401)
        count = 0
        ctx = working_context(20)  # the precision workdps(30) sets
        with mpmath.workdps(30):
            bound, tol = 10**mpmath.mp.dps, mpmath.mpf(10) ** -20
            for maxden in self.MAXDENS:
                near = self.near_rationals(rng, maxden)
                # an infinite tolerance and no bound expose the candidate
                for x in self.values(rng, maxden) + near:
                    assert _rational(x, maxden, 10**400, mpmath.inf, ctx) == \
                        _fraction_rational(x, maxden, 10**400, mpmath.inf), (x, maxden)
                    count += 1
                for x in near:
                    assert _rational(x, maxden, bound, tol, ctx) == \
                        _fraction_rational(x, maxden, bound, tol), (x, maxden)
            for k in range(-50, 50):  # the floor ties k + 1/2 at maxden 1
                x = mpmath.mpf(k) + mpmath.mpf(1) / 2
                assert _rational(x, 1, bound, mpmath.inf, ctx) == \
                    _fraction_rational(x, 1, bound, mpmath.inf) == (Fraction(k) if k else None)
                count += 1
        assert count >= 10**4

    def test_negative_tie_takes_the_floor(self):
        with mpmath.workdps(20):
            assert identify_rational(mpmath.mpf("-2.5"), 1, digits=1) == -3
            assert identify_rational(mpmath.mpf("2.5"), 1, digits=1) == 2


class TestValueEntry:
    """Each identify function takes its value through HpContext.mpf: an mpf
    as it is, an int or a Fraction rounded once, text read at the working
    precision."""

    def test_fraction_input(self):
        assert identify_rational(Fraction(1, 3), digits=40) == Fraction(1, 3)
        ident = identify_with_multipliers(Fraction(13, 768), digits=40)
        assert ident.payload == ("1", Fraction(13, 768)) and ident.certified_digits == 40
        assert min_poly(Fraction(7, 5), 2, 40) == Poly([-7, 5])


def _rounded(x, digits):
    """x rounded once to working_context(digits)."""
    with working_context(digits).work():
        return mpmath.mpf(x)


class TestRoundFirst:
    """Each public function returns on x what it returns on x rounded to its
    working precision: a wide mpf, which enters as it is, decides as its
    rounding does.  The seeded values stay below 10^7 in size.  From about
    10^14 on, x's own rounding, |x| 10^-(digits + 10), reaches the absolute
    tolerance 10^(4 - digits), and a decision there is rounding noise either
    way (ROADMAP item 1, relative tolerances)."""

    MAXDENS = (1, 2, 7, 1000, 10**6)

    @staticmethod
    def seeded(rng):
        """(x, digits): a rational, a dictionary multiple, a shifted square
        root, an exp of a rational, a half-integer tie or a rational moved
        by about the tolerance, held 0 to 150 digits wider than the working
        precision."""
        digits = rng.randint(12, 100)
        with mpmath.workdps(digits + 10 + rng.randint(0, 150)):
            r = mpmath.mpf(rng.randint(-10**6, 10**6)) / rng.choice((1, 2, 7, 768, 999, 10**5))
            kind = rng.randrange(6)
            if kind == 0:
                x = r
            elif kind == 1:
                x = _MULTIPLIERS[rng.randrange(len(_MULTIPLIERS))][1]() * r
            elif kind == 2:
                x = mpmath.sqrt(rng.randint(2, 50)) + rng.randint(-3, 3)
            elif kind == 3:
                x = mpmath.exp(r / 10**5)
            elif kind == 4:
                x = mpmath.mpf(rng.randint(-50, 50)) + mpmath.mpf(1) / 2
            else:
                step = rng.choice((-2, -1.01, -0.99, -0.5, 0.5, 0.99, 1.01, 2))
                x = r + mpmath.mpf(step) * mpmath.mpf(10) ** (4 - digits)
        return x, digits

    def test_seeded_values(self):
        rng = random.Random(4501)
        calls = found = 0
        for i in range(1700):
            x, digits = self.seeded(rng)
            xr = _rounded(x, digits)
            for maxden in self.MAXDENS:
                got = identify_rational(x, maxden, digits=digits)
                assert got == identify_rational(xr, maxden, digits=digits), (x, digits, maxden)
                found += got is not None
            maxden = rng.choice(self.MAXDENS)
            got = identify_with_multipliers(x, maxden, digits=digits)
            assert got == identify_with_multipliers(xr, maxden, digits=digits), (x, digits, maxden)
            calls += len(self.MAXDENS) + 1
            if digits >= 40 and i % 20 == 0:
                assert min_poly(x, 3, digits) == min_poly(xr, 3, digits), (x, digits)
                calls += 1
        assert calls >= 10**4 and found >= 2000

    def test_minpoly_workload_inputs(self):
        # planted numbers of degree 2 to 6 and controls, each moved into
        # [1, 2), at 120 digits and searched at 100
        rng = random.Random(4502)
        draws = [n for n in range(2, 100) if _squarefree(n)]
        with mpmath.workdps(120):
            values = [mpmath.root(a, d) for d in range(2, 7) for a in rng.sample(draws, 2)]
            a, b = rng.sample(draws, 2)
            values += [mpmath.sqrt(a) + mpmath.sqrt(b), mpmath.cbrt(a) + mpmath.sqrt(b)]
            for _ in range(2):
                r = mpmath.mpf(rng.randint(2, 30)) / rng.randint(2, 30)
                values += [mpmath.exp(r), mpmath.log(r + 1), r * mpmath.pi, r / mpmath.pi]
            values = [v + 1 - mpmath.floor(v) for v in values]
        polys = 0
        for x in values:
            xr = _rounded(x, 100)
            assert identify_rational(x, digits=100) == identify_rational(xr, digits=100)
            assert identify_with_multipliers(x, digits=100) == \
                identify_with_multipliers(xr, digits=100), x
            p = min_poly(x, 6, 100)
            assert p == min_poly(xr, 6, 100), x
            polys += p is not None
        assert polys >= 12


class TestMultiplierDictionary:
    def test_default_tags(self):
        tags = [tag for tag, _ in _MULTIPLIERS]
        assert tags == ["1", "sqrt(2)", "sqrt(3)", "sqrt(5)", "pi", "sqrt(pi)",
                        "1/pi", "pi^2", "2^(1/3)", "3^(1/3)"]

    def test_text(self):
        ident = identify_with_multipliers(Fraction(-13, 768) * 7, digits=40)
        assert str(ident) == "(-91/768) * 1"
        with mpmath.workdps(50):
            ident = identify_with_multipliers(mpmath.mpf(13) * mpmath.sqrt(2) / 768, digits=50)
        assert str(ident) == "(13/768) * sqrt(2)"

    def test_pinned_constant(self):
        with mpmath.workdps(50):
            x = mpmath.mpf(13) * mpmath.sqrt(2) / 768
        ident = identify_with_multipliers(x, digits=50)
        assert ident is not None
        assert ident.kind == "dictionary-multiple"
        assert ident.payload == ("sqrt(2)", Fraction(13, 768))
        assert ident.certified_digits >= 46

    def test_plain_rational_uses_unit_tag(self):
        with mpmath.workdps(50):
            ident = identify_with_multipliers(mpmath.mpf(3) / 4, digits=50)
        assert ident.payload == ("1", Fraction(3, 4))

    def test_pi_multiple(self):
        with mpmath.workdps(60):
            ident = identify_with_multipliers(7 * mpmath.pi / 5, digits=60)
        assert ident.payload == ("pi", Fraction(7, 5))

    def test_none_for_unrelated(self):
        with mpmath.workdps(60):
            assert identify_with_multipliers(mpmath.e, digits=60) is None


class TestLll:
    @staticmethod
    def gram_schmidt_checks(basis):
        # exact size-reduction and Lovász conditions over Fractions
        k = len(basis)
        b = [[Fraction(c) for c in row] for row in basis]
        star = [row[:] for row in b]
        mu = [[Fraction(0)] * k for _ in range(k)]
        norms = []
        for i in range(k):
            for j in range(i):
                num = sum(a * c for a, c in zip(b[i], star[j]))
                mu[i][j] = num / norms[j]
                star[i] = [a - mu[i][j] * c for a, c in zip(star[i], star[j])]
            norms.append(sum(c * c for c in star[i]))
        for i in range(k):
            for j in range(i):
                assert abs(mu[i][j]) <= Fraction(1, 2)
        for i in range(1, k):
            assert norms[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * norms[i - 1]

    def test_identity_unchanged(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert lll_reduce(eye) == eye

    def test_classic_2d(self):
        out = lll_reduce([[201, 37], [1648, 297]])
        self.gram_schmidt_checks(out)
        # the exact shortest vector here is (1, 32), found by brute force
        # over all integer combinations with coefficients up to 60
        assert sum(c * c for c in out[0]) == 1025

    def test_ties_round_half_to_even(self):
        # mu = 5/2 and mu = 3/2 are ties; round() takes 2 in both cases
        assert lll_reduce([[2, 0], [5, 1]]) == [[1, 1], [1, -1]]
        assert lll_reduce([[2, 0, 0], [1, 2, 0], [3, 5, 2]]) == [
            [2, 0, 0], [1, 2, 0], [1, 1, 2]
        ]

    def test_ragged_basis_rejected(self):
        with pytest.raises(ValueError, match="non-empty rectangular integer matrix"):
            lll_reduce([[1, 0], [1]])

    def test_delta_outside_the_domain_raises(self):
        """LLL's delta lies in (1/4, 1]: above 1 the Lovasz test never passes,
        so the loop would never end, and at 1/4 or below it always passes.
        Run in a child with a timeout, so that a loop that does not end
        fails the test instead of hanging it."""
        script = ("from fractions import Fraction\n"
                  "from seqlab import lll_reduce\n"
                  "eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]\n"
                  "for delta in (1.5, 2, '5/4', Fraction(1, 4), 0, '-1'):\n"
                  "    try:\n"
                  "        lll_reduce(eye, delta)\n"
                  "    except ValueError as exc:\n"
                  "        print(exc)\n"
                  "print(lll_reduce(eye, 1) == eye, lll_reduce(eye, '99/100') == eye)\n")
        proc = subprocess.run([sys.executable, "-c", script], env=child_env(),
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [
            *(f"need 1/4 < delta <= 1, got {d}" for d in ("3/2", "2", "5/4", "1/4", "0", "-1")),
            "True True"]

    def test_rank_deficient(self):
        with pytest.raises(RankDeficient):
            lll_reduce([[1, 2], [2, 4]])
        with pytest.raises(RankDeficient):
            lll_reduce([[0, 0], [1, 1]])

    def test_random_bases_reduced_and_lattice_preserved(self):
        rng = random.Random(4242)
        done = 0
        while done < 25:
            k = rng.choice((2, 3, 4))
            basis = [
                [rng.randint(-30, 30) for _ in range(k)] for _ in range(k)
            ]
            try:
                out = lll_reduce(basis)
            except RankDeficient:
                continue
            done += 1
            self.gram_schmidt_checks(out)
            assert self.unimodular_transform(basis, out)

    # SHA-256 of repr(outputs) over pinned_bases(), recorded from the
    # rational Gram-Schmidt LLL; any change to the reduction's arithmetic
    # or control flow that alters a single output entry changes it
    PINNED_DIGEST = "9b1c91329418e0f4f7a0f72f71bae65df2a29d8872fa424cd3257282dcc96d47"

    @staticmethod
    def pinned_bases():
        rng = random.Random(2026)
        for i in range(100):
            k = 2 + i % 4
            delta = Fraction(3, 4) if i % 2 else Fraction(99, 100)
            basis = [[rng.randint(-10**6, 10**6) for _ in range(k)] for _ in range(k)]
            yield basis, delta
        # the min_poly lattice shape: identity block plus scaled powers
        for i in range(100):
            d = 1 + i % 6
            x = Fraction(rng.randrange(10**40, 2 * 10**40), 10**40)
            rows = []
            for e in range(d + 1):
                row = [0] * (d + 1) + [round(10**40 * x**e)]
                row[e] = 1
                rows.append(row)
            yield rows, Fraction(3, 4)

    def test_outputs_pinned(self):
        outputs = []
        for basis, delta in self.pinned_bases():
            try:
                outputs.append(lll_reduce(basis, delta))
            except RankDeficient:
                outputs.append("RankDeficient")
        digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
        assert digest == self.PINNED_DIGEST

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_rectangular_bases_property(self, data):
        k = data.draw(st.integers(1, 7))
        m = data.draw(st.integers(k, 8))
        entry = st.integers(-3, 3) | st.integers(-10**6, 10**6)
        row = st.lists(entry, min_size=m, max_size=m)
        basis = data.draw(st.lists(row, min_size=k, max_size=k))
        gram_det = _det(_gram(basis))
        if gram_det == 0:
            with pytest.raises(RankDeficient):
                lll_reduce(basis)
            return
        out = lll_reduce(basis)
        self.gram_schmidt_checks(out)
        assert _det(_gram(out)) == gram_det

    @staticmethod
    def unimodular_transform(basis, out):
        # solve T basis = out over the rationals; T must be integral with
        # determinant +-1, so both bases generate the same lattice
        k = len(basis)
        mat = [[Fraction(basis[j][i]) for j in range(k)] for i in range(k)]
        rows = []
        for vec in out:
            rhs = [Fraction(c) for c in vec]
            sol = _solve(mat, rhs)
            if sol is None or any(c.denominator != 1 for c in sol):
                return False
            rows.append([int(c) for c in sol])
        return abs(_det(rows)) == 1

    def test_finds_short_vector_vs_bruteforce(self):
        rng = random.Random(7)
        for _ in range(10):
            basis = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
            try:
                out = lll_reduce(basis)
            except RankDeficient:
                continue
            best = None
            for a in range(-6, 7):
                for b in range(-6, 7):
                    for c in range(-6, 7):
                        if a == b == c == 0:
                            continue
                        v = [
                            a * basis[0][i] + b * basis[1][i] + c * basis[2][i]
                            for i in range(3)
                        ]
                        n = sum(x * x for x in v)
                        if n and (best is None or n < best):
                            best = n
            got = sum(c * c for c in out[0])
            # guaranteed approximation factor 2^(k-1) on the squared norm
            assert got <= 4 * best


def _solve(mat, rhs):
    k = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col]), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = 1 / a[col][col]
        a[col] = [c * inv for c in a[col]]
        for r in range(k):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [c - f * d for c, d in zip(a[r], a[col])]
    return [a[r][k] for r in range(k)]


def _gram(rows):
    return [[sum(a * c for a, c in zip(r, s)) for s in rows] for r in rows]


def _det(rows):
    k = len(rows)
    a = [[Fraction(c) for c in row] for row in rows]
    det = Fraction(1)
    for col in range(k):
        piv = next((r for r in range(col, k) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, k):
            if a[r][col]:
                f = a[r][col] * inv
                a[r] = [c - f * d for c, d in zip(a[r], a[col])]
    return det


class TestMinPoly:
    def test_sqrt2(self):
        with mpmath.workdps(60):
            p = min_poly(mpmath.sqrt(2), maxdeg=4, digits=50)
        assert p == Poly([-2, 0, 1])

    def test_rational_degree_one(self):
        with mpmath.workdps(50):
            p = min_poly(mpmath.mpf(3) / 4, maxdeg=3, digits=40)
        assert p == Poly([-3, 4])

    def test_golden_ratio(self):
        with mpmath.workdps(60):
            phi = (1 + mpmath.sqrt(5)) / 2
            p = min_poly(phi, maxdeg=4, digits=50)
        assert p == Poly([-1, -1, 1])

    def test_degree_minimality(self):
        # x = 2^(1/3) has degree exactly 3; a larger maxdeg must not
        # produce a reducible higher-degree relation
        with mpmath.workdps(80):
            x = mpmath.cbrt(2)
            p = min_poly(x, maxdeg=6, digits=70)
        assert p == Poly([-2, 0, 0, 1])

    def test_sum_of_radicals(self):
        with mpmath.workdps(80):
            x = mpmath.sqrt(2) + mpmath.sqrt(3)
            p = min_poly(x, maxdeg=4, digits=70)
        assert p == Poly([1, 0, -10, 0, 1])

    def test_transcendental_rejected(self):
        with mpmath.workdps(80):
            assert min_poly(mpmath.pi, maxdeg=3, digits=60) is None
            assert min_poly(mpmath.e, maxdeg=3, digits=60) is None

    def test_non_finite(self):
        # like identify_rational: no relation, rather than an int(inf) error
        with mpmath.workdps(80):
            for x in (mpmath.inf, -mpmath.inf, mpmath.nan):
                assert min_poly(x, maxdeg=3, digits=60) is None

    def test_precision_guard(self):
        with pytest.raises(PrecisionTooLow):
            min_poly(mp(1.5), maxdeg=4, digits=40)

    def test_cbrt2_plus_sqrt3_at_250_digits(self):
        with mpmath.workdps(270):
            x = mpmath.cbrt(2) + mpmath.sqrt(3)
            p = min_poly(x, maxdeg=6, digits=250)
        assert p == Poly([-23, -36, 27, -4, -9, 0, 1])

    def test_zero_constant_term_skipped(self):
        # x^2 is below the acceptance threshold at x = sqrt(2) * 1e-35, but
        # a nonzero number is never a root of x * q unless q is a relation
        with mpmath.workdps(80):
            x = mpmath.sqrt(2) * mpmath.mpf(10) ** -35
            assert min_poly(x, maxdeg=2, digits=63) is None
            assert min_poly(mpmath.mpf(0), maxdeg=2, digits=30) == Poly([0, 1])

    def test_prime_roots_each_degree(self):
        for d, c in ((1, 7), (2, 5), (3, 3), (4, 2), (5, 2)):
            digits = 10 * (d + 1) + 40
            with mpmath.workdps(digits + 20):
                x = mpmath.root(c, d)
                p = min_poly(x, maxdeg=5, digits=digits)
            expect = [-c] + [0] * (d - 1) + [1]
            assert p == Poly(expect), (d, c)


def _squarefree(n):
    return all(n % (p * p) for p in range(2, math.isqrt(n) + 1))


def _normalised(coeffs):
    """Ascending integer coefficients with content 1, leading one positive."""
    coeffs = [int(c) for c in coeffs]
    g = math.gcd(*coeffs) if coeffs[-1] > 0 else -math.gcd(*coeffs)
    return [c // g for c in coeffs]


class TestMinPolyVsFindpoly:
    """min_poly agrees with mpmath.findpoly (PSLQ) on planted algebraics."""

    @staticmethod
    def planted():
        # a^(1/d) and sqrt(a) + sqrt(b) with squarefree a != b, whose
        # degrees are exactly d and 4; each is moved by an integer into [1, 2)
        rng = random.Random(909)
        draws = [n for n in range(2, 100) if _squarefree(n)]
        for d in range(2, 7):
            for a in rng.sample(draws, 3):
                yield d, mpmath.root(a, d)
        for _ in range(4):
            a, b = rng.sample(draws, 2)
            yield 4, mpmath.sqrt(a) + mpmath.sqrt(b)

    def test_same_polynomial(self):
        with mpmath.workdps(120):
            for deg, r in self.planted():
                x = r + 1 - mpmath.floor(r)
                p = min_poly(x, maxdeg=6, digits=100)
                # PSLQ's default 100 steps miss some of the sextics
                ref = mpmath.findpoly(x, 6, maxcoeff=10**6, maxsteps=10**4)
                assert p is not None and ref is not None, (deg, x)
                assert p.degree == deg and all(type(c) is int for c in p.coeffs)
                assert _normalised(p.coeffs) == _normalised(ref[::-1]), (deg, x)


class TestRandomPlantedConstants:
    """Re-verification sweep: plant a constant, recover it, check residual."""

    def test_rationals(self):
        rng = random.Random(101)
        for _ in range(100):
            num = rng.randint(-10 ** 6, 10 ** 6)
            den = rng.randint(1, 999)
            planted = Fraction(num, den)
            with mpmath.workdps(60):
                x = mpmath.mpf(planted.numerator) / planted.denominator
                got = identify_rational(x, digits=50)
            assert got == planted

    def test_dictionary_multiples(self):
        rng = random.Random(202)
        for _ in range(100):
            tag, build = _MULTIPLIERS[rng.randrange(len(_MULTIPLIERS))]
            frac = Fraction(rng.randint(1, 400), rng.randint(1, 400))
            if rng.random() < 0.5:
                frac = -frac
            with mpmath.workdps(60):
                x = build() * frac.numerator / frac.denominator
                ident = identify_with_multipliers(x, digits=50)
                assert ident is not None
                got_tag, got_frac = ident.payload
                rebuilt = dict(_MULTIPLIERS)[got_tag]() * mpmath.mpf(
                    got_frac.numerator
                ) / got_frac.denominator
                # the found combination reproduces the input to the
                # certified accuracy even when tags alias (e.g. 2/pi
                # matching both "1/pi" and "pi^2" never happens, but
                # sqrt(4)/1 vs 2 legitimately can)
                assert abs(rebuilt - x) <= mpmath.mpf(10) ** (
                    -ident.certified_digits
                )
            assert ident.certified_digits >= 46

    def test_quadratic_irrationals(self):
        rng = random.Random(303)
        for _ in range(100):
            a = rng.randint(-9, 9)
            b = rng.choice((1, 2, 3, -1, -2, -3))
            d = rng.choice((2, 3, 5, 6, 7, 10))
            q = rng.randint(1, 9)
            with mpmath.workdps(70):
                x = (a + b * mpmath.sqrt(d)) / q
                p = min_poly(x, maxdeg=2, digits=60)
                assert p is not None
                assert p.degree == 2
                assert abs(p(x)) < mpmath.mpf(10) ** -40


def _per_degree_min_poly(x, maxdeg, digits):
    """min_poly's former search: a fresh lattice at each degree, reduced from
    scratch, with the same acceptance test."""
    with mpmath.workdps(digits + 10):
        x = mpmath.mpf(x)
        scale = mpmath.mpf(10) ** (digits - 10)
        grow = max(mpmath.mpf(1), abs(x))
        for deg in range(1, maxdeg + 1):
            rows = []
            for i in range(deg + 1):
                row = [0] * (deg + 1) + [int(mpmath.nint(scale * x**i))]
                row[i] = 1
                rows.append(row)
            reduced = lll_reduce(rows)
            threshold = mpmath.mpf(10) ** (5 - digits) * grow**deg
            for vec in sorted(reduced, key=lambda r: sum(c * c for c in r[:-1])):
                coeffs = vec[: deg + 1]
                if not any(coeffs[1:]) or (x and not coeffs[0]):
                    continue
                p = Poly(primitive_int(coeffs))
                if p.coeffs[-1] < 0:
                    p = -p
                norm = max(map(abs, p.coeffs))
                if abs(p(x)) < threshold * norm:
                    return p
    return None


class TestMinPolyGrowingLattice:
    """min_poly reduces one lattice grown a row per degree; it returns what
    a fresh reduction at each degree returns."""

    @staticmethod
    def inputs():
        # planted algebraics of degree 2..6, exp and log of rationals and
        # rational multiples of pi and sqrt(pi), each moved into [1, 2)
        rng = random.Random(2323)
        draws = [n for n in range(2, 60) if _squarefree(n)]
        values = []
        for d in range(2, 7):
            for a in rng.sample(draws, 2):
                values.append(mpmath.root(a, d) + rng.randint(-3, 3))
        for _ in range(2):
            a, b = rng.sample(draws, 2)
            values.append(mpmath.sqrt(a) + mpmath.sqrt(b))
            values.append(mpmath.cbrt(a) + mpmath.sqrt(b))
        for _ in range(3):
            r = mpmath.mpf(rng.randint(1, 30)) / rng.randint(2, 30)
            values += [mpmath.exp(r), mpmath.log(r + 1)]
            values += [r * mpmath.pi, r * mpmath.sqrt(mpmath.pi)]
        return [v + 1 - mpmath.floor(v) for v in values]

    def test_matches_per_degree_search(self):
        with mpmath.workdps(130):
            for x in self.inputs():
                assert min_poly(x, 6, 100) == _per_degree_min_poly(x, 6, 100), x

    def test_false_positives_match(self):
        # four inputs on which both searches return a false relation at
        # (6, 100); a height bound is to reject them later, in both
        with mpmath.workdps(130):
            for x in (mpmath.exp(mpmath.mpf(9) / 4), mpmath.exp(mpmath.mpf(18) / 11),
                      mpmath.pi * 37 / 14, mpmath.cbrt(2) + mpmath.sqrt(3) + 3):
                p = min_poly(x, 6, 100)
                assert p is not None and p == _per_degree_min_poly(x, 6, 100), x

    def test_carried_state_is_a_fresh_reduction(self, monkeypatch):
        """At every degree min_poly reaches, the d and lam it carries are a
        fresh Gram set-up of the grown basis, before and after the loop, and
        the loop from the new row gives lll_reduce's basis of the grown one."""
        def fresh(rows):
            d, lam = [1], []
            for _ in rows:
                _gram_row(rows, d, lam)
            return d, lam

        def copy(rows):
            return [row[:] for row in rows]

        records = []

        def spy(b, d, lam, k, num, den):
            before = (copy(b), d[:], copy(lam), k)
            _reduce(b, d, lam, k, num, den)
            records.append((*before, copy(b), d[:], copy(lam)))

        with monkeypatch.context() as patch, mpmath.workdps(130):
            patch.setattr("seqlab.identify._reduce", spy)
            # the inputs of the two tests above, the false positives last
            inputs = self.inputs() + [
                mpmath.exp(mpmath.mpf(9) / 4), mpmath.exp(mpmath.mpf(18) / 11),
                mpmath.pi * 37 / 14, mpmath.cbrt(2) + mpmath.sqrt(3) + 3]
            for x in inputs:
                min_poly(x, 6, 100)
        for grown, d0, lam0, k, reduced, d1, lam1 in records:
            assert k == len(grown) - 1
            assert (d0, lam0) == fresh(grown)
            assert d0[-1] == _det(_gram(grown))
            assert reduced == lll_reduce(grown)
            assert (d1, lam1) == fresh(reduced)
        degrees = [k for _, _, _, k, *_ in records]
        assert degrees.count(1) == len(inputs) and set(degrees) == set(range(1, 7))
