"""Exact-arithmetic tests for polynomials, truncated series and (q)_n."""

import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import Poly, Sequence, TruncSeries, q_pochhammer
from seqlab.errors import NonIntegral, NoPositiveRoot, ZeroConstantTerm
from seqlab.series import (
    div_one_minus_qm,
    div_q_infinity_cubed,
    int_horner,
    mul_trunc,
    poly_values,
    primitive_int,
    q_infinity_terms,
)

small_ints = st.integers(min_value=-9, max_value=9)
polys = st.lists(small_ints, min_size=0, max_size=6).map(Poly)
points = st.integers(min_value=-5, max_value=5).map(Fraction)


class TestPoly:
    def test_trailing_zeros_dropped(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]) == Poly([])

    def test_degree_and_zero(self):
        assert not Poly([])
        assert Poly([]).degree == -1
        assert Poly([7]).degree == 0
        assert Poly([0, 0, 3]).degree == 2

    def test_eval(self):
        p = Poly([1, -8, 5, 1])  # 1 - 8x + 5x^2 + x^3
        assert p(Fraction(0)) == 1
        assert p(Fraction(1)) == -1
        assert p(Fraction(2)) == 13

    @given(polys, polys, points)
    def test_ring_homomorphism(self, p, q, x):
        assert (p + q)(x) == p(x) + q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (-p)(x) == -p(x)

    @given(polys, polys)
    def test_product_degree(self, p, q):
        if not p or not q:
            assert not p * q
        else:
            assert (p * q).degree == p.degree + q.degree

    @given(polys, polys, polys)
    def test_derivative_rules(self, p, q, r):
        assert (p + q).derivative() == p.derivative() + q.derivative()
        prod_rule = p.derivative() * q + p * q.derivative()
        assert (p * q).derivative() == prod_rule
        del r

    def test_int_coeffs(self):
        p = Poly([1, Fraction(4, 2), 3.0])
        assert p.coeffs == (1, 2, 3) and all(type(c) is int for c in p.coeffs)
        assert Poly([Fraction(4, 2)]).coeffs == (2,)
        # any other value fails the check that Sequence terms go through
        with pytest.raises(NonIntegral, match="^non-integer coefficient at index 1$"):
            Poly([1, Fraction(1, 2)])
        with pytest.raises(NonIntegral, match="^non-integer term at index 4$"):
            Sequence(3, (1, Fraction(1, 2)))

    def test_format(self):
        assert Poly([120, 31, 2]).format("n") == "2*n^2 + 31*n + 120"
        assert Poly([0, -1]).format("x") == "-x"
        assert Poly([]).format("x") == "0"

    @given(st.lists(small_ints, min_size=0, max_size=6), points)
    def test_int_horner_matches_eval(self, cs, x):
        if x.denominator == 1:
            assert int_horner(cs, int(x)) == Poly(cs)(x)


_int_coeffs = st.lists(st.integers(-40, 40), max_size=7)


class TestPseudoDivision:
    @settings(deadline=None, max_examples=200)
    @given(_int_coeffs, _int_coeffs.filter(lambda b: b and b[-1]))
    def test_pseudo_division_identity(self, a, b):
        # k a = q b + r for some k > 0, read off the top coefficients
        pa, pb = Poly(a), Poly(b)
        q, r = pa.pseudo_divmod(pb)
        lhs = q * pb + r
        k, rest = divmod(lhs.coeffs[-1], pa.coeffs[-1]) if pa and lhs else (1, 0)
        assert k > 0 and rest == 0
        assert lhs == pa * Poly([k])
        assert r.degree < pb.degree

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1, 2]).pseudo_divmod(Poly([]))


class TestSignAt:
    def test_matches_fraction_sign(self):
        # p has roots at 0, 1/2, -3/4 and 5/3, and the grid holds all four
        roots = Poly([0, 1]) * Poly([-1, 2]) * Poly([3, 4]) * Poly([-5, 3])
        rng = random.Random(2809)
        cases = [(roots, m, 12) for m in range(-30, 31)]
        for _ in range(300):
            p = Poly([rng.randint(-50, 50) for _ in range(rng.randint(0, 8))])
            cases.append((p, rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6)))
        zeros = 0
        for p, m, den in cases:
            want = p(Fraction(m, den))
            zeros += want == 0
            assert p.sign_at(m, den) == (want > 0) - (want < 0), (p, m, den)
        assert zeros >= 4

    def test_zero_polynomial(self):
        assert Poly([]).sign_at(3, 7) == 0


class TestSmallestPositiveRoot:
    """Exact checks of the isolator: the returned Fraction is the midpoint
    of a bracket narrower than 10^-(digits+5) around the root, so it lies
    within half that width of the root."""

    DIGITS = 30

    def assert_near(self, p, root):
        got = p.smallest_positive_root(self.DIGITS)
        assert type(got) is Fraction
        assert abs(got - root) * 2 * 10 ** (self.DIGITS + 5) < 1, (p, got)

    def test_rational_root(self):
        self.assert_near(Poly([-1, 2]), Fraction(1, 2))  # 2x - 1

    def test_picks_smallest(self):
        self.assert_near(Poly([-1, 2]) * Poly([-3, 1]), Fraction(1, 2))  # (2x - 1)(x - 3)

    def test_double_root(self):
        self.assert_near(Poly([-1, 1]) * Poly([-1, 1]) * Poly([2, 1]), 1)  # (x - 1)^2 (x + 2)

    def test_roots_at_origin_stripped(self):
        self.assert_near(Poly([0, 0, -1, 1]), 1)  # x^2 (x - 1)

    @pytest.mark.parametrize("digits", [20, 60, 110])
    def test_sqrt2_sign_change(self, digits):
        p = Poly([-2, 0, 1])  # x^2 - 2
        mid = p.smallest_positive_root(digits)
        eps = Fraction(1, 10 ** (digits + 5))
        assert p(mid - eps) < 0 < p(mid + eps)

    @pytest.mark.parametrize("p", [Poly([1, 0, 1]), Poly([1, 1]) * Poly([2, 1])],
                             ids=["x^2+1", "(x+1)(x+2)"])
    def test_no_positive_root(self, p):
        with pytest.raises(NoPositiveRoot):
            p.smallest_positive_root(self.DIGITS)


class TestSquarefreePart:
    def test_repeated_factors_removed(self):
        a, b = Poly([-1, 1]), Poly([2, 1])
        assert (a * a * b * b * b).squarefree_part() == a * b  # (x - 1)^2 (x + 2)^3

    def test_squarefree_input_unchanged(self):
        p = Poly([-2, 0, 3]) * Poly([1, 5])  # (3x^2 - 2)(5x + 1), primitive
        assert p.squarefree_part() == p


class TestPrimitive:
    def test_zero_polynomial(self):
        assert Poly([]).primitive() == Poly([])

    def test_negative_leading_coefficient(self):
        assert Poly([3, 0, -1]).primitive() == Poly([-3, 0, 1])
        assert Poly([-7]).primitive() == Poly([1])

    def test_content_removed(self):
        assert Poly([6, -4, 10]).primitive() == Poly([3, -2, 5])
        assert Poly([-6, 4, -10]).primitive() == Poly([3, -2, 5])
        assert Poly([0, 0, 12]).primitive() == Poly([0, 0, 1])

    def test_primitive_int_removes_content(self):
        # the integer multiple (2, 4) of (2/3, 4/3) has content 2
        assert primitive_int([Fraction(2, 3), Fraction(4, 3)]) == [1, 2]
        assert primitive_int([Fraction(-2, 3), Fraction(4, 3)]) == [1, -2]

    def test_already_primitive_unchanged(self):
        assert Poly([1, -8, 5, 1]).primitive() == Poly([1, -8, 5, 1])

    @given(polys, st.integers(-20, 20).filter(bool))
    def test_normal_form_of_any_multiple(self, p, k):
        f = (p * Poly([k])).primitive()
        assert f == p.primitive()
        if f:
            assert f.coeffs[-1] > 0 and gcd(*f.coeffs) == 1


class TestValuation:
    def test_values(self):
        assert Poly([]).valuation == 0
        assert Poly([5]).valuation == 0
        assert Poly([1, 0, 2]).valuation == 0
        assert Poly([0, 0, -1, 1]).valuation == 2
        assert Poly([0, 0, 0, 4]).valuation == 3

    @given(polys, st.integers(0, 5))
    def test_power_of_x_factor(self, p, v):
        shifted = Poly([0] * v + list(p.coeffs))
        assert shifted.valuation == (p.valuation + v if p else 0)


class TestPolyValues:
    """poly_values against int_horner at every point."""

    @pytest.mark.parametrize("degree", range(-1, 7))  # -1: the empty polynomial
    def test_matches_horner(self, degree):
        rng = random.Random(degree)
        for _ in range(3):
            cs = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(degree + 1)]
            if cs:
                cs[-1] = cs[-1] or 1
            for n0 in range(-20, 21):
                want = [int_horner(cs, n) for n in range(n0, n0 + 50)]
                assert list(islice(poly_values(cs, n0), 50)) == want, (cs, n0)

    def test_trailing_zeros_and_fractions(self):
        cs = [Fraction(1, 3), 0, Fraction(-5, 2), 0, 0]
        want = [int_horner(cs, n) for n in range(-4, 26)]
        assert list(islice(poly_values(cs, -4), 30)) == want
        assert list(islice(poly_values([0, 0], 7), 5)) == [0] * 5


def _mul_trunc_loop(a, b, order):
    """The double loop that mul_trunc replaced, kept as its reference."""
    out = [0] * order
    for i, ai in enumerate(a[:order]):
        if ai:
            for j, bj in enumerate(b[: order - i], i):
                if bj:
                    out[j] += ai * bj
    return out


class TestMulTrunc:
    """mul_trunc against the double loop it replaced."""

    @staticmethod
    def operand(rng, length, density, fractions):
        def entry():
            if rng.random() >= density:
                return 0
            c = rng.randint(-10 ** 9, 10 ** 9)
            return Fraction(c, rng.randint(1, 50)) if fractions else c
        return [entry() for _ in range(length)]

    @pytest.mark.parametrize("fractions", [False, True])
    @pytest.mark.parametrize("density", [0.1, 0.5, 1.0])
    def test_matches_loop(self, fractions, density):
        rng = random.Random(int(density * 10) + fractions)
        for _ in range(60):
            a = self.operand(rng, rng.randint(0, 30), density, fractions)
            b = self.operand(rng, rng.randint(0, 30), rng.choice([0.1, density]), fractions)
            for order in (0, 1, len(a), len(b), len(a) + len(b), rng.randint(1, 40)):
                got = mul_trunc(a, b, order)
                assert got == _mul_trunc_loop(a, b, order), (a, b, order)
                assert len(got) == order
                assert mul_trunc(tuple(b), tuple(a), order) == got

    def test_short_second_operand(self):
        # len(b) < order - i for every i: each slice of b ends before order,
        # and out must keep its full length
        a, b = [1, 2, 3, 4, 5, 6], [7, 0, 8]
        got = mul_trunc(a, b, 10)
        assert got == _mul_trunc_loop(a, b, 10) == [7, 14, 29, 44, 59, 74, 40, 48, 0, 0]
        # a sparse operand on either side gives the same product
        sparse = [0, 0, 5, 0, 0, 0, 0, 0]
        dense = [1, 2, 3]
        for x, y in ((sparse, dense), (dense, sparse)):
            assert mul_trunc(x, y, 12) == _mul_trunc_loop(x, y, 12)

    def test_ints_stay_ints(self):
        got = mul_trunc([3, 0, -1], (2, 5), 5)
        assert got == [6, 15, -2, -5, 0] and {type(c) for c in got} == {int}


class TestDivOneMinusQm:
    """div_one_minus_qm, per residue class (m^2 < len) or per block of m,
    against the stride loop a[i] += a[i - m]."""

    @staticmethod
    def stride_loop(a, m):
        a = list(a)
        for i in range(m, len(a)):
            a[i] += a[i - m]
        return a

    @pytest.mark.parametrize("length", [1, 2, 3, 9, 10, 24, 25, 26, 100, 143])
    def test_matches_stride_loop(self, length):
        rng = random.Random(length)
        root = int(length ** 0.5)
        for m in sorted({1, 2, root - 1, root, root + 1, length - 1, length,
                         length + 5} - {0, -1}):
            # signed entries from one digit to a few hundred bits
            a = [rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 90))
                 for _ in range(length)]
            want = self.stride_loop(a, m)
            assert div_one_minus_qm(a, m) is None
            assert a == want, (length, m)

    def test_both_paths_and_in_place(self):
        # 3^2 < 10 sums each residue class, 4^2 >= 10 adds block to block
        for m, want in ((3, [1, 2, 3, 5, 7, 9, 12, 15, 18, 22]),
                        (4, [1, 2, 3, 4, 6, 8, 10, 12, 15, 18])):
            a = list(range(1, 11))
            div_one_minus_qm(a, m)
            assert a == want == self.stride_loop(range(1, 11), m)
        for m in (1, 2, 7):
            empty = []
            div_one_minus_qm(empty, m)
            assert empty == []

    def test_squared_matches_two_divisions(self):
        # lengths 0..150 against m in 1..20 take both paths: m^2 < length
        # sums each residue class twice over, m^2 >= length adds blocks
        rng = random.Random(150)
        for length in range(151):
            for m in range(1, 21):
                a = [rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 60))
                     for _ in range(length)]
                want = list(a)
                div_one_minus_qm(want, m)
                div_one_minus_qm(want, m)
                assert div_one_minus_qm(a, m, 2) is None
                assert a == want, (length, m)


def series(coeffs):
    return TruncSeries([Fraction(c) for c in coeffs])


def _inverse_loop(a):
    """The Fraction loop that TruncSeries.inverse replaced."""
    inv0 = 1 / Fraction(a[0])
    out = [Fraction(0)] * len(a)
    out[0] = inv0
    for k in range(1, len(a)):
        s = Fraction(0)
        for i in range(1, k + 1):
            if a[i]:
                s += a[i] * out[k - i]
        out[k] = -s * inv0
    return out


unit_series = st.lists(small_ints, min_size=1, max_size=8).filter(
    lambda cs: cs[0] != 0
).map(series)
any_series = st.lists(small_ints, min_size=1, max_size=8).map(series)


class TestTruncSeries:
    def test_needs_order_one(self):
        with pytest.raises(ValueError):
            TruncSeries([])

    def test_binary_ops_keep_weakest_order(self):
        a = series([1, 2, 3, 4])
        b = series([1, 1])
        assert (a + b).order == 2
        assert (a * b).order == 2

    @given(unit_series)
    def test_inverse_round_trip(self, a):
        inv = a.inverse()
        prod = a * inv
        assert prod == series([1] + [0] * (prod.order - 1))

    def test_inverse_zero_constant(self):
        with pytest.raises(ZeroConstantTerm):
            series([0, 1]).inverse()

    @given(any_series, any_series, any_series)
    def test_mul_associative_to_common_order(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_shift(self):
        assert series([1, 2, 3]).shift(1) == series([0, 1, 2])
        assert series([1, 2]).shift(5) == series([0, 0])
        with pytest.raises(ValueError):
            series([1]).shift(-1)

    def test_derivative(self):
        assert series([5, 1, 3, 7]).derivative() == series([1, 6, 21])
        assert series([5]).derivative() == series([0])

    def test_truncate_cannot_extend(self):
        with pytest.raises(ValueError):
            series([1, 2]).truncate(3)

    def test_geometric_series(self):
        one_minus_x = TruncSeries.from_poly(Poly([1, -1]), 6)
        assert one_minus_x.inverse() == series([1] * 6)

    def test_integral_coefficients_are_ints(self):
        s = TruncSeries([Fraction(4, 2), Fraction(1, 2), 3, True])
        assert s.coeffs == (2, Fraction(1, 2), 3, 1)
        assert [type(c) for c in s.coeffs] == [int, Fraction, int, int]
        assert not s.is_integral() and TruncSeries([Fraction(6, 3), -1]).is_integral()
        assert {type(c) for c in (series([5, 1, 3]) * Fraction(1, 2) * 2).coeffs} == {int}
        assert {type(c) for c in series([1, 2]).shift(3).coeffs} == {int}
        assert {type(c) for c in TruncSeries.from_poly(Poly([1]), 4).coeffs} == {int}

    @pytest.mark.parametrize("lead", [1, -1, 2, Fraction(-3, 5)])
    def test_inverse_matches_loop(self, lead):
        rng = random.Random(str(lead))
        for _ in range(40):
            order = rng.randint(1, 25)
            cs = [lead] + [rng.choice([0, 0, rng.randint(-50, 50)]) for _ in range(order - 1)]
            inv = TruncSeries(cs).inverse()
            assert list(inv.coeffs) == _inverse_loop(cs), cs
            if lead in (1, -1):  # an integer unit inverts in ints
                assert {type(c) for c in inv.coeffs} == {int}


class TestQPochhammer:
    def test_small_products(self):
        assert q_pochhammer(0, 4) == series([1, 0, 0, 0])
        assert q_pochhammer(1, 4) == series([1, -1, 0, 0])
        assert q_pochhammer(2, 6) == series([1, -1, -1, 1, 0, 0])

    def test_matches_explicit_product(self):
        order = 30
        expected = series([1] + [0] * (order - 1))
        for k in range(1, 6):
            factor = [0] * order
            factor[0] = 1
            factor[k] = -1
            expected = expected * series(factor)
        assert q_pochhammer(5, order) == expected

    def test_euler_pentagonal_tail(self):
        # For n >= order - 1 the truncation stabilizes to prod (1 - q^k);
        # its coefficients are the pentagonal-number signs.
        order = 26
        stable = q_pochhammer(order, order)
        assert stable == q_pochhammer(order + 5, order)
        signs = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1}
        for idx, c in enumerate(stable.coeffs):
            assert c == signs.get(idx, 0)

    def test_negative_n(self):
        with pytest.raises(ValueError):
            q_pochhammer(-1, 4)

    def test_euler_terms_are_the_product(self):
        stable = q_pochhammer(300, 300).coeffs
        for order in range(301):
            dense = [0] * order
            for g, c in q_infinity_terms(order):
                dense[g] = c
            assert dense == list(stable[:order]), order

    def test_jacobi_cube_identity(self):
        # (q;q)_inf^3 = sum_{k>=0} (-1)^k (2k + 1) q^(k(k+1)/2), below q^300
        # and so below every smaller order
        euler = [int(c) for c in q_pochhammer(300, 300).coeffs]
        cube = mul_trunc(euler, mul_trunc(euler, euler, 300), 300)
        jacobi = [0] * 300
        k = 0
        while k * (k + 1) // 2 < 300:
            jacobi[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
            k += 1
        assert cube == jacobi

    def test_cube_division_inverts_the_product(self):
        euler = [int(c) for c in q_pochhammer(200, 200).coeffs]
        cube = mul_trunc(euler, mul_trunc(euler, euler, 200), 200)
        for order in range(1, 201):
            one = [1] + [0] * (order - 1)
            quotient = list(one)
            assert div_q_infinity_cubed(quotient) is None
            assert mul_trunc(quotient, cube, order) == one, order

    def test_cube_division_of_big_signed_entries(self):
        # the quotient times the cube gives back the dividend, in place
        rng = random.Random(3)
        euler = [int(c) for c in q_pochhammer(120, 120).coeffs]
        cube = mul_trunc(euler, mul_trunc(euler, euler, 120), 120)
        for length in (0, 1, 2, 3, 4, 7, 11, 120):
            a = [rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 90))
                 for _ in range(length)]
            quotient = list(a)
            div_q_infinity_cubed(quotient)
            assert mul_trunc(quotient, cube, length) == a, length

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one(self, order):
        with pytest.raises(ValueError, match="order >= 1"):
            q_pochhammer(2, order)
