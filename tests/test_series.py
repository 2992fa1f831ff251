"""Exact-arithmetic tests for polynomials, truncated series and (q)_n."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqlab import Poly, Sequence, TruncSeries, q_pochhammer
from seqlab.errors import NonIntegral, ZeroConstantTerm
from seqlab.series import div_q_infinity, int_horner, mul_trunc

small_ints = st.integers(min_value=-9, max_value=9)
polys = st.lists(small_ints, min_size=0, max_size=6).map(Poly)
points = st.integers(min_value=-5, max_value=5).map(Fraction)


class TestPoly:
    def test_trailing_zeros_dropped(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])
        assert Poly([0, 0]) == Poly([])

    def test_degree_and_zero(self):
        assert Poly([]).is_zero()
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
        if p.is_zero() or q.is_zero():
            assert (p * q).is_zero()
        else:
            assert (p * q).degree == p.degree + q.degree

    @given(polys, polys, polys)
    def test_derivative_rules(self, p, q, r):
        assert (p + q).derivative() == p.derivative() + q.derivative()
        prod_rule = p.derivative() * q + p * q.derivative()
        assert (p * q).derivative() == prod_rule
        del r

    @given(polys, small_ints, points)
    def test_compose_linear(self, p, b, x):
        assert p.compose_linear(b)(x) == p(x + b)

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


def series(coeffs):
    return TruncSeries([Fraction(c) for c in coeffs])


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

    @given(any_series, polys)
    def test_mul_poly_matches_series_mul(self, a, p):
        via_series = a * TruncSeries.from_poly(p, a.order)
        assert a.mul_poly(p) == via_series

    def test_geometric_series(self):
        one_minus_x = TruncSeries.from_poly(Poly([1, -1]), 6)
        assert one_minus_x.inverse() == series([1] * 6)


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

    def test_pentagonal_division_inverts_the_product(self):
        for order in range(1, 201):
            one = [1] + [0] * (order - 1)
            quotient = list(one)
            div_q_infinity(quotient)
            product = [int(c) for c in q_pochhammer(order, order).coeffs]
            assert mul_trunc(quotient, product, order) == one, order

    @pytest.mark.parametrize("order", [0, -3])
    def test_order_below_one(self, order):
        with pytest.raises(ValueError, match="order >= 1"):
            q_pochhammer(2, order)
