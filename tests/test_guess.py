"""Exact guessing: integer nullspaces, recurrences, ODEs, algebraic equations."""

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import (
    AlgEq,
    LinODE,
    Poly,
    PRecurrence,
    Sequence,
    TruncSeries,
    algeq_residual,
    expand_algebraic,
    expand_prec,
    expand_rational,
    guess_algeq,
    guess_prec,
    integer_nullspace,
    ode_residual,
    prec_residual,
    prec_to_ode,
)
from seqlab import guess
from seqlab.errors import InconsistentInit, InsufficientTerms
from seqlab.series import int_horner
from conftest import ASCENT_INIT, ASCENT_REC_LISTS, BRANCH_SHIFT_NUM, CATALAN
from test_acceptance import _branch_series

from math import gcd


class TestIntegerNullspace:
    def test_planted_kernel(self):
        # rows orthogonal to (1, -2, 1)
        rows = [[1, 1, 1], [0, 1, 2], [3, 4, 5]]
        basis = integer_nullspace(rows, 3)
        assert basis == [[1, -2, 1]]

    def test_full_rank_empty(self):
        assert integer_nullspace([[1, 0], [0, 1]], 2) == []

    def test_zero_matrix(self):
        basis = integer_nullspace([[0, 0]], 2)
        assert len(basis) == 2

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-30, max_value=30), min_size=4,
                     max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_exact_and_primitive(self, rows):
        basis = integer_nullspace(rows, 4)
        for v in basis:
            assert any(v), "nullspace vectors must be nonzero"
            assert all(
                sum(r[i] * v[i] for i in range(4)) == 0 for r in rows
            )
            g = 0
            for c in v:
                g = gcd(g, abs(c))
            assert g == 1

    @settings(deadline=None, max_examples=40)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3,
                     max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    def test_dimension_matches_rank(self, rows):
        from fractions import Fraction

        # independent rank computation by rational elimination
        mat = [[Fraction(c) for c in r] for r in rows]
        rank, col = 0, 0
        while rank < len(mat) and col < 3:
            piv = next(
                (i for i in range(rank, len(mat)) if mat[i][col]), None
            )
            if piv is None:
                col += 1
                continue
            mat[rank], mat[piv] = mat[piv], mat[rank]
            for i in range(len(mat)):
                if i != rank and mat[i][col]:
                    f = mat[i][col] / mat[rank][col]
                    mat[i] = [
                        a - f * b for a, b in zip(mat[i], mat[rank])
                    ]
            rank += 1
            col += 1
        assert len(integer_nullspace(rows, 3)) == 3 - rank


class TestModSpan:
    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=5,
                     max_size=5),
            min_size=1,
            max_size=6,
        )
    )
    def test_nested_columns_track_exact_rank(self, rows):
        """Adding the columns one at a time keeps the rank of every prefix;
        the minors here are far below the prime, so rank mod p is exact."""
        span = guess._ModSpan(guess._RANK_PRIME)
        for c in range(5):
            span.add(c, [r[c] for r in rows])
            prefix = [r[: c + 1] for r in rows]
            assert len(span.basis) == c + 1 - len(integer_nullspace(prefix, c + 1))

    def test_false_modular_positive_costs_one_exact_solve(self, monkeypatch):
        """[[3, 0], [0, 1]] has full rank, but mod 3 its first column
        vanishes: the shape is not skipped, and the exact solve rejects
        it.  With the real prime no row is built."""
        columns = {0: [3, 0], 1: [0, 1]}
        built = []

        def column(rows, j, t):
            return built.append(j) or columns[j]

        def model(polys):
            raise AssertionError("a full-rank shape has no candidate")

        def search():
            built.clear()  # the one shape (1, 0): unknowns (0, 0), (1, 0), two rows
            return guess._search(2, range(1, 2), range(1), lambda f: 2, column, model, 0,
                                 "shape")

        assert search() is None and built == [0, 1]
        monkeypatch.setattr(guess, "_RANK_PRIME", 3)
        assert search() is None and built == [0, 1, 0, 1]
        span = guess._ModSpan(3)
        for key, col in columns.items():
            span.add(key, col)
        assert len(span.basis) == 1

    @pytest.mark.parametrize("p", [3, (1 << 61) - 1])
    def test_matches_list_span(self, p):
        """Seeded families of wide, zero, dependent and shifted columns:
        the packed span keeps the list span's pivots, basis vectors,
        multipliers, inverses, dependent columns and relations."""
        rng = random.Random(20261020 + p.bit_length())
        for _ in range(60):
            nrows = rng.randint(1, 24)
            columns = []
            for _ in range(rng.randint(1, 30)):
                kind = rng.random()
                if kind < 0.1:
                    col = [0] * nrows
                elif kind < 0.3 and columns:
                    base = rng.sample(columns, min(3, len(columns)))
                    factors = [rng.randint(-10 ** 30, 10 ** 30) for _ in base]
                    col = [sum(f * c[i] for f, c in zip(factors, base))
                           for i in range(nrows)]
                elif kind < 0.5 and columns:  # like the x^i y^j columns
                    shift = rng.randint(1, nrows)
                    col = [0] * shift + rng.choice(columns)[: nrows - shift]
                else:
                    big = 10 ** rng.choice((1, 18, 200))
                    col = [rng.randint(-big, big) for _ in range(nrows)]
                columns.append(col)
            self.assert_same_span(p, columns)

    @pytest.mark.parametrize("p", [3, (1 << 61) - 1])
    def test_slot_bound_stress(self, p):
        """Every nonzero entry is p - 1 and every column is independent, so
        each step adds the largest multiple, (p - 1) * p, to the slots
        below the column's last nonzero row, and the last column meets one
        step per earlier row."""
        for nrows in (1, 7, 8, 64, 65):
            columns = [[p - 1] * (j + 1) + [0] * (nrows - j - 1) for j in range(nrows)]
            span = self.assert_same_span(p, columns)
            assert len(span.basis) == nrows

    @pytest.mark.parametrize("p", [(1 << 61) + 1, 2, 1, 0])
    def test_needs_a_mersenne_number(self, p):
        with pytest.raises(ValueError, match="Mersenne"):
            guess._ModSpan(p)

    @staticmethod
    def assert_same_span(p, columns):
        packed, listed = guess._ModSpan(p), _ListSpan(p)
        for key, col in enumerate(columns):
            packed.add(key, col)
            listed.add(key, col)
        nrows, mask = len(columns[0]), (1 << packed.width) - 1
        assert [(piv, [p - (neg >> packed.width * i & mask) for i in range(piv, nrows)],
                 key, mults, inv)
                for piv, neg, key, mults, inv in packed.basis] == listed.basis
        assert all(neg >> packed.width * i & mask == p
                   for piv, neg, *_ in packed.basis for i in range(piv))
        assert packed.dependent == listed.dependent
        assert packed.seen == listed.seen
        for key, mults in listed.dependent:
            assert packed.relation(key, mults) == listed.relation(key, mults)
        return packed


class _ListSpan(guess._ModSpan):
    """The reference span: each basis vector a list of residues from its
    pivot on, and every elimination step a pass over the row."""

    def __init__(self, p: int):
        self.p, self.basis, self.dependent, self.seen = p, [], [], set()

    def add(self, key, col):
        p = self.p
        self.seen.add(key)
        v = list(col)
        mults = []
        for piv, b, _, _, _ in self.basis:
            f = v[piv] % p
            mults.append(f)
            if f:
                v[piv:] = [x - f * y for x, y in zip(v[piv:], b)]
        v = [e % p for e in v]
        piv = next((i for i, e in enumerate(v) if e), None)
        if piv is None:
            self.dependent.append((key, mults))
        else:
            inv = pow(v[piv], -1, p)
            self.basis.append((piv, [e * inv % p for e in v[piv:]], key, mults, inv))


@dataclass(frozen=True)
class _Vector:
    """A bare model for ``_search``: one polynomial per unknown."""

    coeffs: tuple


class TestLift:
    """A shape of nullity 1 mod p takes its null vector from the span; every
    other rank-deficient shape, and every lift that fails reconstruction or
    the exact check, falls back to ``integer_nullspace``.  Either way
    ``_search`` returns the same result."""

    @staticmethod
    def system(rng, kind):
        """Columns of a seeded integer system and the nested shapes (column
        counts) to search, one family sharing all the rows: family 0, whose
        shape of degree e holds the first e + 1 columns."""
        k = rng.randint(3, 8)
        nrows = k + rng.randint(1, 4)
        big = 1 << 60
        if kind == "full":
            return [[rng.randint(-big, big) for _ in range(nrows)] for _ in range(k)], [k]
        if kind == "nullity2":
            base = [[rng.randint(-big, big) for _ in range(nrows)] for _ in range(k - 2)]
            combos = [[rng.randint(-9, 9) for _ in base] for _ in range(2)]
            return base + [[sum(a * c[r] for a, c in zip(combo, base)) for r in range(nrows)]
                           for combo in combos], [k]
        # rows orthogonal to a planted x: x_last * y_j for j < last, and
        # -sum_j x_j y_j last, so x is the only relation of the k columns
        x = [rng.randint(-20, 20) for _ in range(k - 1)] + [rng.choice((-3, -1, 1, 2, 7))]
        if kind == "big":  # its ratio to x_last exceeds sqrt(p / 2)
            x[rng.randrange(k - 1)] = rng.choice((-1, 1)) * rng.randint(1 << 36, 1 << 40)
        rows = []
        for _ in range(nrows):
            y = [rng.randint(-big, big) for _ in range(k - 1)]
            rows.append([x[-1] * e for e in y] + [-sum(a * e for a, e in zip(x, y))])
        return [list(c) for c in zip(*rows)], range(1, k + 1)

    @pytest.mark.parametrize("kind", ["planted", "big", "nullity2", "full"])
    def test_lift_matches_exact_solve(self, kind, monkeypatch):
        solves = []
        exact = guess.integer_nullspace
        monkeypatch.setattr(guess, "integer_nullspace",
                            lambda rows, k: solves.append(k) or exact(rows, k))
        rng = random.Random(20261019)
        for _ in range(30):
            columns, shapes = self.system(rng, kind)

            def search():
                nrows = len(columns[0])
                return guess._search(
                    nrows, range(1), range(shapes[0] - 1, shapes[-1]), lambda f: nrows,
                    lambda rows, j, t: columns[t], _Vector, 0, "shape")

            solves.clear()
            lifted = search()
            fell_back = bool(solves)
            with monkeypatch.context() as m:
                m.setattr(guess, "_lift", lambda *args: None)
                assert search() == lifted
            assert fell_back == (kind in ("big", "nullity2"))
            assert (lifted is None) == (kind == "full")

    def test_paper_guesses_need_no_exact_solve(self, monkeypatch, b202062,
                                               ascent_rec, ascent_cubic):
        branch = _branch_series(expand_prec(ascent_rec, Sequence(0, ASCENT_INIT), 64), 64)

        def refuse(rows, ncols):
            raise AssertionError("integer_nullspace reached")

        monkeypatch.setattr(guess, "integer_nullspace", refuse)
        for size in range(24, 29):
            assert guess_prec(b202062.head(size)) == ascent_rec
        assert guess_algeq(branch, dxmax=12, dymax=3) == ascent_cubic

    @pytest.mark.parametrize("p", [19, 73, 101, 251])
    def test_rational_reconstruction_exhaustive(self, p):
        """Every residue maps to the unique n/d with |n|, d < sqrt(p/2)
        that it equals mod p, or to None when there is none."""
        bound = next(b for b in range(p, 0, -1) if 2 * b * b < p)
        small = {}
        for d in range(1, bound + 1):
            for n in range(-bound, bound + 1):
                small.setdefault(n * pow(d, -1, p) % p, Fraction(n, d))
        for a in range(p):
            assert guess._rational(a, p) == small.get(a)


class TestPRecurrenceNormalForm:
    def test_scaling_and_sign_collapse(self):
        a = PRecurrence.from_lists([[2, 4], [-6]])
        b = PRecurrence.from_lists([[-1, -2], [3]])
        assert a == b
        assert a.coeffs[-1].coeffs[-1] > 0
        g = 0
        for p in a.coeffs:
            for c in p.coeffs:
                g = gcd(g, abs(c))
        assert g == 1

    def test_order_degree_str(self):
        rec = PRecurrence.from_lists(ASCENT_REC_LISTS)
        assert rec.order == 5
        assert rec.degree == 2
        assert rec.coeff_lists() == ASCENT_REC_LISTS
        assert str(rec).startswith("(2*n^2 + n)*u(n)")
        assert str(rec).endswith("= 0")

    def test_too_short(self):
        with pytest.raises(ValueError):
            PRecurrence((Poly([1]),))


def _reference_normal_form(polys):
    """The normal form as first written for the three model types: divide
    out the content, make the top polynomial's leading coefficient
    positive."""
    g = 0
    for p in polys:
        for c in p.coeffs:
            g = gcd(g, abs(c))
    if polys[-1].coeffs[-1] < 0:
        g = -g
    return tuple(Poly([c // g for c in p.coeffs]) for p in polys)


_polys = st.lists(st.integers(-50, 50), max_size=4).map(Poly)


class TestNormalForm:
    @settings(deadline=None, max_examples=200)
    @given(st.lists(_polys, max_size=4), _polys.filter(bool),
           st.integers(-12, 12).filter(bool))
    def test_matches_reference(self, lower, top, scale):
        # a common factor `scale` gives every polynomial tuple a content to divide out
        polys = tuple(p * Poly([scale]) for p in (*lower, top))
        want = _reference_normal_form(polys)
        assert LinODE(polys).coeffs == want
        if len(polys) >= 2:
            assert PRecurrence(polys).coeffs == want
            if polys[0]:
                assert AlgEq(polys).coeffs == want
            else:
                with pytest.raises(ValueError):
                    AlgEq(polys)

    def test_zero_top_rejected(self):
        for model in (PRecurrence, AlgEq, LinODE):
            with pytest.raises(ValueError, match="leading polynomial must be nonzero"):
                model((Poly([1]), Poly([])))


class TestGuessPRec:
    def test_geometric(self):
        s = Sequence(0, tuple(3 ** n for n in range(12)))
        rec = guess_prec(s, rmax=2, dmax=1)
        assert rec == PRecurrence.from_lists([[-3], [1]])

    def test_catalan(self):
        s = Sequence(0, CATALAN)
        rec = guess_prec(s, rmax=3, dmax=2)
        assert rec == PRecurrence.from_lists([[-2, -4], [2, 1]])

    def test_respects_offset(self):
        # factorials indexed from 1: (n+1) u(n) - u(n+1) = 0 at offset 1
        import math

        s = Sequence(1, tuple(math.factorial(n) for n in range(1, 13)))
        rec = guess_prec(s, rmax=2, dmax=1)
        assert rec == PRecurrence.from_lists([[1, 1], [-1]])
        assert prec_residual(rec, s) == len(s) - rec.order

    def test_none_for_patternless_terms(self):
        primes = Sequence(0, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37))
        assert guess_prec(primes, rmax=2, dmax=1) is None

    def test_insufficient_terms(self):
        # the k = 2 shape (1, 0) has one window for 2 terms and two for 3
        with pytest.raises(InsufficientTerms, match="2 terms are too few .* margin 0"):
            guess_prec(Sequence(0, (1, 2)), rmax=5, dmax=4)
        assert guess_prec(Sequence(0, (1, 2, 3)), rmax=5, dmax=4) is None

    @pytest.mark.parametrize("grid, error", [
        (dict(rmax=0), "need rmax >= 1"),
        (dict(rmax=-2), "need rmax >= 1"),
        (dict(dmax=-1), "need dmax >= 0"),
    ])
    def test_empty_grid_rejected(self, grid, error):
        with pytest.raises(ValueError, match=error):
            guess_prec(Sequence(0, CATALAN), **grid)

    def test_margin_guards_against_overfitting(self):
        # every attempted shape is solved over all of its windows, and 14
        # terms overdetermine each one, so random terms fit no shape.
        rng = random.Random(7)
        s = Sequence(0, tuple(rng.randrange(1, 10 ** 6) for _ in range(14)))
        assert guess_prec(s, rmax=3, dmax=1) is None

    def test_planted_recurrences_recovered(self):
        rng = random.Random(20260814)
        for trial in range(20):
            order = rng.choice((1, 2))
            deg = rng.choice((0, 1))
            polys = []
            for _ in range(order):
                polys.append(
                    [rng.randint(-3, 3) for _ in range(deg + 1)]
                )
            polys.append([rng.randint(1, 3)])  # constant top coeff: no stalls
            rec = PRecurrence.from_lists(polys)
            init = Sequence(0, tuple(rng.randint(1, 5) for _ in range(order)))
            try:
                data = expand_prec(rec, init, 30)
            except Exception:
                continue  # non-integral or inconsistent plant; skip
            if len(set(data.terms)) < 3:
                continue  # degenerate plant (collapsed to near-constant)
            guessed = guess_prec(data, rmax=3, dmax=2)
            assert guessed is not None, (trial, polys, init)
            # the guess annihilates every window, including six more terms
            # of the plant it never saw
            more = expand_prec(rec, init, 36)
            assert prec_residual(guessed, more) == len(more) - guessed.order


class TestPRecResidual:
    def test_residual_counts_windows(self, ascent_rec, b202062):
        assert prec_residual(ascent_rec, b202062) == len(b202062) - 5

    def test_residual_stops_at_first_failure(self, ascent_rec, b202062):
        bad = Sequence(0, b202062.terms[:20] + (b202062.terms[20] + 1,))
        assert prec_residual(ascent_rec, bad) < len(bad) - 5


class TestPrecToOde:
    def test_geometric_ode(self):
        rec = PRecurrence.from_lists([[-2], [1]])
        ode = prec_to_ode(rec, Sequence(0, (1,)))
        # f = 1/(1-2x) satisfies (1-2x) f' - 2 f = 0
        assert ode == LinODE((Poly([2]), Poly([-1, 2])))

    def test_ode_annihilates_expansion(self, ascent_rec, ascent_ode, u2000):
        assert ode_residual(ascent_ode, u2000) is None
        built = prec_to_ode(ascent_rec, u2000.head(5))
        assert built == ascent_ode
        assert all(type(c) is int for p in built.coeffs for c in p.coeffs)
        assert ode_residual(built, u2000) is None

    def test_residual_detects_corruption(self, ascent_ode, u2000):
        # corrupt an interior term; the tail stays intact so the window
        # of checkable series coefficients still covers the damage
        terms = list(u2000.terms[:600])
        terms[300] += 1
        r = ode_residual(ascent_ode, Sequence(0, terms))
        assert isinstance(r, int)

    def test_init_shorter_than_order(self):
        rec = PRecurrence.from_lists([[1], [0, 1], [1, 1]])
        with pytest.raises(InconsistentInit, match="need at least 2 initial terms, got 1"):
            prec_to_ode(rec, Sequence(0, (1,)))

    def test_init_violates_recurrence(self):
        rec = PRecurrence.from_lists([[-2], [1]])
        with pytest.raises(InconsistentInit, match=r"at n=4$"):
            prec_to_ode(rec, Sequence(0, (1, 2, 4, 8, 16, 33)))

    def test_factorial_ode(self):
        # f = sum n! x^n satisfies x^2 f' + (x - 1) f + 1 = 0; the
        # homogeneous annihilator from the recurrence has order 2.
        rec = PRecurrence.from_lists([[1, 1], [-1]])
        ode = prec_to_ode(rec, Sequence(0, (1, 1)))
        s = Sequence(0, tuple(_factorials(30)))
        assert ode_residual(ode, s) is None

    # sha256 of repr([(str(ode), ode.coeff_lists()), ...]) over the cases
    # below, recorded before prec_to_ode moved to integer accumulators
    PINNED_DIGEST = "65975435649097adc7db50436ffde3c4bb3cbc3325b7e633631743578d388702"

    @staticmethod
    def cases(b202062, ascent_rec):
        fib = expand_rational(Poly([1]), Poly([1, -1, -1]), 30).to_sequence()
        motzkin = expand_algebraic(AlgEq.from_lists([[1], [-1, 1], [0, 0, 1]]),
                                   (1,), 30)
        central = expand_algebraic(AlgEq.from_lists([[1], [], [-1, 4]]), (1,), 24)
        factorials = Sequence(0, tuple(_factorials(14)))
        rec = PRecurrence.from_lists
        yield ascent_rec, b202062.head(24)
        yield ascent_rec, b202062.head(5)
        yield rec([[-1], [-1], [1]]), fib
        yield rec([[-1], [-1], [1]]), Sequence(0, (0, 0, 0, 0))  # R(x) = 0
        yield rec([[-2, -4], [2, 1]]), Sequence(0, CATALAN)
        yield rec([[-3, -3], [-5, -2], [4, 1]]), motzkin
        yield rec([[-2, -4], [1, 1]]), central
        yield rec([[1, 1], [-1]]), factorials
        yield rec([[-2], [1]]), Sequence(0, (1, 2, 4, 8))
        yield rec([[-1], [1, 1]]), Sequence(0, (1,))  # exp(x): R(x) = 0
        yield rec([[0, 1, 2], [-3, 0, 1], [5, -1]]), Sequence(0, (2, 7))

    def test_outputs_pinned(self, b202062, ascent_rec):
        outcomes = []
        for rec, init in self.cases(b202062, ascent_rec):
            ode = prec_to_ode(rec, init)
            outcomes.append((str(ode), ode.coeff_lists()))
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == self.PINNED_DIGEST

    @pytest.mark.parametrize("pos", [0, 1, 2, 11, 57, 300, 596, 597, 598, 599])
    def test_matches_fraction_oracle(self, ascent_ode, u2000, pos):
        terms = list(u2000.terms[:600])
        terms[pos] += 1
        s = Sequence(0, terms)
        want = _fraction_ode_residual(ascent_ode, s)
        assert ode_residual(ascent_ode, s) == want
        assert _coefficient_pass_residual(ascent_ode, s) == want
        # the residual is checkable through x^596; Q_3 = x^2 * ... first
        # sees term 598 at x^597, so the last two terms go unseen
        assert (want is None) == (pos >= 598)


    def test_matches_stirling_reference(self):
        """The forward-difference basis change equals the Stirling-table one
        it replaced, on seeded random recurrences and initial terms."""
        rng = random.Random(5311)
        for _ in range(1000):
            order, degree = rng.randint(1, 5), rng.randint(0, 6)
            lists = [[rng.randint(-9, 9) for _ in range(rng.randint(0, degree + 1))]
                     for _ in range(order + 1)]
            lists[-1] = [rng.randint(-9, 9) for _ in range(degree)] + [rng.choice([-3, -1, 1, 2])]
            rec = PRecurrence.from_lists(lists)
            init = Sequence(0, tuple(rng.randint(-50, 50) for _ in range(order)))
            want = _stirling_prec_to_ode(rec, init).coeff_lists()
            assert prec_to_ode(rec, init).coeff_lists() == want, (lists, init)


def _stirling2(dmax):
    """Stirling numbers of the second kind S2(t, i) for t <= dmax."""
    table = [[1]]
    for t in range(1, dmax + 1):
        prev = table[-1] + [0]
        table.append([0] + [i * prev[i] + prev[i - 1] for i in range(1, t + 1)])
    return table


def _compose_linear(p, shift):
    """p(t + shift) expanded in t."""
    out = Poly([])
    for c in reversed(p.coeffs):
        out = out * Poly([shift, 1]) + Poly([c])
    return out


def _stirling_prec_to_ode(rec, init):
    """prec_to_ode by expanding each p_j(theta - j) in powers of theta and
    rewriting theta^t = sum_i S2(t, i) x^i D^i."""
    r, d = rec.order, rec.degree
    s2 = _stirling2(d)
    q_acc = [[0] * (r + d + 1) for _ in range(d + 1)]
    for j, p in enumerate(rec.coeffs):
        for t, a_t in enumerate(_compose_linear(p, -j).coeffs):
            for i in range(t + 1):
                q_acc[i][r - j + i] += a_t * s2[t][i]
    q_ops = [Poly(acc) for acc in q_acc]
    r_acc = [0] * r
    for j, cs in enumerate(rec.coeff_lists()):
        for m in range(j):
            r_acc[r - j + m] += int_horner(cs, m - j) * init.terms[m]
    r_poly = Poly(r_acc)
    if not r_poly:
        return LinODE(tuple(q_ops))
    r_deriv = r_poly.derivative()
    padded = [Poly([])] + q_ops + [Poly([])]
    return LinODE(tuple(
        r_poly * (padded[i] + padded[i + 1].derivative()) - r_deriv * padded[i + 1]
        for i in range(d + 2)))


def _fraction_ode_residual(ode, terms):
    """First nonzero index of sum_i Q_i f^(i) over exact rational series."""
    out_order = len(terms) - ode.order
    f = TruncSeries([Fraction(t) for t in terms.terms])
    acc = TruncSeries((Fraction(0),) * out_order)
    for i, q in enumerate(ode.coeffs):
        if i:
            f = f.derivative()
        acc = acc + (f * TruncSeries.from_poly(q, f.order)).truncate(out_order)
    return next((i for i, c in enumerate(acc.coeffs) if c), None)


def _coefficient_pass_residual(ode, terms):
    """The ode_residual loop before shift grouping: one pass over the
    series per nonzero coefficient of every Q_i, kept as its reference."""
    out_order = len(terms) - ode.order
    acc = [0] * out_order
    g = list(terms.terms)
    for i, q in enumerate(ode.coeff_lists()):
        if i:
            g = [j * c for j, c in enumerate(g)][1:]
        for e, c in enumerate(q[:out_order]):
            if c:
                acc[e:] = [a + c * b for a, b in zip(acc[e:], g)]
    return next((i for i, c in enumerate(acc) if c), None)


def _window_loop_residual(rec, terms):
    """The prec_residual loop before poly_values, kept as its reference."""
    r = rec.order
    lists = rec.coeff_lists()
    count = 0
    for w in range(len(terms) - r):
        n = terms.offset + w
        if sum(int_horner(lists[j], n) * terms.terms[w + j] for j in range(r + 1)):
            break
        count += 1
    return count


class TestResidualKernels:
    """ode_residual and prec_residual against the loops they replaced (the
    fixture's perturbed terms: TestPrecToOde.test_matches_fraction_oracle)."""

    def test_ode_residual_perturbed_coefficient(self, ascent_ode, u2000):
        s = u2000.head(600)
        lists = ascent_ode.coeff_lists()
        rng = random.Random(600)
        spots = [(i, e) for i, q in enumerate(lists) for e in range(len(q))]
        for i, e in rng.sample(spots, 12) + [(0, 0), (3, len(lists[3]) - 1)]:
            changed = [list(q) for q in lists]
            changed[i][e] += 1
            ode = LinODE.from_lists(changed)
            want = _coefficient_pass_residual(ode, s)
            assert want is not None, (i, e)
            assert ode_residual(ode, s) == want, (i, e)

    def test_ode_residual_random(self):
        rng = random.Random(7)
        for _ in range(200):
            m, d = rng.randint(0, 3), rng.randint(0, 6)
            lists = [[rng.choice([0, rng.randint(-9, 9)]) for _ in range(d + 1)]
                     for _ in range(m + 1)]
            lists[-1][-1] = lists[-1][-1] or 1
            ode = LinODE.from_lists(lists)
            length = ode.order + ode.degree + 1 + rng.randint(0, 12)
            s = Sequence(0, [rng.randint(-99, 99) for _ in range(length)])
            assert ode_residual(ode, s) == _coefficient_pass_residual(ode, s), (lists, s)

    def test_prec_residual_random(self):
        rng = random.Random(11)
        for _ in range(200):
            r, d = rng.randint(1, 3), rng.randint(0, 3)
            rec = PRecurrence.from_lists(
                [[rng.randint(-5, 5) for _ in range(d + 1)] for _ in range(r)] + [[1]])
            init = Sequence(rng.randint(-4, 4), [rng.randint(-9, 9) for _ in range(r)])
            terms = list(expand_prec(rec, init, r + rng.randint(0, 15)).terms)
            if rng.random() < 0.7:
                terms[rng.randrange(len(terms))] += 1
            s = Sequence(init.offset, terms[: rng.randint(0, len(terms))])
            assert prec_residual(rec, s) == _window_loop_residual(rec, s), (rec, s)


def _factorials(n):
    out, f = [], 1
    for k in range(n):
        out.append(f)
        f *= k + 1
    return out


class TestAlgEq:
    def test_normal_form(self):
        a = AlgEq.from_lists([[2], [-4, 2]])
        b = AlgEq.from_lists([[-1], [2, -1]])
        assert a == b
        assert a.degree == 1 and a.degree_y == 1

    def test_rejects_y_divisible(self):
        with pytest.raises(ValueError):
            AlgEq.from_lists([[], [1], [2]])

    def test_grid_round_trip(self, ascent_cubic):
        assert AlgEq.from_lists(ascent_cubic.grid()) == ascent_cubic
        assert ascent_cubic.degree == 12
        assert ascent_cubic.degree_y == 3

    def test_str(self):
        eq = AlgEq.from_lists([[1], [-1], [0, 1]])
        assert str(eq) == "(1) + (-1)*y + (x)*y^2 = 0"


class TestModelChecks:
    """The argument checks of the models and of their residuals."""

    ODE = LinODE((Poly([2]), Poly([-1, 2])))  # (2x - 1) f' + 2 f = 0, f = 1/(1 - 2x)

    def test_ode_residual_needs_order_plus_degree_plus_one_terms(self):
        with pytest.raises(InsufficientTerms, match=r"order \+ degree \+ 1 = 3 terms"):
            ode_residual(self.ODE, Sequence(0, (1, 2)))
        assert ode_residual(self.ODE, Sequence(0, (1, 2, 4))) is None

    def test_offset_zero_required(self):
        shifted = Sequence(1, (1, 2, 4, 8))
        with pytest.raises(ValueError, match="^generating-function conversion needs an "
                                             "offset-0 sequence$"):
            prec_to_ode(PRecurrence.from_lists([[-2], [1]]), shifted)
        with pytest.raises(ValueError, match="^ODE residual needs an offset-0 sequence$"):
            ode_residual(self.ODE, shifted)
        with pytest.raises(ValueError, match="^algebraic residual needs an offset-0 sequence$"):
            algeq_residual(AlgEq.from_lists([[-1], [1, -1]]), shifted)

    def test_degenerate_models_rejected(self):
        with pytest.raises(ValueError, match="^equation must have y-degree >= 1$"):
            AlgEq.from_lists([[1, 2]])
        with pytest.raises(ValueError, match="^ODE needs at least one coefficient$"):
            LinODE(())


class TestGuessAlgEq:
    def test_geometric(self):
        s = Sequence(0, (1,) * 16)
        eq = guess_algeq(s, dxmax=2, dymax=1)
        assert eq == AlgEq.from_lists([[-1], [1, -1]])

    def test_catalan(self):
        eq = guess_algeq(Sequence(0, CATALAN), dxmax=2, dymax=2)
        assert eq == AlgEq.from_lists([[1], [-1], [0, 1]])
        assert algeq_residual(eq, Sequence(0, CATALAN)) is None

    def test_central_binomial(self):
        s = expand_algebraic(AlgEq.from_lists([[1], [], [-1, 4]]), (1,), 18)
        eq = guess_algeq(s, dxmax=2, dymax=2)
        assert eq == AlgEq.from_lists([[1], [], [-1, 4]])

    def test_none_for_non_algebraic(self, b202062):
        s = b202062.head(20)
        assert guess_algeq(s, dxmax=3, dymax=2) is None

    def test_residual_detects_corruption(self):
        eq = AlgEq.from_lists([[1], [-1], [0, 1]])
        bad = Sequence(0, CATALAN[:10] + (CATALAN[10] + 1,) + CATALAN[11:])
        r = algeq_residual(eq, bad)
        assert isinstance(r, int)

    def test_insufficient(self):
        with pytest.raises(InsufficientTerms):
            guess_algeq(Sequence(0, (1, 1)), dxmax=5, dymax=3)

    @pytest.mark.parametrize("grid, error", [
        (dict(dxmax=-1), "need dxmax >= 0"),
        (dict(dymax=0), "need dymax >= 1"),
        (dict(dymax=-1), "need dymax >= 1"),
    ])
    def test_empty_grid_rejected(self, grid, error):
        with pytest.raises(ValueError, match=error):
            guess_algeq(Sequence(0, CATALAN), **grid)


class TestModelsFitEveryTerm:
    """Each shape is solved once over all of its equations, so at every
    margin a returned recurrence annihilates every supplied window and a
    returned equation every supplied coefficient.  Inputs are seeded noise,
    planted models, and planted models with one term corrupted."""

    KINDS = st.sampled_from(("noise", "planted", "corrupted"))

    @staticmethod
    def terms(rng, kind, plant):
        size = rng.randint(6, 20)
        if kind == "noise":
            return Sequence(0, tuple(rng.randrange(1, 10 ** 4) for _ in range(size)))
        terms = list(plant(size))
        if kind == "corrupted":
            terms[rng.randrange(size)] += rng.randint(1, 5)
        return Sequence(0, tuple(terms))

    @staticmethod
    def guessed(guesser, seq, **grid):
        try:
            return guesser(seq, **grid)
        except InsufficientTerms:
            return None

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 32 - 1), KINDS, st.integers(0, 4))
    def test_recurrences(self, seed, kind, margin):
        rng = random.Random(seed)
        order, deg = rng.randint(1, 2), rng.randint(0, 1)
        # a monic top coefficient keeps every planted term an integer
        rec = PRecurrence.from_lists(
            [[rng.randint(-3, 3) for _ in range(deg + 1)] for _ in range(order)] + [[1]])
        init = Sequence(0, tuple(rng.randint(1, 5) for _ in range(order)))
        seq = self.terms(rng, kind, lambda n: expand_prec(rec, init, n).terms)
        model = self.guessed(guess_prec, seq, rmax=3, dmax=2, margin=margin)
        assert model is None or prec_residual(model, seq) == len(seq) - model.order

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 2 ** 32 - 1), KINDS, st.integers(0, 4))
    def test_equations(self, seed, kind, margin):
        rng = random.Random(seed)
        # y = 1 + x (a + b y + c y^2) + d x^2: dP/dy is 1 at x = 0, so the
        # planted branch through 1 has integer terms
        a, b, d = (rng.randint(-2, 2) for _ in range(3))
        c = rng.choice((-2, -1, 1, 2))
        eq = AlgEq.from_lists([[-1, -a, -d], [1, -b], [0, -c]])
        seq = self.terms(rng, kind, lambda n: expand_algebraic(eq, (1,), n).terms)
        model = self.guessed(guess_algeq, seq, dxmax=3, dymax=2, margin=margin)
        assert model is None or algeq_residual(model, seq) is None


@pytest.mark.parametrize("margin", range(6))
def test_random_terms_give_no_model(margin):
    # k - 1 equations in k unknowns always have a nonzero solution, so both
    # guessers attempt a shape only with an equation to spare; then random
    # terms fit no shape at any length, whatever the margin
    rng = random.Random(20261018 + margin)
    for size in range(1, 31):
        s = Sequence(0, tuple(rng.randrange(1, 10 ** 4) for _ in range(size)))
        for guesser in (guess_prec, guess_algeq):
            try:
                model = guesser(s, margin=margin)
            except InsufficientTerms:
                continue
            assert model is None, (guesser.__name__, size, str(model))


class TestPaperBoundaries:
    """At margin m a shape with k unknowns needs k + m equations, so the
    paper's models appear at exactly these sizes: the order-5, degree-2
    recurrence (18 unknowns, one equation per window) from 23 + m terms,
    the (12, 3) cubic (52 unknowns) from 52 + m branch coefficients, and
    the (8, 3) cubic of U itself (36 unknowns) from 36 + m coefficients of
    U.  One size less gives no model."""

    # margins 0 and 3, and the default: 0 for guess_prec, 3 for guess_algeq
    @pytest.mark.parametrize("grid, spare", [({"margin": 0}, 0), ({"margin": 3}, 3), ({}, 0)],
                             ids=["margin0", "margin3", "default"])
    def test_recurrence_from_23_terms(self, b202062, ascent_rec, grid, spare):
        assert guess_prec(b202062.head(23 + spare), **grid) == ascent_rec
        assert guess_prec(b202062.head(22 + spare), **grid) is None

    @pytest.mark.parametrize("grid, spare", [({"margin": 0}, 0), ({"margin": 3}, 3), ({}, 3)],
                             ids=["margin0", "margin3", "default"])
    def test_cubic_from_52_coefficients(self, ascent_rec, ascent_cubic, grid, spare):
        branch = _branch_series(expand_prec(ascent_rec, Sequence(0, ASCENT_INIT), 64), 64)
        assert guess_algeq(branch.head(52 + spare), 12, 3, **grid) == ascent_cubic
        assert guess_algeq(branch.head(51 + spare), 12, 3, **grid) is None

    @pytest.mark.parametrize("grid, spare", [({"margin": 0}, 0), ({"margin": 3}, 3), ({}, 3)],
                             ids=["margin0", "margin3", "default"])
    def test_cubic_of_u_from_36_coefficients(self, ascent_rec, ascent_u_cubic, grid, spare):
        u = expand_prec(ascent_rec, Sequence(0, ASCENT_INIT), 64)
        assert guess_algeq(u.head(36 + spare), 12, 3, **grid) == ascent_u_cubic
        assert guess_algeq(u.head(35 + spare), 12, 3, **grid) is None

    def test_cubic_of_u_depresses_to_the_branch(self, ascent_u_cubic):
        # -c2/(3 c3) = R(x)/(12 x^3) with R = BRANCH_SHIFT_NUM/(x - 1), cleared
        # of denominators: -c2 * 12 x^3 (x - 1) = 3 c3 * BRANCH_SHIFT_NUM
        _, _, c2, c3 = ascent_u_cubic.coeffs
        assert -c2 * Poly([0, 0, 0, -12, 12]) == Poly([3]) * c3 * BRANCH_SHIFT_NUM
        assert c2


class TestGuessersPinned:
    """Every outcome of both guessers over a fixed grid of inputs, hashed.

    A change of any returned model, of the None/InsufficientTerms outcome
    or of an error message changes the digest.
    """

    PINNED_DIGEST = "ae0166e71a0d7bfc68186874ee98981df1cb3c5ab06866d29a0dc130b16be0c8"

    @staticmethod
    def outcome(guess, terms, **grid) -> str:
        try:
            model = guess(terms, **grid)
        except (InsufficientTerms, ValueError) as exc:
            return f"{type(exc).__name__}: {exc}"
        if model is None:
            return "None"
        assert all(type(c) is int for p in model.coeffs for c in p.coeffs)
        return f"{model} {model.coeff_lists()}"

    @staticmethod
    def cases(b202062, ascent_rec):
        u = expand_prec(ascent_rec, Sequence(0, ASCENT_INIT), 64)
        branch = _branch_series(u, 64)
        fib = expand_rational(Poly([1]), Poly([1, -1, -1]), 30).to_sequence()
        motzkin = expand_algebraic(AlgEq.from_lists([[1], [-1, 1], [0, 0, 1]]),
                                   (1,), 30)
        central = expand_algebraic(AlgEq.from_lists([[1], [], [-1, 4]]), (1,), 24)
        factorials = Sequence(1, tuple(_factorials(14)[1:]))
        zeros = Sequence(0, (0,) * 14)
        rng = random.Random(20261018)
        noise = [Sequence(0, tuple(rng.randrange(1, 10 ** 4) for _ in range(size)))
                 for size in (10, 14, 18)]
        # degenerate inputs on which several candidates survive, so the
        # smallest-coefficient pick decides
        several = [Sequence(0, t) for t in (
            (1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0),
            (1, 0, 1, 1, 0, 0, 0, 0), (0, 1, 1, 1, 0, 0, 0),
            (0, 2, 2, 2, 0, 2, 0, 2), (-1, 1, 0, -1, 0, 0, 0, 1),
            (0, 1, 1, 1, 1, 1, 1, 1, 0, 0), (1, 1, 0, 0, 0, 0, 1, 0),
        )]
        for margin in range(5):
            for size in (6, 10, 14, 18, 24, 28):
                yield guess_prec, b202062.head(size), dict(margin=margin)
            yield guess_prec, b202062.head(20), dict(rmax=5, dmax=2, margin=margin)
            yield guess_prec, Sequence(0, CATALAN), dict(rmax=3, dmax=2, margin=margin)
            yield guess_prec, fib, dict(rmax=3, dmax=1, margin=margin)
            yield guess_prec, motzkin, dict(rmax=3, dmax=2, margin=margin)
            yield guess_prec, central, dict(rmax=2, dmax=2, margin=margin)
            yield guess_prec, factorials, dict(rmax=2, dmax=1, margin=margin)
            yield guess_prec, zeros, dict(rmax=2, dmax=1, margin=margin)
            yield guess_prec, Sequence(0, (1, 2, 3)), dict(rmax=5, dmax=4, margin=margin)
            yield guess_algeq, branch, dict(dxmax=12, dymax=3, margin=margin)
            yield guess_algeq, branch.head(40), dict(dxmax=12, dymax=3, margin=margin)
            yield guess_algeq, Sequence(0, CATALAN), dict(dxmax=2, dymax=2, margin=margin)
            yield guess_algeq, fib, dict(dxmax=3, dymax=2, margin=margin)
            yield guess_algeq, motzkin, dict(dxmax=3, dymax=2, margin=margin)
            yield guess_algeq, central, dict(dxmax=2, dymax=2, margin=margin)
            yield guess_algeq, b202062.head(20), dict(dxmax=3, dymax=2, margin=margin)
            yield guess_algeq, zeros, dict(dxmax=2, dymax=2, margin=margin)
            yield guess_algeq, Sequence(0, (1, 1)), dict(dxmax=5, dymax=3, margin=margin)
            yield guess_algeq, factorials, dict(dxmax=2, dymax=2, margin=margin)
            for s in noise:
                yield guess_prec, s, dict(rmax=3, dmax=1, margin=margin)
                yield guess_algeq, s, dict(dxmax=3, dymax=2, margin=margin)
            for s in several:
                yield guess_prec, s, dict(rmax=3, dmax=1, margin=margin)
                yield guess_algeq, s, dict(dxmax=2, dymax=2, margin=margin)

    def test_outputs_pinned(self, b202062, ascent_rec):
        outcomes = [self.outcome(guess, terms, **grid)
                    for guess, terms, grid in self.cases(b202062, ascent_rec)]
        digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
        assert digest == self.PINNED_DIGEST
