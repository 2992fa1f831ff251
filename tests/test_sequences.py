"""Generators vs brute-force oracles, and exact series-driven expanders."""

import decimal
import hashlib
import inspect
import random
import sys
import tracemalloc
from collections import deque
from fractions import Fraction
from itertools import combinations, count, islice, product
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlab import (
    AlgEq,
    Poly,
    PRecurrence,
    Sequence,
    count_201_ascent,
    enum_ascent_avoiding,
    enum_lconvex_bruteforce,
    enum_stack_bruteforce,
    expand_algebraic,
    expand_prec,
    expand_prec_decimal,
    expand_rational,
    gen_lconvex_area,
    gen_lconvex_perimeter,
    gen_stack_area,
    guess_prec,
)
from seqlab.dfinite import _EXACT, _prec_terms
from seqlab.report import unlimited_int_digits
from seqlab.sequences import _lconvex_area, _walk_ascent_avoiding
from seqlab.series import int_horner
from seqlab.errors import (
    BranchAmbiguous,
    BudgetExceeded,
    InconsistentInit,
    LeadingCoeffVanishes,
    NonIntegral,
    NotARoot,
)
from conftest import CATALAN


class TestSequenceContainer:
    def test_indexing(self):
        s = Sequence(2, (10, 20, 30))
        assert len(s) == 3
        assert s.last_index == 4
        assert s.term(3) == 20
        assert list(s.indices()) == [2, 3, 4]
        assert s.head(2) == Sequence(2, (10, 20))
        assert s.head(0) == Sequence(2, ()) and s.head(9) == s
        with pytest.raises(ValueError, match="k >= 0"):
            Sequence(0, (1, 2, 3)).head(-1)

    def test_term_out_of_range(self):
        with pytest.raises(IndexError):
            Sequence(0, (1,)).term(1)


class TestPattern:
    """The pattern argument of enum_ascent_avoiding: a digit string."""

    def test_order_normalization(self):
        # only the order of the digits counts
        assert enum_ascent_avoiding("301", 8) == enum_ascent_avoiding("201", 8)
        assert enum_ascent_avoiding("552", 8) == enum_ascent_avoiding("110", 8)
        assert enum_ascent_avoiding("9", 4) == enum_ascent_avoiding("0", 4)

    def test_from_string(self):
        for bad in ("2a1", "", "2 1", "²01"):
            with pytest.raises(ValueError, match="digit string"):
                enum_ascent_avoiding(bad, 4)
        with pytest.raises(ValueError, match="longer than 3"):
            enum_ascent_avoiding("0123", 4)


def test_bruteforce_201_avoiders_match_bfile(b202062):
    # the bundled b-file's head, independent of any guessed model
    assert enum_ascent_avoiding("201", 10).terms == b202062.terms[:11]


def _digest(s: Sequence) -> str:
    return hashlib.sha256(",".join(map(str, s.terms)).encode()).hexdigest()


class TestGenerators:
    def test_lconvex_area_head(self):
        assert gen_lconvex_area(8).terms == (1, 1, 2, 6, 15, 35, 76, 156)
        assert gen_lconvex_area(8).offset == 0

    def test_stack_area_head(self):
        s = gen_stack_area(8)
        assert s.offset == 1
        assert s.terms == (1, 2, 4, 8, 15, 27, 47, 79)

    @pytest.mark.parametrize(
        "gen, n, terms",
        [
            (gen_lconvex_area, 1, (1,)),
            (gen_lconvex_area, 2, (1, 1)),
            (gen_lconvex_area, 3, (1, 1, 2)),
            (gen_lconvex_area, 4, (1, 1, 2, 6)),
            (gen_lconvex_area, 10, (1, 1, 2, 6, 15, 35, 76, 156, 310, 590)),
            (gen_stack_area, 1, (1,)),
            (gen_stack_area, 2, (1, 2)),
            (gen_stack_area, 3, (1, 2, 4)),
            (gen_stack_area, 4, (1, 2, 4, 8)),
            (gen_stack_area, 10, (1, 2, 4, 8, 15, 27, 47, 79, 130, 209)),
        ],
    )
    def test_small_sizes_pinned(self, gen, n, terms):
        assert gen(n).terms == terms

    def test_size_57_pinned(self):
        assert _digest(gen_lconvex_area(57)) == (
            "0df8644f9c57414108161cbba0ad548be7a2cb281ced780bcec60d17df76eb48"
        )
        assert _digest(gen_stack_area(57)) == (
            "d80fcddf11ba71b5aa1af7da15036e320eeaa56af823151a4113f37433012066"
        )

    def test_long_runs_pinned(self, lconvex_2000, stack_2000):
        assert len(lconvex_2000) == 2001 and len(stack_2000) == 2000
        assert _digest(lconvex_2000) == (
            "6d8583acaf686edbdc27ef73e82132e143b15b772342995d076f85424fc96d3a"
        )
        assert _digest(stack_2000) == (
            "c1550e5a9a14132d1fa396cb5906bf139436251a4c56ad1cf4468b4b5d113dd9"
        )

    def test_lconvex_5001_pinned(self):
        assert _digest(gen_lconvex_area(5001)) == (
            "b3b73389deffaa4e348d92fbd586e102ad954080e1734680b45778f3e55b6640"
        )

    def test_stack_5001_pinned(self):
        assert _digest(gen_stack_area(5001)) == (
            "1cac05b0cdb7159cb2ad1212c103bb213dc9768053b92a983e06b617c0323a22"
        )

    @pytest.mark.parametrize("n", [2001, 5001])
    def test_lconvex_memory_is_linear(self, n):
        # two summands alive besides V_J and V_(J+1) peak near 4.5 times the
        # bytes of the terms; keeping every summand alive reaches 20 to 27
        tracemalloc.start()
        try:
            s = gen_lconvex_area(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * (sys.getsizeof(s.terms) + sum(map(sys.getsizeof, s.terms)))

    @pytest.mark.parametrize("n", [2001])
    def test_stack_memory_is_linear(self, n):
        # the dividend, the quotient and the terms' tuple peak near 1.4
        # times the bytes of the terms; no summand or power is kept
        tracemalloc.start()
        try:
            s = gen_stack_area(n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * (sys.getsizeof(s.terms) + sum(map(sys.getsizeof, s.terms)))

    @pytest.mark.parametrize("gen", [gen_lconvex_area, gen_stack_area])
    def test_every_size_is_a_prefix(self, gen):
        # the n-term run keeps exactly the coefficients below q^n of one
        # series, so a longer run must extend, not change, a shorter one
        full = gen(60).terms
        assert all(gen(n).terms == full[:n] for n in range(1, 60))

    def test_perimeter_head(self):
        s = gen_lconvex_perimeter(6)
        assert s.terms == (1, 2, 7, 24, 82, 280)
        # linear recurrence a(n) = 4 a(n-1) - 2 a(n-2), valid once past
        # the degree-2 numerator, i.e. from index 3 on
        for i in range(3, len(s.terms)):
            assert s.terms[i] == 4 * s.terms[i - 1] - 2 * s.terms[i - 2]


class TestOracles:
    def test_lconvex_matches_bruteforce(self):
        gen = gen_lconvex_area(8)
        brute = enum_lconvex_bruteforce(7)
        assert brute.offset == 1
        assert gen.terms[1:8] == brute.terms

    def test_stack_matches_bruteforce(self):
        gen = gen_stack_area(12)
        brute = enum_stack_bruteforce(12)
        assert gen == brute

    @staticmethod
    def _stack_by_products(n_terms):
        """S(q) = sum_n q^n h_n with h_(n+1) = h_n / ((1-q^n)(1-q^(n+1))),
        each h_n truncated to the coefficients q^n h_n keeps."""
        out = [0] * n_terms
        h = [1] * n_terms  # h_1 = 1/(1-q)
        for n in range(1, n_terms + 1):
            for i, c in enumerate(h):
                out[n - 1 + i] += c
            h = h[: n_terms - n]
            for m in (n, n + 1):
                for i in range(m, len(h)):
                    h[i] += h[i - m]
        return tuple(out)

    @staticmethod
    def _stack_by_pentagonal_divisions(n_terms):
        """(q - q^3 + q^6 - ...) / (q;q)_inf^2 by two divisions through
        Euler's pentagonal recurrence: the generator before the Jacobi
        division, a[n] += sum of (-1)^(k+1) a[n - g] over the generalised
        pentagonal g = k(3k -+ 1)/2 in 1..n."""
        out = [0] * n_terms
        k = 1
        while k * (k + 1) // 2 <= n_terms:
            out[k * (k + 1) // 2 - 1] = 1 if k % 2 else -1
            k += 1
        plus, minus = [], []
        k = 1
        while k * (3 * k - 1) // 2 < n_terms:
            (plus if k % 2 else minus).extend((k * (3 * k - 1) // 2, k * (3 * k + 1) // 2))
            k += 1
        for _ in range(2):
            for n in range(1, n_terms):
                out[n] += (sum([out[n - g] for g in plus if g <= n])
                           - sum([out[n - g] for g in minus if g <= n]))
        return tuple(out)

    def test_stack_matches_pentagonal_divisions(self):
        # each n-term reference run is the n-term prefix of the 400-term one
        # (both divisions are triangular recurrences), so one run checks
        # every n in 1..400
        want = self._stack_by_pentagonal_divisions(400)
        for n in range(1, 401):
            assert gen_stack_area(n).terms == want[:n], n
        assert gen_stack_area(2000).terms == self._stack_by_pentagonal_divisions(2000)

    def test_stack_matches_product_recursion(self):
        for n in [*range(1, 41), 300]:
            assert gen_stack_area(n).terms == self._stack_by_products(n), n

    @staticmethod
    def _lconvex_by_summands(n_terms):
        """A(q) = 1 + sum_k q^(k+1) h_k with h_k = (2 u_(k-1) - u_(k-2))
        / (1-q^(k+1)) and u_k = h_k / (1-q^(k+1)), u_(-1) = 1, u_0 =
        1/(1-q)^2, each series truncated to the coefficients it can change."""
        out = [1] * n_terms  # 1 + q h_0 with h_0 = 1/(1-q)
        u_prev2 = [1] + [0] * n_terms
        u_prev1 = list(range(1, n_terms - 1))
        for k in range(1, n_terms - 1):
            h = [2 * a - b for a, b in zip(u_prev1, u_prev2)]
            for i in range(k + 1, len(h)):
                h[i] += h[i - k - 1]
            u = h[: n_terms - k - 2]
            for i in range(k + 1, len(u)):
                u[i] += u[i - k - 1]
            u_prev2, u_prev1 = u_prev1, u
            for i, c in enumerate(h):
                out[k + 1 + i] += c
        return tuple(out)

    def test_lconvex_matches_summand_recursion(self):
        for n in [*range(1, 81), 300, 1001]:
            assert gen_lconvex_area(n).terms == self._lconvex_by_summands(n), n

    def test_lconvex_every_switch_matches_summand_recursion(self):
        # the split between the direct sum and the backward step moves no term
        for n in range(2, 81):
            want = self._lconvex_by_summands(n)
            for top in range(1, n):
                assert _lconvex_area(n, top).terms == want, (n, top)
        for n in (300, 1001):
            want = self._lconvex_by_summands(n)
            for top in (1, 2, isqrt(4 * n // 3)):
                assert _lconvex_area(n, top).terms == want, (n, top)

    def test_budget_exceeded(self):
        with pytest.raises(BudgetExceeded):
            enum_lconvex_bruteforce(8, budget=50)
        with pytest.raises(BudgetExceeded):
            enum_stack_bruteforce(15, budget=10)

    def test_ascent_avoiding_known_counts(self):
        # 012-avoiders double, 102-avoiders follow (3^(n-1)+1)/2 and
        # 101-avoiders are the Catalan numbers.
        a012 = enum_ascent_avoiding("012", 9).terms
        a102 = enum_ascent_avoiding("102", 9).terms
        a101 = enum_ascent_avoiding("101", 9).terms
        for n in range(10):
            assert a012[n] == (1 if n == 0 else 2 ** (n - 1))
            assert a102[n] == (1 if n == 0 else (3 ** (n - 1) + 1) // 2)
            assert a101[n] == CATALAN[n]

    def test_ascent_avoiding_201_head(self):
        assert enum_ascent_avoiding("201", 7).terms == (1, 1, 2, 5, 15, 52, 201, 843)

    def test_pattern_argument_forms(self):
        # an int drops leading zeros: 12 would be counted as the pattern
        # "12", i.e. 01 (all ones), where "012" gives the powers of two
        with pytest.raises(ValueError, match="digit string such as '201' or '012'"):
            enum_ascent_avoiding(12, 6)
        with pytest.raises(ValueError, match="digit string"):
            enum_ascent_avoiding(201, 6)
        assert enum_ascent_avoiding("012", 6).terms == (1, 1, 2, 4, 8, 16, 32)

    def test_ascent_budget(self):
        with pytest.raises(BudgetExceeded):
            enum_ascent_avoiding("201", 12, budget=100)
        # the budget counts the avoiding prefixes of lengths 1..n_max:
        # 1 + 2 + 5 + 15 + 52 + 201 + 843 = 1119 at n_max = 7
        assert enum_ascent_avoiding("201", 7, budget=1119).terms[-1] == 843
        with pytest.raises(BudgetExceeded, match="node budget 1118 exceeded"):
            enum_ascent_avoiding("201", 7, budget=1118)

    def test_ascent_avoiding_matches_definition(self):
        # every ascent sequence of length <= 7, tested against each of the
        # 17 normalised patterns of length <= 3 by checking every index
        # subset for order-isomorphism (equal letters must be equal), at
        # every n_max from 0 to 7
        def ascent_sequences(n):
            out = [()]
            if n:
                stack = [((0,), 0)]
                while stack:
                    seq, asc = stack.pop()
                    out.append(seq)
                    if len(seq) < n:
                        for x in range(asc + 2):
                            stack.append((seq + (x,), asc + (x > seq[-1])))
            return out

        def cmp(a, b):
            return (a > b) - (a < b)

        def contains(seq, p):
            rel = [
                (i, j, cmp(p[i], p[j]))
                for i, j in combinations(range(len(p)), 2)
            ]
            return any(
                all(cmp(sub[i], sub[j]) == r for i, j, r in rel)
                for sub in combinations(seq, len(p))
            )

        n_max = 7
        seqs = ascent_sequences(n_max)
        # the order-normalised digit strings: each uses the digits 0..m-1
        patterns = [
            "".join(map(str, letters))
            for k in (1, 2, 3)
            for letters in product(range(k), repeat=k)
            if set(letters) == set(range(max(letters) + 1))
        ]
        assert len(patterns) == 17
        for pat in patterns:
            letters = [int(ch) for ch in pat]
            want = [0] * (n_max + 1)
            for seq in seqs:
                if not contains(seq, letters):
                    want[len(seq)] += 1
            for n in range(n_max + 1):
                assert enum_ascent_avoiding(pat, n).terms == tuple(want[: n + 1]), (pat, n)


class TestCount201Ascent:
    """count_201_ascent, the state recursion that enum_ascent_avoiding
    sends 201 to, against the tree walk and the paper's recurrence."""

    def test_matches_tree_walk(self):
        for n in range(12):
            assert count_201_ascent(n) == _walk_ascent_avoiding([2, 0, 1], n, 10**9), n

    def test_every_spelling_takes_the_recursion(self):
        want = _walk_ascent_avoiding([2, 0, 1], 9, 10**9)
        for pattern in ("201", "301", "312", "957"):
            assert enum_ascent_avoiding(pattern, 9) == want, pattern

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError, match="n_max >= 0"):
            count_201_ascent(-1)

    def test_budget_on_each_path(self):
        # the walk: 012-avoiders of lengths 1..7 are 1 + 2 + ... + 64 = 127
        assert enum_ascent_avoiding("012", 7, budget=127).terms[-1] == 64
        with pytest.raises(BudgetExceeded, match="node budget 126 exceeded"):
            enum_ascent_avoiding("012", 7, budget=126)
        # the recursion stops at the first length over budget, long before
        # it could count a million lengths
        with pytest.raises(BudgetExceeded, match="node budget 100 exceeded"):
            enum_ascent_avoiding("201", 10**6, budget=100)
        # count_201_ascent itself takes no budget: the 80208803 prefixes of
        # lengths 1..14 are over enum_ascent_avoiding's default budget
        assert list(inspect.signature(count_201_ascent).parameters) == ["n_max"]
        assert sum(count_201_ascent(14).terms[1:]) == 80208803
        with pytest.raises(BudgetExceeded, match="node budget 50000000 exceeded"):
            enum_ascent_avoiding("201", 14)

    def test_recurrence_from_23_terms_generates_the_counts(self, b202062, ascent_rec):
        # the paper's claim: 22 terms admit no recurrence, the first 23
        # give the order-5 one, and it generates every count up to 150
        assert guess_prec(b202062.head(22)) is None
        rec = guess_prec(b202062.head(23))
        assert rec == ascent_rec and rec.order == 5
        counts = count_201_ascent(150)
        assert counts.head(len(b202062)) == b202062
        assert expand_prec(rec, b202062.head(23), 151) == counts
        assert _digest(counts) == (
            "be87ddbdbdaa9fde557d87c03f863e7963cf2b4eb6fa5e31abf69bb22fa70f10"
        )


class TestExpandRational:
    def test_perimeter_from_rational(self):
        lau = expand_rational(Poly([1, -2, 1]), Poly([1, -4, 2]), 6)
        assert lau.offset == 0
        assert lau.to_sequence().terms == (1, 2, 7, 24, 82, 280)

    def test_laurent_offset(self):
        lau = expand_rational(Poly([1]), Poly([0, 0, 1]), 3)
        assert lau.offset == -2
        assert lau.coeffs == (Fraction(1), Fraction(0), Fraction(0))

    def test_positive_valuation(self):
        lau = expand_rational(Poly([0, 0, 3]), Poly([1, -1]), 4)
        assert lau.offset == 2
        assert lau.coeffs == (Fraction(3),) * 4

    def test_zero_num_and_den(self):
        assert expand_rational(Poly([]), Poly([1]), 3).coeffs == (0, 0, 0)
        with pytest.raises(ZeroDivisionError):
            expand_rational(Poly([1]), Poly([]), 3)

    @pytest.mark.parametrize("n", [0, -2])
    def test_needs_one_term(self, n):
        # the check comes before any series is built, so the message is
        # the generators' own, not that of an internal type
        for num in (Poly([]), Poly([1])):
            with pytest.raises(ValueError, match=r"^need n_terms >= 1$"):
                expand_rational(num, Poly([1, -1]), n)
        with pytest.raises(ValueError, match=r"^need n_terms >= 1$"):
            gen_lconvex_perimeter(n)

    def test_non_integral_to_sequence(self):
        lau = expand_rational(Poly([1]), Poly([2]), 3)
        with pytest.raises(NonIntegral):
            lau.to_sequence()
        # 2y - 2 - x = 0 has the branch y = 1 + x/2
        with pytest.raises(NonIntegral, match="index 1$"):
            expand_algebraic(AlgEq.from_lists([[-2, -1], [2]]), (1,), 4)
        with pytest.raises(NonIntegral, match="index 1$"):
            Sequence(0, (1, Fraction(1, 2)))
        with pytest.raises(NonIntegral, match="index 4$"):
            Sequence(3, (1, 2.5))
        assert Sequence(0, (1, 2.0, Fraction(6, 2))).terms == (1, 2, 3)
        with pytest.raises(NonIntegral, match="index 1$"):
            Sequence(0, (1, "2"))


class TestExpandPRec:
    def test_geometric(self):
        rec = PRecurrence.from_lists([[-2], [1]])
        s = expand_prec(rec, Sequence(0, (1,)), 10)
        assert s.terms == tuple(2 ** n for n in range(10))

    def test_catalan(self):
        rec = PRecurrence.from_lists([[-2, -4], [2, 1]])
        s = expand_prec(rec, Sequence(0, (1,)), len(CATALAN))
        assert s.terms == CATALAN

    def test_inconsistent_init(self):
        rec = PRecurrence.from_lists([[-2], [1]])
        # six supplied terms; the sixth violates the recurrence
        with pytest.raises(InconsistentInit, match=r"at n=4$"):
            expand_prec(rec, Sequence(0, (1, 2, 4, 8, 16, 33)), 10)
        # also when fewer terms than supplied are asked for
        with pytest.raises(InconsistentInit, match=r"at n=4$"):
            expand_prec(rec, Sequence(0, (1, 2, 4, 8, 16, 33)), 3)
        # the message names the first violating index, counted from the offset
        with pytest.raises(InconsistentInit, match=r"at n=5$"):
            expand_prec(rec, Sequence(3, (1, 2, 4, 9, 18, 36)), 10)

    def test_init_shorter_than_order(self):
        rec = PRecurrence.from_lists([[1], [0, 1], [1, 1]])
        with pytest.raises(InconsistentInit):
            expand_prec(rec, Sequence(0, (1,)), 5)

    def test_leading_coeff_vanishes(self):
        # (n - 7) u(n+1) - 2 (n - 7) u(n) = 0 stalls when computing u(8)
        rec = PRecurrence((Poly([14, -2]), Poly([-7, 1])))
        with pytest.raises(LeadingCoeffVanishes):
            expand_prec(rec, Sequence(0, (1,)), 10)
        ok = expand_prec(rec, Sequence(0, (1,)), 8)
        assert ok.terms == tuple(2 ** n for n in range(8))

    def test_non_integral(self):
        rec = PRecurrence.from_lists([[-1], [2]])  # u(n+1) = u(n)/2
        with pytest.raises(NonIntegral):
            expand_prec(rec, Sequence(0, (1,)), 4)

    def test_extra_init_terms_checked_and_kept(self):
        rec = PRecurrence.from_lists([[-2], [1]])
        s = expand_prec(rec, Sequence(0, (1, 2, 4)), 6)
        assert s.terms == (1, 2, 4, 8, 16, 32)

    def test_exactly_n_terms(self):
        rec = PRecurrence.from_lists([[-2], [1]])
        init = Sequence(0, tuple(2 ** n for n in range(8)))
        for n in (1, 3, 8, 11):
            assert expand_prec(rec, init, n).terms == tuple(2 ** k for k in range(n))
        for n in (0, -1):
            with pytest.raises(ValueError, match="n_terms >= 1"):
                expand_prec(rec, init, n)


def _prec_terms_loop(rec, init, number):
    """The _prec_terms step loop before poly_values, one int_horner call
    per coefficient and term, kept as its reference."""
    ints = rec.coeff_lists()
    r = rec.order
    window = deque(map(number, init.terms[len(init) - r:]), maxlen=r)
    for n in count(init.last_index - r + 1):
        lead = int_horner(ints[r], n)
        if lead == 0:
            raise LeadingCoeffVanishes(n)
        acc = sum(int_horner(ints[j], n) * window[j] for j in range(r))
        q, rem = divmod(-acc, lead)
        if rem:
            raise NonIntegral(f"non-integer term at n={n + r}")
        window.append(q)
        yield q


def _run(steps, limit):
    """The terms a step generator yields, up to limit, and the error that
    stopped it: (terms, (type, message, n) or None)."""
    out = []
    try:
        for q in islice(steps, limit):
            out.append(q)
    except (LeadingCoeffVanishes, NonIntegral) as exc:
        return out, (type(exc), str(exc), getattr(exc, "n", None))
    return out, None


class TestPrecTermsErrors:
    """_prec_terms raises what the per-term int_horner loop raised, at the
    same n, in int and in Decimal."""

    PLANTED = [
        # (n - 5)(n + 2) (u(n+2) - u(n+1) - u(n)) = 0: stalls at n = 5
        (PRecurrence((Poly([10, 3, -1]), Poly([10, 3, -1]), Poly([-10, -3, 1]))),
         Sequence(0, (1, 1)), LeadingCoeffVanishes, 5),
        # (n - 9) u(n+1) = 2 (n - 9) u(n) from offset 3: stalls at n = 9
        (PRecurrence((Poly([18, -2]), Poly([-9, 1]))), Sequence(3, (1,)),
         LeadingCoeffVanishes, 9),
        # (n + 1) u(n+1) = (n + 1) u(n) from offset -4: stalls at n = -1
        (PRecurrence((Poly([-1, -1]), Poly([1, 1]))), Sequence(-4, (2,)),
         LeadingCoeffVanishes, -1),
        # 7 u(n+1) = (n + 3) u(n) from 49: 21, 12, then 60/7 at n = 3
        (PRecurrence((Poly([-3, -1]), Poly([7]))), Sequence(0, (49,)), NonIntegral, 3),
        # order 3, degree 3, leading n^3 + 8: stalls at n = -2 from offset -6
        (PRecurrence((Poly([1]), Poly([0, 0, 0]), Poly([-1]), Poly([8, 0, 0, 1]))),
         Sequence(-6, (0, 0, 0)), LeadingCoeffVanishes, -2),
    ]

    @staticmethod
    def outcomes(rec, init, limit=40):
        with decimal.localcontext(_EXACT):
            return [_run(make(rec, init, number), limit)
                    for make in (_prec_terms, _prec_terms_loop)
                    for number in (int, decimal.Decimal)]

    @pytest.mark.parametrize("rec, init, error, n", PLANTED)
    def test_planted(self, rec, init, error, n):
        new_int, new_dec, old_int, old_dec = self.outcomes(rec, init)
        assert new_int == old_int and new_dec == old_dec
        assert new_dec[0] == new_int[0] and new_dec[1] == new_int[1]
        got_error, _, got_n = new_int[1]
        assert got_error is error
        if error is LeadingCoeffVanishes:
            assert got_n == n
        else:
            assert new_int[1][1] == f"non-integer term at n={n}"

    def test_random(self):
        rng = random.Random(5)
        errors = set()
        for _ in range(300):
            r, d = rng.randint(1, 3), rng.randint(0, 3)
            rec = PRecurrence.from_lists(
                [[rng.randint(-4, 4) for _ in range(d + 1)] for _ in range(r)]
                + [[rng.randint(-6, 6) for _ in range(rng.randint(0, 2))] + [1]])
            init = Sequence(rng.randint(-6, 3), [rng.randint(-9, 9) for _ in range(r)])
            new_int, new_dec, old_int, old_dec = self.outcomes(rec, init, 25)
            assert new_int == old_int and new_dec == old_dec, (rec, init)
            assert new_dec == new_int, (rec, init)
            errors.add(new_int[1] and new_int[1][0])
        assert errors == {None, LeadingCoeffVanishes, NonIntegral}


class TestExpandPRecDecimal:
    """expand_prec_decimal renders what expand_prec computes, with its
    checks and errors, and leaves the caller's decimal context alone."""

    CASES = [
        # u(n+1) = 2 u(n)
        (PRecurrence.from_lists([[-2], [1]]), Sequence(0, (1,))),
        # u(n+2) = -u(n) from (1, 0): alternating zero and +-1 terms
        (PRecurrence.from_lists([[1], [0], [1]]), Sequence(0, (1, 0))),
        # u(n+1) = -2 u(n), nonzero offset
        (PRecurrence.from_lists([[2], [1]]), Sequence(3, (5,))),
        # (2n - 7) (u(n+2) + u(n)) = 0: negative leading values at n <= 3,
        # where a zero term would come out of decimal division as -0
        (PRecurrence((Poly([-7, 2]), Poly([0]), Poly([-7, 2]))), Sequence(0, (0, 3))),
        # Catalan numbers, with three supplied terms
        (PRecurrence.from_lists([[-2, -4], [2, 1]]), Sequence(0, CATALAN[:3])),
    ]

    @pytest.mark.parametrize("rec, init", CASES)
    def test_matches_expand_prec(self, rec, init):
        for n in (1, len(init), len(init) + 1, 12, 40):
            want = [str(t) for t in expand_prec(rec, init, n).terms]
            assert expand_prec_decimal(rec, init, n) == want

    def test_ascent_recurrence_beyond_str_limit(self, ascent_rec, b202062):
        """Terms past CPython's default limit of 4300 digits for str(int)."""
        got = expand_prec_decimal(ascent_rec, b202062, 5200)
        terms = expand_prec(ascent_rec, b202062, 5200).terms
        assert len(got) == 5200 and len(got[-1]) > 4300
        with unlimited_int_digits():
            assert got[::250] + got[-1:] == [str(t) for t in terms[::250] + terms[-1:]]

    @pytest.mark.parametrize("rec, init, n", [
        (PRecurrence.from_lists([[-2], [1]]), Sequence(0, (1,)), 0),
        (PRecurrence.from_lists([[-2], [1]]), Sequence(0, (1,)), -1),
        (PRecurrence.from_lists([[-2], [1]]), Sequence(0, (1, 2, 4, 8, 16, 33)), 3),
        (PRecurrence.from_lists([[-2], [1]]), Sequence(3, (1, 2, 4, 9, 18, 36)), 10),
        (PRecurrence.from_lists([[1], [0, 1], [1, 1]]), Sequence(0, (1,)), 5),
        (PRecurrence((Poly([14, -2]), Poly([-7, 1]))), Sequence(0, (1,)), 10),
        (PRecurrence.from_lists([[-1], [2]]), Sequence(0, (1,)), 4),
    ])
    def test_same_errors_as_expand_prec(self, rec, init, n):
        with pytest.raises(Exception) as want:
            expand_prec(rec, init, n)
        assert want.type in (ValueError, InconsistentInit, LeadingCoeffVanishes,
                             NonIntegral)
        with pytest.raises(want.type) as got:
            expand_prec_decimal(rec, init, n)
        assert type(got.value) is want.type and str(got.value) == str(want.value)

    def test_caller_context_untouched(self):
        rec = PRecurrence.from_lists([[-2], [1]])
        with decimal.localcontext() as ctx:
            ctx.prec = 7
            before = repr(ctx)
            assert expand_prec_decimal(rec, Sequence(0, (1,)), 60)[-1] == str(2 ** 59)
            assert decimal.getcontext() is ctx and repr(ctx) == before
            with pytest.raises(NonIntegral):
                expand_prec_decimal(PRecurrence.from_lists([[-1], [2]]),
                                    Sequence(0, (1,)), 4)
            assert decimal.getcontext() is ctx and repr(ctx) == before


class TestExpandAlgebraic:
    def test_catalan_from_cubic_relation(self):
        # x y^2 - y + 1 = 0 is satisfied by the Catalan series.
        eq = AlgEq.from_lists([[1], [-1], [0, 1]])
        s = expand_algebraic(eq, (1, 1), len(CATALAN))
        assert s.terms == CATALAN

    def test_central_binomial(self):
        # (4x - 1) y^2 + 1 = 0 for y = sum C(2n, n) x^n.
        eq = AlgEq.from_lists([[1], [], [-1, 4]])
        s = expand_algebraic(eq, (1,), 8)
        assert s.terms == (1, 2, 6, 20, 70, 252, 924, 3432)

    def test_not_a_root(self):
        eq = AlgEq.from_lists([[1], [-1], [0, 1]])
        with pytest.raises(NotARoot):
            expand_algebraic(eq, (2,), 5)

    def test_empty_seed_is_not_a_root(self):
        eq = AlgEq.from_lists([[1], [-1], [0, 1]])
        with pytest.raises(NotARoot, match="^empty seed$"):
            expand_algebraic(eq, (), 5)

    def test_branch_ambiguous(self):
        # y^2 - x = 0 has vanishing dP/dy at the seed y(0) = 0.
        eq = AlgEq.from_lists([[0, -1], [], [1]])
        with pytest.raises(BranchAmbiguous):
            expand_algebraic(eq, (0,), 5)

    def test_seed_selects_branch(self):
        # y^2 - (1 + x) = 0: the two branches start at +1 and -1.
        eq = AlgEq.from_lists([[-1, -1], [], [1]])
        import seqlab

        plus = seqlab.expand_algebraic_series(eq, (1,), 6)
        minus = seqlab.expand_algebraic_series(eq, (-1,), 6)
        assert plus.coeffs[0] == 1 and minus.coeffs[0] == -1
        assert plus.coeffs == tuple(-c for c in minus.coeffs)

    def test_exactly_n_terms(self):
        # the seed is checked in full, but never longer than n_terms
        eq = AlgEq.from_lists([[1], [-1], [0, 1]])
        for n in (1, 3, 14, 20):
            assert expand_algebraic(eq, CATALAN[:14], n).terms == CATALAN[:n]
        for n in (0, -2):
            with pytest.raises(ValueError, match="n_terms >= 1"):
                expand_algebraic(eq, CATALAN[:14], n)


@settings(deadline=None, max_examples=25)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=3),
)
def test_random_rational_expansions_satisfy_recurrence(num_cs, den_deg):
    """num/den expansions satisfy the linear recurrence den defines."""
    den_cs = [1] + [0] * (den_deg - 1) + [1]
    num = Poly(num_cs)
    den = Poly(den_cs)
    lau = expand_rational(num, den, 20)
    cs = lau.coeffs
    # den * series = num exactly, checked beyond deg(num)
    for k in range(len(num_cs) + den_deg, 20):
        acc = sum(Fraction(den_cs[j]) * cs[k - j] for j in range(den_deg + 1))
        assert acc == 0
