"""Integer counting sequences: generators, brute-force oracles, expand_rational.

Three families are built in:

* L-convex polyominoes counted by area (every ordered pair of cells joined by
  a monotone internal path with at most one turn),
* stack polyominoes counted by area (unimodal bargraphs),
* ascent sequences avoiding a short pattern, counted by length.

Each family has a fast exact generator working from a functional equation or
recurrence, plus an independent brute-force enumerator used as an oracle;
the 201-avoiding ascent sequences are also counted exactly, and
independently of any guessed model, by a state recursion in O(n^3)
big-integer additions.
The generators work on plain Python int arrays.  The L-convex generator
sums its q-series through the generating function U(z) of the summands:
the values U(q^j), each truncated to the coefficients the area series
needs, are short sums of the summands for j at or above a switch index
near sqrt(5N/6) and follow from a functional equation for U by a backward
recurrence below it, in O(N^(3/2)) coefficient operations; the stack
generator divides a sparse numerator once by (q;q)_inf^3, sparse by
Jacobi's identity, in O(N^(3/2)).  The models and their expanders live in
``seqlab.dfinite``, which imports this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice
from math import isqrt
from operator import add, sub
from typing import Iterator

from .errors import BudgetExceeded
from .series import (
    Poly,
    TruncSeries,
    div_one_minus_qm,
    div_q_infinity_cubed,
    int_tuple,
    q_infinity_terms,
)


@dataclass(frozen=True)
class Sequence:
    """Exact integer terms for consecutive indices offset, offset+1, ...;
    a term not equal to an integer raises NonIntegral."""

    offset: int
    terms: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "terms", int_tuple(self.terms, "term", self.offset))

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def last_index(self) -> int:
        return self.offset + len(self.terms) - 1

    def term(self, n: int) -> int:
        """Term at absolute index n."""
        if not self.offset <= n <= self.last_index:
            raise IndexError(f"index {n} outside [{self.offset}, {self.last_index}]")
        return self.terms[n - self.offset]

    def indices(self) -> range:
        return range(self.offset, self.offset + len(self.terms))

    def head(self, k: int) -> "Sequence":
        """The first k terms, or all of them when there are fewer (k >= 0)."""
        if k < 0:
            raise ValueError(f"head needs k >= 0, got {k}")
        return Sequence(self.offset, self.terms[:k])


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def gen_lconvex_area(n_terms: int) -> Sequence:
    """L-convex polyominoes by area: 1, 1, 2, 6, 15, 35, ... (offset 0).

    The area generating function is

        A(q) = 1 + sum_{k>=0} q^(k+1) f_k(q)
                   / [ (1-q)^2 (1-q^2)^2 ... (1-q^k)^2 (1-q^(k+1)) ],

    with f_0 = 1, f_1 = 1 + 2q - q^2 and f_k = 2 f_(k-1) - (1-q^k)^2
    f_(k-2) (Castiglione, Frosini, Munarini, Restivo and Rinaldi 2007).

    With u_k = f_k / (q;q)_(k+1)^2 the k-th summand is q^(k+1) (1-q^(k+1))
    u_k, and the recursion for f_k becomes

        (1-q^(k+1))^2 u_k = 2 u_(k-1) - u_(k-2),   k >= 1,

    with u_(-1) = 1 and u_0 = 1/(1-q)^2.  Multiply by z^k and sum over
    k >= 0 (the k = 0 term is (1-q)^2 u_0 = 1); with U(z) = sum_k u_k z^k,
    the left side is U(z) - 2q U(qz) + q^2 U(q^2 z) and the right side is
    1 + 2z U(z) - z - z^2 U(z), so

        (1-z)^2 U(z) = 1 - z + 2q U(qz) - q^2 U(q^2 z),
        A(q) = 1 + q U(q) - q^2 U(q^2),

    the second from splitting each summand in two.  Put V_j = U(q^j).  At
    z = q^j the first identity reads

        (1-q^j)^2 V_j = 1 - q^j + 2q V_(j+1) - q^2 V_(j+2),

    and since 1/(1-q^j)^2 is a power series, V_j mod q^M needs only the
    right side mod q^M.  A(q) mod q^N needs V_1 mod q^(N-1) and V_2
    mod q^(N-2); by the step, V_j mod q^(N-j) needs V_(j+1) mod q^(N-j-1)
    and V_(j+2) mod q^(N-j-2), so each V_j is kept to N - j coefficients.

    The step is run backward only below a switch index J.  Above it V_j is
    a short sum: V_j = sum_k u_k q^(jk) mod q^(N-j) takes only the u_k
    with jk < N - j (for j >= N/2 it is u_0 = 1, 2, 3, ..., N - j).  So
    u_0, u_1, ... are made by the recursion, u_k kept to the N - J - kJ
    coefficients V_J needs, and each is added into V_J at offset kJ and
    into V_(J+1) at offset k(J+1) as soon as it is made; only u_(k-1) and
    u_(k-2) stay alive, so memory stays O(N).  The backward step then runs
    from J - 1 down to 1, while j < N - j dividing by 1 - q^j twice.

    Each backward step costs about 3N coefficient operations (the right
    side and two divisions).  The k-th summand is kept to N - J - kJ
    coefficients and costs about three operations per coefficient, so the
    fewer than N/J summands cost about 3N^2/(2J), half of 3N each, and
    their additions into V_J and V_(J+1) about N^2/J in all.  The cost
    3JN + 5N^2/(2J) is least at J = sqrt(5N/6), where it is about
    5.5 N^(3/2) operations, against about 5N^2/4 for running the backward
    step from j = N - 2 (at N = 5001, 1.9 million against 31 million).
    J = isqrt(5N/6) lies in [1, N - 1] for every N >= 2.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    if n_terms == 1:
        return Sequence(0, (1,))
    return _lconvex_area(n_terms, isqrt(5 * n_terms // 6))


def _lconvex_area(n_terms: int, top: int) -> Sequence:
    """gen_lconvex_area with V_top and V_(top+1) summed directly from the
    u_k and the backward step run from top - 1; 1 <= top < n_terms."""
    n = n_terms
    u_prev2, u_prev1 = [1] + [0] * n, list(range(1, n - top + 1))  # u_(-1), u_0
    v_next, v_next2 = u_prev1[:], u_prev1[: n - top - 1]  # V_top, V_(top+1)
    for k in range(1, (n - 1) // top):  # the k with k top < n - top
        u = u_prev1[: n - top - k * top]
        u = [*map(sub, map(add, u, u), u_prev2)]
        div_one_minus_qm(u, k + 1, 2)
        v_next[k * top :] = map(add, v_next[k * top :], u)
        v_next2[k * (top + 1) :] = map(add, v_next2[k * (top + 1) :], u)
        u_prev2, u_prev1 = u_prev1, u
    for j in range(top - 1, 0, -1):
        # 1 - q^j + 2q V_(j+1) - q^2 V_(j+2), kept to N - j coefficients
        rest = v_next[1:]
        v = [1, 2 * v_next[0], *map(sub, map(add, rest, rest), v_next2)]
        if j < len(v):
            v[j] -= 1
            div_one_minus_qm(v, j, 2)
        v_next2, v_next = v_next, v
    # A = 1 + q V_1 - q^2 V_2
    rest = v_next[1:]
    return Sequence(0, (1, v_next[0], *map(sub, rest, v_next2)))


def gen_stack_area(n_terms: int) -> Sequence:
    """Stack polyominoes (unimodal bargraphs) by area: 1, 2, 4, 8, 15, ... (offset 1).

    S(q) = sum_{n>=1} q^n / ( (q;q)_(n-1) (q;q)_n ) sums to

        S(q) = N(q) / (q;q)_inf^2 = N(q) (q;q)_inf / (q;q)_inf^3,

    with N(q) = q - q^3 + q^6 - q^10 + ..., the alternating series over the
    triangular numbers k(k+1)/2 (Auluck 1951; Wright, "Stacks", 1968).  The
    numerator is a product of two sparse series, about sqrt(2N) and
    2 sqrt(2N/3) terms below q^N, taken pair by pair in about 2.3N small
    additions.  By Jacobi's identity (q;q)_inf^3 is sparse too, so the one
    division, `div_q_infinity_cubed`, takes about sqrt(2n) weighted taps
    per coefficient: about 0.94 N^(3/2) big-integer products and as many
    additions, against 2.2 N^(3/2) additions for two divisions by
    (q;q)_inf and 1.5 N^2 for carrying the summands q^n / ((q;q)_(n-1)
    (q;q)_n) one by one.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    euler = q_infinity_terms(n_terms)
    out = [0] * n_terms  # out[j - 1] is the coefficient of q^j
    k = 1
    while k * (k + 1) // 2 <= n_terms:
        t, sign = k * (k + 1) // 2, 1 if k % 2 else -1
        for g, c in euler:
            if t + g > n_terms:
                break
            out[t + g - 1] += sign * c
        k += 1
    div_q_infinity_cubed(out)
    return Sequence(1, tuple(out))


@dataclass(frozen=True)
class LaurentSeries:
    """Finite Laurent expansion: coeffs[i] multiplies x^(offset + i)."""

    offset: int
    coeffs: tuple[int | Fraction, ...]

    def to_sequence(self) -> Sequence:
        return Sequence(self.offset, self.coeffs)


def expand_rational(num: Poly, den: Poly, n_terms: int) -> LaurentSeries:
    """Laurent expansion of num/den around x = 0 with explicit offset.

    The offset is val(num) - val(den); the den must be nonzero.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return LaurentSeries(0, TruncSeries.from_poly(num, n_terms).coeffs)
    v_num, v_den = num.valuation, den.valuation
    num_s = TruncSeries.from_poly(Poly(num.coeffs[v_num:]), n_terms)
    den_s = TruncSeries.from_poly(Poly(den.coeffs[v_den:]), n_terms)
    return LaurentSeries(v_num - v_den, (num_s * den_s.inverse()).coeffs)


def gen_lconvex_perimeter(n_terms: int) -> Sequence:
    """L-convex polyominoes by half-perimeter minus 2: 1, 2, 7, 24, 82, ...

    Rational generating function (1-x)^2 / (2(1-x)^2 - 1); from the third
    term on, a(n) = 4 a(n-1) - 2 a(n-2).
    """
    num = Poly([1, -2, 1])
    den = Poly([1, -4, 2])
    return expand_rational(num, den, n_terms).to_sequence()


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def _is_l_convex(rows: list[tuple[int, int]]) -> bool:
    """rows[i] = (start, end) half-open; all rows nonempty, consecutive overlap."""
    m = len(rows)
    # vertical convexity: each column's covering rows must be contiguous
    lo = min(s for s, _ in rows)
    hi = max(e for _, e in rows)
    for c in range(lo, hi):
        seen = [i for i in range(m) if rows[i][0] <= c < rows[i][1]]
        if seen and seen[-1] - seen[0] + 1 != len(seen):
            return False
    # one-turn paths: for each cell pair, a row-then-column or
    # column-then-row staircase must stay inside
    cells = [(i, c) for i in range(m) for c in range(rows[i][0], rows[i][1])]
    for (r1, c1) in cells:
        for (r2, c2) in cells:
            if r1 == r2 or c1 == c2:
                continue  # straight segment, inside by row/column convexity
            # path via corner (r1, c2)
            ok_a = rows[r1][0] <= c2 < rows[r1][1] and all(
                rows[r][0] <= c2 < rows[r][1]
                for r in range(min(r1, r2), max(r1, r2) + 1)
            )
            if ok_a:
                continue
            # path via corner (r2, c1)
            ok_b = rows[r2][0] <= c1 < rows[r2][1] and all(
                rows[r][0] <= c1 < rows[r][1]
                for r in range(min(r1, r2), max(r1, r2) + 1)
            )
            if not ok_b:
                return False
    return True


def enum_lconvex_bruteforce(n_max: int, budget: int = 5_000_000) -> Sequence:
    """Count L-convex polyominoes of areas 1..n_max by direct enumeration.

    Fixed polyominoes: translates are identified, rotations/reflections are
    counted separately.  Shapes are built row by row as intervals (L-convex
    implies row and column convexity), with the first row pinned to start at
    column 0 as the translation normal form, and then filtered by the
    one-turn path test.  Intended for small n_max (about 10).
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    counts = [0] * (n_max + 1)
    nodes = 0

    def recurse(rows: list[tuple[int, int]], area: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"node budget {budget} exceeded")
        if _is_l_convex(rows):
            counts[area] += 1
        prev_s, prev_e = rows[-1]
        room = n_max - area
        for length in range(1, room + 1):
            for start in range(prev_s - length + 1, prev_e):
                rows.append((start, start + length))
                recurse(rows, area + length)
                rows.pop()

    for length in range(1, n_max + 1):
        recurse([(0, length)], length)
    return Sequence(1, tuple(counts[1:]))


def enum_stack_bruteforce(n_max: int, budget: int = 5_000_000) -> Sequence:
    """Count unimodal compositions of 1..n_max by direct enumeration.

    A stack polyomino is a bargraph whose column heights weakly rise then
    weakly fall; by columns it is exactly a unimodal composition of the area.
    Each composition is generated once: the rising phase is the maximal
    weakly rising prefix.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    counts = [0] * (n_max + 1)
    nodes = 0

    def recurse(total: int, last: int, rising: bool):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"node budget {budget} exceeded")
        counts[total] += 1
        for v in range(1, n_max - total + 1):
            if rising and v >= last:
                recurse(total + v, v, True)
            elif v <= last:
                recurse(total + v, v, False)

    for v in range(1, n_max + 1):
        recurse(v, v, True)
    return Sequence(1, tuple(counts[1:]))


def _cmp(a: int, b: int) -> int:
    return (a > b) - (a < b)


def _cmp_set(values: int, rel: int) -> int:
    """Bitmask of the u >= 0 with _cmp(u, v) == rel for some v in the
    bitmask `values` (infinite above when rel > 0, as a negative int)."""
    if rel == 0 or not values:
        return values
    if rel < 0:  # below the highest v
        return (1 << values.bit_length() - 1) - 1
    return -1 << (values & -values).bit_length()  # above the lowest v


def enum_ascent_avoiding(pattern: str, n_max: int, budget: int = 50_000_000) -> Sequence:
    """Count ascent sequences of lengths 0..n_max avoiding `pattern`.

    An ascent sequence starts with 0 and each later letter lies in
    [0, 1 + number of strict ascents of the preceding prefix].  The pattern
    is a digit string such as "201"; only the order of its digits counts,
    so "301" is the same pattern.  Containment is by order-isomorphic
    subsequence; repeated pattern letters demand equal values.  Patterns up
    to length 3 are supported.

    201 and every spelling of it ("301", "312", ...) are counted by the
    state recursion of count_201_ascent; every other pattern by a
    depth-first search over the avoiding prefixes (_walk_ascent_avoiding).
    Neither uses a guessed model.  The budget bounds the avoiding prefixes
    of lengths 1..n_max, the sum of counts[1:], on both paths: the search
    raises BudgetExceeded when it visits more, and the recursion when the
    counts of the lengths made so far add up to more, so a call raises
    on one path exactly when it would on the other.
    """
    if not (isinstance(pattern, str) and pattern.isascii() and pattern.isdigit()):
        raise ValueError(f"pattern must be a digit string such as '201' or '012' "
                         f"(an int loses leading zeros), got {pattern!r}")
    ranks = {ch: r for r, ch in enumerate(sorted(set(pattern)))}
    p = [ranks[ch] for ch in pattern]
    if len(p) > 3:
        raise ValueError("patterns longer than 3 are not supported")
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    if p != [2, 0, 1]:
        return _walk_ascent_avoiding(p, n_max, budget)
    counts, prefixes = [1], 0
    for c in islice(_ascent_201_counts(), n_max):
        prefixes += c
        if prefixes > budget:
            raise BudgetExceeded(f"node budget {budget} exceeded")
        counts.append(c)
    return Sequence(0, tuple(counts))


def _walk_ascent_avoiding(p: list[int], n_max: int, budget: int) -> Sequence:
    """enum_ascent_avoiding by depth-first search, for the pattern p given
    by the ranks of its letters (201 is [2, 0, 1]) and n_max >= 0.

    Each prefix carries the bitmask of its letter values and the bitmask
    `banned` of the letters that would complete an occurrence after it, so
    a child is one bit test.  Raises BudgetExceeded when the search visits
    more than `budget` avoiding prefixes of lengths 1..n_max.
    """
    counts = [0] * (n_max + 1)
    counts[0] = 1
    if n_max == 0 or len(p) == 1:
        # any single letter is an occurrence of a 1-letter pattern, so only
        # the empty sequence avoids one
        return Sequence(0, tuple(counts))

    # appending y bans the x with _cmp(x, y) == tail; a 3-letter pattern
    # also needs a letter v1 before y with _cmp(v1, y) == r12 and
    # _cmp(x, v1) == r31
    tail = _cmp(p[-1], p[-2])
    r12, r31 = _cmp(p[0], p[1]), _cmp(p[-1], p[0])
    three = len(p) == 3

    def bans(prefix: int, y: int) -> int:
        ban = _cmp_set(1 << y, tail)
        if three:
            ban &= _cmp_set(prefix & _cmp_set(1 << y, r12), r31)
        return ban

    nodes = 0

    def recurse(depth: int, last: int, asc: int, prefix: int, banned: int):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise BudgetExceeded(f"node budget {budget} exceeded")
        counts[depth] += 1
        if depth == n_max:
            return
        for y in range(asc + 2):
            if not banned >> y & 1:
                recurse(depth + 1, y, asc + (y > last), prefix | 1 << y,
                        banned | bans(prefix, y))

    recurse(1, 0, 0, 1, bans(0, 0))  # the prefix is the initial letter 0
    return Sequence(0, tuple(counts))


def count_201_ascent(n_max: int) -> Sequence:
    """201-avoiding ascent sequences of lengths 0..n_max: 1, 1, 2, 5, 15,
    52, 201, 843, ... (offset 0), in O(n_max^3) big-integer additions.

    An occurrence of 201 is a letter x, a later y < x and a later z with
    y < z < x.  So appending y to a prefix whose maximum is M bans exactly
    the letters strictly between y and M (none when y >= M): every banned
    letter lies below M, and the letters above M are never banned.  Let L
    be the last letter and asc the number of ascents; the next letter is
    any of 0..asc + 1 not yet banned.  Appending L banned every letter
    strictly between L and M, so the allowed letters are

        b letters below L, L itself, M when L < M, and the
        k = asc + 1 - M letters M + 1, ..., asc + 1 above M,

    and the next step goes from state (b, k, L < M) to one of

        a letter below L, the one with i allowed letters below it
            (0 <= i < b): no ascent; it bans L and the allowed letters
            between it and L, and is below M; (i, k, L < M);
        L again: the state is unchanged;
        M, when L < M: an ascent that bans nothing; (b + 1, k + 1, L = M);
        a new maximum M + t, 1 <= t <= k: an ascent that bans nothing;
            (b + [L < M] + t, k + 1 - t, L = M).

    So the number of completions of a prefix depends only on its state,
    and the counts of the prefixes of one length in each state determine
    those of the next.  They are kept as two triangles of ints, `low`
    (L = M) and `high` (L < M), with row k - 1 holding b = 0, 1, ...; a
    prefix of length n has b + k <= n.  Going a letter further, a letter
    below L takes the entries of both triangles at (b, k) with b > i to
    high's (i, k) (a suffix sum along b), and M and the new maxima, M
    being t = 0 from L < M, take the entries at (b, k) to low's entries on
    the antidiagonal b' + k' = b + k + 1 + [L < M] with b' > b (a prefix
    sum along the antidiagonal).  So a length costs O(n^2) additions, made
    in C by map and accumulate.

    The count is exact and independent of any guessed model; it has no
    budget (compare enum_ascent_avoiding, which runs _ascent_201_counts for
    201 under its prefix budget).
    """
    if n_max < 0:
        raise ValueError("need n_max >= 0")
    return Sequence(0, (1, *islice(_ascent_201_counts(), n_max)))


def _ascent_201_counts() -> Iterator[int]:
    """Yield the 201-avoiding ascent sequence counts of lengths 1, 2, ...
    by the state recursion of count_201_ascent."""
    low, high = [[1]], [[0]]  # the sequence 0: b = 0, k = 1, L = M
    while True:
        yield sum(map(sum, low)) + sum(map(sum, high))
        n = len(low)  # the prefix length; row k - 1 holds b = 0..n - k
        # into L = M: L again, or a step to M or a new maximum.  carry[b]
        # counts those steps that land at (b, k): t = 1 from (b - 1, k,
        # L = M), M from (b - 1, k - 1, L < M), and, with t one higher,
        # each step that lands at (b - 1, k + 1); built from k = n + 1 down
        carry = [0]
        new_low = [carry]
        for i in range(n - 1, -1, -1):
            run = map(add, low[i], carry)
            if i:
                run = map(add, run, high[i - 1])
            carry = [0, *run]
            new_low.append([*map(add, low[i], carry), carry[-1]])
        new_low.reverse()
        # into L < M: L again, or a letter below L from any later b
        new_high = []
        for lo, hi in zip(low, high):
            tails = [*accumulate(map(add, reversed(lo), reversed(hi)))]
            new_high.append([*map(add, hi, reversed(tails[:-1])), hi[-1], 0])
        new_high.append([0])
        low, high = new_low, new_high
