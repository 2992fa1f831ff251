"""Conjecturing exact structure from initial terms.

Given the first terms of an integer sequence, search for

* a linear recurrence with polynomial coefficients (``guess_prec``),
* an algebraic equation P(x, y) = 0 for the generating function
  (``guess_algeq``),

by elimination modulo the Mersenne prime p = 2^61 - 1.  The elimination
packs each column's residues into the slots of one integer, so each step
is one big-integer multiply-add and the slots are reduced mod p together,
by 2^61 = 1 mod p (``_ModSpan``).  A shape of nullity 1 mod p has its
relation lifted to the integers by rational reconstruction, any other
rank-deficient shape is solved by exact integer nullspace computation
(fraction-free Gaussian elimination).  Both run one shape search,
``_search``, with one attempt rule: a shape with k unknowns is attempted
only when it has at least k + `margin` equations, so `margin` counts the
spare equations beyond the unknowns (default 0 for ``guess_prec``, 3 for
``guess_algeq``).  Only the equations that each shape contributes
differ.  Every candidate is checked, or solved, exactly over all of its
shape's equations, so every returned model annihilates every supplied
term.  The models and everything that acts on them live in
``seqlab.dfinite``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Sequence as SeqABC

from .dfinite import AlgEq, PRecurrence
from .errors import InsufficientTerms
from .sequences import Sequence
from .series import Poly, mul_trunc, primitive_int


# ---------------------------------------------------------------------------
# exact nullspace
# ---------------------------------------------------------------------------

_RANK_PRIME = (1 << 61) - 1


class _ModSpan:
    """The span, modulo a Mersenne prime p = 2^k - 1, of the columns added
    so far.

    Each independent column is reduced by the earlier ones, so it vanishes
    at their pivot rows, and scaled to 1 at its own pivot, its first
    nonzero entry.  ``len(basis)`` is the rank mod p of every column in
    `seen`.

    Rows are packed: entry i of an n-row column is slot i, bits
    [w*i, w*(i + 1)), of one int, with the slot width w a whole number of
    bytes and w >= 2k + 1 + bit_length(n), fixed at the first column; every
    column has the first column's n rows.  A column is packed once, its
    entries reduced mod p; a basis vector b is stored as the int whose
    slots hold p - b_i.  Each elimination step reads the multiplier f from
    the pivot slot, mod p, and adds f times the stored vector: one
    big-integer multiply-add, which changes every slot by -f*b_i mod p.  No
    slot overflows into the next: it starts below p, each step adds
    f*(p - b_i) < 2^(2k), and a column meets at most n steps, one per pivot
    row, so every slot stays below (n + 1) * 2^(2k) <= 2^(2k + bit_length(n))
    < 2^w.  At the end every slot is reduced mod p at once, by the Mersenne
    identity 2^k = 1 mod p.

    Every column keeps its multipliers, one per earlier basis vector, so a
    column that reduces to zero is a known combination of the basis, and
    back substitution through the basis vectors' own multipliers writes it
    as a combination of the columns that were added (``relation``).
    """

    def __init__(self, p: int):
        if p < 3 or p & (p + 1):
            raise ValueError(f"need a Mersenne prime 2^k - 1, got {p}")
        self.p, self.basis, self.dependent, self.seen = p, [], [], set()
        self.k, self.width = p.bit_length(), None

    def _layout(self, n: int) -> None:
        """Fix the slot width for n rows, and the masks that repeat a
        pattern in every slot."""
        k = self.k
        self.nbytes = -(-(2 * k + 1 + n.bit_length()) // 8)
        self.width = w = 8 * self.nbytes
        self.ones = int.from_bytes(b"\x01".ljust(self.nbytes, b"\x00") * n, "little")
        self.low = self.ones * self.p  # the low k bits: p itself in each slot
        self.rest = self.ones * ((1 << w - k) - 1)
        self.high = self.ones * ((1 << w) - (1 << k))

    def _reduce(self, v: int) -> int:
        """Every slot of v mod p.  (x & p) + (x >> k) = x mod p, and it is
        below x for any x >= 2^k, so repeating it leaves each slot at most
        p; a slot equal to p is the one where x + 1 has bit k set."""
        k, low, rest = self.k, self.low, self.rest
        while v & self.high:
            v = (v & low) + (v >> k & rest)
        return v - (v + self.ones >> k & self.ones) * self.p

    def add(self, key, col: SeqABC[int]) -> None:
        p = self.p
        if self.width is None:
            self._layout(len(col))
        self.seen.add(key)
        w, nbytes = self.width, self.nbytes
        mask = (1 << w) - 1
        v = int.from_bytes(b"".join([(e % p).to_bytes(nbytes, "little") for e in col]),
                           "little")
        mults = []
        for piv, neg, _, _, _ in self.basis:
            f = (v >> w * piv & mask) % p
            mults.append(f)
            if f:
                v += f * neg
        v = self._reduce(v)
        if not v:
            self.dependent.append((key, mults))
        else:
            piv = ((v & -v).bit_length() - 1) // w  # the lowest nonzero slot
            inv = pow(v >> w * piv & mask, -1, p)
            self.basis.append((piv, self.low - self._reduce(v * inv), key, mults, inv))

    def relation(self, key, mults: SeqABC[int]) -> dict:
        """Coefficients mod p, by key, of a vanishing combination of the
        added columns: 1 on the dependent column `key`, which reduced to
        zero with these multipliers, and the rest on basis columns."""
        p = self.p
        rel = {key: 1}
        w = [-f for f in mults]  # coefficients on the basis vectors
        for i in reversed(range(len(w))):
            c = w[i] % p
            if c:
                _, _, k, ms, inv = self.basis[i]
                rel[k] = c = c * inv % p
                for j, f in enumerate(ms):
                    if f:
                        w[j] -= c * f
        return rel


def _rational(a: int, p: int) -> Optional[Fraction]:
    """The fraction n/d = a mod p with |n|, d < sqrt(p/2), or None.

    Such a fraction is unique when it exists; the extended Euclidean
    algorithm on (p, a), stopped at the first remainder below the bound,
    finds it.
    """
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _lift(span: _ModSpan, cols: SeqABC, columns: SeqABC[SeqABC[int]]) -> Optional[list[int]]:
    """The primitive integer null vector of a shape of nullity 1 mod p,
    lifted from the span's relation, or None.

    Each coefficient is rational-reconstructed, the vector is made
    primitive, and ``sum_k v_k * columns[k]`` is checked to vanish in every
    row.  A vector that passes is exact, so the exact nullity is at least
    1; it is at most the nullity mod p, which is 1.  The vector then spans
    the exact nullspace, and ``primitive_int`` gives it the one normal form
    that ``integer_nullspace`` gives too.
    """
    rel = span.relation(*span.dependent[0])
    fracs = [_rational(rel.get(key, 0), span.p) for key in cols]
    if None in fracs:
        return None
    vec = primitive_int(fracs)
    acc = [0] * len(columns[0])
    for x, col in zip(vec, columns):
        if x:
            acc = [a + x * e for a, e in zip(acc, col)]
    return None if any(acc) else vec


def integer_nullspace(rows: SeqABC[SeqABC[int]], ncols: int) -> list[list[int]]:
    """Primitive integer basis of the right nullspace of an integer matrix.

    Exact: fraction-free (Bareiss) elimination, then rational back
    substitution per free column.
    """
    m = [list(r) for r in rows if any(r)]
    if not m:  # every vector: the identity basis
        return [[int(i == c) for i in range(ncols)] for c in range(ncols)]
    nrows = len(m)
    piv_cols: list[int] = []
    rank = 0
    prev = 1
    for c in range(ncols):
        if rank == nrows:
            break
        best = None
        for i in range(rank, nrows):
            e = m[i][c]
            if e and (best is None or abs(e) < abs(m[best][c])):
                best = i
        if best is None:
            continue
        m[rank], m[best] = m[best], m[rank]
        pr = m[rank]
        pv = pr[c]
        for i in range(rank + 1, nrows):
            ri = m[i]
            f = ri[c]
            for j in range(c + 1, ncols):
                ri[j] = (pv * ri[j] - f * pr[j]) // prev
            ri[c] = 0
        piv_cols.append(c)
        prev = pv
        rank += 1
    in_piv = set(piv_cols)
    basis = []
    for fc in (c for c in range(ncols) if c not in in_piv):
        v: list[Fraction] = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for i in reversed(range(rank)):
            pc = piv_cols[i]
            s = sum((m[i][j] * v[j] for j in range(pc + 1, ncols) if v[j]), Fraction(0))
            v[pc] = -s / m[i][pc]
        basis.append(primitive_int(v))
    return basis


def _bit_cost(polys: SeqABC[Poly]) -> int:
    return sum(abs(c).bit_length() for p in polys for c in p.coeffs)


def _search(n: int, families: range, degrees: range, equations, column, model,
            margin: int, grid: str):
    """The one shape search behind both guessers, and its one attempt rule.

    A shape (f, e) pairs a family f from `families` (the order r, or the
    y-degree dy) with a degree e from `degrees` (the coefficient degree d,
    or the x-degree dx); both ranges are clamped to the term count `n`, so
    a huge grid costs no more than an n-by-n one.  Shapes are visited in
    increasing f + e, then increasing f.  The unknowns of (f, e) are keyed
    (j, t) for j <= f and t <= e, in that order, so there are
    k = (f + 1)(e + 1) of them; ``column(rows, j, t)`` builds the column
    of (j, t) over the family's ``rows = equations(f)`` equations.  A
    shape is attempted only when rows >= k + margin: `margin` counts the
    spare equations beyond the unknowns, so at margin 0 a fit rests on the
    one equation beyond the k - 1 that any k unknowns satisfy.  Each
    vector of the exact nullspace of all the rows is split into the
    polynomials of (j, 0..e) and becomes ``model(polys)`` (skipped on
    ValueError).  The first shape with candidates returns the smallest
    one.  When no shape is attempted at all, InsufficientTerms names `n`,
    the `grid` and the margin.

    The shapes of a family share their rows, and each holds the columns of
    the family's earlier shapes, so one span mod _RANK_PRIME per family
    reduces each column once.  A shape whose rank mod p equals its column
    count is skipped before its rows are built.  Rank mod p is at most the
    exact rank, so the skip fires only when the exact system has full
    column rank and no solution: a true shape is never dropped.

    A shape of nullity 1 mod p takes its null vector from the span
    (``_lift``), checked exactly over every row; by the same rank argument
    a checked vector spans the exact nullspace.  Any other rank-deficient
    shape, or a failed lift, is solved by ``integer_nullspace`` on the
    same built columns.  A false modular positive (p divides a minor)
    costs the exact solve of that shape, and of its family's later shapes,
    and nothing else.
    """
    if margin < 0:
        raise ValueError("need margin >= 0")
    shapes = sorted(((f, e) for f in range(families.start, min(families.stop, n + 1))
                     for e in range(degrees.start, min(degrees.stop, n + 1))),
                    key=lambda fe: (fe[0] + fe[1], fe[0]))
    attempted = False
    spans: dict = {}
    for f, e in shapes:
        rows, k = equations(f), (f + 1) * (e + 1)
        if rows < k + margin:
            continue
        attempted = True
        cols = [(j, t) for j in range(f + 1) for t in range(e + 1)]
        span = spans.setdefault(f, _ModSpan(_RANK_PRIME))
        for key in cols:
            if key not in span.seen:
                span.add(key, column(rows, *key))
        if len(span.basis) == k:
            continue
        columns = [column(rows, *key) for key in cols]
        lifted = _lift(span, cols, columns) if len(span.basis) == k - 1 else None
        found = []
        for vec in [lifted] if lifted else integer_nullspace(list(zip(*columns)), k):
            try:
                found.append(model(tuple(Poly(vec[i : i + e + 1])
                                         for i in range(0, k, e + 1))))
            except ValueError:
                continue
        if found:
            return min(found, key=lambda m: _bit_cost(m.coeffs))
    if not attempted:
        raise InsufficientTerms(f"{n} terms are too few for every {grid}, margin {margin}")
    return None


# ---------------------------------------------------------------------------
# P-recurrence guessing
# ---------------------------------------------------------------------------

def guess_prec(
    terms: Sequence,
    rmax: int = 8,
    dmax: int = 4,
    margin: int = 0,
) -> Optional[PRecurrence]:
    """Search for a recurrence sum_j p_j(n) u(n+j) = 0 annihilating `terms`.

    Shapes (order r, coefficient degree d) are visited in increasing r + d,
    then increasing r.  A shape has k = (r + 1)(d + 1) unknowns and one
    equation per window, L - r for L terms; it is attempted only with at
    least k + `margin` windows (``_search``).  Each attempted shape is
    solved once, exactly, over all of its windows, so a returned recurrence
    annihilates every window; among several candidates the smallest total
    coefficient size wins.

    Returns None when the whole grid fails; raises InsufficientTerms when
    no shape in the grid had enough terms to be attempted at all, and
    ValueError when the grid is empty (rmax < 1 or dmax < 0) or margin < 0.
    """
    if rmax < 1:
        raise ValueError("need rmax >= 1")
    if dmax < 0:
        raise ValueError("need dmax >= 0")
    u, offset = terms.terms, terms.offset

    def column(rows: int, j: int, t: int) -> list[int]:  # u(n + j) * n^t, n = offset + w
        return [u[w + j] * (offset + w) ** t for w in range(rows)]

    return _search(len(u), range(1, rmax + 1), range(dmax + 1), lambda r: len(u) - r,
                   column, PRecurrence, margin,
                   f"recurrence shape with order <= {rmax}, degree <= {dmax}")


# ---------------------------------------------------------------------------
# algebraic equation guessing
# ---------------------------------------------------------------------------

def guess_algeq(
    terms: Sequence,
    dxmax: int = 12,
    dymax: int = 3,
    margin: int = 3,
) -> Optional[AlgEq]:
    """Search for P(x, y) = 0 satisfied by the generating function of `terms`.

    Degree shapes (dx, dy) are visited in increasing dx + dy, then
    increasing dy, so the returned equation is minimal in that ordering.
    A shape has k = (dx + 1)(dy + 1) unknowns and one equation per
    coefficient of x^0 .. x^(L-1) of P(x, y), for L supplied terms; it is
    attempted only when L >= k + `margin` (``_search``).  Each attempted
    shape is solved once, exactly, over all L equations, so a returned
    equation satisfies every supplied term.  The search is that of
    ``guess_prec``; only the equations differ.

    Returns None when the grid fails; raises InsufficientTerms when no
    shape could be attempted, and ValueError when the grid is empty
    (dxmax < 0 or dymax < 1), margin < 0 or the offset is not 0.
    """
    if dxmax < 0:
        raise ValueError("need dxmax >= 0")
    if dymax < 1:
        raise ValueError("need dymax >= 1")
    if terms.offset != 0:
        raise ValueError("generating-function guessing needs an offset-0 sequence")
    u = terms.terms
    powers = [[1] + [0] * (len(u) - 1)]  # powers[j] = y^j mod x^L, built on first use

    def column(rows: int, j: int, i: int) -> list[int]:  # x^i y^j: powers[j] shifted up by i
        while len(powers) <= j:
            powers.append(mul_trunc(powers[-1], u, rows))
        return ([0] * i + powers[j])[:rows]

    return _search(len(u), range(1, dymax + 1), range(dxmax + 1), lambda dy: len(u),
                   column, AlgEq, margin,
                   f"equation shape with x-degree <= {dxmax}, y-degree <= {dymax}")
