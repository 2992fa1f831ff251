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
(fraction-free Gaussian elimination).  Both run one shape search; only
the equations that each shape contributes differ.  Every candidate is
checked, or solved, exactly over all of its shape's equations, so every
returned model annihilates every supplied term; `margin` only sets the
attempt threshold on a shape's number of equations.  The models and
everything that acts on them live in ``seqlab.dfinite``.
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


def _search(shapes, system, model, too_few: str):
    """The one shape search behind both guessers.

    ``system(*shape)`` gives ``(family, width, cols, column)``, or None
    when the shape is not attempted: `cols` keys the unknowns in row order
    and ``column(key)`` builds one column of the equations.  Each vector of
    the exact nullspace of all the rows is split into polynomials of
    `width` coefficients and becomes ``model(polys)`` (skipped on
    ValueError).  The first shape with candidates returns the smallest one.

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
    attempted = False
    spans: dict = {}
    for shape in shapes:
        built = system(*shape)
        if built is None:
            continue
        attempted = True
        family, width, cols, column = built
        span = spans.setdefault(family, _ModSpan(_RANK_PRIME))
        for key in cols:
            if key not in span.seen:
                span.add(key, column(key))
        k = len(cols)
        if len(span.basis) == k:
            continue
        columns = [column(key) for key in cols]
        lifted = _lift(span, cols, columns) if len(span.basis) == k - 1 else None
        found = []
        for vec in [lifted] if lifted else integer_nullspace(list(zip(*columns)), k):
            try:
                found.append(model(tuple(Poly(vec[i : i + width])
                                         for i in range(0, k, width))))
            except ValueError:
                continue
        if found:
            return min(found, key=lambda m: _bit_cost(m.coeffs))
    if not attempted:
        raise InsufficientTerms(too_few)
    return None


# ---------------------------------------------------------------------------
# P-recurrence guessing
# ---------------------------------------------------------------------------

def guess_prec(
    terms: Sequence,
    rmax: int = 8,
    dmax: int = 4,
    margin: int = 4,
) -> Optional[PRecurrence]:
    """Search for a recurrence sum_j p_j(n) u(n+j) = 0 annihilating `terms`.

    Shapes (order r, coefficient degree d) are visited in increasing r + d,
    then increasing r.  Each attempted shape is solved once, exactly, over
    all of its windows, so a returned recurrence annihilates every window;
    among several candidates the smallest total coefficient size wins.
    `margin` sets the attempt threshold: a shape with k unknowns is
    attempted only when it has more than `margin` windows and at least k:
    k - 1 homogeneous equations in k unknowns always have a nonzero
    solution, so a fit rests on at least one spare equation.

    Returns None when the whole grid fails; raises InsufficientTerms when
    no shape in the grid had enough terms to be attempted at all, and
    ValueError when the grid is empty (rmax < 1 or dmax < 0).
    """
    if rmax < 1:
        raise ValueError("need rmax >= 1")
    if dmax < 0:
        raise ValueError("need dmax >= 0")
    if margin < 0:
        raise ValueError("need margin >= 0")
    seq_terms = terms.terms
    big_l = len(seq_terms)

    def system(r: int, d: int):
        n_win = big_l - r
        if n_win < max((r + 1) * (d + 1), margin + 1):
            return None

        def column(key):  # u(n + j) * n^t on the windows n = offset + w
            j, t = key
            return [seq_terms[w + j] * (terms.offset + w) ** t for w in range(n_win)]

        cols = [(j, t) for j in range(r + 1) for t in range(d + 1)]
        return r, d + 1, cols, column

    # no shape of order or degree above the term count is ever attempted
    shapes = sorted(
        ((r, d) for r in range(1, min(rmax, big_l) + 1)
         for d in range(min(dmax, big_l) + 1)),
        key=lambda rd: (rd[0] + rd[1], rd[0]),
    )
    return _search(
        shapes, system, PRecurrence,
        f"{big_l} terms are too few for every recurrence shape with "
        f"order <= {rmax}, degree <= {dmax}, margin {margin}",
    )


# ---------------------------------------------------------------------------
# algebraic equation guessing
# ---------------------------------------------------------------------------

def guess_algeq(
    terms: Sequence,
    dxmax: int = 12,
    dymax: int = 3,
    margin: int = 4,
) -> Optional[AlgEq]:
    """Search for P(x, y) = 0 satisfied by the generating function of `terms`.

    Degree shapes (dx, dy) are visited in increasing dx + dy, then
    increasing dy, so the returned equation is minimal in that ordering.
    Each attempted shape is solved once, exactly, over the coefficients of
    x^0 .. x^(L-1) of P(x, y) for L supplied terms, so a returned equation
    satisfies every supplied term.  `margin` sets the attempt threshold: a
    shape with k unknowns is attempted only when L >= k - 1 + max(margin, 1):
    k - 1 homogeneous equations in k unknowns always have a nonzero
    solution, so a fit rests on at least one spare equation.  The search is
    that of ``guess_prec``; only the equations differ.

    Returns None when the grid fails; raises InsufficientTerms when no
    shape could be attempted, and ValueError when the grid is empty
    (dxmax < 0 or dymax < 1).
    """
    if dxmax < 0:
        raise ValueError("need dxmax >= 0")
    if dymax < 1:
        raise ValueError("need dymax >= 1")
    if margin < 0:
        raise ValueError("need margin >= 0")
    if terms.offset != 0:
        raise ValueError("generating-function guessing needs an offset-0 sequence")
    u = terms.terms
    big_l = len(u)
    # no shape of a degree above the term count is ever attempted
    powers = [[1] + [0] * (big_l - 1)]
    for _ in range(min(dymax, big_l)):
        powers.append(mul_trunc(powers[-1], u, big_l))

    def system(dx: int, dy: int):
        if big_l < (dx + 1) * (dy + 1) - 1 + max(margin, 1):
            return None
        cols = [(j, i) for j in range(dy + 1) for i in range(dx + 1)]
        return dy, dx + 1, cols, column

    def column(key):  # x^i y^j: powers[j] shifted up by i
        j, i = key
        return ([0] * i + powers[j])[:big_l]

    shapes = sorted(
        ((dx, dy) for dx in range(min(dxmax, big_l) + 1)
         for dy in range(1, min(dymax, big_l) + 1)),
        key=lambda dd: (dd[0] + dd[1], dd[1]),
    )
    return _search(
        shapes, system, AlgEq,
        f"{big_l} terms are too few for every equation shape with "
        f"x-degree <= {dxmax}, y-degree <= {dymax}, margin {margin}",
    )
