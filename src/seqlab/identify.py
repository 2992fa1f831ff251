"""Recognition of high-precision real constants.

Three escalating strategies: continued-fraction rational reconstruction,
rational multiples of a fixed ordered table of common irrationals, and
integer minimal polynomials found by exact LLL reduction of one lattice
grown a row per degree.  Each search runs on integers: the continued
fraction on the value's exact binary fraction, LLL on fraction-free Gram
data.  The value enters an HpContext through HpContext.mpf, and the
bound, tolerances and lattice scale come from it.  Every identification is
re-verified numerically; its certified digits are those it and x share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .errors import PrecisionTooLow, RankDeficient
from .fixed import HpContext, _read_number
from .series import Poly


@dataclass(frozen=True)
class Identification:
    """A recognized constant: what it is, and to how many digits it checks out.

    kind is "dictionary-multiple" and payload the (multiplier-tag, Fraction)
    pair (tag, p/q) meaning x = (p/q) * multiplier, the text str() gives.
    """

    kind: str
    payload: tuple[str, Fraction]
    certified_digits: int

    def __str__(self) -> str:
        tag, frac = self.payload
        return f"({frac}) * {tag}"


# The multipliers identify_with_multipliers tries, in order: (tag, builder),
# each value built at the working precision.
_MULTIPLIERS = (
    ("1", lambda: mpmath.mp.one),
    ("sqrt(2)", lambda: mpmath.sqrt(2)),
    ("sqrt(3)", lambda: mpmath.sqrt(3)),
    ("sqrt(5)", lambda: mpmath.sqrt(5)),
    ("pi", lambda: +mpmath.pi),
    ("sqrt(pi)", lambda: mpmath.sqrt(mpmath.pi)),
    ("1/pi", lambda: 1 / mpmath.pi),
    ("pi^2", lambda: mpmath.pi**2),
    ("2^(1/3)", lambda: mpmath.cbrt(2)),
    ("3^(1/3)", lambda: mpmath.cbrt(3)),
)


def working_context(digits: int) -> HpContext:
    """The working precision of each search here, and of the CLI's --value,
    for a value certified to `digits` digits: max(digits, 15) digits."""
    return HpContext(max(digits, 15))


def _rational(x, maxden: int, bound: int, tol, ctx: HpContext) -> Optional[Fraction]:
    """_search's test of a finite mpf x under ctx.work().  The candidate is
    Fraction.limit_denominator's, by its loop on the ints of x = n0/d0 (odd
    mantissa, so in lowest terms), keeping its floor of the signed numerator
    and its p1/q1 at a tie: -5/2 at maxden 1 gives -3/1.  p < bound fits in
    prec bits, so ctx.mpf(p) is exact."""
    sign, man, exp, _ = x._mpf_
    n0, d0 = (-man if sign else man) << max(exp, 0), 1 << max(-exp, 0)
    p, q = n0, d0
    if d0 > maxden:
        p0, q0, p, q, n, d = 0, 1, 1, 0, n0, d0
        while True:
            a = n // d
            if q0 + a * q > maxden:
                break
            p0, q0, p, q = p, q, p0 + a * p, q0 + a * q
            n, d = d, n - a * d
        k = (maxden - q0) // q
        pa, qa = p0 + k * p, q0 + k * q
        if abs(pa * d0 - n0 * qa) * q < abs(p * d0 - n0 * q) * qa:
            p, q = pa, qa
    if p == 0 and x != 0 or abs(p) >= bound:
        return None
    return Fraction(p, q) if abs(x - ctx.mpf(p) / q) < tol else None


def _search(x, maxden: int, digits: int, multipliers) -> Optional[Identification]:
    """The candidate loop: for each multiplier m in turn, _rational's p/q
    for y = x/m, kept when |m (y - p/q)| certifies digits - 4 digits; one
    entry, bound and tolerance per call, from working_context(digits)."""
    if maxden < 1:
        raise ValueError(f"need maxden >= 1, got {maxden}")
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")
    ctx = working_context(digits)
    with ctx.work():
        x = ctx.mpf(x)
        if not mpmath.isfinite(x):
            return None
        bound, tol = 10 ** (ctx.digits + ctx.guard), ctx.mpf(10) ** (4 - digits)
        for tag, build in multipliers:
            m = build()
            y = x / m
            frac = _rational(y, maxden, bound, tol, ctx)
            if frac is not None:
                # at m = 1, err is the difference _rational accepted, below
                # 10^(4 - digits), so int(-log10 err) >= digits - 4: the check
                # passes, and identify_rational returns what this row finds
                err = abs(m * (y - ctx.mpf(frac.numerator) / frac.denominator))
                cert = digits if err == 0 else min(digits, int(-mpmath.log10(err)))
                if cert >= digits - 4:
                    return Identification("dictionary-multiple", (tag, frac), cert)
    return None


def identify_rational(x, maxden: int = 1000, *, digits: int) -> Optional[Fraction]:
    """Best rational p/q with q <= maxden, if it matches x to nearly full digits.

    The row "1" of identify_with_multipliers's search: x (a number, or text
    as the CLI reads it) enters working_context(digits) by HpContext.mpf,
    and the continued-fraction best approximation, found on integers, is
    accepted only when |x - p/q| < 10^(4 - digits), where `digits` is the
    number of digits x is certified to.  A nonzero x never identifies as 0:
    a zero candidate returns None, as does a candidate whose numerator has
    more digits than the working precision (the rest are rounding noise),
    and a non-finite x.  ValueError when maxden or digits is below 1.
    """
    ident = _search(x, maxden, digits, _MULTIPLIERS[:1])
    return None if ident is None else ident.payload[1]


def identify_with_multipliers(x, maxden: int = 1000, *, digits: int) -> Optional[Identification]:
    """First multiplier m of _MULTIPLIERS with x/m a certified rational, by
    identify_rational's test at `digits` digits (text as the CLI reads it).

    Returns an Identification with payload (tag, p/q) meaning x = (p/q) * m,
    or None when no entry matches within the precision bound; ValueError
    when maxden or `digits` is below 1.
    """
    return _search(x, maxden, digits, _MULTIPLIERS)


# ---------------------------------------------------------------------------
# exact LLL reduction and minimal polynomials
# ---------------------------------------------------------------------------

def _gram_row(b: list, d: list, lam: list) -> None:
    """Append d[i + 1] and lam[i] of row i = len(lam) of b, by exact division
    from those of the rows before it; RankDeficient when it depends on them."""
    i = len(lam)
    lam.append([])
    for j in range(i + 1):
        u = sum(x * y for x, y in zip(b[i], b[j]))
        for m in range(j):
            u = (d[m + 1] * u - lam[i][m] * lam[j][m]) // d[m]
        if j < i:
            lam[i].append(u)
        elif u == 0:
            raise RankDeficient("basis rows are linearly dependent")
    d.append(u)


def _reduce(b: list, d: list, lam: list, k: int, num: int, den: int) -> None:
    """The LLL loop on rows b with Gram data (d, lam) from row k on, in
    place, with delta = num/den."""
    n = len(b)
    while k < n:
        for j in range(k - 1, -1, -1):
            if 2 * abs(lam[k][j]) > d[j + 1]:
                # nearest integer to lam / d (d > 0), ties to even
                q, r = divmod(lam[k][j], d[j + 1])
                if 2 * r > d[j + 1] or (2 * r == d[j + 1] and q & 1):
                    q += 1
                b[k] = [a - q * c for a, c in zip(b[k], b[j])]
                for m in range(j):
                    lam[k][m] -= q * lam[j][m]
                lam[k][j] -= q * d[j + 1]
        lk = lam[k][k - 1]
        if den * d[k + 1] * d[k - 1] >= num * d[k] ** 2 - den * lk**2:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            dk = (d[k - 1] * d[k + 1] + lk**2) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lk * t) // d[k]
                lam[i][k - 1] = (dk * t + lk * lam[i][k]) // d[k + 1]
            d[k] = dk
            k = max(k - 1, 1)


def lll_reduce(basis: list[list[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """LLL-reduce integer basis rows with parameter delta, exactly.

    The integral LLL of de Weger (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7): d[i] is the Gram determinant of the first i
    rows (the product of their squared Gram-Schmidt norms, d[0] = 1) and
    lam[i][j] = d[j + 1] * mu[i][j] for j < i.  Both are integers, set up
    row by row by exact division (_gram_row) and updated in O(n) per swap
    by the reduction loop (_reduce, run from k = 1), so size-reduction and
    the Lovasz condition are decided exactly and the output provably
    satisfies them; raises RankDeficient on linearly dependent input rows.
    delta is read as the CLI reads a number (fixed._read_number) and must
    lie in (1/4, 1], the domain of LLL: above 1 the Lovasz test never
    passes, and at 1/4 or below it always does.
    """
    delta = _read_number("delta", delta)
    if not Fraction(1, 4) < delta <= 1:
        raise ValueError(f"need 1/4 < delta <= 1, got {delta}")
    b = [list(map(int, row)) for row in basis]
    if not b or len({len(r) for r in b}) != 1:
        raise ValueError("basis must be a non-empty rectangular integer matrix")
    d, lam = [1], []
    for _ in b:
        _gram_row(b, d, lam)
    _reduce(b, d, lam, 1, delta.numerator, delta.denominator)
    return b


def min_poly(x, maxdeg: int, digits: int) -> Optional[Poly]:
    """Integer polynomial of minimal degree <= maxdeg with x as a near-root.

    Searches the integer-relation lattices [identity | round(10^(digits-10)
    x^i)] of degrees 1, 2, ... in turn, so the first verified hit has
    minimal degree.  All degrees share one growing lattice: the degree d+1
    basis is the LLL-reduced degree-d basis with a zero inserted before each
    row's last entry, plus the row e_(d+1) | round(10^(digits-10) x^(d+1)).
    Each reduced row is an integer unimodular combination of the degree-d
    rows, and those rows padded with a zero are rows 0..d of the fresh
    degree-(d+1) basis, so the grown basis spans the same lattice.  The
    identity block keeps the rows independent for every x, so they never
    raise RankDeficient.  lll_reduce's state (b, d, lam) is carried across
    degrees: a zero coordinate inserted in every row leaves the old rows'
    inner products, so their d and lam, unchanged; only the new row is set
    up, and the loop runs from k = d + 1.  The old rows met size-reduction
    and the Lovasz condition when the previous loop ended and nothing has
    touched them since, so a loop from k = 1 would pass over them without
    one operation: the basis is lll_reduce's of the grown basis.

    x (a number, or text as the CLI reads it) enters
    working_context(digits) by HpContext.mpf, and the scale, the bound
    10^(digits + guard) and the tolerance come from that context.  A
    candidate p is accepted only if |p(x)| < 10^(5 - digits) * ||p||_inf *
    max(1, |x|)^deg, a threshold a few orders above evaluation roundoff but
    far below the residual of any accidental lattice relation at this
    scaling; for x != 0 a candidate with p(0) = 0 is skipped, since p = x q
    makes q a relation of lower degree, and so is one with a coefficient at
    the bound or above, noise past the working precision.  Returns None if
    no degree yields a verified relation (so also for a non-finite x);
    raises ValueError when maxdeg < 1 and PrecisionTooLow when digits is too
    small to separate the two regimes (digits < 10 * (maxdeg + 1)).
    """
    if maxdeg < 1:
        raise ValueError(f"need maxdeg >= 1, got {maxdeg}")
    if digits < 10 * (maxdeg + 1):
        raise PrecisionTooLow(
            f"need at least {10 * (maxdeg + 1)} digits for degree {maxdeg}"
        )
    ctx = working_context(digits)  # digits >= 20, so max(digits, 15) = digits
    with ctx.work():
        x = ctx.mpf(x)
        if not mpmath.isfinite(x):
            return None
        grow = max(ctx.mpf(1), abs(x))
        tol, bound = ctx.mpf(10) ** (5 - digits), 10 ** (ctx.digits + ctx.guard)
        scale = ctx.mpf(10) ** (digits - 10)
        b, d, lam = [[1, int(mpmath.nint(scale))]], [1], []
        _gram_row(b, d, lam)
        for deg in range(1, maxdeg + 1):
            for row in b:
                row.insert(-1, 0)
            b.append([0] * deg + [1, int(mpmath.nint(scale * x**deg))])
            _gram_row(b, d, lam)
            _reduce(b, d, lam, deg, 3, 4)
            threshold = tol * grow**deg
            for vec in sorted(b, key=lambda r: sum(c * c for c in r[:-1])):
                coeffs = vec[: deg + 1]
                if not any(coeffs[1:]) or (x and not coeffs[0]):
                    continue
                p = Poly(coeffs).primitive()
                norm = max(map(abs, p.coeffs))
                if norm < bound and abs(p(x)) < threshold * norm:
                    return p
    return None
