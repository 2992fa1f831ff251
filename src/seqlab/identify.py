"""Recognition of high-precision real constants.

Three escalating strategies: continued-fraction rational reconstruction,
rational multiples of a fixed ordered table of common irrationals, and
integer minimal polynomials found by exact LLL lattice reduction.  Every
positive identification is re-verified numerically before being returned;
the certified-digits field records how many decimal digits the candidate
and the input actually share.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .errors import PrecisionTooLow, RankDeficient
from .fixed import HpContext
from .series import Poly


@dataclass(frozen=True)
class Identification:
    """A recognized constant: what it is, and to how many digits it checks out.

    kind is "dictionary-multiple" and payload the (multiplier-tag, Fraction)
    pair (tag, p/q) meaning x = (p/q) * multiplier.
    """

    kind: str
    payload: tuple[str, Fraction]
    certified_digits: int


# The multipliers identify_with_multipliers tries, in order: (tag, builder),
# each value built at the working precision.
_MULTIPLIERS = (
    ("1", lambda: mpmath.mpf(1)),
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
    """The working precision of identify_rational and identify_with_multipliers
    for a value certified to `digits` digits: max(digits, 15) digits."""
    return HpContext(max(digits, 15))


def _work(digits: int):
    """working_context(digits).work(); ValueError when digits is below 1."""
    if digits < 1:
        raise ValueError(f"need digits >= 1, got {digits}")
    return working_context(digits).work()


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        return Fraction(0)
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def _rational(x, maxden: int, digits: int) -> Optional[Fraction]:
    """identify_rational on a finite mpf x, under the caller's _work."""
    cand = _mpf_to_fraction(x).limit_denominator(maxden)
    if cand == 0 and x != 0 or abs(cand.numerator) >= 10 ** mpmath.mp.dps:
        return None
    err = abs(x - mpmath.mpf(cand.numerator) / cand.denominator)
    if err < mpmath.mpf(10) ** (4 - digits):
        return cand
    return None


def identify_rational(x, maxden: int = 1000, *, digits: int) -> Optional[Fraction]:
    """Best rational p/q with q <= maxden, if it matches x to nearly full digits.

    The candidate is the continued-fraction best approximation; it is
    accepted only when |x - p/q| < 10^(4 - digits), where `digits` is the
    number of digits x is certified to.  A nonzero x never identifies as 0:
    a zero candidate returns None, as does a candidate whose numerator has
    more digits than the working precision (the rest are rounding noise),
    and a non-finite x.  ValueError when digits is below 1.
    """
    with _work(digits):
        x = mpmath.mpf(x)
        return _rational(x, maxden, digits) if mpmath.isfinite(x) else None


def _certified_digits(err, cap: int) -> int:
    if err == 0:
        return cap
    return min(cap, int(-mpmath.log10(err)))


def identify_with_multipliers(
    x, maxden: int = 1000, *, digits: int
) -> Optional[Identification]:
    """First multiplier m of _MULTIPLIERS (in order) with x/m a certified
    rational, by identify_rational's test at `digits` digits.

    Returns an Identification with payload (tag, p/q) meaning x = (p/q) * m,
    or None when no entry matches within the precision bound; ValueError
    when `digits` is below 1.
    """
    with _work(digits):
        x = mpmath.mpf(x)
        if not mpmath.isfinite(x):
            return None
        for tag, build in _MULTIPLIERS:
            m = build()
            frac = _rational(x / m, maxden, digits)
            if frac is None:
                continue
            err = abs(x - m * frac.numerator / frac.denominator)
            cert = _certified_digits(err, digits)
            if cert >= digits - 4:
                return Identification("dictionary-multiple", (tag, frac), cert)
    return None


# ---------------------------------------------------------------------------
# exact LLL reduction and minimal polynomials
# ---------------------------------------------------------------------------

def lll_reduce(basis: list[list[int]], delta: Fraction = Fraction(3, 4)) -> list[list[int]]:
    """LLL-reduce integer basis rows with parameter delta, exactly.

    The integral LLL of de Weger (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7): d[i] is the Gram determinant of the first i
    rows (the product of their squared Gram-Schmidt norms, d[0] = 1) and
    lam[i][j] = d[j + 1] * mu[i][j].  Both are integers, computed once by
    exact division and updated in O(n) per swap, so size-reduction and the
    Lovasz condition are decided exactly and the output provably satisfies
    them; raises RankDeficient on linearly dependent input rows.
    """
    b = [list(map(int, row)) for row in basis]
    if not b or len({len(r) for r in b}) != 1:
        raise ValueError("basis must be a non-empty rectangular integer matrix")
    n = len(b)
    d = [1] + [0] * n
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for m in range(j):
                u = (d[m + 1] * u - lam[i][m] * lam[j][m]) // d[m]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise RankDeficient("basis rows are linearly dependent")
            else:
                d[i + 1] = u
    delta = Fraction(delta)
    num, den = delta.numerator, delta.denominator
    k = 1
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
    identity block keeps the rows independent for every x, so lll_reduce
    never raises RankDeficient here.

    A candidate p is accepted only if |p(x)| < 10^(5 - digits) *
    ||p||_inf * max(1, |x|)^deg, a threshold a few orders above evaluation
    roundoff but far below the residual of any accidental lattice relation
    at this scaling; for x != 0 a candidate with p(0) = 0 is skipped, since
    p = x q makes q a relation of lower degree, and so is a candidate with
    a coefficient of 10^dps or more, noise past the working precision.
    Returns None if no degree yields a verified relation (so also for a
    non-finite x); raises ValueError when maxdeg < 1 and PrecisionTooLow
    when digits is too small to separate the two regimes (digits < 10 *
    (maxdeg + 1)).
    """
    if maxdeg < 1:
        raise ValueError(f"need maxdeg >= 1, got {maxdeg}")
    if digits < 10 * (maxdeg + 1):
        raise PrecisionTooLow(
            f"need at least {10 * (maxdeg + 1)} digits for degree {maxdeg}"
        )
    scale_exp = digits - 10
    with _work(digits):  # digits >= 20, so max(digits, 15) = digits
        x = mpmath.mpf(x)
        if not mpmath.isfinite(x):
            return None
        scale = mpmath.mpf(10) ** scale_exp
        grow = max(mpmath.mpf(1), abs(x))
        reduced = [[1, int(mpmath.nint(scale))]]
        for deg in range(1, maxdeg + 1):
            column = int(mpmath.nint(scale * x**deg))
            reduced = lll_reduce(
                [row[:-1] + [0, row[-1]] for row in reduced] + [[0] * deg + [1, column]]
            )
            threshold = mpmath.mpf(10) ** (5 - digits) * grow**deg
            for vec in sorted(reduced, key=lambda r: sum(c * c for c in r[:-1])):
                coeffs = vec[: deg + 1]
                if not any(coeffs[1:]) or (x and not coeffs[0]):
                    continue
                p = Poly(coeffs).primitive()
                norm = max(map(abs, p.coeffs))
                if norm < 10 ** mpmath.mp.dps and abs(p(x)) < threshold * norm:
                    return p
    return None
