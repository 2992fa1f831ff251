"""Exact arithmetic substrate: rationals, dense polynomials, truncated power series.

Scalars are Python ints, and `fractions.Fraction` (arbitrary precision, always
in lowest terms with positive denominator) where a value is not integral.  On
top of that sit two immutable value types:

* `Poly` -- dense univariate polynomial with integer coefficients, ascending,
  no trailing zeros (the zero polynomial is the empty coefficient tuple),
  with the exact algorithms on it: pseudo-division, exact signs at
  rationals, the Sturm chain, the square-free part and the isolation of
  the smallest positive root.
* `TruncSeries` -- power series with exact coefficients known up to (but
  excluding) a stated truncation order: an integral coefficient is held as
  an int, any other as a Fraction.  Arithmetic returns results at the
  weakest participating order, so precision loss is always explicit, never
  silent.

All operations are pure; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import Iterable, Iterator, Sequence as Seq, Union

from .errors import NoPositiveRoot, NonIntegral, ZeroConstantTerm

Scalar = Union[int, Fraction]


def int_tuple(values: Iterable, what: str, first: int = 0) -> tuple[int, ...]:
    """The values as ints, each equal to an integer (NonIntegral names the
    index of the first that is not, counting from `first`)."""
    given = tuple(values)
    ints = tuple(int(v) for v in given)
    if ints != given:
        n = next(n for n, (v, i) in enumerate(zip(given, ints), first) if v != i)
        raise NonIntegral(f"non-integer {what} at index {n}")
    return ints


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Poly:
    """Dense univariate polynomial over the integers."""

    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        cs = list(int_tuple(self.coeffs, "coefficient"))
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        return Poly(mul_trunc(a, b, max(len(a) + len(b) - 1, 0)))

    def __call__(self, x):
        """Evaluate by Horner's rule; works for int, Fraction or mpf input."""
        return int_horner(self.coeffs, x)

    @property
    def valuation(self) -> int:
        """The number of zero coefficients below the first nonzero one, so
        p = x^valuation q with q(0) != 0; the zero polynomial has 0."""
        return next((i for i, c in enumerate(self.coeffs) if c), 0)

    def primitive(self) -> "Poly":
        """The integer normal form: p over its content, signed so that the
        leading coefficient is positive; the zero polynomial stays zero."""
        g = gcd(*self.coeffs)
        if g and self.coeffs[-1] < 0:
            g = -g
        return self if g in (0, 1) else Poly([c // g for c in self.coeffs])

    def pseudo_divmod(self, b: "Poly") -> tuple["Poly", "Poly"]:
        """Pseudo-division by a nonzero b: (q, r) with k p = q b + r for
        k = |lc(b)|^steps > 0 and deg r < deg b.  Since k > 0, r has the
        signs of the remainder over Q."""
        if not b:
            raise ZeroDivisionError("pseudo-division by the zero polynomial")
        a, b = self.coeffs, b.coeffs
        scale, sign = abs(b[-1]), 1 if b[-1] > 0 else -1
        rem, q = list(a), [0] * max(len(a) - len(b) + 1, 1)
        for shift in range(len(a) - len(b), -1, -1):
            t = sign * rem[shift + len(b) - 1]
            q = [scale * c for c in q]
            q[shift] = t
            rem = [scale * c for c in rem]
            rem[shift : shift + len(b)] = [r - t * c for r, c in zip(rem[shift:], b)]
        return Poly(q), Poly(rem[: len(b) - 1])

    def sign_at(self, m: int, den: int) -> int:
        """Sign of p(m / den) for den > 0, from the homogeneous integer
        Horner sum den^deg p(m / den) = sum c_i m^i den^(deg - i)."""
        cs = self.coeffs
        acc, den_pow = cs[-1] if cs else 0, 1
        for c in reversed(cs[:-1]):
            den_pow *= den
            acc = acc * m + c * den_pow
        return (acc > 0) - (acc < 0)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def sturm_chain(self) -> list["Poly"]:
        """Sturm chain of p over Z: each negated pseudo-remainder is divided
        by its positive content, so every entry is a positive multiple of
        the chain over Q and the sign changes are the same.  For deg p >= 1
        the last entry is gcd(p, p') up to a constant factor."""
        chain = [self, self.derivative()]
        while chain[-1]:
            rem = chain[-2].pseudo_divmod(chain[-1])[1]
            if not rem:
                break
            prim = rem.primitive()  # rem over its content, times the sign of lc(rem)
            chain.append(prim if rem.coeffs[-1] < 0 else -prim)
        return chain

    def squarefree_part(self) -> "Poly":
        """p over gcd(p, p'), made primitive: the roots of p, each simple."""
        g = self.sturm_chain()[-1]
        return (self.pseudo_divmod(g)[0] if g.degree > 0 else self).primitive()

    def smallest_positive_root(self, digits: int) -> Fraction:
        """The smallest positive real root, isolated exactly then bisected
        until its bracket is narrower than 10^-(digits+5); the bracket's
        midpoint.  Raises NoPositiveRoot when p has no root in (0, inf).

        Both phases run on integer numerators lo = a/den, hi = b/den over
        one common denominator that doubles at each halving.  Isolation
        counts sign changes of the Sturm chain of the square-free part, so
        no positive root can be missed; the bisection then follows the sign
        of that part.  Every sign is that of `sign_at`."""
        # strip roots at the origin; positive roots are unaffected
        p = Poly(self.coeffs[self.valuation:]).primitive()
        if p.degree < 1:
            raise NoPositiveRoot("polynomial has no positive real root")
        p = p.squarefree_part()
        chain = p.sturm_chain()

        def changes(m: int, den: int) -> int:
            signs = [s for s in (q.sign_at(m, den) for q in chain) if s]
            return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

        bound = Fraction(1) + Fraction(max(map(abs, p.coeffs[:-1])), p.coeffs[-1])
        a, b, den = 0, bound.numerator, bound.denominator
        v_lo, v_hi = changes(a, den), changes(b, den)
        if v_lo - v_hi < 1:
            raise NoPositiveRoot("no root in (0, upper bound]")
        # shrink (lo, hi] until it brackets exactly the smallest positive root;
        # invariant: no root <= lo, at least one root in (lo, hi]
        while v_lo - v_hi > 1:
            m, den = a + b, 2 * den
            v_mid = changes(m, den)
            if v_lo - v_mid >= 1:
                a, b, v_hi = 2 * a, m, v_mid
            else:
                a, b, v_lo = m, 2 * b, v_mid
        if p.sign_at(b, den) == 0:
            a = b  # the bracket's end is the root itself
        lo_sign = p.sign_at(a, den)
        steps = int((digits + 6) * 3.33) + bound.numerator.bit_length()
        scale = 10 ** (digits + 5)
        for _ in range(steps):
            if (b - a) * scale < den:  # hi - lo < 10^-(digits+5)
                break
            m, den = a + b, 2 * den
            s_mid = p.sign_at(m, den)
            if s_mid == 0:
                a = b = m
                break
            if s_mid == lo_sign:
                a, b = m, 2 * b
            else:
                a, b = 2 * a, m
        return Fraction(a + b, 2 * den)

    def format(self, var: str = "x") -> str:
        """Human-readable form, highest power first, e.g. '2*n^2 + 31*n + 120'."""
        if not self:
            return "0"
        parts: list[str] = []
        for e in range(self.degree, -1, -1):
            c = self.coeffs[e]
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if e == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else f"{mag}*"
                body = f"{head}{var}" + (f"^{e}" if e > 1 else "")
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def mul_trunc(a: Seq[Scalar], b: Seq[Scalar], order: int) -> list:
    """Coefficients 0..order-1 of the product of two ascending coefficient
    lists.  The one product kernel of this package: ints stay ints, so the
    guessers' integer series never pay for Fractions.

    Each nonzero entry of `a` adds one scaled slice of `b`, so callers pass
    the sparser operand first."""
    out = [0] * order
    for i, ai in enumerate(a[:order]):
        if ai:
            part = b[: order - i]  # may end before order when b is short
            j = i + len(part)
            out[i:j] = [o + ai * bj for o, bj in zip(out[i:j], part)]
    return out


def alg_eval(grid: Seq[Seq[Scalar]], y: Seq[Scalar], order: int) -> list:
    """Coefficients 0..order-1 of P(x, y(x)) = sum_j grid[j](x) * y(x)^j,
    with each grid[j] and y given as ascending coefficient lists.

    dP/dy is the same evaluation on the grid [j * grid[j] for j >= 1].
    """
    acc = [0] * order
    y_pow = [1] + [0] * (order - 1)
    for j, cj in enumerate(grid):
        if j:
            y_pow = mul_trunc(y_pow, y, order)
        if any(cj):
            acc = [s + t for s, t in zip(acc, mul_trunc(cj, y_pow, order))]
    return acc


def int_horner(coeffs: Iterable[Scalar], n: Scalar) -> Scalar:
    """Evaluate ascending coefficients at n by Horner's rule; the one
    scalar Horner loop of this package, for int, Fraction or mpf n
    (Poly.sign_at is its homogeneous integer form at a rational point)."""
    acc = 0
    for c in reversed(tuple(coeffs)):
        acc = acc * n + c
    return acc


def poly_values(coeffs: Seq[Scalar], n0: int) -> Iterator[Scalar]:
    """p(n0), p(n0 + 1), p(n0 + 2), ... without end, for the polynomial p
    of the ascending coefficients: the one evaluator at consecutive points.

    The forward differences of p at n0, seeded from d + 1 values by
    `int_horner` (d = deg p), run through d nested running sums, so each
    further value costs d additions at C speed and no Python step."""
    cs = list(coeffs)
    while cs and not cs[-1]:
        cs.pop()
    table = [int_horner(cs, n0 + k) for k in range(len(cs))] or [0]
    for k in range(1, len(table)):  # table[k] becomes the k-th difference at n0
        table[k:] = [b - a for a, b in zip(table[k - 1 :], table[k:])]
    values = repeat(table[-1])
    for first in reversed(table[:-1]):
        values = accumulate(values, initial=first)
    return values


def div_one_minus_qm(a: list, m: int, power: int = 1) -> None:
    """a /= (1 - q^m)^power in place, truncated to len(a) (stride-m prefix
    sums, `power` times over).

    Either path loops at C speed over whichever is longer: with m^2 < len(a)
    each of the m residue classes a[r::m] becomes its `power`-fold running
    sum through nested `accumulate`, read and written once; otherwise each
    block of m entries adds the block before it with one `map(add, ...)`,
    about len(a)/m blocks per power.
    """
    n = len(a)
    if m * m < n:
        for r in range(m):
            sums = a[r::m]
            for _ in range(power):
                sums = accumulate(sums)
            a[r::m] = sums
    else:
        for _ in range(power):
            for s in range(m, n, m):
                a[s : s + m] = map(add, a[s : s + m], a[s - m : s])


def q_infinity_terms(order: int) -> list[tuple[int, int]]:
    """The nonzero terms (g, c) of (q;q)_inf below q^order, ascending in g.

    By Euler's pentagonal number theorem they sit at the generalised
    pentagonal numbers g = k(3k - 1)/2 and k(3k + 1)/2, k >= 0, with
    c = (-1)^k: about 2 sqrt(2 order/3) terms.
    """
    terms = [(0, 1)] if order > 0 else []
    k = 1
    while k * (3 * k - 1) // 2 < order:
        c = -1 if k % 2 else 1
        terms += [(g, c) for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2) if g < order]
        k += 1
    return terms


def div_q_infinity_cubed(a: list) -> None:
    """a /= (q;q)_inf^3 in place, truncated to len(a).

    By Jacobi's identity (q;q)_inf^3 is the sum of (-1)^k (2k + 1) q^t over
    the triangular numbers t = k(k + 1)/2, k >= 0 (a corollary of the triple
    product; Andrews, The Theory of Partitions, 1976, ch. 2), so the
    quotient obeys a[n] += sum of (-1)^(k+1) (2k + 1) a[n - t] over the t
    in 1..n: about sqrt(2n) weighted taps per coefficient, against
    2 sqrt(2n/3) for each division by (q;q)_inf through Euler's pentagonal
    recurrence.

    The quotient is rebuilt by appending, so its taps stay at the fixed
    negative indices -t, and one `itemgetter`, remade as each t comes into
    range, fetches them all at C speed.
    """
    rest = a[1:]
    del a[1:]
    offsets, weights = [0], [0]  # a zero-weight tap keeps the fetch a tuple
    k = 1
    for n, x in enumerate(rest, 1):
        if n == k * (k + 1) // 2:
            offsets.append(-n)
            weights.append(2 * k + 1 if k % 2 else -2 * k - 1)
            taps = itemgetter(*offsets)
            k += 1
        a.append(x + sum(map(mul, weights, taps(a))))


def primitive_int(vec: Seq[Scalar]) -> list[int]:
    """Integer multiple of a rational vector with content 1 and its first
    nonzero entry positive (all zeros stay zero)."""
    den = 1
    for x in vec:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in vec]
    g = 0
    for e in ints:
        g = gcd(g, abs(e))
    if g > 1:
        ints = [e // g for e in ints]
    lead = next((e for e in ints if e), 0)
    return [-e for e in ints] if lead < 0 else ints


# ---------------------------------------------------------------------------
# truncated power series
# ---------------------------------------------------------------------------

def _exact(x) -> Scalar:
    """x as an int when it is integral, else as a Fraction."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


@dataclass(frozen=True)
class TruncSeries:
    """Power series with coefficients 0..order-1 known exactly: an int
    when integral, else a Fraction.

    `order` is the truncation order: the series is congruent to the stored
    coefficients mod x^order.  Binary operations return the weakest order of
    their operands.
    """

    coeffs: tuple[Scalar, ...]

    def __post_init__(self):
        cs = tuple(self.coeffs)
        if not {int}.issuperset(map(type, cs)):
            cs = tuple(map(_exact, cs))
        object.__setattr__(self, "coeffs", cs)
        if not cs:
            raise ValueError("a TruncSeries needs order >= 1")

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        tail = ", ..." if self.order > 6 else ""
        return f"TruncSeries([{head}{tail}], order={self.order})"

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[:order])

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = min(self.order, other.order)
        return TruncSeries(
            [self.coeffs[i] + other.coeffs[i] for i in range(n)]
        )

    def __neg__(self) -> "TruncSeries":
        return TruncSeries([-c for c in self.coeffs])

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        return self + (-other)

    def __mul__(self, other) -> "TruncSeries":
        if isinstance(other, (int, Fraction)):
            return TruncSeries([c * other for c in self.coeffs])
        return TruncSeries(
            mul_trunc(self.coeffs, other.coeffs, min(self.order, other.order))
        )

    __rmul__ = __mul__

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        inv(a)[n] is determined by the first n+1 coefficients of a, so the
        result carries the same order.  Each step sums over the nonzero
        coefficients of a only; an integer series with constant term +-1
        inverts in ints.
        """
        a = self.coeffs
        if a[0] == 0:
            raise ZeroConstantTerm("series has zero constant term")
        inv0 = a[0] if a[0] in (1, -1) else 1 / Fraction(a[0])
        terms = [(i, c) for i, c in enumerate(a) if c and i]
        out = [inv0]
        live = 0  # terms[:live] are those with i <= k
        for k in range(1, self.order):
            if live < len(terms) and terms[live][0] == k:
                live += 1
            out.append(-inv0 * sum([c * out[k - i] for i, c in terms[:live]]))
        return TruncSeries(out)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by x^k (k >= 0), keeping the truncation order."""
        if k < 0:
            raise ValueError("negative shift on a power series")
        return TruncSeries((0,) * min(k, self.order) + self.coeffs[: self.order - k])

    def derivative(self) -> "TruncSeries":
        """Formal derivative; the result is known to one order less."""
        if self.order == 1:
            return TruncSeries([0])
        return TruncSeries(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )

    def is_integral(self) -> bool:
        return {int}.issuperset(map(type, self.coeffs))

    @staticmethod
    def from_poly(p: Poly, order: int) -> "TruncSeries":
        cs = list(p.coeffs[:order])
        cs += [0] * (order - len(cs))
        return TruncSeries(cs)


def q_pochhammer(n: int, order: int) -> TruncSeries:
    """(q;q)_n = prod_{k=1..n} (1 - q^k), truncated to `order` coefficients."""
    if n < 0:
        raise ValueError("q-Pochhammer needs n >= 0")
    if order < 1:
        raise ValueError("q-Pochhammer needs order >= 1")
    out = [0] * order
    out[0] = 1
    for k in range(1, min(n, order - 1) + 1):
        # out *= (1 - q^k), from the top down so each read is still unmultiplied
        for i in range(order - 1, k - 1, -1):
            out[i] -= out[i - k]
    return TruncSeries(out)
