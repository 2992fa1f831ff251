"""The integer fixed-point kernel of the estimators in `asympt`: a working
precision (HpContext) with the one rule by which a number enters it
(HpContext.raw, which reads text as the CLI does), exact quotients and
square roots rounded once to it, and reals held as ints at one binary
scale, with their logs and exps (Fixed).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from functools import cached_property, lru_cache
from math import isqrt

import mpmath
from mpmath.libmp import (
    dps_to_prec,
    from_float,
    from_int,
    fzero,
    normalize,
    pi_fixed,
    round_nearest,
    to_fixed,
)

from .errors import NonPositiveValue


MAX_PRECISION = 10_000
"""The most decimal digits of --precision, --digits and a number's text: it
bounds the working precision, and so the memory, that any stage asks for."""

MAX_VALUE_EXPONENT = 1000
"""The largest decimal exponent, either sign, of a number's text."""


@dataclass(frozen=True)
class HpContext:
    """Working precision in decimal digits, plus guard digits for rounding:
    the one owner of the rule that a stage works at digits + guard."""

    digits: int
    guard: int = 10

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError(f"need digits >= 1, got {self.digits}")

    def work(self):
        """Context manager setting mpmath precision to digits + guard."""
        return mpmath.workdps(self.digits + self.guard)

    @cached_property
    def prec(self) -> int:
        """The binary precision that work() sets."""
        return dps_to_prec(self.digits + self.guard)

    def raw(self, x, at: int | str | None = None) -> tuple:
        """The raw mpf of x, the one rule by which a value enters the context:
        an mpf as it is; an int, Fraction, float, mpmath constant or text (by
        the CLI's reader, _read_number) rounded once to prec, to nearest; any
        other type raises TypeError.  Given `at`, a sequence index or a model
        parameter's name, an inf or a nan raises ValueError naming it."""
        if isinstance(x, mpmath.mpf):
            raw = x._mpf_
        elif isinstance(x, int):
            raw = from_int(x, self.prec, round_nearest)
        elif isinstance(x, Fraction):
            raw = quotient_nearest(x.numerator, x.denominator, self.prec)
        elif isinstance(x, float):
            raw = from_float(x, self.prec, round_nearest)
        elif isinstance(x, mpmath.mp.constant):
            raw = x.func(self.prec, round_nearest)
        elif isinstance(x, str):
            raw = _read_number(at if isinstance(at, str) else "value", x, self)._mpf_
        else:
            raise TypeError(f"cannot enter a {type(x).__name__} into the working precision")
        if at is not None and not raw[1] and raw[2]:  # inf or nan
            what = f"parameter {at}" if isinstance(at, str) else f"value at index {at}"
            raise ValueError(f"non-finite {what}")
        return raw

    def mpf(self, x, at: int | str | None = None) -> mpmath.mpf:
        """x as a context float (raw)."""
        return mpmath.mp.make_mpf(self.raw(x, at))


def _bounded(digits: int) -> int:
    """digits, unless above MAX_PRECISION (HpContext rejects it below 1)."""
    if digits > MAX_PRECISION:
        raise ValueError(f"need digits <= {MAX_PRECISION}, got {digits}")
    return digits


def _parse(name: str, text: str, special: bool) -> tuple:
    """(number, digits) of the text that option `name` gives, read once and
    exactly: a decimal (2, -.5, 5., 1.5e-3) as a Fraction, or a ratio p/q
    of two; with `special`, inf and nan read as floats with no digits.  A
    decimal's digits run from its leading digit, or from the units place
    when that is higher, down to its last digit: 00012 counts 2, 0.5 and
    5e-1 count 2, 1.5e-3 counts 5, and a zero counts its coefficient's
    digits (0e-5000 counts 1).  identify's searches compare an absolute
    error with 10^(k - digits), so this count holds a value below 1 to its
    last digit; a count of significant digits needs relative tolerances
    first.  A ratio counts both parts.  Before any big integer is built,
    each decimal must have at most MAX_PRECISION digits and, unless zero, a
    decimal exponent within +-MAX_VALUE_EXPONENT."""
    num, slash, den = text.partition("/")
    try:
        num, den = Decimal(num), Decimal(den if slash else 1)
        if special and not slash and (num.is_infinite() or num.is_qnan()):
            return float(num), 0
        if not (num.is_finite() and den.is_finite() and den):
            raise InvalidOperation
    except InvalidOperation:
        raise ValueError(f"{name} {text!r} is not a number: expected a decimal or a "
                         f"ratio p/q{', inf or nan' if special else ''}") from None
    digits = 0
    for part in (num, den) if slash else (num,):
        lead = part.adjusted() if part else 0
        digits += _bounded(len(part.as_tuple().digits)) + max(0, -lead)
        if abs(lead) > MAX_VALUE_EXPONENT:
            raise ValueError(
                f"{name} {text!r} is out of range: need a decimal exponent between "
                f"-{MAX_VALUE_EXPONENT} and {MAX_VALUE_EXPONENT}, got {lead}")
    return Fraction(num) / Fraction(den), digits


def _read_number(name: str, text: str | int | Fraction | float, ctx: HpContext | None = None):
    """The number that option `name` gives as text (_parse), or an int, a
    Fraction or a float taken as it is.  Given a context, it is rounded once
    to its precision (HpContext.mpf), and inf and nan read as themselves;
    without one it is its exact Fraction."""
    x = _parse(name, text, ctx is not None)[0] if isinstance(text, str) else text
    return Fraction(x) if ctx is None else ctx.mpf(x)


def quotient_nearest(num: int, den: int, prec: int, shift: int = 0) -> tuple:
    """The raw mpf num / (den 2^shift), den != 0, rounded once to prec bits,
    to nearest with ties to even: the tuple normalize gives for the exact
    quotient.  One divmod gives a quotient q of prec + 1 or prec + 2 bits and
    a remainder r; the bits of q below prec decide the rounding, r != 0
    breaks a tie, and trailing zeros are stripped as normalize strips them."""
    if not num:
        return fzero
    sign = int((num < 0) != (den < 0))
    num, den = abs(num), abs(den)
    k = prec + 1 + den.bit_length() - num.bit_length()
    q, r = divmod(num << k, den) if k >= 0 else divmod(num, den << -k)
    drop = q.bit_length() - prec
    half = 1 << (drop - 1)
    low = q & ((half << 1) - 1)
    q >>= drop
    if low > half or low == half and (r or q & 1):
        q += 1
    zeros = (q & -q).bit_length() - 1
    q >>= zeros
    return sign, q, drop + zeros - k - shift, q.bit_length()


def sqrt_nearest(x: tuple, prec: int) -> tuple:
    """The square root of a raw mpf x > 0 rounded to nearest at prec bits,
    the tuple mpf_sqrt(x, prec, round_nearest) gives: math.isqrt's root at
    prec + 1 or more bits with the remainder as a sticky last bit, rounded
    by normalize."""
    _, man, exp, bc = x
    if exp & 1:
        man, exp, bc = man << 1, exp - 1, bc + 1
    shift = max(prec + 1 - (bc + 1) // 2, 0)
    root = isqrt(man << 2 * shift)
    man = 2 * root + (root * root != man << 2 * shift)
    return normalize(0, man, exp // 2 - shift - 1, man.bit_length(), prec, round_nearest)


def _atanh_inv(q: int, prec: int) -> int:
    """atanh(1/q) 2^prec for q >= 3, as the sum over j >= 0 of the exact
    floors of 2^prec / ((2j + 1) q^(2j + 1)) (the running quotient t is
    floor(2^prec / q^(2j + 1)), a floor of floors).  At most
    (prec / log2 q + 1) / 2 terms are nonzero and the rest sum to under
    3/8, so the result falls short by less than prec / (2 log2 q) + 7/8."""
    t = (1 << prec) // q
    q2, k, total = q * q, 1, t
    while t:
        t //= q2
        k += 2
        total += t // k
    return total


def _atanh_fixed(z: int, prec: int) -> int:
    """atanh(z 2^-prec) 2^prec for 0 <= z < 2^(prec - 10), every product
    floored: the terms z^(4i+1) / (4i+1) sum in one running total, the
    terms z^(4i+3) / (4i+3) in another that is multiplied by z^2 at the
    end.  Each power falls short by under 1.01 units, so each of the fewer
    than prec / 40 nonzero later terms of the first total by under 1.21;
    its tail and the second total's product add under 2.3, so the result
    falls short by less than prec / 30 + 3."""
    z2 = z * z >> prec
    z4 = z2 * z2 >> prec
    odd1 = t = z
    odd3 = z // 3
    k = 1
    while t:
        t = t * z4 >> prec
        k += 4
        odd1 += t // k
        odd3 += t // (k + 2)
    return odd1 + (odd3 * z2 >> prec)


_TOP_BITS = 10  # a value's log starts from the table entry of its leading bits


class _LogTable:
    """log n 2^T and floor(sqrt(n) 2^P) for 1 <= n <= last, with
    T = P + bit_length(P) + 32.

    log 2^T is 2 atanh(1/3) 2^T; a prime p adds 2 atanh(1/(2p - 1)) to
    log(p - 1), and any other n sums the entries of its smallest prime
    factor p and of n / p.  Every rounding is a floor, so each entry falls
    short of the true value (by how much: Fixed).  `ln2` is log 2 at
    T + 64 bits, for multiples of log 2 that must keep T bits.  Built
    lazily and grown on demand; _log_table keeps one per P, with its exp
    tables (`exps`) once an exp asks for them.
    """

    def __init__(self, bits: int):
        self.bits = bits
        self.guard = bits.bit_length() + 32
        self.prec = bits + self.guard
        self.ln2 = 2 * _atanh_inv(3, self.prec + 64)
        self.logs = [0, 0]  # index 0 is unused
        self.roots = [0, 1 << bits]

    def extend(self, last: int) -> None:
        """Fill the entries up to n = last."""
        start = len(self.logs)
        if last < start:
            return
        factor = list(range(last + 1))
        for p in range(isqrt(last), 1, -1):  # smaller factors overwrite larger ones
            factor[p * p :: p] = [p] * len(range(p * p, last + 1, p))
        logs = self.logs
        for n in range(start, last + 1):
            p = factor[n]
            logs.append(logs[p] + logs[n // p] if p < n
                        else logs[n - 1] + 2 * _atanh_inv(2 * n - 1, self.prec))
        self.roots += [isqrt(n << 2 * self.bits) for n in range(start, last + 1)]

    @cached_property
    def exps(self) -> list[list[int]]:
        """floor(exp(j 2^-8l) 2^T) for 0 <= j < 256, as table l - 1 for
        l = 1..4, but only for j <= 177 in table 1: exp reads it at the
        first 8-bit chunk of r < log 2, and 256 log 2 < 178.  Table l
        starts from exp(2^-8l) 2^T, the series whose terms
        floor(2^(T - 8l i) / i!) come one from the other by a shift and a
        floored division, and multiplies on by it, floored at each step
        (the bounds: Fixed)."""
        T = self.prec
        tables = []
        for l in range(1, 5):
            base = term = 1 << T
            i = 0
            while term:
                i += 1
                term = (term >> 8 * l) // i
                base += term
            row = [1 << T, base]
            for _ in range((178 if l == 1 else 256) - 2):
                row.append(row[-1] * base >> T)
            tables.append(row)
        return tables

    def ln2_times(self, e: int) -> int:
        """floor(e log 2 2^T), from log 2 at T + 64 bits or, for |e| >= 2^32,
        at 32 bits more than |e| has."""
        extra = max(64, abs(e).bit_length() + 32)
        ln2 = self.ln2 if extra == 64 else 2 * _atanh_inv(3, self.prec + extra)
        return e * ln2 >> extra


@lru_cache(maxsize=4)
def _log_table(bits: int) -> _LogTable:
    return _LogTable(bits)


class Fixed:
    """The fixed-point kernel of the stretched-exponential estimators.

    A real x is held as the Python int floor(x 2^P), so sums and products
    of rows are exact integer arithmetic and each output is rounded once,
    to the context's working precision prec (its bits under `work()`).
    The kernel works at P = prec + 3 bit_length(N) + 32 bits, N the last
    index.  The guard is set by the triple fit, the kernel's worst
    cancellation.  Its rows B, C are at most 1, each within a few units of
    2^-P (B within about log n units); their first differences are about
    n^(-3/2) log n / (2 pi); the determinant of two differenced rows is
    about n^-4 / (4 pi^2), since its log n terms cancel.  So the rows'
    rounding reaches the determinant, and the 2x2 numerators with it,
    amplified by about 16 pi (log n + 1) n^(5/2) < 2^(3 log2 n + 7) (as
    log n + 1 < 2 sqrt n), which 3 bit_length(N) bits cover.  The other 32
    bits leave the kernel's own error at least 2^-25 below the final
    rounding, and they also cover the amplitude's exponent
    delta log n - a pi n^beta, whose absolute error is the relative error of
    its exp, while |a pi n^beta| < 2^25.

    Logs and square roots come from the _LogTable of P, at T = P + g bits
    with g = bit_length(P) + 32.  The square roots are exact floors.  Each
    atanh(1/q) sum of the table falls short by less than T / (2 log2 3) + 1
    units of 2^-T, so each prime's step by less than T; an entry log n sums
    at most 2 log2 n steps (a prime p adds one to the steps of log 2 and of
    log((p - 1) / 2)), so it falls short by less than 2 T log2 n.  The log of
    a value (log_raw) is off by less than 21 T: under 20 T from the entry
    of its 10 leading bits, under 2 from its multiple of log 2 and under
    T / 15 + 9 from the atanh series of the rest.  As T < 2 P < 2^g 2^-31,
    these are below 2^-30 log2 n and 2^-26 units of 2^-P.  So log(n), the
    entry floored to P bits, lies within 1 + 2^-30 log2 n units below
    log n 2^P (within 1 + 2^-26 for an index past the table, whose log is a
    value's).  The rows therefore stay within the few units of 2^-P that
    the guard above assumes, lambda's log of s_n carries less than one unit,
    and the kernel's error stays at least 2^-25 below the final rounding.

    A value x in the band 1 - 2^-10 <= x < 1 + 2^-9 (x = man 2^exp, one =
    2^-exp), whose log needs relative precision, takes log x = 2 atanh(z),
    z = (x - 1) / (x + 1), at S = T + bit_length(man + one) -
    bit_length|man - one| + 2 bits.  There |z| 2^S > 2^(T + 1), so
    |log x| 2^S > 2^(T + 2); z 2^S is floored (under 1 unit, and atanh's
    slope is below 1 + 2^-19) and the series falls short by under
    S / 30 + 3, so log x is off by less than S / 15 + 9 units of 2^-S, a
    relative error below (S / 15 + 9) 2^-(T + 2).  For a mantissa of at most
    14 T bits (every context float) S <= 15 T + 3, so this is below
    T 2^-(T + 1) < 2^-(P + 32).

    The exp (exp, for the amplitudes and for n^beta off beta = 1/2) is off
    by a relative error below (68 T + 2^12) 2^-T, for |x| < 2^31.  In units
    of 2^-T: flooring x to W = T + 64 bits and k `ln2` (|k| < 2^32) miss by
    under (|k| + 1) 2^-64, and r's floor to T bits by under 1.  Table l's
    base exp(2^-8l) sums at most T / 8l nonzero terms, each floored by
    under 1, and misses a tail under 2, so it falls short by b < T / 8l + 2;
    entry j of its products then falls short by under j (b + 1) relative,
    under 255 (T / 8l + 3), which over the four tables is under
    67 T + 3060.  The three products of entries are floored (under 1 each,
    as each lies in [1, 2)), and the Taylor sum on the rest below 2^-32 has
    at most (T + 1) / 32 nonzero terms, each short by under 1.01, and a
    tail under 1.  As T < 2^g 2^-31, this bound is below 2^(g - 23) 2^-T =
    2^-(P + 23), 2^-(3 bit_length(N) + 55) of the final rounding: under the
    2^-25 margin above, beside the exponent's own error that it covers.
    n^beta floored to P bits is therefore within (1 + 2^-23) 2^-P relative.
    """

    def __init__(self, ctx: HpContext, first: int, last: int):
        """The kernel for the indices first..last; the table covers them
        when they fill a quarter of 1..last or more."""
        self.ctx = ctx
        self.prec = ctx.prec
        self.bits = self.prec + 3 * max(last, 1).bit_length() + 32
        self.pi = pi_fixed(self.bits)
        self.table = _log_table(self.bits)
        dense = 4 * (last - first + 1) >= last
        self.table.extend(max(last if dense else 0, (1 << _TOP_BITS) - 1))

    def fix(self, x, name: str) -> int:
        """floor(x 2^P) for the model parameter `name`: exact for an int or a
        Fraction, otherwise from x as it enters the context (HpContext.raw),
        so an inf or a nan raises ValueError naming the parameter."""
        if isinstance(x, (int, Fraction)):
            x = Fraction(x)
            return (x.numerator << self.bits) // x.denominator
        return to_fixed(self.ctx.raw(x, name), self.bits)

    def positive(self, v, n: int) -> tuple:
        raw = self.ctx.raw(v, n)
        if raw[0] or not raw[1]:
            raise NonPositiveValue(f"non-positive value at index {n}")
        return raw

    def sqrt(self, n: int) -> int:
        roots = self.table.roots
        return roots[n] if n < len(roots) else isqrt(n << 2 * self.bits)

    def log(self, n: int) -> int:
        return self.int_log(n) >> self.table.guard

    def int_log(self, n: int) -> int:
        """log n 2^T: the table's entry, or past the table n's log as a
        value's (log_raw)."""
        logs = self.table.logs
        return logs[n] if n < len(logs) else self.log_raw(from_int(n))[0]

    def log_raw(self, raw: tuple) -> tuple:
        """(m, scale) with m 2^-scale = log x, for a positive raw mpf x.

        Outside the band 1 - 2^-10 <= x < 1 + 2^-9, m is log x 2^T
        (T = self.table.prec): the table entry of x's leading 10 bits, plus
        its multiple of log 2, plus 2 atanh((y - 1) / (y + 1)) for the rest y
        in [1, 1 + 2^-9).  Inside it, m is 2 atanh((x - 1) / (x + 1)) at the
        scale that keeps T bits of it, and log 1 is (0, T)."""
        table = self.table
        _, man, exp, bc = raw
        shift = bc - _TOP_BITS
        top = man >> shift if shift > 0 else man << -shift
        if (top, exp + shift) in ((512, -9), (1023, -10)):
            one = 1 << -exp  # x = man / one, as x < 2 forces exp <= 0
            diff = man - one
            if not diff:
                return 0, table.prec
            scale = table.prec + (man + one).bit_length() - abs(diff).bit_length() + 2
            m = 2 * _atanh_fixed((abs(diff) << scale) // (man + one), scale)
            return (m if diff > 0 else -m), scale
        rest = 0
        if shift > 0:
            low = top << shift
            rest = 2 * _atanh_fixed(((man - low) << table.prec) // (man + low), table.prec)
        return table.logs[top] + table.ln2_times(exp + shift) + rest, table.prec

    def exp(self, x: int, scale: int) -> tuple:
        """(m, shift) with m 2^-shift = exp(x 2^-scale) and 2^T <= m < 2^(T + 1).

        x 2^-scale is floored to W = T + 64 bits and reduced by k log 2
        (`ln2`, at W bits) to r in [0, log 2), floored to T bits.  The four
        8-bit chunks of r below the point pick exp(j 2^-8l) from the tables
        (`exps`), and the rest, below 2^-32, is a Taylor sum on their
        product, each term the last one times the rest, over i."""
        table = self.table
        T, W = table.prec, table.prec + 64
        x = x << W - scale if scale <= W else x >> scale - W
        k, r = divmod(x, table.ln2)
        r >>= 64
        e1, e2, e3, e4 = table.exps
        y = e1[r >> T - 8] * e2[r >> T - 16 & 255] >> T
        y = y * e3[r >> T - 24 & 255] >> T
        y = y * e4[r >> T - 32 & 255] >> T
        rest = r & (1 << T - 32) - 1
        term, i = y, 0
        while term:
            i += 1
            term = (term * rest >> T) // i
            y += term
        return y, T - k

    def power(self, n: int, beta: int) -> int:
        """n^beta for beta = fix(beta): the integer square root at 1/2,
        otherwise exp(beta log n), floored to P bits."""
        if beta == 1 << (self.bits - 1):
            return self.sqrt(n)
        m, shift = self.exp(beta * self.log(n), 2 * self.bits)
        shift -= self.bits
        return m >> shift if shift >= 0 else m << -shift

    def ratio(self, num: int, den: int, shift: int = 0) -> mpmath.mpf:
        """The context float num / (den 2^shift), den != 0, rounded once to
        prec, to nearest."""
        return mpmath.mp.make_mpf(quotient_nearest(num, den, self.prec, shift))
