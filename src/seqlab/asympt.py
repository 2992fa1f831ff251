"""High-precision asymptotics for positive counting sequences.

The pipeline estimates parameters of two model families from exact terms:

* stretched exponential  s_n ~ exp(a pi n^beta) / (c n^delta),
* power law              s_n ~ C mu^n n^g (1 + sum_k a_k / n^k),

via ratio sequences, exact elimination of inverse-power error terms,
successive-triple fits, square subsampling, Bulirsch-Stoer extrapolation,
and overdetermined-free linear amplitude fits.  Values are mpmath
arbitrary-precision floats at a precision carried by an HpContext; the
purely rational operators (ratios, eliminations, subsampling) also accept
exact Fraction values, which the algebraic-identity tests rely on.  Every
number that enters the working precision, a term or a model parameter (mu,
g, a, beta, delta), enters through HpContext.raw or HpContext.mpf, and an
inf or a nan parameter raises ValueError naming it.  The amplitude fit
needs K + 2 terms at indices n >= 1, so that its spread covers two
windows.  The stretched estimators and the log-log points compute on the
fixed-point integer kernel of `seqlab.fixed` (Fixed), with its own logs
and exps, and round each output once to the context's precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, isqrt
from typing import Callable, Iterable, Optional, Union

import mpmath
from mpmath.libmp import (
    fone,
    from_int,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_mul,
    mpf_pow,
    mpf_sub,
    round_nearest,
    to_fixed,
)

from .errors import (
    IllConditioned,
    InsufficientTerms,
    SingularSystem,
    TableauBlowup,
)
from .fixed import Fixed, HpContext, sqrt_nearest
from .series import Poly, int_horner

Real = Union[mpmath.mpf, Fraction, int]


@dataclass(frozen=True)
class HpSeq:
    """Consecutively indexed high-precision values (index = offset + position).

    Values are mpmath floats or exact Fractions, on which the rational
    operators below work alike; an int, a float or text (as the CLI reads
    it) becomes a context float at construction (HpContext.mpf).
    """

    offset: int
    values: tuple
    ctx: HpContext

    def __post_init__(self):
        held, mpf = {mpmath.mpf, Fraction}, self.ctx.mpf
        if not held.issuperset(map(type, self.values)):
            object.__setattr__(self, "values", tuple(
                v if type(v) in held else mpf(v) for v in self.values))

    def __len__(self) -> int:
        return len(self.values)

    @property
    def last_index(self) -> int:
        return self.offset + len(self.values) - 1

    def value(self, n: int):
        if not self.offset <= n <= self.last_index:
            raise IndexError(f"index {n} outside [{self.offset}, {self.last_index}]")
        return self.values[n - self.offset]

    def indices(self) -> range:
        return range(self.offset, self.offset + len(self.values))

    def slice_from(self, n: int) -> "HpSeq":
        if n <= self.offset:
            return self
        return HpSeq(n, self.values[n - self.offset :], self.ctx)

    def tail(self, k: int) -> "HpSeq":
        """The last k values, or all of them when there are fewer (k >= 1)."""
        if k < 1:
            raise ValueError(f"tail needs k >= 1, got {k}")
        k = min(k, len(self.values))
        return HpSeq(self.last_index - k + 1, self.values[-k:], self.ctx)

    def spread(self, k: int):
        """max - min of the last k values: how far an estimator still moves."""
        tail = self.tail(k).values
        with self.ctx.work():
            return max(tail) - min(tail)

    def map(self, fn: Callable) -> "HpSeq":
        with self.ctx.work():
            return HpSeq(self.offset, tuple(fn(v) for v in self.values), self.ctx)

    @staticmethod
    def from_sequence(seq, ctx: HpContext) -> "HpSeq":
        """The integer terms of seq, each rounded to nearest at ctx.prec."""
        return HpSeq(seq.offset, seq.terms, ctx)


@dataclass(frozen=True)
class StretchedModel:
    """s_n ~ exp(a pi sqrt(n)) / (c n^delta): the half-power model of the
    triple fit."""

    a: mpmath.mpf
    delta: mpmath.mpf
    c: mpmath.mpf


@dataclass(frozen=True)
class PowerLawModel:
    """s_n ~ C mu^n n^g (1 + sum_k corrections[k-1] / n^k)."""

    mu: mpmath.mpf
    g: mpmath.mpf
    C: mpmath.mpf
    corrections: tuple = ()


# ---------------------------------------------------------------------------
# rational-exact estimators
# ---------------------------------------------------------------------------

def ratios(s: HpSeq) -> HpSeq:
    """r_n = s_n / s_(n-1), offset shifted by one."""
    with s.ctx.work():
        out = []
        for i in range(1, len(s.values)):
            if s.values[i - 1] == 0:
                raise ZeroDivisionError(
                    f"zero term at index {s.offset + i - 1}"
                )
            out.append(s.values[i] / s.values[i - 1])
    return HpSeq(s.offset + 1, tuple(out), s.ctx)


def elim_power(s: HpSeq, p: int) -> HpSeq:
    """(n^p s_n - (n-1)^p s_(n-1)) / (n^p - (n-1)^p), offset shifted by one.

    Exactly cancels an additive a/n^p term: on s_n = s + a/n^p the output is
    constantly s.  Composing p=1 then p=2 does NOT cancel a/n + b/n^2
    exactly (the p=1 pass leaves a b/(n(n-1)) residue, not b/n^2); the
    composition is still a second-order accelerator, with exact residue
    b / ((2n-1)(n-1)(n-2)).
    """
    if p < 1:
        raise ValueError("power p must be >= 1")
    with s.ctx.work():
        out = []
        for i in range(1, len(s.values)):
            n = s.offset + i
            hi, lo = n**p, (n - 1) ** p
            out.append((hi * s.values[i] - lo * s.values[i - 1]) / (hi - lo))
    return HpSeq(s.offset + 1, tuple(out), s.ctx)


def square_subsample(s: HpSeq, least: int = 1) -> HpSeq:
    """Pick out indices 1, 4, 9, ...: output index k holds the term at k*k.

    Returns an HpSeq reindexed consecutively from 1.  Raises
    InsufficientTerms unless s holds the terms at indices 1 to least^2, so
    at least `least` squares.
    """
    if s.offset > 1 or s.last_index < least * least:
        squares = ", ".join(str(k * k) for k in range(1, least + 1))
        raise InsufficientTerms(
            f"need the terms at indices 1 to {least * least} (the squares {squares})"
        )
    picked = tuple(s.value(k * k) for k in range(1, isqrt(s.last_index) + 1))
    return HpSeq(1, picked, s.ctx)


# ---------------------------------------------------------------------------
# stretched-exponential pipeline
# ---------------------------------------------------------------------------

def loglog_points(s: HpSeq) -> list[tuple[mpmath.mpf, mpmath.mpf]]:
    """The points (log n, log s_n); needs offset >= 1 and positive, finite
    values.  Each log is the fixed-point kernel's (Fixed.log_raw), rounded
    once to nearest at the context's precision."""
    if s.offset < 1:
        raise ValueError("log-log gradient needs indices >= 1")
    fx = Fixed(s.ctx, s.offset, s.last_index)
    points = []
    for n, v in zip(s.indices(), s.values):
        log_v, scale = fx.log_raw(fx.positive(v, n))
        points.append((fx.ratio(fx.int_log(n), 1, fx.table.prec), fx.ratio(log_v, 1, scale)))
    return points


def loglog_gradient(s: HpSeq, points: Optional[list] = None) -> HpSeq:
    """Two-point gradient of log(s_n) against log(n); needs offset >= 1.
    `points` are loglog_points(s), when the caller has them already."""
    if points is None:
        points = loglog_points(s)
    with s.ctx.work():
        out = tuple((y1 - y0) / (x1 - x0)
                    for (x0, y0), (x1, y1) in zip(points, points[1:]))
    return HpSeq(s.offset + 1, out, s.ctx)


def stretched_lambda(s: HpSeq, beta: Fraction = Fraction(1, 2)) -> HpSeq:
    """lambda_n = log(s_n) / (pi n^beta), starting at index max(offset, 1).

    Runs on the fixed-point kernel (Fixed, whose docstring states the
    guard): pi n^beta and log(s_n) (Fixed.log_raw) are fixed-point
    integers, so each lambda_n is rounded once.
    """
    s = s.slice_from(1)
    fx = Fixed(s.ctx, s.offset, s.last_index)
    b, pi, wp = fx.fix(beta, "beta"), fx.pi, fx.bits
    out = []
    for n, v in zip(s.indices(), s.values):
        log_v, scale = fx.log_raw(fx.positive(v, n))
        out.append(fx.ratio(log_v, pi * fx.power(n, b), scale - 2 * wp))
    return HpSeq(s.offset, tuple(out), s.ctx)


def stretched_triple_fit(lam: HpSeq) -> tuple[HpSeq, HpSeq, HpSeq]:
    """Fit lambda_n = e1 + e2 log(n)/(pi sqrt n) + e3/(pi sqrt n) on triples.

    Each consecutive index triple (k-1, k, k+1) is solved exactly.  The
    constant column drops out of the two first differences of its rows,
    leaving a 2x2 solve for e2, e3 and e1 from the middle row.  The three
    returned estimator sequences (offset shifted by one) estimate the
    stretched-exponential parameters a, -delta and -log c.

    Runs on the fixed-point kernel (Fixed, whose docstring states the
    guard): the rows B(n) = log(n) C(n), C(n) = 1/(pi sqrt n) are
    fixed-point integers, and lambda_n is held at its own scale 2^Q, with
    Q = P minus the binary magnitude of the largest |lambda_n|, because the
    fit is linear in lambda.  The differences, the determinant det and the
    2x2 numerators are exact integer products, so each of e1, e2 and e3 is
    one exact quotient, rounded once.  A triple is singular when its
    determinant vanishes at the working precision prec,
    |det| 2^prec <= |b1 c2| + |b2 c1|, where (b1, c1) and (b2, c2) are its
    differenced rows: it raises SingularSystem.
    """
    if len(lam) < 3:
        raise InsufficientTerms("triple fit needs at least 3 values")
    if lam.offset < 1:
        raise ValueError("triple fit needs indices >= 1")
    fx = Fixed(lam.ctx, lam.offset, lam.last_index)
    wp, prec, pi = fx.bits, fx.prec, fx.pi
    raws = list(map(lam.ctx.raw, lam.values, lam.indices()))
    q = wp - max((exp + bc for _, man, exp, bc in raws if man), default=0)
    rows = []  # (B(n), C(n), lambda_n) as integers, at scales 2^P, 2^P, 2^Q
    for n, raw in zip(lam.indices(), raws):
        c = (1 << 3 * wp) // (pi * fx.sqrt(n))
        rows.append((fx.log(n) * c >> wp, c, to_fixed(raw, q)))

    e1, e2, e3 = [], [], []
    for k, ((b0, c0, y0), (b, c, y), (b3, c3, y3)) in enumerate(
            zip(rows, rows[1:], rows[2:]), 1):
        b1, c1, y1 = b - b0, c - c0, y - y0
        b2, c2, y2 = b3 - b, c3 - c, y3 - y
        t1, t2 = b1 * c2, b2 * c1
        det = t1 - t2
        if abs(det) << prec <= abs(t1) + abs(t2):
            raise SingularSystem(f"degenerate triple at index {lam.offset + k}")
        num2 = y1 * c2 - y2 * c1  # e2 det 2^(Q-P)
        num3 = b1 * y2 - b2 * y1  # e3 det 2^(Q-P)
        e1.append(fx.ratio(y * det - num2 * b - num3 * c, det, q))
        e2.append(fx.ratio(num2, det, q - wp))
        e3.append(fx.ratio(num3, det, q - wp))
    off = lam.offset + 1
    return (
        HpSeq(off, tuple(e1), lam.ctx),
        HpSeq(off, tuple(e2), lam.ctx),
        HpSeq(off, tuple(e3), lam.ctx),
    )


def summarize_stretched(e1: HpSeq, e2: HpSeq, e3: HpSeq) -> tuple[StretchedModel, dict]:
    """Last-index summary of the triple-fit estimators with their spreads
    over the last 10 indices.  The fit's rows are 1/(pi sqrt(n)), so the
    model's power of n is fixed at 1/2."""
    with e1.ctx.work():
        model = StretchedModel(
            a=e1.values[-1],
            delta=-e2.values[-1],
            c=mpmath.exp(-e3.values[-1]),
        )
        spreads = {name: seq.spread(10)
                   for name, seq in (("a", e1), ("delta", e2), ("log_c", e3))}
    return model, spreads


def stretched_amplitude_seq(s: HpSeq, a: Real, beta: Fraction, delta: Real) -> HpSeq:
    """Amplitude estimates c_n = s_n n^delta exp(-a pi n^beta) for each index.

    On s_n ~ A exp(a pi n^beta) / n^delta these converge to the amplitude A,
    which is the reciprocal of the denominator constant c in StretchedModel
    (both presentations of the same constant occur; reports carry both).
    Subsampled at square indices these form the extrapolation input for the
    half-power case beta = 1/2; stretched_amplitudes evaluates only those.
    """
    s = s.slice_from(1)
    return HpSeq(s.offset, stretched_amplitudes(s, a, beta, delta, s.indices()), s.ctx)


def stretched_amplitudes(s: HpSeq, a: Real, beta: Fraction, delta: Real,
                         indices: Iterable[int]) -> tuple:
    """The values of stretched_amplitude_seq(s, a, beta, delta) at the given
    indices n >= 1 of s, in their order.

    Runs on the fixed-point kernel (Fixed, whose docstring states the
    guard), at the precision that s's last index sets: the exponent
    delta log(n) - a pi n^beta is a fixed-point integer, and so is its exp
    (Fixed.exp); mpf_mul multiplies s_n by it exactly and rounds once.
    """
    fx = Fixed(s.ctx, s.offset, s.last_index)
    wp = fx.bits
    a_pi = fx.fix(a, "a") * fx.pi >> wp
    b, d = fx.fix(beta, "beta"), fx.fix(delta, "delta")
    out = []
    for n in indices:
        if n < 1:
            raise ValueError(f"amplitudes need indices >= 1, got {n}")
        raw = fx.positive(s.value(n), n)
        m, shift = fx.exp(d * fx.log(n) - a_pi * fx.power(n, b), 2 * wp)
        exp = (0, m, -shift, m.bit_length())
        out.append(mpmath.mp.make_mpf(mpf_mul(raw, exp, fx.prec, round_nearest)))
    return tuple(out)


# ---------------------------------------------------------------------------
# power-law pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawDiagnostics:
    """g_n = (r_n/mu - 1) n and its first elimination, with a summary."""

    g_seq: HpSeq
    g2_seq: HpSeq
    g_estimate: mpmath.mpf
    g_spread: mpmath.mpf  # over the last 10 values of g2_seq


def _growth_constant(mu: Real, ctx: HpContext) -> mpmath.mpf:
    """mu as a context float; ValueError unless it is finite and positive."""
    mu_ = ctx.mpf(mu)
    if not (mu_ > 0 and mpmath.isfinite(mu_)):
        raise ValueError("the growth constant mu must be finite and positive")
    return mu_


def powerlaw_pipeline(s: HpSeq, mu: Real) -> PowerLawDiagnostics:
    """Estimate the power g of s_n ~ D mu^n n^g from ratios r_n = mu(1 + g/n + ...).
    The spread covers two values of g2 at least, so 4 terms.  ValueError at
    an inf or a nan among the s_n, as bst_extrapolate."""
    if len(s) < 4:
        raise InsufficientTerms(f"power-law fit needs at least 4 terms, got {len(s)}")
    for n, v in zip(s.indices(), s.values):
        s.ctx.raw(v, n)  # ValueError at an inf or a nan
    r = ratios(s).map(s.ctx.mpf)
    mu_ = _growth_constant(mu, s.ctx)
    with s.ctx.work():
        g_seq = HpSeq(
            r.offset,
            tuple((v / mu_ - 1) * n for n, v in zip(r.indices(), r.values)),
            s.ctx,
        )
        g2 = elim_power(g_seq, 1)
    return PowerLawDiagnostics(g_seq, g2, g2.values[-1], g2.spread(10))


# ---------------------------------------------------------------------------
# Bulirsch-Stoer extrapolation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BstResult:
    value: mpmath.mpf
    spread: mpmath.mpf
    depth: int


def bst_extrapolate(s: HpSeq, w) -> BstResult:
    """Bulirsch-Stoer sequence-to-limit extrapolation with exponent w.

    Tableau: T(-1) = 0, T(0) = s, and

        T(m, n) = T(m-1, n+1) + (T(m-1, n+1) - T(m-1, n)) /
                  [ (x_n / x_(n+m))^w (1 - D/Dp) - 1 ]

    with abscissae x_n = 1/n, D = T(m-1, n+1) - T(m-1, n) and
    Dp = T(m-1, n+1) - T(m-2, n+1).  A vanishing D means the previous depth
    already converged there, so the entry propagates unchanged; a vanishing
    Dp likewise kills the correction in the limit.  A vanishing bracket with
    D nonzero is a genuine pole and raises TableauBlowup, and an inf or a
    nan among the s_n raises ValueError.  Returns the deepest entry and the
    spread against the previous depth.
    """
    if len(s) < 4:
        raise InsufficientTerms("extrapolation needs at least 4 terms")
    if s.offset < 1:
        raise ValueError("abscissae 1/n need indices >= 1")
    w = Fraction(w)
    if w <= 0:
        raise ValueError("exponent w must be positive")
    n_terms = len(s)
    # the tableau on raw mpfs as they enter the context (HpContext.raw),
    # each operation rounded to nearest at the context's precision, as mpf
    # arithmetic under s.ctx.work() rounds it
    prec, rnd = s.ctx.prec, round_nearest
    w_ = s.ctx.raw(w)
    # mpf_pow takes w = 1/2 to mpf_sqrt, whose integer root is a Python loop
    half = w == Fraction(1, 2)
    prev2 = [fzero] * (n_terms + 1)
    prev1 = list(map(s.ctx.raw, s.values, s.indices()))
    for m in range(1, n_terms):
        cur = []
        for i in range(n_terms - m):
            hi, lo = prev1[i + 1], prev1[i]
            delta = mpf_sub(hi, lo, prec, rnd)
            if delta == fzero:
                cur.append(hi)
                continue
            dprev = mpf_sub(hi, prev2[i + 1], prec, rnd)
            if dprev == fzero:
                cur.append(hi)
                continue
            n = s.offset + i
            quotient = mpf_div(from_int(n + m), from_int(n), prec, rnd)
            ratio = sqrt_nearest(quotient, prec) if half else mpf_pow(quotient, w_, prec, rnd)
            bracket = mpf_sub(
                mpf_mul(ratio, mpf_sub(fone, mpf_div(delta, dprev, prec, rnd), prec, rnd),
                        prec, rnd),
                fone, prec, rnd)
            if bracket == fzero:
                raise TableauBlowup(
                    f"zero denominator at depth {m}, index {n}"
                )
            cur.append(mpf_add(hi, mpf_div(delta, bracket, prec, rnd), prec, rnd))
        prev2, prev1 = prev1, cur
    value = mpmath.mp.make_mpf(prev1[0])
    spread = mpmath.mp.make_mpf(mpf_abs(mpf_sub(prev1[0], prev2[1], prec, rnd), prec, rnd))
    return BstResult(value=value, spread=spread, depth=n_terms - 1)


# ---------------------------------------------------------------------------
# amplitude fit
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AmplitudeFit:
    model: PowerLawModel
    c_spread: mpmath.mpf
    cond_estimate: mpmath.mpf
    window_end: int


def vandermonde_inverse(ns: list[int]) -> list[list[Fraction]]:
    """Exact inverse of the fit matrix V[r][k] = ns[r]^(-k), row-major.

    V interpolates at the nodes 1/n, so column r of the inverse holds the
    ascending coefficients of the Lagrange basis polynomial L_r(x): the
    integer quotient of prod_j (n_j x - 1) by (n_r x - 1), divided by its
    value at 1/n_r.  The nodes must be distinct nonzero integers.
    """
    master = Poly([1])
    for n in ns:
        master = Poly([-1, n]) * master
    cols = []
    for n in ns:
        quot = list(accumulate(master.coeffs[:-1], lambda q, m: n * q - m, initial=0))[1:]
        top = n ** (len(ns) - 1)
        scale = int_horner(reversed(quot), n)  # = top * quot(1/n)
        cols.append([Fraction(q * top, scale) for q in quot])
    return [list(row) for row in zip(*cols)]


# Windows of amplitude_fit: the last K+1 indices and up to 9 ending earlier,
# so the fit reads no term before the last K + AMPLITUDE_WINDOWS.
AMPLITUDE_WINDOWS = 10


def amplitude_fit(s, mu: Real, g, K: int, ctx: HpContext) -> AmplitudeFit:
    """Fit s_n n^g / mu^n = C (1 + a_1/n + ... + a_K/n^K) on the last K+1 indices.

    `s` is an exact integer Sequence; `g` is the normalizing power (the
    fitted model for s_n itself has exponent -g).  The (K+1)-point linear
    system is solved by its exact inverse at full context precision; C is
    refitted on windows ending 1..9 indices earlier through the Lagrange
    weights L_r(0) = (-1)^(K-r) binom(K, r) n_r^K / K!, and the spread of C
    across windows is reported, along with the exact 1-norm condition
    number of the fit matrix.  Raises InsufficientTerms unless s holds
    K + 2 terms at indices n >= 1, so that the spread covers two windows,
    and IllConditioned when that condition number leaves no correct digits
    at working precision.  An inf or a nan g raises ValueError.
    """
    if K < 0:
        raise ValueError("need K >= 0")
    mu_ = _growth_constant(mu, ctx)
    last = s.last_index
    shifts = min(AMPLITUDE_WINDOWS, last - K - max(s.offset, 1) + 1)
    if shifts < 2:
        raise InsufficientTerms(f"need K+2 = {K + 2} terms at indices n >= 1, for two windows")
    first = last - K - shifts + 1
    with ctx.work():
        g_ = ctx.mpf(g, "g")
        log_mu = mpmath.log(mu_)
        ys = [
            ctx.mpf(s.term(n)) * mpmath.exp(g_ * mpmath.log(n) - n * log_mu)
            for n in range(first, last + 1)
        ]
        inv = vandermonde_inverse(list(range(last - K, last + 1)))
        # ||V||_1 = K + 1: the column of n^0 dominates
        cond = (K + 1) * ctx.mpf(max(sum(map(abs, col)) for col in zip(*inv)))
        if cond > 10 ** (ctx.digits - 5):
            raise IllConditioned(
                f"condition estimate 10^{mpmath.nstr(mpmath.log10(cond), 4)} "
                f"leaves no correct digits at {ctx.digits} digits",
                cond_estimate=cond,
            )
        sol0 = [mpmath.fdot(map(ctx.mpf, row), ys[-K - 1:]) for row in inv]
        c0 = sol0[0]
        c_values = [c0] + [
            mpmath.fdot(
                ((-1) ** (K - r) * comb(K, r) * (end - K + r) ** K for r in range(K + 1)),
                ys[end - K - first : end + 1 - first],
            ) / factorial(K)
            for end in range(first + K, last)
        ]
        spread = max(abs(c - c0) for c in c_values)
        corrections = tuple(sol0[k] / c0 for k in range(1, K + 1))
    return AmplitudeFit(
        model=PowerLawModel(mu=mu_, g=-g_, C=c0, corrections=corrections),
        c_spread=spread,
        cond_estimate=cond,
        window_end=last,
    )


# ---------------------------------------------------------------------------
# the smallest positive root, as an mpf
# ---------------------------------------------------------------------------

def poly_smallest_positive_root(p: Poly, digits: int = 50) -> mpmath.mpf:
    """`Poly.smallest_positive_root(digits)` as an mpf under HpContext(digits),
    so |p(root)| < 10^(-digits+2).  Raises NoPositiveRoot when the polynomial
    has no root in (0, inf)."""
    return HpContext(digits).mpf(p.smallest_positive_root(digits))
