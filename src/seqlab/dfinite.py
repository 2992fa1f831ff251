"""D-finite algebra: the exact models and what acts on them.

The models are ``PRecurrence``, ``AlgEq`` and ``LinODE``, in one integer
normal form.  ``prec_to_ode`` turns a recurrence into the ODE of its
generating function, ``check_init`` checks initial terms, the
``*_residual`` functions re-check a model against terms, and
``expand_prec``, ``expand_prec_decimal`` and ``expand_algebraic`` extend a
sequence from a model.  The package's imports run series -> sequences ->
dfinite -> guess: this module needs ``Sequence`` and no guesser.
"""

from __future__ import annotations

import decimal
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import count, islice
from math import factorial
from operator import mul
from typing import Iterable, Iterator, Optional, Sequence as SeqABC

from .errors import (
    BranchAmbiguous,
    InconsistentInit,
    InsufficientTerms,
    LeadingCoeffVanishes,
    NonIntegral,
    NotARoot,
)
from .report import unlimited_int_digits
from .sequences import Sequence
from .series import Poly, TruncSeries, alg_eval, poly_values


# ---------------------------------------------------------------------------
# domain types (auto-normalized: integer coefficients, content 1, fixed sign)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _PolyModel:
    """A tuple of polynomials in one normal form, applied on construction:
    integer coefficients of overall content 1, the top polynomial nonzero
    with a positive leading coefficient.  Subclasses run their own checks
    first and name the variable and the unknown of each term."""

    coeffs: tuple[Poly, ...]

    _var = "x"

    def __post_init__(self):
        polys = tuple(self.coeffs)
        if not polys or not polys[-1]:
            raise ValueError(f"{type(self).__name__}: leading polynomial must be nonzero")
        # the flat coefficients end in the top polynomial's leading one
        ints = iter(Poly([c for p in polys for c in p.coeffs]).primitive().coeffs)
        object.__setattr__(self, "coeffs", tuple(
            Poly([next(ints) for _ in p.coeffs]) for p in polys
        ))

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.coeffs)

    def coeff_lists(self) -> list[list[int]]:
        return [list(p.coeffs) for p in self.coeffs]

    @classmethod
    def from_lists(cls, lists: SeqABC[SeqABC[int]]):
        return cls(tuple(Poly(list(cs)) for cs in lists))

    def __str__(self) -> str:
        parts = [
            f"({p.format(self._var)}){self._unknown(j)}"
            for j, p in enumerate(self.coeffs)
            if p
        ]
        return " + ".join(parts) + " = 0"


@dataclass(frozen=True)
class PRecurrence(_PolyModel):
    """Linear recurrence sum_j coeffs[j](n) * u(n + j) = 0, in the normal
    form of its base: integer coefficients of overall content 1, leading
    coefficient of the top polynomial positive."""

    _var = "n"

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("recurrence must have order >= 1")
        super().__post_init__()

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def _unknown(j: int) -> str:
        return f"*u(n{f'+{j}' if j else ''})"


@dataclass(frozen=True)
class AlgEq(_PolyModel):
    """Algebraic equation P(x, y) = sum_j coeffs[j](x) * y^j = 0.

    Must actually involve y (degree >= 1) and must not be divisible by y.
    Same normal form as PRecurrence, sign fixed on the top y-coefficient.
    """

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("equation must have y-degree >= 1")
        if not self.coeffs[0]:
            raise ValueError("equation is divisible by y")
        super().__post_init__()

    @property
    def degree_y(self) -> int:
        return len(self.coeffs) - 1

    def grid(self) -> list[list[int]]:
        """Coefficient grid: grid()[j][i] multiplies x^i y^j."""
        dx = self.degree
        return [cs + [0] * (dx + 1 - len(cs)) for cs in self.coeff_lists()]

    @staticmethod
    def _unknown(j: int) -> str:
        return "" if j == 0 else f"*y^{j}" if j > 1 else "*y"


@dataclass(frozen=True)
class LinODE(_PolyModel):
    """Linear ODE sum_i coeffs[i](x) * f^(i)(x) = 0, same normal form."""

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("ODE needs at least one coefficient")
        super().__post_init__()

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @staticmethod
    def _unknown(i: int) -> str:
        return "*f" + ("'" * i if i <= 3 else f"^({i})")


# ---------------------------------------------------------------------------
# residuals, initial terms and the ODE of the generating function
# ---------------------------------------------------------------------------

def _first_nonzero(shifts: dict[int, SeqABC[int]], u: SeqABC[int], n0: int,
                   length: int) -> Optional[int]:
    """The first k < length with sum_s P_s(n0 + k) * u[k + s] != 0, or None:
    the operator kernel of both recurrence residuals.  `shifts` maps each
    shift s to the coefficients of P_s; a term with k + s < 0 drops out.
    Each shift is one pass over the terms, with its P_s values from
    `poly_values`."""
    acc = [0] * length
    for s, cs in shifts.items():
        k0 = max(0, -s)
        values = poly_values(cs, n0 + k0)
        acc[k0:] = [a + v * t for a, v, t in zip(acc[k0:], values, u[k0 + s :])]
    return next((k for k, c in enumerate(acc) if c), None)


def prec_residual(rec: PRecurrence, terms: Sequence) -> int:
    """Count of consecutive satisfied windows, from the first applicable index.

    Equals ``len(terms) - rec.order`` exactly when the recurrence
    annihilates every checkable window.
    """
    good = max(len(terms) - rec.order, 0)
    bad = _first_nonzero(dict(enumerate(rec.coeff_lists())), terms.terms, terms.offset, good)
    return good if bad is None else bad


def check_init(rec: PRecurrence, init: Sequence) -> None:
    """Raise InconsistentInit unless `init` covers the recurrence order and
    satisfies the recurrence on every window it covers."""
    r = rec.order
    if len(init) < r:
        raise InconsistentInit(f"need at least {r} initial terms, got {len(init)}")
    good = prec_residual(rec, init)
    if good < len(init) - r:
        raise InconsistentInit(
            f"initial terms violate the recurrence at n={init.offset + good}"
        )


def prec_to_ode(rec: PRecurrence, init: Sequence) -> LinODE:
    """Homogeneous linear ODE annihilating f(x) = sum_n u(n) x^n.

    Writing the recurrence with theta = x d/dx gives an operator identity
    L f = R where R is a polynomial collecting initial-term corrections
    (theta acts diagonally on monomials; each shift contributes a division
    by x, cleared by premultiplying with x^order).  If R is nonzero the
    identity is differentiated once against R, yielding the homogeneous
    annihilator R (L f)' - R' (L f) of order at most deg + 1.

    `init` must start at offset 0, cover the recurrence order, and satisfy
    the recurrence on every window it covers (InconsistentInit otherwise).
    """
    if init.offset != 0:
        raise ValueError("generating-function conversion needs an offset-0 sequence")
    check_init(rec, init)
    r = rec.order
    d = rec.degree
    # operator part: x^r * sum_j x^-j p_j(theta - j), collected as
    # sum_i Q_i(x) D^i.  Since x^i D^i = theta (theta - 1) ... (theta - i + 1),
    # the coefficient of x^i D^i in p_j(theta - j) is Delta^i p_j(-j) / i!, an
    # integer (Newton's forward-difference series).  Constant part from the
    # initial terms: sum_j sum_{m<j} p_j(m - j) u(m) x^(r-j+m).
    q_acc = [[0] * (r + d + 1) for _ in range(d + 1)]
    r_acc = [0] * r
    for j, cs in enumerate(rec.coeff_lists()):
        values = list(islice(poly_values(cs, -j), max(d + 1, j)))  # p_j(-j), p_j(1 - j), ...
        for m in range(j):
            r_acc[r - j + m] += values[m] * init.terms[m]
        diffs = values[: d + 1]
        for i in range(d + 1):
            q_acc[i][r - j + i] += diffs[0] // factorial(i)
            diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    q_ops = [Poly(acc) for acc in q_acc]
    r_poly = Poly(r_acc)
    if not r_poly:
        return LinODE(tuple(q_ops))
    r_deriv = r_poly.derivative()
    padded = [Poly([])] + q_ops + [Poly([])]
    coeffs = [
        r_poly * (padded[i] + padded[i + 1].derivative()) - r_deriv * padded[i + 1]
        for i in range(d + 2)
    ]
    return LinODE(tuple(coeffs))


def ode_residual(ode: LinODE, terms: Sequence) -> Optional[int]:
    """Exponent of the first nonzero coefficient of sum_i Q_i f^(i), or None.

    None means all-zero to the checkable truncation.  The series f comes
    from `terms` (offset 0); with L terms and order m the residual is
    trustworthy through x^(L - m - 1).

    The ODE is read as its coefficient recurrence: with Q_i = sum_e q_ie x^e
    the coefficient of x^N is sum_s P_s(N) u(N + s) over the shifts
    s = i - e, where P_s(N) = sum_i q_i,(i-s) (N + s)(N + s - 1)...(N + s - i + 1).
    Each shift is one pass over the series, with its P_s values from
    `poly_values`; indices N + s < 0 drop out, and the falling factorial
    vanishes where x^e f^(i) has no x^N term.
    """
    if terms.offset != 0:
        raise ValueError("ODE residual needs an offset-0 sequence")
    m = ode.order
    big_l = len(terms)
    if big_l < m + ode.degree + 1:
        raise InsufficientTerms(
            f"need at least order + degree + 1 = {m + ode.degree + 1} terms"
        )
    out_order = big_l - m
    shifts: dict[int, Poly] = {}  # s -> P_s
    for i, q in enumerate(ode.coeff_lists()):
        for e, c in enumerate(q):
            if c:
                s = i - e
                term = reduce(mul, (Poly([s - k, 1]) for k in range(i)), Poly([c]))
                shifts[s] = shifts.get(s, Poly([])) + term
    return _first_nonzero({s: p.coeffs for s, p in shifts.items()}, terms.terms, 0, out_order)


def algeq_residual(eq: AlgEq, terms: Sequence) -> Optional[int]:
    """Exponent of the first nonzero coefficient of P(x, y(x)), or None.

    y(x) is the series of `terms` (offset 0); every supplied order is
    checkable since the coefficient of x^m in P(x, y) only involves terms
    up to m.
    """
    if terms.offset != 0:
        raise ValueError("algebraic residual needs an offset-0 sequence")
    residual = alg_eval(eq.grid(), terms.terms, len(terms))
    return next((m for m, c in enumerate(residual) if c), None)


# ---------------------------------------------------------------------------
# expanders driven by recurrences / algebraic equations
# ---------------------------------------------------------------------------

def _prec_terms(rec: PRecurrence, init: Sequence, number: type) -> Iterator:
    """Yield the terms after `init` of the sequence it starts, extended by
    the recurrence in `number`s: int, or decimal.Decimal under an exact
    context (any type with exact +, * and divmod by an int).  Only the
    last rec.order terms are kept, and the coefficient values at each
    step come from `poly_values`, so a step is a few C-level loops.

    Raises LeadingCoeffVanishes(n) if the leading polynomial vanishes at a
    needed index and NonIntegral if an exact integer step fails.
    """
    r = rec.order
    n0 = init.last_index - r + 1
    steps = zip(*(poly_values(cs, n0) for cs in rec.coeff_lists()))
    window = deque(map(number, init.terms[len(init) - r:]), maxlen=r)
    for n, cs in zip(count(n0), steps):
        lead = cs[r]
        if lead == 0:
            raise LeadingCoeffVanishes(n)
        # map stops at the window's r terms, leaving out the leading value
        q, rem = divmod(-sum(map(mul, cs, window)), lead)
        if rem:
            raise NonIntegral(f"non-integer term at n={n + r}")
        window.append(q)
        yield q


def expand_prec(rec: PRecurrence, init: Sequence, n_terms: int) -> Sequence:
    """Exactly n_terms terms of the sequence that `init` starts, extended
    by the recurrence (ValueError when n_terms < 1).

    All supplied init terms must already satisfy the recurrence on every
    window they cover (``check_init``: InconsistentInit otherwise).
    Raises LeadingCoeffVanishes(n) if the leading polynomial vanishes at a
    needed index and NonIntegral if an exact integer step fails.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    check_init(rec, init)
    if n_terms <= len(init):
        return init.head(n_terms)
    new = _prec_terms(rec, init, int)
    return Sequence(init.offset, init.terms + tuple(islice(new, n_terms - len(init))))


# Exact integer arithmetic in decimal: no rounding at any size, and an
# inexact or invalid step raises rather than rounds.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.InvalidOperation, decimal.DivisionByZero],
)


def expand_prec_decimal(rec: PRecurrence, init: Sequence, n_terms: int) -> list[str]:
    """The decimal strings of expand_prec(rec, init, n_terms).terms, with
    the same checks and errors.

    The init terms print with str; the recurrence then runs in
    decimal.Decimal, whose base-10^19 limbs make each step and each
    rendering linear in the digit count, where str of a Python int is
    quadratic.  Each new term is rendered as it is produced.  The caller's
    decimal context is left as it was.
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    check_init(rec, init)
    with unlimited_int_digits():
        out = [str(t) for t in init.terms[:n_terms]]
    if n_terms <= len(init):
        return out
    with decimal.localcontext(_EXACT):
        new = _prec_terms(rec, init, decimal.Decimal)
        # a zero divided by a negative leading value is Decimal("-0")
        out.extend(str(q) if q else "0" for q in islice(new, n_terms - len(init)))
    return out


def expand_algebraic_series(eq: AlgEq, seed: Iterable, n_terms: int) -> TruncSeries:
    """Newton-lift the power series root of P(x, y) = 0 pinned by `seed`.

    The seed must satisfy P(x, seed) = 0 mod x^len(seed) (NotARoot
    otherwise), and dP/dy evaluated on the seed must be a unit, i.e. have a
    nonzero constant term (BranchAmbiguous otherwise: the seed sits on a
    multiple root and does not determine the branch).  Each Newton step
    doubles the number of correct coefficients.  The result has order
    exactly n_terms, also below the seed's length (ValueError when
    n_terms < 1).
    """
    if n_terms < 1:
        raise ValueError("need n_terms >= 1")
    seed_coeffs = [Fraction(c) for c in seed]
    if not seed_coeffs:
        raise NotARoot("empty seed")
    grid = eq.grid()
    dgrid = [[j * c for c in cj] for j, cj in enumerate(grid)][1:]
    y = TruncSeries(seed_coeffs)
    if any(alg_eval(grid, y.coeffs, y.order)):
        raise NotARoot("seed does not satisfy the equation to its own order")
    if alg_eval(dgrid, y.coeffs, 1)[0] == 0:
        raise BranchAmbiguous("dP/dy vanishes at x=0 on this seed")
    while y.order < n_terms:
        new_order = min(2 * y.order, n_terms)
        y = TruncSeries(y.coeffs + (Fraction(0),) * (new_order - y.order))
        num = TruncSeries(alg_eval(grid, y.coeffs, new_order))
        den = TruncSeries(alg_eval(dgrid, y.coeffs, new_order))
        y = y - num * den.inverse()
    if any(alg_eval(grid, y.coeffs, y.order)):
        raise NotARoot("Newton lifting failed to converge")  # pragma: no cover
    return y.truncate(n_terms)


def expand_algebraic(eq: AlgEq, seed: Iterable, n_terms: int) -> Sequence:
    """Integer-sequence wrapper around expand_algebraic_series (offset 0)."""
    return Sequence(0, expand_algebraic_series(eq, seed, n_terms).coeffs)
