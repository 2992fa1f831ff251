"""Shared fixtures: pinned exact objects and cached expensive sequences.

Expensive generators run once per session; the pinned recurrence, ODE and
algebraic equation below were found by the package's own guessers and then
frozen.  `seqlab.pipeline.ascent_study` re-derives them from the b-file and
checks them against every stored term; the b-file's head is checked against
the brute-force enumerator in test_sequences.py.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from seqlab import (
    AlgEq,
    LinODE,
    Poly,
    PRecurrence,
    Sequence,
    expand_prec,
    gen_lconvex_area,
    gen_stack_area,
    parse_bfile,
)

DATA_DIR = Path(__file__).parent / "data"

# Minimal recurrence for the 201-avoiding ascent sequence counts u(n):
# sum_j p_j(n) u(n+j) = 0 with the ascending coefficient lists below.
ASCENT_REC_LISTS = [
    [0, 1, 2],
    [60, 45, 6],
    [-480, -263, -34],
    [984, 421, 44],
    [-684, -235, -20],
    [120, 31, 2],
]

ASCENT_INIT = (1, 1, 2, 5, 15)

# Order-3 ODE annihilating the ordinary generating function U(x) of u(n),
# written factored for readability; Q3 f''' + Q2 f'' + Q1 f' + Q0 f = 0.
ODE_Q3 = (
    Poly([0, 0, -2])
    * Poly([1, -8, 5, 1])
    * Poly([15, -36, 48, -30, 4])
    * Poly([1, -1])
    * Poly([1, -1])
)
ODE_Q2 = (
    Poly([0, -3])
    * Poly([-1, 1])
    * Poly([-85, 870, -2843, 4758, -4767, 2734, -652, -30, 12])
)
ODE_Q1 = Poly(
    [-420, 4350, -16620, 32436, -38106, 28884, -13278, 2754, 30, -24]
)
ODE_Q0 = Poly([30]) * Poly([-2, 3]) * Poly([-7, 24, -28, 19, -10, 3])

# Cubic satisfied by the branch series y(x) = 12 x^3 U(x) + R(x) where
# R = (1 + 18x - 45x^2 + 26x^3 + x^4) / (x - 1):
# c3 y^3 + c1 y + c0 = 0 (the y^2 coefficient vanishes).
CUBIC_C3 = Poly([-4, 4]) * Poly([-1, 1]) * Poly([-1, 1])
CUBIC_C2 = Poly([])
CUBIC_C1 = (
    Poly([-3])
    * Poly([-1, 1])
    * Poly([1, -1, 1])
    * Poly([1, 229, 270, -1695, 1430, -235, 1])
)
CUBIC_C0 = Poly(
    [1, -522, -8955, 37950, -70998, 131562, -253239, 316290,
     -218058, 80090, -14631, 510, 1]
)

# Numerator of the rational branch shift R(x) (denominator is x - 1).
BRANCH_SHIFT_NUM = Poly([1, 18, -45, 26, 1])

# Ascending coefficients of the cubic whose smallest positive root is the
# reciprocal growth rate of u(n).
GROWTH_POLY = Poly([1, -8, 5, 1])

CATALAN = (
    1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012,
    742900, 2674440, 9694845, 35357670, 129644790, 477638700, 1767263190,
)

# the first 30 primes: no recurrence or algebraic equation of a small grid
# fits them
PRIMES_30 = tuple(p for p in range(2, 114) if all(p % q for q in range(2, p)))


@pytest.fixture(scope="session")
def ascent_rec() -> PRecurrence:
    return PRecurrence.from_lists(ASCENT_REC_LISTS)


@pytest.fixture(scope="session")
def ascent_ode() -> LinODE:
    return LinODE((ODE_Q0, ODE_Q1, ODE_Q2, ODE_Q3))


@pytest.fixture(scope="session")
def ascent_cubic() -> AlgEq:
    return AlgEq((CUBIC_C0, CUBIC_C1, CUBIC_C2, CUBIC_C3))


@pytest.fixture(scope="session")
def b202062() -> Sequence:
    return parse_bfile((DATA_DIR / "b202062.txt").read_text())


@pytest.fixture(scope="session")
def u2000(ascent_rec) -> Sequence:
    return expand_prec(ascent_rec, Sequence(0, ASCENT_INIT), 2000)


@pytest.fixture(scope="session")
def u5000(ascent_rec) -> Sequence:
    return expand_prec(ascent_rec, Sequence(0, ASCENT_INIT), 5000)


@pytest.fixture(scope="session")
def lconvex_2000() -> Sequence:
    return gen_lconvex_area(2001)


@pytest.fixture(scope="session")
def stack_2000() -> Sequence:
    return gen_stack_area(2000)
