"""Stage chains in seqlab.pipeline, against independent references."""

from fractions import Fraction

import mpmath
import pytest

import seqlab.pipeline
from seqlab import HpContext, HpSeq, expand_prec, guess_prec
from seqlab.errors import InsufficientTerms
from seqlab.pipeline import (
    ascent_study,
    branch_series,
    growth_rate,
    lconvex_study,
    square_bst,
)
from test_acceptance import _branch_series
from conftest import DATA_DIR, GROWTH_POLY


def test_branch_series_matches_acceptance_reference(b202062):
    head = b202062.head(24)
    u = expand_prec(guess_prec(head), head, 200)
    # orders below 5 truncate the shift numerator
    for order in (1, 2, 3, 4, 5, 6, 64, 200):
        assert branch_series(u, order) == _branch_series(u, order), order


def test_lconvex_study_checks_sizes_before_any_stage(monkeypatch):
    def fail(*args):
        raise AssertionError("the generator ran before the size checks")

    monkeypatch.setattr(seqlab.pipeline, "gen_lconvex_area", fail)
    with pytest.raises(InsufficientTerms, match="at least 4 squares"):
        lconvex_study(5000, 100, 3)
    with pytest.raises(ValueError, match="digits >= 1"):
        lconvex_study(5000, 0, 44)


def test_ascent_study_reports_the_residual_it_found(monkeypatch):
    monkeypatch.setattr(seqlab.pipeline, "ode_residual", lambda ode, terms: 7)
    fields = ascent_study((DATA_DIR / "b202062.txt").read_text(encoding="utf-8"), 60, 40, 4)
    assert fields["notes"][0] == "ODE order 3, degree 11, residual nonzero at x^7"
    assert "; residual on 2000 terms: nonzero at x^7\n" in fields["stdout"]


def test_growth_rate_is_reciprocal_root():
    ctx = HpContext(40)
    rho, mu = growth_rate(GROWTH_POLY, ctx)
    with ctx.work():
        assert abs(GROWTH_POLY(rho)) < 10 ** -45
        assert abs(mu * rho - 1) < 10 ** -45


def test_square_bst_limits_to_first_squares():
    # s_n = 2 + 1/sqrt(n) is 2 + 1/k at n = k^2; the tableau with w = 1
    # extrapolates 1/k exactly
    ctx = HpContext(30)
    with ctx.work():
        s = HpSeq(1, tuple(2 + 1 / mpmath.sqrt(n) for n in range(1, 101)), ctx)
    res = square_bst(s, Fraction(1), 6)
    assert res.depth == 5
    with ctx.work():
        assert abs(res.value - 2) < 10 ** -25
