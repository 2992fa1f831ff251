"""Stage chains in seqlab.pipeline, against independent references."""

from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest
from mpmath.libmp import fone, from_int, mpf_div, mpf_sqrt, round_nearest

import seqlab.pipeline
from seqlab import (
    HpContext,
    HpSeq,
    LinODE,
    Poly,
    bst_extrapolate,
    square_subsample,
)
from seqlab.errors import InsufficientTerms, SeqLabError
from seqlab.pipeline import (
    _inv_sqrt,
    ascent_study,
    growth_rate,
    lconvex_study,
    singular_exponent,
)
from seqlab.report import scalar_entry
from test_scripts import assert_failed_study
from conftest import DATA_DIR, GROWTH_POLY, PRIMES_30

BFILE_TEXT = (DATA_DIR / "b202062.txt").read_text(encoding="utf-8")


def bfile_with_wrong_term(n: int) -> str:
    """The bundled b-file with its term at index n raised by one."""
    lines = BFILE_TEXT.splitlines()
    index, value = lines[n].split()
    assert int(index) == n
    lines[n] = f"{n} {int(value) + 1}"
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module", params=[100, 250])
def ascent_fields(request):
    return request.param, ascent_study(BFILE_TEXT, 60, request.param, 4)


@pytest.mark.parametrize("digits", [15, 100, 250])
def test_inv_sqrt_matches_mpf_sqrt(digits):
    # the isqrt root with a sticky bit, rounded by normalize, is mpf_sqrt's
    # root, so the same mpf_div gives the same tuples
    prec = HpContext(digits).prec
    for n in range(1, 10 ** 4 + 1):
        root = mpf_sqrt(from_int(n), prec, round_nearest)
        assert _inv_sqrt(n, prec)._mpf_ == mpf_div(fone, root, prec, round_nearest), n


def test_lconvex_study_checks_sizes_before_any_stage(monkeypatch):
    def fail(*args):
        raise AssertionError("the generator ran before the size checks")

    monkeypatch.setattr(seqlab.pipeline, "gen_lconvex_area", fail)
    with pytest.raises(InsufficientTerms, match=r"^need the terms at indices 1 to 25 \("):
        lconvex_study(24, 30)
    with pytest.raises(ValueError, match="digits >= 1"):
        lconvex_study(5000, 0)


def test_ascent_study_checks_the_fit_size_before_any_stage(monkeypatch):
    # the fit reads the terms from n = 0 and needs K + 2 of them at n >= 1
    def fail(*args):
        raise AssertionError("the guesser ran")

    monkeypatch.setattr(seqlab.pipeline, "guess_prec", fail)
    for k in (3, 20):
        with pytest.raises(InsufficientTerms, match=f"needs terms >= {k + 3}, got {k + 2}$"):
            ascent_study(BFILE_TEXT, k + 2, 30, k)
        with pytest.raises(AssertionError, match="^the guesser ran$"):
            ascent_study(BFILE_TEXT, k + 3, 30, k)


def test_lconvex_study_uses_every_square_by_default():
    # 25 terms, the fewest the study takes, hold the squares 1, 4, 9, 16, 25
    for terms, squares in ((200, 14), (25, 5)):
        fields = lconvex_study(terms, 30)
        assert fields["parameters"] == {"terms": terms, "digits": 30, "squares": squares}
        assert f"depth {squares - 1})" in fields["stdout"]


@pytest.mark.parametrize("n", range(23, 28))
def test_ascent_study_names_the_first_wrong_stored_term(n):
    # the recurrence comes from terms 0..22, so a later term is a prediction
    with pytest.raises(SeqLabError, match=f"disagrees with the b-file at n = {n}$"):
        ascent_study(bfile_with_wrong_term(n), 60, 40, 4)


def test_ascent_script_on_a_wrong_bfile_fails_cleanly(tmp_path, monkeypatch, capsys):
    bad = tmp_path / "wrong.txt"
    bad.write_text(bfile_with_wrong_term(25), encoding="utf-8")
    err = assert_failed_study("ascent_pipeline", ["--bfile", str(bad)],
                              tmp_path, monkeypatch, capsys)
    assert "at n = 25" in err


def test_ascent_study_recovers_the_cubic(ascent_fields, ascent_u_cubic):
    _, fields = ascent_fields
    assert fields["parameters"]["algebraic_equation"] == ascent_u_cubic.coeff_lists()


def test_ascent_study_reads_the_exponent_from_the_ode(ascent_fields):
    _, fields = ascent_fields
    assert fields["parameters"]["exponent"] == "7/2"
    assert "exponent of U at rho: alpha = 7/2 (" in fields["stdout"]


def test_ascent_rho_is_the_growth_cubic_root(ascent_fields):
    # reference: every complex root of GROWTH_POLY by mpmath, at 20 extra digits
    digits, fields = ascent_fields
    with mpmath.workdps(digits + 20):
        roots = mpmath.polyroots(GROWTH_POLY.coeffs[::-1], maxsteps=200, extraprec=400)
        rho = min(r.real for r in roots if abs(r.imag) < 10 ** -digits and r.real > 0)
        assert fields["scalars"]["rho"] == scalar_entry(rho, digits)


def _bfile(terms) -> str:
    return "".join(f"{n} {t}\n" for n, t in enumerate(terms))


def test_ascent_study_fails_without_a_recurrence():
    with pytest.raises(SeqLabError, match="^no recurrence found from the 23-term prefix$"):
        ascent_study(_bfile(PRIMES_30), 60, 40, 4)


def test_ascent_study_fails_without_an_algebraic_equation():
    # n! satisfies u(n+1) = (n+1) u(n), but its series is not algebraic
    factorials = [factorial(n) for n in range(30)]
    with pytest.raises(SeqLabError, match="^no algebraic equation found from 64 "
                                          "coefficients$"):
        ascent_study(_bfile(factorials), 60, 40, 4)


def test_ascent_study_needs_corrections_at_least_zero():
    with pytest.raises(ValueError, match="^need corrections >= 0, got -1$"):
        ascent_study(BFILE_TEXT, 60, 40, -1)


def test_ascent_study_fails_when_the_algebraic_equation_fails(monkeypatch):
    monkeypatch.setattr(seqlab.pipeline, "algeq_residual", lambda eq, branch: 5)
    with pytest.raises(SeqLabError, match="^the algebraic equation fails at x\\^5 of the series$"):
        ascent_study(BFILE_TEXT, 60, 40, 4)


def test_ascent_study_fails_when_the_differential_equation_fails(monkeypatch):
    # rho and the exponent come from the ODE, so the study stops there
    monkeypatch.setattr(seqlab.pipeline, "ode_residual", lambda ode, terms: 7)
    monkeypatch.setattr(seqlab.pipeline, "guess_algeq", lambda *args: pytest.fail("guessed"))
    with pytest.raises(SeqLabError, match="^the differential equation fails at x\\^7 of "
                                          "the series$"):
        ascent_study(BFILE_TEXT, 60, 40, 4)


def test_growth_rate_is_reciprocal_root():
    ctx = HpContext(40)
    rho, mu = growth_rate(GROWTH_POLY, ctx)
    with ctx.work():
        assert abs(GROWTH_POLY(rho)) < 10 ** -45
        assert abs(mu * rho - 1) < 10 ** -45


def _motzkin(count: int) -> list[int]:
    # (n + 2) M(n) = (2n + 1) M(n - 1) + (3n - 3) M(n - 2)
    terms = [1, 1]
    for n in range(2, count):
        terms.append(((2 * n + 1) * terms[-1] + (3 * n - 3) * terms[-2]) // (n + 2))
    return terms


# nothing in the chain names the 201 sequence: on Catalan and Motzkin b-files
# it finds their square-root singularity and its amplitude; 35 digits of C,
# since the fit's window spread is 5e-45 (Catalan) and 1.3e-40 (Motzkin)
@pytest.mark.parametrize("terms, mu, closed_c", [
    ([comb(2 * n, n) // (n + 1) for n in range(40)], 4, lambda: 1 / mpmath.sqrt(mpmath.pi)),
    (_motzkin(40), 3, lambda: mpmath.sqrt(27 / (4 * mpmath.pi))),
], ids=["catalan", "motzkin"])
def test_ascent_study_runs_on_other_algebraic_counts(terms, mu, closed_c):
    fields = ascent_study(_bfile(terms), 2000, 100, 12)
    assert fields["parameters"]["exponent"] == "1/2"
    scalars = fields["scalars"]
    with mpmath.workdps(110):
        assert abs(mpmath.mpf(scalars["rho"]["value"]) * mu - 1) < 10 ** -99
        assert abs(mpmath.mpf(scalars["amplitude_C"]["value"]) - closed_c()) < 10 ** -35


@pytest.mark.parametrize("lead, next_coeff, message", [
    # (1 - 2x)^2 has the exact double root 1/2
    (Poly([1, -4, 4]), Poly([1]), "^the exponent at rho: p_r'\\(rho\\) = 0, a multiple root$"),
    # alpha = -1/(2 sqrt 2) at rho = sqrt 2
    (Poly([-2, 0, 1]), Poly([1]), "^the exponent at rho: -0.3535533905932737622 is not found$"),
    # alpha = 0 - 8/(-4) = 2
    (Poly([1, -4]), Poly([8]), "^the exponent at rho: 2.0 is an integer$"),
], ids=["double-root", "irrational", "integer"])
def test_singular_exponent_raises(lead, next_coeff, message):
    ctx = HpContext(40)
    ode = LinODE((next_coeff, lead))
    with pytest.raises(SeqLabError, match=message):
        singular_exponent(ode, growth_rate(lead, ctx)[0], ctx)


def test_singular_exponent_is_the_indicial_root():
    # order 1: U' (1 - 4x) + U = 0 gives U = (1 - 4x)^(1/4)
    ctx = HpContext(40)
    lead = Poly([1, -4])
    rho = growth_rate(lead, ctx)[0]
    assert singular_exponent(LinODE((Poly([1]), lead)), rho, ctx) == Fraction(1, 4)


def test_square_bst_limits_to_first_squares():
    # s_n = 2 + 1/sqrt(n) is 2 + 1/k at n = k^2; the tableau with w = 1
    # extrapolates 1/k exactly
    ctx = HpContext(30)
    with ctx.work():
        s = HpSeq(1, tuple(2 + 1 / mpmath.sqrt(n) for n in range(1, 101)), ctx)
    res = bst_extrapolate(square_subsample(s, 4), Fraction(1))
    assert res.depth == 9
    with ctx.work():
        assert abs(res.value - 2) < 10 ** -25
