"""End-to-end command-line checks through click's test runner."""

import datetime
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from click.testing import CliRunner

import seqlab
from seqlab.cli import main
from seqlab.fixed import HpContext, _read_number
from seqlab.report import text_digest
from conftest import CATALAN, DATA_DIR, PRIMES_30
from test_scripts import load_script


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kw):
    result = runner.invoke(main, args, catch_exceptions=False, **kw)
    assert result.exit_code == 0, result.output
    return result


def read_report(path="report.json"):
    return json.loads(Path(path).read_text())


CATALAN_14 = "".join(f"{n} {c}\n" for n, c in enumerate(CATALAN[:14]))


class TestGen:
    def test_lconvex_area(self, runner):
        with runner.isolated_filesystem():
            res = invoke(runner, ["gen", "lconvex-area", "--n", "5"])
            assert res.stdout.splitlines()[:5] == [
                "0 1", "1 1", "2 2", "3 6", "4 15",
            ]
            rep = read_report()
            assert rep["sequences"]["lconvex_area"]["values"] == [
                "1", "1", "2", "6", "15",
            ]

    def test_stack(self, runner):
        with runner.isolated_filesystem():
            res = invoke(runner, ["gen", "stack", "--n", "4"])
            assert res.stdout.splitlines()[:4] == ["1 1", "2 2", "3 4", "4 8"]


class TestOracle:
    def test_ascent(self, runner):
        with runner.isolated_filesystem():
            res = invoke(
                runner, ["oracle", "ascent", "--pattern", "201", "--n", "5"]
            )
            assert res.stdout.splitlines()[:6] == [
                "0 1", "1 1", "2 2", "3 5", "4 15", "5 52",
            ]

    def test_budget_failure_is_clean(self, runner):
        with runner.isolated_filesystem():
            res = runner.invoke(
                main,
                ["oracle", "ascent", "--pattern", "201", "--n", "12",
                 "--budget", "10"],
            )
            assert res.exit_code != 0
            assert "budget" in res.stderr.lower()


class TestGuessAndExpand:
    def test_guess_rec_from_bfile(self, runner):
        text = (DATA_DIR / "b202062.txt").read_text()
        with runner.isolated_filesystem():
            Path("b.txt").write_text(text)
            res = invoke(runner, ["guess", "rec", "b.txt", "--rmax", "5",
                                  "--dmax", "2"])
            assert "(2*n^2 + n)*u(n)" in res.stdout
            rep = read_report()
            assert rep["parameters"]["order"] == 5
            assert rep["parameters"]["degree"] == 2
            assert rep["sequences"]["p0"]["values"] == ["0", "1", "2"]
            assert rep["sequences"]["p5"]["values"] == ["120", "31", "2"]

    def test_expand_rec_predicts_fixture_tail(self, runner):
        text = (DATA_DIR / "b202062.txt").read_text()
        head = "\n".join(text.splitlines()[:24]) + "\n"
        with runner.isolated_filesystem():
            Path("head.txt").write_text(head)
            res = invoke(runner, ["expand", "rec", "head.txt", "--n", "28",
                                  "--rmax", "5", "--dmax", "2"])
            assert res.stdout.splitlines()[-28:] == text.splitlines()

    def test_expand_rec_past_str_limit(self, runner):
        # terms past n = 5690 have more than 4300 digits
        with runner.isolated_filesystem():
            res = invoke(runner, ["expand", "rec", str(DATA_DIR / "b202062.txt"),
                                  "--n", "6000"])
            lines = res.stdout.splitlines()
            assert len(lines) == 6000
            assert lines[-1].startswith("5999 ")
            assert len(lines[-1]) > 4300
            values = read_report()["sequences"]["extended"]["values"]
            assert len(values) == 6000
            assert values[-1] == lines[-1].split()[1]

    def test_expand_rational(self, runner):
        with runner.isolated_filesystem():
            res = invoke(runner, [
                "expand", "rational", "--num", "1,-2,1", "--den", "1,-4,2",
                "--n", "6",
            ])
            assert res.stdout.splitlines()[-6:] == [
                "0 1", "1 2", "2 7", "3 24", "4 82", "5 280",
            ]

    @pytest.mark.parametrize("precision", [5, 50])
    def test_expand_rational_prints_at_precision(self, runner, precision):
        with runner.isolated_filesystem():
            res = invoke(runner, ["--precision", str(precision), "expand", "rational",
                                  "--num", "1", "--den", "3,-1", "--n", "2"])
            thirds = ["0." + "3" * precision, "0." + "1" * precision]
            assert res.stdout.splitlines()[-2:] == [f"0 {thirds[0]}", f"1 {thirds[1]}"]
            assert read_report()["sequences"]["coefficients"]["values"] == thirds

    def test_expand_algeq_catalan(self, runner):
        catalan = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
        text = "".join(f"{n} {c}\n" for n, c in enumerate(catalan))
        with runner.isolated_filesystem():
            Path("cat.txt").write_text(text)
            res = invoke(runner, ["expand", "algeq", "cat.txt", "--n", "15",
                                  "--dxmax", "2", "--dymax", "2"])
            assert res.stdout.splitlines()[-1] == "14 2674440"

    def test_expand_stops_at_n_below_the_input(self, runner):
        with runner.isolated_filesystem():
            Path("cat.txt").write_text(CATALAN_14)
            res = invoke(runner, ["expand", "algeq", "cat.txt", "--n", "3",
                                  "--dxmax", "2", "--dymax", "2"])
            assert res.stdout.splitlines() == ["0 1", "1 1", "2 2"]
            assert read_report()["sequences"]["extended"]["values"] == ["1", "1", "2"]
            res = invoke(runner, ["expand", "rec", str(DATA_DIR / "b202062.txt"),
                                  "--n", "3"])
            assert res.stdout.splitlines() == (DATA_DIR / "b202062.txt").read_text(
            ).splitlines()[:3]

    def test_guess_rec_no_match(self, runner):
        with runner.isolated_filesystem():
            Path("p.txt").write_text(
                "".join(f"{i} {p}\n" for i, p in enumerate(
                    (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)))
            )
            res = invoke(runner, ["guess", "rec", "p.txt", "--rmax", "2",
                                  "--dmax", "1"])
            assert "no recurrence found" in res.stdout


class TestAnalyze:
    def seed(self, n=200):
        from seqlab import gen_lconvex_area, render_bfile

        Path("l.txt").write_text(render_bfile(gen_lconvex_area(n)))

    def test_square_writes_figures(self, runner):
        with runner.isolated_filesystem():
            self.seed()
            res = invoke(runner, ["--precision", "30", "analyze", "square",
                                  "l.txt"])
            assert "intercept:" in res.stdout
            for key in ("r_sq", "intercepts", "t_n"):
                assert Path(f"{key}.csv").exists(), key
            assert Path("r_sq.csv").read_text().startswith("k,ratio\n")

    def test_stretched_reports_both_conventions(self, runner):
        with runner.isolated_filesystem():
            self.seed()
            res = invoke(runner, ["--precision", "30", "analyze",
                                  "stretched", "l.txt"])
            rep = read_report()
            assert set(rep["scalars"]) >= {
                "a", "a_squared", "delta", "c_denominator", "c_amplitude",
            }
            c_den = float(rep["scalars"]["c_denominator"]["value"])
            c_amp = float(rep["scalars"]["c_amplitude"]["value"])
            assert abs(c_den * c_amp - 1) < 1e-9
            for key in ("loglog", "gradient", "e1", "e2"):
                assert Path(f"{key}.csv").exists(), key
            assert "a:" in res.stdout

    def test_ratios(self, runner):
        with runner.isolated_filesystem():
            self.seed(50)
            invoke(runner, ["--precision", "30", "analyze", "ratios",
                            "l.txt"])
            assert Path("ratios_vs_inv_n.csv").exists()
            assert Path("ratios_vs_inv_sqrt_n.csv").exists()

    def test_powerlaw_with_explicit_mu(self, runner):
        with runner.isolated_filesystem():
            Path("s.txt").write_text(
                "".join(f"{n} {3 ** n * n ** 2}\n" for n in range(1, 40))
            )
            res = invoke(runner, ["--precision", "30", "analyze", "powerlaw",
                                  "s.txt", "--mu", "3"])
            rep = read_report()
            assert abs(float(rep["scalars"]["g"]["value"]) - 2) < 1e-2
            assert Path("g_n.csv").exists() and Path("g2_n.csv").exists()
            assert "g:" in res.stdout

    def test_powerlaw_requires_one_mu_source(self, runner):
        with runner.isolated_filesystem():
            self.seed(30)
            res = runner.invoke(main, ["analyze", "powerlaw", "l.txt"])
            assert res.exit_code != 0
            assert "exactly one" in res.stderr


class TestExtrapolateAndFit:
    def test_bst_constant(self, runner):
        with runner.isolated_filesystem():
            Path("c.txt").write_text(
                "".join(f"{n} 7\n" for n in range(1, 11))
            )
            res = invoke(runner, ["extrapolate", "bst", "c.txt"])
            assert "limit: 7.0" in res.stdout
            rep = read_report()
            assert rep["scalars"]["limit"]["spread"] == "0.0"
            assert "note:" not in res.stderr and rep["notes"] == []

    def test_bst_notes_spread_beyond_limit(self, runner):
        """Growing terms have no limit: the spread exceeds |limit| and a
        note on stderr and in the report says so; stdout keeps its one line."""
        with runner.isolated_filesystem():
            Path("l.txt").write_text(seqlab.render_bfile(seqlab.gen_lconvex_area(121)))
            res = invoke(runner, ["--precision", "40", "extrapolate", "bst",
                                  "l.txt", "--square"])
            assert res.stdout.startswith("limit: -203315.9")
            assert res.stdout.count("\n") == 1 and "spread: 3.9495e+7" in res.stdout
            assert res.stderr.count("\n") == 2
            assert "note: spread >= |limit|" in res.stderr
            assert read_report()["notes"] == [
                "spread >= |limit|, so the terms do not fix the limit"]

    def test_fit_amplitude_planted(self, runner):
        with runner.isolated_filesystem():
            Path("s.txt").write_text(
                "".join(f"{n} {3 * 2 ** n * (n + 1)}\n" for n in range(1, 40))
            )
            res = invoke(runner, ["--precision", "40", "fit", "amplitude",
                                  "s.txt", "--mu", "2", "--g", "-1",
                                  "--k", "1"])
            rep = read_report()
            assert rep["scalars"]["C"]["value"].startswith("3.0")
            assert "C: 3.0" in res.stdout


class TestIdentifyCli:
    def test_rational(self, runner):
        with runner.isolated_filesystem():
            res = invoke(runner, ["identify", "rational", "--value", "0.75"])
            assert res.stdout.splitlines()[0] == "3/4"

    def test_mult(self, runner):
        with runner.isolated_filesystem():
            res = invoke(runner, [
                "identify", "mult",
                "--value", "0.023938510821419577",
            ])
            assert "(13/768) * sqrt(2)" in res.stdout
            rep = read_report()
            assert rep["identifications"][0]["kind"] == "dictionary-multiple"

    def test_minpoly(self, runner):
        with runner.isolated_filesystem():
            res = invoke(runner, [
                "identify", "minpoly", "--maxdeg", "2",
                "--value", "1.4142135623730950488016887242096980786",
            ])
            assert res.stdout.splitlines()[0] == "x^2 - 2"

    def test_value_digits_counted_from_the_units_place(self, runner):
        """--value's digits run from its leading digit, or from the units
        place when that is higher, to its last digit: the exponent is read,
        a leading zero of the integer part is not a digit, a trailing zero
        is, a zero counts its coefficient, and a ratio counts both parts."""
        table = {"0.5": 2, "-0.5": 2, ".5": 2, "00012": 2, "1.5e-3": 5, "123.450": 6,
                 "0e-5000": 1, "1/3": 2, "22/7": 3}
        counted = {}
        with runner.isolated_filesystem():
            for value in table:
                invoke(runner, ["identify", "rational", "--value", value])
                counted[value] = read_report()["parameters"]["digits"]
        assert counted == table

    @pytest.mark.parametrize("args", [
        ["rational", "--value", "0.00000001"],
        ["mult", "--value", "0.0000000001"],
        ["minpoly", "--maxdeg", "2",
         "--value", "0." + "0" * 34 + "1414213562373095048801688724"],
    ])
    def test_nonzero_value_not_named_zero(self, runner, args):
        """A small nonzero value is neither 0/1, (0) * 1, nor a root of
        x^2."""
        with runner.isolated_filesystem():
            res = invoke(runner, ["identify", *args])
            assert res.stdout == "not found\n"

    @pytest.mark.parametrize("command", ["rational", "mult"])
    def test_small_value_held_to_its_digits(self, runner, command):
        """0.00123456790173457 gives 18 digits, so the tolerance is 1e-14,
        and it differs from 1/810 by about 5e-13: counted by significant
        digits alone (15) under the same absolute tolerance, 1/810 would
        pass."""
        with runner.isolated_filesystem():
            res = invoke(runner, ["identify", command, "--value", "0.00123456790173457"])
            assert res.stdout == "not found\n"

    def test_not_found(self, runner):
        with runner.isolated_filesystem():
            res = invoke(runner, [
                "identify", "rational", "--value",
                "3.1415926535897932384626433832795028842",
            ])
            assert "not found" in res.stdout

    @pytest.mark.parametrize("command, value, out", [
        ("rational", "1e300", "not found"),
        ("mult", "1e300", "not found"),
        ("rational", "1e20", "100000000000000000000/1"),
    ])
    def test_numerator_within_working_precision(self, runner, command, value, out):
        """1e300 read at its one counted digit leaves its numerator's digits
        past the working precision as rounding noise, so it is not found."""
        with runner.isolated_filesystem():
            res = invoke(runner, ["identify", command, "--value", value])
            assert res.stdout == out + "\n"

    @pytest.mark.parametrize("value, out", [
        ("1e300", "not found"),
        ("1e20", "x - 100000000000000000000"),
    ])
    def test_minpoly_coefficient_within_working_precision(self, runner, value, out):
        """min_poly skips a candidate with a coefficient of 10^dps or more."""
        with runner.isolated_filesystem():
            res = invoke(runner, ["identify", "minpoly", "--value", value, "--digits", "40"])
            assert res.stdout == out + "\n"

    @pytest.mark.parametrize("value, out", [("-2.5", "-3/1"), ("2.5", "2/1")])
    def test_rational_tie_takes_the_floor(self, runner, value, out):
        """At maxden 1 a value midway between two integers is read as the
        lower one, as Fraction.limit_denominator reads it."""
        with runner.isolated_filesystem():
            res = invoke(runner, ["identify", "rational", "--value", value,
                                  "--maxden", "1", "--digits", "1"])
            assert res.stdout == out + "\n"

    def test_minpoly_given_digits_error_has_no_hint(self, runner):
        res = runner.invoke(main, ["identify", "minpoly", "--value", "0.5", "--digits", "30"])
        assert res.exit_code == 1
        assert res.stderr == "Error: need at least 40 digits for degree 3\n"

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_minpoly_non_finite_not_found(self, runner, value):
        with runner.isolated_filesystem():
            res = invoke(runner, ["identify", "minpoly", "--value", value, "--digits", "60"])
            assert "not found" in res.stdout


class TestFetchCli:
    TEXT = "0 1\n1 3\n2 9\n3 27\n"

    def test_offline_cache_roundtrip(self, runner):
        with runner.isolated_filesystem():
            cache = Path("cache")
            cache.mkdir()
            (cache / "A000244.bfile").write_text(self.TEXT)
            res = invoke(runner, ["--offline", "--cache-dir", "cache",
                                  "fetch", "244"])
            assert res.stdout == self.TEXT
            rep = read_report()
            assert rep["parameters"]["a_number"] == "A000244"

    def test_offline_miss_fails_cleanly(self, runner):
        with runner.isolated_filesystem():
            Path("cache").mkdir()
            res = runner.invoke(main, ["--offline", "--cache-dir", "cache",
                                       "fetch", "A000001"])
            assert res.exit_code != 0
            assert "cache" in res.stderr.lower()

    def test_env_cache_dir_without_option(self, runner, monkeypatch):
        with runner.isolated_filesystem():
            cache = Path("env-cache").resolve()
            cache.mkdir()
            (cache / "A000244.bfile").write_text(self.TEXT)
            monkeypatch.setenv("SEQLAB_CACHE_DIR", str(cache))
            res = invoke(runner, ["--offline", "fetch", "A000244"])
            assert res.stdout == self.TEXT

    def test_a_number_as_guess_source(self, runner):
        text = (DATA_DIR / "b202062.txt").read_text()
        with runner.isolated_filesystem():
            cache = Path("cache")
            cache.mkdir()
            (cache / "A202062.bfile").write_text(text)
            res = invoke(runner, ["--offline", "--cache-dir", "cache",
                                  "guess", "rec", "A202062",
                                  "--rmax", "5", "--dmax", "2"])
            assert "(2*n^2 + n)*u(n)" in res.stdout
            rep = read_report()
            assert rep["parameters"]["source"] == "A202062"


def child_env():
    """Environment for a child interpreter that imports the same seqlab.

    The directory holding the imported package goes first on PYTHONPATH, as
    an absolute path: a relative or empty entry would resolve against the
    child's own working directory.
    """
    root = str(Path(seqlab.__file__).resolve().parents[1])
    rest = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([root] + [e for e in rest if e])
    return env


class TestReportDeterminism:
    def test_identical_invocations_share_digest(self, tmp_path):
        """Two runs of one command in fresh directories agree byte-for-byte
        on everything except the timestamp, hence on the digest."""
        digests = []
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            proc = subprocess.run(
                [sys.executable, "-m", "seqlab.cli", "identify", "rational",
                 "--value", "0.375"],
                cwd=d,
                env=child_env(),
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(json.loads((d / "report.json").read_text()))
        a, b = digests
        assert a["report_digest"] == b["report_digest"]
        for doc in (a, b):
            stamp = datetime.datetime.fromisoformat(doc["created_at"])
            assert stamp.utcoffset() == datetime.timedelta(0)
            body = {k: v for k, v in doc.items()
                    if k not in ("created_at", "report_digest")}
            canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
            assert text_digest(canonical) == doc["report_digest"]


class TestHugeGrids:
    """No shape of order or degree above the term count is ever attempted,
    so a grid far beyond it gives the default grid's output and builds
    nothing of its size.  Each command runs in a child whose address space
    is capped at 1 GiB, so a grid that is built fails there and not here."""

    CAPPED = ("import resource\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "from seqlab.cli import main\n"
              "main()\n")

    def run_capped(self, args, cwd):
        proc = subprocess.run([sys.executable, "-c", self.CAPPED, "guess", *args],
                              cwd=cwd, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        return proc.stdout

    @pytest.mark.parametrize("command, huge", [
        ("rec", ["--rmax", "100000000"]),
        ("algeq", ["--dxmax", "3", "--dymax", "100000000"]),
    ])
    def test_huge_grid_gives_the_default_output(self, command, huge, tmp_path):
        bfile = str(DATA_DIR / "b202062.txt")
        assert (self.run_capped([command, bfile, *huge], tmp_path)
                == self.run_capped([command, bfile], tmp_path))


class TestImports:
    def test_cli_import_leaves_out_urllib(self):
        """urllib.request (with http.client, email and socket) is imported
        only when a b-file is fetched from the network."""
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, seqlab.cli; print('urllib.request' in sys.modules)"],
            env=child_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestErrorBoundaryAndEcho:
    """Every failure of a command ends as `Error: ...` with exit status 1,
    and the report echoes the arguments `main` received, not the host's
    sys.argv."""

    B = "b202062.txt"
    MU_ERROR = "the growth constant mu must be finite and positive"

    # Every case names itself, so adding one renames no other.  The
    # "argsN-..." ids are the names pytest gave the first cases by position.
    @pytest.mark.parametrize("args, error", [
        pytest.param(["guess", "rec", "bad.txt"], "malformed b-file line 2",
                     id="args0-malformed b-file line 2"),
        pytest.param(["--offline", "--cache-dir", "cache", "guess", "rec", "A000108"],
                     "not cached",
                     id="args1-not cached"),
        pytest.param(["gen", "lconvex-area", "--n", "-3"], "n_terms >= 1",
                     id="args2-n_terms >= 1"),
        pytest.param(["gen", "stack", "--n", "0"], "n_terms >= 1",
                     id="args3-n_terms >= 1"),
        pytest.param(["expand", "rational", "--num", "1", "--den", "0", "--n", "5"],
                     "zero denominator",
                     id="args4-zero denominator"),
        pytest.param(["identify", "rational", "--value", "abc"], "'abc'",
                     id="args5-'abc'"),
        pytest.param(["identify", "mult", "--value", "abc"], "'abc'",
                     id="args6-'abc'"),
        pytest.param(["fit", "amplitude", B, "--mu", "abc", "--g", "9/2", "--K", "3"], "'abc'",
                     id="args7-'abc'"),
        pytest.param(["--report", f"{B}/report.json", "gen", "stack", "--n", "3"], B,
                     id="args8-b202062.txt"),
        pytest.param(["gen", "stack", "--n", "3"], None,
                     id="args9-None"),
        pytest.param(["--precision", "30", "analyze", "ratios", B], None,
                     id="args10-None"),
        pytest.param(["oracle", "ascent", "--pattern", "201", "--n", "-1"], "n_max >= 0",
                     id="args11-n_max >= 0"),
        pytest.param(["oracle", "lconvex", "--n", "-2"], "n_max >= 1",
                     id="args12-n_max >= 1"),
        pytest.param(["oracle", "stack", "--n", "-2"], "n_max >= 1",
                     id="args13-n_max >= 1"),
        pytest.param(["expand", "rational", "--num", "0", "--den", "1", "--n", "-2"],
                     "n_terms >= 1",
                     id="args14-n_terms >= 1"),
        pytest.param(["expand", "rec", B, "--n", "-1"], "n_terms >= 1",
                     id="args15-n_terms >= 1"),
        pytest.param(["expand", "rec", B, "--n", "0"], "n_terms >= 1",
                     id="args16-n_terms >= 1"),
        pytest.param(["expand", "algeq", "catalan.txt", "--n", "-2", "--dxmax", "2",
                      "--dymax", "2"], "n_terms >= 1",
                     id="args17-n_terms >= 1"),
        pytest.param(["guess", "algeq", B, "--margin", "-30", "--dxmax", "3",
                      "--dymax", "2"], "margin >= 0",
                     id="args18-margin >= 0"),
        pytest.param(["guess", "rec", B, "--margin", "-1"], "margin >= 0",
                     id="args19-margin >= 0"),
        # rows args20 to args26 keep their first ids; each estimator's spread
        # covers two values, which sets its minimum
        pytest.param(["analyze", "ratios", "upto2.txt"], "at least 3 terms, got 2",
                     id="args20-at least 2 terms, got 1"),
        pytest.param(["analyze", "square", "upto24.txt"], "indices 1 to 25",
                     id="args21-indices 1 to 16"),
        pytest.param(["analyze", "powerlaw", "upto3.txt", "--mu", "3"], "at least 4 terms, got 3",
                     id="args22-at least 3 terms, got 2"),
        pytest.param(["analyze", "powerlaw", "upto15.txt", "--mu", "3", "--square"],
                     "indices 1 to 16",
                     id="args23-indices 1 to 9"),
        pytest.param(["extrapolate", "bst", "upto15.txt", "--square"], "indices 1 to 16",
                     id="args24-indices 1 to 16"),
        pytest.param(["analyze", "square", "upto16.txt"], "indices 1 to 25",
                     id="args25-None"),
        pytest.param(["analyze", "powerlaw", "upto9.txt", "--mu", "3", "--square"],
                     "indices 1 to 16",
                     id="args26-None"),
        pytest.param(["analyze", "ratios", "upto3.txt"], None, id="ratios-3-terms"),
        pytest.param(["analyze", "square", "upto25.txt"], None, id="square-5-squares"),
        pytest.param(["analyze", "powerlaw", "upto4.txt", "--mu", "3"], None,
                     id="powerlaw-4-terms"),
        pytest.param(["analyze", "powerlaw", "upto16.txt", "--mu", "3", "--square"], None,
                     id="powerlaw-4-squares"),
        pytest.param(["--precision", "-5", "analyze", "ratios", B], "need digits >= 1, got -5",
                     id="args27-need digits >= 1, got -5"),
        pytest.param(["--precision", "0", "analyze", "ratios", B], "need digits >= 1, got 0",
                     id="args28-need digits >= 1, got 0"),
        pytest.param(["fit", "amplitude", B, "--mu", "-2", "--g", "1", "--K", "2"], MU_ERROR,
                     id="args29-the growth constant mu must be finite and positive"),
        pytest.param(["fit", "amplitude", B, "--mu", "0", "--g", "1", "--K", "2"], MU_ERROR,
                     id="args30-the growth constant mu must be finite and positive"),
        pytest.param(["fit", "amplitude", B, "--mu", "inf", "--g", "1", "--K", "2"], MU_ERROR,
                     id="args31-the growth constant mu must be finite and positive"),
        pytest.param(["analyze", "powerlaw", B, "--mu", "nan"], MU_ERROR,
                     id="args32-the growth constant mu must be finite and positive"),
        pytest.param(["identify", "minpoly", "--value", "1.5", "--maxdeg", "-1", "--digits", "30"],
                     "need maxdeg >= 1, got -1",
                     id="args33-need maxdeg >= 1, got -1"),
        pytest.param(["identify", "minpoly", "--value", "1.5", "--maxdeg", "0", "--digits", "30"],
                     "need maxdeg >= 1, got 0",
                     id="args34-need maxdeg >= 1, got 0"),
        pytest.param(["identify", "rational", "--value", "0.5", "--digits", "-3"],
                     "need digits >= 1",
                     id="args35-need digits >= 1"),
        pytest.param(["identify", "mult", "--value", "0.5", "--digits", "0"], "need digits >= 1",
                     id="args36-need digits >= 1"),
        pytest.param(["guess", "rec", B, "--rmax", "0"], "need rmax >= 1",
                     id="args37-need rmax >= 1"),
        pytest.param(["guess", "rec", B, "--dmax", "-1"], "need dmax >= 0",
                     id="args38-need dmax >= 0"),
        pytest.param(["guess", "algeq", B, "--dxmax", "-1"], "need dxmax >= 0",
                     id="args39-need dxmax >= 0"),
        pytest.param(["guess", "algeq", B, "--dymax", "0"], "need dymax >= 1",
                     id="args40-need dymax >= 1"),
        pytest.param(["gen", "lconvex-perimeter", "--n", "0"], "Error: need n_terms >= 1",
                     id="args41-Error: need n_terms >= 1"),
        # every line is checked, though the fit converts only the last K + 10
        pytest.param(["fit", "amplitude", "bad_early.txt", "--mu", "3", "--g", "1", "--K", "2"],
                     "malformed b-file line 3: '2 x'",
                     id="args42-malformed b-file line 3: '2 x'"),
        pytest.param(["fit", "amplitude", B, "--mu", "3", "--g", "1", "--K", "-1"],
                     "Error: need K >= 0",
                     id="args43-Error: need K >= 0"),
        pytest.param(["expand", "algeq", "catalan1.txt", "--n", "5", "--dxmax", "2",
                      "--dymax", "2"], "generating-function guessing needs an offset-0 sequence",
                     id="args44-generating-function guessing needs an offset-0 sequence"),
        pytest.param(["identify", "rational", "--value", "0.5", "--maxden", "0"],
                     "need maxden >= 1, got 0", id="maxden-0-identify-rational"),
        pytest.param(["identify", "mult", "--value", "0.5", "--maxden", "-3"],
                     "need maxden >= 1, got -3", id="maxden-negative-identify-mult"),
        # --precision is bounded before SOURCE loads or any stage runs
        pytest.param(["--precision", "0", "identify", "mult", "--value", "0.0239372"],
                     "need digits >= 1, got 0", id="precision-0-identify-mult"),
        pytest.param(["--precision", "-5", "identify", "rational", "--value", "0.5"],
                     "need digits >= 1, got -5", id="precision-negative-identify-rational"),
        pytest.param(["--precision", "0", "analyze", "ratios", "missing.txt"],
                     "need digits >= 1, got 0", id="precision-0-before-source"),
        pytest.param(["--precision", "10001", "identify", "rational", "--value", "0.5"],
                     "need digits <= 10000, got 10001", id="precision-above-bound"),
        pytest.param(["--precision", "100000000", "gen", "stack", "--n", "3"],
                     "need digits <= 10000, got 100000000", id="precision-far-above-bound"),
        pytest.param(["--precision", "10000", "identify", "rational", "--value", "0.5"], None,
                     id="precision-at-bound"),
        # every --n has one bound, checked before any term is allocated
        pytest.param(["gen", "stack", "--n", "100000000000"],
                     "need n <= 100000, got 100000000000", id="gen-stack-n-above-bound"),
        pytest.param(["gen", "lconvex-perimeter", "--n", "100000000000"],
                     "need n <= 100000, got 100000000000", id="gen-perimeter-n-above-bound"),
        pytest.param(["oracle", "stack", "--n", "10000000000"],
                     "need n <= 100000, got 10000000000", id="oracle-stack-n-above-bound"),
        pytest.param(["expand", "rational", "--num", "1", "--den", "1,-1", "--n", "10000000000"],
                     "need n <= 100000, got 10000000000", id="expand-rational-n-above-bound"),
        pytest.param(["expand", "rational", "--num", "1", "--den", "1,-1", "--n", "100000"], None,
                     id="expand-rational-n-at-bound"),
        pytest.param(["identify", "rational", "--value", "1e400000"],
                     "value '1e400000' is out of range", id="value-exponent-above-bound"),
        pytest.param(["identify", "mult", "--value", "-2.5e-1001"],
                     "value '-2.5e-1001' is out of range", id="value-exponent-below-bound"),
        pytest.param(["identify", "minpoly", "--value", "1e1001", "--digits", "40"],
                     "need a decimal exponent between -1000 and 1000, got 1001",
                     id="value-exponent-minpoly"),
        # every number given as text goes through one bounded reader
        pytest.param(["fit", "amplitude", B, "--mu", "3", "--g", "1e10000000", "--K", "2"],
                     "g '1e10000000' is out of range", id="g-exponent-above-bound"),
        pytest.param(["extrapolate", "bst", B, "--w", "1e10000000"],
                     "w '1e10000000' is out of range", id="w-exponent-above-bound"),
        pytest.param(["analyze", "powerlaw", B, "--mu", "1e2000"],
                     "mu '1e2000' is out of range", id="mu-exponent-above-bound"),
        pytest.param(["fit", "amplitude", B, "--mu", "3", "--g", "inf", "--K", "2"], "'inf'",
                     id="g-inf"),
        pytest.param(["extrapolate", "bst", B, "--w", "nan"], "'nan'", id="w-nan"),
        pytest.param(["extrapolate", "bst", B, "--w", "1/0"], "'1/0' is not a number",
                     id="w-zero-denominator"),
        # a w whose ratios ((n+m)/n)^w round to 1 would give the zero seed row
        pytest.param(["--precision", "30", "extrapolate", "bst", B, "--w", "1e-900"],
                     "w = 1.0e-900 is too small for 30 digits: (2/1)^w rounds to 1",
                     id="w-ratios-round-to-one"),
        pytest.param(["identify", "rational", "--value", "0.5", "--digits", "10001"],
                     "need digits <= 10000, got 10001", id="digits-above-bound"),
        pytest.param(["identify", "mult", "--value", "0." + "3" * 10000],
                     "need digits <= 10000, got 10001", id="counted-digits-above-bound"),
        pytest.param(["identify", "mult", "--value", "0." + "3" * 5000 + "/0." + "7" * 4999],
                     "need digits <= 10000, got 10001", id="counted-ratio-digits-above-bound"),
        pytest.param(["identify", "rational", "--value", "0." + "3" * 4999], None,
                     id="value-past-int-str-limit"),
        pytest.param(["expand", "rational", "--num", "1", "--den", "1,-10000", "--n", "1100"],
                     None, id="coefficients-past-int-str-limit"),
        pytest.param(["identify", "rational", "--value", ".0"], None, id="value-point-zero"),
        # a value read as inf or nan has no digits to count, so it needs --digits
        *(pytest.param(["identify", command, "--value", value],
                       f"value '{value}' has no digits to count: give --digits",
                       id=f"no-digits-{command}-{value}")
          for command in ("rational", "mult", "minpoly") for value in ("inf", "nan", "-inf")),
        # too few counted digits for min_poly: the message names --value's count
        pytest.param(["identify", "minpoly", "--value", "0.5"],
                     "need at least 40 digits for degree 3; --value '0.5' gives 2: give --digits",
                     id="minpoly-counted-digits-below-degree-3"),
        pytest.param(["identify", "minpoly", "--value", "1.414", "--maxdeg", "1"],
                     "need at least 20 digits for degree 1; --value '1.414' gives 4: "
                     "give --digits", id="minpoly-counted-digits-below-degree-1"),
        pytest.param(["identify", "minpoly", "--value", "0." + "1" * 38], "gives 39: give",
                     id="minpoly-counted-digits-one-short"),
        pytest.param(["identify", "minpoly", "--value", "0." + "1" * 39], None,
                     id="minpoly-counted-digits-enough"),
        # a coefficient of 10^dps or more is rounding noise, and no relation
        pytest.param(["identify", "minpoly", "--value", "1e300", "--digits", "40"], None,
                     id="minpoly-coefficient-past-precision"),
        pytest.param(["identify", "minpoly", "--value", "1e20", "--digits", "40"], None,
                     id="minpoly-coefficient-within-precision"),
        # the stretched fit's spreads cover 10 estimates, which need 12 terms
        pytest.param(["analyze", "stretched", "three.txt"],
                     "the stretched fit needs 12 terms at n >= 1, got 3", id="stretched-3-terms"),
        pytest.param(["analyze", "stretched", "upto11.txt"],
                     "the stretched fit needs 12 terms at n >= 1, got 11",
                     id="stretched-11-terms"),
        pytest.param(["analyze", "stretched", "upto12.txt"], None, id="stretched-12-terms"),
        # the amplitude fit's spread covers two windows, which need K + 2 terms
        pytest.param(["fit", "amplitude", "three.txt", "--mu", "4", "--g", "3/2", "--K", "2"],
                     "need K+2 = 4 terms at indices n >= 1, for two windows",
                     id="amplitude-one-window"),
        pytest.param(["fit", "amplitude", "three.txt", "--mu", "4", "--g", "3/2", "--K", "1"],
                     None, id="amplitude-two-windows"),
        pytest.param(["analyze", "ratios", "no-such-file.txt"],
                     "input 'no-such-file.txt' is neither an existing file nor an A-number",
                     id="source-neither-file-nor-a-number"),
        pytest.param(["expand", "rational", "--num", "1.5", "--den", "1,-1", "--n", "5"],
                     "expected a comma-separated integer list, got '1.5'",
                     id="rational-coefficients-not-integers"),
        pytest.param(["expand", "rec", "primes.txt", "--n", "40", "--rmax", "1", "--dmax", "0"],
                     "no recurrence found within the search grid", id="expand-rec-none-found"),
        pytest.param(["expand", "algeq", "primes.txt", "--n", "40", "--dxmax", "1",
                      "--dymax", "1"], "no algebraic equation found within the search grid",
                     id="expand-algeq-none-found"),
    ])
    def test_clean_error_or_true_echo(self, args, error, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", ["pytest", "-q", "elsewhere"])
        lines = (DATA_DIR / self.B).read_text().splitlines(keepends=True)
        Path(self.B).write_text("".join(lines))
        for last in (1, 2, 3, 4, 8, 9, 11, 12, 15, 16, 24, 25):  # the terms at indices 0 to last
            Path(f"upto{last}.txt").write_text("".join(lines[: last + 1]))
        Path("bad.txt").write_text("0 1\n1 x\n")
        Path("three.txt").write_text("1 1\n2 2\n3 6\n")
        Path("primes.txt").write_text("".join(f"{n} {p}\n" for n, p in enumerate(PRIMES_30)))
        Path("bad_early.txt").write_text(
            "".join(lines[:2]) + "2 x\n" + "".join(lines[3:]))
        Path("catalan.txt").write_text(CATALAN_14)
        Path("catalan1.txt").write_text(
            "".join(f"{n} {c}\n" for n, c in enumerate(CATALAN[:14], 1)))
        Path("cache").mkdir()
        res = CliRunner().invoke(main, args)
        if error is None:
            assert res.exit_code == 0, res.output
            assert read_report()["command"] == "seqlab " + " ".join(args)
        else:
            assert isinstance(res.exception, SystemExit), res.exception
            assert res.exit_code == 1 and res.stdout == ""
            assert res.stderr.startswith("Error: ") and error in res.stderr
            assert len(res.stderr.splitlines()) == 1 and not Path("report.json").exists()

    @pytest.mark.parametrize("args", [
        ["fit", "amplitude", B, "--mu", "3", "--g", "1e10000000", "--K", "2"],
        ["extrapolate", "bst", B, "--w", "1e10000000"],
        ["analyze", "powerlaw", B, "--mu", "1e2000"],
        ["identify", "rational", "--value", "0.5", "--digits", "10001"],
    ], ids=["g", "w", "mu", "digits"])
    def test_out_of_range_fails_before_any_work(self, args, tmp_path, monkeypatch):
        """A number beyond its bound fails at the check: reading 1e10000000
        as an exact rational alone took seconds."""
        monkeypatch.chdir(tmp_path)
        args = [str(DATA_DIR / arg) if arg == self.B else arg for arg in args]
        start = time.perf_counter()
        res = CliRunner().invoke(main, args)
        assert time.perf_counter() - start < 1
        assert res.exit_code == 1 and len(res.stderr.splitlines()) == 1
        assert res.stderr.startswith("Error: ") and not Path("report.json").exists()

    def test_random_terms_fit_no_recurrence(self, tmp_path, monkeypatch):
        """22 random terms leave every shape of the default grid without an
        equation to spare, or overdetermined, so no recurrence is printed."""
        monkeypatch.chdir(tmp_path)
        rng = random.Random(22)
        Path("noise.txt").write_text(
            "".join(f"{n} {rng.randrange(1, 10 ** 6)}\n" for n in range(22)))
        res = CliRunner().invoke(main, ["guess", "rec", "noise.txt"])
        assert res.exit_code == 0, res.output
        assert res.stdout == "no recurrence found\n"


class TestOutputsPinned:
    def test_expand_rec_1000_terms(self, runner, monkeypatch):
        """stdout and report of a 1000-term expansion, byte for byte; the
        hashes were recorded from the code that converted every term to
        decimal twice."""
        args = ["expand", "rec", "b202062.txt", "--n", "1000"]
        monkeypatch.setattr(sys, "argv", ["seqlab", *args])
        with runner.isolated_filesystem():
            Path("b202062.txt").write_text((DATA_DIR / "b202062.txt").read_text())
            res = invoke(runner, args)
            report = re.sub(r'"created_at": "[^"]*"', '"created_at": ""',
                            Path("report.json").read_text(encoding="utf-8"))
        assert text_digest(res.stdout) == (
            "8ed2e1e6e945a41f73f91771beee5ffd2ea140afe6423ef77f26fe58dc20474a")
        assert text_digest(report) == (
            "b6f9a92b763269e82fcffda6d9e8b1b4dd777d003618ed1d65af0e12282bafac")

    def test_square_csvs_match_lconvex_script(self, runner, monkeypatch):
        """The CLI writes its figure CSVs at the run's precision, so they
        equal the study script's at the same size and digits."""
        with runner.isolated_filesystem():
            res = invoke(runner, ["gen", "lconvex-area", "--n", "401"])
            Path("l.txt").write_text(res.stdout)
            invoke(runner, ["--precision", "60", "--report", "cli/report.json",
                            "analyze", "square", "l.txt"])
            monkeypatch.setattr(sys, "argv", [
                "lconvex_pipeline.py", "--terms", "400", "--digits", "60",
                "--report", "script/report.json"])
            assert load_script("lconvex_pipeline").main() == 0
            for key in ("r_sq", "intercepts", "t_n"):
                cli = Path("cli", f"{key}.csv").read_bytes()
                assert cli == Path("script", f"{key}.csv").read_bytes(), key
            assert Path("cli/r_sq.csv").read_text().splitlines()[1].startswith("2,")

    # the first 16 hex digits of text_digest of each command's and group's
    # --help text at 80 columns; a change behind the command line that
    # should leave it alone must leave every one of them
    HELP_DIGESTS = {
        "": "e3f2abf0a257593c",
        "analyze": "5936db8cb36a0e18",
        "analyze powerlaw": "b82c06ebe4a9a7df",
        "analyze ratios": "4807505e0e08b1bf",
        "analyze square": "1a0db967b457a446",
        "analyze stretched": "2e77e335a64bb6da",
        "expand": "8c538543128ca244",
        "expand algeq": "ea985a0ee7e89e86",
        "expand rational": "4a2658436564ec6b",
        "expand rec": "ee149b71291a8608",
        "extrapolate": "23bebcfa33cd5eda",
        "extrapolate bst": "dacffdcb0508b69b",
        "fetch": "48f36d53b8a07840",
        "fit": "8e506e432b76ff72",
        "fit amplitude": "50fb112373614bba",
        "gen": "f33e9de69b09299f",
        "gen lconvex-area": "0252311f232a4d4e",
        "gen lconvex-perimeter": "de3759422e92dda4",
        "gen stack": "6178b268ab9de4c4",
        "guess": "ee8558b65bcf7889",
        "guess algeq": "3b5889673742fd60",
        "guess rec": "d09e592005a53eb0",
        "identify": "ad8b75ad2b52a8dd",
        "identify minpoly": "974e50f0417bc14a",
        "identify mult": "617e84b38957ac6a",
        "identify rational": "6037cd885ae1091b",
        "oracle": "2e8942a01d7ce0bc",
        "oracle ascent": "9f9f4288969fb30e",
        "oracle lconvex": "442a14a74aa44e41",
        "oracle stack": "e2d7fa9a7d2f7936",
    }

    def test_help_texts(self, runner):
        """Every command and group, found by walking `main`, is pinned."""
        def paths(command, path=()):
            yield path
            for name, sub in sorted(getattr(command, "commands", {}).items()):
                yield from paths(sub, (*path, name))

        got = {}
        for path in paths(main):
            res = runner.invoke(main, [*path, "--help"], prog_name="seqlab",
                                terminal_width=80, catch_exceptions=False)
            assert res.exit_code == 0, res.output
            got[" ".join(path)] = text_digest(res.output)[:16]
        assert got == self.HELP_DIGESTS


class TestReadNumber:
    """The one reader of numbers given as text (`_read_number`)."""

    def test_rounds_as_mpmath_reads(self):
        """Rounded through HpContext.mpf, each of 10,000 decimals that
        mpmath's own string parse accepts reads to the mpf that it gives at
        the same precision.  (mpmath rejects a mantissa of zeros after the
        point alone, such as .0, which the reader reads as 0.)"""
        rng = random.Random(38)
        checked = 0
        while checked < 10_000:
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 80)))
            point = rng.randint(0, len(digits))
            text = rng.choice(["", "-", "+"]) + digits[:point] + "." + digits[point:]
            if rng.random() < 0.75:
                text += f"e{rng.randint(-300, 300)}"
            ctx = HpContext(rng.randint(5, 250))  # 15 to 260 working digits
            with ctx.work():
                try:
                    want = mpmath.mpf(text)
                except ValueError:
                    continue
            assert _read_number("x", text, ctx)._mpf_ == want._mpf_, (text, ctx)
            checked += 1

    @pytest.mark.parametrize("text, value", [
        (".5", Fraction(1, 2)), ("-.5", Fraction(-1, 2)), ("5.", Fraction(5)),
        ("1/4", Fraction(1, 4)), ("-9/2", Fraction(-9, 2)), ("2.5e-3", Fraction(1, 400)),
        (".0", Fraction(0)), ("0e99999", Fraction(0)),
        ("1" + "0" * 4999 + "e-4999", Fraction(1)),
    ])
    def test_exact(self, text, value):
        assert _read_number("x", text) == value

    @pytest.mark.parametrize("text, ctx", [
        *((text, None) for text in ["", "abc", "1/0", "1/2/3", "inf", "nan", "1e", "0x10"]),
        ("snan", HpContext(20)), ("inf/2", HpContext(20)),
    ])
    def test_not_a_number(self, text, ctx):
        with pytest.raises(ValueError, match=f"x {re.escape(repr(text))} is not a number"):
            _read_number("x", text, ctx)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan"])
    def test_non_finite_with_a_context(self, text):
        ctx = HpContext(20)
        with ctx.work():
            assert _read_number("x", text, ctx)._mpf_ == mpmath.mpf(text)._mpf_
