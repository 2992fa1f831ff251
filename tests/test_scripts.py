"""The study scripts under scripts/, run in-process through their main()."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_failed_study(name, args, tmp_path, monkeypatch, capsys):
    """A study stopped by a size it cannot run at: status 1, one error line,
    nothing on stdout and no report."""
    report = tmp_path / "report.json"
    monkeypatch.setattr(sys, "argv", [f"{name}.py", *args, "--report", str(report)])
    assert load_script(name).main() == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("Error: ") and len(err.splitlines()) == 1
    assert not report.exists()
    return err


def assert_missing_bfile(name, tmp_path, monkeypatch, capsys):
    """--bfile naming no file ends as one error line with status 1."""
    missing = tmp_path / "missing.txt"
    monkeypatch.setattr(sys, "argv", [f"{name}.py", "--bfile", str(missing)])
    assert load_script(name).main() == 1
    err = capsys.readouterr().err
    assert err.startswith("Error: ") and str(missing) in err
    assert len(err.splitlines()) == 1


class TestAscentPipeline:
    def test_report_into_missing_directory(self, tmp_path, monkeypatch):
        report = tmp_path / "missing" / "nested" / "ascent.json"
        monkeypatch.setattr(sys, "argv", [
            "ascent_pipeline.py", "--terms", "60", "--digits", "40",
            "--corrections", "4", "--report", str(report),
        ])
        assert load_script("ascent_pipeline").main() == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["parameters"]["terms"] == 60
        assert set(doc["scalars"]) >= {"rho", "mu", "amplitude_C"}

    def test_ill_conditioned_fit_is_a_clean_error(self, tmp_path, monkeypatch, capsys):
        report = tmp_path / "ascent.json"
        monkeypatch.setattr(sys, "argv", [
            "ascent_pipeline.py", "--terms", "300", "--digits", "20",
            "--corrections", "12", "--report", str(report),
        ])
        assert load_script("ascent_pipeline").main() == 1
        err = capsys.readouterr().err
        assert err.startswith("Error: condition estimate") and "Traceback" not in err
        assert not report.exists()

    def test_missing_bfile_is_a_clean_error(self, tmp_path, monkeypatch, capsys):
        assert_missing_bfile("ascent_pipeline", tmp_path, monkeypatch, capsys)

    @pytest.mark.parametrize("args", [["--terms", "0"],
                                      ["--terms", "7", "--corrections", "6"]])
    def test_too_few_terms_is_a_clean_error(self, args, tmp_path, monkeypatch, capsys):
        err = assert_failed_study("ascent_pipeline", args, tmp_path, monkeypatch, capsys)
        assert "needs terms >=" in err

    @pytest.mark.parametrize("digits", ["-5", "0"])
    def test_bad_digits_is_a_clean_error(self, digits, tmp_path, monkeypatch, capsys):
        err = assert_failed_study("ascent_pipeline", ["--digits", digits],
                                  tmp_path, monkeypatch, capsys)
        assert err == f"Error: need digits >= 1, got {digits}\n"


class TestLconvexPipeline:
    def test_writes_report_and_seven_csvs(self, tmp_path, monkeypatch, capsys):
        report = tmp_path / "out" / "lconvex.json"
        monkeypatch.setattr(sys, "argv", [
            "lconvex_pipeline.py", "--terms", "200", "--digits", "40",
            "--report", str(report),
        ])
        assert load_script("lconvex_pipeline").main() == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["parameters"] == {"terms": 200, "digits": 40, "squares": 14}
        assert sorted(p.stem for p in report.parent.glob("*.csv")) == [
            "e1", "e2", "g2_n", "g_n", "intercepts", "r_sq", "t_n"]
        assert "(+ 7 CSV files)" in capsys.readouterr().out

    def test_too_few_terms_is_a_clean_error(self, tmp_path, monkeypatch, capsys):
        err = assert_failed_study("lconvex_pipeline", ["--terms", "24"],
                                  tmp_path, monkeypatch, capsys)
        assert err == ("Error: need the terms at indices 1 to 25 "
                       "(the squares 1, 4, 9, 16, 25)\n")

    @pytest.mark.parametrize("digits", ["-5", "0"])
    def test_bad_digits_is_a_clean_error(self, digits, tmp_path, monkeypatch, capsys):
        err = assert_failed_study("lconvex_pipeline", ["--digits", digits],
                                  tmp_path, monkeypatch, capsys)
        assert err == f"Error: need digits >= 1, got {digits}\n"

