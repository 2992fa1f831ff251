"""The study scripts under scripts/, run in-process through their main()."""

import importlib.util
import json
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


class TestLconvexPipeline:
    def test_writes_report_and_seven_csvs(self, tmp_path, monkeypatch, capsys):
        report = tmp_path / "out" / "lconvex.json"
        monkeypatch.setattr(sys, "argv", [
            "lconvex_pipeline.py", "--terms", "200", "--digits", "40",
            "--squares", "10", "--report", str(report),
        ])
        assert load_script("lconvex_pipeline").main() == 0
        doc = json.loads(report.read_text(encoding="utf-8"))
        assert doc["parameters"] == {"terms": 200, "digits": 40, "squares": 10}
        assert sorted(p.stem for p in report.parent.glob("*.csv")) == [
            "e1", "e2", "g2_n", "g_n", "intercepts", "r_sq", "t_n"]
        assert "(+ 7 CSV files)" in capsys.readouterr().out


class TestValidateFixture:
    def test_all_checks_pass(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["validate_fixture.py", "--brute-max", "8"])
        assert load_script("validate_fixture").main() == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and "all checks passed" in out
