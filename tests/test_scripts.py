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
