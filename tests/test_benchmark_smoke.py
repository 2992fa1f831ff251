"""One study of each benchmark workload, run in-process.

The benchmark (perfbench/) reaches seqlab only through public names and
CLI commands.  Running one study of each workload here, with its checks,
makes a change that breaks a name or a call the benchmark relies on fail
the test suite rather than the benchmark run.  Nothing under perfbench/ is
edited; its modules are imported as the benchmark's runner imports them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_study_passes_its_checks(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(1, workload.cycle, ROOT)
    refs = inputs["refs"]
    if hasattr(workload, "prepare_run"):
        workload.prepare_run(tmp_path, refs)
    home, argv = os.getcwd(), sys.argv
    try:
        for study in inputs["studies"]:
            for step in workload.steps(study) if hasattr(workload, "steps") else [study]:
                # Cli.study moves into its own directory and sets sys.argv
                os.chdir(tmp_path)
                out = workload.study(step, refs, harness.NullTracer())
                verdict = workload.check(step, refs, out)
                assert verdict["ok"], (step, verdict["detail"])
    finally:
        os.chdir(home)
        sys.argv = argv
