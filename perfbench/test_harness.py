"""Self-tests of the benchmark harness.

Run from the root of a seqlab checkout:

    python3 -m pytest perfbench -q

They cover the pure logic (tail rule, calibration, span self time, seeded
design) and make one tiny smoke pass of each workload through the same
forked-child path the benchmark uses.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class TestTailRule:
    @pytest.mark.parametrize("n, rank", [(11, 1), (20, 10), (40, 30), (100, 90)])
    def test_ten_samples_beyond(self, n, rank):
        assert harness.tail_rank(n) == rank
        value, pct = harness.tail(list(range(n, 0, -1)))
        assert value == rank
        assert pct == pytest.approx(100 * rank / n)
        assert sum(v > value for v in range(1, n + 1)) == 10

    @pytest.mark.parametrize("n", [1, 5, 10])
    def test_few_samples_fall_back_to_the_maximum(self, n):
        assert harness.tail(list(range(1, n + 1))) == (n, 100.0)

    def test_no_samples(self):
        with pytest.raises(ValueError):
            harness.tail_rank(0)


class TestCalibration:
    def test_scales_by_nominal_over_measured_kernel(self):
        assert harness.calibrated(2.0, 0.1, 0.05) == pytest.approx(1.0)
        assert harness.calibrated(2.0, 0.025, 0.05) == pytest.approx(4.0)
        assert harness.calibrated(1.5, 0.05, 0.05) == pytest.approx(1.5)

    @pytest.mark.parametrize("raw, ref, nominal", [(-1, 1, 1), (1, 0, 1), (1, 1, 0)])
    def test_rejects_non_positive_times(self, raw, ref, nominal):
        with pytest.raises(ValueError):
            harness.calibrated(raw, ref, nominal)

    def test_kernel_checksum_is_stable(self):
        assert harness.reference_kernel() == harness.KERNEL_CHECKSUM
        times = harness.time_kernel(3)
        assert len(times) == 3 and min(times) > 0


class TestSpans:
    def test_self_time_subtracts_children(self):
        spans = [
            ["study", 0.0, 10.0, None, 0],
            ["a", 1.0, 4.0, 0, 0],
            ["b", 2.0, 3.0, 1, 0],
            ["a", 5.0, 6.0, 0, 0],
        ]
        assert harness.self_times(spans) == {"study": 6.0, "a": 3.0, "b": 1.0}

    def test_tracer_records_nesting(self):
        tr = harness.Tracer(7)
        with tr.span("outer"):
            with tr.span("inner"):
                tr.count("n", 2)
            tr.count("n", 3)
            tr.peak("bits", 5)
            tr.peak("bits", 4)
        (outer, inner) = tr.spans
        assert outer[0] == "outer" and outer[3] is None and outer[4] == 7
        assert inner[3] == 0 and outer[1] <= inner[1] <= inner[2] <= outer[2]
        assert tr.counts == {"n": 5} and tr.peaks == {"bits": 5}


class TestDesign:
    def test_one_point_per_stratum_on_each_axis(self):
        design = harness.Design(3, 2, 7)
        for axis in range(2):
            values = sorted(design.point(i)[axis] for i in range(7))
            assert [int(v * 7) for v in values] == list(range(7))
            gaps = [b - a for a, b in zip(values, values[1:])]
            assert gaps == pytest.approx([1 / 7] * 6)

    def test_seed_moves_the_points(self):
        a, b = harness.Design(1, 1, 5), harness.Design(2, 1, 5)
        assert [a.point(i) for i in range(5)] != [b.point(i) for i in range(5)]

    def test_pick_int_hits_both_ends(self):
        assert harness.pick_int(0.0, 3, 5) == 3
        assert harness.pick_int(0.9999, 3, 5) == 5


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    step = {"raw": 1.0, "kernel": [0.01, 0.015, 0.02], "ok": True, "digits": 9.0,
            "rss_mb": 30.0, "spans": [["guess.guess", 0.0, 0.5, None, 0]],
            "counts": {"sequences.terms": 10}, "peaks": {}}
    rows = [{"study": 0, "traced": t, "steps": [dict(step)]} for t in (True, False)]
    for row in rows:
        run.summarize(harness, row, 1, 0.015)
    assert rows[0]["cal"] == pytest.approx(1.0)
    e2e = run.end_to_end(harness, rows, [0.3])
    layers = run.per_layer(harness, rows, 0.015)
    assert list(e2e) == [m["name"] for m in bench["end_to_end"]]
    assert sorted(layers) == sorted(m["name"] for m in bench["per_layer"])
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    assert all(m["unit"] == units[name] for name, m in {**e2e, **layers}.items())
    assert layers["guess.guess_s"]["value"] == pytest.approx(0.5)
    assert layers["harness.trace_overhead"]["value"] == pytest.approx(1.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    workload = workloads.WORKLOADS[name]
    n = workload.cycle * 2
    first = json.dumps(workload.make_inputs(5, n, ROOT), sort_keys=True)
    again = json.dumps(workload.make_inputs(5, n, ROOT), sort_keys=True)
    other = json.dumps(workload.make_inputs(6, n, ROOT), sort_keys=True)
    assert first == again
    assert first != other


def test_planted_polynomials_vanish_at_their_values():
    import mpmath
    import random

    rng = random.Random(1)
    for degree in (2, 3, 4, 5, 6):
        for _ in range(4):
            planted = workloads.plant(rng, degree, 60)
            assert len(planted["poly"]) == degree + 1
            with mpmath.workdps(60):
                x = mpmath.mpf(planted["value"])
                residual = mpmath.polyval(planted["poly"][::-1], x)
                assert abs(residual) < mpmath.mpf(10) ** -50



def test_minpoly_constants_lie_in_the_band():
    import mpmath

    workload = workloads.WORKLOADS["minpoly"]
    inputs = workload.make_inputs(3, 2 * workload.cycle, ROOT)
    for study in inputs["studies"]:
        with mpmath.workdps(120):
            x = mpmath.mpf(study["value"])
            assert 0 < x < workloads.BAND[1]
            if "poly" in study:
                assert x >= workloads.BAND[0]
                residual = mpmath.polyval(study["poly"][::-1], x)
                assert abs(residual) < mpmath.mpf(10) ** -100

def smoke(name: str, indices, monkeypatch, tmp_path, **overrides) -> None:
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(1, workload.cycle, ROOT)
    for study in inputs["studies"]:
        study.update(overrides)
    monkeypatch.chdir(tmp_path)
    if hasattr(workload, "prepare_run"):
        workload.prepare_run(tmp_path, inputs["refs"])
    plan = [(i, i % 2 == 1) for i in indices]
    rows = run.run_studies(harness, workload, inputs, plan, deadline=float("inf"))
    for row in rows:
        steps = run.steps_of(workload, inputs["studies"][row["study"]])
        run.summarize(harness, row, len(steps), 0.015)
    assert [r["ok"] for r in rows] == [True] * len(plan), [r["detail"] for r in rows]
    assert all(r["cal"] > 0 and r["rss_mb"] > 0 for r in rows)
    traced = [s for r in rows if r["traced"] for s in r["steps"]]
    assert all(s["spans"] for s in traced)


def test_smoke_lconvex(monkeypatch, tmp_path):
    smoke("lconvex", [0], monkeypatch, tmp_path, terms=900)


def test_smoke_ascent(monkeypatch, tmp_path):
    smoke("ascent", [0], monkeypatch, tmp_path)


def test_smoke_minpoly(monkeypatch, tmp_path):
    smoke("minpoly", [0, 1], monkeypatch, tmp_path)


def test_smoke_cli(monkeypatch, tmp_path):
    smoke("cli", [0], monkeypatch, tmp_path)


def test_refuses_to_run_without_seqlab(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
