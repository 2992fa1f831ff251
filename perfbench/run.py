#!/usr/bin/env python3
"""Study benchmark for seqlab: one forked child per study, calibrated timings.

Run from the root of a seqlab checkout:

    python3 perfbench/run.py --workload lconvex --seed 1 --seconds 22 --trace 0

The set-up process imports seqlab from the checkout's src/, draws the
workload's inputs from --seed and then forks one child per study, one at a
time.  Each child times the reference kernel, the study and the kernel
again; the study's seconds are scaled by ref_nominal_s / (median kernel time),
which takes out most of the machine's speed drift.  A cli study is a session
of commands, one child each, and each of them times the kernel.  A run measures a fixed
number of studies, sized from --seconds so that it lasts about that long
at the committed code; a fixed count keeps the tail percentile the same on
every commit.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
spans around every seqlab call (every fourth input then also runs
untraced, to measure the tracing overhead).  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.  A record with the
environment and every study goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
STUDY_TIMEOUT_S = 60
SETUP_STARTS = 7


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_seqlab():
    """Import seqlab from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "seqlab" / "__init__.py").is_file():
        fail(f"no seqlab package under {src}; run from a seqlab checkout")
    if not (ROOT / "tests" / "data" / "b202062.txt").is_file():
        fail("the fixture tests/data/b202062.txt is missing")
    sys.path.insert(0, str(src))
    import seqlab

    if Path(seqlab.__file__).resolve().parent != (src / "seqlab").resolve():
        fail(f"imported seqlab from {seqlab.__file__}, not from {src}")
    return seqlab


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def setup_seconds(harness, modules: str, ref_nominal: float) -> list[float]:
    """Calibrated seconds for fresh interpreters to import `modules`, one per start.

    One unmeasured start first writes the bytecode caches; each measured
    start sits between two sets of kernel runs.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = [sys.executable, "-c", f"import {modules}"]
    subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
    samples = []
    for _ in range(SETUP_STARTS):
        kernel = harness.time_kernel()
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True, timeout=60)
        raw = time.perf_counter() - t0
        kernel += harness.time_kernel()
        samples.append(harness.calibrated(raw, statistics.median(kernel), ref_nominal))
    return samples


def step_child(harness, workload, step: dict, refs: dict, study_id: int, traced: bool,
               chunks: int):
    """The child of one step: `chunks` kernel runs, the step, `chunks` kernel runs."""
    def child() -> dict:
        tr = harness.Tracer(study_id) if traced else harness.NullTracer()
        kernel = harness.time_kernel(chunks)
        t0 = time.perf_counter()
        out = workload.study(step, refs, tr)
        raw = time.perf_counter() - t0
        kernel += harness.time_kernel(chunks)
        verdict = workload.check(step, refs, out)
        return {"raw": raw, "kernel": kernel, "spans": tr.spans,
                "counts": tr.counts, "peaks": tr.peaks, **verdict}
    return child


def steps_of(workload, inp: dict) -> list[dict]:
    """A study's steps; each runs in its own child.  Only cli has several."""
    return workload.steps(inp) if hasattr(workload, "steps") else [inp]


def run_study(harness, workload, i: int, inp: dict, refs: dict, traced: bool) -> dict:
    """Run study i, one forked child per step, stopping at a failed step.

    A one-step study times KERNEL_CHUNKS kernel runs on each side; the steps
    of a longer study time one each, spread over the whole study.
    """
    steps = []
    todo = steps_of(workload, inp)
    chunks = harness.KERNEL_CHUNKS if len(todo) == 1 else 1
    for step in todo:
        try:
            result, rss_mb = harness.run_forked(
                step_child(harness, workload, step, refs, i, traced, chunks),
                STUDY_TIMEOUT_S)
            result["rss_mb"] = rss_mb
        except harness.ChildFailed as exc:
            print(f"study {i} failed in its child:\n{exc}", file=sys.stderr)
            result = {"ok": False, "detail": str(exc).strip().splitlines()[-1]}
        steps.append(result)
        if not result["ok"]:
            break
    return {"study": i, "traced": traced, "steps": steps}


def run_studies(harness, workload, inputs: dict, plan: list, deadline: float) -> list:
    rows = []
    for i, traced in plan:
        if time.monotonic() > deadline:
            break
        rows.append(run_study(harness, workload, i, inputs["studies"][i],
                              inputs["refs"], traced))
    return rows


def check_repeats(rows: list) -> None:
    """Steps with the same repeat key must produce the same report digest."""
    seen: dict[str, str] = {}
    for step in (s for r in rows for s in r["steps"]):
        key = step.get("repeat_key")
        if key is None or "digest" not in step:
            continue
        if seen.setdefault(key, step["digest"]) != step["digest"]:
            step["ok"] = False
            step["detail"] = "report digest differs from an earlier identical command"


def kernel_times(row: dict) -> list[float]:
    return [t for s in row["steps"] for t in s.get("kernel", ())]


def summarize(harness, row: dict, n_steps: int, ref_nominal: float) -> None:
    """Study-level fields from a row's steps: ok, raw and calibrated seconds, RSS, digits.

    The study's seconds are scaled by the median of the kernel runs timed
    around its steps.
    """
    steps = row["steps"]
    timed = len(steps) == n_steps and all("raw" in s for s in steps)
    row["ok"] = timed and all(s["ok"] for s in steps)
    row["detail"] = "; ".join(s["detail"] for s in steps if s.get("detail")) or None
    row["digits"] = next((s["digits"] for s in steps if s.get("digits") is not None), None)
    if timed:
        row["ref"] = statistics.median(kernel_times(row))
        row["raw"] = sum(s["raw"] for s in steps)
        row["cal"] = harness.calibrated(row["raw"], row["ref"], ref_nominal)
        row["rss_mb"] = max(s["rss_mb"] for s in steps)


def end_to_end(harness, rows, setup):
    timed = [r for r in rows if "cal" in r]
    cal = [r["cal"] for r in timed]
    tail_value, tail_pct = harness.tail(cal)
    digits = [r["digits"] for r in timed if r["digits"] is not None]
    return {
        "study_s": {"value": statistics.median(cal), "unit": "s", "samples": len(cal)},
        "study_s_tail": {"value": tail_value, "unit": "s",
                         "percentile": round(tail_pct, 1), "samples": len(cal)},
        "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": len(setup)},
        "peak_rss_mb": {"value": max(r["rss_mb"] for r in timed), "unit": "MB"},
        "result_digits": {"value": statistics.median(digits) if digits else 0.0,
                          "unit": "digits", "samples": len(digits)},
    }


LAYER_TIMES = (
    "sequences.gen", "sequences.expand", "sequences.enum", "series.branch",
    "guess.guess", "guess.ode", "guess.residual",
    "asympt.hpseq", "asympt.stretched", "asympt.ratio", "asympt.bst",
    "asympt.root", "asympt.amplitude",
    "identify.minpoly", "identify.rational",
    "oeis.parse", "report.json", "report.csv",
    "cli.guess_rec", "cli.expand_rec", "cli.fit_amplitude", "cli.gen",
    "cli.analyze", "cli.extrapolate_bst", "cli.identify",
)
LAYER_COUNTS = {
    "sequences.terms": "count", "report.bytes": "B", "cli.bytes_out": "B",
    "identify.minpoly_calls": "count",
}


def per_layer(harness, rows, ref_nominal):
    """Calibrated self seconds and counts per study, from the traced rows."""
    traced = [r for r in rows if r["traced"] and "cal" in r]
    untraced = {r["study"]: r for r in rows if not r["traced"] and "cal" in r}
    n = max(1, len(traced))
    self_s = {name: 0.0 for name in LAYER_TIMES}
    counts = {name: 0.0 for name in LAYER_COUNTS}
    max_bits = planted = found = 0
    for r, step in ((r, s) for r in traced for s in r["steps"]):
        scale = ref_nominal / r["ref"]
        for name, seconds in harness.self_times(step["spans"]).items():
            self_s[name] += seconds * scale
        for name, value in step["counts"].items():
            counts[name] += value
        max_bits = max(max_bits, step["peaks"].get("sequences.max_term_bits", 0))
        planted += step.get("planted", 0)
        found += step.get("planted_found", 0)
    overhead = [r["cal"] / untraced[r["study"]]["cal"] for r in traced if r["study"] in untraced]
    kernel = [x for r in rows for x in kernel_times(r)]
    metrics = {f"{name}_s": {"value": v / n, "unit": "s"} for name, v in self_s.items()}
    metrics.update({name: {"value": v / n, "unit": LAYER_COUNTS[name]}
                    for name, v in counts.items()})
    metrics["sequences.max_term_bits"] = {"value": max_bits, "unit": "bit"}
    metrics["identify.minpoly_hit_ratio"] = {
        "value": found / planted if planted else 0.0, "unit": "ratio"}
    metrics["harness.ref_s"] = {"value": statistics.median(kernel), "unit": "s"}
    metrics["harness.study_raw_s"] = {
        "value": statistics.median([r["raw"] for r in traced]) if traced else 0.0, "unit": "s"}
    metrics["harness.trace_overhead"] = {
        "value": statistics.median(overhead) if overhead else 0.0, "unit": "ratio"}
    metrics["harness.fail_rate"] = {
        "value": sum(not r["ok"] for r in rows) / len(rows), "unit": "ratio"}
    return metrics


def environment(seqlab, config: dict, seed: int, ref_s: float) -> dict:
    import mpmath

    backend = mpmath.libmp.BACKEND
    return {
        "python": platform.python_version(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "seqlab": seqlab.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": backend,
        "mpmath_backend_expected": config["mpmath_backend"],
        "mpmath_backend_matches": backend == config["mpmath_backend"],
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "seed": seed,
        "ref_nominal_s": config["ref_nominal_s"],
        "harness.ref_s": ref_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    seqlab = load_seqlab()
    sys.path.insert(0, str(HERE))
    import harness
    import workloads

    config = json.loads((HERE / "config.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    nominal = config["nominal_study_s"][workload.name]
    ref_nominal = config["ref_nominal_s"]
    traced = bool(args.trace)

    harness.time_kernel(3)
    setup = []
    if not traced:
        modules = "seqlab, seqlab.cli" if workload.name == "cli" else "seqlab"
        setup = setup_seconds(harness, modules, ref_nominal)

    # A fixed study count per run, in whole cycles.  A traced run also
    # measures every fourth input untraced, for the tracing overhead.
    share = 1.25 if traced else 1.0
    cycles = max(1, round(args.seconds / (nominal * workload.cycle * share)))
    n = cycles * workload.cycle
    inputs = workload.make_inputs(args.seed, n, ROOT)
    plan = [(i, traced) for i in range(n)]
    if traced:
        plan = [(i, t) for i in range(n)
                for t in ((True,) if i % 4 else ((False, True) if i % 8 else (True, False)))]

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{workload.name}-{os.getpid()}"
    workdir.mkdir()
    home = os.getcwd()
    try:
        os.chdir(workdir)
        if hasattr(workload, "prepare_run"):
            workload.prepare_run(workdir, inputs["refs"])
        gc.collect()
        gc.freeze()
        deadline = time.monotonic() + max(3 * args.seconds, 60)
        rows = run_studies(harness, workload, inputs, plan, deadline)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    check_repeats(rows)
    for row in rows:
        summarize(harness, row, len(steps_of(workload, inputs["studies"][row["study"]])),
                  ref_nominal)

    attempted = len(rows)
    failed = sum(not r["ok"] for r in rows)
    kernel = [x for r in rows for x in kernel_times(r)]
    env = environment(seqlab, config, args.seed, statistics.median(kernel) if kernel else 0.0)
    if not env["mpmath_backend_matches"]:
        print(f"perfbench: WARNING mpmath backend {env['mpmath_backend']!r} differs from "
              f"the recorded {env['mpmath_backend_expected']!r}; timings are not comparable",
              file=sys.stderr)
    if any("cal" in r for r in rows):
        metrics = (per_layer(harness, rows, ref_nominal) if traced
                   else end_to_end(harness, rows, setup))
    else:
        metrics = {}

    record = {"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
              "env": env, "metrics": metrics, "planned": len(plan),
              "studies": [{**r, "steps": [{k: v for k, v in s.items() if k != "spans"}
                                          for s in r["steps"]]} for r in rows]}
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if traced:
        spans = [span for r in rows for s in r["steps"] for span in s.get("spans", [])]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans), encoding="utf-8")

    print(f"workload {workload.name}  seed {args.seed}  studies {attempted}  "
          f"failed {failed}  env {json.dumps(env)}")
    for name, m in metrics.items():
        extra = "  ".join(f"{k} {v}" for k, v in m.items() if k not in ("value", "unit"))
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:7s} {extra}")
    for r in rows:
        if not r["ok"]:
            print(f"  FAILED study {r['study']}: {r['detail']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and len(rows) == len(plan),
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
