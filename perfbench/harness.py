"""Workload-independent machinery of the study benchmark.

Everything here is pure logic or process plumbing and calls no seqlab code:
order statistics and the tail-percentile rule, speed calibration against a
reference kernel, the seeded stratified design that draws study sizes,
in-memory span tracing, and running one study in one forked child.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import mpmath

# ---------------------------------------------------------------------------
# order statistics
# ---------------------------------------------------------------------------

TAIL_BEYOND = 10


def tail_rank(n: int) -> int:
    """1-based ascending rank of the tail sample among n samples.

    The tail is the highest percentile that still has TAIL_BEYOND samples
    above it, i.e. rank n - 10.  With ten or fewer samples no such rank
    exists and the largest sample is used instead.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    return n - TAIL_BEYOND if n > TAIL_BEYOND else n


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the tail sample of `values`."""
    ordered = sorted(values)
    k = tail_rank(len(ordered))
    return ordered[k - 1], 100.0 * k / len(ordered)


def calibrated(raw_s: float, ref_s: float, ref_nominal_s: float) -> float:
    """Seconds the study would take on a machine running the kernel in ref_nominal_s."""
    if raw_s < 0 or ref_s <= 0 or ref_nominal_s <= 0:
        raise ValueError("times must be positive")
    return raw_s * ref_nominal_s / ref_s


def significant_digits(value, reference, cap: int) -> float:
    """Decimal digits to which `value` matches `reference`, capped at `cap`."""
    with mpmath.workdps(cap + 20):
        ref = mpmath.mpf(reference)
        err = abs(mpmath.mpf(value) - ref) / abs(ref)
        if err == 0:
            return float(cap)
        return float(min(cap, max(0, -mpmath.log10(err))))


# ---------------------------------------------------------------------------
# seeded design
# ---------------------------------------------------------------------------

class Design:
    """Seeded stratified design: n points in [0, 1)^dims, one per stratum.

    On every axis point i lies in stratum perm[i] of n equal strata, at the
    same seed-drawn offset within its stratum, so every run covers each axis
    evenly and its sorted sizes are equally spaced.  The median study size of
    a run then barely depends on the seed, while every seed still draws
    different sizes and pairs them differently across axes.
    """

    def __init__(self, seed: int, dims: int, n: int):
        rng = random.Random(seed)
        self.n = n
        self.axes = []
        for _ in range(dims):
            perm = list(range(n))
            rng.shuffle(perm)
            self.axes.append((perm, rng.random()))

    def point(self, i: int) -> list[float]:
        return [(perm[i] + shift) / self.n for perm, shift in self.axes]


def pick_int(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto the integers lo..hi, equally often."""
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


# ---------------------------------------------------------------------------
# reference kernel
# ---------------------------------------------------------------------------

KERNEL_CHECKSUM = 807436784
KERNEL_CHUNKS = 5


def reference_kernel() -> int:
    """Fixed work in seqlab's mix, calling no seqlab code; about 12 ms here.

    Four parts of roughly equal cost: an interpreted small-int loop, big-int
    multiplies of generator-sized terms, Fraction sums like the exact
    guessers', and 100-digit mpmath arithmetic on the pure-Python backend.
    Returns a checksum so the work cannot be skipped.
    """
    acc = 0
    for i in range(10000):
        acc = (acc * 1103515245 + i) % 2147483648
    a = [(k * 0x9E3779B97F4A7C15) ** 5 for k in range(1, 81)]
    big = 0
    for ai in a:
        for aj in a:
            big += ai * aj
    frac = 0
    for rep in range(18):
        s = Fraction(rep)
        for k in range(1, 50):
            s += Fraction(k, k * k + rep + 1)
        frac ^= s.numerator
    with mpmath.workdps(100):
        z = mpmath.mpf(2)
        for k in range(1, 175):
            z = (z * z + k) / (z + k)
            if k % 50 == 0:
                z = mpmath.sqrt(z)
        zi = int(z * 10**20)
    return (acc ^ big ^ frac ^ zi) % 4294967291


def time_kernel(chunks: int = KERNEL_CHUNKS) -> list[float]:
    """Seconds of each of `chunks` back-to-back kernel runs.

    The machine stalls for tens of milliseconds now and then; the median of
    many short chunks ignores a stall that one long timing would absorb.
    """
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        check = reference_kernel()
        times.append(time.perf_counter() - t0)
        if check != KERNEL_CHECKSUM:
            raise RuntimeError(f"reference kernel checksum {check} != {KERNEL_CHECKSUM}")
    return times


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

class Tracer:
    """Spans and counters of one study, kept in memory.

    A span is [name, start, end, parent index, study id]; times are
    perf_counter seconds.  Counters are summed per name; peaks keep the
    largest value seen.
    """

    def __init__(self, study_id: int):
        self.study_id = study_id
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self.peaks: dict[str, float] = {}
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.study_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, value), value)


class NullTracer:
    """Tracer stand-in for untraced studies: spans cost one no-op context."""

    study_id = None
    spans: list = []
    counts: dict = {}
    peaks: dict = {}
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def count(self, name: str, value: float) -> None:
        pass

    def peak(self, name: str, value: float) -> None:
        pass


def self_times(spans) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover.

    Children of one parent run one after another, so the time they cover is
    the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[i]
    return out


# ---------------------------------------------------------------------------
# one study in one forked child
# ---------------------------------------------------------------------------

class ChildFailed(Exception):
    pass


def run_forked(fn, timeout_s: int) -> tuple[dict, float]:
    """Run fn() in a forked child; return (its JSON result, child max-RSS in MB).

    The child sends its result through a pipe and leaves with os._exit, so
    it never runs the parent's exit handlers or flushes its buffers.  An
    alarm kills a child that runs longer than timeout_s.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        try:
            signal.alarm(timeout_s)
            data = json.dumps({"result": fn()})
        except BaseException:
            data = json.dumps({"error": traceback.format_exc()})
        try:
            with os.fdopen(w, "w", encoding="utf-8") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(w)
    with os.fdopen(r, "r", encoding="utf-8") as pipe:
        data = pipe.read()
    _, status, usage = os.wait4(pid, 0)
    rss_mb = usage.ru_maxrss / 1024.0
    if not data:
        raise ChildFailed(f"study child ended with status {status} and no result")
    doc = json.loads(data)
    if "error" in doc:
        raise ChildFailed(doc["error"])
    return doc["result"], rss_mb

