"""Runs one workload: repeated set-up, timed passes, checks, and the result object.

Untraced runs give the end-to-end metrics. Traced runs time half of their
passes untraced and half traced, then one more pass under ``tracemalloc``
for peak memory, and give the per-layer metrics; the difference between
the traced and untraced pass medians is ``trace.overhead_s``.
"""

from __future__ import annotations

import gc
import os
import resource
import shutil
import statistics
import tempfile
import time
import tracemalloc

from sinkquant.errors import SinkQuantError

from . import tracing
from .workloads import WORKLOADS, Ops

# Set-up is repeated at least SETUP_MIN_REPS times and until SETUP_MIN_S has
# passed (at most SETUP_MAX_REPS times); setup_s is the median. Set-ups of a
# few milliseconds are otherwise too noisy to compare between runs.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 50
SETUP_MIN_S = 1.0

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


class NoPassCompleted(Exception):
    """Every pass of a run raised, so there is no time to report."""


def repeated_setup(workload, seed, ops):
    times, state = [], None
    start = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
        len(times) < SETUP_MAX_REPS and time.perf_counter() - start < SETUP_MIN_S
    ):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup(seed, ops)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), state


def timed_passes(workload, state, ops, seconds, tracer=None):
    """Run whole passes until ``seconds`` have passed; returns (times, pass ids, last output)."""
    times, ids, out = [], [], None
    start = time.perf_counter()
    attempt = 0
    while True:
        last, out = out, None
        gc.collect()
        if tracer is not None:
            tracer.pass_id = attempt
        t0 = time.perf_counter()
        try:
            out = workload.run_pass(state, ops)
        except SinkQuantError:
            out = last
        else:
            times.append(time.perf_counter() - t0)
            ids.append(attempt)
        attempt += 1
        if time.perf_counter() - start >= seconds:
            break
    if not times:
        raise NoPassCompleted(f"all {attempt} passes of {workload.name} raised")
    return times, ids, out


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(workload, seed, seconds, ops):
    setup_s, state = repeated_setup(workload, seed, ops)
    times, _, out = timed_passes(workload, state, ops, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, out_rel_err = workload.verify(state, out, ops)
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "pass_s": _metric(statistics.median(times), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        "out_rel_err": _metric(out_rel_err, "ratio"),
    }
    return metrics, failures


def _traced(workload, seed, seconds, ops, trace_path):
    state = workload.setup(seed, ops)
    plain, _, _ = timed_passes(workload, state, ops, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_ids, out = timed_passes(workload, state, ops, seconds / 2, tracer)
        tracer.pass_id = memory_pass = "memory"
        tracer.memory = True
        tracemalloc.start()
        try:
            workload.run_pass(state, ops)
        finally:
            tracemalloc.stop()
    finally:
        tracer.remove()
    failures, _ = workload.verify(state, out, ops)
    values = tracing.summarize(
        tracer,
        traced_ids,
        memory_pass,
        tracing.cache_gauges(getattr(out, "cache", None)),
        statistics.median(traced) - statistics.median(plain),
    )
    tracer.write(trace_path)
    return {name: _metric(v, tracing.unit_of(name)) for name, v in sorted(values.items())}, failures


def run(name, seed, seconds, trace=False, smoke=False):
    """Result object (the benchmark's last output line) and the list of failed checks."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=RESULTS_DIR)
    try:
        workload = WORKLOADS[name](smoke, workdir)
        ops = Ops()
        if trace:
            path = os.path.join(RESULTS_DIR, f"trace-{name}-seed{seed}.json")
            metrics, failures = _traced(workload, seed, seconds, ops, path)
        else:
            metrics, failures = _end_to_end(workload, seed, seconds, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": not failures, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    return result, failures
