#!/usr/bin/env python3
"""hgf benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the root of an hgf checkout; hgf is imported from ``src``.  The
load is a closed loop with one client: each pass starts when the previous
one has finished.  One untimed warm-up pass comes first; then passes run
until the next one would end after ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off:

* ``wall_s``: median pass time (the record adds the sample count and the
  highest percentile with at least ten samples beyond it);
* ``setup_s``: median over `SETUP_PROBES` fresh interpreters that import
  hgf and build the workload inputs;
* ``peak_rss_mb``: peak resident set of this process;
* the accuracy metrics of `workloads.ACCURACY`.

With ``--trace 1`` passes alternate between untraced and traced, and the
run reports the per-layer metrics of `spans.PER_LAYER` from the traced
passes, plus ``trace.overhead_s`` (traced minus untraced median pass
time) and ``fail_frac``.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is a JSON record of the
environment, the sample distribution and every failure reason.  Files go
to a temporary directory inside the checkout, removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

from checkout import ROOT, use_checkout_hgf

use_checkout_hgf()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from hgf import _kernels  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5
PROBE = ROOT / "perfbench" / "setup_probe.py"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB",
             "speed_rel_err": "ratio", "exact_err_max": "1",
             "order_dev_max": "1", "oracle_dev_max": "1"}


def high_percentile(samples):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than eleven."""
    ordered = sorted(samples)
    if len(ordered) < 11:
        return None
    k = len(ordered) - 11
    return (100.0 * (k + 1) / len(ordered), ordered[k])


def setup_times(workload: str, seed: int, tiny: bool) -> list[float]:
    """Wall time of fresh interpreters that import hgf and build inputs."""
    cmd = [sys.executable, str(PROBE), workload, str(seed)]
    if tiny:
        cmd.append("--tiny")
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def _cache_sizes() -> dict:
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return sizes
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(f"{base}/{entry}/level") as fh:
                level = fh.read().strip()
            with open(f"{base}/{entry}/type") as fh:
                kind = fh.read().strip()
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def environment() -> dict:
    caches = _cache_sizes()
    state_kb = 3 * 20001 * 8 / 1e3
    notes = [
        f"fine-grid state arrays are 3 x 20001 float64 = {state_kb:.0f} KB, "
        f"far below the last-level cache ({caches.get('L3', 'unknown')}); "
        "no bandwidth is measured and any bytes-moved figure would be "
        "computed from array sizes",
        "snapshot CSV reads hit the page cache, which is not dropped",
    ]
    if not _kernels.USING_NUMBA:
        notes.insert(0, "the numba kernel path cannot be measured here "
                        f"({_kernels.NUMBA_DISABLED_REASON}); every figure "
                        "is of the numpy path")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "using_numba": _kernels.USING_NUMBA,
        "numba_disabled_reason": _kernels.NUMBA_DISABLED_REASON,
        "thread_cap": _kernels.thread_cap(),
        "git_commit": _git_commit(),
        "caches": caches,
        "notes": notes,
    }


def _timed_passes(workload, checks, seconds, tracer=None):
    """Closed-loop passes for `seconds`; with a tracer, every other pass
    is traced.  Returns (untraced, traced) pass times."""
    times = ([], [])
    begin = time.perf_counter()
    while True:
        traced = tracer is not None and len(times[0]) > len(times[1])
        if tracer is not None:
            tracer.active = traced
        start = time.perf_counter()
        if traced:
            with tracer.span("pass"):
                workload.run(checks)
        else:
            workload.run(checks)
        times[traced].append(time.perf_counter() - start)
        if tracer is not None:
            tracer.active = False
        every = times[0] + times[1]
        elapsed = time.perf_counter() - begin
        done = elapsed + statistics.median(every) > seconds
        if done and (tracer is None or times[1]):
            return times


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """One run; returns the result line plus the record and, when traced,
    the tracer."""
    checks = workloads.Checks()
    tracer = spans.Tracer() if trace else None
    setup = [] if trace else setup_times(workload, seed, tiny)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        with (spans.instrument(tracer) if trace
              else contextlib.nullcontext()):
            wl = workloads.build(workload, seed, tmp, tiny)
            workloads.numba_parity(checks)
            wl.run(checks)  # warm-up: caches fill, lazy imports finish
            untraced, traced = _timed_passes(wl, checks, seconds, tracer)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "tiny": tiny, "environment": environment(),
        "wall_s": _distribution(untraced),
        "failures": dict(checks.reasons),
    }
    if trace:
        metrics = spans.layer_metrics(tracer.spans, len(traced))
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(untraced))
        metrics["fail_frac"] = checks.failed / checks.attempted
        units = dict(spans.PER_LAYER)
        record["traced_wall_s"] = _distribution(traced)
    else:
        metrics = {
            "wall_s": statistics.median(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        for name in workloads.ACCURACY:
            value = (checks.accuracy.get(name, math.inf)
                     if name in wl.measures else workloads.NOT_EXERCISED)
            metrics[name] = min(value, sys.float_info.max)
        units = E2E_UNITS
        record["setup_s"] = _distribution(setup)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return {"result": result, "record": record, "tracer": tracer,
            "traced": traced, "untraced": untraced}


def _distribution(samples) -> dict:
    if not samples:
        return {"n": 0}
    out = {"n": len(samples), "median": statistics.median(samples),
           "samples": samples}
    high = high_percentile(samples)
    if high is not None:
        out["high_percentile"] = {"p": high[0], "value": high[1]}
    return out


def print_report(run: dict) -> None:
    record, result = run["record"], run["result"]
    passes = len(run["untraced"]) + len(run["traced"])
    print(f"hgf benchmark: workload {record['workload']}, seed "
          f"{record['seed']}, trace {record['trace']}, "
          f"{passes} timed passes + 1 warm-up")
    print(f"operations: {result['attempted']} attempted, "
          f"{result['failed']} failed "
          f"(fail_frac {result['failed'] / result['attempted']:.4g})")
    for reason, count in sorted(record["failures"].items()):
        print(f"  FAILED x{count}: {reason}")
    wall = record["wall_s"]
    high = wall.get("high_percentile")
    print(f"wall_s: {wall['n']} untraced samples, median "
          f"{wall['median']:.6g} s, "
          + (f"p{high['p']:.0f} {high['value']:.6g} s" if high else
             "too few samples for a percentile with ten beyond it"))
    tracer = run["tracer"]
    if tracer is not None:
        print("spans per traced pass: calls, total s, self s")
        n = len(run["traced"])
        for name, t in sorted(spans.totals_by_name(tracer.spans).items()):
            print(f"  {name:<34} {t.calls / n:10.1f} {t.s / n:10.5f} "
                  f"{t.self_s / n:10.5f}")
    for name, m in result["metrics"].items():
        shown = m["value"]
        if (name in workloads.ACCURACY
                and shown == workloads.NOT_EXERCISED):
            shown = "n/a (not exercised by this workload)"
        print(f"  {name:<42} {shown} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    print_report(measure(args.workload, args.seed, args.seconds,
                         bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
