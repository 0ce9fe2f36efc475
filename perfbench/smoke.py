"""Self-test of the benchmark harness on tiny sizes.

    python3 perfbench/smoke.py

For every workload, on two seeds: the run is correct, reports every metric
that ``BENCHMARK.json`` names with the unit it names, and its accuracy
metrics do not depend on the seed while its seeded inputs do.  Traced
runs: the self times of the span tree, less the overlap of parallel
children, add up to the traced wall time within the tracing overhead the
run reports.  The kernel-parity check runs against the numpy kernels so
that it is exercised even where numba is missing.  Exits 1 on any
failure.
"""

import json
import sys
import tempfile

from checkout import ROOT, use_checkout_hgf

use_checkout_hgf()

from hgf import _kernels  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEEDS = (1, 2)


def _units(result, declared) -> list[str]:
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    return [f"metrics {got} do not match {want}"] if got != want else []


def _span_tree(out) -> list[str]:
    tracer, traced = out["tracer"], out["traced"]
    selfs, excess = spans.self_times(tracer.spans)
    accounted = sum(selfs) - sum(excess)
    wall = sum(traced)
    overhead = abs(out["result"]["metrics"]["trace.overhead_s"]["value"])
    slack = (overhead + 1e-3) * len(traced)
    if abs(accounted - wall) > slack:
        return [f"self times add up to {accounted:.6f} s, traced wall is "
                f"{wall:.6f} s (allowed {slack:.6f} s)"]
    return []


def _seeded_inputs(name: str, seed: int):
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        wl = workloads.build(name, seed, tmp, tiny=True)
        if name == "verify":
            return [f.meta["delta"] for f in wl.sweep] + list(wl.points[0])
        if name == "profiles":
            return wl.seeded_draws
    return None


def check_workload(name: str, bench: dict) -> list[str]:
    problems = []
    accuracy = []
    for seed in SEEDS:
        out = run.measure(name, seed, 0.5, trace=False, tiny=True)
        res = out["result"]
        if not res["correct"]:
            problems.append(f"seed {seed}: {out['record']['failures']}")
        problems += _units(res, bench["end_to_end"])
        accuracy.append({k: res["metrics"][k]["value"]
                         for k in workloads.ACCURACY})
    if accuracy[0] != accuracy[1]:
        problems.append(f"accuracy depends on the seed: {accuracy}")
    seeded = [_seeded_inputs(name, seed) for seed in SEEDS]
    if seeded[0] is not None and seeded[0] == seeded[1]:
        problems.append("seeded inputs do not change with the seed")

    out = run.measure(name, SEEDS[0], 0.5, trace=True, tiny=True)
    res = out["result"]
    if not res["correct"]:
        problems.append(f"traced: {out['record']['failures']}")
    problems += _units(res, bench["per_layer"])
    problems += _span_tree(out)
    mol_calls = res["metrics"]["kernels.mol_run.calls"]["value"]
    if name in ("verify", "profiles") and mol_calls != 0:
        problems.append(f"MOL kernel ran {mol_calls} times per pass")
    return problems


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {names} differ from "
                        f"{sorted(workloads.WORKLOADS)}")
    parity = workloads.kernel_parity(
        _kernels.mol_run_numpy, _kernels.mol_run_numpy,
        _kernels.ode_rk4_table, _kernels.ode_rk4_table)
    if parity:
        problems.append(f"kernel parity: {parity}")
    for name in names:
        found = check_workload(name, bench)
        print(f"{name}: {'ok' if not found else 'FAILED'}")
        problems += [f"{name}: {p}" for p in found]
    for p in problems:
        print(f"  {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
