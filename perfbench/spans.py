"""In-memory spans around the calls into each hgf module.

Nothing inside ``src/hgf`` is changed.  `instrument` replaces, for the
duration of a traced run, the module attributes through which hgf code
calls across layers (``hgf.simulator.mol_run``, ``hgf.calculus.sample``,
...) with wrappers that record a span, and restores them afterwards.
Families built while it is installed get a traced copy of their
``evaluate`` (``dataclasses.replace(fam, evaluate=traced)``).

A span records its name, start, end, parent and thread, plus counts taken
at the boundary (grid points, steps, rows).  Spans stay in memory; the
run aggregates them into the per-layer metrics of `PER_LAYER` at the end.
Spans are never finer than one residual, one profile or one run, so no
right-hand-side evaluation is ever wrapped.

Self time is a span's duration minus the part of it that its child spans
cover.  Refinement levels run on worker threads, so the children of a
``calculus.refinement_study`` span overlap; the overlap is that span's
``parallel_excess`` and is what lets self times add up to more than the
wall time.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from hgf import calculus, cli, model, reduction, simulator, solutions, symmetry


@dataclasses.dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans; -1 for a root
    thread: int
    end: float = 0.0
    counts: dict = dataclasses.field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while `active`; wrappers call straight through
    otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.active = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span belongs to whatever the main
            # thread is waiting in (the refinement study that started it)
            main = self._main_stack
            parent = main[-1] if main and stack is not main else -1
        span = Span(name, time.perf_counter(), parent,
                    threading.get_ident())
        with self._lock:
            idx = len(self.spans)
            self.spans.append(span)
        stack.append(idx)
        return idx

    def close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack().pop()
        return span

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, count=None):
        """`fn` recording a span; `count(args, kwargs, result)` gives the
        span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                span = self.close(idx)
            if count is not None:
                span.counts.update(count(args, kwargs, out))
            return out

        return traced


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _eval_points(args, kwargs, out):
    return {"points": int(np.broadcast(np.asarray(args[0]),
                                       np.asarray(args[1])).size)}


def _traced_family(tracer: Tracer, name: str, factory):
    def build(*args, **kwargs):
        fam = factory(*args, **kwargs)
        return dataclasses.replace(
            fam, evaluate=tracer.wrap(name, fam.evaluate, _eval_points))

    return functools.wraps(factory)(build)


def _workers(args, kwargs, out):
    cap = calculus.thread_cap()
    levels = len(_arg(args, kwargs, 3, "h_sequence"))
    return {"workers": min(cap, levels) if cap > 1 else 1}


_FAMILY_FACTORIES = ("fisher_tf", "embed_fisher", "make_tf63", "make_tf65",
                     "make_fam40", "make_semi_exact")


def _patches(tracer: Tracer):
    w = tracer.wrap
    yield (simulator, "mol_run", lambda f: w(
        "kernels.mol_run", f,
        lambda a, k, out: {"cell_steps": int(a[5]) * a[0].shape[1]}))
    yield (simulator, "run", lambda f: w(
        "simulator.run", f,
        lambda a, k, out: {"steps": out.steps,
                           "rhs_evaluations": out.rhs_evaluations}))
    yield (simulator, "measure_front_speed",
           lambda f: w("simulator.measure_front_speed", f))
    yield (cli, "dispatch", lambda f: w("cli.dispatch", f))
    yield (cli, "write_snapshots_csv", lambda f: w(
        "cli.write_snapshots_csv", f,
        lambda a, k, out: {"rows": out, "bytes": os.path.getsize(a[0])}))
    yield (cli, "read_snapshots_csv", lambda f: w(
        "cli.read_snapshots_csv", f,
        lambda a, k, out: {"rows": sum(s.grid.n for s in out)}))
    yield (calculus, "refinement_study",
           lambda f: w("calculus.refinement_study", f, _workers))
    yield (calculus, "pde_residual", lambda f: w(
        "calculus.pde_residual", f,
        lambda a, k, out: {"cells": _arg(a, k, 2, "grid").n}))
    yield (calculus, "sample", lambda f: w(
        "calculus.sample", f,
        lambda a, k, out: {"points": _arg(a, k, 1, "grid").n}))
    yield (calculus, "ode_residual", lambda f: w("calculus.ode_residual", f))
    yield (model.Params, "reaction",
           lambda f: w("model.Params.reaction", f))
    for name in _FAMILY_FACTORIES:
        yield (solutions, name,
               lambda f: _traced_family(tracer, "solutions.evaluate", f))
    yield (symmetry, "flow",
           lambda f: _traced_family(tracer, "symmetry.flow.evaluate", f))
    yield (symmetry, "flow_group_check", lambda f: w(
        "symmetry.flow_group_check", f,
        lambda a, k, out: {"points": len(_arg(a, k, 3, "points")[0])}))
    yield (reduction, "semi_exact_family",
           lambda f: w("reduction.semi_exact_family", f))
    yield (reduction, "dense_profile", lambda f: w(
        "reduction.dense_profile", f,
        lambda a, k, out: {"nodes": len(out.xs)}))
    yield (reduction, "ode_rk4_table", lambda f: w(
        "kernels.ode_rk4_table", f,
        lambda a, k, out: {"steps": int(a[5]) - 1}))
    yield (reduction, "integrate", lambda f: w(
        "reduction.integrate", f,
        lambda a, k, out: {"nodes": len(out.xs)}))
    yield (reduction.ProfileTrajectory, "evaluate", lambda f: w(
        "reduction.trajectory.evaluate", f,
        lambda a, k, out: {"points": int(np.size(a[1]))}))


@contextmanager
def instrument(tracer: Tracer):
    """Install the span wrappers on hgf's modules; restore them on exit."""
    saved = []
    try:
        for owner, attr, make in _patches(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> tuple[list[float], list[float]]:
    """Per span: (self time, parallel excess = sum of child durations
    minus the time they cover)."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    selfs, excess = [], []
    for i, span in enumerate(spans):
        kids = [(c.start, c.end) for c in children.get(i, ())]
        cover = _covered(span.start, span.end, kids)
        selfs.append(span.duration - cover)
        excess.append(sum(b - a for a, b in kids) - cover)
    return selfs, excess


@dataclasses.dataclass
class Totals:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    busy_s: float = 0.0  # duration x worker threads it could use
    child_s: float = 0.0  # summed durations of direct children
    counts: dict = dataclasses.field(
        default_factory=lambda: defaultdict(float))


def totals_by_name(spans: list[Span]) -> dict[str, Totals]:
    selfs, _ = self_times(spans)
    out: dict[str, Totals] = defaultdict(Totals)
    for span, own in zip(spans, selfs):
        t = out[span.name]
        t.calls += 1
        t.s += span.duration
        t.self_s += own
        t.busy_s += span.duration * span.counts.get("workers", 1)
        for key, val in span.counts.items():
            t.counts[key] += val
        if span.parent >= 0:
            out[spans[span.parent].name].child_s += span.duration
    return out


# (metric, unit, span name, quantity).  A quantity is a Totals field, a
# count key, "<key>/us" for a rate in millions per second, or
# "parallel_eff" (summed child time over duration x workers).  Rates are
# over all traced passes; everything else is per traced pass.
_METRICS = (
    ("kernels.mol_run.calls", "count", "kernels.mol_run", "calls"),
    ("kernels.mol_run.s", "s", "kernels.mol_run", "s"),
    ("kernels.mol_run.cell_steps", "count", "kernels.mol_run", "cell_steps"),
    ("kernels.mol_run.mcell_steps_per_s", "Mcell-steps/s", "kernels.mol_run",
     "cell_steps/us"),
    ("simulator.steps", "count", "simulator.run", "steps"),
    ("simulator.rhs_evaluations", "count", "simulator.run",
     "rhs_evaluations"),
    ("simulator.run.self_s", "s", "simulator.run", "self_s"),
    ("simulator.measure_front_speed.s", "s", "simulator.measure_front_speed",
     "s"),
    ("cli.write_snapshots_csv.s", "s", "cli.write_snapshots_csv", "s"),
    ("cli.write_snapshots_csv.rows", "count", "cli.write_snapshots_csv",
     "rows"),
    ("cli.write_snapshots_csv.bytes", "B", "cli.write_snapshots_csv",
     "bytes"),
    ("cli.read_snapshots_csv.s", "s", "cli.read_snapshots_csv", "s"),
    ("cli.read_snapshots_csv.rows", "count", "cli.read_snapshots_csv",
     "rows"),
    ("cli.dispatch.self_s", "s", "cli.dispatch", "self_s"),
    ("calculus.refinement_study.calls", "count", "calculus.refinement_study",
     "calls"),
    ("calculus.refinement_study.s", "s", "calculus.refinement_study", "s"),
    ("calculus.refinement_study.parallel_eff", "ratio",
     "calculus.refinement_study", "parallel_eff"),
    ("calculus.pde_residual.calls", "count", "calculus.pde_residual",
     "calls"),
    ("calculus.pde_residual.self_s", "s", "calculus.pde_residual", "self_s"),
    ("calculus.pde_residual.cells", "count", "calculus.pde_residual",
     "cells"),
    ("calculus.sample.self_s", "s", "calculus.sample", "self_s"),
    ("calculus.sample.points", "count", "calculus.sample", "points"),
    ("calculus.ode_residual.s", "s", "calculus.ode_residual", "s"),
    ("solutions.evaluate.calls", "count", "solutions.evaluate", "calls"),
    ("solutions.evaluate.s", "s", "solutions.evaluate", "s"),
    ("solutions.evaluate.points", "count", "solutions.evaluate", "points"),
    ("solutions.evaluate.mpoints_per_s", "Mpoints/s", "solutions.evaluate",
     "points/us"),
    ("model.Params.reaction.calls", "count", "model.Params.reaction",
     "calls"),
    ("model.Params.reaction.s", "s", "model.Params.reaction", "s"),
    ("symmetry.flow.evaluate.calls", "count", "symmetry.flow.evaluate",
     "calls"),
    ("symmetry.flow.evaluate.self_s", "s", "symmetry.flow.evaluate",
     "self_s"),
    ("symmetry.flow_group_check.s", "s", "symmetry.flow_group_check", "s"),
    ("symmetry.flow_group_check.points", "count",
     "symmetry.flow_group_check", "points"),
    ("reduction.dense_profile.s", "s", "reduction.dense_profile", "s"),
    ("reduction.dense_profile.nodes", "count", "reduction.dense_profile",
     "nodes"),
    ("kernels.ode_rk4_table.s", "s", "kernels.ode_rk4_table", "s"),
    ("kernels.ode_rk4_table.steps", "count", "kernels.ode_rk4_table",
     "steps"),
    ("reduction.integrate.calls", "count", "reduction.integrate", "calls"),
    ("reduction.integrate.s", "s", "reduction.integrate", "s"),
    ("reduction.integrate.nodes", "count", "reduction.integrate", "nodes"),
    ("reduction.semi_exact_family.self_s", "s", "reduction.semi_exact_family",
     "self_s"),
    ("reduction.trajectory.evaluate.s", "s", "reduction.trajectory.evaluate",
     "s"),
    ("reduction.trajectory.evaluate.points", "count",
     "reduction.trajectory.evaluate", "points"),
)

# (name, unit) of every per-layer metric of a traced run; the last two
# come from the run itself, not from spans
PER_LAYER = tuple((m, u) for m, u, _, _ in _METRICS) + (
    ("trace.overhead_s", "s"), ("fail_frac", "ratio"))


def _value(t: Totals, quantity: str, passes: int) -> float:
    if quantity == "parallel_eff":
        return t.child_s / t.busy_s if t.busy_s > 0 else 0.0
    if quantity.endswith("/us"):
        key = quantity[:-3]
        return t.counts.get(key, 0.0) / t.s / 1e6 if t.s > 0 else 0.0
    if quantity in ("calls", "s", "self_s"):
        return getattr(t, quantity) / passes
    return t.counts.get(quantity, 0.0) / passes


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Span-derived per-layer metrics of `passes` traced passes."""
    totals = totals_by_name(spans)
    return {metric: _value(totals.get(name, Totals()), quantity, passes)
            for metric, _, name, quantity in _METRICS}
