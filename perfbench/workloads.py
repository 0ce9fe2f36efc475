"""The four benchmark workloads.

Each workload builds its inputs once, from the workload seed, and then runs
identical passes.  A pass is a fixed list of operations.  Every operation
is checked against its acceptance tolerance; an exception, a non-finite
result or a missed tolerance counts as a failed operation, and its reason
is kept.  hgf is driven from outside, through its public functions and
``cli.dispatch``, and always through module attributes, so the span
wrappers of `spans.instrument` see every call.

Why these four: they stress different layers, so that a change to one
layer shows on the workload that exercises it and not on the others.

* ``front-speed``: the user's pipeline, ``hgf simulate`` then ``hgf speed``
  on the criterion-3 fronts at n = 2001.  The MOL kernel is bound by
  per-call overhead here; snapshot CSV write and read is the rest.
* ``fine-grid``: ``simulator.run`` in process on tf63 at n = 20001 with
  pinned-to-exact boundaries.  The same kernel, bound by array size, plus
  the per-step boundary table built from ``solutions``.
* ``verify``: closed-form residual refinement studies, symmetry flows,
  group axioms and a seeded tf63 residual sweep.  Stencils, family
  evaluation and kinetics over large arrays; no simulator, no ODE profile.
* ``profiles``: semi-exact profile tabulation, reduced-ODE integration and
  the refinement studies built on them.  Pure-Python per-step RK code in
  ``reduction`` and ``_kernels``.

Accuracy against an exact reference is deterministic, so a scheme change
that trades accuracy for time shows.  A workload reports only the
accuracy metrics it exercises; the others read `NOT_EXERCISED`.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import traceback
from pathlib import Path

import numpy as np

from hgf import (_kernels, calculus, cli, reduction, simulator, solutions,
                 symmetry)
from hgf.calculus import SpaceGrid
from hgf.model import Params

H_SEQ = (4e-3, 2e-3, 1e-3)
ORDER, ORDER_TOL = 2.0, 0.2
LINF_TOL = 1e-4
SWEEP_TOL = 4e-4
ORACLE_TOL = 1e-6
R2_MIN = 0.999
EXACT_TOL = 1e-8
GROUP_TOL = 1e-12

TF63 = {"a1": 0.1, "delta": 0.35, "a3": 1.0, "d3": 3.0}
TF63_SPEED = 81.0 / (5.0 * math.sqrt(62.0))
FISHER_SPEED = 5.0 / math.sqrt(6.0)

ACCURACY = ("speed_rel_err", "exact_err_max", "order_dev_max",
            "oracle_dev_max")
# value of an accuracy metric on a workload that does not exercise it
NOT_EXERCISED = 1.0


class Checks:
    """Operation outcomes and the worst accuracy seen over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: collections.Counter = collections.Counter()
        self.accuracy: dict[str, float] = {}

    def op(self, name: str, fn) -> None:
        """Run one operation; `fn` returns None or what went wrong."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # a failing operation is counted, not lost
            where = traceback.extract_tb(exc.__traceback__)[-1]
            problem = (f"{type(exc).__name__}: {exc} "
                       f"(at {Path(where.filename).name}:{where.lineno})")
        if problem:
            self.failed += 1
            self.reasons[f"{name}: {problem}"] += 1

    def worst(self, metric: str, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            value = math.inf
        self.accuracy[metric] = max(self.accuracy.get(metric, 0.0), value)


def _dispatch(argv) -> str | None:
    """``hgf <argv>`` in process; None on exit status 0."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.dispatch([str(a) for a in argv])
    if rc == 0:
        return None
    return f"hgf {argv[0]} exited {rc}: {err.getvalue().strip()}"


def _orders_problem(checks: Checks, orders, linf=None, linf_tol=None):
    """Check observed orders (None: undefined component, inf: exactly-zero
    residual) and optionally the finest-level linf."""
    devs = [abs(o - ORDER) for o in orders if o is not None and o != math.inf]
    dev = max(devs, default=0.0)
    checks.worst("order_dev_max", dev)
    if not dev <= ORDER_TOL:
        return f"orders {orders} outside {ORDER} +- {ORDER_TOL}"
    if linf_tol is not None and not linf <= linf_tol:
        return f"linf {linf:.3e} above {linf_tol:g}"
    return None


def _study(checks: Checks, params, sol, window, linf_tol=None):
    rep = calculus.refinement_study(params, sol, window, H_SEQ)
    return _orders_problem(checks, rep.order_estimate, rep.max_linf(),
                           linf_tol)


def _flow_window(t: float) -> tuple[float, float, float]:
    return (t, -20.0 + FISHER_SPEED * t, 20.0 + FISHER_SPEED * t)


# ---------------------------------------------------------------------------
# front-speed
# ---------------------------------------------------------------------------


class FrontSpeed:
    """``hgf simulate`` then ``hgf speed`` on tf63 (w at level 0.5) and the
    Fisher front (u at level 0.25), Dirichlet endpoints, n = 2001 on
    [-40, 60].  Criterion 3 runs to t_end = 10 with snapshot_every = 500;
    here t_end = 0.5 so that a pass (about 2 s on 2 cores at 2.1 GHz)
    repeats often enough in one run for a steady median, and
    snapshot_every = 250 so that the Fisher fit still has three snapshots
    in the last half of the run.  CSV rows per step double, so CSV I/O is
    a larger share of a pass than in criterion 3.
    """

    measures = ("speed_rel_err",)

    def __init__(self, seed: int, tmp: Path, tiny: bool):
        # the tiny grid takes 16x fewer steps: keep the snapshot count
        n, every = (501, 16) if tiny else (2001, 250)
        self.fronts = []
        for key, fam, comp, level, exact, tol in (
                ("tf63", TF63, "w", 0.5, TF63_SPEED, 0.02),
                ("fisher", {}, "u", 0.25, FISHER_SPEED, 0.01)):
            config = tmp / f"{key}.json"
            config.write_text(json.dumps({
                "family": {"key": key, **fam},
                "grid": {"x_min": -40.0, "x_max": 60.0, "n": n},
                "time": {"t_end": 0.5, "snapshot_every": every},
            }))
            self.fronts.append((key, config, tmp / f"run-{key}", comp, level,
                                exact, tol, tmp / f"speed-{key}.json"))

    def run(self, checks: Checks) -> None:
        for front in self.fronts:
            checks.op(f"front-speed {front[0]}",
                      lambda f=front: self._front(checks, *f))

    @staticmethod
    def _front(checks, key, config, rundir, comp, level, exact, tol, report):
        problem = (_dispatch(["simulate", "--config", config, "--out", rundir,
                              "--quiet"])
                   or _dispatch(["speed", "--run", rundir, "--component",
                                 comp, "--level", level, "--out", report]))
        if problem:
            return problem
        est = json.loads(report.read_text())["speed"]
        err = abs(est["speed"] - exact) / exact
        checks.worst("speed_rel_err", err)
        if not err <= tol:
            return f"speed error {err:.3e} above {tol}"
        if not est["r_squared"] >= R2_MIN:
            return f"r^2 {est['r_squared']} below {R2_MIN}"
        return None


# ---------------------------------------------------------------------------
# fine-grid
# ---------------------------------------------------------------------------


class FineGrid:
    """``simulator.run`` of tf63 with pinned-to-exact boundaries on
    n = 20001 over [-40, 60] (876 steps to t_end = 1e-3), checked against
    the exact solution at t_end."""

    measures = ("exact_err_max",)

    def __init__(self, seed: int, tmp: Path, tiny: bool):
        n, t_end = (4001, 2e-3) if tiny else (20001, 1e-3)
        self.family = solutions.make_tf63(**TF63)
        self.config = simulator.SimConfig(
            params=self.family.params, grid=SpaceGrid(-40.0, 60.0, n),
            t_end=t_end, initial=self.family, snapshot_every=500,
            bc=simulator.BoundaryCondition("pinned-to-exact",
                                           family=self.family))

    def run(self, checks: Checks) -> None:
        checks.op("fine-grid tf63", lambda: self._run(checks))

    def _run(self, checks):
        last = simulator.run(self.config).snapshots[-1]
        exact = self.family.evaluate(last.t, last.grid.x())
        err = max(float(np.max(np.abs(a - b)))
                  for a, b in zip((last.u, last.v, last.w), exact))
        checks.worst("exact_err_max", err)
        if not err <= EXACT_TOL:
            return f"max |simulated - exact| {err:.3e} above {EXACT_TOL}"
        return None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _group_ops():
    return [
        symmetry.pt(), symmetry.px(), symmetry.SymmetryOp("I"),
        symmetry.xinf(symmetry.heat_decaying(0.7, 0.4, 1.0), 2.0),
        symmetry.SymmetryOp("Q1", a1=0.5), symmetry.SymmetryOp("UdV"),
        symmetry.SymmetryOp("Q2"), symmetry.SymmetryOp("ExpA4WdV", a4=0.7),
        symmetry.SymmetryOp("WdV_minus_a4WdW", a4=0.7),
        symmetry.SymmetryOp("Case9Op", a1=0.5, a4=0.8),
        symmetry.SymmetryOp("Case10Op", a2=2.0),
        symmetry.SymmetryOp("Case12_WdV_minus_WdW"),
        symmetry.SymmetryOp("Case12_UdV_plus_1mUdW"),
        symmetry.SymmetryOp("Case12_ExpMinusT"),
    ]


def _tf63_sweep_draws(rng, count: int):
    """Criterion-9 draws inside the family's domain that pass the direct
    sign checks."""
    draws = []
    while len(draws) < count:
        a1 = rng.uniform(-0.5, 1.2)
        delta = rng.uniform(0.05, 1.5)
        d3 = rng.uniform(0.2, 5.0)
        a3 = rng.uniform(-0.5, 2.0)
        if a1 * delta >= 0.5:
            continue
        vals = solutions.tf63_parameter_values(a1, delta, a3, d3)
        if vals["d2"] > 0 and vals["a2"] >= 0 and vals["a5"] >= 0:
            draws.append((float(a1), float(delta), float(a3), float(d3)))
    return draws


class Verify:
    """Criterion-1 refinement studies, the criterion-6 flowed studies on
    closed-form bases, the group axioms of 14 operators, a seeded
    criterion-9-style tf63 residual sweep and one ``hgf residual
    --refine``."""

    measures = ("order_dev_max",)

    def __init__(self, seed: int, tmp: Path, tiny: bool):
        rng = np.random.default_rng(seed)
        beta = solutions.fam40_restrictions(0.1, 0.5)["beta"]
        fam_i = solutions.make_fam40("i", 0.1, 0.5, beta, 2.0, 0.5)
        self.closed = [
            ("fisher", solutions.fisher_tf(), (0.0, -30.0, 30.0)),
            ("fam40-i", fam_i, (0.5, 0.0, 10.0)),
            ("tf63", solutions.make_tf63(**TF63), (0.0, -30.0, 30.0)),
            ("tf65", solutions.make_tf65(1.0), (0.0, -30.0, 30.0)),
        ]
        p2 = Params(0.0, 0.0, 1.0, 1.0, 0.0, d1=1.0, d2=2.0, d3=3.0)
        base12 = solutions.embed_fisher(Params(0.0, 0.0, 0.0, 1.0, 0.0))
        c12b = symmetry.SymmetryOp("Case12_UdV_plus_1mUdW")
        self.flows = [
            ("case 2 / Xinf", solutions.embed_fisher(p2),
             symmetry.xinf(symmetry.heat_decaying(0.7, 0.4, 1.0), p2.d2),
             _flow_window(0.5)),
            ("case 4 / Q1", fam_i, symmetry.SymmetryOp("Q1", a1=0.1),
             (0.5, 0.0, 10.0)),
            ("case 9 / Case9Op",
             solutions.make_fam40("ii", 0.3, 0.6, 0.2, 1.5, 0.7, d3=1.0),
             symmetry.SymmetryOp("Case9Op", a1=0.3, a4=0.6),
             (0.5, 0.0, 10.0)),
            ("case 12 / UdV+(1-u)dW", base12, c12b, _flow_window(0.5)),
            ("case 12 / e^-t(dV-dW)", base12,
             symmetry.SymmetryOp("Case12_ExpMinusT"), _flow_window(0.5)),
            # the w-scaling operator acts trivially on w = 0: flow first
            ("case 12 / WdV-WdW", symmetry.flow(c12b, 0.2, base12),
             symmetry.SymmetryOp("Case12_WdV_minus_WdW"), _flow_window(0.5)),
        ]
        npts = 100 if tiny else 1000
        self.points = tuple(rng.uniform(-1.5, 1.5, npts) for _ in range(5))
        self.group_ops = _group_ops()
        self.sweep = [solutions.make_tf63(a1, delta, a3=a3, d3=d3)
                      for a1, delta, a3, d3 in
                      _tf63_sweep_draws(rng, 3 if tiny else 200)]
        self.sweep_grid = SpaceGrid(-25.0, 25.0, 25001)
        self.report = tmp / "residual.json"

    def run(self, checks: Checks) -> None:
        for name, fam, window in self.closed:
            checks.op(f"criterion 1 {name}", lambda f=fam, w=window: _study(
                checks, f.params, f, w, LINF_TOL))
        for name, base, op, window in self.flows:
            checks.op(f"criterion 6 {name}",
                      lambda b=base, o=op, w=window: _study(
                          checks, b.params, symmetry.flow(o, 0.3, b), w))
        for op in self.group_ops:
            checks.op(f"group axioms {op.kind}", lambda o=op: self._group(o))
        for i, inst in enumerate(self.sweep):
            checks.op(f"tf63 sweep draw {i}", lambda f=inst: self._sweep(f))
        checks.op("hgf residual --refine", lambda: self._cli(checks))

    def _group(self, op):
        for eps1, eps2 in ((0.2, 0.3), (0.7, -0.7)):
            if not symmetry.flow_group_check(op, eps1, eps2, self.points,
                                             rel_tol=GROUP_TOL):
                return f"group axioms fail at eps = ({eps1}, {eps2})"
        return None

    def _sweep(self, inst):
        rep = calculus.pde_residual(inst.params, inst, self.sweep_grid, 0.0,
                                    2e-3)
        linf = rep.max_linf()
        if not linf <= SWEEP_TOL:
            return f"linf {linf:.3e} above {SWEEP_TOL} at {inst.meta}"
        return None

    def _cli(self, checks):
        problem = _dispatch(["residual", "--family", "tf63",
                             *(a for k, v in TF63.items()
                               for a in (f"--{k}", v)),
                             "--refine", "--out", self.report])
        if problem:
            return problem
        res = json.loads(self.report.read_text())["residual"]
        return _orders_problem(checks, res["order"],
                               max(v for v in res["linf"] if v is not None),
                               LINF_TOL)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------


def _r38_draws(rng, count: int):
    """Criterion-4 draws: (a1, a4, delta1, delta2, beta)."""
    return [tuple(float(v) for v in (
        rng.uniform(0.1, 1.0), rng.uniform(0.05, 0.95),
        rng.uniform(0.2, 3.0), rng.uniform(0.1, 2.0),
        rng.uniform(-0.5, 0.5))) for _ in range(count)]


class Profiles:
    """Semi-exact families 35-i and 50 with their criterion-7 studies, the
    semi50 criterion-6 flows, R38 case-i oracle draws and one ``hgf reduce
    --system R38 --case i --verify``.

    ``oracle_dev_max`` comes from draws that do not depend on the seed
    (criterion 4's own stream) and from the CLI run, so it compares across
    seeds; the seeded draws are checked against the same tolerance.
    """

    measures = ("order_dev_max", "oracle_dev_max")

    def __init__(self, seed: int, tmp: Path, tiny: bool):
        count = 2 if tiny else 20
        self.reference_draws = _r38_draws(np.random.default_rng(38), count)
        self.seeded_draws = _r38_draws(np.random.default_rng(seed), count)
        self.ts = np.linspace(0.0, 3.0, 301)
        self.report = tmp / "reduce.json"

    def run(self, checks: Checks) -> None:
        fams = {}

        def build(case, **kw):
            fams[case], _ = reduction.semi_exact_family(
                case, window=(-24.0, 24.0), step=5e-3, y0=(1.0, 0.0),
                anchor=-24.0, **kw)

        checks.op("semi_exact_family 35-i",
                  lambda: build("35-i", a1=0.5, a4=0.5, beta=3.0))
        checks.op("semi_exact_family 50",
                  lambda: build("50", a4=0.5, beta=0.3, gamma=0.2))
        for case in ("35-i", "50"):
            for t in (0.5, 1.0):
                checks.op(f"criterion 7 semi{case} t={t}",
                          lambda c=case, t=t: self._reconstruction(
                              checks, fams[c], t))
        for op in (symmetry.SymmetryOp("UdV"), symmetry.SymmetryOp("Q2")):
            checks.op(f"criterion 6 case 5 / {op.kind}",
                      lambda o=op: _study(
                          checks, fams["50"].params,
                          symmetry.flow(o, 0.3, fams["50"]),
                          _flow_window(0.5)))
        for i, draw in enumerate(self.reference_draws):
            checks.op(f"R38 oracle reference draw {i}",
                      lambda d=draw: self._oracle(checks, d, True))
        for i, draw in enumerate(self.seeded_draws):
            checks.op(f"R38 oracle seeded draw {i}",
                      lambda d=draw: self._oracle(checks, d, False))
        checks.op("hgf reduce R38 --verify", lambda: self._cli(checks))

    @staticmethod
    def _reconstruction(checks, fam, t):
        sp = fam.speed
        return _study(checks, fam.params, fam,
                      (t, -20.0 + sp * t, 20.0 + sp * t))

    def _oracle(self, checks, draw, reference):
        a1, a4, d1, d2, beta = draw
        system = reduction.reduced_system("R38", beta=beta, a1=a1, a3=1.0,
                                          a4=a4)
        y0 = np.asarray(reduction.closed_form_R38("i", a1, d1, d2, beta, 0.0,
                                                  a4=a4))
        traj = reduction.integrate(system, y0, (0.0, 3.0), max_step=0.02)
        exact = np.stack(reduction.closed_form_R38("i", a1, d1, d2, beta,
                                                   self.ts, a4=a4), axis=1)
        nodes = np.stack(reduction.closed_form_R38("i", a1, d1, d2, beta,
                                                   traj.xs, a4=a4), axis=1)
        dev = max(
            float(np.max(np.abs(traj.evaluate(self.ts, rule="quintic")
                                - exact))),
            float(np.max(np.abs(traj.ys - nodes))))
        if reference:
            checks.worst("oracle_dev_max", dev)
        if not dev <= ORACLE_TOL:
            return f"oracle deviation {dev:.3e} above {ORACLE_TOL} at {draw}"
        return None

    def _cli(self, checks):
        problem = _dispatch([
            "reduce", "--system", "R38", "--case", "i", "--a1", 0.5,
            "--a4", 0.7, "--beta", 0.3, "--delta1", 1.3, "--delta2", 0.4,
            "--span", 0, 3, "--verify", "--out", self.report])
        if problem:
            return problem
        dev = json.loads(self.report.read_text())["results"][
            "oracle_max_deviation"]
        checks.worst("oracle_dev_max", dev)
        if not dev <= ORACLE_TOL:
            return f"oracle deviation {dev:.3e} above {ORACLE_TOL}"
        return None


WORKLOADS = {"front-speed": FrontSpeed, "fine-grid": FineGrid,
             "verify": Verify, "profiles": Profiles}


def build(name: str, seed: int, tmp: Path, tiny: bool = False):
    """A workload's inputs, generated from `seed`; files go under `tmp`."""
    return WORKLOADS[name](seed, Path(tmp), tiny)


# ---------------------------------------------------------------------------
# numba / numpy kernel parity
# ---------------------------------------------------------------------------


def kernel_parity(mol_a, mol_b, table_a, table_b) -> str | None:
    """Both MOL RK4 kernels, and both profile-table kernels, must give
    bit-identical output.  Run against the numba kernels and their numpy
    twins when numba is importable."""
    tf63 = solutions.make_tf63(**TF63)
    grid = SpaceGrid(-40.0, 60.0, 201)
    F0 = np.stack(tf63.evaluate(0.0, grid.x()))
    dco = np.asarray(tf63.params.diffusivities)
    aco = np.asarray(tf63.params.a_coefficients)
    bc = np.zeros((1, 3, 3, 2))
    bc[0, :, :, 0] = F0[:, 0]
    bc[0, :, :, 1] = F0[:, -1]
    dt = 0.4 * grid.h ** 2 / (2.0 * max(dco))
    snap_steps = np.array([100, 200], dtype=np.int64)
    outs = []
    for kernel in (mol_a, mol_b):
        snaps = np.empty((3, 3, grid.n))
        snaps[0] = F0
        status = kernel(F0.copy(), dco, aco, grid.h, dt, 200, 0, bc,
                        snap_steps, snaps)
        if status != -1:
            return f"MOL kernel reported a blow-up at step {status}"
        outs.append(snaps)
    if not np.array_equal(*outs, equal_nan=True):
        return "MOL kernel paths diverged"
    system = reduction.reduced_system("R58", alpha=tf63.speed,
                                      params=tf63.params)
    y0 = np.array([0.93, 0.0, 0.7, 0.0, 0.0, 0.0])
    tables = []
    for kernel in (table_a, table_b):
        out = np.empty((2001, system.dim))
        kernel(system.code, system.kcoeffs, y0, -20.0, 0.02, 2001, out)
        tables.append(out)
    if not np.array_equal(*tables, equal_nan=True):
        return "profile-table kernel paths diverged"
    return None


def numba_parity(checks: Checks) -> None:
    """The parity check above, as one operation, when numba is in use."""
    if _kernels.USING_NUMBA:
        checks.op("numba/numpy kernel parity", lambda: kernel_parity(
            _kernels.mol_run_loop, _kernels.mol_run_numpy,
            _kernels.ode_rk4_table, _kernels.ode_rk4_table.py_func))
