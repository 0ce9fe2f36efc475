import json
import math
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from hgf import calculus, cli, simulator, solutions
from hgf.calculus import SpaceGrid
from hgf.errors import ConstraintError, NumericalError
from hgf.model import Params


def test_default_step_rule():
    grid = SpaceGrid(0.0, 0.05 * 100, 101)  # h = 0.05
    slow = Params(1, 1, 1, 1, 1)  # d_max = 1: DT_PER_H * h = 1e-3 rules
    fast = Params(1, 1, 1, 1, 1, d1=1.0, d2=4.3793, d3=3.0)
    cfg = simulator.SimConfig(params=slow, grid=grid, t_end=0.5,
                              initial=(None, None, None),
                              snapshot_every=10**6)
    run = simulator.run(cfg)
    assert simulator.DT_PER_H * grid.h == pytest.approx(1e-3, rel=1e-12)
    assert run.steps == 500
    assert run.dt == pytest.approx(1e-3, rel=1e-12)
    assert run.rhs_evaluations == 501  # the CN-Heun first step takes two
    # h^2 / d_max = 5.709e-4 rules, shortened to divide the span
    run = simulator.run(replace(cfg, params=fast))
    assert run.steps == 876
    assert run.dt == pytest.approx(0.5 / 876, rel=1e-12)
    assert run.dt * 4.3793 / (2.0 * grid.h ** 2) <= 0.5


def test_run_stores_each_snapshot_once():
    # the snapshots' FieldState rows are views of the array the kernel
    # fills; per-row copies held every value twice until run returned
    fam = solutions.fisher_tf()
    grid = SpaceGrid(-20.0, 20.0, 501)
    cfg = simulator.SimConfig(params=fam.params, grid=grid, t_end=0.5,
                              initial=fam, snapshot_every=1)
    simulator.run(cfg)  # first-call costs (kernel compilation) not counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = simulator.run(cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    snapshot_bytes = len(run.snapshots) * 3 * grid.n * 8
    assert len(run.snapshots) == 314
    assert peak <= 1.25 * snapshot_bytes


def test_one_cell_spike_stays_nonnegative():
    # r = 1/2 at d = 4.38 and h = 0.005; at dt = DT_PER_H * h (r = 8.76)
    # Crank-Nicolson took the spike to -0.667 in one step
    p = Params(0.1, 1.0, 1.0, 1.0, 1.0, d1=4.38, d2=4.38, d3=4.38)
    grid = SpaceGrid(-1.0, 1.0, 401)
    F = np.zeros((3, grid.n))
    F[:, grid.n // 2] = 1.0
    cfg = simulator.SimConfig(params=p, grid=grid, t_end=3e-4,
                              initial=tuple(F), snapshot_every=1)
    run = simulator.run(cfg)
    for s in run.snapshots:
        assert s.stack().min() >= 0.0
    assert run.steps >= 50
    assert run.snapshots[-1].stack().max() < 0.1  # it spread


@pytest.mark.parametrize("initial,match", [
    ((np.zeros(5), None, None), r"initial u must have shape \(201,\)"),
    ((np.array([0.3]), None, None), r"initial u must have shape"),
    ((None, None, np.zeros((1, 201))), r"initial w must have shape"),
    ((np.zeros(201),) * 4, r"3 entries \(u, v, w\), got 4"),
    ((np.zeros(201),) * 2, r"3 entries \(u, v, w\), got 2"),
], ids=["short", "one-element", "row-matrix", "four", "two"])
def test_array_initial_data_checked_by_component(initial, match):
    # a short array used to raise numpy's broadcast error, a one-element
    # one was spread over the grid, four arrays raised IndexError and two
    # left w at zero
    cfg = simulator.SimConfig(params=Params(1, 1, 1, 1, 1),
                              grid=SpaceGrid(-10.0, 10.0, 201), t_end=0.01,
                              initial=initial)
    with pytest.raises(ConstraintError, match=match):
        simulator.run(cfg)


@pytest.mark.parametrize("key", ["cfl_safety", "dt"])
def test_step_knobs_are_unknown_time_keys(tmp_path, key):
    # the step follows from h and the diffusivities alone
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"time": {"t_end": 1.0, key: 0.4}}))
    with pytest.raises(ConstraintError,
                       match=rf"time has unknown keys \['{key}'\]"):
        cli.load_config(path)


@pytest.mark.parametrize("t0,t_end", [(0.0, math.inf), (-math.inf, 1.0),
                                      (0.0, math.nan), (-1e308, 1e308)])
def test_non_finite_times_rejected(t0, t_end):
    p = Params(1, 1, 1, 1, 1)
    with pytest.raises(ConstraintError, match="finite"):
        simulator.SimConfig(params=p, grid=SpaceGrid(0, 1, 11), t_end=t_end,
                            t0=t0, initial=(None, None, None))


@pytest.mark.parametrize("t0,t_end", [(0.0, 0.0), (1.0, 0.5)])
def test_empty_time_span_rejected(t0, t_end):
    p = Params(1, 1, 1, 1, 1)
    with pytest.raises(ConstraintError, match="^t_end must exceed t0$"):
        simulator.SimConfig(params=p, grid=SpaceGrid(0, 1, 11), t_end=t_end,
                            t0=t0, initial=(None, None, None))


@pytest.mark.parametrize("t_end,every,bc", [
    (1e300, 100, None),
    (1e300, 10**400, None),  # few snapshots, but too many steps
    (1e308, 10**400, None),  # the step count overflows to inf
    (2e4, 100, None),  # 1e7 steps: the snapshots hold too many values
    (2e4, 10**9, "pinned"),  # the boundary table holds too many values
])
def test_unholdable_run_rejected_before_allocating(t_end, every, bc):
    fam = solutions.fisher_tf()
    grid = SpaceGrid(-10.0, 10.0, 201)
    kw = {}
    if bc == "pinned":
        kw["bc"] = simulator.BoundaryCondition(kind="pinned-to-exact",
                                               family=fam)
    cfg = simulator.SimConfig(params=fam.params, grid=grid, t_end=t_end,
                              initial=fam, snapshot_every=every, **kw)
    with pytest.raises(ConstraintError, match="t_end"):
        simulator.run(cfg)


def test_zero_initial_stays_zero():
    p = Params(1, 1, 1, 1, 1)
    n = 41
    cfg = simulator.SimConfig(
        params=p, grid=SpaceGrid(-2, 2, n), t_end=0.2,
        initial=(np.zeros(n), np.zeros(n), np.zeros(n)),
        bc=simulator.BoundaryCondition("neumann-zero"), snapshot_every=20)
    run = simulator.run(cfg)
    for s in run.snapshots:
        assert np.max(np.abs(s.stack())) == 0.0


def test_steady_001_preserved():
    p = Params(0.5, 1.0, 2.0, 1.0, 0.5)
    n = 41
    cfg = simulator.SimConfig(
        params=p, grid=SpaceGrid(-2, 2, n), t_end=0.5,
        initial=(np.zeros(n), np.zeros(n), np.ones(n)),
        bc=simulator.BoundaryCondition("neumann-zero"), snapshot_every=100)
    run = simulator.run(cfg)
    drift = np.max(np.abs(run.snapshots[-1].w - 1.0))
    assert drift <= 1e-13 * run.steps


def test_tf63_transport_self_convergence(tf63_std):
    def err(n):
        g = SpaceGrid(-15.0, 25.0, n)
        cfg = simulator.SimConfig(
            params=tf63_std.params, grid=g, t_end=0.5, initial=tf63_std,
            bc=simulator.BoundaryCondition("pinned-to-exact",
                                           family=tf63_std),
            snapshot_every=10**9)
        run = simulator.run(cfg)
        s = run.snapshots[-1]
        exact = tf63_std.evaluate(s.t, g.x())
        return max(np.max(np.abs(a - b))
                   for a, b in zip((s.u, s.v, s.w), exact))

    e_coarse, e_fine = err(401), err(801)
    assert e_coarse / e_fine == pytest.approx(4.0, rel=0.15)


def test_speed_from_analytic_snapshots(tf63_std):
    grid = SpaceGrid(-30, 50, 1601)
    snaps = [calculus.sample(tf63_std, grid, t) for t in np.linspace(0, 8, 17)]
    est = simulator.measure_front_speed(snaps, "w", 0.5)
    assert abs(est.speed - tf63_std.speed) <= 1e-3 * tf63_std.speed
    assert est.r_squared >= 0.999999
    assert est.reliable


def test_speed_no_crossing_on_constant():
    grid = SpaceGrid(-1, 1, 11)
    snaps = [calculus.FieldState(grid=grid, t=float(t), u=np.full(11, 0.7),
                                 v=np.zeros(11), w=np.zeros(11))
             for t in range(4)]
    with pytest.raises(NumericalError, match="no level-0.5 crossing"):
        simulator.measure_front_speed(snaps, "u", 0.5)


def test_speed_rejects_bad_component_and_short_window(tf63_std):
    grid = SpaceGrid(-30, 50, 161)
    snaps = [calculus.sample(tf63_std, grid, t) for t in (0.0, 1.0, 2.0)]
    with pytest.raises(ConstraintError,
                       match="^component must be one of u, v, w$"):
        simulator.measure_front_speed(snaps, "x", 0.5)
    with pytest.raises(ConstraintError,
                       match="^fit window contains fewer than 2 snapshots$"):
        simulator.measure_front_speed(snaps, "w", 0.5,
                                      fit_window=(0.5, 1.5))


def test_speed_multiple_crossings_on_pulse():
    tf65 = solutions.make_tf65(1.0)  # w is a pulse, not a front
    grid = SpaceGrid(-30, 30, 601)
    snaps = [calculus.sample(tf65, grid, t) for t in (0.0, 0.5, 1.0)]
    with pytest.raises(NumericalError, match="multiple"):
        simulator.measure_front_speed(snaps, "w", 0.1, fit_window=(0.0, 1.0))


def test_determinism_bit_identical(tf63_std):
    def snapshots():
        cfg = simulator.SimConfig(
            params=tf63_std.params, grid=SpaceGrid(-10, 15, 251), t_end=0.3,
            initial=tf63_std, bc=simulator.dirichlet_at_endpoints(tf63_std),
            snapshot_every=37)
        return simulator.run(cfg).snapshots

    a, b = snapshots(), snapshots()
    assert len(a) == len(b)
    for s1, s2 in zip(a, b):
        np.testing.assert_array_equal(s1.stack(), s2.stack())


def test_fisher_comparison_principle():
    # decoupled logistic component started inside [0, 1] stays there
    p = Params(0.0, 0.0, 0.0, 1.0, 0.0)
    grid = SpaceGrid(-20, 20, 201)
    x = grid.x()
    u0 = 1.0 / (1.0 + np.exp(x))
    cfg = simulator.SimConfig(
        params=p, grid=grid, t_end=1.0, initial=(u0, np.zeros_like(x),
                                                 np.zeros_like(x)),
        bc=simulator.BoundaryCondition("neumann-zero"), snapshot_every=200)
    run = simulator.run(cfg)
    for s in run.snapshots:
        assert np.all(s.u >= -1e-8) and np.all(s.u <= 1 + 1e-8)


def test_blowup_aborts_with_partial_run():
    p = Params(0.0, 0.0, 0.0, 1.0, 0.0)
    n = 21
    cfg = simulator.SimConfig(
        params=p, grid=SpaceGrid(0, 2, n), t_end=1.0,
        initial=(np.full(n, -1e4), np.zeros(n), np.zeros(n)),
        bc=simulator.BoundaryCondition("neumann-zero"), snapshot_every=1)
    with pytest.raises(NumericalError, match="step") as err:
        simulator.run(cfg)
    partial = err.value.partial
    assert partial.aborted_at is not None
    assert len(partial.snapshots) >= 1
    assert np.isfinite(partial.snapshots[-1].stack()).all()


def test_blowup_found_between_snapshots():
    # the same run blows up at step 7; without snapshots to check it must
    # still be caught within FINITE_CHECK_EVERY steps, with a bracket
    p = Params(0.0, 0.0, 0.0, 1.0, 0.0)
    n = 21
    cfg = simulator.SimConfig(
        params=p, grid=SpaceGrid(0, 2, n), t_end=1.0,
        initial=(np.full(n, -1e4), np.zeros(n), np.zeros(n)),
        bc=simulator.BoundaryCondition("neumann-zero"), snapshot_every=10**6)
    with pytest.raises(NumericalError) as err:
        simulator.run(cfg)
    found = err.value.partial.aborted_at
    assert 3 <= found <= 64
    clean = int(re.search(r"finite at step (\d+)", str(err.value)).group(1))
    assert found - 64 <= clean < 3
    assert f"detected at step {found} " in str(err.value)


def test_dirichlet_requires_triples():
    with pytest.raises(ConstraintError, match="dirichlet"):
        simulator.BoundaryCondition("dirichlet", left=(0, 0, 0))
    with pytest.raises(ConstraintError, match="unknown bc"):
        simulator.BoundaryCondition("weird")


_BC_FIELDS = {"left": (1.0, 0.0, 0.0), "right": (0.0, 0.0, 1.0),
              "family": solutions.fisher_tf()}


@pytest.mark.parametrize("kind,name", [
    (kind, name) for kind, reads in simulator.BoundaryCondition.READS.items()
    for name in _BC_FIELDS if name not in reads])
def test_boundary_condition_refuses_fields_its_kind_does_not_read(kind,
                                                                  name):
    # each was accepted and dropped
    reads = simulator.BoundaryCondition.READS[kind]
    kw = {n: v for n, v in _BC_FIELDS.items() if n in reads or n == name}
    with pytest.raises(ConstraintError,
                       match=f"^{kind} bc does not take {name}$"):
        simulator.BoundaryCondition(kind, **kw)


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("value", [(1.0, 0.0), (math.nan, 0.0, 0.0),
                                   [0.0, math.inf, 0.0], (True, 0.0, 0.0),
                                   None, "abc"])
def test_dirichlet_side_must_be_three_finite_numbers(side, value):
    # a side of length 2 was a raw numpy ValueError in the run, a NaN
    # side a blow-up after 64 steps
    kw = {"left": (1.0, 0.0, 0.0), "right": (0.0, 0.0, 1.0), side: value}
    message = f"dirichlet bc {side} must be 3 finite numbers, got {value!r}"
    with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
        simulator.BoundaryCondition("dirichlet", **kw)


def test_pinned_to_exact_needs_a_family():
    with pytest.raises(ConstraintError,
                       match="^pinned-to-exact bc needs a family$"):
        simulator.BoundaryCondition("pinned-to-exact")


def test_dirichlet_at_endpoints_needs_endpoint_states(fam40_std):
    assert fam40_std.endpoint_states is None
    with pytest.raises(ConstraintError,
                       match="^family has no endpoint states$"):
        simulator.dirichlet_at_endpoints(fam40_std)


def test_initial_data_with_a_nan_rejected():
    u = np.full(201, 0.5)
    u[100] = math.nan
    cfg = simulator.SimConfig(params=Params(1, 1, 1, 1, 1),
                              grid=SpaceGrid(-10.0, 10.0, 201), t_end=0.01,
                              initial=(u, None, None))
    with pytest.raises(ConstraintError, match="^initial data must be finite$"):
        simulator.run(cfg)


def test_speed_of_a_standing_front_is_zero_and_reliable():
    # every snapshot holds the same front: the crossings do not move, so
    # the fit's residual and total sums of squares are both zero
    grid = SpaceGrid(-5.0, 5.0, 101)
    u = 0.5 * (1.0 - np.tanh(grid.x()))
    zero = np.zeros(grid.n)
    snaps = [calculus.FieldState(grid, t, u, zero, zero)
             for t in (0.0, 0.5, 1.0, 1.5)]
    est = simulator.measure_front_speed(snaps, component="u", level=0.5)
    assert est.speed == 0.0
    assert est.r_squared == 1.0
    assert est.reliable is True
    np.testing.assert_array_equal(est.crossing_positions, 0.0)


def _d_eff(a1, a2, d1, d2, s):
    """The diffusivity of a small disturbance of the coexistence line
    u + a1 v = 1, w = 0, written from the README kinetics: on w = 0 the
    Jacobian at (1 - a1 s, s) is -(u, a2 v)^T (1, a1), with the right null
    vector r = (-a1, 1) along the line and the left one
    l = (a2 s, -(1 - a1 s)), so D_eff = l diag(d1, d2) r / l r."""
    return ((a1 * a2 * s * d1 + (1.0 - a1 * s) * d2)
            / (a1 * a2 * s + 1.0 - a1 * s))


@pytest.mark.parametrize("a1,a2,d2,s0,amp", [
    (0.1, 0.031204, 4.379327, 0.7, 2e-3),
    # off the catalog; the residual is D_eff(s)'s nonlinearity, O(amp)
    (0.5, 2.0, 3.0, 0.6, 2e-5),
], ids=["tf63", "off-catalog"])
def test_a_bump_on_the_coexistence_line_spreads_with_d_eff(a1, a2, d2, s0,
                                                          amp):
    # zero-flux run from (1 - a1 s, s, 0), s = s0 + amp exp(-x^2 / 8): the
    # line's coordinate sigma = l (du, dv) / l r keeps its centre, its
    # variance grows as 2 D_eff t, and w stays exactly 0 (each term of
    # w's kinetics has a factor w)
    p = Params(a1=a1, a2=a2, a3=1.0, a4=1.0, a5=0.5, d1=1.0, d2=d2, d3=1.0)
    grid = SpaceGrid(-80.0, 80.0, 1601)
    x = grid.x()
    s = s0 + amp * np.exp(-x * x / 8.0)
    run = simulator.run(simulator.SimConfig(
        params=p, grid=grid, t_end=20.0, initial=(1.0 - a1 * s, s, None),
        snapshot_every=167))
    lvec, rvec = (a2 * s0, -(1.0 - a1 * s0)), (-a1, 1.0)
    lr = lvec[0] * rvec[0] + lvec[1] * rvec[1]
    ts, variances = [], []
    for snap in run.snapshots:
        assert np.all(snap.w == 0.0)
        sigma = (lvec[0] * (snap.u - (1.0 - a1 * s0))
                 + lvec[1] * (snap.v - s0)) / lr
        mass = np.sum(sigma)
        centre = np.sum(x * sigma) / mass
        assert abs(centre) <= 1e-8
        if 5.0 <= snap.t <= 20.0:
            ts.append(snap.t)
            variances.append(np.sum(x * x * sigma) / mass - centre ** 2)
    assert len(ts) >= 40
    got = 0.5 * np.polyfit(ts, variances, 1)[0]
    want = _d_eff(a1, a2, 1.0, d2, s0)
    assert abs(got - want) <= 1e-5 * want, (got, want)
