import importlib
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from hgf import _kernels as K
from hgf import calculus, model, reduction, simulator, solutions, symmetry
from hgf.errors import NumericalError
from hgf.model import Params, Solution

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _mol_inputs(n=81):
    # tf63 on [-4, 4]: the front sits inside the window, so its boundary
    # values move with time
    tf63 = solutions.make_tf63(0.1, 0.35)
    grid = calculus.SpaceGrid(-4.0, 4.0, n)
    F0 = np.stack(tf63.evaluate(0.0, grid.x()))
    dco = np.asarray(tf63.params.diffusivities)
    aco = np.asarray(tf63.params.a_coefficients)
    bc = np.zeros((1, 3, 3, 2))
    for c in range(3):
        bc[0, :, c, 0] = F0[c, 0]
        bc[0, :, c, 1] = F0[c, -1]
    return F0, dco, aco, grid.h, bc


def test_mol_blowup_status():
    F0, dco, aco, h, bc = _mol_inputs(51)
    F0[:] = -1e6
    snap_steps = np.arange(1, 51, dtype=np.int64)
    out = np.empty((51, 3, 51))
    out[0] = F0
    status = K.mol_run(F0.copy(), dco, aco, h, 1e-2, 50, 1, bc, snap_steps,
                       out)
    assert status >= 1


@pytest.mark.parametrize("routine,message", [
    ("dpttrf", "implicit diffusion matrix not factored (dpttrf info 2)"),
    ("dpttrs", "implicit diffusion solve failed (dpttrs info -3)"),
])
def test_lapack_info_raises_numerical_error(monkeypatch, routine, message):
    # the kernel imports both routines at call time, so patching the
    # lapack module reaches it
    from scipy.linalg import lapack
    real = getattr(lapack, routine)
    info = {"dpttrf": 2, "dpttrs": -3}[routine]

    def failing(*args, **kw):
        *out, _ = real(*args, **kw)
        return (*out, info)

    monkeypatch.setattr(lapack, routine, failing)
    with pytest.raises(NumericalError, match=f"^{re.escape(message)}$"):
        _kernel_snaps(K.mol_run, 1e-3, 1, "dirichlet", (1.0,), [1])


def test_dpttrs_solving_into_a_copy_changes_nothing(monkeypatch):
    from scipy.linalg import lapack
    want = _kernel_snaps(K.mol_run, 1e-3, 70, "dirichlet", (1.0,), [35, 70])
    real, copies = lapack.dpttrs, []

    def into_a_copy(d, e, b, overwrite_b=0):
        x, info = real(d, e, b.copy(), overwrite_b=1)
        copies.append(x is not b)
        return x, info

    monkeypatch.setattr(lapack, "dpttrs", into_a_copy)
    got = _kernel_snaps(K.mol_run, 1e-3, 70, "dirichlet", (1.0,), [35, 70])
    assert len(copies) == 71 and all(copies)  # two solves at the first step
    assert got.tobytes() == want.tobytes()


def _kinetics_expr(a, u, v, w, lead):
    # the kinetics in plain expression form, each sum left to right
    a1, a2, a3, a4, a5 = a
    l1, l2, l3 = lead
    g = 1.0 - u - a1 * v
    return (l1 + u * g,
            l2 + a2 * v * g + u * w + a1 * v * w,
            l3 + a3 * w * (1.0 - w) - a4 * u * w - a5 * v * w)


def _reference_mol_run(F, dco, aco, h, dt, nsteps, bc_mode, bc_table,
                       snap_steps, snaps):
    """A plain, allocating classic RK4 loop with the kernel's contract,
    Dirichlet values pinned at every stage time (bc_table[step, stage]).
    Test-only: the reference the IMEX kernel is checked against."""
    d = np.asarray(dco, dtype=float)[:, None]
    inv_h2 = 1.0 / (h * h)

    def rhs(F):
        lap = np.zeros_like(F)
        lap[:, 1:-1] = (F[:, :-2] - 2.0 * F[:, 1:-1] + F[:, 2:]) * inv_h2
        if bc_mode == 1:
            lap[:, 0] = 2.0 * (F[:, 1] - F[:, 0]) * inv_h2
            lap[:, -1] = 2.0 * (F[:, -2] - F[:, -1]) * inv_h2
        k = np.stack(_kinetics_expr(aco, F[0], F[1], F[2], d * lap))
        if bc_mode == 0:
            k[:, 0] = k[:, -1] = 0.0
        return k

    def pinned(Y, tb, s):
        if bc_mode == 0:
            Y[:, 0] = tb[s, :, 0]
            Y[:, -1] = tb[s, :, 1]
        return Y

    j = 0
    for step in range(1, nsteps + 1):
        tb = bc_table[step - 1] if bc_table.shape[0] > 1 else bc_table[0]
        k1 = rhs(F)
        k2 = rhs(pinned(F + 0.5 * dt * k1, tb, 1))
        k3 = rhs(pinned(F + 0.5 * dt * k2, tb, 1))
        k4 = rhs(pinned(F + dt * k3, tb, 2))
        F = pinned(F + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), tb, 2)
        if j < len(snap_steps) and snap_steps[j] == step:
            if not np.isfinite(F).all():
                return step
            snaps[j + 1] = F
            j += 1
    return -1


def _kernel_snaps(kernel, dt, nsteps, bc, stages, snap_steps):
    """Snapshots of one kernel run from the `_mol_inputs` state; a
    "dirichlet-tabbed" table holds the exact boundary values at the given
    stage times (in units of dt) of every step."""
    F0, dco, aco, h, table = _mol_inputs()
    if bc == "dirichlet-tabbed":
        tf63 = solutions.make_tf63(0.1, 0.35)
        t = (np.arange(nsteps)[:, None] + np.asarray(stages)) * dt
        table = np.empty((nsteps, len(stages), 3, 2))
        for side, xb in enumerate((-4.0, 4.0)):
            table[..., side] = np.stack(tf63.evaluate(t, xb), axis=-1)
    snap_steps = np.asarray(snap_steps, dtype=np.int64)
    snaps = np.empty((snap_steps.size + 1, 3, F0.shape[1]))
    snaps[0] = F0
    status = kernel(F0.copy(), dco, aco, h, dt, nsteps,
                    1 if bc == "zero-flux" else 0, table, snap_steps, snaps)
    assert status == -1
    return snaps


_RK4_STAGES = (0.0, 0.5, 1.0)


@pytest.mark.parametrize("bc", ["dirichlet", "dirichlet-tabbed", "zero-flux"])
def test_mol_kernel_is_second_order_against_reference_rk4(bc):
    # Both kernels step the same semi-discrete system.  The RK4 reference
    # runs at a 16th of the coarse step, inside its diffusive stability
    # limit, so its time error is negligible and the gap is the IMEX
    # error: O(dt^2), a 4x fall when dt halves.  The snapshots at t = 0.1
    # and 0.2 are compared, past a finite check at step 64.
    F0, dco, aco, h, _ = _mol_inputs()
    dt = 0.005
    assert dt / 16 <= 0.4 * h * h / (2.0 * dco.max())
    ref = _kernel_snaps(_reference_mol_run, dt / 16, 640, bc, _RK4_STAGES,
                        [320, 640])
    assert np.abs(ref[-1] - ref[0]).max() > 1e-2  # the fields moved
    gaps = [np.abs(_kernel_snaps(K.mol_run, dt / k, 40 * k, bc, (1.0,),
                                 [20 * k, 40 * k]) - ref).max()
            for k in (1, 2)]
    assert gaps[1] < 1e-6
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)


def test_mol_first_step_is_second_order():
    # one step against the reference over the same interval: the local
    # error of a second-order start is O(dt^3) and falls 8x when dt
    # halves; an Euler first step would be O(dt^2), a 4x fall
    gaps = []
    for dt in (0.016, 0.008):
        ref = _kernel_snaps(_reference_mol_run, dt / 64, 64,
                            "dirichlet-tabbed", _RK4_STAGES, [64])
        one = _kernel_snaps(K.mol_run, dt, 1, "dirichlet-tabbed", (1.0,),
                            [1])
        gaps.append(np.abs(one - ref).max())
    assert gaps[0] / gaps[1] == pytest.approx(8.0, rel=0.15)


def test_kinetics_adds_onto_array_lead_in_place(rng):
    a = rng.uniform(-2, 2, 5)
    u, v, w = rng.uniform(-1, 1, (3, 64))
    u[:8], v[4:12], w[::5] = 0.0, -0.0, -0.0
    fields = [f.copy() for f in (u, v, w)]
    lead = rng.uniform(-1, 1, (3, 64))
    lead[:, :6] = -0.0
    expect = _kinetics_expr(a, u, v, w, lead.copy())
    got = model.kinetics(a, u, v, w, lead)
    for g, e in zip(got, expect):
        assert g.base is lead  # the rows of lead themselves
        assert g.tobytes() == e.tobytes()  # bitwise, signed zeros included
    for f, f0 in zip((u, v, w), fields):
        assert f.tobytes() == f0.tobytes()


def test_params_reaction_keeps_signed_zero(rng):
    for _ in range(20):
        p = Params(*rng.uniform(-2, 2, 5))
        for uvw in itertools.product([0.0, -0.0], repeat=3):
            got = p.reaction(*uvw)
            expect = _kinetics_expr(p.a_coefficients, *uvw,
                                    (-0.0, -0.0, -0.0))
            assert [math.copysign(1.0, g) for g in got] == \
                [math.copysign(1.0, e) for e in expect]
            assert list(got) == list(expect)
        uvw = rng.uniform(-1, 1, (3, 16))
        uvw[:, :4] = -0.0
        for g, e in zip(p.reaction(*uvw), _kinetics_expr(
                p.a_coefficients, *uvw, (-0.0, -0.0, -0.0))):
            assert g.tobytes() == e.tobytes()
    # the u-rate of the all -0.0 state is -0.0 * 1.0, not +0.0
    assert math.copysign(1.0, Params(0.0, 1.0, 1.0, 1.0, 1.0)
                         .reaction(-0.0, -0.0, -0.0)[0]) == -1.0


def _zero_flux_run(params, initial, grid):
    cfg = simulator.SimConfig(
        params=params, grid=grid, t_end=1.0, initial=initial,
        bc=simulator.BoundaryCondition(kind="neumann-zero"),
        snapshot_every=10**6)
    return simulator.run(cfg).snapshots[-1].stack()


def _fields(u, v, w, params):
    # an x-only sampler; the simulator reads it at t0 only
    return Solution(evaluate=lambda t, x: (u(x), v(x), w(x)), params=params)


def _flow_gap(p, case, kind, n, eps=0.4):
    # (max |sim(flow(F0)) - flow(sim(F0))|, max |sim(flow(F0)) - sim(F0)|)
    # at t = 1 on n nodes of [-10, 10] with zero-flux ends
    op, = [op for c, ops in symmetry.admissible_ops(p) if c.case == case
           for op in ops if op.kind == kind]
    grid = calculus.SpaceGrid(-10.0, 10.0, n)
    x = grid.x()
    F0 = _fields(lambda x: 0.5 + 0.3 * np.tanh(x),
                 lambda x: 0.2 * np.exp(-x * x),
                 lambda x: 0.6 + 0.2 * np.cos(x), p)
    lhs = _zero_flux_run(p, symmetry.flow(op, eps, F0), grid)
    end = _zero_flux_run(p, F0, grid)
    rhs = np.stack(symmetry.flow(op, eps, _fields(
        lambda x: end[0], lambda x: end[1], lambda x: end[2], p)
    ).evaluate(1.0, x))
    return np.abs(lhs - rhs).max(), np.abs(lhs - end).max()


def _assert_flow_commutes(p, case, kind):
    # a flow that is affine in the fields and independent of t is carried
    # exactly by the semi-discrete system in its admissible case: simulating
    # the flowed data must give the flowed simulation up to roundoff.  The
    # zero-flux ghost rows are part of that system.
    gap, moved = _flow_gap(p, case, kind, 201)
    assert moved > 1e-2  # the flow moved the fields
    assert gap <= 1e-12


def test_q1_flow_commutes_with_simulation():
    _assert_flow_commutes(Params(0.5, 1.0, 2.0, 3.0, 1.5, 1.0, 1.0, 4.0),
                          4, "Q1")


_AFFINE_FLOWS = [
    (1, "I", Params(0.0, 1.5, 0.0, 2.0, 0.0, 1.0, 2.0, 3.0)),
    (5, "UdV", Params(0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 1.0, 4.0)),
    (8, "WdV_minus_a4WdW", Params(0.0, 0.0, 0.0, 3.0, 0.0, 1.0, 2.0, 2.0)),
    (10, "Case10Op", Params(0.0, 2.0, 0.0, 1.0, 0.0, 1.5, 1.5, 1.5)),
    (12, "Case12_WdV_minus_WdW", Params(0.0, 0.0, 0.0, 1.0, 0.0, 1.5, 1.5,
                                        1.5)),
    (12, "Case12_UdV_plus_1mUdW", Params(0.0, 0.0, 0.0, 1.0, 0.0, 1.5, 1.5,
                                         1.5)),
]


@pytest.mark.parametrize("case,kind,params", _AFFINE_FLOWS,
                         ids=[kind for _, kind, _ in _AFFINE_FLOWS])
def test_affine_flow_commutes_with_simulation(case, kind, params):
    _assert_flow_commutes(params, case, kind)


# flows that read t: the semi-discrete system carries them, the time step
# does not, so the gap is the step's error, O(dt^2) = O(h^2) at dt = 0.02 h
# (d_max = 1.5 keeps h^2 / d_max from binding at both levels)
_TIME_DEPENDENT_FLOWS = [
    (5, "Q2", Params(0.0, 1.0, 2.0, 3.0, 0.0, 1.0, 1.0, 1.5)),
    (7, "ExpA4WdV", Params(0.0, 0.7, 0.0, 0.7, 0.0, 1.0, 1.5, 1.5)),
    (9, "Case9Op", Params(0.5, 1.0, 0.0, 0.8, 0.4, 1.5, 1.5, 1.5)),
    (12, "Case12_ExpMinusT", Params(0.0, 0.0, 0.0, 1.0, 0.0, 1.5, 1.5,
                                    1.5)),
]


@pytest.mark.parametrize("case,kind,params", _TIME_DEPENDENT_FLOWS,
                         ids=[kind for _, kind, _ in _TIME_DEPENDENT_FLOWS])
def test_time_dependent_flow_commutes_at_second_order(case, kind, params):
    (coarse, moved_c), (fine, moved_f) = (
        _flow_gap(params, case, kind, n) for n in (201, 401))
    assert min(moved_c, moved_f) >= 0.1
    assert 4.0 * 0.85 <= coarse / fine <= 4.0 * 1.15, (coarse, fine)


def test_space_reflection_commutes_with_simulation():
    # on a grid symmetric about 0 the reflected data must evolve into the
    # reflected run; zero-flux rows at both ends swap roles
    tf63 = solutions.make_tf63(0.1, 0.35)
    grid = calculus.SpaceGrid(-10.0, 10.0, 201)
    lhs = _zero_flux_run(tf63.params, model.reflect_solution(tf63), grid)
    rhs = _zero_flux_run(tf63.params, tf63, grid)[:, ::-1]
    assert np.abs(lhs - lhs[:, ::-1]).max() > 1e-1  # not symmetric itself
    np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-12)


def test_zero_flux_conserves_mass():
    # u = 0, a1 = a2 = a3 = a5 = 0 leaves pure diffusion of v and w; the
    # mirror-ghost rows give the Laplacian of any state zero trapezoid
    # mass, so both sides of every Crank-Nicolson step keep it to roundoff
    p = Params(0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 2.0, 3.0)
    grid = calculus.SpaceGrid(-10.0, 10.0, 201)
    F0 = _fields(lambda x: np.zeros_like(x),
                 lambda x: np.exp(-(x - 9.0) ** 2),
                 lambda x: 0.5 + 0.4 * np.sin(x), p)
    end = _zero_flux_run(p, F0, grid)
    start = np.stack(F0.evaluate(0.0, grid.x()))

    def mass(F):
        return grid.h * (F.sum(axis=1) - 0.5 * (F[:, 0] + F[:, -1]))

    assert np.abs(end - start).max() > 1e-1
    np.testing.assert_allclose(mass(end), mass(start), rtol=1e-13, atol=0)


def test_ode_rhs_paths_agree(rng):
    # each system's first-order right-hand side: single nodes (as an
    # ndarray or as the stepping loops' list of floats) and a whole (dim, n)
    # grid agree bit for bit, and a second-order system's even rows are the
    # state's odd ones.  Each call owns what it returns: the equations hand
    # back rows of the state itself, which must not alias it
    for spec in reduction.SYSTEMS.values():
        c = tuple(rng.uniform(0.5, 2.0, len(spec.coeffs)))
        ys = rng.uniform(-1, 1, (spec.dim, 7))
        xs = rng.uniform(-2, 2, 7)
        grid = spec.first_order(xs, ys, *c)
        assert np.isfinite(grid).all()
        if spec.order == 2:
            np.testing.assert_array_equal(grid[0::2], ys[1::2])
        for i in range(xs.size):
            node = spec.first_order(xs[i], ys[:, i].copy(), *c)
            np.testing.assert_array_equal(node, grid[:, i])
            state = ys[:, i].tolist()
            listed = spec.first_order(float(xs[i]), state, *c)
            assert type(listed) is list
            assert np.array(listed).tobytes() == node.tobytes()
            again = spec.first_order(float(xs[i]), state, *c)
            assert again == listed and again is not listed
            listed[:] = [np.nan] * spec.dim
            assert state == ys[:, i].tolist()
        kept = ys.copy()
        grid[...] = np.nan
        assert ys.tobytes() == kept.tobytes(), spec.sid


def test_benchmark_harness_finds_what_it_wraps(monkeypatch):
    # perfbench wraps module attributes and reads kernel names; a refactor
    # that moves one of them would break the benchmark without failing here
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    for owner, attr, _ in spans._patches(spans.Tracer()):
        assert attr in vars(owner), (owner, attr)
    assert K.USING_NUMBA is False
    assert isinstance(K.NUMBA_DISABLED_REASON, str)
    assert K.mol_run is K.mol_run_numpy
    assert simulator.mol_run is K.mol_run
    assert reduction.ode_rk4_table is K.ode_rk4_table
    assert callable(calculus.thread_cap)
    assert workloads.kernel_parity(K.mol_run_numpy, K.mol_run_numpy,
                                   K.ode_rk4_table, K.ode_rk4_table) is None
