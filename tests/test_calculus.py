import math
import threading
import tracemalloc

import numpy as np
import pytest

from hgf import calculus, model, reduction, solutions, symmetry
from hgf.calculus import SpaceGrid
from hgf.errors import ConstraintError, NumericalError
from hgf.model import Params, Solution
from conftest import same_bits
from test_acceptance import _criterion1_instances, _criterion6_cases


def _const_sampler(u, v, w):
    def evaluate(t, x):
        z = np.zeros(np.broadcast(np.asarray(t), np.asarray(x)).shape)
        return (u + z, v + z, w + z)
    return Solution(evaluate=evaluate, params=Params(1, 1, 1, 1, 1))


def test_spacegrid_validation():
    with pytest.raises(ConstraintError):
        SpaceGrid(0.0, 1.0, 4)
    with pytest.raises(ConstraintError):
        SpaceGrid(1.0, 0.0, 11)
    g = SpaceGrid(0.0, 1.0, 11)
    assert g.h == pytest.approx(0.1)


@pytest.mark.parametrize("x_min,x_max", [(0.0, math.inf), (-math.inf, 0.0),
                                         (-math.inf, math.inf),
                                         (math.nan, 1.0), (-1e308, 1e308)])
def test_spacegrid_rejects_non_finite_bounds(x_min, x_max):
    with pytest.raises(ConstraintError, match="finite"):
        SpaceGrid(x_min, x_max, 5)


def test_spacegrid_node_budget(monkeypatch):
    monkeypatch.setattr(calculus, "MAX_NODES", 1000)
    assert SpaceGrid(0.0, 1.0, 1000).n == 1000
    with pytest.raises(ConstraintError, match=r"n = 1,001 .*1,000"):
        SpaceGrid(0.0, 1.0, 1001)


@pytest.mark.parametrize("h", [5e-324, 1e-4])
def test_from_spacing_counts_nodes_before_building(monkeypatch, h):
    # 5e-324 gives an infinite count, which int() used to refuse with an
    # OverflowError; 1e-4 gives 20,001 nodes, above the patched budget
    monkeypatch.setattr(calculus, "MAX_NODES", 1000)
    assert SpaceGrid.from_spacing(-1.0, 1.0, 4e-3).n == 501
    with pytest.raises(ConstraintError) as err:
        SpaceGrid.from_spacing(-1.0, 1.0, h)
    msg = str(err.value)
    assert "(-1.0, 1.0)" in msg and f"spacing {h}" in msg
    assert "limit of 1,000" in msg


def test_sample_constant():
    s = calculus.sample(_const_sampler(0, 0, 1), SpaceGrid(-1, 1, 5), 0.3)
    np.testing.assert_array_equal(s.u, 0.0)
    np.testing.assert_array_equal(s.w, 1.0)


def test_sample_nonfinite_names_grid_point():
    def evaluate(t, x):
        u = np.where(np.asarray(x) == 0.5, np.nan, 1.0)
        return (u, u, u)

    with pytest.raises(NumericalError, match="x = 0.5"):
        calculus.sample(Solution(evaluate=evaluate), SpaceGrid(0, 1, 5), 0.0)


def test_sample_tf63_center_values(tf63_std):
    s = calculus.sample(tf63_std, SpaceGrid(-2, 2, 5), 0.0)
    assert s.u[2] == pytest.approx(0.2325, abs=1e-15)
    assert s.v[2] == pytest.approx(0.35, abs=1e-15)
    assert s.w[2] == pytest.approx(0.5, abs=1e-15)


def test_sample_fisher_center():
    s = calculus.sample(solutions.fisher_tf(), SpaceGrid(-2, 2, 5), 0.0)
    assert s.u[2] == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_array_equal(s.v, 0.0)  # undefined -> zeros


def test_residual_exact_steady_zero():
    p = Params(1, 1, 1, 1, 1)
    rep = calculus.pde_residual(p, _const_sampler(0, 0, 0),
                                SpaceGrid(-1, 1, 21), 0.0, 1e-3)
    assert max(rep.linf) == 0.0


def test_residual_tf63_small(tf63_std):
    n = int(round(10 / 1e-3)) + 1
    rep = calculus.pde_residual(tf63_std.params, tf63_std,
                                SpaceGrid(-5, 5, n), 0.0, 1e-3)
    assert max(rep.linf) <= 1e-4


def test_residual_detects_perturbation(tf63_std):
    def perturbed(t, x):
        u, v, w = tf63_std.evaluate(t, x)
        return (u, v, w + 0.01)

    grid = SpaceGrid(-5, 5, 2001)
    base = calculus.pde_residual(tf63_std.params, tf63_std, grid, 0.0, 5e-3)
    bad = calculus.pde_residual(tf63_std.params,
                                Solution(evaluate=perturbed), grid, 0.0, 5e-3)
    assert base.linf[2] < 1e-5
    assert bad.linf[2] > 1e-3  # ~ |dC3/dw| * 0.01 scale
    assert bad.linf[0] == pytest.approx(base.linf[0], abs=1e-12)


def test_refinement_orders_fisher():
    fisher = solutions.fisher_tf()
    rep = calculus.refinement_study(fisher.params, fisher, (0.0, -10, 10),
                                    [8e-3, 4e-3, 2e-3])
    assert 1.8 <= rep.order_estimate[0] <= 2.2
    assert rep.order_estimate[1] is None
    assert len(rep.history) == 3


def test_refinement_zero_sentinel():
    p = Params(1, 1, 1, 1, 1)
    rep = calculus.refinement_study(p, _const_sampler(0, 0, 1),
                                    (0.0, -1, 1), [4e-2, 2e-2, 1e-2])
    assert all(o == math.inf for o in rep.order_estimate)


def test_refinement_non_solution_flat_order():
    p = Params(1, 1, 1, 1, 1)

    def evaluate(t, x):
        x = np.asarray(x, dtype=float)
        f = np.sin(x + t) + 1.2
        return (f, 0.5 * f, 0.3 * f)

    rep = calculus.refinement_study(p, Solution(evaluate=evaluate),
                                    (0.0, -3, 3), [8e-3, 4e-3, 2e-3])
    assert all(abs(o) < 0.5 for o in rep.order_estimate)


def test_refinement_h_sequence_validation(tf63_std):
    with pytest.raises(ConstraintError):
        calculus.refinement_study(tf63_std.params, tf63_std, (0, -1, 1),
                                  [1e-3, 2e-3])


def test_residual_linear_in_heat_part():
    # adding eps*P to v of a case-2 solution changes r2 exactly by the
    # discrete heat residual of P (the kinetics there do not involve v)
    p = Params(0.0, 0.0, 1.0, 1.0, 0.0, d2=2.0)
    base = solutions.embed_fisher(p)
    prof = symmetry.heat_exponential(0.5, 0.3)
    eps = 0.25

    def shifted(t, x):
        u, v, w = base.evaluate(t, x)
        return (u, v + eps * prof(t, x, p.d2), w)

    grid = SpaceGrid(-3, 3, 301)
    t, dt = 0.4, 2e-2
    _, f_base = calculus.pde_residual(p, base, grid, t, dt,
                                      return_fields=True)
    _, f_shift = calculus.pde_residual(p, Solution(evaluate=shifted), grid,
                                       t, dt, return_fields=True)
    x = grid.x()
    lap = (prof(t, x[:-2], p.d2) - 2 * prof(t, x[1:-1], p.d2)
           + prof(t, x[2:], p.d2)) / grid.h**2
    ddt = (prof(t + dt, x[1:-1], p.d2) - prof(t - dt, x[1:-1], p.d2)) / (2 * dt)
    expected = eps * (p.d2 * lap - ddt)
    np.testing.assert_allclose(f_shift[1] - f_base[1], expected,
                               rtol=0, atol=1e-13)


def test_reflection_equivariance(tf63_std):
    refl = model.reflect_solution(tf63_std)
    a, b = -12.0, 4.0
    grid = SpaceGrid(a, b, 801)
    rep = calculus.pde_residual(tf63_std.params, tf63_std, grid, 0.3, 2e-2)
    mirr = calculus.pde_residual(tf63_std.params, refl,
                                 SpaceGrid(-b, -a, 801), 0.3, 2e-2)
    # mirrored grid points are not bitwise negations of the original ones;
    # that roundoff enters the stencil amplified by 1/h^2
    atol = 100 * np.finfo(float).eps / grid.h**2
    for r1, r2 in zip(rep.linf, mirr.linf):
        assert r2 == pytest.approx(r1, abs=atol)
    for r1, r2 in zip(rep.l2, mirr.l2):
        assert r2 == pytest.approx(r1, abs=atol)


def test_translation_invariance(tf63_std):
    s, alpha = 0.8, tf63_std.speed
    rep0 = calculus.pde_residual(tf63_std.params, tf63_std,
                                 SpaceGrid(-8, 8, 1601), 0.0, 1e-2)
    rep1 = calculus.pde_residual(tf63_std.params, tf63_std,
                                 SpaceGrid(-8 + alpha * s, 8 + alpha * s,
                                           1601), s, 1e-2)
    for r1, r2 in zip(rep0.linf, rep1.linf):
        assert r2 == pytest.approx(r1, rel=2e-2)


# The spacing nearest 4e-3 at which every point of every criterion-1
# window is exact: the mirrored grid is then the bitwise negation of the
# grid, and a grid shifted by whole cells the exact translate, so the
# reflected or moved family is sampled at the very points of the original
_H_EXACT = 2.0 ** -8


def _states(sol, grid, t, dt):
    return [calculus.sample(sol, grid, s) for s in (t - dt, t, t + dt)]


@pytest.mark.parametrize("name,fam,window", _criterion1_instances(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_residual_fields_reflect_with_the_family(name, fam, window):
    t, x_min, x_max = window
    grid = SpaceGrid.from_spacing(x_min, x_max, _H_EXACT)
    mirrored = SpaceGrid(-x_max, -x_min, grid.n)
    assert np.array_equal(-mirrored.x()[::-1], grid.x())  # 0.0 == -0.0
    h = dt = grid.h
    refl = model.reflect_solution(fam)
    states = _states(fam, grid, t, dt)
    for s, m in zip(states, _states(refl, mirrored, t, dt)):
        for c in "uvw":
            assert same_bits(getattr(m, c)[::-1], getattr(s, c))
    rep, fields = calculus.pde_residual(fam.params, fam, grid, t, dt,
                                        return_fields=True)
    _, mirr = calculus.pde_residual(fam.params, refl, mirrored, t, dt,
                                    return_fields=True)
    # The samples agree to the bit, and so do the kinetics and the time
    # difference, which are pointwise.  Only the stencil's sum runs the
    # other way: ((a - 2b) + c) against ((c - 2b) + a), each within
    # eps (|a| + 2|b| + |c|) of the exact sum.  With the four roundings
    # that follow (/ h^2, * d, - time term, + rate), each within eps/2 of
    # its value on either side, the fields differ by at most
    # eps (6 S d / h^2 + 2 T + R), bounded here by 8 eps (S d / h^2 + T + R).
    eps = np.finfo(float).eps
    rates = fam.params.reaction(*(getattr(states[1], c)[1:-1]
                                  for c in "uvw"))
    for k, c in enumerate("uvw"):
        if rep.linf[k] is None:
            assert np.isnan(fields[k]).all() and np.isnan(mirr[k]).all()
            continue
        f0, f1, f2 = (getattr(s, c) for s in states)
        S = np.abs(f1[:-2]) + 2.0 * np.abs(f1[1:-1]) + np.abs(f1[2:])
        T = np.abs(f2[1:-1] - f0[1:-1]) / (2.0 * dt)
        d = fam.params.diffusivities[k]
        bound = 8.0 * eps * (S * d / (h * h) + T + np.abs(rates[k]))
        assert (np.abs(mirr[k][::-1] - fields[k]) <= bound).all(), c
        assert 0.0 < rep.linf[k] < 1e-2  # a residual, not rounding


@pytest.mark.parametrize("cells", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("name,fam,window", _criterion1_instances(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_residual_norms_translate_with_the_family(name, fam, window, cells):
    t, x_min, x_max = window
    grid = SpaceGrid.from_spacing(x_min, x_max, _H_EXACT)
    shift = cells * grid.h
    moved = SpaceGrid(x_min + shift, x_max + shift, grid.n)
    assert same_bits(moved.x() - shift, grid.x())
    rep = calculus.pde_residual(fam.params, fam, grid, t, grid.h)
    got = calculus.pde_residual(
        fam.params, symmetry.flow(symmetry.px(), shift, fam), moved, t,
        grid.h)
    # The moved family is sampled at x - shift, the very points of the
    # original, so every sample, and then every operation of the stencil,
    # has the same bits: the rounding bound is zero.
    for k, norm in enumerate(rep.linf):
        if norm is None:  # the flow defines every component: zeros here
            assert got.linf[k] == got.l2[k] == 0.0
        else:
            assert (got.linf[k], got.l2[k]) == (norm, rep.l2[k])


def test_refinement_samples_on_calling_thread(tf63_std):
    threads = []

    def evaluate(t, x):
        threads.append(threading.get_ident())
        return tf63_std.evaluate(t, x)

    calculus.refinement_study(
        tf63_std.params, Solution(evaluate=evaluate, params=tf63_std.params),
        (0.0, -10, 10), [8e-3, 4e-3, 2e-3])
    assert len(threads) == 9
    assert set(threads) == {threading.get_ident()}


@pytest.mark.parametrize("h_seq", [[1e-2], [4e-3, 4e-3], [2e-3, 4e-3],
                                   [4e-3, 0.0], [4e-3, math.nan]],
                         ids=["one", "equal", "increasing", "zero", "nan"])
def test_ode_refinement_rejects_bad_h_sequences(h_seq):
    # one spacing used to give orders fitted to one point, and an
    # increasing sequence reported its coarsest level as the finest
    sys = reduction.reduced_system("R58", alpha=1.0,
                                   params=Params(1, 1, 1, 1, 1))

    def profiles(om):
        return np.stack((np.tanh(om), np.cos(om), np.sin(om)))

    with pytest.raises(ConstraintError, match="h_sequence|at least 2"):
        calculus.ode_refinement(sys, profiles, (-5, 5), h_seq)


def test_ode_residual_tf63_profiles_in_R58(tf63_std):
    sys = reduction.reduced_system("R58", alpha=tf63_std.speed,
                                   params=tf63_std.params)

    def profiles(om):
        return np.stack(tf63_std.evaluate(0.0, om))

    rep = calculus.ode_refinement(sys, profiles, (-10, 10),
                                  [8e-3, 4e-3, 2e-3])
    assert all(1.8 <= o <= 2.2 for o in rep.order_estimate)


def test_ode_residual_closed_r38_profiles():
    a1, a4, d1, d2v, beta = 0.5, 0.7, 1.3, 0.4, 0.3
    sys = reduction.reduced_system("R38", beta=beta, a1=a1, a3=1.0, a4=a4)

    def profiles(t):
        return np.stack(reduction.closed_form_R38("i", a1, d1, d2v, beta, t,
                                                  a4=a4))

    rep = calculus.ode_refinement(sys, profiles, (0.0, 3.0),
                                  [8e-3, 4e-3, 2e-3])
    assert all(1.8 <= o <= 2.2 for o in rep.order_estimate)


def test_ode_residual_zero_profiles_exact():
    p = Params(1, 1, 1, 1, 1)
    sys = reduction.reduced_system("R58", alpha=1.0, params=p)

    def profiles(om):
        om = np.asarray(om)
        return np.stack((np.zeros_like(om), np.zeros_like(om),
                         np.ones_like(om)))

    rep = calculus.ode_residual(sys, profiles, (-5, 5), 1e-2)
    assert max(rep.linf) == 0.0


@pytest.mark.parametrize("case,a3,a4", [("50", 1.0, 0.4), ("51", 0.7, 1.7)])
def test_w_profiles_satisfy_third_equation(case, a3, a4):
    # the closed w-profiles paired with the logistic front solve the third
    # equation of R47 identically (d = 1)
    sys = reduction.reduced_system("R47", alpha=solutions.FISHER_SPEED,
                                   beta=0.0, a3=a3, a4=a4, d=1.0)
    W = solutions.semi_case(case, a4=a4, a3=a3)["closed"]["W"]

    def profiles(om):
        om = np.asarray(om)
        return np.stack((solutions._fisher_u(0.0, om), np.zeros_like(om),
                         W(om)))

    rep = calculus.ode_refinement(sys, profiles, (-10, 10),
                                  [8e-3, 4e-3, 2e-3])
    assert 1.8 <= rep.order_estimate[0] <= 2.2
    assert 1.8 <= rep.order_estimate[2] <= 2.2
    # the v-equation is forced (V = 0 is not a solution there)
    assert abs(rep.order_estimate[1]) < 0.5


# ---------------------------------------------------------------------------
# the row-buffer residual operator against the stacked form it replaced
# ---------------------------------------------------------------------------

def _stacked_residual(p, before, mid, after, dt, components=None):
    """The earlier `residual_from_states`, kept as a test-only reference:
    (3, n) stacked copies, whole-block stencils and temporary norms.
    Returns (linf, l2, fields)."""
    h = mid.grid.h
    F0, F1, F2 = (s.stack() for s in (before, mid, after))
    lap = (F1[:, :-2] - 2.0 * F1[:, 1:-1] + F1[:, 2:]) / (h * h)
    ddt = (F2[:, 1:-1] - F0[:, 1:-1]) / (2.0 * dt)
    rates = p.reaction(F1[0, 1:-1], F1[1, 1:-1], F1[2, 1:-1])
    dco = p.diffusivities
    linf: list = [None, None, None]
    l2: list = [None, None, None]
    fields = np.full((3, mid.grid.n - 2), np.nan)
    for k in calculus._equations_for(components):
        r = dco[k] * lap[k] - ddt[k] + rates[k]
        fields[k] = r
        linf[k] = float(np.max(np.abs(r)))
        l2[k] = float(math.sqrt(np.add.reduce(r * r) / r.size))
    return tuple(linf), tuple(l2), fields


def _pin_cases():
    """(name, params, sampler, window, components): the criterion-1
    families, the criterion-6 flows, a semi-exact family with only some
    components checked, and seeded tf63 draws like the sweep's."""
    cases = [(name, fam.params, fam, window, None)
             for name, fam, window in _criterion1_instances()]
    cases += [(name, base.params, symmetry.flow(op, 0.3, base), window, None)
              for name, base, op, window in _criterion6_cases()]
    fam50, _ = reduction.semi_exact_family(
        "50", a4=0.5, beta=0.3, gamma=0.2, window=(-24.0, 24.0),
        anchor=-24.0)
    window = (0.5, -20.0 + fam50.speed * 0.5, 20.0 + fam50.speed * 0.5)
    cases += [("semi50 " + "".join(c), fam50.params, fam50, window, c)
              for c in (("v",), ("u", "w"))]
    rng = np.random.default_rng(9)
    while len(cases) < 20:
        a1, delta = rng.uniform(-0.5, 1.2), rng.uniform(0.05, 1.5)
        a3, d3 = rng.uniform(-0.5, 2.0), rng.uniform(0.2, 5.0)
        if a1 * delta >= 0.5:
            continue
        vals = solutions.tf63_parameter_values(a1, delta, a3, d3)
        if vals["d2"] > 0 and vals["a2"] >= 0 and vals["a5"] >= 0:
            inst = solutions.make_tf63(a1, delta, a3=a3, d3=d3)
            cases.append((f"tf63 draw {len(cases)}", inst.params, inst,
                          (0.0, -25.0, 25.0), None))
    return cases


@pytest.mark.parametrize("h", [4e-3, 1e-3])
def test_residual_matches_stacked_form_bitwise(h):
    for name, p, sol, (t, x_min, x_max), comps in _pin_cases():
        grid = SpaceGrid.from_spacing(x_min, x_max, h)
        dt = grid.h
        states = [calculus.sample(sol, grid, tt) for tt in (t - dt, t, t + dt)]
        if comps is None:
            comps = getattr(sol, "components", None)
        linf, l2, fields = _stacked_residual(p, *states, dt, comps)
        rep = calculus.residual_from_states(p, *states, dt, components=comps)
        rep_f, got = calculus.residual_from_states(
            p, *states, dt, components=comps, return_fields=True)
        for r in (rep, rep_f):
            assert r.linf == linf and r.l2 == l2, name
        assert same_bits(got, fields), name


def test_residual_leaves_states_alone_and_fields_unshared(tf63_std):
    grid = SpaceGrid(-5.0, 5.0, 1001)
    dt = grid.h
    states = [calculus.sample(tf63_std, grid, t) for t in (-dt, 0.0, dt)]
    kept = [s.stack() for s in states]
    _, f1 = calculus.residual_from_states(tf63_std.params, *states, dt,
                                          return_fields=True)
    _, f2 = calculus.residual_from_states(tf63_std.params, *states, dt,
                                          return_fields=True)
    for s, k in zip(states, kept):
        assert np.array_equal(s.stack(), k)
    assert np.array_equal(f1, f2)
    assert not np.shares_memory(f1, f2)
    for s in states:
        for row in (s.u, s.v, s.w):
            assert not np.shares_memory(f1, row)


def test_residual_peak_allocation_is_a_few_rows(tf63_std):
    # the stacked form peaked at 24 rows of n; each fresh row page-faults
    grid = SpaceGrid(-25.0, 25.0, 25001)
    dt = grid.h
    states = [calculus.sample(tf63_std, grid, t) for t in (-dt, 0.0, dt)]
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        calculus.residual_from_states(tf63_std.params, *states, dt)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 8 * grid.n * 8


def test_field_state_checks_each_length():
    grid = SpaceGrid(0.0, 1.0, 11)
    full, short = np.zeros(11), np.zeros(10)
    with pytest.raises(ConstraintError,
                       match="^FieldState.v must have length n = 11$"):
        calculus.FieldState(grid, 0.0, full, short, full)


def test_ode_residual_rejects_a_non_finite_profile():
    sys = reduction.reduced_system("R38", beta=0.3, a1=0.5, a3=1.0, a4=0.7)

    def profiles(x):
        vals = np.ones((3, x.size))
        vals[1, 3] = math.inf
        return vals

    with pytest.raises(NumericalError,
                       match="^non-finite profile sample in ode_residual$"):
        calculus.ode_residual(sys, profiles, (0.0, 1.0), 0.1)


def test_max_linf_skips_undefined_components():
    rep = calculus.ResidualReport(linf=(0.5, None, 2.0), l2=(0.1, None, 0.2),
                                  h=0.1, dt=0.01)
    assert rep.max_linf() == 2.0
    undefined = calculus.ResidualReport(linf=(None,) * 3, l2=(None,) * 3,
                                        h=0.1, dt=0.01)
    assert math.isnan(undefined.max_linf())
