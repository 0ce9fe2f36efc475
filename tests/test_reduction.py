import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hgf import calculus, reduction, solutions
from conftest import order_ok
from hgf.errors import ConstraintError, DomainError, NumericalError
from hgf.model import Params


def _r38(a1=0.5, a4=0.7, a3=1.0, beta=0.3):
    return reduction.reduced_system("R38", beta=beta, a1=a1, a3=a3, a4=a4)


def test_rhs_r38_decoupled_growth():
    sys = _r38(a1=0.5, beta=0.3)
    out = sys.rhs(0.0, (2.0, 0.0, 0.0))
    growth = 1 + 0.3**2 * 0.5**2
    assert out[0] == pytest.approx(2.0 * growth, rel=1e-15)
    assert out[1] == out[2] == 0.0


def test_rhs_r58_steady_point():
    p = Params(1, 1, 1, 1, 1)
    sys = reduction.reduced_system("R58", alpha=1.3, params=p)
    out = sys.rhs(0.0, (0, 0, 0, 0, 1, 0))
    np.testing.assert_array_equal(out, 0.0)


def test_rhs_l36_homogeneous_zero():
    sys = reduction.reduced_system("L36", alpha=1.0, a1=0.5, beta=0.2,
                                   kappa1=0.25, kappa2=1.0)
    np.testing.assert_array_equal(sys.rhs(0.7, (0.0, 0.0)), 0.0)


def test_rhs_dimension_mismatch():
    with pytest.raises(ConstraintError, match="dimension"):
        _r38().rhs(0.0, (1.0, 2.0))


def test_reduced_system_coefficient_checking():
    with pytest.raises(ConstraintError, match="missing"):
        reduction.reduced_system("R38", beta=0.1, a1=0.5, a3=1.0)
    with pytest.raises(ConstraintError, match="unexpected"):
        reduction.reduced_system("T2d", a1=0.5, a4=1.0, alpha=2.0)
    with pytest.raises(ConstraintError, match="d1-normalized"):
        reduction.reduced_system(
            "R58", alpha=1.0, params=Params(1, 1, 1, 1, 1, d1=2.0))


@pytest.mark.parametrize("sid,name", [("R35", "d"), ("R47", "d"),
                                      ("T2b", "a1")])
def test_zero_divisor_rejected_by_name(sid, name):
    # a zero divisor used to reach the integrator: R35 and R47 ended in a
    # step-size underflow, T2b in an uncaught ZeroDivisionError
    kw = {k: _SAMPLE_COEFFS[k] for k in reduction.SYSTEMS[sid].arguments}
    kw[name] = 0.0
    with pytest.raises(ConstraintError, match=f"divides by {name}"):
        reduction.reduced_system(sid, **kw)


def test_integrate_r38_matches_closed_form():
    a1, a4, beta = 0.5, 0.7, 0.3
    d1, d2v = 1.3, 0.4
    sys = _r38(a1=a1, a4=a4, beta=beta)
    y0 = np.asarray(reduction.closed_form_R38("i", a1, d1, d2v, beta, 0.0,
                                              a4=a4))
    traj = reduction.integrate(sys, y0, (0.0, 3.0), max_step=0.05)
    ts = np.linspace(0, 3, 121)
    exact = np.stack(reduction.closed_form_R38("i", a1, d1, d2v, beta, ts,
                                               a4=a4), axis=1)
    assert np.max(np.abs(traj.evaluate(ts) - exact)) < 1e-7


@pytest.mark.parametrize("case", ["i", "ii", "iii"])
def test_r38_oracle_equivalence_all_cases(case, rng):
    # node values from the adaptive integrator stay within a small multiple
    # of the integrator tolerance of the closed forms, 20 draws per case
    rel_tol = 1e-9
    for _ in range(20):
        a1 = rng.uniform(0.1, 1.0)
        beta = rng.uniform(-0.5, 0.5)
        d1 = rng.uniform(0.2, 3.0)
        d2v = rng.uniform(0.1, 2.0)
        if case == "i":
            kw, a3v = {"a4": rng.uniform(0.05, 0.95)}, 1.0
            a4v = kw["a4"]
        elif case == "ii":
            kw, a3v = {"a4": rng.uniform(0.05, 0.95)}, 0.0
            a4v = kw["a4"]
        else:
            kw, a3v = {"a3": rng.uniform(0.1, 1.5)}, None
            a3v = kw["a3"]
            a4v = 1.0 + a1 + kw["a3"]
        sys = reduction.reduced_system("R38", beta=beta, a1=a1, a3=a3v,
                                       a4=a4v)
        y0 = np.asarray(reduction.closed_form_R38(case, a1, d1, d2v, beta,
                                                  0.0, **kw))
        traj = reduction.integrate(sys, y0, (0.0, 3.0), rel_tol=rel_tol)
        exact = np.stack(reduction.closed_form_R38(case, a1, d1, d2v, beta,
                                                   traj.xs, **kw), axis=1)
        scale = np.max(np.abs(exact))
        dev = float(np.max(np.abs(traj.ys - exact)))
        assert dev <= 10 * (rel_tol * scale * 50 + 1e-12), (case, dev, scale)


def test_integrate_steady_state_constant():
    p = Params(1, 1, 1, 1, 1)
    sys = reduction.reduced_system("R58", alpha=1.0, params=p)
    traj = reduction.integrate(sys, np.array([0, 0, 0, 0, 1, 0.0]),
                               (0.0, 5.0))
    assert np.max(np.abs(traj.ys - traj.ys[0])) == 0.0


def test_integrate_l36_bounded_both_directions():
    sys = reduction.reduced_system("L36", alpha=5 / math.sqrt(6), a1=0.5,
                                   beta=3.0, kappa1=0.25, kappa2=1.0)
    right = reduction.integrate(sys, (1.0, 0.0), (0.0, 20.0))
    left = reduction.integrate(sys, (1.0, 0.0), (0.0, -20.0))
    assert np.isfinite(right.ys).all() and np.isfinite(left.ys).all()
    assert left.xs[0] == pytest.approx(-20.0)
    assert np.all(np.diff(left.xs) > 0)  # stored ascending


@pytest.mark.parametrize("system,y0,span,max_step", [
    (_r38(), (0.4, 0.3, 0.2), (0.0, 3.0), 0.002),
    (_r38(), (0.4, 0.3, 0.2), (0.0, 3.0), 0.0025),
    (reduction.reduced_system("L36", alpha=5 / math.sqrt(6), a1=0.5,
                              beta=3.0, kappa1=0.25, kappa2=1.0),
     (1.0, 0.0), (0.0, -7.0), 0.01),
], ids=["R38-0.002", "R38-0.0025", "L36-backward"])
def test_integrate_lands_on_span_end(system, y0, span, max_step):
    # equal steps summing to the span leave a rounding remainder of about
    # 1e-13, which used to be refused as a step-size underflow
    traj = reduction.integrate(system, y0, span, max_step=max_step)
    assert span[1] in (traj.xs[0], traj.xs[-1])


def test_integrate_tolerance_validation():
    with pytest.raises(ConstraintError, match="tolerances"):
        reduction.integrate(_r38(), (1.0, 1.0, 1.0), (0, 1), rel_tol=0.5)


@pytest.mark.parametrize("span,max_step,named", [
    ((0.0, math.nan), None, "span"),
    ((0.0, math.inf), None, "span"),
    ((-math.inf, 1.0), None, "span"),
    ((0.0, 1.0), -0.5, "max_step"),
    ((0.0, 1.0), 0.0, "max_step"),
    ((0.0, 1.0), math.inf, "max_step"),
    ((1.0, 1.0), None, "^integration span is empty$"),
], ids=["nan-end", "inf-end", "inf-start", "negative-step", "zero-step",
        "inf-step", "empty-span"])
def test_integrate_rejects_non_finite_span_and_bad_max_step(span, max_step,
                                                             named):
    # a NaN end returned a one-node trajectory and a negative max_step
    # was read as its absolute value
    with pytest.raises(ConstraintError, match=named):
        reduction.integrate(_r38(), (0.4, 0.3, 0.2), span, max_step=max_step)


def test_integrate_nan_max_step_is_rejected_not_hung():
    # a NaN step times 0.25 stays NaN, so the failed-stage branch looped
    # forever; run it where a hang is a timeout
    code = ("import math\n"
            "from hgf import reduction\n"
            "from hgf.errors import ConstraintError\n"
            "s = reduction.reduced_system('R38', beta=0.3, a1=0.5, a3=1.0, "
            "a4=0.7)\n"
            "try:\n"
            "    reduction.integrate(s, (0.4, 0.3, 0.2), (0.0, 1.0), "
            "max_step=math.nan)\n"
            "except ConstraintError as e:\n"
            "    print(e)\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(reduction.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "max_step" in proc.stdout


@pytest.mark.parametrize("step", [math.nan, math.inf])
def test_dense_profile_rejects_non_finite_step(step):
    # a NaN step passed the `step <= 0` check and reached int(ceil(nan))
    sys_ = reduction.reduced_system("L36", alpha=5 / math.sqrt(6), a1=0.5,
                                    beta=3.0, kappa1=0.3, kappa2=1.0)
    with pytest.raises(ConstraintError, match="step must be finite"):
        reduction.dense_profile(sys_, (1.0, 0.0), 0.0, -1.0, 1.0, step=step)


def _l36():
    return reduction.reduced_system("L36", alpha=5 / math.sqrt(6), a1=0.5,
                                    beta=3.0, kappa1=0.3, kappa2=1.0)


@pytest.mark.parametrize("window", [(-1.0, math.inf), (-math.inf, 1.0),
                                    (math.nan, 1.0)])
def test_dense_profile_rejects_non_finite_window_ends(window):
    # an infinite end reached int(ceil(inf)): an OverflowError traceback
    with pytest.raises(ConstraintError, match="window ends must be finite"):
        reduction.dense_profile(_l36(), (1.0, 0.0), 0.0, *window)


@pytest.mark.parametrize("y0", [(math.nan, 0.0), (1.0, math.inf)])
def test_dense_profile_rejects_non_finite_initial_state(y0):
    # the table filled with NaN and was reported as a blow-up (exit 2)
    with pytest.raises(ConstraintError, match="initial state must be finite"):
        reduction.dense_profile(_l36(), y0, 0.0, -1.0, 1.0)


def test_dense_profile_checks_node_budget_before_allocating(monkeypatch):
    def no_table(*args, **kw):
        raise AssertionError("tabulated past the node budget")

    sys_ = _l36()
    # (-1, 1) at step 0.005 around 0 holds 401 nodes
    monkeypatch.setattr(reduction, "MAX_NODES", 401)
    assert len(reduction.dense_profile(sys_, (1.0, 0.0), 0.0, -1.0,
                                       1.0).xs) == 401
    monkeypatch.setattr(reduction, "MAX_NODES", 400)
    monkeypatch.setattr(reduction, "integrate", no_table)
    with pytest.raises(ConstraintError, match="401 nodes"):
        reduction.dense_profile(sys_, (1.0, 0.0), 0.0, -1.0, 1.0)
    # a node count that overflows to inf is over any budget
    with pytest.raises(ConstraintError, match="nodes"):
        reduction.dense_profile(sys_, (1.0, 0.0), 0.0, -1.0, 1.0,
                                step=5e-324)


def test_dense_profile_fills_its_table_from_integrate(monkeypatch):
    from hgf import _kernels
    calls = []
    integrate = reduction.integrate

    def counted(sys_, y0, span, *args, **kw):
        calls.append(span)
        return integrate(sys_, y0, span, *args, **kw)

    def no_table(*args):
        raise AssertionError("dense_profile called ode_rk4_table")

    monkeypatch.setattr(reduction, "integrate", counted)
    monkeypatch.setattr(reduction, "ode_rk4_table", no_table)
    monkeypatch.setattr(_kernels, "ode_rk4_table", no_table)
    traj = reduction.dense_profile(_l36(), (1.0, 0.0), 0.2, -1.0, 1.0)
    assert len(traj.xs) == 401
    # one run from the anchor to each table end; none where the anchor is
    # the end
    assert [tuple(map(float, c)) for c in calls] == [(0.2, -1.0), (0.2, 1.0)]
    calls.clear()
    reduction.dense_profile(_l36(), (1.0, 0.0), -1.0, -1.0, 1.0)
    assert [tuple(map(float, c)) for c in calls] == [(-1.0, 1.0)]


def test_dense_profile_blowup_names_the_window():
    # the R38 blow-up of test_integrate_blowup_reports_reach_point, as a
    # table: the message used to say only "non-finite values (blow-up)"
    sys_ = _r38(a1=1.0, a4=1.0, a3=1.0, beta=0.0)
    with pytest.raises(NumericalError,
                       match=r"^profile window \(0\.0, 10\.0\) cannot be "
                             r"tabulated: step-size underflow at t = "):
        reduction.dense_profile(sys_, (0.0, -50.0, 0.0), 0.0, 0.0, 10.0)


def test_integrate_blowup_reports_reach_point():
    # logistic-type quadratic growth from far outside the basin
    sys = _r38(a1=1.0, a4=1.0, a3=1.0, beta=0.0)
    with pytest.raises(NumericalError, match="t ="):
        reduction.integrate(sys, (0.0, -50.0, 0.0), (0.0, 10.0))


def test_closed_form_r38_values_and_limits():
    a1, a4, d1, d2v, beta = 0.5, 0.7, 1.3, 0.4, 0.3
    U, V, W = reduction.closed_form_R38("i", a1, d1, d2v, beta, 0.0, a4=a4)
    assert float(U) == pytest.approx(d2v, rel=1e-14)
    assert float(V) == pytest.approx((1 + a1) * d1 / (a1 * (1 + a1 * a4)),
                                     rel=1e-14)
    assert float(W) == pytest.approx((1 - a4) * d1 / (1 + a1 * a4), rel=1e-14)
    _, V, W = reduction.closed_form_R38("i", a1, d1, d2v, beta, 40.0, a4=a4)
    assert float(V) == pytest.approx((1 + a1) / (a1 * (1 + a1 * a4)), rel=1e-12)
    assert float(W) == pytest.approx((1 - a4) / (1 + a1 * a4), rel=1e-12)


def test_closed_form_r38_case_ii_a4_one():
    W = reduction.closed_form_R38("ii", 0.5, 1.5, 0.5, 0.2,
                                  np.linspace(0, 2, 9), a4=1.0)[2]
    np.testing.assert_array_equal(W, 0.0)


def test_closed_form_r38_denominator_error():
    with pytest.raises(DomainError, match="vanishes at t ="):
        reduction.closed_form_R38("i", 0.5, 2.0, 0.5, 0.2,
                                  np.linspace(-5, 0, 11), a4=0.7)


def test_reconstruct_a34_beta_zero_is_plane_shift():
    U = lambda om: np.sin(om)
    V = lambda om: np.cos(om)
    W = lambda om: 0.5 * om
    a = solutions.make_ansatz("A34", alpha=2.0, beta=0.0, a1=0.5)
    t, x = 0.7, np.linspace(-1, 1, 5)
    u, v, w = solutions.reconstruct(a, {"U": U, "V": V, "W": W}, t, x)
    om = x - 2.0 * t
    np.testing.assert_allclose(u, np.sin(om), rtol=1e-15)
    np.testing.assert_allclose(v, np.cos(om) - np.sin(om) / 0.5, rtol=1e-14)
    np.testing.assert_allclose(w, 0.5 * om, rtol=1e-15)


def test_reconstruct_a37_at_x_zero():
    U = lambda t: 2.0 + t
    V = lambda t: 1.0 + t
    a = solutions.make_ansatz("A37", beta=0.4, a1=0.5)
    u, v, w = solutions.reconstruct(a, {"U": U, "V": V}, 0.3, 0.0)
    assert float(u) == pytest.approx(2.3, rel=1e-15)
    assert float(v) == pytest.approx(1.3 - 2.3 / 0.5, rel=1e-14)
    assert float(w) == 0.0


def test_t2a_gamma_zero_matches_a34():
    profs = {"U": np.sin, "V": np.cos, "W": np.tanh}
    t2a = solutions.make_ansatz("T2a", alpha=1.5, beta=0.3, gamma=0.0,
                                a1=0.5, a4=0.8)
    a34 = solutions.make_ansatz("A34", alpha=1.5, beta=0.3, a1=0.5)
    t, x = 0.4, np.linspace(-2, 2, 9)
    for a, b in zip(solutions.reconstruct(t2a, profs, t, x),
                    solutions.reconstruct(a34, profs, t, x)):
        np.testing.assert_allclose(a, b, rtol=1e-14)


def test_verify_reduction_pairing_enforced():
    sys = _r38()
    a34 = solutions.make_ansatz("A34", alpha=1.0, beta=0.3, a1=0.5)
    with pytest.raises(ConstraintError, match="pairs with"):
        reduction.verify_reduction(sys, a34, Params(1, 1, 1, 1, 1), {},
                                   (0.5, -1, 1), [4e-3, 2e-3])


def test_r38_profiles_through_a37_give_fam40(fam40_std):
    # closed separable profiles fed through the t-based ansatz reproduce
    # the closed-form family pointwise and pass the residual refinement
    a1, a4, beta = 0.1, 0.5, fam40_std.meta["beta"]
    d1, d2v = 2.0, 0.5

    def U(t):
        return reduction.closed_form_R38("i", a1, d1, d2v, beta, t, a4=a4)[0]

    def V(t):
        return reduction.closed_form_R38("i", a1, d1, d2v, beta, t, a4=a4)[1]

    def W(t):
        return reduction.closed_form_R38("i", a1, d1, d2v, beta, t, a4=a4)[2]

    ansatz = solutions.make_ansatz("A37", beta=beta, a1=a1)
    profs = {"U": U, "V": V, "W": W}
    t, x = 0.5, np.linspace(0, 5, 11)
    for a, b in zip(solutions.reconstruct(ansatz, profs, t, x),
                    fam40_std.evaluate(t, x)):
        np.testing.assert_allclose(a, b, rtol=1e-12)
    rep = reduction.verify_reduction(_r38(a1=a1, a4=a4, beta=beta), ansatz,
                                     fam40_std.params, profs,
                                     (0.5, 0.0, 5.0), [8e-3, 4e-3, 2e-3])
    assert all(order_ok(o) for o in rep.order_estimate)


def test_r58_plane_ansatz_with_tf63_profiles(tf63_std):
    sys = reduction.reduced_system("R58", alpha=tf63_std.speed,
                                   params=tf63_std.params)
    profs = {
        "U": lambda om: tf63_std.evaluate(0.0, om)[0],
        "V": lambda om: tf63_std.evaluate(0.0, om)[1],
        "W": lambda om: tf63_std.evaluate(0.0, om)[2],
    }
    ansatz = solutions.make_ansatz("plane", alpha=tf63_std.speed)
    rep = reduction.verify_reduction(sys, ansatz, tf63_std.params, profs,
                                     (0.5, -8.0, 8.0), [8e-3, 4e-3, 2e-3])
    assert all(order_ok(o) for o in rep.order_estimate)


@pytest.mark.parametrize("sid", ["T2a", "T2b", "T2c", "T2d"])
def test_table2_rows_reconstruct_solutions(sid):
    a1, a4 = 0.5, 0.8
    coeffs = {
        "T2a": dict(alpha=1.2, beta=0.3, a1=a1, a4=a4),
        "T2b": dict(alpha=1.2, gamma=0.15, a1=a1, a4=a4),
        "T2c": dict(beta=0.3, a1=a1, a4=a4),
        "T2d": dict(a1=a1, a4=a4),
    }[sid]
    sys = reduction.reduced_system(sid, **coeffs)
    akw = dict(coeffs)
    if sid in ("T2a", "T2c", "T2d"):
        akw["gamma"] = 0.15  # enters the ansatz only, not the reduced system
    ansatz = solutions.make_ansatz(sid, **akw)
    p = Params(a1=a1, a2=1.0, a3=0.0, a4=a4, a5=a1 * a4)
    if sid in ("T2a", "T2b"):
        y0 = np.array([0.15, 0.0, 0.2, 0.0, 0.25, 0.0])
        traj = reduction.dense_profile(sys, y0, 0.0, -6.0, 6.0, step=2e-3)
        window = (0.5, -5.0, 5.0)
    else:
        y0 = np.array([0.15, 0.2, 0.25])
        traj = reduction.dense_profile(sys, y0, 0.0, -0.1, 1.2, step=1e-3)
        window = (0.5, 0.0, 3.0)
    profs = reduction.trajectory_profiles(sys, traj)
    rep = reduction.verify_reduction(sys, ansatz, p, profs, window,
                                     [8e-3, 4e-3, 2e-3])
    assert all(order_ok(o) for o in rep.order_estimate), rep.order_estimate


def test_r35_profiles_through_a34_solve_the_pde():
    # A34 maps R35 profiles onto the system with a2 = 1, a5 = a1 a4 and
    # d2 = 1, d3 = d: an oracle for R35 that does not read ode_rhs
    a1, a4, d = 0.5, 0.7, 2.0
    sys = reduction.reduced_system("R35", alpha=1.2, a1=a1, beta=0.3, a3=1.0,
                                   a4=a4, d=d)
    ansatz = solutions.make_ansatz("A34", alpha=1.2, beta=0.3, a1=a1)
    p = Params(a1=a1, a2=1.0, a3=1.0, a4=a4, a5=a1 * a4, d3=d)
    traj = reduction.dense_profile(sys, np.array([0.15, 0.0, 0.2, 0.0, 0.25,
                                                  0.0]), 0.0, -6.0, 6.0,
                                   step=2e-3)
    rep = reduction.verify_reduction(sys, ansatz, p,
                                     reduction.trajectory_profiles(sys, traj),
                                     (0.5, -5.0, 5.0), [8e-3, 4e-3, 2e-3])
    assert all(order_ok(o) for o in rep.order_estimate), rep.order_estimate


@pytest.mark.parametrize("gamma", [0.0, 0.15])
def test_r47_profiles_through_a44_solve_the_pde(gamma):
    # A44 maps R47 profiles onto the a1 = 0, a2 = 1, a5 = 0 system with
    # d3 = d for every gamma: an oracle for R47 (its V row included) that
    # does not read ode_rhs
    sys = reduction.reduced_system("R47", alpha=1.2, beta=0.3, a3=1.0,
                                   a4=0.7, d=2.0)
    ansatz = solutions.make_ansatz("A44", alpha=1.2, beta=0.3, gamma=gamma)
    p = Params(0.0, 1.0, 1.0, 0.7, 0.0, d3=2.0)
    traj = reduction.dense_profile(sys, np.array([0.15, 0.0, 0.2, 0.0, 0.25,
                                                  0.0]), 0.0, -6.0, 6.0,
                                   step=2e-3)
    rep = reduction.verify_reduction(sys, ansatz, p,
                                     reduction.trajectory_profiles(sys, traj),
                                     (0.5, -5.0, 5.0), [8e-3, 4e-3, 2e-3])
    assert all(order_ok(o) for o in rep.order_estimate), rep.order_estimate


_SAMPLE_COEFFS = {
    "alpha": 1.2, "beta": 0.3, "gamma": 0.15, "a1": 0.5, "a3": 1.0,
    "a4": 0.7, "d": 2.0, "kappa1": 0.3, "kappa2": 1.0, "case": "50",
    "params": Params(0.5, 1.0, 1.0, 0.7, 0.35, 1.0, 2.0, 3.0),
}


@pytest.mark.parametrize("sid", sorted(reduction.SYSTEMS))
def test_tabulated_profiles_solve_their_equations(sid):
    # the residual rows derived from ode_rhs, fed the system's own RK4
    # table, show the stencils' second order on every row (a mis-assembled
    # state or a wrong row would stall at O(1))
    spec = reduction.SYSTEMS[sid]
    sys = reduction.reduced_system(
        sid, **{k: _SAMPLE_COEFFS[k] for k in spec.arguments})
    traj = reduction.dense_profile(sys, np.linspace(0.9, 0.2, sys.dim), 0.0,
                                   -1.0, 1.0, step=5e-3)
    prof = traj.profile_matrix(sys.profile_indices)
    rep = calculus.ode_refinement(sys, prof, (-0.9, 0.9), [8e-3, 4e-3, 2e-3])
    assert len(rep.order_estimate) == len(spec.profiles)
    assert all(1.8 <= o <= 2.2 for o in rep.order_estimate), rep.order_estimate


@pytest.mark.parametrize("sid,row,scale", [("R35", 2, 2.0), ("R47", 2, 2.0),
                                           ("R58", 1, 2.0), ("R58", 2, 3.0)])
def test_residual_rows_keep_their_leading_coefficient(sid, row, scale):
    # reactions off, one quadratic profile: the stencils are exact and the
    # row reads scale * P'' + alpha * P' = scale + alpha * omega
    kw = {"alpha": 1.2, "beta": 0.3, "a1": 0.5, "a3": 0.0, "a4": 0.7,
          "d": 2.0, "params": Params(0.5, 0.0, 0.0, 0.7, 0.35, 1.0, 2.0, 3.0)}
    sys = reduction.reduced_system(
        sid, **{k: kw[k] for k in reduction.SYSTEMS[sid].arguments})

    def profiles(om):
        vals = np.zeros((3, om.size))
        vals[row] = 0.5 * om * om
        return vals

    _, r = calculus.ode_residual(sys, profiles, (-1.0, 1.0), 0.125,
                                 return_fields=True)
    om = np.linspace(-1.0, 1.0, 17)[1:-1]
    np.testing.assert_allclose(r[row], scale + 1.2 * om, rtol=0, atol=1e-12)


def test_dense_profile_matches_adaptive():
    sys = reduction.reduced_system("L36", alpha=5 / math.sqrt(6), a1=0.5,
                                   beta=3.0, kappa1=0.3, kappa2=1.0)
    dense = reduction.dense_profile(sys, (1.0, 0.0), 0.0, -5.0, 5.0,
                                    step=5e-3)
    adaptive = reduction.integrate(sys, (1.0, 0.0), (0.0, 5.0),
                                   max_step=0.05)
    xs = np.linspace(0, 5, 101)
    np.testing.assert_allclose(dense.evaluate(xs)[:, 0],
                               adaptive.evaluate(xs)[:, 0], atol=5e-8)


def test_trajectory_domain_and_estimate():
    sys = _r38()
    y0 = np.asarray(reduction.closed_form_R38("i", 0.5, 1.3, 0.4, 0.3, 0.0,
                                              a4=0.7))
    traj = reduction.integrate(sys, y0, (0.0, 2.0))
    with pytest.raises(DomainError):
        traj.evaluate(2.5)
    # the quintic spline is the one interpolant
    with pytest.raises(ConstraintError,
                       match="^unknown interpolation rule 'cubic'$"):
        traj.evaluate(1.0, rule="cubic")
    fn = traj.component(0)
    assert fn.domain == traj.domain


def _horner_cases():
    xs = np.array([0.0, 0.3, 0.7, 1.2, 2.0])  # five nodes: the cubic
    yield "cubic", reduction.ProfileTrajectory(
        xs=xs, ys=np.stack([np.sin(xs), np.exp(xs)], axis=1))
    params = Params(0.5, 1.0, 1.0, 0.7, 0.35, 1.0, 2.0, 3.0)
    r58 = reduction.reduced_system("R58", alpha=1.2, params=params)
    yield "R58", reduction.integrate(r58, np.linspace(0.9, 0.2, 6),
                                     (0.0, 2.0))


@pytest.mark.parametrize("name,traj", list(_horner_cases()),
                         ids=["cubic", "R58"])
def test_trajectory_horner_form_is_the_b_spline(name, traj):
    # the power-basis form on the node intervals is the not-a-knot
    # B-spline through the nodes, to a few ulps of each column's scale
    from scipy.interpolate import BSpline, make_interp_spline
    xs, ys = traj.xs, traj.ys
    assert ys.shape[1] == (2 if name == "cubic" else 6)
    spline = make_interp_spline(xs, ys, k=3 if len(xs) <= 5 else 5, axis=0)
    lo, hi = traj.domain
    tol = 1e-12 * max(1.0, abs(lo), abs(hi))  # evaluate's domain tolerance
    scale = np.max(np.abs(ys), axis=0)
    for x in (xs, 0.5 * (xs[:-1] + xs[1:]),
              np.array([lo - 0.5 * tol, lo, hi, hi + 0.5 * tol])):
        assert np.max(np.abs(traj.evaluate(x) - spline(x)) / scale) <= 1e-14
    # at the left end of each interval Horner's rule returns c[k] itself
    assert np.array_equal(traj.evaluate(xs[:-1]), spline(xs[:-1]))
    assert not any(isinstance(v, BSpline) for v in vars(traj).values())
    for x in (lo - 2.0 * tol, hi + 2.0 * tol):
        with pytest.raises(DomainError, match=r"^evaluation outside "
                                              r"trajectory domain \["):
            traj.evaluate(x)


def test_semi_exact_family_checks_case_values_before_integrating(
        monkeypatch):
    # semi50 without a4 used to fail in float(None) inside reduced_system
    def no_profile(*args, **kw):
        raise AssertionError("profile integrated before the case check")

    monkeypatch.setattr(reduction, "dense_profile", no_profile)
    with pytest.raises(ConstraintError, match="semi50 needs a4"):
        reduction.semi_exact_family("50", beta=0.3)
    with pytest.raises(ConstraintError, match="semi51 needs a3"):
        reduction.semi_exact_family("51", beta=0.3)
    with pytest.raises(ConstraintError, match="fixes a3"):
        reduction.semi_exact_family("35-i", a1=0.5, a4=0.5, a3=7.0)
    with pytest.raises(ConstraintError,
                       match="^unknown semi-exact case '52'$"):
        reduction.semi_exact_family("52", a4=0.5, beta=0.3)
    # the family's Params, a4 != 0 included, are checked before the
    # profile is tabulated too, not after
    with pytest.raises(ConstraintError, match="^Params requires a4 != 0$"):
        reduction.semi_exact_family("50", a4=0.0, beta=0.3)


def test_reduced_system_rejects_unknown_id_and_l52_case():
    known = "R35, R38, R47, R58, T2a, T2b, T2c, T2d, L36, L52"
    with pytest.raises(ConstraintError, match=f"^unknown reduced system id "
                                              f"'R99'; known ids: {known}$"):
        reduction.reduced_system("R99", a1=0.5)
    # the catalog ids are the CLI's contract: no other spelling is taken
    with pytest.raises(ConstraintError, match="id 'r38'; known ids: R35,"):
        reduction.reduced_system("r38", beta=0.3, a1=0.5, a3=1.0, a4=0.7)
    with pytest.raises(ConstraintError,
                       match="^L52 case must be '50' or '51'$"):
        reduction.reduced_system("L52", beta=0.3, case="52")
    # L52 reads a4 in case 50 only: with case 51 a given a4 was echoed
    # back and never read
    with pytest.raises(ConstraintError,
                       match=r"^L52 case 51 does not take a4 \(it reads a4 "
                             r"in case 50 only\)$"):
        reduction.reduced_system("L52", beta=0.3, case="51", a4=0.7)


@pytest.mark.parametrize("x0,step,match", [
    (2.0, 5e-3, r"^need x_left <= x0 <= x_right$"),
    (-1.5, 5e-3, r"^need x_left <= x0 <= x_right$"),
    (0.0, 0.0, r"^step must be positive$"),
    (0.0, -5e-3, r"^step must be positive$"),
], ids=["x0-right", "x0-left", "step-zero", "step-negative"])
def test_dense_profile_rejects_anchor_and_step(x0, step, match):
    with pytest.raises(ConstraintError, match=match):
        reduction.dense_profile(_l36(), (1.0, 0.0), x0, -1.0, 1.0, step=step)


def test_semi_exact_family_rejects_anchor_outside_window():
    with pytest.raises(ConstraintError,
                       match="^anchor must lie inside the profile window$"):
        reduction.semi_exact_family("50", a4=0.5, beta=0.3,
                                    window=(-6.0, 6.0), anchor=7.0)


@pytest.mark.parametrize("window,shown", [((6.0, -6.0), r"\(6\.0, -6\.0\)"),
                                          ((2.0, 2.0), r"\(2\.0, 2\.0\)")],
                         ids=["reversed", "empty"])
def test_semi_exact_family_names_an_empty_window(window, shown):
    # a reversed window used to be blamed on the anchor: "anchor must lie
    # inside the profile window"
    with pytest.raises(ConstraintError, match=f"^profile window must have "
                                              f"lo < hi, got {shown}$"):
        reduction.semi_exact_family("35-i", a1=0.5, a4=0.5, window=window)


def test_semi_exact_family_names_a_window_too_narrow_to_check(monkeypatch):
    # the residual check's grid lies 4 spacings of 2e-3 inside the window
    # and needs 5 nodes; a narrower window raised "SpaceGrid n must be an
    # integer >= 5 ... got 3" after tabulating
    def no_profile(*args, **kw):
        raise AssertionError("profile tabulated for a window too narrow")

    real = reduction.dense_profile
    monkeypatch.setattr(reduction, "dense_profile", no_profile)
    with pytest.raises(ConstraintError,
                       match=r"^profile window \(-0\.01, 0\.01\) is narrower "
                             r"than 0\.024, the width its residual check "
                             r"needs$"):
        reduction.semi_exact_family("35-i", a1=0.5, a4=0.5,
                                    window=(-0.01, 0.01))
    monkeypatch.setattr(reduction, "dense_profile", real)
    fam, traj = reduction.semi_exact_family("35-i", a1=0.5, a4=0.5,
                                            window=(-0.012, 0.012))
    assert fam.meta["profile_residual"]["linf"] > 0.0


def test_semi_exact_family_profile_validation_rejects_garbage():
    # hand the case-51 assembler a profile that does not solve its
    # equation: the finite-difference check must catch it
    with pytest.raises(NumericalError, match="residual check"):
        fam, traj = reduction.semi_exact_family(
            "51", a3=0.7, beta=0.1, window=(-6.0, 6.0), step=0.5)


# ---------------------------------------------------------------------------
# the stepping loops on numpy state vectors, as they were before they moved
# to Python floats: test-only references that pin the float loops bit for bit
# ---------------------------------------------------------------------------


def _reference_integrate(sys, y0, span, rel_tol=1e-9, abs_tol=1e-12,
                         max_step=None):
    """(xs, ys) of the numpy Fehlberg loop with `integrate`'s step
    control, which evaluated k[0] afresh at every attempt."""
    x0, x1 = float(span[0]), float(span[1])
    y = np.asarray(y0, dtype=float)
    direction = 1.0 if x1 > x0 else -1.0
    total = abs(x1 - x0)
    hmax = total if max_step is None else min(abs(max_step), total)
    h = min(hmax, total / 100.0, 0.1)
    x = x0
    xs, yss = [x], [y.copy()]
    err_prev = 1.0
    k = [None] * 6
    floor = reduction._STEP_FLOOR
    while (x1 - x) * direction > 1e-14 * max(1.0, abs(x1)):
        h = min(h, abs(x1 - x))
        if h < floor * max(1.0, abs(x)):
            raise NumericalError(
                f"step-size underflow at {sys.ivar} = {x} "
                f"(reached from {x0} toward {x1})")
        hs = h * direction
        k[0] = sys.rhs(x, y)
        failed = False
        for i in range(1, 6):
            yi = y.copy()
            for j, a in enumerate(reduction._RK_A[i]):
                yi += hs * a * k[j]
            if not np.isfinite(yi).all():
                failed = True
                break
            k[i] = sys.rhs(x + reduction._RK_C[i] * hs, yi)
        if not failed:
            y5 = y.copy()
            err = np.zeros_like(y)
            for i in range(6):
                y5 += hs * reduction._RK_B5[i] * k[i]
                err += hs * reduction._RK_E[i] * k[i]
            failed = not np.isfinite(y5).all()
        if failed:
            h *= 0.25
            continue
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if err_norm <= 1.0:
            x = x1 if abs(x1 - (x + hs)) <= floor * max(1.0, abs(x1)) \
                else x + hs
            y = y5
            xs.append(x)
            yss.append(y.copy())
            e = max(err_norm, 1e-16)
            fac = 0.9 * e ** (-0.14) * max(err_prev, 1e-16) ** 0.08
            err_prev = e
            h = min(h * min(max(fac, 0.2), 5.0), hmax)
        else:
            h *= max(0.1, 0.9 * err_norm ** (-0.2))
    out = [np.asarray(v) for v in (xs, yss)]
    return [v[::-1] for v in out] if direction < 0 else out


def _reference_rk4_table(f, c, y0, x0, step, nout, out):
    """The numpy classic RK4 table loop, with `ode_rk4_table`'s contract."""
    y = y0
    out[0] = y
    for i in range(1, nout):
        x = x0 + (i - 1) * step
        k1 = f(x, y, *c)
        k2 = f(x + 0.5 * step, y + (0.5 * step) * k1, *c)
        k3 = f(x + 0.5 * step, y + (0.5 * step) * k2, *c)
        k4 = f(x + step, y + step * k3, *c)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = y


def _sample_system(sid):
    spec = reduction.SYSTEMS[sid]
    sys = reduction.reduced_system(
        sid, **{k: _SAMPLE_COEFFS[k] for k in spec.arguments})
    y0 = np.linspace(0.9, 0.2, sys.dim)
    y0[-1] = -0.0  # a signed zero must come through as the numpy loop left it
    return sys, y0


def _assert_bitwise(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()  # signed zeros included


_PINNED_RUNS = [(sid, (0.0, end), None) for sid in sorted(reduction.SYSTEMS)
                for end in (1.0, -1.0)] + [
    ("R38", (0.0, 3.0), 0.002),  # equal steps, the last snapped onto 3.0
    ("L36", (0.0, -7.0), 0.01),
]


@pytest.mark.parametrize("sid,span,max_step", _PINNED_RUNS)
def test_integrate_matches_numpy_loop_bitwise(sid, span, max_step):
    sys, y0 = _sample_system(sid)
    traj = reduction.integrate(sys, y0, span, max_step=max_step)
    _assert_bitwise((traj.xs, traj.ys),
                    _reference_integrate(sys, y0, span, max_step=max_step))


def test_integrate_blowup_matches_numpy_loop():
    sys = _r38(a1=1.0, a4=1.0, a3=1.0, beta=0.0)
    y0, span = (0.0, -50.0, 0.0), (0.0, 10.0)
    with pytest.raises(NumericalError) as want:
        _reference_integrate(sys, y0, span)
    with pytest.raises(NumericalError) as got:
        reduction.integrate(sys, y0, span)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("sid", sorted(reduction.SYSTEMS))
def test_dense_profile_matches_numpy_loop_bitwise(sid):
    # the window reaches both ways from the anchor: a backward and a
    # forward run, joined at the anchor
    sys, y0 = _sample_system(sid)
    got = reduction.dense_profile(sys, y0, 0.2, -1.0, 1.0, step=5e-3)
    xs = 0.2 + 5e-3 * np.arange(-240, 161)
    tol = (reduction.PROFILE_REL_TOL, reduction.PROFILE_ABS_TOL)
    (xl, yl), (xr, yr) = (_reference_integrate(sys, y0, (0.2, end), *tol)
                          for end in (xs[0], xs[-1]))
    joined = reduction.ProfileTrajectory(xs=np.concatenate((xl[:-1], xr)),
                                         ys=np.concatenate((yl[:-1], yr)))
    _assert_bitwise((got.xs, got.ys), (xs, joined.evaluate(xs)))
    # the classic RK4 table it replaces agrees to its own error at this
    # step, O(step^4): 1.6e-10 of the column scale at most
    out_l, out_r = np.empty((241, sys.dim)), np.empty((161, sys.dim))
    _reference_rk4_table(sys.code, sys.kcoeffs, y0, 0.2, -5e-3, 241, out_l)
    _reference_rk4_table(sys.code, sys.kcoeffs, y0, 0.2, 5e-3, 161, out_r)
    want = np.concatenate((out_l[:0:-1], out_r))
    scale = 1.0 + np.max(np.abs(want))
    np.testing.assert_allclose(got.ys, want, rtol=0, atol=1e-9 * scale)


def test_rk4_table_takes_an_ndarray_state():
    # the benchmark harness hands the kernel `ReducedSystem.code` with an
    # ndarray initial state and output table
    sys, y0 = _sample_system("R58")
    got, want = np.empty((101, 6)), np.empty((101, 6))
    reduction.ode_rk4_table(sys.code, sys.kcoeffs, y0, -0.5, 0.01, 101, got)
    _reference_rk4_table(sys.code, sys.kcoeffs, y0, -0.5, 0.01, 101, want)
    assert np.isfinite(got).all()
    _assert_bitwise((got,), (want,))


def test_fehlberg_step_returns_none_when_a_stage_overflows():
    # from V = -1e150 the derivative at the node is finite (V' = -1e300),
    # but the next stage's derivative overflows to -inf; no later stage
    # raises, and the one check of y5 catches the overflow
    sys_ = reduction.reduced_system("T2d", a1=1.0, a4=0.5)
    f = sys_.spec.list_rhs(sys_.kcoeffs)
    tab = reduction._scaled_tableau(0.1)
    y = [1.0, -1e150, 0.0]
    k0 = f(0.0, y)
    stage = [p + 0.25 * 0.1 * q for p, q in zip(y, k0)]
    assert all(map(math.isfinite, k0))
    assert not all(map(math.isfinite, f(0.025, stage)))
    assert reduction._fehlberg_step(f, 0.0, y, k0, tab) is None
    y = [1.0, 0.5, 0.5]
    y5, err = reduction._fehlberg_step(f, 0.0, y, f(0.0, y), tab)
    assert all(map(math.isfinite, y5 + err))


def test_integrate_retries_non_finite_stages(monkeypatch):
    # from V = -1e150 every Fehlberg step leaves the floats; each failed
    # step is retried at a quarter of its size until the step underflows
    failed = []
    step = reduction._fehlberg_step

    def counted(*args):
        out = step(*args)
        failed.append(out is None)
        return out

    monkeypatch.setattr(reduction, "_fehlberg_step", counted)
    sys_ = reduction.reduced_system("T2d", a1=1.0, a4=0.5)
    with pytest.raises(NumericalError, match="step-size underflow at t = 0.0"):
        reduction.integrate(sys_, (1.0, -1e150, 0.0), (0.0, 1.0))
    assert failed == [True] * 19
