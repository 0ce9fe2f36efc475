"""Acceptance suite: every criterion runs at its pinned tolerance and
prints one PASS/FAIL line (visible with ``pytest -s``).

Criteria covered, in order: exact-solution residual refinement, reference
coefficient formulas, simulated wave speeds, the reduced-system oracle,
long-time asymptotics, symmetry flows (solution-to-solution plus group
axioms), semi-exact reconstruction, steady-state endpoints, and the
constraint-consistency sweep with its advisory-bound logging.
"""

import math
import time

import numpy as np
import pytest

from hgf import calculus, model, reduction, simulator, solutions, symmetry
from hgf.calculus import SpaceGrid
from hgf.model import Params

H_SEQ = [4e-3, 2e-3, 1e-3]
ORDER_LO, ORDER_HI = 1.8, 2.2
SQRT6 = math.sqrt(6.0)
TF63_SPEED = 81.0 / (5.0 * math.sqrt(62.0))
FISHER_SPEED = 5.0 / SQRT6


def _report(criterion, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} [{name}]: {status} - {detail}")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def _orders_ok(orders):
    return all(o is None or o == math.inf or ORDER_LO <= o <= ORDER_HI
               for o in orders)


def _fmt_orders(orders):
    return [None if o is None else round(o, 3) if math.isfinite(o) else "inf"
            for o in orders]


# ---------------------------------------------------------------------------
# criterion 1: exact-solution residual suite
# ---------------------------------------------------------------------------

def _criterion1_instances():
    beta = solutions.fam40_restrictions(0.1, 0.5)["beta"]
    return [
        ("fisher", solutions.fisher_tf(), (0.0, -30.0, 30.0)),
        ("fam40-i", solutions.make_fam40("i", 0.1, 0.5, beta, 2.0, 0.5),
         (0.5, 0.0, 10.0)),
        ("tf63", solutions.make_tf63(0.1, 0.35, a3=1.0, d3=3.0),
         (0.0, -30.0, 30.0)),
        ("tf65", solutions.make_tf65(1.0), (0.0, -30.0, 30.0)),
    ]


@pytest.mark.parametrize("name,fam,window",
                         _criterion1_instances(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_criterion_1_exact_solution_residuals(name, fam, window):
    t0 = time.time()
    rep = calculus.refinement_study(fam.params, fam, window, H_SEQ)
    elapsed = time.time() - t0
    linf_max = max(v for v in rep.linf if v is not None)
    ok = _orders_ok(rep.order_estimate) and linf_max <= 1e-4 and elapsed < 30
    _report(1, name, ok,
            f"orders={_fmt_orders(rep.order_estimate)} "
            f"linf(h=1e-3)={linf_max:.2e} (<=1e-4) elapsed={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: reference coefficient formulas
# ---------------------------------------------------------------------------

def test_criterion_2_reference_coefficients():
    vals = solutions.tf63_parameter_values(0.1, 0.35, a3=1.0, d3=3.0)
    checks = {
        "alpha": (vals["alpha"], TF63_SPEED),
        "d2": (vals["d2"], 8982.0 / 2051.0),
        "a2": (vals["a2"], 64.0 / 2051.0),
        "a4": (vals["a4"], 1.0),
        "a5": (vals["a5"], 269.0 / 140.0),
    }
    worst = 0.0
    for got, want in checks.values():
        worst = max(worst, abs(got - want) / abs(want))
    # a5 as a function of free (a3, d3): (162 + 200 a3 - 31 d3)/140
    for a3, d3 in ((0.0, 1.0), (2.0, 0.5), (-1.0, 4.0)):
        got = solutions.tf63_parameter_values(0.1, 0.35, a3, d3)["a5"]
        want = (162.0 + 200.0 * a3 - 31.0 * d3) / 140.0
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _report(2, "tf63 coefficients", worst <= 1e-12,
            f"max relative deviation {worst:.2e} (<=1e-12)")


# ---------------------------------------------------------------------------
# criterion 3: simulated wave speeds
# ---------------------------------------------------------------------------

def test_criterion_3_wave_speed_reproduction():
    t0 = time.time()
    grid = SpaceGrid(-40.0, 60.0, 2001)  # h = 0.05

    tf63 = solutions.make_tf63(0.1, 0.35, a3=1.0, d3=3.0)
    cfg = simulator.SimConfig(params=tf63.params, grid=grid, t_end=10.0,
                              initial=tf63,
                              bc=simulator.dirichlet_at_endpoints(tf63),
                              snapshot_every=500)
    run = simulator.run(cfg)
    est_w = simulator.measure_front_speed(run, "w", 0.5)

    fisher = solutions.embed_fisher()
    cfg_f = simulator.SimConfig(params=fisher.params, grid=grid, t_end=10.0,
                                initial=fisher,
                                bc=simulator.dirichlet_at_endpoints(fisher),
                                snapshot_every=500)
    run_f = simulator.run(cfg_f)
    est_u = simulator.measure_front_speed(run_f, "u", 0.25)

    elapsed = time.time() - t0
    err_w = abs(est_w.speed - TF63_SPEED) / TF63_SPEED
    err_u = abs(est_u.speed - FISHER_SPEED) / FISHER_SPEED
    ok = (err_w <= 0.02 and est_w.r_squared >= 0.999
          and err_u <= 0.01 and est_u.r_squared >= 0.999
          and elapsed <= 120.0)
    _report(3, "front speeds", ok,
            f"w-speed {est_w.speed:.5f} (err {100 * err_w:.4f}% <= 2%, "
            f"r2={est_w.r_squared:.6f}); u-speed {est_u.speed:.5f} "
            f"(err {100 * err_u:.4f}% <= 1%, r2={est_u.r_squared:.6f}); "
            f"elapsed {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 4: reduced-system oracle
# ---------------------------------------------------------------------------

def test_criterion_4_r38_oracle():
    rng = np.random.default_rng(38)
    worst = 0.0
    for _ in range(20):
        a1 = rng.uniform(0.1, 1.0)
        a4 = rng.uniform(0.05, 0.95)
        d1 = rng.uniform(0.2, 3.0)
        d2v = rng.uniform(0.1, 2.0)
        beta = rng.uniform(-0.5, 0.5)
        sys = reduction.reduced_system("R38", beta=beta, a1=a1, a3=1.0,
                                       a4=a4)
        y0 = np.asarray(reduction.closed_form_R38("i", a1, d1, d2v, beta,
                                                  0.0, a4=a4))
        # capped steps plus the quintic rule keep dense-output error well
        # below the gate even for draws with a pole just below t = 0
        traj = reduction.integrate(sys, y0, (0.0, 3.0), max_step=0.02)
        ts = np.linspace(0.0, 3.0, 301)
        exact = np.stack(reduction.closed_form_R38("i", a1, d1, d2v, beta,
                                                   ts, a4=a4), axis=1)
        dense = traj.evaluate(ts, rule="quintic")
        worst = max(worst, float(np.max(np.abs(dense - exact))))
        node_exact = np.stack(reduction.closed_form_R38(
            "i", a1, d1, d2v, beta, traj.xs, a4=a4), axis=1)
        worst = max(worst, float(np.max(np.abs(traj.ys - node_exact))))
    _report(4, "R38 case-i oracle, 20 draws", worst <= 1e-6,
            f"max deviation {worst:.2e} (<=1e-6) over t in [0, 3]")


# ---------------------------------------------------------------------------
# criterion 5: long-time asymptotics
# ---------------------------------------------------------------------------

def test_criterion_5_asymptotics(fam40_std):
    rng = np.random.default_rng(41)
    worst_identity = 0.0
    for _ in range(100):
        a1 = rng.uniform(0.05, 3.0)
        a4 = rng.uniform(0.0, 0.999)
        beta = solutions.fam40_restrictions(a1, a4)["beta"]
        lhs = 1.0 + beta**2 * a1**2
        rhs = (1.0 + a1) / (1.0 + a1 * a4)
        worst_identity = max(worst_identity,
                             abs(lhs - rhs) / max(1.0, abs(rhs)))

    x = np.linspace(0.0, 10.0, 2001)
    vals = fam40_std.evaluate(20.0, x)
    lims = fam40_std.t_limit(x)
    worst_gap = max(float(np.max(np.abs(a - b)))
                    for a, b in zip(vals, lims))
    ok = worst_identity <= 1e-12 and worst_gap <= 1e-5
    _report(5, "t -> inf limits", ok,
            f"exponent identity {worst_identity:.2e} (<=1e-12); "
            f"gap at t=20 on [0,10]: {worst_gap:.2e} (<=1e-5)")


# ---------------------------------------------------------------------------
# criterion 6: symmetry flows map solutions to solutions
# ---------------------------------------------------------------------------

def _criterion6_cases():
    cases = []
    # case 2 via Xinf on the embedded logistic front
    p2 = Params(0.0, 0.0, 1.0, 1.0, 0.0, d1=1.0, d2=2.0, d3=3.0)
    base2 = solutions.embed_fisher(p2)
    cases.append(("case 2 / Xinf", base2,
                  symmetry.xinf(symmetry.heat_decaying(0.7, 0.4, 1.0),
                                p2.d2),
                  (0.5, -20 + FISHER_SPEED * 0.5, 20 + FISHER_SPEED * 0.5)))
    # case 4 via Q1 on the closed separable family
    beta = solutions.fam40_restrictions(0.1, 0.5)["beta"]
    fam_i = solutions.make_fam40("i", 0.1, 0.5, beta, 2.0, 0.5)
    cases.append(("case 4 / Q1", fam_i, symmetry.SymmetryOp("Q1", a1=0.1),
                  (0.5, 0.0, 10.0)))
    # case 5 via u dv and Q2 on the semi-exact v-profile family
    fam50, _ = reduction.semi_exact_family("50", a4=0.5, beta=0.3,
                                           gamma=0.2, window=(-24.0, 24.0),
                                           anchor=-24.0)
    w50 = (0.5, -20 + FISHER_SPEED * 0.5, 20 + FISHER_SPEED * 0.5)
    cases.append(("case 5 / UdV", fam50, symmetry.SymmetryOp("UdV"), w50))
    cases.append(("case 5 / Q2", fam50, symmetry.SymmetryOp("Q2"), w50))
    # case 9 via its characteristic operator on the separable family
    fam_ii = solutions.make_fam40("ii", 0.3, 0.6, 0.2, 1.5, 0.7, d3=1.0)
    cases.append(("case 9 / Case9Op", fam_ii,
                  symmetry.SymmetryOp("Case9Op", a1=0.3, a4=0.6),
                  (0.5, 0.0, 10.0)))
    # case 12 via all three of its operators
    p12 = Params(0.0, 0.0, 0.0, 1.0, 0.0)
    base12 = solutions.embed_fisher(p12)
    w12 = (0.5, -20 + FISHER_SPEED * 0.5, 20 + FISHER_SPEED * 0.5)
    c12b = symmetry.SymmetryOp("Case12_UdV_plus_1mUdW")
    cases.append(("case 12 / UdV+(1-u)dW", base12, c12b, w12))
    cases.append(("case 12 / e^-t(dV-dW)", base12,
                  symmetry.SymmetryOp("Case12_ExpMinusT"), w12))
    # the w-scaling operator acts trivially on w = 0: flow a nonzero w first
    base12w = symmetry.flow(c12b, 0.2, base12)
    cases.append(("case 12 / WdV-WdW", base12w,
                  symmetry.SymmetryOp("Case12_WdV_minus_WdW"), w12))
    return cases


def test_criterion_6_flows_map_solutions():
    eps = 0.3
    details = []
    ok = True
    for name, base, op, window in _criterion6_cases():
        flowed = symmetry.flow(op, eps, base)
        rep = calculus.refinement_study(base.params, flowed, window, H_SEQ)
        good = _orders_ok(rep.order_estimate)
        ok = ok and good
        details.append(f"{name}: {_fmt_orders(rep.order_estimate)}")
    _report(6, "solution-to-solution (eps=0.3)", ok, "; ".join(details))


def test_criterion_6_group_axioms():
    rng = np.random.default_rng(6)
    points = tuple(rng.uniform(-1.5, 1.5, 1000) for _ in range(5))
    ops = [
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
    bad = [op.kind for op in ops
           if not (symmetry.flow_group_check(op, 0.2, 0.3, points)
                   and symmetry.flow_group_check(op, 0.7, -0.7, points))]
    _report(6, "group axioms, 1000 points/op", not bad,
            f"{len(ops)} operator kinds at 1e-12 relative"
            + (f"; FAILED: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 7: semi-exact reconstruction
# ---------------------------------------------------------------------------

def test_criterion_7_semi_exact_reconstruction():
    fam35, traj35 = reduction.semi_exact_family(
        "35-i", a1=0.5, a4=0.5, beta=3.0, window=(-24.0, 24.0), step=5e-3,
        y0=(1.0, 0.0), anchor=-24.0)
    fam50, traj50 = reduction.semi_exact_family(
        "50", a4=0.5, beta=0.3, gamma=0.2, window=(-24.0, 24.0), step=5e-3,
        y0=(1.0, 0.0), anchor=-24.0)
    ok = True
    details = []
    for name, fam in (("L36 -> semi35-i", fam35), ("L52 -> semi50", fam50)):
        for t in (0.5, 1.0):
            sp = fam.speed
            rep = calculus.refinement_study(
                fam.params, fam, (t, -20.0 + sp * t, 20.0 + sp * t), H_SEQ)
            good = _orders_ok(rep.order_estimate)
            ok = ok and good
            details.append(
                f"{name} t={t}: {_fmt_orders(rep.order_estimate)}")
    _report(7, "profiles through ansatz", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# criterion 8: steady-state endpoints
# ---------------------------------------------------------------------------

def test_criterion_8_steady_state_endpoints(tf63_std):
    tf65 = solutions.make_tf65(1.0)
    targets = [
        ("tf63 left", tf63_std,
         (1.0 - 2 * 0.1 * 0.35, 2 * 0.35, 0.0)),
        ("tf63 right", tf63_std, (0.0, 0.0, 1.0)),
        ("tf65 left", tf65, (1.0, 8 * (3 - 5) / (3 * (1 - 5)), 0.0)),
        ("tf65 right", tf65, (0.0, 0.0, 0.0)),
    ]
    worst = 0.0
    ok = True
    for name, fam, want in targets:
        got = fam.endpoint_states[0 if "left" in name else 1]
        match = max(abs(a - b) for a, b in zip(got, want)) <= 1e-12
        rates = fam.params.reaction(*got)
        resid = max(abs(r) for r in rates)
        worst = max(worst, resid)
        families = model.steady_states(fam.params)
        member = min(s.distance(got) for s in families) <= 1e-9
        ok = ok and match and resid <= 1e-12 and member
    _report(8, "front endpoints", ok,
            f"4 endpoints, kinetics residual <= {worst:.2e} (<=1e-12), "
            f"all on reported steady families")


# ---------------------------------------------------------------------------
# criterion 9: constraint-consistency sweep
# ---------------------------------------------------------------------------

def test_criterion_9_constraint_consistency_sweep():
    rng = np.random.default_rng(9)
    n_checked = 0
    n_advisory = 0
    worst = 0.0
    h = 2e-3
    for _ in range(1000):
        a1 = rng.uniform(-0.5, 1.2)
        delta = rng.uniform(0.05, 1.5)
        d3 = rng.uniform(0.2, 5.0)
        a3 = rng.uniform(-0.5, 2.0)
        if a1 * delta >= 0.5:
            continue  # outside the family's domain of definition
        vals = solutions.tf63_parameter_values(a1, delta, a3, d3)
        direct_ok = vals["d2"] > 0 and vals["a2"] >= 0 and vals["a5"] >= 0
        if not direct_ok:
            continue
        inst = solutions.make_tf63(a1, delta, a3=a3, d3=d3)
        if any("advisory" in w for w in inst.warnings):
            n_advisory += 1
        n = int(round(50.0 / h)) + 1
        rep = calculus.pde_residual(inst.params, inst,
                                    SpaceGrid(-25.0, 25.0, n), 0.0, h)
        worst = max(worst, max(rep.linf))
        n_checked += 1
    ok = worst <= 4e-4 and n_checked >= 50 and n_advisory >= 1
    _report(9, "1000-draw sweep", ok,
            f"{n_checked} coefficient sets passed the direct sign checks; "
            f"max linf(h=2e-3) = {worst:.2e} (<=4e-4); advisory-bound "
            f"disagreement logged on {n_advisory} instances")
