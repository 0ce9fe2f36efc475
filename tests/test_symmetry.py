import math
import re

import numpy as np
import pytest

from conftest import order_ok
from hgf import calculus, model, reduction, solutions, symmetry
from hgf.errors import ConstraintError
from hgf.model import Params

ALL_FIELD_OPS = [
    symmetry.SymmetryOp("I"),
    symmetry.SymmetryOp("Q1", a1=0.5),
    symmetry.SymmetryOp("UdV"),
    symmetry.SymmetryOp("Q2"),
    symmetry.SymmetryOp("ExpA4WdV", a4=0.7),
    symmetry.SymmetryOp("WdV_minus_a4WdW", a4=0.7),
    symmetry.SymmetryOp("Case9Op", a1=0.5, a4=0.8),
    symmetry.SymmetryOp("Case10Op", a2=2.0),
    symmetry.SymmetryOp("Case12_WdV_minus_WdW"),
    symmetry.SymmetryOp("Case12_UdV_plus_1mUdW"),
    symmetry.SymmetryOp("Case12_ExpMinusT"),
    symmetry.xinf(symmetry.heat_decaying(0.7, 0.4, 1.0), 2.0),
]


def _points(rng, n=200):
    return tuple(rng.uniform(-1.5, 1.5, n) for _ in range(5))


def test_admissible_generic_only_translations():
    p = Params(0.3, 0.7, 0.9, 1.1, 0.2, 1, 2, 3)
    entries = symmetry.admissible_ops(p)
    assert len(entries) == 1
    case, ops = entries[0]
    assert case.case == 0
    assert [o.kind for o in ops] == ["Pt", "Px"]


def test_admissible_case4_example():
    p = Params(0.5, 1.0, 2.0, 3.0, 1.5, 1, 1, 4)
    entries = symmetry.admissible_ops(p)
    cases = {c.case: [o.kind for o in ops] for c, ops in entries}
    assert set(cases) == {0, 4}
    assert cases[4] == ["Q1"]


def test_admissible_case12_full_set():
    p = Params(0, 0, 0, 1, 0, 1, 1, 1)
    cases = {c.case: [o.kind for o in ops]
             for c, ops in symmetry.admissible_ops(p)}
    assert 12 in cases
    assert cases[12] == ["Case12_WdV_minus_WdW", "Case12_UdV_plus_1mUdW",
                         "Case12_ExpMinusT", "I", "Xinf"]


def test_admissible_monotone_under_tightening():
    loose = Params(0.5, 1.0, 0.5, 1.0, 0.5, 1, 1, 2)
    tight = Params(0.5, 1.0, 0.0, 1.0, 0.5, 1, 1, 1)  # adds case 9
    ops_loose = {(c.case, o.kind)
                 for c, ops in symmetry.admissible_ops(loose) for o in ops}
    ops_tight = {(c.case, o.kind)
                 for c, ops in symmetry.admissible_ops(tight) for o in ops}
    assert ops_loose <= ops_tight


# one coefficient set per catalog row (d1, d2, d3 last), the operator kinds
# the paper gives that row, and the coefficients each kind's flow reads
ROW_OPS = {
    1: (Params(0, 0.7, 0, 1.1, 0, 1.3, 1.7, 2.1), ("I",)),
    2: (Params(0, 0, 0.9, 1.1, 0, 1.3, 1.7, 2.1), ("Xinf",)),
    3: (Params(0, 0, 0, 1.1, 0, 1.3, 1.7, 2.1), ("I", "Xinf")),
    4: (Params(0.5, 1, 0.9, 0.8, 0.4, 1.7, 1.7, 2.1), ("Q1",)),
    5: (Params(0, 1, 0.9, 1.1, 0, 1.7, 1.7, 2.1), ("UdV", "Q2")),
    6: (Params(0, 1, 0, 1.1, 0, 1.7, 1.7, 2.1), ("UdV", "I", "Q2")),
    7: (Params(0, 1.1, 0, 1.1, 0, 1.3, 1.7, 1.7), ("ExpA4WdV", "I")),
    8: (Params(0, 0, 0, 1.1, 0, 1.3, 1.7, 1.7),
        ("WdV_minus_a4WdW", "I", "Xinf")),
    9: (Params(0.5, 1, 0, 0.8, 0.4, 1.7, 1.7, 1.7), ("Q1", "Case9Op")),
    10: (Params(0, 0.7, 0, 1, 0, 1.7, 1.7, 1.7), ("I", "Case10Op")),
    11: (Params(0, 1, 0, 1, 0, 1.7, 1.7, 1.7), ("UdV", "ExpA4WdV", "I", "Q2")),
    12: (Params(0, 0, 0, 1, 0, 1.7, 1.7, 1.7),
         ("Case12_WdV_minus_WdW", "Case12_UdV_plus_1mUdW",
          "Case12_ExpMinusT", "I", "Xinf")),
}
FLOW_COEFFS = {"Q1": ("a1",), "ExpA4WdV": ("a4",),
               "WdV_minus_a4WdW": ("a4",), "Case9Op": ("a1", "a4"),
               "Case10Op": ("a2",), "Xinf": ("d2",)}


@pytest.mark.parametrize("case", sorted(ROW_OPS))
def test_each_row_wires_its_operators_from_the_params(case):
    p, kinds = ROW_OPS[case]
    ops, = [ops for c, ops in symmetry.admissible_ops(p) if c.case == case]
    assert tuple(op.kind for op in ops) == kinds
    for op in ops:
        for name in ("a1", "a2", "a4", "d2"):
            want = (getattr(p, name) if name in FLOW_COEFFS.get(op.kind, ())
                    else None)
            assert getattr(op, name) == want, (op.kind, name)
        want = symmetry.heat_constant(1.0) if op.kind == "Xinf" else None
        assert op.profile == want
        assert op.admissible_for(p)


def test_operator_kinds_in_table_order():
    assert symmetry.OP_KINDS == (
        "Pt", "Px", "I", "Xinf", "Q1", "UdV", "Q2", "ExpA4WdV",
        "WdV_minus_a4WdW", "Case9Op", "Case10Op", "Case12_WdV_minus_WdW",
        "Case12_UdV_plus_1mUdW", "Case12_ExpMinusT")


def test_operator_with_other_coefficients_not_admissible():
    p = ROW_OPS[4][0]
    op = symmetry.SymmetryOp("Q1", a1=0.3)  # the row's set has a1 = 0.5
    assert not op.admissible_for(p)
    sol = model.Solution(evaluate=lambda t, x: (x, x, x), params=p)
    with pytest.raises(ConstraintError, match="not admissible"):
        symmetry.flow(op, 0.1, sol)


def test_flow_scaling_example():
    op = symmetry.SymmetryOp("I")
    _, _, u, v, w = op.point_map(1.0, 0.0, 0.0, 0.3, 1.0, 2.0)
    assert v == pytest.approx(math.e, rel=1e-15)
    assert w == pytest.approx(2 * math.e, rel=1e-15)


def test_flow_q1_example():
    op = symmetry.SymmetryOp("Q1", a1=1.0)
    _, _, u, v, _ = op.point_map(math.log(2.0), 0.0, 0.0, 1.0, 0.0, 0.0)
    assert u == pytest.approx(0.5, rel=1e-15)
    assert v == pytest.approx(0.5, rel=1e-15)


def test_case9_flow_invariant(rng):
    a1, a4 = 0.5, 0.8
    op = symmetry.SymmetryOp("Case9Op", a1=a1, a4=a4)
    t, x, u, v, w = _points(rng, 100)

    def s_of(u_, v_, w_):
        return ((a4 - 1) / a1) * u_ + (a4 - 1) * v_ + w_ + (1 - a4) / a1

    for eps in (-1.0, 0.3, 2.0):
        _, _, u2, v2, w2 = op.point_map(eps, t, x, u, v, w)
        np.testing.assert_allclose(s_of(u2, v2, w2), s_of(u, v, w),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("op", ALL_FIELD_OPS + [symmetry.pt(), symmetry.px()],
                         ids=lambda o: o.kind)
def test_group_axioms(op, rng):
    assert symmetry.flow_group_check(op, 0.2, 0.3, _points(rng))
    assert symmetry.flow_group_check(op, 0.4, -0.4, _points(rng))


def test_heat_profiles_solve_heat_equation():
    d2 = 1.7
    profiles = [symmetry.heat_constant(0.8),
                symmetry.heat_affine(0.3, -1.2),
                symmetry.heat_exponential(0.5, 0.4),
                symmetry.heat_decaying(0.7, 0.4, 1.3)]
    x = np.linspace(-2, 2, 401)
    h = x[1] - x[0]
    dt = 1e-5
    for prof in profiles:
        lap = (prof(0.3, x[:-2], d2) - 2 * prof(0.3, x[1:-1], d2)
               + prof(0.3, x[2:], d2)) / h**2
        ddt = (prof(0.3 + dt, x[1:-1], d2)
               - prof(0.3 - dt, x[1:-1], d2)) / (2 * dt)
        assert np.max(np.abs(d2 * lap - ddt)) < 1e-3  # stencil order only


def test_heat_profile_kind_is_checked_at_construction():
    # an unknown kind used to build and fail only when first evaluated
    with pytest.raises(ConstraintError,
                       match="unknown heat profile kind 'periodic'"):
        symmetry.HeatProfile("periodic")


@pytest.mark.parametrize("kw,message", [
    (dict(kind="exponential", a=math.nan, mu=1.0),
     "heat kind exponential coefficient a must be finite, got nan"),
    (dict(kind="affine", a=1.0, b=0.0, mu=5.0),
     "heat kind affine expects coefficients ('a', 'b'); missing [], "
     "unexpected ['mu']"),
], ids=["nan", "unread"])
def test_heat_profile_coefficients_follow_the_rule(kw, message):
    with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
        symmetry.HeatProfile(**kw)


def test_inadmissible_pairing_rejected():
    tf65 = solutions.make_tf65(1.0)  # a1 = 0 coefficient set
    op = symmetry.SymmetryOp("Q1", a1=0.5)
    with pytest.raises(ConstraintError, match="not admissible"):
        symmetry.flow(op, 0.3, tf65)


def test_translation_flows_preserve_residual(tf63_std):
    eps = 0.8
    grid = calculus.SpaceGrid(-8, 8, 801)
    flowed = symmetry.flow(symmetry.pt(), eps, tf63_std)
    rep_f = calculus.pde_residual(tf63_std.params, flowed, grid,
                                  0.3 + eps, 1e-2)
    rep_b = calculus.pde_residual(tf63_std.params, tf63_std, grid, 0.3, 1e-2)
    for a, b in zip(rep_f.linf, rep_b.linf):
        assert a == pytest.approx(b, rel=1e-12)


def test_verify_flow_contract_q1_on_fam40(fam40_std):
    op = symmetry.SymmetryOp("Q1", a1=0.1)
    before, after = symmetry.verify_flow_maps_solutions(
        op, 0.3, fam40_std, (0.5, 0.0, 10.0), 2e-3)
    for b, a in zip(before.linf, after.linf):
        assert a <= 10.0 * (b + 1e-9)


def test_q1_on_semi35_preserves_order():
    fam, _ = reduction.semi_exact_family("35-i", a1=0.5, a4=0.5, beta=3.0,
                                         window=(-14.0, 14.0), step=5e-3,
                                         anchor=-14.0)
    op = symmetry.SymmetryOp("Q1", a1=0.5)
    flowed = symmetry.flow(op, 0.3, fam)
    sp = fam.speed
    rep = calculus.refinement_study(fam.params, flowed,
                                    (0.5, -10 + sp * 0.5, 10 + sp * 0.5),
                                    [8e-3, 4e-3, 2e-3])
    assert all(order_ok(o) for o in rep.order_estimate)


def test_xinf_flow_preserves_exactness_up_to_stencil():
    p = Params(0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 2.0, 3.0)
    base = solutions.embed_fisher(p)
    op = symmetry.xinf(symmetry.heat_decaying(0.7, 0.4, 1.0), p.d2)
    before, after = symmetry.verify_flow_maps_solutions(
        op, 0.3, base, (0.5, -10.0, 10.0), 2e-3)
    assert after.linf[1] < 1e-5  # stencil truncation of the heat profile


def test_px_flow_is_the_shifted_solution(tf63_std, rng):
    eps = 0.7
    moved = symmetry.flow(symmetry.px(), eps, tf63_std)
    t, x = rng.uniform(0.0, 2.0, 50), rng.uniform(-10.0, 10.0, 50)
    for a, b in zip(moved(t, x), tf63_std(t, x - eps)):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kw,message", [
    (dict(kind="Pz"), "unknown operator kind 'Pz'"),
    (dict(kind="ExpA4WdV"),
     "ExpA4WdV expects coefficients ('a4',); missing ['a4'], unexpected []"),
    (dict(kind="Q1", a1=0.0), "Q1 divides by a1, which must not be zero"),
    (dict(kind="Case9Op", a1=0.0, a4=0.8),
     "Case9Op divides by a1, which must not be zero"),
    # accepted before: a NaN Q1 flow, a 0/0 flow, a coefficient unread
    (dict(kind="Q1", a1=math.nan), "Q1 coefficient a1 must be finite, got nan"),
    (dict(kind="WdV_minus_a4WdW", a4=0.0),
     "WdV_minus_a4WdW divides by a4, which must not be zero"),
    (dict(kind="UdV", a1=0.5),
     "UdV expects coefficients (); missing [], unexpected ['a1']"),
], ids=["unknown-kind", "missing-coefficient", "Q1-a1-zero",
        "Case9Op-a1-zero", "Q1-a1-nan", "WdV_minus_a4WdW-a4-zero",
        "UdV-a1-unread"])
def test_symmetry_op_construction_errors(kw, message):
    with pytest.raises(ConstraintError, match=f"^{re.escape(message)}$"):
        symmetry.SymmetryOp(**kw)


@pytest.mark.parametrize("kind", [k for k in symmetry.OP_KINDS
                                  if k != "Xinf"])
def test_only_xinf_takes_a_heat_profile(kind):
    # each of these built and dropped the profile
    kw = dict.fromkeys(symmetry.OP_COEFFS.get(kind, ()), 0.5)
    with pytest.raises(ConstraintError, match=f"^{kind} does not take a heat "
                                              f"profile \\(only Xinf reads "
                                              f"one\\)$"):
        symmetry.SymmetryOp(kind, profile=symmetry.heat_constant(2.0), **kw)
