"""Symbolic oracle for the symmetry catalog (sympy; tests only).

The finite flows below are written here from the flow catalog in the
`hgf.symmetry` docstring, not read from the code, and the kinetics are
the model equations in the `hgf.model` docstring.  Each generator is
d/d(eps) at eps = 0 of its flow.  For every (case, operator) pair that
the catalog table lists, the infinitesimal invariance criterion for a
generator that moves the fields only,

    D_t eta^k - d_k D_x^2 eta^k - sum_j eta^j dC_k/du_j = 0,

must hold on solutions of the PDE under that case's coefficient
conditions (Olver 1993, GTM 107, ch. 2; Cherniha & King 2000,
J. Phys. A 33:267).  The flows are then pinned numerically to
`SymmetryOp.point_map`, the one code form of the catalog.
"""

import numpy as np
import pytest
import sympy as sp

from hgf import symmetry
from hgf.model import Params

t, x, eps = sp.symbols("t x eps")
a1, a2, a3, a4, a5 = sp.symbols("a1:6")
d1, d2, d3 = sp.symbols("d1:4")
U, V, W = FIELDS = tuple(sp.Function(n)(t, x) for n in "uvw")
P = sp.Function("P")(t, x)  # any solution of P_t = d2 P_xx
D = (d1, d2, d3)

_g = 1 - U - a1 * V
C = (U * _g,
     a2 * V * _g + U * W + a1 * V * W,
     a3 * W * (1 - W) - a4 * U * W - a5 * V * W)

# the flow invariant of Case9Op
_s = ((a4 - 1) / a1) * U + (a4 - 1) * V + W + (1 - a4) / a1

# finite flows (u, v, w) -> (u', v', w'), from the module docstring
FLOWS = {
    "I": (U, sp.exp(eps) * V, sp.exp(eps) * W),
    "Xinf": (U, V + eps * P, W),
    "Q1": (sp.exp(-a1 * eps) * U, V + (1 - sp.exp(-a1 * eps)) * U / a1, W),
    "UdV": (U, V + eps * U, W),
    "Q2": (U, V + eps * sp.exp(t) * (U - 1), W),
    "ExpA4WdV": (U, V + eps * sp.exp(a4 * t) * W, W),
    "WdV_minus_a4WdW": (U, V + (1 - sp.exp(-a4 * eps)) * W / a4,
                        sp.exp(-a4 * eps) * W),
    "Case9Op": (U + eps * sp.exp(t) * _s, V - eps * sp.exp(t) * _s / a1, W),
    "Case10Op": (U, V + eps * U, W + eps * (a2 - 1) * (U - 1)),
    "Case12_WdV_minus_WdW": (U, V + (1 - sp.exp(-eps)) * W,
                             sp.exp(-eps) * W),
    "Case12_UdV_plus_1mUdW": (U, V + eps * U, W + eps * (1 - U)),
    "Case12_ExpMinusT": (U, V + eps * sp.exp(-t) * U,
                         W - eps * sp.exp(-t) * U),
}

# each case's coefficient conditions as substitutions; the inequalities
# of the labels (a1 != 0, a3 != 0, ...) only exclude degenerate sets
CONDITIONS = {
    1: {a1: 0, a3: 0, a5: 0},
    2: {a1: 0, a2: 0, a5: 0},
    3: {a1: 0, a2: 0, a3: 0, a5: 0},
    4: {d2: d1, a2: 1, a5: a1 * a4},
    5: {d2: d1, a1: 0, a2: 1, a5: 0},
    6: {d2: d1, a1: 0, a2: 1, a3: 0, a5: 0},
    7: {d3: d2, a1: 0, a2: a4, a3: 0, a5: 0},
    8: {d3: d2, a1: 0, a2: 0, a3: 0, a5: 0},
    9: {d2: d1, d3: d1, a2: 1, a3: 0, a5: a1 * a4},
    10: {d2: d1, d3: d1, a1: 0, a3: 0, a4: 1, a5: 0},
    11: {d2: d1, d3: d1, a1: 0, a2: 1, a3: 0, a4: 1, a5: 0},
    12: {d2: d1, d3: d1, a1: 0, a2: 0, a3: 0, a4: 1, a5: 0},
}

# a generic coefficient set: distinct, nonzero, a2 not in {0, 1}
_GENERIC = {a1: 0.3, a2: 0.7, a3: 0.9, a4: 1.1, a5: 0.2,
            d1: 1.3, d2: 1.7, d3: 2.1}


def _params(case: int) -> Params:
    """The generic set with the case's conditions imposed."""
    vals = {**_GENERIC, **{s: sp.sympify(e).subs(_GENERIC)
                           for s, e in CONDITIONS[case].items()}}
    return Params(**{s.name: float(v) for s, v in vals.items()})


def _eta(kind: str) -> tuple:
    return tuple(sp.diff(f, eps).subs(eps, 0) for f in FLOWS[kind])


def _criterion(eta, conditions) -> list:
    """The three invariance residuals on solutions, expanded."""
    heat = {sp.Derivative(P, t): d2 * sp.Derivative(P, (x, 2))}
    pde = {sp.Derivative(f, t): d * sp.Derivative(f, (x, 2)) + c
           for f, d, c in zip(FIELDS, D, C)}
    out = []
    for k in range(3):
        r = (sp.diff(eta[k], t) - D[k] * sp.diff(eta[k], x, 2)
             - sum(eta[j] * sp.diff(C[k], FIELDS[j]) for j in range(3)))
        # P_t first: with d2 -> d1 applied before it, case 12's Xinf
        # would show a false (d2 - d1) P_xx
        r = r.subs(heat).subs(pde).subs(conditions, simultaneous=True)
        out.append(sp.expand(r))
    return out


PAIRS = [(c.case, op.kind) for c in symmetry.CASES
         for op in c.operators(_params(c.case))]


def test_conditions_cover_the_table():
    assert sorted(CONDITIONS) == [c.case for c in symmetry.CASES]
    assert len(PAIRS) == 28
    assert {kind for _, kind in PAIRS} == set(FLOWS)


@pytest.mark.parametrize("case", sorted(CONDITIONS))
def test_conditions_meet_the_row_predicate(case):
    row, = [c for c in symmetry.CASES if c.case == case]
    assert row.predicate(_params(case))


@pytest.mark.parametrize("case,kind", PAIRS,
                         ids=[f"case{c}-{k}" for c, k in PAIRS])
def test_generator_is_a_symmetry_of_its_case(case, kind):
    assert _criterion(_eta(kind), CONDITIONS[case]) == [0, 0, 0]


def test_oracle_sees_a_dropped_condition():
    # case 4 without a5 = a1 a4: Q1 leaves u w (a5 - a1 a4) in the w row
    loose = {k: v for k, v in CONDITIONS[4].items() if k != a5}
    r = _criterion(_eta("Q1"), loose)
    assert r[:2] == [0, 0]
    assert sp.expand(r[2] - U * W * (a5 - a1 * a4)) == 0


# Xinf's P in the pin: a decaying mode of P_t = d2 P_xx, written out here
amp, b, mu = sp.symbols("amp b mu")
_HEAT = sp.exp(-d2 * mu**2 * t) * (amp * sp.cos(mu * x) + b * sp.sin(mu * x))
_MODE = {amp: 0.7, b: 0.4, mu: 1.3}
_UVW = sp.symbols("u v w")
_COEFFS = (a1, a2, a4, d2, amp, b, mu)


@pytest.mark.parametrize("kind", FLOWS)
def test_point_map_is_the_catalog_flow(kind, rng):
    exprs = [f.subs(P, _HEAT).subs(dict(zip(FIELDS, _UVW)))
             for f in FLOWS[kind]]
    flow = sp.lambdify((eps, t, x, *_UVW, *_COEFFS), [t, x, *exprs], "numpy")
    values = {**_GENERIC, **_MODE}
    heat = symmetry.heat_decaying(*_MODE.values())  # Xinf alone takes it
    op = symmetry.op_for(kind, Params(**{s.name: v for s, v in
                                         _GENERIC.items()}),
                         heat if kind == "Xinf" else None)
    point = (rng.uniform(-1.5, 1.5, 1000), rng.uniform(-5.0, 5.0, 1000),
             *rng.uniform(-1.5, 1.5, (3, 1000)))
    for e in (-0.7, 0.3, 1.1):
        got = op.point_map(e, *point)
        want = flow(e, *point, *(values[s] for s in _COEFFS))
        for g, w in zip(got, want):
            gap = np.max(np.abs(g - w) / (1.0 + np.abs(w)))
            assert gap <= 1e-13, (e, gap)
