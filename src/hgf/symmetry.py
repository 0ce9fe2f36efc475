"""Operator catalog: admissibility cases, finite one-parameter group flows
and solution-to-solution verification.

Each catalog row (`CASES`) names the operator kinds its coefficient case
admits; `op_for` builds any kind with the coefficients `OP_COEFFS` names,
exactly those its closed-form flow needs.  Invariance is verified
numerically: apply the finite flow to a known solution and check that the
residual of the transformed field still vanishes to stencil order.  The
flows below are the integrated characteristic systems of the catalog
generators, and `SymmetryOp.point_map` is their one code form.  The tests
check every (case, generator) pair of the table against the infinitesimal
invariance criterion in sympy, and pin `point_map` to this catalog.

Flow catalog (eps is the group parameter, fields at fixed (t, x)):

    Pt, Px                  time / space translations (always admissible)
    I                       (v, w) -> (e^eps v, e^eps w)
    Xinf(P)                 v -> v + eps P(t, x),  P_t = d2 P_xx
    Q1                      u -> e^(-a1 eps) u, v -> v + (1-e^(-a1 eps)) u/a1
    UdV                     v -> v + eps u
    Q2                      v -> v + eps e^t (u - 1)
    ExpA4WdV                v -> v + eps e^(a4 t) w
    WdV_minus_a4WdW         w -> e^(-a4 eps) w, v -> v + (1-e^(-a4 eps)) w/a4
    Case9Op                 u -> u + eps e^t s, v -> v - (eps/a1) e^t s with
                            the flow invariant s = ((a4-1)/a1) u + (a4-1) v
                            + w + (1-a4)/a1
    Case10Op                v -> v + eps u, w -> w + eps (a2-1)(u-1)
    Case12_WdV_minus_WdW    w -> e^(-eps) w, v -> v + (1-e^(-eps)) w
    Case12_UdV_plus_1mUdW   v -> v + eps u, w -> w + eps (1-u)
    Case12_ExpMinusT        v -> v + eps e^(-t) u, w -> w - eps e^(-t) u
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from . import calculus
from .errors import ConstraintError
from .model import Params, Solution, check_coefficients

# coefficients each operator kind's flow reads from the coefficient set,
# and those it divides by
OP_COEFFS = {"Q1": ("a1",), "ExpA4WdV": ("a4",), "WdV_minus_a4WdW": ("a4",),
             "Case9Op": ("a1", "a4"), "Case10Op": ("a2",), "Xinf": ("d2",)}
OP_DIVISORS = {"Q1": ("a1",), "WdV_minus_a4WdW": ("a4",), "Case9Op": ("a1",)}

_REL_TOL = 1e-12


def _eq(x: float, y: float) -> bool:
    return abs(x - y) <= _REL_TOL * max(1.0, abs(x), abs(y))


# ---------------------------------------------------------------------------
# heat-equation profiles for Xinf
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HeatProfile:
    """Closed-form solution of P_t = d2 P_xx, exact for each kind:
    constant a, affine a + b x, exponential a e^(mu x + d2 mu^2 t) and
    decaying-mode e^(-d2 mu^2 t) (a cos(mu x) + b sin(mu x))."""

    # each kind's coefficients, in the order its factory takes them
    COEFFS: ClassVar[dict] = {"constant": ("a",), "affine": ("a", "b"),
                              "exponential": ("a", "mu"),
                              "decaying-mode": ("a", "b", "mu")}

    kind: str
    a: float | None = None
    b: float | None = None
    mu: float | None = None

    @classmethod
    def coefficients(cls, kind: str) -> tuple[str, ...]:
        """The coefficients heat kind `kind` reads."""
        if kind not in cls.COEFFS:
            raise ConstraintError(f"unknown heat profile kind {kind!r}")
        return cls.COEFFS[kind]

    def __post_init__(self):
        check_coefficients(f"heat kind {self.kind}",
                           dict(a=self.a, b=self.b, mu=self.mu),
                           self.coefficients(self.kind))

    def __call__(self, t, x, d2: float):
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return self.a + np.zeros(np.broadcast(t, x).shape)
        if self.kind == "affine":
            return self.a + self.b * x + 0.0 * t
        if self.kind == "exponential":
            return self.a * np.exp(self.mu * x + d2 * self.mu**2 * t)
        return np.exp(-d2 * self.mu**2 * t) * (
            self.a * np.cos(self.mu * x) + self.b * np.sin(self.mu * x)
        )


def heat_constant(c0: float = 1.0) -> HeatProfile:
    return HeatProfile("constant", c0)


def heat_affine(c0: float, c1: float) -> HeatProfile:
    return HeatProfile("affine", c0, c1)


def heat_exponential(amp: float, mu: float) -> HeatProfile:
    return HeatProfile("exponential", amp, mu=mu)


def heat_decaying(amp: float, b: float, mu: float) -> HeatProfile:
    return HeatProfile("decaying-mode", amp, b, mu)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryOp:
    """One catalog operator with the coefficients its flow needs; Xinf
    alone takes a heat `profile`, a constant 1 if not given."""

    kind: str
    a1: float | None = None
    a2: float | None = None
    a4: float | None = None
    d2: float | None = None
    profile: HeatProfile | None = None

    def __post_init__(self):
        if self.kind not in OP_KINDS:
            raise ConstraintError(f"unknown operator kind {self.kind!r}")
        check_coefficients(self.kind, dict(a1=self.a1, a2=self.a2,
                                           a4=self.a4, d2=self.d2),
                           OP_COEFFS.get(self.kind, ()),
                           OP_DIVISORS.get(self.kind, ()))
        if self.kind == "Xinf" and self.profile is None:
            object.__setattr__(self, "profile", heat_constant(1.0))
        elif self.kind != "Xinf" and self.profile is not None:
            raise ConstraintError(f"{self.kind} does not take a heat profile "
                                  f"(only Xinf reads one)")

    # -- pointwise action ---------------------------------------------------

    def point_map(self, eps: float, t, x, u, v, w):
        """Finite flow acting on a prolonged point (t, x, u, v, w)."""
        k = self.kind
        if k == "Pt":
            return (t + eps, x, u, v, w)
        if k == "Px":
            return (t, x + eps, u, v, w)
        if k == "I":
            f = math.exp(eps)
            return (t, x, u, f * v, f * w)
        if k == "Xinf":
            return (t, x, u, v + eps * self.profile(t, x, self.d2), w)
        if k == "Q1":
            f = math.exp(-self.a1 * eps)
            return (t, x, f * u, v + (1.0 - f) * u / self.a1, w)
        if k == "UdV":
            return (t, x, u, v + eps * u, w)
        if k == "Q2":
            return (t, x, u, v + eps * np.exp(t) * (u - 1.0), w)
        if k == "ExpA4WdV":
            return (t, x, u, v + eps * np.exp(self.a4 * t) * w, w)
        if k == "WdV_minus_a4WdW":
            f = math.exp(-self.a4 * eps)
            return (t, x, u, v + (1.0 - f) * w / self.a4, f * w)
        if k == "Case9Op":
            a1, a4 = self.a1, self.a4
            s = ((a4 - 1.0) / a1) * u + (a4 - 1.0) * v + w + (1.0 - a4) / a1
            shift = eps * np.exp(t) * s
            return (t, x, u + shift, v - shift / a1, w)
        if k == "Case10Op":
            return (t, x, u, v + eps * u, w + eps * (self.a2 - 1.0) * (u - 1.0))
        if k == "Case12_WdV_minus_WdW":
            f = math.exp(-eps)
            return (t, x, u, v + (1.0 - f) * w, f * w)
        if k == "Case12_UdV_plus_1mUdW":
            return (t, x, u, v + eps * u, w + eps * (1.0 - u))
        # Case12_ExpMinusT
        shift = eps * np.exp(-np.asarray(t, dtype=float)) * u
        return (t, x, u, v + shift, w - shift)

    def admissible_for(self, p: Params) -> bool:
        """Is this operator in the catalog for coefficient set p, with
        matching coefficient data?"""
        if self.kind in ("Pt", "Px"):
            return True
        checks = {"a1": self.a1, "a2": self.a2, "a4": self.a4, "d2": self.d2}
        for name, val in checks.items():
            if val is not None and not _eq(val, getattr(p, name)):
                return False
        return any(self.kind in c.kinds for c in CASES if c.predicate(p))


def pt() -> SymmetryOp:
    return SymmetryOp(kind="Pt")


def px() -> SymmetryOp:
    return SymmetryOp(kind="Px")


def xinf(profile: HeatProfile, d2: float) -> SymmetryOp:
    return SymmetryOp(kind="Xinf", profile=profile, d2=d2)


def op_for(kind: str, p: Params, profile=None) -> SymmetryOp:
    """Operator `kind` with the coefficients `OP_COEFFS` names, from p."""
    return SymmetryOp(kind, profile=profile,
                      **{n: getattr(p, n) for n in OP_COEFFS.get(kind, ())})


# ---------------------------------------------------------------------------
# the twelve parameter cases
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseId:
    """One catalog row: its coefficient predicate and operator kinds."""

    case: int
    label: str
    predicate: Callable = field(repr=False)
    kinds: tuple[str, ...]

    def operators(self, p: Params) -> tuple[SymmetryOp, ...]:
        return tuple(op_for(kind, p) for kind in self.kinds)


def _z(x) -> bool:
    return x == 0.0


CASES: tuple[CaseId, ...] = (
    CaseId(1, "a1=0, a3=0, a5=0, a2!=0",
           lambda p: _z(p.a1) and _z(p.a3) and _z(p.a5) and p.a2 != 0,
           ("I",)),
    CaseId(2, "a1=0, a2=0, a5=0, a3!=0",
           lambda p: _z(p.a1) and _z(p.a2) and _z(p.a5) and p.a3 != 0,
           ("Xinf",)),
    CaseId(3, "a1=0, a2=0, a3=0, a5=0",
           lambda p: _z(p.a1) and _z(p.a2) and _z(p.a3) and _z(p.a5),
           ("I", "Xinf")),
    CaseId(4, "d1=d2, a2=1, a5=a1*a4, a1!=0",
           lambda p: p.d1 == p.d2 and p.a2 == 1.0 and p.a1 != 0
           and _eq(p.a5, p.a1 * p.a4),
           ("Q1",)),
    CaseId(5, "d1=d2, a1=0, a2=1, a5=0, a3!=0",
           lambda p: p.d1 == p.d2 and _z(p.a1) and p.a2 == 1.0
           and _z(p.a5) and p.a3 != 0,
           ("UdV", "Q2")),
    CaseId(6, "d1=d2, a1=0, a2=1, a3=0, a5=0",
           lambda p: p.d1 == p.d2 and _z(p.a1) and p.a2 == 1.0
           and _z(p.a3) and _z(p.a5),
           ("UdV", "I", "Q2")),
    CaseId(7, "d2=d3, a1=0, a2=a4, a3=0, a5=0",
           lambda p: p.d2 == p.d3 and _z(p.a1) and _eq(p.a2, p.a4)
           and _z(p.a3) and _z(p.a5),
           ("ExpA4WdV", "I")),
    CaseId(8, "d2=d3, a1=0, a2=0, a3=0, a5=0",
           lambda p: p.d2 == p.d3 and _z(p.a1) and _z(p.a2) and _z(p.a3)
           and _z(p.a5),
           ("WdV_minus_a4WdW", "I", "Xinf")),
    CaseId(9, "d1=d2=d3, a2=1, a3=0, a5=a1*a4, a1!=0",
           lambda p: p.d1 == p.d2 == p.d3 and p.a2 == 1.0 and _z(p.a3)
           and p.a1 != 0 and _eq(p.a5, p.a1 * p.a4),
           ("Q1", "Case9Op")),
    CaseId(10, "d1=d2=d3, a1=0, a3=0, a4=1, a5=0, a2 not in {0,1}",
           lambda p: p.d1 == p.d2 == p.d3 and _z(p.a1) and _z(p.a3)
           and p.a4 == 1.0 and _z(p.a5) and p.a2 not in (0.0, 1.0),
           ("I", "Case10Op")),
    CaseId(11, "d1=d2=d3, a1=0, a2=1, a3=0, a4=1, a5=0",
           lambda p: p.d1 == p.d2 == p.d3 and _z(p.a1) and p.a2 == 1.0
           and _z(p.a3) and p.a4 == 1.0 and _z(p.a5),
           ("UdV", "ExpA4WdV", "I", "Q2")),
    CaseId(12, "d1=d2=d3, a1=0, a2=0, a3=0, a4=1, a5=0",
           lambda p: p.d1 == p.d2 == p.d3 and _z(p.a1) and _z(p.a2)
           and _z(p.a3) and p.a4 == 1.0 and _z(p.a5),
           ("Case12_WdV_minus_WdW", "Case12_UdV_plus_1mUdW",
            "Case12_ExpMinusT", "I", "Xinf")),
)

_PRINCIPAL = CaseId(0, "principal (all coefficient sets)", lambda p: True,
                    ("Pt", "Px"))

# every operator kind, in the order the table first names it
OP_KINDS = tuple(dict.fromkeys(
    kind for c in (_PRINCIPAL, *CASES) for kind in c.kinds))


def admissible_ops(p: Params) -> list[tuple[CaseId, tuple[SymmetryOp, ...]]]:
    """Every satisfied catalog case with its operators.

    The principal translations always appear first (case number 0); the
    remaining entries list only each case's nontrivial extensions.
    """
    return [(c, c.operators(p)) for c in (_PRINCIPAL, *CASES)
            if c.predicate(p)]


# ---------------------------------------------------------------------------
# flows on solutions
# ---------------------------------------------------------------------------


def flow(op: SymmetryOp, eps: float, sol: Solution) -> Solution:
    """Transformed solution under the finite flow of `op`.

    The pairing must be admissible: `op` has to belong to a catalog case
    satisfied by the solution's coefficient set.  The flow reads the
    fields through `sol(t, x)`, so an undefined component of the input
    enters as zeros; the result defines all three components.
    """
    params = sol.params
    if params is not None and not op.admissible_for(params):
        raise ConstraintError(
            f"operator {op.kind} is not admissible for params {params}"
        )

    if op.kind == "Pt":
        def evaluate(t, x):
            return sol(np.asarray(t, dtype=float) - eps, x)
    elif op.kind == "Px":
        def evaluate(t, x):
            return sol(t, np.asarray(x, dtype=float) - eps)
    else:
        def evaluate(t, x):
            return op.point_map(eps, t, x, *sol(t, x))[2:]

    return Solution(evaluate=evaluate, params=params,
                    key=f"{sol.key}+{op.kind}({eps})" if sol.key else "",
                    meta={"op": op.kind, "eps": eps})


def flow_group_check(op: SymmetryOp, eps1: float, eps2: float,
                     points, rel_tol: float = 1e-12) -> bool:
    """One-parameter group axioms on a point sample set.

    Checks flow(eps1) o flow(eps2) = flow(eps1 + eps2) and
    flow(0) = identity, entrywise within `rel_tol` relative.
    """
    t, x, u, v, w = (np.asarray(a, dtype=float) for a in points)

    def close(a, b):
        a = np.broadcast_arrays(a, b)[0]
        scale = 1.0 + np.maximum(np.abs(a), np.abs(np.asarray(b)))
        return bool(np.all(np.abs(a - b) <= rel_tol * scale))

    step2 = op.point_map(eps2, t, x, u, v, w)
    comp = op.point_map(eps1, *step2)
    direct = op.point_map(eps1 + eps2, t, x, u, v, w)
    ident = op.point_map(0.0, t, x, u, v, w)
    orig = (t, x, u, v, w)
    return all(close(a, b) for a, b in zip(comp, direct)) and all(
        close(a, b) for a, b in zip(ident, orig)
    )


def verify_flow_maps_solutions(op: SymmetryOp, eps: float, sol, window,
                               h: float):
    """Residual reports before and after the flow on the same window.

    `window` is (t, x_min, x_max); both residuals use dt = h.  A passing
    pair has after-norms bounded by a small multiple of the before-norms
    plus stencil truncation.
    """
    t, x_min, x_max = window
    params = sol.params
    grid = calculus.SpaceGrid.from_spacing(x_min, x_max, h)
    dt = grid.h
    before = calculus.pde_residual(params, sol, grid, t, dt)
    after = calculus.pde_residual(params, flow(op, eps, sol), grid, t, dt)
    return before, after
