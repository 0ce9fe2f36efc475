"""Parameter space, reaction kinetics and steady states of the
three-component hunter-gatherer / farmer (HGF) reaction-diffusion system.

Two parameter records exist: `OriginalParams` holds the dimensional
coefficients of the population model (diffusivities, growth rates,
carrying capacities, conversion rates); `Params` holds the eight
nondimensional coefficients a1..a5, d1..d3 of the rescaled system

    u_t = d1 u_xx + u (1 - u - a1 v)
    v_t = d2 v_xx + a2 v (1 - u - a1 v) + u w + a1 v w
    w_t = d3 w_xx + a3 w (1 - w) - a4 u w - a5 v w

All operations here are pure functions of immutable records and are safe
to share across threads.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .errors import ConstraintError

# absolute tolerance on kinetics components when deciding "is a steady
# state"; closed-form states are exact so only roundoff remains
STEADY_TOL = 1e-12


def kinetics(a, u, v, w, lead):
    """The nondimensional reaction rates, each added onto a leading term.

    `a` is (a1, .., a5) and `lead` holds one leading term per component;
    returns (lead[0] + C1, lead[1] + C2, lead[2] + C3), every sum taken
    left to right.  This is the only place the kinetics are written: the
    method-of-lines right-hand side passes d*u_xx, the plane-wave
    reduction R58 passes alpha*U', and `Params.reaction` passes -0.0.
    Broadcasts over numpy arrays.  Where `lead` holds arrays the rates are
    added onto them in place and those arrays are returned; scalar leading
    terms are left alone.  A None leading term skips its component's rate
    and is returned as it is: the MOL kernel passes None for a component
    it does not step (`inert_components`).
    """
    a1, a2, a3, a4, a5 = a
    l1, l2, l3 = lead
    a1v = a1 * v
    g = 1.0 - u - a1v
    if l1 is not None:
        l1 += u * g
    if l2 is not None:
        l2 += a2 * v * g
        l2 += u * w
        l2 += a1v * w
    if l3 is not None:
        l3 += a3 * w * (1.0 - w)
        l3 -= a4 * u * w
        l3 -= a5 * v * w
    return l1, l2, l3


def inert_components(zero) -> tuple[int, ...]:
    """The components, of those indexed in `zero` (0, 1, 2 for u, v, w),
    whose rates in `kinetics` vanish while they are zero, whatever the
    others hold: u (C1 has the factor u), w (C3 has the factor w), and v
    with u or w (C2 = a2 v g + (u + a1 v) w).  v alone is not inert: u w
    feeds it.  Every such set leaves the rest a contiguous range."""
    u, v, w = (c in zero for c in range(3))
    return tuple(c for c, inert in enumerate((u, v and (u or w), w))
                 if inert)


def finite_real(v) -> bool:
    """Is `v` a finite real number?  A bool is not one, though Python
    counts it an int, and neither is a string or None."""
    # the float test first: the numbers.Real check costs more
    return ((type(v) is float
             or (isinstance(v, numbers.Real) and type(v) is not bool))
            and math.isfinite(v))


def check_coefficients(label: str, given: dict, names: tuple | None = None,
                       divisors: tuple[str, ...] = (),
                       exempt: tuple[str, ...] = ()) -> None:
    """The one coefficient rule of every catalog record, one message per
    rule: the names given are exactly `names` (when given), each value is
    a finite real (`finite_real`), and no coefficient named in `divisors`
    is zero.
    `given` maps names to values, None meaning not given; values named in
    `exempt` (a record, a case label) are left to their own rules.
    `label` names the record in the ConstraintError raised."""
    given = {k: v for k, v in given.items() if v is not None}
    if names is not None and given.keys() != set(names):
        missing = [k for k in names if k not in given]
        extra = [k for k in given if k not in names]
        raise ConstraintError(
            f"{label} expects coefficients {tuple(names)}; "
            f"missing {missing}, unexpected {extra}")
    for name, v in given.items():
        if name in exempt:
            continue
        if not finite_real(v):
            raise ConstraintError(
                f"{label} coefficient {name} must be finite, got {v!r}")
        if v == 0 and name in divisors:
            raise ConstraintError(
                f"{label} divides by {name}, which must not be zero")


@dataclass(frozen=True)
class OriginalParams:
    """Dimensional coefficients of the population model.

    d_f, d_c, d_h: diffusivities of initial farmers, converted farmers and
    hunter-gatherers; r_f, r_c, r_h: intrinsic growth rates; K, L: carrying
    capacities; e1, e2: conversion rates of hunter-gatherers to initial and
    converted farmers.
    """

    d_f: float
    d_c: float
    d_h: float
    r_f: float
    r_c: float
    r_h: float
    K: float
    L: float
    e1: float
    e2: float

    def __post_init__(self):
        check_coefficients("OriginalParams", vars(self), tuple(vars(self)))
        for name, v in vars(self).items():
            # e2, r_c and r_h may vanish, every other coefficient is positive
            sign = ">=" if name in ("e2", "r_c", "r_h") else ">"
            if v < 0 or (v == 0 and sign == ">"):
                raise ConstraintError(f"OriginalParams requires {name} {sign} "
                                      f"0 (got {name} = {v!r})")

    @property
    def diffusivities(self) -> tuple[float, float, float]:
        return (self.d_f, self.d_c, self.d_h)

    def reaction(self, F, C, H):
        """Dimensional reaction rates for the (F, C, H) densities."""
        crowd = 1.0 - (self.e1 * F + self.e2 * C) / self.K
        r1 = self.r_f * F * crowd
        r2 = self.r_c * C * crowd + self.e1 * F * H + self.e2 * C * H
        r3 = self.r_h * H * (1.0 - H / self.L) - self.e1 * F * H - self.e2 * C * H
        return (r1, r2, r3)


PARAM_NAMES = ("a1", "a2", "a3", "a4", "a5", "d1", "d2", "d3")


@dataclass(frozen=True)
class Params:
    """Nondimensional coefficients a1..a5 and diffusivities d1..d3."""

    a1: float
    a2: float
    a3: float
    a4: float
    a5: float
    d1: float = 1.0
    d2: float = 1.0
    d3: float = 1.0

    def __post_init__(self):
        check_coefficients("Params", vars(self), PARAM_NAMES)
        if self.a4 == 0:
            raise ConstraintError("Params requires a4 != 0")
        for name in ("d1", "d2", "d3"):
            if not getattr(self, name) > 0:
                raise ConstraintError(
                    f"Params requires {name} > 0 (got {getattr(self, name)!r})"
                )

    @property
    def diffusivities(self) -> tuple[float, float, float]:
        return (self.d1, self.d2, self.d3)

    @property
    def a_coefficients(self) -> tuple[float, float, float, float, float]:
        return (self.a1, self.a2, self.a3, self.a4, self.a5)

    def reaction(self, u, v, w):
        """Reaction rates (C1, C2, C3); defined for all real triples."""
        # -0.0 is the exact additive identity (0.0 + -0.0 would be +0.0)
        return kinetics(self.a_coefficients, u, v, w, (-0.0, -0.0, -0.0))

    def with_unit_d1(self) -> "Params":
        """Equivalent coefficient set with d1 scaled to 1 (space rescaling)."""
        return replace(self, d1=1.0, d2=self.d2 / self.d1, d3=self.d3 / self.d1)


def rescale_params(orig: OriginalParams) -> Params:
    """Map dimensional coefficients onto the nondimensional ones.

    a1 = e2 L / r_f, a2 = r_c / r_f, a3 = r_h / r_f, a4 = K / r_f,
    a5 = e2 K L / r_f^2; diffusivities pass through unchanged.
    `OriginalParams` holds K > 0 and r_f > 0 only, so no division is by
    zero and a4 never vanishes.
    """
    r = orig.r_f
    return Params(
        a1=orig.e2 * orig.L / r,
        a2=orig.r_c / r,
        a3=orig.r_h / r,
        a4=orig.K / r,
        a5=orig.e2 * orig.K * orig.L / (r * r),
        d1=orig.d_f,
        d2=orig.d_c,
        d3=orig.d_h,
    )


# ---------------------------------------------------------------------------
# solution samplers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Solution:
    """A (t, x) -> (u, v, w) sampler bundled with its coefficient set.

    `evaluate` is the raw formula: it must broadcast over numpy arrays in
    t and x and return a triple whose entries are arrays, scalars, or None
    for a component the sampler does not define.  Calling the solution is
    the sampler contract every consumer reads: three float arrays of the
    broadcast shape of t and x, with zeros for an undefined component.
    `components` names the components that are defined.
    """

    evaluate: Callable = field(repr=False)
    params: Params | None = None
    components: tuple[str, ...] = ("u", "v", "w")
    speed: float | None = None
    endpoint_states: tuple | None = None  # ((u,v,w) as x -> -inf, as x -> +inf)
    t_limit: Callable | None = field(default=None, repr=False)
    warnings: tuple[str, ...] = ()
    key: str = ""
    meta: dict = field(default_factory=dict)

    def __call__(self, t, x):
        """(u, v, w) at (t, x): three separate float arrays of the
        broadcast shape of t and x; an undefined component is zeros.
        Values are broadcast, never added to zeros, so a -0.0 keeps its
        sign; an array already of that shape is returned as it is."""
        shape = np.broadcast(t, x).shape
        fields = (np.zeros(shape) if f is None else np.asarray(f, dtype=float)
                  for f in self.evaluate(t, x))
        return tuple(f if f.shape == shape else np.broadcast_to(f, shape).copy()
                     for f in fields)


def reflect_solution(sol: Solution) -> Solution:
    """Mirror a solution in space: returns (t, x) -> sol(t, -x).

    An involution; endpoint states swap sides and a traveling front's
    speed changes sign.
    """
    def evaluate(t, x):
        return sol(t, np.negative(x))

    return replace(
        sol,
        evaluate=evaluate,
        speed=None if sol.speed is None else -sol.speed,
        endpoint_states=None
        if sol.endpoint_states is None
        else tuple(reversed(sol.endpoint_states)),
        t_limit=None,
        meta={**sol.meta, "reflected": not sol.meta.get("reflected", False)},
    )


def unrescale_solution(orig: OriginalParams, sol: Solution) -> Solution:
    """Dimensional sampler (T, X) -> (F, C, H) from a nondimensional one.

    Uses the substitution that produces the nondimensional system exactly:
    the dimensional field at (T, X) is read off the nondimensional solution
    at (r_f T, sqrt(r_f) X), with amplitudes F = (K/e1) u, C = (K L / r_f) v,
    H = L w.
    """
    r = orig.r_f
    sq = math.sqrt(r)
    cF = orig.K / orig.e1
    cC = orig.K * orig.L / r
    cH = orig.L

    def evaluate(T, X):
        u, v, w = sol(np.asarray(T) * r, np.asarray(X) * sq)
        return (cF * u, cC * v, cH * w)

    return Solution(evaluate=evaluate, params=None, components=sol.components,
                    meta={"dimensional": True})


# ---------------------------------------------------------------------------
# steady states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SteadyState:
    """A constant solution, or an affine family of them: the anchor state
    `point` plus the span of 0, 1 or 2 `directions`."""

    point: tuple[float, float, float]
    directions: tuple[tuple[float, float, float], ...] = ()

    @property
    def kind(self) -> str:
        return ("isolated-point", "line-family",
                "plane-family")[len(self.directions)]

    def sample(self, *s: float) -> tuple[float, float, float]:
        out = np.asarray(self.point, dtype=float)
        for si, d in zip(s, self.directions):
            out = out + si * np.asarray(d)
        return tuple(out)

    def distance(self, state) -> float:
        """Euclidean distance from `state` to the represented set."""
        q = np.asarray(state, dtype=float) - np.asarray(self.point, dtype=float)
        for d in self.directions:
            dv = np.asarray(d, dtype=float)
            dv = dv / np.linalg.norm(dv)
            q = q - np.dot(q, dv) * dv
        return float(np.linalg.norm(q))

    def contains(self, state, tol: float = 1e-9) -> bool:
        return self.distance(state) <= tol


def _solve2(r1, r2):
    """Solution set of a v + b w = c for the rows (a, b, c) r1 and r2:
    ((v, w) anchor, directions), or None when empty.  The rank is decided
    exactly; a rank-1 system is consistent when its other two 2x2 minors
    vanish to 1e-14 relative (roundoff only)."""
    (a, b, c), (d, e, f) = r1, r2
    det = a * e - b * d
    if det != 0.0:
        return ((c * e - b * f) / det, (a * f - c * d) / det), ()
    rows = [r for r in (r1, r2) if r[:2] != (0.0, 0.0)]
    if not rows:
        plane = ((0.0, 0.0), ((1.0, 0.0), (0.0, 1.0)))
        return plane if c == f == 0.0 else None
    if any(abs(x - y) > 1e-14 * max(1.0, abs(x), abs(y))
           for x, y in ((a * f, c * d), (b * f, c * e))):
        return None
    p, q, r = rows[0]
    if q != 0.0:
        return (0.0, r / q), ((1.0, -p / q),)
    return (r / p, 0.0), ((0.0, 1.0),)


def steady_states(p: Params) -> list[SteadyState]:
    """All constant solutions of the kinetics, as points, lines and planes.

    Off u = 0, C1 = 0 gives u + a1 v = 1, where C2 = w: the coexistence
    line (1 - a1 s, s, 0).  On u = 0, C2 = v L1 and C3 = w L2 with
    L1 = a2 (1 - a1 v) + a1 w and L2 = a3 (1 - w) - a5 v, so the rest is
    the union of the solution sets of the four linear systems
    {v = 0 or L1 = 0} x {w = 0 or L2 = 0} in (v, w).  A set is reported
    unless an earlier state contains it, a point only if its kinetics
    vanish to STEADY_TOL.
    """
    a1, a2, a3, _, a5 = p.a_coefficients
    out = [SteadyState((1.0, 0.0, 0.0), ((-a1, 1.0, 0.0),))]
    for r1 in ((1.0, 0.0, 0.0), (-a1 * a2, a1, -a2)):
        for r2 in ((0.0, 1.0, 0.0), (a5, a3, a3)):
            sol = _solve2(r1, r2)
            if sol is None:
                continue
            (v, w), dirs = sol
            pts = [(0.0, v, w), *((0.0, v + dv, w + dw) for dv, dw in dirs)]
            if any(all(s.contains(q, tol=1e-12) for q in pts) for s in out):
                continue
            if not dirs and max(map(abs, p.reaction(*pts[0]))) > STEADY_TOL:
                continue
            out.append(SteadyState((0.0, v, w),
                                   tuple((0.0, dv, dw) for dv, dw in dirs)))
    return out
