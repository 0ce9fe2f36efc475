"""Reduced ODE systems, profile integration and reduction checks.

Catalog ids (CLI contract).  Second-order systems are integrated in
first-order form with the state (U, U', V, V', W, W'); first-order ones
use (U, V, W); the scalar linear profile equations use (Y, Y').

    R35   front-shaped reduction with free u-exponent (omega-based)
    R38   separable reduction of the same system (t-based)
    R47   reduction of the a1 = 0, a2 = 1 system (omega-based)
    R58   plane-wave reduction of the general system (omega-based)
    T2a-d reductions tied to the no-logistic-w system (two omega-based,
          two t-based rows)
    L36   linear equation for the free u-profile of the semi35 families
    L52   linear equation for the free v-profile of the semi50/51 families

`integrate` is the one integrator: an embedded Runge-Kutta 4(5) pair
with PI step control, stepping a list of Python floats (numpy calls on
2- to 6-entry states cost more than their arithmetic).  `dense_profile`
fills a uniform table from it.  Both return a `ProfileTrajectory`, the
nodes and states only, of at least `MIN_NODES` nodes; its one
interpolant, the quintic spline through the nodes, is evaluated in
power-basis form and sits below second-order stencil floors.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import calculus, solutions
from ._kernels import ode_rk4_table  # noqa: F401  (wrapped by perfbench)
from .errors import ConstraintError, DomainError, NumericalError
from .model import Params, check_coefficients, kinetics


# ---------------------------------------------------------------------------
# reduced systems
#
# Each system is written once, as one equations function eqs(*coeffs, x, y)
# that returns dy/dx as a list: the parameters before x name the
# coefficients in order, and y is the state in first-order form.  A
# second-order system returns its U', V', W' rows (or the single profile's
# slope) from the state itself.  The state is a list of floats in the
# stepping loops, one node as an ndarray in `ReducedSystem.rhs`, or of
# shape (dim, n) with x of shape (n,) to evaluate n nodes at once; the
# arithmetic is the same in all three.  `SystemSpec.first_order` copies the
# list into a new ndarray for the last two, as its U' rows are the state's.
# ---------------------------------------------------------------------------


def _tanh(x):
    """math.tanh, elementwise on arrays: np.tanh differs from it in the
    last bit, and a node's derivative must not depend on how many nodes
    are evaluated together."""
    if isinstance(x, float):  # np.float64 too; np.ndim is slow on floats
        return math.tanh(x)
    return np.array([math.tanh(v) for v in x])


def _R35(alpha, a1, beta, a3, a4, d, x, y):
    U, Up, V, Vp, W, Wp = y
    return [Up, -alpha * Up - U * (1.0 + a1 * beta - a1 * V),
            Vp, -alpha * Vp - V * (1.0 - a1 * V + a1 * W),
            Wp, (-alpha * Wp - a3 * W * (1.0 - W) + a1 * a4 * V * W) / d]


def _R38(beta, a1, a3, a4, x, y):
    U, V, W = y
    return [-U * (a1 * V - 1.0 - beta * beta * a1 * a1),
            -V * (a1 * V - a1 * W - 1.0),
            -W * (a3 * W + a1 * a4 * V - a3)]


def _R47(alpha, beta, a3, a4, d, x, y):
    U, Up, V, Vp, W, Wp = y
    return [Up, -alpha * Up - U * (1.0 - U),
            Vp, -alpha * Vp - V * (1.0 - U) - U * (W - beta),
            Wp, (-alpha * Wp - a3 * W * (1.0 - W) + a4 * U * W) / d]


def _R58(alpha, a1, a2, a3, a4, a5, d2, d3, x, y):
    """d P'' + alpha P' + C(U, V, W) = 0 with d1 = 1."""
    U, Up, V, Vp, W, Wp = y
    cu, cv, cw = kinetics((a1, a2, a3, a4, a5), U, V, W,
                          (alpha * Up, alpha * Vp, alpha * Wp))
    return [Up, -cu, Vp, -cv / d2, Wp, -cw / d3]


def _T2a(alpha, beta, a1, a4, x, y):
    U, Up, V, Vp, W, Wp = y
    return [Up, -alpha * Up - U * (1.0 + a1 * beta - a1 * V),
            Vp, -alpha * Vp - V * (1.0 - a1 * V + a1 * W),
            Wp, -alpha * Wp + a1 * a4 * V * W]


def _T2b(alpha, gamma, a1, a4, x, y):
    U, Up, V, Vp, W, Wp = y
    s = (a4 - 1.0) * V + W + (1.0 - a4) / a1
    return [Up, -alpha * Up + a1 * U * V + gamma * s,
            Vp, -alpha * Vp - V * (1.0 - a1 * V + a1 * W),
            Wp, -alpha * Wp + a1 * a4 * V * W]


def _T2c(beta, a1, a4, x, y):
    U, V, W = y
    return [-U * (a1 * V - 1.0 - a1 * a1 * beta * beta),
            -V * (a1 * V - a1 * W - 1.0),
            -a1 * a4 * V * W]


def _T2d(a1, a4, x, y):
    U, V, W = y
    return [-U * (a1 * V - 1.0),
            -V * (a1 * V - a1 * W - 1.0),
            -a1 * a4 * V * W]


def _L36(alpha, a1, beta, kappa1, kappa2, x, y):
    U, Up = y
    phi = 1.0 - _tanh(kappa2 * x / (2.0 * solutions.SQRT6))
    return [Up, -alpha * Up - U * (1.0 + a1 * beta - kappa1 * phi * phi)]


def _L52(alpha, beta, a4, case, x, y):  # case 50: 1.0, 51: 0.0
    V, Vp = y
    phi = 1.0 - _tanh(x / (2.0 * solutions.SQRT6))
    U = 0.25 * phi * phi
    if case > 0.5:
        W = 0.25 * (1.0 - a4) * phi * phi
    else:
        W = 1.0 - 0.25 * phi * phi
    return [Vp, -alpha * Vp - V * (1.0 - U) - U * (W - beta)]


@dataclass(frozen=True)
class SystemSpec:
    """Catalog facts of one reduced system; everything else is derived.

    `equations` is the system (see above); its parameters before x name
    the coefficients (`coeffs`).  A `takes_params` system is built from
    (alpha, params) and reads the other coefficients from the Params
    record.  `ansatz` reconstructs a PDE solution from the profiles and
    fixes the independent variable.  `row_scale` maps an equation row to
    the coefficient multiplying its highest derivative (absent: 1);
    residual rows are reported in that scale.  The equations divide by
    the coefficients named in `divisors` (R58's come from Params, whose
    diffusivities are positive).
    """

    sid: str
    equations: Callable = field(repr=False)
    order: int
    profiles: tuple[str, ...]
    ansatz: str
    row_scale: dict = field(default_factory=dict)
    defaults: dict = field(default_factory=dict)
    divisors: tuple[str, ...] = ()
    takes_params: bool = False

    @cached_property
    def coeffs(self) -> tuple[str, ...]:
        return tuple(inspect.signature(self.equations).parameters)[:-2]

    @property
    def dim(self) -> int:
        return self.order * len(self.profiles)

    @property
    def ivar(self) -> str:
        omega_based = "alpha" in solutions.ANSATZ_COEFFS[self.ansatz]
        return "omega" if omega_based else "t"

    @property
    def arguments(self) -> tuple[str, ...]:
        """Keyword names `reduced_system` takes for this system."""
        return ("alpha", "params") if self.takes_params else self.coeffs

    def first_order(self, x, y, *c):
        """dy/dx at the first-order state y, coefficient values c: a list
        for a list state, else a new ndarray."""
        dy = self.equations(*c, x, y)
        return dy if type(y) is list else np.array(dy)


_UVW = ("U", "V", "W")
SYSTEMS = {s.sid: s for s in (
    SystemSpec("R35", _R35, 2, _UVW, "A34", row_scale={2: "d"},
               divisors=("d",)),
    SystemSpec("R38", _R38, 1, _UVW, "A37"),
    SystemSpec("R47", _R47, 2, _UVW, "A44", row_scale={2: "d"},
               divisors=("d",)),
    SystemSpec("R58", _R58, 2, _UVW, "plane", row_scale={1: "d2", 2: "d3"},
               divisors=("d2", "d3"), takes_params=True),
    SystemSpec("T2a", _T2a, 2, _UVW, "T2a"),
    SystemSpec("T2b", _T2b, 2, _UVW, "T2b", divisors=("a1",)),
    SystemSpec("T2c", _T2c, 1, _UVW, "T2c"),
    SystemSpec("T2d", _T2d, 1, _UVW, "T2d"),
    SystemSpec("L36", _L36, 2, ("U",), "A34"),
    SystemSpec("L52", _L52, 2, ("V",), "A44",
               defaults={"alpha": solutions.FISHER_SPEED, "a4": 0.0}),
)}


@dataclass(frozen=True)
class ReducedSystem:
    """One reduced ODE system in first-order form."""

    spec: SystemSpec
    coeffs: dict
    kcoeffs: tuple[float, ...] = field(repr=False)

    @property
    def sid(self) -> str:
        return self.spec.sid

    @property
    def code(self) -> Callable:
        """Alias of `spec.first_order`, read only by the benchmark harness
        (``kernel(system.code, system.kcoeffs, ...)``, an ndarray initial
        state; `ode_rk4_table` steps it as a list all the same)."""
        return self.spec.first_order

    @property
    def dim(self) -> int:
        return self.spec.dim

    @property
    def ivar(self) -> str:
        return self.spec.ivar

    @property
    def profile_indices(self) -> tuple[int, ...]:
        return tuple(range(0, self.dim, self.spec.order))

    def rhs(self, x: float, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.dim,):
            raise ConstraintError(
                f"{self.sid} state must have dimension {self.dim}, "
                f"got shape {y.shape}"
            )
        return self.spec.first_order(float(x), y, *self.kcoeffs)

    def equation_residuals(self, x, vals, D1, D2):
        """Equation residuals from sampled profiles and their
        finite-difference derivatives (one row per equation): D1 - f for
        first-order systems, D2 - f in the row's scale for second-order
        ones."""
        f = self.spec.first_order
        if self.spec.order == 1:
            return D1 - f(x, vals, *self.kcoeffs)
        y = np.empty((self.dim, vals.shape[1]))
        y[0::2] = vals
        y[1::2] = D1
        r = D2 - f(x, y, *self.kcoeffs)[1::2]
        for row, name in self.spec.row_scale.items():
            r[row] *= self.kcoeffs[self.spec.coeffs.index(name)]
        return r


def system_spec(sid: str) -> SystemSpec:
    """The catalog row of `sid`.  The ids are matched exactly: they are
    what ``hgf reduce --system`` takes."""
    spec = SYSTEMS.get(sid)
    if spec is None:
        raise ConstraintError(f"unknown reduced system id {sid!r}; known "
                              f"ids: {', '.join(SYSTEMS)}")
    return spec


def reduced_system(sid: str, **coeffs) -> ReducedSystem:
    """Build a catalog system; its coefficients follow `check_coefficients`
    (R58's Params record and L52's case follow their own rules)."""
    spec = system_spec(sid)
    a4_given = "a4" in coeffs  # before L52's default fills it in
    for name, value in spec.defaults.items():
        coeffs.setdefault(name, value)
    check_coefficients(sid, coeffs, spec.arguments, spec.divisors,
                       exempt=("params", "case"))
    values = dict(coeffs)
    if spec.takes_params:
        p: Params = coeffs["params"]
        if p.d1 != 1.0:
            raise ConstraintError(
                f"{spec.sid} reduces the d1-normalized system; call "
                "Params.with_unit_d1() first"
            )
        values.update((k, getattr(p, k)) for k in spec.coeffs
                      if k not in coeffs)
    if "case" in coeffs:
        if coeffs["case"] not in ("50", "51"):
            raise ConstraintError(f"{spec.sid} case must be '50' or '51'")
        if coeffs["case"] == "51":
            if a4_given:
                raise ConstraintError(f"{spec.sid} case 51 does not take a4 "
                                      "(it reads a4 in case 50 only)")
            del coeffs["a4"]  # the default, which case 51 never reads
        values["case"] = 1.0 if coeffs["case"] == "50" else 0.0
    kc = tuple(float(values[k]) for k in spec.coeffs)
    return ReducedSystem(spec=spec, coeffs=dict(coeffs), kcoeffs=kc)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


# fewest nodes a trajectory holds: the cubic not-a-knot spline needs four
MIN_NODES = 4


@dataclass
class ProfileTrajectory:
    """Sampled ODE solution with dense evaluation.

    The interpolant is the spline through the nodes, quintic (cubic below
    six nodes): its error sits below the floors of the second-difference
    stencils the profiles feed.  First evaluation builds it and keeps only
    its power-basis form on the node intervals: scipy's `PPoly` sums
    c[m] s^(k-m) from the constant term up, each power of s built by
    repeated multiplication.
    """

    xs: np.ndarray
    ys: np.ndarray
    _poly: object = field(default=None, repr=False)

    def __post_init__(self):
        if len(self.xs) < MIN_NODES:
            raise ConstraintError(f"a trajectory needs at least {MIN_NODES} "
                                  f"nodes, got {len(self.xs)}")
        if np.any(np.diff(self.xs) <= 0):
            raise ConstraintError("trajectory sample grid must be increasing")

    @property
    def domain(self) -> tuple[float, float]:
        return (float(self.xs[0]), float(self.xs[-1]))

    def evaluate(self, x, rule: str = "quintic") -> np.ndarray:
        # the one rule; the keyword stays while the benchmark harness
        # (perfbench/workloads.py) passes rule="quintic"
        if rule != "quintic":
            raise ConstraintError(f"unknown interpolation rule {rule!r}")
        x = np.atleast_1d(np.asarray(x, dtype=float))
        lo, hi = self.domain
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        if np.any(x < lo - tol) or np.any(x > hi + tol):
            raise DomainError(
                f"evaluation outside trajectory domain [{lo}, {hi}]"
            )
        if self._poly is None:
            # imported here, its one use, as `_kernels` imports LAPACK:
            # `import hgf` loads no scipy module
            from scipy.interpolate import PPoly, make_interp_spline
            k = 5 if len(self.xs) > 5 else 3
            spl = make_interp_spline(self.xs, self.ys, k=k, axis=0)
            c = np.empty((k + 1, len(self.xs) - 1) + self.ys.shape[1:])
            for m in range(k + 1):  # c[m] multiplies (x - xs[i])^(k-m)
                c[m] = spl(self.xs[:-1], nu=k - m) / math.factorial(k - m)
            self._poly = PPoly(c, self.xs)
        return self._poly(x)

    def component(self, i: int) -> Callable:
        def fn(x):
            scalar = np.isscalar(x)
            out = self.evaluate(x)[:, i]
            return float(out[0]) if scalar else out

        fn.domain = self.domain
        return fn


# ---------------------------------------------------------------------------
# integrators
# ---------------------------------------------------------------------------

# Fehlberg 4(5) tableau
_RK_C = (0.0, 0.25, 3.0 / 8.0, 12.0 / 13.0, 1.0, 0.5)
_RK_A = (
    (),
    (0.25,),
    (3.0 / 32.0, 9.0 / 32.0),
    (1932.0 / 2197.0, -7200.0 / 2197.0, 7296.0 / 2197.0),
    (439.0 / 216.0, -8.0, 3680.0 / 513.0, -845.0 / 4104.0),
    (-8.0 / 27.0, 2.0, -3544.0 / 2565.0, 1859.0 / 4104.0, -11.0 / 40.0),
)
_RK_B5 = (16.0 / 135.0, 0.0, 6656.0 / 12825.0, 28561.0 / 56430.0,
          -9.0 / 50.0, 2.0 / 55.0)
_RK_B4 = (25.0 / 216.0, 0.0, 1408.0 / 2565.0, 2197.0 / 4104.0, -0.2, 0.0)
_RK_E = tuple(b5 - b4 for b5, b4 in zip(_RK_B5, _RK_B4))

# relative step floor of `integrate`: a shorter step is an underflow, and a
# step that ends this close to the span's end is snapped onto it
_STEP_FLOOR = 1e-13
# nodes one `integrate` or `dense_profile` call may store
MAX_NODES = 4_000_000
# tolerances of the `integrate` runs that fill a `dense_profile` table
PROFILE_REL_TOL = 1e-10
PROFILE_ABS_TOL = 1e-13


def _scaled_tableau(hs):
    """The Fehlberg tableau (c1..c5, rows, b5, b5 - b4) times the step."""
    return ([c * hs for c in _RK_C[1:]],
            [[hs * a for a in row] for row in _RK_A[1:]],
            [hs * b for b in _RK_B5], [hs * e for e in _RK_E])


def _fehlberg_step(f, x, y, k0, tab):
    """(y5, err) of one Fehlberg step from the node (x, y) with dy/dx = k0,
    or None when y5 is not finite; `tab` is `_scaled_tableau` of the step.

    The state is a list of floats.  Every sum runs term by term, left to
    right, as the vector form y + (hs a) k does, so the result is numpy's
    to the bit.  Each stage is one list comprehension: a loop over the
    tableau with one comprehension per term made `integrate` about 1.5x
    slower.  One check of y5 covers every stage: the equations use only
    + - * on the state (and divide by nonzero coefficients), so a
    non-finite stage state gives a non-finite stage derivative, which
    reaches y5 even through b1 = 0 (0 * inf is nan), and no stage
    raises."""
    ((c1, c2, c3, c4, c5), ((a10,), (a20, a21), (a30, a31, a32),
                            (a40, a41, a42, a43), (a50, a51, a52, a53, a54)),
     (b0, b1, b2, b3, b4, b5), (e0, e1, e2, e3, e4, e5)) = tab
    yi = [p + a10 * q0 for p, q0 in zip(y, k0)]
    k1 = f(x + c1, yi)
    yi = [p + a20 * q0 + a21 * q1 for p, q0, q1 in zip(y, k0, k1)]
    k2 = f(x + c2, yi)
    yi = [p + a30 * q0 + a31 * q1 + a32 * q2
          for p, q0, q1, q2 in zip(y, k0, k1, k2)]
    k3 = f(x + c3, yi)
    yi = [p + a40 * q0 + a41 * q1 + a42 * q2 + a43 * q3
          for p, q0, q1, q2, q3 in zip(y, k0, k1, k2, k3)]
    k4 = f(x + c4, yi)
    yi = [p + a50 * q0 + a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4
          for p, q0, q1, q2, q3, q4 in zip(y, k0, k1, k2, k3, k4)]
    k5 = f(x + c5, yi)
    ks = list(zip(y, k0, k1, k2, k3, k4, k5))
    y5 = [p + b0 * q0 + b1 * q1 + b2 * q2 + b3 * q3 + b4 * q4 + b5 * q5
          for p, q0, q1, q2, q3, q4, q5 in ks]
    if not all(map(math.isfinite, y5)):
        return None
    # the sign of a zero in err is never read: err is squared
    err = [e0 * q0 + e1 * q1 + e2 * q2 + e3 * q3 + e4 * q4 + e5 * q5
           for _, q0, q1, q2, q3, q4, q5 in ks]
    return y5, err


def integrate(sys: ReducedSystem, y0, span, rel_tol: float = 1e-9,
              abs_tol: float = 1e-12,
              max_step: float | None = None) -> ProfileTrajectory:
    """Adaptive embedded RK4(5) with PI step-size control.

    Propagates the fifth-order solution; the local error estimate comes
    from the embedded fourth-order weights.  Step-size underflow (stiff or
    blowing-up problems) raises with the reach point.  The state is a list
    of floats (`_fehlberg_step`), stepped by the system's equations with
    its coefficients bound; the derivative at the last accepted node
    is the first stage of the next step (first same as last), so a step
    costs six right-hand-side calls.
    """
    if not (0.0 < rel_tol <= 1e-2 and 0.0 < abs_tol <= 1e-2):
        raise ConstraintError("tolerances must lie in (0, 1e-2]")
    x0, x1 = float(span[0]), float(span[1])
    if not (math.isfinite(x0) and math.isfinite(x1)):
        raise ConstraintError(f"integration span ends must be finite, "
                              f"got ({x0}, {x1})")
    if max_step is not None and not (math.isfinite(max_step)
                                     and max_step > 0.0):
        raise ConstraintError(f"max_step must be a finite positive number, "
                              f"got {max_step}")
    total = abs(x1 - x0)
    hmax = total if max_step is None else min(max_step, total)
    h = min(hmax, total / 100.0, 0.1)
    floor = _STEP_FLOOR * max(1.0, abs(x0))
    if h < floor:  # the first step would underflow: an input error
        what = (f"max_step {max_step}" if h == max_step else
                f"integration span ({x0}, {x1})")
        raise ConstraintError(f"{what} is too short: its first step {h:g} "
                              f"is below the step floor {floor:g}")
    y = np.asarray(y0, dtype=float)
    if y.shape != (sys.dim,):
        raise ConstraintError(
            f"initial state must have dimension {sys.dim}"
        )
    if not np.isfinite(y).all():
        raise ConstraintError(f"initial state must be finite, got "
                              f"{y.tolist()}")
    f, n = partial(sys.spec.equations, *sys.kcoeffs), sys.dim
    direction = 1.0 if x1 > x0 else -1.0
    x = x0
    y = y.tolist()
    xs = [x]
    yss = [y]
    k0 = f(x, y)
    err_prev, hs_tab = 1.0, None
    while x != x1:  # the end snap below lands on x1 exactly
        h = min(h, abs(x1 - x))
        if h < _STEP_FLOOR * max(1.0, abs(x)):
            raise NumericalError(
                f"step-size underflow at {sys.ivar} = {x} "
                f"(reached from {x0} toward {x1})"
            )
        hs = h * direction
        if hs != hs_tab:  # it stays while max_step binds
            hs_tab, tab = hs, _scaled_tableau(hs)
        step = _fehlberg_step(f, x, y, k0, tab)
        if step is None:
            h *= 0.25
            continue
        y5, err = step
        sq = 0.0
        for e, p, q in zip(err, y, y5):
            r = e / (abs_tol + rel_tol * max(abs(p), abs(q)))
            sq += r * r
        err_norm = math.sqrt(sq / n)
        if err_norm <= 1.0:
            x = x1 if abs(x1 - (x + hs)) <= _STEP_FLOOR * max(1.0, abs(x1)) \
                else x + hs
            y = y5
            xs.append(x)
            yss.append(y)
            k0 = f(x, y)
            if len(xs) > MAX_NODES:
                raise NumericalError("node budget exceeded")
            e = max(err_norm, 1e-16)
            fac = 0.9 * e ** (-0.14) * max(err_prev, 1e-16) ** 0.08
            err_prev = e
            h = min(h * min(max(fac, 0.2), 5.0), hmax)
        else:
            h *= max(0.1, 0.9 * err_norm ** (-0.2))
    if direction < 0:
        xs.reverse()
        yss.reverse()
    return ProfileTrajectory(xs=np.asarray(xs), ys=np.asarray(yss))


def dense_profile(sys: ReducedSystem, y0, x0: float, x_left: float,
                  x_right: float, step: float = 5e-3) -> ProfileTrajectory:
    """Uniform table of spacing `step` from the anchor x0 to x_left and
    x_right, read off the interpolant of `integrate` runs to each end.

    The table's quintic interpolant keeps its second derivatives below
    second-order stencil floors for grid spacings down to ~1e-3.  A window
    and step that give fewer than `MIN_NODES` or more than `MAX_NODES`
    nodes are refused before anything is integrated.
    """
    if not (math.isfinite(x_left) and math.isfinite(x_right)):
        raise ConstraintError(f"profile window ends must be finite, got "
                              f"({x_left}, {x_right})")
    if not (x_left <= x0 <= x_right):
        raise ConstraintError("need x_left <= x0 <= x_right")
    if step <= 0:
        raise ConstraintError("step must be positive")
    if not math.isfinite(step):
        raise ConstraintError(f"step must be finite, got {step}")
    # steps to each end, counted in floats so that no count overflows
    n_r, n_l = (np.ceil(d / step - 1e-12) for d in (x_right - x0, x0 - x_left))
    nodes = n_r + n_l + 1
    if not MIN_NODES <= nodes <= MAX_NODES:
        bound = (f"above the limit of {MAX_NODES:,}" if nodes > MAX_NODES
                 else f"below the minimum of {MIN_NODES}")
        raise ConstraintError(f"profile window ({x_left}, {x_right}) at step "
                              f"{step} needs {nodes:.4g} nodes, {bound}")
    xs = x0 + step * np.arange(-int(n_l), int(n_r) + 1)
    try:  # toward x_left (returned in increasing order), then x_right
        parts = [integrate(sys, y0, (x0, end), PROFILE_REL_TOL,
                           PROFILE_ABS_TOL) for end in (xs[0], xs[-1])
                 if end != x0]
    except NumericalError as e:
        raise NumericalError(f"profile window ({x_left}, {x_right}) cannot "
                             f"be tabulated: {e}") from None
    joined = parts.pop()
    if parts:  # both parts hold the anchor: keep it once
        joined = ProfileTrajectory(
            xs=np.concatenate((parts[0].xs[:-1], joined.xs)),
            ys=np.concatenate((parts[0].ys[:-1], joined.ys)))
    return ProfileTrajectory(xs=xs, ys=joined.evaluate(xs))


# ---------------------------------------------------------------------------
# closed-form solutions of R38
# ---------------------------------------------------------------------------


def closed_form_R38(case: str, a1: float, delta1: float, delta2: float,
                    beta: float, t, a4: float | None = None,
                    a3: float | None = None):
    """Closed solutions (U, V, W) of R38 for the three special cases.

    They live in `solutions.SeparableCase.closed`, which the fam40
    families read too; case wiring and checks are
    `solutions.separable_case`.  The shared denominator must stay positive
    over the requested times (it can vanish only at negative t, for
    delta1 > 1).
    """
    return solutions.separable_case(case, a1, beta, delta1, delta2, a4=a4,
                                    a3=a3).closed(t)


# ---------------------------------------------------------------------------
# profiles through their ansatz
# ---------------------------------------------------------------------------


def trajectory_profiles(sys: ReducedSystem,
                        traj: ProfileTrajectory) -> dict:
    """Profile callables {"U", "V", "W"} (or a single one) from a
    trajectory of `sys`."""
    return {n: traj.component(i)
            for n, i in zip(sys.spec.profiles, sys.profile_indices)}


def verify_reduction(sys: ReducedSystem, ansatz: solutions.Ansatz,
                     params: Params,
                     profiles, window, h_sequence) -> calculus.ResidualReport:
    """Reconstruct the PDE field from profiles and run the residual
    refinement study.

    `window` is (t, lo, hi); for omega-based ansaetze (lo, hi) is the
    window in the wave variable and the x-grid is shifted by alpha*t, for
    t-based ones it is the plain x-window.  The system/ansatz pairing is
    enforced.
    """
    if sys.spec.ansatz != ansatz.aid:
        raise ConstraintError(
            f"system {sys.sid} pairs with ansatz {sys.spec.ansatz}, "
            f"not {ansatz.aid}"
        )
    t, lo, hi = window
    if ansatz.omega_based:
        x_lo, x_hi = lo + ansatz.alpha * t, hi + ansatz.alpha * t
    else:
        x_lo, x_hi = lo, hi
    sol = solutions.ansatz_solution(ansatz, profiles, params)
    return calculus.refinement_study(params, sol, (t, x_lo, x_hi),
                                     h_sequence)


# ---------------------------------------------------------------------------
# checked builder for the semi-exact families
# ---------------------------------------------------------------------------

# spacing of the finite-difference residual that checks a tabulated
# profile, 4 spacings inside its window; its 5 nodes need 12 spacings
_CHECK_H = 2e-3


def semi_exact_family(case: str, *, a1: float | None = None,
                      a4: float | None = None, a3: float | None = None,
                      beta: float = 0.0, gamma: float | None = None,
                      window=(-25.0, 25.0), step: float = 5e-3,
                      y0=(1.0, 0.0), anchor: float | None = None):
    """Integrate the free profile of a semi-exact family (case wiring and
    checks: `solutions.semi_case`) and assemble it.

    Returns (family, trajectory).  The profile is tabulated over `window`
    in the wave variable from the value and slope `y0` at `anchor`, by
    default the left edge, which keeps backward-growing modes out of the
    table.  A tabulated profile that fails a finite-difference residual
    check against its linear ODE (wrong coefficients, wrong case) is
    rejected instead of producing a silently wrong family.  The family's
    meta records the table's domain, its one window, as "profile_window".
    The window, step, y0 and anchor follow the coefficient rule under the
    names of the CLI's profile flags.
    """
    check_coefficients(f"semi{case}", dict(
        profile_lo=window[0], profile_hi=window[1], profile_step=step,
        anchor=anchor, **dict(zip(("y0", "dy0"), y0))))
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ConstraintError(f"profile window must have lo < hi, got "
                              f"({lo}, {hi})")
    if hi - lo < 12 * _CHECK_H:
        raise ConstraintError(f"profile window ({lo}, {hi}) is narrower than "
                              f"{12 * _CHECK_H:g}, the width its residual "
                              "check needs")
    sc = solutions.semi_case(case, a1=a1, a4=a4, a3=a3, beta=beta,
                             gamma=gamma)
    sys = reduced_system(sc["system"], **sc["coeffs"])
    anchor = lo if anchor is None else anchor
    if not lo <= anchor <= hi:
        raise ConstraintError("anchor must lie inside the profile window")
    traj = dense_profile(sys, y0, anchor, lo, hi, step=step)
    inner = (lo + 4 * _CHECK_H, hi - 4 * _CHECK_H)
    linf = float(calculus.ode_residual(sys, traj.component(0), inner,
                                       _CHECK_H).linf[0])
    scale = 1.0 + float(np.max(np.abs(traj.ys[:, 0])))
    if linf > 1e-5 * scale:
        raise NumericalError(
            f"profile fails its ODE residual check: linf = "
            f"{linf:.3e} against scale {scale:.3e}"
        )
    fam = solutions.make_semi_exact(case, traj.component(0), a1=a1, a4=a4,
                                    a3=a3, beta=beta, gamma=gamma)
    check = {"linf": linf, "scale": scale}
    return replace(fam, meta={**fam.meta, "profile_window": traj.domain,
                              "profile_residual": check}), traj
