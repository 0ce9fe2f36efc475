"""Grids, finite-difference stencils and discrete residual operators.

The PDE residual discretizes

    r_k = d_k D2_x(field_k) - D_t(field_k) + C_k(u, v, w)

with second-order central differences in space and time and the reaction
rates C_k from `hgf.model`.  Norms are taken over interior points only
(one point dropped on each side in x, the time stencil uses t +- dt), so
no one-sided stencils are ever used.  Any candidate field -- closed form,
semi-closed form or simulated -- is verified by the same operator.

Every refinement study, PDE or ODE, runs its levels in order on the
calling thread, and norm reductions use a fixed summation order, so
reported numbers are bit-reproducible across runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ._kernels import thread_cap  # noqa: F401  (read by perfbench)
from .errors import ConstraintError, NumericalError
from .model import finite_real

_COMPONENT_INDEX = {"u": 0, "v": 1, "w": 2}

# refinement levels with residuals below this floor count as exactly zero
ZERO_RESIDUAL_FLOOR = 1e-14

# the most nodes a grid may have (32 MB per float64 row)
MAX_NODES = 4_000_000


@dataclass(frozen=True)
class SpaceGrid:
    """Uniform 1-D grid with n points on [x_min, x_max]."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if (type(self.n) is bool or not isinstance(self.n, numbers.Integral)
                or self.n < 5):
            raise ConstraintError(
                f"SpaceGrid n must be an integer >= 5 (central stencils), "
                f"got {self.n!r}")
        if self.n > MAX_NODES:
            raise ConstraintError(f"SpaceGrid n = {self.n:,} is above the "
                                  f"limit of {MAX_NODES:,} nodes")
        for name in ("x_min", "x_max"):
            if not finite_real(getattr(self, name)):
                raise ConstraintError(
                    f"SpaceGrid {name} must be a finite number, got "
                    f"{getattr(self, name)!r}")
        if not 0.0 < self.x_max - self.x_min < math.inf:
            raise ConstraintError(
                f"SpaceGrid requires x_max > x_min by a finite width, got "
                f"{self.x_min!r}, {self.x_max!r}")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n - 1)

    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n)

    @classmethod
    def from_spacing(cls, x_min: float, x_max: float, h: float) -> SpaceGrid:
        """The grid on [x_min, x_max] whose spacing is nearest to h."""
        cells = (x_max - x_min) / h  # a float, so that no count overflows
        if not cells < MAX_NODES - 0.5:  # round(cells) + 1 <= MAX_NODES
            raise ConstraintError(
                f"window ({x_min}, {x_max}) at spacing {h} needs "
                f"{cells + 1.0:.4g} nodes, above the limit of {MAX_NODES:,}")
        return cls(x_min, x_max, int(round(cells)) + 1)


@dataclass(frozen=True)
class FieldState:
    """Sampled (u, v, w) values on a grid at one time.

    Components a sampler does not define are stored as zeros; the set of
    defined components travels separately (residual reports skip the
    equations of undefined components).
    """

    grid: SpaceGrid
    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("u", "v", "w"):
            arr = getattr(self, name)
            if arr.shape != (self.grid.n,):
                raise ConstraintError(
                    f"FieldState.{name} must have length n = {self.grid.n}"
                )

    def stack(self) -> np.ndarray:
        return np.stack((self.u, self.v, self.w))


@dataclass(frozen=True)
class ResidualReport:
    """Residual norms per equation; None marks an undefined component.

    `order_estimate` is filled by the refinement driver.  `history` keeps
    the (h, dt, linf, l2) tuples of every refinement level used.
    """

    linf: tuple
    l2: tuple
    h: float
    dt: float
    order_estimate: tuple | None = None
    history: tuple = ()

    def max_linf(self) -> float:
        vals = [v for v in self.linf if v is not None]
        return max(vals) if vals else math.nan


def sample(sol, grid: SpaceGrid, t: float) -> FieldState:
    """Pointwise evaluation of a `model.Solution` on a grid at time t."""
    x = grid.x()
    fields = []
    for name, arr in zip("uvw", sol(t, x)):
        fields.append(arr.copy())  # rows the state owns
        if not np.isfinite(arr).all():
            i = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise NumericalError(
                f"non-finite {name} sample at t = {t}, x = {x[i]}"
            )
    return FieldState(grid, t, *fields)


def _norms(r: np.ndarray, buf: np.ndarray) -> tuple[float, float]:
    """(max |r|, sqrt(mean r^2)); `buf`, shaped like r, is overwritten."""
    linf = float(np.max(np.abs(r, out=buf)))
    # ufunc reduce: fixed order, never multi-threaded
    l2 = float(math.sqrt(np.add.reduce(np.multiply(r, r, out=buf)) / r.size))
    return linf, l2


def _equations_for(components) -> tuple[int, ...]:
    if components is None:
        return (0, 1, 2)
    return tuple(sorted(_COMPONENT_INDEX[c] for c in components))


def residual_from_states(
    p,
    before: FieldState,
    mid: FieldState,
    after: FieldState,
    dt: float,
    components=None,
    return_fields: bool = False,
):
    """Discrete residual from three already-sampled time levels.

    The three states must share one grid and be centered at mid.t with
    spacing dt.  Exposed separately so externally stored samples (CSV
    round trips) reproduce in-process residuals exactly.

    Each equation is formed in place in one row buffer, with one scratch
    row, in the fixed order
    ((f[:-2] - 2 f[1:-1]) + f[2:]) / h^2 * d_k - (f2 - f0) / (2 dt) + C_k;
    another order changes the last bits.  `fields` (NaN rows for
    undefined components) is allocated only when asked for.
    """
    grid = mid.grid
    h = grid.h
    hh = h * h
    two_dt = 2.0 * dt
    rates = p.reaction(mid.u[1:-1], mid.v[1:-1], mid.w[1:-1])
    dco = p.diffusivities
    linf: list = [None, None, None]
    l2: list = [None, None, None]
    fields = np.full((3, grid.n - 2), np.nan) if return_fields else None
    r, buf = np.empty((2, grid.n - 2))
    for k in _equations_for(components):
        f0, f1, f2 = (getattr(s, "uvw"[k]) for s in (before, mid, after))
        if return_fields:
            r = fields[k]
        np.multiply(2.0, f1[1:-1], out=buf)
        np.subtract(f1[:-2], buf, out=r)
        r += f1[2:]
        r /= hh
        r *= dco[k]
        np.subtract(f2[1:-1], f0[1:-1], out=buf)
        buf /= two_dt
        r -= buf
        r += rates[k]
        linf[k], l2[k] = _norms(r, buf)
    report = ResidualReport(linf=tuple(linf), l2=tuple(l2), h=h, dt=dt)
    if return_fields:
        return report, fields
    return report


def pde_residual(p, sol, grid: SpaceGrid, t: float, dt: float,
                 return_fields: bool = False):
    """Sample a solution at t - dt, t, t + dt and form the residual of
    the equations of its defined components."""
    before = sample(sol, grid, t - dt)
    mid = sample(sol, grid, t)
    after = sample(sol, grid, t + dt)
    return residual_from_states(p, before, mid, after, dt,
                                components=sol.components,
                                return_fields=return_fields)


def _fit_orders(h_used: Sequence[float], linf_rows: Sequence[tuple]) -> tuple:
    """Least-squares slope of log linf against log h, per equation."""
    orders: list = []
    logh = np.log(np.asarray(h_used))
    for k in range(len(linf_rows[0])):
        vals = [row[k] for row in linf_rows]
        if any(v is None for v in vals):
            orders.append(None)
            continue
        arr = np.asarray(vals, dtype=float)
        if np.all(arr <= ZERO_RESIDUAL_FLOOR):
            orders.append(math.inf)
            continue
        slope = np.polyfit(logh, np.log(np.maximum(arr, 1e-300)), 1)[0]
        orders.append(float(slope))
    return tuple(orders)


def _refine(level, h_sequence) -> ResidualReport:
    """The one refinement driver: `level(h)` for each h of a strictly
    decreasing positive sequence, in order, then the observed orders and
    the history, stored on the finest level's report."""
    if len(h_sequence) < 2:
        raise ConstraintError("a refinement study needs at least 2 grid "
                              "spacings")
    pairs = zip(h_sequence, h_sequence[1:])
    if not (all(b < a for a, b in pairs) and h_sequence[-1] > 0):
        raise ConstraintError("h_sequence must be strictly decreasing and "
                              "positive")
    reports = [level(h) for h in h_sequence]
    orders = _fit_orders([r.h for r in reports], [r.linf for r in reports])
    history = tuple((r.h, r.dt, r.linf, r.l2) for r in reports)
    return replace(reports[-1], order_estimate=orders, history=history)


def refinement_study(p, sol, window, h_sequence) -> ResidualReport:
    """Residuals over a decreasing h sequence plus observed orders.

    `window` is (t, x_min, x_max); each level uses dt = h.
    """
    t, x_min, x_max = window

    def level(h: float) -> ResidualReport:
        grid = SpaceGrid.from_spacing(x_min, x_max, h)
        return pde_residual(p, sol, grid, t, grid.h)

    return _refine(level, h_sequence)


def ode_residual(system, profile_fn, window, h: float,
                 return_fields: bool = False):
    """Discrete residual of profiles in a reduced ODE system.

    `profile_fn(x)` must return the profile values as an (m, n) array for
    the system's m profiles.  Central differences supply first and second
    derivatives on interior points.
    """
    x = SpaceGrid.from_spacing(*window, h).x()
    hh = x[1] - x[0]
    vals = np.atleast_2d(np.asarray(profile_fn(x), dtype=float))
    if not np.isfinite(vals).all():
        raise NumericalError("non-finite profile sample in ode_residual")
    d1 = (vals[:, 2:] - vals[:, :-2]) / (2.0 * hh)
    d2 = (vals[:, :-2] - 2.0 * vals[:, 1:-1] + vals[:, 2:]) / (hh * hh)
    r = system.equation_residuals(x[1:-1], vals[:, 1:-1], d1, d2)
    linf = []
    l2 = []
    rows = np.atleast_2d(r)
    buf = np.empty(rows.shape[1])
    for row in rows:
        a, b = _norms(row, buf)
        linf.append(a)
        l2.append(b)
    report = ResidualReport(linf=tuple(linf), l2=tuple(l2), h=hh, dt=0.0)
    if return_fields:
        return report, r
    return report


def ode_refinement(system, profile_fn, window, h_sequence) -> ResidualReport:
    """Refinement study for `ode_residual` (orders per equation)."""
    return _refine(lambda h: ode_residual(system, profile_fn, window, h),
                   h_sequence)
