"""Method-of-lines time integration and traveling-front speed measurement.

Space is discretized with the second-order central Laplacian, time with
CNAB2: Crank-Nicolson for the diffusion, second-order Adams-Bashforth
for the kinetics, and a CN-Heun first step.  The diffusion is implicit, so
no stability bound ties the step to h^2.  The step is

    dt = min(DT_PER_H * h, h^2 / d_max),

shortened, if need be, to divide t_end - t0 into whole steps.  The first
rule keeps the O(dt^2) time error well below the O(h^2) space error at
every h, so that refinement in h still sees order 2.  The second keeps
the Crank-Nicolson ratio r = dt d / (2 h^2) at most 1/2, where the
explicit half I + r L has no negative entry: diffusion then maps
nonnegative data to nonnegative data, however rough.  Above it, grid-scale
modes flip sign each step (a one-cell spike goes negative).

Boundary handling: Dirichlet (fixed triples), zero-flux (mirror ghost
point), or pinned-to-exact (boundary values follow a family evaluator,
precomputed at the end time of every step).  The loop is sequential, so
identical configurations produce bit-identical snapshots; it lives in
`hgf._kernels`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import ClassVar, Sequence

import numpy as np

from ._kernels import FINITE_CHECK_EVERY, mol_run
from .calculus import FieldState, SpaceGrid
from .errors import ConstraintError, NumericalError
from .model import Params, Solution, finite_real

# a front-speed fit with r^2 below this is flagged unreliable
R2_RELIABLE = 0.999

# the time step per unit of grid spacing, unless h^2 / d_max is smaller
DT_PER_H = 0.02

# the most steps one run may take, and the most float64 values it may store
# in snapshots and boundary tables (400 MB)
MAX_STORED = 50_000_000


@dataclass(frozen=True)
class BoundaryCondition:
    """Boundary handling: "dirichlet" (left/right triples), "neumann-zero",
    or "pinned-to-exact" (family evaluator supplies the boundary values).
    Each kind takes only the fields `READS` names for it."""

    READS: ClassVar[dict] = {"dirichlet": ("left", "right"),
                             "neumann-zero": (),
                             "pinned-to-exact": ("family",)}

    kind: str
    left: tuple[float, float, float] | None = None
    right: tuple[float, float, float] | None = None
    family: Solution | None = None

    def __post_init__(self):
        if self.kind not in self.READS:
            raise ConstraintError(f"unknown bc kind {self.kind!r}")
        reads = self.READS[self.kind]
        unread = [f for f in ("left", "right", "family")
                  if f not in reads and getattr(self, f) is not None]
        if unread:
            raise ConstraintError(
                f"{self.kind} bc does not take {', '.join(unread)}")
        if self.kind == "pinned-to-exact" and self.family is None:
            raise ConstraintError("pinned-to-exact bc needs a family")
        for side in reads if self.kind == "dirichlet" else ():
            v = getattr(self, side)
            if not (isinstance(v, (tuple, list, np.ndarray)) and len(v) == 3
                    and all(map(finite_real, v))):
                raise ConstraintError(
                    f"dirichlet bc {side} must be 3 finite numbers, got {v!r}")
            object.__setattr__(self, side, tuple(v))


def dirichlet_at_endpoints(family) -> BoundaryCondition:
    """Dirichlet values pinned to a front family's asymptotic states."""
    if family.endpoint_states is None:
        raise ConstraintError("family has no endpoint states")
    return BoundaryCondition("dirichlet", *family.endpoint_states)


@dataclass(frozen=True)
class SimConfig:
    params: Params
    grid: SpaceGrid
    t_end: float
    initial: Solution | tuple  # a Solution called at t0, or (u, v, w) arrays
    t0: float = 0.0
    bc: BoundaryCondition = field(
        default_factory=lambda: BoundaryCondition(kind="neumann-zero"))
    snapshot_every: int = 100

    def __post_init__(self):
        for name in ("t0", "t_end"):
            if not finite_real(getattr(self, name)):
                raise ConstraintError(f"{name} must be a finite number, got "
                                      f"{getattr(self, name)!r}")
        if not math.isfinite(self.t_end - self.t0):
            raise ConstraintError(f"t_end - t0 must be finite "
                                  f"(got {self.t0!r}, {self.t_end!r})")
        if not self.t_end > self.t0:
            raise ConstraintError("t_end must exceed t0")
        if not (isinstance(self.snapshot_every, numbers.Integral)
                and type(self.snapshot_every) is not bool
                and self.snapshot_every >= 1):
            raise ConstraintError(
                f"snapshot_every must be an integer >= 1, got "
                f"{self.snapshot_every!r}")


@dataclass
class SimRun:
    dt: float
    steps: int
    snapshots: list[FieldState]
    rhs_evaluations: int
    aborted_at: int | None = None


def _initial_fields(config: SimConfig) -> np.ndarray:
    init = config.initial
    if isinstance(init, Solution):
        F = np.array(init(config.t0, config.grid.x()))
    else:
        if len(init) != 3:
            raise ConstraintError(f"initial data must hold 3 entries "
                                  f"(u, v, w), got {len(init)}")
        F = np.zeros((3, config.grid.n))
        for name, row, arr in zip("uvw", F, init):
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                if arr.shape != row.shape:
                    raise ConstraintError(
                        f"initial {name} must have shape {row.shape}, "
                        f"got {arr.shape}")
                row[:] = arr
    if not np.isfinite(F).all():
        raise ConstraintError("initial data must be finite")
    return F


def _bc_mode_table(config: SimConfig, dt: float, nsteps: int):
    """The kernel's boundary mode and its (steps, 1, 3, 2) table."""
    bc = config.bc
    if bc.kind == "neumann-zero":
        return 1, np.zeros((1, 1, 3, 2))
    if bc.kind == "dirichlet":
        table = np.empty((1, 1, 3, 2))
        table[0, 0, :, 0] = bc.left
        table[0, 0, :, 1] = bc.right
        return 0, table
    # pinned-to-exact: boundary values at the end time of every step
    times = config.t0 + np.arange(1, nsteps + 1, dtype=float) * dt
    table = np.empty((nsteps, 1, 3, 2))
    for side, xb in enumerate((config.grid.x_min, config.grid.x_max)):
        for c, arr in enumerate(bc.family(times, xb)):
            table[:, 0, c, side] = arr
    return 0, table


def _check_storage(config: SimConfig, steps: float) -> None:
    """Reject, before anything is allocated, a run of about `steps` steps
    if the steps or the values its snapshots and boundary table hold
    exceed `MAX_STORED`."""
    stored = math.inf
    if math.isfinite(steps):
        every = min(config.snapshot_every, max(steps, 1.0))
        stored = (steps / every + 2.0) * 3 * config.grid.n
        if config.bc.kind == "pinned-to-exact":
            stored += 6.0 * steps
    if max(steps, stored) > MAX_STORED:
        raise ConstraintError(
            f"t_end = {config.t_end!r} needs {steps:.4g} steps and "
            f"{stored:.4g} stored values (snapshot_every = "
            f"{config.snapshot_every}, n = {config.grid.n}), above the "
            f"limit of {MAX_STORED:,} for each; shorten t_end or raise "
            f"snapshot_every")


def run(config: SimConfig) -> SimRun:
    """Integrate the semi-discrete system; snapshots every
    `snapshot_every` steps plus the final state.

    The state is checked for non-finite values at every snapshot and
    every `FINITE_CHECK_EVERY` steps.  A non-finite state aborts with the
    last good snapshots attached to the raised error (`.partial`
    attribute); the message brackets the blow-up between the last step
    checked clean and the step where it was found.
    """
    grid = config.grid
    dt0 = min(DT_PER_H * grid.h,
              grid.h * grid.h / max(config.params.diffusivities))
    span = config.t_end - config.t0
    _check_storage(config, span / dt0)
    nsteps = max(1, int(math.ceil(span / dt0 - 1e-12)))
    dt = span / nsteps
    F = _initial_fields(config)
    bc_mode, bc_table = _bc_mode_table(config, dt, nsteps)

    snap_steps = list(range(config.snapshot_every, nsteps + 1,
                            config.snapshot_every))
    if not snap_steps or snap_steps[-1] != nsteps:
        snap_steps.append(nsteps)
    snap_steps_arr = np.asarray(snap_steps, dtype=np.int64)
    snaps = np.empty((len(snap_steps) + 1, 3, grid.n))
    snaps[0] = F

    dco = np.asarray(config.params.diffusivities)
    aco = np.asarray(config.params.a_coefficients)
    status = mol_run(F.copy(), dco, aco, grid.h, dt, nsteps, bc_mode,
                     bc_table, snap_steps_arr, snaps)

    def state(idx: int, step: int) -> FieldState:
        # rows of `snaps`, not copies: each snapshot is stored once
        u, v, w = snaps[idx]
        return FieldState(grid=grid, t=config.t0 + step * dt, u=u, v=v, w=w)

    if status >= 0:
        done = [s for s in snap_steps if s < status]
        good = [state(0, 0)]
        good.extend(state(j + 1, s) for j, s in enumerate(done))
        partial = SimRun(dt=dt, steps=status, snapshots=good,
                         rhs_evaluations=status + 1, aborted_at=status)
        # the last step at which the kernel found the state finite
        clean = max((status - 1) // FINITE_CHECK_EVERY * FINITE_CHECK_EVERY,
                    done[-1] if done else 0)
        err = NumericalError(
            f"non-finite state detected at step {status} "
            f"(t = {config.t0 + status * dt}), finite at step {clean} "
            f"(t = {config.t0 + clean * dt}); last good snapshot attached"
        )
        err.partial = partial
        raise err

    snapshots = [state(0, 0)]
    snapshots.extend(state(j + 1, s) for j, s in enumerate(snap_steps))
    return SimRun(dt=dt, steps=nsteps, snapshots=snapshots,
                  rhs_evaluations=nsteps + 1)


# ---------------------------------------------------------------------------
# front speed measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpeedEstimate:
    component: str
    level: float
    speed: float
    intercept: float
    fit_window: tuple[float, float]
    r_squared: float
    crossing_times: np.ndarray
    crossing_positions: np.ndarray
    reliable: bool

    def as_dict(self) -> dict:
        return {
            "component": self.component,
            "level": self.level,
            "speed": self.speed,
            "intercept": self.intercept,
            "fit_window": list(self.fit_window),
            "r_squared": self.r_squared,
            "n_crossings": int(len(self.crossing_times)),
            "reliable": self.reliable,
        }


def _level_crossing(x: np.ndarray, f: np.ndarray, level: float,
                    t: float) -> float:
    d = f - level
    hits = np.nonzero(d[:-1] * d[1:] < 0.0)[0]
    exact = np.nonzero(d == 0.0)[0]
    count = len(hits) + len(exact)
    if count == 0:
        raise NumericalError(
            f"no level-{level} crossing in snapshot at t = {t}"
        )
    if count > 1:
        raise NumericalError(
            f"multiple level-{level} crossings (non-monotone profile) "
            f"in snapshot at t = {t}"
        )
    if len(exact) == 1:
        return float(x[exact[0]])
    i = int(hits[0])
    return float(x[i] + (x[i + 1] - x[i]) * (level - f[i]) / (f[i + 1] - f[i]))


def measure_front_speed(run_or_snapshots, component: str, level: float,
                        fit_window: tuple[float, float] | None = None
                        ) -> SpeedEstimate:
    """Fit the level-crossing trajectory x_cross(t) with a straight line.

    Crossings are located by linear interpolation between adjacent grid
    points, one per snapshot (profiles must cross the level monotonically).
    The default fit window is the last half of the run, in time order
    whatever the snapshots' order; estimates with r^2 below `R2_RELIABLE`
    are flagged unreliable, not rejected.
    """
    snapshots: Sequence[FieldState] = (
        run_or_snapshots.snapshots
        if hasattr(run_or_snapshots, "snapshots") else run_or_snapshots
    )
    if component not in ("u", "v", "w"):
        raise ConstraintError("component must be one of u, v, w")
    if not snapshots:
        raise ConstraintError("no snapshots to measure a front speed in")
    if fit_window is None:
        t0, t1 = min(s.t for s in snapshots), max(s.t for s in snapshots)
        fit_window = (t0 + 0.5 * (t1 - t0), float(t1))
    lo, hi = fit_window
    used = sorted((s for s in snapshots if lo - 1e-12 <= s.t <= hi + 1e-12),
                  key=lambda s: s.t)
    if len(used) < 2:
        raise ConstraintError("fit window contains fewer than 2 snapshots")
    ts = np.asarray([s.t for s in used])
    xs = np.asarray([
        _level_crossing(s.grid.x(), getattr(s, component), level, s.t)
        for s in used
    ])
    slope, intercept = np.polyfit(ts, xs, 1)
    pred = slope * ts + intercept
    ss_res = float(np.add.reduce((xs - pred) ** 2))
    ss_tot = float(np.add.reduce((xs - xs.mean()) ** 2))
    if ss_tot <= 1e-300:
        r2 = 1.0 if ss_res <= 1e-300 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return SpeedEstimate(
        component=component,
        level=level,
        speed=float(slope),
        intercept=float(intercept),
        fit_window=(float(lo), float(hi)),
        r_squared=float(r2),
        crossing_times=ts,
        crossing_positions=xs,
        reliable=bool(r2 >= R2_RELIABLE),
    )
