"""Hot numerical loops: the method-of-lines RK4 time loop (`mol_run`)
and the fixed-step RK4 tabulation of y' = f(x, y, *c) (`ode_rk4_table`),
written with numpy.  The reduced systems it tabulates are written in
`hgf.reduction`.

`mol_run` allocates its stage buffers once per call and steps with out=
ufuncs: the Laplacian is written into the stage slope, scaled by the
diffusivities in place, and `model.kinetics` adds the reaction terms onto
it.  No state-sized array is allocated per step.

hgf starts no threads of its own: the kernels are sequential, and
refinement levels run in order on the calling thread (`hgf.calculus`).
"""

from __future__ import annotations

import numpy as np

from .model import kinetics

__all__ = [
    "thread_cap",
    "mol_run",
    "mol_run_numpy",
    "ode_rk4_table",
]

# kernel-path constants kept for the benchmark harness's environment record
USING_NUMBA = False
NUMBA_DISABLED_REASON = "hgf has a single numpy kernel path"


def thread_cap() -> int:
    """Worker threads hgf uses: always 1 (kept, like USING_NUMBA, for the
    benchmark harness's environment record)."""
    return 1


# ---------------------------------------------------------------------------
# method-of-lines RK4 loop
#
# State layout: F[3, n] holds the three fields on the grid.  bc_mode 0 is
# Dirichlet with per-stage boundary values taken from bc_table, bc_mode 1 is
# zero-flux (mirror ghost point).  bc_table has shape (T, 3, 3, 2) indexed by
# [step (or 0 if T == 1), stage time (t, t+dt/2, t+dt), component, side].
# snap_steps lists the 1-based step indices after which a snapshot is stored
# into snaps[1:]; snaps[0] must already hold the initial state.
# The state is checked for non-finite values at every snapshot step and
# every FINITE_CHECK_EVERY steps.  Returns -1 on success, else the 1-based
# step index where a non-finite value was detected.
#
# The out= ufuncs keep the operation order of the plain expressions
# (F[:-2] - 2 F[1:-1] + F[2:]) * (1/h^2), F + c k and
# k1 + 2 k2 + 2 k3 + k4, so the buffering changes no bit of the result.
# ---------------------------------------------------------------------------

FINITE_CHECK_EVERY = 64


def _mol_rhs(F, k_out, d, aco, inv_h2, bc_mode, scratch):
    """k_out = d * lap(F) + kinetics(F), the Laplacian written into k_out
    and the kinetics added onto it in place."""
    np.multiply(F[:, 1:-1], 2.0, out=scratch)
    np.subtract(F[:, :-2], scratch, out=scratch)
    np.add(scratch, F[:, 2:], out=scratch)
    np.multiply(scratch, inv_h2, out=k_out[:, 1:-1])
    if bc_mode == 1:
        k_out[:, 0] = 2.0 * (F[:, 1] - F[:, 0]) * inv_h2
        k_out[:, -1] = 2.0 * (F[:, -2] - F[:, -1]) * inv_h2
    np.multiply(k_out, d, out=k_out)
    kinetics(aco, F[0], F[1], F[2], k_out)
    if bc_mode == 0:
        k_out[:, 0] = 0.0
        k_out[:, -1] = 0.0


def mol_run_numpy(F, dco, aco, h, dt, nsteps, bc_mode, bc_table, snap_steps,
                  snaps):
    d = np.asarray(dco, dtype=float)[:, None]
    inv_h2 = 1.0 / (h * h)
    hdt = 0.5 * dt
    dt6 = dt / 6.0
    # zeros: the Dirichlet boundary columns of the slopes stay 0
    k1, k2, k3, k4, Y = (np.zeros_like(F) for _ in range(5))
    scratch = np.empty((F.shape[0], F.shape[1] - 2))
    # (slope in, slope out, stage step, stage time index of bc_table)
    stages = ((k1, k2, hdt, 1), (k2, k3, hdt, 1), (k3, k4, dt, 2))
    tabbed = bc_table.shape[0] > 1
    j = 0
    # blow-ups are detected via the periodic finite check, so numpy's
    # overflow warnings on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            tb = bc_table[step - 1] if tabbed else bc_table[0]
            _mol_rhs(F, k1, d, aco, inv_h2, bc_mode, scratch)
            for k_in, k_out, c, s in stages:
                np.multiply(k_in, c, out=Y)
                np.add(F, Y, out=Y)
                if bc_mode == 0:
                    Y[:, 0] = tb[s, :, 0]
                    Y[:, -1] = tb[s, :, 1]
                _mol_rhs(Y, k_out, d, aco, inv_h2, bc_mode, scratch)
            # F += dt6 * (((k1 + 2 k2) + 2 k3) + k4), accumulated in k1
            np.multiply(k2, 2.0, out=k2)
            np.add(k1, k2, out=k1)
            np.multiply(k3, 2.0, out=k3)
            np.add(k1, k3, out=k1)
            np.add(k1, k4, out=k1)
            np.multiply(k1, dt6, out=k1)
            np.add(F, k1, out=F)
            if bc_mode == 0:
                F[:, 0] = tb[2, :, 0]
                F[:, -1] = tb[2, :, 1]
            snap = j < snap_steps.shape[0] and snap_steps[j] == step
            if snap or step % FINITE_CHECK_EVERY == 0:
                if not np.isfinite(F).all():
                    return step
            if snap:
                snaps[j + 1] = F
                j += 1
    return -1


mol_run = mol_run_numpy


def ode_rk4_table(f, c, y0, x0, step, nout, out):
    """Fixed-step classic RK4 tabulation of y' = f(x, y, *c):
    out[i] = y(x0 + i*step)."""
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
