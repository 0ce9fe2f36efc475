"""Hot numerical kernels: the method-of-lines RK4 time loop (`mol_run`)
and the fixed-step RK4 tabulation of reduced-system profiles
(`ode_rk4_table`), written with numpy.

`mol_run` allocates its stage buffers once per call and steps with out=
ufuncs: the Laplacian is written into the stage slope, scaled by the
diffusivities in place, and `model.kinetics` adds the reaction terms onto
it.  No state-sized array is allocated per step.

``HGF_THREADS`` caps the number of worker threads used for embarrassingly
parallel work (independent refinement levels); kernels themselves are
sequential so output never depends on the thread count.
"""

from __future__ import annotations

import math
import os
import warnings

import numpy as np

from .model import kinetics

__all__ = [
    "thread_cap",
    "mol_run",
    "mol_run_numpy",
    "ode_rk4_table",
    "ode_rhs",
]

_SQRT6 = math.sqrt(6.0)

# kernel-path constants kept for the benchmark harness's environment record
USING_NUMBA = False
NUMBA_DISABLED_REASON = "hgf has a single numpy kernel path"


def thread_cap() -> int:
    """Worker-thread cap from HGF_THREADS (default: all cores).

    A value that is not an integer falls back to 1 with a RuntimeWarning.
    """
    raw = os.environ.get("HGF_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
            warnings.warn(f"HGF_THREADS={raw!r} is not an integer; using 1 "
                          "worker thread", RuntimeWarning, stacklevel=2)
            n = 1
        return max(1, n)
    return max(1, os.cpu_count() or 1)


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


# ---------------------------------------------------------------------------
# reduced-system right-hand sides, dispatched by the integer code of
# hgf.reduction.SYSTEMS
#
# State layouts: second-order systems in first-order form use
# (U, U', V, V', W, W'); first-order systems use (U, V, W); the scalar
# linear profile equations use (U, U') / (V, V').  A state of shape
# (dim, n) with x of shape (n,) evaluates n nodes at once.
# ---------------------------------------------------------------------------


def _tanh(x):
    """math.tanh, elementwise on arrays: np.tanh differs from it in the
    last bit, and a node's derivative must not depend on how many nodes
    are evaluated together."""
    if np.ndim(x) == 0:
        return math.tanh(x)
    return np.array([math.tanh(v) for v in x])


def ode_rhs(code, c, x, y):
    out = np.empty_like(y)
    if code == 1:  # R35
        alpha, a1, beta, a3, a4, d = c[0], c[1], c[2], c[3], c[4], c[5]
        U, Up, V, Vp, W, Wp = y[0], y[1], y[2], y[3], y[4], y[5]
        out[0] = Up
        out[1] = -alpha * Up - U * (1.0 + a1 * beta - a1 * V)
        out[2] = Vp
        out[3] = -alpha * Vp - V * (1.0 - a1 * V + a1 * W)
        out[4] = Wp
        out[5] = (-alpha * Wp - a3 * W * (1.0 - W) + a1 * a4 * V * W) / d
    elif code == 2:  # R38
        beta, a1, a3, a4 = c[0], c[1], c[2], c[3]
        U, V, W = y[0], y[1], y[2]
        out[0] = -U * (a1 * V - 1.0 - beta * beta * a1 * a1)
        out[1] = -V * (a1 * V - a1 * W - 1.0)
        out[2] = -W * (a3 * W + a1 * a4 * V - a3)
    elif code == 3:  # R47
        alpha, beta, a3, a4, d = c[0], c[1], c[2], c[3], c[4]
        U, Up, V, Vp, W, Wp = y[0], y[1], y[2], y[3], y[4], y[5]
        out[0] = Up
        out[1] = -alpha * Up - U * (1.0 - U)
        out[2] = Vp
        out[3] = -alpha * Vp - V * (1.0 - U) - U * (W - beta)
        out[4] = Wp
        out[5] = (-alpha * Wp - a3 * W * (1.0 - W) + a4 * U * W) / d
    elif code == 4:  # R58: d P'' + alpha P' + C(U, V, W) = 0, d1 = 1
        alpha, d2, d3 = c[0], c[6], c[7]
        U, Up, V, Vp, W, Wp = y[0], y[1], y[2], y[3], y[4], y[5]
        cu, cv, cw = kinetics(c[1:6], U, V, W,
                              (alpha * Up, alpha * Vp, alpha * Wp))
        out[0] = Up
        out[1] = -cu
        out[2] = Vp
        out[3] = -cv / d2
        out[4] = Wp
        out[5] = -cw / d3
    elif code == 5:  # T2a
        alpha, beta, a1, a4 = c[0], c[1], c[2], c[3]
        U, Up, V, Vp, W, Wp = y[0], y[1], y[2], y[3], y[4], y[5]
        out[0] = Up
        out[1] = -alpha * Up - U * (1.0 + a1 * beta - a1 * V)
        out[2] = Vp
        out[3] = -alpha * Vp - V * (1.0 - a1 * V + a1 * W)
        out[4] = Wp
        out[5] = -alpha * Wp + a1 * a4 * V * W
    elif code == 6:  # T2b
        alpha, gamma, a1, a4 = c[0], c[1], c[2], c[3]
        U, Up, V, Vp, W, Wp = y[0], y[1], y[2], y[3], y[4], y[5]
        s = (a4 - 1.0) * V + W + (1.0 - a4) / a1
        out[0] = Up
        out[1] = -alpha * Up + a1 * U * V + gamma * s
        out[2] = Vp
        out[3] = -alpha * Vp - V * (1.0 - a1 * V + a1 * W)
        out[4] = Wp
        out[5] = -alpha * Wp + a1 * a4 * V * W
    elif code == 7:  # T2c
        beta, a1, a4 = c[0], c[1], c[2]
        U, V, W = y[0], y[1], y[2]
        out[0] = -U * (a1 * V - 1.0 - a1 * a1 * beta * beta)
        out[1] = -V * (a1 * V - a1 * W - 1.0)
        out[2] = -a1 * a4 * V * W
    elif code == 8:  # T2d
        a1, a4 = c[0], c[1]
        U, V, W = y[0], y[1], y[2]
        out[0] = -U * (a1 * V - 1.0)
        out[1] = -V * (a1 * V - a1 * W - 1.0)
        out[2] = -a1 * a4 * V * W
    elif code == 9:  # L36
        alpha, a1, beta, k1, k2 = c[0], c[1], c[2], c[3], c[4]
        U, Up = y[0], y[1]
        phi = 1.0 - _tanh(k2 * x / (2.0 * _SQRT6))
        out[0] = Up
        out[1] = -alpha * Up - U * (1.0 + a1 * beta - k1 * phi * phi)
    else:  # L52
        alpha, beta, a4, case50 = c[0], c[1], c[2], c[3]
        V, Vp = y[0], y[1]
        phi = 1.0 - _tanh(x / (2.0 * _SQRT6))
        U = 0.25 * phi * phi
        if case50 > 0.5:
            W = 0.25 * (1.0 - a4) * phi * phi
        else:
            W = 1.0 - 0.25 * phi * phi
        out[0] = Vp
        out[1] = -alpha * Vp - V * (1.0 - U) - U * (W - beta)
    return out


def ode_rk4_table(code, c, y0, x0, step, nout, out):
    """Fixed-step classic RK4 tabulation: out[i] = y(x0 + i*step)."""
    y = y0
    out[0] = y
    for i in range(1, nout):
        x = x0 + (i - 1) * step
        k1 = ode_rhs(code, c, x, y)
        k2 = ode_rhs(code, c, x + 0.5 * step, y + (0.5 * step) * k1)
        k3 = ode_rhs(code, c, x + 0.5 * step, y + (0.5 * step) * k2)
        k4 = ode_rhs(code, c, x + step, y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i] = y
