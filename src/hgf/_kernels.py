"""Hot numerical kernels with a numba fast path and a pure-numpy fallback.

The two kernels that dominate runtime are the method-of-lines RK4 time
loop (`mol_run`) and the fixed-step RK4 tabulation of reduced-system
profiles (`ode_rk4_table`).  Both exist in two functionally identical
variants:

* a loop-style implementation compiled with ``numba.njit`` (default), and
* a vectorized / plain-Python fallback.

Setting the environment variable ``HGF_NO_NUMBA=1`` before import selects
the fallback; it is also selected automatically when numba is missing.
Both paths perform the same floating-point operations in the same order,
so results are bit-identical (see tests/test_kernels.py).

``HGF_THREADS`` caps the number of worker threads used for embarrassingly
parallel work (independent refinement levels); kernels themselves are
sequential so output never depends on the thread count.
"""

from __future__ import annotations

import math
import os

import numpy as np

__all__ = [
    "USING_NUMBA",
    "NUMBA_DISABLED_REASON",
    "thread_cap",
    "mol_run",
    "mol_run_loop",
    "mol_run_numpy",
    "ode_rk4_table",
    "ode_rhs",
]

_SQRT6 = math.sqrt(6.0)


def _env_flag(name: str) -> bool:
    val = os.environ.get(name, "").strip().lower()
    return val not in ("", "0", "false", "no")


def thread_cap() -> int:
    """Worker-thread cap from HGF_THREADS (default: all cores)."""
    raw = os.environ.get("HGF_THREADS", "").strip()
    if raw:
        try:
            n = int(raw)
        except ValueError:
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
# Returns -1 on success, else the 1-based step index where a non-finite
# value was detected.
# ---------------------------------------------------------------------------


def _mol_rhs_loop(F, out, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode):
    n = F.shape[1]
    for i in range(1, n - 1):
        u = F[0, i]
        v = F[1, i]
        w = F[2, i]
        lapu = (F[0, i - 1] - 2.0 * u + F[0, i + 1]) * inv_h2
        lapv = (F[1, i - 1] - 2.0 * v + F[1, i + 1]) * inv_h2
        lapw = (F[2, i - 1] - 2.0 * w + F[2, i + 1]) * inv_h2
        g = 1.0 - u - a1 * v
        out[0, i] = d1 * lapu + u * g
        out[1, i] = d2 * lapv + a2 * v * g + u * w + a1 * v * w
        out[2, i] = d3 * lapw + a3 * w * (1.0 - w) - a4 * u * w - a5 * v * w
    if bc_mode == 1:
        for j in range(2):
            i = 0 if j == 0 else n - 1
            k = 1 if j == 0 else n - 2
            u = F[0, i]
            v = F[1, i]
            w = F[2, i]
            lapu = 2.0 * (F[0, k] - u) * inv_h2
            lapv = 2.0 * (F[1, k] - v) * inv_h2
            lapw = 2.0 * (F[2, k] - w) * inv_h2
            g = 1.0 - u - a1 * v
            out[0, i] = d1 * lapu + u * g
            out[1, i] = d2 * lapv + a2 * v * g + u * w + a1 * v * w
            out[2, i] = d3 * lapw + a3 * w * (1.0 - w) - a4 * u * w - a5 * v * w
    else:
        for c in range(3):
            out[c, 0] = 0.0
            out[c, n - 1] = 0.0


def _set_bounds(Y, tb, stage):
    n = Y.shape[1]
    for c in range(3):
        Y[c, 0] = tb[stage, c, 0]
        Y[c, n - 1] = tb[stage, c, 1]


def mol_run_loop(F, dco, aco, h, dt, nsteps, bc_mode, bc_table, snap_steps, snaps):
    n = F.shape[1]
    d1 = dco[0]
    d2 = dco[1]
    d3 = dco[2]
    a1 = aco[0]
    a2 = aco[1]
    a3 = aco[2]
    a4 = aco[3]
    a5 = aco[4]
    inv_h2 = 1.0 / (h * h)
    hdt = 0.5 * dt
    dt6 = dt / 6.0
    k1 = np.empty((3, n))
    k2 = np.empty((3, n))
    k3 = np.empty((3, n))
    k4 = np.empty((3, n))
    Y = np.empty((3, n))
    tabbed = bc_table.shape[0] > 1
    j = 0
    for step in range(1, nsteps + 1):
        tb = bc_table[step - 1] if tabbed else bc_table[0]
        _mol_rhs_loop(F, k1, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode)
        for c in range(3):
            for i in range(n):
                Y[c, i] = F[c, i] + hdt * k1[c, i]
        if bc_mode == 0:
            _set_bounds(Y, tb, 1)
        _mol_rhs_loop(Y, k2, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode)
        for c in range(3):
            for i in range(n):
                Y[c, i] = F[c, i] + hdt * k2[c, i]
        if bc_mode == 0:
            _set_bounds(Y, tb, 1)
        _mol_rhs_loop(Y, k3, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode)
        for c in range(3):
            for i in range(n):
                Y[c, i] = F[c, i] + dt * k3[c, i]
        if bc_mode == 0:
            _set_bounds(Y, tb, 2)
        _mol_rhs_loop(Y, k4, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode)
        for c in range(3):
            for i in range(n):
                F[c, i] = F[c, i] + dt6 * (
                    k1[c, i] + 2.0 * k2[c, i] + 2.0 * k3[c, i] + k4[c, i]
                )
        if bc_mode == 0:
            _set_bounds(F, tb, 2)
        if j < snap_steps.shape[0] and snap_steps[j] == step:
            ok = True
            for c in range(3):
                for i in range(n):
                    if not math.isfinite(F[c, i]):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                return step
            for c in range(3):
                for i in range(n):
                    snaps[j + 1, c, i] = F[c, i]
            j += 1
    return -1


def _mol_rhs_numpy(F, out, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode):
    u, v, w = F
    lap = np.empty_like(F)
    lap[:, 1:-1] = (F[:, :-2] - 2.0 * F[:, 1:-1] + F[:, 2:]) * inv_h2
    if bc_mode == 1:
        lap[:, 0] = 2.0 * (F[:, 1] - F[:, 0]) * inv_h2
        lap[:, -1] = 2.0 * (F[:, -2] - F[:, -1]) * inv_h2
    else:
        lap[:, 0] = 0.0
        lap[:, -1] = 0.0
    g = 1.0 - u - a1 * v
    out[0] = d1 * lap[0] + u * g
    out[1] = d2 * lap[1] + a2 * v * g + u * w + a1 * v * w
    out[2] = d3 * lap[2] + a3 * w * (1.0 - w) - a4 * u * w - a5 * v * w
    if bc_mode == 0:
        out[:, 0] = 0.0
        out[:, -1] = 0.0


def mol_run_numpy(F, dco, aco, h, dt, nsteps, bc_mode, bc_table, snap_steps,
                  snaps):
    # blow-ups are detected via the per-snapshot finite check, so numpy's
    # overflow warnings on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        return _mol_run_numpy(F, dco, aco, h, dt, nsteps, bc_mode, bc_table,
                              snap_steps, snaps)


def _mol_run_numpy(F, dco, aco, h, dt, nsteps, bc_mode, bc_table, snap_steps,
                   snaps):
    n = F.shape[1]
    d1, d2, d3 = dco
    a1, a2, a3, a4, a5 = aco
    inv_h2 = 1.0 / (h * h)
    hdt = 0.5 * dt
    dt6 = dt / 6.0
    k1 = np.empty((3, n))
    k2 = np.empty((3, n))
    k3 = np.empty((3, n))
    k4 = np.empty((3, n))
    tabbed = bc_table.shape[0] > 1
    j = 0
    for step in range(1, nsteps + 1):
        tb = bc_table[step - 1] if tabbed else bc_table[0]
        _mol_rhs_numpy(F, k1, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode)
        Y = F + hdt * k1
        if bc_mode == 0:
            Y[:, 0] = tb[1, :, 0]
            Y[:, -1] = tb[1, :, 1]
        _mol_rhs_numpy(Y, k2, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode)
        Y = F + hdt * k2
        if bc_mode == 0:
            Y[:, 0] = tb[1, :, 0]
            Y[:, -1] = tb[1, :, 1]
        _mol_rhs_numpy(Y, k3, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode)
        Y = F + dt * k3
        if bc_mode == 0:
            Y[:, 0] = tb[2, :, 0]
            Y[:, -1] = tb[2, :, 1]
        _mol_rhs_numpy(Y, k4, d1, d2, d3, a1, a2, a3, a4, a5, inv_h2, bc_mode)
        F += dt6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if bc_mode == 0:
            F[:, 0] = tb[2, :, 0]
            F[:, -1] = tb[2, :, 1]
        if j < snap_steps.shape[0] and snap_steps[j] == step:
            if not np.isfinite(F).all():
                return step
            snaps[j + 1] = F
            j += 1
    return -1


# ---------------------------------------------------------------------------
# reduced-system right-hand sides, dispatched by the integer code of
# hgf.reduction.SYSTEMS
#
# State layouts: second-order systems in first-order form use
# (U, U', V, V', W, W'); first-order systems use (U, V, W); the scalar
# linear profile equations use (U, U') / (V, V').  A state of shape
# (dim, n) with x of shape (n,) evaluates n nodes at once (plain-Python
# body only; the numba build takes scalar x).
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
    elif code == 4:  # R58
        alpha = c[0]
        a1, a2, a3, a4, a5 = c[1], c[2], c[3], c[4], c[5]
        d2, d3 = c[6], c[7]
        U, Up, V, Vp, W, Wp = y[0], y[1], y[2], y[3], y[4], y[5]
        g = 1.0 - U - a1 * V
        out[0] = Up
        out[1] = -alpha * Up - U * g
        out[2] = Vp
        out[3] = (-alpha * Vp - a2 * V * g - U * W - a1 * V * W) / d2
        out[4] = Wp
        out[5] = (-alpha * Wp - a3 * W * (1.0 - W) + a4 * U * W + a5 * V * W) / d3
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
    dim = y0.shape[0]
    y = y0.copy()
    for k in range(dim):
        out[0, k] = y[k]
    for i in range(1, nout):
        x = x0 + (i - 1) * step
        k1 = ode_rhs(code, c, x, y)
        k2 = ode_rhs(code, c, x + 0.5 * step, y + (0.5 * step) * k1)
        k3 = ode_rhs(code, c, x + 0.5 * step, y + (0.5 * step) * k2)
        k4 = ode_rhs(code, c, x + step, y + step * k3)
        y = y + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for k in range(dim):
            out[i, k] = y[k]
    return 0


NUMBA_DISABLED_REASON = ""
if _env_flag("HGF_NO_NUMBA"):
    USING_NUMBA = False
    NUMBA_DISABLED_REASON = "HGF_NO_NUMBA is set"
else:
    try:
        from numba import njit as _njit
        from numba.extending import overload as _overload

        @_overload(_tanh)
        def _tanh_jit(x):  # jitted callers pass scalar x only
            return lambda x: math.tanh(x)

        _mol_rhs_loop = _njit(cache=True, nogil=True)(_mol_rhs_loop)
        _set_bounds = _njit(cache=True, nogil=True)(_set_bounds)
        mol_run_loop = _njit(cache=True, nogil=True)(mol_run_loop)
        ode_rhs = _njit(cache=True, nogil=True)(ode_rhs)
        ode_rk4_table = _njit(cache=True, nogil=True)(ode_rk4_table)
        USING_NUMBA = True
    except ImportError:  # pragma: no cover - exercised via HGF_NO_NUMBA instead
        USING_NUMBA = False
        NUMBA_DISABLED_REASON = "numba not importable"

mol_run = mol_run_loop if USING_NUMBA else mol_run_numpy
