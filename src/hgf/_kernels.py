"""Hot numerical loops: the method-of-lines IMEX time loop (`mol_run`),
written with numpy and LAPACK.  The reduced ODE systems are integrated by
`hgf.reduction.integrate` alone; the fixed-step RK4 table `ode_rk4_table`
is kept only for the benchmark harness, which wraps it by name.

`mol_run` factors its constant implicit matrix once per run (LAPACK
`dpttrf`); a step is then one `model.kinetics` call and one in-place
`dpttrs` solve, into buffers allocated once per call.  LAPACK is loaded
from `scipy.linalg` on first use, not at import: `scipy.linalg` takes
most of the time of `import hgf`, and only the MOL time step needs it.

hgf starts no threads of its own: the kernels are sequential, and
refinement levels run in order on the calling thread (`hgf.calculus`).
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError
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
# method-of-lines CNAB2 loop
#
# State layout: F[3, n] holds the three fields on the grid.  bc_mode 0 is
# Dirichlet with boundary values taken from bc_table, bc_mode 1 is
# zero-flux (mirror ghost point).  bc_table has shape (T, S, 3, 2) indexed
# by [step (or 0 if T == 1), stage, component, side]; only the last stage
# row, the values at the end of the step, is read (`hgf.simulator` passes
# S = 1).
# snap_steps lists the 1-based step indices after which a snapshot is stored
# into snaps[1:]; snaps[0] must already hold the initial state.
# The state is checked for non-finite values at every snapshot step and
# every FINITE_CHECK_EVERY steps.  Returns -1 on success, else the 1-based
# step index where a non-finite value was detected.  F is used as one of
# the two state buffers: on return it holds no defined state.
#
# The scheme is CNAB2 (Ascher, Ruuth & Wetton 1995, SIAM J. Numer. Anal.
# 32:797).  With L the Laplacian (boundary rows included), r = dt/2 * d/h^2
# and N^k the kinetics at step k, a step solves
#
#     (I - r L) F^{k+1} = (I + r L) F^k + dt (3/2 N^k - 1/2 N^{k-1}).
#
# The first step has no N^{-1}.  It is a CN-Heun predictor-corrector: a
# predictor F* with dt N^0, then the corrector with dt/2 (N^0 + N(F*)), so
# the start is second order as well.  The kinetics run nsteps + 1 times.
# Every r is stable, but above r = 1/2 grid-scale modes flip sign each
# step, so `hgf.simulator` chooses dt with r <= 1/2.
# ---------------------------------------------------------------------------

FINITE_CHECK_EVERY = 64


def _cn_factor(r, n, bc_mode):
    """LDL^T factors of I - r L, the three components stacked as one
    symmetric positive definite tridiagonal system of 3n unknowns.

    Dirichlet rows are identity rows; their neighbours take the boundary
    values on the right-hand side.  Zero-flux rows are halved, the
    trapezoid weights under which L is symmetric."""
    from scipy.linalg.lapack import dpttrf
    rr = np.repeat(r, n)
    diag = 1.0 + 2.0 * rr
    off = -rr[:-1]  # off[g] couples rows g and g + 1
    first = np.arange(r.size) * n
    last = first + n - 1
    off[last[:-1]] = 0.0  # no coupling across components
    if bc_mode == 0:
        diag[first] = diag[last] = 1.0
        off[first] = off[last - 1] = 0.0
    else:
        diag[first] = diag[last] = 0.5 + r
    d, e, info = dpttrf(diag, off)
    # kept: info is LAPACK's only report of a matrix not positive definite
    if info != 0:
        raise NumericalError(f"implicit diffusion matrix not factored "
                             f"(dpttrf info {info})")
    return d, e


def mol_run(F, dco, aco, h, dt, nsteps, bc_mode, bc_table, snap_steps,
            snaps):
    from scipy.linalg.lapack import dpttrs
    F = np.ascontiguousarray(F, dtype=float)  # flat views for dpttrs
    n = F.shape[1]
    r = (0.5 * dt / (h * h)) * np.asarray(dco, dtype=float)
    d, e = _cn_factor(r, n, bc_mode)
    # the kinetics now and one step back, the right-hand side that is
    # solved in place into the next state, and the stencil buffer
    N, N_old, B = (np.empty(F.shape) for _ in range(3))
    lap = np.empty((F.shape[0], n - 2))
    tabbed = bc_table.shape[0] > 1

    def kinetics_of(F, out):
        out.fill(0.0)
        kinetics(aco, F[0], F[1], F[2], out)

    def implicit_solve(F, B, tb):
        """B (holding the kinetics part) += (I + r L) F, then
        B = (I - r L)^-1 B."""
        np.add(F[:, :-2], F[:, 2:], out=lap)
        np.subtract(lap, F[:, 1:-1], out=lap)
        np.subtract(lap, F[:, 1:-1], out=lap)
        np.multiply(lap, r[:, None], out=lap)
        np.add(B, F, out=B)
        np.add(B[:, 1:-1], lap, out=B[:, 1:-1])
        if bc_mode == 0:
            B[:, 0] = tb[:, 0]
            B[:, -1] = tb[:, 1]
            B[:, 1] += r * tb[:, 0]
            B[:, -2] += r * tb[:, 1]
        else:
            B[:, 0] = 0.5 * B[:, 0] + r * (F[:, 1] - F[:, 0])
            B[:, -1] = 0.5 * B[:, -1] + r * (F[:, -2] - F[:, -1])
        flat = B.reshape(-1)  # a view: B is C-contiguous
        x, info = dpttrs(d, e, flat, overwrite_b=1)
        # kept: info < 0 is LAPACK's only report of a bad argument
        if info != 0:
            raise NumericalError(f"implicit diffusion solve failed "
                                 f"(dpttrs info {info})")
        if x is not flat:  # kept: f2py may still solve into a copy
            flat[...] = x

    j = 0
    # blow-ups are detected via the periodic finite check, so numpy's
    # overflow warnings on the way there are just noise
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, nsteps + 1):
            tb = (bc_table[step - 1] if tabbed else bc_table[0])[-1]
            N, N_old = N_old, N
            kinetics_of(F, N)
            if step == 1:
                np.multiply(N, dt, out=B)
                implicit_solve(F, B, tb)  # B = F*
                kinetics_of(B, N_old)
                np.add(N, N_old, out=B)
                np.multiply(B, 0.5 * dt, out=B)
            else:
                np.multiply(N, 3.0, out=B)
                np.subtract(B, N_old, out=B)
                np.multiply(B, 0.5 * dt, out=B)
            implicit_solve(F, B, tb)
            F, B = B, F
            snap = j < snap_steps.shape[0] and snap_steps[j] == step
            if snap or step % FINITE_CHECK_EVERY == 0:
                if not np.isfinite(F).all():
                    return step
            if snap:
                snaps[j + 1] = F
                j += 1
    return -1


# the name the benchmark harness's kernel-parity check passes
mol_run_numpy = mol_run


def ode_rk4_table(f, c, y0, x0, step, nout, out):
    """Fixed-step classic RK4 tabulation of y' = f(x, y, *c):
    out[i] = y(x0 + i*step), on a list state (f takes and returns lists,
    as `SystemSpec.first_order` does), equal to the bit to the vector form.

    Nothing in hgf calls it (`reduction.integrate` fills every table); it
    stays, like `thread_cap`, because the benchmark harness wraps
    `reduction.ode_rk4_table` by name and runs it in its parity check."""
    y = np.asarray(y0, dtype=float).tolist()
    rows = [y]
    half, sixth = 0.5 * step, step / 6.0
    for i in range(1, nout):
        x = x0 + (i - 1) * step
        k1 = f(x, y, *c)
        k2 = f(x + half, [p + half * q for p, q in zip(y, k1)], *c)
        k3 = f(x + half, [p + half * q for p, q in zip(y, k2)], *c)
        k4 = f(x + step, [p + step * q for p, q in zip(y, k3)], *c)
        y = [p + sixth * (q1 + 2.0 * q2 + 2.0 * q3 + q4)
             for p, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)]
        rows.append(y)
    out[:] = rows
