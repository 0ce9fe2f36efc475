import os
import subprocess
import sys

import numpy as np
import pytest

from hgf import _kernels as K
from hgf import calculus, reduction, solutions


def _mol_inputs(n=201):
    tf63 = solutions.make_tf63(0.1, 0.35)
    grid = calculus.SpaceGrid(-10.0, 10.0, n)
    F0 = np.stack(tf63.evaluate(0.0, grid.x()))
    dco = np.asarray(tf63.params.diffusivities)
    aco = np.asarray(tf63.params.a_coefficients)
    bc = np.zeros((1, 3, 3, 2))
    for c in range(3):
        bc[0, :, c, 0] = F0[c, 0]
        bc[0, :, c, 1] = F0[c, -1]
    return F0, dco, aco, grid.h, bc


@pytest.mark.parametrize("bc_mode", [0, 1])
def test_mol_paths_bit_identical(bc_mode):
    F0, dco, aco, h, bc = _mol_inputs()
    snap_steps = np.array([50, 100], dtype=np.int64)
    out1 = np.empty((3, 3, F0.shape[1]))
    out2 = np.empty_like(out1)
    out1[0] = F0
    out2[0] = F0
    s1 = K.mol_run_loop(F0.copy(), dco, aco, h, 1e-4, 100, bc_mode, bc,
                        snap_steps, out1)
    s2 = K.mol_run_numpy(F0.copy(), dco, aco, h, 1e-4, 100, bc_mode, bc,
                         snap_steps, out2)
    assert s1 == s2 == -1
    np.testing.assert_array_equal(out1, out2)


def test_mol_blowup_status():
    F0, dco, aco, h, bc = _mol_inputs(51)
    F0[:] = -1e6
    snap_steps = np.arange(1, 51, dtype=np.int64)
    out = np.empty((51, 3, 51))
    out[0] = F0
    status = K.mol_run(F0.copy(), dco, aco, h, 1e-2, 50, 1, bc, snap_steps,
                       out)
    assert status >= 1


def test_ode_rhs_paths_agree(rng):
    # the kernel (numba or not) at single nodes, and the plain-Python body
    # at single nodes and on a whole (dim, n) grid, agree bit for bit
    py_rhs = K.ode_rhs.py_func if K.USING_NUMBA else K.ode_rhs
    for spec in reduction.SYSTEMS.values():
        c = rng.uniform(0.5, 2.0, len(spec.coeffs))
        ys = rng.uniform(-1, 1, (spec.dim, 7))
        xs = rng.uniform(-2, 2, 7)
        grid = py_rhs(spec.code, c, xs, ys)
        for i in range(xs.size):
            node = K.ode_rhs(spec.code, c, xs[i], ys[:, i].copy())
            np.testing.assert_array_equal(node, py_rhs(spec.code, c, xs[i],
                                                       ys[:, i].copy()))
            np.testing.assert_array_equal(node, grid[:, i])


def test_thread_cap_env(monkeypatch):
    monkeypatch.setenv("HGF_THREADS", "3")
    assert K.thread_cap() == 3
    monkeypatch.setenv("HGF_THREADS", "0")
    assert K.thread_cap() == 1
    monkeypatch.delenv("HGF_THREADS")
    assert K.thread_cap() >= 1


_FALLBACK_SCRIPT = r"""
import json
import numpy as np
from hgf import _kernels as K
from hgf import calculus, simulator, solutions

assert K.USING_NUMBA == {expect_numba}, K.NUMBA_DISABLED_REASON
tf63 = solutions.make_tf63(0.1, 0.35)
grid = calculus.SpaceGrid(-10.0, 15.0, 126)
cfg = simulator.SimConfig(params=tf63.params, grid=grid, t_end=0.2,
                          initial=tf63,
                          bc=simulator.dirichlet_at_endpoints(tf63),
                          snapshot_every=1000)
run = simulator.run(cfg)
print(json.dumps([run.snapshots[-1].stack().ravel().tolist(), run.steps]))
"""


def _run_child(env_flag: str):
    env = dict(os.environ)
    env["HGF_NO_NUMBA"] = env_flag
    script = _FALLBACK_SCRIPT.format(expect_numba=env_flag in ("", "0"))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    import json
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_fallback_path_matches_numba_bitwise():
    if not K.USING_NUMBA:
        pytest.skip("numba unavailable; nothing to compare against")
    fields_numba, steps_numba = _run_child("0")
    fields_numpy, steps_numpy = _run_child("1")
    assert steps_numba == steps_numpy
    assert fields_numba == fields_numpy  # exact, element by element
