"""What importing hgf does to the process: which modules it loads and how
it sets the C allocator."""

import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hgf


def _run_python(code: str) -> str:
    """Run `code` in a fresh interpreter that imports hgf from this tree,
    and return its standard output."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(hgf.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_cli_loads_no_scipy():
    # scipy.linalg took most of the start-up of every hgf command, while
    # only the MOL time step uses it; it is loaded on first use
    out = _run_python("import sys\n"
                      "import hgf.cli\n"
                      "print(sorted(m for m in sys.modules\n"
                      "             if m.split('.')[0] == 'scipy'))\n")
    assert out.strip() == "[]"


def test_reduce_without_verify_loads_no_scipy(tmp_path):
    # the trajectory built its spline at construction, for an error
    # estimate, and so imported 354 scipy modules; the spline is now
    # built on the first evaluation, which only --verify asks for
    report = tmp_path / "red.json"
    out = _run_python(
        "import sys\n"
        "from hgf import cli\n"
        "code = cli.dispatch(['reduce', '--system', 'R38', '--a1', '0.5',\n"
        "                     '--a3', '1', '--a4', '0.7', '--beta', '0.3',\n"
        f"                     '--span', '0', '3', '--out', {str(report)!r}])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.split('.')[0] == 'scipy'))\n")
    assert out.strip() == "0 []"
    assert json.loads(report.read_text())["results"]["nodes"] > 5


def test_simulate_loads_no_scipy_linalg(tmp_path):
    # the MOL step needs two LAPACK routines, which hgf takes from scipy's
    # extension module alone; importing scipy.linalg for them cost 28 MiB
    # and 85 scipy modules
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "family": {"key": "fisher"},
        "grid": {"x_min": -10.0, "x_max": 20.0, "n": 61},
        "time": {"t_end": 0.2, "snapshot_every": 10}}))
    out = _run_python(
        "import sys\n"
        "from hgf import cli\n"
        f"code = cli.dispatch(['simulate', '--config', {str(config)!r},\n"
        f"                     '--out', {str(tmp_path / 'run')!r},\n"
        "                     '--quiet'])\n"
        "print(code, sorted(m for m in sys.modules\n"
        "                   if m.split('.')[:2] == ['scipy', 'linalg']))\n")
    assert out.strip() == "0 []"
    assert (tmp_path / "run" / "snapshots.csv").exists()


_MOL_RUN = (
    "import numpy as np\n"
    "from hgf import _kernels as K\n"
    "F = np.zeros((3, 11))\n"
    "F[0, :5] = 1.0\n"
    "snaps = np.empty((2, 3, 11))\n"
    "snaps[0] = F\n"
    "assert K.mol_run(F, np.ones(3), np.ones(5), 0.1, 1e-3, 4, 1,\n"
    "                 np.zeros((1, 1, 3, 2)), np.array([4]), snaps) == -1\n")


def test_scipy_linalg_imports_as_usual_after_a_mol_run():
    # the extension module registers itself on load; hgf takes that entry
    # out again, so the package builds itself around the same routines
    out = _run_python(
        _MOL_RUN +
        "import scipy.linalg, scipy.interpolate\n"
        "print(hasattr(scipy.linalg, '_flapack'),\n"
        "      scipy.linalg.lapack.dpttrs is K._tridiagonal_lapack()[1],\n"
        "      scipy.linalg.lapack.dpttrf is K._tridiagonal_lapack()[0])\n")
    assert out.split() == ["True", "True", "True"]


def test_a_mol_run_leaves_scipy_linalgs_extension_entry_alone():
    out = _run_python(
        "import sys\n"
        "import scipy.linalg\n"
        "entry = sys.modules['scipy.linalg._flapack']\n" + _MOL_RUN +
        "print(sys.modules['scipy.linalg._flapack'] is entry,\n"
        "      K._tridiagonal_lapack() == (scipy.linalg.lapack.dpttrf,\n"
        "                                  scipy.linalg.lapack.dpttrs))\n")
    assert out.split() == ["True", "True"]


def test_allocator_left_alone_without_libc(monkeypatch, capsys):
    opened = []

    def no_libc(name, *args, **kw):
        opened.append(name)
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(ctypes, "CDLL", no_libc)
    assert hgf._fix_malloc_thresholds() is None
    assert opened == ["libc.so.6"]
    assert capsys.readouterr() == ("", "")


def _have_mallopt() -> bool:
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    return True


@pytest.mark.skipif(not _have_mallopt(),
                    reason="glibc's mallopt is absent: hgf leaves the "
                           "allocator as it is")
def test_row_sized_arrays_are_reused_without_page_faults():
    # glibc's dynamic thresholds handed freed 200 KB rows back to the
    # kernel, so each reuse faulted them in again (359 minor faults per
    # cycle before the thresholds were fixed)
    out = _run_python(
        "import json, resource\n"
        "import numpy as np\n"
        "import hgf\n"
        "def cycle():\n"
        "    rows = [np.ones(25_001) for _ in range(12)]\n"
        "    del rows\n"
        "for _ in range(5):\n"
        "    cycle()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(50):\n"
        "    cycle()\n"
        "after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "print(json.dumps((after - before) / 50))\n")
    assert json.loads(out) < 1.0
