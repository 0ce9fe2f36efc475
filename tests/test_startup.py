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
