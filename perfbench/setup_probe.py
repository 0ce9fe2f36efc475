"""Set-up probe: a fresh interpreter imports hgf and builds one workload's
inputs, then exits.  `run.py` times whole probe processes for ``setup_s``.

    python3 perfbench/setup_probe.py <workload> <seed> [--tiny]
"""

import sys
import tempfile

from checkout import ROOT, use_checkout_hgf

use_checkout_hgf()

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed = sys.argv[1], int(sys.argv[2])
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        workloads.build(name, seed, tmp, tiny="--tiny" in sys.argv[3:])
