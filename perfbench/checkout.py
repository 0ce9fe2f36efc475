"""Locate the checkout the benchmark runs in and import its hgf from source.

The benchmark never uses an installed hgf: it puts ``<checkout>/src`` first
on ``sys.path`` and checks that ``hgf`` really came from there.  A
directory without ``src/hgf`` is a usage error: the benchmark exits with
status 1 before anything is measured.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_hgf() -> None:
    """Make ``import hgf`` load ``<checkout>/src/hgf``; exit 1 if absent."""
    if not (SRC / "hgf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no hgf sources at {SRC / 'hgf'}; "
                 "run from the root of an hgf checkout")
    sys.path.insert(0, str(SRC))
    import hgf

    if SRC not in Path(hgf.__file__).resolve().parents:
        sys.exit(f"perfbench: imported hgf from {hgf.__file__}, "
                 f"not from {SRC}")
