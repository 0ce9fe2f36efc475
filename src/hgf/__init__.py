"""Numerical laboratory for the three-component hunter-gatherer / farmer
reaction-diffusion system: exact-solution catalog, symmetry group flows,
ODE reductions, method-of-lines simulation and residual verification.

Importing hgf fixes the C allocator's thresholds for the whole process
(`_fix_malloc_thresholds`).
"""

import ctypes

from . import calculus, model, reduction, simulator, solutions, symmetry
from .errors import ConstraintError, DomainError, NumericalError
from .model import OriginalParams, Params, Solution

__version__ = "0.1.0"

# glibc mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _fix_malloc_thresholds() -> None:
    """Serve row-sized arrays from the heap and keep freed heap memory.

    Sampling, residuals and kinetics allocate and free 10-15 row-sized
    arrays (200 KB at n = 25,001) per call.  glibc's dynamic thresholds
    decide per process, from its allocation history, whether freed rows
    are reused or handed back and faulted in again: 5 of 10 fresh
    `verify` benchmark processes took 98,000-152,000 minor page faults
    per pass (0.85-1.09 s) against 2,000-8,900 (0.52-0.64 s).  Fixed
    values turn the dynamic thresholds off: 10 of 10 then took 17-18
    faults per pass (0.51-0.76 s), on 2 vCPUs.  Does nothing where
    libc.so.6 or its mallopt is missing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 4_000_000)
    mallopt(_M_TRIM_THRESHOLD, 100_000_000)


_fix_malloc_thresholds()

__all__ = [
    "calculus",
    "model",
    "reduction",
    "simulator",
    "solutions",
    "symmetry",
    "ConstraintError",
    "DomainError",
    "NumericalError",
    "OriginalParams",
    "Params",
    "Solution",
    "__version__",
]
