"""Numerical laboratory for the three-component hunter-gatherer / farmer
reaction-diffusion system: exact-solution catalog, symmetry group flows,
ODE reductions, method-of-lines simulation and residual verification."""

from . import calculus, model, reduction, simulator, solutions, symmetry
from .errors import ConstraintError, DomainError, NumericalError
from .model import OriginalParams, Params, Solution

__version__ = "0.1.0"

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
