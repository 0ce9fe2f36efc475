"""Exception types shared across the package.

The CLI maps these onto exit codes: ConstraintError -> 1 (bad inputs or a
violated admissibility condition), OSError -> 1 (a file that cannot be
read or written), NumericalError -> 2 (a computation that started but
could not finish: blow-up, step-size underflow, missing level crossing),
and any other exception -> 3 (an internal error: a bug in hgf, reported
with its traceback).
"""


class ConstraintError(ValueError):
    """An input violates a documented admissibility condition."""


class DomainError(ConstraintError):
    """A sampler or profile was evaluated outside its covered domain."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (blow-up, underflow, no crossing...)."""
