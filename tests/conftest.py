import numpy as np
import pytest

from hgf import solutions


@pytest.fixture(scope="session")
def tf63_std():
    """The reference front instance used throughout the acceptance suite."""
    return solutions.make_tf63(0.1, 0.35, a3=1.0, d3=3.0)


@pytest.fixture(scope="session")
def fam40_std():
    """Case-(i) instance under the positivity restrictions."""
    r = solutions.fam40_restrictions(0.1, 0.5)
    return solutions.make_fam40("i", 0.1, 0.5, r["beta"], 2.0, 0.5)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


def order_ok(o, lo=1.8, hi=2.2) -> bool:
    """Observed order within tolerance; an exactly-zero residual (inf
    sentinel) or an undefined component (None) also passes."""
    if o is None:
        return True
    return o == float("inf") or lo <= o <= hi


def same_bits(a, b) -> bool:
    """Equal to the bit: values (NaN equal to NaN) and signs, -0.0 too."""
    return (np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))
