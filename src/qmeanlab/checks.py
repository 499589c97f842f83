"""Input checks: one function per precondition, each refusing with one ValueError line.

Every module refuses a bad count, budget, probability, norm bound, lattice
size or array size through these; ``name`` is what the message calls the value.
"""

import math
import numbers

import numpy as np


def as_integer(name: str, value, at_least: float = -math.inf) -> int:
    """``value`` as an int: a Python or NumPy integer (not bool), at least ``at_least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < at_least:
        bound = f" at least {at_least}" if at_least > -math.inf else ""
        raise ValueError(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def as_real(name: str, value) -> float:
    """``value`` as a float: a Python or NumPy real number (not bool) within float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} holds an integer too large for a float") from None


def as_positive(name: str, value) -> float:
    """``value`` as a finite, positive float (see :func:`as_real`)."""
    x = as_real(name, value)
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
    return x


def check_open_unit(name: str, value: float) -> None:
    """``value`` lies in the open interval (0, 1) (NaN fails)."""
    if not (0 < value < 1):
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")


def check_norm_bound(name: str, value: float) -> None:
    """A norm bound lies in (0, 1] (NaN fails)."""
    if not (0 < value <= 1):
        raise ValueError(f"{name} must lie in (0, 1], got {value!r}")


def check_power_of_two(name: str, value: int) -> None:
    """``value`` is a positive power of two."""
    if value < 1 or (value & (value - 1)) != 0:
        raise ValueError(f"{name} must be a positive power of two, got {value}")


def check_array_bytes(nbytes: int, wall: str) -> None:
    """Refuse, before it is allocated, an array (an axis of the lattice, a table of classical
    draws) of ``nbytes`` above 2^30 bytes; ``wall`` describes it."""
    if nbytes > 2**30:
        raise ValueError(f"{wall} > 2^30 bytes")
