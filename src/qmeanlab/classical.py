"""Classical sampling baselines: median-of-means (one group: the empirical mean).

These run against the same random variables as the quantum estimators and
charge every draw to the ledger, so error-per-budget comparisons are direct.
"""

from __future__ import annotations

import math

import numpy as np

from qmeanlab.oracles import CostLedger
from qmeanlab.probspace import RandomVariable

__all__ = [
    "sample",
    "coordinate_median",
    "median_of_means",
    "subgaussian_groups",
    "subgaussian_estimate",
]


def sample(
    rv: RandomVariable,
    count: int,
    rng: np.random.Generator,
    ledger: CostLedger | None = None,
) -> np.ndarray:
    """Draw ``count`` i.i.d. outcomes as a read-only (count, d) array.

    Charges ``count`` classical samples.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    idx = rng.choice(rv.size, size=count, p=rv.prob)
    if ledger is not None:
        ledger.charge(classical_samples=float(count))
    draws = rv.values[idx]
    draws.flags.writeable = False
    return draws


def _shifted_mean(rows: np.ndarray) -> np.ndarray:
    # mean computed against the first row as origin: exact (not just close)
    # when all rows coincide, which degenerate distributions rely on
    return rows[0] + (rows - rows[0]).mean(axis=0)


def coordinate_median(estimates) -> np.ndarray:
    """Per coordinate, the ceil(r/2)-th smallest of r values (lower median).

    The result owns its data: a row view would keep the whole sorted (r, d)
    block alive for as long as the caller keeps the median.
    """
    arr = np.atleast_2d(np.asarray(estimates, dtype=float))
    r = arr.shape[0]
    if r == 0:
        raise ValueError("empty estimate list")
    return np.sort(arr, axis=0)[(r - 1) // 2].copy()


def median_of_means(draws: np.ndarray, groups: int) -> np.ndarray:
    """Coordinate-wise median of contiguous-block means of (count, d) draws.

    Blocks have size count // groups; the remainder is appended to the last
    block.  Fixed grouping keeps the output deterministic given the draws.
    """
    count = draws.shape[0]
    if groups < 1:
        raise ValueError(f"groups must be at least 1, got {groups}")
    if groups > count:
        raise ValueError(f"groups={groups} exceeds the batch size {count}")
    block = count // groups
    means = np.empty((groups, draws.shape[1]))
    for g in range(groups):
        stop = (g + 1) * block if g < groups - 1 else count
        means[g] = _shifted_mean(draws[g * block : stop])
    return coordinate_median(means)


def _check_delta(delta: float) -> None:
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")


def subgaussian_groups(n: int, delta: float) -> int:
    """Group count for the sub-Gaussian baseline: 8*ceil(log2(2/delta)).

    For delta in (0, 1); clamped to n so the grouping is always feasible.
    """
    return min(8 * math.ceil(math.log2(2.0 / delta)), n)


def subgaussian_estimate(
    rv: RandomVariable,
    n: int,
    delta: float,
    rng: np.random.Generator,
    ledger: CostLedger | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Median-of-means baseline: draws exactly n samples, returns (estimate, draws).

    ``delta`` must lie in (0, 1) and n must be at least ceil(log2(1/delta)).
    """
    _check_delta(delta)
    needed = math.ceil(math.log2(1.0 / delta))
    if n < needed:
        raise ValueError(f"n={n} is below ceil(log2(1/delta)) = {needed}")
    draws = sample(rv, n, rng, ledger)
    return median_of_means(draws, subgaussian_groups(n, delta)), draws
