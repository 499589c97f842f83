"""Hard instance families: distributions whose means encode search problems.

Three generators produce random variables with prescribed (mean, Tr covariance)
so that estimating the mean to given accuracy is as hard as recovering a
planted bit vector.  They stress the estimators and exhibit error floors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from qmeanlab.checks import as_integer, check_power_of_two
from qmeanlab.probspace import RandomVariable

__all__ = [
    "SearchParityInstance",
    "search_parity_instance",
    "hadamard",
    "hard_rv_low_precision",
    "hard_rv_high_precision",
    "fractional_phase_rv",
    "designed_mean_low_precision",
    "designed_mean_high_precision",
    "designed_mean_fractional_phase",
]


def _sylvester_signs(d: int) -> np.ndarray:
    # the d x d sign matrix; d is a power of two, checked by the caller
    s = np.array([[1]], dtype=np.int64)
    block = np.array([[1, 1], [1, -1]], dtype=np.int64)
    while s.shape[0] < d:
        s = np.kron(s, block)
    return s


def hadamard(d: int) -> np.ndarray:
    """Sylvester Hadamard matrix, entries +-1/sqrt(d), first row/column positive."""
    check_power_of_two("d", d)
    return _sylvester_signs(d) / math.sqrt(d)


@dataclass(frozen=True)
class SearchParityInstance:
    """Binary matrix whose row weights hide a bit vector.

    floor(N/2) rows have Hamming weight floor(M/2) (those rows have b_i = 0);
    the remaining rows have weight floor(M/2) + 1 (b_i = 1).
    """

    A: np.ndarray
    b: np.ndarray
    N: int
    M: int

    def __post_init__(self) -> None:
        A = _check_bits(self.A, (self.N, self.M), "A")
        b = _check_bits(self.b, (self.N,), "b")
        weights = A.sum(axis=1)
        low, high = self.M // 2, self.M // 2 + 1
        if int((weights == low).sum()) != self.N // 2:
            raise ValueError(
                f"exactly {self.N // 2} rows must have weight {low}, "
                f"got {int((weights == low).sum())}"
            )
        if not np.isin(weights, (low, high)).all():
            raise ValueError(f"row weights must be {low} or {high}")
        if not np.array_equal(b, (weights == high).astype(b.dtype)):
            raise ValueError("b must indicate exactly the heavy rows")
        A.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


def search_parity_instance(N: int, M: int, rng: np.random.Generator) -> SearchParityInstance:
    """Uniformly random instance: heavy rows and each row's support are seeded."""
    N, M = as_integer("N", N, at_least=1), as_integer("M", M, at_least=1)
    b = np.zeros(N, dtype=np.int64)
    heavy = rng.choice(N, size=N - N // 2, replace=False)
    b[heavy] = 1
    A = np.zeros((N, M), dtype=np.int64)
    low = M // 2
    for i in range(N):
        support = rng.choice(M, size=low + int(b[i]), replace=False)
        A[i, support] = 1
    return SearchParityInstance(A=A, b=b, N=N, M=M)


def _check_bits(bits, shape: tuple[int, ...], name: str) -> np.ndarray:
    """``bits`` as a new int64 array of ``shape``, every entry 0 or 1."""
    bits = np.asarray(bits)
    if bits.shape != shape:
        raise ValueError(f"{name} has shape {bits.shape}, expected {shape}")
    if not np.isin(bits, (0, 1)).all():
        raise ValueError(f"{name} must be 0/1 valued")
    return bits.astype(np.int64)


def hard_rv_low_precision(
    n: int, d: int, sigma: float, b, alpha: int
) -> RandomVariable:
    """Uniform mixture of scaled partial-Hadamard rows selected by bits.

    Outcome i in [alpha*n] carries value alpha*sigma*sqrt(n/((alpha^2 n - alpha)/2))
    * b_i * H_i; Tr of the covariance is sigma^2 exactly and the mean is a
    rescaled H^T b, so exact mean knowledge recovers b by one matrix product.
    """
    n, alpha = as_integer("n", n, at_least=1), as_integer("alpha", alpha, at_least=1)
    check_power_of_two("d", d)
    count = alpha * n
    if count > d:
        raise ValueError(f"alpha*n = {count} exceeds d = {d}")
    if count % 2 != 0:
        raise ValueError(f"alpha*n = {count} must be even (b has weight alpha*n/2)")
    b = _check_bits(b, (count,), "b")
    if int(b.sum()) != count // 2:
        raise ValueError(f"b must have Hamming weight alpha*n/2 = {count // 2}, got {int(b.sum())}")
    scale = alpha * sigma * math.sqrt(n / ((alpha**2 * n - alpha) / 2.0))
    if not math.isfinite(scale):
        raise ValueError(f"value scale alpha*sigma*sqrt(2n/(alpha^2 n - alpha)) = {scale} is not finite")
    rows = _sylvester_signs(d)[:count] / math.sqrt(d)
    values = scale * b[:, None] * rows
    return RandomVariable(prob=np.full(count, 1.0 / count), values=values)


def designed_mean_low_precision(n: int, d: int, sigma: float, b, alpha: int) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    rows = hadamard(d)[: alpha * n]
    return sigma / math.sqrt(n * (alpha**2 * n - alpha) / 2.0) * (b @ rows)


# D = (alpha n)^2 - k d^2 of the high-precision family, k by normalization
_NORMALIZATION = {"d2": 1, "2d2": 2}


def _high_precision_columns(n: int, d: int, alpha: int) -> int:
    """M = alpha*n/d of the high-precision family, once n, alpha and d are checked.

    It runs before the (d, M) search instance is built, so bad shapes fail here.
    """
    n, alpha = as_integer("n", n, at_least=1), as_integer("alpha", alpha, at_least=1)
    if d < 2 or d % 2 != 0:
        raise ValueError(f"d must be even and at least 2, got {d}")
    count = alpha * n
    if count % d != 0:
        raise ValueError(f"alpha*n = {count} must be a multiple of d = {d}")
    M = count // d
    if M % 2 != 0:
        raise ValueError(
            f"alpha*n/d = {M} must be even (odd column counts shift every row "
            "parity and the mean no longer indicates the heavy rows)"
        )
    return M


def hard_rv_high_precision(
    n: int,
    d: int,
    sigma: float,
    inst: SearchParityInstance,
    alpha: int,
    normalization: str = "d2",
) -> RandomVariable:
    """Signed basis vectors indexed by a search-parity matrix.

    Outcome (i, j) in [d] x [alpha*n/d] carries (alpha*sigma*n/sqrt(D)) *
    (-1)^(1 + A_ij) * e_i, so the mean is (2 sigma/sqrt(D)) * b: reading off
    the heavy rows from the mean solves the instance.  ``normalization``
    selects D = (alpha n)^2 - d^2 ("d2") or (alpha n)^2 - 2 d^2 ("2d2"); with
    "d2", Tr of the covariance equals sigma^2 exactly iff d = 2.
    """
    M = _high_precision_columns(n, d, alpha)
    count = alpha * n
    if inst.N != d or inst.M != M:
        raise ValueError(
            f"instance shape ({inst.N}, {inst.M}) does not match (d, alpha*n/d) = ({d}, {M})"
        )
    if normalization not in _NORMALIZATION:
        raise ValueError(f"normalization must be 'd2' or '2d2', got {normalization!r}")
    D = count**2 - _NORMALIZATION[normalization] * d**2  # at least 2d^2: M is even, so alpha*n >= 2d
    scale = alpha * sigma * n / math.sqrt(D)
    signs = 2 * inst.A - 1  # (-1)^(1 + A): +1 where A = 1, -1 where A = 0
    values = np.zeros((count, d))
    for i in range(d):
        values[i * M : (i + 1) * M, i] = scale * signs[i]
    return RandomVariable(prob=np.full(count, 1.0 / count), values=values)


def designed_mean_high_precision(
    n: int, d: int, sigma: float, inst: SearchParityInstance, alpha: int, normalization: str = "d2"
) -> np.ndarray:
    count = alpha * n
    D = count**2 - _NORMALIZATION[normalization] * d**2
    return 2.0 * sigma / math.sqrt(D) * inst.b.astype(float)


def fractional_phase_rv(d_prime: int, n: float, b) -> RandomVariable:
    """Two-outcome-per-direction family with a fractionally tilted measure.

    Outcome (j, x) in [d'] x {0,1} has probability
    cos^2(pi/4 + (-1)^x * eps'/2 * b_j)/d' with eps' = arcsin(d'/n), and value
    x * sqrt(d')/4 * (column j of the Hadamard matrix).  The identity
    cos^2(pi/4 + t) = (1 - sin(2t))/2 turns the probabilities into
    (1 -+ b_j d'/n)/(2d'), which is also how they are computed: exact powers
    of two when b_j = 0, so the b = 0 mean is exactly (1/8) e_1.
    """
    check_power_of_two("d'", d_prime)
    if d_prime > n:
        raise ValueError(f"d' = {d_prime} exceeds n = {n!r} (arcsin argument above 1)")
    b = _check_bits(b, (d_prime,), "b")
    tilt = b * (d_prime / n)
    prob = np.empty(2 * d_prime)
    prob[0::2] = (1.0 - tilt) / (2 * d_prime)  # x = 0
    prob[1::2] = (1.0 + tilt) / (2 * d_prime)  # x = 1
    # sqrt(d')/4 * H e_j has entries +-1/4 exactly; build them from the
    # integer sign matrix so no irrational factors are ever multiplied
    signs = _sylvester_signs(d_prime)
    values = np.zeros((2 * d_prime, d_prime))
    values[1::2] = 0.25 * signs.T
    return RandomVariable(prob=prob, values=values)


def designed_mean_fractional_phase(d_prime: int, n: float, b) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    out = math.sqrt(d_prime) / (8.0 * n) * (hadamard(d_prime) @ b)
    out[0] += 0.125
    return out
