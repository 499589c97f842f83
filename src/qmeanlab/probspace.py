"""Finite multivariate random variables with exact moments and quantiles.

Everything downstream (oracles, estimators, hardness generators) manipulates
one concrete object: a finite probability space with a vector observation
attached to each outcome.  All operations here are pure and exact up to
float64 arithmetic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from qmeanlab.checks import as_integer, as_real, check_array_bytes, unique_keys

_PROB_SUM_TOL = 1e-12
_PARSE_SUM_TOL = 1e-9

__all__ = [
    "RandomVariable",
    "MomentSummary",
    "mean",
    "moments",
    "spectral_norm",
    "exact_quantile",
    "truncate_normalized",
    "norm_rv",
    "shift",
    "parse_distribution_spec",
    "serialize_distribution_spec",
]


def _frozen(table) -> np.ndarray:
    """``table`` as a read-only C-ordered float64 array: taken as is when it already is one
    that owns its data (a builder's finished table), copied otherwise."""
    if (
        type(table) is np.ndarray and table.dtype == np.float64 and table.flags.owndata
        and table.flags.c_contiguous and not table.flags.writeable
    ):
        return table
    table = np.asarray(table, dtype=float).copy()
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class RandomVariable:
    """A finite probability space with a d-dimensional observation per outcome.

    Attributes:
        prob: length-K probability vector, finite, nonnegative, summing to 1.
        values: finite K x d matrix; row k is the observation on outcome k.
        labels: K distinct outcome identifiers (defaults to "0", "1", ...).

    ``prob`` and ``values`` are held read-only.  A read-only float64 array
    that owns its data is held as given; any other input is copied, so
    writing to it later leaves the variable unchanged.
    """

    prob: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        prob, values = _frozen(self.prob), _frozen(self.values)
        if prob.ndim != 1:
            raise ValueError(f"prob must be 1-d, got shape {prob.shape}")
        if values.ndim != 2:
            raise ValueError(f"values must be K x d, got shape {values.shape}")
        if values.shape[0] != prob.shape[0]:
            raise ValueError(
                f"values has {values.shape[0]} rows but prob has length {prob.shape[0]}"
            )
        if values.shape[1] < 1:
            raise ValueError("dimension d must be at least 1")
        if not (np.isfinite(prob).all() and np.isfinite(values).all()):
            raise ValueError("prob and values must be finite")
        if np.any(prob < 0.0):
            raise ValueError("prob must be nonnegative")
        total = float(prob.sum())
        if abs(total - 1.0) > _PROB_SUM_TOL:
            raise ValueError(f"prob must sum to 1 within {_PROB_SUM_TOL}, got {total!r}")
        labels = self.labels
        if not labels:
            labels = tuple(str(k) for k in range(prob.shape[0]))
        if len(labels) != prob.shape[0]:
            raise ValueError(
                f"labels has length {len(labels)} but there are {prob.shape[0]} outcomes"
            )
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be pairwise distinct")
        object.__setattr__(self, "prob", prob)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", tuple(labels))

    @property
    def d(self) -> int:
        return self.values.shape[1]

    @property
    def size(self) -> int:
        return self.prob.shape[0]


@dataclass(frozen=True)
class MomentSummary:
    """Exact O(K·d) moments of a finite random variable; no d x d array is built.

    ``cov_trace`` is Tr of the covariance matrix, ``exp_norm2``/``exp_norm2_sq``
    the first two moments of the Euclidean norm.  The covariance's largest
    eigenvalue is :func:`spectral_norm`'s.
    """

    mean: np.ndarray
    cov_trace: float
    exp_norm2: float
    exp_norm2_sq: float


def mean(rv: RandomVariable) -> np.ndarray:
    """Exact mean vector: the probability-weighted sum of the value rows."""
    return rv.prob @ rv.values


def moments(rv: RandomVariable) -> MomentSummary:
    """The four moment fields computed exactly from the finite support in O(K·d)."""
    mu = mean(rv)
    # finite values may overflow the second moments
    with np.errstate(over="ignore", invalid="ignore"):
        sq_norms = np.einsum("kd,kd->k", rv.values, rv.values)
        exp_norm2_sq = float(rv.prob @ sq_norms)
        exp_norm2 = float(rv.prob @ np.sqrt(sq_norms))
        cov_trace = max(exp_norm2_sq - float(mu @ mu), 0.0)
    return MomentSummary(mean=mu, cov_trace=cov_trace, exp_norm2=exp_norm2, exp_norm2_sq=exp_norm2_sq)


def spectral_norm(rv: RandomVariable) -> float:
    """The covariance's largest eigenvalue (exact up to float64 arithmetic), clamped to
    [0, Tr of the covariance]; only the classical bound reads it.

    A d x d covariance above 2^30 bytes is refused before anything is computed.
    """
    check_array_bytes(8 * rv.d * rv.d, f"covariance memory wall: {rv.d} x {rv.d} entries")
    m = moments(rv)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = rv.values - m.mean
        sigma = (centered * rv.prob[:, None]).T @ centered
    # the eigen-solver refuses an overflowed sigma; ||Sigma|| <= Tr(Sigma) bounds it then
    top = float(np.linalg.eigvalsh(sigma)[-1]) if np.isfinite(sigma).all() else math.inf
    return min(max(top, 0.0), m.cov_trace) if m.cov_trace > 0 else 0.0


def exact_quantile(rv_scalar: RandomVariable, p: float) -> float:
    """sup{x in support : Pr[X >= x] >= p} by descending CCDF enumeration.

    Requires a univariate rv and p in [0, 1].  p = 0 returns the maximum of
    the finite support (the CCDF is always >= 0 there).
    """
    if rv_scalar.d != 1:
        raise ValueError(f"exact_quantile needs a univariate rv, got d={rv_scalar.d}")
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    support, inverse = np.unique(rv_scalar.values[:, 0], return_inverse=True)
    weight = np.zeros(support.shape[0])
    np.add.at(weight, inverse, rv_scalar.prob)
    # the CCDF from the top down, summed in that order (numpy accumulates sequentially)
    reached = np.cumsum(weight[::-1]) >= p - 1e-12  # roundoff guard for accumulated probabilities
    top = int(np.argmax(reached)) if reached.any() else reached.shape[0] - 1
    return float(support[-1 - top])


def truncate_normalized(rv: RandomVariable, a_lo: float, a_hi: float) -> RandomVariable:
    """Clamp every outcome to the (a_lo, a_hi] norm shell and rescale by 1/a_hi.

    The result is supported in the unit ball: rows keep their direction, rows
    outside the shell become zero.
    """
    if not (0 <= a_lo < a_hi):
        raise ValueError(f"clamp bounds need 0 <= a < b, got a={a_lo!r}, b={a_hi!r}")
    if not math.isfinite(a_hi):
        raise ValueError("a_hi must be finite (the shell is rescaled by 1/a_hi)")
    norms = np.linalg.norm(rv.values, axis=1)
    keep = (a_lo < norms) & (norms <= a_hi)
    new_values = np.where(keep[:, None], rv.values / a_hi, 0.0)
    new_values.flags.writeable = False
    return RandomVariable(prob=rv.prob, values=new_values, labels=rv.labels)


def norm_rv(rv: RandomVariable) -> RandomVariable:
    """The univariate random variable of Euclidean norms on the same space."""
    norms = np.linalg.norm(rv.values, axis=1, keepdims=True)
    norms.flags.writeable = False
    return RandomVariable(prob=rv.prob, values=norms, labels=rv.labels)


def shift(rv: RandomVariable, eta: np.ndarray) -> RandomVariable:
    """Subtract the vector eta from every outcome value."""
    eta = np.asarray(eta, dtype=float)
    if eta.shape != (rv.d,):
        raise ValueError(f"eta has shape {eta.shape}, expected ({rv.d},)")
    values = rv.values - eta
    values.flags.writeable = False
    return RandomVariable(prob=rv.prob, values=values, labels=rv.labels)


def parse_distribution_spec(text: str) -> RandomVariable:
    """Parse the JSON distribution document into a validated RandomVariable.

    Schema: {"d": int, "omega": [str...] (optional), "prob": [num...],
    "values": [[num...]...]}.  Probabilities whose sum is within 1e-12 of 1
    (the RandomVariable tolerance) are kept as written, so a serialized
    variable parses back bit for bit; a sum within 1e-9 of 1 is renormalized,
    any other sum is rejected.
    """
    try:
        doc = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a valid JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("document root must be a JSON object")
    for field in ("d", "prob", "values"):
        if field not in doc:
            raise ValueError(f"missing required field {field!r}")
    d = as_integer("field 'd'", doc["d"], at_least=1)
    prob_raw, values_raw = doc["prob"], doc["values"]
    if not isinstance(prob_raw, list):
        raise ValueError("field 'prob' must be a list of numbers")
    prob = np.array([as_real("field 'prob' entry", x) for x in prob_raw])
    if not isinstance(values_raw, list) or len(values_raw) != len(prob_raw):
        raise ValueError(f"field 'values' must list one row per outcome ({len(prob_raw)} expected)")
    rows = []
    for k, row in enumerate(values_raw):
        if not isinstance(row, list) or len(row) != d:
            raise ValueError(f"values row {k} must have length d={d}")
        rows.append([as_real(f"field 'values' row {k} entry", x) for x in row])
    total = float(prob.sum())
    if abs(total - 1.0) > _PARSE_SUM_TOL:
        raise ValueError(f"field 'prob' must sum to 1 within {_PARSE_SUM_TOL}, got {total!r}")
    if abs(total - 1.0) > _PROB_SUM_TOL:
        prob = prob / total
    labels: tuple[str, ...] = ()
    if "omega" in doc:
        omega = doc["omega"]
        if (
            not isinstance(omega, list)
            or len(omega) != len(prob_raw)
            or not all(isinstance(x, str) for x in omega)
        ):
            raise ValueError("field 'omega' must be a list of strings, one per outcome")
        labels = tuple(omega)
    return RandomVariable(prob=prob, values=np.array(rows), labels=labels)


def serialize_distribution_spec(rv: RandomVariable) -> str:
    """Serialize to the JSON document schema; numeric fields round-trip exactly.

    json emits shortest-roundtrip float literals, so parse(serialize(rv))
    reproduces prob and values bit for bit.
    """
    doc = {
        "d": rv.d,
        "omega": list(rv.labels),
        "prob": [float(p) for p in rv.prob],
        "values": [[float(x) for x in row] for row in rv.values],
    }
    return json.dumps(doc, indent=2) + "\n"
