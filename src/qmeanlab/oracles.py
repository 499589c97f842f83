"""Semantic oracle layer: exact phase functions, noise, quantiles, costs.

Instead of compiling oracle circuits gate by gate, this module evaluates the
exact phase function each oracle construction approximates and charges its
cost through explicit formulas ("model units", every leading constant fixed
at 1).  Controlled imperfection is re-introduced by a seeded noise model.
Its m^d table of deviation factors is drawn on the calling thread, as
half-angles, and filled in place from their tangents; on a host with two or
more CPUs a table above 2^16 points fills in two halves, one on the pool
thread of :mod:`qmeanlab.gridqft`, elementwise, so the table has the same
bits either way.  The input checks of each oracle construction live here
once, as ``check_*`` helpers the estimators call too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from qmeanlab.checks import as_integer, check_norm_bound, check_open_unit
from qmeanlab.gridqft import (
    GridSpec,
    PhaseFunction,
    _in_halves,
    _unit_factors,
    check_lattice_cap,
)
from qmeanlab.probspace import RandomVariable, exact_quantile, mean, moments

__all__ = [
    "CostLedger",
    "NoiseModel",
    "linear_phase_function",
    "binary_phase_is_linear",
    "directional_phases_binary",
    "directional_phases_phase_model",
    "check_binary_model",
    "check_phase_range",
    "perturb",
    "quantile_oracle",
]


def _check_charge(name: str, amount: float) -> None:
    if not amount >= 0:  # NaN fails too
        raise ValueError(f"ledger charge must be nonnegative, got {name}={amount!r}")


@dataclass
class CostLedger:
    """Running totals of oracle uses, in model units.

    experiments counts state preparations, binary_queries/phase_queries count
    the two oracle flavors, classical_samples counts raw draws and
    quantile_calls counts quantile-oracle invocations.  Counters start
    nonnegative (the constructor checks them as ``charge`` checks a charge)
    and only ever increase; merging adds componentwise.
    """

    experiments: float = 0.0
    binary_queries: float = 0.0
    phase_queries: float = 0.0
    classical_samples: float = 0.0
    quantile_calls: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            _check_charge(f.name, getattr(self, f.name))

    def charge(self, /, **deltas: float) -> None:
        """Add nonnegative amounts to named counters; a rejected charge adds nothing."""
        counters = {f.name for f in fields(self)}
        for name, delta in deltas.items():
            if name not in counters:
                raise ValueError(f"unknown ledger counter {name!r}")
            _check_charge(name, delta)
        for name, delta in deltas.items():
            setattr(self, name, getattr(self, name) + float(delta))

    def merge(self, other: CostLedger) -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


@dataclass(frozen=True)
class NoiseModel:
    """IDEAL leaves phases alone; PERTURBED injects seeded deviations.

    Under PERTURBED, at most ceil(eta/2 * |G|) grid points are "bad" (their
    phase deviation is arbitrary in (-pi, pi]); every other point gets a
    deviation delta with |2 sin(delta/2)| <= eps.  The seed is an integer
    at least 0 (bool refused).
    """

    mode: str = "ideal"
    eps: float = 0.0
    eta: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("ideal", "perturbed"):
            raise ValueError(f"mode must be 'ideal' or 'perturbed', got {self.mode!r}")
        if self.mode == "perturbed":
            check_open_unit("noise eps", self.eps)
            check_open_unit("noise eta", self.eta)
        object.__setattr__(self, "seed", as_integer("noise seed", self.seed, at_least=0))

    @classmethod
    def ideal(cls) -> NoiseModel:
        return cls()

    @classmethod
    def perturbed(cls, eps: float, eta: float, seed: int) -> NoiseModel:
        return cls(mode="perturbed", eps=eps, eta=eta, seed=seed)


def linear_phase_function(coeffs: np.ndarray) -> PhaseFunction:
    """The separable phase theta_u = <coeffs, u>, carrying its (read-only) coeffs."""
    coeffs = np.array(coeffs, dtype=float, ndmin=1)
    coeffs.flags.writeable = False
    comps = tuple((lambda pts, s=float(s): s * pts) for s in coeffs)
    return PhaseFunction(
        evaluate=lambda pts: pts @ coeffs, separable=True, axis_components=comps, coeffs=coeffs
    )


def _clamp_argument_bound(rv: RandomVariable, alpha: float, m: int) -> float:
    # the largest |alpha <u, x>| over the grid: the corner u_j = sign(x_j)(1/2 - 1/(2m))
    # of the outcome with the largest ||x||_1
    return alpha * (0.5 - 0.5 / m) * float(np.abs(rv.values).sum(axis=1).max(initial=0.0))


def binary_phase_is_linear(rv: RandomVariable, alpha: float, m: int) -> bool:
    """Whether the clamp in the binary-model phase never fires on the m-point grid.

    Over the grid, alpha*<u, x> is largest at the corner u_j = sign(x_j) *
    (1/2 - 1/(2m)), where it equals alpha*(1/2 - 1/(2m))*||x||_1.  So this is
    an exact condition, not only a sufficient one: it holds exactly when no
    grid point and outcome have |alpha <u, x>| > 1, that is, exactly when the
    clamped phase equals the linear phase m*alpha*<u, mean(rv)> everywhere.
    """
    return _clamp_argument_bound(rv, alpha, m) <= 1.0


def check_binary_model(rv: RandomVariable, L2: float) -> None:
    """Preconditions of the binary model: L2 in (0, 1], ||X|| <= 1, E||X|| <= L2."""
    check_norm_bound("L2", L2)
    norms = np.linalg.norm(rv.values, axis=1)
    if norms.max(initial=0.0) > 1.0 + 1e-12:
        worst = int(np.argmax(norms))
        raise ValueError(
            f"outcome {worst} has norm {norms[worst]!r} > 1; the binary model needs ||X|| <= 1"
        )
    exp_norm = moments(rv).exp_norm2
    if exp_norm > L2 + 1e-12:
        raise ValueError(f"L2={L2!r} is below the true E||X||_2 = {exp_norm!r}")


def check_phase_range(rv: RandomVariable) -> None:
    """Precondition of the phase model: every outcome in [-1/4, 1/4]^d."""
    bad = np.nonzero(np.abs(rv.values).max(axis=1) > 0.25 + 1e-12)[0]
    if bad.size:
        raise ValueError(
            f"outcome {int(bad[0])} leaves [-1/4, 1/4]^d "
            f"(max coordinate {np.abs(rv.values[bad[0]]).max()!r})"
        )


def directional_phases_binary(
    rv: RandomVariable,
    L2: float,
    m: int,
    alpha: float,
    eps: float,
    ledger: CostLedger,
    reps: int = 1,
) -> PhaseFunction:
    """Directional-mean phase built from binary oracle queries.

    The construction's phase is the clamped sum theta_u = m * sum_omega P(omega)
    * y_omega, y_omega = alpha*<u, X(omega)> if 0 < |y_omega| <= 1 else 0.  Only
    the case where the clamp never fires on the grid (:func:`binary_phase_is_linear`)
    is supported; there the phase is exactly the linear m*alpha*<u, mean(rv)>.
    A phase whose clamp fires is refused with a ValueError before anything is
    charged: no estimator reaches one below d = 42 (``bounded_estimator``'s
    alpha <= 0.312 and ||x||_1 <= sqrt(d)), and above it the m >= 128 register
    it would need is far over the lattice cap.  Charges
    m*sqrt(L2)*ceil(log2(1/eps))^2 model units to experiments and binary
    queries for each of the ``reps`` repetitions that use the phase.
    """
    check_binary_model(rv, L2)
    check_open_unit("alpha", alpha)
    if m < 1.0 / L2:
        raise ValueError(f"m={m} is below 1/L2 = {1.0 / L2!r}")
    if not binary_phase_is_linear(rv, alpha, m):
        raise ValueError(
            "the binary-model clamp fires on this grid: alpha*(1/2 - 1/(2m))*max||X||_1"
            f" = {_clamp_argument_bound(rv, alpha, m):.6g} > 1"
        )
    cost = m * math.sqrt(L2) * math.ceil(math.log2(1 / eps)) ** 2
    ledger.charge(experiments=reps * cost, binary_queries=reps * cost)
    return linear_phase_function(m * alpha * mean(rv))


def directional_phases_phase_model(
    rv: RandomVariable,
    m: int,
    eps: float,
    eta: float,
    ledger: CostLedger,
    reps: int = 1,
) -> PhaseFunction:
    """Ideal directional-mean phase built from phase oracle queries.

    theta_u = m * <u, mean(rv)>, separable.  Requires every outcome in
    [-1/4, 1/4]^d.  Charges sqrt(d)*m*ceil(log2(1/(eps*eta)))^2 experiments
    and d*m*ceil(log2(1/(eps*eta)))^4 phase queries for each of the ``reps``
    repetitions that use the phase.
    """
    check_phase_range(rv)
    d = rv.d
    if m < eps / (6 * math.sqrt(d)):
        raise ValueError(f"m={m} is below eps/(6*sqrt(d)) = {eps / (6 * math.sqrt(d))!r}")
    log_factor = math.ceil(math.log2(1 / (eps * eta)))
    ledger.charge(
        experiments=reps * (math.sqrt(d) * m * log_factor**2),
        phase_queries=reps * (d * m * log_factor**4),
    )
    return linear_phase_function(m * mean(rv))


@functools.lru_cache(maxsize=1)
def _deviation_table(noise: NoiseModel, spec: GridSpec) -> np.ndarray:
    """The seeded per-point deviations of ``perturb``, drawn once per (noise, spec).

    Every point draws a deviation uniform in the eps band; then
    ceil(eta/2 * m^d) distinct points, chosen uniformly without replacement,
    redraw theirs uniform in (-pi, pi].  The draws are of the half-angles
    delta/2, in (-asin(eps/2), asin(eps/2)) and (-pi/2, pi/2): halving is
    exact in binary floating point, so each is bit for bit half the deviation
    a draw over the full range gives.  Stored as their unit-modulus factors
    e^{i*delta}, within 4e-16 of ``np.exp``
    (:func:`qmeanlab.gridqft._unit_factors`), flat and row-major over the
    lattice: the one m^d table a perturbed round reads, filled in place over
    the half-angles with no second m^d buffer.
    Every draw is made on the calling thread, in this order; the fill runs in
    two halves of the points (:func:`qmeanlab.gridqft._in_halves`),
    elementwise, so the table has the same bits either way.  The last table
    is kept.  No workload reads it again (a run perturbs with each table once,
    though ``near_optimal``'s first two shells share a lattice), but holding
    it keeps the allocator from handing the freed heap back to the system
    between runs.  Without it each run faulted its working set in anew:
    perturbed ``bounded`` trials at m = 512, d = 2 took 11.8 ms instead of
    9.0 (medians, in-process on a 2-vCPU VM), and timed the same once glibc's
    trim and mmap thresholds were pinned.  The array is read-only.
    """
    n_points = spec.points
    rng = np.random.default_rng(noise.seed)
    n_bad = math.ceil(noise.eta / 2.0 * n_points)
    half_band = math.asin(noise.eps / 2.0)
    halves = rng.uniform(-half_band, half_band, n_points)
    if n_bad > 0:
        bad = rng.choice(n_points, n_bad, replace=False)
        halves[bad] = rng.uniform(-np.pi / 2, np.pi / 2, n_bad)
    table = np.empty(n_points, dtype=complex)
    _in_halves(lambda part: _unit_factors(halves[part], table[part]), n_points, n_points)
    table.flags.writeable = False
    return table


def perturb(phase: PhaseFunction, noise: NoiseModel, spec: GridSpec) -> PhaseFunction:
    """Overlay the noise model's seeded phase deviations onto a linear phase.

    IDEAL returns the phase unchanged.  PERTURBED draws one deviation per grid
    point (deterministic in the seed): uniform within the |2 sin(delta/2)| <=
    eps band on good points, uniform in (-pi, pi] on ceil(eta/2*|G|) bad
    points drawn uniformly without replacement.  The result is non-separable
    and subject to the lattice cap, which is checked before the table is
    drawn.  It keeps the phase's linear ``evaluate`` and ``coeffs`` and
    carries the deviations only in its ``overlay``, the read-only table of
    factors e^{i*delta}: a round samples it by the chain rule
    (:func:`qmeanlab.gridqft.sample_linear_overlay`), and the register
    multiplies by the same table (:func:`qmeanlab.gridqft.apply_phase_function`).
    A phase without ``coeffs`` is refused, as :class:`PhaseFunction` refuses
    an overlay on it.
    """
    if noise.mode == "ideal":
        return phase
    check_lattice_cap(spec)
    return PhaseFunction(
        evaluate=phase.evaluate, separable=False, coeffs=phase.coeffs,
        overlay=_deviation_table(noise, spec),
    )


def quantile_oracle(
    rv_scalar: RandomVariable,
    p: float,
    delta: float,
    c: float,
    rng: np.random.Generator,
    ledger: CostLedger,
    exact: bool = False,
) -> float:
    """Approximate quantile with the guarantee Q(p) <= result <= Q(c*p).

    Success path: a seeded uniform draw over the support values inside
    [Q(p), Q(c*p)].  With probability delta (independent, seeded) the call
    fails and returns an arbitrary support value instead.  Charges
    ceil(log2(1/delta))/sqrt(p) to experiments and binary queries.

    ``exact`` short-circuits to the exact quantile Q(p): no failures and no
    rng consumption, but the same ledger charges, so cost accounting stays
    comparable between the two modes.
    """
    if not (0 < p <= 1):
        raise ValueError(f"need p in (0, 1], got {p!r}")
    check_open_unit("delta", delta)
    check_open_unit("c", c)
    if exact:
        out = exact_quantile(rv_scalar, p)
    else:
        support = np.unique(rv_scalar.values[:, 0])
        failed = rng.random() < delta
        if failed:
            out = float(support[rng.integers(support.shape[0])])
        else:
            lo = exact_quantile(rv_scalar, p)
            hi = exact_quantile(rv_scalar, c * p)
            window = support[(support >= lo) & (support <= hi)]
            out = float(window[rng.integers(window.shape[0])])
    cost = math.ceil(math.log2(1 / delta)) / math.sqrt(p)
    ledger.charge(experiments=cost, binary_queries=cost, quantile_calls=1.0)
    return out
