"""Quantum mean estimators built on the grid-register simulator.

Four estimators share the same skeleton: prepare a uniform grid superposition,
imprint a directional-mean phase through a simulated oracle, apply the inverse
grid Fourier transform, measure, rescale, and median-combine repetitions.
They differ in which oracle supplies the phase and how budgets are split.
Every phase an estimator imprints is linear (a binary phase whose clamp
would fire is refused by its oracle), so no round builds a register: an ideal
linear phase samples the closed-form Born marginals, and a perturbed one
(coeffs plus a noise overlay) samples its Born law by the chain rule: the
last coordinate from the overlaid amplitudes transformed along the last axis
(or, for a block of two or more distinct last coefficients at d > 1, from
the overlay's row autocorrelation), the rest from the slices it draws.
The low-precision estimator resamples every outer repetition at once, runs
one round per distinct empirical mean, shared by the repetitions that drew it,
and draws all of those rounds in one block under one perturbed oracle phase;
the coordinate median takes the measurements in the block's order, grouped
by mean, since it sorts each column.
The (n, n') regime map that the phase-model dispatcher branches on lives here.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from qmeanlab.classical import _check_delta, coordinate_median, subgaussian_estimate
from qmeanlab.gridqft import (
    GridSpec,
    PhaseFunction,
    linear_phase_marginals,
    sample_linear_overlay,
    sample_marginals,
)
from qmeanlab.oracles import (
    CostLedger,
    NoiseModel,
    check_binary_model,
    check_phase_range,
    directional_phases_binary,
    directional_phases_phase_model,
    perturb,
    quantile_oracle,
)
from qmeanlab.probspace import (
    RandomVariable,
    mean,
    moments,
    norm_rv,
    shift,
    truncate_normalized,
)

logger = logging.getLogger(__name__)

__all__ = [
    "BINARY_ORACLE_EPS",
    "PHASE_ORACLE_EPS",
    "PHASE_ORACLE_ETA",
    "QUANTILE_C",
    "EstimateReport",
    "bounded_estimator",
    "near_optimal_estimator",
    "euclidean_estimator",
    "qphase_estimator",
    "qlowprec_estimator",
    "phase_model_dispatch",
    "regime_classify",
    "expected_branch",
    "empirical_rv",
]

# Phase-synthesis accuracy of the binary-oracle construction.
BINARY_ORACLE_EPS = 1.0 / 25.0
# Accuracy / bad-fraction budget of the phase-oracle construction; together
# they satisfy eps^2 + eta <= 1/144, the state-distance budget the repetition
# count is calibrated for.
PHASE_ORACLE_EPS = 1.0 / (12.0 * math.sqrt(2.0))
PHASE_ORACLE_ETA = 1.0 / 288.0
# Quantile-oracle approximation constant: the result lands in [Q(p), Q(c*p)].
QUANTILE_C = 0.25


@dataclass(frozen=True)
class EstimateReport:
    """One estimator run: the estimate, the exact truth, costs, and the errors.

    ``err_inf`` and ``err_l2`` are not arguments: they are computed here from
    read-only copies of ``estimate`` and ``truth``, so they always agree.
    """

    estimate: np.ndarray
    truth: np.ndarray
    ledger: CostLedger
    estimator_id: str
    params: dict[str, Any]
    diagnostics: dict[str, Any] = field(default_factory=dict)
    err_inf: float = field(init=False)
    err_l2: float = field(init=False)

    def __post_init__(self) -> None:
        est = np.asarray(self.estimate, dtype=float).copy()
        tru = np.asarray(self.truth, dtype=float).copy()
        est.flags.writeable = False
        tru.flags.writeable = False
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "truth", tru)
        diff = est - tru
        object.__setattr__(self, "err_inf", float(np.max(np.abs(diff), initial=0.0)))
        object.__setattr__(self, "err_l2", float(np.linalg.norm(diff)))


def _params(noise: NoiseModel, **fields: Any) -> dict[str, Any]:
    """The report's input echo: ``fields`` in order, then the noise model."""
    echo = {"mode": noise.mode, "eps": noise.eps, "eta": noise.eta, "seed": noise.seed}
    return {**fields, "noise": echo}


def _log_budget(n: float, d: int, delta: float) -> float:
    """log2(d/delta), once delta and n >= log2(d/delta) are checked."""
    _check_delta(delta)
    log_term = math.log2(d / delta)
    if n < log_term:
        raise ValueError(f"n={n!r} is below log2(d/delta) = {log_term!r}")
    return log_term


def _phase_log_budget(rv: RandomVariable, n: float, nprime: float, delta: float) -> float:
    """log2(d/delta), once the phase-model estimators' preconditions are checked."""
    check_phase_range(rv)
    log_term = _log_budget(n, rv.d, delta)
    if nprime < math.sqrt(rv.d) * log_term:
        raise ValueError(
            f"nprime={nprime!r} is below sqrt(d)*log2(d/delta) = {math.sqrt(rv.d) * log_term!r}"
        )
    return log_term


def _run_phase_reps(
    spec: GridSpec,
    phase: PhaseFunction,
    reps,
    scale: float,
    rng: np.random.Generator,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Scaled phase-estimation measurements of one round or of a block of rounds.

    The phase is linear (it carries ``coeffs``), so no register is built.
    By default the round imprints the phase's own ``coeffs`` and ``reps`` is
    an int.  ``rows`` is a (G, d) block of coefficient rows imprinted under
    the phase's noise overlay in its place, with ``reps`` a (G,) count per
    row; the result holds each row's measurements in row order.  Under ideal
    noise each row, in order, samples its closed-form Born marginals with the
    same draws :func:`qmeanlab.gridqft.measure` makes on the register uniform
    -> phase -> inverse QFT; under a noise ``overlay`` the whole block draws
    the same Born laws by the chain rule in one call
    (:func:`qmeanlab.gridqft.sample_linear_overlay`).
    """
    if phase.coeffs is None:
        raise TypeError("a phase-estimation round samples only linear phases (with coeffs)")
    block = phase.coeffs if rows is None else rows
    if phase.overlay is not None:
        points = sample_linear_overlay(spec, block, phase.overlay, reps, rng)
    else:
        points = np.concatenate([
            sample_marginals(linear_phase_marginals(spec, c), count, rng)
            for c, count in zip(np.array(block, ndmin=2), np.array(reps, ndmin=1))
        ])
    return scale * points


def bounded_estimator(
    rv: RandomVariable,
    L2: float,
    n: float,
    delta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> EstimateReport:
    """Mean estimator for unit-ball random variables with E||X||_2 <= L2.

    Early-exits to 0 when the budget cannot beat the trivial estimate;
    otherwise runs ceil(18*log2(d/delta)) repetitions of the binary-oracle
    phase-estimation round at grid resolution m chosen from (n, L2, delta),
    rescales each measured point by 2*pi/alpha, and takes the coordinate-wise
    lower median.
    """
    _check_delta(delta)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    check_binary_model(rv, L2)

    d = rv.d
    truth = mean(rv)
    ledger = CostLedger()
    params = _params(noise, n=float(n), L2=float(L2), delta=float(delta))

    if n <= math.log2(d / delta) / math.sqrt(L2):
        return EstimateReport(np.zeros(d), truth, ledger, "bounded", params, {"early_exit": True})

    alpha = 1.0 / math.sqrt(math.log2(400.0 * math.pi * n * math.sqrt(d)))
    m = 2 ** math.ceil(math.log2(8.0 * math.pi / alpha * n / (math.sqrt(L2) * math.log2(d / delta))))
    reps = math.ceil(18.0 * math.log2(d / delta))
    spec = GridSpec(m=m, d=d)

    # one oracle construction, charged once per repetition that uses it
    phase = directional_phases_binary(rv, L2, m, alpha, BINARY_ORACLE_EPS, ledger, reps)
    compute_phase = perturb(phase, noise, spec)

    per_rep = _run_phase_reps(spec, compute_phase, reps, 2.0 * math.pi / alpha, rng)
    diagnostics = {
        "early_exit": False, "alpha": alpha, "m": m, "reps": reps, "fast_path": compute_phase.separable
    }
    return EstimateReport(coordinate_median(per_rep), truth, ledger, "bounded", params, diagnostics)


def near_optimal_estimator(
    rv: RandomVariable,
    n: float,
    delta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
    exact_quantiles: bool = False,
) -> EstimateReport:
    """General-purpose estimator: center, slice into norm shells, estimate each.

    A cheap classical median-of-means supplies the center eta; quantiles of
    ||X - eta||_2 at p = 2^-j define nested shells; each normalized shell goes
    through :func:`bounded_estimator` with budget n' and the results recombine
    as eta + sum_j a_j * mu_j.  ``exact_quantiles`` replaces the seeded
    quantile oracle with exact quantiles (same ledger charges) and additionally
    records the structural inequalities the shell construction guarantees.
    """
    d = rv.d
    log_term = _log_budget(n, d, delta)
    c = QUANTILE_C

    k = math.ceil(2.0 * math.log2(2.0 * math.sqrt(2.0) * n / log_term))
    nprime = n * (k + 1) * 4.0 * math.log2(5.0 * k * d / delta) / (math.sqrt(c) * log_term)
    shell_delta = delta / (5.0 * k)

    ledger = CostLedger()
    truth = mean(rv)
    params = _params(
        noise, n=float(n), delta=float(delta), c=float(c), exact_quantiles=bool(exact_quantiles)
    )

    n0 = 64 * math.ceil(math.log2(2.0 / delta))
    center, _ = subgaussian_estimate(rv, n0, delta, rng, ledger)

    Y = shift(rv, center)
    normY = norm_rv(Y)

    a_prev = 0.0
    estimate = center.astype(float).copy()
    shells: list[dict[str, Any]] = []
    clamp_events = 0
    for j in range(k + 1):
        p = 2.0 ** (-j)
        a_j = quantile_oracle(normY, p, shell_delta, c, rng, ledger, exact=exact_quantiles)
        if a_j < a_prev:
            logger.debug(
                "quantile sequence non-monotone at shell %d: %.6g < %.6g; clamped", j, a_j, a_prev
            )
            a_j = a_prev
            clamp_events += 1
        entry: dict[str, Any] = {"j": j, "a": a_j}
        if a_j == a_prev:
            entry["skipped"] = True
        else:
            entry["skipped"] = False
            Yj = truncate_normalized(Y, a_prev, a_j)
            L2_j = min(2.0 ** (-(j - 1)), 1.0)
            sub = bounded_estimator(Yj, L2_j, nprime, shell_delta, noise, rng)
            ledger.merge(sub.ledger)
            estimate = estimate + a_j * sub.estimate
            entry["early_exit"] = sub.diagnostics.get("early_exit")
            entry["m"] = sub.diagnostics.get("m")
        shells.append(entry)
        a_prev = a_j

    diagnostics: dict[str, Any] = {
        "k": k,
        "nprime": nprime,
        "n0": n0,
        "center": center,
        "shells": shells,
        "clamp_events": clamp_events,
    }
    if exact_quantiles:
        diagnostics["structural"] = _structural_checks(
            Y, [s["a"] for s in shells], k, c, center, truth
        )
    return EstimateReport(estimate, truth, ledger, "near_optimal", params, diagnostics)


def _structural_checks(
    Y: RandomVariable,
    a_seq: list[float],
    k: int,
    c: float,
    center: np.ndarray,
    truth: np.ndarray,
) -> dict[str, float]:
    """Inequalities the exact-quantile shell construction guarantees.

    quantile_margin: min_j of c^{-1/2} 2^{j/2} sqrt(E||Y||^2) - a_j.
    slice_margin:    min over run shells of 2^{-(j-1)} - E||Y_j||_2.
    tail_margin:     sqrt(E||Y||^2)/2^{k/2} - ||mean of the >a_k tail||_inf.
    decomposition_residual: || center + sum_j a_j mean(Y_j) + tail mean - mu ||_inf.
    """
    exp_sq = moments(Y).exp_norm2_sq
    root = math.sqrt(max(exp_sq, 0.0))
    y_norms = np.linalg.norm(Y.values, axis=1)
    quantile_margin = math.inf
    slice_margin = math.inf
    shell_means_sum = np.zeros(Y.d)  # sum_j a_j * mean(Y_j) over the run shells
    a_prev = 0.0
    for j, a_j in enumerate(a_seq):
        quantile_margin = min(quantile_margin, 2.0 ** (j / 2.0) / math.sqrt(c) * root - a_j)
        if a_j != a_prev:
            mask = (a_prev < y_norms) & (y_norms <= a_j)
            slice_exp = float(Y.prob @ (y_norms * mask)) / a_j
            slice_margin = min(slice_margin, min(2.0 ** (-(j - 1)), 1.0) - slice_exp)
            shell_means_sum = shell_means_sum + Y.prob @ np.where(mask[:, None], Y.values, 0.0)
        a_prev = a_j
    tail_mask = y_norms > a_seq[-1]
    tail_mean = Y.prob @ np.where(tail_mask[:, None], Y.values, 0.0)
    tail_margin = root / 2.0 ** (k / 2.0) - float(np.max(np.abs(tail_mean), initial=0.0))
    residual = float(
        np.max(np.abs(center + shell_means_sum + tail_mean - truth), initial=0.0)
    )
    return {
        "quantile_margin": quantile_margin,
        "slice_margin": slice_margin,
        "tail_margin": tail_margin,
        "decomposition_residual": residual,
    }


def euclidean_estimator(
    rv: RandomVariable,
    n: float,
    delta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> EstimateReport:
    """l2-oriented front end: classical baseline when n <= d, quantum above."""
    d = rv.d
    _log_budget(n, d, delta)
    truth = mean(rv)
    params = _params(noise, n=float(n), delta=float(delta))
    if n <= d:
        ledger = CostLedger()
        estimate, _ = subgaussian_estimate(rv, int(n), delta, rng, ledger)
        return EstimateReport(estimate, truth, ledger, "euclidean", params, {"branch": "classical"})
    sub = near_optimal_estimator(rv, n, delta, noise, rng)
    diagnostics = {"branch": "quantum", "inner": sub.diagnostics}
    return EstimateReport(sub.estimate, truth, sub.ledger, "euclidean", params, diagnostics)


def qphase_estimator(
    rv: RandomVariable,
    n: float,
    nprime: float,
    delta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> EstimateReport:
    """High-precision estimator from phase oracles, values in [-1/4, 1/4]^d.

    Resolution follows k = floor(min(n, n'/sqrt(d))); the imprinted phase is
    exactly linear, so every round skips the register (under PERTURBED noise
    it samples the overlaid phase by the chain rule).
    """
    d = rv.d
    log_term = _phase_log_budget(rv, n, nprime, delta)
    k = math.floor(min(n, nprime / math.sqrt(d)))
    m = 2 ** max(0, math.ceil(math.log2(8.0 * math.pi * k / (math.sqrt(d) * log_term))))
    reps = math.ceil(18.0 * log_term)

    ledger = CostLedger()
    phase = directional_phases_phase_model(rv, m, PHASE_ORACLE_EPS, PHASE_ORACLE_ETA, ledger, reps)
    compute_phase = perturb(phase, noise, GridSpec(m=m, d=d))

    per_rep = _run_phase_reps(GridSpec(m=m, d=d), compute_phase, reps, 2.0 * math.pi, rng)
    params = _params(noise, n=float(n), nprime=float(nprime), delta=float(delta))
    diagnostics = {"k": k, "m": m, "reps": reps, "eps": PHASE_ORACLE_EPS, "eta": PHASE_ORACLE_ETA}
    return EstimateReport(coordinate_median(per_rep), mean(rv), ledger, "qphase", params, diagnostics)


def empirical_rv(rv: RandomVariable, count: int, rng: np.random.Generator) -> RandomVariable:
    """Empirical distribution of ``count`` draws, as a RandomVariable."""
    idx = rng.choice(rv.size, size=count, p=rv.prob)
    uniq, counts = np.unique(idx, return_counts=True)
    return RandomVariable(prob=counts / count, values=rv.values[uniq])


def qlowprec_estimator(
    rv: RandomVariable,
    n: float,
    nprime: float,
    delta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> EstimateReport:
    """Low-precision analog estimator: phase-estimate empirical resamples.

    Each of ceil(32*log2(d/delta)) outer repetitions draws k' classical
    samples, forms their empirical distribution P-bar, and makes one
    phase-estimation measurement of the phase-oracle round against P-bar at
    resolution derived from k = 2n'/sqrt(d).  A round depends on P-bar only
    through its mean, so all outer*k' draws are made at once and repetitions
    that share an empirical mean share one round: ``diagnostics["tables"]``
    counts those rounds.  The oracle's phase is perturbed once, and every
    round imprints its mean's coefficients m*mean under that one overlay, all
    rounds as one block (:func:`_run_phase_reps`): one sampler call under
    perturbed noise, and under ideal noise the rounds in order of their means,
    so seeded ideal runs draw what one call per round drew.  The k' draws
    are physical experiments (charged as such); the rounds' state
    preparations act on the empirical surrogates, so only their phase queries
    (one oracle construction per repetition) carry over to the run ledger.
    """
    d = rv.d
    log_term = _phase_log_budget(rv, n, nprime, delta)
    k_prime = math.floor(2.0 * n / log_term)
    outer = math.ceil(32.0 * log_term)
    inner_k = 2.0 * nprime / math.sqrt(d)
    m = 2 ** max(0, math.ceil(math.log2(8.0 * math.pi * inner_k / (math.sqrt(d) * log_term))))
    spec = GridSpec(m=m, d=d)

    ledger = CostLedger()
    ledger.charge(classical_samples=float(outer * k_prime), experiments=float(outer * k_prime))
    rounds = CostLedger()
    oracle = directional_phases_phase_model(
        rv, m, PHASE_ORACLE_EPS, PHASE_ORACLE_ETA, rounds, outer
    )
    ledger.charge(phase_queries=rounds.phase_queries)

    # every resample's counts over the drawn support, summed against the
    # values elementwise in ascending outcome order (no BLAS blocking), so one
    # multiset always yields the same float mean row; distinct multisets that
    # share a mean (outcomes that share a value) share a row too
    draws = rng.choice(rv.size, size=(outer, k_prime), p=rv.prob)
    support, col = np.unique(draws, return_inverse=True)
    cells = np.arange(outer)[:, None] * support.size + col.reshape(outer, k_prime)
    counts = np.bincount(cells.ravel(), minlength=outer * support.size).reshape(outer, -1)
    sums = (counts[:, :, None] * rv.values[support]).sum(axis=1)
    means, group = np.unique(sums / k_prime, axis=0, return_inverse=True)
    group = group.reshape(-1)  # numpy 2.0.0 returns it with a trailing axis
    # every round imprints its mean's phase under the one noise overlay of the
    # oracle's grid; the block's measurements come back grouped by mean, and
    # are left so: the coordinate median sorts each column anyway
    compute_phase = perturb(oracle, noise, spec)
    sizes = np.bincount(group, minlength=len(means))
    per_rep = _run_phase_reps(spec, compute_phase, sizes, 2.0 * math.pi, rng, rows=m * means)
    params = _params(noise, n=float(n), nprime=float(nprime), delta=float(delta))
    diagnostics = {"k_prime": k_prime, "outer": outer, "inner_k": inner_k, "m": m, "tables": len(means)}
    return EstimateReport(coordinate_median(per_rep), mean(rv), ledger, "qlowprec", params, diagnostics)


def regime_classify(n: float, nprime: float, d: int, delta: float) -> str:
    """Which budget limits the optimal l_inf error at (n, n').

    TRIVIAL when n' < d or n < log2(d/delta); otherwise the larger of the
    phase term d/n' and the statistical term (sqrt(d)/n above n >= d, 1/sqrt(n)
    below) names the regime.  Ties go to PHASE_LIMITED and the n = d boundary
    to the n >= d case — both choices pick the regime reachable with fewer
    experiments, and at those boundaries the two error scales coincide anyway.
    """
    if n <= 0 or nprime <= 0 or d < 1:
        raise ValueError(f"budgets and dimension must be positive, got n={n}, nprime={nprime}, d={d}")
    _check_delta(delta)
    if nprime < d or n < math.log2(d / delta):
        return "TRIVIAL"
    phase = d / nprime
    stat = math.sqrt(d) / n if n >= d else 1.0 / math.sqrt(n)
    if phase >= stat:
        return "PHASE_LIMITED"
    return "EXPERIMENT_LIMITED" if n >= d else "SAMPLE_LIMITED"


def expected_branch(n: float, nprime: float, d: int, delta: float) -> str:
    """Dispatcher branch implied by the regime map at (n, n')."""
    if regime_classify(n, nprime, d, delta) == "TRIVIAL":
        return "trivial"
    return "low_precision" if n < d else "high_precision"


def phase_model_dispatch(
    rv: RandomVariable,
    n: float,
    nprime: float,
    delta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> EstimateReport:
    """Budget-driven three-way dispatch for phase-oracle estimation.

    The branch is :func:`expected_branch` at (n, n'): starved budgets (n' < d
    or n < log2(d/delta)) return the trivial zero estimate at zero cost;
    modest experiment budgets (n < d) go low-precision; ample budgets go
    high-precision.
    """
    d = rv.d
    check_phase_range(rv)
    branch = expected_branch(n, nprime, d, delta)
    params = _params(noise, n=float(n), nprime=float(nprime), delta=float(delta))
    if branch == "trivial":
        return EstimateReport(
            np.zeros(d), mean(rv), CostLedger(), "phase_dispatch", params, {"branch": branch}
        )
    if branch == "low_precision":
        sub = qlowprec_estimator(rv, n, nprime, delta, noise, rng)
    else:
        sub = qphase_estimator(rv, n, nprime, delta, noise, rng)
    diagnostics = {"branch": branch, "inner": sub.diagnostics}
    return EstimateReport(sub.estimate, sub.truth, sub.ledger, "phase_dispatch", params, diagnostics)
