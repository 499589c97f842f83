"""Quantum mean estimators built on the grid-register simulator.

Four estimators share the same skeleton: prepare a uniform grid superposition,
imprint a directional-mean phase through a simulated oracle, apply the inverse
grid Fourier transform, measure, rescale, and median-combine repetitions.
They differ in which oracle supplies the phase and how budgets are split.
The phase alone decides how a round is simulated: an ideal linear phase (one
that carries its coeffs) skips the register and samples the closed-form Born
marginals; any other phase runs the register, in product form when it is
separable.
The (n, n') regime map that the phase-model dispatcher branches on lives here.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from qmeanlab.classical import coordinate_median, subgaussian_estimate
from qmeanlab.gridqft import (
    GridSpec,
    PhaseFunction,
    apply_phase_function,
    inverse_qft,
    linear_phase_marginals,
    measure,
    sample_marginals,
    uniform_superposition,
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
    """One estimator run: the estimate, the exact truth, errors, and costs."""

    estimate: np.ndarray
    truth: np.ndarray
    err_inf: float
    err_l2: float
    ledger: CostLedger
    estimator_id: str
    params: dict[str, Any]
    diagnostics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        est = np.asarray(self.estimate, dtype=float).copy()
        tru = np.asarray(self.truth, dtype=float).copy()
        est.flags.writeable = False
        tru.flags.writeable = False
        object.__setattr__(self, "estimate", est)
        object.__setattr__(self, "truth", tru)
        diff = est - tru
        if abs(float(np.max(np.abs(diff), initial=0.0)) - self.err_inf) > 1e-12:
            raise ValueError("err_inf does not match estimate/truth")
        if abs(float(np.linalg.norm(diff)) - self.err_l2) > 1e-12:
            raise ValueError("err_l2 does not match estimate/truth")


def _report(
    estimate: np.ndarray,
    truth: np.ndarray,
    ledger: CostLedger,
    estimator_id: str,
    params: dict[str, Any],
    diagnostics: dict[str, Any],
) -> EstimateReport:
    diff = np.asarray(estimate, dtype=float) - np.asarray(truth, dtype=float)
    return EstimateReport(
        estimate=estimate,
        truth=truth,
        err_inf=float(np.max(np.abs(diff), initial=0.0)),
        err_l2=float(np.linalg.norm(diff)),
        ledger=ledger,
        estimator_id=estimator_id,
        params=params,
        diagnostics=diagnostics,
    )


def _params(noise: NoiseModel, **fields: Any) -> dict[str, Any]:
    """The report's input echo: ``fields`` in order, then the noise model."""
    echo = {"mode": noise.mode, "eps": noise.eps, "eta": noise.eta, "seed": noise.seed}
    return {**fields, "noise": echo}


def _check_delta(delta: float) -> None:
    if not (0 < delta < 1):
        raise ValueError(f"delta must lie in (0, 1), got {delta!r}")


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
    reps: int,
    scale: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """``reps`` phase-estimation measurements of one round, scaled.

    A linear phase (it carries ``coeffs``) skips the register: its closed-form
    Born marginals are sampled with the same draws :func:`measure` would make.
    Every other phase runs uniform -> phase -> inverse QFT -> measure.
    """
    if phase.coeffs is not None:
        points = sample_marginals(linear_phase_marginals(spec, phase.coeffs), reps, rng)
    else:
        state = inverse_qft(apply_phase_function(uniform_superposition(spec), phase))
        points = measure(state, reps, rng)
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
        return _report(
            np.zeros(d), truth, ledger, "bounded", params, {"early_exit": True}
        )

    alpha = 1.0 / math.sqrt(math.log2(400.0 * math.pi * n * math.sqrt(d)))
    m = 2 ** math.ceil(math.log2(8.0 * math.pi / alpha * n / (math.sqrt(L2) * math.log2(d / delta))))
    reps = math.ceil(18.0 * math.log2(d / delta))
    spec = GridSpec(m=m, d=d)

    # one oracle construction, charged once per repetition that uses it; it
    # comes back linear (sampled without a register at any m) when the clamp
    # never fires
    phase = directional_phases_binary(rv, L2, m, alpha, BINARY_ORACLE_EPS, ledger, reps)
    compute_phase = perturb(phase, noise, spec)

    per_rep = _run_phase_reps(spec, compute_phase, reps, 2.0 * math.pi / alpha, rng)
    estimate = coordinate_median(per_rep)
    return _report(
        estimate,
        truth,
        ledger,
        "bounded",
        params,
        {"early_exit": False, "alpha": alpha, "m": m, "reps": reps, "fast_path": compute_phase.separable},
    )


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
    return _report(estimate, truth, ledger, "near_optimal", params, diagnostics)


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
        return _report(
            estimate, truth, ledger, "euclidean", params, {"branch": "classical"}
        )
    sub = near_optimal_estimator(rv, n, delta, noise, rng)
    return _report(
        sub.estimate,
        truth,
        sub.ledger,
        "euclidean",
        params,
        {"branch": "quantum", "inner": sub.diagnostics},
    )


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
    exactly linear, so under IDEAL noise every round skips the register.
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
    estimate = coordinate_median(per_rep)
    params = _params(noise, n=float(n), nprime=float(nprime), delta=float(delta))
    return _report(
        estimate,
        mean(rv),
        ledger,
        "qphase",
        params,
        {"k": k, "m": m, "reps": reps, "eps": PHASE_ORACLE_EPS, "eta": PHASE_ORACLE_ETA},
    )


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
    samples, builds their empirical distribution P-bar, and runs one
    phase-oracle round against P-bar at resolution derived from k = 2n'/sqrt(d).
    The k' draws are physical experiments (charged as such); the inner round's
    state preparations act on the empirical surrogate, so only its phase
    queries carry over to the run ledger.
    """
    d = rv.d
    log_term = _phase_log_budget(rv, n, nprime, delta)
    k_prime = math.floor(2.0 * n / log_term)
    outer = math.ceil(32.0 * log_term)
    inner_k = 2.0 * nprime / math.sqrt(d)
    m = 2 ** max(0, math.ceil(math.log2(8.0 * math.pi * inner_k / (math.sqrt(d) * log_term))))
    spec = GridSpec(m=m, d=d)

    ledger = CostLedger()
    per_rep = np.empty((outer, d))
    for r in range(outer):
        pbar = empirical_rv(rv, k_prime, rng)
        ledger.charge(classical_samples=float(k_prime), experiments=float(k_prime))
        inner = CostLedger()
        phase = directional_phases_phase_model(pbar, m, PHASE_ORACLE_EPS, PHASE_ORACLE_ETA, inner)
        ledger.charge(phase_queries=inner.phase_queries)
        compute_phase = perturb(phase, noise, spec)
        per_rep[r] = _run_phase_reps(spec, compute_phase, 1, 2.0 * math.pi, rng)[0]
    estimate = coordinate_median(per_rep)
    params = _params(noise, n=float(n), nprime=float(nprime), delta=float(delta))
    return _report(
        estimate,
        mean(rv),
        ledger,
        "qlowprec",
        params,
        {"k_prime": k_prime, "outer": outer, "inner_k": inner_k, "m": m},
    )


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
        return _report(
            np.zeros(d), mean(rv), CostLedger(), "phase_dispatch", params, {"branch": branch}
        )
    if branch == "low_precision":
        sub = qlowprec_estimator(rv, n, nprime, delta, noise, rng)
    else:
        sub = qphase_estimator(rv, n, nprime, delta, noise, rng)
    return _report(
        sub.estimate,
        sub.truth,
        sub.ledger,
        "phase_dispatch",
        params,
        {"branch": branch, "inner": sub.diagnostics},
    )
