"""Quantum mean estimators built on the grid-register simulator.

Four estimators share the same skeleton: prepare a uniform grid superposition,
imprint a directional-mean phase through a simulated oracle, apply the inverse
grid Fourier transform, measure, rescale, and median-combine repetitions.
They differ in which oracle supplies the phase and how budgets are split:
each reads its branch, lattice sizes and repetition counts from its
:func:`plan`, which the budgets alone decide, so a harness can refuse a cell
before its first trial.  Every phase an estimator imprints is linear (a
binary phase whose clamp would fire is refused by its oracle), so no round
builds a register: a round (:func:`_run_phase_reps`) takes only the phases'
coefficient rows and the noise overlay of :func:`qmeanlab.oracles.perturb`
(None under ideal noise).  The (n, n') regime map that the phase-model
dispatcher branches on lives here.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from qmeanlab.checks import check_norm_bound, check_open_unit
from qmeanlab.classical import check_draw_table, check_sample_floor, coordinate_median, subgaussian_estimate
from qmeanlab.gridqft import GridSpec, sample_linear_overlay, sample_linear_phase
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
    "Plan",
    "plan",
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
# Entries of the (rows, support, d) product one chunk of qlowprec's resample
# sums may take: 2^16 float64 entries, 512 KiB.
_SUM_CHUNK = 1 << 16


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


@dataclass(frozen=True)
class Plan:
    """An estimator's run as far as its budgets, echoed here, decide it.

    ``diagnostics`` is what its report carries of it, in order; ``parts`` near_optimal's bounded
    plan per shell j (run or not on the data) or a branch's inner plan; ``rounds`` the (m, reps) of
    each round every trial makes; ``draws`` the (rows, columns) of each table of classical draws.
    """

    estimator: str
    d: int
    n: float
    nprime: float | None
    delta: float
    L2: float | None
    diagnostics: dict[str, Any]
    parts: tuple[Plan, ...]
    rounds: tuple[tuple[int, int], ...]
    draws: tuple[tuple[int, int], ...]


def plan(estimator: str, d: int, n: float, nprime: float | None, delta: float, L2: float | None) -> Plan:
    """The plan of ``estimator`` (a harness id), or the ValueError it raises on these budgets alone."""
    inputs = (estimator, d, n, nprime, delta, L2)
    if estimator == "classical":
        check_sample_floor(int(n), delta)
        return Plan(*inputs, {}, (), (), ((int(n), d),))
    if estimator == "phase_model":
        branch = expected_branch(n, nprime, d, delta)
        if branch == "trivial":
            return Plan(*inputs, {"branch": branch}, (), (), ())
        inner = plan("qlowprec" if branch == "low_precision" else "qphase", d, n, nprime, delta, None)
        return Plan(*inputs, {"branch": branch}, (inner,), inner.rounds, inner.draws)
    check_open_unit("delta", delta)
    if estimator == "bounded":
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n!r}")
        check_norm_bound("L2", L2)
        if n <= math.log2(d / delta) / math.sqrt(L2):
            return Plan(*inputs, {"early_exit": True}, (), (), ())
        alpha = 1.0 / math.sqrt(math.log2(400.0 * math.pi * n * math.sqrt(d)))
        m = 2 ** math.ceil(math.log2(8.0 * math.pi / alpha * n / (math.sqrt(L2) * math.log2(d / delta))))
        reps = math.ceil(18.0 * math.log2(d / delta))
        numbers = {"early_exit": False, "alpha": alpha, "m": m, "reps": reps}
        return Plan(*inputs, numbers, (), ((m, reps),), ())
    log_term = math.log2(d / delta)
    if n < log_term:
        raise ValueError(f"n={n!r} is below log2(d/delta) = {log_term!r}")
    if estimator == "euclidean":
        if n <= d:
            check_sample_floor(int(n), delta)
            return Plan(*inputs, {"branch": "classical"}, (), (), ((int(n), d),))
        inner = plan("near_optimal", d, n, None, delta, None)
        return Plan(*inputs, {"branch": "quantum"}, (inner,), inner.rounds, inner.draws)
    if estimator == "near_optimal":
        k = math.ceil(2.0 * math.log2(2.0 * math.sqrt(2.0) * n / log_term))
        shell_n = n * (k + 1) * 4.0 * math.log2(5.0 * k * d / delta) / (math.sqrt(QUANTILE_C) * log_term)
        shell_delta = delta / (5.0 * k)
        n0 = 64 * math.ceil(math.log2(2.0 / delta))
        shells = tuple(
            plan("bounded", d, shell_n, None, shell_delta, min(2.0 ** (-(j - 1)), 1.0))
            for j in range(k + 1)
        )
        return Plan(*inputs, {"k": k, "nprime": shell_n, "n0": n0}, shells, (), ((n0, d),))
    if estimator not in ("qphase", "qlowprec"):
        raise ValueError(f"unknown estimator {estimator!r}")
    if nprime < math.sqrt(d) * log_term:
        raise ValueError(f"nprime={nprime!r} is below sqrt(d)*log2(d/delta) = {math.sqrt(d) * log_term!r}")
    if estimator == "qphase":
        k = math.floor(min(n, nprime / math.sqrt(d)))
        if k == 0:
            raise ValueError(f"k = floor(min(n, nprime/sqrt(d))) = 0 at n={n!r}, nprime={nprime!r}")
        m = 2 ** max(0, math.ceil(math.log2(8.0 * math.pi * k / (math.sqrt(d) * log_term))))
        reps = math.ceil(18.0 * log_term)
        return Plan(*inputs, {"k": k, "m": m, "reps": reps}, (), ((m, reps),), ())
    k_prime = math.floor(2.0 * n / log_term)
    outer = math.ceil(32.0 * log_term)
    inner_k = 2.0 * nprime / math.sqrt(d)
    m = 2 ** max(0, math.ceil(math.log2(8.0 * math.pi * inner_k / (math.sqrt(d) * log_term))))
    numbers = {"k_prime": k_prime, "outer": outer, "inner_k": inner_k, "m": m}
    return Plan(*inputs, numbers, (), ((m, outer),), ((outer, k_prime),))


def _run_phase_reps(
    spec: GridSpec, overlay: np.ndarray | None, rows: np.ndarray, reps, scale: float, rng: np.random.Generator
) -> np.ndarray:
    """Scaled measurements of the linear phases of a (G, d) block of coefficient rows, ``reps`` per row.

    The points come back in row order, and no register is built.  Under ideal noise (``overlay``
    None) the whole block samples its closed-form Born marginals in one call
    (``sample_linear_phase``), with the draws :func:`qmeanlab.gridqft.measure` makes on the
    register, row after row; under a noise ``overlay`` (the table :func:`qmeanlab.oracles.perturb`
    gives the phase) the whole block draws by the chain rule in one call (``sample_linear_overlay``).
    """
    if overlay is not None:
        return scale * sample_linear_overlay(spec, rows, overlay, reps, rng)
    return scale * sample_linear_phase(spec, rows, reps, rng)


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
    planned = plan("bounded", rv.d, n, None, delta, L2)
    check_binary_model(rv, L2)
    d = rv.d
    truth = mean(rv)
    ledger = CostLedger()
    params = _params(noise, n=float(n), L2=float(L2), delta=float(delta))

    if planned.diagnostics["early_exit"]:
        return EstimateReport(np.zeros(d), truth, ledger, "bounded", params, {**planned.diagnostics})

    alpha = planned.diagnostics["alpha"]
    (m, reps), = planned.rounds
    spec = GridSpec(m=m, d=d)

    # one oracle construction, charged once per repetition that uses it
    phase = directional_phases_binary(rv, L2, m, alpha, BINARY_ORACLE_EPS, ledger, reps)
    overlay = perturb(phase, noise, spec).overlay

    per_rep = _run_phase_reps(spec, overlay, phase.coeffs[None], [reps], 2.0 * math.pi / alpha, rng)
    diagnostics = {**planned.diagnostics, "fast_path": overlay is None}
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
    planned = plan("near_optimal", rv.d, n, None, delta, None)
    c = QUANTILE_C

    ledger = CostLedger()
    truth = mean(rv)
    params = _params(
        noise, n=float(n), delta=float(delta), c=float(c), exact_quantiles=bool(exact_quantiles)
    )

    (n0, _), = planned.draws
    center, _ = subgaussian_estimate(rv, n0, delta, rng, ledger)

    Y = shift(rv, center)
    normY = norm_rv(Y)

    a_prev = 0.0
    estimate = center.astype(float).copy()
    shells: list[dict[str, Any]] = []
    clamp_events = 0
    for j, shell in enumerate(planned.parts):
        p = 2.0 ** (-j)
        a_j = quantile_oracle(normY, p, shell.delta, c, rng, ledger, exact=exact_quantiles)
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
            sub = bounded_estimator(Yj, shell.L2, shell.n, shell.delta, noise, rng)
            ledger.merge(sub.ledger)
            estimate = estimate + a_j * sub.estimate
            entry["early_exit"] = sub.diagnostics.get("early_exit")
            entry["m"] = sub.diagnostics.get("m")
        shells.append(entry)
        a_prev = a_j

    diagnostics = {**planned.diagnostics, "center": center, "shells": shells, "clamp_events": clamp_events}
    if exact_quantiles:
        diagnostics["structural"] = _structural_checks(
            Y, [s["a"] for s in shells], planned.diagnostics["k"], c, center, truth
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
    planned = plan("euclidean", rv.d, n, None, delta, None)
    truth = mean(rv)
    params = _params(noise, n=float(n), delta=float(delta))
    if planned.diagnostics["branch"] == "classical":
        ledger = CostLedger()
        estimate, _ = subgaussian_estimate(rv, int(n), delta, rng, ledger)
        return EstimateReport(estimate, truth, ledger, "euclidean", params, {**planned.diagnostics})
    sub = near_optimal_estimator(rv, n, delta, noise, rng)
    diagnostics = {**planned.diagnostics, "inner": sub.diagnostics}
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
    check_phase_range(rv)
    planned = plan("qphase", rv.d, n, nprime, delta, None)
    (m, reps), = planned.rounds
    spec = GridSpec(m=m, d=rv.d)

    ledger = CostLedger()
    phase = directional_phases_phase_model(rv, m, PHASE_ORACLE_EPS, PHASE_ORACLE_ETA, ledger, reps)
    overlay = perturb(phase, noise, spec).overlay

    per_rep = _run_phase_reps(spec, overlay, phase.coeffs[None], [reps], 2.0 * math.pi, rng)
    params = _params(noise, n=float(n), nprime=float(nprime), delta=float(delta))
    diagnostics = {**planned.diagnostics, "eps": PHASE_ORACLE_EPS, "eta": PHASE_ORACLE_ETA}
    return EstimateReport(coordinate_median(per_rep), mean(rv), ledger, "qphase", params, diagnostics)


def empirical_rv(rv: RandomVariable, count: int, rng: np.random.Generator) -> RandomVariable:
    """Empirical distribution of ``count`` draws, as a RandomVariable."""
    idx = rng.choice(rv.size, size=count, p=rv.prob)
    uniq, counts = np.unique(idx, return_counts=True)
    prob, values = counts / count, rv.values[uniq]
    prob.flags.writeable = values.flags.writeable = False
    return RandomVariable(prob=prob, values=values)


def _resample_sums(col: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Row r of the (R, d) result is sum_i values[col[r, i]] over its k' draws; ``values`` is (S, d).

    Each row's draws are counted over the S support values and the expression
    ``(counts[:, :, None] * values).sum(axis=1)`` is evaluated over chunks of rows, each chunk's
    counts built from its own (rows, k') indices, so that its (rows, S, d) product stays within
    ``_SUM_CHUNK`` entries (a chunk holds at least one row) and no (R, S) table of counts is
    formed; each row's sum is reduced on its own, so it has the bits the whole product gives.
    """
    size = values.shape[0]
    sums = np.empty((col.shape[0], values.shape[1]))
    step = max(1, _SUM_CHUNK // values.size)
    for start in range(0, col.shape[0], step):
        chunk = col[start : start + step]
        cells = np.arange(chunk.shape[0])[:, None] * size + chunk
        counts = np.bincount(cells.ravel(), minlength=chunk.shape[0] * size).reshape(-1, size)
        np.sum(counts[:, :, None] * values, axis=1, out=sums[start : start + step])
    return sums


def qlowprec_estimator(
    rv: RandomVariable,
    n: float,
    nprime: float,
    delta: float,
    noise: NoiseModel,
    rng: np.random.Generator,
) -> EstimateReport:
    """Low-precision analog estimator: phase-estimate empirical resamples.

    Each of the plan's ``outer`` repetitions draws k' classical samples and makes one
    phase-estimation measurement of the phase-oracle round against their empirical distribution
    P-bar.  A round depends on P-bar only through its mean, so the outer*k' draws are made at once
    (refused above 2^30 bytes) and repetitions that share a mean share one round, counted by
    ``diagnostics["tables"]``: every round imprints m*mean under the oracle's one perturbed phase,
    all in one block in order of their means (:func:`_run_phase_reps`).  The k' draws are physical
    experiments (charged as such); the rounds' state preparations act on the empirical surrogates,
    so only their phase queries (one oracle construction per repetition) reach the run ledger.
    """
    check_phase_range(rv)
    planned = plan("qlowprec", rv.d, n, nprime, delta, None)
    (m, outer), = planned.rounds
    (_, k_prime), = planned.draws
    spec = GridSpec(m=m, d=rv.d)

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
    check_draw_table(outer, k_prime)
    draws = rng.choice(rv.size, size=(outer, k_prime), p=rv.prob)
    support, col = np.unique(draws, return_inverse=True)
    sums = _resample_sums(col.reshape(outer, k_prime), rv.values[support])
    means, group = np.unique(sums / k_prime, axis=0, return_inverse=True)
    group = group.reshape(-1)  # numpy 2.0.0 returns it with a trailing axis
    # every round imprints its mean's phase under the one noise overlay of the
    # oracle's grid; the block's measurements come back grouped by mean, and
    # are left so: the coordinate median sorts each column anyway
    overlay = perturb(oracle, noise, spec).overlay
    sizes = np.bincount(group, minlength=len(means))
    per_rep = _run_phase_reps(spec, overlay, m * means, sizes, 2.0 * math.pi, rng)
    params = _params(noise, n=float(n), nprime=float(nprime), delta=float(delta))
    diagnostics = {**planned.diagnostics, "tables": len(means)}
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
    check_open_unit("delta", delta)
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
    check_phase_range(rv)
    branch = plan("phase_model", rv.d, n, nprime, delta, None).diagnostics["branch"]
    params = _params(noise, n=float(n), nprime=float(nprime), delta=float(delta))
    if branch == "trivial":
        return EstimateReport(
            np.zeros(rv.d), mean(rv), CostLedger(), "phase_dispatch", params, {"branch": branch}
        )
    if branch == "low_precision":
        sub = qlowprec_estimator(rv, n, nprime, delta, noise, rng)
    else:
        sub = qphase_estimator(rv, n, nprime, delta, noise, rng)
    diagnostics = {"branch": branch, "inner": sub.diagnostics}
    return EstimateReport(sub.estimate, sub.truth, sub.ledger, "phase_dispatch", params, diagnostics)
