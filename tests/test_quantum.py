"""Tests for the quantum estimators.

Closed-form parameter values (alpha, m, k, k', repetition counts, ledger
charges) were frozen from an independent calculator before the estimators
were written; the tests assert those exact values.
"""

from __future__ import annotations

import logging
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, ks_2samp

from qmeanlab import gridqft, quantum
from qmeanlab.classical import coordinate_median
from qmeanlab.gridqft import (
    GridSpec,
    PhaseFunction,
    apply_phase_function,
    grid_axis_points,
    inverse_qft,
    lattice_cap,
    measure,
    measurement_distribution,
    uniform_superposition,
)
from qmeanlab.hardness import fractional_phase_rv
from qmeanlab.harness import standard_battery
from qmeanlab.oracles import (
    CostLedger,
    NoiseModel,
    _deviation_table,
    directional_phases_phase_model,
    linear_phase_function,
    perturb,
)
from qmeanlab.probspace import RandomVariable, mean, moments
from qmeanlab.quantum import (
    PHASE_ORACLE_EPS,
    PHASE_ORACLE_ETA,
    EstimateReport,
    bounded_estimator,
    empirical_rv,
    euclidean_estimator,
    near_optimal_estimator,
    phase_model_dispatch,
    qlowprec_estimator,
    qphase_estimator,
)

IDEAL = NoiseModel.ideal()


def point_mass(mu) -> RandomVariable:
    return RandomVariable(prob=[1.0], values=[list(mu)])


def basis_rv(d: int, scale: float = 1.0) -> RandomVariable:
    return RandomVariable(prob=np.full(d, 1.0 / d), values=np.eye(d) * scale)


def concentration_probability(mu: np.ndarray, alpha_times_m: float, m: int) -> np.ndarray:
    """Per-coordinate Pr[|v - alpha*mu_j/(2pi)| <= 4/m] for the linear phase."""
    d = mu.shape[0]
    spec = GridSpec(m=m, d=d)
    phase = linear_phase_function(alpha_times_m * mu)
    state = inverse_qft(apply_phase_function(uniform_superposition(spec), phase))
    marginals = measurement_distribution(state)
    axis = grid_axis_points(m)
    out = np.empty(d)
    for j in range(d):
        target = alpha_times_m * mu[j] / (2.0 * math.pi * m)
        out[j] = marginals[j][np.abs(axis - target) <= 4.0 / m + 1e-15].sum()
    return out


class TestEstimateReport:
    def test_error_fields_must_match(self):
        # the errors are computed from estimate and truth, never passed in
        rep = EstimateReport(np.array([1.0, -2.0]), np.array([0.0, 1.0]), CostLedger(), "x", {})
        assert rep.err_inf == 3.0 and rep.err_l2 == math.sqrt(10.0)
        with pytest.raises(TypeError, match="err_inf"):
            EstimateReport(np.array([1.0]), np.array([0.0]), CostLedger(), "x", {}, err_inf=0.5)
        with pytest.raises(ValueError, match="init=False"):
            replace(rep, err_l2=0.0)
        assert replace(rep, estimate=np.array([0.0, 1.0])).err_l2 == 0.0

    def test_arrays_read_only(self):
        estimate = np.array([1.0])
        rep = EstimateReport(estimate, np.array([0.0]), CostLedger(), "x", {})
        with pytest.raises(ValueError):
            rep.estimate[0] = 2.0
        estimate[0] = 5.0  # the report keeps its own copy
        assert rep.estimate[0] == 1.0 and rep.err_inf == 1.0


class TestPhaseRounds:
    @pytest.mark.parametrize("m", [2, 64, 4096, 2**16])
    def test_linear_round_draws_what_the_register_draws(self, m):
        spec = GridSpec(m=m, d=2)
        phase = linear_phase_function(np.array([0.61, -0.23]) * 2 * math.pi * m)
        for seed in range(3):
            closed = quantum._run_phase_reps(
                spec, phase, phase.coeffs[None], [200], 1.0, np.random.default_rng(seed)
            )
            state = inverse_qft(apply_phase_function(uniform_superposition(spec), phase))
            register = measure(state, 200, np.random.default_rng(seed))
            assert np.array_equal(closed, register)

    @pytest.mark.parametrize("m, d", [(2, 2), (64, 1), (512, 2), (16, 3)])
    def test_perturbed_linear_round_draws_what_the_register_draws(self, m, d):
        # the round draws by the chain rule, the register from its joint
        # table, so their streams differ: a chi-square test of 40,000 round
        # draws against the register's exact table (cells expected below 5
        # pooled into one)
        spec = GridSpec(m=m, d=d)
        noise = NoiseModel.perturbed(eps=0.3, eta=0.2, seed=m)
        coeffs = np.array([0.61, -0.23, 0.37])[:d] * 2 * math.pi * m
        phase = perturb(linear_phase_function(coeffs), noise, spec)
        register = measurement_distribution(
            inverse_qft(apply_phase_function(uniform_superposition(spec), phase))
        )
        draws = 40_000
        pts = quantum._run_phase_reps(
            spec, phase, phase.coeffs[None], [draws], 1.0, np.random.default_rng(0)
        )
        idx = np.rint(m * pts + (m - 1) / 2.0).astype(np.int64)
        counts = np.bincount(np.ravel_multi_index(tuple(idx.T), (m,) * d), minlength=spec.points)
        expected = register * draws / register.sum()
        keep = expected >= 5
        observed, expected = counts[keep], expected[keep]
        if not keep.all():
            observed = np.append(observed, counts[~keep].sum())
            expected = np.append(expected, draws - expected.sum())
        assert chisquare(observed, expected).pvalue > 1e-3

    def test_no_linear_round_builds_a_register(self, monkeypatch):
        # ideal (closed-form marginals) or perturbed (chain rule over its overlay),
        # a round builds no register state; a phase without coeffs is refused
        register = {"apply_phase_function", "inverse_qft", "measure", "uniform_superposition"}
        assert not register & set(vars(quantum))

        def no_state(*args, **kwargs):
            raise AssertionError("a linear round built a register state")

        monkeypatch.setattr(gridqft, "GridState", no_state)
        spec = GridSpec(m=8, d=2)
        phase = linear_phase_function(np.array([3.0, -5.0]))
        noisy = perturb(phase, NoiseModel.perturbed(eps=0.1, eta=0.1, seed=0), spec)
        for round_phase in (phase, noisy):
            quantum._run_phase_reps(
                spec, round_phase, round_phase.coeffs[None], [10], 1.0, np.random.default_rng(0)
            )
        built = PhaseFunction(evaluate=noisy.evaluate, separable=False)
        with pytest.raises(TypeError, match="only linear phases"):
            quantum._run_phase_reps(spec, built, np.zeros((1, 2)), [10], 1.0, np.random.default_rng(0))


class TestBoundedEstimator:
    def test_early_exit_zero_estimate_zero_cost(self):
        rv = point_mass([0.3, 0.1, 0.0, -0.2])
        # log2(4/0.05) = log2(80) ~ 6.32, so n = 6 early-exits at L2 = 1
        rep = bounded_estimator(rv, 1.0, 6.0, 0.05, IDEAL, np.random.default_rng(0))
        assert np.array_equal(rep.estimate, np.zeros(4))
        assert rep.diagnostics["early_exit"] is True
        assert all(v == 0.0 for v in rep.ledger.as_dict().values())
        assert rep.err_inf == pytest.approx(0.3)

    def test_frozen_parameters_n1024_d4(self):
        rv = point_mass([0.1, 0.0, -0.1, 0.2])
        rep = bounded_estimator(rv, 1.0, 1024.0, 0.05, IDEAL, np.random.default_rng(1))
        diag = rep.diagnostics
        assert diag["alpha"] == pytest.approx(0.21669933830191318, rel=1e-14)
        assert diag["m"] == 32768
        assert diag["reps"] == 114
        assert diag["fast_path"] is True

    def test_frozen_ledger_charge_n1024_d4(self):
        rv = point_mass([0.1, 0.0, -0.1, 0.2])
        rep = bounded_estimator(rv, 1.0, 1024.0, 0.05, IDEAL, np.random.default_rng(1))
        # 114 repetitions x m*sqrt(L2)*ceil(log2(25))^2 = 114 * 32768 * 25
        assert rep.ledger.experiments == 114 * 32768 * 25.0
        assert rep.ledger.binary_queries == 114 * 32768 * 25.0
        assert rep.ledger.classical_samples == 0.0

    def test_recovers_point_mass_mean(self):
        mu = np.array([0.3, -0.2])
        rep = bounded_estimator(point_mass(mu), 1.0, 32.0, 0.05, IDEAL, np.random.default_rng(7))
        alpha, m = rep.diagnostics["alpha"], rep.diagnostics["m"]
        assert rep.err_inf <= 8.0 * math.pi / (alpha * m)

    def test_per_repetition_concentration_five_sixths(self):
        # Exact per-coordinate probability that one repetition lands within
        # the 8pi/(alpha*m) window, straight from the Born distribution.
        mu = np.array([0.3, -0.2])
        n, d, delta = 32.0, 2, 0.05
        alpha = 1.0 / math.sqrt(math.log2(400.0 * math.pi * n * math.sqrt(d)))
        m = 2 ** math.ceil(
            math.log2(8.0 * math.pi / alpha * n / math.log2(d / delta))
        )
        probs = concentration_probability(mu, alpha * m, m)
        assert np.all(probs >= 5.0 / 6.0 - 1e-9)

    def test_estimate_within_stated_bound(self):
        # ||mu_hat - mu||_inf <= sqrt(L2)*log2(d/delta)/n holds with
        # probability >= 1 - delta; at this seed it holds outright.
        rv = basis_rv(3)
        rep = bounded_estimator(rv, 1.0, 64.0, 0.1, IDEAL, np.random.default_rng(3))
        assert rep.err_inf <= math.log2(3 / 0.1) / 64.0

    def test_perturbed_noise_full_state_path(self):
        mu = np.array([0.25, -0.1])
        noise = NoiseModel.perturbed(eps=1.0 / 25.0, eta=1.0 / 288.0, seed=5)
        rep = bounded_estimator(point_mass(mu), 1.0, 8.0, 0.1, noise, np.random.default_rng(2))
        assert rep.diagnostics["fast_path"] is False
        assert rep.diagnostics["m"] == 256
        # loose sanity bound: the stated error guarantee at n = 8
        assert rep.err_inf <= math.log2(2 / 0.1) / 8.0

    def test_lattice_cap_reports_offending_size(self):
        # n=128 gives m=4096 per axis: 2^24 amplitudes at d=2, refused before
        # the perturbation table is drawn
        noise = NoiseModel.perturbed(eps=1.0 / 25.0, eta=1.0 / 288.0, seed=5)
        cap_line = r"lattice cap exceeded: m\^d = 4096\^2 = 2\^24 > 4194304 amplitudes$"
        with pytest.raises(ValueError, match=cap_line):
            bounded_estimator(
                point_mass([0.25, -0.1]), 1.0, 128.0, 0.1, noise, np.random.default_rng(2)
            )
        # the size is a power of two, so the line stays short at any d
        cap_line = r"m\^d = 4096\^64 = 2\^768 > 4194304 amplitudes$"
        with pytest.raises(ValueError, match=cap_line) as info:
            bounded_estimator(basis_rv(64), 1.0, 256.0, 0.05, noise, np.random.default_rng(2))
        assert len(str(info.value)) < 200

    def test_ideal_fast_path_ignores_lattice_cap(self):
        # Product form never materializes m^d amplitudes, so the cap does not
        # bind on the certified-linear path: 4096^2 = 2^24 is above it.
        rep = bounded_estimator(
            point_mass([0.25, -0.1]), 1.0, 128.0, 0.1, IDEAL, np.random.default_rng(2)
        )
        assert rep.diagnostics["fast_path"] is True
        assert rep.diagnostics["m"] ** 2 > lattice_cap()

    def test_determinism(self):
        rv = basis_rv(3)
        a = bounded_estimator(rv, 1.0, 64.0, 0.1, IDEAL, np.random.default_rng(11))
        b = bounded_estimator(rv, 1.0, 64.0, 0.1, IDEAL, np.random.default_rng(11))
        assert np.array_equal(a.estimate, b.estimate)
        assert a.err_inf == b.err_inf and a.err_l2 == b.err_l2
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_rejects_bad_inputs(self):
        rng = np.random.default_rng(0)
        rv = point_mass([0.5, 0.5])
        with pytest.raises(ValueError, match="L2"):
            bounded_estimator(rv, 0.0, 10.0, 0.1, IDEAL, rng)
        with pytest.raises(ValueError, match="delta"):
            bounded_estimator(rv, 1.0, 10.0, 1.0, IDEAL, rng)
        with pytest.raises(ValueError, match="n must"):
            bounded_estimator(rv, 1.0, 0.5, 0.1, IDEAL, rng)
        with pytest.raises(ValueError, match="norm"):
            bounded_estimator(point_mass([1.2, 0.0]), 1.0, 10.0, 0.1, IDEAL, rng)
        with pytest.raises(ValueError, match="below the true"):
            bounded_estimator(rv, 0.1, 100.0, 0.1, IDEAL, rng)


class TestNearOptimalEstimator:
    def test_point_mass_recovers_exactly_with_frozen_k_nprime(self):
        mu = [0.3, -0.1, 0.0, 0.5]
        rep = near_optimal_estimator(point_mass(mu), 1000.0, 0.05, IDEAL, np.random.default_rng(4))
        assert rep.diagnostics["k"] == 18
        assert rep.diagnostics["nprime"] == pytest.approx(308085.5574172252, rel=1e-12)
        # constant draws pin the center exactly; every shell quantile is 0,
        # so every slice is skipped and the center is the whole estimate
        assert np.array_equal(rep.estimate, np.asarray(mu))
        assert rep.err_inf == 0.0
        assert all(s["skipped"] for s in rep.diagnostics["shells"])

    def test_point_mass_ledger_accounting(self):
        mu = [0.3, -0.1, 0.0, 0.5]
        rep = near_optimal_estimator(point_mass(mu), 1000.0, 0.05, IDEAL, np.random.default_rng(4))
        ledger = rep.ledger
        assert ledger.classical_samples == 64 * math.ceil(math.log2(2 / 0.05))  # 384
        assert ledger.quantile_calls == 19.0
        # each quantile call charges ceil(log2(5k/delta))/sqrt(2^-j), summed
        # in call order
        expected = 0.0
        for j in range(19):
            expected += math.ceil(math.log2(1 / (0.05 / 90))) / math.sqrt(2.0 ** (-j))
        assert ledger.binary_queries == expected
        assert ledger.phase_queries == 0.0

    def test_structural_inequalities_exact_mode(self):
        rv = RandomVariable(
            prob=[0.5, 0.3, 0.2],
            values=[[0.1, 0.0], [0.3, -0.4], [1.2, 1.6]],
        )
        rep = near_optimal_estimator(
            rv, 64.0, 0.1, IDEAL, np.random.default_rng(8), exact_quantiles=True
        )
        checks = rep.diagnostics["structural"]
        assert checks["quantile_margin"] >= -1e-9
        assert checks["slice_margin"] >= -1e-9
        assert checks["tail_margin"] >= -1e-9
        assert checks["decomposition_residual"] <= 1e-10

    def test_estimate_quality_exact_mode(self):
        rv = RandomVariable(
            prob=[0.5, 0.3, 0.2],
            values=[[0.1, 0.0], [0.3, -0.4], [1.2, 1.6]],
        )
        rep = near_optimal_estimator(
            rv, 64.0, 0.1, IDEAL, np.random.default_rng(8), exact_quantiles=True
        )
        assert rep.err_l2 <= 2.0 * math.sqrt(moments(rv).cov_trace)

    def test_two_norm_scales_skip_repeated_shells(self):
        # norms are only 0.0 and 0.5, so most quantiles coincide and their
        # shells are skipped with zero contribution
        rv = RandomVariable(prob=[0.5, 0.5], values=[[0.0, 0.0], [0.3, 0.4]])
        rep = near_optimal_estimator(
            rv, 32.0, 0.1, IDEAL, np.random.default_rng(13), exact_quantiles=True
        )
        shells = rep.diagnostics["shells"]
        assert any(s["skipped"] for s in shells)
        assert sum(not s["skipped"] for s in shells) <= 2

    def test_non_monotone_quantiles_are_clamped_and_logged(self, monkeypatch, caplog):
        rv = RandomVariable(prob=[0.5, 0.5], values=[[0.0, 0.0], [0.3, 0.4]])
        fake_values = iter([0.5, 0.3] + [0.5] * 50)

        def fake_quantile(rv_scalar, p, delta, c, rng, ledger, exact=False):
            ledger.charge(quantile_calls=1.0)
            return next(fake_values)

        monkeypatch.setattr("qmeanlab.quantum.quantile_oracle", fake_quantile)
        with caplog.at_level(logging.DEBUG, logger="qmeanlab.quantum"):
            rep = near_optimal_estimator(rv, 32.0, 0.1, IDEAL, np.random.default_rng(0))
        assert rep.diagnostics["clamp_events"] == 1
        a_seq = [s["a"] for s in rep.diagnostics["shells"]]
        assert a_seq == sorted(a_seq)
        assert any("non-monotone" in r.message for r in caplog.records)
        # an expected event: counted in the diagnostics, logged below WARNING
        assert all(r.levelno < logging.WARNING for r in caplog.records)

    def test_determinism(self):
        rv = basis_rv(3)
        a = near_optimal_estimator(rv, 16.0, 0.1, IDEAL, np.random.default_rng(21))
        b = near_optimal_estimator(rv, 16.0, 0.1, IDEAL, np.random.default_rng(21))
        assert np.array_equal(a.estimate, b.estimate)
        assert a.ledger.as_dict() == b.ledger.as_dict()

    def test_rejects_insufficient_n(self):
        with pytest.raises(ValueError, match="below log2"):
            near_optimal_estimator(basis_rv(4), 6.0, 0.05, IDEAL, np.random.default_rng(0))


class TestEuclideanEstimator:
    def test_small_n_uses_classical_branch(self):
        rv = basis_rv(8)
        rep = euclidean_estimator(rv, 8.0, 0.1, IDEAL, np.random.default_rng(0))
        assert rep.estimator_id == "euclidean"
        assert rep.diagnostics["branch"] == "classical"
        assert rep.ledger.classical_samples == 8.0
        assert rep.ledger.binary_queries == 0.0

    def test_large_n_uses_quantum_branch(self):
        rv = basis_rv(8)
        rep = euclidean_estimator(rv, 9.0, 0.1, IDEAL, np.random.default_rng(1))
        assert rep.diagnostics["branch"] == "quantum"
        assert rep.ledger.quantile_calls > 0
        assert rep.err_l2 <= math.sqrt(8) * rep.err_inf + 1e-12

    def test_rejects_insufficient_n(self):
        with pytest.raises(ValueError, match="below log2"):
            euclidean_estimator(basis_rv(8), 5.0, 0.1, IDEAL, np.random.default_rng(0))


class TestQPhaseEstimator:
    def test_k_equals_n_when_budgets_balance(self):
        rv = point_mass([0.1, -0.05, 0.0, 0.2])
        rep = qphase_estimator(rv, 10.0, 20.0, 0.05, IDEAL, np.random.default_rng(0))
        assert rep.diagnostics["k"] == 10
        assert rep.diagnostics["m"] == 32
        assert rep.diagnostics["reps"] == 114

    def test_frozen_ledger_charges(self):
        rv = point_mass([0.1, -0.05, 0.0, 0.2])
        rep = qphase_estimator(rv, 10.0, 20.0, 0.05, IDEAL, np.random.default_rng(0))
        # L = ceil(log2(1/(eps*eta))) = 13 with eps = 1/(12 sqrt 2), eta = 1/288
        assert math.ceil(math.log2(1 / (PHASE_ORACLE_EPS * PHASE_ORACLE_ETA))) == 13
        assert rep.ledger.experiments == 114 * 2 * 32 * 169.0
        assert rep.ledger.phase_queries == 114 * 4 * 32 * 28561.0

    def test_recovers_point_mass(self):
        mu = np.array([0.2, -0.25, 0.1])
        rep = qphase_estimator(point_mass(mu), 50.0, 200.0, 0.05, IDEAL, np.random.default_rng(3))
        assert rep.err_inf <= 8.0 * math.pi / rep.diagnostics["m"]

    def test_zero_mean_stays_near_zero(self):
        rv = RandomVariable(prob=[0.5, 0.5], values=[[0.2, -0.1], [-0.2, 0.1]])
        rep = qphase_estimator(rv, 20.0, 40.0, 0.05, IDEAL, np.random.default_rng(5))
        assert rep.diagnostics["m"] == 128
        assert rep.err_inf <= 8.0 * math.pi / 128.0

    def test_per_repetition_concentration(self):
        mu = np.array([0.2, -0.25, 0.1])
        m = 64
        probs = concentration_probability(mu, float(m), m)
        assert np.all(probs >= 5.0 / 6.0 - 1e-9)

    def test_perturbed_noise_completes(self):
        noise = NoiseModel.perturbed(eps=PHASE_ORACLE_EPS, eta=PHASE_ORACLE_ETA, seed=9)
        rep = qphase_estimator(
            point_mass([0.2, -0.1]), 10.0, 20.0, 0.1, noise, np.random.default_rng(6)
        )
        assert rep.err_inf <= 0.5

    def test_rejects_out_of_range_values(self):
        with pytest.raises(ValueError, match="leaves"):
            qphase_estimator(point_mass([0.3, 0.0]), 10.0, 20.0, 0.05, IDEAL, np.random.default_rng(0))

    def test_rejects_insufficient_budgets(self):
        rv = point_mass([0.1, 0.0])
        with pytest.raises(ValueError, match="below log2"):
            qphase_estimator(rv, 3.0, 20.0, 0.05, IDEAL, np.random.default_rng(0))
        with pytest.raises(ValueError, match="sqrt"):
            qphase_estimator(rv, 10.0, 5.0, 0.05, IDEAL, np.random.default_rng(0))

    def test_refuses_budgets_that_resolve_no_lattice_step(self):
        # d = 1, delta = 0.9: log2(d/delta) = 0.152, so n = n' = 0.2 passes both
        # budget checks, and k = floor(min(n, n'/sqrt(d))) = 0 has no lattice
        rv = RandomVariable(prob=[0.5, 0.5], values=[[0.1], [0.2]])
        with pytest.raises(ValueError, match=r"^k = floor\(min\(n, nprime/sqrt\(d\)\)\) = 0 at n=0.2"):
            qphase_estimator(rv, 0.2, 0.2, 0.9, IDEAL, np.random.default_rng(0))


class TestQLowPrecEstimator:
    def test_draw_table_above_2_pow_30_bytes_is_refused_before_it_is_drawn(self):
        # d = 2, delta = 0.05: outer = 171 resamples of k' = 1,576,234 draws at
        # n = 2^22, 2.2 GB of int64; refused, with nothing of that size allocated
        rv = basis_rv(2, scale=0.25)
        tracemalloc.start()
        try:
            wall = r"^draw-table memory wall: \(171, 1576234\) 8-byte draws"
            with pytest.raises(ValueError, match=wall):
                qlowprec_estimator(rv, 2.0**22, 8.0, 0.05, IDEAL, np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_frozen_k_prime(self):
        rv = basis_rv(4, scale=0.25)
        rep = qlowprec_estimator(rv, 100.0, 50.0, 0.05, IDEAL, np.random.default_rng(0))
        assert rep.diagnostics["k_prime"] == 31
        assert rep.diagnostics["outer"] == 203
        assert rep.diagnostics["m"] == 128

    def test_ledger_accounting(self):
        rv = basis_rv(4, scale=0.25)
        rep = qlowprec_estimator(rv, 100.0, 50.0, 0.05, IDEAL, np.random.default_rng(0))
        assert rep.ledger.classical_samples == 203 * 31.0
        assert rep.ledger.experiments == 203 * 31.0
        # each outer repetition charges one phase-oracle construction
        assert rep.ledger.phase_queries == 203 * (4 * 128 * 13.0**4)
        assert rep.ledger.binary_queries == 0.0

    def test_point_mass_reduces_to_phase_behavior(self):
        mu = np.array([0.1, -0.2])
        rep = qlowprec_estimator(point_mass(mu), 20.0, 40.0, 0.1, IDEAL, np.random.default_rng(2))
        assert rep.err_inf <= 8.0 * math.pi / rep.diagnostics["m"]
        # every resample of a point mass has the same mean: one round serves all
        assert rep.diagnostics["tables"] == 1

    def test_estimate_tracks_mean_of_mixture(self):
        rv = RandomVariable(prob=[0.5, 0.5], values=[[0.25, 0.0], [0.0, 0.25]])
        rep = qlowprec_estimator(rv, 200.0, 400.0, 0.05, IDEAL, np.random.default_rng(3))
        # resampling noise dominates: k' = 2n/log2(d/delta) samples per
        # repetition, median over ~170 repetitions
        assert rep.err_inf <= 0.06
        # at most one round per multiset of k' outcomes out of the two
        k_prime, outer = rep.diagnostics["k_prime"], rep.diagnostics["outer"]
        assert rep.diagnostics["tables"] <= math.comb(rv.size + k_prime - 1, k_prime) < outer

    @pytest.mark.parametrize("seed", range(5))
    def test_one_round_per_exactly_distinct_mean(self, seed):
        # the resample indices are the estimator's first draws from rng; two
        # of the four outcomes share the value 0, so multisets outnumber means.
        # Counting the means in exact arithmetic checks that no multiset is
        # split across rounds and no two different means share one.
        rv = fractional_phase_rv(2, 4.0, [1, 0])
        rep = qlowprec_estimator(rv, 4.0, 16.0, 0.4, IDEAL, np.random.default_rng(seed))
        outer, k_prime = rep.diagnostics["outer"], rep.diagnostics["k_prime"]
        draws = np.random.default_rng(seed).choice(rv.size, size=(outer, k_prime), p=rv.prob)
        exact = {tuple(sum(Fraction(float(v)) for v in rv.values[row, j]) for j in range(rv.d))
                 for row in draws}
        assert rep.diagnostics["tables"] == len(exact)
        assert len(exact) < len({tuple(sorted(row)) for row in draws})

    def test_empirical_rv_unbiased(self):
        rv = RandomVariable(prob=[0.3, 0.7], values=[[-0.25], [0.25]])
        rng = np.random.default_rng(9)
        trials, count = 10_000, 10
        acc = 0.0
        for _ in range(trials):
            acc += float(mean(empirical_rv(rv, count, rng))[0])
        avg = acc / trials
        sigma = math.sqrt(moments(rv).cov_trace / count / trials)
        assert abs(avg - 0.1) <= 3 * sigma

    def test_perturbed_run_draws_one_noise_table(self, monkeypatch):
        # the run perturbs the oracle's phase once: its rounds share that one
        # overlay, so the m^d deviation table is drawn once and never re-read
        # from the cache
        _deviation_table.cache_clear()
        calls = []

        def counted(*args):
            calls.append(args)
            return perturb(*args)

        monkeypatch.setattr(quantum, "perturb", counted)
        noise = NoiseModel.perturbed(eps=0.05, eta=0.01, seed=3)
        rv = basis_rv(2, scale=0.25)
        rep = qlowprec_estimator(rv, 4.0, 16.0, 0.4, noise, np.random.default_rng(5))
        info = _deviation_table.cache_info()
        assert rep.diagnostics["outer"] > rep.diagnostics["tables"] > 1
        assert len(calls) == 1
        assert info.misses == 1
        assert info.hits == 0

    def test_determinism(self):
        rv = basis_rv(2, scale=0.25)
        a = qlowprec_estimator(rv, 20.0, 30.0, 0.1, IDEAL, np.random.default_rng(4))
        b = qlowprec_estimator(rv, 20.0, 30.0, 0.1, IDEAL, np.random.default_rng(4))
        assert np.array_equal(a.estimate, b.estimate)
        assert a.ledger.as_dict() == b.ledger.as_dict()


def per_repetition_qlowprec(rv, noise, diagnostics, rng) -> tuple[float, CostLedger]:
    """Reference: the low-precision outer loop one repetition at a time.

    Each repetition draws its own empirical resample, builds the phase-oracle
    phase of that resample, perturbs it and makes one measurement, with k',
    the repetition count and m taken from the batched run's diagnostics.
    Returns the l_inf error and the ledger the loop charges.
    """
    k_prime, outer, m = diagnostics["k_prime"], diagnostics["outer"], diagnostics["m"]
    spec = GridSpec(m=m, d=rv.d)
    ledger = CostLedger()
    per_rep = np.empty((outer, rv.d))
    for r in range(outer):
        pbar = empirical_rv(rv, k_prime, rng)
        ledger.charge(classical_samples=float(k_prime), experiments=float(k_prime))
        inner = CostLedger()
        phase = directional_phases_phase_model(pbar, m, PHASE_ORACLE_EPS, PHASE_ORACLE_ETA, inner)
        ledger.charge(phase_queries=inner.phase_queries)
        round_phase = perturb(phase, noise, spec)
        block = phase.coeffs[None]
        per_rep[r] = quantum._run_phase_reps(spec, round_phase, block, [1], 2 * math.pi, rng)[0]
    return float(np.abs(coordinate_median(per_rep) - mean(rv)).max()), ledger


class TestQLowPrecMatchesPerRepetitionLoop:
    """The batched outer loop draws from the same error law as the per-repetition one.

    Seeded streams differ between the two, so the check is a two-sample KS
    test on per-trial l_inf errors over 200 seeds, plus exact ledgers.
    """

    @pytest.mark.parametrize(
        "rv, n, nprime, delta, noise",
        [
            (RandomVariable(prob=[0.3, 0.7], values=[[0.25, 0.0], [0.0, -0.25]]),
             20.0, 30.0, 0.1, IDEAL),
            (fractional_phase_rv(2, 4.0, [1, 0]), 4.0, 4.0, 0.4,
             NoiseModel.perturbed(eps=0.05, eta=0.01, seed=11)),
        ],
        ids=["ideal", "perturbed"],
    )
    def test_error_law_and_ledger(self, rv, n, nprime, delta, noise):
        log_factor = math.ceil(math.log2(1.0 / (PHASE_ORACLE_EPS * PHASE_ORACLE_ETA)))
        batched, looped = [], []
        for seed in range(200):
            rep = qlowprec_estimator(rv, n, nprime, delta, noise, np.random.default_rng(seed))
            err, ledger = per_repetition_qlowprec(
                rv, noise, rep.diagnostics, np.random.default_rng(10_000 + seed)
            )
            batched.append(rep.err_inf)
            looped.append(err)
            outer, k_prime, m = (rep.diagnostics[k] for k in ("outer", "k_prime", "m"))
            assert rep.ledger.classical_samples == rep.ledger.experiments == outer * k_prime
            assert rep.ledger.phase_queries == outer * rv.d * m * log_factor**4
            assert rep.ledger.as_dict() == ledger.as_dict()
            assert 1 <= rep.diagnostics["tables"] <= outer
        assert ks_2samp(batched, looped, method="asymp").pvalue > 0.01


class TestPhaseModelDispatch:
    def test_starved_phase_budget_is_trivial(self):
        rv = basis_rv(4, scale=0.25)
        rep = phase_model_dispatch(rv, 100.0, 3.0, 0.05, IDEAL, np.random.default_rng(0))
        assert rep.diagnostics["branch"] == "trivial"
        assert np.array_equal(rep.estimate, np.zeros(4))
        assert all(v == 0.0 for v in rep.ledger.as_dict().values())

    def test_starved_experiment_budget_is_trivial(self):
        rv = basis_rv(4, scale=0.25)
        rep = phase_model_dispatch(rv, 4.0, 100.0, 0.05, IDEAL, np.random.default_rng(0))
        assert rep.diagnostics["branch"] == "trivial"

    def test_boundary_n_equals_d_is_high_precision(self):
        rv = point_mass([0.1, -0.1])
        rep = phase_model_dispatch(rv, 2.0, 2.0, 0.8, IDEAL, np.random.default_rng(1))
        assert rep.diagnostics["branch"] == "high_precision"

    def test_mid_n_is_low_precision(self):
        rv = point_mass([0.1, -0.1])
        rep = phase_model_dispatch(rv, 1.5, 2.0, 0.8, IDEAL, np.random.default_rng(1))
        assert rep.diagnostics["branch"] == "low_precision"

    def test_range_check(self):
        with pytest.raises(ValueError, match="leaves"):
            phase_model_dispatch(
                point_mass([0.3, 0.0]), 10.0, 20.0, 0.05, IDEAL, np.random.default_rng(0)
            )


def _plan_or_refusal(estimator, d, n, nprime, delta, L2):
    try:
        return quantum.plan(estimator, d, n, nprime, delta, L2)
    except ValueError as exc:
        return str(exc)


def _report_or_refusal(estimator, rv, n, nprime, delta):
    """One seeded ideal run of ``estimator`` (bounded at L2 = 1), or its refusal message."""
    rng = np.random.default_rng(0)
    calls = {
        "bounded": lambda: bounded_estimator(rv, 1.0, n, delta, IDEAL, rng),
        "near_optimal": lambda: near_optimal_estimator(rv, n, delta, IDEAL, rng),
        "euclidean": lambda: euclidean_estimator(rv, n, delta, IDEAL, rng),
        "qphase": lambda: qphase_estimator(rv, n, nprime, delta, IDEAL, rng),
        "qlowprec": lambda: qlowprec_estimator(rv, n, nprime, delta, IDEAL, rng),
        "phase_model": lambda: phase_model_dispatch(rv, n, nprime, delta, IDEAL, rng),
    }
    try:
        return calls[estimator]()
    except ValueError as exc:
        return str(exc)


def assert_echoes_plan(diagnostics: dict, plan: quantum.Plan) -> None:
    """The report's diagnostics carry every number of its plan, and its inner plan's."""
    assert {key: diagnostics[key] for key in plan.diagnostics} == plan.diagnostics
    if plan.estimator in ("euclidean", "phase_model") and plan.parts:
        (inner,) = plan.parts
        assert_echoes_plan(diagnostics["inner"], inner)
    if plan.estimator == "near_optimal":
        assert len(diagnostics["shells"]) == len(plan.parts) == plan.diagnostics["k"] + 1
        for entry, shell in zip(diagnostics["shells"], plan.parts):
            if not entry["skipped"]:
                assert entry["early_exit"] == shell.diagnostics["early_exit"]
                assert entry["m"] == shell.diagnostics.get("m")


class TestPlan:
    @settings(deadline=None, max_examples=25)
    @given(
        d=st.integers(1, 4),
        n=st.floats(1.0, 128.0),
        nprime=st.floats(1.0, 128.0),
        delta=st.floats(0.01, 0.9, exclude_min=True, exclude_max=True),
    )
    def test_every_report_echoes_its_plan(self, d, n, nprime, delta):
        # two distributions of the same d get the one plan, which needs no data:
        # each report echoes it, and each refusal is the plan's own message.
        # near_optimal and euclidean run on point masses, whose shells all skip.
        scaled = standard_battery(d, scale=0.25)
        pairs = (scaled["ball"], scaled["basis"])
        points = (point_mass(np.full(d, 0.1)), point_mass(0.2 * np.eye(d)[0]))
        for estimator in ("bounded", "near_optimal", "euclidean", "qphase", "qlowprec", "phase_model"):
            L2 = 1.0 if estimator == "bounded" else None
            plan = _plan_or_refusal(estimator, d, n, nprime, delta, L2)
            for rv in points if estimator in ("near_optimal", "euclidean") else pairs:
                got = _report_or_refusal(estimator, rv, n, nprime, delta)
                if isinstance(plan, str):
                    assert got == plan, estimator
                else:
                    assert not isinstance(got, str), (estimator, got)
                    assert_echoes_plan(got.diagnostics, plan)
    def test_certain_rounds_and_draws(self):
        # qlowprec makes one block of `outer` rounds and one (outer, k') table;
        # the dispatcher carries its branch's; near_optimal's shells are not certain
        low = quantum.plan("qlowprec", 4, 100.0, 50.0, 0.05, None)
        assert low.rounds == ((low.diagnostics["m"], 203),) and low.draws == ((203, 31),)
        dispatch = quantum.plan("phase_model", 2, 2.0**53, 2.0**53, 0.05, None)
        assert dispatch.diagnostics == {"branch": "high_precision"}
        assert dispatch.rounds == dispatch.parts[0].rounds == ((2**55, 96),)
        shells = quantum.plan("near_optimal", 2, 64.0, None, 0.1, None)
        assert shells.rounds == () and shells.draws == ((320, 2),)
        assert [s.L2 for s in shells.parts[:3]] == [1.0, 1.0, 0.5]
        assert {s.delta for s in shells.parts} == {0.1 / (5.0 * shells.diagnostics["k"])}
