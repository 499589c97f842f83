"""Tests for the semantic oracle layer."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeanlab import gridqft
from qmeanlab.gridqft import GridSpec, PhaseFunction, grid_points
from qmeanlab.harness import battery_heavylight
from qmeanlab.oracles import (
    CostLedger,
    NoiseModel,
    _deviation_table,
    binary_phase_is_linear,
    check_binary_model,
    directional_phases_binary,
    directional_phases_phase_model,
    linear_phase_function,
    perturb,
    quantile_oracle,
)
from qmeanlab.probspace import RandomVariable, mean, moments


class RecordingPool:
    """Hands every part to ``pool`` and records it in ``parts``."""

    def __init__(self, pool, parts: list):
        self.pool, self.parts = pool, parts

    def submit(self, stage, part):
        self.parts.append(part)
        return self.pool.submit(stage, part)


def uniform_rv(values) -> RandomVariable:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    return RandomVariable(prob=np.full(values.shape[0], 1.0 / values.shape[0]), values=values)


def clamp_scalar(y: float, a: float, b: float) -> float:
    """y if a < |y| <= b else 0: the clamp of the binary-model phase, sign kept."""
    return float(y) if a < abs(y) <= b else 0.0


def brute_binary_phase(rv, m, alpha, pts):
    """Independent oracle: outcome-by-outcome clamped sum, scalar loop."""
    out = np.zeros(pts.shape[0])
    for i, u in enumerate(pts):
        acc = 0.0
        for k in range(rv.size):
            acc += rv.prob[k] * clamp_scalar(alpha * float(u @ rv.values[k]), 0.0, 1.0)
        out[i] = m * acc
    return out


class TestCostLedger:
    def test_charge_and_merge(self):
        a = CostLedger()
        a.charge(experiments=2.5, binary_queries=1.0)
        b = CostLedger()
        b.charge(experiments=0.5, quantile_calls=1.0)
        a.merge(b)
        assert a.as_dict() == {
            "experiments": 3.0,
            "binary_queries": 1.0,
            "phase_queries": 0.0,
            "classical_samples": 0.0,
            "quantile_calls": 1.0,
        }

    def test_rejects_negative_charge(self):
        with pytest.raises(ValueError, match="nonnegative"):
            CostLedger().charge(experiments=-1.0)

    def test_rejects_unknown_counter(self):
        with pytest.raises(ValueError, match="unknown"):
            CostLedger().charge(gates=1.0)


_COUNTERS = tuple(f.name for f in dataclasses.fields(CostLedger))
_AMOUNTS = st.floats(min_value=0.0, allow_nan=False)
_BAD_AMOUNTS = st.floats(max_value=-1e-300) | st.just(math.nan)
_CHARGES = st.dictionaries(st.sampled_from(_COUNTERS), _AMOUNTS, max_size=3)
# a merge carries a ledger built from its own list of charges, or one built
# directly through the constructor (a dict of starting counters)
_OPS = st.lists(
    st.one_of(_CHARGES, st.lists(_CHARGES, max_size=3), st.tuples(_CHARGES)), max_size=8
)


def _ledger(charges) -> CostLedger:
    if isinstance(charges, tuple):
        return CostLedger(**charges[0])
    ledger = CostLedger()
    for deltas in charges:
        ledger.charge(**deltas)
    return ledger


class TestCostLedgerProperties:
    @settings(deadline=None, max_examples=80)
    @given(ops=_OPS)
    def test_counters_never_decrease(self, ops):
        ledger = CostLedger()
        for op in ops:
            before = ledger.as_dict()
            if isinstance(op, dict):
                ledger.charge(**op)
            else:
                ledger.merge(_ledger(op))
            after = ledger.as_dict()
            assert all(after[name] >= before[name] for name in _COUNTERS)

    @settings(deadline=None, max_examples=80)
    @given(
        good=_CHARGES,
        bad=st.one_of(
            st.tuples(st.sampled_from(_COUNTERS), _BAD_AMOUNTS),
            st.tuples(
                st.sampled_from(["gates", "self", "charge", "merge", "as_dict"]) | st.text(),
                _AMOUNTS,
            ).filter(lambda kv: kv[0] not in _COUNTERS),
        ),
    )
    def test_bad_charges_raise_and_add_nothing(self, good, bad):
        ledger = _ledger([good])
        before = ledger.as_dict()
        name, amount = bad
        with pytest.raises(ValueError, match="nonnegative|unknown"):
            ledger.charge(**{**{k: 1.0 for k in _COUNTERS if k != name}, name: amount})
        assert ledger.as_dict() == before

    @settings(deadline=None, max_examples=80)
    @given(good=_CHARGES, name=st.sampled_from(_COUNTERS), amount=_BAD_AMOUNTS)
    def test_constructor_checks_counters_as_charge_does(self, good, name, amount):
        with pytest.raises(ValueError) as built:
            CostLedger(**{**good, name: amount})
        with pytest.raises(ValueError) as charged:
            CostLedger().charge(**{name: amount})
        assert str(built.value) == str(charged.value)
        assert "nonnegative" in str(built.value)


class TestBinaryPhases:
    def test_point_mass_gives_linear_phase(self):
        mu = np.array([0.3, -0.2])
        rv = uniform_rv([mu])
        spec = GridSpec(m=8, d=2)
        theta = directional_phases_binary(rv, L2=0.5, m=8, alpha=0.5, eps=0.04, ledger=CostLedger())
        pts = grid_points(spec)
        assert np.abs(theta.evaluate(pts) - 8 * 0.5 * (pts @ mu)).max() < 1e-12
        assert theta.separable  # the clamp never fires here, so the oracle returns it linear
        assert np.array_equal(theta.coeffs, 8 * 0.5 * mu)

    def test_refuses_a_phase_whose_clamp_fires(self):
        d = 9
        x = np.full(d, 1.0 / 3.0)  # unit norm, ||x||_1 = 3
        m, alpha = 16, 0.8
        corner = np.full(d, 0.5 - 0.5 / m)
        assert alpha * float(corner @ x) > 1.0  # the clamp fires here
        ledger = CostLedger()
        with pytest.raises(ValueError, match=r"clamp fires .* = 1\.125 > 1") as info:
            directional_phases_binary(
                uniform_rv([x]), L2=1.0, m=m, alpha=alpha, eps=0.04, ledger=ledger
            )
        assert len(str(info.value)) < 200 and "\n" not in str(info.value)
        assert ledger.as_dict() == CostLedger().as_dict()

    def test_two_outcome_matches_brute_sum(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            vals = rng.standard_normal((2, 3))
            vals /= np.maximum(np.linalg.norm(vals, axis=1, keepdims=True), 1.0)
            rv = RandomVariable(prob=[0.3, 0.7], values=vals)
            spec = GridSpec(m=4, d=3)
            theta = directional_phases_binary(
                rv, L2=1.0, m=4, alpha=0.9, eps=0.04, ledger=CostLedger()
            )
            pts = grid_points(spec)
            assert np.abs(theta.evaluate(pts) - brute_binary_phase(rv, 4, 0.9, pts)).max() < 1e-12

    def test_rejects_l2_below_true_expectation(self):
        rv = uniform_rv([[0.8, 0.0], [0.0, 0.6]])
        with pytest.raises(ValueError, match="0.7"):  # E||X|| = 0.7 reported
            directional_phases_binary(rv, L2=0.5, m=8, alpha=0.5, eps=0.04, ledger=CostLedger())

    def test_rejects_m_below_inverse_l2(self):
        rv = uniform_rv([[0.1, 0.0]])
        with pytest.raises(ValueError, match="1/L2"):
            directional_phases_binary(rv, L2=0.2, m=4, alpha=0.5, eps=0.04, ledger=CostLedger())

    def test_rejects_unbounded_outcome(self):
        rv = uniform_rv([[1.2, 0.0]])
        with pytest.raises(ValueError, match="norm"):
            directional_phases_binary(rv, L2=1.0, m=8, alpha=0.5, eps=0.04, ledger=CostLedger())

    def test_binary_model_check_builds_no_square_table(self):
        # the check reads E||X|| from the O(K·d) moments: a 4096 x 4096
        # covariance alone would be 128 MiB
        rv = battery_heavylight(4096)
        tracemalloc.start()
        try:
            check_binary_model(rv, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2**20

    def test_ledger_charge_formula(self):
        rv = uniform_rv([[0.25, 0.0], [0.0, -0.25]])
        ledger = CostLedger()
        directional_phases_binary(rv, L2=0.25, m=16, alpha=0.5, eps=1 / 25, ledger=ledger)
        expected = 16 * math.sqrt(0.25) * math.ceil(math.log2(25)) ** 2  # 16*0.5*25
        assert ledger.experiments == expected == 200.0
        assert ledger.binary_queries == expected

    def test_no_clamp_certificate_implies_linear(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            vals = rng.uniform(-0.4, 0.4, (4, 3))
            rv = uniform_rv(vals)
            m, alpha = 32, 0.6
            assert binary_phase_is_linear(rv, alpha, m)
            theta = directional_phases_binary(
                rv, L2=1.0, m=m, alpha=alpha, eps=0.04, ledger=CostLedger()
            )
            pts = rng.uniform(-0.49, 0.49, (64, 3))
            want = m * alpha * (pts @ mean(rv))
            assert np.abs(theta.evaluate(pts) - want).max() < 1e-12

    def test_certificate_is_exact_boundary(self):
        # one outcome with ||x||_1 exactly at the certificate threshold
        m, alpha = 8, 0.5
        budget = 1.0 / (alpha * (0.5 - 0.5 / m))
        x = np.array([budget / 2, budget / 2])  # ||x||_1 = budget
        assert binary_phase_is_linear(uniform_rv([x]), alpha, m)
        assert not binary_phase_is_linear(uniform_rv([x * 1.01]), alpha, m)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.sampled_from([2, 4, 8]),
        values=st.integers(1, 3).flatmap(
            lambda d: st.lists(
                st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d), min_size=1, max_size=4
            )
        ),
        alpha=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_linear_exactly_when_no_grid_point_clamps(self, m, values, alpha):
        # outcomes range over a box, not the unit ball: at d <= 3 a unit-ball
        # outcome has alpha*(1/2 - 1/(2m))*||x||_1 < 0.76, so the clamp could
        # never fire and only one side of the equivalence would be tested
        rv = uniform_rv(values)
        corner_bound = alpha * (0.5 - 0.5 / m) * float(np.abs(rv.values).sum(axis=1).max())
        assume(abs(corner_bound - 1.0) >= 1e-9)
        pts = grid_points(GridSpec(m=m, d=rv.d))
        clamps = bool((np.abs(alpha * (pts @ rv.values.T)) > 1.0).any())
        assert binary_phase_is_linear(rv, alpha, m) == (not clamps)


class TestPhaseModelPhases:
    def test_zero_mean_gives_zero_phase(self):
        rv = uniform_rv([[0.2, 0.0], [-0.2, 0.0]])
        theta = directional_phases_phase_model(rv, m=16, eps=0.1, eta=0.1, ledger=CostLedger())
        pts = grid_points(GridSpec(m=4, d=2))
        assert np.abs(theta.evaluate(pts)).max() == 0.0

    def test_univariate_linear(self):
        rv = uniform_rv([[0.25], [0.15]])
        theta = directional_phases_phase_model(rv, m=8, eps=0.1, eta=0.1, ledger=CostLedger())
        pts = grid_points(GridSpec(m=8, d=1))
        assert np.abs(theta.evaluate(pts) - 8 * 0.2 * pts[:, 0]).max() < 1e-14
        assert theta.coeffs.tolist() == [8 * 0.2] and not theta.coeffs.flags.writeable
        # a tracer swapping in its own evaluate keeps the coefficients
        assert dataclasses.replace(theta, evaluate=theta.evaluate).coeffs is theta.coeffs

    def test_separability_on_random_points(self):
        rng = np.random.default_rng(19)
        rv = uniform_rv(rng.uniform(-0.25, 0.25, (5, 3)))
        theta = directional_phases_phase_model(rv, m=16, eps=0.05, eta=0.05, ledger=CostLedger())
        assert theta.separable and theta.axis_components is not None
        pts = rng.uniform(-0.49, 0.49, (100, 3))
        per_axis = sum(
            np.asarray(f(pts[:, j])) for j, f in enumerate(theta.axis_components)
        )
        assert np.abs(theta.evaluate(pts) - per_axis).max() < 1e-12

    def test_rejects_out_of_range_value(self):
        rv = uniform_rv([[0.1, 0.1], [0.3, 0.0]])
        with pytest.raises(ValueError, match="outcome 1"):
            directional_phases_phase_model(rv, m=8, eps=0.1, eta=0.1, ledger=CostLedger())

    def test_ledger_charges(self):
        rv = uniform_rv([[0.25, -0.25]])
        ledger = CostLedger()
        directional_phases_phase_model(rv, m=8, eps=0.25, eta=0.5, ledger=ledger)
        log_factor = math.ceil(math.log2(1 / (0.25 * 0.5)))  # 3
        assert ledger.experiments == math.sqrt(2) * 8 * log_factor**2
        assert ledger.phase_queries == 2 * 8 * log_factor**4
        assert ledger.binary_queries == 0.0


class TestPerturb:
    def test_ideal_is_identity(self):
        theta = linear_phase_function(np.array([3.0, 1.0]))
        assert perturb(theta, NoiseModel.ideal(), GridSpec(m=4, d=2)) is theta

    def test_same_seed_same_deviations(self):
        # the deviations live only in the overlay; a redrawn table (cache
        # cleared) has the same bits, and another seed gives other deviations
        spec = GridSpec(m=16, d=2)
        theta = linear_phase_function(np.array([2.0, -1.0]))
        noise = NoiseModel.perturbed(eps=0.1, eta=0.05, seed=99)
        a = np.angle(perturb(theta, noise, spec).overlay)
        _deviation_table.cache_clear()
        b = np.angle(perturb(theta, noise, spec).overlay)
        other = np.angle(perturb(theta, dataclasses.replace(noise, seed=100), spec).overlay)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, other)

    def test_bad_fraction_and_good_band(self):
        for m, d, eps, eta in ((16, 2, 0.1, 0.125), (8, 3, 0.04, 0.02), (64, 1, 0.2, 0.5)):
            spec = GridSpec(m=m, d=d)
            base = linear_phase_function(np.arange(1.0, d + 1.0))
            noise = NoiseModel.perturbed(eps=eps, eta=eta, seed=7)
            dev = np.angle(perturb(base, noise, spec).overlay)
            n = spec.points
            size = np.abs(2 * np.sin(dev / 2))
            n_bad = int((size > eps + 1e-12).sum())
            assert n_bad <= math.ceil(eta / 2 * n)
            assert n_bad / n <= eta / 2 + 1 / n
            assert np.abs(dev).max() <= np.pi + 1e-12

    def test_state_distance_budget(self):
        # uniform-amplitude phase states: ||psi' - psi||^2 = mean |e^{i dev}-1|^2.
        # For eps^2 + 2*eta well under (1/12)^2 the distance stays below 1/12.
        spec = GridSpec(m=64, d=2)
        base = linear_phase_function(np.array([5.0, 2.0]))
        noise = NoiseModel.perturbed(eps=1 / 25, eta=1 / 512, seed=3)
        dev = np.angle(perturb(base, noise, spec).overlay)
        dist = math.sqrt(float(np.mean(np.abs(np.exp(1j * dev) - 1.0) ** 2)))
        assert dist <= 1 / 12, f"perturbed-state distance {dist}"

    def test_deviation_table_is_read_only(self):
        spec = GridSpec(m=8, d=2)
        noise = NoiseModel.perturbed(eps=0.1, eta=0.1, seed=4)
        perturb(linear_phase_function(np.array([1.0, 1.0])), noise, spec)
        table = _deviation_table(noise, spec)
        assert table.shape == (spec.points,) and not table.flags.writeable

    @pytest.mark.parametrize("m, d, eta", [(64, 2, 0.1), (8, 3, 0.02), (512, 1, 0.5)])
    def test_table_is_the_unit_factors_of_the_seeded_half_angles(self, m, d, eta):
        # the seeded stream draws the deviations' half-angles: doubled, they
        # are bit for bit the draws over the full band and (-pi, pi); the
        # table is their unit factors, within 1e-15 of np.exp(1j*delta)
        spec = GridSpec(m=m, d=d)
        noise = NoiseModel.perturbed(eps=0.1, eta=eta, seed=m + d)
        n_bad = math.ceil(eta / 2 * spec.points)
        band = 2 * math.asin(0.1 / 2)
        rng = np.random.default_rng(noise.seed)
        delta = rng.uniform(-band, band, spec.points)
        bad = rng.choice(spec.points, n_bad, replace=False)
        delta[bad] = rng.uniform(-np.pi, np.pi, n_bad)
        rng = np.random.default_rng(noise.seed)
        halves = rng.uniform(-band / 2, band / 2, spec.points)
        assert np.array_equal(rng.choice(spec.points, n_bad, replace=False), bad)
        halves[bad] = rng.uniform(-np.pi / 2, np.pi / 2, n_bad)
        assert (2 * halves).tobytes() == delta.tobytes()
        table = _deviation_table(noise, spec)
        assert table.tobytes() == gridqft._unit_factors(halves).tobytes()
        assert np.abs(table - np.exp(1j * delta)).max() <= 1e-15

    @pytest.mark.parametrize("m, d, eta", [(64, 2, 0.1), (8, 3, 0.02), (512, 1, 0.5)])
    def test_table_has_exactly_the_bad_points(self, m, d, eta):
        # |e^{i delta} - 1| = |2 sin(delta/2)|: with a band of 1e-6 a bad point
        # lands inside it with probability ~3e-7, so exactly ceil(eta/2 * m^d)
        # points leave the band and every other one stays inside it
        spec = GridSpec(m=m, d=d)
        eps = 1e-6
        for seed in range(3):
            table = _deviation_table(NoiseModel.perturbed(eps=eps, eta=eta, seed=seed), spec)
            size = np.abs(table - 1.0)
            outside = size > eps * (1 + 1e-9)
            assert int(outside.sum()) == math.ceil(eta / 2 * spec.points)
            assert size[~outside].max() <= eps * (1 + 1e-9)

    @pytest.mark.parametrize(
        "m, d",
        # both sides of the cutoff at each d
        [(2**16, 1), (2**17, 1), (256, 2), (512, 2), (32, 3), (64, 3)],
        ids=lambda v: str(v),
    )
    def test_table_is_byte_identical_on_two_threads(self, monkeypatch, m, d):
        # the draws stay on the calling thread; the tangent fill of a table
        # above the cutoff runs half its points on the pool thread
        spec = GridSpec(m=m, d=d)
        noise = NoiseModel.perturbed(eps=0.1, eta=0.2, seed=m + d)
        pool = gridqft._split_pool()
        tables, taken = [], []
        for workers in (1, 2):
            parts = []
            monkeypatch.setattr(gridqft, "_WORKERS", workers)
            recording = RecordingPool(pool, parts)
            monkeypatch.setattr(gridqft, "_split_pool", lambda recording=recording: recording)
            tables.append(_deviation_table.__wrapped__(noise, spec))
            taken.append(parts)
        half = slice(spec.points // 2, spec.points)
        assert taken == [[], [half] if spec.points > gridqft._SPLIT_MIN else []]
        assert tables[0].tobytes() == tables[1].tobytes()

    def test_lattice_cap_checked_before_the_table_is_drawn(self):
        _deviation_table.cache_clear()
        cap_line = r"lattice cap exceeded: m\^d = 4096\^2 = 2\^24 > 4194304 amplitudes$"
        with pytest.raises(ValueError, match=cap_line):
            perturb(
                linear_phase_function(np.array([1.0, 1.0])),
                NoiseModel.perturbed(eps=0.1, eta=0.1, seed=0),
                GridSpec(m=4096, d=2),
            )
        assert _deviation_table.cache_info().misses == 0

    def test_perturbed_phase_not_separable(self):
        # a perturbed linear phase is not separable, but keeps its base coeffs
        # and linear evaluate and carries the one cached table as its overlay;
        # a phase without coeffs cannot carry one, so it is refused
        spec = GridSpec(m=8, d=2)
        noise = NoiseModel.perturbed(eps=0.1, eta=0.1, seed=0)
        base = linear_phase_function(np.array([1.0, -2.0]))
        out = perturb(base, noise, spec)
        assert not out.separable and out.axis_components is None
        assert out.coeffs is base.coeffs
        assert out.overlay is _deviation_table(noise, spec)
        assert np.allclose(np.abs(out.overlay), 1.0, rtol=0, atol=1e-15)
        pts = grid_points(spec)
        assert np.array_equal(out.evaluate(pts), pts @ base.coeffs)
        with pytest.raises(ValueError, match="overlay needs linear coeffs"):
            perturb(PhaseFunction(evaluate=base.evaluate, separable=False), noise, spec)


class TestQuantileOracle:
    def test_point_mass(self):
        rv = uniform_rv([[7.0]])
        rng = np.random.default_rng(0)
        for p in (0.1, 0.5, 0.9):
            assert quantile_oracle(rv, p, 0.5, 0.25, rng, CostLedger()) == 7.0

    def test_uniform_three_point_window(self):
        rv = uniform_rv([[1.0], [2.0], [3.0]])
        rng = np.random.default_rng(1)
        seen = {
            quantile_oracle(rv, 0.5, 1e-9, 0.25, rng, CostLedger()) for _ in range(200)
        }
        assert seen == {2.0, 3.0}  # [Q(0.5), Q(0.125)] = [2, 3]

    def test_success_guarantee_many_seeds(self):
        rng_master = np.random.default_rng(2)
        rv = uniform_rv([[float(v)] for v in (-3, -1, 0, 2, 5, 9)])
        from qmeanlab.probspace import exact_quantile

        for _ in range(10_000):
            p = float(rng_master.uniform(0.05, 0.95))
            out = quantile_oracle(
                rv, p, 1e-9, 0.25, np.random.default_rng(int(rng_master.integers(1 << 32))),
                CostLedger(),
            )
            assert exact_quantile(rv, p) <= out <= exact_quantile(rv, 0.25 * p)

    def test_failure_path_stays_in_support(self):
        rv = uniform_rv([[1.0], [2.0]])
        rng = np.random.default_rng(3)
        outs = {quantile_oracle(rv, 0.9, 0.999, 0.5, rng, CostLedger()) for _ in range(100)}
        assert outs <= {1.0, 2.0}
        # delta ~ 1 makes the low-quantile value appear despite Q(0.9) = 2
        assert 1.0 in outs

    def test_ledger_charge(self):
        rv = uniform_rv([[1.0], [2.0]])
        ledger = CostLedger()
        quantile_oracle(rv, 0.25, 0.05, 0.25, np.random.default_rng(0), ledger)
        assert ledger.experiments == math.ceil(math.log2(20)) / 0.5 == 10.0
        assert ledger.binary_queries == 10.0
        assert ledger.quantile_calls == 1.0

    def test_p_equal_one_allowed(self):
        # p = 1 targets the whole distribution: window is [min support, Q(c)].
        rv = uniform_rv([[1.0], [2.0], [3.0], [4.0]])
        from qmeanlab.probspace import exact_quantile

        assert exact_quantile(rv, 1.0) == 1.0
        seen = {
            quantile_oracle(rv, 1.0, 1e-9, 0.5, np.random.default_rng(k), CostLedger())
            for k in range(64)
        }
        assert seen == {1.0, 2.0, 3.0}  # [Q(1), Q(0.5)] = [1, 3]

    def test_rejects_out_of_range_p(self):
        rv = uniform_rv([[1.0], [2.0]])
        for bad in (0.0, 1.0001, -0.5):
            with pytest.raises(ValueError, match="p in"):
                quantile_oracle(rv, bad, 0.5, 0.25, np.random.default_rng(0), CostLedger())


class TestTailInequalities:
    def test_fixed_vector_tail(self):
        # Pr_u[alpha*|<u,x>| >= ||x||] <= 2*exp(-2/alpha^2), u uniform on the grid
        rng = np.random.default_rng(44)
        for m, d in ((16, 4), (256, 2), (4, 8)):
            pts = grid_points(GridSpec(m=m, d=d))
            for _ in range(10):
                x = rng.standard_normal(d)
                nx = np.linalg.norm(x)
                proj = np.abs(pts @ x)
                for alpha in (0.25, 0.5, 1.0, 1.5):
                    frac = float((alpha * proj >= nx).mean())
                    assert frac <= 2 * math.exp(-2 / alpha**2) + 1e-15

    def test_random_variable_tail(self):
        # Pr_u[alpha*E|<u,X>| >= E||X||] <= alpha/2
        rng = np.random.default_rng(45)
        for m, d in ((16, 4), (64, 2)):
            pts = grid_points(GridSpec(m=m, d=d))
            for _ in range(10):
                k = int(rng.integers(2, 6))
                vals = rng.standard_normal((k, d))
                p = rng.random(k) + 0.1
                p /= p.sum()
                exp_abs = np.abs(pts @ vals.T) @ p
                exp_norm = float(p @ np.linalg.norm(vals, axis=1))
                for alpha in (0.25, 0.5, 1.0):
                    frac = float((alpha * exp_abs >= exp_norm).mean())
                    assert frac <= alpha / 2 + 1e-15


def test_ledger_determinism():
    def run() -> CostLedger:
        ledger = CostLedger()
        rv = uniform_rv([[0.2, 0.1], [-0.1, 0.05]])
        directional_phases_binary(rv, L2=0.5, m=8, alpha=0.5, eps=0.04, ledger=ledger)
        directional_phases_phase_model(rv, m=8, eps=0.1, eta=0.1, ledger=ledger)
        quantile_oracle(
            uniform_rv([[1.0], [2.0]]), 0.5, 0.1, 0.25, np.random.default_rng(5), ledger
        )
        return ledger

    assert run().as_dict() == run().as_dict()


def test_noise_model_validation():
    with pytest.raises(ValueError, match="mode"):
        NoiseModel(mode="loud")
    with pytest.raises(ValueError, match="eps"):
        NoiseModel.perturbed(eps=1.5, eta=0.1, seed=0)
    # a negative seed used to pass here and fail each trial inside numpy
    for seed in (-2, -1, 1.5, 2.0, True, "3", None):
        with pytest.raises(ValueError, match="^noise seed must be an integer at least 0"):
            NoiseModel.perturbed(0.05, 0.01, seed)
        with pytest.raises(ValueError, match="^noise seed"):
            NoiseModel(seed=seed)
    noise = NoiseModel.perturbed(0.05, 0.01, np.uint16(7))
    assert noise.seed == 7 and type(noise.seed) is int
