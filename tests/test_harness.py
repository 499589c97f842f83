"""Tests for the experiment harness: batteries, sweeps, slopes, files."""

from __future__ import annotations

import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qmeanlab.harness import (
    COST_ENVELOPE_CPRIME,
    ESTIMATOR_IDS,
    SWEEP_COLUMNS,
    BatteryResult,
    ExperimentConfig,
    SweepRow,
    battery_ball,
    battery_basis,
    battery_heavylight,
    cost_envelope,
    error_bound,
    expected_branch,
    export,
    fit_slope,
    load_rows,
    regime_classify,
    report_to_dict,
    run_sweep,
    run_trials,
    standard_battery,
)
from qmeanlab.oracles import NoiseModel
from qmeanlab.probspace import RandomVariable, mean, moments
from qmeanlab.quantum import bounded_estimator, phase_model_dispatch

IDEAL = NoiseModel.ideal()


def point_mass(mu) -> RandomVariable:
    return RandomVariable(prob=np.array([1.0]), values=np.array([mu], dtype=float))


def make_row(**kw) -> SweepRow:
    base = dict(
        estimator="bounded",
        n=64.0,
        nprime=None,
        d=2,
        delta=0.1,
        median_err_inf=0.01,
        median_err_l2=0.02,
        fail_rate=0.0,
        experiments=1.0,
        binary_queries=2.0,
        phase_queries=0.0,
        classical_samples=0.0,
        seed_base=7,
    )
    base.update(kw)
    return SweepRow(**base)


class TestSweepRow:
    def test_validation(self):
        with pytest.raises(ValueError, match="fail_rate"):
            make_row(fail_rate=1.5)
        with pytest.raises(ValueError, match="nonnegative"):
            make_row(median_err_inf=-0.1)


class TestExperimentConfig:
    def test_rejections(self):
        rv = battery_ball(2)
        with pytest.raises(ValueError, match="unknown estimator"):
            ExperimentConfig(rv=rv, estimator="magic", trials=1, seed=0, n=8)
        with pytest.raises(ValueError, match="trials"):
            ExperimentConfig(rv=rv, estimator="bounded", trials=0, seed=0, n=8)
        with pytest.raises(ValueError, match="either n or n_grid"):
            ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=0)
        with pytest.raises(ValueError, match="mutually exclusive"):
            ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=0, n=8, n_grid=(4, 8))
        with pytest.raises(ValueError, match="strictly increasing"):
            ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=0, n_grid=(8, 8))
        with pytest.raises(ValueError, match="needs nprime"):
            ExperimentConfig(rv=rv, estimator="qphase", trials=1, seed=0, n=8)
        with pytest.raises(ValueError, match="l2"):
            ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=0, n=8, l2=1.5)
        with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
            ExperimentConfig(rv=rv, estimator="classical", trials=1, seed=-1, n=8)

    def test_budgets_are_checked_once_at_construction(self):
        rv = battery_ball(2)
        for bad in (float("nan"), float("inf"), 0.0, -4.0, "many", [8], 2**53 + 1, 1e308,
                    True, "64", np.int64(2**53 + 1), 10**400):
            with pytest.raises(ValueError, match="nprime"):
                ExperimentConfig(rv=rv, estimator="qphase", trials=1, seed=0, n=8, nprime=bad)
        with pytest.raises(ValueError, match="finite and positive"):
            ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=0, n=float("nan"))
        with pytest.raises(ValueError, match="n_grid"):
            ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=0, n_grid=(4, math.inf))
        # a bool or a numeric string is not a budget, alone or in a grid
        for bad in (True, "64", "1e3"):
            with pytest.raises(ValueError, match=f"n must be a number, got {bad!r}"):
                ExperimentConfig(rv=rv, estimator="qphase", trials=1, seed=0, n=bad, nprime=32)
            with pytest.raises(ValueError, match="n_grid must be a number"):
                ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=0, n_grid=(4, bad))
        cfg = ExperimentConfig(
            rv=rv, estimator="qphase", trials=1, seed=0, n=np.int64(64), nprime=np.float32(32)
        )
        assert (cfg.n, cfg.nprime) == (64.0, 32.0)
        cfg = ExperimentConfig(rv=rv, estimator="classical", trials=1, seed=0, n=2**53)
        assert cfg.n == 2.0**53  # the largest budget

    def test_trials_and_seed_must_be_integers(self):
        rv = battery_ball(2)
        for name in ("trials", "seed"):
            for bad in (True, 2.5, 2.0, "2", [2]):
                kwargs = {"trials": 1, "seed": 0, name: bad}
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    ExperimentConfig(rv=rv, estimator="classical", n=8, **kwargs)
        cfg = ExperimentConfig(
            rv=rv, estimator="classical", trials=np.int64(3), seed=np.uint8(7), n=8
        )
        assert (cfg.trials, cfg.seed) == (3, 7)
        assert type(cfg.trials) is int and type(cfg.seed) is int

    def test_delta_and_l2_must_be_real_numbers(self):
        rv = battery_ball(2)
        for name in ("delta", "l2"):
            for bad in (True, "0.5", [0.5], None):
                if name == "l2" and bad is None:
                    continue  # l2=None means "use E||X||_2"
                with pytest.raises(ValueError, match=f"{name} must be a number"):
                    ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=0, n=8, **{name: bad})
        cfg = ExperimentConfig(
            rv=rv, estimator="bounded", trials=1, seed=0, n=8, delta=np.float32(0.25), l2=np.int64(1)
        )
        assert (cfg.delta, cfg.l2) == (0.25, 1.0)
        assert type(cfg.delta) is float and type(cfg.l2) is float

    def test_grids_are_normalized_to_floats(self):
        cfg = ExperimentConfig(
            rv=battery_ball(2), estimator="bounded", trials=1, seed=0, n_grid=(4, 8)
        )
        assert cfg.n_grid == (4.0, 8.0)


class TestRunTrials:
    def test_single_trial_reproduces_direct_call(self):
        rv = battery_ball(2)
        cfg = ExperimentConfig(rv=rv, estimator="bounded", trials=1, seed=11, delta=0.1, n=16)
        got = run_trials(cfg).reports[0]
        direct = bounded_estimator(
            rv, moments(rv).exp_norm2, 16, 0.1, IDEAL, np.random.default_rng(11)
        )
        assert np.array_equal(got.estimate, direct.estimate)
        assert got.ledger == direct.ledger

    def test_same_config_twice_identical_aggregate(self):
        cfg = ExperimentConfig(
            rv=battery_basis(2), estimator="bounded", trials=5, seed=3, delta=0.1, n=16
        )
        assert run_trials(cfg).row == run_trials(cfg).row

    def test_ledger_totals_are_exact_sums(self):
        cfg = ExperimentConfig(
            rv=battery_ball(2), estimator="classical", trials=7, seed=5, delta=0.5, n=40
        )
        res = run_trials(cfg)
        assert res.row.classical_samples == sum(r.ledger.classical_samples for r in res.reports)
        assert res.row.classical_samples == 7 * 40
        assert res.row.experiments == 0.0

    def test_failure_rate_on_battery(self):
        # criterion-3 style: failures of the stated bound stay near delta
        cfg = ExperimentConfig(
            rv=battery_ball(2), estimator="bounded", trials=50, seed=101, delta=0.1, n=16
        )
        res = run_trials(cfg)
        assert res.row.fail_rate <= 0.1 + 3.0 * math.sqrt(0.1 / 50)
        assert res.row.median_err_inf > 0.0

    def test_trial_errors_are_collected_not_raised(self, monkeypatch):
        import qmeanlab.harness as harness

        calls = {"count": 0}
        real = bounded_estimator

        def flaky(*args, **kwargs):
            calls["count"] += 1
            if calls["count"] % 2 == 0:
                raise ValueError("synthetic failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(harness, "bounded_estimator", flaky)
        cfg = ExperimentConfig(
            rv=battery_ball(2), estimator="bounded", trials=4, seed=1, delta=0.1, n=16
        )
        res = run_trials(cfg)
        assert res.reports[1] is None and res.reports[3] is None
        assert res.errors[1] == "ValueError: synthetic failure"
        assert res.row.fail_rate >= 0.5

    def test_program_faults_propagate(self, monkeypatch):
        import qmeanlab.harness as harness

        def broken(*args, **kwargs):
            raise TypeError("synthetic program fault")

        monkeypatch.setattr(harness, "bounded_estimator", broken)
        cfg = ExperimentConfig(
            rv=battery_ball(2), estimator="bounded", trials=3, seed=1, delta=0.1, n=16
        )
        with pytest.raises(TypeError, match="synthetic program fault"):
            run_trials(cfg)

    @pytest.mark.parametrize(
        "estimator, entry_point",
        [
            ("classical", "subgaussian_estimate"),
            ("bounded", "bounded_estimator"),
            ("near_optimal", "near_optimal_estimator"),
            ("euclidean", "euclidean_estimator"),
        ],
    )
    def test_non_finite_bound_fails_before_any_trial(self, monkeypatch, estimator, entry_point):
        import qmeanlab.harness as harness

        def never(*args, **kwargs):
            raise AssertionError(f"{entry_point} ran")

        monkeypatch.setattr(harness, entry_point, never)
        # finite values whose second moments overflow float64
        cfg = ExperimentConfig(
            rv=battery_ball(2, scale=1e308), estimator=estimator, trials=3, seed=0, n=16
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"the {estimator} error bound is not finite"):
                run_trials(cfg)

    def test_all_trials_failing_raises(self):
        # an l2 below E||X||_2 depends on the data, so only a trial refuses it
        cfg = ExperimentConfig(
            rv=battery_ball(2), estimator="bounded", trials=3, seed=0, n=8, l2=0.01
        )
        with pytest.raises(RuntimeError, match="all 3 trials failed"):
            run_trials(cfg)

    def test_perturbed_noise_reseeds_per_trial(self):
        rv = RandomVariable(prob=np.array([0.5, 0.5]), values=np.array([[0.5], [-0.4]]))
        cfg = ExperimentConfig(
            rv=rv,
            estimator="bounded",
            trials=2,
            seed=9,
            delta=0.1,
            n=8,
            noise=NoiseModel.perturbed(0.2, 0.1, seed=3),
        )
        res = run_trials(cfg)
        assert res.reports[0].params["noise"]["seed"] == 3
        assert res.reports[1].params["noise"]["seed"] == 4
        again = run_trials(cfg)
        assert np.array_equal(res.reports[0].estimate, again.reports[0].estimate)
        assert res.row == again.row

    def test_grid_config_is_rejected(self):
        cfg = ExperimentConfig(
            rv=battery_ball(2), estimator="bounded", trials=1, seed=0, n_grid=(8, 16)
        )
        with pytest.raises(ValueError, match="fixed n"):
            run_trials(cfg)


class TestRunSweep:
    def test_n_grid_rows_and_seed_bases(self):
        cfg = ExperimentConfig(
            rv=battery_ball(2),
            estimator="classical",
            trials=2,
            seed=100,
            delta=0.5,
            n_grid=(8, 16, 32),
        )
        results = run_sweep(cfg)
        assert [r.row.n for r in results] == [8.0, 16.0, 32.0]
        assert [r.row.seed_base for r in results] == [100, 102, 104]

    def test_cartesian_grid_order_and_branches(self):
        rv = battery_ball(2, scale=0.25)
        cfg = ExperimentConfig(
            rv=rv,
            estimator="phase_model",
            trials=1,
            seed=0,
            delta=0.5,
            n_grid=(1, 4),
            nprime_grid=(1, 8),
        )
        results = run_sweep(cfg)
        assert [(r.row.n, r.row.nprime) for r in results] == [
            (1.0, 1.0),
            (1.0, 8.0),
            (4.0, 1.0),
            (4.0, 8.0),
        ]
        branches = [r.reports[0].diagnostics["branch"] for r in results]
        assert branches == ["trivial", "trivial", "trivial", "high_precision"]

    @pytest.mark.parametrize(
        "estimator, noise, wall",
        [
            # 2^27 draws of a 2-d outcome: 2^31 bytes, in the first cell's draw table
            ("classical", NoiseModel.ideal(), "draw-table memory wall: (134217728, 2) 8-byte draws"),
            # bounded at n = 128, d = 2 takes m = 4096: 2^24 > 2^22 perturbed amplitudes
            ("bounded", NoiseModel.perturbed(0.1, 0.1, seed=0), "lattice cap exceeded: m^d = 4096^2"),
        ],
    )
    def test_a_cell_past_a_wall_stops_the_sweep_before_any_trial(
        self, monkeypatch, estimator, noise, wall
    ):
        import qmeanlab.harness as harness

        def never(*args, **kwargs):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(harness, "_single_run", never)
        first = 2**27 if estimator == "classical" else 128
        cfg = ExperimentConfig(
            rv=battery_ball(2), estimator=estimator, trials=2, seed=0, delta=0.1,
            n_grid=(first, 2.0**30), noise=noise,
        )
        with pytest.raises(ValueError) as info:
            run_sweep(cfg)
        assert str(info.value).startswith(f"{estimator} cell n={float(first)!r} nprime=None: {wall}")

    def test_single_point_sweep_equals_run_trials(self):
        cfg = ExperimentConfig(
            rv=battery_basis(2), estimator="classical", trials=3, seed=4, delta=0.5, n=12
        )
        assert run_sweep(cfg)[0].row == run_trials(cfg).row


class TestErrorBound:
    def test_bounded_formula(self):
        rv = battery_ball(2)
        name, bound = error_bound("bounded", rv, 16, None, 0.1, l2=0.25)
        assert name == "err_inf"
        assert bound == pytest.approx(0.5 * math.log2(20) / 16, rel=1e-12)

    def test_qphase_and_qlowprec(self):
        rv = battery_ball(4, scale=0.25)
        _, hi = error_bound("qphase", rv, 8, 16, 0.05, None)
        assert hi == pytest.approx(max(2 / 8, 4 / 16) * math.log2(80), rel=1e-12)
        _, lo = error_bound("qlowprec", rv, 9, 160, 0.05, None)
        assert lo == pytest.approx(max(1 / 3, 4 / 160) * math.log2(80), rel=1e-12)

    def test_phase_model_trivial_is_one(self):
        rv = battery_ball(4, scale=0.25)
        assert error_bound("phase_model", rv, 100, 2, 0.05, None) == ("err_inf", 1.0)

    def test_classical_uses_l2_field(self):
        rv = battery_ball(2)
        name, bound = error_bound("classical", rv, 25, None, 0.5, None)
        m = moments(rv)
        assert name == "err_l2"
        assert bound == pytest.approx(
            math.sqrt(m.cov_trace / 25) + math.sqrt(m.spectral_norm * 2 / 25), rel=1e-12
        )


class TestFitSlope:
    @staticmethod
    def rows(ys, xs=(8, 16, 32, 64, 128)):
        return [SimpleNamespace(n=x, median_err_inf=y) for x, y in zip(xs, ys)]

    def test_inverse_law(self):
        slope, _, r2 = fit_slope(self.rows([1 / x for x in (8, 16, 32, 64, 128)]), "n", "median_err_inf")
        assert abs(slope + 1.0) <= 1e-9 and r2 >= 1.0 - 1e-12

    def test_inverse_sqrt_law(self):
        xs = (8, 16, 32, 64, 128)
        slope, _, r2 = fit_slope(self.rows([x ** -0.5 for x in xs], xs), "n", "median_err_inf")
        assert abs(slope + 0.5) <= 1e-9 and r2 >= 1.0 - 1e-12

    def test_constant_y(self):
        slope, _, r2 = fit_slope(self.rows([5.0] * 5), "n", "median_err_inf")
        assert abs(slope) <= 1e-9 and r2 == 1.0

    def test_intercept_recovered(self):
        xs = (8, 16, 32, 64)
        _, intercept, _ = fit_slope(self.rows([32.0 / x for x in xs], xs), "n", "median_err_inf")
        assert intercept == pytest.approx(5.0, abs=1e-9)

    def test_preconditions(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit_slope(self.rows([1, 2, 3], (8, 16, 32)), "n", "median_err_inf")
        with pytest.raises(ValueError, match="positive"):
            fit_slope(self.rows([1, 1, 0.0, 1, 1]), "n", "median_err_inf")


class TestRegimeClassify:
    def test_trivial_cells(self):
        assert regime_classify(100, 3, 4, 0.05) == "TRIVIAL"  # nprime < d
        assert regime_classify(3, 100, 4, 0.05) == "TRIVIAL"  # n < log2(d/delta)

    def test_three_limited_regimes(self):
        assert regime_classify(32, 16, 4, 0.05) == "PHASE_LIMITED"
        assert regime_classify(8, 1024, 4, 0.05) == "EXPERIMENT_LIMITED"
        assert regime_classify(12, 256, 16, 0.05) == "SAMPLE_LIMITED"
        assert regime_classify(12, 40, 16, 0.05) == "PHASE_LIMITED"

    def test_tie_goes_to_phase_limited(self):
        # d/n' = 4/16 = 0.25 exactly equals sqrt(d)/n = 2/8
        assert regime_classify(8, 16, 4, 0.05) == "PHASE_LIMITED"

    def test_n_equals_d_boundary_uses_high_branch(self):
        assert regime_classify(4, 1000, 4, 0.5) == "EXPERIMENT_LIMITED"

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            regime_classify(0, 8, 2, 0.1)
        with pytest.raises(ValueError, match="delta"):
            regime_classify(8, 8, 2, 1.0)

    def test_expected_branch_matches_dispatch(self):
        rv = battery_ball(2, scale=0.25)
        rng = np.random.default_rng(0)
        for n, nprime in [(1.0, 8.0), (4.0, 1.0), (1.5, 8.0), (4.0, 8.0)]:
            want = expected_branch(n, nprime, 2, 0.8)
            got = phase_model_dispatch(rv, n, nprime, 0.8, IDEAL, rng).diagnostics["branch"]
            assert got == want, (n, nprime, got, want)


_REALS = st.floats(allow_nan=False)  # +-inf included
_NONNEG = st.floats(min_value=0.0, allow_nan=False)
_ROWS = st.builds(
    SweepRow,
    estimator=st.sampled_from(ESTIMATOR_IDS),
    n=_REALS,
    nprime=st.none() | _REALS,
    d=st.integers(1, 64),
    delta=_REALS,
    median_err_inf=_NONNEG,
    median_err_l2=_NONNEG,
    fail_rate=st.floats(0.0, 1.0),
    experiments=_REALS,
    binary_queries=_REALS,
    phase_queries=_REALS,
    classical_samples=_REALS,
    seed_base=st.integers(0, 2**31),
)


class TestExport:
    @settings(deadline=None, max_examples=60)
    @given(rows=st.lists(_ROWS, max_size=4))
    @example(rows=[make_row(median_err_l2=math.inf, experiments=-math.inf)])
    def test_every_float_round_trips(self, rows, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rows")
        json_path, csv_path = str(tmp / "rows.json"), str(tmp / "rows.csv")
        export(rows, "json", json_path)
        assert load_rows(json_path) == rows
        export(rows, "csv", csv_path)
        lines = Path(csv_path).read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS) and len(lines) == len(rows) + 1
        for row, line in zip(rows, lines[1:]):
            for column, cell in zip(SWEEP_COLUMNS, line.split(",")):
                value = getattr(row, column)
                if value is None or isinstance(value, str):
                    assert cell == ("" if value is None else value)
                else:
                    assert float(cell) == value

    def test_csv_header_and_trailing_newline(self, tmp_path):
        path = str(tmp_path / "rows.csv")
        export([], "csv", path)
        text = Path(path).read_text(encoding="utf-8")
        assert text == ",".join(SWEEP_COLUMNS) + "\n"

    def test_empty_json(self, tmp_path):
        path = str(tmp_path / "rows.json")
        export([], "json", path)
        assert Path(path).read_text(encoding="utf-8") == "[]\n"
        assert load_rows(path) == []

    def test_json_round_trip_preserves_numeric_fields(self, tmp_path):
        rows = [
            make_row(median_err_inf=1 / 3, experiments=1e17 + 1, binary_queries=0.1 + 0.2),
            make_row(estimator="qphase", nprime=37.5, median_err_l2=math.pi),
        ]
        path = str(tmp_path / "rows.json")
        export(rows, "json", path)
        assert load_rows(path) == rows

    def test_csv_cells_reparse_to_equal_floats(self, tmp_path):
        row = make_row(median_err_inf=1 / 3, binary_queries=2.0 ** -40)
        path = str(tmp_path / "rows.csv")
        export([row], "csv", path)
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        cells = dict(zip(lines[0].split(","), lines[1].split(",")))
        assert float(cells["median_err_inf"]) == 1 / 3
        assert float(cells["binary_queries"]) == 2.0 ** -40
        assert cells["nprime"] == ""
        assert cells["estimator"] == "bounded"

    def test_report_to_dict_sanitizes_numpy(self):
        rep = bounded_estimator(
            battery_ball(2), 1.0, 16, 0.1, IDEAL, np.random.default_rng(0)
        )
        doc = report_to_dict(rep)
        json.dumps(doc)  # must be JSON-encodable as-is
        assert doc["diagnostics"]["m"] == rep.diagnostics["m"]

    def test_bad_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            export([], "yaml", str(tmp_path / "x"))


class TestBattery:
    def test_ball_structure(self):
        rv = battery_ball(3)
        assert rv.size == 24 and rv.d == 3
        norms = np.linalg.norm(rv.values, axis=1)
        assert norms.max() <= 1.0
        assert np.array_equal(rv.values[1::2], -rv.values[0::2])
        assert np.allclose(rv.prob[0::2], 2.0 * rv.prob[1::2])
        assert float(np.abs(mean(rv)).max()) > 1e-3
        assert np.array_equal(rv.values, battery_ball(3).values)

    def test_ball_scaling(self):
        assert np.abs(battery_ball(4, scale=0.25).values).max() <= 0.25

    def test_basis_weights(self):
        rv = battery_basis(3)
        assert np.allclose(rv.prob, [1 / 6, 1 / 3, 1 / 2])
        assert np.array_equal(rv.values, np.eye(3))

    def test_heavylight_norm_spread(self):
        rv = battery_heavylight(4)
        norms = np.linalg.norm(rv.values, axis=1)
        assert norms[1] / norms[0] == pytest.approx(20.0)
        assert moments(rv).exp_norm2 == pytest.approx(0.2875)

    def test_standard_battery_keys(self):
        assert set(standard_battery(2)) == {"ball", "basis", "heavylight"}


def test_cost_envelope_formula():
    assert cost_envelope(64, 2, 0.1) == pytest.approx(
        COST_ENVELOPE_CPRIME * 64 * 6 * math.log2(20) ** 3, rel=1e-12
    )
