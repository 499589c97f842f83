"""End-to-end tests for the qmeanlab command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmeanlab.cli import NOISE_SEED_OFFSET, _parse_noise, build_parser, main
from qmeanlab.harness import (
    ESTIMATOR_IDS,
    ExperimentConfig,
    battery_ball,
    load_rows,
    report_to_dict,
    run_sweep,
    run_trials,
)
from qmeanlab.hardness import designed_mean_low_precision
from qmeanlab.oracles import NoiseModel
from qmeanlab.probspace import moments, parse_distribution_spec, serialize_distribution_spec


def count_calls(monkeypatch, name: str) -> list:
    """Wrap ``harness.<name>``; the returned list gains one entry per call."""
    import qmeanlab.harness as harness

    calls: list = []
    real = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


@pytest.fixture()
def ball_spec(tmp_path):
    path = tmp_path / "ball.json"
    path.write_text(serialize_distribution_spec(battery_ball(2)), encoding="utf-8")
    return str(path)


class TestParsing:
    def test_required_arguments(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["estimate", "--spec", "x.json"])  # missing estimator, n
        with pytest.raises(SystemExit):
            parser.parse_args(["estimate", "--spec", "x", "--estimator", "magic", "--n", "4"])

    def test_noise_strings(self):
        assert _parse_noise("ideal", 7) == NoiseModel.ideal()
        noise = _parse_noise("perturbed:0.1,0.05", 7)
        assert noise == NoiseModel.perturbed(0.1, 0.05, seed=7 + NOISE_SEED_OFFSET)
        with pytest.raises(ValueError, match="eps,eta"):
            _parse_noise("perturbed:0.1", 7)
        with pytest.raises(ValueError, match="noise"):
            _parse_noise("loud", 7)


class TestEstimate:
    def test_matches_direct_api_call(self, ball_spec, capsys):
        code = main(
            [
                "estimate",
                "--spec", ball_spec,
                "--estimator", "bounded",
                "--n", "16",
                "--delta", "0.1",
                "--seed", "11",
                "--l2", "1.0",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        config = ExperimentConfig(
            rv=battery_ball(2), estimator="bounded", trials=1, seed=11, delta=0.1, n=16, l2=1.0
        )
        assert doc == report_to_dict(run_trials(config).reports[0])

    def test_perturbed_noise_seed_offset(self, tmp_path, capsys):
        rv = parse_distribution_spec('{"d": 1, "prob": [0.5, 0.5], "values": [[0.5], [-0.4]]}')
        path = tmp_path / "pair.json"
        path.write_text(serialize_distribution_spec(rv), encoding="utf-8")
        code = main(
            [
                "estimate",
                "--spec", str(path),
                "--estimator", "bounded",
                "--n", "8",
                "--delta", "0.1",
                "--seed", "5",
                "--noise", "perturbed:0.2,0.1",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["noise"]["seed"] == 5 + NOISE_SEED_OFFSET

    def test_domain_error_is_reported_not_raised(self, tmp_path, capsys):
        rv = parse_distribution_spec('{"d": 1, "prob": [1.0], "values": [[2.0]]}')
        path = tmp_path / "far.json"
        path.write_text(serialize_distribution_spec(rv), encoding="utf-8")
        code = main(
            ["estimate", "--spec", str(path), "--estimator", "bounded", "--n", "8", "--l2", "1.0"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "doc, field",
        [
            ('{"d": 1, "prob": [0.5, 0.5], "values": [[1%s], [0.25]]}' % ("0" * 400), "values"),
            ('{"d": 1, "prob": [1%s, 0.5], "values": [[0.5], [0.25]]}' % ("0" * 400), "prob"),
        ],
        ids=["values", "prob"],
    )
    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys, doc, field):
        path = tmp_path / "huge.json"
        path.write_text(doc, encoding="utf-8")
        code = main(["estimate", "--spec", str(path), "--estimator", "classical", "--n", "8"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: field '{field}'") and err.count("\n") == 1


class TestSweep:
    def test_grid_sweep_writes_rows(self, tmp_path, capsys):
        config_doc = {
            "rv": {"battery": {"name": "ball", "d": 2}},
            "estimator": "classical",
            "trials": 4,
            "seed": 10,
            "delta": 0.5,
            "n_grid": [8, 16, 32],
            "output": "rows.json",
        }
        config_path = tmp_path / "sweep.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("classical n=") == 3
        assert "wrote 3 rows" in out
        api_config = ExperimentConfig(
            rv=battery_ball(2), estimator="classical", trials=4, seed=10, delta=0.5,
            n_grid=(8, 16, 32),
        )
        want = [res.row for res in run_sweep(api_config)]
        assert load_rows(str(tmp_path / "rows.json")) == want

    def test_inline_rv_single_point(self, tmp_path, capsys):
        config_doc = {
            "rv": {"inline": {"d": 1, "prob": [0.5, 0.5], "values": [[0.25], [-0.25]]}},
            "estimator": "classical",
            "trials": 2,
            "seed": 0,
            "delta": 0.5,
            "n": 8,
        }
        config_path = tmp_path / "one.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out.count("classical n=8") == 1

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config_path = tmp_path / "bad.json"
        config_path.write_text(json.dumps({"rv": {}, "estimator": "x", "trails": 1}), "utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        assert "trails" in capsys.readouterr().err

    def test_fixed_n_with_nprime_grid(self, tmp_path, capsys):
        config_doc = {
            "rv": {"battery": {"name": "ball", "d": 2, "scale": 0.25}},
            "estimator": "phase_model",
            "trials": 2,
            "seed": 3,
            "delta": 0.1,
            "n": 8,
            "nprime_grid": [8, 16],
            "output": "rows.json",
        }
        config_path = tmp_path / "nprime.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 0
        assert "wrote 2 rows" in capsys.readouterr().out
        api_config = ExperimentConfig(
            rv=battery_ball(2, scale=0.25), estimator="phase_model", trials=2, seed=3,
            delta=0.1, n=8, nprime_grid=(8, 16),
        )
        want = [res.row for res in run_sweep(api_config)]
        assert load_rows(str(tmp_path / "rows.json")) == want

    @pytest.mark.parametrize(
        "rv",
        [
            {"battery": {"d": 2}},
            {"battery": ["ball", 2]},
            {"battery": {"name": "ball", "d": 2, "colour": "red"}},
            {"battery": {"name": ["ball"], "d": 2}},
            {"battery": {"name": "ball", "d": [2]}},
            {"battery": {"name": "ball", "d": 0}},
            {"battery": {"name": "ball", "d": 2, "scale": "big"}},
            {"file": ["ball.json"]},
            {"inline": [0.5, 0.5]},
            {"hard": ["low"]},
            {"hard": {"params": {"n": 4, "d": 16}}},
            {"hard": {"family": "low"}},
            {"hard": {"family": "fracphase", "params": "d=2"}},
            {"hard": {"family": "fracphase", "params": {"d": [2], "n": 4}}},
            {"hard": {"family": "fracphase", "params": {"d": 2, "n": 4, "b": 10}}},
            {"hard": {"family": "fracphase", "params": {"d": 2, "n": 4, "waffles": 1}}},
            {"hard": {"family": "high", "params": {"n": 4, "d": 2, "b": "10"}}},
            {"inline": {"d": 1, "prob": [0.5, 0.5], "values": [[math.nan], [0.25]]}},
            {"inline": {"d": 1, "prob": [0.5, 0.5], "values": [[1e400], [0.25]]}},
            # finite values whose moments overflow: the error bound is not finite
            {"battery": {"name": "ball", "d": 2, "scale": 1e308}},
            # a JSON integer too large for a float
            {"inline": {"d": 1, "prob": [0.5, 0.5], "values": [[10**400], [0.25]]}},
            # a family that is not a string
            {"hard": {"family": [], "params": {"n": 4, "d": 16}}},
        ],
    )
    def test_malformed_rv_exits_2(self, tmp_path, capsys, rv):
        config_doc = {"rv": rv, "estimator": "classical", "trials": 1, "seed": 0, "n": 8}
        config_path = tmp_path / "bad_rv.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sweep", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # no trial ran, no row printed
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    # the first key of each case names the bad entry
    @pytest.mark.parametrize(
        "budget",
        [
            {"n": float("nan")},
            {"n": "many"},
            {"n": True},
            {"n": "64"},
            {"n_grid": [8, "64"]},
            {"n_grid": [-1, 8]},
            {"trials": [2], "n": 8},
            {"trials": 2.5, "n": 8},
            {"trials": True, "n": 8},
            {"seed": "0", "n": 8},
            {"seed": 1.5, "n": 8},
            {"noise": 5, "n": 8},
            {"noise": ["ideal"], "n": 8},
            {"delta": [0.1], "n": 8},
            {"delta": None, "n": 8},
            {"l2": "0.5", "n": 8},
            {"n_grid": 5},
            {"output": 5, "n": 8},
            {"output": "rows.txt", "n": 8},
            {"seed": -1, "n": 8},
        ],
    )
    def test_bad_budget_fails_before_any_trial(self, tmp_path, capsys, budget):
        config_doc = {
            "rv": {"battery": {"name": "ball", "d": 2}},
            "estimator": "classical", "trials": 2, "seed": 0, "delta": 0.5, **budget,
        }
        config_path = tmp_path / "bad_budget.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {next(iter(budget))}") and err.count("\n") == 1
        assert "trials failed" not in err

    # a finite budget above 2^53 used to end in a traceback inside the trial:
    # ZeroDivisionError (alpha underflows to 0) or OverflowError (an infinite
    # grid size or draw count), depending on the estimator
    @pytest.mark.parametrize(
        "estimator, budget",
        [
            ("bounded", {"n": 1e308}),
            ("near_optimal", {"n": 1e308}),
            ("euclidean", {"n": 2**53 + 1}),
            ("classical", {"n": 2.0**63}),
            ("qphase", {"n": 1e308, "nprime": 1e308}),
            ("qlowprec", {"nprime": 1e308, "n": 64}),
            ("phase_model", {"nprime_grid": [64, 2.0**60], "n": 64}),
        ],
    )
    def test_budget_above_2_pow_53_exits_2(self, tmp_path, capsys, estimator, budget):
        config_doc = {
            "rv": {"battery": {"name": "basis", "d": 2, "scale": 0.25}},
            "estimator": estimator, "trials": 1, "seed": 0, **budget,
        }
        config_path = tmp_path / "huge.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith(f"error: {next(iter(budget))} must be at most 2^53")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "log2_n, wall",
        [(53, "per-axis precision wall: m = 2^55"), (30, "per-axis memory wall: m = 2^32")],
    )
    def test_lattice_past_an_axis_wall_exits_2_with_one_line(
        self, tmp_path, capsys, monkeypatch, log2_n, wall
    ):
        # the cell's plan is refused before its first trial, with one line that names the cell
        calls = count_calls(monkeypatch, "phase_model_dispatch")
        config_doc = {
            "rv": {"battery": {"name": "basis", "d": 2, "scale": 0.25}},
            "estimator": "phase_model", "trials": 1, "seed": 0,
            "n": 2**log2_n, "nprime": 2**log2_n,
        }
        config_path = tmp_path / "wall.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        budget = float(2**log2_n)
        cell = f"phase_model cell n={budget!r} nprime={budget!r}"
        assert captured.err.startswith(f"error: {cell}: {wall}")
        assert captured.err.count("\n") == 1
        assert calls == []

    def test_mixed_sweep_refuses_its_cell_past_a_wall_before_any_trial(
        self, tmp_path, capsys, monkeypatch
    ):
        # n = 8 would run; n = 2^53 needs m = 2^55, so the sweep runs neither
        calls = count_calls(monkeypatch, "phase_model_dispatch")
        config_doc = {
            "rv": {"battery": {"name": "basis", "d": 2, "scale": 0.25}},
            "estimator": "phase_model", "trials": 3, "seed": 0,
            "n_grid": [8, 2**53], "nprime": 2**53,
        }
        config_path = tmp_path / "mixed.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: phase_model cell n={2.0**53!r} nprime={2.0**53!r}: per-axis precision wall:"
            " m = 2^55 > 2^52 lattice points are not exact in float64\n"
        )
        assert calls == []

    @pytest.mark.parametrize(
        "rv, estimator, entry_point, delta, budget, refusal",
        [
            # k = floor(min(n, n'/sqrt(d))) = 0 once log2(d/delta) < n < 1
            (
                {"inline": {"d": 1, "prob": [0.5, 0.5], "values": [[0.1], [0.2]]}},
                "qphase", "qphase_estimator", 0.9, 0.2,
                "k = floor(min(n, nprime/sqrt(d))) = 0 at n=0.2, nprime=0.2",
            ),
            # d <= n' < sqrt(d)*log2(d/delta): the map says high precision, which refuses n'
            (
                {"battery": {"name": "ball", "d": 4, "scale": 0.25}},
                "phase_model", "phase_model_dispatch", 0.05, 8,
                "nprime=8.0 is below sqrt(d)*log2(d/delta) = 12.64",
            ),
            # the classical baseline's floor n >= ceil(log2(1/delta)), on its int(n) draws
            (
                {"battery": {"name": "ball", "d": 2}},
                "classical", "subgaussian_estimate", 0.001, 2,
                "n=2 is below ceil(log2(1/delta)) = 10",
            ),
            # euclidean's classical branch at d = 1: log2(1/delta) <= n <= 1 draws int(n) = 0
            (
                {"inline": {"d": 1, "prob": [0.5, 0.5], "values": [[0.1], [0.2]]}},
                "euclidean", "euclidean_estimator", 0.6, 0.9,
                "n=0 is below ceil(log2(1/delta)) = 1",
            ),
        ],
    )
    def test_data_free_refusal_is_one_line_before_any_trial(
        self, tmp_path, capsys, monkeypatch, rv, estimator, entry_point, delta, budget, refusal
    ):
        calls = count_calls(monkeypatch, entry_point)
        config_doc = {
            "rv": rv, "estimator": estimator, "trials": 2, "seed": 0, "delta": delta,
            "n": budget, "nprime": budget,
        }
        config_path = tmp_path / "refused.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        cell = f"{estimator} cell n={float(budget)!r} nprime={float(budget)!r}"
        assert err.startswith(f"error: {cell}: {refusal}")
        assert err.count("\n") == 1
        assert calls == []

    @pytest.mark.parametrize("root", [None, 5, [[1]], "rows.json"])
    def test_config_root_must_be_an_object(self, tmp_path, capsys, root):
        config_path = tmp_path / "root.json"
        config_path.write_text(json.dumps(root), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep config root") and err.count("\n") == 1

    def test_clamped_binary_phase_exits_2_with_one_short_line(self, tmp_path, capsys):
        # at d = 256 a unit-ball outcome fires the bounded estimator's clamp
        config_doc = {
            "rv": {"battery": {"name": "ball", "d": 256}},
            "estimator": "bounded", "trials": 2, "seed": 0, "n": 4096,
        }
        config_path = tmp_path / "clamped.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: all 2 trials failed") and err.count("\n") == 1
        assert "clamp fires" in err and len(err) < 300


class TestHard:
    def test_out_writes_spec_and_sidecar(self, tmp_path):
        out = tmp_path / "low.json"
        code = main(
            ["hard", "--family", "low",
             "--params", "n=2", "d=16", "sigma=0.3", "alpha=4", "seed=3",
             "--out", str(out)]
        )
        assert code == 0
        rv = parse_distribution_spec(out.read_text(encoding="utf-8"))
        meta = json.loads((tmp_path / "low.meta.json").read_text(encoding="utf-8"))
        assert meta["family"] == "low"
        summary = moments(rv)
        assert np.allclose(summary.mean, meta["moments"]["mean"], atol=1e-15)
        assert summary.cov_trace == pytest.approx(0.09, abs=1e-9)
        bits = np.array([int(c) for c in meta["params"]["b"]])
        designed = designed_mean_low_precision(2, 16, 0.3, bits, 4)
        assert np.allclose(meta["designed_mean"], designed, atol=1e-15)
        assert np.allclose(summary.mean, designed, atol=1e-12)

    def test_stdout_mode_fracphase_untilted(self, capsys):
        code = main(["hard", "--family", "fracphase", "--params", "d=4", "n=8", "b=0000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        rv = parse_distribution_spec(json.dumps(doc["spec"]))
        assert doc["meta"]["designed_mean"] == [0.125, 0.0, 0.0, 0.0]
        assert moments(rv).mean.tolist() == [0.125, 0.0, 0.0, 0.0]

    def test_high_family_reports_hidden_bits(self, capsys):
        code = main(["hard", "--family", "high", "--params", "n=4", "d=4", "seed=1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        b = doc["meta"]["params"]["b"]
        assert len(b) == 4 and set(b) <= {"0", "1"}
        mean_vec = np.array(doc["meta"]["moments"]["mean"])
        heavy = mean_vec > mean_vec.max() / 2
        assert "".join("1" if h else "0" for h in heavy) == b

    # --params and a sweep's hard.params refuse a bad parameter with the same
    # line.  The high family's shape checks run before the search instance is
    # built: d=0 used to divide by zero and alpha=0 to blame the instance's N
    # and M.  n=inf used to run from --params, seed=-1 and b=1x to fail inside
    # numpy and int(), and sigma=1e308 to print a numpy warning first.  A low
    # n=-1 and a fractional d=-2 used to reach numpy's "negative dimensions"
    # when the bits were drawn before the family's shape checks.
    @pytest.mark.parametrize(
        "params, name, family",
        [
            pytest.param({"n": -1, "d": 4}, "n", "low", id="low-n-negative"),
            pytest.param({"n": 4, "d": -2}, "d", "fracphase", id="fracphase-d-negative"),
            pytest.param({"n": 2, "d": 0}, "d", "high", id="params0-d"),
            pytest.param({"n": 2, "d": 2, "alpha": 0}, "alpha", "high", id="params1-alpha"),
            pytest.param({"d": 2, "n": math.inf}, "n", "fracphase", id="fracphase-n-inf"),
            pytest.param({"n": 4, "d": 4, "seed": -1}, "seed", "high", id="high-seed-negative"),
            pytest.param({"n": 1, "d": 4, "alpha": 2, "b": "1x"}, "b", "low", id="low-b-not-bits"),
            pytest.param({"n": 1, "d": 4, "alpha": 2, "sigma": 1e308}, "scale", "low", id="low-scale-inf"),
        ],
    )
    def test_bad_high_family_shape_exits_2(self, tmp_path, capsys, params, name, family):
        pairs = [f"{key}={value}" for key, value in params.items()]
        assert main(["hard", "--family", family, "--params", *pairs]) == 2
        config_doc = {
            "rv": {"hard": {"family": family, "params": params}},
            "estimator": "classical", "trials": 1, "seed": 0, "n": 8,
        }
        config_path = tmp_path / "high.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        assert lines[0].startswith("error:") and re.search(rf"\b{name}\b", lines[0])

    @pytest.mark.parametrize(
        "family, pairs, line",
        [
            ("low", ["n=8", "d=4", "alpha=2"], "alpha*n = 16 exceeds d = 4"),
            ("low", ["n=3", "d=8", "alpha=1"], "alpha*n = 3 must be even"),
            ("fracphase", ["n=4", "d=8"], "d' = 8 exceeds n = 4.0"),
            ("fracphase", ["n=4", "d=3"], "d' must be a positive power of two, got 3"),
        ],
    )
    def test_family_shape_is_refused_before_bits_are_drawn(
        self, monkeypatch, capsys, family, pairs, line
    ):
        import qmeanlab.cli as cli

        monkeypatch.setattr(cli, "_bits_from", lambda *args, **kwargs: pytest.fail("bits drawn"))
        assert main(["hard", "--family", family, "--params", *pairs]) == 2
        assert capsys.readouterr().err.startswith(f"error: {line}")

    # Each instance builder refuses a table above 2^30 bytes before it is
    # built: a family's value table, the d x d basis battery, and the d x d
    # covariance that only the classical bound reads (the O(K·d) moment
    # summary builds none), refused when its cell is planned.
    @pytest.mark.parametrize(
        "argv, wall",
        [
            ({"battery": {"name": "heavylight", "d": 16384}},
             "classical cell n=64.0 nprime=None: covariance memory wall: 16384 x 16384 entries"),
            (["hard", "--family", "fracphase", "--params", "d=65536", "n=65536"],
             "value table memory wall: 131072 x 65536 entries"),
            (["hard", "--family", "high", "--params", "n=32768", "d=16384", "alpha=1"],
             "value table memory wall: 32768 x 16384 entries"),
            ({"battery": {"name": "basis", "d": 20000}}, "basis battery memory wall: 20000 x 20000 entries"),
        ],
        ids=["classical-covariance", "fracphase-table", "high-table", "basis-battery"],
    )
    def test_table_past_the_memory_wall_exits_2_with_one_line(self, tmp_path, capsys, argv, wall):
        if isinstance(argv, dict):
            config_doc = {"rv": argv, "estimator": "classical", "trials": 1, "seed": 0, "n": 64}
            config_path = tmp_path / "wall.json"
            config_path.write_text(json.dumps(config_doc), encoding="utf-8")
            argv = ["sweep", "--config", str(config_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {wall} > 2^30 bytes\n"

    def test_low_family_past_the_covariance_wall_builds(self, capsys):
        # a 2 x 65536 table (1 MiB) whose d x d covariance would be 32 GiB
        assert main(["hard", "--family", "low", "--params", "n=1", "d=65536", "alpha=2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["meta"]["moments"]["mean"]) == 65536

    def test_early_exit_bounded_sweep_past_the_covariance_wall_runs(self, tmp_path, capsys):
        # n = 16 <= log2(d/delta)/sqrt(E||X||): the bound, the plan and the
        # binary-model check read only the O(K·d) moments
        config_doc = {
            "rv": {"battery": {"name": "heavylight", "d": 16384}},
            "estimator": "bounded", "trials": 1, "seed": 0, "n": 16,
        }
        config_path = tmp_path / "bounded.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.startswith("bounded n=16 nprime=- d=16384")

    def test_battery_sweep_builds_only_the_battery_it_names(self, tmp_path, capsys, monkeypatch):
        import qmeanlab.harness as harness

        for name in ("basis", "heavylight"):
            monkeypatch.setitem(harness.BATTERIES, name, lambda *args: pytest.fail("built"))
        config_doc = {
            "rv": {"battery": {"name": "ball", "d": 2}},
            "estimator": "classical", "trials": 1, "seed": 0, "n": 64,
        }
        config_path = tmp_path / "ball.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 0
        assert capsys.readouterr().out.startswith("classical n=64 nprime=- d=2")

    def test_fractional_n_allowed_only_for_fracphase(self, capsys):
        assert main(["hard", "--family", "fracphase", "--params", "d=2", "n=3.5", "b=00"]) == 0
        assert main(["hard", "--family", "low", "--params", "n=3.5", "d=16"]) == 2
        capsys.readouterr()

    def test_non_finite_param_exits_2(self, capsys):
        assert main(["hard", "--family", "fracphase", "--params", "d=2", "n=nan", "b=10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1

    def test_missing_param_exits_2(self, capsys):
        assert main(["hard", "--family", "low", "--params", "d=16"]) == 2
        assert "'n'" in capsys.readouterr().err

    def test_bad_param_key(self, capsys):
        assert main(["hard", "--family", "low", "--params", "waffles=3"]) == 2
        assert "waffles" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, params, key",
        [
            ("fracphase", ["n=4", "d=2", "sigma=3", "alpha=9", "normalization=zz"], "sigma"),
            ("low", ["n=2", "d=8", "normalization=zz"], "normalization"),
            ("high", ["n=4", "d=2", "b=10", "seed=0"], "b"),
        ],
    )
    def test_param_the_family_does_not_read_exits_2(self, capsys, family, params, key):
        # a key another family reads is refused by name, not dropped or echoed
        assert main(["hard", "--family", family, "--params", *params]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unknown hard-instance parameter {key!r}\n"


# --- fuzzed sweep documents ------------------------------------------------
#
# A document starts mostly valid and then has up to two entries dropped or
# replaced by an edge value or junk.  Budgets come from a few cheap values
# plus the edge ones (mid-size budgets build large lattices, and the property
# is about input handling, not scale), dimensions from 0 to 4.

_JUNK = st.sampled_from([None, True, -1, 0.5, math.nan, math.inf, -math.inf, "x", [], {}, [8]])
_EDGE = [0, -1, 2**53 + 1, 1e308, 10**400]
_BUDGET = st.sampled_from([1, 8, 16, 32, 8, 16, *_EDGE])
_GRID = st.lists(_BUDGET, min_size=1, max_size=3, unique=True).map(sorted)
_HARD = {
    "low": st.fixed_dictionaries(
        {"n": st.sampled_from([1, 2]), "d": st.integers(0, 4), "alpha": st.sampled_from([0, 1, 2, 4])}
    ),
    "high": st.fixed_dictionaries(
        {"n": st.sampled_from([2, 4]), "d": st.integers(0, 4), "alpha": st.sampled_from([0, 2, 4])},
        optional={"normalization": st.sampled_from(["d2", "2d2"])},
    ),
    "fracphase": st.fixed_dictionaries(
        {"n": st.sampled_from([4, 8.0]), "d": st.integers(0, 4)},
        optional={"b": st.sampled_from(["0000", "0110"])},
    ),
}
_EDGE_PARAM = {
    "n": st.sampled_from([0, -1, 2.5]),
    "d": st.integers(0, 4),
    "alpha": st.sampled_from([0, -1, 3]),
    "sigma": st.sampled_from([0, -1.0, 1e308]),
    "seed": st.just(-1),
    "b": st.sampled_from(["", "01", "2"]),
    "normalization": st.just("d3"),
    "waffles": st.just(1),
}


@st.composite
def _rv_doc(draw):
    kind = draw(st.sampled_from(["battery", "hard", "inline"]))
    if kind == "battery":
        body = {
            "name": draw(st.sampled_from(["ball", "basis", "heavylight"])),
            "d": draw(st.integers(0, 4)),
            "scale": draw(st.sampled_from([0.25, 1.0])),
        }
    elif kind == "hard":
        family = draw(st.sampled_from(sorted(_HARD)))
        body = {"family": family, "params": draw(_HARD[family])}
        if draw(st.integers(0, 3)) == 0:
            key = draw(st.sampled_from(sorted(_EDGE_PARAM)))
            body["params"][key] = draw(_EDGE_PARAM[key] | _JUNK)
    else:
        body = {"d": 1, "prob": [0.5, 0.5], "values": [[0.2], [-0.1]]}
    if draw(st.integers(0, 3)):
        return {kind: body}
    # one entry of the body made bad
    edge = {
        "battery": {"name": st.just("cube"), "d": st.just(0), "scale": st.sampled_from([0, -1.0])},
        "hard": {"family": st.just("mid"), "params": st.just("n=2")},
        "inline": {"d": st.just(2), "prob": st.just([0.5]), "values": st.just([[1e400]])},
    }[kind]
    key = draw(st.sampled_from(sorted(edge)))
    if draw(st.booleans()):
        del body[key]
    else:
        body[key] = draw(edge[key] | _JUNK)
    return {kind: body}


_EDGE_ENTRY = {
    "rv": _JUNK,
    "estimator": st.just("magic"),
    "trials": st.sampled_from([0, -1, 2.0]),
    "seed": st.sampled_from([-1, 1.5, "0"]),
    "delta": st.sampled_from([0, 1, 1.5]),
    "n": st.sampled_from(_EDGE),
    "nprime": st.sampled_from(_EDGE),
    "n_grid": st.lists(_BUDGET, max_size=3),
    "nprime_grid": st.lists(_BUDGET, max_size=3),
    "l2": st.sampled_from([0, 1.5]),
    "noise": st.sampled_from(["perturbed:0.1", "perturbed:2,0.5", "perturbed:a,b", "loud"]),
    "output": st.sampled_from(["rows.txt", "", "sub/rows.csv"]),
    "colour": st.just("red"),
}


@st.composite
def _sweep_doc(draw):
    estimator = draw(st.sampled_from(ESTIMATOR_IDS))
    doc = {
        "rv": draw(_rv_doc()),
        "estimator": estimator,
        "trials": draw(st.sampled_from([1, 2])),
        "seed": draw(st.sampled_from([0, 3])),
    }
    for key, grid in (("n", "n_grid"), ("nprime", "nprime_grid")):
        if key == "nprime" and estimator not in ("qphase", "qlowprec", "phase_model"):
            continue
        if draw(st.booleans()):
            doc[key] = draw(_BUDGET)
        else:
            doc[grid] = draw(_GRID)
    optional = {
        "delta": st.sampled_from([0.05, 0.2]),
        "l2": st.sampled_from([0.5, 1]),
        "noise": st.sampled_from(["ideal", "perturbed:0.05,0.01"]),
        "output": st.sampled_from(["rows.csv", "rows.json"]),
    }
    for key, values in optional.items():
        if draw(st.booleans()):
            doc[key] = draw(values)
    bad = draw(st.sampled_from([0, 0, 1, 2]))
    for key in draw(st.lists(st.sampled_from(sorted(_EDGE_ENTRY)), min_size=bad, max_size=bad, unique=True)):
        if draw(st.booleans()) and key in doc:
            del doc[key]
        else:
            doc[key] = draw(_EDGE_ENTRY[key] | _JUNK)
    return doc


@settings(deadline=None, max_examples=300)
@given(doc=_sweep_doc())
def test_fuzzed_sweep_document_runs_or_exits_2_with_one_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "sweep.json"
        config_path.write_text(json.dumps(doc), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["sweep", "--config", str(config_path)])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
