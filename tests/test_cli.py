"""End-to-end tests for the qmeanlab command-line interface."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qmeanlab.cli import NOISE_SEED_OFFSET, _parse_noise, build_parser, main
from qmeanlab.harness import (
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
            {"inline": {"d": 1, "prob": [0.5, 0.5], "values": [[math.nan], [0.25]]}},
            {"inline": {"d": 1, "prob": [0.5, 0.5], "values": [[1e400], [0.25]]}},
        ],
    )
    def test_malformed_rv_exits_2(self, tmp_path, capsys, rv):
        config_doc = {"rv": rv, "estimator": "classical", "trials": 1, "seed": 0, "n": 8}
        config_path = tmp_path / "bad_rv.json"
        config_path.write_text(json.dumps(config_doc), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    # the first key of each case names the bad entry
    @pytest.mark.parametrize(
        "budget",
        [
            {"n": float("nan")},
            {"n": "many"},
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

    @pytest.mark.parametrize("root", [None, 5, [[1]], "rows.json"])
    def test_config_root_must_be_an_object(self, tmp_path, capsys, root):
        config_path = tmp_path / "root.json"
        config_path.write_text(json.dumps(root), encoding="utf-8")
        assert main(["sweep", "--config", str(config_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep config root") and err.count("\n") == 1


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


class TestCheck:
    def test_all_checks_pass(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count(": PASS") == 9
        assert ": FAIL" not in out
        assert out.strip().endswith("9/9 checks passed")
