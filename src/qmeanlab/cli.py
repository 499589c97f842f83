"""Command-line front end: single estimates, sweeps, hard instances, self-check.

Subcommands:
  estimate   run one estimator on a distribution-spec file, print a JSON report
  sweep      run a config-driven trial battery / budget sweep, export rows
  hard       generate a hard-instance distribution plus sidecar metadata
  check      fast built-in invariant battery, exit code 0/1

Config documents and distribution specs are UTF-8 JSON throughout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from .classical import subgaussian_estimate
from .gridqft import (
    GridSpec,
    PhaseFunction,
    apply_phase_function,
    dense_qft_matrix,
    grid_axis_points,
    inverse_qft,
    measurement_distribution,
    uniform_superposition,
)
from .harness import (
    ESTIMATOR_IDS,
    ExperimentConfig,
    battery_ball,
    expected_branch,
    export,
    load_rows,
    report_to_dict,
    run_sweep,
    run_trials,
    standard_battery,
)
from .hardness import (
    designed_mean_fractional_phase,
    designed_mean_high_precision,
    designed_mean_low_precision,
    fractional_phase_rv,
    hard_rv_high_precision,
    hard_rv_low_precision,
    search_parity_instance,
)
from .oracles import NoiseModel
from .probspace import mean, moments, parse_distribution_spec, serialize_distribution_spec
from .quantum import bounded_estimator, near_optimal_estimator, phase_model_dispatch

# Decorrelates the noise stream from the sampling stream when only a single
# --seed is given (golden-ratio increment, the usual stream-splitting trick).
NOISE_SEED_OFFSET = 0x9E3779B9


def _parse_noise(text: str, seed: int) -> NoiseModel:
    if text == "ideal":
        return NoiseModel.ideal()
    if isinstance(text, str) and text.startswith("perturbed:"):
        parts = text[len("perturbed:") :].split(",")
        if len(parts) != 2:
            raise ValueError(f"perturbed noise needs exactly eps,eta — got {text!r}")
        eps, eta = float(parts[0]), float(parts[1])
        return NoiseModel.perturbed(eps, eta, seed=seed + NOISE_SEED_OFFSET)
    raise ValueError(f"noise must be 'ideal' or 'perturbed:EPS,ETA', got {text!r}")


def _load_spec(path: str):
    return parse_distribution_spec(Path(path).read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# estimate


def cmd_estimate(args: argparse.Namespace) -> int:
    rv = _load_spec(args.spec)
    noise = _parse_noise(args.noise, args.seed)
    config = ExperimentConfig(
        rv=rv,
        estimator=args.estimator,
        trials=1,
        seed=args.seed,
        delta=args.delta,
        n=args.n,
        nprime=args.nprime,
        l2=args.l2,
        noise=noise,
    )
    report = run_trials(config).reports[0]
    json.dump(report_to_dict(report), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


# ---------------------------------------------------------------------------
# sweep

_SWEEP_KEYS = {
    "rv",
    "estimator",
    "trials",
    "seed",
    "delta",
    "n",
    "n_grid",
    "nprime",
    "nprime_grid",
    "l2",
    "noise",
    "output",
}


def _rv_body(kind: str, body, required: set, optional: set) -> dict:
    if not (isinstance(body, dict) and required <= set(body) <= required | optional):
        raise ValueError(
            f"rv {kind!r} must be an object with keys {sorted(required)}"
            f" (optional: {sorted(optional)}), got {body!r}"
        )
    return body


def _rv_from_doc(doc, base_dir: Path):
    """Resolve the 'rv' entry of a sweep config: file, inline, battery, or hard."""
    if not isinstance(doc, dict) or len(doc) != 1:
        raise ValueError("rv must be an object with exactly one of: file, inline, battery, hard")
    (kind, body), = doc.items()
    if kind == "file":
        if not isinstance(body, str):
            raise ValueError(f"rv 'file' must be a path string, got {body!r}")
        return _load_spec(str(base_dir / body))
    if kind == "inline":
        return parse_distribution_spec(json.dumps(body))
    if kind == "battery":
        body = _rv_body(kind, body, {"name", "d"}, {"scale"})
        name, d, scale = body["name"], body["d"], body.get("scale", 1.0)
        if not (_typed(d, int) and d >= 1 and _typed(scale, float) and scale > 0):
            raise ValueError(f"battery needs an integer d >= 1 and a scale > 0, got {body!r}")
        dists = standard_battery(d, scale=float(scale))
        if not isinstance(name, str) or name not in dists:
            raise ValueError(f"battery name must be one of {sorted(dists)}, got {name!r}")
        return dists[name]
    if kind == "hard":
        body = _rv_body(kind, body, {"family"}, {"params"})
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"rv 'hard' params must be an object, got {params!r}")
        for key, value in params.items():
            if not _typed(value, _param_type(key, body["family"])):
                raise ValueError(f"hard-instance parameter {key!r} has the wrong type: {value!r}")
        rv, _ = _build_hard(body["family"], params)
        return rv
    raise ValueError(f"unknown rv source {kind!r}")


def _grid(doc: dict, key: str) -> tuple:
    grid = doc.get(key, [])
    if not isinstance(grid, list):
        raise ValueError(f"{key} must be a list of budgets, got {grid!r}")
    return tuple(grid)


def _config_from_doc(doc, base_dir: Path) -> tuple[ExperimentConfig, str | None]:
    if not isinstance(doc, dict):
        raise ValueError(f"sweep config root must be a JSON object, got {doc!r}")
    unknown = set(doc) - _SWEEP_KEYS
    if unknown:
        raise ValueError(f"unknown sweep config keys: {sorted(unknown)}")
    for key in ("rv", "estimator", "trials", "seed"):
        if key not in doc:
            raise ValueError(f"sweep config is missing required key {key!r}")
    output = doc.get("output")
    if output is not None and not (
        isinstance(output, str) and Path(output).suffix.lower() in (".csv", ".json")
    ):
        raise ValueError(f"output must be a path ending in .csv or .json, got {output!r}")
    config = ExperimentConfig(
        rv=_rv_from_doc(doc["rv"], base_dir),
        estimator=doc["estimator"],
        trials=doc["trials"],
        seed=doc["seed"],
        delta=doc.get("delta", 0.05),
        n=doc.get("n"),
        nprime=doc.get("nprime"),
        l2=doc.get("l2"),
        n_grid=_grid(doc, "n_grid"),
        nprime_grid=_grid(doc, "nprime_grid"),
    )
    # the noise stream is seeded from the config's seed, checked above
    noise = _parse_noise(doc.get("noise", "ideal"), config.seed)
    return replace(config, noise=noise), output


def cmd_sweep(args: argparse.Namespace) -> int:
    path = Path(args.config)
    doc = json.loads(path.read_text(encoding="utf-8"))
    config, output = _config_from_doc(doc, path.parent)
    rows = [res.row for res in run_sweep(config)]
    for row in rows:
        nprime = "-" if row.nprime is None else f"{row.nprime:g}"
        print(
            f"{row.estimator} n={row.n:g} nprime={nprime} d={row.d}"
            f" median_err_inf={row.median_err_inf:.6g}"
            f" median_err_l2={row.median_err_l2:.6g} fail_rate={row.fail_rate:.3f}"
        )
    if output is not None:
        out_path = Path(output)
        if not out_path.is_absolute():
            out_path = path.parent / out_path
        fmt = out_path.suffix.lstrip(".").lower()
        export(rows, fmt, str(out_path))
        print(f"wrote {len(rows)} rows to {out_path}")
    return 0


# ---------------------------------------------------------------------------
# hard

_PARAM_TYPES = {"d": int, "alpha": int, "seed": int, "sigma": float, "b": str, "normalization": str}


def _param_type(key: str, family: str) -> type:
    # the fractional-phase family takes a non-integer tilt denominator
    if key == "n":
        return float if family == "fracphase" else int
    if key not in _PARAM_TYPES:
        raise ValueError(f"unknown hard-instance parameter {key!r}")
    return _PARAM_TYPES[key]


def _typed(value, kind: type) -> bool:
    """JSON ``value`` is a ``kind``; floats must be finite and accept integers."""
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    return isinstance(value, kind) and not isinstance(value, bool)


def _parse_params(pairs: list[str], family: str) -> dict:
    params: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"params must look like key=value, got {pair!r}")
        params[key] = _param_type(key, family)(raw)
    return params


def _bits_from(params: dict, length: int, balanced: bool = False) -> np.ndarray:
    if "b" in params:
        bits = np.array([int(c) for c in params["b"]], dtype=np.int64)
        if bits.size != length:
            raise ValueError(f"b must have exactly {length} bits, got {bits.size}")
        return bits
    rng = np.random.default_rng(params.get("seed", 0))
    if balanced:  # the partial-Hadamard family requires weight exactly length/2
        bits = np.zeros(length, dtype=np.int64)
        bits[rng.choice(length, length // 2, replace=False)] = 1
        return bits
    return rng.integers(0, 2, size=length)


def _build_hard(family: str, params: dict):
    """Return (rv, meta) for one hard family; meta carries designed moments."""
    if family not in ("low", "high", "fracphase"):
        raise ValueError(f"family must be low, high, or fracphase, got {family!r}")
    missing = {"n", "d"} - set(params)
    if missing:
        raise ValueError(f"family {family!r} needs parameter(s) {sorted(missing)}")
    if family == "low":
        n, d = int(params["n"]), int(params["d"])
        sigma = float(params.get("sigma", 1.0))
        alpha = int(params.get("alpha", 4))
        b = _bits_from(params, alpha * n, balanced=True)
        rv = hard_rv_low_precision(n, d, sigma, b, alpha)
        designed = designed_mean_low_precision(n, d, sigma, b, alpha)
        used = {"n": n, "d": d, "sigma": sigma, "alpha": alpha, "b": "".join(map(str, b))}
    elif family == "high":
        n, d = int(params["n"]), int(params["d"])
        sigma = float(params.get("sigma", 1.0))
        alpha = int(params.get("alpha", 4))
        normalization = params.get("normalization", "d2")
        rng = np.random.default_rng(params.get("seed", 0))
        inst = search_parity_instance(d, alpha * n // d, rng)
        rv = hard_rv_high_precision(n, d, sigma, inst, alpha, normalization)
        designed = designed_mean_high_precision(n, d, sigma, inst, alpha, normalization)
        used = {
            "n": n,
            "d": d,
            "sigma": sigma,
            "alpha": alpha,
            "normalization": normalization,
            "seed": params.get("seed", 0),
            "b": "".join(map(str, inst.b)),
        }
    else:
        d_prime = int(params["d"])
        n = float(params["n"])
        b = _bits_from(params, d_prime)
        rv = fractional_phase_rv(d_prime, n, b)
        designed = designed_mean_fractional_phase(d_prime, n, b)
        used = {"d": d_prime, "n": n, "b": "".join(map(str, b))}
    summary = moments(rv)
    meta = {
        "family": family,
        "params": used,
        "designed_mean": [float(v) for v in designed],
        "moments": {
            "mean": [float(v) for v in summary.mean],
            "cov_trace": float(summary.cov_trace),
            "exp_norm2": float(summary.exp_norm2),
        },
    }
    return rv, meta


def cmd_hard(args: argparse.Namespace) -> int:
    params = _parse_params(args.params, args.family)
    rv, meta = _build_hard(args.family, params)
    spec_text = serialize_distribution_spec(rv)
    meta_text = json.dumps(meta, indent=1) + "\n"
    if args.out is None:
        json.dump({"spec": json.loads(spec_text), "meta": meta}, sys.stdout, indent=1)
        sys.stdout.write("\n")
    else:
        out = Path(args.out)
        out.write_text(spec_text, encoding="utf-8")
        sidecar = out.with_suffix(".meta.json")
        sidecar.write_text(meta_text, encoding="utf-8")
        print(f"wrote {out} and {sidecar}")
    return 0


# ---------------------------------------------------------------------------
# check

_IDEAL = NoiseModel.ideal()


def _check_qft_unitary() -> None:
    F = dense_qft_matrix(16)
    defect = np.abs(F.conj().T @ F - np.eye(16)).max()
    if defect > 1e-10:
        raise AssertionError(f"unitarity defect {defect:.3e}")


def _check_concentration() -> None:
    m, target = 64, 0.1983  # target deliberately off-grid
    spec = GridSpec(m=m, d=1)
    phase = PhaseFunction(
        evaluate=lambda pts: 2.0 * math.pi * m * target * pts[:, 0], separable=False
    )
    state = inverse_qft(apply_phase_function(uniform_superposition(spec), phase))
    probs = measurement_distribution(state)
    axis = grid_axis_points(m)
    mass = float(probs[np.abs(axis - target) <= 4.0 / m].sum())
    if mass < 5.0 / 6.0 - 1e-9:
        raise AssertionError(f"mass {mass:.4f} within 4/m of the target is below 5/6")


def _check_bounded_bound() -> None:
    rv = battery_ball(2)
    fails = 0
    bound = math.log2(2 / 0.1) / 16
    for t in range(20):
        rep = bounded_estimator(rv, 1.0, 16, 0.1, _IDEAL, np.random.default_rng(500 + t))
        fails += rep.err_inf > bound
    if fails / 20 > 0.1 + 3 * math.sqrt(0.1 / 20):
        raise AssertionError(f"failure rate {fails}/20 above binomial slack")


def _check_structural_margins() -> None:
    rep = near_optimal_estimator(
        battery_ball(2), 64, 0.1, _IDEAL, np.random.default_rng(7), exact_quantiles=True
    )
    struct = rep.diagnostics["structural"]
    worst = min(struct["quantile_margin"], struct["slice_margin"], struct["tail_margin"])
    if worst < -1e-9:
        raise AssertionError(f"structural margin {worst:.3e} below zero")


def _check_dispatch() -> None:
    rv = battery_ball(2, scale=0.25)
    rng = np.random.default_rng(0)
    for n, nprime in [(1.0, 8.0), (4.0, 1.0), (1.5, 8.0), (4.0, 8.0)]:
        got = phase_model_dispatch(rv, n, nprime, 0.8, _IDEAL, rng).diagnostics["branch"]
        want = expected_branch(n, nprime, 2, 0.8)
        if got != want:
            raise AssertionError(f"dispatch({n}, {nprime}) = {got}, classifier says {want}")


def _check_hard_moments() -> None:
    bits = np.array([1, 0, 1, 1, 0, 1, 0, 0])
    rv = hard_rv_low_precision(2, 16, 1.0, bits, 4)
    if abs(moments(rv).cov_trace - 1.0) > 1e-9:
        raise AssertionError("low-precision family covariance trace missed sigma^2")
    frac = fractional_phase_rv(4, 8.0, np.zeros(4, dtype=np.int64))
    want = np.zeros(4)
    want[0] = 0.125
    if not np.array_equal(mean(frac), want):
        raise AssertionError("untilted fractional family mean is not exactly (1/8) e1")


def _check_determinism() -> None:
    rv = battery_ball(2)
    a = bounded_estimator(rv, 1.0, 16, 0.1, _IDEAL, np.random.default_rng(3)).estimate
    b = bounded_estimator(rv, 1.0, 16, 0.1, _IDEAL, np.random.default_rng(3)).estimate
    if not np.array_equal(a, b):
        raise AssertionError("same seed produced different estimates")


def _check_classical_floor() -> None:
    estimate, batch = subgaussian_estimate(battery_ball(2), 32, 0.5, np.random.default_rng(11))
    if not np.all(np.isfinite(estimate)) or batch.draws.shape != (32, 2):
        raise AssertionError("classical estimate malformed")


def _check_export_roundtrip() -> None:
    config = ExperimentConfig(
        rv=battery_ball(2), estimator="classical", trials=3, seed=1, delta=0.5, n=16
    )
    row = run_trials(config).row
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "rows.json")
        export([row], "json", path)
        if load_rows(path) != [row]:
            raise AssertionError("JSON round trip changed the row")


_CHECKS = (
    ("qft_unitary", _check_qft_unitary),
    ("phase_concentration", _check_concentration),
    ("bounded_failure_rate", _check_bounded_bound),
    ("structural_margins", _check_structural_margins),
    ("regime_dispatch", _check_dispatch),
    ("hard_family_moments", _check_hard_moments),
    ("determinism", _check_determinism),
    ("classical_estimate", _check_classical_floor),
    ("export_roundtrip", _check_export_roundtrip),
)


def cmd_check(args: argparse.Namespace) -> int:
    failed = 0
    for name, fn in _CHECKS:
        try:
            fn()
        except Exception as exc:  # report every check, do not stop at the first
            failed += 1
            print(f"check {name}: FAIL ({exc})")
        else:
            print(f"check {name}: PASS")
    print(f"{len(_CHECKS) - failed}/{len(_CHECKS)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmeanlab",
        description="Simulator laboratory for quantum multivariate mean estimation.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_est = sub.add_parser("estimate", help="Run one estimator on a distribution spec.")
    p_est.add_argument("--spec", required=True, help="path to a distribution-spec JSON file")
    p_est.add_argument("--estimator", required=True, choices=ESTIMATOR_IDS)
    p_est.add_argument("--n", type=float, required=True, help="sample budget n")
    p_est.add_argument("--nprime", type=float, default=None, help="experiment budget n'")
    p_est.add_argument("--delta", type=float, default=0.05)
    p_est.add_argument("--seed", type=int, default=0)
    p_est.add_argument("--noise", default="ideal", help="ideal | perturbed:EPS,ETA")
    p_est.add_argument("--l2", type=float, default=None, help="norm bound for the bounded estimator")
    p_est.set_defaults(func=cmd_estimate)

    p_sweep = sub.add_parser("sweep", help="Run a config-driven battery or budget sweep.")
    p_sweep.add_argument("--config", required=True, help="path to a sweep config JSON file")
    p_sweep.set_defaults(func=cmd_sweep)

    p_hard = sub.add_parser("hard", help="Generate a hard-instance distribution.")
    p_hard.add_argument("--family", required=True, choices=("low", "high", "fracphase"))
    p_hard.add_argument(
        "--params",
        nargs="*",
        default=[],
        metavar="KEY=VALUE",
        help="family parameters, e.g. n=4 d=16 sigma=1.0 alpha=4 seed=0 b=0110...",
    )
    p_hard.add_argument("--out", default=None, help="spec file path (sidecar: *.meta.json)")
    p_hard.set_defaults(func=cmd_hard)

    p_check = sub.add_parser("check", help="Run the built-in invariant battery.")
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
