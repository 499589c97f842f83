"""Command-line front end: single estimates, sweeps, hard instances.

Subcommands:
  estimate   run one estimator on a distribution-spec file, print a JSON report
  sweep      run a config-driven trial battery / budget sweep, export rows
  hard       generate a hard-instance distribution plus sidecar metadata

The paper's invariants are checked by the acceptance suite
(``tests/test_acceptance.py``), not by a subcommand.

Config documents and distribution specs are UTF-8 JSON throughout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .checks import as_integer, as_positive
from .harness import (
    BATTERIES,
    ESTIMATOR_IDS,
    ExperimentConfig,
    export,
    report_to_dict,
    run_sweep,
    run_trials,
)
from .hardness import (
    _check_fractional_shape,
    _high_precision_columns,
    _low_precision_count,
    designed_mean_fractional_phase,
    designed_mean_high_precision,
    designed_mean_low_precision,
    fractional_phase_rv,
    hard_rv_high_precision,
    hard_rv_low_precision,
    search_parity_instance,
)
from .oracles import NoiseModel
from .probspace import moments, parse_distribution_spec, serialize_distribution_spec

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

_SWEEP_KEYS = {f.name for f in fields(ExperimentConfig)} | {"output"}


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
        name = body["name"]
        d = as_integer("battery d", body["d"], at_least=1)
        scale = as_positive("battery scale", body.get("scale", 1.0))
        if not isinstance(name, str) or name not in BATTERIES:
            raise ValueError(f"battery name must be one of {sorted(BATTERIES)}, got {name!r}")
        return BATTERIES[name](d, scale)
    if kind == "hard":
        body = _rv_body(kind, body, {"family"}, {"params"})
        params = body.get("params", {})
        if not isinstance(params, dict):
            raise ValueError(f"rv 'hard' params must be an object, got {params!r}")
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

# the parameters each family reads, for ``--params`` and a sweep's hard params alike
_FAMILY_PARAMS = {
    "low": ("n", "d", "sigma", "alpha", "b", "seed"),
    "high": ("n", "d", "sigma", "alpha", "normalization", "seed"),
    "fracphase": ("n", "d", "b", "seed"),
}
_STRING_PARAMS = ("b", "normalization")


def _check_param(key: str, value, family: str) -> None:
    """Refuse a hard-instance parameter its family does not read, or not of its key's kind:
    a negative seed, a b not of 0s and 1s."""
    name = f"hard-instance parameter {key!r}"
    if key not in _FAMILY_PARAMS[family]:
        raise ValueError(f"unknown {name}")
    if key in _STRING_PARAMS:
        if not isinstance(value, str) or key == "b" and set(value) - {"0", "1"}:
            kind = "a string of 0s and 1s" if key == "b" else "a string"
            raise ValueError(f"{name} must be {kind}, got {value!r}")
    elif key == "sigma" or key == "n" and family == "fracphase":  # a non-integer tilt denominator
        as_positive(name, value)
    else:
        as_integer(name, value, at_least=0 if key == "seed" else -math.inf)


def _parse_params(pairs: list[str]) -> dict:
    """``--params`` pairs as the values a JSON ``params`` object would hold; _build_hard checks them."""
    params: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"params must look like key=value, got {pair!r}")
        if key in params:
            raise ValueError(f"hard-instance parameter {key!r} given twice")
        params[key] = raw if key in _STRING_PARAMS else _number(raw)
    return params


def _number(raw: str):
    """``raw`` as an int, else a float, else the string itself."""
    for parse in (int, float):
        try:
            return parse(raw)
        except ValueError:
            pass
    return raw


def _bits_from(params: dict, length: int, balanced: bool = False) -> np.ndarray:
    if "b" in params:  # its length is the family's to check
        return np.array([int(c) for c in params["b"]], dtype=np.int64)
    rng = np.random.default_rng(params.get("seed", 0))
    if balanced:  # the partial-Hadamard family requires weight exactly length/2
        bits = np.zeros(length, dtype=np.int64)
        bits[rng.choice(length, length // 2, replace=False)] = 1
        return bits
    return rng.integers(0, 2, size=length)


def _build_hard(family: str, params: dict):
    """Return (rv, meta) for one hard family; meta carries designed moments."""
    if not isinstance(family, str) or family not in _FAMILY_PARAMS:
        raise ValueError(f"family must be low, high, or fracphase, got {family!r}")
    for key, value in params.items():
        _check_param(key, value, family)
    missing = {"n", "d"} - set(params)
    if missing:
        raise ValueError(f"family {family!r} needs parameter(s) {sorted(missing)}")
    n, d = params["n"], params["d"]
    if family == "fracphase":
        n = float(n)
        _check_fractional_shape(d, n)
        b = _bits_from(params, d)
        rv = fractional_phase_rv(d, n, b)
        designed = designed_mean_fractional_phase(d, n, b)
        used = {"d": d, "n": n}
    else:
        sigma, alpha = float(params.get("sigma", 1.0)), params.get("alpha", 4)
        used = {"n": n, "d": d, "sigma": sigma, "alpha": alpha}
        if family == "low":
            b = _bits_from(params, _low_precision_count(n, d, alpha), balanced=True)
            rv = hard_rv_low_precision(n, d, sigma, b, alpha)
            designed = designed_mean_low_precision(n, d, sigma, b, alpha)
        else:
            normalization, seed = params.get("normalization", "d2"), params.get("seed", 0)
            columns = _high_precision_columns(n, d, alpha)
            inst = search_parity_instance(d, columns, np.random.default_rng(seed))
            rv = hard_rv_high_precision(n, d, sigma, inst, alpha, normalization)
            designed = designed_mean_high_precision(n, d, sigma, inst, alpha, normalization)
            used.update(normalization=normalization, seed=seed)
            b = inst.b
    used["b"] = "".join(map(str, b))
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
    params = _parse_params(args.params)
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
    p_hard.add_argument("--family", required=True, choices=tuple(_FAMILY_PARAMS))
    p_hard.add_argument(
        "--params",
        nargs="*",
        default=[],
        metavar="KEY=VALUE",
        help="family parameters, e.g. n=4 d=16 sigma=1.0 alpha=4 seed=0 b=0110...",
    )
    p_hard.add_argument("--out", default=None, help="spec file path (sidecar: *.meta.json)")
    p_hard.set_defaults(func=cmd_hard)

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
