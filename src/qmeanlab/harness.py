"""Experiment orchestration: trial batteries, sweeps, error bounds, slopes.

The harness turns one estimator configuration into seeded trial batteries,
scores each run against its estimator's error bound, aggregates the battery
into a flat row, fits log-log slopes and writes rows as CSV/JSON files.
Trials are independent by construction — trial t always consumes the
generator seeded with ``seed + t`` — so batteries are reproducible bit for bit
and could be farmed out in any order.  The budget-regime map
(``regime_classify``, ``expected_branch``) lives in :mod:`qmeanlab.quantum`
and is re-exported here.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np

from qmeanlab.checks import (
    as_integer, as_positive, as_real, check_array_bytes, check_norm_bound, check_open_unit,
)
from qmeanlab.classical import check_draw_table, subgaussian_estimate
from qmeanlab.gridqft import GridSpec, check_axis_walls, check_lattice_cap
from qmeanlab.oracles import CostLedger, NoiseModel
from qmeanlab.probspace import RandomVariable, mean, moments, spectral_norm
from qmeanlab.quantum import (
    EstimateReport,
    Plan,
    bounded_estimator,
    euclidean_estimator,
    expected_branch,
    near_optimal_estimator,
    phase_model_dispatch,
    plan,
    qlowprec_estimator,
    qphase_estimator,
    regime_classify,
)

__all__ = [
    "ESTIMATOR_IDS",
    "SWEEP_COLUMNS",
    "COST_ENVELOPE_CPRIME",
    "ExperimentConfig",
    "SweepRow",
    "BatteryResult",
    "run_trials",
    "run_sweep",
    "error_bound",
    "fit_slope",
    "regime_classify",
    "expected_branch",
    "cost_envelope",
    "export",
    "load_rows",
    "report_to_dict",
    "battery_ball",
    "battery_basis",
    "battery_heavylight",
    "BATTERIES",
    "standard_battery",
]

ESTIMATOR_IDS = (
    "bounded",
    "near_optimal",
    "euclidean",
    "qphase",
    "qlowprec",
    "phase_model",
    "classical",
)

# Envelope constant for the general-purpose estimator's binary-query total:
# per run, binary_queries <= COST_ENVELOPE_CPRIME * n * log2(n) * log2(d/delta)^3.
# Calibrated on the d=2 standard battery at n in {32, 64, 128}; the acceptance
# suite re-measures the max ratio and reports it against this constant.
COST_ENVELOPE_CPRIME = 6.0e5

_NEEDS_NPRIME = ("qphase", "qlowprec", "phase_model")


def cost_envelope(n: float, d: int, delta: float) -> float:
    """n * log2(n) * log2(d/delta)^3, scaled by the in-repo constant."""
    return COST_ENVELOPE_CPRIME * n * math.log2(n) * math.log2(d / delta) ** 3


@dataclass(frozen=True)
class SweepRow:
    """One aggregated battery: medians, failure rate, exact ledger totals."""

    estimator: str
    n: float
    nprime: float | None
    d: int
    delta: float
    median_err_inf: float
    median_err_l2: float
    fail_rate: float
    experiments: float
    binary_queries: float
    phase_queries: float
    classical_samples: float
    seed_base: int

    def __post_init__(self) -> None:
        if not (0.0 <= self.fail_rate <= 1.0):
            raise ValueError(f"fail_rate must lie in [0, 1], got {self.fail_rate!r}")
        if self.median_err_inf < 0.0 or self.median_err_l2 < 0.0:
            raise ValueError("error medians must be nonnegative")


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


# Largest budget: every integer up to 2^53 is a float.  Far above it the
# estimators' formulas overflow instead of failing with a domain error
# (bounded's alpha becomes 0, an infinite lattice size has no int, a draw
# count leaves int64).
_MAX_BUDGET = 2.0**53


def _budget(name: str, value) -> float:
    """``value`` as a float budget: a real number (not bool), finite, positive, at most 2^53."""
    budget = as_positive(name, value)
    # an integer compares exactly, so 2^53 + 1 is refused although it rounds to 2^53
    if budget > _MAX_BUDGET or (isinstance(value, numbers.Integral) and int(value) > _MAX_BUDGET):
        raise ValueError(f"{name} must be at most 2^53, got {value!r}")
    return budget


@dataclass(frozen=True)
class ExperimentConfig:
    """A battery or sweep request: distribution, estimator, budgets, seeds.

    Exactly one of ``n`` / ``n_grid`` supplies the experiment budget; the
    phase-model estimators additionally need ``nprime`` or ``nprime_grid``.
    ``trials`` and ``seed`` must be integers (``seed`` at least 0), ``delta``
    and ``l2`` real numbers (bool rejected).  Every budget must be a real
    number too (bool and numeric strings rejected); it is converted to float
    here and must be finite, positive and at most 2^53; grids must be
    strictly increasing.  Trial t of any battery uses the generator seeded
    with ``seed + t``; sweeps advance the base by ``trials`` per grid point so
    no two trials anywhere share a stream.
    """

    rv: RandomVariable
    estimator: str
    trials: int
    seed: int
    delta: float = 0.05
    n: float | None = None
    nprime: float | None = None
    l2: float | None = None
    noise: NoiseModel = NoiseModel()
    n_grid: tuple[float, ...] = ()
    nprime_grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.estimator not in ESTIMATOR_IDS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; expected one of {ESTIMATOR_IDS}"
            )
        object.__setattr__(self, "trials", as_integer("trials", self.trials, at_least=1))
        object.__setattr__(self, "seed", as_integer("seed", self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be at least 0, got {self.seed}")
        object.__setattr__(self, "delta", as_real("delta", self.delta))
        check_open_unit("delta", self.delta)
        for name in ("n", "nprime"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _budget(name, value))
        for name in ("n_grid", "nprime_grid"):
            object.__setattr__(self, name, tuple(_budget(name, x) for x in getattr(self, name)))
        for name, grid in (("n_grid", self.n_grid), ("nprime_grid", self.nprime_grid)):
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{name} must be strictly increasing, got {grid}")
        if self.n is None and not self.n_grid:
            raise ValueError("either n or n_grid must be given")
        if self.n is not None and self.n_grid:
            raise ValueError("n and n_grid are mutually exclusive")
        if self.nprime is not None and self.nprime_grid:
            raise ValueError("nprime and nprime_grid are mutually exclusive")
        if self.estimator in _NEEDS_NPRIME and self.nprime is None and not self.nprime_grid:
            raise ValueError(f"estimator {self.estimator!r} needs nprime or nprime_grid")
        if self.l2 is not None:
            object.__setattr__(self, "l2", as_real("l2", self.l2))
            check_norm_bound("l2", self.l2)


@dataclass(frozen=True)
class BatteryResult:
    """Per-trial reports (None where a trial raised), messages, aggregate row."""

    reports: tuple[EstimateReport | None, ...]
    errors: tuple[str | None, ...]
    row: SweepRow


def _single_run(
    cell: Plan, rv: RandomVariable, noise: NoiseModel, rng: np.random.Generator
) -> EstimateReport:
    est, n, nprime, delta = cell.estimator, cell.n, cell.nprime, cell.delta
    if est == "bounded":
        return bounded_estimator(rv, cell.L2, n, delta, noise, rng)
    if est == "near_optimal":
        return near_optimal_estimator(rv, n, delta, noise, rng)
    if est == "euclidean":
        return euclidean_estimator(rv, n, delta, noise, rng)
    if est == "qphase":
        return qphase_estimator(rv, n, nprime, delta, noise, rng)
    if est == "qlowprec":
        return qlowprec_estimator(rv, n, nprime, delta, noise, rng)
    if est == "phase_model":
        return phase_model_dispatch(rv, n, nprime, delta, noise, rng)
    # classical baseline: the plan's one table of int(n) draws, through the sub-Gaussian routine
    ledger = CostLedger()
    (count, _), = cell.draws
    estimate, _ = subgaussian_estimate(rv, count, delta, rng, ledger)
    return EstimateReport(estimate, mean(rv), ledger, "classical", {"n": float(n), "delta": float(delta)})


def error_bound(
    estimator: str,
    rv: RandomVariable,
    n: float,
    nprime: float | None,
    delta: float,
    l2: float | None = None,
) -> tuple[str, float]:
    """(error field, threshold) a run is scored against for the failure rate.

    Thresholds follow each estimator's stated rate with unit leading constant;
    the dispatcher inherits the bound of the estimator its plan's branch runs,
    with 1 (the a-priori diameter) for the trivial branch.
    """
    d = rv.d
    log_term = math.log2(d / delta)
    if estimator == "phase_model":
        inner = plan(estimator, d, n, nprime, delta, None).parts
        if not inner:
            return "err_inf", 1.0
        estimator = inner[0].estimator
    if estimator == "bounded":
        bound_l2 = l2 if l2 is not None else moments(rv).exp_norm2
        return "err_inf", math.sqrt(bound_l2) * log_term / n
    if estimator in ("near_optimal", "euclidean"):
        return "err_l2", math.sqrt(moments(rv).cov_trace) * log_term / n
    if estimator == "qphase":
        return "err_inf", max(math.sqrt(d) / n, d / nprime) * log_term
    if estimator == "qlowprec":
        return "err_inf", max(1.0 / math.sqrt(n), d / nprime) * log_term
    if estimator == "classical":
        return "err_l2", math.sqrt(moments(rv).cov_trace / n) + math.sqrt(
            spectral_norm(rv) * math.log2(2.0 / delta) / n
        )
    raise ValueError(f"unknown estimator {estimator!r}")


def _plan_cell(config: ExperimentConfig) -> tuple[Plan, str, float]:
    """A cell's plan and (error field, bound), or one ValueError line that names the cell.

    Refused: a bound that is not finite, a failed plan, a certain round or draw table past a wall.
    """
    est, rv = config.estimator, config.rv
    try:
        field_name, bound = error_bound(est, rv, config.n, config.nprime, config.delta, config.l2)
        if not math.isfinite(bound):
            raise ValueError(
                f"the {est} error bound is not finite ({bound}):"
                " the distribution's moments or the budgets overflow float64"
            )
        l2 = (config.l2 if config.l2 is not None else moments(rv).exp_norm2) if est == "bounded" else None
        cell = plan(est, rv.d, config.n, config.nprime, config.delta, l2)
        for m, _ in cell.rounds:
            if config.noise.mode == "perturbed":
                check_lattice_cap(GridSpec(m=m, d=rv.d))
            check_axis_walls(m)
        for rows, cols in cell.draws:
            check_draw_table(rows, cols)
    except ValueError as exc:
        raise ValueError(f"{est} cell n={config.n!r} nprime={config.nprime!r}: {exc}") from None
    return cell, field_name, bound


def run_trials(config: ExperimentConfig) -> BatteryResult:
    """Execute one battery: ``trials`` seeded runs at the config's fixed budgets.

    Trial t uses ``default_rng(seed + t)``; under perturbed noise the noise
    table is reseeded per trial the same way.  A cell that every trial would
    refuse is refused once, before the first (:func:`_plan_cell`).  A
    trial that raises a domain error (``ValueError``) or hits the memory wall
    (``MemoryError``) is recorded as a message and counted as a failure; it
    contributes nothing to the medians or the ledger totals (no ledger
    escapes a raised run).  Any other exception is a program fault and
    propagates.  Every trial failing is an error.
    """
    if config.n is None:
        raise ValueError("run_trials needs a fixed n (use run_sweep for grids)")
    if config.estimator in _NEEDS_NPRIME and config.nprime is None:
        raise ValueError(f"estimator {config.estimator!r} needs a fixed nprime")
    cell, field_name, bound = _plan_cell(config)
    reports: list[EstimateReport | None] = []
    errors: list[str | None] = []
    for t in range(config.trials):
        rng = np.random.default_rng(config.seed + t)
        noise = config.noise
        if noise.mode == "perturbed":
            noise = replace(noise, seed=noise.seed + t)
        try:
            reports.append(_single_run(cell, config.rv, noise, rng))
            errors.append(None)
        except (ValueError, MemoryError) as exc:
            reports.append(None)
            errors.append(f"{type(exc).__name__}: {exc}")
    good = [r for r in reports if r is not None]
    if not good:
        raise RuntimeError(
            f"all {config.trials} trials failed; first error: {errors[0]}"
        )
    exceed = sum(1 for r in good if getattr(r, field_name) > bound)
    fail_rate = (exceed + (config.trials - len(good))) / config.trials
    row = SweepRow(
        estimator=config.estimator,
        n=float(config.n),
        nprime=None if config.nprime is None else float(config.nprime),
        d=config.rv.d,
        delta=float(config.delta),
        median_err_inf=float(np.median([r.err_inf for r in good])),
        median_err_l2=float(np.median([r.err_l2 for r in good])),
        fail_rate=fail_rate,
        experiments=sum(r.ledger.experiments for r in good),
        binary_queries=sum(r.ledger.binary_queries for r in good),
        phase_queries=sum(r.ledger.phase_queries for r in good),
        classical_samples=sum(r.ledger.classical_samples for r in good),
        seed_base=config.seed,
    )
    return BatteryResult(reports=tuple(reports), errors=tuple(errors), row=row)


def run_sweep(config: ExperimentConfig) -> list[BatteryResult]:
    """One battery per grid point; point p starts its seeds at seed + p*trials.

    Grids combine as a cartesian product ordered n-major; a config without
    grids degenerates to a single battery.  Every point is checked before any runs.
    """
    ns = config.n_grid if config.n_grid else (config.n,)
    nps = config.nprime_grid if config.nprime_grid else (config.nprime,)
    points = [
        replace(config, n=n, nprime=nprime, n_grid=(), nprime_grid=(), seed=config.seed + p * config.trials)
        for p, (n, nprime) in enumerate((a, b) for a in ns for b in nps)
    ]
    for point in points:
        _plan_cell(point)
    return [run_trials(point) for point in points]


def fit_slope(rows, x_field: str, y_field: str) -> tuple[float, float, float]:
    """Ordinary least squares of log2(y) on log2(x): (slope, intercept, r^2).

    Needs at least four rows and strictly positive finite values on both
    fields.  A constant y gives slope 0 and r^2 = 1 (the fit is exact).
    """
    xs = np.array([float(getattr(r, x_field)) for r in rows])
    ys = np.array([float(getattr(r, y_field)) for r in rows])
    if xs.size < 4:
        raise ValueError(f"need at least 4 rows to fit a slope, got {xs.size}")
    for name, arr in ((x_field, xs), (y_field, ys)):
        if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
            raise ValueError(f"field {name!r} must be positive and finite for a log-log fit")
    lx, ly = np.log2(xs), np.log2(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_res = float(resid @ resid)
    centered = ly - ly.mean()
    ss_tot = float(centered @ centered)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-18 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), float(r2)


# --- file interfaces -------------------------------------------------------


def _jsonable(obj):
    """Best-effort conversion of report payloads to JSON-encodable values."""
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def report_to_dict(report: EstimateReport) -> dict[str, Any]:
    return {
        "estimator": report.estimator_id,
        "estimate": [float(x) for x in report.estimate],
        "truth": [float(x) for x in report.truth],
        "err_inf": report.err_inf,
        "err_l2": report.err_l2,
        "ledger": report.ledger.as_dict(),
        "params": _jsonable(report.params),
        "diagnostics": _jsonable(report.diagnostics),
    }


def export(rows, fmt: str, path: str) -> str:
    """Write SweepRows to ``path`` as CSV or JSON.

    CSV columns follow SWEEP_COLUMNS exactly; JSON mirrors the field names.
    Floats are written in Python's shortest round-trip form, so parsed values
    reproduce the originals bit for bit, +-inf included (``Infinity`` in JSON;
    :func:`load_rows` reads the JSON back); files are UTF-8 with a trailing
    newline.  An empty list yields a header-only CSV / an empty JSON array.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    cells = [{c: getattr(r, c) for c in SWEEP_COLUMNS} for r in rows]
    if fmt == "csv":
        lines = [",".join(SWEEP_COLUMNS)]
        lines += [",".join("" if v is None else str(v) for v in row.values()) for row in cells]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps(cells, indent=1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def load_rows(path: str) -> list[SweepRow]:
    """Read back a JSON row export (the inverse of export(..., 'json', ...))."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    rows = []
    for doc in raw:
        doc = {c: doc[c] for c in SWEEP_COLUMNS}
        doc["d"] = int(doc["d"])
        doc["seed_base"] = int(doc["seed_base"])
        rows.append(SweepRow(**doc))
    return rows


# --- the standard battery --------------------------------------------------
#
# Three fixed distributions exercise the estimators from different corners:
# generic unit-ball support, axis-aligned support (two-valued coordinates),
# and a rare-heavy/common-light mixture whose norm spread drives the shell
# truncation path.  All live in the unit ball so every estimator accepts
# them; ``scale`` shrinks them into [-1/4, 1/4]^d for the phase models.

_BALL_SEED = 20240516
_BALL_PAIRS = 12


def battery_ball(d: int, scale: float = 1.0) -> RandomVariable:
    """Antipodal pairs of seeded unit-ball points, weighted 2:1 within a pair.

    The uneven weights keep the mean small but nonzero — an exactly-zero mean
    would sit on a lattice point of every measurement grid and collapse the
    error of the quantum estimators to zero.
    """
    rng = np.random.default_rng(_BALL_SEED)
    gauss = rng.standard_normal((_BALL_PAIRS, d))
    radii = rng.random(_BALL_PAIRS) ** (1.0 / d)
    pts = gauss * (radii / np.linalg.norm(gauss, axis=1))[:, None]
    values = np.empty((2 * _BALL_PAIRS, d))
    values[0::2] = pts
    values[1::2] = -pts
    prob = np.tile([2.0, 1.0], _BALL_PAIRS) / (3.0 * _BALL_PAIRS)
    return RandomVariable(prob=prob, values=scale * values)


def battery_basis(d: int, scale: float = 1.0) -> RandomVariable:
    """X = e_i with probability p_i = 2(i+1)/(d(d+1))."""
    check_array_bytes(8 * d * d, f"basis battery memory wall: {d} x {d} entries")
    prob = 2.0 * np.arange(1.0, d + 1.0) / (d * (d + 1.0))
    return RandomVariable(prob=prob, values=scale * np.eye(d))


def battery_heavylight(d: int, scale: float = 1.0) -> RandomVariable:
    """A common light point and a rare heavy one, 20x apart in norm."""
    values = np.vstack([0.05 * np.eye(1, d), np.full(d, 1.0 / math.sqrt(d))])
    return RandomVariable(prob=np.array([0.75, 0.25]), values=scale * values)


# Each battery's builder by name; a sweep builds only the one it names.
BATTERIES = {"ball": battery_ball, "basis": battery_basis, "heavylight": battery_heavylight}


def standard_battery(d: int, scale: float = 1.0) -> dict[str, RandomVariable]:
    return {name: build(d, scale) for name, build in BATTERIES.items()}
