"""Hash a fixed set of seeded estimator outputs, to check that a change keeps them byte-identical.

    python3 tools/seeded_digest.py

Runs the quantum estimators of the tree this tool sits in on a fixed grid of
cases and prints one line: the number of documents, how many are reports and
how many refusals, and one sha256 over all of them.  A change that must not
move any seeded stream prints the same line as its parent.

The cases, each under three noises (ideal, perturbed (0.05, 0.01) and
perturbed (0.5, 0.6), noise seed offset as the CLI's) and trial seeds 0-2:

- ``bounded`` (L2 = E||X||_2) and ``near_optimal`` on the d = 2 and d = 3
  standard batteries at n in {16, 64};
- ``qphase`` and ``qlowprec`` on the x0.25 standard batteries at d = 2 and
  d = 3 over five (n, n'), and on the fractional-phase family at d' in {2, 4}
  (b = 1010...) over three;
- ``euclidean`` on the d = 2 and d = 8 standard batteries at n in {4, 8, 32}:
  refused below log2(d/delta), the classical branch at n = 8 <= d = 8, the
  quantum branch above d;
- ``phase_model_dispatch`` on the x0.25 standard batteries at d = 2 and
  d = 8 over four (n, n'): the trivial branch at (4, 2), the low-precision
  one at (7, 32) on d = 8, the high-precision one elsewhere, and at (8, 16)
  on d = 8 the refusal of its n' by the high-precision estimator.

Each case gives one document: its key and either the estimator's
``report_to_dict`` or, when the estimator refuses the inputs with a
ValueError (a lattice cap, a budget too small), the one-line message.  The
documents are hashed as sorted-key JSON lines in case order.  The perturbed
cases at m^d above 2^16 amplitudes take the two-thread stages of a perturbed
round, so on a host with two or more CPUs the digest covers them too.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qmeanlab.cli import NOISE_SEED_OFFSET  # noqa: E402
from qmeanlab.hardness import fractional_phase_rv  # noqa: E402
from qmeanlab.harness import report_to_dict, standard_battery  # noqa: E402
from qmeanlab.oracles import NoiseModel  # noqa: E402
from qmeanlab.probspace import moments  # noqa: E402
from qmeanlab.quantum import (  # noqa: E402
    bounded_estimator,
    euclidean_estimator,
    near_optimal_estimator,
    phase_model_dispatch,
    qlowprec_estimator,
    qphase_estimator,
)

DELTA = 0.1
SEEDS = (0, 1, 2)
NOISES = {"ideal": None, "perturbed:0.05,0.01": (0.05, 0.01), "perturbed:0.5,0.6": (0.5, 0.6)}
SHELL_BUDGETS = (16, 64)
PHASE_BUDGETS = ((4, 2), (8, 16), (16, 8), (32, 64), (64, 16))
FRACPHASE_BUDGETS = ((4, 2), (8, 16), (32, 64))
EUCLIDEAN_BUDGETS = (4, 8, 32)
DISPATCH_BUDGETS = ((4, 2), (7, 32), (8, 16), (32, 64))


def _noise(name: str, seed: int) -> NoiseModel:
    if NOISES[name] is None:
        return NoiseModel.ideal()
    return NoiseModel.perturbed(*NOISES[name], seed=seed + NOISE_SEED_OFFSET)


def _cases():
    """(key, call) per case, in a fixed order; call(noise, rng) returns a report."""
    for d in (2, 3):
        for name, rv in standard_battery(d).items():
            l2 = moments(rv).exp_norm2
            for n in SHELL_BUDGETS:
                yield (
                    ("bounded", f"{name}-d{d}", n),
                    lambda noise, rng, rv=rv, l2=l2, n=n: bounded_estimator(
                        rv, l2, n, DELTA, noise, rng
                    ),
                )
                yield (
                    ("near_optimal", f"{name}-d{d}", n),
                    lambda noise, rng, rv=rv, n=n: near_optimal_estimator(rv, n, DELTA, noise, rng),
                )
    phase_cells = [
        (f"{name}-d{d}-x0.25", rv, n, nprime)
        for d in (2, 3)
        for name, rv in standard_battery(d, 0.25).items()
        for n, nprime in PHASE_BUDGETS
    ] + [
        (f"fracphase-d{dp}", fractional_phase_rv(dp, n, np.arange(dp) % 2 == 0), n, nprime)
        for dp in (2, 4)
        for n, nprime in FRACPHASE_BUDGETS
    ]
    for label, rv, n, nprime in phase_cells:
        for est in (qphase_estimator, qlowprec_estimator):
            yield (
                (est.__name__.removesuffix("_estimator"), label, n, nprime),
                lambda noise, rng, est=est, rv=rv, n=n, nprime=nprime: est(
                    rv, n, nprime, DELTA, noise, rng
                ),
            )
    for d in (2, 8):
        for name, rv in standard_battery(d).items():
            for n in EUCLIDEAN_BUDGETS:
                yield (
                    ("euclidean", f"{name}-d{d}", n),
                    lambda noise, rng, rv=rv, n=n: euclidean_estimator(rv, n, DELTA, noise, rng),
                )
        for name, rv in standard_battery(d, 0.25).items():
            for n, nprime in DISPATCH_BUDGETS:
                yield (
                    ("phase_model", f"{name}-d{d}-x0.25", n, nprime),
                    lambda noise, rng, rv=rv, n=n, nprime=nprime: phase_model_dispatch(
                        rv, n, nprime, DELTA, noise, rng
                    ),
                )


def main() -> int:
    digest = hashlib.sha256()
    reports = refusals = 0
    for key, call in _cases():
        for noise_name in NOISES:
            for seed in SEEDS:
                doc = {"case": [*key, noise_name, seed]}
                try:
                    report = call(_noise(noise_name, seed), np.random.default_rng(seed))
                except ValueError as exc:
                    doc["refused"] = str(exc)
                    refusals += 1
                else:
                    doc["report"] = report_to_dict(report)
                    reports += 1
                digest.update((json.dumps(doc, sort_keys=True) + "\n").encode())
    print(f"{reports + refusals} documents ({reports} reports, {refusals} refusals)"
          f" sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
