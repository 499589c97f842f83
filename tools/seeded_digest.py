"""Hash a fixed set of seeded estimator outputs, to check that a change keeps them byte-identical.

    python3 tools/seeded_digest.py

Runs the quantum estimators of the tree this tool sits in on a fixed grid of
cases and prints three lines.  The first gives the number of documents, how
many are reports and how many refusals, and one sha256 over all of them.  A
change that must not move any seeded stream prints the same first line as
its parent.

A CDF inversion rarely flips a draw when its law moves by an ulp, so the
first line can stay put while the laws behind it change.  The second line
gives one sha256 over the raw bytes of five kinds of those laws, in the order
the cases reach them: every distinct noise table the cases perturb with,
redrawn by the uncached ``_deviation_table.__wrapped__`` at its first use;
in the ideal rounds, every table of closed-form laws (``gridqft._fejer_laws``:
the whole laws of an axis of at most one tile, and the blocks hit on a wider
one) and every table of block masses of a streamed axis
(``gridqft._fejer_blocks``); and, in the perturbed rounds, every
last-coordinate marginal of a direct transform (the column masses of
``gridqft._last_axis_columns``) and every table of last-coordinate marginals
of the autocorrelation route (``gridqft._last_axis_marginals``).  A change
that must keep those laws' bits prints the same second line as its parent.

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

The third line covers the instances the estimators run on: one sha256 over
the documents of ``qmeanlab hard`` (its stdout, stderr and exit code, run
in-process) on a fixed list of ``--params`` (``HARD_CASES``: each family
with seeded and with explicit bits, both normalizations, fractional n, a
low instance at d = 16384, whose metadata moments are read without any
d x d covariance, and the family refusals), then the ``serialize_distribution_spec`` text of every
``standard_battery`` at d in {2, 3, 16} and scale 1 and 0.25.  A change that
must keep every instance's bits and every refusal's text prints the same
third line as its parent.

Each case gives one document: its key and either the estimator's
``report_to_dict`` or, when the estimator refuses the inputs with a
ValueError (a lattice cap, a budget too small), the one-line message.  The
documents are hashed as sorted-key JSON lines in case order.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qmeanlab import cli, gridqft, oracles  # noqa: E402
from qmeanlab.cli import NOISE_SEED_OFFSET  # noqa: E402
from qmeanlab.hardness import fractional_phase_rv  # noqa: E402
from qmeanlab.harness import report_to_dict, standard_battery  # noqa: E402
from qmeanlab.oracles import NoiseModel  # noqa: E402
from qmeanlab.probspace import moments, serialize_distribution_spec  # noqa: E402
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
HARD_CASES = (
    ("low", "n=4", "d=16", "sigma=1.0", "alpha=4", "seed=0"),
    ("low", "n=2", "d=8", "seed=3"),
    ("low", "n=1", "d=4", "alpha=2", "b=01"),
    ("low", "n=2", "d=16", "sigma=0.3", "alpha=4", "b=01100110"),
    ("low", "n=1", "d=16384", "alpha=2", "seed=0"),
    ("high", "n=4", "d=4", "seed=1"),
    ("high", "n=8", "d=4", "alpha=2", "normalization=d2", "seed=2"),
    ("high", "n=4", "d=2", "sigma=0.5", "alpha=4", "normalization=2d2", "seed=5"),
    ("fracphase", "d=4", "n=8"),
    ("fracphase", "d=8", "n=20", "seed=2"),
    ("fracphase", "d=4", "n=8", "b=1010"),
    ("fracphase", "d=2", "n=3.5", "b=01"),
    ("fracphase", "d=4", "n=6.25", "seed=7"),
    # refusals
    ("low", "n=8", "d=4", "alpha=2"),
    ("low", "n=3", "d=8", "alpha=1"),
    ("low", "n=1", "d=6", "alpha=2"),
    ("low", "n=0", "d=4"),
    ("low", "n=1", "d=4", "alpha=0"),
    ("low", "n=3.5", "d=16"),
    ("low", "n=1", "d=4", "alpha=2", "b=11"),
    ("low", "n=1", "d=4", "alpha=2", "b=0101"),
    ("low", "n=1", "d=4", "alpha=2", "b=1x"),
    ("low", "n=1", "d=4", "alpha=2", "sigma=1e308"),
    ("low", "d=16"),
    ("low", "waffles=3"),
    ("high", "n=2", "d=3"),
    ("high", "n=2", "d=0"),
    ("high", "n=2", "d=2", "alpha=0"),
    ("high", "n=3", "d=2", "alpha=1"),
    ("high", "n=2", "d=2", "alpha=1"),
    ("high", "n=4", "d=4", "normalization=d3"),
    ("high", "n=4", "d=4", "seed=-1"),
    ("fracphase", "d=8", "n=4"),
    ("fracphase", "d=3", "n=4"),
    ("fracphase", "d=0", "n=4"),
    ("fracphase", "d=4", "n=8", "b=101"),
    ("fracphase", "d=2", "n=nan"),
    ("fracphase", "d=2", "n=inf"),
)
BATTERY_SHAPES = ((2, 1.0), (2, 0.25), (3, 1.0), (3, 0.25), (16, 1.0), (16, 0.25))


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


def _hash_laws(laws) -> list[int]:
    """Patch the law builders the estimators call so that ``laws`` takes their raw bytes.

    Each distinct noise table is redrawn by the uncached function when the
    cases first use it; every other law is taken as it is built.  Returns the
    counts [noise tables, closed-form law tables, block-mass tables,
    last-axis masses, autocorrelation marginal tables], updated as the cases
    run.
    """
    counts = [0, 0, 0, 0, 0]
    seen = set()
    cached = oracles._deviation_table
    laws_of, blocks_of = gridqft._fejer_laws, gridqft._fejer_blocks
    columns, marginals = gridqft._last_axis_columns, gridqft._last_axis_marginals

    def deviation_table(noise, spec):
        if (noise, spec) not in seen:
            seen.add((noise, spec))
            laws.update(cached.__wrapped__(noise, spec).tobytes())
            counts[0] += 1
        return cached(noise, spec)

    def taken(build, kind):
        def hashed(*args):
            out = build(*args)
            laws.update(out.tobytes())
            counts[kind] += 1
            return out

        return hashed

    def last_axis_columns(*args):
        cols, mass = columns(*args)
        laws.update(mass.tobytes())
        counts[3] += 1
        return cols, mass

    oracles._deviation_table = deviation_table
    gridqft._fejer_laws = taken(laws_of, 1)
    gridqft._fejer_blocks = taken(blocks_of, 2)
    gridqft._last_axis_columns = last_axis_columns
    gridqft._last_axis_marginals = taken(marginals, 4)
    return counts


def _instance_documents():
    """One document per ``HARD_CASES`` entry, then one per battery spec, in order."""
    for family, *pairs in HARD_CASES:
        argv = ["hard", "--family", family, "--params", *pairs]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        yield {"argv": argv, "code": code, "out": out.getvalue(), "err": err.getvalue()}
    for d, scale in BATTERY_SHAPES:
        for name, rv in standard_battery(d, scale).items():
            yield {"battery": [name, d, scale], "spec": serialize_distribution_spec(rv)}


def main() -> int:
    digest = hashlib.sha256()
    reports = refusals = 0
    laws = hashlib.sha256()
    counts = _hash_laws(laws)
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
    print(f"{counts[0]} noise tables, {counts[1]} closed-form law tables, {counts[2]} block-mass"
          f" tables, {counts[3]} last-axis masses and {counts[4]} autocorrelation marginal tables"
          f" sha256 {laws.hexdigest()}")
    instances = hashlib.sha256()
    docs = list(_instance_documents())
    for doc in docs:
        instances.update((json.dumps(doc, sort_keys=True) + "\n").encode())
    print(f"{len(docs)} instance documents ({len(HARD_CASES)} hard, {len(docs) - len(HARD_CASES)}"
          f" battery specs) sha256 {instances.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
