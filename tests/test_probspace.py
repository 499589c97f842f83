"""Tests for the finite random-variable layer.

Derived expectations are recomputed by small brute-force oracles next to the
assertions that freeze them.
"""

from __future__ import annotations

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qmeanlab.probspace import (
    RandomVariable,
    exact_quantile,
    mean,
    moments,
    norm_rv,
    parse_distribution_spec,
    serialize_distribution_spec,
    shift,
    spectral_norm,
    truncate_normalized,
)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_WEIGHTS = st.floats(0.0, 1.0)


def uniform_rv(values) -> RandomVariable:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    k = values.shape[0]
    return RandomVariable(prob=np.full(k, 1.0 / k), values=values)


def point_mass(value) -> RandomVariable:
    return uniform_rv([np.atleast_1d(value)])


@st.composite
def _unit_box_rvs(draw, scale: float) -> RandomVariable:
    """Random variables of 1-6 outcomes in d <= 4 with values in [-scale, scale]."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 4))
    weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    values = draw(st.lists(st.floats(-scale, scale), min_size=k * d, max_size=k * d))
    return RandomVariable(prob=weights / weights.sum(), values=np.reshape(values, (k, d)))


class TestRandomVariable:
    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ValueError, match="sum to 1"):
            RandomVariable(prob=[0.5, 0.4], values=[[1.0], [2.0]])

    def test_rejects_negative_probability(self):
        with pytest.raises(ValueError, match="nonnegative"):
            RandomVariable(prob=[1.5, -0.5], values=[[1.0], [2.0]])

    @pytest.mark.parametrize(
        "prob, values",
        [
            ([math.nan, 1.0], [[1.0], [2.0]]),
            ([0.5, 0.5], [[math.nan], [2.0]]),
            ([0.5, 0.5], [[1.0], [math.inf]]),
            ([0.5, 0.5], [[1.0], [-math.inf]]),
        ],
    )
    def test_rejects_non_finite_entries(self, prob, values):
        with pytest.raises(ValueError, match="finite"):
            RandomVariable(prob=prob, values=values)

    def test_rejects_ragged_shapes(self):
        with pytest.raises(ValueError, match="rows"):
            RandomVariable(prob=[0.5, 0.5], values=[[1.0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="distinct"):
            RandomVariable(prob=[0.5, 0.5], values=[[1.0], [2.0]], labels=("a", "a"))

    def test_arrays_are_read_only(self):
        rv = uniform_rv([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError):
            rv.values[0, 0] = 9.0
        with pytest.raises(ValueError):
            rv.prob[0] = 0.9

    def test_writeable_input_is_copied(self):
        prob, values = np.array([0.25, 0.75]), np.array([[1.0, 0.0], [0.0, 1.0]])
        rv = RandomVariable(prob=prob, values=values)
        prob[:] = 0.5
        values[0, 0] = 9.0
        assert rv.prob.tolist() == [0.25, 0.75]
        assert rv.values.tolist() == [[1.0, 0.0], [0.0, 1.0]]

    def test_read_only_owned_table_is_taken_as_is(self):
        values = np.array([[1.0, 0.0], [0.0, 1.0]])
        values.flags.writeable = False
        assert RandomVariable(prob=[0.5, 0.5], values=values).values is values
        # a read-only view does not own its data: copied
        view = values[:, :1]
        assert RandomVariable(prob=[0.5, 0.5], values=view).values is not view


class TestMean:
    def test_uniform_basis_vectors(self):
        rv = uniform_rv(np.eye(4))
        assert np.allclose(mean(rv), [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_point_mass(self):
        assert np.allclose(mean(point_mass([0.3, -0.1])), [0.3, -0.1], atol=0)

    def test_symmetric_pair(self):
        rv = uniform_rv([[1.0, 0.0], [-1.0, 0.0]])
        assert np.allclose(mean(rv), [0.0, 0.0], atol=0)


class TestMoments:
    def test_uniform_basis_trace(self):
        # Tr(Sigma) = 1 - sum p_i^2 = 1 - 4*(1/16) = 0.75 for uniform e_i, d=4
        summ = moments(uniform_rv(np.eye(4)))
        assert abs(summ.cov_trace - 0.75) < 1e-12

    def test_point_mass_has_zero_covariance(self):
        summ = moments(point_mass([2.0, 3.0]))
        assert summ.cov_trace == 0.0
        assert spectral_norm(point_mass([2.0, 3.0])) == 0.0

    def test_plus_minus_one(self):
        # E[X^2] - E[X]^2 = 1 - 0 = 1 for X uniform on {+1, -1}
        rv = uniform_rv([[1.0], [-1.0]])
        assert abs(moments(rv).cov_trace - 1.0) < 1e-12
        assert abs(spectral_norm(rv) - 1.0) < 1e-8

    def test_covariance_past_the_memory_wall_is_refused(self):
        # 8 * 11586^2 bytes pass 2^30: refused before the d x d table is formed;
        # the O(K·d) summary builds no such table and has no wall
        with pytest.raises(ValueError, match=r"^covariance memory wall: 11586 x 11586 entries > 2\^30 bytes$"):
            spectral_norm(point_mass(np.zeros(11586)))
        assert spectral_norm(point_mass(np.zeros(2048))) == 0.0
        assert moments(point_mass(np.zeros(11586))).cov_trace == 0.0

    def test_spectral_norm_antisymmetric_start(self):
        # Sigma = [[1,-1],[-1,1]] has top eigenvector (1,-1)/sqrt(2), exactly
        # orthogonal to the all-ones vector; its eigenvalue is still 2.
        assert abs(spectral_norm(uniform_rv([[1.0, -1.0], [-1.0, 1.0]])) - 2.0) < 1e-8

    def test_identity_trace_vs_norm_moments(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            k, d = rng.integers(2, 12), rng.integers(1, 6)
            p = rng.random(k) + 1e-3
            p /= p.sum()
            rv = RandomVariable(prob=p, values=rng.standard_normal((k, d)))
            summ = moments(rv)
            assert abs(summ.cov_trace - (summ.exp_norm2_sq - np.linalg.norm(mean(rv)) ** 2)) < 1e-10
            assert summ.exp_norm2**2 <= summ.exp_norm2_sq + 1e-12
            assert -1e-12 <= spectral_norm(rv) <= summ.cov_trace + 1e-9

    def test_spectral_norm_against_dense_eigensolver(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            k, d = rng.integers(2, 15), rng.integers(1, 7)
            p = rng.random(k) + 1e-3
            p /= p.sum()
            rv = RandomVariable(prob=p, values=rng.standard_normal((k, d)))
            mu = mean(rv)
            centered = rv.values - mu
            sigma = (centered * p[:, None]).T @ centered
            expected = float(np.linalg.eigvalsh(sigma)[-1])
            assert abs(spectral_norm(rv) - expected) < 1e-12 * max(1.0, expected)

    def test_overflowed_covariance_keeps_its_trace(self):
        # finite values whose covariance overflows: the norm is bounded by the trace
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # moments and spectral_norm handle the overflow themselves
            rv = uniform_rv([[1e200], [-1e200]])
            assert moments(rv).cov_trace == math.inf
            assert spectral_norm(rv) == math.inf


class TestClamp:
    def test_rejects_bad_bounds(self):
        # every shell clamp needs 0 <= a < b
        for a, b in [(2.0, 1.0), (1.0, 1.0), (-0.5, 1.0), (math.nan, 1.0)]:
            with pytest.raises(ValueError, match="clamp bounds"):
                truncate_normalized(point_mass([0.5, 0.5]), a, b)


def brute_quantile(values, probs, p):
    """Independent oracle: scan support descending, first x with CCDF >= p."""
    order = np.argsort(values)[::-1]
    acc = 0.0
    for i in order:
        acc += probs[i]
        if acc >= p - 1e-12:
            return values[i]
    return values[order[-1]]


def loop_quantile(rv_scalar, p):
    """Reference: the CCDF accumulated one support value at a time from the top."""
    support, inverse = np.unique(rv_scalar.values[:, 0], return_inverse=True)
    weight = np.zeros(support.shape[0])
    np.add.at(weight, inverse, rv_scalar.prob)
    acc = 0.0
    for i in range(support.shape[0] - 1, -1, -1):
        acc += weight[i]
        if acc >= p - 1e-12:
            return float(support[i])
    return float(support[0])


class TestExactQuantile:
    @settings(deadline=None, max_examples=300)
    @given(
        values=st.lists(st.sampled_from([-2.0, -0.5, 0.0, 0.1, 1.0, 3.0]) | _FINITE, min_size=1, max_size=12),
        data=st.data(),
    )
    def test_has_the_bits_of_the_loop(self, values, data):
        weights = np.array(data.draw(st.lists(_WEIGHTS, min_size=len(values), max_size=len(values))))
        assume(weights.sum() > 0.0)
        rv = RandomVariable(prob=weights / weights.sum(), values=np.array(values)[:, None])
        # p at random, at 0 and 1, and on the accumulated sums themselves
        sums = np.cumsum(np.sort(rv.prob)[::-1]).tolist()
        p = data.draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0] + [min(x, 1.0) for x in sums]))
        assert exact_quantile(rv, p) == loop_quantile(rv, p)

    def test_uniform_three_points(self):
        rv = uniform_rv([[1.0], [2.0], [3.0]])
        assert exact_quantile(rv, 0.5) == 2.0
        assert exact_quantile(rv, 1.0 / 3.0) == 3.0
        assert exact_quantile(rv, 0.125) == 3.0
        assert exact_quantile(rv, 1.0) == 1.0

    def test_point_mass(self):
        for p in (1e-9, 0.3, 1.0):
            assert exact_quantile(point_mass(7.0), p) == 7.0

    def test_p_zero_returns_support_max(self):
        rv = uniform_rv([[1.0], [5.0], [2.0]])
        assert exact_quantile(rv, 0.0) == 5.0

    def test_matches_brute_oracle_and_guarantee(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            k = int(rng.integers(2, 10))
            vals = rng.choice([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0], size=k)
            p = rng.random(k) + 1e-3
            p /= p.sum()
            rv = RandomVariable(prob=p, values=vals[:, None])
            last = math.inf
            for q in (1e-6, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
                got = exact_quantile(rv, q)
                assert got == brute_quantile(vals, p, q)
                # Pr[X >= Q(p)] >= p, and monotone nonincreasing in p
                assert float(p[vals >= got].sum()) >= q - 1e-9
                assert got <= last
                last = got

    @settings(deadline=None, max_examples=80)
    @given(
        values=st.lists(_FINITE, min_size=1, max_size=8),
        data=st.data(),
        ps=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
    )
    def test_non_increasing_in_p(self, values, data, ps):
        weights = np.array(data.draw(st.lists(_WEIGHTS, min_size=len(values), max_size=len(values))))
        assume(weights.sum() > 0.0)
        rv = RandomVariable(prob=weights / weights.sum(), values=np.array(values)[:, None])
        lo, hi = sorted(ps)
        assert exact_quantile(rv, lo) >= exact_quantile(rv, hi)

    def test_rejects_multivariate(self):
        with pytest.raises(ValueError, match="univariate"):
            exact_quantile(uniform_rv([[1.0, 2.0]]), 0.5)


class TestTruncateNormalized:
    def test_point_mass_inside_shell(self):
        out = truncate_normalized(point_mass([3.0, 4.0]), 0.0, 5.0)
        assert np.allclose(out.values, [[0.6, 0.8]], atol=1e-15)

    def test_point_mass_below_shell(self):
        out = truncate_normalized(point_mass([3.0, 4.0]), 5.0, 10.0)
        assert np.array_equal(out.values, [[0.0, 0.0]])

    def test_mixed_shell(self):
        out = truncate_normalized(uniform_rv([[1.0, 0.0], [3.0, 0.0]]), 2.0, 4.0)
        assert np.allclose(out.values, [[0.0, 0.0], [0.75, 0.0]], atol=1e-15)

    def test_output_in_unit_ball(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            rv = uniform_rv(rng.standard_normal((6, 3)) * 3.0)
            a = rng.random() * 2.0
            out = truncate_normalized(rv, a, a + rng.random() + 0.1)
            assert np.all(np.linalg.norm(out.values, axis=1) <= 1.0 + 1e-12)

    def test_telescoping_decomposition(self):
        # sum_j a_j * mean(truncate(Y, a_{j-1}, a_j)) + E[Y; ||Y|| > a_k]
        # reconstructs mean(Y) exactly: every outcome lands in exactly one shell.
        rng = np.random.default_rng(17)
        for _ in range(20):
            rv = uniform_rv(rng.standard_normal((8, 3)) * rng.choice([0.5, 2.0, 8.0]))
            cuts = np.sort(rng.random(4) * 6.0) + 1e-3
            total = np.zeros(3)
            prev = 0.0
            for a in cuts:
                total += a * mean(truncate_normalized(rv, prev, float(a)))
                prev = float(a)
            beyond = np.linalg.norm(rv.values, axis=1) > prev
            total += rv.prob @ np.where(beyond[:, None], rv.values, 0.0)
            assert np.linalg.norm(total - mean(rv), ord=np.inf) < 1e-12

    @settings(deadline=None, max_examples=80)
    @given(data=st.data(), bounds=st.tuples(st.floats(0.0, 4.0), st.floats(1e-3, 4.0)))
    def test_shell_properties(self, data, bounds):
        rv = data.draw(_unit_box_rvs(scale=3.0), label="rv")
        a_lo, width = bounds
        a_hi = a_lo + width
        out = truncate_normalized(rv, a_lo, a_hi)
        assert np.array_equal(out.prob, rv.prob)
        out_norms = np.linalg.norm(out.values, axis=1)
        assert np.all(out_norms <= 1.0 + 1e-12)
        norms = np.linalg.norm(rv.values, axis=1)
        inside = (a_lo < norms) & (norms <= a_hi)
        assert np.array_equal(out.values[~inside], np.zeros_like(out.values[~inside]))
        for row, new in zip(rv.values[inside], out.values[inside]):
            # same direction, length scaled by 1/a_hi
            assert abs(np.linalg.norm(new) - np.linalg.norm(row) / a_hi) <= 1e-12
            cross = new * np.linalg.norm(row) - row * np.linalg.norm(new)
            assert np.abs(cross).max() <= 1e-12


class TestNormShift:
    def test_norm_rv(self):
        out = norm_rv(point_mass([3.0, 4.0]))
        assert out.d == 1 and out.values[0, 0] == 5.0
        two = norm_rv(uniform_rv([[1.0, 0.0], [0.0, -1.0]]))
        assert np.array_equal(two.values, [[1.0], [1.0]])

    def test_shift(self):
        out = shift(point_mass([1.0, 1.0]), np.array([1.0, 1.0]))
        assert np.array_equal(out.values, [[0.0, 0.0]])
        rng = np.random.default_rng(2)
        rv = uniform_rv(rng.standard_normal((5, 2)))
        eta = rng.standard_normal(2)
        assert np.allclose(mean(shift(rv, eta)), mean(rv) - eta, atol=1e-15)
        assert np.array_equal(shift(rv, np.zeros(2)).values, rv.values)

    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_shift_moves_mean_by_eta(self, data):
        rv = data.draw(_unit_box_rvs(scale=1.0), label="rv")
        eta = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=rv.d, max_size=rv.d)))
        assert np.abs(mean(shift(rv, eta)) - (mean(rv) - eta)).max() <= 1e-12

    def test_shift_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shift(point_mass([1.0, 2.0]), np.zeros(3))


class TestDistributionSpecIO:
    def test_parse_minimal(self):
        rv = parse_distribution_spec(
            '{"d": 2, "prob": [0.5, 0.5], "values": [[1, 0], [0, 1]]}'
        )
        assert rv.d == 2 and rv.size == 2

    def test_rejects_bad_probability_sum(self):
        with pytest.raises(ValueError, match="'prob'"):
            parse_distribution_spec('{"d": 1, "prob": [0.5, 0.4], "values": [[1], [2]]}')

    def test_rejects_ragged_rows_naming_index(self):
        with pytest.raises(ValueError, match="row 1"):
            parse_distribution_spec('{"d": 2, "prob": [0.5, 0.5], "values": [[1, 0], [1]]}')

    def test_renormalizes_tiny_drift(self):
        rv = parse_distribution_spec(
            '{"d": 1, "prob": [0.5000000001, 0.5], "values": [[1], [2]]}'
        )
        assert abs(float(rv.prob.sum()) - 1.0) <= 1e-12

    def test_rejects_integer_beyond_float_range_naming_field(self):
        huge = "1" + "0" * 400  # 401 digits: json keeps it an int, float() overflows
        with pytest.raises(ValueError, match="field 'values'"):
            parse_distribution_spec(f'{{"d": 1, "prob": [1.0], "values": [[{huge}]]}}')
        with pytest.raises(ValueError, match="field 'prob'"):
            parse_distribution_spec(f'{{"d": 1, "prob": [{huge}], "values": [[0.5]]}}')

    def test_rejects_missing_field(self):
        with pytest.raises(ValueError, match="'values'"):
            parse_distribution_spec('{"d": 1, "prob": [1.0]}')

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(33)
        p = rng.random(5) + 1e-3
        p /= p.sum()
        rv = RandomVariable(
            prob=p,
            values=rng.standard_normal((5, 3)) * 1e-7,
            labels=("a", "b", "c", "d", "e"),
        )
        back = parse_distribution_spec(serialize_distribution_spec(rv))
        assert np.array_equal(back.values, rv.values)
        assert np.array_equal(back.prob, rv.prob)
        assert back.labels == rv.labels

    @settings(deadline=None, max_examples=80)
    @given(data=st.data())
    def test_round_trip_bit_exact_property(self, data):
        k = data.draw(st.integers(1, 6), label="k")
        d = data.draw(st.integers(1, 3), label="d")
        weights = np.array(data.draw(st.lists(_WEIGHTS, min_size=k, max_size=k), label="w"))
        assume(weights.sum() > 0.0)
        values = data.draw(st.lists(_FINITE, min_size=k * d, max_size=k * d), label="values")
        labels = data.draw(st.none() | st.lists(st.text(), min_size=k, max_size=k, unique=True))
        rv = RandomVariable(
            prob=weights / weights.sum(),
            values=np.reshape(values, (k, d)),
            labels=() if labels is None else tuple(labels),
        )
        back = parse_distribution_spec(serialize_distribution_spec(rv))
        assert back.prob.tobytes() == rv.prob.tobytes()
        assert back.values.tobytes() == rv.values.tobytes()  # -0.0 included
        assert back.labels == rv.labels

    def test_serialized_document_is_valid_json_schema(self):
        rv = uniform_rv([[1.0, 2.0]])
        doc = json.loads(serialize_distribution_spec(rv))
        assert set(doc) == {"d", "omega", "prob", "values"}
