"""Tests for the finite random-variable layer.

Derived expectations are recomputed by small brute-force oracles next to the
assertions that freeze them.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from qmeanlab.probspace import (
    RandomVariable,
    clamp_scalar,
    clamp_vec,
    exact_quantile,
    mean,
    moments,
    norm_rv,
    parse_distribution_spec,
    serialize_distribution_spec,
    shift,
    truncate_normalized,
)


def uniform_rv(values) -> RandomVariable:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    k = values.shape[0]
    return RandomVariable(prob=np.full(k, 1.0 / k), values=values)


def point_mass(value) -> RandomVariable:
    return uniform_rv([np.atleast_1d(value)])


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
        assert summ.spectral_norm == 0.0

    def test_plus_minus_one(self):
        # E[X^2] - E[X]^2 = 1 - 0 = 1 for X uniform on {+1, -1}
        summ = moments(uniform_rv([[1.0], [-1.0]]))
        assert abs(summ.cov_trace - 1.0) < 1e-12
        assert abs(summ.spectral_norm - 1.0) < 1e-8

    def test_spectral_norm_antisymmetric_start(self):
        # Sigma = [[1,-1],[-1,1]] has top eigenvector (1,-1)/sqrt(2), exactly
        # orthogonal to the all-ones vector; its eigenvalue is still 2.
        summ = moments(uniform_rv([[1.0, -1.0], [-1.0, 1.0]]))
        assert abs(summ.spectral_norm - 2.0) < 1e-8

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
            assert -1e-12 <= summ.spectral_norm <= summ.cov_trace + 1e-9

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
            assert abs(moments(rv).spectral_norm - expected) < 1e-12 * max(1.0, expected)

    def test_overflowed_covariance_keeps_its_trace(self):
        # finite values whose covariance overflows: the norm is bounded by the trace
        with np.errstate(over="ignore"):
            summ = moments(uniform_rv([[1e200], [-1e200]]))
        assert summ.cov_trace == math.inf
        assert summ.spectral_norm == math.inf


class TestClamp:
    def test_inclusive_upper_boundary(self):
        assert np.array_equal(clamp_vec([3.0, 4.0], 0.0, 5.0), [3.0, 4.0])

    def test_strict_lower_boundary(self):
        assert np.array_equal(clamp_vec([3.0, 4.0], 5.0, 10.0), [0.0, 0.0])

    def test_zero_vector_maps_to_zero(self):
        assert np.array_equal(clamp_vec([0.0, 0.0], 0.0, 1.0), [0.0, 0.0])

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(4) * rng.choice([0.1, 1.0, 10.0])
            a = rng.random()
            b = a + rng.random() + 1e-6
            once = clamp_vec(x, a, b)
            assert np.array_equal(clamp_vec(once, a, b), once)

    def test_infinite_upper_bound(self):
        assert np.array_equal(clamp_vec([3.0, 4.0], 1.0, math.inf), [3.0, 4.0])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            clamp_vec([1.0], 2.0, 1.0)

    def test_scalar_sign_preserved(self):
        assert clamp_scalar(-0.7, 0.0, 1.0) == -0.7
        assert clamp_scalar(1.2, 0.0, 1.0) == 0.0
        assert clamp_scalar(0.5, 0.5, 1.0) == 0.0  # strict lower bound


def brute_quantile(values, probs, p):
    """Independent oracle: scan support descending, first x with CCDF >= p."""
    order = np.argsort(values)[::-1]
    acc = 0.0
    for i in order:
        acc += probs[i]
        if acc >= p - 1e-12:
            return values[i]
    return values[order[-1]]


class TestExactQuantile:
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
        # sum_j a_j * mean(truncate(Y, a_{j-1}, a_j)) + mean(clamp(Y, a_k, inf))
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
            tail = rv.prob @ np.array([clamp_vec(row, prev, math.inf) for row in rv.values])
            total += tail
            assert np.linalg.norm(total - mean(rv), ord=np.inf) < 1e-12


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
        # parse renormalizes by the (float) sum; for a clean document that is /1.0
        assert np.allclose(back.prob, rv.prob, atol=1e-16, rtol=0)
        assert back.labels == rv.labels

    def test_serialized_document_is_valid_json_schema(self):
        rv = uniform_rv([[1.0, 2.0]])
        doc = json.loads(serialize_distribution_spec(rv))
        assert set(doc) == {"d", "omega", "prob", "values"}
