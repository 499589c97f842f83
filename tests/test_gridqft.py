"""Tests for the grid register simulator.

The dense kernel matrix is the independent oracle for the FFT implementation;
the phase-estimation concentration sweep pins the sign conventions.
"""

from __future__ import annotations

import functools
import math
import os
import re
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from qmeanlab import gridqft
from qmeanlab.gridqft import (
    GridSpec,
    GridState,
    PhaseFunction,
    apply_phase_function,
    dense_qft_matrix,
    grid_axis_points,
    grid_points,
    inverse_qft,
    lattice_cap,
    linear_phase_marginals,
    measure,
    measurement_distribution,
    qft,
    sample_linear_overlay,
    state_from_amplitudes,
    uniform_superposition,
)
from qmeanlab.oracles import NoiseModel, linear_phase_function, perturb


def linear_phase(spec: GridSpec, slopes) -> PhaseFunction:
    """theta_u = sum_j slopes[j] * u_j — separable by construction."""
    slopes = np.atleast_1d(np.asarray(slopes, dtype=float))
    comps = tuple((lambda pts, s=s: s * pts) for s in slopes)
    return PhaseFunction(
        evaluate=lambda pts: pts @ slopes, separable=True, axis_components=comps
    )


def full_dense_kernel(spec: GridSpec) -> np.ndarray:
    """Brute-force m^d x m^d kernel e^{2*pi*i*m<u,v>}/m^{d/2}."""
    pts = grid_points(spec)
    return np.exp(2j * np.pi * spec.m * (pts @ pts.T)) / spec.m ** (spec.d / 2)


class TestGridGeometry:
    def test_axis_points_m2(self):
        assert np.array_equal(grid_axis_points(2), [-0.25, 0.25])

    def test_axis_points_m4(self):
        assert np.array_equal(grid_axis_points(4), [-0.375, -0.125, 0.125, 0.375])

    def test_m2_d2_points(self):
        pts = grid_points(GridSpec(m=2, d=2))
        expected = [[-0.25, -0.25], [-0.25, 0.25], [0.25, -0.25], [0.25, 0.25]]
        assert np.array_equal(pts, expected)

    def test_points_are_the_exact_odd_ratios(self):
        # the one index-to-point map gives the ratios (2a+1-m)/(2m) bit for bit
        for k in range(24):
            m = 2**k
            assert grid_axis_points(m).tobytes() == (np.arange(1.0 - m, m, 2.0) / (2 * m)).tobytes()
        for m, d in ((1, 3), (2, 4), (8, 3), (64, 2), (4096, 1), (16, 4), (256, 2)):
            axis = np.arange(1.0 - m, m, 2.0) / (2 * m)
            grids = np.meshgrid(*([axis] * d), indexing="ij")
            reference = np.stack([g.reshape(-1) for g in grids], axis=1)
            assert grid_points(GridSpec(m=m, d=d)).tobytes() == reference.tobytes()

    def test_points_symmetric_inside_open_box(self):
        for m in (2, 8, 64):
            axis = grid_axis_points(m)
            assert np.all(np.abs(axis) < 0.5)
            assert np.array_equal(axis, -axis[::-1])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            GridSpec(m=6, d=1)


class TestUniformSuperposition:
    def test_m2_d1(self):
        state = uniform_superposition(GridSpec(m=2, d=1)).materialized()
        assert np.allclose(state.tensor, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_m4_d2(self):
        state = uniform_superposition(GridSpec(m=4, d=2)).materialized()
        assert np.allclose(state.tensor, np.full((4, 4), 0.25), atol=1e-15)

    def test_unit_norm(self):
        for m, d in ((2, 1), (16, 3), (1024, 2)):
            state = uniform_superposition(GridSpec(m=m, d=d))
            assert state.is_product  # norm checked at construction


class TestApplyPhase:
    def test_zero_phase_is_identity(self):
        spec = GridSpec(m=4, d=2)
        state = uniform_superposition(spec)
        out = apply_phase_function(state, linear_phase(spec, [0.0, 0.0]))
        assert np.allclose(
            out.materialized().tensor, state.materialized().tensor, atol=1e-15
        )

    def test_constant_phase_leaves_distribution(self):
        spec = GridSpec(m=8, d=1)
        theta = PhaseFunction(
            evaluate=lambda pts: np.full(pts.shape[0], 0.7),
            separable=True,
            axis_components=(lambda pts: np.full(pts.shape[0], 0.7),),
        )
        out = apply_phase_function(uniform_superposition(spec), theta)
        (marginal,) = measurement_distribution(out)
        assert np.allclose(marginal, np.full(8, 1 / 8), atol=1e-15)

    def test_pi_phase_on_one_point(self):
        spec = GridSpec(m=2, d=1)
        theta = PhaseFunction(
            evaluate=lambda pts: np.where(pts[:, 0] > 0, np.pi, 0.0),
            separable=False,
        )
        out = apply_phase_function(uniform_superposition(spec), theta)
        r = 1 / math.sqrt(2)
        assert np.allclose(out.tensor, [r, -r], atol=1e-15)

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(4)
        spec = GridSpec(m=8, d=2)
        amps = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        amps /= np.linalg.norm(amps)
        state = state_from_amplitudes(spec, amps)
        theta = PhaseFunction(
            evaluate=lambda pts: np.sin(7 * pts[:, 0]) + pts[:, 1] ** 2, separable=False
        )
        out = apply_phase_function(state, theta)
        assert abs(np.linalg.norm(out.tensor.reshape(-1)) - 1.0) < 1e-14

    def test_separable_phase_product_vs_full_paths_agree(self):
        rng = np.random.default_rng(6)
        spec = GridSpec(m=8, d=3)
        slopes = rng.uniform(-20, 20, 3)
        theta = linear_phase(spec, slopes)
        on_product = apply_phase_function(uniform_superposition(spec), theta)
        on_full = apply_phase_function(uniform_superposition(spec).materialized(), theta)
        assert on_product.is_product and not on_full.is_product
        assert np.allclose(
            on_product.materialized().tensor, on_full.tensor, atol=1e-12
        )

    @pytest.mark.parametrize("m, d", [(8, 2), (4, 3), (512, 2)])  # 512^2: four chunks
    def test_overlay_multiplies_after_the_evaluate_factor(self, m, d):
        # before the transform, a perturbed phase's full tensor is the uniform
        # amplitude times e^{i*evaluate} times the overlay, bit for bit
        spec = GridSpec(m=m, d=d)
        noise = NoiseModel.perturbed(eps=0.3, eta=0.2, seed=m + d)
        phase = perturb(linear_phase_function(np.arange(1.0, d + 1.0) * m / 3), noise, spec)
        out = apply_phase_function(uniform_superposition(spec), phase)
        uniform = uniform_superposition(spec).materialized().tensor.reshape(-1)
        expected = uniform * np.exp(1j * phase.evaluate(grid_points(spec))) * phase.overlay
        assert out.tensor.reshape(-1).tobytes() == expected.tobytes()

    def test_nonseparable_phase_materializes_product_state(self):
        spec = GridSpec(m=4, d=2)
        theta = PhaseFunction(
            evaluate=lambda pts: pts[:, 0] * pts[:, 1], separable=False
        )
        out = apply_phase_function(uniform_superposition(spec), theta)
        assert not out.is_product


class TestQFT:
    def test_m2_axis_matrix(self):
        got = dense_qft_matrix(2)
        r = 1 / math.sqrt(2)
        expected = r * np.array(
            [
                [np.exp(1j * np.pi / 4), np.exp(-1j * np.pi / 4)],
                [np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)],
            ]
        )
        assert np.allclose(got, expected, atol=1e-15)
        # row products: off-diagonal 0, diagonal 1
        gram = got.conj() @ got.T
        assert np.allclose(gram, np.eye(2), atol=1e-15)

    def test_dense_unitarity_up_to_64(self):
        for m in (2, 4, 8, 16, 32, 64):
            q = dense_qft_matrix(m)
            assert np.abs(q.conj().T @ q - np.eye(m)).max() <= 1e-10

    def test_fft_matches_dense_axis(self):
        rng = np.random.default_rng(12)
        for m in (2, 4, 8, 16, 32):
            spec = GridSpec(m=m, d=1)
            x = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            x /= np.linalg.norm(x)
            state = state_from_amplitudes(spec, x)
            q = dense_qft_matrix(m)
            assert np.abs(qft(state).tensor - q @ x).max() <= 1e-10
            assert np.abs(inverse_qft(state).tensor - q.conj().T @ x).max() <= 1e-10

    def test_round_trip(self):
        rng = np.random.default_rng(13)
        for m, d in ((2, 3), (8, 2), (32, 1), (16, 3)):
            spec = GridSpec(m=m, d=d)
            x = rng.standard_normal(spec.points) + 1j * rng.standard_normal(spec.points)
            x /= np.linalg.norm(x)
            state = state_from_amplitudes(spec, x)
            back = inverse_qft(qft(state)).tensor.reshape(-1)
            assert np.abs(back - x).max() <= 1e-10

    def test_multi_axis_matches_full_dense_kernel(self):
        rng = np.random.default_rng(14)
        for m, d in ((4, 2), (8, 2), (8, 3), (16, 2)):
            spec = GridSpec(m=m, d=d)
            kernel = full_dense_kernel(spec)
            x = rng.standard_normal(spec.points) + 1j * rng.standard_normal(spec.points)
            x /= np.linalg.norm(x)
            state = state_from_amplitudes(spec, x)
            assert np.abs(qft(state).tensor.reshape(-1) - kernel @ x).max() <= 1e-10
            assert (
                np.abs(inverse_qft(state).tensor.reshape(-1) - kernel.conj().T @ x).max()
                <= 1e-10
            )

    def test_full_kernel_is_tensor_product_of_axes(self):
        for m, d in ((4, 2), (8, 2), (8, 3)):
            spec = GridSpec(m=m, d=d)
            axis = dense_qft_matrix(m)
            kron = axis
            for _ in range(d - 1):
                kron = np.kron(kron, axis)
            assert np.abs(full_dense_kernel(spec) - kron).max() <= 1e-10

    def test_product_path_matches_full_path(self):
        spec = GridSpec(m=16, d=2)
        theta = linear_phase(spec, [5.0, -3.0])
        prod = inverse_qft(apply_phase_function(uniform_superposition(spec), theta))
        full = inverse_qft(
            apply_phase_function(uniform_superposition(spec).materialized(), theta)
        )
        assert prod.is_product
        assert np.allclose(prod.materialized().tensor, full.tensor, atol=1e-12)


def random_state(spec: GridSpec, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(spec.points) + 1j * rng.standard_normal(spec.points)
    return x / np.linalg.norm(x)


class TestQFTProperties:
    @settings(deadline=None, max_examples=40)
    @given(k=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_unitary_at_random_m(self, k, seed):
        # inner products survive the transform: <Fx, Fy> = <x, y>
        spec = GridSpec(m=2**k, d=1)
        x, y = random_state(spec, seed), random_state(spec, seed + 1)
        for transform in (qft, inverse_qft):
            fx = transform(state_from_amplitudes(spec, x)).tensor
            fy = transform(state_from_amplitudes(spec, y)).tensor
            assert abs(np.vdot(fx, fy) - np.vdot(x, y)) <= 1e-12
            assert abs(np.linalg.norm(fx) - 1.0) <= 1e-12

    @settings(deadline=None, max_examples=40)
    @given(k=st.integers(0, 12), seed=st.integers(0, 2**32 - 1))
    def test_round_trip_at_random_m(self, k, seed):
        spec = GridSpec(m=2**k, d=1)
        x = random_state(spec, seed)
        state = state_from_amplitudes(spec, x)
        assert np.abs(inverse_qft(qft(state)).tensor - x).max() <= 1e-12
        assert np.abs(qft(inverse_qft(state)).tensor - x).max() <= 1e-12


class TestMeasurement:
    def test_uniform_distribution(self):
        spec = GridSpec(m=4, d=2)
        p = measurement_distribution(uniform_superposition(spec).materialized())
        assert np.allclose(p, np.full(16, 1 / 16), atol=1e-15)

    def test_basis_state_measures_its_point(self):
        spec = GridSpec(m=4, d=1)
        amps = np.zeros(4, dtype=complex)
        amps[2] = 1.0
        state = state_from_amplitudes(spec, amps)
        draws = measure(state, 5, np.random.default_rng(0))
        assert draws.shape == (5, 1)
        assert np.all(draws[:, 0] == grid_axis_points(4)[2])

    def test_product_marginals_multiply_to_joint(self):
        spec = GridSpec(m=8, d=2)
        theta = linear_phase(spec, [11.0, -4.0])
        state = inverse_qft(apply_phase_function(uniform_superposition(spec), theta))
        marginals = measurement_distribution(state)
        joint = measurement_distribution(state.materialized())
        outer = np.outer(marginals[0], marginals[1]).reshape(-1)
        assert np.abs(outer - joint).max() <= 1e-12
        assert abs(joint.sum() - 1.0) <= 1e-9

    def test_same_seed_same_outcome(self):
        spec = GridSpec(m=16, d=2)
        theta = linear_phase(spec, [9.0, 2.0])
        state = inverse_qft(apply_phase_function(uniform_superposition(spec), theta))
        a = measure(state, 8, np.random.default_rng(42))
        b = measure(state, 8, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_draw_at_the_top_of_the_cdf_takes_the_last_point(self):
        # a uniform at or above the final cumulative sum (which rounding can
        # leave below 1) clamps to the last lattice point in both forms
        class TopRng:
            def random(self, reps):
                return np.ones(reps)

        product = uniform_superposition(GridSpec(m=4, d=2))
        for state in (product, product.materialized()):
            draws = measure(state, 3, TopRng())
            assert np.all(draws == grid_axis_points(4)[-1])

    def test_empirical_frequencies(self):
        # the sampler's draws follow the Born law, in product and full form
        spec = GridSpec(m=4, d=2)
        theta = linear_phase(spec, [3.0, -5.0])
        product = inverse_qft(apply_phase_function(uniform_superposition(spec), theta))
        full = product.materialized()
        p = measurement_distribution(full)
        sigma = np.sqrt(p * (1 - p) / 100_000)
        for state in (product, full):
            draws = measure(state, 100_000, np.random.default_rng(7))
            # grid value (2a+1-m)/(2m) back to index a, then ravel row-major
            idx = np.rint(spec.m * draws + (spec.m - 1) / 2.0).astype(int)
            flat = idx[:, 0] * spec.m + idx[:, 1]
            counts = np.bincount(flat, minlength=spec.points) / 100_000
            assert np.all(np.abs(counts - p) <= 3 * sigma + 1e-4)


def register_marginals(spec: GridSpec, coeffs) -> tuple[np.ndarray, ...]:
    """The product-form FFT pipeline's marginals: the closed form's reference."""
    state = apply_phase_function(uniform_superposition(spec), linear_phase(spec, coeffs))
    return measurement_distribution(inverse_qft(state))


def assert_closed_form_matches_register(m: int, c: float) -> None:
    spec = GridSpec(m=m, d=1)
    (closed,) = linear_phase_marginals(spec, [c])
    (reference,) = register_marginals(spec, [c])
    assert np.abs(closed - reference).max() <= 1e-9, f"m={m} c={c!r}"


class TestLinearPhaseMarginals:
    @settings(deadline=None)
    @given(k=st.integers(0, 12), t=st.floats(-4.0, 4.0, allow_nan=False))
    def test_matches_the_register(self, k, t):
        assert_closed_form_matches_register(2**k, t * 2**k)

    @settings(deadline=None)
    @given(k=st.integers(0, 12), data=st.data())
    def test_lattice_hit_matches_the_register(self, k, data):
        m = 2**k
        b = data.draw(st.integers(0, m - 1))
        assert_closed_form_matches_register(m, 2 * np.pi * m * grid_axis_points(m)[b])

    def test_matches_the_register_at_m_2_20(self):
        assert_closed_form_matches_register(2**20, 0.37 * 2**20)

    def test_near_lattice_hit_keeps_its_peak(self):
        # 355 lies 3e-5 from 113*pi: within 6e-8 of a lattice hit at m = 256
        assert_closed_form_matches_register(256, 355.0)
        assert_closed_form_matches_register(64, 2 * np.pi * 64 * grid_axis_points(64)[5] + 1e-9)

    def test_product_axes(self):
        spec = GridSpec(m=16, d=3)
        coeffs = [11.0, -4.0, 2 * np.pi * 16 * grid_axis_points(16)[3]]
        closed = linear_phase_marginals(spec, coeffs)
        for a, b in zip(closed, register_marginals(spec, coeffs)):
            assert np.abs(a - b).max() <= 1e-12

    def test_single_point_axis(self):
        (p, q) = linear_phase_marginals(GridSpec(m=1, d=2), [0.7, -3.0])
        assert p.tolist() == [1.0] and q.tolist() == [1.0]

    def test_mass_check_holds_at_m_2_23(self):
        # the drift grows with m (a phase c ~ m resolves only to its ulp); the
        # tolerance grows with it, so the check stays quiet at the largest m
        m = 2**23
        (p,) = linear_phase_marginals(GridSpec(m=m, d=1), [0.123456789 * m])
        assert abs(float(p.sum()) - 1.0) <= 16 * m * 2.0**-52

    @pytest.mark.parametrize(
        "m, wall",
        [(2**28, "per-axis memory wall: m = 2^28 needs 2^31 bytes per axis > 2^30"),
         (2**53, "per-axis precision wall: m = 2^53 > 2^52 lattice points")],
    )
    def test_walls_refuse_before_allocating(self, monkeypatch, m, wall):
        def no_axis(m):
            raise AssertionError("an axis array was built past the wall")

        monkeypatch.setattr(gridqft, "grid_axis_points", no_axis)
        with pytest.raises(ValueError, match=re.escape(wall)):
            linear_phase_marginals(GridSpec(m=m, d=2), [1.0, 2.0])

    def test_walls_admit_every_m_up_to_2_27(self):
        for k in range(28):
            gridqft.check_axis_walls(2**k)

    def test_coefficient_count_must_match(self):
        with pytest.raises(ValueError, match="2 coefficients, expected 3"):
            linear_phase_marginals(GridSpec(m=4, d=3), [1.0, 2.0])

    def test_coeffs_need_a_separable_phase(self):
        with pytest.raises(ValueError, match="separable"):
            PhaseFunction(evaluate=lambda pts: pts @ [1.0], separable=False, coeffs=np.ones(1))


def fejer_sine_form(c: float, m: int) -> np.ndarray:
    """The Fejer law in its sine form, p_b = sin^2(m*y_b) / (m^2 sin^2 y_b), y_b = c/(2m) - pi*v_b.

    The tangent form's reference: the numerator is taken at the b of least
    sin^2 y_b, from that bin's rounded y_b, and an exact hit is a point mass.
    """
    pi_v = np.pi * grid_axis_points(m)
    p = np.subtract(c / (2 * m), pi_v)
    np.square(np.sin(p, out=p), out=p)
    peak = int(np.argmin(p))
    if p[peak] == 0.0:
        p[:] = 0.0
        p[peak] = 1.0
        return p
    y_peak = c / (2 * m) - pi_v[peak]
    return np.divide((math.sin(m * y_peak) / m) ** 2, p, out=p)


def fejer_cases(m: int) -> list[tuple[float, bool]]:
    """Ten seeded axis coefficients at m: six at random, two exact lattice hits and
    two within 1e-9 of one, each with whether it is a hit."""
    rng = np.random.default_rng(m)
    hits = [2 * np.pi * m * grid_axis_points(m)[b] for b in rng.integers(0, m, 4)]
    return (
        [(c, False) for c in rng.uniform(-4.0, 4.0, 6) * m]
        + [(c, True) for c in hits[:2]]
        + [(hits[2] + 1e-9, False), (hits[3] - 1e-9, False)]
    )


def sampled_axes(m: int, d: int, rows: np.ndarray, counts, seed: int) -> list[np.ndarray]:
    """:func:`gridqft.sample_linear_phase`'s draws, as lattice indices, one (row, axis) pair each."""
    pts = gridqft.sample_linear_phase(GridSpec(m=m, d=d), rows, counts, np.random.default_rng(seed))
    idx = np.rint(m * pts + (m - 1) / 2.0).astype(np.int64)
    return [chunk[:, j] for chunk in np.split(idx, np.cumsum(counts)[:-1]) for j in range(d)]


class TestLinearPhaseSampler:
    """The ideal round's sampler, :func:`gridqft.sample_linear_phase`, and its tangent-form laws."""

    @pytest.mark.parametrize("k", range(24))
    def test_tangent_form_is_within_8_ulp_of_the_sine_form(self, k):
        m = 2**k
        pi_v = np.pi * grid_axis_points(m)
        for c, hit in fejer_cases(m):
            (p,) = linear_phase_marginals(GridSpec(m=m, d=1), [c])
            reference = fejer_sine_form(c, m)
            # from m = 2^22 on an offset of 1e-9 is below c's ulp: still a hit
            if hit or (c / (2 * m) == pi_v).any():
                assert np.array_equal(p, reference), f"m={m} c={c!r}"
            else:
                reference -= p
                np.abs(reference, out=reference)
                reference /= p
                assert reference.max() <= 8 * 2.0**-52, f"m={m} c={c!r}"

    @pytest.mark.parametrize("k", [1, 10, 11, 14, 15, 20])
    def test_draws_follow_the_closed_form_laws(self, k):
        # chi-square of each (row, axis) pair's draws against its
        # linear_phase_marginals law, cells expected below 5 pooled: three rows
        # at d = 2 share calls, one of them peaked at the first entry of a row
        # and at the last (mass in the first and the last block)
        m = 2**k
        axis = grid_axis_points(m)
        rows = np.array([
            [0.61, -0.23],
            [-0.37, 0.08],
            [axis[0] + 0.4 / (2 * np.pi * m), axis[-1] - 0.3 / (2 * np.pi * m)],
        ]) * 2 * np.pi * m
        counts = [20_000, 15_000, 15_000]
        laws = [p for c in rows for p in linear_phase_marginals(GridSpec(m=m, d=2), c)]
        for pair, (drawn, law) in enumerate(zip(sampled_axes(m, 2, rows, counts, 5), laws)):
            observed = np.bincount(drawn, minlength=m)
            assert chisquare_pvalue(observed, law) > 1e-3, f"m={m} pair={pair}"

    @pytest.mark.parametrize("k", range(1, 21))
    def test_draws_are_the_per_axis_samplers_draw_for_draw(self, k):
        # the points of sample_marginals(linear_phase_marginals(...)) row after
        # row, on fixed seeds at d = 4 (an exact hit among the rows), and the
        # generator ends where they leave it
        m = 2**k
        spec = GridSpec(m=m, d=4)
        for seed in range(2):
            rows = np.random.default_rng(seed).uniform(-4.0, 4.0, (3, 4)) * m
            rows[1, 2] = 2 * np.pi * m * grid_axis_points(m)[m // 3]
            counts = [40, 1, 25]
            rng = np.random.default_rng(seed)
            reference = np.concatenate([
                gridqft.sample_marginals(linear_phase_marginals(spec, c), n, rng)
                for c, n in zip(rows, counts)
            ])
            drawn_rng = np.random.default_rng(seed)
            pts = gridqft.sample_linear_phase(spec, rows, counts, drawn_rng)
            assert np.array_equal(pts, reference), f"m={m} seed={seed}"
            assert drawn_rng.bit_generator.state == rng.bit_generator.state

    def test_an_exact_hit_is_a_point_mass(self):
        # a hit axis draws its peak every time at both widths, a tile's and a streamed one
        for m in (2**10, 2**17):
            b = m // 5
            rows = np.array([[2 * np.pi * m * grid_axis_points(m)[b], 0.3 * m]])
            drawn = sampled_axes(m, 2, rows, [500], 0)[0]
            assert (drawn == b).all()

    def test_no_sine_is_evaluated_over_the_lattice(self, monkeypatch):
        def no_sine(*args, **kwargs):
            raise AssertionError("an ideal round evaluated np.sin")

        monkeypatch.setattr(np, "sin", no_sine)
        for m in (2**8, 2**17):
            gridqft.sample_linear_phase(GridSpec(m=m, d=2), [[3.0, -5.0]], [10], np.random.default_rng(0))

    def test_rows_and_counts_must_agree(self):
        spec = GridSpec(m=4, d=2)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="2 repetition counts for 3 coefficient rows"):
            gridqft.sample_linear_phase(spec, np.zeros((3, 2)), [1, 2], rng)
        with pytest.raises(ValueError, match="3 coefficients, expected 2"):
            gridqft.sample_linear_phase(spec, np.zeros((2, 3)), [1, 2], rng)

    def test_walls_refuse_before_drawing(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="per-axis memory wall"):
            gridqft.sample_linear_phase(GridSpec(m=2**28, d=2), [1.0, 2.0], 5, rng)
        assert rng.bit_generator.state == state


def draw_indices_reference(p: np.ndarray, reps: int, rng: np.random.Generator) -> np.ndarray:
    """A single law's CDF inversion as a separate formula: one ``rng.random(reps)``
    searched (side="right") in all but the last entry of the normalised cumulative sum."""
    cdf = p / p.sum()
    return np.searchsorted(np.cumsum(cdf, out=cdf)[:-1], rng.random(reps), side="right")


@st.composite
def row_tables(draw):
    """A (G, width) table of masses, some of them 0, each row with positive mass,
    and the rows that a batch of entries names.

    Narrow rows draw every mass.  Rows wider than one block (``gridqft._BLOCK``)
    draw a few masses over zeros, at any entry or at an edge (the first and last
    entry of the row and of each block), so they hold zero-mass blocks and
    point masses at the edges of blocks and rows.
    """
    rows = draw(st.integers(1, 6))
    mass = st.floats(1e-300, 1e300)
    if draw(st.booleans()):
        width = draw(st.integers(1, 64))
        p = np.array(draw(st.lists(
            st.lists(st.one_of(st.just(0.0), mass), min_size=width, max_size=width)
            .filter(lambda r: sum(r) > 0),
            min_size=rows, max_size=rows,
        )))
    else:
        block = gridqft._BLOCK
        width = draw(st.integers(block + 1, 3 * block))
        edges = sorted({e for k in range(0, width, block) for e in (k, min(k + block, width) - 1)})
        entry = st.one_of(st.sampled_from(edges), st.integers(0, width - 1))
        p = np.zeros((rows, width))
        for row in p:
            for at, value in draw(st.lists(st.tuples(entry, mass), min_size=1, max_size=6)):
                row[at] = value
    which = np.array(draw(st.lists(st.integers(0, rows - 1), min_size=1, max_size=200)))
    return p, which


def edge_uniforms(size: int, seed: int) -> np.ndarray:
    """Seeded uniforms with every third one the largest below 1 and every fifth 0,
    so that some targets round to their row's end and the clamp fires."""
    u = np.random.default_rng(seed).random(size)
    u[::3] = np.nextafter(1.0, 0.0)
    u[::5] = 0.0
    return u


class TestOneCdfInversion:
    """:func:`gridqft._draw_in_rows` is the one CDF inversion of every Born draw."""

    @settings(deadline=None, max_examples=200)
    @given(case=row_tables(), seed=st.integers(0, 2**32 - 1))
    def test_every_draw_lands_on_positive_mass_in_its_own_row(self, case, seed):
        # at both levels of a streamed draw: the rows cut into blocks of
        # _BLOCK entries (the last one padded with zeros), each draw inverted
        # among its row's block masses and then, by its fraction, within the
        # block it hit; a clamped draw never reaches a zero-mass entry or block
        p, which = case
        u = edge_uniforms(which.size, seed)
        out, frac = gridqft._draw_in_rows(p, which, u, fractions=True)
        assert out.shape == frac.shape == which.shape
        assert np.all((0 <= out) & (out < p.shape[1]))
        assert np.all(p[which, out] > 0)
        assert np.all((0.0 <= frac) & (frac <= 1.0))
        assert np.array_equal(gridqft._draw_in_rows(p, which, u), out)
        block = gridqft._BLOCK
        blocks = -(-p.shape[1] // block)
        padded = np.zeros((p.shape[0], blocks * block))
        padded[:, : p.shape[1]] = p
        masses = padded.reshape(p.shape[0], blocks, block).sum(axis=2)
        hit, frac = gridqft._draw_in_rows(masses, which, u, fractions=True)
        assert np.all(masses[which, hit] > 0)
        hits, at = np.unique(which * blocks + hit, return_inverse=True)
        inner = gridqft._draw_in_rows(padded.reshape(-1, block)[hits], at, frac)
        assert np.all(p[which, hit * block + inner] > 0)

    def test_one_row_draws_what_a_single_law_inversion_draws(self):
        # seeded Fejer laws at every m = 2 .. 2^20: the one-row call draws the
        # indices of the single-law formula, draw for draw
        for k in range(1, 21):
            m = 2**k
            coeffs = np.random.default_rng(k).uniform(-4.0, 4.0, 4) * m
            for p in linear_phase_marginals(GridSpec(m=m, d=4), coeffs):
                reference = draw_indices_reference(p, 2000, np.random.default_rng(k))
                row = np.zeros(2000, dtype=np.int64)
                drawn = gridqft._draw_in_rows(p[None], row, np.random.default_rng(k).random(2000))
                assert np.array_equal(drawn, reference), f"m={m}"

    @pytest.mark.parametrize("m", [1, 2, 8, 1024])
    def test_lattice_points_are_the_axis_values(self, m):
        idx = np.arange(m).repeat(2).reshape(-1, 2)
        assert np.array_equal(gridqft._lattice_points(idx, m), grid_axis_points(m)[idx])


@st.composite
def perturbed_linear_phases(draw):
    """A perturbed linear phase on a random lattice within the lattice cap."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 9).filter(lambda k: 2 ** (k * d) <= lattice_cap()))
    spec = GridSpec(m=2**k, d=d)
    coeffs = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d))) * spec.m
    noise = NoiseModel.perturbed(eps=0.05, eta=0.01, seed=draw(st.integers(0, 2**32 - 1)))
    return spec, perturb(linear_phase_function(coeffs), noise, spec)


def sampled_law(spec: GridSpec, phase: PhaseFunction, reps: int):
    """What :func:`sample_linear_overlay` draws from, caught at its CDF inversions.

    Returns the last-coordinate masses of the first stage (its one-row table),
    the distinct last indices drawn and the unnormalised conditional slices of
    those indices (one row each, over the other coordinates in row-major
    order), caught at the second call of :func:`gridqft._draw_in_rows`.
    """
    calls = []
    draw_in_rows = gridqft._draw_in_rows

    def caught(p, which, u):
        idx = draw_in_rows(p, which, u)
        calls.append((p.copy(), idx))
        return idx

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gridqft, "_draw_in_rows", caught)
        rng = np.random.default_rng(0)
        pts = sample_linear_overlay(spec, phase.coeffs, phase.overlay, reps, rng)
    assert pts.shape == (reps, spec.d)
    assert len(calls) == (1 if spec.d == 1 else 2)
    (last, drawn), *rest = calls
    assert last.shape == (1, spec.m)
    return last[0], np.unique(drawn), rest[0][0] if rest else None


def register_law(spec: GridSpec, coeffs, noise: NoiseModel) -> np.ndarray:
    """The register's exact Born table of a perturbed linear phase, flat row-major."""
    phase = perturb(linear_phase_function(coeffs), noise, spec)
    return measurement_distribution(
        inverse_qft(apply_phase_function(uniform_superposition(spec), phase))
    )


LATTICES = [(8, 2), (16, 2), (4, 3), (8, 3)]


def chisquare_pvalue(counts: np.ndarray, law: np.ndarray) -> float:
    """Chi-square p-value of ``counts`` against ``law``, cells expected below 5 pooled."""
    draws = counts.sum()
    expected = law * draws / law.sum()
    keep = expected >= 5
    observed, expected = counts[keep], expected[keep]
    if not keep.all():
        observed = np.append(observed, counts[~keep].sum())
        expected = np.append(expected, draws - expected.sum())
    return chisquare(observed, expected).pvalue


class TestLinearPhaseJoint:
    """The Born law of a perturbed linear phase, drawn by :func:`sample_linear_overlay`."""

    @settings(deadline=None, max_examples=60)
    @given(case=perturbed_linear_phases())
    def test_matches_the_register(self, case):
        # the chain rule, last axis first: the masses are the register's last
        # marginal, and each drawn slice is the register's joint slice
        spec, phase = case
        register = measurement_distribution(
            inverse_qft(apply_phase_function(uniform_superposition(spec), phase))
        ).reshape(-1, spec.m)
        last, drawn, slices = sampled_law(spec, phase, reps=spec.m)
        assert np.abs(last - register.sum(axis=0)).max() <= 1e-12
        if spec.d == 1:
            assert slices is None
        else:
            assert slices.shape == (drawn.size, register.shape[0])
            assert np.abs(slices - register[:, drawn].T).max() <= 1e-12

    @pytest.mark.parametrize(
        "m, d, lasts",
        [pytest.param(m, d, 2, id=f"{m}-{d}") for m, d in LATTICES]
        + [pytest.param(m, d, 4, id=f"{m}-{d}-4lasts") for m, d in LATTICES]
        + [pytest.param(m, d, 1, id=f"{m}-{d}-1last") for m, d in LATTICES]
        + [pytest.param(16, 1, 4, id="16-1-4lasts")],
    )
    def test_batched_rows_draw_their_own_register_law(self, m, d, lasts):
        # four rows drawn in one call under one overlay, all sharing one last
        # coefficient (one transform), sharing them in pairs or each with its
        # own (the autocorrelation route; at d = 1 one transform each): each
        # row's points follow its own register law
        spec = GridSpec(m=m, d=d)
        noise = NoiseModel.perturbed(eps=0.3, eta=0.2, seed=m + d)
        base = np.random.default_rng(m * d).uniform(-4.0, 4.0, (lasts, d)) * m
        rows = np.resize(base, (4, d))
        rows[2:, :-1] += [[1.3], [-0.7]]
        counts = np.array([12_000, 8_000, 10_000, 6_000])
        overlay = perturb(linear_phase_function(rows[0]), noise, spec).overlay
        pts = sample_linear_overlay(spec, rows, overlay, counts, np.random.default_rng(1))
        assert pts.shape == (counts.sum(), d)
        idx = np.rint(m * pts + (m - 1) / 2.0).astype(np.int64)
        flat = np.ravel_multi_index(tuple(idx.T), (m,) * d)
        for g, chunk in enumerate(np.split(flat, np.cumsum(counts)[:-1])):
            observed = np.bincount(chunk, minlength=spec.points)
            assert chisquare_pvalue(observed, register_law(spec, rows[g], noise)) > 1e-3

    def test_one_first_stage_transform_per_distinct_last_coefficient(self, monkeypatch):
        # one distinct last coefficient takes one (m,)*d transform; from two
        # on, at d = 2 a fixed two (the row autocorrelation, in two chunks of
        # half the table) and one length-m transform per coefficient, and at
        # d = 1 one (1, m) transform per coefficient and nothing larger
        calls = []
        fft = np.fft.fft

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted)
        for d in (2, 1):
            spec = GridSpec(m=16, d=d)
            overlay = perturb(
                linear_phase_function(np.zeros(d)), NoiseModel.perturbed(0.1, 0.1, 4), spec
            ).overlay
            for lasts in ([5.0], [5.0, -7.0], [5.0, -7.0, 9.0], [5.0, -7.0, 9.0, 1.5, -2.5, 30.0]):
                rows = np.column_stack([np.arange(6.0), np.resize(lasts, 6)])[:, -d:]
                calls.clear()
                sample_linear_overlay(
                    spec, rows, overlay, [3, 4, 5, 6, 7, 8], np.random.default_rng(0)
                )
                if d == 1:
                    assert calls == [(1, 16)] * len(lasts)
                elif len(lasts) == 1:
                    assert calls == [(16, 16)]
                else:
                    assert calls == [(8, 16)] * 4 + [(len(lasts), 16)]

    def test_d1_block_holds_one_lattice_at_a_time(self):
        # at d = 1 the one row is the whole lattice: a block of 16 distinct
        # last coefficients peaks at a few lattice-sized buffers, not at one
        # per coefficient
        spec = GridSpec(m=2**12, d=1)
        overlay = perturb(
            linear_phase_function([0.0]), NoiseModel.perturbed(0.1, 0.1, 4), spec
        ).overlay
        rows = np.linspace(-2.0, 2.0, 16)[:, None] * spec.m

        def draw():
            sample_linear_overlay(spec, rows, overlay, np.full(16, 5), np.random.default_rng(0))

        draw()  # transform plans are cached on first use
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * spec.points * 16

    def test_rows_and_counts_must_agree(self):
        spec = GridSpec(m=4, d=2)
        overlay = np.ones(spec.points, dtype=complex)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="2 repetition counts for 3 coefficient rows"):
            sample_linear_overlay(spec, np.zeros((3, 2)), overlay, [1, 2], rng)
        with pytest.raises(ValueError, match="3 coefficients, expected 2"):
            sample_linear_overlay(spec, np.zeros((2, 3)), overlay, [1, 2], rng)

    def test_off_circle_overlay_entry_drifts_the_norm(self):
        spec = GridSpec(m=8, d=2)
        overlay = np.ones(spec.points, dtype=complex)
        overlay[5] = 2.0
        with pytest.raises(ValueError, match="state norm drifted to"):
            sample_linear_overlay(spec, [3.0, -1.0], overlay, 10, np.random.default_rng(0))

    def test_off_circle_overlay_entry_drifts_the_norm_of_a_block(self):
        # the autocorrelation route checks rho(0) before it draws anything
        spec = GridSpec(m=8, d=2)
        overlay = np.ones(spec.points, dtype=complex)
        overlay[5] = 2.0
        rows = np.array([[3.0, -1.0], [1.0, 2.0], [0.5, 7.5]])
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="state norm drifted to"):
            sample_linear_overlay(spec, rows, overlay, [4, 5, 6], rng)
        assert rng.bit_generator.state == state

    def test_overlay_must_cover_the_lattice(self):
        with pytest.raises(ValueError, match=r"expected \(64,\)"):
            sample_linear_overlay(
                GridSpec(m=8, d=2), [3.0, -1.0], np.ones(8, dtype=complex), 10,
                np.random.default_rng(0),
            )

    def test_rows_draw_their_own_point_masses(self):
        # each entry draws from the row it names, whatever the row's scale
        p = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1e-300, 0.0, 0.0]])
        which = np.random.default_rng(1).integers(0, 3, 500)
        out = gridqft._draw_in_rows(p, which, np.random.default_rng(2).random(which.size))
        assert np.array_equal(out, np.array([1, 2, 0])[which])

    def test_overlay_needs_coeffs_on_a_non_separable_phase(self):
        overlay = np.ones(4, dtype=complex)
        with pytest.raises(ValueError, match="overlay"):
            PhaseFunction(evaluate=lambda pts: pts[:, 0], separable=False, overlay=overlay)
        with pytest.raises(ValueError, match="overlay"):
            PhaseFunction(
                evaluate=lambda pts: pts[:, 0], separable=True, axis_components=(lambda u: u,),
                coeffs=np.ones(1), overlay=overlay,
            )


def last_axis_reference(spec: GridSpec, overlay: np.ndarray, c: float) -> np.ndarray:
    """The overlaid amplitudes under last coefficient ``c`` after the register's
    inverse transform along the last axis alone, as (m^{d-1}, m) columns."""
    state = overlay.reshape((spec.m,) * spec.d) * np.exp(1j * c * grid_axis_points(spec.m))
    state /= math.sqrt(spec.points)
    return gridqft._qft_axis(state, spec.d - 1, inverse=True).reshape(-1, spec.m)


def assert_routes_agree(spec: GridSpec, overlay: np.ndarray, lasts: np.ndarray) -> None:
    """The autocorrelation route's marginals and columns against the per-coefficient transform.

    Every marginal equals the reference's column masses, and every product
    column equals the reference's column times one unit factor, within 1e-12.
    """
    m = spec.m
    table = overlay.reshape(-1, m)
    marginals = gridqft._last_axis_marginals(
        *gridqft._row_autocorrelation(table), lasts, spec.points
    )
    heads = gridqft._overlay_columns(table, np.repeat(lasts, m), np.tile(np.arange(m), lasts.size))
    heads = heads.reshape(lasts.size, m, -1)
    for k, c in enumerate(lasts):
        ref = last_axis_reference(spec, overlay, c).T
        assert np.abs(marginals[k] - (np.abs(ref) ** 2).sum(axis=1)).max() <= 1e-12
        unit = np.exp(1j * np.angle((np.conj(ref) * heads[k]).sum(axis=1)))
        assert np.abs(heads[k] - unit[:, None] * ref).max() <= 1e-12


class TestAutocorrelationRoute:
    """A block with two or more distinct last coefficients skips their transforms."""

    @pytest.mark.parametrize("m, d", LATTICES)
    def test_matches_the_per_coefficient_transform(self, m, d):
        spec = GridSpec(m=m, d=d)
        noise = NoiseModel.perturbed(eps=0.3, eta=0.2, seed=7 * m + d)
        overlay = perturb(linear_phase_function(np.zeros(d)), noise, spec).overlay
        assert np.count_nonzero(np.abs(np.angle(overlay)) > 0.3) > 0  # bad points
        lasts = np.random.default_rng(m + d).uniform(-4.0, 4.0, 5) * m
        assert_routes_agree(spec, overlay, np.append(lasts, [0.0, 2 * np.pi]))

    @settings(deadline=None, max_examples=60)
    @given(
        k=st.integers(1, 4),
        d=st.integers(2, 3),
        lasts=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=5, unique=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_coefficient_transform_on_small_lattices(self, k, d, lasts, seed):
        spec = GridSpec(m=2**k, d=d)
        noise = NoiseModel.perturbed(eps=0.3, eta=0.2, seed=seed)
        overlay = perturb(linear_phase_function(np.zeros(d)), noise, spec).overlay
        assert_routes_agree(spec, overlay, np.array(lasts) * spec.m)

    def test_rounding_below_zero_is_clipped(self):
        # lattice hits under a flat overlay are point masses: every other mass
        # is 0 up to rounding, which must not leave it negative
        spec = GridSpec(m=64, d=2)
        table = np.ones((spec.m, spec.m), dtype=complex)
        lasts = np.pi * np.array([1.0 - spec.m, 1.0, 15.0, 2.0 * spec.m + 1.0])  # pi*(2b+1-m)
        marginals = gridqft._last_axis_marginals(
            *gridqft._row_autocorrelation(table), lasts, spec.points
        )
        assert (marginals >= 0.0).all()
        assert np.abs(marginals.sum(axis=1) - 1.0).max() <= 1e-12
        assert np.abs(marginals.max(axis=1) - 1.0).max() <= 1e-12

    def test_takes_less_memory_than_one_transform(self):
        # at m = 256, d = 2 the route's peak stays below the one m^d complex
        # buffer that a direct transform takes, and below the direct route's
        # (the same rows sharing one last coefficient)
        spec = GridSpec(m=256, d=2)
        overlay = perturb(
            linear_phase_function([0.0, 0.0]), NoiseModel.perturbed(0.05, 0.01, 3), spec
        ).overlay
        rows = np.array([[0.1, 0.2], [0.3, -0.1], [-0.2, 0.4]]) * spec.m
        shared = rows.copy()
        shared[:, -1] = rows[0, -1]

        def draw(block):
            sample_linear_overlay(spec, block, overlay, [25, 25, 25], np.random.default_rng(0))

        peaks = []
        for block in (shared, rows):
            draw(block)  # transform plans are cached on first use
            tracemalloc.start()
            try:
                draw(block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        direct, autocorrelation = peaks
        assert autocorrelation <= spec.points * 16 < direct


class TestUnitFactors:
    """e^{2i*h} from one tangent: every unit factor a perturbed round builds."""

    @pytest.mark.parametrize("top", [np.pi, 2.0**10 * np.pi, 2.0**22 * np.pi])
    def test_agrees_with_exp_on_the_unit_circle(self, top):
        theta = np.random.default_rng(int(math.log2(top))).uniform(-top, top, 2**16)
        theta = np.concatenate([theta, [-top, top, np.pi / 2, -np.pi, 2 * np.pi, 1e-9]])
        z = gridqft._unit_factors(theta / 2)
        assert np.abs(z - np.exp(1j * theta)).max() <= 1e-15
        assert np.abs(np.abs(z) - 1.0).max() <= 1e-15

    @settings(deadline=None, max_examples=200)
    @given(theta=st.floats(-(2.0**22) * np.pi, 2.0**22 * np.pi))
    def test_agrees_with_exp_at_any_angle(self, theta):
        z = complex(gridqft._unit_factors(np.array([theta / 2]))[0])
        assert abs(z - complex(np.exp(1j * theta))) <= 1e-15
        assert abs(abs(z) - 1.0) <= 1e-15

    def test_half_angle_edges(self):
        # +-pi/2 (tan near 1.6e16, q near 7.5e-33), zeros of both signs, and a
        # half-angle whose square underflows
        h = np.array([np.pi / 2, -np.pi / 2, 0.0, -0.0, 1e-300, -1e-300])
        z = gridqft._unit_factors(h.copy())
        assert np.isfinite(z.view(np.float64)).all()
        assert z.real.tolist() == [-1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
        assert np.abs(z.imag[:2] - np.sin(2 * h[:2])).max() <= 1e-31
        assert z.imag[2:].tolist() == [0.0, 0.0, 2e-300, -2e-300]
        assert np.signbit(z.imag).tolist() == [False, True, False, True, False, True]

    def test_overwrites_the_half_angles_with_their_tangents(self):
        h = np.random.default_rng(3).uniform(-np.pi, np.pi, 257)
        work = h.copy()
        out = np.empty(h.size, dtype=complex)
        assert gridqft._unit_factors(work, out) is out
        assert work.tobytes() == np.tan(h).tobytes()

    def test_parts_have_the_bits_of_one_call(self):
        # each entry depends on its own half-angle only: a table filled in
        # uneven parts, through views of it, has the bits of one call
        h = np.random.default_rng(4).uniform(-4.0, 4.0, 1001)
        whole = gridqft._unit_factors(h.copy())
        table, work = np.empty(h.size, dtype=complex), h.copy()
        for part in (slice(0, 1), slice(1, 500), slice(500, 501), slice(501, 1001)):
            gridqft._unit_factors(work[part], table[part])
        assert table.tobytes() == whole.tobytes()


class CountingPool:
    """Stands in for the split pool: records every part handed to it, then runs it there."""

    def __init__(self):
        self.pool = gridqft._split_pool()
        self.parts = []

    def submit(self, stage, part):
        self.parts.append(part)
        return self.pool.submit(stage, part)


def with_workers(monkeypatch, workers: int, call):
    """``call()`` with the worker count forced, and the parts the pool thread took.

    Every patch of ``monkeypatch`` is undone on the way out.
    """
    pool = CountingPool()
    monkeypatch.setattr(gridqft, "_WORKERS", workers)
    monkeypatch.setattr(gridqft, "_split_pool", lambda: pool)
    try:
        return call(), pool.parts
    finally:
        monkeypatch.undo()


def unit_table(rows: int, m: int, seed: int) -> np.ndarray:
    return np.exp(1j * np.random.default_rng(seed).uniform(-np.pi, np.pi, (rows, m)))


def last_axis_columns_reference(table: np.ndarray, c: float) -> np.ndarray:
    """The transformed columns of ``_last_axis_columns`` as one call over every row.

    Its twiddle comes from the same unit-factor kernel, since what it checks
    is the split over rows, not the kernel (``TestUnitFactors`` checks that).
    """
    m = table.shape[1]
    pre = np.conj(gridqft._axis_twiddle(m)[0]) / math.sqrt(table.size)
    cols = table * (gridqft._unit_factors(0.5 * c * grid_axis_points(m)) * pre)
    return np.fft.fft(cols, axis=-1, norm="ortho", out=cols)


def row_autocorrelation_reference(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_row_autocorrelation``'s (rho(s), rho(s-m)) by direct sums, row by row."""
    m = table.shape[1]
    # np.correlate(row, row, "full")[m-1+s] = sum_a row[a+s] * conj(row[a])
    rho = sum(np.correlate(row, row, mode="full") for row in table)
    return rho[m - 1 :], np.concatenate([[0.0], rho[: m - 1]])


class TestTwoThreadStages:
    """The m^d stages split over two threads give the bits of one thread."""

    @pytest.mark.parametrize(
        "m, d",
        # both sides of the cutoff at each d; at d = 1 the one-row table splits
        # only its noise table, and the autocorrelation never splits
        [(64, 1), (2**17, 1), (256, 2), (512, 2), (32, 3), (64, 3)],
        ids=lambda v: str(v),
    )
    @pytest.mark.parametrize("block", ["one-row", "shared-last", "distinct-lasts"])
    def test_sample_linear_overlay_is_byte_identical(self, monkeypatch, m, d, block):
        # one-row and shared-last blocks take the direct route, five rows with
        # distinct last coefficients the autocorrelation route (one transform
        # per coefficient at d = 1)
        from qmeanlab.oracles import _deviation_table

        spec = GridSpec(m=m, d=d)
        noise = NoiseModel.perturbed(eps=0.3, eta=0.2, seed=m + d)
        rows = np.random.default_rng(d).uniform(-4.0, 4.0, (5, d)) * m
        counts = np.array([7, 1, 12, 5, 9])
        if block == "one-row":
            rows, counts = rows[:1], counts[:1]
        elif block == "shared-last":
            rows[:, -1] = rows[0, -1]

        def draw():
            overlay = _deviation_table.__wrapped__(noise, spec)
            pts = sample_linear_overlay(spec, rows, overlay, counts, np.random.default_rng(3))
            return overlay, pts

        (overlay1, pts1), serial = with_workers(monkeypatch, 1, draw)
        (overlay2, pts2), split = with_workers(monkeypatch, 2, draw)
        assert serial == []
        assert bool(split) == (spec.points > gridqft._SPLIT_MIN)
        assert overlay1.tobytes() == overlay2.tobytes()
        assert pts1.tobytes() == pts2.tobytes()

    @pytest.mark.parametrize("rows", [303, 257])
    def test_odd_row_counts_split_to_the_bits_of_one_call(self, monkeypatch, rows):
        # tables of 303 and 257 rows of 256: the last-axis stage splits their
        # rows unevenly, and one thread and two give the bits of the one-call
        # reference; the autocorrelation runs three chunks (151, 151 and 1
        # rows; 128, 128 and 1) and matches the direct sums
        table = unit_table(rows, 256, rows)
        columns = functools.partial(gridqft._last_axis_columns, table, 5.5)
        (cols1, mass1), _ = with_workers(monkeypatch, 1, columns)
        (cols2, mass2), parts = with_workers(monkeypatch, 2, columns)
        assert parts == [slice((rows + 1) // 2, rows)]
        reference = last_axis_columns_reference(table, 5.5)
        assert cols1.tobytes() == cols2.tobytes() == reference.tobytes()
        assert mass1.tobytes() == mass2.tobytes() == gridqft._column_masses(reference).tobytes()
        # the autocorrelation stays on the calling thread at any worker count
        lags = functools.partial(gridqft._row_autocorrelation, table)
        (pos, neg), parts = with_workers(monkeypatch, 2, lags)
        assert parts == []
        pos_ref, neg_ref = row_autocorrelation_reference(table)
        assert np.abs(pos - pos_ref).max() <= 1e-12 * table.size
        assert np.abs(neg - neg_ref).max() <= 1e-12 * table.size

    @pytest.mark.parametrize("rows", [2, 3, 5, 8])
    def test_halves_cover_every_row_once(self, monkeypatch, rows):
        # the calling thread takes the first, larger half; the pool the rest
        hits = np.zeros(rows, dtype=np.int64)
        threads = {}

        def stage(part):
            hits[part] += 1
            threads[part.start] = threading.current_thread().name

        _, parts = with_workers(
            monkeypatch, 2, lambda: gridqft._in_halves(stage, rows, gridqft._SPLIT_MIN + 1)
        )
        half = (rows + 1) // 2
        assert parts == [slice(half, rows)]
        assert (hits == 1).all()
        assert threads[0] == threading.current_thread().name != threads[half]

    def test_small_and_one_row_stages_stay_on_the_calling_thread(self, monkeypatch):
        parts = []
        for rows, size in ((8, gridqft._SPLIT_MIN), (1, 2 * gridqft._SPLIT_MIN)):
            _, taken = with_workers(
                monkeypatch, 2, lambda: gridqft._in_halves(parts.append, rows, size)
            )
            assert taken == []
        assert parts == [slice(0, 8), slice(0, 1)]

    def test_worker_count_is_the_affinity(self):
        if hasattr(os, "sched_getaffinity"):
            assert gridqft._WORKERS == len(os.sched_getaffinity(0))

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity")
    def test_one_cpu_affinity_starts_no_thread(self):
        # a fresh process pinned to one CPU before the import reads one worker
        # and draws a table far above the cutoff with no thread but its own
        code = textwrap.dedent(
            """
            import os, threading
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
            import numpy as np
            from qmeanlab import gridqft
            from qmeanlab.oracles import NoiseModel, linear_phase_function, perturb

            spec = gridqft.GridSpec(m=512, d=2)
            noise = NoiseModel.perturbed(0.3, 0.2, 1)
            overlay = perturb(linear_phase_function([0.0, 0.0]), noise, spec).overlay
            rows = np.array([[3.0, 5.0], [1.0, -7.0], [2.0, 9.0]])
            gridqft.sample_linear_overlay(spec, rows, overlay, [4, 5, 6], np.random.default_rng(0))
            gridqft.sample_linear_overlay(spec, rows[0], overlay, 4, np.random.default_rng(0))
            pools = gridqft._split_pool.cache_info().misses
            print(gridqft._WORKERS, threading.active_count(), pools)
            """
        )
        src = str(Path(gridqft.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "1", "0"]

    def test_split_from_the_pool_thread_runs_serially(self, monkeypatch):
        # the pool's one thread would wait on itself if it split again
        seen = []

        def stage(part):
            seen.append((threading.current_thread().name, part))

        def task():
            gridqft._in_halves(stage, 4, gridqft._SPLIT_MIN + 1)

        monkeypatch.setattr(gridqft, "_WORKERS", 2)
        gridqft._split_pool().submit(task).result(timeout=30)
        assert len(seen) == 1
        name, part = seen[0]
        assert name.startswith("qmeanlab-split") and part == slice(0, 4)

    def test_errors_surface_after_both_halves_finish(self, monkeypatch):
        done = []

        def pool_half_fails(part):
            if part.start > 0:
                raise ArithmeticError("pool half")

        def caller_half_fails(part):
            if part.start == 0:
                raise ArithmeticError("calling half")
            time.sleep(0.05)
            done.append(part)

        for stage, message in ((pool_half_fails, "pool half"), (caller_half_fails, "calling half")):
            with pytest.raises(ArithmeticError, match=message):
                with_workers(monkeypatch, 2, lambda: gridqft._in_halves(stage, 4, 2**20))
        assert done == [slice(2, 4)]


class TestPhaseEstimationConcentration:
    def test_linear_phase_concentrates(self):
        # amplitudes m^{-1/2} e^{i m theta u}: after the inverse transform the
        # outcome lands within 4/m of theta/(2*pi) with probability >= 5/6.
        for m in (16, 64, 256):
            spec = GridSpec(m=m, d=1)
            axis = grid_axis_points(m)
            worst = 1.0
            thetas = np.concatenate(
                [
                    np.linspace(-2 * np.pi / 3, 2 * np.pi / 3, 101),
                    2 * np.pi * (axis + 1 / (2 * m)),  # half-bin offsets
                ]
            )
            for theta in thetas[np.abs(thetas) <= 2 * np.pi / 3]:
                state = apply_phase_function(
                    uniform_superposition(spec), linear_phase(spec, [m * theta])
                )
                (p,) = measurement_distribution(inverse_qft(state))
                ok = np.abs(axis - theta / (2 * np.pi)) <= 4 / m
                worst = min(worst, float(p[ok].sum()))
            assert worst >= 5 / 6 - 1e-9, f"m={m}: worst concentration {worst}"


class TestLatticeCap:
    def test_cap_blocks_materialization(self):
        # 4096^2 = 2^24 amplitudes: the product state holds two 4096-vectors,
        # and the full tensor is refused before it is allocated
        state = uniform_superposition(GridSpec(m=4096, d=2))
        with pytest.raises(ValueError, match=r"lattice cap exceeded: m\^d = 4096\^2 = 2\^24"):
            state.materialized()

    def test_default_cap(self):
        assert lattice_cap() == 2**22

