"""Tests for the grid register simulator.

The dense kernel matrix is the independent oracle for the FFT implementation;
the phase-estimation concentration sweep pins the sign conventions.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    state_from_amplitudes,
    uniform_superposition,
)


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

    def test_coefficient_count_must_match(self):
        with pytest.raises(ValueError, match="2 coefficients, expected 3"):
            linear_phase_marginals(GridSpec(m=4, d=3), [1.0, 2.0])

    def test_coeffs_need_a_separable_phase(self):
        with pytest.raises(ValueError, match="separable"):
            PhaseFunction(evaluate=lambda pts: pts @ [1.0], separable=False, coeffs=np.ones(1))


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
    def test_cap_blocks_materialization(self, monkeypatch):
        monkeypatch.setenv("QMEANLAB_LATTICE_CAP", "256")
        assert lattice_cap() == 256
        state = uniform_superposition(GridSpec(m=32, d=2))
        with pytest.raises(ValueError, match="lattice cap"):
            state.materialized()

    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("QMEANLAB_LATTICE_CAP", raising=False)
        assert lattice_cap() == 2**22

