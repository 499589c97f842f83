"""Exact simulation of a register over the centered grid lattice.

The register lives on G = {(2a+1-m)/(2m) : a in 0..m-1}^d, a centered lattice
in (-1/2, 1/2)^d.  States are either a full rank-d tensor of amplitudes or,
when every applied phase is separable, d independent per-axis vectors (the
fast path that makes large-m sweeps affordable).  The Fourier transform over
G has kernel e^{2*pi*i*m*<u,v>}/m^{d/2}; per axis it reduces to a standard
radix-2 FFT conjugated by diagonal twiddle factors.

A linear phase c_j*u_j needs no register at all: the Born law after the
inverse transform is the closed-form Fejer kernel of
:func:`linear_phase_marginals`, and :func:`sample_marginals` inverts it with
the same per-axis draws :func:`measure` makes on a product state.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridSpec",
    "GridState",
    "PhaseFunction",
    "lattice_cap",
    "check_lattice_cap",
    "grid_axis_points",
    "grid_points",
    "uniform_superposition",
    "state_from_amplitudes",
    "apply_phase_function",
    "qft",
    "inverse_qft",
    "dense_qft_matrix",
    "measurement_distribution",
    "linear_phase_marginals",
    "sample_marginals",
    "measure",
]

_DEFAULT_LATTICE_CAP = 2**22
_EVAL_CHUNK = 1 << 16


def lattice_cap() -> int:
    """Full-state amplitude budget; QMEANLAB_LATTICE_CAP overrides the default."""
    raw = os.environ.get("QMEANLAB_LATTICE_CAP")
    if raw is None:
        return _DEFAULT_LATTICE_CAP
    cap = int(raw)
    if cap < 2:
        raise ValueError(f"QMEANLAB_LATTICE_CAP must be at least 2, got {cap}")
    return cap


def check_lattice_cap(spec: GridSpec) -> None:
    """Refuse, before anything is allocated, an m^d table above the lattice cap."""
    cap = lattice_cap()
    if spec.points > cap:
        raise ValueError(
            f"lattice cap exceeded: m^d = {spec.m}^{spec.d} = {spec.points} > {cap} amplitudes"
        )


@dataclass(frozen=True)
class GridSpec:
    """Lattice geometry: m points per axis (a power of two), d axes."""

    m: int
    d: int

    def __post_init__(self) -> None:
        if self.m < 1 or (self.m & (self.m - 1)) != 0:
            raise ValueError(f"m must be a positive power of two, got {self.m}")
        if self.d < 1:
            raise ValueError(f"d must be positive, got {self.d}")

    @property
    def points(self) -> int:
        return self.m**self.d


@dataclass(frozen=True)
class PhaseFunction:
    """A phase theta_u over the grid, applied as |u> -> e^{i*theta_u}|u>.

    ``evaluate`` maps an (N, d) block of grid points to N phases (radians).
    When ``separable`` is set, theta_u = sum_j f_j(u_j) and ``axis_components``
    holds the d per-axis callables f_j (each mapping (m,) axis values to (m,)
    phases), which lets product-form states stay in product form.  A linear
    phase theta_u = <coeffs, u> also carries ``coeffs``, which lets a round
    sample it from :func:`linear_phase_marginals` without a register.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    separable: bool
    axis_components: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None
    coeffs: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.separable and self.axis_components is None:
            raise ValueError("separable phase functions must carry axis_components")
        if self.coeffs is not None and not self.separable:
            raise ValueError("only a separable phase can carry linear coeffs")


@dataclass(frozen=True)
class GridState:
    """Immutable register state: full tensor or per-axis product form."""

    spec: GridSpec
    tensor: np.ndarray | None = None
    axes: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        if (self.tensor is None) == (self.axes is None):
            raise ValueError("exactly one of tensor/axes must be given")
        if self.tensor is not None:
            expected = (self.spec.m,) * self.spec.d
            tensor = np.ascontiguousarray(self.tensor, dtype=complex)
            if tensor.shape != expected:
                raise ValueError(f"tensor shape {tensor.shape} != {expected}")
            nrm = float(np.linalg.norm(tensor.reshape(-1)))
            if abs(nrm - 1.0) > 1e-9:
                raise ValueError(f"state norm drifted to {nrm!r}")
            tensor.flags.writeable = False
            object.__setattr__(self, "tensor", tensor)
        else:
            axes = tuple(np.ascontiguousarray(a, dtype=complex) for a in self.axes)
            if len(axes) != self.spec.d or any(a.shape != (self.spec.m,) for a in axes):
                raise ValueError("product form needs d vectors of length m")
            total = math.prod(float(np.linalg.norm(a)) for a in axes)
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"state norm drifted to {total!r}")
            for a in axes:
                a.flags.writeable = False
            object.__setattr__(self, "axes", axes)

    @property
    def is_product(self) -> bool:
        return self.axes is not None

    def materialized(self) -> GridState:
        """Expand product form to the full tensor (subject to the lattice cap)."""
        if self.tensor is not None:
            return self
        check_lattice_cap(self.spec)
        tensor = self.axes[0]
        for a in self.axes[1:]:
            tensor = np.tensordot(tensor, a, axes=0)
        return GridState(spec=self.spec, tensor=tensor.reshape((self.spec.m,) * self.spec.d))


def grid_axis_points(m: int) -> np.ndarray:
    """The m axis values (2a+1-m)/(2m), symmetric about 0 inside (-1/2, 1/2)."""
    return np.arange(1.0 - m, m, 2.0) / (2 * m)  # exact odd integers 2a+1-m


def grid_points(spec: GridSpec) -> np.ndarray:
    """All m^d lattice points, row-major over axes, as an (m^d, d) array."""
    axis = grid_axis_points(spec.m)
    grids = np.meshgrid(*([axis] * spec.d), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def uniform_superposition(spec: GridSpec) -> GridState:
    """Every amplitude m^{-d/2}; kept in product form."""
    axis = np.full(spec.m, 1.0 / math.sqrt(spec.m), dtype=complex)
    return GridState(spec=spec, axes=(axis,) * spec.d)


def state_from_amplitudes(spec: GridSpec, amplitudes: np.ndarray) -> GridState:
    """Wrap a length m^d amplitude vector (row-major over axes) as a state."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    return GridState(spec=spec, tensor=amplitudes.reshape((spec.m,) * spec.d))


def _points_chunk(spec: GridSpec, start: int, stop: int, axis: np.ndarray) -> np.ndarray:
    idx = np.unravel_index(np.arange(start, stop), (spec.m,) * spec.d)
    return np.column_stack([axis[i] for i in idx])


def apply_phase_function(state: GridState, theta: PhaseFunction) -> GridState:
    """Multiply the amplitude at each u by e^{i*theta_u}; norm is preserved.

    A separable phase on a product-form state multiplies each axis vector by
    its own factor and keeps product form.  Every other combination goes
    through ``theta.evaluate`` on the full tensor, materializing a product
    state first (and can therefore hit the lattice cap).
    """
    spec = state.spec
    axis = grid_axis_points(spec.m)
    if theta.separable and state.is_product:
        if len(theta.axis_components) != spec.d:
            raise ValueError(
                f"phase has {len(theta.axis_components)} axis components, expected {spec.d}"
            )
        new_axes = tuple(
            a * np.exp(1j * np.asarray(f(axis), dtype=float))
            for a, f in zip(state.axes, theta.axis_components)
        )
        return GridState(spec=spec, axes=new_axes)
    full = state.materialized()
    flat = full.tensor.reshape(-1).copy()
    for start in range(0, flat.shape[0], _EVAL_CHUNK):
        stop = min(start + _EVAL_CHUNK, flat.shape[0])
        pts = _points_chunk(spec, start, stop, axis)
        flat[start:stop] *= np.exp(1j * np.asarray(theta.evaluate(pts), dtype=float))
    return GridState(spec=spec, tensor=flat.reshape((spec.m,) * spec.d))


def _axis_twiddle(m: int) -> tuple[np.ndarray, complex]:
    # m*u_a*v_b = [a*b + (a+b)*c + c^2]/m with c = (1-m)/2, so the centered
    # kernel is diag(g*t) . DFT+ . diag(t) with t_a = e^{2*pi*i*a*c/m}.
    c = (1 - m) / 2.0
    t = np.exp(2j * np.pi * np.arange(m) * c / m)
    g = complex(np.exp(2j * np.pi * c * c / m))
    return t, g


def _qft_axis(x: np.ndarray, axis: int, inverse: bool) -> np.ndarray:
    m = x.shape[axis]
    t, g = _axis_twiddle(m)
    shape = [1] * x.ndim
    shape[axis] = m
    if inverse:
        t = np.conj(t)
        y = np.fft.fft(t.reshape(shape) * x, axis=axis)
        return (np.conj(g) / math.sqrt(m)) * t.reshape(shape) * y
    y = np.fft.ifft(t.reshape(shape) * x, axis=axis)
    return (math.sqrt(m) * g) * t.reshape(shape) * y


def _transform(state: GridState, inverse: bool) -> GridState:
    if state.is_product:
        new_axes = tuple(_qft_axis(a, 0, inverse) for a in state.axes)
        return GridState(spec=state.spec, axes=new_axes)
    tensor = state.tensor
    for j in range(state.spec.d):
        tensor = _qft_axis(tensor, j, inverse)
    return GridState(spec=state.spec, tensor=tensor)


def qft(state: GridState) -> GridState:
    """The grid Fourier transform |u> -> m^{-d/2} sum_v e^{2*pi*i*m<u,v>} |v>."""
    return _transform(state, inverse=False)


def inverse_qft(state: GridState) -> GridState:
    """Inverse of :func:`qft` (conjugate-transpose kernel)."""
    return _transform(state, inverse=True)


def dense_qft_matrix(m: int) -> np.ndarray:
    """Dense single-axis kernel e^{2*pi*i*m*u*v}/sqrt(m): the reference path."""
    if m > 64:
        raise ValueError(f"dense reference path is for m <= 64, got {m}")
    u = grid_axis_points(m)
    return np.exp(2j * np.pi * m * np.outer(u, u)) / math.sqrt(m)


def measurement_distribution(state: GridState):
    """Born-rule probabilities.

    Full states return the flat length-m^d table (row-major over axes);
    product states return the tuple of exact per-axis marginals whose outer
    product is the joint.
    """
    if state.is_product:
        return tuple(np.abs(a) ** 2 for a in state.axes)
    return np.abs(state.tensor.reshape(-1)) ** 2


def linear_phase_marginals(spec: GridSpec, coeffs) -> tuple[np.ndarray, ...]:
    """Exact per-axis Born marginals of a linear phase, without a register.

    Equal to ``measurement_distribution(inverse_qft(apply_phase_function(
    uniform_superposition(spec), theta)))`` for theta_u = <coeffs, u>.  With
    y_b = c/(2m) - pi*v_b the marginal of axis coefficient c is the Fejer
    kernel p_b = sin^2(m*y_b) / (m^2 sin^2 y_b).  The numerator is the same for
    every b (the y_b are pi/m apart); it is computed once, at the b nearest
    the peak, from the same rounded y_b as that bin's denominator, so the peak
    stays exact when c lies within rounding of a lattice hit.  An exact hit
    (sin y_b = 0) is a point mass; m = 1 has the single outcome 0.  Real
    float64 arithmetic throughout; the raw mass of every axis is checked
    against 1, as :class:`GridState` checks its norm.
    """
    m = spec.m
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if coeffs.shape != (spec.d,):
        raise ValueError(f"linear phase has {coeffs.shape[0]} coefficients, expected {spec.d}")
    if m == 1:
        return (np.ones(1),) * spec.d
    pi_v = np.pi * grid_axis_points(m)
    # A phase c of order m resolves only to its float64 ulp, so the rounding
    # drift of the mass grows with m (at most 5e-11 over 20 random c at
    # m = 2^23); the bound grows with it instead of staying a flat 1e-9.
    tol = max(1e-9, 16 * m * 2.0**-52)
    out = []
    for c in coeffs:
        p = np.subtract(c / (2 * m), pi_v)  # y_b, then sin^2 y_b, then p_b in place
        np.square(np.sin(p, out=p), out=p)
        peak = int(np.argmin(p))
        if p[peak] == 0.0:
            p[:] = 0.0
            p[peak] = 1.0
        else:
            y_peak = c / (2 * m) - pi_v[peak]
            np.divide((math.sin(m * y_peak) / m) ** 2, p, out=p)
            total = float(p.sum())
            if abs(total - 1.0) > tol:
                raise ValueError(f"state norm drifted to {math.sqrt(total)!r}")
        out.append(p)
    return tuple(out)


def _draw_indices(p: np.ndarray, reps: int, rng: np.random.Generator) -> np.ndarray:
    """``reps`` indices into ``p`` drawn by inverting its normalised cumulative sum.

    One ``rng.random(reps)`` draw and searchsorted (side="right"); the single
    CDF inversion behind every Born sampler here.  Searching all but the last
    CDF entry clamps to the last index a draw that rounding leaves at or above
    the final sum, without a second pass.
    """
    cdf = p / p.sum()
    return np.searchsorted(np.cumsum(cdf, out=cdf)[:-1], rng.random(reps), side="right")


def sample_marginals(marginals, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``reps`` lattice points from a product of per-axis marginals, as (reps, d).

    Each axis, in order, draws its indices through one CDF inversion.
    """
    m = marginals[0].shape[0]
    idx = np.empty((reps, len(marginals)), dtype=np.int64)
    for j, p in enumerate(marginals):
        idx[:, j] = _draw_indices(p, reps, rng)
    return (2 * idx + 1 - m) / (2 * m)  # grid_axis_points(m)[idx]


def measure(state: GridState, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``reps`` grid points from the Born distribution, as a (reps, d) array.

    A full state inverts the CDF of its flat row-major table once; a product
    state draws each axis from its own marginal through
    :func:`sample_marginals`.  Both go through the one CDF inversion
    :func:`_draw_indices`.
    """
    spec = state.spec
    dist = measurement_distribution(state)
    if state.is_product:
        return sample_marginals(dist, reps, rng)
    flat = _draw_indices(dist, reps, rng)
    idx = np.column_stack(np.unravel_index(flat, (spec.m,) * spec.d))
    return (2 * idx + 1 - spec.m) / (2 * spec.m)  # grid_axis_points(m)[idx]
