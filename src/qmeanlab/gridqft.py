"""Exact simulation of a register over the centered grid lattice.

The register lives on G = {(2a+1-m)/(2m) : a in 0..m-1}^d, a centered lattice
in (-1/2, 1/2)^d.  States are either a full rank-d tensor of amplitudes or,
when every applied phase is separable, d independent per-axis vectors.  The
Fourier transform over G has kernel e^{2*pi*i*m*<u,v>}/m^{d/2}; per axis it
reduces to a standard radix-2 FFT conjugated by diagonal twiddle factors.

Estimators never build the register: every phase they imprint is linear.  A
linear phase c_j*u_j has as Born law after the inverse transform the
closed-form Fejer kernel p_b = sin^2(m*y_b) / (m^2 sin^2 y_b), y_b =
c_j/(2m) - pi*v_b, which one tile kernel, :func:`_fejer_terms`, evaluates in
its tangent form num * (1 + 1/tan^2 y_b) (1/sin^2 = 1 + 1/tan^2, and numpy's
tangent is vectorised where its sine is not).  :func:`sample_linear_phase`
draws a whole block of ideal rounds in one call, vectorised over every
(row, axis) pair: an axis of at most one tile (2^16 points) evaluates many
pairs' laws as one table and inverts them together; a wider axis streams
each law in cache-resident tiles into masses of blocks of 2^10 entries,
inverts the block masses, then evaluates again only the blocks hit and
inverts within them (a two-level inversion).  An ideal round holds no O(m)
array.  :func:`linear_phase_marginals` builds whole axis laws from the same
kernel, one at a time, and :func:`sample_marginals` draws each axis with
the draws :func:`measure` makes on a product state; with the same seed the
two paths take the same uniforms in the same order, and their inversions
differ only in rounding.  A linear phase overlaid with a table of
unit-modulus factors (a perturbed linear phase) is drawn by
:func:`sample_linear_overlay` through the chain rule, for a whole block of
coefficient rows that share the overlay in one call: the column norms of the
amplitudes transformed along the last, contiguous axis give the last
coordinate, and only the (row, column) slices drawn are transformed over the
other axes for the remaining coordinates; no m^d table of probabilities is
formed.  Its first stage takes one of two routes.  A block with one distinct
last coefficient, and every block at d = 1, transforms the overlay once per
distinct last coefficient; at d = 1 the overlay is one row, the whole
lattice, and each coefficient's transform is released before the next, so
the block's extra memory stays one lattice.  From two on at d > 1, the
overlay's row autocorrelation, the same for every coefficient, gives each
marginal by one length-m FFT, and one matrix product gives every drawn
column, so the block costs a fixed number of transforms: the autocorrelation
costs about two, and measured faster than the direct route from two
coefficients on.

Every Born draw goes through one CDF inversion, :func:`_draw_in_rows` (a
single law is a one-row table).  Every lattice point, drawn or built (the
register's axis and points too), comes from one index-to-point map,
:func:`_lattice_points`.

Every unit factor a perturbed round builds (the noise table, the axis
vectors, the twist and the columns of the autocorrelation route) comes from
one kernel, :func:`_unit_factors`: e^{2i*h} from a vectorised tangent of the
half-angle h, within 4e-16 of ``np.exp`` and more than twice as fast as a
cos/sin fill.  The register multiplies by the same noise table but keeps
``np.exp`` for every factor of its own, so the reference does not share it.

On a host with two or more CPUs, two m^d stages of a perturbed round run on
two threads: the multiply and in-place FFT of :func:`_last_axis_columns` over
two halves of the rows, and the tangent fill of the noise table
(:func:`qmeanlab.oracles.perturb`) over two halves of the points.  One half
runs on the calling thread, the other on one pool thread, started on first
use (:func:`_in_halves`).  The worker count is read once, from the CPUs this
process may run on (``os.sched_getaffinity``); with one there is no pool and
no thread.  A stage over at most 2^16 amplitudes stays on the calling thread,
where the hand-off would cost more than it saves.  Every random draw stays on
the calling thread, in its order.  Each split step is elementwise or
row-by-row, and every reduction runs after the join, over the whole table,
so a split round gives the same bits as one thread.

The closed form and the ideal sampler refuse an axis past its precision wall
(m > 2^52) or memory wall (2^30 bytes per axis array) when called, before
allocating anything; the sampler holds no axis array, but keeps both walls
as they are, so a plan refuses the same cells.
The register (:class:`GridState`, :func:`apply_phase_function`, :func:`qft`,
:func:`measure`) is the reference those samplers are tested against, and what
the acceptance gate's transform numerics run.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from qmeanlab.checks import as_integer, check_array_bytes, check_power_of_two

__all__ = [
    "GridSpec",
    "GridState",
    "PhaseFunction",
    "lattice_cap",
    "check_lattice_cap",
    "check_axis_walls",
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
    "sample_linear_phase",
    "sample_linear_overlay",
    "measure",
]

_LATTICE_CAP = 2**22
_EVAL_CHUNK = 1 << 16
# Per-axis walls of the closed form: the lattice points (2b+1-m)/(2m) are
# exact in float64 only for m <= 2^52, and one float64 array over an axis may
# take at most 2^30 bytes (m <= 2^27, above the 2^26 of near_optimal at
# n = 2048 on the d=2 ball battery; :func:`qmeanlab.checks.check_array_bytes`).
_AXIS_PRECISION_LOG2 = 52
# An ideal round evaluates its Fejer laws in tiles of 2^16 lattice indices, so
# a tile's float64 buffers stay in cache: near_optimal trials at d = 2 (the
# shell_d2 cells) took 5.2-5.4 ms each with tiles of 2^14 to 2^16 points and
# 7.5 ms with 2^17, on a 2-vCPU VM.  A wider axis keeps the masses of blocks of
# 2^10 entries and evaluates again only the blocks its draws hit, 16 at a time
# (a d = 64, m = 2^18 round then traces under 2 MiB).
_TILE = 1 << 16
_BLOCK = 1 << 10
_HIT_BLOCKS = 16
# The CPUs this process may run on, read once.  With two or more, the noise
# table's tangent fill and the last-axis transform of a perturbed round over
# more than _SPLIT_MIN amplitudes run half their rows on one pool thread
# (:func:`_in_halves`).  At or below it the split saves less than it costs: on
# a 2-vCPU VM an idle pool thread took about 0.15 ms to start a task, and a
# stage over 2^16 amplitudes (the table's cos/sin fill the tangent fill
# replaced, a row FFT) measured no faster split; the tangent fill does less
# work per point, so a split gains less there still.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
_SPLIT_MIN = 1 << 16
_on_split_thread = threading.local()


def lattice_cap() -> int:
    """Full-state amplitude budget: 2^22 amplitudes."""
    return _LATTICE_CAP


def check_axis_walls(m: int) -> None:
    """Refuse, before anything is allocated, an axis past the precision or memory wall."""
    log2_m = m.bit_length() - 1
    if log2_m > _AXIS_PRECISION_LOG2:
        raise ValueError(
            f"per-axis precision wall: m = 2^{log2_m} > 2^{_AXIS_PRECISION_LOG2} lattice points"
            " are not exact in float64"
        )
    check_array_bytes(8 * m, f"per-axis memory wall: m = 2^{log2_m} needs 2^{log2_m + 3} bytes per axis")


def check_lattice_cap(spec: GridSpec) -> None:
    """Refuse, before anything is allocated, an m^d table above the lattice cap.

    The size is reported as a power of two (m is one), so the message stays
    one short line at any d.
    """
    cap = lattice_cap()
    if spec.points > cap:
        log2_points = spec.d * (spec.m.bit_length() - 1)
        raise ValueError(
            f"lattice cap exceeded: m^d = {spec.m}^{spec.d} = 2^{log2_points} > {cap} amplitudes"
        )


@dataclass(frozen=True)
class GridSpec:
    """Lattice geometry: m points per axis (a power of two), d axes."""

    m: int
    d: int

    def __post_init__(self) -> None:
        check_power_of_two("m", self.m)
        as_integer("d", self.d, at_least=1)

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
    sample it from :func:`linear_phase_marginals` without a register.  A
    phase with an ``overlay``, the flat row-major table of m^d unit-modulus
    factors, is theta_u = evaluate(u) + arg(overlay_u) and is not separable;
    a perturbed linear phase keeps ``coeffs`` and its linear ``evaluate``,
    and a round samples it through :func:`sample_linear_overlay`.
    """

    evaluate: Callable[[np.ndarray], np.ndarray]
    separable: bool
    axis_components: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = None
    coeffs: np.ndarray | None = None
    overlay: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.separable and self.axis_components is None:
            raise ValueError("separable phase functions must carry axis_components")
        if self.coeffs is not None and not self.separable and self.overlay is None:
            raise ValueError("only a separable phase can carry linear coeffs without an overlay")
        if self.overlay is not None and (self.coeffs is None or self.separable):
            raise ValueError("an overlay needs linear coeffs on a non-separable phase")


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
            _check_norm(float(np.linalg.norm(tensor.reshape(-1))))
            tensor.flags.writeable = False
            object.__setattr__(self, "tensor", tensor)
        else:
            axes = tuple(np.ascontiguousarray(a, dtype=complex) for a in self.axes)
            if len(axes) != self.spec.d or any(a.shape != (self.spec.m,) for a in axes):
                raise ValueError("product form needs d vectors of length m")
            _check_norm(math.prod(float(np.linalg.norm(a)) for a in axes))
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


def _lattice_points(
    idx: np.ndarray, m: int, scale: float = 1.0, out: np.ndarray | None = None
) -> np.ndarray:
    """``scale`` times the lattice points (2a+1-m)/(2m) of indices a: the one index-to-point map.

    As (a - (m-1)/2) * (scale/m), into ``out``: a - (m-1)/2 is an exact
    half-integer and m a power of two, so this is scale * ((2a+1-m)/(2m))
    rounded once, the same bits as the ratio times ``scale``, in passes fewer.
    """
    pts = np.subtract(idx, (m - 1) / 2, out=out)
    pts *= scale / m
    return pts


def _flat_points(flat: np.ndarray, spec: GridSpec) -> np.ndarray:
    """The lattice points of flat row-major indices, as an (N, d) array."""
    return _lattice_points(np.stack(np.unravel_index(flat, (spec.m,) * spec.d), axis=1), spec.m)


def grid_axis_points(m: int) -> np.ndarray:
    """The m axis values (2a+1-m)/(2m), symmetric about 0 inside (-1/2, 1/2)."""
    return _lattice_points(np.arange(m, dtype=float), m)


def grid_points(spec: GridSpec) -> np.ndarray:
    """All m^d lattice points, row-major over axes, as an (m^d, d) array."""
    return _flat_points(np.arange(spec.points), spec)


def uniform_superposition(spec: GridSpec) -> GridState:
    """Every amplitude m^{-d/2}; kept in product form."""
    axis = np.full(spec.m, 1.0 / math.sqrt(spec.m), dtype=complex)
    return GridState(spec=spec, axes=(axis,) * spec.d)


def state_from_amplitudes(spec: GridSpec, amplitudes: np.ndarray) -> GridState:
    """Wrap a length m^d amplitude vector (row-major over axes) as a state."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    return GridState(spec=spec, tensor=amplitudes.reshape((spec.m,) * spec.d))


def apply_phase_function(state: GridState, theta: PhaseFunction) -> GridState:
    """Multiply the amplitude at each u by e^{i*theta_u}; norm is preserved.

    A separable phase on a product-form state multiplies each axis vector by
    its own factor and keeps product form.  Every other combination goes
    through ``theta.evaluate`` on the full tensor, materializing a product
    state first (and can therefore hit the lattice cap); a phase with an
    ``overlay`` then multiplies each amplitude by its overlay factor too.
    """
    spec = state.spec
    if theta.separable and state.is_product:
        axis = grid_axis_points(spec.m)
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
        pts = _flat_points(np.arange(start, stop), spec)
        flat[start:stop] *= np.exp(1j * np.asarray(theta.evaluate(pts), dtype=float))
        if theta.overlay is not None:
            flat[start:stop] *= theta.overlay[start:stop]
    return GridState(spec=spec, tensor=flat.reshape((spec.m,) * spec.d))


@functools.cache
def _axis_twiddle(m: int) -> tuple[np.ndarray, complex]:
    # m*u_a*v_b = [a*b + (a+b)*c + c^2]/m with c = (1-m)/2, so the centered
    # kernel is diag(g*t) . DFT+ . diag(t) with t_a = e^{2*pi*i*a*c/m}.
    # Kept per m, read-only: the lattice sizes are powers of two, so the
    # cached vectors together hold less than twice the largest one.
    c = (1 - m) / 2.0
    t = np.exp(2j * np.pi * np.arange(m) * c / m)
    t.flags.writeable = False
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


def linear_phase_marginals(spec: GridSpec, coeffs) -> Iterator[np.ndarray]:
    """Exact per-axis Born marginals of a linear phase, without a register, one axis at a time.

    Equal, axis by axis, to ``measurement_distribution(inverse_qft(
    apply_phase_function(uniform_superposition(spec), theta)))`` for theta_u =
    <coeffs, u>: the Fejer kernel of each axis coefficient c, built from the
    tile kernel the ideal round samples (:func:`_fejer_laws`), so the register
    stays the independent reference.  An exact hit is a point mass; m = 1 has
    the single outcome 0.  The raw mass of every axis is checked against 1
    (:func:`_check_mass`).  The coefficient count and the walls (m > 2^52
    points are not exact in float64; m > 2^27 passes 2^30 bytes per axis
    array) are checked when this is called, before anything is allocated;
    each axis law is made only when the iterator reaches it, so
    :func:`sample_marginals` holds a few at any d.
    """
    m = spec.m
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if coeffs.shape != (spec.d,):
        raise ValueError(f"linear phase has {coeffs.shape[0]} coefficients, expected {spec.d}")
    check_axis_walls(m)
    if m == 1:
        return (np.ones(1) for _ in coeffs)
    return (_axis_law(np.array([c / (2 * m)]), m) for c in coeffs)


def _axis_law(half: np.ndarray, m: int) -> np.ndarray:
    """The mass-checked (m,) Fejer law of the one base ``half`` = [c/(2m)]."""
    peak, num = _fejer_peaks(half, m)
    if num[0] == 0.0:
        p = np.zeros(m)
        p[peak[0]] = 1.0
        return p
    (p,) = _fejer_laws(half, num, _lattice_points(np.arange(m), m, np.pi))
    _check_mass(p.sum(keepdims=True), m)
    return p


def _fejer_terms(
    halves: np.ndarray, pi_v: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """1/tan^2 y for y = halves - pi_v (broadcast): the one Fejer kernel, into ``out``.

    With y_b = c/(2m) - pi*v_b the Born law of axis coefficient c is the
    Fejer kernel p_b = sin^2(m*y_b) / (m^2 sin^2 y_b); the numerator
    num = sin^2(m*y_b)/m^2 is the same for every b (the y_b are pi/m apart),
    and 1/sin^2 y = 1 + 1/tan^2 y, so p_b = num * (1 + 1/tan^2 y_b).  numpy's
    float64 tangent is vectorised where its sine is not: over 2^20 points in
    (-1.5, 1.5) ``np.sin`` took 4.1 ms and ``np.tan`` 1.2 ms on a 2-vCPU VM.  The y_b are
    formed as the sine form formed them, bit for bit.  An exact hit (y_b = 0)
    would divide by zero; callers draw it as a point mass instead.
    """
    y = np.subtract(halves, pi_v, out=out)
    np.tan(y, out=y)
    np.multiply(y, y, out=y)
    return np.divide(1.0, y, out=y)


def _fejer_peaks(halves: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The peak index of each Fejer law of bases ``halves`` = c/(2m), and its factor num.

    The peak is the b whose y_b lies nearest a multiple of pi: one of the
    three indices around (c/pi + m - 1)/2, mod m, whichever has the smallest
    |tan y_b|.  num = (sin(m*y_peak)/m)^2 is computed from the same rounded
    y_b as that bin's term, so the peak stays exact when c lies within
    rounding of a lattice hit; it is 0 exactly at a hit (y_peak = 0), whose
    law is the point mass at its peak.
    """
    near = np.rint(halves * (m / np.pi) + (m - 1) / 2)
    around = (near[:, None] + np.arange(-1.0, 2.0)).astype(np.int64) % m
    y = halves[:, None] - _lattice_points(around, m, np.pi)
    pick = np.argmin(np.abs(np.tan(y)), axis=1)
    rows = np.arange(halves.size)
    num = np.array([(math.sin(m * v) / m) ** 2 for v in y[rows, pick].tolist()])
    return around[rows, pick], num


def _fejer_laws(halves: np.ndarray, num: np.ndarray, pi_v: np.ndarray) -> np.ndarray:
    """Rows num_g * (1 + 1/tan^2 y) of the Fejer laws of ``halves`` over the points ``pi_v``.

    ``pi_v`` is pi times the lattice points, (m,) for whole laws or one (P,
    w) row of points per law for blocks of them; no row may be an exact hit.
    """
    p = _fejer_terms(halves[:, None], pi_v)
    p += 1.0
    p *= num[:, None]
    return p


def _fejer_blocks(halves: np.ndarray, num: np.ndarray, m: int) -> np.ndarray:
    """(P, m/_BLOCK) block masses of the Fejer laws of ``halves``, streamed one tile at a time.

    For an axis wider than one tile (m > _TILE): each tile's points are made
    once and every law's terms over them go through one reused tile buffer,
    so no O(m) array is held.  No law may be an exact hit.
    """
    per = _TILE // _BLOCK
    blocks = np.empty((halves.size, m // _BLOCK))
    ramp, pi_v, buf = np.arange(float(_TILE)), np.empty(_TILE), np.empty(_TILE)
    for start in range(0, m, _TILE):
        _lattice_points(np.add(ramp, start, out=pi_v), m, np.pi, out=pi_v)
        at = slice(start // _BLOCK, start // _BLOCK + per)
        for row, half in enumerate(halves):
            blocks[row, at] = _fejer_terms(half, pi_v, out=buf).reshape(per, _BLOCK).sum(axis=1)
    blocks += _BLOCK
    blocks *= num[:, None]
    return blocks


def _check_mass(totals: np.ndarray, m: int) -> None:
    """Refuse a Fejer law whose raw mass is not 1 within a bound that grows with m.

    A phase c of order m resolves only to its float64 ulp, so the rounding
    drift of the mass grows with m (at most 5e-11 over 20 random c at
    m = 2^23); the bound grows with it instead of staying a flat 1e-9.  It
    bounds the mass, not the norm, so _check_norm would pass other laws.
    """
    bad = np.flatnonzero(np.abs(totals - 1.0) > max(1e-9, 16 * m * 2.0**-52))
    if bad.size:
        raise ValueError(f"state norm drifted to {math.sqrt(totals[bad[0]])!r}")


def _draw_in_rows(
    p: np.ndarray, which: np.ndarray, u: np.ndarray, fractions: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """For each entry g of ``which``, an index into row g of ``p``, drawn from that row by ``u``.

    The one CDF inversion behind every Born sampler here; a single law is a
    one-row ``p`` with an all-zero ``which``.  The rows are normalised and
    laid end to end in one cumulative sum, so row g's CDF runs from s_g to
    s_{g+1} (about g to g+1).  Each uniform u in [0, 1) goes to
    s_g + u*(s_{g+1} - s_g) and is inverted with searchsorted (side="right");
    a target that rounding leaves at or past its row's end is moved to the
    float just below it, which lands on the row's last entry of positive
    mass.  One call draws from every row, with no loop over the rows.  With
    ``fractions`` set it also returns, per draw, where its target fell within
    its entry's CDF step, in [0, 1]: the uniform of a draw within the entry.
    """
    width = p.shape[1]
    cdf = (p / p.sum(axis=1, keepdims=True)).reshape(-1)
    np.cumsum(cdf, out=cdf)
    ends = cdf[width - 1 :: width]
    starts = np.concatenate(([0.0], ends[:-1]))
    target = starts[which] + u * (ends - starts)[which]
    np.minimum(target, np.nextafter(ends, -np.inf)[which], out=target)
    flat = np.searchsorted(cdf, target, side="right")
    drawn = flat - which * width
    if not fractions:
        return drawn
    below = np.where(flat > 0, cdf[flat - 1], 0.0)  # a row's start is the row before's end
    return drawn, (target - below) / (cdf[flat] - below)


def _coefficient_rows(spec: GridSpec, coeffs, reps) -> tuple[np.ndarray, np.ndarray]:
    """A (G, d) block of coefficient rows and its (G,) repetition counts, checked together."""
    block = np.array(coeffs, dtype=float, ndmin=2)
    counts = np.array(reps, dtype=np.int64, ndmin=1)
    if block.ndim != 2 or block.shape[1] != spec.d:
        raise ValueError(f"linear phase has {block.shape[-1]} coefficients, expected {spec.d}")
    if counts.shape != block.shape[:1]:
        raise ValueError(f"{counts.size} repetition counts for {block.shape[0]} coefficient rows")
    return block, counts


def sample_linear_phase(spec: GridSpec, coeffs, reps, rng: np.random.Generator) -> np.ndarray:
    """Draw lattice points from ideal linear phases, row by row, with no O(m) array.

    ``coeffs`` is a (G, d) block of coefficient rows c_g and ``reps`` a (G,)
    count per row; a (d,) row with an int count is the G = 1 case.  Returns
    the (sum(reps), d) points in row order.  Each axis of row g draws its
    reps[g] indices from the Fejer law of c_g's coefficient, the law of
    :func:`linear_phase_marginals`.  The uniforms come from one
    ``rng.random`` in (row, axis, rep) order, the ones
    ``sample_marginals(linear_phase_marginals(spec, c_g), reps[g], rng)``
    takes row after row, so the two draw the same points but where their
    inversions round apart.  Every (row, axis) pair's law comes from one tile
    kernel (:func:`_fejer_terms`), formed at its peak (:func:`_fejer_peaks`);
    an exact hit is a point mass, drawn without a law.

    - An axis of at most one tile (m <= _TILE) evaluates the laws of as many
      pairs as fill one tile as one table, mass-checks each, and inverts all
      their draws with one :func:`_draw_in_rows` call per tile.
    - A wider axis streams each law in tiles into masses of blocks of _BLOCK
      entries (:func:`_fejer_blocks`) and mass-checks them.  One
      :func:`_draw_in_rows` inverts every draw's block mass and gives the
      fraction where its uniform fell within the block's step; only the
      blocks hit are evaluated again, a few at a time, and each draw is
      inverted within its block with that fraction.

    The coefficient count and the per-axis walls are checked before any draw.
    No state and no lattice-sized array is built.
    """
    m, d = spec.m, spec.d
    block, counts = _coefficient_rows(spec, coeffs, reps)
    check_axis_walls(m)
    pair_counts = np.repeat(counts, d)
    which = np.repeat(np.arange(pair_counts.size), pair_counts)  # the (row, axis) pair of each draw
    u = rng.random(which.size)
    idx = np.zeros(which.size, dtype=np.int64)
    if m > 1:
        halves = block.reshape(-1) / (2 * m)
        peaks, num = _fejer_peaks(halves, m)
        idx[:] = peaks[which]
        live = num > 0.0
        mine = np.flatnonzero(live[which])
        rows = (np.cumsum(live) - 1)[which[mine]]
        draw = _draw_tables if m <= _TILE else _draw_streamed
        idx[mine] = draw(halves[live], num[live], m, rows, u[mine])
    pair_start = np.cumsum(pair_counts) - pair_counts
    row_start = np.cumsum(counts) - counts
    point = row_start[which // d] + np.arange(which.size) - pair_start[which]
    out = np.empty((int(counts.sum()), d), dtype=np.int64)
    out[point, which % d] = idx
    return _lattice_points(out, m)


def _draw_tables(
    halves: np.ndarray, num: np.ndarray, m: int, rows: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Indices drawn by ``u`` from the laws ``rows`` names, on an axis of at most one tile.

    ``rows`` is sorted; the laws go _TILE // m to a table.
    """
    pi_v = _lattice_points(np.arange(m), m, np.pi)
    per = _TILE // m
    out = np.empty(rows.size, dtype=np.int64)
    for first in range(0, halves.size, per):
        laws = _fejer_laws(halves[first : first + per], num[first : first + per], pi_v)
        _check_mass(laws.sum(axis=1), m)
        lo, hi = np.searchsorted(rows, [first, first + per])
        out[lo:hi] = _draw_in_rows(laws, rows[lo:hi] - first, u[lo:hi])
    return out


def _draw_streamed(
    halves: np.ndarray, num: np.ndarray, m: int, rows: np.ndarray, u: np.ndarray
) -> np.ndarray:
    """Indices drawn by ``u`` from the laws ``rows`` names, on an axis wider than one tile.

    The block masses are inverted first; the blocks hit are evaluated again,
    _HIT_BLOCKS at a time, and each draw is inverted within its block.
    """
    masses = _fejer_blocks(halves, num, m)
    _check_mass(masses.sum(axis=1), m)
    blocks, frac = _draw_in_rows(masses, rows, u, fractions=True)
    hits, at = np.unique(rows * masses.shape[1] + blocks, return_inverse=True)
    hit_row, hit_block = np.divmod(hits, masses.shape[1])
    out = np.empty(rows.size, dtype=np.int64)
    for first in range(0, hits.size, _HIT_BLOCKS):
        part = slice(first, first + _HIT_BLOCKS)
        entries = hit_block[part, None] * _BLOCK + np.arange(_BLOCK)
        pi_v = _lattice_points(entries, m, np.pi)
        laws = _fejer_laws(halves[hit_row[part]], num[hit_row[part]], pi_v)
        mine = np.flatnonzero((at >= first) & (at < first + _HIT_BLOCKS))
        out[mine] = hit_block[at[mine]] * _BLOCK + _draw_in_rows(laws, at[mine] - first, frac[mine])
    return out


def sample_marginals(marginals, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``reps`` lattice points from a product of per-axis marginals, as (reps, d).

    ``marginals`` is any iterable of the d axis laws.  Each axis, in order,
    draws its indices from its law as a one-row :func:`_draw_in_rows` table
    and maps them to points before the next law is taken, so a lazy iterable
    (:func:`linear_phase_marginals`) is held one axis at a time.
    """
    return np.stack([
        _lattice_points(
            _draw_in_rows(p[None], np.zeros(reps, dtype=np.int64), rng.random(reps)), p.shape[0]
        )
        for p in marginals
    ], axis=1)


def _check_norm(nrm: float) -> None:
    """Refuse a state, or a Born law of mass nrm^2, whose norm is not 1 within 1e-9."""
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"state norm drifted to {nrm!r}")


def _column_masses(x: np.ndarray) -> np.ndarray:
    """The squared norms of the columns of a complex matrix."""
    parts = x.view(np.float64)  # re, im interleaved: |z|^2 summed without a copy
    sq = np.einsum("ij,ij->j", parts, parts)
    return sq[0::2] + sq[1::2]


def _unit_factors(h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """e^{2i*h} for a float array of half-angles ``h``, into ``out`` (complex, h's shape).

    With t = tan h and q = 2/(1 + t^2): cos 2h = q - 1 and sin 2h = t*q.
    numpy's float64 tangent is vectorised where its cos and sin are not, and
    those ran at about half speed into a complex table's strided views: a
    fill over 2^16 points took 1.08 ms by cos/sin and 0.44 ms this way, on an
    AVX-512 host.  Each entry lies within 4.0e-16 of ``np.exp(2j*h)`` and its
    modulus within 4.4e-16 of 1, for |2h| up to 1e9; it depends on its own
    half-angle alone, so a table filled in parts has the bits of one call.
    ``h`` is overwritten with t.
    """
    if out is None:
        out = np.empty(h.shape, dtype=complex)
    t = np.tan(h, out=h)
    q = out.real
    np.multiply(t, t, out=q)
    q += 1.0
    np.divide(2.0, q, out=q)
    np.multiply(t, q, out=out.imag)
    q -= 1.0
    return out


def _mark_split_thread() -> None:
    _on_split_thread.active = True


@functools.cache
def _split_pool():
    """The one pool thread of :func:`_in_halves`, started on first use.

    ``concurrent.futures`` is imported here, not with the module, so a
    process that never splits a stage does not pay for it at start-up.
    """
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(
        1, thread_name_prefix="qmeanlab-split", initializer=_mark_split_thread
    )


def _in_halves(stage: Callable[[slice], object], rows: int, size: int) -> None:
    """Run ``stage`` over rows 0..rows-1 in two halves, the second on the pool thread.

    ``stage(part)`` must write only what the rows ``part`` names own, so the
    halves share no output.  The calling thread takes the first half, the
    larger one for an odd count, since the pool thread starts late.  A stage
    over at most ``_SPLIT_MIN`` amplitudes (``size``), over one row, in a
    process with one CPU, or called from the pool thread itself (which would
    wait on itself) runs once over every row on the calling thread.  The pool
    half is waited for before this returns or raises.
    """
    on_pool = getattr(_on_split_thread, "active", False)
    if _WORKERS < 2 or size <= _SPLIT_MIN or rows < 2 or on_pool:
        stage(slice(0, rows))
        return
    half = (rows + 1) // 2
    future = _split_pool().submit(stage, slice(half, rows))
    try:
        stage(slice(0, half))
    finally:
        future.exception()  # waits for the pool half
    future.result()


def _last_axis_columns(table: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    """The overlay's amplitudes under last coefficient ``c``, transformed along the last axis.

    Returns the (m^{d-1}, m) transformed table, whose column b holds the
    amplitudes with last coordinate b (up to the other axes' twiddles and
    transform), and its column masses, the exact marginal of that coordinate,
    summed over the whole table after the row halves join.
    """
    m = table.shape[1]
    pre = np.conj(_axis_twiddle(m)[0]) / math.sqrt(table.size)
    w = _unit_factors(0.5 * c * grid_axis_points(m)) * pre
    cols = np.empty(table.shape, dtype=complex)

    def stage(part: slice) -> None:
        # each row is multiplied and transformed on its own, so the halves
        # give the bits of one call over every row
        np.multiply(table[part], w, out=cols[part])
        np.fft.fft(cols[part], axis=-1, norm="ortho", out=cols[part])

    _in_halves(stage, table.shape[0], table.size)
    mass = _column_masses(cols)
    _check_norm(math.sqrt(float(mass.sum())))
    return cols, mass


def _row_autocorrelation(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """rho(s) = sum_r sum_a T[r, a+s] * conj(T[r, a]) of an (R, m) table, for -m < s < m.

    Returns (rho(s), rho(s-m)) for s = 0..m-1.  Two circular
    autocorrelations give both halves: C1(s) = rho(s) + rho(s-m) from the
    rows' power spectra, and C2(s) = w^s * (rho(s) - rho(s-m)) from those of
    the rows twisted by w^a, w = e^{i*pi/m}.  The rows are transformed on
    the calling thread a chunk at a time, in one reused buffer of at most
    half the table and 2^16 amplitudes, so the route takes less extra memory
    than the one m^d buffer of a direct transform; each chunk's power spectra
    are summed over the chunk and added to the total in chunk order.  rho(0)
    = sum |T|^2 is checked against the table's size (unit-modulus entries)
    before anything is drawn.
    """
    m = table.shape[1]
    twist = _unit_factors(np.pi / 2 * np.arange(m) / m)
    step = max(1, min(table.shape[0] // 2, _EVAL_CHUNK // m))
    buf = np.empty((step, m), dtype=complex)
    power = np.zeros((2, m))
    for start in range(0, table.shape[0], step):
        chunk = table[start : start + step]
        rows = buf[: chunk.shape[0]]
        power[0] += _column_masses(np.fft.fft(chunk, axis=-1, out=rows))
        np.multiply(chunk, twist, out=rows)
        power[1] += _column_masses(np.fft.fft(rows, axis=-1, out=rows))
    circ, twisted = np.fft.ifft(power, axis=-1)
    twisted *= np.conj(twist)
    _check_norm(math.sqrt(float(circ[0].real) / table.size))
    pos, neg = (circ + twisted) / 2, (circ - twisted) / 2
    neg[0] = 0.0  # rho(-m): no pair of entries lies m apart
    return pos, neg


def _last_axis_marginals(
    pos: np.ndarray, neg: np.ndarray, lasts: np.ndarray, points: int
) -> np.ndarray:
    """(K, m) exact marginals of the last coordinate, one row per last coefficient.

    With theta_b = (c + pi*(m-1) - 2*pi*b)/m the transformed column b of
    last coefficient c is m^{-(d+1)/2} sum_a T[r, a] e^{i*a*theta_b}, so its
    mass is M_c(b) = m^{-(d+1)} sum_s rho(s) e^{i*s*theta_b}: the lags s and
    s - m fold onto one length-m FFT per coefficient.  ``pos`` and ``neg``
    are rho(s) and rho(s-m) (:func:`_row_autocorrelation`), ``points`` is
    m^d.  Masses that rounding leaves negative are clipped to 0.
    """
    m = pos.size
    phi = (lasts[:, None] + np.pi * (m - 1)) / m
    half = phi / 2
    folded = _unit_factors(np.arange(m) * half) * (pos + neg * _unit_factors(-m * half))
    mass = np.fft.fft(folded, axis=-1).real / (points * m)
    return np.maximum(mass, 0.0, out=mass)


def _overlay_columns(table: np.ndarray, lasts: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Column cols[p] of the table transformed under last coefficient lasts[p], as row p.

    Equal to ``_last_axis_columns(table, lasts[p])[0][:, cols[p]]`` up to a
    unit factor per column, which drops out of the Born law: row p of E is
    m^{-(d+1)/2} e^{i*a*theta_p}, theta_p = (c_p + pi*(m-1) - 2*pi*b_p)/m,
    and all the columns come from one product E @ T^T.
    """
    m = table.shape[1]
    theta = (lasts + np.pi * (m - 1) - 2 * np.pi * cols) / m
    e = _unit_factors(theta[:, None] / 2 * np.arange(m))
    e /= math.sqrt(table.size * m)
    return e @ table.T


def _draw_other_axes(
    spec: GridSpec, block: np.ndarray, heads: np.ndarray, rows: np.ndarray,
    which: np.ndarray, rng: np.random.Generator,
) -> np.ndarray:
    """The first d-1 indices of the points, drawn from their (row, column) slices.

    ``heads`` holds one drawn column per slice, (P, m^{d-1}); slice p belongs
    to block row rows[p] and point i to slice which[i].  Each slice takes its
    row's pre-twiddles of the first d-1 axes, all slices go through one
    ``fftn`` and their squared moduli, each a conditional law, through one
    :func:`_draw_in_rows`.
    """
    m, d = spec.m, spec.d
    head_shape = (m,) * (d - 1)
    heads = heads.reshape((heads.shape[0],) + head_shape)
    axis = grid_axis_points(m)
    pre = np.conj(_axis_twiddle(m)[0])
    for j in range(d - 1):
        w = (_unit_factors(block[:, j, None] / 2 * axis) * pre)[rows]
        heads *= w.reshape((w.shape[0],) + (1,) * j + (m,) + (1,) * (d - 2 - j))
    np.fft.fftn(heads, axes=tuple(range(1, d)), norm="ortho", out=heads)
    masses = np.abs(heads.reshape(heads.shape[0], -1)) ** 2
    flat = _draw_in_rows(masses, which, rng.random(which.size))
    return np.stack(np.unravel_index(flat, head_shape), axis=1)


def sample_linear_overlay(
    spec: GridSpec, coeffs, overlay: np.ndarray, reps, rng: np.random.Generator
) -> np.ndarray:
    """Draw lattice points from linear phases under one shared overlay, row by row.

    ``coeffs`` is a (G, d) block of coefficient rows c_g and ``reps`` a (G,)
    count per row; a (d,) row with an int count is the G = 1 case.  Returns
    the (sum(reps), d) points in row order: row g's reps[g] points follow
    those of the rows before it.  Row g's points are drawn from the Born law
    of ``measure(inverse_qft(apply_phase_function(uniform_superposition(spec),
    theta_g)), ...)`` for theta_g(u) = <c_g, u> + arg(overlay_u), where
    ``overlay`` is the flat row-major table of m^d unit-modulus factors.  The
    inverse transform's pre-twiddles fold into the unit-modulus axis vectors
    w_j = e^{i*c_j*u} * conj(t_j), so the amplitudes are overlay * (w_1 x ... x
    w_d) / m^{d/2} before a unitary d-axis FFT, whose post-twiddles drop out of
    the Born law.  The law is drawn by the chain rule, last axis first, with
    no m^d table of probabilities:

    - the last axis is the contiguous one of the row-major overlay, and the
      squared norms of the columns of the overlay times w_d, transformed
      along it, are the exact marginal of the last coordinate: the rest of the
      transform is unitary on each column (Parseval), and w_1..w_{d-1} only
      rotate its entries.  That stage depends on a row only through its last
      coefficient, so rows that share one share its marginal;
    - every distinct (row, drawn column) pair takes the column, the row's
      w_1..w_{d-1} and the FFT over the other axes, all pairs in one
      ``fftn``; its squared moduli are the conditional law of the other
      coordinates of the row's points that drew the column, all drawn in one
      call (:func:`_draw_in_rows`).

    The rows are grouped by their last coefficient, and the first stage takes
    one of two routes, chosen by the number of distinct ones and d:

    - with one (every one-row round), or at d = 1, each distinct coefficient
      in turn gets one in-place FFT of the overlay along the last axis
      (:func:`_last_axis_columns`); its column masses give the marginal, from
      which its points draw their last coordinate as a one-row
      :func:`_draw_in_rows` table.  With one coefficient at d > 1 the drawn
      columns are kept.  At d = 1 the one row is the whole lattice, so the
      route below would hold one lattice-sized marginal per coefficient at
      once, and each transform is a single length-m FFT, which that route
      does not beat; each coefficient's transformed row is released before
      the next is made;
    - with two or more at d > 1, the overlay's row autocorrelation rho is
      computed once, at the cost of about two such transforms
      (:func:`_row_autocorrelation`); it does not depend on the coefficient,
      whose pre-twiddle and c*u are linear phases along the axis.  Each
      coefficient's marginal is then one length-m FFT of rho
      (:func:`_last_axis_marginals`), all points draw their last coordinate
      in one :func:`_draw_in_rows`, and every drawn column comes from one
      matrix product (:func:`_overlay_columns`), so the cost does not grow
      with the number of distinct last coefficients; at m = 256, d = 2 it is
      already below the direct route's at two.

    At d = 1 the first stage is the whole draw.  The total mass is checked
    against 1 as :class:`GridState` checks its norm, before anything is
    drawn, so an overlay entry off the unit circle is refused.  No state and
    no lattice points are built.
    """
    m, d = spec.m, spec.d
    block, counts = _coefficient_rows(spec, coeffs, reps)
    if overlay.shape != (spec.points,):
        raise ValueError(f"overlay has shape {overlay.shape}, expected ({spec.points},)")
    table = overlay.reshape(-1, m)
    point_row = np.repeat(np.arange(block.shape[0]), counts)
    lasts, by_last = np.unique(block[:, -1], return_inverse=True)
    idx = np.empty((point_row.size, d), dtype=np.int64)
    if lasts.size == 1 or d == 1:
        point_last = by_last[point_row]
        for k, c in enumerate(lasts):
            cols = None  # frees the last coefficient's table (at d = 1, the lattice) first
            cols, mass = _last_axis_columns(table, c)
            mine = np.flatnonzero(point_last == k)
            idx[mine, -1] = _draw_in_rows(mass[None], np.zeros_like(mine), rng.random(mine.size))
    else:
        marginals = _last_axis_marginals(*_row_autocorrelation(table), lasts, spec.points)
        idx[:, -1] = _draw_in_rows(marginals, by_last[point_row], rng.random(point_row.size))
    if d > 1:
        pairs, which = np.unique(point_row * m + idx[:, -1], return_inverse=True)
        rows, drawn = np.divmod(pairs, m)
        if lasts.size == 1:
            heads = cols.T[drawn]
        else:
            heads = _overlay_columns(table, block[rows, -1], drawn)
        idx[:, :-1] = _draw_other_axes(spec, block, heads, rows, which, rng)
    return _lattice_points(idx, m)


def measure(state: GridState, reps: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``reps`` grid points from the Born distribution, as a (reps, d) array.

    A product state draws each axis from its own marginal through
    :func:`sample_marginals`; a full state draws flat indices from its
    row-major joint table, as a one-row table, each mapped back to its
    lattice point.  Both go through the one CDF inversion
    :func:`_draw_in_rows`.
    """
    dist = measurement_distribution(state)
    if state.is_product:
        return sample_marginals(dist, reps, rng)
    return _flat_points(
        _draw_in_rows(dist[None], np.zeros(reps, dtype=np.int64), rng.random(reps)), state.spec
    )
