"""Periodic-torus spectral discretization: grids, fields, transforms, norms.

Fields live on a torus [0, L)^d embedded in three space dimensions: vector
fields always carry three components, but the grid may vary along one, two
or three axes (slab symmetry), so full cross products survive while
one-axis runs stay cheap.  Derivatives are exact spectral derivatives of
the trigonometric interpolant; quadratic and cubic nonlinearities are
controlled with the classical 2/3 dealiasing rule.

Conventions
-----------
* Physical values are real float64 arrays of shape ``grid.shape`` (size-1
  entries along inactive axes).
* There are two spectral layouts.  The real-FFT half-spectrum:
  ``array_rfft`` maps values of shape (..., *grid.shape) to coefficients F
  of shape (..., *half), where the last active axis keeps its first
  n//2 + 1 modes (``Grid.half_cut``), and ``array_irfft`` maps them back.
  F is not normalized: f(x) = sum_k c_k exp(i k.x) with c_k =
  F_k / grid.npoints, the conjugate partners of the omitted modes being
  implied.  Operators are multipliers on F (``Grid.half_wavenumbers``,
  ``half_divergence``, ``half_leray_project``, ``Grid.half_dealias_mask``).
  Diagnostics, initial data and the certificates use it, because they
  transform products that are not band-limited.
* The 2/3-rule box, the stepper's layout: the modes of the half-spectrum
  with every |k_i| <= (2/3) k_max (``Grid.box_index``), where the 2/3 mask
  is identically 1 and no mode is a Nyquist mode: c = n//3 + 1 modes of
  the last active axis, 2c - 1 of each other one (28% of the
  half-spectrum on 32^3).  On three axes the box stores the last axis'
  modes second, 21 x 11 x 21 on 32^3, the order its forward transform
  makes them in; every box operation acts mode by mode.  ``box_rfft`` and
  ``box_irfft`` transform to and from it directly, pruned: the forward
  transform takes the rfft of the last active axis, then transforms each
  other active axis only on the lines that reach the box, and keeps the
  box; the inverse places the box in a zero half-spectrum and inverts
  each of those axes only on the lines that hold box modes (Canuto,
  Hussaini, Quarteroni & Zang, *Spectral Methods: Fundamentals in Single
  Domains*, 2006, section 3.4).  Both give the bits of the half-spectrum
  transforms on the box modes, and content outside the box is dropped.
  ``Grid.box`` holds the box as a layout (``Modes``): the multipliers of
  its modes (``leray_project`` takes its ``khat``).
* A grid caches arrays alone, nothing that refers back to it, such as a
  transform bound to it: a run's grid and its caches are freed by
  reference counting when the run lets go of them, not at the next cyclic
  collection.  What binds a transform to a grid (``model._RateCoefficients``)
  holds the grid, and the grid holds nothing of it.
* Every transform is numpy's: on several axes its 1-d transforms, axis
  by axis in the order of rfftn and irfftn, whose bits they give.
* The transforms run their leading rows, and ``model._full_rate`` its grid
  products the planes of the first axis, in blocks of at most
  ``_SPLIT_POINTS`` (2^17) grid points, and on three active axes the
  CPUs of the process' affinity mask share the blocks (``_in_parts``):
  the calling thread and a pool of one thread per further CPU each take
  the next block until none is left.  A call holds at least 2^17 grid
  points per thread it uses, so 8^3 stacks and grids of one or two axes
  never start the pool.  Each line is its own pocketfft call and each
  product element goes through the same operations, so no result depends
  on the blocks or the threads, bit for bit.
* The H^l norm is the Fourier-multiplier form
  ``sqrt(V * sum_k (1+|k|^2)^l |c_k|^2)`` with V the domain volume, so
  l = 0 reproduces the L^2 norm.  It is summed on the half-spectrum by
  Parseval (``_mode_sums``, ``Grid.half_parseval_weight``).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iproduct
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, GridMismatchError

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "sobolev_norm",
    "sup_norm",
    "grid_integral",
    "random_smooth_field",
    "random_smooth_vector",
    "derive_seed",
    "moser_ratios",
    "moser_ensemble",
]

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# grid


class Modes(NamedTuple):
    """A spectral layout of a grid's coefficients, as plain arrays: the
    wavevector k of its modes, (3, *modes), whose components past the
    grid's ``active`` axes are 0; k over |k|, and 0 where k = 0 (the Leray
    projector's); and |k|^2.  It holds no transform: one bound to the grid
    would make the grid's cache refer back to the grid."""

    k: np.ndarray
    khat: np.ndarray
    k2: np.ndarray
    active: int


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on a torus, varying along the first axes only.

    Parameters
    ----------
    dims_active:
        Number of coordinates the fields vary along (1, 2 or 3).  Inactive
        axes carry exactly one grid point.
    points_per_dim:
        Points along each active axis; a power of two, at least 8.
    period:
        Domain length per active axis.
    """

    dims_active: int
    points_per_dim: int
    period: float = _TWO_PI

    def __post_init__(self):
        if self.dims_active not in (1, 2, 3):
            raise ValueError(f"dims_active must be 1, 2 or 3, got {self.dims_active!r}")
        n = self.points_per_dim
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"points_per_dim must be a power of two >= 8, got {n!r}")
        if not self.period > 0:
            raise ValueError(f"period must be positive, got {self.period!r}")

    @cached_property
    def shape(self) -> tuple[int, int, int]:
        n = self.points_per_dim
        return tuple(n if ax < self.dims_active else 1 for ax in range(3))

    @cached_property
    def npoints(self) -> int:
        return self.points_per_dim**self.dims_active

    @cached_property
    def spacing(self) -> float:
        return self.period / self.points_per_dim

    @cached_property
    def volume(self) -> float:
        return self.period**self.dims_active

    def is_active(self, axis: int) -> bool:
        return 0 <= axis < self.dims_active

    @cached_property
    def wavenumbers_full(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-axis angular wavenumbers including the Nyquist mode, shaped
        for broadcasting (used for |k|^2 multipliers, norms and masks)."""
        out = []
        for ax in range(3):
            if self.is_active(ax):
                k = (
                    np.fft.fftfreq(self.points_per_dim, d=1.0 / self.points_per_dim)
                    * _TWO_PI
                    / self.period
                )
            else:
                k = np.zeros(1)
            shape = [1, 1, 1]
            shape[ax] = k.size
            out.append(k.reshape(shape))
        return tuple(out)

    @cached_property
    def wavenumbers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Odd-derivative multipliers: the Nyquist entry is zeroed so first
        derivatives of real fields stay real (the ik multiplier at k = -N/2
        has no conjugate partner)."""
        nyq = self.nyquist_wavenumber
        out = []
        for ax, k in enumerate(self.wavenumbers_full):
            k = k.copy()
            if self.is_active(ax):
                k[np.abs(k) >= nyq * (1.0 - 1e-12)] = 0.0
            out.append(k)
        return tuple(out)

    @cached_property
    def mode_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Integer FFT mode indices on the full grid shape."""
        out = []
        for ax in range(3):
            if self.is_active(ax):
                m = np.rint(
                    np.fft.fftfreq(self.points_per_dim) * self.points_per_dim
                ).astype(np.int64)
            else:
                m = np.zeros(1, dtype=np.int64)
            shape = [1, 1, 1]
            shape[ax] = m.size
            out.append(np.broadcast_to(m.reshape(shape), self.shape))
        return tuple(out)

    @cached_property
    def k_squared(self) -> np.ndarray:
        kx, ky, kz = self.wavenumbers_full
        return (kx**2 + ky**2 + kz**2) * np.ones(self.shape)

    @cached_property
    def half_k_squared(self) -> np.ndarray:
        """``k_squared`` on the half-spectrum, contiguous."""
        return np.ascontiguousarray(self.k_squared[self.half_cut])

    @cached_property
    def half_cut(self) -> tuple[slice, ...]:
        """Index of the real-FFT half-spectrum (``array_rfft``) within the
        full one: the last active axis keeps its first n//2 + 1 entries."""
        return (slice(None),) * (self.dims_active - 1) + (slice(0, self.points_per_dim // 2 + 1),)

    @cached_property
    def half_wavenumbers(self) -> np.ndarray:
        """Odd-derivative wavevector on the half-spectrum, shape (3, *half)."""
        return np.stack(np.broadcast_arrays(*(k[self.half_cut] for k in self.wavenumbers)))

    @cached_property
    def half_unit_wavenumbers(self) -> np.ndarray:
        """``half_wavenumbers`` over |k|, and 0 where k = 0 (Leray projector)."""
        return _unit(self.half_wavenumbers)

    @cached_property
    def half_parseval_weight(self) -> np.ndarray:
        """Per-mode weight w with int f g dx = sum w Re(F conj(G)), F and G the
        ``array_rfft`` of real f and g (Parseval on the half-spectrum): V/M^2
        (M = npoints), doubled on the interior modes of the last active axis,
        whose conjugate partners the half-spectrum omits; its 0 and n/2
        planes are their own partners."""
        n = self.points_per_dim
        w = np.full(n // 2 + 1, 2.0 * self.volume / self.npoints**2)
        w[[0, n // 2]] *= 0.5
        shape = [1, 1, 1]
        shape[self.dims_active - 1] = w.size
        return w.reshape(shape)

    @cached_property
    def nyquist_wavenumber(self) -> float:
        return math.pi * self.points_per_dim / self.period

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True where every |k_i| <= (2/3) k_max (the 2/3 rule)."""
        cutoff = (2.0 / 3.0) * self.nyquist_wavenumber * (1.0 + 1e-12)
        mask = np.ones(self.shape, dtype=bool)
        for ax in range(self.dims_active):
            mask &= np.abs(self.wavenumbers_full[ax]) <= cutoff
        return mask

    @cached_property
    def half_dealias_mask(self) -> np.ndarray:
        """``dealias_mask`` on the half-spectrum, as a contiguous float
        multiplier (1 or 0): multiplying by it gives the bits the bool mask
        gives, without the strided read and the per-call cast."""
        return np.ascontiguousarray(self.dealias_mask[self.half_cut], dtype=float)

    @cached_property
    def box_modes(self) -> int:
        """c, the modes per axis of the 2/3-rule box: the mode indices |m| <=
        n//3 = c - 1 are the ones with |k| <= (2/3) k_max (n, a power of two,
        is never a multiple of 3), so the Nyquist index n/2 is outside."""
        return self.points_per_dim // 3 + 1

    @cached_property
    def box_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Index of the 2/3-rule box within the half-spectrum, an open mesh:
        the last active axis keeps its modes 0..c-1, every other active axis
        the modes 0..c-1 and -(c-1)..-1, two blocks.  The box stores the
        last active axis second, so on three axes it is (2c - 1, c, 2c - 1),
        its rows in the order ``box_rfft`` makes them in."""
        n, c = self.points_per_dim, self.box_modes
        both, first, zero = np.r_[0:c, n - c + 1:n], np.arange(c), np.zeros(1, int)
        if self.dims_active == 3:
            a, m, b = np.ix_(both, first, both)
            return a, b, m
        return np.ix_(*([both] * (self.dims_active - 1) + [first] + [zero] * (3 - self.dims_active)))

    @cached_property
    def _box_blocks(self) -> tuple:
        """(index in the box, index of the modes) pairs of the two blocks of
        lines the box keeps of each active axis but the last: the modes
        0..c-1 and -(c-1)..-1."""
        n, c = self.points_per_dim, self.box_modes
        return ((slice(0, c), slice(0, c)), (slice(c, 2 * c - 1), slice(n - c + 1, n)))

    @cached_property
    def box(self) -> "Modes":
        """The 2/3-rule box as a layout, the arrays of its modes; its
        transforms are ``box_rfft`` and ``box_irfft``, and ``k2.shape`` is
        the box shape.  No box mode is a Nyquist mode, so the derivative
        and the full wavenumbers agree there, and |k|^2 is the sum of
        squares of k."""
        k = self.half_wavenumbers[(slice(None),) + self.box_index]
        return Modes(k, _unit(k), (k**2).sum(axis=0), self.dims_active)

    @cached_property
    def fft_axes(self) -> tuple[int, ...]:
        """Axes actually transformed; size-1 axes are skipped (identity)."""
        return tuple(range(-3, -3 + self.dims_active))

    def coordinate(self, axis: int) -> np.ndarray:
        """Grid coordinates along one axis, shaped for broadcasting."""
        if self.is_active(axis):
            x = np.arange(self.points_per_dim) * self.spacing
        else:
            x = np.zeros(1)
        shape = [1, 1, 1]
        shape[axis] = x.size
        return x.reshape(shape)


def _unit(k: np.ndarray) -> np.ndarray:
    """Wavevectors (3, ...) over their length, and 0 where k = 0."""
    k2 = (k**2).sum(axis=0)
    return k / np.sqrt(np.where(k2 == 0.0, 1.0, k2))


def _require_same_grid(a: Grid, b: Grid) -> Grid:
    if a != b:
        raise GridMismatchError("fields live on different grids")
    return a


# ---------------------------------------------------------------------------
# a call in blocks, shared by the CPUs
#
# Rows of a transform, and planes of a product, are independent: each line
# is its own pocketfft call, which gives the line the same bits whatever
# other lines share the call, and each element of a product goes through
# the same operations wherever it sits.  Blocks of at most ``_SPLIT_POINTS``
# grid points keep each block's temporaries small, and threads take them as
# they come, so one that starts late takes fewer: in-process, a paired
# ``paired_3d`` step took 0.93-0.95 of the time that one fixed part per
# thread took.  ``concurrent.futures`` is imported at the first shared
# call: imported eagerly it costs the 1-D runs 0.5 MB of peak RSS.  Each
# block allocates its own temporaries, so a pool thread's stay in its own
# heap arena, whose pages the allocator keeps.

_SPLIT_POINTS = 2**17  # grid points of a block at most, and per thread of a shared call at least
_workers = None  # the pool's threads: the process' CPUs less one, on first use
_pool = None


def _cpus() -> int:
    """CPUs the process may run on: its affinity mask where the OS keeps one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drop_pool() -> None:
    """Forget the pool: a forked child has none of its threads."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _in_parts(active: int, count: int, points: int, body: Callable[[int, int], None]) -> None:
    """Run ``body(lo, hi)`` over range(count), each unit of which holds
    ``points`` grid points of a grid of ``active`` axes, in blocks of
    contiguous units.  On three axes the calling thread, in its own
    context, and as many threads of the pool as leave each thread
    ``_SPLIT_POINTS`` points, each in a copy of it (numpy's error state is
    in it), take the next block until none is left; a thread whose block
    raises takes no more.  The call returns once every thread has ended,
    or then raises the first error, the calling thread's first.  A block
    must not call ``_in_parts`` itself."""
    global _workers, _pool
    block = max(1, _SPLIT_POINTS // points)
    if count <= block:  # one block, which no other thread could share: no lock, no loop
        body(0, count)
        return

    lock, starts = threading.Lock(), iter(range(0, count, block))

    def run() -> None:  # takes the next block until none is left
        while True:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            body(start, min(start + block, count))

    threads = 1
    if active == 3:
        if _workers is None:
            _workers = _cpus() - 1
        threads = min(1 + _workers, count, count * points // _SPLIT_POINTS)
    if threads == 1:
        run()
        return
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(_workers, thread_name_prefix="nsmlimit-part")
    parts = [_pool.submit(contextvars.copy_context().run, run) for _ in range(threads - 1)]
    try:
        run()
    finally:
        for part in parts:
            part.exception()  # waits, and raises nothing
    for part in parts:
        part.result()


# ---------------------------------------------------------------------------
# half-spectrum transforms and kernels


# Real-data transforms to and from the half-spectrum (``Grid.half_cut``) and
# the 2/3-rule box (``Grid.box``), all numpy's.  On several axes they are its
# 1-d transforms axis by axis in the order of rfftn and irfftn, so the bits are
# theirs.  numpy hands pocketfft every line of a call at once, as scipy does,
# when the lines run along the outermost axis of a contiguous block or along
# its last; along a middle axis it makes one call per short run of lines,
# about 1.7 us each on 32^3.  The half-spectrum transforms in place and pays
# that on its middle axis: turning the axis last costs two full copies, which
# measured slower.  The box needs a new array anyway, to gather or to zero-pad
# its modes, and lays that out so that each c2c transform is one call per
# block.  Each transform runs its leading rows through ``_in_parts``.
def array_rfft(grid: Grid, values: np.ndarray) -> np.ndarray:
    last, half = grid.dims_active - 4, grid.half_k_squared.shape
    x = values.reshape((-1,) + grid.shape)
    hat = np.empty(values.shape[:-3] + half, dtype=complex)
    rows = hat.reshape((-1,) + half)

    def part(lo, hi):
        h = rows[lo:hi]
        np.fft.rfft(x[lo:hi], axis=last, out=h)
        for ax in range(-3, last):
            np.fft.fft(h, axis=ax, out=h)

    _in_parts(grid.dims_active, len(x), grid.npoints, part)
    return hat


def array_irfft(grid: Grid, hat: np.ndarray, overwrite: bool = False) -> np.ndarray:
    """Grid values of half-spectrum coefficients.  On several axes the c2c
    inverses of the axes but the last run in place, in irfftn's order, then
    the last axis' irfft: in a new array, or with ``overwrite`` in ``hat``
    itself, which the caller gives up."""
    last = grid.dims_active - 4
    values = np.empty(hat.shape[:-3] + grid.shape)
    x, rows = hat.reshape((-1,) + hat.shape[-3:]), values.reshape((-1,) + grid.shape)

    def part(lo, hi):
        h = x[lo:hi]
        for ax in range(-3, last):
            h = np.fft.ifft(h, axis=ax, out=h if overwrite or ax > -3 else None)
        np.fft.irfft(h, n=grid.points_per_dim, axis=last, out=rows[lo:hi])

    _in_parts(grid.dims_active, len(x), grid.npoints, part)
    return values


def box_rfft(grid: Grid, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The box coefficients (..., *box) of values (..., *grid.shape), bit
    for bit ``array_rfft`` restricted to ``Grid.box_index``: the rfft of the
    last active axis, then a c2c transform of the first on its first c
    modes, then of the second on the first's box lines alone.  On three
    axes the rows go in blocks (``_in_parts``, ``_box_rfft_rows``), so its
    temporaries stay small.  On one active axis it is numpy's rfft and one copy of the kept
    modes.  ``out`` receives the result, as for a numpy ufunc."""
    n, d, c = grid.points_per_dim, grid.dims_active, grid.box_modes
    target = out if out is not None and out.flags.c_contiguous else \
        np.empty(values.shape[:-3] + grid.box.k2.shape, dtype=complex)
    if d == 1:  # the first c modes: a plain copy, the fewest numpy calls
        np.copyto(target, np.fft.rfft(values, axis=-3)[..., :c, :, :])
    elif d == 2:
        hat = np.fft.rfft(values, axis=-2)[..., :c, :]
        np.fft.fft(hat, axis=-3, out=hat)
        for into, line in grid._box_blocks:
            target[..., into, :, :] = hat[..., line, :, :]
    else:
        x, rows = values.reshape((-1, n, n, n)), target.reshape((-1,) + grid.box.k2.shape)
        _in_parts(d, len(x), grid.npoints, lambda lo, hi: _box_rfft_rows(grid, x[lo:hi], rows[lo:hi]))
    if out is not None and target is not out:
        np.copyto(out, target)
        return out
    return target


def _box_rfft_rows(grid: Grid, x: np.ndarray, out: np.ndarray) -> None:
    """``box_rfft`` on three axes of rows x (rows, n, n, n) into ``out``
    (rows, *box), through a slab (first, rows, c, second) in which both c2c
    transforms are one call."""
    n, c = grid.points_per_dim, grid.box_modes
    hat = np.fft.rfft(x, axis=-1)[..., :c]
    slab = np.empty((n, len(x), c, n), dtype=complex)
    np.copyto(slab, np.moveaxis(hat.swapaxes(-1, -2), 1, 0))
    del hat  # not held through the transforms
    np.fft.fft(slab, axis=0, out=slab)
    for into, line in grid._box_blocks:
        part = slab[line]
        np.fft.fft(part, axis=-1, out=part)
        for into_b, line_b in grid._box_blocks:
            out[:, into, :, into_b] = part[..., line_b].swapaxes(0, 1)


def box_irfft(grid: Grid, box: np.ndarray) -> np.ndarray:
    """Grid values (..., *grid.shape) of box coefficients (..., *box), bit
    for bit ``array_irfft`` of the zero-padded half-spectrum; on several
    axes through ``_box_irfft_rows``, its rows in blocks (``_in_parts``)."""
    n, d = grid.points_per_dim, grid.dims_active
    if d == 1:
        return np.fft.irfft(box, n=n, axis=-3)
    out = np.empty(box.shape[:-3] + grid.shape)
    rows = out.reshape((-1,) + (n,) * d)
    # the box as (first, [second,] rows, c)
    stored = box.reshape((len(rows),) + grid.box.k2.shape[:d])
    stored = stored.transpose((1, 3, 0, 2) if d == 3 else (1, 0, 2))
    _in_parts(d, len(rows), grid.npoints,
              lambda lo, hi: _box_irfft_rows(grid, stored[..., lo:hi, :], rows[lo:hi]))
    return out


def _box_irfft_rows(grid: Grid, stored: np.ndarray, out: np.ndarray) -> None:
    """``box_irfft`` on several axes of the box rows ``stored`` (first,
    [second,] rows, c) into ``out`` (rows, *grid shape): the box in a zero
    array (first, [second,] rows, c) that holds the first c modes of the
    last axis, a c2c inverse of the first axis on the box lines of the
    second, then one of the second, then the last axis' irfft, which pads
    the c modes with zeros."""
    n, d = grid.points_per_dim, grid.dims_active
    half = np.zeros((n,) * (d - 1) + stored.shape[-2:], dtype=complex)
    seconds = grid._box_blocks if d == 3 else ((slice(None), slice(None)),)
    for into, line in grid._box_blocks:
        for into_b, line_b in seconds:
            half[line, line_b] = stored[into, into_b]
    for _, line_b in seconds:
        part = half[:, line_b]
        np.fft.ifft(part, axis=0, out=part)
    if d == 3:
        np.fft.ifft(half, axis=1, out=half)
    # rows first in both operands, so each call runs on the lines of a row
    np.fft.irfft(np.moveaxis(half, -2, 0), n=n, axis=-1, out=out)


def leray_project(khat: np.ndarray, v_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Orthogonal projection onto divergence-free fields (mean part kept) of
    spectral vectors (..., 3, *modes): v_hat - khat (khat . v_hat), with
    ``khat`` the ``Modes.khat`` of their layout.  ``out`` receives the
    result, as for a numpy ufunc; it may be ``v_hat`` itself."""
    return np.subtract(v_hat, khat * (khat * v_hat).sum(axis=-4, keepdims=True), out=out)


def half_leray_project(grid: Grid, v_hat: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``leray_project`` of half-spectrum vectors (..., 3, *half), with the
    derivative wavenumbers (Nyquist zeroed), so it is exact and consistent
    with ``half_divergence``."""
    return leray_project(grid.half_unit_wavenumbers, v_hat, out)


def half_divergence(grid: Grid, v_hat: np.ndarray) -> np.ndarray:
    """Divergence of half-spectrum vectors: (..., 3, *half) -> (..., *half)."""
    return 1j * (grid.half_wavenumbers * v_hat).sum(axis=-4)


def _mode_sums(grid: Grid, hat: np.ndarray, mult) -> np.ndarray:
    """Per leading row, int |d|^2 dx by Parseval, where d has the
    half-spectrum coefficients sqrt(mult) * hat."""
    sq = hat.real**2 + hat.imag**2
    return ((grid.half_parseval_weight * mult) * sq).sum(axis=(-3, -2, -1))


def _multi_indices(dims: int, max_order: int, min_order: int = 0):
    for alpha in _iproduct(range(max_order + 1), repeat=dims):
        if min_order <= sum(alpha) <= max_order:
            yield alpha


# Derivative rows come a group at a time, each group at most
# ``_GROUP_POINTS`` grid points (8 rows of 32^3): a caller brings one group to
# the grid before the next is made, so what it holds does not grow with the
# number of rows, which grows like l^d.
_GROUP_POINTS = 2**18


def _derivative_groups(grid: Grid, hat: np.ndarray, l: int, lead: np.ndarray | None = None):
    """(ik)^a hat for every multi-index 1 <= |a| <= l, in ``_multi_indices``
    order, as groups (rows, *hat.shape) of at most ``_GROUP_POINTS`` grid
    points and at least one row.  ``lead`` (k, *hat.shape), if given, leads
    the first group, whose budget it shares.  Each row is one multiply of an
    earlier row (the index lowered by one on its first nonzero axis) or of
    hat; a row is held past its group, as a copy, only until a later group
    has made its last row from it, so a caller may overwrite a group."""
    alphas = list(_multi_indices(grid.dims_active, l, 1))
    row_of = {alpha: i for i, alpha in enumerate(alphas)}
    axes = [next(j for j, order in enumerate(alpha) if order) for alpha in alphas]
    sources = [row_of.get(alpha[:ax] + (alpha[ax] - 1,) + alpha[ax + 1:])  # None: hat itself
               for alpha, ax in zip(alphas, axes)]
    last_use = {src: i for i, src in enumerate(sources)}
    ik = 1j * grid.half_wavenumbers
    size = max(1, _GROUP_POINTS // (math.prod(hat.shape[:-3]) * grid.npoints))
    head = 0 if lead is None else len(lead)
    held = {}  # copies of the rows that later groups make rows from
    lo, hi = 0, min(len(alphas), max(1, size - head))
    while lo < hi or head:
        group = np.empty((head + hi - lo,) + hat.shape, dtype=complex)
        if head:
            group[:head], lead = lead, None
        for i in range(lo, hi):
            src = sources[i]
            base = hat if src is None else group[head + src - lo] if src >= lo else held[src]
            np.multiply(base, ik[axes[i]], out=group[head + i - lo])
        held = {i: row for i, row in held.items() if last_use[i] >= hi}
        held.update((i, group[head + i - lo].copy()) for i in range(lo, hi) if last_use.get(i, -1) >= hi)
        yield group
        del group  # the caller's to free
        head, lo, hi = 0, hi, min(len(alphas), hi + size)


# ---------------------------------------------------------------------------
# fields


@dataclass(frozen=True)
class ScalarField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    @property
    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class VectorField:
    grid: Grid
    values: np.ndarray  # shape (3, *grid.shape)

    def __post_init__(self):
        if self.values.shape != (3,) + self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} != (3, *{self.grid.shape})"
            )

    @classmethod
    def zeros(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros((3,) + grid.shape))


Field = ScalarField | VectorField


# ---------------------------------------------------------------------------
# norms and integrals


def grid_integral(grid: Grid, values: np.ndarray) -> float:
    """Trapezoid-on-torus integral: exact for band-limited integrands.

    Integrates over the spatial axes; any leading (component) axes are
    summed, so a squared vector stack integrates to sum_i int |v_i|^2.
    """
    return float(np.sum(values.mean(axis=(-3, -2, -1))) * grid.volume)


def sup_norm(f: Field) -> float:
    if isinstance(f, VectorField):
        return float(np.sqrt((f.values**2).sum(axis=0)).max())
    return float(np.abs(f.values).max())


def _sobolev_weight(grid: Grid, l: float) -> np.ndarray:
    """(1+|k|^2)^l on the half-spectrum, the ``_mode_sums`` multiplier of the
    squared H^l norm."""
    if l < 0:
        raise ValueError("Sobolev exponent must be nonnegative")
    return (1.0 + grid.half_k_squared) ** float(l)


def sobolev_norm(f: Field, l: float = 4.0) -> float:
    """H^l norm, ``sqrt(V sum_k (1+|k|^2)^l |c_k|^2)``; l=0 is the L^2 norm."""
    hat = array_rfft(f.grid, f.values)
    return math.sqrt(_mode_sums(f.grid, hat, _sobolev_weight(f.grid, l)).sum())


# ---------------------------------------------------------------------------
# seeded smooth random fields
#
# Coefficients are drawn per Fourier mode from a counter-style integer hash
# of (seed, mode index), so a given seed names the same function on every
# resolution: refining the grid only appends modes with (exponentially)
# smaller amplitude.  That keeps ensemble statistics comparable across
# resolution-doubling checks.

_MASK64 = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def _mix64(x: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64 by construction
    with np.errstate(over="ignore"):
        x = (np.asarray(x, dtype=np.uint64) + _GOLDEN) & _MASK64
        x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK64
        x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK64
        return x ^ (x >> np.uint64(31))


def _hash_unit(seed: int, *counters: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in [0, 1) keyed by (seed, counters)."""
    h = _mix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF))
    for c in counters:
        h = _mix64(h ^ np.asarray(c, dtype=np.int64).view(np.uint64))
    return (h >> np.uint64(11)).astype(np.float64) * 2.0**-53


def derive_seed(seed: int, *tags: int) -> int:
    """Stable child seed for independent perturbation streams."""
    h = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    for t in tags:
        h = _mix64(h ^ np.uint64(t & 0xFFFFFFFFFFFFFFFF))
    return int(h & np.uint64(0x7FFFFFFFFFFFFFFF))


def _smooth_hat(
    grid: Grid,
    seed: int,
    decay_rate: float,
    *,
    max_wavenumber: float | None = None,
    zero_mean: bool = False,
) -> np.ndarray:
    """Half-spectrum coefficients (``array_rfft`` layout) of
    ``random_smooth_field``.  Only the modes inside ``max_wavenumber`` are
    drawn; the others stay zero."""
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    k_abs = np.sqrt(grid.half_k_squared)
    inside = ... if max_wavenumber is None else k_abs <= max_wavenumber * (1.0 + 1e-12)
    mi = tuple(m[grid.half_cut][inside] for m in grid.mode_indices)
    half = grid.points_per_dim // 2
    # conjugate-partner index, componentwise -k with Nyquist fixed points
    ci = tuple(np.where(m == -half, m, -m) for m in mi)
    self_conj = (mi[0] == ci[0]) & (mi[1] == ci[1]) & (mi[2] == ci[2])
    is_canon = (mi[0] > ci[0]) | (
        (mi[0] == ci[0])
        & ((mi[1] > ci[1]) | ((mi[1] == ci[1]) & (mi[2] >= ci[2])))
    )
    canon = tuple(np.where(is_canon, m, c) for m, c in zip(mi, ci))
    u = _hash_unit(seed, *canon)

    mag = np.exp(-decay_rate * k_abs[inside])
    phase = np.where(is_canon, 1.0, -1.0) * _TWO_PI * u
    coeff = np.zeros(k_abs.shape, dtype=complex)
    # self-conjugate modes (k = 0 and Nyquist combinations) must stay real
    coeff[inside] = np.where(self_conj, mag * np.cos(_TWO_PI * u), mag * np.exp(1j * phase))
    if zero_mean:
        coeff[0, 0, 0] = 0.0
    return coeff * grid.npoints


def _smooth_vector_hat(grid: Grid, seed: int, decay_rate: float, **kwargs) -> np.ndarray:
    """Half-spectrum coefficients (3, *half) of ``random_smooth_vector``."""
    return np.stack([_smooth_hat(grid, derive_seed(seed, 101 + i), decay_rate, **kwargs)
                     for i in range(3)])


def random_smooth_field(
    grid: Grid,
    seed: int,
    decay_rate: float,
    *,
    max_wavenumber: float | None = None,
    zero_mean: bool = False,
) -> ScalarField:
    """Real random field with |c_k| = exp(-decay_rate |k|), random phases.

    Deterministic in ``seed`` and independent of the grid resolution (the
    same seed names the same function on a finer grid, up to the appended
    exponentially small tail).  ``max_wavenumber`` band-limits the sample;
    ``zero_mean`` removes the k = 0 mode.
    """
    hat = _smooth_hat(grid, seed, decay_rate, max_wavenumber=max_wavenumber, zero_mean=zero_mean)
    return ScalarField(grid, array_irfft(grid, hat))


def random_smooth_vector(
    grid: Grid,
    seed: int,
    decay_rate: float,
    *,
    max_wavenumber: float | None = None,
    zero_mean: bool = False,
) -> VectorField:
    """Three ``random_smooth_field`` components with child seeds of ``seed``."""
    hat = _smooth_vector_hat(grid, seed, decay_rate, max_wavenumber=max_wavenumber,
                             zero_mean=zero_mean)
    return VectorField(grid, array_irfft(grid, hat))


# ---------------------------------------------------------------------------
# product / commutator inequality ratios
#
# For f, g in H^s the calculus inequalities bound
#   ||d^a (fg)||            by  ||f||_inf |g|_{H^s} + ||g||_inf |f|_{H^s}
#   ||d^a (fg) - f d^a g||  by  ||Df||_inf |g|_{H^{s-1}} + ||g||_inf |f|_{H^s}
# over multi-indices |a| <= s.  The empirical ratios below should admit a
# resolution-stable uniform constant for smooth fields.


def _row_l2(grid: Grid, d: np.ndarray) -> np.ndarray:
    """L^2 norm of each leading row of the grid values d."""
    return np.sqrt((d * d).mean(axis=(-3, -2, -1)) * grid.volume)


def moser_ratios(f: ScalarField, g: ScalarField, s: int) -> tuple[float, float]:
    """Max product-rule and commutator ratios over multi-indices |alpha| <= s.

    One transform of (f, g, fg); the homogeneous seminorms
    sqrt(V sum |k|^{2s} |c_k|^2) are Parseval sums on the half-spectrum.
    One inverse transform brings grad f to the grid, and one per group of
    ``_derivative_groups`` the rows d^a g and d^a (fg) with 1 <= |a| <= s;
    each row's L^2 norm is its own, so the maxima do not depend on the
    groups."""
    grid = _require_same_grid(f.grid, g.grid)
    fg = f.values * g.values
    hat = array_rfft(grid, np.stack([f.values, g.values, fg]))
    k2 = grid.half_k_squared
    semi_f, semi_g = np.sqrt(_mode_sums(grid, hat[:2], k2**s))
    semi_g1 = math.sqrt(_mode_sums(grid, hat[1], k2 ** (s - 1)))
    df = array_irfft(grid, 1j * grid.half_wavenumbers * hat[0])
    sup_df = float(np.sqrt((df**2).sum(axis=0)).max())
    l2_fg, l2_comm = _row_l2(grid, fg[None]).max(), 0.0
    for group in _derivative_groups(grid, hat[1:], s):  # rows (d^a g, d^a fg) per a
        d = array_irfft(grid, group, overwrite=True)
        d_g, d_fg = d[:, 0], d[:, 1]
        l2_fg = max(l2_fg, _row_l2(grid, d_fg).max())
        l2_comm = max(l2_comm, _row_l2(grid, d_fg - f.values * d_g).max())
    sup_f = sup_norm(f)
    sup_g = sup_norm(g)
    den1 = sup_f * semi_g + sup_g * semi_f
    den2 = sup_df * semi_g1 + sup_g * semi_f
    return float(l2_fg) / den1, float(l2_comm) / den2


def moser_ensemble(
    grid: Grid,
    s: int = 4,
    n_pairs: int = 100,
    seed: int = 0,
    decay_rate: float = 1.0,
) -> tuple[float, float]:
    """Empirical uniform constants of the two inequalities over a seeded ensemble."""
    if n_pairs < 1:
        raise ConfigError(f"moser ensemble needs at least 1 pair, got {n_pairs}")
    if s < 1:
        raise ConfigError(f"moser ensemble needs a derivative order s of at least 1, got {s}")
    c1 = 0.0
    c2 = 0.0
    for i in range(n_pairs):
        f = random_smooth_field(grid, derive_seed(seed, 2 * i), decay_rate)
        g = random_smooth_field(grid, derive_seed(seed, 2 * i + 1), decay_rate)
        r1, r2 = moser_ratios(f, g, s)
        c1 = max(c1, r1)
        c2 = max(c2, r2)
    return c1, c2
