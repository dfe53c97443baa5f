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
* There is one spectral layout, the real-FFT half-spectrum: ``array_rfft``
  maps values of shape (..., *grid.shape) to coefficients F of shape
  (..., *half), where the last active axis keeps its first n//2 + 1 modes
  (``Grid.half_cut``), and ``array_irfft`` maps them back.  F is not
  normalized: f(x) = sum_k c_k exp(i k.x) with c_k = F_k / grid.npoints,
  the conjugate partners of the omitted modes being implied.  Operators
  are multipliers on F (``Grid.half_wavenumbers``, ``half_divergence``,
  ``half_leray_project``, ``Grid.half_dealias_mask``).
* The H^l norm is the Fourier-multiplier form
  ``sqrt(V * sum_k (1+|k|^2)^l |c_k|^2)`` with V the domain volume, so
  l = 0 reproduces the L^2 norm.  It is summed on the half-spectrum by
  Parseval (``_mode_sums``, ``Grid.half_parseval_weight``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as _iproduct
from typing import Callable

import numpy as np

from .errors import ConfigError, GridMismatchError

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "SobolevIndex",
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
            raise ValueError("dims_active must be 1, 2 or 3")
        n = self.points_per_dim
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("points_per_dim must be a power of two >= 8")
        if not self.period > 0:
            raise ValueError("period must be positive")

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
        k = self.half_wavenumbers
        k2 = (k**2).sum(axis=0)
        return k / np.sqrt(np.where(k2 == 0.0, 1.0, k2))

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
        """``dealias_mask`` on the half-spectrum."""
        return self.dealias_mask[self.half_cut]

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

    def coordinates(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(self.coordinate(ax) for ax in range(3))


def _require_same_grid(*grids: Grid) -> Grid:
    first = grids[0]
    for g in grids[1:]:
        if g != first:
            raise GridMismatchError("fields live on different grids")
    return first


# ---------------------------------------------------------------------------
# half-spectrum transforms and kernels


# Real-data transforms to and from the half-spectrum (``Grid.half_cut``).  On
# several axes scipy's rfftn is 1.5-2.5x faster than numpy's; on one active
# axis numpy's 1-d entry points cost less per call than either n-d one, which
# matters on the small grids that are bound by call overhead.  scipy.fft is
# imported on first use, so one-axis runs do not load it (about 5 MB resident).
def array_rfft(grid: Grid, values: np.ndarray) -> np.ndarray:
    axes = grid.fft_axes
    if len(axes) == 1:
        return np.fft.rfft(values, axis=axes[0])
    import scipy.fft
    return scipy.fft.rfftn(values, axes=axes)


def array_irfft(grid: Grid, hat: np.ndarray) -> np.ndarray:
    axes = grid.fft_axes
    if len(axes) == 1:
        return np.fft.irfft(hat, n=grid.points_per_dim, axis=axes[0])
    import scipy.fft
    return scipy.fft.irfftn(hat, s=(grid.points_per_dim,) * len(axes), axes=axes)


def half_leray_project(grid: Grid, v_hat: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto divergence-free fields (mean part kept) of
    half-spectrum vectors (..., 3, *half): v_hat - k (k.v_hat)/|k|^2, with
    the derivative wavenumbers (Nyquist zeroed), so it is exact and
    consistent with ``half_divergence``."""
    kh = grid.half_unit_wavenumbers
    return v_hat - kh * (kh * v_hat).sum(axis=-4, keepdims=True)


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


def _partials_hat(grid: Grid, n_hat: np.ndarray, l: int, extra: int) -> np.ndarray:
    """(ik)^a n_hat for every multi-index 1 <= |a| <= l (in ``_multi_indices``
    order), then ``extra`` rows left for the caller.  Each row is one
    multiply of an earlier row (the index lowered by one on its first
    nonzero axis) or of n_hat."""
    alphas = list(_multi_indices(grid.dims_active, l, 1))
    out = np.empty((len(alphas) + extra,) + n_hat.shape, dtype=complex)
    ik = 1j * grid.half_wavenumbers
    row_of = {}
    for i, alpha in enumerate(alphas):
        ax = next(j for j, order in enumerate(alpha) if order)
        lower = alpha[:ax] + (alpha[ax] - 1,) + alpha[ax + 1:]
        np.multiply(out[row_of[lower]] if lower in row_of else n_hat, ik[ax], out=out[i])
        row_of[alpha] = i
    return out


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

    @classmethod
    def from_function(cls, grid: Grid, fn: Callable) -> "ScalarField":
        x, y, z = grid.coordinates()
        return cls(grid, np.asarray(fn(x, y, z)) * np.ones(grid.shape))

    @property
    def mean(self) -> float:
        return float(self.values.mean())

    def __add__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        _require_same_grid(self.grid, other.grid)
        return ScalarField(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "ScalarField":
        return ScalarField(self.grid, self.values * c)

    __rmul__ = __mul__

    def __neg__(self) -> "ScalarField":
        return ScalarField(self.grid, -self.values)


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

    @classmethod
    def from_components(cls, fx: ScalarField, fy: ScalarField, fz: ScalarField):
        grid = _require_same_grid(fx.grid, fy.grid, fz.grid)
        return cls(grid, np.stack([fx.values, fy.values, fz.values]))

    @property
    def components(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        return tuple(ScalarField(self.grid, self.values[i]) for i in range(3))

    def __add__(self, other: "VectorField") -> "VectorField":
        _require_same_grid(self.grid, other.grid)
        return VectorField(self.grid, self.values + other.values)

    def __sub__(self, other: "VectorField") -> "VectorField":
        _require_same_grid(self.grid, other.grid)
        return VectorField(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "VectorField":
        return VectorField(self.grid, self.values * c)

    __rmul__ = __mul__

    def __neg__(self) -> "VectorField":
        return VectorField(self.grid, -self.values)


Field = ScalarField | VectorField


@dataclass(frozen=True)
class SobolevIndex:
    """Sobolev exponent l >= 0; convergence studies need l > 2 + 3/2 so that
    H^l embeds into C^2 in three dimensions."""

    l: float = 4.0

    def __post_init__(self):
        if self.l < 0:
            raise ValueError("Sobolev exponent must be nonnegative")

    @property
    def embeds_c2(self) -> bool:
        return self.l > 2.0 + 1.5


def _exponent(l) -> float:
    return float(l.l) if isinstance(l, SobolevIndex) else float(l)


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


def _sobolev_weight(grid: Grid, l) -> np.ndarray:
    """(1+|k|^2)^l on the half-spectrum, the ``_mode_sums`` multiplier of the
    squared H^l norm."""
    s = _exponent(l)
    if s < 0:
        raise ValueError("Sobolev exponent must be nonnegative")
    return (1.0 + grid.k_squared[grid.half_cut]) ** s


def sobolev_norm(f: Field, l=SobolevIndex()) -> float:
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
    ``random_smooth_field``."""
    if decay_rate <= 0:
        raise ValueError("decay_rate must be positive")
    mi = tuple(m[grid.half_cut] for m in grid.mode_indices)
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

    k_abs = np.sqrt(grid.k_squared[grid.half_cut])
    mag = np.exp(-decay_rate * k_abs)
    if max_wavenumber is not None:
        mag = np.where(k_abs <= max_wavenumber * (1.0 + 1e-12), mag, 0.0)
    phase = np.where(is_canon, 1.0, -1.0) * _TWO_PI * u
    coeff = mag * np.exp(1j * phase)
    # self-conjugate modes (k = 0 and Nyquist combinations) must stay real
    coeff = np.where(self_conj, mag * np.cos(_TWO_PI * u), coeff)
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
    sqrt(V sum |k|^{2s} |c_k|^2) are Parseval sums on the half-spectrum, and
    one inverse transform brings grad f and every d^a g and d^a (fg) with
    1 <= |a| <= s to the grid."""
    grid = _require_same_grid(f.grid, g.grid)
    fg = f.values * g.values
    hat = array_rfft(grid, np.stack([f.values, g.values, fg]))
    k2 = grid.k_squared[grid.half_cut]
    semi_f, semi_g = np.sqrt(_mode_sums(grid, hat[:2], k2**s))
    semi_g1 = math.sqrt(_mode_sums(grid, hat[1], k2 ** (s - 1)))
    partials = _partials_hat(grid, hat[1:], s, 0)  # rows (d^a g, d^a fg) per a
    d = array_irfft(grid, np.concatenate([
        1j * grid.half_wavenumbers * hat[0],
        partials.reshape((-1,) + hat.shape[1:]),
    ]))
    sup_df = float(np.sqrt((d[:3] ** 2).sum(axis=0)).max())
    d_g, d_fg = d[3::2], d[4::2]
    sup_f = sup_norm(f)
    sup_g = sup_norm(g)
    den1 = sup_f * semi_g + sup_g * semi_f
    den2 = sup_df * semi_g1 + sup_g * semi_f
    r1 = float(_row_l2(grid, np.concatenate([fg[None], d_fg])).max()) / den1
    r2 = float(_row_l2(grid, d_fg - f.values * d_g).max(initial=0.0)) / den2
    return r1, r2


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
