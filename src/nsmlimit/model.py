"""Physics: parameters, pressure/enthalpy laws and system right-hand sides.

Three systems are evaluated here, all on the periodic torus:

* the scaled two-fluid system in the variables (n, u, j~, E, B), with
  u = u_i + eps*u_e the combined velocity and j~ = j/n the specific
  current; evolution uses the primitive pair (u, J) with J = kappa*j~,
* its one-fluid compressible Navier-Stokes limit in (n0, u0),
* the original two-fluid form in (n, u_e, u_i, E, B), kept purely so the
  variable substitution and scaling algebra between the three forms can
  be certified numerically (``reformulation_check``).

The stepping rate ``_full_rate`` takes the stack of a member set, the
states stepped together, on the 2/3-rule box (``spectral``, "Conventions")
and returns its time derivative there.  A member set holds scaled-system
states and, first, the limit system's, which is the scaled system on
J = E = B = 0: its rows are the same rates less the current, field and
source terms that vanish there, formed in the same numpy calls as the
other members' (``_Layout``).  Every pointwise product of a rate is formed
on the grid and all of them are transformed in one batched call.  The products are laid out so that paired
work is one numpy call (``_products``): the n u and n J of a member set are
adjacent, so one cross product with B gives every n u x B and n J x B, and
the symmetric tensors are stored diagonal first, so the pressure is one
slice add.  In the call-overhead-bound 1-D steps the number of numpy calls,
not the arithmetic, sets the time; every regrouping keeps each element's
floating-point operations and their order, so the rates give the same bits
as the row-by-row forms (``tests/support.py``) and each member's rows the
same bits whatever set it is stepped in.  The 2/3 rule (Orszag, J. Atmos.
Sci. 28, 1971) is the layout itself: the products' transforms keep the box
modes alone, so the rates need no mask, and a state on the box stays
there, because the linear terms keep each mode's support.  The certificate
forms (``_two_fluid_rate``, ``_reformed_rate``) work on the real-FFT
half-spectrum instead, term by term: each
term's product is transformed on its own and masked once, as the final
operation of the term, the terms are summed there, and one inverse
transform brings all five rates to the grid.  Intermediate sub-products
are never masked: that would break the exact pointwise identities the
reformulation check relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, VacuumError
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    Modes,
    _in_parts,
    array_irfft,
    array_rfft,
    box_irfft,
    box_rfft,
    half_divergence,
    half_leray_project,
    leray_project,
    derive_seed,
    random_smooth_field,
    random_smooth_vector,
    sup_norm,
    grid_integral,
)

__all__ = [
    "PressureLaw",
    "Params",
    "FullState",
    "LimitState",
    "TwoFluidState",
    "reformulation_check",
    "ReformReport",
    "random_two_fluid_state",
]


@dataclass(frozen=True)
class PressureLaw:
    """Gamma-law pressure P(n) = A n^gamma with P'(n) > 0 on (0, inf)."""

    amplitude: float = 1.0
    gamma: float = 5.0 / 3.0

    def __post_init__(self):
        for name, value in (("pressure amplitude", self.amplitude), ("adiabatic exponent", self.gamma)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if not self.amplitude > 0:
            raise ValueError(f"pressure amplitude must be positive, got {self.amplitude!r}")
        if not self.gamma >= 1:
            raise ValueError(f"adiabatic exponent must be >= 1, got {self.gamma!r}")

    def pressure(self, rho):
        return self.amplitude * rho**self.gamma

    def dpressure(self, rho):
        return self.amplitude * self.gamma * rho ** (self.gamma - 1.0)

    def enthalpy(self, rho):
        """h(rho) = integral_1^rho P'(s)/s ds, closed form for the gamma law."""
        if self.gamma == 1.0:
            return self.amplitude * np.log(rho)
        g = self.gamma
        return self.amplitude * g / (g - 1.0) * (rho ** (g - 1.0) - 1.0)

    def denthalpy(self, rho):
        """h'(rho) = P'(rho)/rho."""
        return self.amplitude * self.gamma * rho ** (self.gamma - 2.0)

    def relative_enthalpy(self, N, rho0):
        """integral_0^N [h(s+rho0) - h(rho0)] ds for rho0 + min(N, 0) > 0, in
        closed form through x = N/rho0.  Both terms of the gamma-law bracket
        carry the factor gamma - 1, so it keeps its relative accuracy as
        gamma -> 1 and up to vacuum (x -> -1); as x -> 0 it loses it like
        eps/|x|, as h(rho0 + N) - h(rho0) does."""
        x = N / rho0
        y = np.log1p(x)
        if self.gamma == 1.0:
            return self.amplitude * rho0 * ((1.0 + x) * y - x)
        g1 = self.gamma - 1.0
        return self.amplitude * rho0**self.gamma * ((1.0 + x) * np.expm1(g1 * y) - g1 * x) / g1


@dataclass(frozen=True)
class Params:
    """Physical and scaling constants of the coupled system.

    kappa is the singular parameter (electron collisionality scale),
    epsilon the electron/ion mass ratio, (mu, lam) the viscosity pair with
    mu > 0 and 2 mu + 3 lam > 0, tau the ion-neutral collision time, eta
    the thermal-energy measure, kappa_ei the electron-ion collision
    strength and k_rate the collision rate constant.
    """

    kappa: float = 0.1
    epsilon: float = 0.1
    mu: float = 0.1
    lam: float = 0.0
    tau: float = 1.0
    eta: float = 1.0
    kappa_ei: float = 1.0
    k_rate: float = 1.0
    pressure: PressureLaw = field(default_factory=PressureLaw)

    def __post_init__(self):
        for name in ("kappa", "epsilon"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {getattr(self, name)!r}")
        for name in ("mu", "lam", "tau", "eta", "kappa_ei", "k_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu!r}")
        if not 2.0 * self.mu + 3.0 * self.lam > 0:
            raise ValueError(f"lam must exceed -2 mu/3 = {-2.0 * self.mu / 3.0:g}, got {self.lam!r}")
        for name in ("tau", "eta", "kappa_ei", "k_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


# ---------------------------------------------------------------------------
# states


@dataclass(frozen=True)
class FullState:
    """Unknowns of the scaled system: density, combined velocity, specific
    current j~, and the scaled electric/magnetic fields."""

    n: ScalarField
    u: VectorField
    jt: VectorField
    E: VectorField
    B: VectorField

    @property
    def grid(self) -> Grid:
        return self.n.grid


@dataclass(frozen=True)
class LimitState:
    """Unknowns of the one-fluid compressible Navier-Stokes limit."""

    n: ScalarField
    u: VectorField

    @property
    def grid(self) -> Grid:
        return self.n.grid


@dataclass(frozen=True)
class TwoFluidState:
    """Unknowns of the original two-fluid form (pre-substitution)."""

    n: ScalarField
    u_e: VectorField
    u_i: VectorField
    E: VectorField
    B: VectorField

    @property
    def grid(self) -> Grid:
        return self.n.grid


# ---------------------------------------------------------------------------
# array-level helpers


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a x b over the component axis -4 of (..., 3, *shape) arrays, as
    a[1, 2, 0] b[2, 0, 1] - a[2, 0, 1] b[1, 2, 0]."""
    out = a.take(_NEXT, axis=-4) * b.take(_PREV, axis=-4)
    out -= a.take(_PREV, axis=-4) * b.take(_NEXT, axis=-4)
    return out


# Row gathers go through ``ndarray.take``: it costs a third of the same
# fancy index, which shows in the call-overhead-bound 1-D steps.
_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _member_min(n: np.ndarray) -> np.ndarray:
    """Minimum of a density per member (the axes before the grid's), as a
    1-d array; one entry for a single state."""
    return n.reshape(n.shape[:-3] + (-1,)).min(axis=-1).ravel()


def _require_positive(n: np.ndarray, where: str, entry: np.ndarray | None = None,
                      time: float | None = None, first: int = 0) -> None:
    """Raise VacuumError naming ``where`` and the minimum density for the
    first member whose density n is not positive; ``member`` is 0 for a
    single state, and ``time`` is the error's.  Given ``entry``, another
    density of the same members, only members whose entry density is
    positive count.  Members from ``first`` on are looked at before the ones
    ahead of it (the limit, which leads a member set, after the members of
    the scaled system)."""
    if n.min() > 0.0:
        return
    n_min = _member_min(n)
    bad = n_min <= 0.0
    if entry is not None:
        bad &= _member_min(entry) > 0.0
    bad = np.flatnonzero(bad)
    if bad.size:
        later = bad[bad >= first]
        k = int((later if later.size else bad)[0])
        raise VacuumError(f"vacuum state {where}: min n = {n_min[k]:.6g}", member=k, time=time)


# ---------------------------------------------------------------------------
# member sets
#
# The states stepped together, a member set, are one field-major stack,
# (4M + 9K, *shape): the densities n of its M members, then their velocities
# u (3 rows each), then the currents J (or j~), then the fields E and then B
# of the K members of the scaled system (3 rows each).  The limit system,
# when the set holds it, is the first member and has no J, E or B rows
# (M = K + 1); else M = K.  So a lone FullState is its (n, u, j~, E, B)
# stack (``_stack``) and a lone LimitState its (n, u) one.  The limit is the
# scaled system on J = E = B = 0, so it steps with the same rates and
# operator, less the terms that vanish there.  The layout keeps the u rows
# of every member and the J rows after them one block, and the (u, J) pairs
# of the scaled members, (2, K, 3, *shape), a view of it; so each paired
# operation is one numpy call for all members.  Symmetric 3x3 tensors are
# stored diagonal first, as their entries (00, 11, 22, 01, 02, 12), so a
# multiple of I is added to rows 0:3.  The symmetric product of vectors a, b
# multiplies a gathered by _SYM_ROW with b gathered by _SYM_COL.

_SYM_ROW = np.array([0, 1, 2, 0, 0, 1])
_SYM_COL = np.array([0, 1, 2, 1, 2, 2])
_SYM_FULL = np.array([[0, 3, 4], [3, 1, 5], [4, 5, 2]])  # storage row of entry (i, j)


class _Layout:
    """The row blocks of a member set's stack of ``rows`` rows, as slices
    along axis 0, and those of its grid products (``_products``): n u of
    every member, n J, the fluxes F of every member and C, and the sources
    of d(n u) and d(n J), (9M + 15K, *shape).  Built once per row count
    (``_layout``)."""

    def __init__(self, rows: int):
        currents, extra = divmod(rows, 13)
        if extra not in (0, 4) or not rows:
            raise ConfigError(f"a stack of {rows} rows holds no member set")
        limit = extra // 4
        m, k = currents + limit, currents
        self.members, self.currents, self.limit = m, k, limit
        j, e, b = 4 * m, 4 * m + 3 * k, 4 * m + 6 * k
        self.n, self.u, self.J, self.E, self.B = (slice(0, m), slice(m, j), slice(j, e),
                                                   slice(e, b), slice(b, rows))
        # (u, J), then (n, u, J) and the stiff rows (u, J, E, B)
        self.uJ, self.nuJ, self.stiff = slice(m, e), slice(0, e), slice(m, rows)
        # n (M, 1, *shape), the K members' n, and each (u, J) vector's own n:
        # one row broadcasts for a lone state
        self.n_col, self.n_cur = (slice(0, m), None), (slice(limit, m), None)
        self.n_uJ = (slice(0, 1), None) if m == 1 else (np.r_[0:m, limit:m], None)
        self.p_nu, self.p_nJ = slice(0, 3 * m), slice(3 * m, 3 * (m + k))
        self.p_nuJ = slice(0, 3 * (m + k))
        self.p_F, self.p_C = slice(3 * (m + k), 9 * m + 3 * k), slice(9 * m + 3 * k, 9 * (m + k))
        self.p_FC = slice(3 * (m + k), 9 * (m + k))
        self.p_src, self.p_rows = slice(9 * (m + k), 9 * m + 15 * k), 9 * m + 15 * k
        self._shapes = {}

    def shapes(self, tail: tuple) -> "_Shapes":
        """The shapes of the vector and tensor views of row blocks with
        trailing shape ``tail``, made once per shape: reshaping to a ready
        shape costs half of building it, which shows in the 1-D steps."""
        try:
            return self._shapes[tail]
        except KeyError:
            m, k = self.members, self.currents
            shapes = self._shapes[tail] = _Shapes(*(dims + tail for dims in (
                (m + k, 3), (m, 3), (k, 3), (2 * k, 3), (2, k, 3), (1, k, 3), (3, k, 3), (m + 3 * k, 3),
                (m + k, 6), (m, 6), (k, 6))))
            return shapes

    def member_rows(self, member: int) -> list:
        """The rows of one member, in the order of its own stack: (n, u, J,
        E, B), or (n, u) for the limit."""
        m, k, current = self.members, self.currents, member - self.limit
        starts = [m + 3 * member]
        if current >= 0:
            starts += [4 * m + 3 * current, 4 * m + 3 * (k + current), 4 * m + 3 * (2 * k + current)]
        return [member] + [r + i for r in starts for i in range(3)]


class _Shapes(NamedTuple):
    """View shapes of a layout's blocks (``_Layout.shapes``): the vectors of
    (u, J) of every member, of u, of the K members' J (E, B), of their
    (u, J) pairs and sources, also as (2, K, 3), of B as (1, K, 3), of
    (J, E, B) as (3, K, 3) and of the stiff rows; the tensors of F and C,
    of F and of C."""

    uJ: tuple
    u: tuple
    cur: tuple
    pairs: tuple
    pairs2: tuple
    cur1: tuple
    jeb: tuple
    stiff: tuple
    FC: tuple
    F: tuple
    C: tuple


@lru_cache(maxsize=32)
def _layout(rows: int) -> _Layout:
    return _Layout(rows)


def _stack(*fields: np.ndarray) -> np.ndarray:
    """Stack a scalar (*shape) and vectors (3, *shape) along one leading axis."""
    return np.concatenate([f.reshape((-1,) + f.shape[-3:]) for f in fields])


def _split(x: np.ndarray) -> tuple:
    """Views (n, u, ...) of a stack built by ``_stack``, along axis -4."""
    return (x[..., 0, :, :, :],) + tuple(x[..., i:i + 3, :, :, :] for i in range(1, x.shape[-4], 3))


def _stacked(state) -> np.ndarray:
    """The fields of a state, e.g. a FullState's (n, u, j~, E, B), as one stack."""
    return _stack(*(f.values for f in vars(state).values()))


def _join(stacks) -> np.ndarray:
    """The member set's stack of lone stacks (``_stacked``), the limit's,
    if any, first."""
    fields = [_split(x) for x in stacks]
    currents = fields[1:] if len(fields[0]) == 2 else fields
    return np.concatenate([f[0][None] for f in fields] + [f[1] for f in fields]
                          + [f[i] for i in (2, 3, 4) for f in currents])


def _drop(x: np.ndarray, member: int) -> np.ndarray:
    """The stack x without the rows of one member."""
    return np.delete(x, _layout(len(x)).member_rows(member), axis=0)


def _state_view(grid: Grid, x: np.ndarray, member: int = 0):
    """The state of one member of the stack x as views: a FullState, or the
    LimitState of the limit; by default the first member, so that of a lone
    stack."""
    n, *rows = _layout(len(x)).member_rows(member)
    cls = FullState if len(rows) == 12 else LimitState
    return cls(ScalarField(grid, x[n]), *(VectorField(grid, x[r:r + 3]) for r in rows[::3]))


class _RateCoefficients(NamedTuple):
    """What ``_full_rate`` takes of a member set beyond its stack: the
    shared Params ``p``, the spectral layout ``modes`` of the stack, its
    ``forward`` transform, grid values (..., *grid.shape) to coefficients
    (..., *modes) with an optional ``out`` as for a numpy ufunc, and its
    ``inverse``, both bound to the grid, the viscous multipliers
    (``_visc_multipliers``) on the layout, and the kappa- and
    mean-density coefficients, each a (K, 1, 1, 1, 1) column over the
    members with a current, or (M + K, ...) for ``visc_mean``; ``kap_rows``
    is kappa per J row, a (3K, 1, 1, 1) column.  ``n_mean`` is the frozen
    mean density of the members with a current and ``visc_mean`` that of
    each (u, J) vector, in the layout's order, and ``fric_mean`` the
    friction at the frozen mean, ``friction`` n_mean; all three are None
    for the rates without one."""

    p: Params
    modes: Modes
    forward: Callable
    inverse: Callable
    multipliers: tuple
    kap: np.ndarray
    kap_rows: np.ndarray
    a: float
    kap_tau: np.ndarray
    kap_tau_eps: np.ndarray
    kap_eps: np.ndarray
    friction: np.ndarray
    n_mean: np.ndarray | None = None
    fric_mean: np.ndarray | None = None
    visc_mean: np.ndarray | None = None


def _column(values) -> np.ndarray:
    """Values as a (len, 1, 1, 1, 1) member column."""
    return np.reshape(values, (-1, 1, 1, 1, 1))


def _rate_coefficients(grid: Grid, p: Params, kappas, means=None, limit: int = 0,
                       masked_half: bool = False) -> _RateCoefficients:
    """The coefficients of a member set's rates on ``grid``, from the shared
    Params ``p`` (its own kappa is not read) and the kappa of each member
    with a current, ``kappas``; given the mean density of every member,
    ``means`` (the limit's first when ``limit`` is 1), those of the
    remainder N(y) - L y too.  Each is the product the rates formed on
    every call before, in the same order.  The rates are formed on the
    2/3-rule box ``grid.box``, the stepper's layout, through ``box_rfft``
    and ``box_irfft``; with ``masked_half``, on the half-spectrum through
    ``_masked`` and ``array_irfft``, where they are those of states that
    are not band-limited to the box, as the certificate's are, with their
    products dealiased as on the box.  The transforms are bound to
    ``grid`` here, so the coefficients hold the grid, and the grid's
    caches hold nothing that holds it."""
    eps = p.epsilon
    a = (1.0 + eps) / (p.tau * eps)
    kap = _column(kappas)
    if masked_half:
        modes = Modes(grid.half_wavenumbers, grid.half_unit_wavenumbers, grid.half_k_squared,
                      grid.dims_active)
        forward, inverse = _masked, array_irfft
    else:
        modes, forward, inverse = grid.box, box_rfft, box_irfft
    coefs = dict(p=p, modes=modes, forward=partial(forward, grid), inverse=partial(inverse, grid),
                 multipliers=_visc_multipliers(modes.k, modes.k2, p), kap=kap,
                 kap_rows=np.repeat(kap, 3).reshape(-1, 1, 1, 1), a=a,
                 kap_tau=kap / p.tau, kap_tau_eps=kap / (p.tau * eps),
                 kap_eps=(eps - 1.0) * kap / (p.tau * eps),
                 friction=a * p.kappa_ei * p.k_rate * (kap * kap))
    if means is not None:
        means = tuple(means)
        current = means[limit:]
        coefs["visc_mean"] = _column(means + current)
        if current:
            coefs["n_mean"] = _column(current)
            coefs["fric_mean"] = coefs["friction"] * coefs["n_mean"]
    return _RateCoefficients(**coefs)


# ---------------------------------------------------------------------------
# stepping rates on the 2/3-rule box


def _div_sym(modes: Modes, t: np.ndarray) -> np.ndarray:
    """ik . t for symmetric tensors (..., 6, *modes) -> (..., 3, *modes) of
    a layout."""
    k = modes.k
    out = k[0] * t.take(_SYM_FULL[0], axis=-4)
    for j in range(1, modes.active):
        term = t.take(_SYM_FULL[j], axis=-4)
        term *= k[j]
        out += term
    out *= 1j
    return out


def _visc_multipliers(k: np.ndarray, k2: np.ndarray, p: Params) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The multipliers of ``_visc_hat`` on the modes of wavevector k and
    |k|^2 k2: k, -mu |k|^2 and (mu+lam) k."""
    return k, -p.mu * k2, (p.mu + p.lam) * k


def _visc_hat(multipliers: tuple, v: np.ndarray) -> np.ndarray:
    """mu lap v + (mu+lam) grad div v for spectral vectors (..., 3, *modes),
    from the ``_visc_multipliers`` of their layout."""
    k, lap, grad_div = multipliers
    kv = np.add.reduce(k * v, axis=-4, keepdims=True)
    out = lap * v
    out -= grad_div * kv
    return out


def _curl_hat(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """ik x v for spectral vectors (..., 3, *modes) with wavevector k."""
    return 1j * _cross(k, v)


def _momentum_flux(p: Params, n: np.ndarray, nu_row: np.ndarray, u_col: np.ndarray,
                   out: np.ndarray) -> None:
    """The fluid flux n u u^T/(1+eps) + (1+eps) eta/tau P(n) I of M members
    into ``out`` (M, 6, *shape), from n u and u gathered by _SYM_ROW and
    _SYM_COL.  ``n`` is (M, 1, *shape), so it broadcasts over the
    components."""
    np.divide(u_col, 1.0 + p.epsilon, out=out)
    np.multiply(nu_row, out, out=out)
    diagonal = out[:, :3]
    diagonal += ((1.0 + p.epsilon) * p.eta / p.tau) * p.pressure.pressure(n)


def _continuity(k: np.ndarray, p: Params, nu_hat: np.ndarray, out: np.ndarray) -> None:
    """dn = -div(n u)/(1+eps) from the transformed n u, into ``out``; k is
    the wavevector of its modes."""
    div = np.add.reduce(k * nu_hat, axis=-4)
    np.multiply(1j, div, out=div)
    np.multiply(-1.0 / (1.0 + p.epsilon), div, out=out)


def _to_primitive(coef: _RateCoefficients, lay: _Layout, out: np.ndarray, state: np.ndarray,
                  n_uJ: np.ndarray, d_uJ: np.ndarray, uJ: tuple) -> None:
    """Turn d_t n (the n rows of ``out``) and the conservative rates d_t(n v)
    (its (u, J) vectors ``d_uJ``) into d_t v = (d_t(n v) - v d_t n)/n, in
    place, through the transforms of ``coef``; ``n_uJ`` is each (u, J)
    vector's n and ``uJ`` the shape of the grid's (u, J) vectors."""
    cons = coef.inverse(out[lay.nuJ])
    quot = state[lay.uJ].reshape(uJ) * cons[lay.n_uJ]
    np.subtract(cons[lay.uJ].reshape(uJ), quot, out=quot)
    quot /= n_uJ
    coef.forward(quot, out=d_uJ)


def _symmetric_fluxes(p: Params, lay: _Layout, n: np.ndarray, nuJ: np.ndarray, uJ: np.ndarray,
                      flux: np.ndarray, cur_flux: np.ndarray) -> None:
    """The fluxes F of every member and C of the members with a current of
    ``_full_rate`` into ``flux`` (M, 6, *shape) and ``cur_flux`` (K, 6,
    *shape), from the (u, J) vectors and their products with n, (M + K, 3,
    *shape) each.  Its two gathers, (M + K, 6, *shape) each, are freed on
    return, before the cross products with B: held on, they would raise the
    peak memory of a 3-D step."""
    row, col = nuJ.take(_SYM_ROW, axis=-4), uJ.take(_SYM_COL, axis=-4)
    if not lay.currents:
        _momentum_flux(p, n, row, col, flux)
        return
    m, lim = lay.members, lay.limit
    _momentum_flux(p, n, row[:m], col[:m], flux)
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    nu_row, nJ_row, u_col, J_col = row[lim:m], row[m:], col[lim:m], col[m:]
    nJJ = nJ_row * J_col
    cur = flux[lim:]
    cur += np.multiply(inv * eps, nJJ, out=cur_flux)  # cur_flux as scratch
    np.multiply(nu_row, J_col, out=cur_flux)
    cur_flux += np.multiply(nJ_row, u_col, out=nu_row)  # n u is not needed any more
    nJJ *= eps - 1.0
    cur_flux += nJJ
    cur_flux *= inv


def _products(p: Params, coef: _RateCoefficients, lay: _Layout, state: np.ndarray,
              n_uJ: np.ndarray) -> np.ndarray:
    """Grid products of ``_full_rate`` in the layout's product rows: n u of
    every member and n J, the fluxes F of every member and C, and the
    sources of d(nu) and d(nJ).  For one state that is n u and n J (rows
    0:6), F and C (6:18) and the sources (18:24); for the limit alone n u
    and F.  The planes of the first grid axis go in blocks
    (``spectral._in_parts``), each into its planes of the one stack."""
    prod = np.empty((lay.p_rows,) + state.shape[1:])
    _in_parts(coef.modes.active, state.shape[1], prod[:, 0].size,
              lambda lo, hi: _product_planes(p, coef, lay, state[:, lo:hi], n_uJ[..., lo:hi, :, :],
                                             prod[:, lo:hi]))
    return prod


def _product_planes(p: Params, coef: _RateCoefficients, lay: _Layout, state: np.ndarray,
                    n_uJ: np.ndarray, prod: np.ndarray) -> None:
    """``_products`` of grid planes: of the planes ``state`` of a stack, with
    ``n_uJ`` their planes of each (u, J) vector's n, into the same planes
    ``prod`` of the product stack."""
    k = lay.currents
    sh = lay.shapes(state.shape[1:])
    uJ = state[lay.uJ].reshape(sh.uJ)
    nuJ = np.multiply(n_uJ, uJ, out=prod[lay.p_nuJ].reshape(sh.uJ))
    _symmetric_fluxes(p, lay, state[lay.n_col], nuJ, uJ, prod[lay.p_F].reshape(sh.F),
                      prod[lay.p_C].reshape(sh.C) if k else None)
    if not k:
        return
    # the (n u, n J) pairs of the members with a current, (2, K, 3, *shape)
    pairs = nuJ[lay.limit:].reshape(sh.pairs2)
    n = state[lay.n_cur]
    nuxB, nJxB = _cross(pairs, state[lay.B].reshape(sh.cur1))
    src_nu, src = prod[lay.p_src].reshape(sh.pairs2)
    np.multiply(coef.kap_tau, nJxB, out=src_nu)
    np.multiply(coef.a * n, state[lay.E].reshape(sh.cur), out=src)
    src += np.multiply(coef.kap_tau_eps, nuxB, out=nuxB)
    src += np.multiply(coef.kap_eps, nJxB, out=nJxB)
    src -= np.multiply(coef.friction * n, pairs[1], out=nuxB)


def _full_rate(x: np.ndarray, coef: _RateCoefficients, guard=None) -> np.ndarray:
    """Primitive rates of the scaled system in the variables (n, u, J, E, B),
    for every member of a member set.

    ``x`` is the set's stack (see "member sets" above) with J = kappa j~ on
    the layout ``coef.modes``, the 2/3-rule box but in the certificate
    (``reformulation_check``), e.g. (13, *box) for one state; the result
    is its time derivative in the same layout.  ``coef`` holds the
    members' Params and coefficients (``_rate_coefficients``).  ``guard``, the
    arguments after n of ``_require_positive``, makes a density that is not
    positive on the grid raise VacuumError before the pressure law sees it;
    the members of the scaled system are looked at before the limit.

    Given the frozen mean densities of a StiffLinearOperator (in ``coef``),
    it returns the Strang remainder N(y) - L y: u and J lose their viscous
    term over n_mean, J also a E and gains the frozen-mean friction
    a kappa_ei k_rate kappa^2 n_mean J (``fric_mean``), dE is
    P(n_mean J - n J) and dB zero; the 1/kappa curl terms, shared by N and L, are never formed.
    Without them (``reformulation_check``) it returns the rates themselves.

    dn      = -1/(1+eps) div(n u)
    d(nu)   = -div F + mu lap u + (mu+lam) grad div u + kappa/tau n J x B
    d(nJ)   = -div C + mu lap J + (mu+lam) grad div J + S
    dE      = curl B/kappa - P(n J),    dB = -curl E/kappa

    with the fluxes F = (n u u^T + eps n J J^T)/(1+eps) + (1+eps) eta/tau P(n) I,
    C = ((eps-1) n J J^T + n (u J^T + J u^T))/(1+eps), the source
    S = a n E + kappa/(tau eps) n u x B + (eps-1) kappa/(tau eps) n J x B
    - a kappa_ei k_rate kappa^2 n^2 J with a = (1+eps)/(tau eps), and P the
    Leray projector.  The limit's rows are these at J = E = B = 0, where
    the terms with J, E or B vanish and are not formed.  The momentum
    equations are converted to primitive form via
    d_t u = (d_t(nu) - u d_t n)/n, and likewise for J.
    """
    lay = _layout(len(x))
    k, lim = lay.currents, lay.limit
    sh = lay.shapes(x.shape[1:])
    p, modes = coef.p, coef.modes
    state = coef.inverse(x)
    if guard is not None:
        _require_positive(state[lay.n_col], *guard, first=lim)
    n_uJ = state[lay.n_uJ]
    hat = coef.forward(_products(p, coef, lay, state, n_uJ))
    flux = _div_sym(modes, hat[lay.p_FC].reshape(sh.FC))
    if lim:
        head = flux[:1] if k else flux
        np.negative(head, out=head)
    if k:
        tail = flux[lim:]
        np.subtract(hat[lay.p_src].reshape(sh.pairs), tail, out=tail)
    out = np.empty_like(x)
    d_uJ = out[lay.uJ].reshape(sh.uJ)
    _continuity(modes.k, p, hat[lay.p_nu].reshape(sh.u), out[lay.n])
    if k:
        nJ = hat[lay.p_nJ].reshape(sh.cur)
        dE, dB = out[lay.E].reshape(sh.cur), out[lay.B]
        if coef.n_mean is None:
            dE[:] = _curl_hat(modes.k, x[lay.B].reshape(sh.cur)) / coef.kap - leray_project(modes.khat, nJ)
            dB.reshape(sh.cur)[:] = _curl_hat(modes.k, x[lay.E].reshape(sh.cur)) / -coef.kap
        else:
            leray_project(modes.khat, coef.n_mean * x[lay.J].reshape(sh.cur) - nJ, out=dE)
            dB[:] = 0.0
    del hat  # the products' coefficients, freed before the viscous term is formed
    visc = _visc_hat(coef.multipliers, x[lay.uJ].reshape(sh.uJ))
    np.add(flux, visc, out=d_uJ)
    del flux
    _to_primitive(coef, lay, out, state, n_uJ, d_uJ, lay.shapes(state.shape[1:]).uJ)
    if coef.visc_mean is not None:
        d_uJ -= visc / coef.visc_mean
        if k:
            dJ = out[lay.J].reshape(sh.cur)
            dJ -= coef.a * x[lay.E].reshape(sh.cur)
            dJ += coef.fric_mean * x[lay.J].reshape(sh.cur)
    return out


# Certificate-form helpers: each takes physical arrays and returns the
# half-spectrum coefficients of one term, masked as its final operation.


def _masked(grid: Grid, arr: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """2/3-masked coefficients of a (nonlinear-product) field; ``out``
    receives them, as for a numpy ufunc."""
    return np.multiply(grid.half_dealias_mask, array_rfft(grid, arr), out=out)


def _masked_div(grid: Grid, t: np.ndarray) -> np.ndarray:
    """Masked divergence of a product vector (3, *shape) or tensor
    (3, 3, *shape), contracting its last component axis."""
    return grid.half_dealias_mask * half_divergence(grid, array_rfft(grid, t))


def _div_outer(grid: Grid, w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Masked divergence of the tensor w * (a x b): out_i = sum_j d_j(w a_i b_j)."""
    return _masked_div(grid, w * a[:, None] * b[None, :])


def _grad_nl(grid: Grid, a: np.ndarray) -> np.ndarray:
    """Masked gradient of a (nonlinear) scalar field."""
    return grid.half_dealias_mask * (1j * grid.half_wavenumbers * array_rfft(grid, a))


def _two_fluid_rate(grid: Grid, p: Params, n, u_e, u_i, E, B, alpha, beta):
    """Conservative rates of the original two-fluid form.

    The electron/ion pressures are P_e = eps*P and P_i = P; alpha is the
    squared reciprocal light speed and beta the induced-field strength.
    """
    eps = p.epsilon
    D = lambda arr: _masked(grid, arr)
    mult = _visc_multipliers(grid.half_wavenumbers, grid.half_k_squared, p)
    visc = lambda v: _visc_hat(mult, array_rfft(grid, v))
    curl = lambda v: _curl_hat(grid.half_wavenumbers, array_rfft(grid, v))
    grad_p = _grad_nl(grid, p.pressure.pressure(n))
    fric = p.kappa_ei * beta / p.kappa**2 * p.k_rate

    dn = -_masked_div(grid, n * u_i)
    dnu_e = (
        -_div_outer(grid, n, u_e, u_e)
        + visc(u_e)
        + (
            -p.eta * eps * grad_p
            - (D(n * E) + D(n * _cross(u_e, B))) / p.kappa
            - fric * D(n * n * (u_e - u_i))
        )
        / (p.tau * eps)
    )
    dnu_i = (
        -_div_outer(grid, n, u_i, u_i)
        + visc(u_i)
        + (
            -p.eta * grad_p
            + (D(n * E) + D(n * _cross(u_i, B))) / p.kappa
            - fric * D(n * n * (u_i - u_e))
        )
        / p.tau
    )
    current = D(n * (u_i - u_e)) / p.kappa  # j = n(u_i - u_e)/kappa
    dE = (curl(B) - beta * current) / alpha
    dB = -curl(E)
    return _split(array_irfft(grid, _stack(dn, dnu_e, dnu_i, dE, dB)))


def _reformed_rate(grid: Grid, p: Params, n, u, jt, E, B, alpha, beta):
    """Conservative rates of the substituted system in (n, u, j~, E, B).

    Returns (dn, d(nu), kappa d(n j~), dE, dB); the Maxwell pair keeps the
    unscaled fields, so alpha and beta appear explicitly.
    """
    eps = p.epsilon
    inv = 1.0 / (1.0 + eps)
    kap = p.kappa
    D = lambda arr: _masked(grid, arr)
    mult = _visc_multipliers(grid.half_wavenumbers, grid.half_k_squared, p)
    visc = lambda v: _visc_hat(mult, array_rfft(grid, v))
    curl = lambda v: _curl_hat(grid.half_wavenumbers, array_rfft(grid, v))

    dn = -inv * _masked_div(grid, n * u)
    dnu = (
        -inv * (_div_outer(grid, n, u, u) + eps * kap**2 * _div_outer(grid, n, jt, jt))
        + visc(u)
        - ((1.0 + eps) * p.eta / p.tau) * _grad_nl(grid, p.pressure.pressure(n))
        + D(n * _cross(jt, B)) / p.tau
    )
    dnj = (
        -((eps - 1.0) * inv) * kap**2 * _div_outer(grid, n, jt, jt)
        - kap * inv * (_div_outer(grid, n, u, jt) + _div_outer(grid, n, jt, u))
        + kap * visc(jt)
        + ((1.0 + eps) / (p.tau * eps * kap)) * D(n * E)
        + D(n * _cross(u, B)) / (p.tau * eps * kap)
        + ((eps - 1.0) / (p.tau * eps)) * D(n * _cross(jt, B))
        - ((1.0 + eps) / (p.tau * eps * kap)) * p.kappa_ei * p.k_rate * beta * D(n * n * jt)
    )
    dE = (curl(B) - beta * D(n * jt)) / alpha
    dB = -curl(E)
    return _split(array_irfft(grid, _stack(dn, dnu, dnj, dE, dB)))


# ---------------------------------------------------------------------------
# reformulation certificate


def _rel_discrepancy(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    norm = lambda f: math.sqrt(grid_integral(grid, f**2 if f.ndim == 3 else (f**2).sum(axis=0)))
    scale = max(norm(a), norm(b))
    return 0.0 if scale == 0.0 else norm(a - b) / scale


@dataclass(frozen=True)
class ReformReport:
    """Relative residuals certifying the substitution and scaling algebra.

    ``recast``  compares linear combinations of the two-fluid momentum
    rates against a direct evaluation of the substituted system;
    ``scaling`` compares the substituted system, after inserting
    beta = alpha^2, alpha = kappa^2 and rescaling (E, B), against the
    production right-hand side of the scaled system.  The continuity and
    E-equation entries vanish only for states whose current n(u_i - u_e)
    is solenoidal, as it is along solutions.
    """

    recast: dict[str, float]
    scaling: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(*self.recast.values(), *self.scaling.values())


def reformulation_check(s: TwoFluidState, p: Params) -> ReformReport:
    """Numerically certify the two-fluid -> combined -> scaled derivation."""
    grid = s.grid
    alpha = p.kappa**2
    beta = p.kappa**4
    eps = p.epsilon
    kap = p.kappa

    n = s.n.values
    u_e = s.u_e.values
    u_i = s.u_i.values
    E = s.E.values
    B = s.B.values

    # combined variables: u = u_i + eps u_e, j~ = (u_i - u_e)/kappa
    u = u_i + eps * u_e
    jt = (u_i - u_e) / kap

    tf = _two_fluid_rate(grid, p, n, u_e, u_i, E, B, alpha, beta)
    rf = _reformed_rate(grid, p, n, u, jt, E, B, alpha, beta)

    recast = {
        "n": _rel_discrepancy(grid, tf[0], rf[0]),
        # (1/tau)(electron eq) + (1/tau)(ion eq): d_t(n u)
        "nu": _rel_discrepancy(grid, eps * tf[1] + tf[2], rf[1]),
        # -(1/(tau eps))(electron eq) + (1/tau)(ion eq): kappa d_t(n j~)
        "njt": _rel_discrepancy(grid, tf[2] - tf[1], rf[2]),
        "E": _rel_discrepancy(grid, tf[3], rf[3]),
        "B": _rel_discrepancy(grid, tf[4], rf[4]),
    }

    # scaling step: E -> kappa E', B -> kappa^2 B' turns the substituted
    # system into the scaled production system
    E_s = E / kap
    B_s = B / kap**2
    J = kap * jt
    # on the masked half-spectrum: the fields of these states are not
    # band-limited to the box (u_e has the factor 1/n)
    fn, fu, fJ, fE, fB = _split(
        array_irfft(grid, _full_rate(array_rfft(grid, _stack(n, u, J, E_s, B_s)),
                                     _rate_coefficients(grid, p, (p.kappa,), masked_half=True)))
    )
    # compare in primitive variables, converting the substituted rates the
    # same way the production side does (same dealias placement)
    du_rf, dJ_rf = array_irfft(grid, _masked(grid, np.stack([(rf[1] - u * rf[0]) / n,
                                                             (rf[2] - J * rf[0]) / n])))
    scaling = {
        "n": _rel_discrepancy(grid, rf[0], fn),
        "u": _rel_discrepancy(grid, du_rf, fu),
        "J": _rel_discrepancy(grid, dJ_rf, fJ),
        "E": _rel_discrepancy(grid, rf[3], kap * fE),
        "B": _rel_discrepancy(grid, rf[4], kap**2 * fB),
    }
    return ReformReport(recast=recast, scaling=scaling)


def random_two_fluid_state(
    grid: Grid,
    p: Params,
    seed: int,
    *,
    max_wavenumber: float = 4.0,
    amplitude: float = 0.1,
) -> TwoFluidState:
    """Band-limited random state with solenoidal current n(u_i - u_e).

    The velocity difference is w/n for a divergence-free w, so div j = 0
    holds as it does along solutions; E and B are projected too.
    """
    def scalar(tag):
        f = random_smooth_field(
            grid, derive_seed(seed, tag), 0.5,
            max_wavenumber=max_wavenumber, zero_mean=True,
        )
        return f.values / max(sup_norm(f), 1e-300)

    def vector(tag):
        v = random_smooth_vector(
            grid, derive_seed(seed, tag), 0.5,
            max_wavenumber=max_wavenumber, zero_mean=True,
        )
        return v.values / max(sup_norm(v), 1e-300)

    n = 1.0 + amplitude * scalar(1)
    u_i = amplitude * vector(2)
    solenoidal = np.stack([vector(3), vector(4), vector(5)])
    w, E, B = amplitude * array_irfft(grid, half_leray_project(grid, array_rfft(grid, solenoidal)))
    u_e = u_i - w / n
    return TwoFluidState(
        ScalarField(grid, n),
        VectorField(grid, u_e),
        VectorField(grid, u_i),
        VectorField(grid, E),
        VectorField(grid, B),
    )
