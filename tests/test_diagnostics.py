import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
import support
from support import (
    _partial,
    array_leray_project,
    count_fft_calls,
    grid_space_audit_terms,
    grid_space_ledger,
    paired_trajectory,
    state_ledger,
    state_stacks,
)

from nsmlimit.errors import GridMismatchError, SnapshotSpacingError, VacuumError
from nsmlimit.diagnostics import (
    LEDGER_COLUMNS,
    _audit_chunk,
    _chunk_size,
    _chunks,
    _ledger_stack_bytes,
    bound_monitor,
    energy_identity_audit,
    make_energy_ledger,
)
from nsmlimit.initdata import (
    WellPreparedSpec,
    hypothesis_certificate,
    hypothesis_norm,
    make_limit_data,
    make_well_prepared,
)
from nsmlimit import spectral
from nsmlimit.model import FullState, LimitState, Params, PressureLaw
from nsmlimit.spectral import (
    Grid,
    ScalarField,
    VectorField,
    _derivative_groups,
    _multi_indices,
    array_rfft,
    derive_seed,
    grid_integral,
    moser_ratios,
    random_smooth_field,
    random_smooth_vector,
    sobolev_norm,
)


def flat_limit(grid):
    return LimitState(
        ScalarField(grid, np.ones(grid.shape)), VectorField.zeros(grid)
    )


def smooth_pair(grid, seed=3):
    """Unrelated smooth full and limit states: O(1) errors, densities in
    [0.7, 1.3], solenoidal E and B."""
    def density(tag):
        f = random_smooth_field(grid, derive_seed(seed, tag), 0.5, zero_mean=True).values
        return ScalarField(grid, 1.0 + 0.3 * f / np.abs(f).max())

    def vector(tag):
        return random_smooth_vector(grid, derive_seed(seed, tag), 0.5)

    limit = LimitState(density(0), vector(1))
    def solenoidal(tag):
        return VectorField(grid, array_leray_project(grid, vector(tag).values))

    full = FullState(density(2), vector(3), vector(4), solenoidal(5), solenoidal(6))
    return full, limit


def density_error_pair(grid, N=None, n0=None):
    """A limit state (density n0, default 1, at rest) and a full state whose
    only error against it is the density error N (default none)."""
    n0 = np.ones(grid.shape) if n0 is None else n0
    z = VectorField.zeros(grid)
    full_n = n0 if N is None else n0 + N
    return FullState(ScalarField(grid, full_n), z, z, z, z), LimitState(ScalarField(grid, n0), z)


def one_row(t, full, limit, p, l, mass0):
    """The ledger row of one snapshot."""
    return state_ledger((t,), (full,), (limit,), p, l, mass0)[0]


def one_audit(t, full, limit, p):
    """The audit terms of one snapshot, as floats."""
    return {key: v.item() for key, v in _audit_chunk((t,), (full,), (limit,), p).items()}


def ledger_row(full, limit, law=PressureLaw(), l=4.0, kappa=0.2):
    return one_row(0.0, full, limit, Params(kappa=kappa, pressure=law), l, 1.0)


NORM_COLUMNS = ("norm_N", "norm_U", "norm_J", "norm_E", "norm_B")


def error_fields(full, limit, kappa):
    """(N, U, J, E, B) as Fields, formed from the state values."""
    grid = full.grid
    return (ScalarField(grid, full.n.values - limit.n.values),
            VectorField(grid, full.u.values - limit.u.values),
            VectorField(grid, kappa * full.jt.values), full.E, full.B)


class TestErrorState:
    def test_zero_perturbation_gives_zero_error(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(base, seed=7, c0=0.0, kappa=0.2)
        full = make_well_prepared(spec)
        row = ledger_row(full, base)
        assert row.gamma == 0.0
        for col in NORM_COLUMNS:
            assert getattr(row, col) == 0.0
        assert hypothesis_norm(full, base, 0.2, 4.0) == 0.0

    def test_linear_in_kappa(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        norms = []
        for kappa in (0.2, 0.1):
            full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, kappa))
            norms.append(hypothesis_norm(full, base, kappa, 4.0))
        assert abs(norms[0] - 2 * norms[1]) < 1e-11

    def test_grid_mismatch(self, grid64):
        base32 = make_limit_data(Grid(1, 32), seed=7, amplitude=0.1)
        base64 = make_limit_data(grid64, seed=7, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base64, 7, 1.0, 0.2))
        with pytest.raises(GridMismatchError):
            one_row(0.0, full, base32, Params(kappa=0.2), 4.0, 1.0)
        with pytest.raises(GridMismatchError):
            hypothesis_certificate(full, base32, 0.2, 1.0, 4.0)


class TestGamma:
    def test_zero(self, grid64):
        assert ledger_row(*density_error_pair(grid64)).gamma == 0.0

    def test_quadratic_scaling(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, 0.2))
        g1 = ledger_row(full, base).gamma
        tripled = FullState(
            ScalarField(grid64, base.n.values + 3.0 * (full.n.values - base.n.values)),
            VectorField(grid64, base.u.values + 3.0 * (full.u.values - base.u.values)),
            *(VectorField(grid64, 3.0 * f.values) for f in (full.jt, full.E, full.B)),
        )
        assert ledger_row(tripled, base).gamma == pytest.approx(9.0 * g1, rel=1e-12)

    def test_single_sin_mode_h1(self, grid64):
        # N = sin x, others zero, l = 1: Gamma = ||N||_1^2 = 2 pi
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        full, limit = density_error_pair(grid64, N=np.sin(x), n0=np.full(grid64.shape, 2.0))
        assert ledger_row(full, limit, l=1.0).gamma == pytest.approx(2 * math.pi, rel=1e-12)

    def test_additivity_against_independent_norms(self, grid64):
        base = make_limit_data(grid64, seed=5, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base, 5, 1.0, 0.3))
        row = ledger_row(full, base, kappa=0.3)
        norms = [support.sobolev_norm(f, 4.0) for f in error_fields(full, base, 0.3)]
        assert row.gamma == pytest.approx(sum(x * x for x in norms), rel=1e-14)
        for col, want in zip(NORM_COLUMNS, norms):
            assert getattr(row, col) == pytest.approx(want, rel=1e-14)


class TestEnthalpyFunctional:
    def test_zero_error_is_zero(self, grid64):
        assert ledger_row(*density_error_pair(grid64)).enthalpy_fn == 0.0

    def test_gamma_two_closed_form(self, grid64):
        # n0 = 1, gamma = 2, A = 1: h(rho) = 2(rho-1), so the inner integral
        # is N^2 and the functional is ||N||_L2^2
        law = PressureLaw(amplitude=1.0, gamma=2.0)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        full, limit = density_error_pair(grid64, N=0.1 * np.sin(x))
        N = ScalarField(grid64, full.n.values - limit.n.values)
        val = ledger_row(full, limit, law).enthalpy_fn
        assert val == pytest.approx(sobolev_norm(N, 0.0) ** 2, rel=1e-12)

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 1.0, 2.0], ids=["5_3", "1", "2"])
    def test_general_gamma_against_quadrature(self, grid64, gamma):
        law = PressureLaw(gamma=gamma)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n0v = 1.0 + 0.1 * np.cos(x)
        full, limit = density_error_pair(grid64, N=0.2 * np.sin(x) + 0.05 * np.cos(2 * x), n0=n0v)
        Nv = full.n.values - n0v
        got = ledger_row(full, limit, law).enthalpy_fn
        # brute-force quadrature per grid point, then torus integral
        per_point = np.array([
            quad(lambda s: law.enthalpy(s + b) - law.enthalpy(b), 0.0, a,
                 epsabs=1e-13, epsrel=1e-13)[0]
            for a, b in zip(Nv.ravel(), n0v.ravel())
        ]).reshape(grid64.shape)
        ref = grid_integral(grid64, per_point)
        assert got == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("gamma", [5.0 / 3.0, 1.0, 2.0], ids=["5_3", "1", "2"])
    @pytest.mark.parametrize("n", [1e-6, 1e-9])
    def test_near_vacuum_to_rounding(self, grid64, gamma, n):
        # a uniform density n against n0 = 1, against the direct forms, which
        # do not cancel near vacuum
        law = PressureLaw(amplitude=1.3, gamma=gamma)
        full, limit = density_error_pair(grid64, N=np.full(grid64.shape, n - 1.0))
        N, A = n - 1.0, law.amplitude
        if gamma == 1.0:
            exact = A * (n * math.log(n) - N)
        else:
            exact = A / (gamma - 1.0) * (n**gamma - 1.0 - gamma * N)
        assert ledger_row(full, limit, law).enthalpy_fn == pytest.approx(grid64.volume * exact, rel=1e-12)

    def test_positive_for_mixed_sign_error(self, grid64):
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        full, limit = density_error_pair(grid64, N=0.3 * np.sin(3 * x))
        assert ledger_row(full, limit).enthalpy_fn > 0.0

    def test_vacuum_in_integral_range(self, grid64):
        # n > 0 everywhere, n0 <= 0 at one point: only the range
        # n0 + min(N, 0) of the inner integral is nonpositive
        n0 = np.ones(grid64.shape)
        n0[5] = -0.5
        full, limit = density_error_pair(grid64, N=1.0 - n0, n0=n0)
        with pytest.raises(VacuumError, match=r"^vacuum state: density in the inner integral range "
                                              r"nonpositive \(min n = -0\.5\) at t=0$"):
            ledger_row(full, limit)


class TestWeightedHighNorm:
    def test_redundant_path(self, grid64):
        # independent evaluation with full-spectrum derivatives and explicit
        # quadrature of the weight
        law = PressureLaw()
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        n0 = 1.0 + 0.05 * np.cos(2 * x)
        full, limit = density_error_pair(grid64, N=0.1 * np.sin(x) + 0.02 * np.cos(3 * x), n0=n0)
        got = ledger_row(full, limit, law).weighted_high
        N = full.n.values - n0
        rho = N + n0
        weight = law.denthalpy(rho) / rho
        ref = 0.0
        for order in range(1, 5):
            d = _partial(grid64, N, (order,))
            ref += grid_integral(grid64, weight * d**2)
        assert got == pytest.approx(ref, rel=1e-12)

    def test_positive(self, grid64):
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        full, limit = density_error_pair(grid64, N=0.2 * np.sin(x))
        assert ledger_row(full, limit).weighted_high > 0.0

    def test_zero_for_constant_error(self, grid64):
        full, limit = density_error_pair(grid64, N=np.full(grid64.shape, 0.1))
        assert ledger_row(full, limit).weighted_high == pytest.approx(0.0, abs=1e-25)


class TestEnergyLedger:
    def test_initial_row(self, grid64):
        p = Params(kappa=0.2)
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, 0.2))
        mass0 = grid_integral(grid64, full.n.values)
        row = one_row(0.0, full, base, p, 4.0, mass0)
        assert row.mass_err == 0.0
        assert row.gamma == pytest.approx((0.999 * 0.2) ** 2, rel=1e-9)
        assert row.divE < 1e-12 and row.divB < 1e-12
        assert row.enthalpy_fn >= 0.0 and row.weighted_high >= 0.0
        assert len(row.as_tuple()) == len(LEDGER_COLUMNS)


    def test_vacuum_names_time_and_min_density(self, grid64):
        p = Params(kappa=0.2)
        limit = flat_limit(grid64)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        z = VectorField.zeros(grid64)
        full = FullState(ScalarField(grid64, 0.5 + np.cos(x)), z, z, z, z)
        with pytest.raises(VacuumError, match=r"min n = -0\.5\) at t=0\.5$") as exc:
            one_row(0.5, full, limit, p, 4.0, 1.0)
        assert exc.value.time == 0.5


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8)],
                         ids=["1d64", "2d16", "3d8"])
@pytest.mark.parametrize("kappa", [0.4, 1e-3])
@pytest.mark.parametrize("lam", [0.0, 0.05])
def test_matches_grid_space_reference(grid, kappa, lam):
    # half-spectrum Parseval sums and batched transforms against one complex
    # round trip per norm, derivative and divergence
    p = Params(kappa=kappa, lam=lam)
    full, limit = smooth_pair(grid)
    mass0 = 0.9 * grid_integral(grid, full.n.values)
    got = one_row(0.25, full, limit, p, 4.0, mass0)
    want = grid_space_ledger(0.25, full, limit, p, 4.0, mass0)
    for col in LEDGER_COLUMNS:
        g, w = getattr(got, col), getattr(want, col)
        tol = 1e-14 if col in ("divE", "divB") else 1e-12 * max(1.0, abs(w))
        assert abs(g - w) <= tol, (col, g, w)
    got = one_audit(0.25, full, limit, p)
    want = grid_space_audit_terms(full, limit, p)
    assert got.keys() == want.keys()
    for key, w in want.items():
        assert abs(got[key] - w) <= 1e-12 * max(1.0, abs(w)), (key, got[key], w)


@pytest.mark.parametrize("grid", [Grid(3, 8), Grid(1, 64)], ids=["3d8", "1d64"])
def test_transform_calls_per_row_and_snapshot(grid, monkeypatch):
    # one forward transform of a stacked array and one inverse of another,
    # per row, per audit snapshot and per chunk of either; on several axes
    # each is numpy's 1-d transforms axis by axis: the forward the last
    # axis' rfft, then a c2c transform of each other axis, one call each,
    # the inverse a c2c inverse of each axis but the last, then its irfft
    p = Params(kappa=0.1)
    limit = make_limit_data(grid, seed=7, amplitude=0.1)
    full = make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa))
    calls = count_fft_calls(monkeypatch)
    one_way = (["rfft", "irfft"] if grid.dims_active == 1
               else ["rfft", "fft", "fft", "ifft", "ifft", "irfft"])
    for fn, args in ((state_ledger, ((0.0,), (full,), (limit,), p, 4.0, 1.0)),
                     (_audit_chunk, ((0.0,), (full,), (limit,), p))):
        calls.clear()
        fn(*args)
        assert calls == one_way, (fn.__name__, calls)
    calls.clear()
    hypothesis_certificate(full, limit, p.kappa, 1.0, 4.0)
    assert calls == one_way, calls
    snaps = [(0.01 * s, full, limit) for s in range(2 * _chunk_size(grid) + 1)]  # three chunks
    for fn, args in ((state_ledger, (*zip(*snaps), p, 4.0, 1.0)),
                     (energy_identity_audit, (snaps, p))):
        calls.clear()
        fn(*args)
        assert calls == one_way * 3, (fn.__name__, calls)


@pytest.mark.parametrize("grid, size", [(Grid(1, 64), 32), (Grid(2, 16), 8), (Grid(3, 8), 4),
                                        (Grid(3, 32), 1)], ids=["1d64", "2d16", "3d8", "3d32"])
def test_chunk_is_a_budget_of_grid_points(grid, size):
    assert _chunk_size(grid) == size
    snaps = [(float(s), None, None) for s in range(2 * size + 1)]
    assert [len(ts) for ts, _, _ in _chunks(grid, snaps)] == [size, size, 1]


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 32)], ids=["1d64", "2d16", "3d32"])
@pytest.mark.parametrize("l", [0.0, 4.0, 7.5, 20.0])
def test_ledger_stack_bytes_counts_the_derivative_rows(grid, l):
    # the rows of a chunk that ``_derivative_groups`` brings to the grid (div
    # E and div B first, then 1 <= |a| <= l), at the sizes of their
    # half-spectrum and grid arrays
    rows = len(list(_multi_indices(grid.dims_active, int(l), 1))) + 2
    half = array_rfft(grid, np.zeros(grid.shape)).size
    assert _ledger_stack_bytes(grid, l) == rows * _chunk_size(grid) * (16 * half + 8 * grid.npoints)


def chunk_snapshots(grid, count):
    """Snapshots of unrelated smooth states.  Every fourth keeps its density;
    the others are shifted to a minimum of 0.1, 0.01 or 0.001, nearer
    vacuum, where the enthalpy functional and the weight h'(n)/n take
    their widest range of values within one chunk."""
    snaps = []
    for s in range(count):
        full, limit = smooth_pair(grid, seed=s)
        n = full.n.values
        if s % 4:
            n = n - n.min() + 10.0 ** -(s % 4)
        snaps.append((0.01 * s, FullState(ScalarField(grid, n), full.u, full.jt, full.E, full.B), limit))
    return snaps


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8)], ids=["1d64", "2d16", "3d8"])
def test_chunks_match_single_snapshots_bit_for_bit(grid):
    # rows and audit terms of three chunks (the last of one snapshot) against
    # one call per snapshot: every column and term is equal, not close
    p = Params(kappa=0.3, lam=0.05)
    snaps = chunk_snapshots(grid, 2 * _chunk_size(grid) + 1)
    rows = state_ledger(*zip(*snaps), p, 4.0, 7.0)
    singles = [one_row(t, full, limit, p, 4.0, 7.0) for t, full, limit in snaps]
    assert len(rows) == len(snaps)
    for col in LEDGER_COLUMNS:
        assert np.array_equal([getattr(r, col) for r in rows], [getattr(r, col) for r in singles]), col
    terms = [_audit_chunk(*chunk, p) for chunk in _chunks(grid, snaps)]
    singles = [one_audit(*snap, p) for snap in snaps]
    for key in singles[0]:
        assert np.array_equal(np.concatenate([t[key] for t in terms]), [t[key] for t in singles]), key


@functools.cache
def stacked_snapshots(grid):
    """The times and stacks of ``chunk_snapshots`` of three chunks, the last
    of one snapshot, and the row of each snapshot alone."""
    p = Params(kappa=0.3, lam=0.05)
    snaps = chunk_snapshots(grid, 2 * _chunk_size(grid) + 1)
    ts, fulls, limits = zip(*snaps)
    singles = np.array([one_row(*snap, p, 4.0, 7.0).as_tuple() for snap in snaps])
    return p, np.array(ts), state_stacks(fulls), state_stacks(limits), singles


class TestLedgerStacks:
    """``make_energy_ledger`` takes the (S, 13, *shape) and (S, 4, *shape)
    stacks of the full and limit states."""

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    def test_stacks_are_left_as_they_were(self, grid):
        p, ts, fulls, limits, _ = stacked_snapshots(grid)
        before = fulls.tobytes(), limits.tobytes()
        make_energy_ledger(grid, ts, fulls, limits, p, 4.0, 7.0)
        assert (fulls.tobytes(), limits.tobytes()) == before

    @given(data=st.data())
    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    def test_any_count_gives_the_rows_of_one_snapshot_calls(self, grid, data):
        # S snapshots from any first one, in chunks or in part of one:
        # every row holds the bytes of the snapshot's call alone
        p, ts, fulls, limits, singles = stacked_snapshots(grid)
        first = data.draw(st.integers(0, len(ts) - 1), label="first")
        end = data.draw(st.integers(first + 1, len(ts)), label="end")
        rows = make_energy_ledger(grid, ts[first:end], fulls[first:end], limits[first:end], p, 4.0, 7.0)
        assert np.array([r.as_tuple() for r in rows]).tobytes() == singles[first:end].tobytes()

    def test_stacks_off_the_grid_raise(self, grid64):
        p, ts, fulls, limits, _ = stacked_snapshots(grid64)
        make_energy_ledger(grid64, ts[:0], fulls[:0], limits[:0], p, 4.0, 7.0)
        other = Grid(1, 32)
        for args in ((other, ts, fulls, limits), (grid64, ts, fulls[:, :, ::2], limits),
                     (grid64, ts, fulls, limits[:, :, ::2])):
            with pytest.raises(GridMismatchError):
                make_energy_ledger(*args, p, 4.0, 7.0)


def test_chunk_vacuum_names_the_first_bad_snapshot(grid64):
    # snapshot 2 fails only the inner-integral range (its limit density),
    # snapshot 4 the total density: the chunk raises what snapshot 2 alone
    # raises, at its time
    p = Params(kappa=0.2)
    x = grid64.coordinate(0) * np.ones(grid64.shape)
    snaps = [(0.01 * s, *density_error_pair(grid64)) for s in range(6)]
    snaps[2] = (0.02, *density_error_pair(grid64, N=np.full(grid64.shape, 1.0), n0=0.5 + np.cos(x)))
    snaps[4] = (0.04, *density_error_pair(grid64, N=np.cos(x) - 0.75))
    with pytest.raises(VacuumError) as alone:
        one_row(*snaps[2], p, 4.0, 1.0)
    assert str(alone.value) == ("vacuum state: density in the inner integral range nonpositive "
                                "(min n = -0.5) at t=0.02")
    with pytest.raises(VacuumError) as chunk:
        state_ledger(*zip(*snaps), p, 4.0, 1.0)
    assert str(chunk.value) == str(alone.value)
    assert chunk.value.time == 0.02
    with pytest.raises(VacuumError, match=r"^vacuum state: total density nonpositive "
                                          r"\(min n = -0\.75\) at t=0\.04$"):
        state_ledger(*zip(*snaps[3:]), p, 4.0, 1.0)


def group_budget(monkeypatch, rows, points):
    """Groups of ``_derivative_groups`` of ``rows`` rows of ``points`` grid
    points each, or every row in one group when ``rows`` is None."""
    monkeypatch.setattr(spectral, "_GROUP_POINTS", 2**62 if rows is None else rows * points)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("l", [0, 1, 4])
@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
def test_derivative_groups_are_the_rows_of_one_group(grid, l, rows, monkeypatch):
    # each group holds the budget's rows, the lead rows sharing the first
    # group's budget but for one row of its own; the rows of all groups are
    # those of one group, bit for bit, in _multi_indices order, although the
    # caller overwrites every group before it asks for the next
    hat = array_rfft(grid, np.stack([random_smooth_field(grid, s, 1.0).values for s in range(2)]))
    lead = hat[::-1, None] * np.array([2.0, 3.0])[:, None, None, None]  # two rows (2, 2, *half)
    count = len(list(_multi_indices(grid.dims_active, l, 1)))
    group_budget(monkeypatch, None, 0)
    (whole,) = _derivative_groups(grid, hat, l, lead)
    assert whole.shape == (2 + count, 2) + hat.shape[1:]
    assert np.array_equal(whole[:2], lead)
    group_budget(monkeypatch, rows, 2 * grid.npoints)
    got = []
    for group in _derivative_groups(grid, hat, l, lead):
        got.append(group.copy())
        group[...] = np.nan
    first = max(1, rows - 2) if count else 0
    sizes = [2 + min(first, count)] + [min(rows, count - i) for i in range(first, count, rows)]
    assert [len(g) for g in got] == sizes
    assert np.array_equal(np.concatenate(got), whole)
    assert [len(g) for g in _derivative_groups(grid, hat, l)] == (
        [min(rows, count - i) for i in range(0, count, rows)])


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("l", [4, 6])
@pytest.mark.parametrize("grid", [Grid(3, 8), Grid(3, 16)], ids=["3d8", "3d16"])
def test_groups_give_the_one_group_ledger_and_moser_ratios(grid, l, rows, monkeypatch):
    # ledger rows (a chunk's derivative rows hold a point of each of its
    # snapshots) and moser_ratios (d^a g and d^a fg per row) in groups of 1
    # and 3 rows against every row in one group: equal, not close
    p = Params(kappa=0.3, lam=0.05)
    snaps = chunk_snapshots(grid, _chunk_size(grid) + 1)
    f, g = (random_smooth_field(grid, s, 1.0) for s in (5, 6))
    results = []
    for budget in (None, rows):
        group_budget(monkeypatch, budget, _chunk_size(grid) * grid.npoints)
        ledger = [r.as_tuple() for r in state_ledger(*zip(*snaps), p, float(l), 7.0)]
        group_budget(monkeypatch, budget, 2 * grid.npoints)
        results.append((ledger, moser_ratios(f, g, l)))
    (ledger_one, moser_one), (ledger, moser) = results
    assert np.array(ledger).tobytes() == np.array(ledger_one).tobytes()
    assert moser == moser_one


def test_ledger_memory_does_not_grow_with_the_derivative_rows():
    # one 32^3 snapshot: the traced peak of a ledger row at l = 8 (164 rows
    # of d^a N) stays within 1.6 times that at l = 4 (34 rows); formed all
    # at once they took 4.3 times as much
    grid = Grid(3, 32)
    p = Params(kappa=0.1)
    limit = make_limit_data(grid, seed=7, amplitude=0.1)
    full = make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa))
    stacks = state_stacks([full]), state_stacks([limit])
    peaks = {}
    for l in (4.0, 8.0):
        make_energy_ledger(grid, (0.0,), *stacks, p, l, 1.0)  # warm-up, untraced
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            make_energy_ledger(grid, (0.0,), *stacks, p, l, 1.0)
            peaks[l] = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    assert peaks[8.0] < 1.6 * peaks[4.0], peaks


class TestEnergyAudit:
    def test_stationary_equilibrium_residual_zero(self, grid64):
        p = Params(kappa=0.2)
        flat = flat_limit(grid64)
        z = VectorField.zeros(grid64)
        full = FullState(flat.n, z, z, z, z)
        snaps = [(i * 0.01, full, flat) for i in range(3)]
        rep = energy_identity_audit(snaps, p)
        assert rep.max_residual == 0.0

    def test_residual_shrinks_under_dt_halving(self, grid64):
        residuals = []
        for dt in (4e-3, 2e-3):
            snaps, p = paired_trajectory(grid64, kappa=0.05, dt=dt, n_steps=8)
            residuals.append(energy_identity_audit(snaps, p).max_residual)
        assert residuals[0] / residuals[1] >= 3.5

    def test_fault_injection_raises_residual(self, grid64):
        snaps, p = paired_trajectory(grid64, kappa=0.05, dt=4e-3, n_steps=8)
        base = energy_identity_audit(snaps, p).max_residual
        injected = energy_identity_audit(snaps, p, drop_term=1).max_residual
        assert injected >= 10.0 * base

    def test_nonuniform_spacing_rejected(self, grid64):
        snaps, p = paired_trajectory(grid64, kappa=0.1, dt=2e-3, n_steps=4)
        bad = [snaps[0], snaps[1], snaps[3]]
        with pytest.raises(SnapshotSpacingError, match="nonuniform"):
            energy_identity_audit(bad, p)

    def test_too_few_snapshots(self, grid64):
        snaps, p = paired_trajectory(grid64, kappa=0.1, dt=2e-3, n_steps=1)
        with pytest.raises(ValueError):
            energy_identity_audit(snaps, p)

    def test_vacuum_names_snapshot_time(self, grid64):
        p = Params(kappa=0.2)
        flat = flat_limit(grid64)
        z = VectorField.zeros(grid64)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        bad = FullState(ScalarField(grid64, 0.5 + np.cos(x)), z, z, z, z)
        good = FullState(flat.n, z, z, z, z)
        snaps = [(0.0, good, flat), (0.01, good, flat), (0.02, bad, flat)]
        with pytest.raises(VacuumError, match=r"min n = -0\.5\) at t=0\.02$") as exc:
            energy_identity_audit(snaps, p)
        assert exc.value.time == 0.02

    def test_bad_drop_term(self, grid64):
        snaps, p = paired_trajectory(grid64, kappa=0.1, dt=2e-3, n_steps=2)
        with pytest.raises(ValueError):
            energy_identity_audit(snaps, p, drop_term=7)


class TestBoundMonitor:
    def test_synthetic_exponential_exact(self):
        ts = np.linspace(0.0, 1.0, 21)
        kappa = 0.2
        gammas = kappa**2 * np.exp(ts)
        rep = bound_monitor(ts, gammas, 1.0, kappa)
        assert rep.c_envelope == pytest.approx(1.0, abs=1e-6)
        assert rep.growth_rate == pytest.approx(1.0, abs=1e-6)
        assert rep.sup_ratio == pytest.approx(math.e, rel=1e-12)

    def test_zero_record_trivial_pass(self):
        rep = bound_monitor([0.0, 0.1], [0.0, 0.0], 1.0, 0.1)
        assert rep.trivial
        assert rep.sup_ratio == 0.0

    def test_empty_record_rejected(self):
        with pytest.raises(ValueError, match="empty record"):
            bound_monitor([], [], 1.0, 0.1)
