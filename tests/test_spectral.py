import math

import numpy as np
import pytest
import support
from support import count_fft_calls, plain_rate
from hypothesis import given, settings
from hypothesis import strategies as st

from nsmlimit.errors import ConfigError, GridMismatchError
from nsmlimit.initdata import WellPreparedSpec, make_limit_data, make_well_prepared
from nsmlimit.model import (
    Params,
    _curl_hat,
    _stacked,
    _visc_hat,
    _visc_multipliers,
    random_two_fluid_state,
    reformulation_check,
)
from nsmlimit.spectral import (
    Grid,
    ScalarField,
    VectorField,
    _mode_sums,
    _smooth_hat,
    array_irfft,
    array_rfft,
    box_irfft,
    box_rfft,
    derive_seed,
    grid_integral,
    half_divergence,
    half_leray_project,
    moser_ensemble,
    moser_ratios,
    random_smooth_field,
    random_smooth_vector,
    sobolev_norm,
    sup_norm,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def field(grid, fn):
    """The ScalarField of fn(x) on the grid's first coordinate."""
    return ScalarField(grid, fn(grid.coordinate(0)) * np.ones(grid.shape))


def derivative(grid, values, axis, order=1):
    """d^order/dx_axis^order by the half-spectrum multiplier (ik)^order."""
    return array_irfft(grid, (1j * grid.half_wavenumbers[axis]) ** order * array_rfft(grid, values))


def gradient(grid, values):
    return array_irfft(grid, 1j * grid.half_wavenumbers * array_rfft(grid, values))


def curl(grid, v):
    return array_irfft(grid, _curl_hat(grid.half_wavenumbers, array_rfft(grid, v)))


def divergence(grid, v):
    return array_irfft(grid, half_divergence(grid, array_rfft(grid, v)))


def leray_project(grid, v):
    return array_irfft(grid, half_leray_project(grid, array_rfft(grid, v)))


def dealias(grid, values):
    return array_irfft(grid, grid.half_dealias_mask * array_rfft(grid, values))


def coefficients(f):
    """Normalized coefficients c_k of a field on the half-spectrum."""
    return array_rfft(f.grid, f.values) / f.grid.npoints


class TestGrid:
    def test_shape_and_volume(self, grid64):
        assert grid64.shape == (64, 1, 1)
        assert grid64.npoints == 64
        assert math.isclose(grid64.volume, 2 * math.pi)

    @pytest.mark.parametrize("bad", [dict(dims_active=0), dict(dims_active=4),
                                     dict(points_per_dim=4), dict(points_per_dim=48),
                                     dict(period=-1.0)])
    def test_validation(self, bad):
        kwargs = dict(dims_active=1, points_per_dim=64, period=2 * math.pi)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            Grid(**kwargs)

    def test_dealias_mask_cutoff(self, grid64):
        # N=64: k_max = 32, cutoff 21.33 -> |k| <= 21 kept
        kx = grid64.wavenumbers_full[0].ravel()
        mask = grid64.dealias_mask[:, 0, 0]
        assert mask[np.abs(kx) <= 21].all()
        assert not mask[np.abs(kx) >= 22].any()


class TestDerivative:
    def test_sin_to_cos(self, grid64):
        f = field(grid64, np.sin)
        d = derivative(grid64, f.values, axis=0)
        expected = np.cos(grid64.coordinate(0)) * np.ones(grid64.shape)
        assert np.abs(d - expected).max() < 1e-13

    def test_constant_derivative_zero(self, grid64):
        f = np.full(grid64.shape, 3.7)
        for order in (1, 2, 3):
            assert np.abs(derivative(grid64, f, 0, order)).max() < 1e-13

    def test_exp_sin_matches_finite_difference(self):
        # oracle first: centered finite differences of exp(sin x) on a fine
        # grid converge at O(dx^2); the spectral derivative must sit within
        # that envelope.
        grid = Grid(1, 64)
        x = grid.coordinate(0).ravel()
        vals = np.exp(np.sin(x))
        dx = grid.spacing
        fd = (np.roll(vals, -1) - np.roll(vals, 1)) / (2 * dx)
        f = field(grid, lambda x: np.exp(np.sin(x)))
        d = derivative(grid, f.values, 0).ravel()
        # FD error for this function at N=64 is ~1e-3; spectral is exact
        assert np.abs(d - fd).max() < 5 * dx**2
        exact = np.cos(x) * vals
        assert np.abs(d - exact).max() < 1e-12

    def test_collapsed_axis_wavenumbers_vanish(self, grid64, grid2d):
        # a collapsed axis carries one point and the zero wavenumber, so
        # every derivative along it is zero
        for grid in (grid64, grid2d):
            k = grid.half_wavenumbers
            assert not k[grid.dims_active:].any()
            f = random_smooth_field(grid, 4, 0.7).values
            assert np.abs(derivative(grid, f, 2)).max() == 0.0

    @given(seed=seeds, a=st.floats(-2, 2), b=st.floats(-2, 2))
    def test_linearity(self, seed, a, b):
        grid = Grid(1, 32)
        f = random_smooth_field(grid, derive_seed(seed, 0), 0.7).values
        g = random_smooth_field(grid, derive_seed(seed, 1), 0.7).values
        lhs = derivative(grid, a * f + b * g, 0)
        rhs = a * derivative(grid, f, 0) + b * derivative(grid, g, 0)
        assert np.abs(lhs - rhs).max() < 1e-10

    @given(seed=seeds)
    def test_mixed_partials_commute(self, seed):
        grid = Grid(2, 16)
        f = random_smooth_field(grid, seed, 0.7).values
        dxy = derivative(grid, derivative(grid, f, 0), 1)
        dyx = derivative(grid, derivative(grid, f, 1), 0)
        assert np.abs(dxy - dyx).max() < 1e-10


class TestVectorCalculus:
    def test_curl_hand_case(self, grid64):
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        v = np.stack([np.zeros_like(x), np.zeros_like(x), np.sin(x)])
        c = curl(grid64, v)
        assert np.abs(c[0]).max() < 1e-13
        assert np.abs(c[1] + np.cos(x)).max() < 1e-13
        assert np.abs(c[2]).max() < 1e-13

    def test_divergence_hand_case(self, grid64):
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        v = np.stack([np.sin(x), np.zeros_like(x), np.zeros_like(x)])
        assert np.abs(divergence(grid64, v) - np.cos(x)).max() < 1e-13

    @given(seed=seeds)
    def test_curl_of_gradient_vanishes(self, seed):
        grid = Grid(2, 16)
        f = random_smooth_field(grid, seed, 0.7)
        c = curl(grid, gradient(grid, f.values))
        assert np.sqrt((c**2).sum(axis=0)).max() <= 1e-12 * max(1.0, sup_norm(f))

    @given(seed=seeds)
    def test_divergence_of_curl_vanishes(self, seed):
        grid = Grid(2, 16)
        v = random_smooth_vector(grid, seed, 0.7)
        d = divergence(grid, curl(grid, v.values))
        assert np.abs(d).max() <= 1e-12 * max(1.0, sup_norm(v))

    def test_laplacian_matches_second_derivative(self, grid64):
        # the viscous term of the transverse field (0, sin 2x, 0) is mu lap v
        # whatever lam is, and lap sin 2x = -4 sin 2x
        p = Params(mu=0.3, lam=0.05)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        v = np.stack([np.zeros_like(x), np.sin(2 * x), np.zeros_like(x)])
        mult = _visc_multipliers(grid64.half_wavenumbers, grid64.half_k_squared, p)
        visc = array_irfft(grid64, _visc_hat(mult, array_rfft(grid64, v)))
        assert np.abs(visc - p.mu * -4.0 * v).max() < 1e-12
        assert np.abs(derivative(grid64, v[1], 0, 2) + 4.0 * v[1]).max() < 1e-12


class TestSobolevNorms:
    def test_zero_field(self, grid64):
        assert sobolev_norm(ScalarField.zeros(grid64), 3.0) == 0.0

    def test_sin_l2(self, grid64):
        f = field(grid64, np.sin)
        assert math.isclose(sobolev_norm(f, 0.0), math.sqrt(math.pi), rel_tol=1e-12)

    def test_sin_h1(self, grid64):
        # ||f||^2 + ||f'||^2 = pi + pi
        f = field(grid64, np.sin)
        assert math.isclose(
            sobolev_norm(f, 1.0), math.sqrt(2 * math.pi), rel_tol=1e-12
        )

    @given(seed=seeds)
    def test_parseval(self, seed):
        grid = Grid(1, 64)
        f = random_smooth_field(grid, seed, 0.5, max_wavenumber=10)
        quad = math.sqrt(grid_integral(grid, f.values**2))
        assert math.isclose(sobolev_norm(f, 0.0), quad, rel_tol=1e-10)

    def test_vector_norm_sums_components(self, grid64):
        f = field(grid64, np.sin)
        v = VectorField(grid64, np.stack([f.values] * 3))
        assert math.isclose(
            sobolev_norm(v, 0.0), math.sqrt(3.0) * sobolev_norm(f, 0.0), rel_tol=1e-12
        )

    def test_sobolev_index_regime(self, grid64):
        # the Sobolev exponent must be nonnegative
        with pytest.raises(ValueError, match="nonnegative"):
            sobolev_norm(ScalarField.zeros(grid64), -1.0)


class TestLerayProjection:
    def test_annihilates_gradients(self, grid64):
        f = random_smooth_field(grid64, 3, 0.6)
        p = leray_project(grid64, gradient(grid64, f.values))
        assert np.abs(p).max() < 1e-12

    def test_preserves_curls(self, grid2d):
        w = random_smooth_vector(grid2d, 5, 0.6)
        c = curl(grid2d, w.values)
        scale = max(1.0, np.abs(c).max())
        assert np.abs(leray_project(grid2d, c) - c).max() < 1e-11 * scale

    def test_per_mode_hand_formula(self):
        # v = (sin y, sin x sin y, 0).  Modes (0,+-1,0) carry v_x = sin y and
        # have k.v = 0, so they pass through.  The four (+-1,+-1,0) modes of
        # v_y = sin x sin y have k.v = ky*d and |k|^2 = 2; subtracting
        # k (k.v)/2 by hand and resumming gives
        #   P v = (sin y + cos x cos y / 2, sin x sin y / 2, 0)
        grid = Grid(2, 16)
        x = grid.coordinate(0)
        y = grid.coordinate(1)
        ones = np.ones(grid.shape)
        v = np.stack([np.sin(y) * ones, np.sin(x) * np.sin(y) * ones, 0.0 * ones])
        p = leray_project(grid, v)
        expect0 = (np.sin(y) + 0.5 * np.cos(x) * np.cos(y)) * ones
        expect1 = 0.5 * np.sin(x) * np.sin(y) * ones
        assert np.abs(p[0] - expect0).max() < 1e-13
        assert np.abs(p[1] - expect1).max() < 1e-13
        assert np.abs(p[2]).max() < 1e-13

    @given(seed=seeds)
    def test_idempotent_and_orthogonal(self, seed):
        grid = Grid(1, 32)
        v = random_smooth_vector(grid, seed, 0.5).values
        pv = leray_project(grid, v)
        ppv = leray_project(grid, pv)
        scale = max(1.0, np.abs(pv).max())
        assert np.abs(ppv - pv).max() < 1e-11 * scale
        inner = grid_integral(grid, (v - pv) * pv)
        norm2 = grid_integral(grid, v * v)
        assert abs(inner) <= 1e-10 * max(norm2, 1e-30)

    @given(seed=seeds)
    def test_projected_field_divergence_free(self, seed):
        grid = Grid(2, 16)
        pv = leray_project(grid, random_smooth_vector(grid, seed, 0.5).values)
        assert np.abs(divergence(grid, pv)).max() < 1e-11


class TestDealias:
    def test_low_modes_unchanged(self, grid64):
        f = random_smooth_field(grid64, 11, 0.8, max_wavenumber=10).values
        assert np.abs(dealias(grid64, f) - f).max() < 1e-13

    def test_nyquist_mode_removed(self, grid64):
        f = field(grid64, lambda x: np.cos(32 * x))
        assert np.abs(dealias(grid64, f.values)).max() < 1e-13

    def test_product_to_sum_identity(self, grid64):
        # sin(12x) sin(11x) = (cos x - cos 23x)/2; 23 > 21 cutoff, so only
        # cos(x)/2 survives dealiasing
        x = grid64.coordinate(0)
        f = np.sin(12 * x) * np.sin(11 * x) * np.ones(grid64.shape)
        d = ScalarField(grid64, dealias(grid64, f))
        expected = 0.5 * np.cos(x) * np.ones(grid64.shape)
        assert np.abs(d.values - expected).max() < 1e-13
        # explicit coefficient list on the half-spectrum: only mode 1 remains
        # (its partner -1 is implied)
        c = coefficients(d)
        for k, coeff in enumerate(c[:, 0, 0]):
            if k == 1:
                assert abs(coeff - 0.25) < 1e-13
            else:
                assert abs(coeff) < 1e-13

    @given(seed=seeds)
    def test_idempotent(self, seed):
        grid = Grid(1, 32)
        f = random_smooth_field(grid, seed, 0.3).values
        once = dealias(grid, f)
        twice = dealias(grid, once)
        assert np.abs(twice - once).max() < 1e-13


class TestRandomField:
    def test_deterministic(self, grid64):
        a = random_smooth_field(grid64, 42, 0.5)
        b = random_smooth_field(grid64, 42, 0.5)
        assert np.array_equal(a.values, b.values)
        c = random_smooth_field(grid64, 43, 0.5)
        assert not np.array_equal(a.values, c.values)

    def test_real_valued(self, grid64):
        f = random_smooth_field(grid64, 9, 0.4)
        hat = np.fft.fftn(f.values, axes=grid64.fft_axes)
        roundtrip = np.fft.ifftn(hat, axes=grid64.fft_axes)
        assert np.abs(roundtrip.imag).max() < 1e-12

    def test_coefficient_bound(self, grid64):
        decay = 0.35
        f = random_smooth_field(grid64, 17, decay)
        mags = np.abs(coefficients(f))
        bound = np.exp(-decay * np.sqrt(grid64.k_squared[grid64.half_cut]))
        assert (mags <= bound * (1 + 1e-9) + 1e-15).all()

    def test_large_decay_tends_to_mean(self, grid64):
        f = random_smooth_field(grid64, 21, 50.0)
        assert np.abs(f.values - f.mean).max() < 1e-10

    def test_spectral_slope_regression(self, grid64):
        decay = 0.4
        f = random_smooth_field(grid64, 33, decay)
        kx = np.abs(grid64.half_wavenumbers[0].ravel())
        mags = np.abs(coefficients(f)[:, 0, 0])
        sel = (kx >= 1) & (kx <= 20)
        slope = np.polyfit(kx[sel], np.log(mags[sel]), 1)[0]
        assert abs(-slope - decay) < 0.1 * decay

    def test_zero_mean_flag(self, grid64):
        f = random_smooth_field(grid64, 5, 0.5, zero_mean=True)
        assert abs(f.values.mean()) < 1e-14

    def test_band_limit(self, grid64):
        f = random_smooth_field(grid64, 5, 0.2, max_wavenumber=4)
        k = np.sqrt(grid64.k_squared[grid64.half_cut])
        assert np.abs(coefficients(f)[k > 4.5]).max() < 1e-15

    def test_resolution_refinement_stability(self):
        # the same seed names the same function on a finer grid
        coarse = random_smooth_field(Grid(1, 64), 42, 1.0)
        fine = random_smooth_field(Grid(1, 128), 42, 1.0)
        assert np.abs(fine.values[::2, 0, 0] - coarse.values[:, 0, 0]).max() < 1e-9


    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8), Grid(3, 32)],
                             ids=["1d64", "2d16", "3d8", "3d32"])
    @pytest.mark.parametrize("max_wavenumber", [None, 4.0, 2.5])
    @pytest.mark.parametrize("zero_mean", [False, True])
    def test_band_limited_sampling_is_bit_identical(self, grid, max_wavenumber, zero_mean):
        # drawing only the modes inside max_wavenumber changes no coefficient
        for seed in (0, 7, 2**40 + 3):
            kw = dict(max_wavenumber=max_wavenumber, zero_mean=zero_mean)
            want = support.smooth_hat_reference(grid, seed, 0.3, **kw)
            assert np.array_equal(_smooth_hat(grid, seed, 0.3, **kw), want)


class TestFieldAlgebra:
    def test_grid_mismatch(self, grid64):
        other = Grid(1, 32)
        with pytest.raises(GridMismatchError):
            moser_ratios(ScalarField.zeros(grid64), ScalarField.zeros(other), 1)

    def test_translate(self, grid64):
        # support.translate is the reference of the Galilean transport test
        f = field(grid64, np.sin)
        shifted = support.translate(f, (0.3, 0.0, 0.0))
        expected = np.sin(grid64.coordinate(0) - 0.3) * np.ones(grid64.shape)
        assert np.abs(shifted.values - expected).max() < 1e-12


class TestMoser:
    def test_ratios_finite_and_positive(self, grid64):
        f = random_smooth_field(grid64, 1, 1.0)
        g = random_smooth_field(grid64, 2, 1.0)
        r1, r2 = moser_ratios(f, g, s=4)
        assert 0 < r1 < 50
        assert 0 < r2 < 50

    def test_ensemble_resolution_stable(self):
        # small ensemble here; the 100-pair version runs in acceptance
        c1, c2 = moser_ensemble(Grid(1, 64), s=4, n_pairs=20, seed=0)
        f1, f2 = moser_ensemble(Grid(1, 128), s=4, n_pairs=20, seed=0)
        assert abs(f1 / c1 - 1) < 0.05
        assert abs(f2 / c2 - 1) < 0.05

    def test_seminorm_reduces_to_l2(self, grid64):
        # moser_ratios takes |g|_{H^{s-1}} as the Parseval sum with weight
        # |k|^{2(s-1)}; at s = 1 that weight is 1 everywhere, k = 0 included
        f = random_smooth_field(grid64, 8, 0.5)
        hat = array_rfft(grid64, f.values)
        semi = math.sqrt(_mode_sums(grid64, hat, grid64.k_squared[grid64.half_cut] ** 0))
        assert math.isclose(semi, sobolev_norm(f, 0.0), rel_tol=1e-12)
        assert math.isclose(semi, support.sobolev_seminorm(f, 0), rel_tol=1e-12)

    @pytest.mark.parametrize("n_pairs", [0, -1])
    def test_ensemble_needs_a_pair(self, grid64, n_pairs):
        with pytest.raises(ConfigError, match="at least 1 pair"):
            moser_ensemble(grid64, n_pairs=n_pairs)


# The half-spectrum kernels against their full-spectrum (complex fftn)
# references in tests/support.py.

REFERENCE_GRIDS = [Grid(1, 64), Grid(2, 16), Grid(3, 8)]
REFERENCE_IDS = ["1d64", "2d16", "3d8"]


@pytest.mark.parametrize("grid", REFERENCE_GRIDS, ids=REFERENCE_IDS)
@pytest.mark.parametrize("seed", [0, 7, 12345])
class TestMatchesFullSpectrumReference:
    def test_sampler(self, grid, seed):
        for kwargs in (dict(), dict(max_wavenumber=3.0, zero_mean=True)):
            for decay in (0.3, 1.0):
                got = random_smooth_field(grid, seed, decay, **kwargs).values
                want = support.random_smooth_field(grid, seed, decay, **kwargs).values
                assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
                vec = random_smooth_vector(grid, seed, decay, **kwargs).values
                for i in range(3):
                    want = support.random_smooth_field(
                        grid, derive_seed(seed, 101 + i), decay, **kwargs).values
                    assert np.abs(vec[i] - want).max() <= 1e-14 * np.abs(want).max()

    def test_sobolev_norm(self, grid, seed):
        f = random_smooth_field(grid, seed, 0.4)
        v = random_smooth_vector(grid, seed, 0.4)
        for field in (f, v):
            for l in (0.0, 1.5, 4.0):
                want = support.sobolev_norm(field, l)
                assert abs(sobolev_norm(field, l) - want) <= 1e-13 * want

    def test_moser_ratios(self, grid, seed):
        f = random_smooth_field(grid, derive_seed(seed, 0), 1.0)
        g = random_smooth_field(grid, derive_seed(seed, 1), 1.0)
        for s in (1, 2, 4):
            got = moser_ratios(f, g, s)
            want = support.moser_ratios(f, g, s)
            for a, b in zip(got, want):
                assert abs(a - b) <= 1e-12 * b


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
def test_single_real_spectral_layout(grid, monkeypatch):
    # every transform the package makes is a real one (array_rfft and
    # array_irfft), or the pruned box transform (box_rfft and box_irfft),
    # whose other axes are 1-d c2c transforms of the real transform's slab
    # on several active axes; no entry point reaches a complex fftn/ifftn
    calls = count_fft_calls(monkeypatch)
    p = Params(kappa=0.2)
    state = {}

    def initial_data():
        limit = make_limit_data(grid, seed=3, amplitude=0.1)
        state["full"] = make_well_prepared(WellPreparedSpec.from_seed(limit, 3, 1.0, p.kappa))

    entries = [
        ("make_limit_data + make_well_prepared", initial_data),
        ("reformulation_check",
         lambda: reformulation_check(random_two_fluid_state(grid, p, seed=1), p)),
        ("moser_ratios", lambda: moser_ratios(random_smooth_field(grid, 1, 1.0),
                                              random_smooth_field(grid, 2, 1.0), 4)),
        ("_full_rate", lambda: plain_rate(grid, p, box_rfft(grid, _stacked(state["full"])))),
    ]
    for name, run in entries:
        calls.clear()
        run()
        assert calls, name
        slab = {"fft", "ifft"} if grid.dims_active > 1 else set()
        assert set(calls) <= {"rfft", "irfft", "rfftn", "irfftn"} | slab, (name, sorted(set(calls)))


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8), Grid(3, 32)],
                         ids=["1d64", "2d16", "3d8", "3d32"])
@pytest.mark.parametrize("rows", [1, 17], ids=["1row", "17rows"])
def test_box_transforms_are_the_half_spectrum_ones_on_the_box(grid, rows):
    # the pruned transforms give the bits of array_rfft on the box modes,
    # and of array_irfft of the half-spectrum that is zero outside the box;
    # the box is where the 2/3 mask is 1, and holds no Nyquist mode
    values = np.random.default_rng(rows).normal(size=(rows,) + grid.shape)
    half = array_rfft(grid, values)
    box = box_rfft(grid, values)
    assert box.flags.c_contiguous and box.shape == (rows,) + grid.box.k2.shape
    assert np.array_equal(box, half[(...,) + grid.box_index])
    out = np.empty_like(box)
    assert box_rfft(grid, values, out=out) is out and np.array_equal(out, box)
    padded = np.zeros_like(half)
    padded[(...,) + grid.box_index] = box
    assert np.array_equal(box_irfft(grid, box), array_irfft(grid, padded))
    mask = grid.half_dealias_mask
    assert mask[grid.box_index].all() and mask.sum() == box[0].size
    assert np.array_equal(grid.box.k, grid.half_wavenumbers[(slice(None),) + grid.box_index])
    assert np.abs(grid.box.k).max() < grid.nyquist_wavenumber


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8), Grid(3, 32)],
                         ids=["1d64", "2d16", "3d8", "3d32"])
def test_array_irfft_gives_the_irfftn_bits(grid):
    # the inverse axis by axis, on a copy that keeps ``hat`` or in place in
    # it (the ledger's and the audit's), against the library's n-d inverse
    import scipy.fft
    hat = array_rfft(grid, np.random.default_rng(3).normal(size=(5,) + grid.shape))
    kept = hat.copy()
    irfftn = np.fft.irfftn if grid.dims_active == 1 else scipy.fft.irfftn
    want = irfftn(hat, s=(grid.points_per_dim,) * grid.dims_active, axes=grid.fft_axes)
    assert np.array_equal(array_irfft(grid, hat), want) and np.array_equal(hat, kept)
    assert np.array_equal(array_irfft(grid, hat, overwrite=True), want)


@pytest.mark.parametrize("grid", [Grid(2, 16), Grid(3, 8), Grid(3, 32)], ids=["2d16", "3d8", "3d32"])
@pytest.mark.parametrize("rows", [1, 17, 33], ids=["1row", "17rows", "33rows"])
def test_array_rfft_gives_the_rfftn_bits(grid, rows):
    # the forward transform axis by axis in numpy against scipy's n-d one,
    # and the box transforms against it restricted to the box and on the
    # zero-padded half-spectrum, against scipy's n-d inverse
    import scipy.fft
    values = np.random.default_rng(rows).normal(size=(rows,) + grid.shape)
    kept = values.copy()
    want = scipy.fft.rfftn(values, axes=grid.fft_axes)
    assert np.array_equal(array_rfft(grid, values), want) and np.array_equal(values, kept)
    box = box_rfft(grid, values)
    assert np.array_equal(box, want[(...,) + grid.box_index])
    padded = np.zeros_like(want)
    padded[(...,) + grid.box_index] = box
    shape = (grid.points_per_dim,) * grid.dims_active
    assert np.array_equal(box_irfft(grid, box), scipy.fft.irfftn(padded, s=shape, axes=grid.fft_axes))
