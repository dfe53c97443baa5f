import math

import numpy as np
import pytest

from nsmlimit.errors import VacuumError
from nsmlimit.initdata import (
    WellPreparedSpec,
    hypothesis_certificate,
    hypothesis_norm,
    make_limit_data,
    make_well_prepared,
)
from nsmlimit.spectral import (
    ScalarField,
    VectorField,
    array_irfft,
    array_rfft,
    half_divergence,
    sobolev_norm,
    sup_norm,
)


class TestLimitData:
    def test_zero_amplitude_gives_uniform_density(self, grid64):
        s = make_limit_data(grid64, seed=3, amplitude=0.0, velocity_amplitude=0.1)
        assert np.abs(s.n.values - 1.0).max() == 0.0
        assert sup_norm(s.u) > 0.0

    def test_min_density_bound(self, grid64):
        for amp in (0.05, 0.1, 0.3):
            s = make_limit_data(grid64, seed=5, amplitude=amp)
            assert s.n.values.min() >= 1.0 - amp - 1e-12

    def test_amplitude_one_rejected(self, grid64):
        with pytest.raises(VacuumError, match="vacuum risk"):
            make_limit_data(grid64, seed=5, amplitude=1.0)

    def test_deterministic_and_norm_finite(self, grid64):
        a = make_limit_data(grid64, seed=11, amplitude=0.1)
        b = make_limit_data(grid64, seed=11, amplitude=0.1)
        assert np.array_equal(a.n.values, b.n.values)
        assert np.array_equal(a.u.values, b.u.values)
        norm = sobolev_norm(a.n, 4.0)
        assert np.isfinite(norm) and norm > 0

    def test_band_limited(self, grid64):
        s = make_limit_data(grid64, seed=11, amplitude=0.1, max_wavenumber=4)
        k = np.sqrt(grid64.k_squared[grid64.half_cut])
        coeff = array_rfft(grid64, s.n.values) / grid64.npoints
        assert np.abs(coeff[k > 4.5]).max() < 1e-14


class TestWellPrepared:
    def test_zero_c0_reproduces_base(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(base, seed=7, c0=0.0, kappa=0.2)
        full = make_well_prepared(spec)
        assert np.array_equal(full.n.values, base.n.values)
        assert np.array_equal(full.u.values, base.u.values)
        assert sup_norm(full.jt) == 0.0
        assert sup_norm(full.E) == 0.0
        assert hypothesis_norm(full, base, 0.2, 4.0) == 0.0

    def test_hypothesis_budget(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        for kappa in (0.4, 0.2, 0.1, 0.05):
            spec = WellPreparedSpec.from_seed(base, seed=7, c0=1.0, kappa=kappa)
            full = make_well_prepared(spec)
            cert = hypothesis_certificate(full, base, kappa, 1.0, 4.0)
            assert cert["satisfied"]
            assert cert["hypothesis_norm"] <= 1.0 * kappa

    def test_kappa_halving_is_exact(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        n1 = hypothesis_norm(
            make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, 0.2)),
            base, 0.2, 4.0,
        )
        n2 = hypothesis_norm(
            make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, 0.1)),
            base, 0.1, 4.0,
        )
        assert abs(n1 - 2.0 * n2) < 1e-12 * n1

    def test_norm_over_kappa_constant(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        ratios = []
        for kappa in (0.4, 0.2, 0.1):
            full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, kappa))
            ratios.append(hypothesis_norm(full, base, kappa, 4.0) / kappa)
        assert max(ratios) - min(ratios) < 1e-10

    def test_divergence_constraints_at_roundoff(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, 0.1))
        em = array_rfft(grid64, np.stack([full.E.values, full.B.values]))
        assert np.abs(array_irfft(grid64, half_divergence(grid64, em))).max() < 1e-13

    def test_ill_prepared_flag(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        kappa = 0.1
        spec = WellPreparedSpec.from_seed(
            base, 7, 0.5, kappa, well_prepared=False
        )
        full = make_well_prepared(spec)
        # perturbations are O(1), not O(kappa): the hypothesis norm sits at
        # the c0 scale instead of c0*kappa
        norm = hypothesis_norm(full, base, kappa, 4.0)
        assert norm > 0.4

    def test_positive_share_per_component(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(base, 7, 1.0, 0.2))
        share = 0.999 / math.sqrt(5.0) * 0.2
        for fld in (ScalarField(grid64, full.n.values - base.n.values),
                    VectorField(grid64, full.u.values - base.u.values),
                    VectorField(grid64, 0.2 * full.jt.values)):
            assert sobolev_norm(fld, 4.0) == pytest.approx(share, rel=1e-10)
        # E and B were normalized after projection, so they carry the share too
        assert sobolev_norm(full.E, 4.0) == pytest.approx(share, rel=1e-10)
        assert sobolev_norm(full.B, 4.0) == pytest.approx(share, rel=1e-10)

    def test_vacuum_guard(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.3)
        with pytest.raises(VacuumError):
            # enormous c0 pushes the density perturbation below vacuum
            make_well_prepared(WellPreparedSpec.from_seed(base, 7, 400.0, 1.0))

    def test_spec_validation(self, grid64):
        base = make_limit_data(grid64, seed=7, amplitude=0.1)
        with pytest.raises(ValueError):
            WellPreparedSpec.from_seed(base, 7, -1.0, 0.2)
        with pytest.raises(ValueError):
            WellPreparedSpec.from_seed(base, 7, 1.0, 1.5)
