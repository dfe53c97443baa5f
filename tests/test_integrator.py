import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from support import (
    DenseStiffReference,
    ManufacturedFull,
    ManufacturedLimit,
    array_divergence,
    array_leray_project,
    box_projection,
    count_fft_calls,
    member_prop_rows,
    observed_order,
    plain_rate,
    stack_operator,
    step_once,
    stiff_entries,
    term_by_term_half_step,
)

from nsmlimit.errors import BlowUpError, ConfigError, VacuumError
from nsmlimit.initdata import WellPreparedSpec, make_limit_data, make_well_prepared
from nsmlimit.integrator import (
    _GROUPS,
    _TERMS,
    StepControl,
    StiffLinearOperator,
    _check_step,
    _exp_blocks,
    build_stiff_operator,
    evolve,
    step_full,
)
from nsmlimit.model import (
    FullState, LimitState, Params, PressureLaw, _full_rate, _join, _layout, _rate_coefficients, _split,
    _stack, _stacked, _state_view,
)
from nsmlimit.spectral import (
    Grid,
    ScalarField,
    VectorField,
    array_rfft,
    box_irfft,
    box_rfft,
    grid_integral,
    half_divergence,
    random_smooth_vector,
    sobolev_norm,
    sup_norm,
)


class TestStepControl:
    @pytest.mark.parametrize("bad", [dict(dt=0.0, t_end=1.0), dict(dt=0.1, t_end=-1.0),
                                     dict(dt=2e-4, t_end=3e-4), dict(dt=2e-4, t_end=1e-4)])
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            StepControl(**bad)

    @pytest.mark.parametrize("key, value", [("dt", math.inf), ("t_end", math.inf), ("t_end", math.nan)])
    def test_non_finite_is_a_config_error(self, key, value):
        # t_end = inf used to pass and then fail with an OverflowError when
        # the step count was taken
        with pytest.raises(ConfigError, match=rf"^step\.{key} must be finite, got {value!r}$"):
            StepControl(**{"dt": 1e-3, "t_end": 1.0, key: value})

    @pytest.mark.parametrize("dt, t_end, n", [(2e-4, 0.1, 500), (1e-3, 0.0, 0), (0.05, 10.0, 200)])
    def test_n_steps(self, dt, t_end, n):
        assert StepControl(dt=dt, t_end=t_end).n_steps == n


def _random_fields(grid, seed):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(3,) + grid.shape) for _ in range(4)]


class TestStiffOperator:
    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(2, 16), Grid(3, 8)],
                             ids=["1d64", "2d16", "3d8"])
    @pytest.mark.parametrize("kappa", [0.4, 0.05, 1e-3])
    @pytest.mark.parametrize("epsilon", [0.1, 1e-6])
    @pytest.mark.parametrize("lam", [0.0, 0.05])
    def test_matches_dense_reference(self, grid, kappa, epsilon, lam):
        # closed form against dense complex expm of the (M, 9, 9) blocks
        p = Params(kappa=kappa, epsilon=epsilon, lam=lam)
        op = build_stiff_operator(grid, p, 0.01, (kappa,), (1.07,))
        limit = build_stiff_operator(grid, p, 0.01, limit_mean=1.07)
        ref = DenseStiffReference(grid, p, n_mean=1.07, dt=0.01)
        fields = _random_fields(grid, 11)
        x = box_rfft(grid, np.stack(fields))
        prop = ref.apply_half(*fields)
        for got, want in [(box_irfft(grid, op.apply_half(x)), prop),
                          (box_irfft(grid, limit.apply_half(x[:1])), prop[:1])]:
            got, want = np.stack(got), np.stack(want)
            assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    def test_zero_mode_is_coupling_block_exponential(self, grid64):
        # k = 0: curl and viscous terms vanish; constant fields must follow
        # the matrix exponential of the bare current-field coupling
        p = Params(kappa=0.3)
        dt = 0.01
        op = build_stiff_operator(grid64, p, dt, (p.kappa,), (1.0,))
        # at k = 0 each component of (J, E, B) follows M, the helical block
        gen = np.kron(_generators(np.zeros(1), p, 1.0, dt / 2)[1][0], np.eye(3))
        expected = scipy.linalg.expm(gen)
        z0 = np.random.default_rng(0).normal(size=9)
        ones = np.ones((3,) + grid64.shape)
        J0, E0, B0 = (z0[s:s + 3, None, None, None] * ones for s in (0, 3, 6))
        u, J, E, B = box_irfft(grid64, op.apply_half(box_rfft(grid64, np.stack([ones, J0, E0, B0]))))
        got = np.concatenate([J, E, B])
        assert np.abs(got - (expected @ z0)[:, None, None, None]).max() < 1e-12
        assert np.abs(u - 1.0).max() < 1e-12

    def test_maxwell_rotation_preserves_norm(self, grid64):
        # kappa = 1, single mode k = (1,0,0): the (E, B) pair rotates
        # (collision coupling switched off via huge tau)
        p = Params(kappa=1.0, tau=1e14)
        op = build_stiff_operator(grid64, p, 0.37, (p.kappa,), (1.0,))
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        a, b = np.random.default_rng(0).normal(size=(2, 4))
        wave = [a[i] * np.cos(x) + b[i] * np.sin(x) for i in range(4)]
        E0, B0 = np.stack([0 * x, wave[0], wave[1]]), np.stack([0 * x, wave[2], wave[3]])
        z = np.zeros_like(E0)
        _, _, E, B = box_irfft(grid64, op.apply_half(box_rfft(grid64, np.stack([z, z, E0, B0]))))
        norm0 = np.sqrt((E0**2).sum() + (B0**2).sum())
        assert abs(np.sqrt((E**2).sum() + (B**2).sum()) - norm0) < 1e-13 * norm0

    @pytest.mark.parametrize("kappa, tol", [(0.1, 1e-12), (1e-4, 1e-10), (1e-7, 1e-7)])
    def test_pure_maxwell_energy_drift(self, grid64, kappa, tol):
        # fluid at rest, coupling off: ten half-steps at omega*dt up to ~1e8
        # keep |E|^2 + |B|^2
        p = Params(kappa=kappa, tau=1e14)
        op = build_stiff_operator(grid64, p, 0.37, (p.kappa,), (1.0,))
        E = array_leray_project(grid64, random_smooth_vector(grid64, 5, 0.8, zero_mean=True).values)
        B = array_leray_project(grid64, random_smooth_vector(grid64, 6, 0.8, zero_mean=True).values)
        u = J = np.zeros_like(E)
        em0 = (E**2).sum() + (B**2).sum()
        for _ in range(10):
            u, J, E, B = box_irfft(grid64, op.apply_half(box_rfft(grid64, np.stack([u, J, E, B]))))
        assert abs((E**2).sum() + (B**2).sum() - em0) / em0 < tol

    def test_small_dt_is_identity(self, grid64):
        p = Params(kappa=0.5)
        op = build_stiff_operator(grid64, p, 1e-9, (p.kappa,), (1.0,))
        fields = [box_projection(grid64, v / np.abs(v).max()) for v in _random_fields(grid64, 3)]
        hat = box_rfft(grid64, np.stack(fields))
        dev = max(np.abs(y - x).max() for x, y in zip(fields, box_irfft(grid64, op.apply_half(hat))))
        # deviation is O(dt |L|), dominated by the viscous mu k^2 block
        ref = DenseStiffReference(grid64, p, n_mean=1.0, dt=1e-9)
        lmax = max(np.abs(r).max() for r in ref.linear_rate(*fields))
        assert dev < 1e-9 * (lmax + 1.0)

    def test_invalid_dt(self, grid64):
        with pytest.raises(ConfigError):
            build_stiff_operator(grid64, Params(kappa=0.5), 0.0, (0.5,), (1.0,))
        with pytest.raises(ConfigError):
            build_stiff_operator(grid64, Params(kappa=0.5), 0.0, limit_mean=1.0)

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    def test_viscous_operator_steps_as_full_builder(self, grid):
        # the limit system's operator, u's viscous rows alone, tabulates the
        # full builder's u rows, alone and ahead of a batch
        p = Params(lam=0.05)
        limit = make_limit_data(grid, seed=3, amplitude=0.1)
        m, dt = limit.n.mean, 2e-4
        alone = build_stiff_operator(grid, p, dt, limit_mean=m)
        full = build_stiff_operator(grid, p, dt, (0.4,), (m,))
        paired = build_stiff_operator(grid, p, dt, (0.4, 0.05), (1.02, 0.97), limit_mean=m)
        u_terms = [t for t, (_, i, _) in enumerate(_TERMS) if i == 0]
        for op, member in ((full, 0), (paired, 0)):
            rows = [member_prop_rows(op.layout, member)[t] for t in u_terms]
            assert np.array_equal(op.prop_half[rows], alone.prop_half)


def _mode_keys(grid):
    """The distinct |k|^2 of a grid's 2/3-rule box."""
    return np.unique(grid.box.k2)


def _generators(k2, p, n_mean, h):
    """h Long and h M per |k|^2 of k2, (P, 3, 3), as the StiffLinearOperator
    docstring defines them, from ``stiff_entries``."""
    e = stiff_entries(p, p.kappa, n_mean, k2)
    lon = np.zeros((len(k2), 3, 3))
    lon[:, 0, 0], lon[:, 0, 1] = e.v_lon - e.friction, e.j_e
    hel = np.zeros((len(k2), 3, 3))
    hel[:, 0, 0], hel[:, 0, 1], hel[:, 1, 0] = e.v_tra - e.friction, e.j_e, e.e_j
    hel[:, 1, 2], hel[:, 2, 1] = -e.omega, e.omega
    return h * lon, h * hel


def _exp_blocks_of(k2, p, kappa, n_mean, h):
    """``_exp_blocks`` of the member at kappa and n_mean, with the a and the
    friction rate of its rate coefficients, as ``build_stiff_operator``
    passes them."""
    coef = _rate_coefficients(Grid(1, 8), p, (kappa,), (n_mean,))
    return _exp_blocks(k2, p, kappa, n_mean, coef.a, coef.fric_mean.item(), h)


def _rel_err(got, want):
    """Per-matrix max-abs error relative to the largest entry, (P,)."""
    return np.abs(got - want).max(axis=(1, 2)) / np.abs(want).max(axis=(1, 2))


def _operator(grid, members, dt=0.01):
    """The operator of one state (members None) or of the limit and a batch of 3."""
    p = Params(lam=0.05)
    if members is None:
        return build_stiff_operator(grid, p, dt, (0.1,), (1.07,))
    return build_stiff_operator(grid, p, dt, (0.4, 0.1, 0.02), (1.07, 0.98, 1.0), limit_mean=1.03)


class TestGroupedHalfStep:
    # the grouped propagator against the term-by-term sum it replaced
    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    @pytest.mark.parametrize("members", [None, 3], ids=["single", "batch3"])
    def test_apply_half_bit_for_bit(self, grid, members):
        op = _operator(grid, members)
        lay = op.layout
        rng = np.random.default_rng(5)
        shape = (lay.members + 3 * lay.currents, 3) + grid.box.k2.shape
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        x[lay.members + lay.currents:, 0] = 0.0  # exact zeros, as in the x rows of a 1-D E and B
        assert np.array_equal(op.apply_half(x), term_by_term_half_step(op, x))
        assert np.array_equal(op.apply_full(x), term_by_term_half_step(op, x, op.prop_full))

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    @pytest.mark.parametrize("members", [None, 3], ids=["single", "batch3"])
    def test_prop_half_is_c_contiguous(self, grid, members):
        for op in (_operator(grid, members),
                   build_stiff_operator(grid, Params(kappa=0.1), 0.01, limit_mean=1.07)):
            assert op.prop_half.flags.c_contiguous and op.prop_full.flags.c_contiguous

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    @pytest.mark.parametrize("members", [None, 3], ids=["single", "batch3"])
    def test_full_step_is_two_half_steps(self, grid, members):
        # exp(dt L) = exp(dt/2 L)^2: the full-step table, tabulated in the
        # same pass as the half-step one, agrees with two half-steps to
        # roundoff (measured: 5e-16 to 7.4e-16 of the largest result)
        op = _operator(grid, members)
        lay = op.layout
        rng = np.random.default_rng(6)
        shape = (lay.members + 3 * lay.currents, 3) + grid.box.k2.shape
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        twice = op.apply_half(op.apply_half(x))
        assert np.abs(op.apply_full(x) - twice).max() <= 1e-13 * np.abs(twice).max()


class TestBlockExponentials:
    """``_exp_blocks``: the closed-form longitudinal block and the
    scaling-and-squaring Pade helical block, against scipy's expm."""

    @pytest.mark.parametrize("kappa", [0.4, 1e-3, 1e-7])
    @pytest.mark.parametrize("epsilon", [0.1, 1e-6])
    @pytest.mark.parametrize("dt", [2e-4, 0.01, 0.37])
    def test_blocks_match_scipy_expm(self, kappa, epsilon, dt):
        # within ||h M||_1 <= 1e3 the helical block agrees to 1e-12; beyond
        # it both lose accuracy with the squaring count, and agree to
        # 2e-15 ||h M||_1.  The longitudinal block is closed form and agrees
        # everywhere.
        keys, p, h = _mode_keys(Grid(3, 32)), Params(kappa=kappa, epsilon=epsilon, lam=0.05), 0.5 * dt
        ex_lon, ex_hel = (np.moveaxis(b, -1, 0) for b in _exp_blocks_of(keys, p, kappa, 1.07, h))
        lon, hel = _generators(keys, p, 1.07, h)
        assert _rel_err(ex_lon, scipy.linalg.expm(lon + 0j).real).max() <= 1e-12
        norm = np.abs(hel).sum(axis=1).max(axis=1)
        err = _rel_err(ex_hel, scipy.linalg.expm(hel + 0j).real)
        assert (err[norm <= 1e3] <= 1e-12).all()
        assert (err[norm > 1e3] <= 2e-15 * norm[norm > 1e3]).all()

    @pytest.mark.parametrize("kappa, dt", [(1e-3, 0.37), (1e-7, 2e-4), (1e-7, 0.01), (1e-7, 0.37)])
    def test_helical_block_rotates_beyond_pade_range(self, kappa, dt):
        # coupling off (tau = 1e14): (E, B) rotate by h omega, up to the
        # rounding of h omega itself; ||h M||_1 reaches ~2e7
        keys, p, h = _mode_keys(Grid(3, 32)), Params(kappa=kappa, tau=1e14), 0.5 * dt
        _, hel = _generators(keys, p, 1.0, h)
        beyond = np.abs(hel).sum(axis=1).max(axis=1) > 1e3
        assert beyond.sum() > 10
        eb = _exp_blocks_of(keys[beyond], p, kappa, 1.0, h)[1][1:, 1:]
        theta = h * np.sqrt(keys[beyond]) / kappa
        c, s = np.cos(theta), np.sin(theta)
        assert (np.abs(eb - np.array([[c, -s], [s, c]])).max(axis=(0, 1)) <= 1e-15 * theta).all()

    def test_longitudinal_entry_at_vanishing_viscous_rate(self):
        # the J-E entry a h (e^x - 1)/x, x = h (v_L - f), is exactly a h at
        # x = 0 and keeps full accuracy at |x| ~ 1e-17; kappa_ei puts h f at
        # 2.2e-25, so x at k = 0 rounds e^x and (e^x - 1)/x to 1 and the
        # other x stay within 1e-7 of h v_L
        p, h = Params(mu=1e-15, kappa=0.2, kappa_ei=1e-22), 0.005
        keys = np.array([0.0, 1.0, 3.0])
        ex_lon = _exp_blocks_of(keys, p, p.kappa, 1.0, h)[0]
        lon = _generators(keys, p, 1.0, h)[0]
        x, a_h = lon[:, 0, 0], lon[0, 0, 1]
        assert np.abs(x[1:]).min() == pytest.approx(1e-17)
        assert ex_lon[0, 1, 0] == a_h
        assert np.abs(ex_lon[0, 1] - a_h * (1.0 + 0.5 * x)).max() <= 1e-16 * a_h
        assert np.array_equal(ex_lon[0, 0], np.exp(x))
        assert _rel_err(np.moveaxis(ex_lon, -1, 0), scipy.linalg.expm(lon + 0j).real).max() <= 1e-15


def test_setup_does_not_import_scipy_linalg():
    # the operator build is element-wise numpy work: a 1-D run imports no
    # scipy at all, and a 3-D operator build no scipy.linalg
    code = (
        "import sys\n"
        "from nsmlimit.harness import parse_config_text, run_single\n"
        "from nsmlimit.integrator import build_stiff_operator\n"
        "from nsmlimit.model import Params\n"
        "from nsmlimit.spectral import Grid\n"
        "rec = run_single(parse_config_text('[step]\\ndt = 2e-4\\nt_end = 1e-3\\n'))\n"
        "assert rec.status == 'completed' and rec.n_steps == 5, rec.status\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy after 1-D run'\n"
        "build_stiff_operator(Grid(3, 8), Params(kappa=1e-3), 0.01, (1e-3,), (1.0,))\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg after 3-D build'\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


_NO_SCIPY_CONFIGS = {
    "grid3.ini": "[grid]\ndims_active = 3\npoints_per_dim = 8\n[step]\ndt = 2e-4\nt_end = 1.2e-3\n"
                 "[initial]\nmax_wavenumber = 2\n[diagnostics]\nsnapshot_stride = 2\n",
    "grid2.ini": "[grid]\ndims_active = 2\npoints_per_dim = 16\n[step]\ndt = 2e-4\nt_end = 1e-3\n",
}


def test_cli_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: with every scipy import refused, a
    # 3-D run and the audit of its snapshots, a 2-D sweep, the reformulation
    # check and the Moser ensemble exit as they do with it, and load no
    # scipy module
    for name, text in _NO_SCIPY_CONFIGS.items():
        (tmp_path / name).write_text(text)
    code = (
        "import importlib.abc, sys\n"
        "class NoScipy(importlib.abc.MetaPathFinder):\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} refused')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "from nsmlimit.cli import main\n"
        "codes = [main(['run', '--config', 'grid3.ini', '--out', 'out3']),\n"
        "         main(['audit', '--record', 'out3/run_kappa0.1_snapshots.npz']),\n"
        "         main(['sweep', '--config', 'grid2.ini', '--out', 'out2']),\n"
        "         main(['reform-check', '--config', 'grid3.ini', '--states', '2']),\n"
        "         main(['moser', '--config', 'grid2.ini', '--pairs', '2'])]\n"
        "assert codes == [0] * 5, codes\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr


def _random_state(grid, seed, kappas):
    """Random stacked (n, u, J, E, B) box coefficients with 0.9 <= n <= 1.1
    before the box is cut, one per kappa, and their Params."""
    rng = np.random.default_rng(seed)
    xs = [np.concatenate([1.0 + 0.1 * rng.uniform(-1.0, 1.0, size=(1,) + grid.shape),
                          rng.normal(size=(12,) + grid.shape)]) for _ in kappas]
    return [box_rfft(grid, x) for x in xs], [Params(kappa=k, lam=0.05) for k in kappas]


class TestRemainder:
    """The rates given a frozen mean density return N(y) - L y directly."""

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    @pytest.mark.parametrize("kappas", [(0.05,), (0.4, 0.05, 1e-3)], ids=["single", "batch3"])
    @pytest.mark.parametrize("system", ["full", "limit"])
    def test_matches_rate_minus_dense_generator(self, grid, kappas, system):
        # "limit" is the limit system alone (single) or ahead of the batch
        xs, ps = _random_state(grid, 5, kappas)
        batch = len(kappas) > 1
        limit = [_random_state(grid, 6, (1.0,))[0][0][:4]] if system == "limit" else []
        members = list(zip(xs, ps)) if system == "full" or batch else []
        stacks = limit + [x for x, _ in members]
        means = [float(box_irfft(grid, x[0]).mean()) for x in stacks]
        lim = len(limit)
        member_kappas = [q.kappa for _, q in members]
        x = _join(stacks)
        op = build_stiff_operator(grid, ps[0], 0.01, member_kappas, means[lim:], means[0] if lim else None)
        got = _full_rate(x, op.coef)
        rate = _full_rate(x, _rate_coefficients(grid, ps[0], member_kappas))
        lay = _layout(len(x))
        for k, stack in enumerate(stacks):
            rows = lay.member_rows(k)
            want = box_irfft(grid, rate[rows])
            fields = list(box_irfft(grid, stack)[1:].reshape(-1, 3, *grid.shape))
            fields += [np.zeros_like(fields[0])] * (4 - len(fields))
            q = ps[0] if k < lim else members[k - lim][1]
            lin = DenseStiffReference(grid, q, means[k], dt=0.01).linear_rate(*fields)
            want[1:] -= np.concatenate(lin)[: len(rows) - 1]
            err = np.abs(box_irfft(grid, got[rows]) - want).max()
            assert err <= 1e-12 * max(1.0, np.abs(want).max()), (k, err)

    @pytest.mark.parametrize("epsilon", [0.1, 1e-6])
    @pytest.mark.parametrize("n_mean", [1.0, 2.0])
    def test_current_row_vanishes_on_a_uniform_state(self, epsilon, n_mean):
        # at rest at its mean density, with uniform J and E, the J rate is
        # a E - f J, the generator's J row, so the remainder's J row is
        # roundoff: measured <= 7.3e-17 of the bound's scale.  It read 0.022
        # and 3.34 (epsilon 0.1, n_mean 1 and 2) and 2.0e3 and 3.0e5
        # (epsilon 1e-6) when the generator's J-E entry was a n_mean and its
        # J diagonal had no friction
        grid, p = Grid(1, 16), Params(kappa=0.1, epsilon=epsilon)
        z = np.zeros((3,) + grid.shape)
        J, E = z.copy(), z.copy()
        J[0], E[0] = 0.2, 0.3
        x = box_rfft(grid, _stack(np.full(grid.shape, n_mean), z, J, E, z))
        op = build_stiff_operator(grid, p, 2e-4, (p.kappa,), (n_mean,))
        dJ = box_irfft(grid, _full_rate(x, op.coef))[op.layout.J]
        e = stiff_entries(p, p.kappa, n_mean, 0.0)
        assert np.abs(dJ).max() <= 1e-15 * (0.3 * e.j_e + 0.2 * e.friction)

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    @pytest.mark.parametrize("kappa", [1.0, 1e-2, 1e-4])
    def test_maxwell_rows_uniform_in_kappa(self, grid, kappa):
        # fluid at rest, n = 1, solenoidal E and B: the 1/kappa curl terms of
        # N and L cancel, so the Maxwell rows of the remainder vanish at any kappa
        p = Params(kappa=kappa)
        E, B = (array_leray_project(grid, random_smooth_vector(grid, s, 0.8, zero_mean=True).values)
                for s in (5, 6))
        z = np.zeros_like(E)
        x = box_rfft(grid, _stack(np.ones(grid.shape), z, z, E, B))
        op = build_stiff_operator(grid, p, 2e-4, (kappa,), (1.0,))
        remainder = box_irfft(grid, _full_rate(x, op.coef))
        assert np.abs(remainder[7:]).max() <= 1e-14


def _uniform(grid):
    one = ScalarField(grid, np.ones(grid.shape))
    z = VectorField.zeros(grid)
    return FullState(one, z, z, z, z)


class TestStepFull:
    def test_equilibrium_fixed_point_any_dt(self, grid64):
        p = Params(kappa=0.2)
        x = _stacked(_uniform(grid64))
        for dt in (1e-4, 0.05, 0.5):
            out = _state_view(grid64, step_once(grid64, x, p, dt))
            assert np.abs(out.n.values - 1.0).max() < 1e-14
            assert sup_norm(out.u) < 1e-14
            assert sup_norm(out.E) < 1e-14

    def test_pure_maxwell_energy_conserved(self, grid64):
        # fluid at rest, collision coupling off: E/B rotate per mode and
        # |E|^2 + |B|^2 must be conserved
        p = Params(kappa=1.0, tau=1e14)
        E0 = VectorField(grid64, array_leray_project(
            grid64, random_smooth_vector(grid64, 5, 0.8, zero_mean=True).values))
        B0 = VectorField(grid64, array_leray_project(
            grid64, random_smooth_vector(grid64, 6, 0.8, zero_mean=True).values))
        state = FullState(
            ScalarField(grid64, np.ones(grid64.shape)),
            VectorField.zeros(grid64), VectorField.zeros(grid64), E0, B0,
        )
        sc = StepControl(dt=1e-3, t_end=0.1)
        op = build_stiff_operator(grid64, p, sc.dt, (p.kappa,), (1.0,))
        em0 = sobolev_norm(E0, 0.0) ** 2 + sobolev_norm(B0, 0.0) ** 2
        x = _stacked(state)
        for i in range(100):
            x = step_full(x, op, t=i * sc.dt)
        state = _state_view(grid64, x)
        em1 = sobolev_norm(state.E, 0.0) ** 2 + sobolev_norm(state.B, 0.0) ** 2
        assert abs(em1 - em0) / em0 < 1e-8

    def test_zero_operator_reduces_to_heun(self, grid64):
        # with L = 0 the Strang composition collapses to plain SSP-RK2
        p = Params(kappa=0.2)
        sc = StepControl(dt=2e-4, t_end=2e-4)
        limit = make_limit_data(grid64, seed=3, amplitude=0.08)
        spec = WellPreparedSpec.from_seed(limit, seed=3, c0=1.0, kappa=p.kappa)
        state = make_well_prepared(spec)
        grid = grid64
        # L = 0 for one state: the identity propagator, and the rates
        # themselves rather than a remainder
        prop = np.zeros((len(_TERMS),) + grid.box.k2.shape)
        prop[_GROUPS[0][0]:_GROUPS[0][1]] = 1.0  # the "x" diagonal
        identity = StiffLinearOperator(grid, sc.dt, prop, prop, _layout(13),
                                       _rate_coefficients(grid, p, (p.kappa,)))
        out = _state_view(grid, step_full(_stacked(state), identity))

        J = p.kappa * state.jt.values
        s0 = (state.n.values, state.u.values, J, state.E.values, state.B.values)
        k1 = _split(box_irfft(grid, plain_rate(grid, p, box_rfft(grid, _stack(*s0)))))
        s1 = tuple(x + sc.dt * k for x, k in zip(s0, k1))
        k2 = _split(box_irfft(grid, plain_rate(grid, p, box_rfft(grid, _stack(*s1)))))
        heun = tuple(x + 0.5 * sc.dt * (a + b) for x, a, b in zip(s0, k1, k2))
        assert np.abs(out.n.values - heun[0]).max() < 1e-15
        assert np.abs(out.u.values - heun[1]).max() < 1e-15
        assert np.abs(p.kappa * out.jt.values - heun[2]).max() < 1e-15
        assert np.abs(out.E.values - array_leray_project(grid, heun[3])).max() < 1e-15
        assert np.abs(out.B.values - array_leray_project(grid, heun[4])).max() < 1e-15

    def test_manufactured_order(self, grid64):
        mms = ManufacturedFull(grid64, Params(kappa=1.0))
        errors = [mms.error_after(dt, t_end=3.2e-2) for dt in (4e-3, 2e-3, 1e-3)]
        p_obs = observed_order(errors)
        assert 1.8 <= p_obs <= 2.2

    def test_constraint_preservation(self, grid64):
        p = Params(kappa=0.1)
        limit = make_limit_data(grid64, seed=7, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa)
        state = make_well_prepared(spec)
        sc = StepControl(dt=2e-4, t_end=0.01)
        op = build_stiff_operator(grid64, p, sc.dt, (p.kappa,), (state.n.mean,))
        x = _stacked(state)
        for i in range(50):
            x = step_full(x, op, t=i * sc.dt)
            state = _state_view(grid64, x)
            tol = 1e-10 * (1.0 + sup_norm(state.E) + sup_norm(state.B))
            assert np.abs(array_divergence(grid64, state.E.values)).max() <= tol
            assert np.abs(array_divergence(grid64, state.B.values)).max() <= tol

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    def test_unrecorded_step_projects_E_and_B(self, grid):
        # E and B with a gradient part: a step that is not recorded projects
        # both before its exp(dt L), which leaves longitudinal E and B as
        # they are, so the set it returns is divergence-free
        p = Params(kappa=0.2)
        s = _uniform(grid)
        x = grid.coordinate(0) * np.ones(grid.shape)
        grad = VectorField(grid, np.stack([0.1 * np.cos(x), 0.05 * np.sin(x), np.zeros(grid.shape)]))
        before = FullState(s.n, s.u, s.jt, grad, grad)
        assert np.abs(half_divergence(grid, array_rfft(grid, grad.values))).max() > 1.0
        out = step_full(_stacked(before), stack_operator(grid, _stacked(before), p, 1e-3), record=False)
        lay = _layout(13)
        for rows in (lay.E, lay.B):  # the unnormalised coefficients are O(npoints)
            assert np.abs((grid.box.k * out.half[rows]).sum(axis=0)).max() <= 1e-12 * grid.npoints

    def test_content_above_the_box_steps_as_its_box_projection(self, grid64):
        # a k = 30 mode of u lies above the 2/3 cutoff (21.3 on 64 points):
        # the step holds the box alone, so the state steps as its box
        # projection, to roundoff, recorded or not, and the mode is gone.
        # Kept on the half-spectrum, such a mode used to be frozen: 0.99995
        # of it was left after t = 0.01 at mu = 0.1, where exp(-mu k^2 t) is
        # 0.41, because the masked rate cancelled the propagator's viscous
        # decay.
        p = Params(kappa=0.2)
        limit = make_limit_data(grid64, seed=7, amplitude=0.1)
        x = _stacked(make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa)))
        high = x.copy()
        high[2] += 1e-3 * np.cos(30.0 * grid64.coordinate(0))  # u_y
        op = build_stiff_operator(grid64, p, 2e-4, (p.kappa,), (float(x[0].mean()),))
        for record in (True, False):
            got, want = (step_full(y, op, record=record) for y in (high, box_projection(grid64, high)))
            for a, b in zip(got, want):
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()
        y = step_full(high, op)
        # the mode's coefficient is down to the roundoff of the grid round trip
        mode = [np.abs(array_rfft(grid64, u)[30]).max() for u in (y[2], high[2])]
        assert mode[0] <= 1e-12 * mode[1]

    def test_mass_conserved(self, grid64):
        p = Params(kappa=0.1)
        limit = make_limit_data(grid64, seed=7, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa)
        state = make_well_prepared(spec)
        mass0 = grid_integral(grid64, state.n.values)
        sc = StepControl(dt=2e-4, t_end=0.02)
        op = build_stiff_operator(grid64, p, sc.dt, (p.kappa,), (state.n.mean,))
        x = _stacked(state)
        for i in range(100):
            x = step_full(x, op, t=i * sc.dt)
        assert abs(grid_integral(grid64, x[0]) - mass0) / mass0 < 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detection(self, grid64):
        p = Params(kappa=0.2)
        s = _uniform(grid64)
        bad_u = np.zeros((3,) + grid64.shape)
        bad_u[0, 0] = np.inf
        bad = FullState(s.n, VectorField(grid64, bad_u), s.jt, s.E, s.B)
        with pytest.raises(BlowUpError, match="blow-up detected at t="):
            step_once(grid64, _stacked(bad), p, 1e-3)

    @pytest.mark.parametrize("name", ["n", "u", "J", "E", "B"])
    def test_blowup_names_first_nonfinite_field(self, grid64, name):
        order = ["n", "u", "J", "E", "B"]
        fields = {f: np.ones((3,) + grid64.shape) for f in order}
        for later in order[order.index(name):]:
            fields[later][1, 3] = np.nan
        with pytest.raises(BlowUpError, match=rf"at t=0\.25: non-finite {name}$") as exc:
            _check_step(0.25, **fields)
        assert exc.value.time == 0.25

    def test_vacuum_reports_min_density_and_time(self, grid64):
        # linear pressure keeps the rates finite at negative density
        p = Params(kappa=0.2, pressure=PressureLaw(gamma=1.0))
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        state = LimitState(ScalarField(grid64, 1.0 + 1.5 * np.sin(x)), VectorField.zeros(grid64))
        with pytest.raises(VacuumError, match=r"at t=0\.001: min n = -0\.49") as exc:
            step_once(grid64, _stacked(state), p, 1e-3)
        assert exc.value.time == 1e-3  # as BlowUpError's

    def test_operator_for_another_member_set_rejected(self, grid64):
        # the operator is the set's whole description; one built for the
        # limit alone cannot step a scaled-system state
        op = build_stiff_operator(grid64, Params(kappa=0.2), 1e-3, limit_mean=1.0)
        with pytest.raises(ConfigError, match=r"^the operator was built for a member set of 2 coefficient "
                                              r"rows, not for the step's 13 stack rows$"):
            step_full(_stacked(_uniform(grid64)), op)

    @pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
    def test_input_stack_unchanged(self, grid):
        # the stepped stack is a new array and the input keeps its bits: the
        # limit with two kappa members, and the limit alone (its stack goes
        # to the transform uncopied)
        kappas = (0.4, 0.05)
        limit = make_limit_data(grid, seed=7, amplitude=0.1)
        fulls = [make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=k)) for k in kappas]
        paired = _join([_stacked(limit)] + [_stacked(f) for f in fulls])
        for x, member_kappas in ((paired, kappas), (_stacked(limit), ())):
            before = x.copy()
            op = stack_operator(grid, x, Params(), 2e-4, member_kappas)
            y = step_full(x, op)
            assert x.tobytes() == before.tobytes()
            assert not np.shares_memory(x, y)
            assert step_full(x, op).tobytes() == y.tobytes()
            # a carried half-spectrum stack too, which a failed step's other
            # members step again
            carried = step_full(x, op, record=False)
            kept = [a.copy() for a in carried]
            for stepped in (step_full(carried, op, record=False), (step_full(carried, op),)):
                assert all(a.tobytes() == b.tobytes() for a, b in zip(carried, kept))
                assert not any(np.shares_memory(a, b) for a in carried for b in stepped)

    def test_asymptotic_robustness_quick(self, grid64):
        # identical grid/dt across three decades of kappa; the full-horizon
        # variant runs in the acceptance suite
        sc = StepControl(dt=2e-4, t_end=0.01)
        for kap in (1.0, 0.1, 0.01):
            p = Params(kappa=kap)
            limit = make_limit_data(grid64, seed=7, amplitude=0.1)
            spec = WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=kap)
            state = make_well_prepared(spec)
            final, log = evolve(state, p, sc)
            assert log.status == "completed"
            assert np.isfinite(final.n.values).all()


@pytest.mark.parametrize("grid", [Grid(3, 8), Grid(1, 64)], ids=["3d8", "1d64"])
def test_transform_calls_per_step(grid, monkeypatch):
    # four transforms per rate evaluation, so eight per step, and one more
    # each way at the step's ends: a step from a grid stack transforms it on
    # entry, one from the box stack of an unrecorded step does not; a
    # recorded step transforms the whole stack back, one that is not
    # recorded only the densities.  So 10 transforms from a grid stack and
    # 9 from a carried one, recorded or not, for one state, the limit alone,
    # a batch of 4, or the limit and a batch of 4 stepped together.  A box
    # transform is numpy's rfft or irfft on one active axis.  On three, the
    # forward one is the real transform of the last axis, one c2c transform
    # of the first, and one of the second for each of the first axis' two
    # box blocks (per chunk of rows, one chunk here); the inverse one is a
    # c2c inverse of the first axis for each of the second axis' two box
    # blocks, one of the second, then the last axis' irfft.
    p = Params(kappa=0.1)
    limit = make_limit_data(grid, seed=7, amplitude=0.1)
    full = make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=p.kappa))
    sc = StepControl(dt=2e-4, t_end=2e-4)
    batch = (0.4, 0.2, 0.1, 0.05)
    x, xl, m, ml = _stacked(full), _stacked(limit), full.n.mean, limit.n.mean
    rows = []
    calls = count_fft_calls(monkeypatch, rows)
    for stack, kappas, means, limit_mean in ((x, (p.kappa,), (m,), None), (xl, (), (), ml),
                                             (_join([x] * 4), batch, (m,) * 4, None),
                                             (_join([xl] + [x] * 4), batch, (m,) * 4, ml)):
        op = build_stiff_operator(grid, p, sc.dt, kappas, means, limit_mean)
        counts = []

        def counted(y, record):
            calls.clear()
            rows.clear()
            y = step_full(y, op, record=record)
            # stack rows: each real transform (of the last active axis)
            # counts the lines over the other active axes as rows
            lines = grid.points_per_dim ** (grid.dims_active - 1)
            real = sum(r for c, r in zip(calls, rows) if c in ("rfft", "irfft"))
            counts.append((len(calls), real // lines))
            return y

        counted(stack, True)
        fused = counted(counted(stack, False), False)
        counted(fused, True)
        per = {1: 1, 3: 4}[grid.dims_active]  # calls per box transform
        assert [c for c, _ in counts] == [10 * per, 10 * per, 9 * per, 9 * per], (len(stack), counts)
    # the limit and 4 members, 56 rows: 220 per rate evaluation, and 56 each
    # way on entry and exit, or the 5 densities
    assert [r for _, r in counts] == [552, 501, 445, 496]


@pytest.mark.parametrize("grid", [Grid(1, 64), Grid(3, 8)], ids=["1d64", "3d8"])
def test_batch_matches_single_steps(grid):
    # a batch is one stack with kappa as a column, with or without the limit
    # ahead of it; every member must come out bit for bit as when stepped
    # alone, operator tables included, on the half-spectrum between records
    # as on the grid
    kappas = (0.4, 0.05, 1e-3)
    p = Params()
    limit = make_limit_data(grid, seed=7, amplitude=0.1)
    fulls = tuple(make_well_prepared(WellPreparedSpec.from_seed(limit, seed=7, c0=1.0, kappa=k))
                  for k in kappas)
    sc = StepControl(dt=2e-4, t_end=1.0)
    ops = [build_stiff_operator(grid, p, sc.dt, (k,), (s.n.mean,)) for k, s in zip(kappas, fulls)]
    ops.insert(0, build_stiff_operator(grid, p, sc.dt, limit_mean=limit.n.mean))
    for limits in ([], [limit]):
        states = limits + list(fulls)
        op = build_stiff_operator(grid, p, sc.dt, kappas, [s.n.mean for s in fulls],
                                  limit.n.mean if limits else None)
        singles = ops[1 - len(limits):]
        for k, single in enumerate(singles):
            rows = [r for r in member_prop_rows(op.layout, k) if r is not None]
            assert np.array_equal(op.prop_half[rows], single.prop_half)
            assert np.array_equal(op.prop_full[rows], single.prop_full)
        assert np.array_equal(op.coef.n_mean, np.concatenate([s.coef.n_mean for s in ops[1:]]))
        alone = [_stacked(s) for s in states]
        batch = _join(alone)
        for i, record in enumerate((False, False, True, False, True)):
            batch = step_full(batch, op, t=i * sc.dt, record=record)
            alone = [step_full(x, o, t=i * sc.dt, record=record) for x, o in zip(alone, singles)]
            if not record:
                for k, a in enumerate(alone):
                    assert np.array_equal(batch.half[op.layout.member_rows(k)], a.half)
                    assert np.array_equal(batch.n[k], a.n[0])
        assert batch.shape == (sum(len(a) for a in alone),) + alone[0].shape[1:]
        for k, a in enumerate(alone):
            assert np.array_equal(batch[op.layout.member_rows(k)], a)


class TestBatchFailures:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_names_member(self, grid64):
        s = _uniform(grid64)
        bad_u = np.zeros((3,) + grid64.shape)
        bad_u[0, 0] = np.inf
        bad = FullState(s.n, VectorField(grid64, bad_u), s.jt, s.E, s.B)
        with pytest.raises(BlowUpError) as alone:
            step_once(grid64, _stacked(bad), Params(kappa=0.2), 1e-3)
        with pytest.raises(BlowUpError) as batch:
            step_once(grid64, _join([_stacked(x) for x in (s, bad, s)]), Params(), 1e-3,
                      kappas=(0.4, 0.2, 0.1))
        assert batch.value.member == 1
        assert str(batch.value) == str(alone.value)

    def test_vacuum_names_member_and_min_density(self, grid64):
        # linear pressure keeps the rates finite at negative density; the
        # limit leads the set, so the failing member is number 2
        p = Params(pressure=PressureLaw(gamma=1.0))
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        z = VectorField.zeros(grid64)
        good, bad = (ScalarField(grid64, 1.0 + a * np.sin(x)) for a in (0.1, 1.5))
        stacks = [_stacked(LimitState(good, z))] + [_stacked(FullState(n, z, z, z, z)) for n in (good, bad)]
        with pytest.raises(VacuumError, match=r"^vacuum state at t=0\.001: min n = -0\.49") as exc:
            step_once(grid64, _join(stacks), p, 1e-3, kappas=(0.4, 0.2))
        assert exc.value.member == 2

    def test_limit_predictor_stage_vacuum_names_member(self, grid64):
        # positive on entry, negative in the SSP-RK2 predictor stage; linear
        # pressure keeps the first-stage rate finite.  The limit is member 0
        # of the set it leads.
        p = Params(kappa=0.2, pressure=PressureLaw(gamma=1.0))
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        zero = np.zeros(grid64.shape)
        z = VectorField.zeros(grid64)
        good = FullState(ScalarField(grid64, 1.0 + 0.1 * np.sin(x)), z, z, z, z)
        bad = LimitState(ScalarField(grid64, 1.0 + 0.5 * np.sin(x)),
                         VectorField(grid64, np.stack([10.0 * np.sin(x), zero, zero])))
        with pytest.raises(VacuumError) as alone:
            step_once(grid64, _stacked(bad), p, 0.2)
        assert str(alone.value).startswith("vacuum state in the SSP-RK2 predictor stage at t=0.2: min n = -")
        with pytest.raises(VacuumError) as batch:
            step_once(grid64, _join([_stacked(bad), _stacked(good)]), p, 0.2)
        assert batch.value.member == 0
        assert str(batch.value) == str(alone.value)
        assert alone.value.time == batch.value.time == 0.2

    @pytest.mark.parametrize("kappas, means", [((0.4, 0.2), (1.0,)), ((0.4,), (1.0, 1.0))])
    def test_kappas_and_means_must_pair(self, grid64, kappas, means):
        # one kappa and one mean density per member with a current
        with pytest.raises(ValueError):
            build_stiff_operator(grid64, Params(), 1e-3, kappas, means)


class TestStepLimit:
    # the limit system stepped alone, as its 4-row stack
    def test_equilibrium(self, grid64):
        p = Params(kappa=0.2)
        s = LimitState(ScalarField(grid64, np.ones(grid64.shape)),
                       VectorField.zeros(grid64))
        out = _state_view(grid64, step_once(grid64, _stacked(s), p, 0.1))
        assert np.abs(out.n.values - 1.0).max() < 1e-14
        assert sup_norm(out.u) < 1e-14

    def test_manufactured_order(self, grid64):
        mms = ManufacturedLimit(grid64, Params(kappa=0.5))
        errors = [mms.error_after(dt, t_end=3.2e-2) for dt in (4e-3, 2e-3, 1e-3)]
        p_obs = observed_order(errors)
        assert 1.8 <= p_obs <= 2.2

    def test_acoustic_dispersion(self):
        # linearizing about (1, 0) gives d_tt n = (eta P'(1)/tau) lap n, so a
        # k = 1 standing wave oscillates at omega = sqrt(eta P'(1)/tau);
        # track the k = 1 coefficient and locate the spectral peak
        grid = Grid(1, 16)
        p = Params(kappa=0.5, mu=1e-14, lam=0.0)
        x = grid.coordinate(0) * np.ones(grid.shape)
        state = LimitState(
            ScalarField(grid, 1.0 + 1e-4 * np.sin(x)), VectorField.zeros(grid)
        )
        dt, t_end = 2e-3, 40.0
        n_steps = round(t_end / dt)
        op = build_stiff_operator(grid, p, dt, limit_mean=1.0)
        series = np.empty(n_steps)
        x = _stacked(state)
        for i in range(n_steps):
            # unrecorded steps: the density is the only row brought to the grid
            x = step_full(x, op, t=i * dt, record=False)
            series[i] = x.n[0, 4, 0, 0] - 1.0  # n at x = pi/2: sin mode peak
        window = np.hanning(n_steps)
        spec = np.abs(np.fft.rfft(series * window))
        freqs = np.fft.rfftfreq(n_steps, d=dt) * 2 * math.pi
        peak = spec[1:-1].argmax() + 1
        # parabolic interpolation of the log magnitude around the peak
        la, lb, lc = np.log(spec[peak - 1 : peak + 2])
        shift = 0.5 * (la - lc) / (la - 2 * lb + lc)
        omega = freqs[peak] + shift * (freqs[1] - freqs[0])
        law = p.pressure
        omega_ref = math.sqrt(
            law.dpressure(1.0) * p.eta * (1.0 + p.epsilon) ** 2 / p.tau
        ) / (1.0 + p.epsilon)
        assert abs(omega - omega_ref) / omega_ref < 0.02

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_vacuum_detection(self, grid64):
        p = Params(kappa=0.2, tau=1e14, mu=1e-14)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        # steep compression at large dt drives the density negative
        state = LimitState(
            ScalarField(grid64, 1.0 + 0.5 * np.sin(x)),
            VectorField(grid64, np.stack([
                5.0 * np.sin(x), np.zeros(grid64.shape), np.zeros(grid64.shape)])),
        )
        x = _stacked(state)
        with pytest.raises((VacuumError, BlowUpError)):
            for i in range(200):
                x = step_once(grid64, x, p, 0.05, t=i * 0.05)


class TestEvolve:
    def test_t_end_zero_returns_initial(self, grid64):
        p = Params(kappa=0.2)
        s = _uniform(grid64)
        final, log = evolve(s, p, StepControl(dt=1e-3, t_end=0.0))
        assert final is s
        assert log.n_steps == 0
        assert log.status == "completed"

    def test_determinism_bit_identical(self, grid64):
        p = Params(kappa=0.1)
        limit = make_limit_data(grid64, seed=9, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(limit, seed=9, c0=1.0, kappa=p.kappa)
        sc = StepControl(dt=5e-4, t_end=0.01)
        outs = []
        for _ in range(2):
            state = make_well_prepared(spec)
            final, _ = evolve(state, p, sc)
            outs.append(final)
        assert np.array_equal(outs[0].n.values, outs[1].n.values)
        assert np.array_equal(outs[0].u.values, outs[1].u.values)
        assert np.array_equal(outs[0].E.values, outs[1].E.values)

    def test_observer_stride_and_times(self, grid64):
        p = Params(kappa=0.2)
        s = _uniform(grid64)
        seen = []
        evolve(s, p, StepControl(dt=1e-3, t_end=1e-2),
               observer=lambda i, t, st: seen.append((i, t)), stride=5)
        assert [i for i, _ in seen] == [0, 5, 10]

    def test_observer_states_keep_their_values(self, grid64):
        # each step returns a new stack, so the states an observer kept from
        # earlier steps are not overwritten by later steps
        p = Params(kappa=0.2)
        limit = make_limit_data(grid64, seed=9, amplitude=0.1)
        full = make_well_prepared(WellPreparedSpec.from_seed(limit, seed=9, c0=1.0, kappa=p.kappa))
        for state in (full, limit):
            kept = []
            evolve(state, p, StepControl(dt=5e-4, t_end=5e-3),
                   observer=lambda i, t, st: kept.append((st, _stacked(st))))
            assert len(kept) == 11
            assert len({copy.tobytes() for _, copy in kept}) == 11
            for st, copy in kept:
                assert _stacked(st).tobytes() == copy.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_returns_the_last_state_on_the_grid(self, grid64):
        # steep compression hits vacuum in step 5: the march ends after 4
        # steps, and the state returned is the last one a step brought to
        # the grid, the initial one without an observer, the one observed at
        # step 4 with an observer every 2 steps
        p = Params(kappa=0.2, tau=1e14, mu=1e-14)
        x = grid64.coordinate(0) * np.ones(grid64.shape)
        zero = np.zeros(grid64.shape)
        state = LimitState(ScalarField(grid64, 1.0 + 0.5 * np.sin(x)),
                           VectorField(grid64, np.stack([5.0 * np.sin(x), zero, zero])))
        sc = StepControl(dt=0.05, t_end=10.0)
        final, log = evolve(state, p, sc)
        assert (log.status, log.n_steps) == ("vacuum", 4) and final is state
        seen = []
        final, log = evolve(state, p, sc, observer=lambda i, t, st: seen.append((i, st)), stride=2)
        assert (log.status, log.n_steps) == ("vacuum", 4) and [i for i, _ in seen] == [0, 2, 4]
        assert _stacked(final).tobytes() == _stacked(seen[-1][1]).tobytes()

    def test_dt_mismatch_rejected(self, grid64):
        p = Params(kappa=0.2)
        with pytest.raises(ConfigError, match="integer multiple"):
            evolve(_uniform(grid64), p, StepControl(dt=3e-4, t_end=1e-3))

    def test_richardson_self_convergence(self, grid64):
        # evolve with dt and dt/2: final states differ at O(dt^2)
        p = Params(kappa=0.2)
        limit = make_limit_data(grid64, seed=4, amplitude=0.1)
        spec = WellPreparedSpec.from_seed(limit, seed=4, c0=1.0, kappa=p.kappa)
        finals = []
        for dt in (2e-3, 1e-3, 5e-4):
            state = make_well_prepared(spec)
            final, log = evolve(state, p, StepControl(dt=dt, t_end=0.02))
            assert log.status == "completed"
            finals.append(final)
        def gap(a, b):
            return sum(sup_norm(VectorField(grid64, f.values - g.values))
                       for f, g in ((a.u, b.u), (a.E, b.E)))

        d1, d2 = gap(finals[0], finals[1]), gap(finals[1], finals[2])
        assert 2.5 < d1 / d2 < 6.0


class TestThreeAxisSmoke:
    def test_full_step_on_3d_grid(self):
        # all three axes active at desk scale: one step must preserve the
        # constraints and the equilibrium structure
        grid = Grid(3, 8)
        p = Params(kappa=0.3)
        limit = make_limit_data(grid, seed=2, amplitude=0.05, max_wavenumber=2)
        spec = WellPreparedSpec.from_seed(limit, seed=2, c0=0.5, kappa=p.kappa,
                                          max_wavenumber=2)
        state = make_well_prepared(spec)
        sc = StepControl(dt=1e-3, t_end=2e-3)
        final, log = evolve(state, p, sc)
        assert log.status == "completed"
        tol = 1e-10 * (1.0 + sup_norm(final.E) + sup_norm(final.B))
        assert np.abs(array_divergence(grid, final.E.values)).max() <= tol
        assert np.abs(array_divergence(grid, final.B.values)).max() <= tol
