import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from splitflow import (ConfigurationError, KappaFn, SamplePath, SplitflowError,
                       NoiseDressing, TimeGrid, WindowError, injected_path,
                       linear_path, ou_series, ou_value, sample_wiener_path,
                       shift_path, sublinearity_report, zero_path)
from splitflow.noise import (_OU_BLOCK, _cumulative_trapezoid, _ou_filter,
                             _z0_weights, default_kappa, ensemble_diagnostics,
                             pathwise_ou_residual)
from conftest import (cumulative_ou_oracle, ensemble_oracle, ou_value_oracle,
                      validate_kappa)

H = 1.0 / 64
GRID = TimeGrid(-32.0, 8.0, H)


def common_values(p, q, cap=None):
    lo = max(p.grid.t_min, q.grid.t_min)
    hi = min(p.grid.t_max, q.grid.t_max)
    ts = np.arange(np.ceil(lo / H), np.floor(hi / H) + 1) * H
    if cap:
        ts = ts[:cap]
    a = np.array([p.value_at(t) for t in ts])
    b = np.array([q.value_at(t) for t in ts])
    return a, b


class TestSampling:
    def test_deterministic_in_grid_and_seed(self):
        p1 = sample_wiener_path(GRID, 77)
        p2 = sample_wiener_path(GRID, 77)
        assert np.array_equal(p1.values, p2.values)
        assert not np.array_equal(p1.values, sample_wiener_path(GRID, 78).values)

    def test_zero_at_origin(self):
        assert sample_wiener_path(GRID, 3).value_at(0.0) == 0.0

    def test_increment_variance(self):
        # ensemble estimate of Var omega(1) = 1
        d = ensemble_diagnostics(4000, h=H, t_min=-4.0, seed=5)
        assert abs(d["w1_var"] - 1.0) < 0.08

    def test_longer_grid_extends_same_stream(self):
        p = sample_wiener_path(GRID, 12)
        q = sample_wiener_path(TimeGrid(-40.0, 16.0, H), 12)
        a, b = common_values(p, q)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, bad):
        vals = GRID.times().copy()
        vals[GRID.index_of(-2.5)] = bad
        with pytest.raises(ConfigurationError,
                           match=r"non-finite path value at t=-2\.5"):
            SamplePath(GRID, vals)
        with pytest.raises(ConfigurationError,
                           match=r"non-finite path value at t=1\.0"):
            injected_path(GRID, lambda t: np.where(t == 1.0, bad, t))

    def test_bad_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            TimeGrid(1.0, 4.0, H)
        with pytest.raises(ConfigurationError):
            TimeGrid(-1.0, 4.0, 0.3)  # 0 not on the grid
        with pytest.raises(ConfigurationError):
            sample_wiener_path(GRID, -1)


class TestGridNodes:
    def test_array_indices_match_scalar_lookups(self):
        ts = np.concatenate([GRID.times(), GRID.times()[::-7] * (1 + 1e-12)])
        want = [GRID.index_of(t) for t in ts]
        got = GRID.index_of(ts)
        assert got.dtype.kind == "i"
        assert got.tolist() == want

    def test_first_off_grid_time_named(self):
        ts = np.array([0.0, 0.25, 0.3, 0.1, 1.0])
        with pytest.raises(ConfigurationError, match=r"^time 0\.3 is not"):
            GRID.index_of(ts)
        with pytest.raises(ConfigurationError, match=r"^time 0\.3 is not"):
            GRID.index_of(0.3)
        with pytest.raises(ConfigurationError, match="not a multiple"):
            GRID.index_of(np.array([0.0, np.nan]))

    def test_first_time_outside_named(self):
        ts = np.array([0.0, 8.0, 9.0, -40.0])
        with pytest.raises(ConfigurationError, match=r"^time 9\.0 outside"):
            GRID.index_of(ts)
        with pytest.raises(ConfigurationError, match=r"outside grid"):
            ou_series(sample_wiener_path(GRID, 4), ts[:3])


class TestShift:
    def test_identity_shift(self):
        p = sample_wiener_path(GRID, 5)
        assert shift_path(p, 0.0) is p

    def test_group_law_exact(self):
        p = sample_wiener_path(GRID, 5)
        q1 = shift_path(shift_path(p, 2.5), 1.25)
        q2 = shift_path(p, 3.75)
        a, b = common_values(q1, q2)
        assert np.array_equal(a, b)

    def test_shift_formula(self):
        p = sample_wiener_path(GRID, 5)
        q = shift_path(p, 2.0)
        for s in (-3.0, -H, 0.0, 1.0, 4.5):
            assert q.value_at(s) == p.value_at(2.0 + s) - p.value_at(2.0)

    def test_linear_path_shift_invariant(self):
        p = linear_path(GRID)
        q = shift_path(p, 3.0)
        a, b = common_values(q, linear_path(q.grid))
        assert np.allclose(a, b, atol=1e-12)

    def test_window_error_and_extension(self):
        p = sample_wiener_path(GRID, 5)
        with pytest.raises(WindowError, match=r"shift by 20\.0 leaves the "
                           rf"stored window \[{GRID.t_min}, {GRID.t_max}\]"):
            shift_path(p, 20.0)
        # a wider grid of the same seed extends the window: it holds the
        # stored values, and its shift reaches the requested base point
        wide = sample_wiener_path(TimeGrid(-32.0, 32.0, H), 5)
        q = shift_path(wide, 20.0)
        assert q.grid.t_min == GRID.t_min - 20.0
        for s in (-45.0, -20.0 - H, -13.0):
            assert wide.value_at(20.0 + s) == p.value_at(20.0 + s)
            assert q.value_at(s) == p.value_at(20.0 + s) - wide.value_at(20.0)


class TestStationaryFilter:
    def test_zero_path(self):
        assert ou_value(zero_path(GRID), 0.0) == 0.0

    def test_linear_path_value(self):
        p = linear_path(GRID)
        for t in (0.0, 1.0, 5.5):
            assert abs(ou_value(p, t) - 1.0) < 1e-4

    def test_series_matches_pointwise(self):
        p = sample_wiener_path(GRID, 21)
        win = TimeGrid(-1.0, 6.0, H)
        zs = ou_series(p, win)
        for t in win.times()[::16]:
            want = ou_value_oracle(p, t)
            assert abs(zs[win.index_of(t)] - want) < 1e-12
            assert abs(ou_value(p, t) - want) < 1e-12

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_single_block_bit_identical_to_one_cumulative_pass(self, seed):
        p = sample_wiener_path(GRID, seed)
        for ts in (TimeGrid(-1.0, 6.0, H).times(), GRID.times()[-1:2200:-37],
                   np.array([5.0]), np.arange(-64, 513) / 64):
            assert np.array_equal(ou_series(p, ts), cumulative_ou_oracle(p, ts))

    def test_shift_then_integrate_equals_direct(self):
        p = sample_wiener_path(GRID, 22)
        t = 3.0
        q = shift_path(p, t)
        assert abs(ou_value(q, 0.0) - ou_value(p, t)) < 1e-12

    @pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan])
    def test_non_positive_tail_tolerance_rejected(self, tol):
        p = sample_wiener_path(GRID, 1)
        with pytest.raises(ConfigurationError, match="tail_tol must be positive"):
            ou_series(p, [1.0], tol)

    def test_tail_window_error_reports_extension(self):
        p = sample_wiener_path(TimeGrid(-4.0, 4.0, H), 1)
        with pytest.raises(WindowError, match=r"need t_min <= -\d+\.\d+, "
                           r"have -4\.0"):
            ou_value(p, 0.0)

    def test_tail_window_error_names_a_window_that_works(self):
        # the fixed point of the tail bound at the stored path's max|omega|,
        # not the bound at the stored t_min (which read -24.76 here)
        p = sample_wiener_path(TimeGrid(-4, 4, H), 1)
        with pytest.raises(WindowError) as exc:
            ou_value(p, 0.0)
        need = float(re.search(r"need t_min <= (-[\d.]+),", str(exc.value))[1])
        assert need <= -26.35
        assert "can only raise the bound" in str(exc.value)
        wide = sample_wiener_path(TimeGrid(math.floor(need), 4, H), 1)
        assert math.isfinite(ou_value(wide, 0.0))

    def test_long_window_matches_per_node_oracle(self):
        # 2,000 units: a single pass weighted by e^{t - t0} overflows past
        # about 700 units; four blocks stay finite
        p = sample_wiener_path(TimeGrid(-40.0, 2000.0, 1.0 / 16), 3)
        ts = np.arange(0, 32001) / 16
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = ou_series(p, ts)
        assert np.all(np.isfinite(z))
        for i in [*range(0, len(ts), 251), *range(8190, 8195), len(ts) - 1]:
            assert abs(z[i] - ou_value_oracle(p, ts[i])) < 1e-12

    def test_block_boundary_matches_oracles(self):
        # a window of 648 units crosses the first block boundary, where the
        # one-pass weights are still finite
        p = sample_wiener_path(TimeGrid(-40.0, 660.0, 1.0 / 16), 5)
        ts = np.arange(-128, 10241) / 16
        z, old = ou_series(p, ts), cumulative_ou_oracle(p, ts)
        first = ts < ts[0] + _OU_BLOCK
        assert not first.all()
        assert np.array_equal(z[first], old[first])
        assert np.max(np.abs(z - old)) < 1e-12
        for i in [*range(0, len(ts), 97), *range(8190, 8196)]:
            assert abs(z[i] - ou_value_oracle(p, ts[i])) < 1e-12

    def test_overflowing_path_fails_closed(self):
        # a finite path whose weighted values overflow inside one block
        grid = TimeGrid(-400.0, 520.0, 1.0 / 4)
        p = injected_path(grid, lambda t: 1e100 * np.sin(t))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SplitflowError, match=r"non-finite z\* at t="):
                ou_series(p, np.arange(0, 2081) / 4)

    def test_cumulative_trapezoid_bit_equal_to_scipy(self):
        from scipy.integrate import cumulative_trapezoid

        p = sample_wiener_path(GRID, 23)
        for y in (np.exp(GRID.times() - GRID.t_min),
                  np.exp(GRID.times()) * p.values):
            assert np.array_equal(_cumulative_trapezoid(y, H),
                                  cumulative_trapezoid(y, dx=H, initial=0))
        # a block of rows: each row as on its own
        block = np.exp(GRID.times()) * np.stack(
            [sample_wiener_path(GRID, s).values for s in range(5)])
        assert np.array_equal(_cumulative_trapezoid(block, H),
                              cumulative_trapezoid(block, dx=H, initial=0))

    def test_ensemble_variance(self):
        d = ensemble_diagnostics(4000, h=H, t_min=-30.0, seed=9)
        assert abs(d["z_var"] - 0.5) < 0.04

    @pytest.mark.parametrize("n_paths", [7, 500, 1234])
    def test_ensemble_blocks_keep_one_matrix_draws(self, n_paths):
        d = ensemble_diagnostics(n_paths, h=1.0 / 32, t_min=-20.0, seed=4)
        w1_var, z_var = ensemble_oracle(n_paths, 1.0 / 32, -20.0, 4)
        assert d["w1_var"] == w1_var
        assert abs(d["z_var"] - z_var) <= 1e-13 * z_var

    def test_z0_weights_are_the_filter(self):
        # z*(0) of a block of backward paths as xi @ c against _ou_filter
        # over the built paths: the same trapezoid sum of 1,920 terms,
        # rounded in another order (2.3e-15 measured on |z*| <= 2.0)
        h, n_bwd = 1.0 / 64, 1920
        xi = np.random.default_rng(3).standard_normal((128, n_bwd))
        omega = np.zeros((128, n_bwd + 1))
        np.cumsum(xi, axis=1, out=omega[:, -2::-1])
        omega *= np.sqrt(h)
        z = _ou_filter(omega, np.arange(-n_bwd, 1) * h, 0.0, h)[:, 0]
        assert np.max(np.abs(xi @ _z0_weights(n_bwd, h) - z)) <= 1e-13

    def test_ensemble_memory_bounded(self):
        tracemalloc.start()
        try:
            ensemble_diagnostics(10000, h=1.0 / 64, t_min=-30.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6

    def test_pathwise_ode_identity_smooth(self):
        p = injected_path(GRID, np.sin)
        win = TimeGrid(-2.0, 6.0, H)
        res = pathwise_ou_residual(p, win)
        assert np.max(np.abs(res)) < 2.0 * H * H  # O(h^2) with slack
        # linear path: the residual is pure quadrature bias, ~h^2/12 * const
        res_lin = pathwise_ou_residual(linear_path(GRID), win)
        assert np.max(np.abs(res_lin)) < H * H / 8


def dressed_bounds(path, kappa, window):
    """``(m1, m2)`` of ``window`` read from the noise dressing of ``path``."""
    return NoiseDressing(path, kappa).bounds(window)


class TestNoiseBounds:
    def test_zero_path(self):
        m1, m2 = dressed_bounds(zero_path(GRID), default_kappa(),
                              TimeGrid(-2.0, 6.0, H))
        assert m1 == 0.0 and m2 == 0.0

    def test_linear_path_closed_form(self):
        win = TimeGrid(-2.0, 6.0, H)
        m1, m2 = dressed_bounds(linear_path(GRID), default_kappa(), win)
        ts = win.times()
        kap = 1.0 / (1.0 + ts**2)
        kdot = -2.0 * ts / (1.0 + ts**2) ** 2
        # z* = 1 on this path, so the maxima are those of the kappa factors
        assert abs(m1 - np.max(np.abs(kap))) < 1e-4
        assert abs(m2 - np.max(np.abs(kap - kdot))) < 1e-4

    def test_shifted_window_sup_is_window_sup(self):
        # sup over subwindow shifts never exceeds the full-window maximum
        p = sample_wiener_path(GRID, 15)
        kap = default_kappa()
        full = dressed_bounds(p, kap, TimeGrid(-4.0, 6.0, H))
        subs = [dressed_bounds(p, kap, TimeGrid(-4.0 + s, 2.0 + s, H))
                for s in (0.0, 1.0, 2.0, 3.0)]
        assert max(m2 for _, m2 in subs) <= full[1] + 1e-12

    def test_bounds_are_the_maxima_of_the_stored_nodes(self):
        # the window's nodes are the path's: bit for bit the max of the
        # stored |kappa z*| and |(kappa - kappadot) z*| on them
        dressing = NoiseDressing(sample_wiener_path(GRID, 15), default_kappa())
        win = TimeGrid(-4.0, 6.0, H)
        on = (dressing.ts >= -4.0) & (dressing.ts <= 6.0)
        assert np.count_nonzero(on) == win.n_nodes
        assert dressing.bounds(win) == (float(np.max(np.abs(dressing.kz[on]))),
                                        float(np.max(np.abs(dressing.ckz[on]))))

    def test_window_left_of_the_dressing_raises(self):
        # the dressing starts where the filter's tail rule admits, right of
        # the path's first node; a window starting before it has no z*
        dressing = NoiseDressing(sample_wiener_path(GRID, 15), default_kappa())
        lo = dressing.ts[0]
        assert lo > GRID.t_min
        with pytest.raises(WindowError, match=r"outside the dressed window"):
            dressing.bounds(TimeGrid(GRID.t_min, 1.0, H))
        dressing.bounds(TimeGrid(lo, 1.0, H))

    def test_refinement_monotone_smooth(self):
        # on a smooth injected path, halving h can only add candidate nodes
        kap = default_kappa()
        win_c = TimeGrid(-2.0, 6.0, 1.0 / 16)
        win_f = TimeGrid(-2.0, 6.0, 1.0 / 32)
        pc = injected_path(TimeGrid(-32.0, 8.0, 1.0 / 16), np.sin)
        pf = injected_path(TimeGrid(-32.0, 8.0, 1.0 / 32), np.sin)
        c = dressed_bounds(pc, kap, win_c)
        f = dressed_bounds(pf, kap, win_f)
        modulus = 2.0 * (1.0 / 16)  # crude slope bound of the products
        assert all(fm >= cm - modulus for fm, cm in zip(f, c))


class TestSublinearity:
    def test_zero_path(self):
        assert sublinearity_report(zero_path(GRID), [1.0, 4.0]) == [0.0, 0.0]

    def test_linear_path_decreasing(self):
        p = linear_path(TimeGrid(-40.0, 12.0, H))
        vals = sublinearity_report(p, [2.0, 4.0, 8.0])
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert abs(vals[0] - 1.0 / 2.0) < 1e-3

    def test_wiener_median_trend(self):
        grid = TimeGrid(-30.0, 102.0, 1.0 / 8)
        early, late = [], []
        for seed in range(1000):
            p = sample_wiener_path(grid, 5000 + seed)
            v = sublinearity_report(p, [10.0, 100.0])
            early.append(v[0])
            late.append(v[1])
        assert np.median(late) < np.median(early)

    def test_one_pass_matches_per_node_oracle(self):
        p = sample_wiener_path(TimeGrid(-30.0, 102.0, 1.0 / 16), 5)
        cps = [10.0, 25.0, 50.0, 100.0]
        for got, t in zip(sublinearity_report(p, cps), cps):
            assert abs(got - abs(ou_value_oracle(p, t)) / t) < 1e-14

    def test_zero_checkpoint_rejected(self):
        with pytest.raises(ConfigurationError):
            sublinearity_report(zero_path(GRID), [0.0])


class TestKappa:
    def test_default_valid(self):
        assert validate_kappa(default_kappa(), TimeGrid(-8.0, 8.0, H)) < 1e-3

    def test_positivity_enforced(self):
        bad = KappaFn(lambda t: np.cos(t), lambda t: -np.sin(t))
        with pytest.raises(ConfigurationError):
            validate_kappa(bad, TimeGrid(-8.0, 8.0, H))

    def test_wrong_derivative_caught(self):
        bad = KappaFn(lambda t: 1.0 / (1.0 + t * t),
                      lambda t: np.ones_like(np.asarray(t, float)))
        with pytest.raises(ConfigurationError):
            validate_kappa(bad, TimeGrid(-8.0, 8.0, H))

