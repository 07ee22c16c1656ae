import json
import warnings

import numpy as np
import pytest

from splitflow import (ConfigurationError, ContinuousCocycle, KappaFn,
                       NonHyperbolicError, StratonovichSpec, TimeGrid,
                       WindowError, autonomous_certificate,
                       build_wave_system, injected_path,
                       inverse_transform, ou_series, pointwise,
                       random_ode_problem, sample_wiener_path,
                       spectral_projection, verify_dichotomy)
from splitflow.cli import main
from splitflow.cocycle import integrate_nonlinear
from splitflow.sde_bridge import WAVE_COLUMNS
from conftest import (autonomous_wave, conjugated_fields_oracle,
                      gap_rise_oracle, wave_collocation, wave_ladder)

H = 1.0 / 32
PATH_GRID = TimeGrid(-48.0, 12.0, H)


def scalar_spec(eta, kappa=None, f=None, fp=None, b=-1.0):
    return StratonovichSpec(
        b_matrix=[[b]],
        f=f if f else (lambda y: 0.0 * y),
        f_prime=fp if fp else (lambda y: np.zeros((len(y), 1, 1))),
        eta=eta, kappa=kappa or KappaFn.inverse_quadratic(1.0),
    )


def transformed(spec, path):
    """The random-ODE problem of ``spec`` along ``path`` and its noise
    dressing: with ``scale, gap = dressing.at(eta, ts)``, the field is
    ``b_matrix v + f_eta(eta, t, v)``, whose linear noise term is ``gap v``,
    and the change of variables is ``y = scale v``."""
    d = spec.b_matrix.shape[0]
    problem = random_ode_problem(spec, path, np.zeros(d), r_u=1.0)
    return problem, problem.dressing


class TestTransform:
    def test_eta_zero_is_identity_on_fields(self, rng):
        path = sample_wiener_path(PATH_GRID, 2)
        f = lambda y: y - y ** 3
        spec = scalar_spec(0.0, f=f, fp=lambda y: (1 - 3 * y**2)[:, :, None])
        problem, dressing = transformed(spec, path)
        ts = np.array([-2.0, 0.0, 3.0])
        y = rng.standard_normal((3, 1))
        assert np.allclose(problem.f_eta(0.0, ts, y), f(y), atol=1e-14)
        assert np.allclose(dressing.at(0.0, ts)[1], 0.0, atol=1e-15)

    def test_linear_field_matches_dressing(self):
        # f = 0: the transformed generator is B + eta (kappa - kappadot) z* I
        path = sample_wiener_path(PATH_GRID, 3)
        kap = KappaFn.inverse_quadratic(1.0)
        spec = scalar_spec(0.3, kappa=kap)
        problem, _ = transformed(spec, path)
        win = TimeGrid(-4.0, 6.0, H)
        z = ou_series(path, win)
        ts = win.times()
        coeff = (np.asarray(kap.kappa(ts)) - np.asarray(kap.kappa_dot(ts))) * z
        got = problem.f_eta_dy(0.3, ts[::37], np.ones((len(ts[::37]), 1)))
        assert np.max(np.abs(got[:, 0, 0] - 0.3 * coeff[::37])) < 1e-10

    def test_round_trip_identity(self, rng):
        path = sample_wiener_path(PATH_GRID, 4)
        spec = scalar_spec(0.25)
        _, dressing = transformed(spec, path)
        ts = np.linspace(-3.0, 5.0, 41)
        v = rng.standard_normal((41, 1))
        y = inverse_transform(ts, v, spec, path)
        # invert pointwise: v = y / scale
        back = np.stack([y[i] / dressing.at(0.25, t)[0][0]
                         for i, t in enumerate(ts)])
        assert np.max(np.abs(back - v)) < 1e-14

    def test_scalar_noise_on_two_components(self):
        # one Wiener path drives both components: one scale for the map,
        # one gap on the diagonal of the linear noise term
        path = sample_wiener_path(PATH_GRID, 5)
        kap = KappaFn.inverse_quadratic(1.0)
        spec = StratonovichSpec(
            b_matrix=np.diag([-1.0, -2.0]),
            f=lambda y: 0.0 * y, f_prime=lambda y: np.zeros((len(y), 2, 2)),
            eta=0.4, kappa=kap,
        )
        problem, dressing = transformed(spec, path)
        t = 1.5
        z = ou_series(path, np.array([t]))[0]
        c = kap.kappa(t) * z
        scale, gap = dressing.at(0.4, t)
        assert scale.shape == gap.shape == (1,)
        assert np.allclose(scale[0], np.exp(0.4 * c), atol=1e-10)
        jac = problem.f_eta_dy(0.4, np.array([t]), np.zeros((1, 2)))[0]
        assert np.array_equal(jac, gap[0] * np.eye(2))
        y = inverse_transform([t], np.array([[2.0, 3.0]]), spec, path)[0]
        assert np.allclose(y, np.exp(0.4 * c) * np.array([2.0, 3.0]),
                           atol=1e-9)

    def test_eta_range_validation(self):
        for eta in (-0.1, 1.5, np.nan):
            with pytest.raises(ConfigurationError, match="eta must lie in"):
                scalar_spec(eta)
        for eta in (0.0, 1.0):
            assert scalar_spec(eta).eta == eta

    def test_smooth_path_integrating_factor_round_trip(self):
        # on a smooth injected path the Stratonovich calculus is classical:
        # y(t) = y(0) exp(a t + eta int kappa domega) must match the
        # transformed-ODE route composed with the inverse map
        grid = TimeGrid(-40.0, 8.0, 1.0 / 64)
        path = injected_path(grid, np.sin)
        kap = KappaFn.inverse_quadratic(1.0)
        a, eta = -0.7, 0.3
        spec = scalar_spec(eta, kappa=kap, b=a)
        problem, dressing = transformed(spec, path)

        def v_field(t, v):
            return spec.b_matrix @ v + problem.f_eta(eta, np.array([t]),
                                                     v[None])[0]

        t_end = 4.0
        v0 = np.array([1.0]) / dressing.at(eta, 0.0)[0][0]
        v_end = integrate_nonlinear(v_field, 0.0, t_end, v0, step=1.0 / 128)
        y_end = inverse_transform([t_end], v_end[None, :], spec, path)[0, 0]
        ts = np.arange(0.0, t_end + 1e-12, 1.0 / 64)
        omega_dot = np.cos(ts)
        stoch = np.trapezoid(np.asarray(kap.kappa(ts)) * omega_dot, dx=1.0 / 64)
        want = np.exp(a * t_end + eta * stoch)
        assert abs(y_end - want) < 5e-5

    def test_b_eta_sup_equals_eta_m2(self):
        path = sample_wiener_path(PATH_GRID, 6)
        kap = KappaFn.inverse_quadratic(1.0)
        eta = 0.2
        spec = scalar_spec(eta, kappa=kap)
        _, dressing = transformed(spec, path)
        win = TimeGrid(-4.0, 6.0, H)
        _, m2 = dressing.bounds(win)
        sup_b = float(np.max(np.abs(dressing.at(eta, win.times())[1])))
        assert abs(sup_b - eta * m2) < 1e-12


def at_point(dressing, eta, t):
    """``(exp(eta kappa_t z*), eta (kappa_t - kappadot_t) z*)`` at one time
    ``t``, as two scalars."""
    scale, gap = dressing.at(eta, t)
    return scale[0], gap[0]


class TestBatchedFields:
    """Batched field calls against one-point evaluations of the same
    formulas, built here from the problem's parts."""

    @staticmethod
    def check_against_points(f, jac, ts, ys, f_point, jac_point):
        assert f.shape == ys.shape and jac.shape == ys.shape + ys.shape[1:]
        for t, y, fi, ji in zip(ts, ys, f, jac):
            assert np.max(np.abs(fi - f_point(t, y))) <= 1e-14 * (
                1 + np.max(np.abs(fi)))
            assert np.max(np.abs(ji - jac_point(t, y))) <= 1e-14 * (
                1 + np.max(np.abs(ji)))

    def test_random_ode_problem(self, rng):
        path = sample_wiener_path(PATH_GRID, 9)
        kap = KappaFn.inverse_quadratic(0.5)
        strat = StratonovichSpec(
            b_matrix=[[1.0]], f=lambda y: -y ** 3,
            f_prime=lambda y: (-3.0 * y ** 2)[:, :, None], eta=1.0,
            kappa=kap)
        p = random_ode_problem(strat, path, [1.0], r_u=0.3)
        dressing, eta = p.dressing, 0.4
        ts = rng.uniform(-4.0, 9.0, 50)
        ys = 1.0 + 0.3 * rng.standard_normal((50, 1))

        def f_point(t, y):
            s, gap = at_point(dressing, eta, t)
            return -(s * y) ** 3 / s + gap * y

        def jac_point(t, y):
            s, gap = at_point(dressing, eta, t)
            return np.atleast_2d(-3.0 * s * s * y ** 2 + gap)

        self.check_against_points(p.f_eta(eta, ts, ys), p.f_eta_dy(eta, ts, ys),
                                  ts, ys, f_point, jac_point)

    def test_build_wave_system(self, rng):
        f_s, fp_s = (lambda u: u - u ** 3), (lambda u: 1.0 - 3.0 * u ** 2)
        b_matrix, f0, f0_prime = build_wave_system(3, 1.0, f_s, fp_s)
        _, phi, proj = wave_collocation(b_matrix)

        def f0_point(y):
            out = np.zeros(6)
            out[3:] = proj @ f_s(phi @ y[:3])
            return out

        def f0p_point(y):
            jac = np.zeros((6, 6))
            jac[3:, :3] = proj @ (fp_s(phi @ y[:3])[:, None] * phi)
            return jac

        ts = rng.uniform(-5.0, 5.0, 20)
        ys = 0.2 * rng.standard_normal((20, 6))
        self.check_against_points(f0(ys), f0_prime(ys), ts, ys,
                                  lambda t, y: f0_point(y),
                                  lambda t, y: f0p_point(y))
        # and the transformed wave field on one noise path
        path = sample_wiener_path(PATH_GRID, 10)
        strat = StratonovichSpec(b_matrix=b_matrix, f=f0, f_prime=f0_prime,
                                 eta=1.0, kappa=KappaFn.inverse_quadratic(1.0))
        q = random_ode_problem(strat, path, np.zeros(6), 0.5)
        dressing, eta = q.dressing, 0.05

        def f_point(t, y):
            s, gap = at_point(dressing, eta, t)
            return f0_point(s * y) / s + gap * y

        def jac_point(t, y):
            s, gap = at_point(dressing, eta, t)
            return f0p_point(s * y) + gap * np.eye(6)

        self.check_against_points(q.f_eta(eta, ts, ys), q.f_eta_dy(eta, ts, ys),
                                  ts, ys, f_point, jac_point)

    def test_pointwise_adapter(self):
        field = pointwise(lambda eta, t, y: eta * np.cos(t) * y)
        ts, ys = np.array([0.0, 1.0, 2.0]), np.arange(6.0).reshape(3, 2)
        want = 0.5 * np.cos(ts)[:, None] * ys
        assert np.array_equal(field(0.5, ts, ys), want)
        gen = pointwise(lambda t: np.array([[t, 1.0], [0.0, -t]]))
        assert gen(ts).shape == (3, 2, 2)
        assert np.array_equal(gen(ts)[2], [[2.0, 1.0], [0.0, -2.0]])

    def test_dressing_window_check(self):
        path = sample_wiener_path(PATH_GRID, 11)
        p = random_ode_problem(scalar_spec(1.0), path, [0.0], r_u=0.3)
        dressing = p.dressing
        lo, hi = dressing.ts[0], dressing.ts[-1]
        for got, want in zip(dressing.at(0.5, hi),
                             dressing.at(0.5, np.array([hi]))):
            assert np.array_equal(got, want)
        with pytest.raises(WindowError, match=r"time 13.0 outside .*\(1 of 1 "):
            dressing.at(0.5, 13.0)
        with pytest.raises(WindowError, match=r"time 13.0 outside .*\(1 of 1 "):
            dressing.gap_integral(0.5, 0.0, 13.0)  # the same check, each end
        with pytest.raises(WindowError, match=r"time 13.0 outside .*\(1 of 1 "):
            dressing.gap_integral(0.5, 13.0, 0.0)
        ts = np.array([0.0, hi + 1.0, lo - 2.0, hi + 3.0])
        with pytest.raises(WindowError) as exc:
            p.f_eta(0.5, ts, np.zeros((4, 1)))
        msg = str(exc.value)
        assert msg.startswith(f"time {hi + 1.0} outside")
        assert "(3 of 4 times out)" in msg
        assert "[" not in msg.split("outside")[0]  # no array printed

    @pytest.mark.parametrize("tail_tol", [1e-10, 1e-6])
    def test_dressing_starts_where_the_tail_rule_admits(self, tail_tol):
        # the dressing and ou_series share one tail rule: the first dressed
        # node is the first base time ou_series accepts
        path = sample_wiener_path(PATH_GRID, 11)
        p = random_ode_problem(scalar_spec(1.0), path, [0.0], r_u=0.3,
                               tail_tol=tail_tol)
        t0 = p.dressing.ts[0]
        assert t0 > PATH_GRID.t_min
        ou_series(path, [t0], tail_tol)
        with pytest.raises(WindowError, match="left window too short"):
            ou_series(path, [t0 - H], tail_tol)


class TestGapRises:
    """``NoiseDressing.rises``: the forward and backward rises of ``C =
    int gap``, exact for the piecewise-linear gap, against the dense
    trapezoid of ``conftest.gap_rise_oracle``."""

    @pytest.mark.parametrize("seed", [41, 12345, 7])
    def test_rises_match_the_dense_oracle(self, seed):
        # windows with partial segments at both ends, whole ones, and eta
        # of either sign (a negative eta swaps the rises); measured at most
        # 1.5e-13 relative either way, the two sums rounding differently,
        # so the rises are never below the oracle beyond round-off
        path = sample_wiener_path(TimeGrid(-110.0, 62.0, H), seed)
        p = random_ode_problem(scalar_spec(1.0),
                               path, [0.0], r_u=0.3)
        dressing = p.dressing
        for t0, t1 in ((-60.0, 60.0), (-37.3, 41.71), (-3.0, 3.0)):
            for eta in (1.0, 0.3, -0.5):
                got = dressing.rises(eta, t0, t1)
                want = gap_rise_oracle(dressing, eta, t0, t1)
                for g, w in zip(got, want):
                    assert w > 0.0
                    assert abs(g - w) <= 1e-12 * w
            fwd, bwd = dressing.rises(1.0, t0, t1)
            assert dressing.rises(-1.0, t0, t1) == pytest.approx(
                (bwd, fwd), rel=1e-14)

    def test_turns_inside_segments_are_found(self):
        # the gap crosses zero inside a segment, where C turns: sampled at
        # the path's nodes only, the rises would read low
        path = sample_wiener_path(TimeGrid(-110.0, 62.0, H), 41)
        dressing = random_ode_problem(scalar_spec(1.0),
                                      path, [0.0], r_u=0.3).dressing
        t0, t1 = -60.0, 60.0
        ts = dressing.ts[(dressing.ts >= t0) & (dressing.ts <= t1)]
        c = dressing.gap_integral(1.0, t0, ts)
        at_nodes = (np.max(c - np.minimum.accumulate(c)),
                    np.max(c - np.minimum.accumulate(c[::-1])[::-1]))
        got = dressing.rises(1.0, t0, t1)
        assert all(g >= n for g, n in zip(got, at_nodes))
        assert any(g > n * (1.0 + 1e-12) for g, n in zip(got, at_nodes))

    def test_window_check(self):
        path = sample_wiener_path(PATH_GRID, 11)
        dressing = random_ode_problem(scalar_spec(1.0), path, [0.0],
                                      r_u=0.3).dressing
        with pytest.raises(WindowError, match=r"time 13.0 outside"):
            dressing.rises(1.0, 0.0, 13.0)


def folded_case(name):
    """``(strat, y0_star, a_matrix, center)`` of the scalar cubic, a coupled
    d = 2 system whose Jacobian has an off-diagonal entry, and the d = 8
    wave of the wave demo; states are drawn around ``center``."""
    if name == "cubic":
        strat = StratonovichSpec(
            b_matrix=[[1.0]], f=lambda y: -y ** 3,
            f_prime=lambda y: (-3.0 * y ** 2)[:, :, None], eta=1.0,
            kappa=KappaFn.inverse_quadratic(0.5))
        return strat, [1.0], None, 1.0
    if name == "coupled_2d":
        def f(y):
            return np.stack([-y[:, 0] ** 3 + 0.5 * y[:, 0] * y[:, 1],
                             -y[:, 1] ** 3], axis=1)

        def fp(y):
            jac = np.zeros((len(y), 2, 2))
            jac[:, 0, 0] = -3.0 * y[:, 0] ** 2 + 0.5 * y[:, 1]
            jac[:, 0, 1] = 0.5 * y[:, 0]
            jac[:, 1, 1] = -3.0 * y[:, 1] ** 2
            return jac

        strat = StratonovichSpec(
            b_matrix=np.diag([-1.0, -2.0]), f=f, f_prime=fp, eta=1.0,
            kappa=KappaFn.inverse_quadratic(1.0))
        return strat, [0.0, 0.0], None, 0.5
    b_matrix, f0, f0_prime = build_wave_system(
        4, 1.0, lambda u: u - u ** 3, lambda u: 1.0 - 3.0 * u ** 2)
    strat = StratonovichSpec(b_matrix=b_matrix, f=f0, f_prime=f0_prime,
                             eta=1.0, kappa=KappaFn.inverse_quadratic(1.0))
    return strat, np.zeros(8), None, 0.0


class TestFoldedFields:
    """The field and Jacobian of ``random_ode_problem``, folded around one
    dressing read per call, against the two-layer composition of
    :func:`conftest.conjugated_fields_oracle`."""

    @pytest.mark.parametrize("name", ["cubic", "coupled_2d", "wave"])
    def test_equal_to_the_two_layer_composition(self, name, rng):
        strat, y0, a_matrix, center = folded_case(name)
        path = sample_wiener_path(PATH_GRID, 13)
        p = random_ode_problem(strat, path, y0, 0.3, a_matrix=a_matrix)
        f_oracle, jac_oracle = conjugated_fields_oracle(strat,
                                                        p.dressing)
        grid = TimeGrid(-4.0, 6.0, H).times()
        for ts in (grid, grid[:-1] + H / 2):  # grid times, RK4 midpoints
            ys = center + 0.3 * rng.standard_normal((len(ts), len(y0)))
            assert np.all(ys != 0.0)
            for eta in (0.0, 0.05, 0.4):
                assert np.array_equal(p.f_eta(eta, ts, ys),
                                      f_oracle(eta, ts, ys))
                jac = p.f_eta_dy(eta, ts, ys)
                assert np.array_equal(jac, jac_oracle(eta, ts, ys))
                # the conjugated form (J s_j)/s_i + gap I of a per-component
                # scale, here with equal entries, is within 2 ulp of the
                # larger of the entry and its f' part
                s, gap = p.dressing.at(eta, ts)
                sv = np.repeat(s[:, None], len(y0), axis=1)
                fp = strat.f_prime(sv * ys).reshape(jac.shape)
                conj = ((fp * sv[:, None, :]) / sv[:, :, None]
                        + gap[:, None, None] * np.eye(len(y0)))
                ulp = np.spacing(np.maximum(np.abs(jac), np.abs(fp)))
                assert np.all(np.abs(jac - conj) <= 2 * ulp)

    def test_each_field_call_reads_the_dressing_once(self, monkeypatch, rng):
        strat, y0, _, center = folded_case("coupled_2d")
        p = random_ode_problem(strat, sample_wiener_path(PATH_GRID, 13), y0,
                               0.3)
        # every method of the dressing, wrapped on the instance, so that a
        # method calling another one counts twice: one read, whose range
        # check is one call of _inside
        dressing, reads = p.dressing, []
        for name, member in vars(type(dressing)).items():
            if callable(member) and not name.startswith("__"):
                monkeypatch.setattr(
                    dressing, name,
                    lambda *a, _n=name, _m=getattr(dressing, name):
                        reads.append(_n) or _m(*a))
        ts = TimeGrid(-4.0, 6.0, H).times()
        ys = center + 0.3 * rng.standard_normal((len(ts), 2))
        for field in (p.f_eta, p.f_eta_dy):
            reads.clear()
            field(0.4, ts, ys)
            assert reads == ["at", "_inside"]


class TestJacobianGap:
    """``f_eta_dy`` adds the noise gap on the diagonal of the Jacobian
    ``f'(s v)``, in place: bit for bit ``gap I + f'(s v)``."""

    def test_wave_equals_gap_identity_plus_f_prime(self, rng):
        strat, y0, a_matrix, _ = folded_case("wave")
        p = random_ode_problem(strat, sample_wiener_path(PATH_GRID, 13), y0,
                               0.3, a_matrix=a_matrix)
        grid = TimeGrid(-4.0, 6.0, H).times()
        for ts in (grid, grid[:-1] + H / 2):
            ys = 0.3 * rng.standard_normal((len(ts), len(y0)))
            for eta in (0.0, 0.05, 0.4):
                s, gap = p.dressing.at(eta, ts)
                want = (gap[:, None, None] * np.eye(len(y0))
                        + strat.f_prime(s[:, None] * ys))
                got = p.f_eta_dy(eta, ts, ys)
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64))

    def test_read_only_f_prime_is_copied(self):
        m = np.array([[-1.0, 0.5], [0.0, -2.0]])
        strat = StratonovichSpec(
            b_matrix=np.zeros((2, 2)), f=lambda y: y @ m.T,
            f_prime=lambda y: np.broadcast_to(m, (len(y), 2, 2)), eta=1.0,
            kappa=KappaFn.inverse_quadratic(1.0))
        p = random_ode_problem(strat, sample_wiener_path(PATH_GRID, 13),
                               [0.0, 0.0], 0.3)
        ts = np.array([-1.0, 0.0, 2.5])
        gap = p.dressing.at(0.4, ts)[1]
        got = p.f_eta_dy(0.4, ts, np.ones((3, 2)))
        assert np.array_equal(got, m + gap[:, None, None] * np.eye(2))
        assert np.array_equal(m, [[-1.0, 0.5], [0.0, -2.0]])


class TestJacobianIsTheStateDerivative:
    """``f_eta_dy`` against central differences of ``f_eta`` in the state
    ``v``, where the field is smooth; its time dependence, through the
    Wiener path, is what is rough.  The fields of these cases are cubic
    polynomials in ``v``, so the five-point quotient
    ``(f(v - 2h) - 8 f(v - h) + 8 f(v + h) - f(v + 2h)) / (12 h)`` carries no
    truncation error.  What is left is the rounding of the four field
    values, each taken as at most ``8 eps (1 + max |f_eta|)``, which the
    quotient multiplies by ``18 / (12 h)``."""

    STEP = 2.0 ** -12

    @pytest.mark.parametrize("eta", [0.0, 0.05, 0.4])
    @pytest.mark.parametrize("name", ["cubic", "coupled_2d", "wave"])
    def test_five_point_central_differences(self, name, eta, rng):
        strat, y0, a_matrix, center = folded_case(name)
        p = random_ode_problem(strat, sample_wiener_path(PATH_GRID, 13), y0,
                               0.3, a_matrix=a_matrix)
        ts = TimeGrid(-4.0, 6.0, H).times()[::4]
        d, h = len(y0), self.STEP
        ys = center + 0.3 * rng.standard_normal((len(ts), d))
        jac = p.f_eta_dy(eta, ts, ys)
        for j, e in enumerate(h * np.eye(d)):
            f_m2, f_m1, f_p1, f_p2 = (p.f_eta(eta, ts, ys + k * e)
                                      for k in (-2, -1, 1, 2))
            quot = (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)
            f_max = max(np.max(np.abs(f)) for f in (f_m2, f_m1, f_p1, f_p2))
            tol = 18.0 / (12.0 * h) * 8.0 * np.finfo(float).eps * (1.0 + f_max)
            assert np.max(np.abs(quot - jac[:, :, j])) <= tol


class TestWaveSystem:
    def test_single_mode_matrix_and_eigenvalues(self):
        # A in sine coefficients (a, adot) is diag(c, 1)^-1 A diag(c, 1), c
        # the coupling block B[0, 1] that scales the first coordinate
        f_s, fp_s = (lambda u: u - u ** 3), (lambda u: 1.0 - 3.0 * u ** 2)
        p = autonomous_wave(1, 1.0, f_s, fp_s)
        scale = np.diag([build_wave_system(1, 1.0, f_s, fp_s)[0][0, 1], 1.0])
        want = np.array([[0.0, 1.0], [1.0 - np.pi ** 2, -1.0]])
        assert np.allclose(np.linalg.solve(scale, p.a_matrix @ scale), want,
                           atol=1e-12)
        eigs = np.linalg.eigvals(p.a_matrix)
        assert np.allclose(sorted(eigs.real), [-0.5, -0.5], atol=1e-12)
        assert np.allclose(sorted(abs(eigs.imag)),
                           [np.sqrt(np.pi ** 2 - 1.25)] * 2, atol=1e-12)
        pi_u, _ = spectral_projection(p.a_matrix)
        assert np.allclose(pi_u, 0.0, atol=1e-12)

    def test_linear_wave_certificates_up_to_eight_modes(self):
        for n in (1, 2, 4, 8):
            p = autonomous_wave(n, 1.0, lambda u: 0.0 * u, lambda u: 0.0 * u)
            cert = autonomous_certificate(p.a_matrix)
            cc = ContinuousCocycle.constant(p.a_matrix)
            rep = verify_dichotomy(cc, cert, (-2, 2), slack=1.05)
            assert rep.passed, f"N={n}"

    @pytest.mark.parametrize("n", [1, 4])
    def test_block_products_equal_row_products(self, n, rng):
        # f0 and f0' write their products into the zero result's block, and
        # f0' forms f'(u) phi over whole (n + 2, n) blocks: the same bits as
        # the row-broadcast products assigned into a zero result
        f_s, fp_s = (lambda u: u - u * u * u), (lambda u: 1.0 - 3.0 * u ** 2)
        b_matrix, f0, f0_prime = build_wave_system(n, 1.0, f_s, fp_s)
        _, phi, proj = wave_collocation(b_matrix)
        ys = 0.3 * rng.standard_normal((540, 2 * n))
        u = ys[:, :n] @ phi.T
        f_want = np.zeros((540, 2 * n))
        f_want[:, n:] = f_s(u) @ proj.T
        jac_want = np.zeros((540, 2 * n, 2 * n))
        jac_want[:, n:, :n] = proj @ (fp_s(u)[:, :, None] * phi)
        for got, want in ((f0(ys), f_want), (f0_prime(ys), jac_want)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_eigenvalue_ratio(self):
        # the two coupling blocks multiply to the Dirichlet eigenvalues,
        # whatever scaling of the first coordinate they carry
        b_matrix, _, _ = build_wave_system(4, 1.0, lambda u: u - u ** 3,
                                           lambda u: 1.0 - 3.0 * u ** 2)
        lam = wave_collocation(b_matrix)[0]
        assert np.allclose(-b_matrix[4:, :4] @ b_matrix[:4, 4:], np.diag(lam),
                           rtol=1e-15, atol=0.0)
        assert lam[1] / lam[0] == 4.0

    def test_hyperbolic_for_all_small_n(self):
        # each modal block has trace -beta and det lambda_k - f'(0) > 0
        for n in range(1, 9):
            p = autonomous_wave(n, 1.0, lambda u: u - u ** 3,
                               lambda u: 1.0 - 3.0 * u ** 2)
            pi_u, gap = spectral_projection(p.a_matrix)
            assert np.allclose(pi_u, 0.0, atol=1e-10)
            assert gap > 0.4

    def test_unstable_mode_variant(self):
        # f'(0) above the first eigenvalue flips one modal pair to a saddle
        a = 12.0
        p = autonomous_wave(2, 1.0, lambda u: a * u - u ** 3,
                           lambda u: a - 3.0 * u ** 2)
        pi_u, _ = spectral_projection(p.a_matrix)
        assert abs(np.trace(pi_u) - 1.0) < 1e-9

    def test_nonlinearity_reprojection_is_gram_exact(self):
        # linear f must pass through collocation + reprojection unchanged:
        # the state (a, 0) holds the coefficients c^-1 a, c the diagonal of
        # the coupling block B[:n, n:]
        b_matrix, f0, _ = build_wave_system(3, 1.0, lambda u: 2.5 * u,
                                            lambda u: 2.5 + 0 * u)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(3)
        y = np.concatenate([a, np.zeros(3)])
        out = f0(y[None])[0]
        assert np.allclose(out[3:], 2.5 * a / np.diag(b_matrix[:3, 3:]),
                           atol=1e-12)
        assert np.allclose(out[:3], 0.0)

    def test_equilibrium_validates(self):
        p = autonomous_wave(4, 1.0, lambda u: u - u ** 3,
                           lambda u: 1.0 - 3.0 * u ** 2)
        assert p.validate() < 1e-10

    def test_non_hyperbolic_rejected(self):
        with pytest.raises(NonHyperbolicError):
            build_wave_system(2, 1.0,
                              lambda u: np.pi ** 2 * u,
                              lambda u: np.pi ** 2 + 0.0 * u)
        with pytest.raises(ConfigurationError):
            build_wave_system(0, 1.0, lambda u: u, lambda u: 1.0 + 0 * u)


class TestWaveDemo:
    def test_zero_eta_row_and_certification(self):
        w = TimeGrid(-60.0, 60.0, H)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p, (row,) = wave_ladder(2, [0.0], 31, w)
        assert row["eta"] == 0.0
        assert row["sup_dist_v"] == 0.0 and row["sup_dist_y"] == 0.0
        assert row["certified"]
        # eta = 0 collapses to the autonomous constants
        assert abs(row["alpha_tilde"] - p.autonomous_cert.exponent) < 1e-9

    def test_transformed_field_at_zero_eta_reproduces_autonomous(self):
        # integrate the transformed field at eta = 0 from a nonzero state and
        # compare with the frozen autonomous integration
        b_matrix, f0, f0_prime = build_wave_system(
            2, 1.0, lambda u: u - u ** 3, lambda u: 1.0 - 3.0 * u ** 2)
        path = sample_wiener_path(PATH_GRID, 7)
        strat = StratonovichSpec(
            b_matrix=b_matrix, f=f0, f_prime=f0_prime,
            eta=0.0, kappa=KappaFn.inverse_quadratic(1.0),
        )
        problem, _ = transformed(strat, path)
        y0 = 0.1 * np.ones(4)
        fa = lambda t, y: b_matrix @ y + f0(y[None])[0]
        ft = lambda t, y: (strat.b_matrix @ y
                           + problem.f_eta(0.0, np.array([t]), y[None])[0])
        ya = integrate_nonlinear(fa, 0.0, 3.0, y0, step=1.0 / 64)
        yt = integrate_nonlinear(ft, 0.0, 3.0, y0, step=1.0 / 64)
        assert np.max(np.abs(ya - yt)) < 1e-12

    def test_failures_recorded_not_raised(self):
        w = TimeGrid(-60.0, 60.0, H)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, rows = wave_ladder(2, [0.9, 0.0], 31, w)
        assert rows[0]["error"] is not None
        assert rows[1]["certified"]

    def test_bad_argument_raises(self):
        # a ValueError names a bad argument: it is not an eta's error row
        w = TimeGrid(-60.0, 60.0, H)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            wave_ladder(2, [0.0], 31, w, trunc_tol=0.0)

    def test_report_serialization(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("n_modes = 2\nt_min = -60\nt_max = 60\n"
                       f"h = {H!r}\neta_grid = 0.0\n")
        out = tmp_path / "out"
        assert main(["wave", "--config", str(cfg), "--out", str(out),
                     "--seed", "31"]) == 0
        text = (out / "wave.csv").read_text()
        assert text.splitlines()[0] == ",".join(WAVE_COLUMNS)
        # cells are true/false, empty (None) or numbers that float() parses
        for line in text.splitlines()[1:]:
            for c in line.split(","):
                if c not in ("true", "false", ""):
                    float(c)
        parsed = json.loads((out / "wave.json").read_text())
        assert parsed["rows"][0]["certified"] is True


def test_mode_doubling_distance_sanity():
    # multiplicative noise fixes the zero equilibrium exactly, so the
    # distances agree across truncation levels (both are identically zero)
    w = TimeGrid(-60.0, 60.0, H)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        d2 = wave_ladder(2, [], 31, w)[1][0]["sup_dist_v"]
        d4 = wave_ladder(4, [], 31, w)[1][0]["sup_dist_v"]
    assert d2 is not None and d4 is not None
    assert abs(d4 - d2) <= 0.2 * max(d2, 1e-12)
