import json
import warnings

import numpy as np
import pytest

from splitflow import (ConfigurationError, ContinuousCocycle, KappaFn,
                       NonHyperbolicError, StratonovichSpec, TimeGrid,
                       WaveDemoReport, WindowError, autonomous_certificate,
                       build_wave_system, default_kappa, injected_path,
                       inverse_transform, noise_bounds, ou_series, pointwise,
                       random_ode_problem, run_wave_demo, sample_wiener_path,
                       spectral_projection, verify_dichotomy)
from splitflow.cli import main
from splitflow.cocycle import integrate_nonlinear
from conftest import conjugated_fields_oracle

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
    dressing: with ``scale, gap = dressing.at(eta, pattern, ts)``, the field
    is ``b_matrix v + f_eta(eta, t, v)``, whose linear noise term is
    ``gap pattern v``, and the change of variables is ``y = scale v``."""
    d = spec.b_matrix.shape[0]
    problem = random_ode_problem(spec, path, np.zeros(d), r_u=1.0)
    return problem, problem.meta["dressing"]


class TestTransform:
    def test_eta_zero_is_identity_on_fields(self, rng):
        path = sample_wiener_path(PATH_GRID, 2)
        f = lambda y: y - y ** 3
        spec = scalar_spec(0.0, f=f, fp=lambda y: (1 - 3 * y**2)[:, :, None])
        problem, dressing = transformed(spec, path)
        ts = np.array([-2.0, 0.0, 3.0])
        y = rng.standard_normal((3, 1))
        assert np.allclose(problem.f_eta(0.0, ts, y), f(y), atol=1e-14)
        assert np.allclose(dressing.at(0.0, spec.pattern, ts)[1], 0.0,
                           atol=1e-15)

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
        back = np.stack([y[i] / dressing.at(0.25, spec.pattern, t)[0][0]
                         for i, t in enumerate(ts)])
        assert np.max(np.abs(back - v)) < 1e-14

    def test_structured_pattern_blocks(self):
        path = sample_wiener_path(PATH_GRID, 5)
        kap = KappaFn.inverse_quadratic(1.0)
        spec = StratonovichSpec(
            b_matrix=np.diag([-1.0, -2.0]),
            f=lambda y: 0.0 * y, f_prime=lambda y: np.zeros((len(y), 2, 2)),
            eta=0.4, kappa=kap, pattern=np.array([1.0, 0.0]),
        )
        problem, dressing = transformed(spec, path)
        t = 1.5
        z = ou_series(path, np.array([t]))[0]
        c = kap.kappa(t) * z
        want = np.array([np.exp(0.4 * c), 1.0])
        scale, gap = dressing.at(0.4, spec.pattern, t)
        assert np.allclose(scale[0], want, atol=1e-10)
        # the linear noise term acts on the noisy block only
        jac = problem.f_eta_dy(0.4, np.array([t]), np.zeros((1, 2)))[0]
        assert np.allclose(jac, np.diag([gap[0], 0.0]), atol=1e-15)
        y = inverse_transform([t], np.array([[2.0, 3.0]]), spec, path)[0]
        assert np.allclose(y, [2.0 * np.exp(0.4 * c), 3.0], atol=1e-9)

    def test_pattern_validation(self):
        with pytest.raises(ConfigurationError):
            StratonovichSpec(b_matrix=[[-1.0]], f=lambda y: y,
                             f_prime=lambda y: np.eye(1), eta=0.5,
                             kappa=KappaFn.inverse_quadratic(),
                             pattern=np.array([0.3]))
        with pytest.raises(ConfigurationError):
            scalar_spec(1.5)

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
        v0 = np.array([1.0]) / dressing.at(eta, spec.pattern, 0.0)[0][0]
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
        nb = noise_bounds(path, kap, win, eta=eta)
        sup_b = float(np.max(np.abs(
            dressing.at(eta, spec.pattern, win.times())[1])))
        assert abs(sup_b - nb.b_sup) < 1e-12


def at_point(dressing, eta, t):
    """``(exp(eta kappa_t z*), eta (kappa_t - kappadot_t) z*)`` at one time
    ``t``, as two scalars."""
    scale, gap = dressing.at(eta, np.ones(1), t)
    return scale[0, 0], gap[0]


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
        dressing, eta = p.meta["dressing"], 0.4
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
        p = build_wave_system(3, 1.0, f_s, fp_s)
        phi, proj = p.meta["phi"], p.meta["proj"]

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
        self.check_against_points(p.f_eta(0.3, ts, ys), p.f0_prime(ys), ts, ys,
                                  lambda t, y: f0_point(y),
                                  lambda t, y: f0p_point(y))
        # and the transformed wave field on one noise path
        path = sample_wiener_path(PATH_GRID, 10)
        strat = StratonovichSpec(b_matrix=p.meta["b_matrix"], f=p.f0,
                                 f_prime=p.f0_prime, eta=1.0,
                                 kappa=default_kappa(), pattern=np.ones(6))
        q = random_ode_problem(strat, path, p.y0_star, p.r_u,
                               a_matrix=p.a_matrix)
        dressing, eta = q.meta["dressing"], 0.05

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
        dressing = p.meta["dressing"]
        lo, hi = dressing.ts[0], dressing.ts[-1]
        one = np.ones(1)
        for got, want in zip(dressing.at(0.5, one, hi),
                             dressing.at(0.5, one, np.array([hi]))):
            assert np.array_equal(got, want)
        with pytest.raises(WindowError, match=r"time 13.0 outside .*\(1 of 1 "):
            dressing.at(0.5, one, 13.0)
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
        t0 = p.meta["dressing"].ts[0]
        assert t0 > PATH_GRID.t_min
        ou_series(path, [t0], tail_tol)
        with pytest.raises(WindowError, match="left window too short"):
            ou_series(path, [t0 - H], tail_tol)


def folded_case(name):
    """``(strat, y0_star, a_matrix, center)`` of the scalar cubic, a d = 2
    system with the noise on its first component only, and the d = 8 wave
    of the wave demo; states are drawn around ``center``."""
    if name == "cubic":
        strat = StratonovichSpec(
            b_matrix=[[1.0]], f=lambda y: -y ** 3,
            f_prime=lambda y: (-3.0 * y ** 2)[:, :, None], eta=1.0,
            kappa=KappaFn.inverse_quadratic(0.5))
        return strat, [1.0], None, 1.0
    if name == "pattern_1_0":
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
            kappa=KappaFn.inverse_quadratic(1.0), pattern=np.array([1.0, 0.0]))
        return strat, [0.0, 0.0], None, 0.5
    p = build_wave_system(4, 1.0, lambda u: u - u ** 3,
                          lambda u: 1.0 - 3.0 * u ** 2)
    strat = StratonovichSpec(b_matrix=p.meta["b_matrix"], f=p.f0,
                             f_prime=p.f0_prime, eta=1.0,
                             kappa=default_kappa(), pattern=np.ones(8))
    return strat, p.y0_star, p.a_matrix, 0.0


class TestFoldedFields:
    """The field and Jacobian of ``random_ode_problem``, folded around one
    dressing read per call, against the two-layer composition of
    :func:`conftest.conjugated_fields_oracle`."""

    @pytest.mark.parametrize("name", ["cubic", "pattern_1_0", "wave"])
    def test_equal_to_the_two_layer_composition(self, name, rng):
        strat, y0, a_matrix, center = folded_case(name)
        path = sample_wiener_path(PATH_GRID, 13)
        p = random_ode_problem(strat, path, y0, 0.3, a_matrix=a_matrix)
        f_oracle, jac_oracle = conjugated_fields_oracle(strat,
                                                        p.meta["dressing"])
        grid = TimeGrid(-4.0, 6.0, H).times()
        for ts in (grid, grid[:-1] + H / 2):  # grid times, RK4 midpoints
            ys = center + 0.3 * rng.standard_normal((len(ts), len(y0)))
            assert np.all(ys != 0.0)
            for eta in (0.0, 0.05, 0.4):
                assert np.array_equal(p.f_eta(eta, ts, ys),
                                      f_oracle(eta, ts, ys))
                assert np.array_equal(p.f_eta_dy(eta, ts, ys),
                                      jac_oracle(eta, ts, ys))

    def test_each_field_call_reads_the_dressing_once(self, monkeypatch, rng):
        strat, y0, _, center = folded_case("pattern_1_0")
        p = random_ode_problem(strat, sample_wiener_path(PATH_GRID, 13), y0,
                               0.3)
        # every method of the dressing, wrapped on the instance, so that a
        # method calling another one counts twice
        dressing, reads = p.meta["dressing"], []
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
            assert reads == ["at"]


class TestWaveSystem:
    def test_single_mode_matrix_and_eigenvalues(self):
        p = build_wave_system(1, 1.0, lambda u: u - u ** 3,
                              lambda u: 1.0 - 3.0 * u ** 2)
        want = np.array([[0.0, 1.0], [1.0 - np.pi ** 2, -1.0]])
        assert np.allclose(p.a_matrix, want, atol=1e-12)
        eigs = np.linalg.eigvals(p.a_matrix)
        assert np.allclose(sorted(eigs.real), [-0.5, -0.5], atol=1e-12)
        assert np.allclose(sorted(abs(eigs.imag)),
                           [np.sqrt(np.pi ** 2 - 1.25)] * 2, atol=1e-12)
        pi_u, _ = spectral_projection(p.a_matrix)
        assert np.allclose(pi_u, 0.0, atol=1e-12)

    def test_linear_wave_certificates_up_to_eight_modes(self):
        for n in (1, 2, 4, 8):
            p = build_wave_system(n, 1.0, lambda u: 0.0 * u, lambda u: 0.0 * u)
            cert = autonomous_certificate(p.a_matrix)
            cc = ContinuousCocycle.constant(p.a_matrix)
            rep = verify_dichotomy(cc, cert, (-2, 2), slack=1.05)
            assert rep.passed, f"N={n}"

    def test_eigenvalue_ratio(self):
        p = build_wave_system(4, 1.0, lambda u: u - u ** 3,
                              lambda u: 1.0 - 3.0 * u ** 2)
        lam = p.meta["lambda_k"]
        assert lam[1] / lam[0] == 4.0

    def test_hyperbolic_for_all_small_n(self):
        # each modal block has trace -beta and det lambda_k - f'(0) > 0
        for n in range(1, 9):
            p = build_wave_system(n, 1.0, lambda u: u - u ** 3,
                                  lambda u: 1.0 - 3.0 * u ** 2)
            pi_u, gap = spectral_projection(p.a_matrix)
            assert np.allclose(pi_u, 0.0, atol=1e-10)
            assert gap > 0.4

    def test_unstable_mode_variant(self):
        # f'(0) above the first eigenvalue flips one modal pair to a saddle
        a = 12.0
        p = build_wave_system(2, 1.0, lambda u: a * u - u ** 3,
                              lambda u: a - 3.0 * u ** 2)
        pi_u, _ = spectral_projection(p.a_matrix)
        assert abs(np.trace(pi_u) - 1.0) < 1e-9

    def test_nonlinearity_reprojection_is_gram_exact(self):
        # linear f must pass through collocation + reprojection unchanged
        p = build_wave_system(3, 1.0, lambda u: 2.5 * u, lambda u: 2.5 + 0 * u)
        rng = np.random.default_rng(0)
        a = rng.standard_normal(3)
        y = np.concatenate([a, np.zeros(3)])
        out = p.f0(y[None])[0]
        assert np.allclose(out[3:], 2.5 * a, atol=1e-12)
        assert np.allclose(out[:3], 0.0)

    def test_equilibrium_validates(self):
        p = build_wave_system(4, 1.0, lambda u: u - u ** 3,
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
            rep = run_wave_demo(2, 1.0, [0.0], 31, w)
        row = rep.rows[0]
        assert row["eta"] == 0.0
        assert row["sup_dist_v"] == 0.0 and row["sup_dist_y"] == 0.0
        assert row["certified"]
        # eta = 0 collapses to the autonomous constants
        assert abs(row["alpha_tilde"] - rep.meta["autonomous_exponent"]) < 1e-9

    def test_transformed_field_at_zero_eta_reproduces_autonomous(self):
        # integrate the transformed field at eta = 0 from a nonzero state and
        # compare with the frozen autonomous integration
        p = build_wave_system(2, 1.0, lambda u: u - u ** 3,
                              lambda u: 1.0 - 3.0 * u ** 2)
        path = sample_wiener_path(PATH_GRID, 7)
        strat = StratonovichSpec(
            b_matrix=p.meta["b_matrix"], f=p.f0, f_prime=p.f0_prime,
            eta=0.0, kappa=KappaFn.inverse_quadratic(1.0),
        )
        problem, _ = transformed(strat, path)
        y0 = 0.1 * np.ones(4)
        fa = lambda t, y: p.meta["b_matrix"] @ y + p.f0(y[None])[0]
        ft = lambda t, y: (strat.b_matrix @ y
                           + problem.f_eta(0.0, np.array([t]), y[None])[0])
        ya = integrate_nonlinear(fa, 0.0, 3.0, y0, step=1.0 / 64)
        yt = integrate_nonlinear(ft, 0.0, 3.0, y0, step=1.0 / 64)
        assert np.max(np.abs(ya - yt)) < 1e-12

    def test_failures_recorded_not_raised(self):
        w = TimeGrid(-60.0, 60.0, H)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = run_wave_demo(2, 1.0, [0.9, 0.0], 31, w)
        assert rep.rows[0]["error"] is not None
        assert rep.rows[1]["certified"]

    def test_bad_argument_raises(self):
        # a ValueError names a bad argument: it is not an eta's error row
        w = TimeGrid(-60.0, 60.0, H)
        with pytest.raises(ValueError, match="tolerance must be positive"):
            run_wave_demo(2, 1.0, [0.0], 31, w, trunc_tol=0.0)

    def test_report_serialization(self, tmp_path):
        cfg = tmp_path / "w.cfg"
        cfg.write_text("n_modes = 2\nt_min = -60\nt_max = 60\n"
                       f"h = {H!r}\neta_grid = 0.0\n")
        out = tmp_path / "out"
        assert main(["wave", "--config", str(cfg), "--out", str(out),
                     "--seed", "31"]) == 0
        text = (out / "wave.csv").read_text()
        assert text.splitlines()[0] == ",".join(WaveDemoReport.COLUMNS)
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
        r2 = run_wave_demo(2, 1.0, None, 31, w)
        r4 = run_wave_demo(4, 1.0, None, 31, w)
    d2 = r2.rows[0]["sup_dist_v"]
    d4 = r4.rows[0]["sup_dist_v"]
    assert d2 is not None and d4 is not None
    assert abs(d4 - d2) <= 0.2 * max(d2, 1e-12)
