from dataclasses import replace

import numpy as np
import pytest

from splitflow import (ContinuousCocycle, ContractionMarginError, KappaFn,
                       SemilinearProblem, SplitflowError, StratonovichSpec,
                       ThresholdError,
                       TimeGrid, build_wave_system, certify_hyperbolic,
                       default_kappa, eta_epsilon, eta_row,
                       find_hyperbolic_solution, lambda_eta, linearize_along,
                       pointwise, random_ode_problem, rho_modulus,
                       sample_wiener_path)
from splitflow import hyperbolic, robustness
from splitflow.cocycle import integrate_nonlinear
from splitflow.hyperbolic import (SUP_OVER_LAMBDA, _AutonomousGreen,
                                  _ball_cloud, _cloud_draw, _fast_len)
from conftest import (ball_cloud_oracle, bump_problem, lambda_eta_loop,
                      rho_modulus_oracle, spectral_norm)

W64 = TimeGrid(-70.0, 70.0, 1.0 / 64)


def additive_problem(f_eta=lambda eta, t, y: np.array([eta * np.cos(t)])):
    return SemilinearProblem(
        a_matrix=[[-1.0]],
        f_eta=pointwise(f_eta),
        f0=pointwise(lambda y: np.zeros(1)),
        y0_star=[0.0], r_u=1.0,
        f0_prime=pointwise(lambda y: np.zeros((1, 1))),
        f_eta_dy=pointwise(lambda eta, t, y: np.zeros((1, 1))),
    )


def at_time(p, eta):
    """The perturbed field of ``p`` as a one-point ``field(t, y)``."""
    return lambda t, y: p.f_eta_at(eta, np.array([t]), y[None])[0]


_CUBIC_CACHE = {}


def cubic_problem(seed=8, amplitude=0.002):
    # shared instance: the threshold bisections are cached on problem.meta
    key = (seed, amplitude)
    if key not in _CUBIC_CACHE:
        grid = TimeGrid(-112.0, 72.0, 1.0 / 64)
        path = sample_wiener_path(grid, seed)
        kap = KappaFn.inverse_quadratic(amplitude)
        strat = StratonovichSpec(
            b_matrix=[[1.0]], f=lambda y: -y ** 3,
            f_prime=lambda y: (-3.0 * y ** 2)[:, :, None],
            eta=1.0, kappa=kap,
        )
        _CUBIC_CACHE[key] = random_ode_problem(strat, path, [1.0], r_u=0.3)
    return _CUBIC_CACHE[key]


def wave_problem(seed=7):
    """The transformed problem of the wave demo at its defaults (four
    modes, the default kappa) on the window [-60, 60], h = 1/32."""
    base = build_wave_system(4, 1.0, lambda u: u - u ** 3,
                             lambda u: 1.0 - 3.0 * u ** 2)
    path = sample_wiener_path(TimeGrid(-105.0, 61.0, 1.0 / 32), seed)
    strat = StratonovichSpec(
        b_matrix=base.meta["b_matrix"], f=base.f0, f_prime=base.f0_prime,
        eta=1.0, kappa=default_kappa(), pattern=np.ones(8))
    return random_ode_problem(strat, path, base.y0_star, base.r_u,
                              a_matrix=base.a_matrix, tail_tol=1e-7)


class TestLambdaEta:
    def test_zero_eta_vanishes(self):
        p = additive_problem()
        assert lambda_eta(p, 0.0, TimeGrid(-4.0, 4.0, 0.25)) == 0.0

    def test_additive_model_closed_form(self):
        # lambda = eta * sup |cos| over the window (derivative term vanishes)
        p = additive_problem()
        lam = lambda_eta(p, 0.05, TimeGrid(-4.0, 4.0, 0.25))
        assert abs(lam - 0.05) < 1e-8

    def test_monotone_in_eta(self):
        p = cubic_problem()
        win = TimeGrid(-20.0, 20.0, 1.0 / 16)
        vals = [lambda_eta(p, e, win) for e in (0.05, 0.1, 0.2, 0.4)]
        assert all(x < y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("case", [
        (cubic_problem, TimeGrid(-20.0, 20.0, 1.0 / 16), (65, 32),
         (0.0, 0.025, 0.1, 0.4)),
        (wave_problem, TimeGrid(-60.0, 60.0, 1.0 / 32), (33, 12),
         (0.0, 2e-6, 1.5e-5, 1e-3)),
    ], ids=["cubic", "wave"])
    def test_batched_grid_equals_per_point_loop(self, case):
        make, win, (n_time, n_cloud), etas = case
        p = make()
        for eta in etas:
            assert lambda_eta(p, eta, win, n_time, n_cloud) == \
                lambda_eta_loop(p, eta, win, n_time, n_cloud)

    def test_one_field_call_and_one_jacobian_call(self):
        calls = []

        def counted(name, fn):
            def call(*args):
                calls.append(name)
                return fn(*args)
            return call

        base = cubic_problem()
        p = replace(base, f_eta=counted("f_eta", base.f_eta),
                    f_eta_dy=counted("f_eta_dy", base.f_eta_dy))
        win = TimeGrid(-20.0, 20.0, 1.0 / 16)
        assert lambda_eta(p, 0.1, win) == lambda_eta_loop(base, 0.1, win)
        assert calls == ["f_eta", "f_eta_dy"]


class TestBallCloud:
    @pytest.mark.parametrize("seed", [20201102, 555])
    def test_matches_fresh_draw(self, seed):
        for center in ([0.0], [0.3], [1.0, -2.0], np.linspace(-1.0, 1.0, 8)):
            for radius in (0.0, 0.05, 1.0, 3.5):
                for n in (1, 3, 24, 32):
                    for _ in range(2):  # the second call reads the memo
                        assert np.array_equal(
                            _ball_cloud(center, radius, n, seed),
                            ball_cloud_oracle(center, radius, n, seed))

    def test_callers_cannot_mutate_the_memo(self):
        cloud = _ball_cloud([1.0, 2.0], 0.5, 12)
        cloud[:] = np.nan
        assert np.array_equal(_ball_cloud([1.0, 2.0], 0.5, 12),
                              ball_cloud_oracle([1.0, 2.0], 0.5, 12))
        for drawn in _cloud_draw(12, 2, 20201102):
            with pytest.raises(ValueError):
                drawn[0] = 0.0


class TestRhoModulus:
    def test_linear_field_zero(self):
        p = additive_problem()  # f0 = 0 is linear
        assert rho_modulus(p, 0.2) == 0.0

    def test_scalar_cubic_bound(self):
        p = SemilinearProblem(
            a_matrix=[[-1.0]],
            f_eta=lambda eta, t, y: y ** 3,
            f0=lambda y: y ** 3,
            y0_star=[0.0], r_u=1.0,
            f0_prime=lambda y: (3.0 * y ** 2)[:, :, None],
            f_eta_dy=lambda eta, t, y: (3.0 * y ** 2)[:, :, None],
        )
        for eps in (0.1, 0.25, 0.5):
            rho = rho_modulus(p, eps)
            assert rho <= 3 * eps + eps ** 2 + 1e-9
            assert rho > 0.5 * eps  # attained near the boundary

    def test_vanishes_with_eps(self):
        p = cubic_problem()
        vals = [rho_modulus(p, e) for e in (0.12, 0.06, 0.03, 0.015)]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        assert vals[-1] < 0.25 * vals[0] * 2.2

    def test_requires_half_radius(self):
        with pytest.raises(ValueError):
            rho_modulus(additive_problem(), 0.6)

    @pytest.mark.parametrize("make", [  # d = 1, 2 and 8
        cubic_problem, lambda: build_wave_system(
            1, 1.0, lambda u: u - u ** 3, lambda u: 1.0 - 3.0 * u ** 2),
        wave_problem])
    def test_matches_fresh_draw(self, make):
        p = make()
        for n_cloud, n_dirs in ((32, 8), (5, 3), (1, 1)):
            for eps in (p.r_u / 2, p.r_u / 8, p.r_u / 100):
                for _ in range(2):  # the second call reads the memo
                    assert rho_modulus(p, eps, n_cloud, n_dirs) == \
                        rho_modulus_oracle(p, eps, n_cloud, n_dirs)


class TestEtaEpsilon:
    def test_flat_curve_returns_grid_max(self):
        p = additive_problem()
        ca_bound, beta = 1.0, 0.9
        got = eta_epsilon(p, 0.1, ca_bound, beta, lambda e: 0.0, eta_max=0.7)
        assert got == 0.7

    def test_linear_curve_inversion(self):
        p = additive_problem()
        m_bound, beta = 1.0, 0.9
        c = 2.0
        eps = 0.05
        got = eta_epsilon(p, eps, m_bound, beta, lambda e: c * e)
        want = eps * beta / (6.0 * m_bound * c)
        assert abs(got - want) < want * 0.01

    def test_halving_eps_halves_eta(self):
        p = additive_problem()
        e1 = eta_epsilon(p, 0.08, 1.0, 0.9, lambda e: 3.0 * e)
        e2 = eta_epsilon(p, 0.04, 1.0, 0.9, lambda e: 3.0 * e)
        assert abs(e2 - e1 / 2) < 0.02 * e1

    def test_eps_above_threshold_names_binding(self):
        p = cubic_problem()
        with pytest.raises(ThresholdError) as exc:
            eta_epsilon(p, 0.2, 1.0, 1.8, lambda e: e)
        assert exc.value.which in ("eps1", "eps2")
        assert exc.value.limit < 0.2

    def test_no_admissible_eta_warns_zero(self):
        p = additive_problem()
        with pytest.warns(UserWarning):
            got = eta_epsilon(p, 0.05, 1.0, 0.9, lambda e: 1.0 + e)
        assert got == 0.0


class TestFindSolution:
    def test_zero_eta_is_equilibrium(self):
        p = additive_problem()
        sol = find_hyperbolic_solution(p, 0.0, W64, tol=1e-11)
        assert sol.sup_distance == 0.0
        assert sol.fixed_point_residual == 0.0

    def test_additive_variation_of_constants_oracle(self):
        p = additive_problem()
        eta = 0.03
        sol = find_hyperbolic_solution(p, eta, W64, tol=1e-10, tail_tol=1e-9)
        ts = sol.interior_times()
        all_t = W64.times()
        worst = 0.0
        for t in ts[::101]:
            i = W64.index_of(t)
            s = all_t[: i + 1]
            oracle = eta * np.trapezoid(np.exp(-(t - s)) * np.cos(s), dx=W64.h)
            worst = max(worst, abs(sol.xi_star(t)[0] - oracle))
        assert worst < 1e-6
        assert sol.sup_distance <= eta * 1.0

    def test_cubic_sup_bounded_by_lambda(self):
        p = cubic_problem()
        sols = {}
        for eta in (0.2, 0.1, 0.05):
            sol = find_hyperbolic_solution(p, eta, W64, tol=1e-9)
            c_proof = (SUP_OVER_LAMBDA * sol.autonomous_cert.bound
                       / sol.autonomous_cert.exponent)
            assert sol.sup_distance <= c_proof * sol.lambda_value
            assert sol.sup_distance < sol.eps_used
            sols[eta] = sol.sup_distance
        assert sols[0.1] <= 0.75 * sols[0.2]
        assert sols[0.05] <= 0.75 * sols[0.1]

    def test_two_initial_guesses_converge_together(self):
        p = cubic_problem()
        tol = 1e-10
        s1 = find_hyperbolic_solution(p, 0.1, W64, tol=tol)
        rng = np.random.default_rng(4)
        x0 = 0.005 * rng.standard_normal((W64.n_nodes, 1))
        s2 = find_hyperbolic_solution(p, 0.1, W64, tol=tol, x0=x0)
        assert np.max(np.abs(s1.trajectory - s2.trajectory)) < 2 * tol

    def test_iteration_cap_fails_closed(self):
        # the kernel iteration shares the Picard driver of bounded_solution
        with pytest.raises(SplitflowError, match=r"kernel iteration did not "
                           r"certify residual 1e-12 \(got .* after 1 "):
            find_hyperbolic_solution(cubic_problem(), 0.1, W64, tol=1e-12,
                                     max_iter=1)

    def test_contraction_error_when_eta_large(self):
        p = additive_problem()
        with pytest.raises(ContractionMarginError) as exc:
            find_hyperbolic_solution(p, 0.5, W64)
        assert exc.value.factor is not None

    def test_pullback_oracle(self):
        p = cubic_problem()
        eta = 0.1
        sol = find_hyperbolic_solution(p, eta, W64, tol=1e-10)
        f_eta = at_time(p, eta)
        field = lambda t, y: np.array([y[0]]) + f_eta(t, y)
        y = integrate_nonlinear(field, -40.0, 5.0, np.array([1.0]),
                                step=1.0 / 128)
        assert abs(y[0] - sol.xi_star(5.0)[0]) < 1e-7

    def test_global_solution_property(self):
        p = cubic_problem()
        eta = 0.1
        sol = find_hyperbolic_solution(p, eta, W64, tol=1e-10)
        f_eta = at_time(p, eta)
        field = lambda t, y: np.array([y[0]]) + f_eta(t, y)
        for s, t in ((-5.0, -1.0), (0.0, 4.0), (2.0, 7.0)):
            y = integrate_nonlinear(field, s, t, sol.xi_star(s), step=1.0 / 128)
            assert np.linalg.norm(y - sol.xi_star(t)) < 1e-7


class TestFailClosed:
    def test_nan_at_one_grid_node_raises(self):
        # t = 0.0625 is a grid node but not one of lambda_eta's sample times,
        # so only the kernel iteration sees the NaN
        bad_t = 0.0625
        p = additive_problem(lambda eta, t, y: np.array(
            [np.nan if t == bad_t else eta * np.cos(t)]))
        window = TimeGrid(-40.0, 40.0, 1.0 / 16)
        assert bad_t not in np.linspace(-40.0, 40.0, 65)
        with pytest.raises(SplitflowError, match=f"t={bad_t}"):
            find_hyperbolic_solution(p, 0.01, window, tol=1e-10)

    def test_nan_in_lambda_sample_raises(self):
        p = additive_problem(lambda eta, t, y: np.array(
            [np.nan if t == 0.0 else eta * np.cos(t)]))
        with pytest.raises(SplitflowError, match="t=0.0"):
            lambda_eta(p, 0.01, TimeGrid(-4.0, 4.0, 0.25), n_time=9)

    def test_nan_jacobian_in_lambda_sample_raises(self):
        p = additive_problem()
        p.f_eta_dy = pointwise(lambda eta, t, y: np.array(
            [[np.nan if t == 0.0 else 0.0]]))
        with pytest.raises(SplitflowError, match="Jacobians at t=0.0"):
            lambda_eta(p, 0.01, TimeGrid(-4.0, 4.0, 0.25), n_time=9)

    def test_nan_autonomous_jacobian_in_lip_dev_raises(self):
        p = SemilinearProblem(
            a_matrix=np.diag([-1.0, -2.0]),
            f_eta=lambda eta, ts, ys: np.zeros_like(ys),
            f0=lambda ys: np.zeros_like(ys), y0_star=[0.0, 0.0], r_u=1.0,
            f0_prime=lambda ys: np.full((len(ys), 2, 2), np.nan),
            f_eta_dy=lambda eta, ts, ys: np.zeros((len(ys), 2, 2)))
        with pytest.raises(SplitflowError, match="non-finite"):
            hyperbolic._lip_dev(p, 0.1)

    def test_inf_field_raises(self):
        # an inf field value fails closed before its Jacobians are read
        p = additive_problem(lambda eta, t, y: np.array(
            [np.inf if t == 0.0 else eta * np.cos(t)]))
        with pytest.raises(SplitflowError, match="field values at t=0.0"):
            lambda_eta(p, 0.01, TimeGrid(-4.0, 4.0, 0.25), n_time=9)

    def test_scalar_callback_gets_typed_error(self):
        p = SemilinearProblem(
            a_matrix=[[-1.0]], f_eta=lambda eta, t, y: np.zeros(1),
            f0=lambda y: np.zeros(1), y0_star=[0.0], r_u=1.0,
            f0_prime=lambda y: np.zeros((1, 1)),
            f_eta_dy=lambda eta, t, y: np.zeros((1, 1)))
        with pytest.raises(SplitflowError, match="pointwise"):
            lambda_eta(p, 0.01, TimeGrid(-4.0, 4.0, 0.25))

    @pytest.mark.parametrize("missing", ["f0_prime", "f_eta_dy"])
    def test_jacobians_are_required(self, missing):
        # no difference quotient stands in for a missing Jacobian
        parts = dict(a_matrix=[[-1.0]], f_eta=additive_problem().f_eta,
                     f0=lambda ys: np.zeros_like(ys), y0_star=[0.0], r_u=1.0,
                     f0_prime=lambda ys: np.zeros((len(ys), 1, 1)),
                     f_eta_dy=lambda eta, ts, ys: np.zeros((len(ys), 1, 1)))
        del parts[missing]
        with pytest.raises(TypeError, match=missing):
            SemilinearProblem(**parts)


def saddle_green():
    """Kernel table of a non-normal saddle, 40 offsets each way."""
    a = np.array([[-1.0, 0.3], [0.0, 2.0]])
    pi_s = np.array([[1.0, -0.1], [0.0, 0.0]])  # onto e_1 along (0.1, 1)
    return _AutonomousGreen(a, pi_s, 1.0 / 16, 40)


def test_kernel_spectrum_cached_per_fft_length():
    # the cached table spectrum gives the bytes of a fresh rfft per call
    green = saddle_green()
    u = np.random.default_rng(2).standard_normal((300, 2))
    w = np.ones(300)
    for n in (300, 300, 120):
        n_fft = _fast_len(n + 2 * 40 + 1)
        uf = np.fft.rfft(u[:n] * w[:n, None], n_fft, axis=0)
        yf = np.einsum("fab,fb->fa", np.fft.rfft(green.table, n_fft, axis=0), uf)
        want = green.h * np.fft.irfft(yf, n_fft, axis=0)[40:40 + n]
        assert np.array_equal(green.convolve(u[:n], w[:n]), want)
    assert len(green._spectra) == 2


def test_kernel_convolution_matches_direct_sum():
    # h * sum_j G[i-j] w_j u_j over |i-j| <= n_off, term by term
    green = saddle_green()
    rng = np.random.default_rng(4)
    n = 150
    u = rng.standard_normal((n, 2))
    w = rng.uniform(0.5, 1.0, n)
    want = np.zeros((n, 2))
    for i in range(n):
        for j in range(max(0, i - 40), min(n, i + 41)):
            want[i] += green.table[i - j + 40] @ (w[j] * u[j])
    got = green.convolve(u, w)
    assert np.max(np.abs(got - green.h * want)) < 1e-12


def test_kernel_built_once_per_problem_step_and_offsets(monkeypatch):
    # an eta ladder on one problem shares one kernel table, bit for bit the
    # table a fresh build gives
    builds = []

    def counted(*args):
        builds.append(args)
        return _AutonomousGreen(*args)

    monkeypatch.setattr(hyperbolic, "_AutonomousGreen", counted)
    p = additive_problem()
    sols = [find_hyperbolic_solution(p, eta, W64) for eta in (0.03, 0.015)]
    assert len(builds) == 1
    n_off = sols[0].meta["kernel_offsets"]
    fresh = _AutonomousGreen(p.a_matrix, p.autonomous_cert.proj_s(0), W64.h,
                             n_off)
    assert np.array_equal(p.autonomous_green(W64.h, n_off).table, fresh.table)


def test_fft_length_is_scipys_default():
    from scipy.fft import next_fast_len

    assert [_fast_len(n) for n in range(1, 20001)] == \
        [next_fast_len(n) for n in range(1, 20001)]


class TestXiStar:
    def test_matches_np_interp_per_component(self):
        p = cubic_problem()
        sol = find_hyperbolic_solution(p, 0.1, W64, tol=1e-9)
        traj = np.column_stack([sol.trajectory[:, 0],
                                2.0 * sol.trajectory[:, 0] - 1.0])
        sol.trajectory = traj
        rng = np.random.default_rng(3)
        ts = np.concatenate([rng.uniform(-71.0, 71.0, 400), sol.times[::97],
                             [W64.t_min, W64.t_max, -80.0, 80.0]])
        got = sol.xi_star(ts)
        for j in range(2):
            assert np.array_equal(got[:, j], np.interp(ts, sol.times, traj[:, j]))
        assert np.array_equal(sol.xi_star(ts[0]), got[0])


class TestLinearization:
    def test_zero_eta_recovers_frozen_matrix(self):
        p = additive_problem()
        sol = find_hyperbolic_solution(p, 0.0, W64, tol=1e-11)
        cc = linearize_along(p, sol)
        assert np.allclose(cc.generator(np.array([1.3, 2.0])), p.a_matrix)
        certify_hyperbolic(p, sol, n_half=4)
        assert sol.linearization_certificate.meta["delta_eff"] == 0.0

    def test_cubic_deviation_matches_symbolics(self):
        p = cubic_problem()
        eta = 0.1
        sol = find_hyperbolic_solution(p, eta, W64, tol=1e-10)
        cc = linearize_along(p, sol)
        ts = np.array([-3.0, 0.0, 0.03, 2.0])
        batch = cc.generator(ts)
        d0 = p.d_f0(p.y0_star[None])[0]
        for t, got in zip(ts, batch):
            xi = np.array([np.interp(t, sol.times, sol.trajectory[:, 0])])
            # f_eta_dy of the transformed cubic at one point, by hand
            scale, gap = p.meta["dressing"].at(eta, np.ones(1), t)
            want = (-3.0 * scale[0, 0] ** 2 * xi[0] ** 2 + gap[0]) - d0[0, 0]
            assert abs(got[0, 0] - p.a_matrix[0, 0] - want) < 1e-12
            one = cc.generator(np.array([t]))[0]
            assert np.array_equal(one, got)

    def test_delta_eff_vanishes_along_halving(self):
        # K sup |B| of the linearization's unit steps over the impulse span
        # halves with eta: 1.196e-4, 5.98e-5 and 2.99e-5
        p = cubic_problem()
        deltas = []
        for eta in (0.2, 0.1, 0.05):
            sol = find_hyperbolic_solution(p, eta, W64, tol=1e-9)
            certify_hyperbolic(p, sol)
            deltas.append(sol.linearization_certificate.meta["delta_eff"])
        assert all(0.45 < y / x < 0.55 for x, y in zip(deltas, deltas[1:]))


class TestCertify:
    def test_zero_eta_equals_autonomous(self):
        p = additive_problem()
        sol = find_hyperbolic_solution(p, 0.0, W64, tol=1e-11)
        certify_hyperbolic(p, sol, n_half=4)
        assert sol.status == "certified"
        lc = sol.linearization_certificate
        assert abs(lc.exponent - sol.autonomous_cert.exponent) < 1e-10
        assert spectral_norm(lc.proj_s(0) - sol.autonomous_cert.proj_s(0)) < 1e-9

    def test_multiplicative_cubic_rate_near_gap(self):
        # multiplicative noise at the zero equilibrium of y' = -y + y^3:
        # the bounded solution is exactly 0 and the linearized exponent sits
        # at the frozen gap shaved by the design margin (0.1) and the small
        # delta correction
        grid = TimeGrid(-112.0, 72.0, 1.0 / 64)
        path = sample_wiener_path(grid, 5)
        strat = StratonovichSpec(
            b_matrix=[[-1.0]], f=lambda y: y ** 3,
            f_prime=lambda y: (3.0 * y ** 2)[:, :, None],
            eta=1.0, kappa=KappaFn.inverse_quadratic(0.0075),
        )
        p = random_ode_problem(strat, path, [0.0], r_u=0.3)
        sol = find_hyperbolic_solution(p, 0.05, W64, tol=1e-10)
        assert sol.sup_distance == 0.0  # 0 solves the equation exactly
        certify_hyperbolic(p, sol, n_half=4)
        assert sol.status == "certified"
        beta_true = 1.0  # |f0'(0) + drift| = 1
        a_t = sol.linearization_certificate.exponent
        assert a_t <= 0.9 * beta_true + 1e-12  # design margin
        assert a_t >= 0.9 * beta_true * (1.0 - 0.02)  # small-delta correction

    def test_failed_solution_stays_failed(self):
        p = bump_problem()
        with pytest.warns(UserWarning, match="not below eps"):
            sol = find_hyperbolic_solution(p, 1.0, W64)
        assert sol.lambda_value == 0.0
        assert sol.sup_distance > sol.eps_used
        assert sol.status == "failed"
        certify_hyperbolic(p, sol)
        assert sol.status == "failed"
        assert sol.linearization_certificate is None

    def test_threshold_violation_downgrades_to_bounded(self):
        # a weak-but-true base certificate (tiny exponent) shrinks the
        # admissible perturbation below the measured one; certification must
        # refuse and downgrade instead of forcing a pass
        from splitflow import DichotomyCertificate

        p = cubic_problem()
        sol = find_hyperbolic_solution(p, 0.2, W64, tol=1e-9)
        sol.autonomous_cert = DichotomyCertificate.constant(
            [[1.0]], 2000.0, 0.45, discrete=False)
        certify_hyperbolic(p, sol, n_half=2, trunc_tol=1e-3)
        assert sol.status == "bounded"
        assert sol.linearization_certificate is None
        assert sol.meta["certification"]["threshold"] is not None


    @pytest.mark.parametrize("t_max, half", [(22.0, 1), (20.0, None)])
    def test_window_sizes_the_certified_nodes(self, t_max, half):
        # at eta = 0.1 the impulse span of the nodes [-1, 1] is [-21, 21]:
        # its last unit flow ends at 22, inside [-22, 22] but not [-20, 20]
        p = cubic_problem()
        row, sol = eta_row(p, 0.1, TimeGrid(-t_max, t_max, 1.0 / 64),
                           tol=1e-9, n_half=4)
        if half is None:
            assert row["status"] == "bounded" and row["certified"] is False
            assert sol.linearization_certificate is None
            assert sol.meta["certification"]["error"] == (
                "trajectory window [-20, 20] too short for certification: "
                "the impulse span [-21, 21] of nodes [-1, 1] needs unit "
                "flows on [-21, 22]")
        else:
            assert row["status"] == "certified"
            assert sol.linearization_certificate.meta["window"] == [-1, 1]

    def test_one_verification_per_row(self, monkeypatch):
        calls = []
        real = robustness.verify_dichotomy
        monkeypatch.setattr(robustness, "verify_dichotomy",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        row, sol = eta_row(cubic_problem(), 0.1, W64, tol=1e-9, n_half=4)
        assert row["status"] == "certified"
        assert len(calls) == 1 and isinstance(calls[0][0], ContinuousCocycle)
        meta = sol.linearization_certificate.meta
        assert meta["verification"].passed
        assert "verification_continuous" not in meta


class TestEtaRow:
    def test_certified_cubic_row(self):
        p = cubic_problem()
        row, sol = eta_row(p, 0.1, W64, tol=1e-9, n_half=4)
        assert tuple(row) == hyperbolic.ROW_COLUMNS
        assert row["status"] == "certified" and row["certified"] is True
        assert row["error"] is None
        assert row["eta"] == 0.1
        assert row["sup_distance"] == sol.sup_distance < row["eps_used"]
        assert row["lambda"] == sol.lambda_value
        assert row["residual"] == sol.fixed_point_residual <= 1e-9
        lc = sol.linearization_certificate
        assert row["alpha_tilde"] == lc.exponent
        assert row["M_bound"] == lc.bound

    def test_contraction_error_row(self):
        p = additive_problem()
        with pytest.raises(ContractionMarginError) as exc:
            find_hyperbolic_solution(p, 0.5, W64)
        with pytest.warns(UserWarning, match="eta=0.5: "):
            row, sol = eta_row(p, 0.5, W64)
        assert sol is None
        assert tuple(row) == hyperbolic.ROW_COLUMNS
        assert row["status"] == "error" and row["certified"] is False
        assert row["error"] == str(exc.value)
        assert all(row[k] is None for k in hyperbolic.ROW_COLUMNS
                   if k not in ("eta", "certified", "status", "error"))

    def test_failed_row(self):
        with pytest.warns(UserWarning, match="not below eps"):
            row, sol = eta_row(bump_problem(), 1.0, W64)
        assert tuple(row) == hyperbolic.ROW_COLUMNS
        assert row["status"] == "failed" and row["certified"] is False
        assert row["error"] is None
        assert row["lambda"] == 0.0
        assert row["sup_distance"] > row["eps_used"]
        assert row["alpha_tilde"] is None and row["M_bound"] is None
        assert sol.status == "failed"


def test_additive_halving_response():
    # linear-in-eta response: halving eta at least 0.75-halves the distance
    p = additive_problem()
    s1 = find_hyperbolic_solution(p, 0.03, W64, tol=1e-10)
    s2 = find_hyperbolic_solution(p, 0.015, W64, tol=1e-10)
    assert s2.sup_distance <= 0.75 * s1.sup_distance
