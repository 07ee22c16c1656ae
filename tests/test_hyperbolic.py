import json
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from splitflow import (ConfigurationError, ContinuousCocycle,
                       ContractionMarginError, KappaFn,
                       SemilinearProblem, SplitflowError, StratonovichSpec,
                       ThresholdError, WindowError,
                       TimeGrid, certify_hyperbolic,
                       find_hyperbolic_solution, lambda_eta,
                       linearize_along, neighborhood_thresholds, pointwise,
                       random_ode_problem, rho_modulus, sample_wiener_path,
                       verify_dichotomy)
from splitflow import hyperbolic, robustness, sde_bridge
from splitflow.hyperbolic import eta_epsilon, eta_row
from splitflow.cocycle import UNIT_SAMPLES, integrate_nonlinear
from splitflow.errors import IntegrationError
from splitflow.dichotomy import expm
from splitflow.hyperbolic import (EPS_FRACTION, SMALLNESS_DIVISOR,
                                  SUP_OVER_LAMBDA, _ball_cloud, _cloud_draw,
                                  _kernel_sum, _largest_below, eta_cutoff,
                                  kernel_tail_length)
from conftest import (autonomous_wave, ball_cloud_oracle,
                      bisect_largest_oracle, bump_problem, counted_applies,
                      eta_search_oracle, kernel_sum_oracle, lambda_eta_loop,
                      rho_modulus_oracle, spectral_norm, thresholds_oracle)

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
    # shared instance: the threshold bisections are cached on problem._memo
    key = (seed, amplitude)
    if key not in _CUBIC_CACHE:
        _CUBIC_CACHE[key] = sde_bridge.cubic_problem(
            KappaFn.inverse_quadratic(amplitude), W64, seed, 0.3)
    return _CUBIC_CACHE[key]


def wave_problem():
    """The transformed problem of the wave demo at its defaults (four
    modes, the default kappa) on the window [-60, 60], h = 1/32."""
    return sde_bridge.wave_problem(4, 1.0, 1.0, KappaFn.inverse_quadratic(1.0),
                                   TimeGrid(-60.0, 60.0, 1.0 / 32), 7, 1e-7)


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

    @pytest.mark.parametrize("make, win, sizes", [
        (lambda: sde_bridge.cubic_problem(KappaFn.inverse_quadratic(0.002),
                                          W64, 8, 0.3),
         TimeGrid(-20.0, 20.0, 1.0 / 16), (65, 32)),
        (wave_problem, TimeGrid(-60.0, 60.0, 1.0 / 32), (33, 12)),
    ], ids=["cubic", "wave"])
    def test_samples_shared_across_eta_bit_for_bit(self, make, win, sizes):
        # the grid, the states and f0, f0' at the cloud are sampled once per
        # problem and (window, n_time, n_cloud): lambda at two etas on one
        # problem equals lambda on fresh problems, and f0, f0' run once
        p, calls = make(), []
        f0, f0_prime = p.f0, p.f0_prime
        p.f0 = lambda ys: calls.append("f0") or f0(ys)
        p.f0_prime = lambda ys: calls.append("f0'") or f0_prime(ys)
        for eta in (1e-3, 1.5e-5, 1e-3):
            assert lambda_eta(p, eta, win, *sizes) == lambda_eta(
                make(), eta, win, *sizes)
        assert calls == ["f0", "f0'"]
        ts, ys = p._memo["lambda", win, *sizes][:2]
        assert not ts.flags.writeable and not ys.flags.writeable
        lambda_eta(p, 1e-3, win, sizes[0] + 1, sizes[1])  # another sampling
        assert calls == ["f0", "f0'"] * 2

    def test_wave_samples_travel_with_the_problem(self):
        # the wave's cutoff and every ladder row read lambda on its own
        # 33 x 12 grid, not the 65 x 32 default, and a copy keeps it
        p, win = wave_problem(), TimeGrid(-60.0, 60.0, 1.0 / 32)
        fresh = replace(p)
        assert fresh.lambda_samples == (33, 12)
        meta = eta_cutoff(p, win)
        search = [fresh, meta["eps_pick"], meta["autonomous_bound"],
                  meta["autonomous_exponent"]]
        assert meta["eta_cutoff"] == eta_epsilon(*search, lambda e: lambda_eta(
            fresh, e, win, n_time=33, n_cloud=12))
        assert meta["eta_cutoff"] != eta_epsilon(*search, lambda e: lambda_eta(
            fresh, e, win, n_time=65, n_cloud=32))
        rows = [row for row, _ in hyperbolic.ladder(
            p, win, [], tol=1e-7, tail_tol=1e-7, n_half=3, trunc_tol=1e-7)]
        assert len(rows) == 5
        for row in rows:
            assert row["lambda"] == lambda_eta(fresh, row["eta"], win,
                                               n_time=33, n_cloud=12)

    def test_cubic_reads_the_default_samples(self):
        p = cubic_problem()
        assert p.lambda_samples == (65, 32)
        assert additive_problem().lambda_samples == (65, 32)
        row, _ = eta_row(p, 0.1, W64, tol=1e-9, n_half=4)
        assert row["lambda"] == lambda_eta(replace(p), 0.1, W64, n_time=65,
                                           n_cloud=32)

    def test_lip_dev_reads_the_equilibrium_jacobian_once(self):
        p, rows = wave_problem(), []
        f0_prime = p.f0_prime
        p.f0_prime = lambda ys: rows.append(len(ys)) or f0_prime(ys)
        want = [hyperbolic._lip_dev(wave_problem(), e) for e in (0.1, 0.2)]
        assert [hyperbolic._lip_dev(p, e) for e in (0.1, 0.2)] == want
        assert rows == [1, 24, 24]


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

    @staticmethod
    def nan_past(radius):
        """The scalar -y^3 with f0 NaN where |y| > radius."""
        cube = lambda y: np.where(np.abs(y) > radius, np.nan, -y ** 3)
        return SemilinearProblem(
            a_matrix=[[-1.0]], f_eta=lambda eta, t, y: cube(y), f0=cube,
            y0_star=[0.0], r_u=0.3,
            f0_prime=lambda y: (-3.0 * y ** 2)[:, :, None],
            f_eta_dy=lambda eta, t, y: (-3.0 * y ** 2)[:, :, None])

    def test_non_finite_f0_in_the_ball_fails_closed(self):
        # NaN past |y| = 0.2 inside the ball of radius 0.3: no NaN modulus
        # reaches the contraction factor
        with pytest.raises(SplitflowError, match=r"^remainder modulus nan at "
                           r"eps=0.01: f0 is not finite in the ball"):
            rho_modulus(self.nan_past(0.2), 0.01)

    def test_nan_equilibrium_residual_fails_closed(self):
        # f0 NaN at y0_star itself: the residual is NaN, not an equilibrium
        with pytest.raises(ConfigurationError, match=r"^y0_star is not an "
                           r"equilibrium \(residual nan\)"):
            self.nan_past(-1.0).validate()

    @pytest.mark.parametrize("make", [  # d = 1, 2 and 8
        cubic_problem, lambda: autonomous_wave(
            1, 1.0, lambda u: u - u ** 3, lambda u: 1.0 - 3.0 * u ** 2),
        wave_problem])
    def test_matches_fresh_draw(self, make):
        p = make()
        for eps in (p.r_u / 2, p.r_u / 8, p.r_u / 100):
            for _ in range(2):  # the second call reads the memo
                assert rho_modulus(p, eps) == rho_modulus_oracle(p, eps)


class TestEtaEpsilon:
    def test_flat_curve_returns_one(self):
        # eta = 1 passes: the search reads lambda there only
        p = additive_problem()
        seen = []
        got = eta_epsilon(p, 0.1, 1.0, 0.9, lambda e: seen.append(e) or 0.0)
        assert got == 1.0 and seen == [1.0]

    @pytest.mark.parametrize("edge, reads", [(2.0 ** -16, 19),
                                             (2.0 ** -48, 21)])
    def test_descent_through_the_floors(self, edge, reads):
        # lambda admits exactly the etas under ``edge``: the search passes
        # the floors 2^-16, 2^-32, ... down to the first one under it and
        # searches up to the floor above, which is ``edge``.  A step curve
        # reads 0 where it passes, which no interpolation can use, so each
        # probe is a midpoint: 1, the floors down to the first admitted one,
        # and 16 midpoints, each eta read once, and the bisection's answer
        p = additive_problem()
        seen = []
        got = eta_epsilon(p, 0.05, 1.0, 0.9,
                          lambda e: seen.append(e) or float(e >= edge))
        assert got == edge - edge * 2.0 ** -16 + edge * 2.0 ** -32
        assert len(seen) == len(set(seen)) == reads
        floors = [2.0 ** (-16 * k) for k in range(reads - 16)]
        assert seen[:reads - 16] == floors

    def test_linear_curve_inversion(self):
        p = additive_problem()
        m_bound, beta = 1.0, 0.9
        c = 2.0
        eps = 0.05
        got = eta_epsilon(p, eps, m_bound, beta, lambda e: c * e)
        want = eps * beta / (6.0 * m_bound * c)
        assert abs(got - want) < want * 0.01

    def test_each_eta_is_evaluated_once(self):
        # lambda = 2 eta is a power law, which the log-log interpolation
        # fits exactly: after the check at 1 and the one at 2^-16 the search
        # reads at most four etas, each once, and lands on the bisection's
        # answer
        p = additive_problem()
        seen = []
        got = eta_epsilon(p, 0.05, 1.0, 0.9,
                          lambda e: seen.append(e) or 2.0 * e)
        assert len(seen) == len(set(seen)) <= 6
        assert seen[:2] == [1.0, 2.0 ** -16]
        assert got == eta_search_oracle(lambda e: 2.0 * e, 0.05 * 0.9 / 6.0)

    @pytest.mark.parametrize("beyond", [math.inf, math.nan])
    def test_non_finite_lambda_falls_back_to_midpoints(self, beyond):
        # lambda = 2 eta up to an edge and not finite from there on: a
        # bracket end that is not finite takes the midpoint, with no raw
        # error from math.log, and the answer is the bisection's
        p = additive_problem()
        edge = 0.3

        def curve(e):
            return 2.0 * e if e < edge else beyond

        got = eta_epsilon(p, 0.05, 1.0, 0.9, curve)
        assert got == eta_search_oracle(curve, 0.05 * 0.9 / 6.0)
        assert 0.0 < got < edge

    def test_near_flat_lambda(self):
        # lambda rises by a part in 10^12 over [2^-16, 1]: the fitted power
        # is near 0, and the interpolation still stays in the bracket
        p = additive_problem()
        target = 0.05 * 0.9 / 6.0

        def curve(e):
            return target * (1.0 - 1e-13) * (1.0 + 1e-12 * e)

        got = eta_epsilon(p, 0.05, 1.0, 0.9, curve)
        assert got == eta_search_oracle(curve, target)
        assert 2.0 ** -16 < got < 1.0

    def test_halving_eps_halves_eta(self):
        p = additive_problem()
        e1 = eta_epsilon(p, 0.08, 1.0, 0.9, lambda e: 3.0 * e)
        e2 = eta_epsilon(p, 0.04, 1.0, 0.9, lambda e: 3.0 * e)
        assert abs(e2 - e1 / 2) < 0.02 * e1

    def test_eps_above_threshold_names_binding(self):
        p = cubic_problem()
        with pytest.raises(ThresholdError,
                           match=r"binding: eps[12],") as exc:
            eta_epsilon(p, 0.2, 1.0, 1.8, lambda e: e)
        assert exc.value.measured == 0.2
        assert exc.value.threshold < 0.2

    def test_no_admissible_eta_warns_zero(self):
        p = additive_problem()
        with pytest.warns(UserWarning):
            got = eta_epsilon(p, 0.05, 1.0, 0.9, lambda e: 1.0 + e)
        assert got == 0.0


def _power(rng, lo, hi):
    c, k = rng.uniform(0.1, 10.0), rng.uniform(0.2, 4.0)
    return lambda x: c * x ** k


def _exponential(rng, lo, hi):
    c, r = rng.uniform(0.1, 10.0), rng.uniform(0.5, 40.0) / (hi - lo)
    return lambda x: c * math.exp(r * (x - lo))


def _step(rng, lo, hi):
    edge = rng.uniform(lo - 0.05 * (hi - lo), hi)
    return lambda x: float(x >= edge)


class TestLargestBelow:
    """The value-guided search against plain bisection on the same lattice,
    with ``==``."""

    @pytest.mark.parametrize("steps", [3, 8, 16])
    @pytest.mark.parametrize("lo, hi", [(0.0, 0.15), (0.0, 0.185),
                                        (2.0 ** -16, 1.0), (0.37, 1.9)])
    @pytest.mark.parametrize("shape", [_power, _exponential, _step])
    def test_random_monotone_curves(self, shape, lo, hi, steps):
        rng = np.random.default_rng([steps, int(hi * 1000)])
        for _ in range(60):
            curve = shape(rng, lo, hi)
            # targets below, inside and above the curve's range
            at = max(lo + rng.uniform(-0.1, 1.1) * (hi - lo), 0.0)
            target = curve(at) if shape is not _step else 0.5
            seen = []
            got = _largest_below(lambda x: seen.append(x) or curve(x),
                                 target, lo, hi, steps, curve(lo))
            want = bisect_largest_oracle(lambda x: curve(x) < target, lo,
                                         hi, steps)
            assert got == want
            # the docstring's bound, hi included; a step curve reads 0 or 1
            # at each end, so every probe is a midpoint
            assert len(seen) == len(set(seen)) <= 2 * steps
            if shape is _step and lo < got < hi:
                assert len(seen) == steps + 1

    def test_power_law_reads_few(self):
        # log-log interpolation is exact for a power law: a few reads
        # where the bisection reads 17
        rng = np.random.default_rng(3)
        reads = []
        for _ in range(200):
            curve = _power(rng, 2.0 ** -16, 1.0)
            target = curve(rng.uniform(2.0 ** -16, 1.0))
            seen = []
            got = _largest_below(lambda x: seen.append(x) or curve(x),
                                 target, 2.0 ** -16, 1.0, 16,
                                 curve(2.0 ** -16))
            assert got == bisect_largest_oracle(lambda x: curve(x) < target,
                                                2.0 ** -16, 1.0)
            reads.append(len(seen))
        assert max(reads) <= 6

    @pytest.mark.parametrize("target", [1.0 + 1e-13, 1.0 + 5e-13,
                                        1.0 + 9.9e-13])
    def test_near_flat_curve(self, target):
        # the fitted power tends to 0, and the predicted point stays in the
        # bracket: no OverflowError from the power
        def curve(x):
            return 1.0 + 1e-12 * x

        got = _largest_below(curve, target, 0.5, 1.0, 16, curve(0.5))
        assert got == bisect_largest_oracle(lambda x: curve(x) < target,
                                            0.5, 1.0)

    @pytest.mark.parametrize("lo", [0.0, 0.02])
    def test_zero_at_a_bracket_end(self, lo):
        # zero up to 0.05, then a square: a passing value of 0 admits no
        # log, so the search takes the midpoint until one above 0 passes
        def curve(x):
            return max(x - 0.05, 0.0) ** 2

        for target in (1e-6, 1e-3, 0.009):
            got = _largest_below(curve, target, lo, 0.15, 16, 0.0)
            assert got == bisect_largest_oracle(
                lambda x: curve(x) < target, lo, 0.15)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_values_take_the_midpoint(self, bad):
        def curve(x):
            return x if x < 0.1 else bad

        for v_hi in (None, bad):
            got = _largest_below(curve, 0.07, 0.0, 0.185, 16, 0.0, v_hi)
            assert got == bisect_largest_oracle(lambda x: curve(x) < 0.07,
                                                0.0, 0.185)


def _model(name, seed):
    """A program model with the window and lambda sampling its command
    uses, at the default knobs: ``cubic`` at a radius r_u, ``wave`` at a
    number of modes."""
    kind, knob = name.split()
    if kind == "cubic":
        return (sde_bridge.cubic_problem(KappaFn.inverse_quadratic(0.002),
                                         W64, seed, float(knob)),
                W64, (65, 32))
    window = TimeGrid(-60.0, 60.0, 1.0 / 32)
    return (sde_bridge.wave_problem(int(knob), 1.0, 1.0,
                                    KappaFn.inverse_quadratic(0.05), window,
                                    seed, 1e-7),
            window, (33, 12))


@pytest.mark.parametrize("seed", [41, 12345])
@pytest.mark.parametrize("model", ["cubic 0.3", "cubic 0.37", "wave 4",
                                   "wave 8"])
def test_searches_match_the_bisection_on_the_models(model, seed):
    # the thresholds and the eta cutoff, recomputed by plain bisection on a
    # copy with nothing cached
    p, window, samples = _model(model, seed)
    m_bound, beta = p.autonomous_cert.bound, p.autonomous_cert.exponent
    fresh = replace(p)
    want = thresholds_oracle(fresh, m_bound, beta)
    assert neighborhood_thresholds(p, m_bound, beta) == want
    target = EPS_FRACTION * want[2] * beta / (SMALLNESS_DIVISOR * m_bound)
    cut = eta_cutoff(p, window)["eta_cutoff"]
    assert cut == eta_search_oracle(
        lambda e: lambda_eta(fresh, e, window, *samples), target)


def test_threshold_cache_keys_the_bisection_depth():
    # a coarse bisection cached first must not answer a later default call:
    # each problem below starts with no cached thresholds
    p = cubic_problem()
    m_bound, beta = p.autonomous_cert.bound, p.autonomous_cert.exponent
    want = neighborhood_thresholds(replace(p), m_bound, beta)
    coarse = replace(p)
    rough = neighborhood_thresholds(coarse, m_bound, beta, bisect_steps=3)
    assert rough != want
    assert rough == thresholds_oracle(replace(p), m_bound, beta, 3)
    assert neighborhood_thresholds(coarse, m_bound, beta) == want
    assert neighborhood_thresholds(coarse, m_bound, beta, 3) == rough


def test_replaced_problem_has_its_own_thresholds():
    # a problem made by dataclasses.replace, a 4x stiffer cubic, must not
    # answer with the thresholds cached on the problem it was made from
    p = cubic_problem()
    m_bound, beta = p.autonomous_cert.bound, p.autonomous_cert.exponent
    stiff = {"f0": lambda y: -4.0 * y ** 3,
             "f0_prime": lambda y: (-12.0 * y ** 2)[:, :, None]}
    fresh = SemilinearProblem(a_matrix=p.a_matrix, f_eta=p.f_eta,
                              y0_star=p.y0_star, r_u=p.r_u,
                              f_eta_dy=p.f_eta_dy, **stiff)
    want = neighborhood_thresholds(fresh, m_bound, beta)
    old = neighborhood_thresholds(p, m_bound, beta)
    assert want[2] < old[2] / 2
    assert neighborhood_thresholds(replace(p, **stiff), m_bound, beta) == want


def test_a_store_empties_the_caches():
    # the thresholds cached before r_u changed must not answer after it
    p, _, _ = _model("wave 4", 12345)
    m_bound, beta = p.autonomous_cert.bound, p.autonomous_cert.exponent
    before = neighborhood_thresholds(p, m_bound, beta)
    p.r_u = 0.1
    fresh = _model("wave 4", 12345)[0]
    fresh.r_u = 0.1
    want = neighborhood_thresholds(fresh, m_bound, beta)
    assert want != before
    assert neighborhood_thresholds(p, m_bound, beta) == want


def test_the_linearization_is_read_only_and_a_store_recertifies():
    # an in-place edit would leave autonomous_cert stale, so it is refused;
    # a store drops the cached certificate, and a given array is copied
    p = _model("cubic 0.3", 12345)[0]
    assert p.autonomous_cert.exponent == pytest.approx(1.8)
    for array in (p.a_matrix, p.y0_star):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = -5.0
    given = np.array([[-5.0]])
    p.a_matrix = given
    assert p.autonomous_cert.exponent == pytest.approx(4.5)
    given[0, 0] = -2.0
    assert p.a_matrix[0, 0] == -5.0


class TestFindSolution:
    @pytest.mark.parametrize("tol", [0.0, -1e-9, math.inf, math.nan])
    def test_bad_tolerance_raises(self, tol):
        # the kernel iteration refuses it, where its iteration cap took a
        # log of it (a math domain error at 0, an int of NaN)
        with pytest.raises(ValueError, match=re.escape(
                f"tolerance must be positive and finite, got tol={tol}")):
            find_hyperbolic_solution(cubic_problem(), 0.1, W64, tol=tol)

    @pytest.mark.parametrize("knob", ["tol", "tail_tol"])
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    @pytest.mark.parametrize("row", ["cubic 0.3", "wave 4"])
    def test_bad_tolerance_refused_before_any_field_call(self, row, bad, knob):
        # a wave row's zero forcing skips the kernel iteration, which alone
        # checked tol; a bad tail_tol reached the kernel tail length
        p, window, _ = _model(row, 12345)
        eta = 0.1 if row.startswith("cubic") else 1e-5

        def refuse(*args):
            raise AssertionError("a field was called")

        p = replace(p, f_eta=refuse, f_eta_dy=refuse, f0=refuse,
                    f0_prime=refuse)
        knobs = {"tol": 1e-8, "tail_tol": 1e-9, knob: bad}
        with pytest.raises(ValueError, match=re.escape(
                "tolerance must be positive and finite, got "
                f"tol={knobs['tol']}, tail_tol={knobs['tail_tol']}")):
            find_hyperbolic_solution(p, eta, window, **knobs)

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
            c_proof = (SUP_OVER_LAMBDA * p.autonomous_cert.bound
                       / p.autonomous_cert.exponent)
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
        assert exc.value.measured is not None

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

    def test_overflowing_kernel_sum_raises(self):
        # a finite forcing of 1e308 on t >= 0 overflows the forward sweep,
        # which names its first non-finite time with no numpy warning; at
        # 1e307 the sum is finite, its sup norm reads inf, and the
        # trajectory fails closed.  lambda_eta samples t = -30 alone, so
        # only the kernel iteration sees the forcing
        window = TimeGrid(-30.0, 30.0, 1.0 / 16)

        def huge_from_zero(big):
            return additive_problem(lambda eta, t, y: np.array(
                [big if t >= 0 else eta * np.cos(t)]))

        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(SplitflowError, match=r"non-finite kernel sum "
                               r"at t=0\.125 \(479 of 961 times\)"):
                find_hyperbolic_solution(huge_from_zero(1e308), 0.01, window,
                                         n_time=1)
            sol = find_hyperbolic_solution(huge_from_zero(1e307), 0.01,
                                           window, n_time=1)
        assert (sol.status, sol.sup_distance) == ("failed", np.inf)
        assert [str(w.message) for w in seen] == [
            f"sup distance inf is not below eps={sol.eps_used:.4g}"]

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


def windowed(p, n_nodes):
    """Wrap ``p.f_eta`` to count its calls over ``n_nodes`` times, the
    kernel iteration's calls on a window of that many nodes."""
    calls = []
    f_eta = p.f_eta

    def counted(eta, ts, ys):
        calls.append(len(ts) == n_nodes)
        return f_eta(eta, ts, ys)

    p.f_eta = counted
    return calls


def green_keys(p):
    return [k for k in p._memo if k[0] == "green"]


def counted_expm(monkeypatch):
    """The matrix exponentials the hyperbolic module takes, two per build
    of a kernel's maps ``(T, S)``."""
    calls = []
    monkeypatch.setattr(hyperbolic, "expm",
                        lambda m: calls.append(m) or expm(m))
    return calls


def test_zero_forcing_reads_no_table_or_spectrum(monkeypatch):
    # a zero forcing, whatever the signs of its zeros, is answered with the
    # zero trajectory (+0.0 throughout, residual 0.0, no kernel applied)
    # from one field call over the window, with no kernel maps and no
    # Picard run
    builds = counted_expm(monkeypatch)
    runs = counted_applies(monkeypatch, hyperbolic)
    for zero in (0.0, -0.0):
        p = additive_problem(lambda eta, t, y: np.array([zero]))
        calls = windowed(p, W64.n_nodes)
        sol = find_hyperbolic_solution(p, 0.03, W64)
        assert sol.trajectory.tobytes() == np.zeros((W64.n_nodes, 1)).tobytes()
        assert (sol.fixed_point_residual, sol.iterations) == (0.0, 0)
        assert sum(calls) == 1 and green_keys(p) == []
    assert builds == [] and runs == []
    # the first nonzero forcing builds the kernel, and iterates
    p = additive_problem()
    find_hyperbolic_solution(p, 0.03, W64)
    assert len(builds) == 2 and len(green_keys(p)) == 1 and len(runs) == 1


def test_nan_forcing_is_not_zero():
    # a NaN in the forcing is carried through both sweeps of a non-normal
    # saddle to every node, and the kernel sum raises, naming the first
    a = np.array([[-1.0, 0.3], [0.0, 2.0]])
    pi_s = np.array([[1.0, -0.1], [0.0, 0.0]])  # onto e_1 along (0.1, 1)
    maps = np.stack([pi_s @ expm(a / 16), (np.eye(2) - pi_s) @ expm(-a / 16)])
    u = np.zeros((100, 2))
    u[50, 1] = np.nan
    with pytest.raises(SplitflowError, match=r"non-finite kernel sum at "
                       r"t=0\.0 \(100 of 100 times\)"):
        _kernel_sum(maps, pi_s - 0.5 * np.eye(2), u, 1.0 / 16,
                    np.arange(100) / 16)


def test_cubic_row_applies_as_before(monkeypatch):
    # y* = 1 and a nonzero forcing: three kernel applications, the last of
    # which certifies the iterate returned, and three field calls over the
    # window (the first apply reuses the forcing the zero test read)
    from splitflow import cli

    v = cli.load_config("", "hyperbolic")
    v["seed"] = 12345
    runs = counted_applies(monkeypatch, hyperbolic)
    p, window = cli._hyperbolic_problem(v), cli._grid(v)
    calls = windowed(p, window.n_nodes)
    sol = find_hyperbolic_solution(p, 0.2, window, tol=v["tol"],
                                   tail_tol=v["tail_tol"])
    assert runs == [3] and sol.iterations == 3 and sum(calls) == 3
    assert 0.0 < sol.fixed_point_residual <= v["tol"]
    # the residual, recomputed on the returned trajectory by the dense sum
    ts, phi = sol.times, sol.trajectory - p.y0_star
    w = np.ones(len(ts))
    w[0] = w[-1] = 0.5
    y_star = p.y0_star[None]
    g = (p.f_eta(0.2, ts, sol.trajectory) - p.f0_at(y_star)
         - phi @ p.d_f0(y_star)[0].T)
    gamma = kernel_sum_oracle(p.a_matrix, p.autonomous_cert.proj_s([0])[0],
                              g * w[:, None], window.h)
    residual = float(np.max(np.linalg.norm(gamma - phi, axis=1)))
    assert abs(residual - sol.fixed_point_residual) <= 1e-14  # round-off


def test_wave_rows_read_no_kernel(monkeypatch, tmp_path):
    # the noise is multiplicative and f(0) = 0: every row's trajectory is
    # the equilibrium, one field call over the window per row, and no
    # kernel maps are built
    from splitflow import cli

    v = cli.load_config("", "wave")
    window = cli._grid(v)
    problems, calls = [], []
    real = sde_bridge.random_ode_problem

    def made(*args, **kwargs):
        problems.append(real(*args, **kwargs))
        calls.append(windowed(problems[-1], window.n_nodes))
        return problems[-1]

    monkeypatch.setattr(sde_bridge, "random_ode_problem", made)
    runs = counted_applies(monkeypatch, hyperbolic)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.cmd_wave(v, tmp_path)[0] == 0
    rows = json.loads((tmp_path / "wave.json").read_text())["rows"]
    assert [r["sup_dist_v"] for r in rows] == [0.0] * 5
    assert all(r["certified"] for r in rows)
    assert runs == [] and sum(calls[0]) == 5
    assert green_keys(problems[0]) == []


def linear_problem(a, seed=5):
    """``y' = A y + eta g(t)``, ``g`` a sum of six random sines per
    component: its bounded solution is one kernel sum of the forcing, which
    the kernel iteration returns bit for bit after its second apply."""
    a = np.atleast_2d(np.asarray(a, float))
    d = len(a)
    amp, omega, phase = np.random.default_rng(seed).standard_normal((3, 6, d))

    def g(ts):
        return np.sum(amp * np.sin(omega * ts[:, None, None] + phase), axis=1)

    p = SemilinearProblem(
        a_matrix=a, f_eta=lambda eta, ts, ys: eta * g(ts),
        f0=lambda ys: np.zeros_like(ys), y0_star=np.zeros(d), r_u=1.0,
        f0_prime=lambda ys: np.zeros((len(ys), d, d)),
        f_eta_dy=lambda eta, ts, ys: np.zeros((len(ys), d, d)))
    return p, g


def sweeps_and_oracle(a, window, eta=1e-3, tail_tol=1e-9, reach=None):
    """The kernel iteration's trajectory of :func:`linear_problem` over
    ``window``, the dense trapezoid sum of its weighted forcing (pairs at
    most ``reach`` nodes apart, or all) on the library's ``Pi^s``, and
    the problem."""
    p, g = linear_problem(a)
    sol = find_hyperbolic_solution(p, eta, window, tail_tol=tail_tol)
    ts = window.times()
    w = np.ones(len(ts))
    w[0] = w[-1] = 0.5
    want = kernel_sum_oracle(p.a_matrix, p.autonomous_cert.proj_s([0])[0],
                             eta * g(ts) * w[:, None], window.h, reach)
    return sol.trajectory, want, p


def relative_gap(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("a", [-1.0, 0.8], ids=["stable", "unstable"])
def test_kernel_sweeps_match_dense_sum_scalar(a):
    # d = 1 (the np.multiply levels), one sweep or the other
    got, want, _ = sweeps_and_oracle([[a]], TimeGrid(-30.0, 30.0, 1.0 / 16))
    assert relative_gap(got, want) < 1e-13


def test_kernel_sweeps_match_dense_sum_mixed_d8():
    # d = 8 (the matmul levels), four stable and four unstable directions
    # of a non-normal generator, both sweeps at every node
    rng = np.random.default_rng(11)
    v = np.eye(8) + 0.25 * rng.standard_normal((8, 8))
    a = v @ np.diag([-2.0, -1.6, -1.2, -0.9, 0.9, 1.3, 1.7, 2.1]) \
        @ np.linalg.inv(v)
    got, want, p = sweeps_and_oracle(a, TimeGrid(-40.0, 40.0, 1.0 / 8))
    rank = np.trace(p.autonomous_cert.proj_s([0])[0])
    assert abs(rank - 4.0) < 1e-12
    assert relative_gap(got, want) < 1e-13


def test_kernel_sweeps_count_pairs_past_the_tail_length():
    # a saddle at tail_tol 1e-3: the pairs more than n_off nodes apart,
    # which a table truncated at the tail length leaves out, move the sum
    # by far more than the sweeps miss it
    a = [[-0.5, 0.4], [0.0, 0.7]]
    window, tail_tol = TimeGrid(-25.0, 25.0, 1.0 / 8), 1e-3
    got, want, p = sweeps_and_oracle(a, window, tail_tol=tail_tol)
    cert = p.autonomous_cert
    n_off = math.ceil(kernel_tail_length(cert.bound, cert.exponent, tail_tol)
                      / window.h)
    assert 2 * n_off < window.n_nodes < 4 * n_off
    truncated = sweeps_and_oracle(a, window, tail_tol=tail_tol,
                                  reach=n_off)[1]
    assert relative_gap(truncated, want) > 1e-6
    assert relative_gap(got, want) < 1e-13


def test_kernel_maps_built_once_per_problem_and_step(monkeypatch):
    # an eta ladder on one problem shares one pair (T, S) = (Pi^s e^{Ah},
    # Pi^u e^{-Ah}), the bytes of a fresh build; another step builds its own
    builds = counted_expm(monkeypatch)
    p = additive_problem()
    for eta in (0.03, 0.015):
        find_hyperbolic_solution(p, eta, W64)
    assert len(builds) == 2 and green_keys(p) == [("green", W64.h)]
    pi_s = p.autonomous_cert.proj_s([0])[0]
    fresh = np.stack([pi_s @ expm(p.a_matrix * W64.h),
                      (np.eye(1) - pi_s) @ expm(-p.a_matrix * W64.h)])
    assert p._memo["green", W64.h].tobytes() == fresh.tobytes()
    find_hyperbolic_solution(p, 0.03, TimeGrid(-70.0, 70.0, 1.0 / 32))
    assert len(builds) == 4 and len(green_keys(p)) == 2


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

    @staticmethod
    def eight_columns():
        """A cubic solution whose trajectory is replaced by eight columns:
        the solution, scaled copies, a column of zeros of either sign, and
        ``-0.0`` at every tenth node of one column."""
        sol = find_hyperbolic_solution(cubic_problem(), 0.1, W64, tol=1e-9)
        x = sol.trajectory[:, 0] - 1.0
        zeros = np.where(np.arange(len(x)) % 2, 0.0, -0.0)
        traj = np.column_stack([x, -x, 3.0 * x, x * x, zeros, 1e-300 * x,
                                x + 1.0, np.where(np.arange(len(x)) % 10,
                                                  x, -0.0)])
        sol.trajectory = traj
        return sol

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.int64)

    def test_eight_components_on_a_unit_fill_lattice(self):
        # every node and half-node of the stage lattice of a unit fill (step
        # 1/64 on the 1/64 grid: nodes, then midpoints), every grid node and
        # times outside the window: np.interp's bits per component, -0.0
        # included, in the shape of the times plus one axis
        sol = self.eight_columns()
        h = 1.0 / 128
        lattice = (np.arange(-6, 6)[None, :] + h * np.arange(129)[:, None])
        ts = np.concatenate([lattice.ravel(), sol.times,
                             sol.times[:-1] + 1.0 / 128,
                             [-70.0 - 1e-9, -80.0, 70.0 + 1e-9, 80.0,
                              -np.inf, np.inf]])
        want = np.stack([np.interp(ts, sol.times, c)
                         for c in sol.trajectory.T], axis=-1)
        assert np.any(self.bits(want[:, 4]) != self.bits(np.abs(want[:, 4])))
        got = sol.xi_star(ts)
        assert np.array_equal(self.bits(got), self.bits(want))
        got = sol.xi_star(lattice)
        assert got.shape == lattice.shape + (8,)
        assert np.array_equal(self.bits(got),
                              self.bits(want[:lattice.size].reshape(got.shape)))

    def test_nan_times_and_non_finite_trajectories(self):
        # a NaN time reads NaN; a non-finite trajectory takes np.interp's
        # own path (its retry from the right end of an interval)
        sol = self.eight_columns()
        ts = np.array([np.nan, -2.0, 0.5 / 64, np.nan, 2.0 + 1.0 / 128])
        for inf_at in (None, 2.0):
            if inf_at is not None:
                sol.trajectory[sol.times == inf_at, 3] = np.inf
                sol.trajectory[sol.times == -inf_at, 5] = -np.inf
            want = np.stack([np.interp(ts, sol.times, c)
                             for c in sol.trajectory.T], axis=-1)
            got = sol.xi_star(ts)
            assert np.array_equal(self.bits(got), self.bits(want))
            assert np.isnan(got[[0, 3]]).all()
        assert np.isinf(got[4, 3])  # np.interp's retry: inf, not NaN
        assert np.array_equal(self.bits(sol.xi_star(ts[1:3])),
                              self.bits(want[1:3]))


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
            scale, gap = p.dressing.at(eta, t)
            want = (-3.0 * scale[0] ** 2 * xi[0] ** 2 + gap[0]) - d0[0, 0]
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


def equilibrium_row(p, eta, window):
    """The row certificate of ``eta`` over ``window`` whose trajectory is
    ``y0_star`` at every node, as :func:`find_hyperbolic_solution` returns
    it when the forcing is zero, without its contraction check."""
    times = window.times()
    return hyperbolic.HyperbolicSolutionCertificate(
        times=times, trajectory=p.y0_star + np.zeros((len(times), p.dim)),
        interior=slice(None), sup_distance=0.0, fixed_point_residual=0.0,
        iterations=1, eta=eta, eps_used=1.0, lambda_value=0.0,
        status="bounded")


def counted_jacobian(monkeypatch, p):
    """Calls of ``p.f_eta_dy``, the linearization's generator, from now."""
    calls = []
    real = p.f_eta_dy
    monkeypatch.setattr(p, "f_eta_dy",
                        lambda *a: calls.append(len(a[1])) or real(*a))
    return calls


class TestDressedLinearization:
    """Along ``y* = 0`` under scalar noise the linearization is ``A + gap(t)
    I``, whose flow is the base flow times ``exp(int gap)``."""

    W32 = TimeGrid(-60.0, 60.0, 1.0 / 32)

    def test_log_scale_is_the_integral_of_the_gap(self):
        # on a path grid whose step 0.05 does not divide 1/16, so every
        # integral has partial segments at both ends: against a trapezoid
        # over the path's nodes in between and 97 points of the interval,
        # exact for the piecewise-linear gap, within 1e-13 of each shift's
        # largest |log-scale| (measured 4.3e-14)
        path = sample_wiener_path(TimeGrid(-60.0, 20.0, 0.05), 5)
        strat = StratonovichSpec(
            b_matrix=[[-1.0]], f=lambda y: 0.0 * y,
            f_prime=lambda y: np.zeros((len(y), 1, 1)), eta=1.0,
            kappa=KappaFn.inverse_quadratic(1.0))
        p = random_ode_problem(strat, path, [0.0], r_u=0.3)
        dressing, eta = p.dressing, 0.7
        t0 = np.arange(-8.0, 8.0)[:, None]
        t1 = t0 + np.linspace(0.0, 1.0, UNIT_SAMPLES + 1)
        got = dressing.gap_integral(eta, t0, t1)
        assert got.shape == t1.shape and np.all(got[:, 0] == 0.0)
        for a, row, ends in zip(t0[:, 0], got, t1):
            want = []
            for b in ends:
                inner = dressing.ts[(dressing.ts > a) & (dressing.ts < b)]
                ts = np.union1d(np.concatenate([[a, b], inner]),
                                np.linspace(a, b, 97))
                want.append(np.trapezoid(dressing.at(eta, ts)[1], ts))
            assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want))

    def test_only_equilibrium_rows_of_a_reported_gap_are_dressed(
            self, monkeypatch):
        # the wave at y* = 0 fills without a generator call; the cubic at
        # y* = 1, and the wave along a trajectory that leaves 0 in one bit
        # (-0.0 at one node), call it
        p = wave_problem()
        row = equilibrium_row(p, 0.5, self.W32)
        calls = counted_jacobian(monkeypatch, p)
        cc = linearize_along(p, row, step=1.0 / 32)
        assert cc.base is p.base_cocycle(1.0 / 32)
        cc.unit_flows(range(-3, 3))
        cc.unit_steps(range(3, 6))
        assert calls == []
        row.trajectory[100, 3] = -0.0
        linearize_along(p, row, step=1.0 / 32).unit_flows([0])
        assert calls != []
        cubic = cubic_problem()
        assert cubic.dressing is not None and cubic.y0_star.any()
        sol = find_hyperbolic_solution(cubic, 0.1, W64, tol=1e-9)
        calls = counted_jacobian(monkeypatch, cubic)
        cc = linearize_along(cubic, sol)
        assert cc.log_scale is None
        cc.unit_flows([0])
        assert len(calls) == 1

    def test_cubic_equilibrium_row_is_not_dressed(self, monkeypatch):
        # the cubic holds its dressing, and its row along y* = 1 equals
        # y0_star bit for bit, but its Jacobian there is f0'(s) + gap, not
        # f0'(1) + gap: the fill calls the generator
        cubic = cubic_problem()
        assert cubic.dressing is not None
        row = equilibrium_row(cubic, 0.1, W64)
        calls = counted_jacobian(monkeypatch, cubic)
        cc = linearize_along(cubic, row, step=1.0 / 32)
        assert cc.log_scale is None and cc.base is None
        cc.unit_flows([0])
        assert len(calls) == 1

    @pytest.mark.parametrize("eta", [0.5, 1.0])
    def test_unit_flows_match_the_rk4_fill(self, eta):
        # both at step 1/512: the exact flows agree, the RK4 errors nearly
        # so (measured 2.6e-9 and 6.9e-9 relative).  At the wave's step
        # 1/32 the dressed flows differ from the RK4 fill of the same
        # generator at 1/32 by 2.3e-4 (eta 0.5) and 3.9e-4 (eta 1), and
        # both from the fill at 1/512 by 2.3e-2: the RK4 error of A
        p = wave_problem()
        shifts = list(range(-4, 4))
        cc = linearize_along(p, equilibrium_row(p, eta, self.W32),
                             step=1.0 / 512)
        want = ContinuousCocycle(cc.generator, p.dim,
                                 step=1.0 / 512).unit_flows(shifts)
        for got, ref in zip(cc.unit_flows(shifts), want):
            for a, b in zip(got, ref):
                assert spectral_norm(a - b) <= 1e-8 * spectral_norm(b)

    def test_zero_eta_is_the_base_table(self):
        p = wave_problem()
        cc = linearize_along(p, equilibrium_row(p, 0.0, self.W32),
                             step=1.0 / 32)
        base = p.base_cocycle(1.0 / 32)
        assert np.array_equal(cc.unit_steps(range(5, 8)),
                              base.unit_steps(range(5, 8)))
        assert np.array_equal(cc.unit_flows(range(-3, 3)),
                              base.unit_flows(range(-3, 3)))

    def test_huge_gap_and_far_times_fail_closed(self):
        # exp(eta int gap) overflows: IntegrationError naming the first
        # interval that does, and no numpy warning; a shift whose unit
        # interval leaves the dressed window raises the dressing's
        # WindowError at its first snapshot time past the window
        p = wave_problem()
        eta = 1e5
        shifts = np.arange(-5, 5)
        t0 = shifts[:, None].astype(float)
        c = p.dressing.gap_integral(
            eta, t0, t0 + np.linspace(0.0, 1.0, UNIT_SAMPLES + 1))
        first = shifts[np.argmax(c.max(axis=1) > 710.0)]
        assert c.max() > 710.0
        cc = linearize_along(p, equilibrium_row(p, eta, self.W32),
                             step=1.0 / 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError, match=re.escape(
                    f"non-finite state while integrating [{float(first)}, "
                    f"{first + 1.0}]")):
                cc.unit_flows(shifts)
        with pytest.raises(WindowError, match=r"time 61.0625 outside the "
                           r"dressed window \[-84.00, 61.00\] \(16 of 17 "
                           r"times out\)"):
            cc.unit_steps([61])


class TestCertify:
    @pytest.mark.parametrize("knob", ["tol", "trunc_tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_bad_tolerance_raises_on_the_roughness_route(self, knob, value):
        # checked before the route is picked, as on the conjugacy route
        p = cubic_problem()
        sol = find_hyperbolic_solution(p, 0.1, W64, tol=1e-9)
        assert linearize_along(p, sol).log_scale is None  # not dressed
        with pytest.raises(ValueError, match="tolerance must be positive"):
            certify_hyperbolic(p, sol, n_half=4, **{knob: value})
        assert sol.status == "bounded"
        assert sol.linearization_certificate is None

    def test_zero_eta_equals_autonomous(self):
        p = additive_problem()
        sol = find_hyperbolic_solution(p, 0.0, W64, tol=1e-11)
        certify_hyperbolic(p, sol, n_half=4)
        assert sol.status == "certified"
        lc = sol.linearization_certificate
        assert abs(lc.exponent - p.autonomous_cert.exponent) < 1e-10
        assert spectral_norm(lc.proj_s([0])[0]
                             - p.autonomous_cert.proj_s([0])[0]) < 1e-9

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
        weak = replace(p)
        weak.autonomous_cert = DichotomyCertificate.constant(
            [[1.0]], 2000.0, 0.45)
        certify_hyperbolic(weak, sol, n_half=2, trunc_tol=1e-3)
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


class TestConjugacyRoute:
    """A dressed row (``y* = 0`` under scalar noise) is certified by its
    conjugacy to the autonomous flow: ``(K e^{|eta| u}, beta, Pi^s of A)``,
    u the larger rise of ``C = int gap`` over the trajectory window, checked
    by the verifier; no roughness pipeline runs."""

    W32 = TimeGrid(-60.0, 60.0, 1.0 / 32)

    def certified(self, p, eta, **knobs):
        row = equilibrium_row(p, eta, self.W32)
        certify_hyperbolic(p, row, **{"n_half": 3, "step": 1.0 / 32,
                                      **knobs})
        return row

    def test_certificate_is_the_autonomous_one_dressed(self, monkeypatch):
        # the route reads the rise, builds the certificate and verifies
        # it once; no unit-flow distance, impulse span or robustness run
        for name in ("robust_dichotomy_continuous", "_impulse_span"):
            monkeypatch.setattr(hyperbolic, name, None)
        p = wave_problem()
        cert_a = p.autonomous_cert
        rise = max(p.dressing.rises(1.0, -60.0, 60.0))
        for eta in (2e-6, 0.5, -0.5):
            row = self.certified(p, eta)
            lc = row.linearization_certificate
            assert row.status == "certified"
            assert lc.meta["route"] == "conjugacy"
            assert lc.meta["rise"] == rise and lc.meta["window"] == [-3, 3]
            assert lc.bound == cert_a.bound * math.exp(abs(eta) * rise)
            assert lc.exponent == cert_a.exponent
            assert np.array_equal(lc.projections, cert_a.projections)
            assert lc.meta["verification"].passed

    def test_rk4_step_moves_no_constant(self):
        # (K e^{|eta| u}, beta) does not read the RK4 step of the table the
        # verifier checks it on: at steps 1/32 and 1/64 the constants are
        # equal and the verdict is the same
        p = wave_problem()
        for eta in (2e-6, 0.5):
            coarse, fine = (self.certified(p, eta, step=step)
                            for step in (1.0 / 32, 1.0 / 64))
            assert coarse.status == fine.status == "certified"
            a, b = (row.linearization_certificate for row in (coarse, fine))
            assert (a.exponent, a.bound) == (b.exponent, b.bound)
        assert {("base", 1.0 / 32), ("base", 1.0 / 64)} <= set(p._memo)

    def test_zero_eta_is_exactly_the_autonomous_certificate(self):
        p = wave_problem()
        lc = self.certified(p, 0.0).linearization_certificate
        cert_a = p.autonomous_cert
        assert (lc.bound, lc.exponent) == (cert_a.bound, cert_a.exponent)
        assert np.array_equal(lc.projections, cert_a.projections)

    def test_roughness_route_on_the_same_row_is_no_tighter(self):
        # the roughness pipeline run by hand on one dressed row: both
        # certificates pass the verifier, and the conjugacy bound (12.4 e^{
        # eta u}) is below the roughness bound (about K^2 = 154)
        p = wave_problem()
        row = self.certified(p, 2e-6)
        conj = row.linearization_certificate
        cc = linearize_along(p, row, step=1.0 / 32)
        rough = robustness.robust_dichotomy_continuous(
            p.base_cocycle(1.0 / 32), p.autonomous_cert, cc, (-3, 3),
            slack=1.2, tol=1e-7, trunc_tol=1e-7)
        assert conj.meta["verification"].passed
        assert rough.meta["verification"].passed
        assert conj.bound <= rough.bound
        assert conj.exponent >= rough.exponent

    def test_doctored_certificates_are_rejected(self):
        # alpha doubled where the bound is tight, and u replaced by 0 where
        # e^{eta u} = 49: the verifier's forward ratio reads 5.4 and 1.27
        p = wave_problem()
        for eta, doctor in ((0.5, lambda lc: replace(
                lc, exponent=2.0 * lc.exponent)), (5.0, lambda lc: replace(
                lc, bound=p.autonomous_cert.bound))):
            row = self.certified(p, eta)
            lc = row.linearization_certificate
            assert row.status == "certified"
            assert math.exp(eta * lc.meta["rise"]) > 1.2
            cc = linearize_along(p, row, step=1.0 / 32)
            report = verify_dichotomy(cc, doctor(lc), (-3, 3), slack=1.2)
            assert not report.passed
            assert not report.axioms["forward_decay"]["passed"]

    def test_mixed_splitting_uses_the_backward_rise(self):
        # f(u) = 50 u - u^3: two unstable modes, Pi^s != I.  At seed 12345
        # the gap's largest fall (backward rise) exceeds its largest rise,
        # and every row of the automatic ladder certifies with the bound
        # 10.4 e^{eta u} (the roughness route read 18,517 at the top row)
        p = sde_bridge.wave_problem(4, 1.0, 50.0,
                                    KappaFn.inverse_quadratic(1.0), self.W32,
                                    12345, 1e-7)
        pi_s = p.autonomous_cert.projections[0]
        assert 0.0 < np.trace(pi_s) < p.dim - 0.5
        fwd, bwd = p.dressing.rises(1.0, -60.0, 60.0)
        assert bwd > fwd
        rows = list(hyperbolic.ladder(
            p, self.W32, [], tol=1e-7, tail_tol=1e-7, n_half=3,
            trunc_tol=1e-7))
        assert len(rows) == 5
        for row, sol in rows:
            lc = sol.linearization_certificate
            assert row["certified"] and lc.meta["route"] == "conjugacy"
            assert lc.meta["rise"] == bwd
            assert row["M_bound"] == float(p.autonomous_cert.bound * np.exp(
                row["eta"] * bwd)) < 10.41

    def test_overflowing_bound_fails_closed(self):
        # K e^{eta u} past the floats: the row is bounded and names the
        # bound, with no numpy warning and no ConfigurationError
        p = wave_problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row = self.certified(p, 1e5)
        assert row.status == "bounded"
        assert row.linearization_certificate is None
        record = row.meta["certification"]
        assert record["error"].startswith(
            "conjugacy bound K e^(|eta| u) = inf is not finite")
        assert record["measured"] == math.inf

    @pytest.mark.parametrize("knob", ["tol", "trunc_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, math.nan])
    def test_bad_tolerance_raises(self, knob, value):
        with pytest.raises(ValueError, match="tolerance must be positive"):
            self.certified(wave_problem(), 0.5, **{knob: value})

    def test_short_window_stays_bounded(self):
        # n_half = 0 leaves no nodes -1, 1: the error text of the roughness
        # route, and no certificate
        p = wave_problem()
        row = self.certified(p, 0.5, n_half=0)
        assert row.status == "bounded"
        assert row.meta["certification"]["error"] == (
            "trajectory window [-60, 60] too short for certification: "
            "n_half and the clean interior leave no nodes -1, 1")

    def test_rise_is_read_once_per_window(self, monkeypatch):
        p = wave_problem()
        calls = []
        real = type(p.dressing).rises
        monkeypatch.setattr(type(p.dressing), "rises",
                            lambda *a: calls.append(a[2:]) or real(*a))
        for eta in (0.0, 0.1, 0.2):
            self.certified(p, eta)
        assert calls == [(-60.0, 60.0)]


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
