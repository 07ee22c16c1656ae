import sys

import numpy as np
import pytest

from splitflow import (ContinuousCocycle, DiscreteCocycle,
                       DichotomyCertificate, KappaFn, RobustnessHypothesisError,
                       SplitflowError, TimeGrid, autonomous_certificate,
                       NoiseDressing, delta_threshold, gronwall_constants,
                       lift_certificate, ou_series, paper_projection_bound,
                       robust_constants,
                       robust_dichotomy_continuous, robust_dichotomy_discrete,
                       sample_wiener_path, pointwise, verify_dichotomy)
from splitflow import cocycle as cocycle_module
from splitflow.cocycle import UNIT_SAMPLES
from splitflow import greens as greens_module
from splitflow import robustness as robustness_module
from conftest import brute_force_projections, projection_gap, spectral_norm

LN2 = float(np.log(2.0))


class TestDeltaThreshold:
    def test_ln2_is_one_third(self):
        got = delta_threshold(LN2)
        assert abs(got - 1.0 / 3.0) < 1e-15

    def test_monotone_to_zero(self):
        vals = [delta_threshold(a) for a in (1.0, 0.5, 0.1, 0.01, 0.001)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_large_exponent(self):
        assert abs(delta_threshold(10.0) - 0.9999092) < 1e-6

    def test_domain(self):
        with pytest.raises(ValueError):
            delta_threshold(0.0)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
    def test_non_finite_exponent_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            delta_threshold(alpha)


class TestGronwall:
    def test_unperturbed_recovery(self):
        for a in (0.3, LN2, 2.0):
            for d in (1.0, 2.0, 7.0):
                at, bt = gronwall_constants(a, 0.0, d)
                assert abs(at - a) < 1e-14
                assert abs(bt - a) < 1e-14

    def test_closed_form_example(self):
        at, bt = gronwall_constants(LN2, 0.1, 1.0)
        assert abs(at - 0.4980) < 5e-4
        assert abs(bt - 0.6378) < 5e-4

    def test_high_precision_oracle(self):
        import mpmath as mp

        mp.mp.dps = 50
        a, delta = mp.log(2), mp.mpf("0.1")
        rad = mp.cosh(a) ** 2 - 1 - 2 * delta * mp.sinh(a)
        at_hp = -mp.log(mp.cosh(a) - mp.sqrt(rad))
        bt_hp = at_hp + mp.log(1 + 2 * delta * mp.sinh(a))
        at, bt = gronwall_constants(LN2, 0.1, 1.0)
        assert abs(at - float(at_hp)) < 1e-13
        assert abs(bt - float(bt_hp)) < 1e-13

    def test_rate_decreasing_in_delta(self):
        deltas = np.linspace(0.0, 0.3, 16)
        rates = [gronwall_constants(LN2, d, 1.0)[0] for d in deltas]
        assert all(x >= y - 1e-14 for x, y in zip(rates, rates[1:]))

    def test_condition_violation_named(self):
        with pytest.raises(ValueError, match="delta"):
            gronwall_constants(LN2, 0.4, 1.0)
        with pytest.raises(ValueError, match="delta"):
            gronwall_constants(LN2, 0.2, 2.0)

    @pytest.mark.parametrize("a, delta, d_const, match", [
        (0.5, np.nan, 1.0, "delta"),
        (0.5, np.inf, 1.0, "delta"),
        (np.nan, 0.1, 1.0, "need a > 0"),
        (np.inf, 0.1, 1.0, "need a > 0"),
        (0.5, 0.1, np.nan, "need a > 0"),
        (0.5, 0.1, np.inf, "need a > 0"),
    ])
    def test_non_finite_arguments_rejected(self, a, delta, d_const, match):
        with pytest.raises(ValueError, match=match):
            gronwall_constants(a, delta, d_const)

    def test_extremal_sequence_decay_fit(self):
        # solve the equality version of the recursion on a long window and
        # fit the decay rate; it must not beat the lemma's rate claim
        a, delta, dd, gamma = LN2, 0.12, 1.0, 1.0
        at, _ = gronwall_constants(a, delta, dd)
        n = 140
        idx = np.arange(n)
        e_mat = np.exp(-a * np.abs(idx[:, None] - idx[None, :] - 1))
        rhs = gamma * dd * np.exp(-a * idx)
        u = np.linalg.solve(np.eye(n) - delta * dd * e_mat, rhs)
        assert np.all(u > 0)
        fit = np.polyfit(idx[10:80], np.log(u[10:80]), 1)[0]
        # fitted decay at least the lemma rate (2% fit slack)
        assert -fit >= at * 0.98
        # and the lemma's explicit bound holds nodewise
        c_lemma = gamma * dd / (1 - delta * dd * np.exp(-a)
                                / (1 - np.exp(-(a + at))))
        assert np.all(u[:80] <= c_lemma * np.exp(-at * idx[:80]) * (1 + 1e-9))


class TestRobustConstants:
    def test_zero_delta_collapse(self):
        for k, a in ((1.0, LN2), (2.5, 0.45), (7.0, 1.3)):
            rc = robust_constants(k, a, 0.0)
            assert abs(rc.rho) < 1e-12
            assert abs(rc.alpha_tilde - a) < 1e-12
            assert abs(rc.beta_tilde - a) < 1e-12
            assert abs(rc.D1 - 1.0) < 1e-12
            assert abs(rc.D2 - 1.0) < 1e-12
            assert abs(rc.M - k) < 1e-12

    def test_example_values_high_precision(self):
        import mpmath as mp

        mp.mp.dps = 50
        k, a, d = mp.mpf(1), mp.log(2), mp.mpf("0.1")
        e = mp.e ** (-a)
        rho = d * (1 + e) / (1 - e)
        at = -mp.log(mp.cosh(a) - mp.sqrt(mp.cosh(a) ** 2 - 1 - 2 * d * mp.sinh(a)))
        bt = at + mp.log(1 + 2 * d * mp.sinh(a))
        d1 = 1 / (1 - d * e / (1 - mp.e ** (-(a + at))))
        d2 = 1 / (1 - d * mp.e ** (-bt) / (1 - mp.e ** (-(a + bt))))
        m = k * (1 + d / ((1 - rho) * (1 - e))) * max(d1, d2)
        rc = robust_constants(1.0, LN2, 0.1)
        assert abs(rc.rho - 0.3) < 1e-14
        for got, want in ((rc.alpha_tilde, at), (rc.beta_tilde, bt),
                          (rc.D1, d1), (rc.D2, d2), (rc.M, m)):
            assert abs(got - float(want)) < 1e-12
        assert rc.D1 >= 1.0 and rc.D2 >= 1.0 and rc.M >= 1.0

    def test_monotone_trends(self):
        deltas = np.linspace(0.0, 0.9 * delta_threshold(LN2), 24)
        rcs = [robust_constants(1.0, LN2, d) for d in deltas]
        ats = [rc.alpha_tilde for rc in rcs]
        ms = [rc.M for rc in rcs]
        assert all(x >= y - 1e-14 for x, y in zip(ats, ats[1:]))
        assert all(x <= y + 1e-14 for x, y in zip(ms, ms[1:]))

    def test_threshold_error_carries_values(self):
        with pytest.raises(RobustnessHypothesisError) as exc:
            robust_constants(1.0, LN2, 0.5)
        assert exc.value.measured == 0.5
        assert abs(exc.value.threshold - 1.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_arguments_rejected(self, bad):
        with pytest.raises(RobustnessHypothesisError, match="not below"):
            robust_constants(2.0, 0.5, bad)
        with pytest.raises(ValueError, match="bound must be >= 1"):
            robust_constants(bad, 0.5, 0.1)


class TestDiscretePipeline:
    def test_unperturbed_recovery(self):
        base = DiscreteCocycle.constant([[0.5]])
        bc = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
        cert = robust_dichotomy_discrete(base, bc, base, (-5, 5))
        assert cert.meta["delta_eff"] == 0.0
        assert abs(cert.exponent - LN2) < 1e-12
        assert abs(cert.bound - 1.0) < 1e-12
        assert np.allclose(cert.proj_s([0])[0], [[1.0]], atol=1e-10)

    def test_scalar_example(self):
        base = DiscreteCocycle.constant([[0.5]])
        pert = DiscreteCocycle.constant([[0.55]])
        bc = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
        cert = robust_dichotomy_discrete(base, bc, pert, (-8, 8), slack=1.1)
        assert cert.meta["verification"].passed
        assert cert.exponent <= -np.log(0.55) + 1e-9

    def test_saddle_rotation_projection_bound(self):
        d_mat = np.diag([0.5, 2.0])
        eps = 0.01
        rot = np.array([[np.cos(eps), -np.sin(eps)],
                        [np.sin(eps), np.cos(eps)]])
        base = DiscreteCocycle.constant(d_mat)
        pert = DiscreteCocycle.constant(rot @ d_mat)
        bc = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
        cert = robust_dichotomy_discrete(base, bc, pert, (-6, 6), slack=1.1)
        assert cert.meta["verification"].passed
        assert cert.meta["verification"].meta["idempotence_residual"] < 1e-9
        dist = projection_gap(bc, cert, (-6, 6))
        bound = paper_projection_bound(LN2, cert.exponent, eps)
        assert dist <= bound
        # brute-force long-product directions as an independent oracle
        pi_s_bf, pi_u_bf = brute_force_projections(rot @ d_mat)
        assert spectral_norm(cert.proj_s([0])[0] - pi_s_bf) < 1e-6

    def test_threshold_rejection(self):
        base = DiscreteCocycle.constant([[0.5]])
        pert = DiscreteCocycle.constant([[0.95]])
        bc = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
        with pytest.raises(RobustnessHypothesisError) as exc:
            robust_dichotomy_discrete(base, bc, pert, (-5, 5))
        assert exc.value.measured > exc.value.threshold

    def test_projection_transport_uniqueness(self):
        # impulse projections at different nodes agree once transported
        d_mat = np.diag([0.5, 2.0])
        rot = np.array([[np.cos(0.01), -np.sin(0.01)],
                        [np.sin(0.01), np.cos(0.01)]])
        step = rot @ d_mat
        base = DiscreteCocycle.constant(d_mat)
        pert = DiscreteCocycle.constant(step)
        bc = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
        cert = robust_dichotomy_discrete(base, bc, pert, (-4, 4))
        for n in (-3, 0, 1):
            m = np.linalg.matrix_power(step, 3)
            lhs = cert.proj_s([n + 3])[0] @ m
            rhs = m @ cert.proj_s([n])[0]
            assert spectral_norm(lhs - rhs) < 1e-8

    def test_one_bounded_solve_per_certificate(self, monkeypatch):
        # count bounded_solution calls under every name splitflow imports it by
        original = greens_module.bounded_solution
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name.startswith("splitflow") \
                    and getattr(mod, "bounded_solution", None) is original:
                monkeypatch.setattr(mod, "bounded_solution", counted)
        d_mat = np.diag([0.5, 2.0])
        rot = np.array([[np.cos(0.01), -np.sin(0.01)],
                        [np.sin(0.01), np.cos(0.01)]])
        base = DiscreteCocycle.constant(d_mat)
        pert = DiscreteCocycle.constant(rot @ d_mat)
        bc = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
        cert = robust_dichotomy_discrete(base, bc, pert, (-6, 6))
        assert cert.meta["verification"].passed
        assert cert.first == -6 and cert.projections.shape == (13, 2, 2)
        assert len(calls) == 1

    def test_perturbation_read_once_per_node(self):
        # B = psi - phi is read once per node of the impulse span: each
        # cocycle's step is called once for the window, which sizes the
        # span, and once for the span's outer nodes; the impulse solves
        # look B up in that stack instead of reading psi again
        d_mat = np.diag([0.5, 2.0])
        rot = np.array([[np.cos(0.01), -np.sin(0.01)],
                        [np.sin(0.01), np.cos(0.01)]])
        calls = {"base": [], "pert": []}

        def counted(name, matrix):
            def step(ns):
                calls[name].append(list(ns))
                return np.broadcast_to(matrix, (len(ns), 2, 2))
            return DiscreteCocycle(step, 2)

        base, pert = counted("base", d_mat), counted("pert", rot @ d_mat)
        bc = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
        cert = robust_dichotomy_discrete(base, bc, pert, (-8, 8))
        assert cert.meta["verification"].passed
        # the span is the window widened by 44 nodes per side
        window = list(range(-8, 9))
        outer = list(range(-52, -8)) + list(range(9, 53))
        # the impulse solves stack the base steps A_n over the span, and
        # the verifier the perturbed steps over the window, in one call each
        assert calls["base"] == [window, outer, list(range(-52, 53))]
        assert calls["pert"] == [window, outer, window[:-1]]

    def test_decay_diagnostic(self):
        # the verifier's decay axioms on the unperturbed saddle's robust
        # certificate: stable columns decay forward, unstable ones backward
        d_mat = np.diag([0.5, 2.0])
        pert = DiscreteCocycle.constant(d_mat)
        bc = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
        cert = robust_dichotomy_discrete(pert, bc, pert, (-6, 6))
        rep = cert.meta["verification"]
        assert rep.axioms["forward_decay"]["passed"]
        assert rep.axioms["backward_decay"]["passed"]

    def test_decay_diagnostic_exact_slopes(self):
        # diagonal saddle, exact projections: both orbits decay like 2^-k,
        # so every decay ratio at rate ln 2 and K = 1 is exactly 1
        saddle = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
        bc = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
        rep = verify_dichotomy(saddle, bc, (-5, 7))
        for way in ("forward_decay", "backward_decay"):
            assert rep.axioms[way]["max_ratio"] == pytest.approx(1.0,
                                                                 rel=1e-12)
        steep = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0,
                                              1.01 * LN2)
        rep = verify_dichotomy(saddle, steep, (-5, 7), slack=1.0)
        assert not rep.axioms["forward_decay"]["passed"]
        assert not rep.axioms["backward_decay"]["passed"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_perturbation_raises_typed_error(self, bad):
        base = DiscreteCocycle.constant([[0.5]])
        bc = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
        with pytest.raises(SplitflowError, match="non-finite"):
            robust_dichotomy_discrete(base, bc,
                                      DiscreteCocycle.constant([[bad]]), (-5, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_base_projection_raises_typed_error(self, bad):
        # the impulse solves stack the base projections over their span
        saddle = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
        constant = DichotomyCertificate.constant([[1.0, 0.0], [0.0, bad]],
                                                 1.0, LN2)
        with pytest.raises(SplitflowError, match="non-finite projection"):
            robust_dichotomy_discrete(saddle, constant, saddle, (-5, 5))
        family = np.repeat(np.diag([1.0, 0.0])[None], 121, axis=0)
        family[63] = np.array([[1.0, 0.0], [bad, 0.0]])  # node 3
        cert = DichotomyCertificate(bound=1.0, exponent=LN2,
                                    projections=family, first=-60)
        with pytest.raises(SplitflowError,
                           match=r"non-finite projection at node 3 \(1 of"):
            robust_dichotomy_discrete(saddle, cert, saddle, (-5, 5))


class TestContinuousPipeline:
    def test_zero_perturbation_coincides(self):
        a = np.diag([-1.0, 1.0])
        cc = ContinuousCocycle.constant(a)
        ca = autonomous_certificate(a)
        cert = robust_dichotomy_continuous(cc, ca, cc, (-4, 4))
        assert cert.meta["delta_eff"] < 1e-11
        assert abs(cert.exponent - ca.exponent) < 1e-9
        for n in (-3, 0, 3):
            assert spectral_norm(cert.proj_s([n])[0] - ca.proj_s([n])[0]) < 1e-8

    def test_scalar_sin_perturbation(self):
        cc1 = ContinuousCocycle.constant([[-1.0]])
        cc2 = ContinuousCocycle(
            pointwise(lambda t: np.array([[-1.0 + 0.05 * np.sin(t)]])), 1)
        ca = autonomous_certificate(np.array([[-1.0]]))
        cert = robust_dichotomy_continuous(cc1, ca, cc2, (-5, 5))
        assert cert.meta["verification"].passed
        # integrating-factor oracle bounds the unit-interval distance
        # |e^{-t} - e^{-t + 0.05 int sin}| <= 0.05 * e crude bound
        assert cert.meta["d_unit"] <= 0.05 * np.e

    def test_diag_with_bounded_noise(self):
        g = TimeGrid(-40.0, 12.0, 1.0 / 32)
        path = sample_wiener_path(g, 3)
        win = TimeGrid(-8.0, 9.0, 1.0 / 32)
        z = ou_series(path, win)
        zt = win.times()
        a = np.diag([-1.0, 1.0])
        noise = lambda t: 0.02 * np.interp(t, zt, z)
        # rotate the perturbation so the projections actually move
        j_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        cc2 = ContinuousCocycle(pointwise(lambda t: a + noise(t) * j_mat), 2)
        ca = autonomous_certificate(a)
        cert = robust_dichotomy_continuous(ContinuousCocycle.constant(a), ca,
                                           cc2, (-5, 5))
        assert cert.meta["verification"].passed
        dist = projection_gap(ca, cert, (-5, 5))
        eps_hyp = max(ca.bound, cert.bound) * cert.meta["d_unit"]
        assert dist <= paper_projection_bound(ca.exponent, cert.exponent,
                                              eps_hyp)

    def test_each_unit_flow_integrated_once(self, monkeypatch):
        # record every RK4 run: the shifts of its members, its step count
        # and its snapshot spacing
        original = cocycle_module._rk4
        runs = []

        def recorded(field, t0, t1, y0, n, every=None):
            runs.append((np.atleast_1d(t0).tolist(), n, every))
            return original(field, t0, t1, y0, n, every)

        monkeypatch.setattr(cocycle_module, "_rk4", recorded)
        a = np.diag([-1.0, 1.0])
        j_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        base = ContinuousCocycle.constant(a)
        pert = ContinuousCocycle(
            pointwise(lambda t: a + 0.02 * np.sin(t) * j_mat), 2)
        cert = robust_dichotomy_continuous(base, autonomous_certificate(a),
                                           pert, (-3, 3))
        assert cert.meta["verification"].passed
        # the constant base fills its one shared entry; the perturbed table
        # is filled in one run for the window and one for the impulse span,
        # both at the same steps and keeping all their snapshots
        assert len(runs) == 3
        (base_shifts, _, _), window, span = runs
        assert base_shifts == [0.0] and list(base._units) == [0]
        assert window[0] == [float(n) for n in range(-3, 4)]
        assert window[2] == window[1] // UNIT_SAMPLES
        assert span[1:] == window[1:]
        # each shift is integrated once, and the span surrounds the window
        assert not set(window[0]) & set(span[0])
        shifts = sorted(window[0] + span[0])
        assert shifts == [float(n) for n in range(int(shifts[0]),
                                                  int(shifts[-1]) + 1)]
        assert shifts[0] < -3 and shifts[-1] > 3
        assert sorted(pert._units) == [int(n) for n in shifts]
        for flow in pert._units.values():
            assert flow.shape == (UNIT_SAMPLES + 1, 2, 2)

    def test_outer_span_nodes_integrated_in_one_run(self, monkeypatch):
        # with a time-varying base and perturbation, each unit-flow table is
        # filled in one run for the window and, when the discrete pipeline
        # stacks the impulse span's outer nodes, one more for those
        original = cocycle_module._rk4
        runs = []

        def recorded(field, t0, t1, y0, n, every=None):
            runs.append((np.atleast_1d(t0).tolist(), n, every))
            return original(field, t0, t1, y0, n, every)

        spans = []

        def impulse_span(*args):
            spans.append(greens_module._impulse_span(*args))
            return spans[-1]

        monkeypatch.setattr(cocycle_module, "_rk4", recorded)
        monkeypatch.setattr(robustness_module, "_impulse_span", impulse_span)
        a = np.diag([-1.0, 1.0])
        j_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        # a time-varying base that keeps the splitting of A
        base_gen = lambda t: (1.0 + 0.05 * np.cos(t)) * a
        base = ContinuousCocycle(pointwise(base_gen), 2)
        pert = ContinuousCocycle(
            pointwise(lambda t: base_gen(t) + 0.02 * np.sin(t) * j_mat), 2)
        cert = robust_dichotomy_continuous(base, autonomous_certificate(a),
                                           pert, (-3, 3))
        assert cert.meta["verification"].passed
        window = [float(n) for n in range(-3, 4)]
        (span_lo, span_hi), = spans
        outer = [float(n) for n in range(span_lo, -3)] \
            + [float(n) for n in range(4, span_hi + 1)]
        assert span_lo < -3 and span_hi > 3
        assert len(runs) == 4
        assert [r[0] for r in runs] == [window, window, outer, outer]
        for shifts, n, every in runs:
            assert every == n // UNIT_SAMPLES  # all snapshots
        for cc in (base, pert):
            assert sorted(cc._units) == list(range(span_lo, span_hi + 1))

    def test_lift_bound_formula(self):
        a = np.diag([-1.0, 1.0])
        cc = ContinuousCocycle.constant(a)
        ca = autonomous_certificate(a)
        dcert = DichotomyCertificate.constant(ca.proj_s([0])[0], ca.bound,
                                              ca.exponent)
        lifted = lift_certificate(cc, dcert, (-3, 3))
        want = ca.bound * np.exp(1.0 + ca.exponent)  # sup e^t e^{alpha t} at t=1
        assert abs(lifted.bound - want) / want < 0.05
        rep = verify_dichotomy(cc, lifted, (-3, 3), slack=1.05)
        assert rep.passed

    def test_lift_carries_no_discrete_verification(self):
        # a verified discrete certificate lifts to an unverified one: its
        # report checked the unit-time steps, not the flow between them
        a = np.array([[-LN2]])
        cc = ContinuousCocycle.constant(a)
        bc = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
        dcert = robust_dichotomy_discrete(DiscreteCocycle.constant([[0.5]]),
                                          bc, DiscreteCocycle.constant([[0.5]]),
                                          (-3, 3))
        assert dcert.meta["verification"].passed
        lifted = lift_certificate(cc, dcert, (-3, 3))
        assert "verification" not in lifted.meta
        assert robustness_module.robustness_report(lifted)["passed"] is None


class TestLinearPerturbationCheck:
    """The continuous pipeline's hypothesis check: ``d_unit``, the sampled
    sup over unit intervals of the distance between the unit flows of the
    base ``x' = A x`` and of the linearly perturbed ``x' = (A + B(t)) x``."""

    A = np.diag([-1.0, 1.0])

    def d_unit(self, b_fn, window):
        base = ContinuousCocycle.constant(self.A)
        pert = ContinuousCocycle(pointwise(lambda t: self.A + b_fn(t)), 2)
        cert = robust_dichotomy_continuous(
            base, autonomous_certificate(self.A), pert, window)
        return cert.meta["d_unit"], cert

    def test_zero_perturbation(self):
        d_unit, cert = self.d_unit(lambda t: np.zeros((2, 2)), (-4, 4))
        assert d_unit == 0.0
        assert cert.meta["verification"].passed

    def test_constant_perturbation_value(self):
        # commuting flows: the distance peaks at t = 1, e (e^c - 1)
        c = 0.007
        d_unit, _ = self.d_unit(lambda t: c * np.eye(2), (-4, 4))
        assert abs(d_unit - np.e * np.expm1(c)) < 1e-9

    def test_noise_term_bounded_by_m2(self):
        g = TimeGrid(-80.0, 20.0, 1.0 / 32)
        path = sample_wiener_path(g, 4)
        kap = KappaFn.inverse_quadratic(1.0)
        win = TimeGrid(-50.0, 16.0, 1.0 / 32)
        _, m2 = NoiseDressing(path, kap).bounds(win)
        z = ou_series(path, win)
        ts = win.times()
        eta = 0.01
        coeff = (np.asarray(kap.kappa(ts)) - np.asarray(kap.kappa_dot(ts))) * z

        def b_fn(t):
            return eta * np.interp(t, ts, coeff) * np.eye(2)

        # |e^{At} (e^{int b} - 1)| <= e (e^{eta m2} - 1) on a unit interval
        d_unit, cert = self.d_unit(b_fn, (-5, 6))
        assert d_unit <= np.e * np.expm1(eta * m2) * (1.0 + 1e-6)
        assert cert.meta["verification"].passed
