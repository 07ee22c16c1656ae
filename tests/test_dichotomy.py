import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm, logm

from splitflow import (ConfigurationError, ContinuousCocycle, DiscreteCocycle,
                       DichotomyCertificate, ForcingSequence,
                       NonHyperbolicError, SplitflowError, TimeGrid,
                       autonomous_certificate, bounded_solution,
                       discretize, paper_projection_bound,
                       pointwise, projection_distance,
                       robust_dichotomy_discrete, spectral_projection,
                       verify_dichotomy)
import splitflow.cocycle
from splitflow import dichotomy
from splitflow.cocycle import UNIT_SAMPLES
from conftest import (GreenKernel, all_pairs_ratios, autonomous_wave,
                      envelope_scan_sequential, riesz_projector_oracle,
                      rotating_saddle, spectral_norm, time_varying_saddle)

SADDLE = np.diag([0.5, 2.0])


def _split_with_known_projector(gen, gap):
    """A generator with one eigenvalue ``gap`` and its exact projector.

    ``A = [[A11, C], [0, A22]]`` with ``A11`` upper triangular on diagonal
    ``gap, 1, 2``, ``A22`` on diagonal ``-2, -1`` (repeated entries give
    Jordan blocks, the non-normal case), and ``C = A11 X - X A22`` for an
    integer ``X``, so that ``Pi^u = [[I, X], [0, 0]]``.  Small integers and
    a power-of-two ``gap`` keep every entry exact; a random permutation of
    the coordinates hides the blocks.
    """
    k, m = gen.integers(1, 6, 2)
    a11 = np.triu(gen.integers(-3, 4, (k, k))).astype(float)
    np.fill_diagonal(a11, gen.integers(1, 3, k))
    a11[0, 0] = gap
    a22 = np.triu(gen.integers(-3, 4, (m, m))).astype(float)
    np.fill_diagonal(a22, -gen.integers(1, 3, m))
    x = gen.integers(-3, 4, (k, m)).astype(float)
    a = np.block([[a11, a11 @ x - x @ a22], [np.zeros((m, k)), a22]])
    pi_u = np.block([[np.eye(k), x], [np.zeros((m, k + m))]])
    perm = gen.permutation(k + m)
    return a[np.ix_(perm, perm)], pi_u[np.ix_(perm, perm)]


def rotated_saddle():
    """The CLI's saddle instance: base, its certificate, and the rotated
    perturbation."""
    eps = 0.01
    rot = np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]])
    base_cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0,
                                              np.log(2.0))
    return (DiscreteCocycle.constant(SADDLE), base_cert,
            DiscreteCocycle.constant(rot @ SADDLE))


def oracle_ratios(cocycle, cert, nodes):
    """Forward and backward max decay ratios from per-pair kernel values.

    Each pair (t, s) is one :class:`GreenKernel` evaluation: the product
    re-projected onto the stable range at every step for the forward branch,
    and the multi-step restricted inverse for the backward branch.  A
    continuous cocycle adds the fractional horizons from its unit-flow
    table.
    """
    discrete = isinstance(cocycle, DiscreteCocycle)
    g = GreenKernel(cocycle if discrete else discretize(cocycle), cert)
    k, a = cert.bound, cert.exponent
    fwd = bwd = 0.0
    for s in nodes:
        bwd = max(bwd, spectral_norm(cert.proj_u([s])[0]) / k)
        for t in nodes:
            if t < s:
                bwd = max(bwd, spectral_norm(g.eval(t, s)) * np.exp(a * (s - t)) / k)
                continue
            val = g.eval(t, s)
            fwd = max(fwd, spectral_norm(val) * np.exp(a * (t - s)) / k)
            if not discrete and t < nodes[-1]:
                for j, snap in enumerate(cocycle.unit_flows([t])[0, 1:-1], start=1):
                    h = t - s + j / UNIT_SAMPLES
                    fwd = max(fwd, spectral_norm(snap @ val) * np.exp(a * h) / k)
    return fwd, bwd


class TestSpectralProjection:
    def test_diagonal(self):
        pi_u, gap = spectral_projection(np.diag([-1.0, 2.0]))
        assert np.allclose(pi_u, np.diag([0.0, 1.0]), atol=1e-12)
        assert gap == 1.0

    def test_hurwitz_gives_zero(self):
        a = np.array([[-1.0, 3.0], [0.0, -2.0]])
        pi_u, _ = spectral_projection(a)
        assert np.allclose(pi_u, 0.0, atol=1e-14)

    def test_all_unstable_gives_identity(self):
        pi_u, _ = spectral_projection(np.diag([0.5, 2.0]))
        assert np.allclose(pi_u, np.eye(2), atol=1e-14)

    def test_coupled_saddle_eigen_oracle(self):
        a = np.array([[0.0, 1.0], [2.0, -1.0]])  # eigenvalues 1, -2
        pi_u, gap = spectral_projection(a)
        assert abs(gap - 1.0) < 1e-12
        # oblique projector onto span{(1,1)} along span{(1,-2)}
        want = np.array([[2.0, 1.0], [2.0, 1.0]]) / 3.0
        assert np.allclose(pi_u, want, atol=1e-12)
        assert spectral_norm(pi_u @ pi_u - pi_u) < 1e-12
        assert spectral_norm(pi_u @ a - a @ pi_u) < 1e-12

    def test_matches_contour_integral_oracle(self, rng):
        # 200 random matrices, d from 2 to 11: generic spectra, with right
        # half-plane eigenvalues of large imaginary part beside left
        # half-plane ones, which no one circle in the lambda plane separates
        for _ in range(200):
            a = rng.standard_normal((rng.integers(2, 12),) * 2)
            pi_u, _ = spectral_projection(a)
            want = riesz_projector_oracle(a)
            scale = max(spectral_norm(want), 1.0)
            assert spectral_norm(pi_u - want) <= 1e-12 * scale

    @pytest.mark.parametrize("digits", [3, 5, 7])
    @pytest.mark.parametrize("side", [1.0, -1.0])
    def test_small_relative_gaps_match_exact_projector(self, digits, side,
                                                       rng):
        # one eigenvalue 10^-digits from the axis and a norm of order 10:
        # too near the axis for the contour oracle's quadrature, so the
        # projector is known exactly by construction.  The sign iteration
        # run on the unshifted matrix misses by up to 1e-10 on a few of
        # these draws
        gap = 2.0 ** -round(digits * np.log2(10))
        for _ in range(200):
            a, want = _split_with_known_projector(rng, gap)
            a, want = side * a, (want if side > 0 else np.eye(len(a)) - want)
            pi_u, got_gap = spectral_projection(a)
            assert got_gap == pytest.approx(gap, rel=1e-6)
            assert spectral_norm(pi_u - want) <= 1e-12 * spectral_norm(want)

    def test_near_axis_raises(self):
        with pytest.raises(NonHyperbolicError):
            spectral_projection(np.diag([1e-12, -1.0]))
        with pytest.raises(NonHyperbolicError):
            spectral_projection(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_generator_raises_typed_error(self, bad):
        with pytest.raises(ConfigurationError, match="non-finite"):
            spectral_projection([[bad]])
        a = np.array([[-1.0, 0.5], [bad, 2.0]])
        with pytest.raises(ConfigurationError, match="non-finite"):
            spectral_projection(a)
        with pytest.raises(ConfigurationError, match="non-finite"):
            autonomous_certificate(a)

    def test_sign_iteration_that_fails_raises(self, monkeypatch):
        # an eigenvalue on the imaginary axis makes an iterate singular
        for a in ([[0.0]], [[0.0, 1.0], [-1.0, 0.0]], np.diag([1.0, 0.0, -2.0])):
            with pytest.raises(NonHyperbolicError, match="sign iteration"):
                dichotomy._sign_projector(np.asarray(a))
        # and an iteration cut off before it settles fails closed too
        monkeypatch.setattr(dichotomy, "_SIGN_MAX_ITER", 2)
        with pytest.raises(NonHyperbolicError, match="did not converge"):
            dichotomy._sign_projector(
                np.random.default_rng(5).standard_normal((8, 8)))


class TestExpm:
    """The package's ``expm`` against ``scipy.linalg.expm``."""

    @pytest.mark.parametrize("n_modes", [4, 8, 16])
    def test_wave_generators_match_scipy_to_1e_13(self, n_modes):
        # the CLI's wave generator, at the RK4 steps and the certificate's
        # scan step 40 / 2047; 4 modes stay below the Pade-13 norm bound,
        # 8 and 16 modes take 1 to 4 squarings
        a = autonomous_wave(n_modes, 1.0, lambda u: u - u ** 3,
                            lambda u: 1.0 - 3.0 * u ** 2).a_matrix
        for step in (1 / 64, -1 / 64, 1 / 32, 40 / 2047):
            want = expm(a * step)
            got = dichotomy.expm(a * step)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_random_matrices_match_scipy_to_1e_12(self):
        gen = np.random.default_rng(31)
        for d in range(1, 12):
            for _ in range(20):
                a = gen.standard_normal((d, d))
                want = expm(a)
                got = dichotomy.expm(a)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_diagonal_is_exact(self):
        diag = np.array([-3.0, 0.0, 0.7, 12.5])
        assert np.array_equal(dichotomy.expm(np.diag(diag)),
                              np.diag(np.exp(diag)))
        assert np.array_equal(dichotomy.expm([[-0.5]]), [[np.exp(-0.5)]])


class TestCertificate:
    @pytest.mark.parametrize("bound, exponent, match", [
        (np.nan, 0.5, "bound must be >= 1"),
        (np.inf, 0.5, "bound must be >= 1"),
        (0.5, 0.5, "bound must be >= 1"),
        (1.0, np.nan, "exponent must be positive"),
        (1.0, np.inf, "exponent must be positive"),
        (1.0, 0.0, "exponent must be positive"),
    ])
    def test_non_finite_or_out_of_range_constants_rejected(self, bound,
                                                           exponent, match):
        with pytest.raises(ConfigurationError, match=match):
            DichotomyCertificate.constant(np.eye(1), bound, exponent)

    @pytest.mark.parametrize("shape, first", [
        ((2, 2), None), ((2, 2, 2), None), ((0, 2, 2), 0), ((3, 2, 1), 0)])
    def test_projections_must_be_a_stack(self, shape, first):
        with pytest.raises(ConfigurationError, match="an \\(N, d, d\\) stack"):
            DichotomyCertificate(1.0, 0.5, np.zeros(shape), first)

    def test_readers_stack_the_family_by_node(self):
        family = np.arange(24.0).reshape(6, 2, 2)  # nodes 3, ..., 8
        cert = DichotomyCertificate(1.0, 0.5, family, first=3)
        assert np.array_equal(cert.proj_s([8, 3, 5]), family[[5, 0, 2]])
        assert np.array_equal(cert.proj_u(range(4, 6)),
                              np.eye(2) - family[1:3])
        const = DichotomyCertificate.constant(SADDLE, 1.0, 0.5)
        got = const.proj_s(range(-2, 3))
        assert got.shape == (5, 2, 2) and got.flags["C_CONTIGUOUS"]
        assert all(np.array_equal(m, SADDLE) for m in got)

    def test_missing_node_is_named(self):
        # one rule for every reader: the first node outside the family
        fam = DichotomyCertificate(1.0, np.log(2.0),
                                   np.repeat(np.diag([1.0, 0.0])[None], 6, 0),
                                   first=0)  # nodes 0, ..., 5
        missing = "certificate has no projection at node 6$"
        with pytest.raises(ConfigurationError, match=missing):
            verify_dichotomy(DiscreteCocycle.constant(SADDLE), fam, (0, 7))
        with pytest.raises(ConfigurationError, match=missing):
            projection_distance(rotated_saddle()[1], fam, (0, 7))
        with pytest.raises(ConfigurationError, match=missing):
            bounded_solution(DiscreteCocycle.constant(SADDLE), fam,
                             DiscreteCocycle.constant(np.zeros((2, 2))).step,
                             ForcingSequence.zeros(0, 6, 2))


class TestAutonomousCertificate:
    def test_diagonal_saddle(self):
        cert = autonomous_certificate(np.diag([-1.0, 1.0]))
        assert cert.bound == 1.0
        assert abs(cert.exponent - 0.9) < 1e-12
        assert np.allclose(cert.proj_s([0])[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_pure_decay(self):
        cert = autonomous_certificate(-np.eye(2))
        assert np.allclose(cert.proj_s([0])[0], np.eye(2))
        assert np.allclose(cert.proj_u([0])[0], 0.0)
        assert cert.bound == 1.0

    def test_jordan_block_needs_transient_headroom(self):
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        cert = autonomous_certificate(a)
        assert cert.bound > 1.0
        # dense-scan oracle of sup |e^{At}| e^{alpha t}
        ts = np.linspace(0.0, 40.0, 4001)
        scan = max(spectral_norm(expm(a * t)) * np.exp(cert.exponent * t)
                   for t in ts)
        assert cert.bound >= scan * (1.0 - 1e-6)
        assert cert.bound <= scan * 1.02  # ceil to 3 significant digits


class TestEnvelopeScan:
    # generators: the wave demo's 8x8 (all stable), a non-normal saddle
    # (eigenvalues -1, 1/2, -2) and a scalar; counts: the short edge cases,
    # the kernel tables of the hyperbolic runs and the autonomous scan
    GENERATORS = {
        "wave": autonomous_wave(4, 1.0, lambda u: u - u ** 3,
                                lambda u: 1.0 - 3.0 * u ** 2).a_matrix,
        "saddle": np.array([[-1.0, 5.0, 0.0], [0.0, 0.5, 3.0],
                            [0.0, 0.0, -2.0]]),
        "scalar": np.array([[-0.7]]),
    }

    @pytest.mark.parametrize("count", [1, 2, 3, 717, 1383, 2048])
    @pytest.mark.parametrize("name", GENERATORS)
    def test_doubled_tables_match_sequential_scan(self, name, count):
        # the step of autonomous_certificate's scan, so the long tables
        # reach its span of 40 / gap
        a = self.GENERATORS[name]
        pi_u, gap = spectral_projection(a)
        pi_s = np.eye(len(a)) - pi_u
        h = max(4.0, 40.0 / gap) / 2047
        args = (pi_s, pi_u, dichotomy.expm(a * h), dichotomy.expm(-a * h),
                count)
        got = dichotomy._envelope_scan(*args)
        want = envelope_scan_sequential(*args)
        assert got.shape == (2, count, len(a), len(a))
        err = np.linalg.norm(got - want, 2, axis=(-2, -1))
        scale = np.maximum(1.0, np.linalg.norm(want, 2, axis=(-2, -1)))
        assert np.all(err <= 1e-13 * scale)
        ts = h * np.arange(count)
        alpha = gap * (1.0 - dichotomy.ALPHA_MARGIN)
        assert (dichotomy._envelope_bound(got, alpha, ts)
                == dichotomy._envelope_bound(want, alpha, ts))


class TestVerify:
    def test_autonomous_passes(self):
        a = np.diag([-1.0, 1.0])
        cert = autonomous_certificate(a)
        rep = verify_dichotomy(ContinuousCocycle.constant(a), cert, (-3, 3),
                               slack=1.01)
        assert rep.passed
        assert rep.axioms["commutation"]["residual"] < 1e-10

    def test_idempotence_residual_covers_the_window_only(self):
        # a family on nodes [0, 10] whose projection at node 9, outside the
        # verified window, is not idempotent (its residual would read 0.11)
        family = np.repeat(np.diag([1.0, 0.0])[None], 11, 0)
        family[9] = [[1.1, 0.0], [0.0, 0.0]]
        cert = DichotomyCertificate(1.0, np.log(2.0), family, first=0)
        rep = verify_dichotomy(DiscreteCocycle.constant(SADDLE), cert, (0, 5))
        assert rep.meta["idempotence_residual"] == 0.0

    def test_normal_matrices_slack(self, rng):
        for _ in range(3):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            a = q @ np.diag([-2.0, -0.5, 1.5]) @ q.T
            cert = autonomous_certificate(a)
            rep = verify_dichotomy(ContinuousCocycle.constant(a), cert,
                                   (-2, 2), slack=1.05)
            assert rep.passed

    def test_jordan_slack(self):
        a = np.array([[-1.0, 1.0], [0.0, -1.0]])
        cert = autonomous_certificate(a)
        rep = verify_dichotomy(ContinuousCocycle.constant(a), cert, (-2, 2),
                               slack=1.5)
        assert rep.passed

    @pytest.mark.parametrize("half", [3, 48])
    def test_doubled_exponent_fails(self, half):
        a = np.diag([-1.0, 1.0])
        cert = autonomous_certificate(a)
        bad = DichotomyCertificate.constant(cert.proj_s([0])[0], cert.bound,
                                            2.0 * cert.exponent)
        rep = verify_dichotomy(ContinuousCocycle.constant(a), bad,
                               (-half, half), slack=1.01)
        assert not rep.passed
        assert not rep.axioms["forward_decay"]["passed"]

    @pytest.mark.parametrize("half", [3, 48])
    def test_unstable_projection_identity_fails_backward(self, half):
        saddle = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
        bad = DichotomyCertificate.constant(np.zeros((2, 2)), 1.0,
                                            np.log(2.0))
        rep = verify_dichotomy(saddle, bad, (-half, half), slack=1.05)
        assert not rep.passed
        assert not rep.axioms["backward_decay"]["passed"]

    @pytest.mark.parametrize("half", [3, 48])
    def test_stable_projection_identity_fails_forward(self, half):
        saddle = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
        bad = DichotomyCertificate.constant(np.eye(2), 1.0, np.log(2.0))
        rep = verify_dichotomy(saddle, bad, (-half, half), slack=1.05)
        assert not rep.passed
        assert not rep.axioms["forward_decay"]["passed"]

    @pytest.mark.parametrize("half", [3, 48])
    def test_tilted_projections_fail(self, half):
        # the saddle's robust certificate with every Pi^s tilted by 1e-3 rad
        base, base_cert, pert = rotated_saddle()
        cert = robust_dichotomy_discrete(base, base_cert, pert, (-half, half),
                                         verify=False)
        c, s = np.cos(1e-3), np.sin(1e-3)
        tilt = np.array([[c, -s], [s, c]])
        bad = DichotomyCertificate(
            bound=cert.bound, exponent=cert.exponent,
            projections=tilt @ cert.projections @ tilt.T, first=cert.first)
        rep = verify_dichotomy(pert, bad, (-half, half), slack=1.1)
        assert not rep.passed
        assert not rep.axioms["commutation"]["passed"]
        assert not rep.axioms["invertibility"]["passed"]

    @pytest.mark.parametrize("half", [24, 48])
    def test_saddle_certificate_passes_long_windows(self, half):
        base, base_cert, pert = rotated_saddle()
        cert = robust_dichotomy_discrete(base, base_cert, pert, (-half, half),
                                         slack=1.1)
        rep = cert.meta["verification"]
        assert rep.passed
        short = robust_dichotomy_discrete(base, base_cert, pert, (-8, 8),
                                          slack=1.1).meta["verification"]
        for axiom in ("forward_decay", "backward_decay"):
            assert rep.axioms[axiom]["max_ratio"] == \
                short.axioms[axiom]["max_ratio"]

    @pytest.mark.parametrize("half", [3, 5, 8])
    @pytest.mark.parametrize("case", ["time_varying", "discretized",
                                      "continuous"])
    def test_ratios_match_per_pair_oracle(self, case, half):
        nodes = list(range(-half, half + 1))
        if case == "time_varying":
            steps, projections = time_varying_saddle((-half, half))
            cocycle = DiscreteCocycle(pointwise(lambda n: steps[n]), 2)
            cert = DichotomyCertificate(bound=1.0, exponent=0.8,
                                        projections=projections, first=-half)
        else:
            a = np.array([[0.0, 1.0], [2.0, -1.0]])  # eigenvalues 1, -2
            cocycle = ContinuousCocycle.constant(a)
            # exponent above both rates: the ratios peak at long horizons
            cert = DichotomyCertificate.constant(
                autonomous_certificate(a).proj_s([0])[0], 1.0, 2.2)
            if case == "discretized":
                cocycle = discretize(cocycle)
        rep = verify_dichotomy(cocycle, cert, (-half, half))
        fwd, bwd = oracle_ratios(cocycle, cert, nodes)
        assert rep.axioms["forward_decay"]["max_ratio"] == \
            pytest.approx(fwd, rel=1e-10)
        assert rep.axioms["backward_decay"]["max_ratio"] == \
            pytest.approx(bwd, rel=1e-10)

    def test_leakage_charged_against_roughness_threshold(self):
        # Pi^s tilted by 3e-7 rad: leakage and commutation residual stay
        # below comm_tol, but K * leakage exceeds delta_threshold(ln 2) = 1/3
        # once K = 1e6, and the roughness theorem no longer applies
        saddle = DiscreteCocycle.constant(SADDLE)
        c, s = np.cos(3e-7), np.sin(3e-7)
        tilt = np.array([[c, -s], [s, c]])
        pi_s = tilt @ np.diag([1.0, 0.0]) @ tilt.T
        for bound, charged_ok in ((1.0, True), (1e6, False)):
            cert = DichotomyCertificate.constant(pi_s, bound, np.log(2.0))
            rep = verify_dichotomy(saddle, cert, (-3, 3))
            inv = rep.axioms["invertibility"]
            assert rep.axioms["commutation"]["passed"]
            assert inv["leakage"] <= inv["tol"]
            assert inv["charged_leakage"] == bound * inv["leakage"]
            assert inv["passed"] is charged_ok
            assert rep.passed is charged_ok

    def test_strong_saddle_passes_long_window(self):
        # the stable kernel underflows to 0 where e^{alpha t} overflows
        step = np.diag([1e-4, 1e4])
        cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0,
                                             0.9 * np.log(1e4))
        rep = verify_dichotomy(DiscreteCocycle.constant(step), cert, (-48, 48))
        assert rep.passed
        assert rep.axioms["forward_decay"]["max_ratio"] == 1.0

    def test_non_finite_step_raises_typed_error(self):
        steps = {n: SADDLE for n in range(-3, 3)}
        steps[1] = np.array([[0.5, np.nan], [0.0, 2.0]])
        cocycle = DiscreteCocycle(pointwise(lambda n: steps[n]), 2)
        cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0,
                                             np.log(2.0))
        with pytest.raises(SplitflowError, match="node 1"):
            verify_dichotomy(cocycle, cert, (-3, 3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_projection_raises_typed_error(self, bad):
        # a constant projection, and one node of a family, fail closed
        # before the march factors them
        saddle = DiscreteCocycle.constant(SADDLE)
        constant = DichotomyCertificate.constant(
            [[1.0, 0.0], [0.0, bad]], 1.0, np.log(2.0))
        with pytest.raises(SplitflowError,
                           match=r"non-finite projection at node -3 \(7 of 7"):
            verify_dichotomy(saddle, constant, (-3, 3))
        family = np.repeat(np.diag([1.0, 0.0])[None], 7, axis=0)
        family[5] = np.array([[1.0, bad], [0.0, 0.0]])  # node 2
        cert = DichotomyCertificate(bound=1.0, exponent=np.log(2.0),
                                    projections=family, first=-3)
        with pytest.raises(SplitflowError,
                           match=r"non-finite projection at node 2 \(1 of 7"):
            verify_dichotomy(saddle, cert, (-3, 3))

    @pytest.mark.parametrize("window", [
        (-3, 0, 3), (-3,), [-3, 3], range(-3, 4), (-3.0, 3.0), ("-3", "3"),
        TimeGrid(-3.0, 3.0, 0.25), None])
    def test_window_must_be_a_pair_of_nodes(self, window):
        saddle = DiscreteCocycle.constant(SADDLE)
        cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0,
                                             np.log(2.0))
        message = re.escape(f"window {window!r} is not a pair (n_lo, n_hi)")
        with pytest.raises(ConfigurationError, match=message):
            verify_dichotomy(saddle, cert, window)
        with pytest.raises(ConfigurationError, match=message):
            projection_distance(cert, cert, window)
        assert verify_dichotomy(saddle, cert, (np.int64(-3), 3)).passed

    def test_non_finite_unit_step_raises_typed_error(self, monkeypatch):
        # the unit steps come from the unit-flow table, still checked finite
        c = ContinuousCocycle.constant([[-1.0]])
        flows = c.unit_flows(range(-3, 2)).copy()
        flows[2, -1] = np.inf
        monkeypatch.setattr(ContinuousCocycle, "unit_flows",
                            lambda self, shifts: flows)
        cert = DichotomyCertificate.constant([[1.0]], 1.0, 0.5)
        with pytest.raises(SplitflowError, match=r"non-finite unit step at node -1 "):
            verify_dichotomy(c, cert, (-3, 2))


def _assert_matches_all_pairs(cocycle, cert, window, slack=1.05):
    """The verifier's decay axioms equal the all-pairs oracle's, value and
    location exactly, and the verdicts follow."""
    rep = verify_dichotomy(cocycle, cert, window, slack=slack)
    for axiom, (ratio, worst) in zip(("forward_decay", "backward_decay"),
                                     all_pairs_ratios(cocycle, cert, window)):
        got = rep.axioms[axiom]
        assert got["max_ratio"] == ratio
        assert got["worst"] == worst
        assert got["passed"] is (ratio <= slack)
    return rep


class TestStreamedVerifier:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_discrete_matches_all_pairs(self, seed):
        # rotating saddles of random size, constants and windows; the
        # exponent ranges past the decay rates, so the max moves between
        # horizon 0 and the longest horizons
        gen = np.random.default_rng(seed)
        dim = int(gen.integers(1, 6))
        n_stable = int(gen.integers(0, dim + 1))
        half = int(gen.integers(2, 25))
        cocycle, cert = rotating_saddle(
            (-half, half), dim, n_stable, seed=seed,
            bound=float(gen.uniform(1.0, 3.0)),
            exponent=float(gen.uniform(0.05, 1.2)))
        _assert_matches_all_pairs(cocycle, cert, (-half, half))

    @pytest.mark.parametrize("seed", range(4))
    def test_doctored_projections_match_all_pairs(self, seed):
        # projections that are not invariant: the ratios still match, and
        # so does the rejection
        gen = np.random.default_rng(100 + seed)
        cocycle, cert = rotating_saddle((-10, 10), 3, 2, seed=seed)
        tilt = np.linalg.qr(np.eye(3) + 0.05 * gen.standard_normal((3, 3)))[0]
        bad = DichotomyCertificate(
            bound=1.0, exponent=0.5,
            projections=tilt @ cert.projections @ tilt.T, first=cert.first)
        rep = _assert_matches_all_pairs(cocycle, bad, (-10, 10))
        assert not rep.passed

    @pytest.mark.parametrize("case", ["constant", "time_varying"])
    def test_continuous_matches_all_pairs(self, case):
        # fractional horizons included
        a = np.array([[0.0, 1.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.3, -1.5]])
        cert = autonomous_certificate(a)
        if case == "constant":
            cocycle = ContinuousCocycle.constant(a)
        else:
            wobble = np.array([[0.0, 0.1, 0.0], [-0.1, 0.0, 0.2],
                               [0.0, 0.0, 0.1]])
            cocycle = ContinuousCocycle(
                lambda ts: a + np.sin(ts)[:, None, None] * wobble, 3)
        for k_bound, alpha in ((cert.bound, cert.exponent), (1.0, 2.5)):
            c = DichotomyCertificate.constant(cert.proj_s([0])[0], k_bound, alpha)
            _assert_matches_all_pairs(cocycle, c, (-4, 4))

    @pytest.mark.parametrize("offsets", [1, 3])
    def test_blocks_of_offsets_match_all_pairs(self, offsets, monkeypatch):
        # blocks of one and of three offsets, so the running max carries
        # ties and maxima across blocks
        n = 21
        monkeypatch.setattr(dichotomy, "_BLOCK_BYTES", offsets * 8 * n * 9)
        cocycle, cert = rotating_saddle((-10, 10), 3, 2, seed=9, bound=1.3,
                                        exponent=0.6)
        _assert_matches_all_pairs(cocycle, cert, (-10, 10))
        a = np.array([[0.0, 1.0, 0.0], [2.0, -1.0, 0.5], [0.0, 0.3, -1.5]])
        monkeypatch.setattr(dichotomy, "_BLOCK_BYTES",
                            offsets * 8 * 9 * UNIT_SAMPLES * 9)
        _assert_matches_all_pairs(ContinuousCocycle.constant(a),
                                  autonomous_certificate(a), (-4, 4))
        step = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
        monkeypatch.setattr(dichotomy, "_BLOCK_BYTES", offsets * 8 * n * 4)
        ties = _assert_matches_all_pairs(step, DichotomyCertificate.constant(
            np.diag([1.0, 0.0]), 1.0, np.log(2.0)), (-10, 10))
        assert ties.axioms["forward_decay"]["worst"][0] == -10

    @pytest.mark.parametrize("dim", [1, 2])
    def test_exact_ties_take_the_first_pair(self, dim):
        # a constant cocycle: at each horizon every source has the same
        # ratio, bit for bit, so the max ties across all sources and the
        # first in C order, source -12, wins
        step, pi_s = np.diag([0.5, 2.0][:dim]), np.diag([1.0, 0.0][:dim])
        cert = DichotomyCertificate.constant(pi_s, 1.0, np.log(2.0))
        rep = _assert_matches_all_pairs(DiscreteCocycle.constant(step), cert,
                                        (-12, 12))
        fwd, bwd = (rep.axioms[a] for a in ("forward_decay", "backward_decay"))
        assert fwd["max_ratio"] == pytest.approx(1.0, rel=1e-14)
        assert fwd["worst"][0] == -12
        if dim == 2:  # (source, offset) of the first target, node -12
            assert bwd["worst"][0] - bwd["worst"][1] == -12
        else:
            assert bwd["worst"] is None

    def test_offset_reduction_is_the_first_argmax_in_c_order(self):
        # small integer norms under unit weights tie exactly and often; the
        # reduction block of offsets by block must return the first max of
        # the whole [source, offset, fraction] table, as argmax picks it,
        # also where tied pairs have different Frobenius bounds
        gen = np.random.default_rng(7)
        n, subs = 7, 3
        for _ in range(200):
            table = np.zeros((n, n, subs, 2, 2))  # [source, offset, fraction]
            table[..., 0, 0] = gen.integers(0, 4, (n, n, subs))
            table[..., 1, 1] = table[..., 0, 0] * gen.uniform(0.0, 1.0,
                                                              (n, n, subs))
            best, k0 = (0.0, None), 0
            while k0 < n:  # blocks of 1 to 3 offsets
                k1 = min(n, k0 + int(gen.integers(1, 4)))
                best = dichotomy._running_max(best, table[:, k0:k1],
                                              np.ones(subs), 1.0, (0, k0, 0))
                k0 = k1
            norms = np.linalg.norm(table, 2, axis=(-2, -1))
            at = tuple(int(a) for a in np.unravel_index(np.argmax(norms),
                                                        norms.shape))
            assert best == ((norms.max(), at) if norms.max() else (0.0, None))

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_kernel_value_raises(self, dim, bad):
        # a kernel value with an inf or NaN entry has no decay ratio: the
        # reduction fails closed at every d, rather than reading it as inf
        # (d = 1) or as nothing (NaN, and inf at d >= 2)
        block = np.zeros((2, 1, 1, dim, dim))
        block[0, 0, 0] = np.eye(dim)
        block[1, 0, 0, 0, 0] = bad
        with pytest.raises(SplitflowError, match="non-finite"):
            dichotomy._running_max((0.0, None), block, np.ones(1), 1.0,
                                   (0, 0, 0))

    @pytest.mark.parametrize("dim", [1, 2])
    def test_overflowing_march_raises(self, dim):
        # steps diag(1e200, 0.5, ...) at nodes 0 and 1 overflow the forward
        # march at offset 2 from node 0 first; without the check, d = 1 read
        # ratio inf and d = 2 only the finite 2e200 of the values before the
        # overflow.  Steps diag(1e-200, 2, ...) overflow the restricted
        # inverses of the backward march from node 2.  The error names the
        # pair, and numpy warns of nothing.
        for branch, rate, entry, pi_s, source in (
                ("forward", 0.5, 1e200, 1.0, 0),
                ("backward", 2.0, 1e-200, 0.0, 2)):
            def step(ns):
                out = np.array([rate * np.eye(dim)] * len(ns))
                out[(ns == 0) | (ns == 1), 0, 0] = entry
                return out

            cert = DichotomyCertificate.constant(pi_s * np.eye(dim), 1.0,
                                                 np.log(2.0))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SplitflowError, match=re.escape(
                        f"non-finite {branch} kernel value from node "
                        f"{source} at horizon 2.0")):
                    verify_dichotomy(DiscreteCocycle(step, dim), cert,
                                     (-3, 3))

    def test_finite_march_makes_no_locating_pass(self, monkeypatch):
        # spectral_argmax's finiteness check is the only pass over a finite
        # block; the overflow locator reads a block only after it failed
        located = []
        real = dichotomy._finite_kernel
        monkeypatch.setattr(dichotomy, "_finite_kernel",
                            lambda *a, **k: located.append(a) or real(*a, **k))
        cocycle, cert = rotating_saddle((-30, 30), 3, 2, seed=5)
        verify_dichotomy(cocycle, cert, (-30, 30))
        flow = ContinuousCocycle.constant([[-1.0]])
        stable = DichotomyCertificate.constant([[1.0]], 1.0, 1.0)
        assert verify_dichotomy(flow, stable, (-4, 4)).passed
        assert located == []

    def test_svds_only_for_pairs_that_can_reach_the_max(self, monkeypatch):
        cocycle, cert = rotating_saddle((-30, 30), 3, 2, seed=5)
        rows = []
        real = splitflow.cocycle.spectral_norms
        monkeypatch.setattr("splitflow.cocycle.spectral_norms",
                            lambda m: rows.append(len(m)) or real(m))
        verify_dichotomy(cocycle, cert, (-30, 30))
        pairs = 61 * 62  # both branches, every source and offset
        assert 0 < sum(rows) < pairs // 10

    def test_long_window_memory_is_linear(self):
        # a discrete d = 2 verification on +-400 (801 nodes): the all-pairs
        # tables alone would take 41 MB
        import tracemalloc

        cocycle, cert = rotating_saddle((-400, 400), 2, 1, seed=3)
        tracemalloc.start()
        try:
            rep = verify_dichotomy(cocycle, cert, (-400, 400))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.axioms["forward_decay"]["max_ratio"] > 0.0
        assert peak < 10e6


class TestGreenKernel:
    def test_stable_scalar(self):
        c = DiscreteCocycle.constant([[0.5]])
        cert = DichotomyCertificate.constant([[1.0]], 1.0, np.log(2.0))
        g = GreenKernel(c, cert)
        for n in range(0, 6):
            assert g.eval(n, 0)[0, 0] == 0.5 ** n
        for n in range(-4, 0):
            assert g.eval(n, 0)[0, 0] == 0.0

    def test_unstable_scalar(self):
        c = DiscreteCocycle.constant([[2.0]])
        cert = DichotomyCertificate.constant([[0.0]], 1.0, np.log(2.0))
        g = GreenKernel(c, cert)
        for n in range(0, 5):
            assert g.eval(n, 0)[0, 0] == 0.0
        for n in range(-4, 0):
            assert abs(g.eval(n, 0)[0, 0] - (-(2.0 ** n))) < 1e-15

    def test_forward_branch_decays_on_time_varying_saddle(self):
        # 80 steps at stable rate about 1/2 against unstable rate about 2:
        # round-off in the stable projection must not grow along the
        # unstable range
        steps, projections = time_varying_saddle((-40, 40))
        c = DiscreteCocycle(pointwise(lambda n: steps[n]), 2)
        cert = DichotomyCertificate(bound=1.5, exponent=0.5,
                                    projections=projections, first=-40)
        g = GreenKernel(c, cert)
        for j in (20, 40, 60, 80):
            assert spectral_norm(g.eval(-40 + j, -40)) < 0.5 ** j

    def test_jump_identity(self):
        c = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
        cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0,
                                             np.log(2.0))
        g = GreenKernel(c, cert)
        for s in (-2, 0, 3):
            assert g.jump_residual(s) < 1e-15

    def test_bounded_solution_representation_exact(self):
        # stable scalar with impulse forcing: sum_k G(n, k+1) f_k is the
        # explicit geometric solution, exactly in powers of two
        c = DiscreteCocycle.constant([[0.5]])
        cert = DichotomyCertificate.constant([[1.0]], 1.0, np.log(2.0))
        g = GreenKernel(c, cert)
        z = 1.0
        for n in range(0, 8):
            val = sum(g.eval(n, k + 1)[0, 0] * (z if k == -1 else 0.0)
                      for k in range(-5, 8))
            assert val == 0.5 ** n


class TestProjectionDistance:
    def test_identical_is_zero(self):
        cert = autonomous_certificate(np.diag([-1.0, 1.0]))
        assert projection_distance(cert, cert, (-4, 4)) == 0.0

    def test_paper_bound_closed_form(self):
        got = paper_projection_bound(np.log(2.0), np.log(2.0), 0.01)
        assert abs(got - 0.01 * (0.5 + 0.5) / (1.0 - 0.25)) < 1e-15
        assert abs(got - 0.013333333333333334) < 1e-12

    def test_rotated_saddle_within_bound(self):
        d_mat = np.diag([0.5, 2.0])
        eps = 0.01
        rot = np.array([[np.cos(eps), -np.sin(eps)],
                        [np.sin(eps), np.cos(eps)]])
        # certificates of the generators whose time-one maps are the steps
        cert_a = autonomous_certificate(logm(d_mat).real)
        cert_b = autonomous_certificate(logm(rot @ d_mat).real)
        dist = projection_distance(cert_a, cert_b, (-3, 3))
        # hypothesis constant: sup K |phi_1 - psi_1|
        eps_hyp = max(cert_a.bound, cert_b.bound) * spectral_norm(rot @ d_mat - d_mat)
        bound = paper_projection_bound(cert_a.exponent, cert_b.exponent, eps_hyp)
        assert dist <= bound

    def test_window_mismatch_rejected(self):
        cert = autonomous_certificate(np.diag([-1.0, 1.0]))
        node_cert = DichotomyCertificate(
            bound=1.0, exponent=0.5, projections=np.diag([1.0, 0.0])[None],
            first=0)
        with pytest.raises(ConfigurationError, match="projection at node -2$"):
            projection_distance(cert, node_cert, (-2, 2))
