"""Every failed comparison of a number with its bound carries both.

One case per raise site that compares a measured number with a bound: the
exception's ``measured`` and ``threshold`` are finite and sit on the failing
side of each other, in the direction the site compares them, and
``record()`` is the ``{"error", "measured", "threshold"}`` record the
``robustness`` and ``wave`` commands and ``certify_hyperbolic`` write.
"""

import math

import numpy as np
import pytest

from splitflow import (ContinuousCocycle, ContractionMarginError,
                       DichotomyCertificate, DiscreteCocycle, ForcingSequence,
                       NonHyperbolicError, RobustnessHypothesisError,
                       SemilinearProblem, SplitflowError, ThresholdError,
                       TimeGrid, autonomous_certificate, bounded_solution,
                       find_hyperbolic_solution,
                       impulse_response_projection, pointwise,
                       robust_constants, robust_dichotomy_continuous,
                       robust_dichotomy_discrete, spectral_projection)
from splitflow import greens, hyperbolic, robustness
from splitflow.hyperbolic import eta_epsilon
from splitflow.sde_bridge import build_wave_system

LN2 = float(np.log(2.0))
WINDOW = TimeGrid(-30.0, 30.0, 1.0 / 16)


def constant_b(m):
    return DiscreteCocycle.constant(m).step


def scalar(step, exponent=LN2):
    return (DiscreteCocycle.constant([[step]]),
            DichotomyCertificate.constant([[1.0]], 1.0, exponent))


def decaying_problem():
    """``y' = -y``: no nonlinearity and no noise."""
    return SemilinearProblem(
        a_matrix=[[-1.0]], f_eta=pointwise(lambda eta, t, y: np.zeros(1)),
        f0=pointwise(lambda y: np.zeros(1)), y0_star=[0.0], r_u=1.0,
        f0_prime=pointwise(lambda y: np.zeros((1, 1))),
        f_eta_dy=pointwise(lambda eta, t, y: np.zeros((1, 1))))


def spectral_gap(monkeypatch):
    spectral_projection([[1e-12]])


def wave_spectral_gap(monkeypatch):
    # f'(0) = pi^2 = lambda_1, bit for bit
    build_wave_system(2, 1.0, lambda u: np.pi ** 2 * u,
                      lambda u: np.pi ** 2 + 0.0 * u)


def contraction_margin(monkeypatch):
    c, cert = scalar(0.5)
    bounded_solution(c, cert, constant_b([[0.4]]),
                     ForcingSequence.zeros(-20, 20, 1, 1))


def picard_residual(monkeypatch):
    c = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
    cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
    f = ForcingSequence(-20, 20, np.random.default_rng(5).standard_normal((41, 2)))
    bounded_solution(c, cert, constant_b(0.05 * np.ones((2, 2))), f,
                     tol=1e-14, max_iter=1)


def apriori_bound(monkeypatch):
    # the certificate claims decay 1/2 per step, the steps decay by 0.9
    _, cert = scalar(0.5)
    bounded_solution(DiscreteCocycle.constant([[0.9]]), cert,
                     constant_b([[0.0]]), ForcingSequence(-40, 40, np.ones((81, 1))))


def far_from_idempotent(monkeypatch):
    # the solve returns twice the projection at node 0 (residual 2)
    real = greens.bounded_solution

    def doctored(*args, **kwargs):
        sol = real(*args, **kwargs)
        sol.values[-sol.n_min] = 2.0 * np.diag([1.0, 0.0])
        return sol

    monkeypatch.setattr(greens, "bounded_solution", doctored)
    c = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
    cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
    impulse_response_projection(c, cert, constant_b(np.zeros((2, 2))), [0])


def eps_above_eps0(monkeypatch):
    # y' = -y: the thresholds sit at their caps, eps0 just under 1/4
    eta_epsilon(decaying_problem(), 0.3, 1.0, 1.0, lambda e: e)


def find(monkeypatch, lam, eps0, rho=0.0, lip=0.0):
    """:func:`find_hyperbolic_solution` on ``y' = -y`` with the sampled sups
    replaced: lambda(eta) = lam, eps0, and rho(eps), lip(eps) as multiples
    of ``beta / (2 M)``, so that each adds its value to the factor."""
    p = decaying_problem()
    unit = p.autonomous_cert.exponent / (2.0 * p.autonomous_cert.bound)
    monkeypatch.setattr(hyperbolic, "lambda_eta", lambda *a, **k: lam)
    monkeypatch.setattr(hyperbolic, "neighborhood_thresholds",
                        lambda *a: (eps0, 2.0 * eps0, eps0))
    monkeypatch.setattr(hyperbolic, "rho_modulus", lambda *a: rho * unit)
    monkeypatch.setattr(hyperbolic, "_lip_dev", lambda *a: lip * unit)
    find_hyperbolic_solution(p, 0.1, WINDOW)


def budget():
    """``beta / (6 M)`` of ``y' = -y``."""
    cert = decaying_problem().autonomous_cert
    return cert.exponent / (hyperbolic.SMALLNESS_DIVISOR * cert.bound)


def no_neighborhood(monkeypatch):
    find(monkeypatch, lam=0.0, eps0=0.0)


def lambda_over_budget(monkeypatch):
    find(monkeypatch, lam=2.0 * 0.01 * budget(), eps0=0.01)


def factor_over_limit(monkeypatch):
    find(monkeypatch, lam=0.0, eps0=0.01, lip=0.8)


def selfmap_open(monkeypatch):
    # eps_used = 0.999 eps0: lambda alone takes a third of eps_used, and
    # rho brings the self-map past it while the factor stays at 0.68
    find(monkeypatch, lam=0.99 * 0.01 * budget(), eps0=0.01, rho=0.68)


def delta_over_threshold(monkeypatch):
    robust_constants(1.0, LN2, 0.5)


def denominators_not_positive(monkeypatch):
    # no real input reaches this check: over alpha in [1e-4, 50] and delta
    # up to the threshold, both denominators stay above 1/2.  A doctored
    # gronwall_constants returns alpha_tilde just above -alpha, which sends
    # the first denominator far below zero
    monkeypatch.setattr(robustness, "gronwall_constants",
                        lambda a, delta, d: (-a + 1e-12, 1.0))
    robust_constants(1.0, LN2, 0.1)


def delta_eff_over_threshold(monkeypatch):
    base, cert = scalar(0.5)
    robust_dichotomy_discrete(base, cert, DiscreteCocycle.constant([[0.95]]),
                              (-5, 5))


def unit_flows_apart(monkeypatch):
    cc = ContinuousCocycle.constant([[-1.0]])
    robust_dichotomy_continuous(cc, autonomous_certificate(np.array([[-1.0]])),
                                ContinuousCocycle.constant([[0.5]]), (-3, 3))


above = (lambda m, t: m > t, "measured > threshold")
at_or_above = (lambda m, t: m >= t, "measured >= threshold")
CASES = [
    (spectral_gap, NonHyperbolicError, (lambda m, t: m < t, "gap < gap_tol")),
    (wave_spectral_gap, NonHyperbolicError, (lambda m, t: m < t, "gap < 1e-8")),
    (contraction_margin, ContractionMarginError, above),
    (picard_residual, SplitflowError, above),
    (apriori_bound, SplitflowError, above),
    (far_from_idempotent, SplitflowError, above),
    (eps_above_eps0, ThresholdError, at_or_above),
    (no_neighborhood, ThresholdError, (lambda m, t: m <= t, "eps0 <= 0")),
    # eps_needed >= eps0 (1 - 1e-9), measured eps_needed / eps0
    (lambda_over_budget, ContractionMarginError,
     (lambda m, t: m >= t * (1.0 - 1e-9), "measured >= (1 - 1e-9) threshold")),
    (factor_over_limit, ContractionMarginError, above),
    (selfmap_open, ContractionMarginError, at_or_above),
    (delta_over_threshold, RobustnessHypothesisError,
     (lambda m, t: not m < t, "not measured < threshold")),
    (denominators_not_positive, SplitflowError,
     (lambda m, t: m <= t, "min(den1, den2) <= 0")),
    (delta_eff_over_threshold, RobustnessHypothesisError, above),
    (unit_flows_apart, RobustnessHypothesisError, above),
]


@pytest.mark.parametrize("site, kind, failing", CASES,
                         ids=[case[0].__name__ for case in CASES])
def test_failure_carries_measured_and_threshold(monkeypatch, site, kind,
                                                failing):
    with pytest.raises(kind) as exc:
        site(monkeypatch)
    err = exc.value
    assert type(err) is kind
    assert math.isfinite(err.measured) and math.isfinite(err.threshold)
    side, rule = failing
    assert side(err.measured, err.threshold), (rule, err.measured,
                                               err.threshold)
    assert err.record() == {"error": str(err), "measured": err.measured,
                            "threshold": err.threshold}
    assert list(err.record()) == ["error", "measured", "threshold"]


def test_a_failure_without_a_number_carries_none():
    err = SplitflowError("no number")
    assert err.record() == {"error": "no number", "measured": None,
                            "threshold": None}
