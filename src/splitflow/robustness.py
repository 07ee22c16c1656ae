"""Perturbed-dichotomy constants and the robustness pipelines.

The discrete pipeline: measure the one-step perturbation size against the
admissibility threshold, rebuild the projection family from unit-impulse
bounded solutions, attach the explicit perturbed constants, and verify the
result; it reads each cocycle's steps in one batched call for the window and
one for the impulse span's outer nodes.  The continuous pipeline discretizes
at unit time, runs the discrete pipeline unverified, and lifts the
certificate back with the intra-unit envelope factor.  Each verifies the
certificate it emits once: *checked*, not trusted.
"""

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .cocycle import _unit_envelope, discretize, spectral_sup, stack_steps
from .dichotomy import (DichotomyCertificate, _window_nodes, delta_threshold,
                        verify_dichotomy)
from .errors import RobustnessHypothesisError, SplitflowError
from .greens import _impulse_span, impulse_response_projection
from .io import jsonable

SAFETY = 0.9  # applied to the strict thresholds: finite-window sups run low


def gronwall_constants(a, delta, d_const):
    """Decay rates ``(a_tilde, b_tilde)`` of the discrete Gronwall estimate.

    Requires ``delta < (1/D) (1-e^{-a})/(1+e^{-a})`` and a nonnegative
    radicand; violations raise ``ValueError`` naming the condition.
    """
    if not (0.0 < a < math.inf and 0.0 < d_const < math.inf):
        raise ValueError("need a > 0 and D > 0")
    if not 0.0 <= delta < delta_threshold(a) / d_const:
        raise ValueError(
            f"Gronwall condition delta < D^-1 (1-e^-a)/(1+e^-a) fails: "
            f"delta={delta}, limit={delta_threshold(a) / d_const:.6g}"
        )
    rad = math.cosh(a) ** 2 - 1.0 - 2.0 * delta * math.sinh(a)
    if rad < 0.0:
        raise ValueError(f"Gronwall radicand is negative ({rad:.3e})")
    a_tilde = -math.log(math.cosh(a) - math.sqrt(rad))
    b_tilde = a_tilde + math.log(1.0 + 2.0 * delta * d_const * math.sinh(a))
    return a_tilde, b_tilde


@dataclass(frozen=True)
class RobustConstants:
    """Explicit constants of the perturbed dichotomy."""

    K: float
    alpha: float
    delta: float
    rho: float
    alpha_tilde: float
    beta_tilde: float
    D1: float
    D2: float
    M: float


def robust_constants(k_bound, alpha, delta):
    """Perturbed bound and exponent from the base constants and delta.

    ``delta`` must sit strictly below :func:`delta_threshold`; all the
    closed forms then evaluate to finite values with ``M >= K``,
    ``0 < alpha_tilde <= alpha`` and ``beta_tilde >= alpha_tilde``.
    """
    if not 1.0 <= k_bound < math.inf:
        raise ValueError(f"bound must be >= 1, got {k_bound}")
    thr = delta_threshold(alpha)
    if not 0.0 <= delta < thr:
        raise RobustnessHypothesisError(
            f"delta={delta:.6g} is not below the threshold {thr:.6g}",
            measured=delta, threshold=thr,
        )
    e = math.exp(-alpha)
    rho = delta * (1.0 + e) / (1.0 - e)
    a_tilde, b_tilde = gronwall_constants(alpha, delta, 1.0)
    den1 = 1.0 - delta * e / (1.0 - math.exp(-(alpha + a_tilde)))
    den2 = 1.0 - delta * math.exp(-b_tilde) / (1.0 - math.exp(-(alpha + b_tilde)))
    if den1 <= 0.0 or den2 <= 0.0:
        raise SplitflowError("perturbed-constant denominators are not positive; "
                             "delta too close to the threshold")
    d1, d2 = 1.0 / den1, 1.0 / den2
    m = k_bound * (1.0 + delta / ((1.0 - rho) * (1.0 - e))) * max(d1, d2)
    return RobustConstants(K=k_bound, alpha=alpha, delta=delta, rho=rho,
                           alpha_tilde=a_tilde, beta_tilde=b_tilde,
                           D1=d1, D2=d2, M=m)


def robust_dichotomy_discrete(base, base_cert, perturbed, window, *,
                              slack=1.1, safety=SAFETY, tol=1e-10,
                              trunc_tol=1e-10, verify=True):
    """Perturbed dichotomy certificate for a nearby discrete cocycle.

    Measures ``delta_eff = sup_n K |psi_1(n) - phi_1(n)|`` over the band the
    impulse solves will touch, requires it below ``safety`` times the
    threshold, rebuilds projections by unit impulses against the *base*
    Green kernel, and attaches the perturbed constants.  The emitted
    certificate is verified against the perturbed cocycle unless
    ``verify=False``.
    """
    nodes = _window_nodes(window)
    n_lo, n_hi = nodes[0], nodes[-1]
    k_bound, alpha = base_cert.bound, base_cert.exponent

    def b_steps(ns):  # B = psi - phi at the nodes ns, one call per cocycle
        return (stack_steps(perturbed.step, ns, perturbed.dim)
                - stack_steps(base.step, ns, base.dim))

    # B is read once per node of the impulse span: the window's stack sizes
    # the span, the span's stack measures delta_eff, and the impulse solves
    # (same span rule, same window) look their steps up in it
    b_window = b_steps(np.arange(n_lo, n_hi + 1))
    span_lo, span_hi = _impulse_span(base_cert, b_window, n_lo, n_hi, trunc_tol)
    b_span = np.insert(b_steps(np.r_[span_lo:n_lo, n_hi + 1:span_hi + 1]),
                       n_lo - span_lo, b_window, axis=0)
    delta_eff = k_bound * spectral_sup(b_span)
    thr = delta_threshold(alpha)
    if delta_eff > safety * thr:
        raise RobustnessHypothesisError(
            f"measured delta_eff={delta_eff:.6g} exceeds {safety:g} x "
            f"threshold={thr:.6g}",
            measured=delta_eff, threshold=safety * thr,
        )
    consts = robust_constants(k_bound, alpha, delta_eff)
    cert = DichotomyCertificate(
        bound=max(consts.M, 1.0), exponent=consts.alpha_tilde, discrete=True,
        projections=impulse_response_projection(
            base, base_cert, lambda ns: b_span[np.asarray(ns) - span_lo],
            nodes, tol=tol, trunc_tol=trunc_tol),
        meta={"constants": asdict(consts), "delta_eff": delta_eff,
              "threshold": thr, "safety": safety,
              "window": [n_lo, n_hi], "beta_tilde": consts.beta_tilde},
    )
    if verify:
        report = verify_dichotomy(perturbed, cert, (n_lo, n_hi), slack=slack)
        cert.meta["verification"] = report
    return cert


def lift_certificate(cc, discrete_cert, window):
    """Continuous certificate from a discrete one via the intra-unit envelope.

    The lifted bound is ``K_hat = K * sup_{0<=t<=1} |phi(t)| e^{alpha t}``,
    with the sup sampled over the window's integer shifts (the observed
    envelope; for autonomous flows it coincides with the base-point scan).
    The lifted certificate is unverified: a discrete verification record is
    not carried over.
    """
    env = _unit_envelope(cc, _window_nodes(window)[:-1], discrete_cert.exponent)
    meta = {k: v for k, v in discrete_cert.meta.items() if k != "verification"}
    return replace(discrete_cert, bound=discrete_cert.bound * env,
                   discrete=False,
                   meta={**meta, "lift_envelope": env,
                         "discrete_bound": discrete_cert.bound})


def robust_dichotomy_continuous(base_cc, base_cert, perturbed_cc, window, *,
                                slack=1.2, safety=SAFETY, tol=1e-10,
                                trunc_tol=1e-10, verify=True):
    """Perturbed continuous certificate: discretize, robustify, lift.

    The hypothesis is measured as the sampled sup over unit intervals of the
    flow distance; it must stay below ``safety * threshold / K``.  The
    emitted certificate carries the discrete perturbed constants and the
    lifted bound ``M_hat = M * sup_{0<=t<=1} |psi(t)| e^{alpha_tilde t}``.
    Every unit flow comes from the cocycles' unit-flow tables, so each is
    integrated once across the measurement, the discrete pipeline, the lift
    and the verification.  Each table is filled in two batched runs: the
    window's nodes with all their snapshots, then the impulse span's outer
    nodes, which the discrete pipeline stacks, with endpoints only.  Only
    the lifted certificate is verified, at ``slack`` against the continuous
    cocycle (``meta["verification"]``), unless ``verify=False``.
    """
    nodes = _window_nodes(window)
    n_lo, n_hi = nodes[0], nodes[-1]

    base_flows, pert_flows = (cc.unit_flows(nodes)
                              for cc in (base_cc, perturbed_cc))
    d_unit = spectral_sup(base_flows[:-1] - pert_flows[:-1])
    allowed = safety * delta_threshold(base_cert.exponent) / base_cert.bound
    if d_unit > allowed:
        raise RobustnessHypothesisError(
            f"unit-interval flow distance {d_unit:.6g} exceeds "
            f"{safety:g} x threshold/K = {allowed:.6g}",
            measured=d_unit, threshold=allowed,
        )
    # base certificate transfers to the discretization with the same constants
    cert_d = robust_dichotomy_discrete(
        discretize(base_cc), replace(base_cert, discrete=True),
        discretize(perturbed_cc), (n_lo, n_hi), safety=safety, tol=tol,
        trunc_tol=trunc_tol, verify=False,
    )
    cert = lift_certificate(perturbed_cc, cert_d, (n_lo, n_hi))
    cert.meta["d_unit"] = d_unit
    if verify:
        report = verify_dichotomy(perturbed_cc, cert, (n_lo, n_hi), slack=slack)
        cert.meta["verification"] = report
    return cert


def robustness_report(cert):
    """Machine-readable robustness report, ready for ``json.dumps``:
    thresholds, constants, residuals."""
    meta = cert.meta
    rep = meta.get("verification")
    return jsonable({
        "delta_eff": meta.get("delta_eff"),
        "threshold": meta.get("threshold"),
        "safety": meta.get("safety"),
        "constants": meta.get("constants"),
        "bound": cert.bound,
        "exponent": cert.exponent,
        "axioms": None if rep is None else rep.axioms,
        "passed": None if rep is None else rep.passed,
    })
