"""Dichotomy certificates: construction, verification, and Green kernels.

A :class:`DichotomyCertificate` packages a projection family on a window of
integer nodes together with a bound ``K`` and an exponent ``alpha``:
the claim is that the flow decays like ``K e^{-alpha t}`` on the stable
ranges forward in time and on the unstable ranges backward in time, with the
projections commuting with the flow.  :func:`verify_dichotomy` checks the
four defining estimates numerically and reports residuals per axiom; it must
also be able to *fail* on doctored certificates, which the test suite
exercises.

Splitting of autonomous generators is done on the ordered real Schur form
(the numerically stable equivalent of the resolvent contour integral, which
the tests retain as a cross-check oracle).
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm, schur, solve_sylvester

from .cocycle import UNIT_SAMPLES, DiscreteCocycle, spectral_norm
from .errors import ConfigurationError, NonHyperbolicError
from .grids import TimeGrid
from .io import jsonable

GAP_TOL = 1e-8
ALPHA_MARGIN = 0.1


def _ceil_3sig(x):
    """Round up to 3 significant digits (reported envelope constants)."""
    if x <= 0.0:
        return 0.0
    e = math.floor(math.log10(x))
    f = 10.0 ** (e - 2)
    return math.ceil(x / f - 1e-12) * f


def _schur_projector(A, select):
    """Projector onto the invariant subspace selected on the real Schur form."""
    A = np.atleast_2d(np.asarray(A, float))
    d = A.shape[0]
    T, Z, sdim = schur(A, output="real", sort=select)
    if sdim == 0:
        return np.zeros((d, d))
    if sdim == d:
        return np.eye(d)
    T11 = T[:sdim, :sdim]
    T12 = T[:sdim, sdim:]
    T22 = T[sdim:, sdim:]
    # invariant complement in Schur coordinates: solve T11 Y - Y T22 = T12
    Y = solve_sylvester(T11, -T22, T12)
    P = np.zeros((d, d))
    P[:sdim, :sdim] = np.eye(sdim)
    P[:sdim, sdim:] = Y
    return Z @ P @ Z.T


def spectral_projection(A, gap_tol=GAP_TOL):
    """Spectral projector of a generator onto its expanding part.

    Returns ``(Pi_u, gap)`` where ``Pi_u`` projects onto the span of
    generalized eigenvectors with ``Re lambda > 0`` along the complementary
    invariant subspace, and ``gap = min |Re lambda|``.  Raises
    :class:`NonHyperbolicError` when an eigenvalue sits within ``gap_tol``
    of the imaginary axis; near-degeneracy is never split silently.
    """
    A = np.atleast_2d(np.asarray(A, float))
    eigs = np.linalg.eigvals(A)
    gap = float(np.min(np.abs(eigs.real)))
    if gap < gap_tol:
        raise NonHyperbolicError(
            f"eigenvalue within {gap_tol:g} of the imaginary axis (gap {gap:.3e})",
            gap=gap,
        )
    return _schur_projector(A, "rhp"), gap


def spectral_projection_discrete(S, gap_tol=GAP_TOL):
    """Unit-circle analogue of :func:`spectral_projection` for a step matrix.

    Returns ``(Pi_u, gap)`` with ``Pi_u`` the projector onto the eigenvalues
    with ``|lambda| > 1`` and ``gap = min |ln |lambda||``.
    """
    S = np.atleast_2d(np.asarray(S, float))
    eigs = np.linalg.eigvals(S)
    mods = np.abs(eigs)
    if np.any(mods == 0.0):
        raise NonHyperbolicError("step matrix is singular", gap=0.0)
    gap = float(np.min(np.abs(np.log(mods))))
    if gap < gap_tol:
        raise NonHyperbolicError(
            f"step eigenvalue within {gap_tol:g} of the unit circle", gap=gap
        )
    return _schur_projector(S, "ouc"), gap


@dataclass
class DichotomyCertificate:
    """Projection family with decay constants, plus verification residuals.

    ``projections`` maps integer nodes to the stable projections
    ``Pi^s``; a constant family may be stored once in
    ``constant_projection``.  ``bound`` is K >= 1 and ``exponent`` alpha > 0.
    """

    bound: float
    exponent: float
    discrete: bool
    constant_projection: np.ndarray | None = None
    projections: dict | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.bound < 1.0:
            raise ConfigurationError(f"certificate bound must be >= 1, got {self.bound}")
        if not self.exponent > 0.0:
            raise ConfigurationError(
                f"certificate exponent must be positive, got {self.exponent}"
            )
        if (self.constant_projection is None) == (self.projections is None):
            raise ConfigurationError(
                "exactly one of constant_projection / projections must be given"
            )

    @staticmethod
    def constant(pi_s, bound, exponent, discrete, meta=None):
        return DichotomyCertificate(
            bound=float(bound), exponent=float(exponent), discrete=discrete,
            constant_projection=np.atleast_2d(np.asarray(pi_s, float)),
            meta=meta or {},
        )

    @property
    def dim(self):
        p = (self.constant_projection if self.constant_projection is not None
             else next(iter(self.projections.values())))
        return p.shape[0]

    def nodes(self):
        if self.projections is None:
            return None
        return sorted(self.projections)

    def proj_s(self, n):
        if self.constant_projection is not None:
            return self.constant_projection
        try:
            return self.projections[int(n)]
        except KeyError:
            raise ConfigurationError(f"certificate has no projection at node {n}")

    def proj_u(self, n):
        return np.eye(self.dim) - self.proj_s(n)

    def idempotence_residual(self):
        mats = ([self.constant_projection] if self.constant_projection is not None
                else list(self.projections.values()))
        return max(spectral_norm(p @ p - p) for p in mats)


def _envelope_scan(pi_u, step_fwd, step_bwd, alpha, ts):
    """``(Pi^s, K)`` with K the smallest ``max(|Pi^s(t)|, |Pi^u(-t)|)
    e^{alpha t}`` bound (at least 1) over the scan times ``ts``, rounded up
    to 3 significant digits; ``step_fwd``/``step_bwd`` advance the flow by
    one scan step forward/backward."""
    pi_s = np.eye(pi_u.shape[0]) - pi_u
    m = 1.0
    cur_s, cur_u = pi_s.copy(), pi_u.copy()
    for t in ts:
        m = max(m, spectral_norm(cur_s) * np.exp(alpha * t))
        m = max(m, spectral_norm(cur_u) * np.exp(alpha * t))
        # re-project: the projections commute with the flow, and this kills
        # round-off components that would grow along the complementary part
        cur_s = pi_s @ (step_fwd @ cur_s)
        cur_u = pi_u @ (step_bwd @ cur_u)
    return pi_s, _ceil_3sig(m)


def autonomous_certificate(A, margin=ALPHA_MARGIN, scan_points=2048, gap_tol=GAP_TOL):
    """Certificate for the constant-generator flow ``t -> e^{At}``.

    The exponent is the spectral gap shaved by ``margin`` (transient growth
    of non-normal matrices needs the room); the bound is the smallest
    constant, over a dense scan and rounded up to 3 significant digits,
    for which both decay estimates hold on the scan window.
    """
    A = np.atleast_2d(np.asarray(A, float))
    pi_u, gap = spectral_projection(A, gap_tol)
    alpha = gap * (1.0 - margin)
    span = max(4.0, 40.0 / gap)
    ts = np.linspace(0.0, span, scan_points)
    pi_s, k = _envelope_scan(pi_u, expm(A * (ts[1] - ts[0])),
                             expm(-A * (ts[1] - ts[0])), alpha, ts)
    return DichotomyCertificate.constant(
        pi_s, k, alpha, discrete=False,
        meta={"gap": gap, "margin": margin, "scan_span": span,
              "scan_points": scan_points},
    )


def autonomous_certificate_discrete(S, margin=ALPHA_MARGIN, scan_len=80,
                                    gap_tol=GAP_TOL):
    """Certificate for the constant-step cocycle ``n -> S^n``."""
    S = np.atleast_2d(np.asarray(S, float))
    pi_u, gap = spectral_projection_discrete(S, gap_tol)
    alpha = gap * (1.0 - margin)
    pi_s, k = _envelope_scan(pi_u, S, np.linalg.inv(S), alpha,
                             range(scan_len + 1))
    return DichotomyCertificate.constant(
        pi_s, k, alpha, discrete=True, meta={"gap": gap, "margin": margin}
    )


def _window_nodes(window):
    if isinstance(window, TimeGrid):
        return [int(n) for n in window.integer_nodes()]
    if isinstance(window, tuple) and len(window) == 2:
        return list(range(int(window[0]), int(window[1]) + 1))
    return sorted(int(n) for n in window)


def _range_basis(proj, rank_tol=0.5):
    """Orthonormal basis of the range of a (possibly oblique) projection."""
    u, s, _ = np.linalg.svd(proj)
    return u[:, s > rank_tol]


@dataclass
class VerificationReport:
    """Per-axiom residuals and pass flags from :func:`verify_dichotomy`."""

    axioms: dict
    passed: bool
    meta: dict = field(default_factory=dict)

    def to_json(self, indent=2):
        return json.dumps(jsonable(
            {"passed": self.passed, "axioms": self.axioms, "meta": self.meta}),
            indent=indent)


def verify_dichotomy(cocycle, cert, window, slack=1.05, comm_tol=1e-6):
    """Check the dichotomy axioms of ``cert`` against ``cocycle`` on a window.

    Axioms checked, with max residuals reported:

    (a) one-step commutation of the projections with the flow (which
        propagates to all horizons);
    (b) forward decay ``|phi(t) Pi^s| <= slack * K e^{-alpha t}``;
    (c) backward decay of the unstable-restricted inverse,
        ``|phi(-t) Pi^u| <= slack * K e^{-alpha t}``;
    (d) invertibility of the flow restricted unstable-to-unstable
        (finite condition number, small out-of-subspace leakage).

    A singular restricted map sets an ``isomorphism_violation`` flag in the
    report rather than raising.  For continuous cocycles, the unit steps and
    the fractional horizons are read from the cocycle's unit-flow table
    (``UNIT_SAMPLES`` points per unit from every integer base node).
    """
    nodes = _window_nodes(window)
    if len(nodes) < 2:
        raise ConfigurationError("verification window needs at least two nodes")
    discrete = isinstance(cocycle, DiscreteCocycle)
    k_bound, alpha = cert.bound, cert.exponent
    d = cert.dim

    unit = {}
    frac = {}
    for n in nodes[:-1]:
        if discrete:
            unit[n] = np.atleast_2d(np.asarray(cocycle.step(n), float))
        else:
            frac[n] = cocycle.unit_flow(n)
            unit[n] = frac[n][-1]

    proj = {n: cert.proj_s(n) for n in nodes}
    proj_u = {n: np.eye(d) - proj[n] for n in nodes}
    bases = {n: _range_basis(proj_u[n]) for n in nodes}
    rank = {n: bases[n].shape[1] for n in nodes}

    # (a) one-step commutation
    comm = 0.0
    for n in nodes[:-1]:
        comm = max(comm, spectral_norm(proj[n + 1] @ unit[n] - unit[n] @ proj[n]))

    # (b) forward decay, including fractional horizons for continuous flows
    ratio_fwd = 0.0
    worst_fwd = None
    for i, n in enumerate(nodes):
        m = np.eye(d)
        for k in range(0, len(nodes) - i):
            t = float(k)
            r = spectral_norm(m @ proj[n]) * np.exp(alpha * t) / k_bound
            if r > ratio_fwd:
                ratio_fwd, worst_fwd = r, (n, t)
            base = nodes[i + k] if i + k < len(nodes) else None
            if base is not None and base in frac:
                snaps = frac[base]
                for j in range(1, len(snaps) - 1):
                    tj = t + j / (len(snaps) - 1)
                    r = (spectral_norm(snaps[j] @ m @ proj[n])
                         * np.exp(alpha * tj) / k_bound)
                    if r > ratio_fwd:
                        ratio_fwd, worst_fwd = r, (n, tj)
            if i + k < len(nodes) - 1:
                m = unit[nodes[i + k]] @ m
            else:
                break

    # (c) + (d) backward decay through the unstable-restricted inverse
    ratio_bwd = 0.0
    worst_bwd = None
    iso_violation = False
    max_cond = 1.0
    leak = 0.0
    for i, n in enumerate(nodes):
        r_n = rank[n]
        if r_n == 0:
            continue
        bn = bases[n]
        m = np.eye(d)
        for k in range(0, len(nodes) - i):
            nk = nodes[i + k]
            if rank[nk] != r_n:
                iso_violation = True
                break
            bk = bases[nk]
            w = bk.T @ m @ bn
            sv = np.linalg.svd(w, compute_uv=False)
            if sv[-1] <= 0.0 or not np.isfinite(sv[0] / max(sv[-1], 1e-300)):
                iso_violation = True
                break
            if k == 1:
                max_cond = max(max_cond, float(sv[0] / sv[-1]))
                # out-of-subspace leakage of the propagated unstable range
                img = m @ proj_u[n]
                leak = max(leak, spectral_norm(img - bk @ (bk.T @ img)))
            back = bn @ np.linalg.inv(w) @ bk.T @ proj_u[nk]
            r = spectral_norm(back) * np.exp(alpha * k) / k_bound
            if r > ratio_bwd:
                ratio_bwd, worst_bwd = r, (nk, float(k))
            if i + k < len(nodes) - 1:
                m = unit[nk] @ m
            else:
                break

    axioms = {
        "commutation": {"residual": comm, "tol": comm_tol,
                        "passed": comm <= comm_tol},
        "forward_decay": {"max_ratio": ratio_fwd, "slack": slack,
                          "worst": worst_fwd, "passed": ratio_fwd <= slack},
        "backward_decay": {"max_ratio": ratio_bwd, "slack": slack,
                           "worst": worst_bwd, "passed": ratio_bwd <= slack},
        "invertibility": {"max_cond": max_cond, "leakage": leak,
                          "tol": comm_tol,
                          "isomorphism_violation": iso_violation,
                          "passed": ((not iso_violation) and np.isfinite(max_cond)
                                     and leak <= comm_tol)},
    }
    passed = all(a["passed"] for a in axioms.values())
    meta = {
        "nodes": [nodes[0], nodes[-1]],
        "slack": slack,
        "samples_per_unit": 0 if discrete else UNIT_SAMPLES,
        "bound": k_bound,
        "exponent": alpha,
        "idempotence_residual": cert.idempotence_residual(),
    }
    return VerificationReport(axioms=axioms, passed=passed, meta=meta)


class GreenKernel:
    """Two-branch solution kernel of a cocycle with a dichotomy certificate.

    For integer times: ``G(t, s) = phi_{t,s} Pi^s`` when ``t >= s`` and
    ``-phi_{t,s} Pi^u`` (through the unstable-restricted inverse) when
    ``t < s``.  Step matrices are cached, so repeated evaluations on a band
    are cheap.
    """

    def __init__(self, cocycle, cert):
        if not isinstance(cocycle, DiscreteCocycle):
            raise ConfigurationError("GreenKernel works on discrete cocycles; "
                                     "discretize continuous ones first")
        self.cocycle = cocycle
        self.cert = cert
        self._steps = {}

    def _step(self, n):
        if n not in self._steps:
            self._steps[n] = np.atleast_2d(np.asarray(self.cocycle.step(n), float))
        return self._steps[n]

    def _forward(self, t, s):
        m = np.eye(self.cert.dim)
        for k in range(s, t):
            m = self._step(k) @ m
        return m

    def eval(self, t, s):
        t, s = int(t), int(s)
        if t >= s:
            return self._forward(t, s) @ self.cert.proj_s(s)
        pu_s = self.cert.proj_u(s)
        pu_t = self.cert.proj_u(t)
        b_s = _range_basis(pu_s)
        b_t = _range_basis(pu_t)
        if b_s.shape[1] == 0:
            return np.zeros((self.cert.dim, self.cert.dim))
        w = b_s.T @ self._forward(s, t) @ b_t
        sv = np.linalg.svd(w, compute_uv=False)
        if sv[-1] <= 1e-300:
            raise NonHyperbolicError("unstable-restricted map is singular; "
                                     "backward branch undefined")
        return -(b_t @ np.linalg.inv(w) @ b_s.T @ pu_s)

    def jump_residual(self, s):
        """|G(s,s) + (backward-branch limit at s) - Id|; zero when Pi^s+Pi^u=Id."""
        g_plus = self.eval(s, s)
        back_limit = self.cert.proj_u(s)
        return spectral_norm(g_plus + back_limit - np.eye(self.cert.dim))


def paper_projection_bound(alpha_a, alpha_b, eps):
    """Continuity bound for projection families of nearby cocycles.

    ``eps`` bounds ``sup_n K |phi_n - psi_n|``; the returned value bounds
    ``sup_n |Pi^s_phi - Pi^s_psi|``.
    """
    ea, eb = np.exp(-alpha_a), np.exp(-alpha_b)
    return float(eps * (ea + eb) / (1.0 - ea * eb))


def projection_distance(cert_a, cert_b, window):
    """Sup over window nodes of the stable-projection distance of two certs."""
    nodes = _window_nodes(window)
    for c in (cert_a, cert_b):
        if c.nodes() is not None:
            missing = [n for n in nodes if n not in c.projections]
            if missing:
                raise ConfigurationError(
                    f"certificate lacks projections at nodes {missing[:4]}..."
                    if len(missing) > 4 else
                    f"certificate lacks projections at nodes {missing}")
    return max(
        spectral_norm(cert_a.proj_s(n) - cert_b.proj_s(n)) for n in nodes
    )
