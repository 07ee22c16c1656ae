"""Dichotomy certificates: construction and verification.

A :class:`DichotomyCertificate` packages a projection family, one stack of
``Pi^s`` over consecutive integer nodes or one matrix for every node,
together with a bound ``K`` and an exponent ``alpha``:
the claim is that the flow decays like ``K e^{-alpha t}`` on the stable
ranges forward in time and on the unstable ranges backward in time, with the
projections commuting with the flow.  :func:`verify_dichotomy` checks the
four defining estimates numerically and reports residuals per axiom; it must
also be able to *fail* on doctored certificates, which the test suite
exercises.  It reads the Green kernel of the certified split from one
split-flow march (:func:`_split_march`) over the window, streamed one offset
at a time, and keeps the largest decay ratio with
:func:`~splitflow.cocycle.spectral_argmax`, so only the kernel values whose
Frobenius bound can still reach it take an SVD; the bounded solves of
:mod:`splitflow.greens` share its one-step restricted inverses.

Autonomous generators are split by the Newton iteration for the matrix sign
function, ``Pi^u = (I + sign A) / 2`` (Roberts, Int. J. Control 32, 1980;
Higham, *Functions of Matrices*, SIAM 2008, ch. 5), and their flow ``e^{At}``
is taken by scaling and squaring with the degree-13 Pade approximant
(Higham, SIAM J. Matrix Anal. Appl. 26, 2005).  Both run on numpy alone; the
tests cross-check them against the resolvent contour integral and
``scipy.linalg.expm``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import (_BLOCK_BYTES, UNIT_SAMPLES, DiscreteCocycle, _finite,
                      spectral_argmax, spectral_sup, stack_steps)
from .errors import ConfigurationError, NonHyperbolicError, SplitflowError

GAP_TOL = 1e-8
ALPHA_MARGIN = 0.1
_SIGN_MAX_ITER = 100  # Newton steps before the sign iteration gives up


def _ceil_3sig(x):
    """Round up to 3 significant digits (reported envelope constants)."""
    if x <= 0.0:
        return 0.0
    e = math.floor(math.log10(x))
    f = 10.0 ** (e - 2)
    return math.ceil(x / f - 1e-12) * f


# Pade-13 coefficients b_0 .. b_13 and the 1-norm up to which the
# approximant meets double precision (Higham 2005, table 2.3)
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
           16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def expm(A):
    """Matrix exponential of a square matrix by scaling and squaring with
    the degree-13 Pade approximant; a diagonal matrix exponentiates its
    diagonal."""
    A = np.atleast_2d(np.asarray(A, float))
    diag = np.diagonal(A)
    if np.array_equal(A, np.diag(diag)):
        return np.diag(np.exp(diag))
    norm = float(np.linalg.norm(A, 1))
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = A / 2.0 ** s
    b = _PADE13
    ident = np.eye(A.shape[0])
    a2 = A @ A
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = A @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


def _sign_projector(A):
    """Projector onto the invariant subspace of the eigenvalues with
    positive real part, ``(I + sign A) / 2``.

    Newton's iteration ``X <- (mu X + (mu X)^{-1}) / 2`` from ``X = A``,
    with the determinant scaling ``mu = |det X|^{-1/d}``, runs until a step
    changes ``X`` by at most 1e-8 relative (1-norm); two unscaled steps
    then polish the converged iterate.  A singular or non-finite iterate,
    or no convergence in ``_SIGN_MAX_ITER`` steps, raises
    :class:`NonHyperbolicError`: an eigenvalue sits on or too near the
    imaginary axis.  The error grows like ``eps |A| / gap``.
    """
    x = np.atleast_2d(np.asarray(A, float))
    d = x.shape[0]

    def newton(x, scaled):
        try:
            inv = np.linalg.inv(x)
        except np.linalg.LinAlgError:
            inv = None
        if inv is None or not np.all(np.isfinite(inv)):
            raise NonHyperbolicError(
                "sign iteration met a singular iterate: an eigenvalue lies on "
                "or near the imaginary axis")
        mu = math.exp(-np.linalg.slogdet(x)[1] / d) if scaled else 1.0
        return 0.5 * (mu * x + inv / mu)

    for _ in range(_SIGN_MAX_ITER):
        nxt = newton(x, scaled=True)
        if np.linalg.norm(nxt - x, 1) <= 1e-8 * np.linalg.norm(nxt, 1):
            return 0.5 * (np.eye(d) + newton(newton(nxt, False), False))
        x = nxt
    raise NonHyperbolicError(
        f"sign iteration did not converge in {_SIGN_MAX_ITER} steps: an "
        "eigenvalue lies near the imaginary axis")


def spectral_projection(A, gap_tol=GAP_TOL):
    """Spectral projector of a generator onto its expanding part.

    Returns ``(Pi_u, gap)`` where ``Pi_u`` projects onto the span of
    generalized eigenvectors with ``Re lambda > 0`` along the complementary
    invariant subspace, and ``gap = min |Re lambda|``.  Raises
    :class:`NonHyperbolicError` when an eigenvalue sits within ``gap_tol``
    of the imaginary axis; near-degeneracy is never split silently.

    The sign iteration runs on ``A - s I``, ``s`` midway between the
    smallest positive and the largest negative real part: the same
    projector at the widest gap, so eigenvalues near the axis on one side
    cost no accuracy (within 1e-12 of ``|Pi_u|`` at gaps down to 1e-7 of
    ``|A|`` in the tests).
    """
    A = np.atleast_2d(np.asarray(A, float))
    if not np.all(np.isfinite(A)):
        raise ConfigurationError("generator has non-finite entries")
    eigs = np.linalg.eigvals(A)
    gap = float(np.min(np.abs(eigs.real)))
    if gap < gap_tol:
        raise NonHyperbolicError(
            f"eigenvalue within {gap_tol:g} of the imaginary axis (gap {gap:.3e})",
            measured=gap, threshold=gap_tol)
    right = eigs.real[eigs.real > 0]
    left = eigs.real[eigs.real < 0]
    d = A.shape[0]
    if not left.size or not right.size:
        return (np.eye(d) if right.size else np.zeros((d, d))), gap
    shift = (float(right.min()) + float(left.max())) / 2
    return _sign_projector(A - shift * np.eye(d)), gap


@dataclass
class DichotomyCertificate:
    """Projection family with decay constants, plus verification residuals.

    ``projections`` is one ``(N, d, d)`` stack of the stable projections
    ``Pi^s`` at the integer nodes ``first, first + 1, ...``; with
    ``first=None`` it is a stack of one matrix, the projection at every
    node.  ``bound`` is K >= 1 and ``exponent`` alpha > 0.
    """

    bound: float
    exponent: float
    projections: np.ndarray
    first: int | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not 1.0 <= self.bound < math.inf:
            raise ConfigurationError(f"certificate bound must be >= 1, got {self.bound}")
        if not 0.0 < self.exponent < math.inf:
            raise ConfigurationError(
                f"certificate exponent must be positive, got {self.exponent}")
        p = self.projections = np.asarray(self.projections, float)
        if p.ndim != 3 or p.shape[1] != p.shape[2] or not (
                len(p) == 1 if self.first is None else len(p)):
            raise ConfigurationError(
                f"projections must be an (N, d, d) stack, one matrix when "
                f"first is None; got shape {p.shape}")

    @staticmethod
    def constant(pi_s, bound, exponent, meta=None):
        return DichotomyCertificate(float(bound), float(exponent),
                                    np.atleast_2d(pi_s)[None], meta=meta or {})

    def proj_s(self, ns):
        """``Pi^s`` at the integer nodes ``ns``, one contiguous stack; the
        first node outside the family is named in a ConfigurationError."""
        ns = np.asarray(ns, int)
        if self.first is None:
            return np.repeat(self.projections, len(ns), axis=0)
        rows = ns - self.first
        outside = (rows < 0) | (rows >= len(self.projections))
        if outside.any():
            raise ConfigurationError(
                f"certificate has no projection at node {ns[outside.argmax()]}")
        return self.projections[rows]

    def proj_u(self, ns):
        """``Pi^u = I - Pi^s`` at the integer nodes ``ns``, stacked."""
        return np.eye(self.projections.shape[-1]) - self.proj_s(ns)


def _envelope_scan(pi_s, pi_u, step_fwd, step_bwd, count):
    """Split flow of a constant generator over ``count`` scan steps.

    Returns the tables ``fwd[k] = Pi^s (S_f Pi^s)^k`` and
    ``bwd[k] = Pi^u (S_b Pi^u)^k`` stacked as ``(fwd, bwd)`` in one
    ``(2, count, d, d)`` array, with ``step_fwd``/``step_bwd`` the one-step
    maps ``S_f``/``S_b`` forward/backward.

    The tables fill by doubling (Kogge & Stone, IEEE Trans. Comput. C-22,
    1973): with ``T = Pi^s S_f``, ``fwd[k] = T^k Pi^s``, so once
    ``fwd[:s]`` holds, ``fwd[s:2s] = T^s fwd[:s]`` and ``T^s`` squares to
    ``T^{2s}``; likewise ``bwd`` with ``Pi^u S_b``.  That is
    ``ceil(log2 count)`` batched products in place of ``count`` steps.
    Projecting is exact because the projections commute with the flow, and
    every factor ``T`` carries its own ``Pi^s`` (``Pi^u``), so every product
    is re-projected and round-off components that would grow along the
    complementary range are killed, as by a re-projection after every step.
    """
    d = pi_s.shape[0]
    tables = np.empty((2, count, d, d))
    tables[:, 0] = pi_s, pi_u
    power = np.stack([pi_s @ step_fwd, pi_u @ step_bwd])  # T^s at s = 1
    s = 1
    while s < count:
        m = min(s, count - s)
        np.matmul(power[:, None], tables[:, :m], out=tables[:, s:s + m])
        power, s = power @ power, 2 * s
    return tables


def _envelope_bound(tables, alpha, ts):
    """Smallest ``max(|Pi^s(t)|, |Pi^u(-t)|) e^{alpha t}`` bound (at least 1)
    over the scan times ``ts`` of the :func:`_envelope_scan` tables, rounded
    up to 3 significant digits."""
    weights = np.exp(alpha * np.asarray(ts, float))
    return _ceil_3sig(max(1.0, spectral_sup(tables, weights)))


def autonomous_certificate(A, margin=ALPHA_MARGIN, scan_points=2048, gap_tol=GAP_TOL):
    """Certificate for the constant-generator flow ``t -> e^{At}``.

    The exponent is the spectral gap shaved by ``margin`` (transient growth
    of non-normal matrices needs the room); the bound is the smallest
    constant, over a dense scan and rounded up to 3 significant digits,
    for which both decay estimates hold on the scan window.
    """
    A = np.atleast_2d(np.asarray(A, float))
    pi_u, gap = spectral_projection(A, gap_tol)
    pi_s = np.eye(A.shape[0]) - pi_u
    alpha = gap * (1.0 - margin)
    span = max(4.0, 40.0 / gap)
    ts = np.linspace(0.0, span, scan_points)
    tables = _envelope_scan(pi_s, pi_u, expm(A * (ts[1] - ts[0])),
                            expm(-A * (ts[1] - ts[0])), scan_points)
    return DichotomyCertificate.constant(
        pi_s, _envelope_bound(tables, alpha, ts), alpha,
        meta={"gap": gap, "margin": margin, "scan_span": span,
              "scan_points": scan_points},
    )


def delta_threshold(alpha):
    """Admissible perturbation size ``(1 - e^{-alpha}) / (1 + e^{-alpha})``."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"exponent must be positive and finite, got {alpha}")
    e = math.exp(-alpha)
    return (1.0 - e) / (1.0 + e)


def _restricted_inverse(steps, proj_s):
    """One-step inverses ``R_k = B_k (B_{k+1}^T A_k B_k)^{-1} B_{k+1}^T`` of
    the flow restricted unstable-to-unstable, with ``B_k`` an orthonormal
    basis of the range of ``Pi^u(k)``.  Returns ``(R, rank, no_inverse,
    cond)``: the rank of each ``Pi^u(k)``; per step, whether the restricted
    step has no inverse (across a rank change, or singular), where
    ``R_k = 0``; and its condition number.
    """
    n, d = proj_s.shape[:2]
    basis, sv, _ = np.linalg.svd(np.eye(d) - proj_s)
    rank = np.sum(sv > 0.5, axis=1)  # range basis = leading singular vectors
    no_inverse = rank[1:] != rank[:-1]
    back = np.zeros((n - 1, d, d))
    cond = np.ones(n - 1)
    for r in range(1, d + 1):  # a pass marks no_inverse at its own steps only
        k = np.flatnonzero(~no_inverse & (rank[1:] == r))
        if not len(k):
            continue
        b0, b1t = basis[k, :, :r], basis[k + 1, :, :r].swapaxes(1, 2)
        w = b1t @ steps[k] @ b0
        s = np.linalg.svd(w, compute_uv=False)
        cond[k] = s[:, 0] / np.maximum(s[:, -1], 1e-300)
        ok = (s[:, -1] > 1e-300) & np.isfinite(cond[k])
        no_inverse[k] = ~ok
        back[k[ok]] = b0[ok] @ np.linalg.inv(w[ok]) @ b1t[ok]
    return back, rank, no_inverse, cond


def _split_march(steps, proj_s, back):
    """Split flow of a node-indexed cocycle, marched from every node at once.

    ``steps[k]`` maps node k to node k+1, ``proj_s[k]`` is ``Pi^s`` at
    node k (nodes counted from the first) and ``back`` holds the one-step
    restricted inverses (:func:`_restricted_inverse`).  Yields, for every
    offset ``j = 0, 1, ...`` with a target among the nodes, the pair
    ``(fwd, bwd)``: ``fwd[i] = Pi^s(i+j) A_{i+j-1} ... Pi^s(i+1) A_i
    Pi^s(i)``, re-projected onto the stable range after every step, over
    the sources ``i < n - j``, and ``bwd[i]``, ``-Pi^u(i+j)`` carried back j
    steps through the restricted inverses, over the sources ``i + j``: the
    Green kernel values ``G(i+j, i)`` and ``G(i, i+j)`` of the cocycle with
    its off-diagonal blocks removed (the re-projected, QR-style propagation
    of Dieci & Van Vleck, SIAM J. Numer. Anal. 40, 2002).  Only the current
    offset is held.  :func:`verify_dichotomy` is the only reader; the test
    suite checks the tables against a per-pair kernel of its own.
    """
    n, d = proj_s.shape[:2]
    fwd, bwd = proj_s, proj_s - np.eye(d)
    yield fwd, bwd
    for j in range(1, n):
        fwd = proj_s[j:] @ (steps[j - 1:] @ fwd[:-1])
        bwd = back[: n - j] @ bwd[1:]
        yield fwd, bwd


def _window_nodes(window):
    """The integer nodes ``n_lo, ..., n_hi`` of a window ``(n_lo, n_hi)``.
    Any other value, or fewer than two nodes, raises
    :class:`ConfigurationError`."""
    if not (isinstance(window, tuple) and len(window) == 2 and all(
            isinstance(n, (int, np.integer)) for n in window)):
        raise ConfigurationError(
            f"window {window!r} is not a pair (n_lo, n_hi) of integer nodes")
    nodes = list(range(window[0], window[1] + 1))
    if len(nodes) < 2:
        raise ConfigurationError(
            f"window {window!r} needs at least two integer nodes")
    return nodes


@dataclass
class VerificationReport:
    """Per-axiom residuals and pass flags from :func:`verify_dichotomy`."""

    axioms: dict
    passed: bool
    meta: dict = field(default_factory=dict)


def _decay_ratio(norms, weights, k_bound):
    """``norms * weights / K``, zero where the norm is zero: a kernel value
    that underflowed to 0 stays 0 where the weight ``e^{alpha t}``
    overflowed."""
    out = np.zeros(norms.shape)
    with np.errstate(over="ignore"):
        np.multiply(norms, weights, out=out, where=norms > 0.0)
    return out / k_bound


def _running_max(best, mats, weights, k_bound, start):
    """The running max ``best = (ratio, location)`` of the decay ratios
    ``_decay_ratio(|M|, weights, K)``, 0 with no location until a ratio is
    positive, after a block of kernel values ``mats[i, k, j]`` (source or
    target, offset, fraction), ``weights`` broadcast over the block and
    ``start`` its first location.  A tie goes to the earlier location in C
    order.  Only the values that can still reach the max take an SVD
    (:func:`~splitflow.cocycle.spectral_argmax`).
    """
    weights = np.broadcast_to(weights, mats.shape[:-2]).ravel()
    found = spectral_argmax(mats, lambda norms, rows: _decay_ratio(
        norms, weights[rows], k_bound), best[0] or math.ulp(0.0))
    if found is None:
        return best
    loc = tuple(int(a + b) for a, b in
                zip(np.unravel_index(found[1], mats.shape[:-2]), start))
    return (found[0], loc) if found[0] > best[0] or loc < best[1] else best


def _finite_kernel(block, nodes, k0, horizon, backward=False):
    """Raise :class:`SplitflowError` naming the source node and horizon of
    the first non-finite value, in march order (horizon, then ``i``), of
    ``block``, the kernel values ``[i, offset k0 + k, fraction j]`` of the
    forward (``i`` the source) or backward (``i`` the target) branch."""
    if not np.isfinite(block).all():
        bad = ~np.isfinite(block).all(axis=(-2, -1))
        k, j, i = np.unravel_index(np.argmax(np.moveaxis(bad, 0, -1)),
                                   bad.shape[1:] + bad.shape[:1])
        branch, source = (("backward", nodes[i + k0 + k]) if backward
                          else ("forward", nodes[i]))
        raise SplitflowError(
            f"non-finite {branch} kernel value from node {source} at horizon "
            f"{float(horizon[k0 + k, j])}: the split-flow march overflowed")


def verify_dichotomy(cocycle, cert, window, slack=1.05, comm_tol=1e-6):
    """Check the dichotomy axioms of ``cert`` against ``cocycle`` on a window.

    All checks read one split-flow march (:func:`_split_march`) over the
    window nodes, and report their max residuals:

    (a) one-step commutation ``|Pi^s(n+1) A_n - A_n Pi^s(n)| <= comm_tol``;
    (b) forward decay ``|fwd[t, n]| <= slack * K e^{-alpha t}``, and (c)
        backward decay ``|bwd[t, n]| <= slack * K e^{-alpha t}``, over every
        source node and horizon in the window, horizon 0 (``|Pi^s(n)|``,
        ``|Pi^u(n)|``) included;
    (d) invertibility: every one-step map restricted unstable-to-unstable
        keeps the rank and has a finite condition number, and the one-step
        off-diagonal part ``leakage = sup_n |Pi^u(n+1) A_n Pi^s(n) +
        Pi^s(n+1) A_n Pi^u(n)|`` is at most ``comm_tol``, with ``K * leakage``
        below ``delta_threshold(alpha)``.

    Soundness: the march re-projects after every step, so (b) and (c)
    certify a ``(K, alpha)`` dichotomy of the cocycle with the off-diagonal
    parts removed, free of the round-off an unprojected product amplifies
    along the complementary range on long windows.  The true cocycle differs
    from it by one-step perturbations of norm at most ``leakage``, and the
    roughness theorem (Coppel, LNM 629, 1978) carries the dichotomy over
    when ``K * leakage < delta_threshold(alpha)``, with the constants of
    :func:`splitflow.robustness.robust_constants`.

    The march is reduced a block of offsets at a time, each block at most
    ``_BLOCK_BYTES`` of kernel values (one offset if that is larger), so
    memory stays O(N d^2) (times ``UNIT_SAMPLES`` for a continuous
    cocycle).  Each block's ratios update a running max and its first
    location in the order (source, horizon) of (b) and (target, offset) of
    (c) (:func:`_running_max`): ``max_ratio`` and ``worst`` are those of an
    SVD of every pair.

    A singular restricted map or a rank change sets
    ``isomorphism_violation``; a non-finite step or projection raises
    :class:`SplitflowError` naming its node, and a march that overflows
    raises it naming the source node and horizon of the first non-finite
    kernel value (:func:`_finite_kernel`), with numpy's overflow warnings
    silenced.  Continuous cocycles read the unit steps and the fractional
    horizons ``k + j / UNIT_SAMPLES`` from the unit-flow table ``flows``, as
    ``flows[n + k, j] @ fwd[k, n]``.
    """
    nodes = _window_nodes(window)
    discrete = isinstance(cocycle, DiscreteCocycle)
    k_bound, alpha = cert.bound, cert.exponent
    n, d = len(nodes), cocycle.dim
    flows = None if discrete else cocycle.unit_flows(nodes[:-1])
    steps = (stack_steps(cocycle.step, nodes[:-1], d) if discrete
             else _finite(flows[:, -1], nodes[:-1], "unit step", nodes=True))
    proj = _finite(cert.proj_s(nodes), nodes, "projection", nodes=True)
    back, _, no_inverse, cond = _restricted_inverse(steps, proj)
    comm = spectral_sup(proj[1:] @ steps - steps @ proj[:-1])
    proj_u = np.eye(d) - proj
    leak = spectral_sup(proj_u[1:] @ steps @ proj[:-1]
                        + proj[1:] @ steps @ proj_u[:-1])

    # (b) ratios [source, offset k, fraction j] at horizon k + j / subs, and
    # (c) ratios [target, offset k] of the source node target + k, reduced a
    # block of offsets at a time; an overflow is named by _finite_kernel
    subs = 1 if discrete else UNIT_SAMPLES
    horizon = np.arange(n)[:, None] + np.arange(subs) / subs
    span = max(1, min(n, _BLOCK_BYTES // (8 * n * subs * d * d)))
    best_fwd = best_bwd = (0.0, None)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.exp(alpha * horizon)
        for k, (fwd, bwd) in enumerate(_split_march(steps, proj, back)):
            k0, kk = k - k % span, k % span
            if kk == 0:
                fwd_block = np.zeros((n, min(span, n - k), subs, d, d))
                bwd_block = np.zeros((n, min(span, n - k), 1, d, d))
            fwd_block[: n - k, kk, 0], bwd_block[: n - k, kk, 0] = fwd, bwd
            if not discrete:  # fractions j >= 1 end before the last node
                np.matmul(flows[k:, 1:-1], fwd[:-1, None],
                          out=fwd_block[: n - 1 - k, kk, 1:])
            if kk == fwd_block.shape[1] - 1:
                w = weights[k0:k + 1]
                try:  # spectral_argmax's finiteness check: the only pass
                    best_fwd = _running_max(best_fwd, fwd_block, w, k_bound,
                                            (0, k0, 0))
                    best_bwd = _running_max(best_bwd, bwd_block, w[:, :1],
                                            k_bound, (0, k0, 0))
                except SplitflowError:  # locate the value that failed it
                    _finite_kernel(fwd_block, nodes, k0, horizon)
                    _finite_kernel(bwd_block, nodes, k0, horizon, True)
                    raise
    ratio_fwd, at = best_fwd
    worst_fwd = None if at is None else (nodes[at[0]],
                                         float(horizon[at[1], at[2]]))
    ratio_bwd, at = best_bwd
    worst_bwd = None if at is None else (nodes[at[0] + at[1]], float(at[1]))

    # (d) restricted steps, and the leakage charged through roughness
    iso_violation = bool(np.any(no_inverse))
    max_cond = max(1.0, float(np.max(cond)))
    charged, thr = k_bound * leak, delta_threshold(alpha)

    axioms = {
        "commutation": {"residual": comm, "tol": comm_tol,
                        "passed": comm <= comm_tol},
        "forward_decay": {"max_ratio": ratio_fwd, "slack": slack,
                          "worst": worst_fwd, "passed": ratio_fwd <= slack},
        "backward_decay": {"max_ratio": ratio_bwd, "slack": slack,
                           "worst": worst_bwd, "passed": ratio_bwd <= slack},
        "invertibility": {"max_cond": max_cond, "leakage": leak,
                          "tol": comm_tol, "charged_leakage": charged,
                          "delta_threshold": thr,
                          "isomorphism_violation": iso_violation,
                          "passed": (not iso_violation and np.isfinite(max_cond)
                                     and leak <= comm_tol and charged < thr)},
    }
    passed = all(a["passed"] for a in axioms.values())
    meta = {
        "nodes": [nodes[0], nodes[-1]],
        "slack": slack,
        "samples_per_unit": 0 if discrete else UNIT_SAMPLES,
        "bound": k_bound,
        "exponent": alpha,
        "idempotence_residual": spectral_sup(proj @ proj - proj),
    }
    return VerificationReport(axioms=axioms, passed=passed, meta=meta)


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
    return spectral_sup(cert_a.proj_s(nodes) - cert_b.proj_s(nodes))
