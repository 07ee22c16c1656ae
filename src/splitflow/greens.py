"""Bounded solutions of perturbed linear difference equations.

Given a cocycle with a dichotomy certificate, the unique bounded solution of

    x_{n+1} = A_n x_n + B_n x_n + f_n,   {f_n} bounded,

is the fixed point of the kernel sum

    (Gamma_f x)(n) = sum_k G(n, k+1) (B_k x_k + f_k),

a contraction on bounded sequences whenever the perturbation is small
against the dichotomy constants.  On a window the sum solves a
boundary-value problem (Beyn, IMA J. Numer. Anal. 10, 1990; Huels, DCDS-B
12, 2009): two first-order sweeps, forward along the stable ranges and
backward through the restricted one-step inverses, apply it exactly
(:func:`_gamma`).  Each sweep is a first-order linear recurrence, evaluated
by doubling in ceil(log2 W) batched steps over a window of W nodes
(:func:`_scan`; Kogge & Stone, 1973; Blelloch, 1990).  Picard iteration then
yields the solution together with its residual certificate: it returns the
first iterate ``x`` whose measured ``sup |Gamma_f x - x|`` is at most
``tol``, that number being the certified residual (:func:`_picard`).
Nodes within the certified geometric-tail length (the band) of the window
edges are edge-contaminated.  The test suite keeps a dense linear solve, a
per-pair Green kernel and the sweeps one node at a time as oracles.

The perturbed projections at a family of nodes are bounded solutions of
unit-impulse problems over one span, the column blocks of one forcing; read
at the impulse nodes, they are the splitting of the span's boundary-value
problem.  Two paths give them (:func:`impulse_response_projection`).  Where
the base ``Pi^s`` is exactly ``I`` (``Pi^u = 0``) or exactly ``0`` at every
node of the span, every Picard iterate reads it unchanged at the impulse
nodes, so ``Pi^s`` itself is the answer and no solve runs.  Otherwise the
splitting is marched directly, with bases re-orthonormalised at every step
(the re-projected continuation of Dieci & Van Vleck, SIAM J. Numer. Anal.
40, 2002); the kernel sum of that splitting solves the family, and one
application of the base kernel sum certifies that solution with the same
residual test.  The test suite keeps the Picard iteration from zero as the
oracle of both.

A perturbation ``b`` is, like a cocycle's ``step``, a node-batched
``b(ns) -> (N, d, d)`` (``DiscreteCocycle.constant(m).step`` is the matrix
``m`` at every node); a solve reads both in one call each over its window.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import (DiscreteCocycle, _finite, spectral_argmax, spectral_sup,
                      stack_steps)
from .dichotomy import _restricted_inverse, delta_threshold
from .errors import (ConfigurationError, ContractionMarginError,
                     RobustnessHypothesisError, SplitflowError)

DEFAULT_TRUNC_TOL = 1e-10
CONTRACTION_MARGIN = 0.9  # enforced bound on the contraction factor rho


def truncation_length(alpha, sup_bound, tol):
    """Smallest N with ``sup_bound * e^{-alpha N} / (1 - e^{-alpha}) <= tol``.

    The geometric tail of the kernel sum beyond N is below ``tol``; an N
    past the floats raises :class:`SplitflowError`.
    """
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"decay exponent must be positive and finite, "
                         f"got {alpha}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if not 0.0 <= sup_bound < math.inf:
        raise ValueError(f"sup bound must be nonnegative and finite, "
                         f"got {sup_bound}")
    if sup_bound == 0.0:
        return 0
    lim = sup_bound / (1.0 - math.exp(-alpha))
    if lim <= tol:
        return 0
    n = math.log(lim / tol) / alpha
    if not n < math.inf:
        raise SplitflowError(f"the truncation length is past the floats (tail "
                             f"bound {sup_bound:.6g} over tolerance {tol:g})",
                             measured=sup_bound, threshold=math.inf)
    return int(math.ceil(n))


@dataclass
class ForcingSequence:
    """Forcing on an integer window; zero outside the window by convention.

    ``values[i]`` is f at node ``n_min + i``; shape (W, d) for vector forcing
    or (W, d, r) for r simultaneous right-hand sides.
    """

    n_min: int
    n_max: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, float)
        w = self.n_max - self.n_min + 1
        if self.values.shape[0] != w or self.values.ndim not in (2, 3):
            raise ConfigurationError(
                f"forcing values must have shape (W, d[, r]) with W={w}, "
                f"got {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ConfigurationError("forcing values must be finite")

    @staticmethod
    def zeros(n_min, n_max, d, r=None):
        shape = (n_max - n_min + 1, d) if r is None else (n_max - n_min + 1, d, r)
        return ForcingSequence(n_min, n_max, np.zeros(shape))

    @property
    def window(self):
        return (self.n_min, self.n_max)

    def sup_norm(self):
        return _seq_sup(self.values)


def _seq_sup(values):
    """Sup over nodes of the Euclidean (vector) or spectral (matrix) norm;
    a vector norm that overflows reads inf, with no numpy warning."""
    with np.errstate(over="ignore"):
        if values.ndim == 3:
            return spectral_sup(values)
        return float(np.max(np.linalg.norm(values, 2, axis=1), initial=0.0))


def _band_for(cert, delta_eff, f_sup, trunc_tol):
    """Truncation band of forcing of sup ``f_sup`` at ``delta_eff``; a band
    past the floats (or a NaN bound) raises :class:`SplitflowError`."""
    e = math.exp(-cert.exponent)
    rho = min(delta_eff * (1.0 + e) / (1.0 - e), CONTRACTION_MARGIN)
    apriori = cert.bound * f_sup * (1.0 + e) / ((1.0 - e) * max(1.0 - rho, 1e-12))
    sup_term = 2.0 * (delta_eff * apriori + cert.bound * f_sup)  # both tails
    if sup_term < math.inf:  # a NaN fails closed
        return truncation_length(cert.exponent, sup_term, trunc_tol)
    raise SplitflowError(f"the truncation band has no finite length (tail "
                         f"bound {sup_term:.6g} at delta_eff={delta_eff:.6g})",
                         measured=sup_term, threshold=math.inf)


def _contraction(cert, b_mats):
    """``(rho, delta_eff)`` of the perturbation steps ``b_mats`` against the
    certificate: ``delta_eff = K sup|B|`` and the contraction factor ``rho =
    delta_eff (1+e^{-a})/(1-e^{-a})``.  A factor above
    ``CONTRACTION_MARGIN`` raises :class:`ContractionMarginError`."""
    delta_eff = cert.bound * spectral_sup(b_mats)
    e = math.exp(-cert.exponent)
    rho = delta_eff * (1.0 + e) / (1.0 - e)
    if rho > CONTRACTION_MARGIN:
        raise ContractionMarginError(
            f"contraction factor rho={rho:.4f} exceeds margin "
            f"{CONTRACTION_MARGIN}; the admissibility threshold on sup|B|*K "
            f"is {delta_threshold(cert.exponent):.6f}",
            measured=rho, threshold=CONTRACTION_MARGIN)
    return rho, delta_eff


def _impulse_span(cert, b_mats, n_lo, n_hi, trunc_tol):
    """Span of the impulse solves for the nodes [n_lo, n_hi]: the window
    widened by the unit-forcing band of its perturbation size, plus 8.
    ``b_mats`` stacks the perturbation steps over the window.  A size whose
    band overflows raises :class:`RobustnessHypothesisError` naming it."""
    delta_eff = cert.bound * spectral_sup(b_mats)
    try:
        band0 = _band_for(cert, delta_eff, 1.0, trunc_tol) + 8
    except SplitflowError as exc:
        raise RobustnessHypothesisError(
            f"perturbation size delta_eff={delta_eff:.6g} has no finite "
            f"impulse span", measured=delta_eff,
            threshold=delta_threshold(cert.exponent)) from exc
    return n_lo - band0, n_hi + band0


_SCAN_BYTES = 1 << 17  # scratch of one batched step of _gamma and _scan


def _scan(v, maps, tmp, mul):
    """Solve ``y(i) = v(i) + A_i y(i-1)``, ``y(0) = v(0)``, in place by
    doubling, with ``maps[i-1] = A_i``.  At level l = 0, 1, ... and for
    every ``i >= 2^l`` at once, ``v(i) += P_l(i) v(i - 2^l)``, where
    ``P_l(i)`` is the product of the ``2^l`` maps ending at ``A_i`` and
    ``P_{l+1}(i) = P_l(i) P_l(i - 2^l)``: ceil(log2 W) levels (Kogge &
    Stone, IEEE Trans. Comput. C-22, 1973; Blelloch, CMU-CS-90-190, 1990).
    Every node takes the same steps, so nodes alike stay bitwise alike.

    The rows of a level go top down, ``len(tmp)`` at a time through the
    scratch ``tmp``, so every row a block reads still holds the level's old
    value; each level's maps are built from the last and dropped, so only
    two levels are held.  ``mul`` applies a stack of maps to a stack
    of matrices (``np.multiply`` for 1x1 maps).
    """
    s = 1
    while len(maps):
        for hi in range(len(v), s, -len(tmp)):
            lo = max(s, hi - len(tmp))
            v[lo:hi] += mul(maps[lo - s:hi - s], v[lo - s:hi - s],
                            out=tmp[:hi - lo])
        maps = mul(maps[s:], maps[:-s])
        s *= 2


def _sweeps(steps, proj_s, n_lo):
    """The two sweeps of :func:`_gamma` over the W nodes ``n_lo, ...`` of
    the steps ``steps``, with ``proj_s`` the ``Pi^s`` at those nodes and
    the next, as :func:`_scan` recurrences: ``Pi^s(m+1)`` and ``-R_m
    Pi^u(m+1)``, which take ``u(m)`` into the forward and the backward
    sweep, and the maps of each, ``Pi^s(i) A_{i-1}`` and, on the reversed
    nodes, ``R_{W-1-i}``.  A rank change or a singular restricted step,
    which leaves no backward branch, or a non-finite projection raises
    :class:`SplitflowError`."""
    nodes = range(n_lo, n_lo + len(proj_s))
    proj_s = _finite(proj_s, nodes, "projection", nodes=True)
    back, rank, no_inverse, _ = _restricted_inverse(steps, proj_s)
    if np.any(no_inverse):
        k = int(np.argmax(no_inverse))
        why = ("unstable rank changes" if rank[k] != rank[k + 1]
               else "unstable-restricted step is singular")
        raise SplitflowError(f"{why} across node {n_lo + k}; "
                             "no backward branch")
    pi_s = proj_s[1:]
    return (pi_s[:-1], back @ (pi_s - np.eye(steps.shape[-1])),
            pi_s[:-1] @ steps[:-1], back[-2::-1].copy())


def _gamma(sweeps, b_mats, f, x):
    """Kernel sum ``Gamma_f x = sum_k G(n, k+1) u(k)``, ``u = B x + f``, as
    ``S + U``: forward ``S(m+1) = Pi^s(m+1) (A_m S(m) + u(m))`` from
    ``S(n_lo) = 0``, backward ``U(m) = R_m (U(m+1) - Pi^u(m+1) u(m))`` from
    ``U(n_hi+1) = 0``.  Both sweeps are first-order linear recurrences,
    solved by doubling (:func:`_scan`) in place: ``S`` in the output, ``U``
    in the buffer of ``u``, the backward one on the reversed nodes.  An
    overflow raises :class:`SplitflowError` naming the first non-finite
    node, with no numpy warning."""
    pi_s, lift_u, fwd, bwd = sweeps
    with np.errstate(over="ignore", invalid="ignore"):
        u = np.einsum("kab,kb...->ka...", b_mats, x)
        u += f.values
        w = u.reshape(len(u), u.shape[1], -1)  # vector forcing as (W, d, 1)
        mul = np.multiply if w.shape[1] == 1 else np.matmul  # d = 1: scalars
        res = np.empty_like(u)
        s = res.reshape(w.shape)  # a view
        s[0] = 0.0
        mul(pi_s, w[:-1], out=s[1:])
        block = max(1, min(len(w), _SCAN_BYTES // w[0].nbytes))
        tmp = np.empty((block,) + w.shape[1:])
        for lo in range(0, len(w), block):  # u(m) -> -R_m Pi^u(m+1) u(m)
            rows = w[lo:lo + block]
            rows[...] = mul(lift_u[lo:lo + block], rows, out=tmp[:len(rows)])
        _scan(s, fwd, tmp, mul)
        _scan(w[::-1], bwd, tmp, mul)
        s += w
    if not np.isfinite(res).all():  # only then look for the node
        _finite(res, range(f.n_min, f.n_max + 1), "kernel sum", nodes=True)
    return res


def _picard(apply, x, tol, rate, first, max_iter, what):
    """Iterate ``x <- apply(x)`` until ``sup |apply(x) - x| <= tol``
    (:func:`_seq_sup`, exact); returns ``(x, residual, applications)``:
    the iterate that passed, its measured residual and the number of
    ``apply`` calls.  At least one call runs, and at most ``max_iter`` (by
    default 20 more than a contraction of factor ``rate`` and first step
    ``first`` needs); a residual still above ``tol`` then raises
    :class:`SplitflowError` naming ``what``."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol=}")
    if max_iter is None:
        max_iter = max(3, math.ceil(math.log(tol / (first + tol)) / math.log(
            max(rate, 1e-6))) + 20) if rate > 0.0 and first > 0.0 else 3
    it = 0
    while True:
        y = apply(x)
        it += 1
        residual = _seq_sup(y - x)
        if residual <= tol:
            return x, residual, it
        if it >= max_iter:
            raise SplitflowError(
                f"{what} did not certify residual {tol:g} "
                f"(got {residual:.3e} after {it} iterations)",
                measured=residual, threshold=tol)
        x = y


@dataclass
class BoundedSolution:
    """Fixed point of the kernel contraction, with its residual certificate.

    Nodes within the band (the certified geometric-tail length) of the
    window edges are edge-contaminated; ``interior`` is the clean rest.
    """

    n_min: int
    n_max: int
    values: np.ndarray
    residual: float
    iterations: int
    interior: tuple
    meta: dict = field(default_factory=dict)


def bounded_solution(cocycle, cert, b, f, tol=1e-8, trunc_tol=DEFAULT_TRUNC_TOL,
                     x0=None, max_iter=None):
    """Unique bounded solution of the perturbed nonhomogeneous equation.

    Requires the contraction margin
    ``rho = sup|B| * K * (1+e^{-a})/(1-e^{-a}) <= 0.9`` (the theory demands
    only < 1; the margin keeps iteration counts and downstream constants
    tame).  Returns the first Picard iterate from ``x0`` (zero by default)
    whose sup-norm residual ``|Gamma_f x - x|`` is at most ``tol``, with
    that residual and the number of kernel applications.
    """
    n_lo, n_hi = f.window
    b_mats = stack_steps(b, range(n_lo, n_hi + 1), cocycle.dim)
    rho, delta_eff = _contraction(cert, b_mats)
    e = math.exp(-cert.exponent)
    f_sup = f.sup_norm()
    if not f_sup < math.inf:  # finite values whose norm overflows
        raise SplitflowError(f"forcing norm overflows (sup {f_sup})")
    band = min(_band_for(cert, delta_eff, f_sup, trunc_tol), n_hi - n_lo + 1)
    sweeps = _sweeps(stack_steps(cocycle.step, range(n_lo, n_hi + 1),
                                 cocycle.dim),
                     cert.proj_s(range(n_lo, n_hi + 2)), n_lo)
    first = cert.bound * f_sup * (1.0 + e) / (1.0 - e)
    if x0 is None:
        start = np.zeros_like(f.values)
    else:  # |x0(n)| <= sqrt(entries per node) max|x0|, with no SVD
        start = _finite(np.asarray(x0, float), range(n_lo, n_hi + 1),
                        "initial guess", nodes=True)
        first += math.sqrt(start[0].size) * max(start.max(), -start.min())
    x, residual, it = _picard(lambda x: _gamma(sweeps, b_mats, f, x), start,
                              tol, rho, first, max_iter, "Picard iteration")
    apriori = cert.bound * f_sup * (1.0 + e) / ((1.0 - e) * (1.0 - rho))
    sup = _seq_sup(x)
    allowed = apriori * (1.0 + 1e-6) + 10.0 * (tol + trunc_tol)
    if f_sup > 0.0 and sup > allowed:
        raise SplitflowError(
            f"a-priori bound violated: |x|={sup:.6g} > {apriori:.6g}",
            measured=sup, threshold=allowed)
    interior = (n_lo + band, n_hi - band)
    return BoundedSolution(
        n_min=n_lo, n_max=n_hi, values=x, residual=residual, iterations=it,
        interior=interior,
        meta={"rho": rho, "delta_eff": delta_eff, "band": band,
              "apriori_bound": apriori, "sup_norm": sup},
    )


def _splitting(psi, proj_s, n_lo):
    """Stable projections ``I - U (L U)^{-1} L`` of the splitting of the
    boundary-value problem ``x(m+1) = psi_m x(m) + f(m)``, ``Pi^s(n_lo)
    x(n_lo) = 0``, ``Pi^u(n_hi+1) x(n_hi+1) = 0``, at the nodes ``n_lo, ...,
    n_hi+1`` of ``proj_s`` (the base ``Pi^s`` there).

    ``U`` is an orthonormal basis of the range of ``Pi^u(n_lo)`` pushed
    forward through the steps ``psi``, and the rows of ``L`` one of the
    annihilator of the range of ``Pi^s(n_hi+1)`` pulled back through them;
    both are re-orthonormalised by Gram-Schmidt after every step (Dieci &
    Van Vleck, SIAM J. Numer. Anal. 40, 2002), and the two marches run as
    one, stacked.  A rank change of ``Pi^u`` (read from its trace, before
    the one SVD, of the two end projections) or a singular ``L U`` raises
    :class:`SplitflowError` naming the node.
    """
    n, d = proj_s.shape[:2]
    proj_u = np.eye(d) - proj_s
    rank = np.rint(np.trace(proj_u, axis1=1, axis2=2)).astype(int)
    if np.any(rank != rank[0]):
        k = int(np.argmax(rank != rank[0]))
        raise SplitflowError(f"unstable rank changes across node "
                             f"{n_lo + k - 1}; no backward branch")
    r = rank[0]
    ends = np.linalg.svd(proj_u[[0, -1]])
    maps = np.stack([psi, psi[::-1].swapaxes(1, 2)], axis=1)
    # bases[k, 0] is U at node n_lo + k, bases[k, 1] is L^T at n_hi + 1 - k
    bases = np.empty((n, 2, d, r))
    bases[0] = ends[0][0, :, :r], ends[2][1, :r].T
    for k in range(n - 1):
        q = np.matmul(maps[k], bases[k], out=bases[k + 1])
        for j in range(r):
            col = q[..., j:j + 1]
            if j:
                col -= q[..., :j] @ (q[..., :j].swapaxes(1, 2) @ col)
            col /= np.sqrt(col.swapaxes(1, 2) @ col)
    u, lt = bases[:, 0], bases[::-1, 1]
    lu = lt.swapaxes(1, 2) @ u
    singular = ~(np.abs(np.linalg.det(lu)) > 0.0)  # a NaN too
    if np.any(singular):
        raise SplitflowError(
            f"no splitting at node {n_lo + int(np.argmax(singular))}: the "
            "pushed unstable and the pulled stable spaces meet")
    return np.eye(d) - u @ np.linalg.solve(lu, lt.swapaxes(1, 2))


def _exact_family(cert, n_lo, n_hi, nodes):
    """``Pi^s`` at ``nodes`` when it is exactly ``I`` at every node ``n_lo,
    ..., n_hi+1``, or exactly ``0``; None otherwise, and the span's stack
    does not outlive the test.  A non-finite projection raises
    :class:`SplitflowError` naming its node."""
    span = range(n_lo, n_hi + 2)
    proj_s = _finite(cert.proj_s(span), span, "projection", nodes=True)
    if np.all(proj_s == np.eye(proj_s.shape[-1])) or not proj_s.any():
        return proj_s[np.asarray(nodes) - n_lo]
    return None


def _split_solution(base, cert, b, f):
    """Bounded solution of ``x(m+1) = psi_m x(m) + f(m)``, ``psi = A + B``
    the steps of ``base`` and ``b`` over the window of ``f``, with the
    boundary conditions of the base ``Pi^s`` at its ends: the kernel sum of
    the splitting (:func:`_splitting`) with no perturbation.  It reads its
    stacks itself, so that none outlives it; a non-finite ``psi`` raises
    :class:`SplitflowError` naming its node."""
    nodes = range(f.n_min, f.n_max + 1)
    psi = _finite(stack_steps(base.step, nodes, base.dim)
                  + stack_steps(b, nodes, base.dim), nodes, "perturbed step",
                  nodes=True)
    split = _splitting(psi, cert.proj_s(range(f.n_min, f.n_max + 2)),
                       f.n_min)
    return _gamma(_sweeps(psi, split, f.n_min), np.zeros_like(psi), f,
                  np.broadcast_to(0.0, f.values.shape))


def impulse_response_projection(cocycle, cert, b, nodes, tol=1e-10,
                                trunc_tol=DEFAULT_TRUNC_TOL):
    """Perturbed stable projections from unit impulses, stacked ``(m, d, d)``
    with row j at ``nodes[j]``.

    Solving with the impulse ``f_{node-1} = e_j`` and reading the bounded
    solution at the impulse node gives column j of the perturbed stable
    projection there; the unstable one is its complement.  The family is one
    bounded solution over :func:`_impulse_span`: column block j of the
    forcing is the identity at ``nodes[j] - 1``, and block j of the solution
    is read at ``nodes[j]``.  The base steps are read once over the span,
    and the checks of :func:`bounded_solution` come first, in its order:
    finite ``B``, the contraction margin, finite steps and projections.

    Where the base ``Pi^s`` is exactly ``I`` at every node of the span, or
    exactly ``0``, every Picard iterate has ``x = e_j`` (``x = 0``) at the
    impulse node, so ``Pi^s`` itself is returned and no solve runs
    (:func:`_exact_family`).  Otherwise the splitting of the span's steps
    ``psi = A + B`` is marched, its two sweeps give the family's bounded
    solution (:func:`_split_solution`), and :func:`bounded_solution`
    started there certifies it by the residual test at ``tol``: one kernel
    application after an exact march.
    """
    d, m = cocycle.dim, len(nodes)
    window = range(min(nodes), max(nodes) + 1)
    n_lo, n_hi = _impulse_span(cert, stack_steps(b, window, d), window[0],
                               window[-1], trunc_tol)
    span = range(n_lo, n_hi + 1)
    _contraction(cert, stack_steps(b, span, d))
    steps = stack_steps(cocycle.step, span, d)
    exact = _exact_family(cert, n_lo, n_hi, nodes)
    if exact is not None:
        return exact
    f = ForcingSequence.zeros(n_lo, n_hi, d, d * m)
    for j, n in enumerate(nodes):
        f.values[n - 1 - n_lo, :, j * d:(j + 1) * d] = np.eye(d)
    base = DiscreteCocycle(lambda ns: steps[np.asarray(ns) - n_lo], d)
    sol = bounded_solution(base, cert, b, f, tol=tol, trunc_tol=trunc_tol,
                           x0=_split_solution(base, cert, b, f))
    # block j of row nodes[j], stacked (m, d, d)
    pi_s = sol.values.reshape(-1, d, m, d)[np.asarray(nodes) - n_lo, :,
                                           np.arange(m)]
    far = spectral_argmax(pi_s @ pi_s - pi_s, floor=np.nextafter(1e-4, 1.0))
    if far is not None:
        raise SplitflowError(
            f"impulse projection at node {nodes[far[1]]} is far from "
            f"idempotent (residual {far[0]:.3e}); perturbation may be too "
            "large", measured=far[0], threshold=1e-4)
    return pi_s
