"""Random hyperbolic solutions of semilinear nonautonomous problems.

Around a hyperbolic equilibrium ``y0*`` of the autonomous field, a small
nonautonomous perturbation of the nonlinearity leaves a unique bounded
trajectory nearby: the fixed point of

    I(phi)(t) = int G_A(t, s) g(s, phi(s)) ds,
    g(t, phi) = f_eta(t, y0* + phi) - f0(y0*) - f0'(y0*) phi,

where ``G_A`` is the Green kernel of the frozen linearization ``A``.  The
kernel integral is discretized by composite trapezoid with an exponential
tail truncation, evaluated as a matrix-valued convolution via the FFT.  The
trajectory is then certified as hyperbolic by linearizing along it and
running the continuous robustness pipeline.

The admission thresholds mirror the contraction argument: each smallness
term gets the budget ``1/(6 M beta^{-1})`` out of the contraction constant,
and the measured factor must stay below ``1/2`` plus a margin.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np
import numpy.fft  # noqa: F401  -- loaded at start-up, not by the first run

from .cocycle import ContinuousCocycle, _finite, _rows, spectral_sup
from .dichotomy import _envelope_scan, autonomous_certificate, expm
from .errors import (ConfigurationError, ContractionMarginError,
                     RobustnessHypothesisError, SplitflowError, ThresholdError)
from .greens import _impulse_span, _picard
from .robustness import robust_dichotomy_continuous

SMALLNESS_DIVISOR = 6.0     # per-term budget: 1/(6 M beta^{-1})
CONTRACTION_LIMIT = 0.75    # measured-factor bound: 1/2 from the proof + margin
# a-posteriori: sup distance <= 4 M beta^{-1} lambda; only the tests read it
# until ROADMAP open item 8 records the bound on the hyperbolic rows
SUP_OVER_LAMBDA = 4.0

STATUS_CERTIFIED = "certified"
STATUS_BOUNDED = "bounded"
STATUS_FAILED = "failed"

# one eta row of a ladder, in the order the hyperbolic command writes it
ROW_COLUMNS = ("eta", "sup_distance", "eps_used", "lambda", "certified",
               "alpha_tilde", "M_bound", "residual", "status", "error")


@dataclass
class SemilinearProblem:
    """An autonomous semilinear field with a nonautonomous perturbation family.

    ``a_matrix`` is the linearization at the equilibrium (drift plus
    ``f0'(y0_star)``); ``f_eta`` the perturbed nonlinearity with the
    driving-noise realization baked into the callback; ``r_u`` the radius of
    the working neighborhood around ``y0_star``.  Both Jacobian callbacks,
    ``f0_prime`` and ``f_eta_dy``, are required and analytic.

    The callbacks are time-batched: ``f_eta(eta, ts[N], Y[N, d]) -> [N, d]``
    and ``f_eta_dy(eta, ts, Y) -> [N, d, d]`` evaluate row i at time
    ``ts[i]`` and state ``Y[i]``; ``f0(Y) -> [N, d]`` and
    ``f0_prime(Y) -> [N, d, d]`` likewise for the autonomous field.  Wrap a
    callback written for one point with :func:`splitflow.pointwise`.
    """

    a_matrix: np.ndarray
    f_eta: object
    f0: object
    y0_star: np.ndarray
    r_u: float
    f0_prime: object
    f_eta_dy: object
    meta: dict = field(default_factory=dict)
    _base_cocycles: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)
    _greens: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        self.a_matrix = np.atleast_2d(np.asarray(self.a_matrix, float))
        self.y0_star = np.atleast_1d(np.asarray(self.y0_star, float))

    @property
    def dim(self):
        return self.a_matrix.shape[0]

    @cached_property
    def autonomous_cert(self):
        """Dichotomy certificate of ``a_matrix``, computed once per problem
        (raises when the linearization is not hyperbolic)."""
        return autonomous_certificate(self.a_matrix)

    def base_cocycle(self, step):
        """Constant cocycle of ``a_matrix`` at RK4 step ``step``, one per
        problem and step, so its unit flow is integrated once."""
        if step not in self._base_cocycles:
            self._base_cocycles[step] = ContinuousCocycle.constant(
                self.a_matrix, step=step)
        return self._base_cocycles[step]

    def autonomous_green(self, h, n_off):
        """Tabulated Green kernel of ``a_matrix`` at grid step ``h`` over
        ``n_off`` offsets, one per problem, step and offset count, so an eta
        ladder builds it once."""
        key = (h, n_off)
        if key not in self._greens:
            self._greens[key] = _AutonomousGreen(
                self.a_matrix, self.autonomous_cert.proj_s(0), h, n_off)
        return self._greens[key]

    def validate(self, tol=1e-8):
        """Equilibrium residual of the full autonomous field, plus hyperbolicity."""
        y0 = self.y0_star[None]
        drift = self.a_matrix - self.d_f0(y0)[0]
        res = float(np.linalg.norm(drift @ self.y0_star + self.f0_at(y0)[0]))
        if res > tol:
            raise ConfigurationError(
                f"y0_star is not an equilibrium (residual {res:.3e})"
            )
        self.autonomous_cert  # raises if not hyperbolic
        return res

    def f0_at(self, ys):
        """``f0`` at the states ``ys[N, d]``, shape ``(N, d)``."""
        return _rows(self.f0(ys), len(ys), self.dim)

    def f_eta_at(self, eta, ts, ys):
        """``f_eta`` at the times ``ts[N]`` and states ``ys[N, d]``, shape
        ``(N, d)``."""
        return _rows(self.f_eta(eta, ts, ys), len(ys), self.dim)

    def d_f0(self, ys):
        """Jacobians of ``f0`` at the states ``ys[N, d]``, ``(N, d, d)``."""
        return _rows(self.f0_prime(ys), len(ys), self.dim, self.dim)

    def d_f_eta(self, eta, ts, ys):
        """Jacobians in y of ``f_eta`` at ``(ts[i], ys[i])``, ``(N, d, d)``."""
        return _rows(self.f_eta_dy(eta, ts, ys), len(ys), self.dim, self.dim)


@cache
def _cloud_draw(n, d, seed):
    """Unit directions and radius fractions of :func:`_ball_cloud` and
    :func:`rho_modulus`, drawn once per ``(n, d, seed)`` and read-only."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1)[:, None], 1e-12)
    fracs = rng.random(n) ** (1.0 / d)
    fracs[: max(1, n // 4)] = 1.0  # pin a share to the boundary
    dirs.flags.writeable = fracs.flags.writeable = False
    return dirs, fracs


def _ball_cloud(center, radius, n, seed=20201102):
    """Deterministic point cloud in the closed ball, boundary included."""
    center = np.atleast_1d(np.asarray(center, float))
    dirs, fracs = _cloud_draw(n, len(center), seed)
    return center + dirs * (radius * fracs)[:, None]


def lambda_eta(p, eta, window, n_time=65, n_cloud=32):
    """Sampled sup of the perturbation distance over (time, neighborhood).

    The sup of ``|f_eta - f0| + |d_y f_eta - f0'|`` over the window times and
    a deterministic cloud in the working ball; one batched field call and
    one Jacobian call cover the whole cloud x time grid (cloud point major),
    and a non-finite value raises naming its time.
    """
    xs = _ball_cloud(p.y0_star, p.r_u, n_cloud)
    ts = np.tile(np.linspace(window.t_min, window.t_max, n_time), n_cloud)
    ys = np.repeat(xs, n_time, axis=0)
    f = _finite(p.f_eta_at(eta, ts, ys), ts, "field values")
    jac = _finite(p.d_f_eta(eta, ts, ys), ts, "field Jacobians")
    f0x, d0x = (np.repeat(a, n_time, axis=0) for a in (p.f0_at(xs), p.d_f0(xs)))
    v = np.linalg.norm(f - f0x, axis=1)
    return spectral_sup(jac - d0x, 1.0, v)


def rho_modulus(p, eps, n_cloud=32, n_dirs=8):
    """Sampled first-order remainder modulus of the autonomous nonlinearity."""
    if eps > p.r_u / 2:
        raise ValueError(f"rho_modulus needs eps <= r_u/2 = {p.r_u / 2:g}")
    if eps <= 0.0:
        return 0.0
    xs = _ball_cloud(p.y0_star, p.r_u - eps, n_cloud)
    dirs = _cloud_draw(n_cloud * n_dirs, p.dim, 787)[0].reshape(
        n_cloud, n_dirs, p.dim)
    mags = np.array([eps, eps / 2, eps / 8])
    # steps h[cloud point, direction, magnitude] and the points x + h
    h = mags[:, None] * dirs[:, :, None, :]
    f0xh = p.f0_at((xs[:, None, None, :] + h).reshape(-1, p.dim))
    rem = (f0xh.reshape(h.shape) - p.f0_at(xs)[:, None, None, :]
           - np.einsum("cij,cdmj->cdmi", p.d_f0(xs), h))
    return float(np.max(np.linalg.norm(rem, axis=-1) / mags))


def _lip_dev(p, eps, n_dirs=24):
    """Sampled sup of ``|f0'(y0*+h) - f0'(y0*)|`` over ``|h| <= eps``."""
    if eps <= 0.0:
        return 0.0
    d0 = p.d_f0(p.y0_star[None])[0]
    hs = _ball_cloud(np.zeros(p.dim), eps, n_dirs, seed=555)
    return spectral_sup(p.d_f0(p.y0_star + hs) - d0)


def _bisect_largest(pred, lo, hi, steps=16):
    """Largest x in (lo, hi] with pred(x), assuming pred monotone."""
    if pred(hi):
        return hi
    good = lo
    for _ in range(steps):
        mid = 0.5 * (good + hi)
        if pred(mid):
            good = mid
        else:
            hi = mid
    return good


def neighborhood_thresholds(p, m_bound, beta, bisect_steps=16):
    """The admissible sizes (eps1, eps2, eps0) for the contraction budgets.

    ``eps1`` bounds the derivative deviation term, ``eps2`` the remainder
    modulus (capped at 1/2), and ``eps0 = min(eps1, eps2/2)`` is the largest
    neighborhood the argument supports.
    """
    key = ("thresholds", round(m_bound, 12), round(beta, 12))
    if key in p.meta:
        return p.meta[key]
    budget = beta / (SMALLNESS_DIVISOR * m_bound)
    eps1 = _bisect_largest(lambda e: _lip_dev(p, e) < budget, 0.0, p.r_u / 2,
                           bisect_steps)
    eps2 = _bisect_largest(lambda e: rho_modulus(p, e) < budget, 0.0,
                           min(p.r_u / 2, 0.5 - 1e-9), bisect_steps)
    out = (eps1, eps2, min(eps1, eps2 / 2))
    p.meta[key] = out
    return out


def eta_epsilon(p, eps, m_bound, beta, lambda_curve, eta_max=1.0,
                bisect_steps=16):
    """Largest admissible perturbation size for a target neighborhood ``eps``.

    Requires ``eps`` below the threshold ``eps0``; then bisects for the
    largest eta with ``lambda_curve(eta) < eps/(6 M beta^{-1})``.  Returns 0
    with a warning when even the smallest probed eta violates the bound.
    """
    eps1, eps2, eps0 = neighborhood_thresholds(p, m_bound, beta, bisect_steps)
    if eps >= eps0:
        which = "eps1" if eps1 <= eps2 / 2 else "eps2"
        raise ThresholdError(
            f"eps={eps:g} is not below eps0={eps0:g} (binding: {which}, "
            f"eps1={eps1:g}, eps2={eps2:g})",
            which=which, limit=eps0,
        )
    target = eps * beta / (SMALLNESS_DIVISOR * m_bound)
    if lambda_curve(eta_max) < target:
        return eta_max
    tiny = eta_max * 2.0 ** (-bisect_steps)
    if lambda_curve(tiny) >= target:
        warnings.warn("no eta on the grid satisfies the smallness bound; "
                      "returning 0")
        return 0.0
    return _bisect_largest(lambda e: lambda_curve(e) < target, tiny, eta_max,
                           bisect_steps)


def kernel_tail_length(m_bound, beta, tail_tol):
    """Time span after which the kernel tail integral drops below ``tail_tol``."""
    return math.log(max(m_bound / (beta * tail_tol), 2.0)) / beta


def _fast_len(n):
    """Smallest 11-smooth integer ``>= n``: the FFT length
    ``scipy.fft.next_fast_len`` picks by default."""
    m = n
    while True:
        k = m
        for p in (2, 3, 5, 7, 11):
            while k % p == 0:
                k //= p
        if k == 1:
            return m
        m += 1


class _AutonomousGreen:
    """Tabulated kernel ``G(t - s)`` of a hyperbolic constant generator."""

    def __init__(self, a_matrix, pi_s, h, n_off):
        self.h, self.n_off = h, n_off
        pi_u = np.eye(a_matrix.shape[0]) - pi_s
        fwd, bwd = _envelope_scan(pi_s, pi_u, expm(a_matrix * h),
                                  expm(-a_matrix * h), n_off + 1)
        # composite trapezoid split at the kernel jump: the coincidence node
        # carries the average of the one-sided limits, (Pi^s - Pi^u)/2
        fwd[0] = 0.5 * (pi_s - pi_u)
        # stacked offsets -n_off .. n_off for the convolution
        self.table = np.concatenate([-bwd[1:][::-1], fwd], axis=0)
        self._spectra = {}  # rfft of the table per FFT length

    def convolve(self, u, weights):
        """``h * sum_j G[i-j] w_j u_j`` for u of shape (N, d)."""
        n = u.shape[0]
        uw = u * weights[:, None]
        n_fft = _fast_len(n + 2 * self.n_off + 1)
        if n_fft not in self._spectra:
            self._spectra[n_fft] = np.fft.rfft(self.table, n_fft, axis=0)
        gf = self._spectra[n_fft]
        uf = np.fft.rfft(uw, n_fft, axis=0)
        yf = np.einsum("fab,fb->fa", gf, uf)
        y = np.fft.irfft(yf, n_fft, axis=0)[self.n_off : self.n_off + n]
        return self.h * y


@dataclass
class HyperbolicSolutionCertificate:
    """A bounded trajectory near the equilibrium, with its certificates.

    ``status`` is three-valued: ``certified`` (linearized dichotomy verified),
    ``bounded`` (trajectory found, hyperbolicity unverified), ``failed``
    (sup distance not below ``eps_used``; never certified).
    Nodes within the kernel-tail length of the window edges are
    edge-contaminated; ``interior`` indexes the clean region.
    """

    times: np.ndarray
    trajectory: np.ndarray
    interior: slice
    sup_distance: float
    fixed_point_residual: float
    iterations: int
    eta: float
    eps_used: float
    lambda_value: float
    contraction_factor: float
    status: str
    autonomous_cert: object
    y0_star: np.ndarray
    linearization_certificate: object = None
    meta: dict = field(default_factory=dict)

    def xi_star(self, t):
        """Trajectory value at ``t``, shape ``t.shape + (d,)``: ``np.interp``
        per component, exact at the nodes, held constant outside the
        window."""
        return np.stack([np.interp(t, self.times, c)
                         for c in self.trajectory.T], axis=-1)

    def interior_times(self):
        return self.times[self.interior]


def find_hyperbolic_solution(p, eta, window, tol=1e-8, tail_tol=1e-9,
                             x0=None, max_iter=None, n_time=65, n_cloud=32):
    """Bounded trajectory near ``y0_star`` by kernel-contraction iteration.

    Verifies the contraction budget before iterating: the measured factor
    ``2 M beta^{-1} (lambda + rho(eps) + lip(eps))`` must stay below
    ``CONTRACTION_LIMIT`` and the self-map inequality must close, else a
    :class:`ContractionMarginError` reports the numbers.  The returned
    certificate has ``status='bounded'`` (hyperbolicity is certified
    separately by :func:`certify_hyperbolic`), or ``'failed'`` when its sup
    distance is not below ``eps_used``.
    """
    cert_a = p.autonomous_cert
    m_bound, beta = cert_a.bound, cert_a.exponent
    lam = lambda_eta(p, eta, window, n_time=n_time, n_cloud=n_cloud)
    eps1, eps2, eps0 = neighborhood_thresholds(p, m_bound, beta)
    if eps0 <= 0.0:
        raise ThresholdError("no admissible neighborhood: eps0 = 0",
                             which="eps0", limit=0.0)
    budget = beta / (SMALLNESS_DIVISOR * m_bound)
    if lam == 0.0:
        eps_used = eps0 / 2
    else:
        eps_needed = lam * SMALLNESS_DIVISOR * m_bound / beta
        if eps_needed >= eps0 * (1.0 - 1e-9):
            raise ContractionMarginError(
                f"lambda(eta)={lam:.4g} needs eps >= {eps_needed:.4g} but the "
                f"thresholds cap eps0 at {eps0:.4g}",
                factor=lam / (eps0 * budget), threshold=1.0,
            )
        eps_used = min(0.999 * eps0, 1.5 * eps_needed)
    rho_eps = rho_modulus(p, min(eps_used, p.r_u / 2))
    lip_eps = _lip_dev(p, eps_used)
    factor = 2.0 * (m_bound / beta) * (lam + rho_eps + lip_eps)
    if factor > CONTRACTION_LIMIT:
        raise ContractionMarginError(
            f"measured contraction factor {factor:.4f} exceeds "
            f"{CONTRACTION_LIMIT}", factor=factor, threshold=CONTRACTION_LIMIT,
        )
    selfmap = 2.0 * (m_bound / beta) * (lam + rho_eps * eps_used)
    if selfmap >= eps_used:
        raise ContractionMarginError(
            f"self-map bound {selfmap:.4g} does not close below eps="
            f"{eps_used:.4g}", factor=selfmap / eps_used, threshold=1.0,
        )

    h = window.h
    times = window.times()
    n = len(times)
    n_off = int(math.ceil(kernel_tail_length(m_bound, beta, tail_tol) / h))
    if 2 * n_off >= n:
        raise ConfigurationError(
            f"window too short for the kernel tail: need > {2 * n_off} nodes, "
            f"have {n}"
        )
    green = p.autonomous_green(h, n_off)
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    f0_star = p.f0_at(p.y0_star[None])[0]
    d0_star = p.d_f0(p.y0_star[None])[0]

    def g_all(phi):
        # one field call over every node; a non-finite value fails closed
        f = _finite(p.f_eta_at(eta, times, p.y0_star + phi), times,
                    "field values")
        return f - f0_star - phi @ d0_star.T

    phi, residual, it = _picard(
        lambda phi: green.convolve(g_all(phi), weights),
        np.zeros((n, p.dim)) if x0 is None else np.array(x0, float),
        tol, factor, 2.0 * (m_bound / beta) * max(lam, tol), max_iter,
        "kernel iteration")
    interior = slice(n_off, n - n_off)
    sup_dist = float(np.max(np.linalg.norm(phi[interior], axis=1)))
    status = STATUS_BOUNDED
    if not sup_dist < eps_used:  # a NaN fails closed
        warnings.warn(
            f"sup distance {sup_dist:.4g} is not below eps={eps_used:.4g}"
        )
        status = STATUS_FAILED
    return HyperbolicSolutionCertificate(
        times=times, trajectory=p.y0_star + phi, interior=interior,
        sup_distance=sup_dist, fixed_point_residual=residual, iterations=it,
        eta=eta, eps_used=eps_used, lambda_value=lam,
        contraction_factor=factor, status=status, autonomous_cert=cert_a,
        y0_star=p.y0_star,
        meta={"eps1": eps1, "eps2": eps2, "eps0": eps0, "tail_tol": tail_tol,
              "kernel_offsets": n_off, "window": [window.t_min, window.t_max],
              "rho_eps": rho_eps, "lip_eps": lip_eps, "selfmap": selfmap},
    )


def linearize_along(p, cert, step=None):
    """Variational cocycle along the certified trajectory.

    Generator ``A + B(t)`` with
    ``B(t) = d_y f_eta(eta, t, xi*(t)) - f0'(y0*)``, evaluated for a vector
    of times in one field call.
    """
    d0_star = p.d_f0(p.y0_star[None])[0]
    eta = cert.eta

    def gen(ts):
        return p.a_matrix + p.d_f_eta(eta, ts, cert.xi_star(ts)) - d0_star

    h = cert.times[1] - cert.times[0]
    return ContinuousCocycle(gen, p.dim,
                             step=step if step else min(h, 1.0 / 64.0))


def certify_hyperbolic(p, cert, n_half=5, slack=1.2, tol=1e-9,
                       trunc_tol=1e-9, step=None):
    """Attach a dichotomy certificate of the linearization along ``cert``.

    Runs the continuous robustness pipeline with the frozen linearization as
    the base; a threshold violation downgrades the status to ``bounded``
    (hyperbolicity unverified) instead of raising.  The projection nodes
    are [-h, h], h the largest up to ``n_half`` in the clean interior whose
    impulse span (:func:`~splitflow.greens._impulse_span` of the unit-step
    distance over [-h, h]) keeps its unit flows inside the trajectory
    window; with none, the status drops to ``bounded``, naming the span.  A
    ``failed`` trajectory (its sup distance not below ``eps_used``) is left
    as it is, uncertified.
    """
    if cert.status == STATUS_FAILED:
        return cert
    h_grid = cert.times[1] - cert.times[0]
    base_cc = p.base_cocycle(step if step else min(1.0 / 64.0, h_grid))
    pert_cc = linearize_along(p, cert, step=step)
    # the impulse solves may read edge-contaminated trajectory values (they
    # enter with exponentially small weight), but no flow past the window
    t0, t1, t_int = cert.times[0], cert.times[-1], cert.interior_times()
    top = min(n_half, int(min(-t_int[0], t_int[-1]) - 1) if len(t_int) else 0)
    need = "n_half and the clean interior leave no nodes -1, 1"
    nodes = np.arange(-top, top + 1)  # read again by the robustness pipeline
    dist = (pert_cc.unit_flows(nodes)[:, -1]
            - base_cc.unit_flows(nodes)[:, -1])
    for half in range(top, 0, -1):
        lo, hi = _impulse_span(cert.autonomous_cert,
                               dist[top - half:top + half + 1], -half, half,
                               trunc_tol)
        if t0 <= lo and hi + 1 <= t1:
            break
        need = (f"the impulse span [{lo}, {hi}] of nodes [-{half}, {half}] "
                f"needs unit flows on [{lo}, {hi + 1}]")
    else:
        cert.status = STATUS_BOUNDED
        cert.meta["certification"] = {
            "error": f"trajectory window [{t0:g}, {t1:g}] too short for "
                     f"certification: {need}"
        }
        return cert
    try:
        lin_cert = robust_dichotomy_continuous(
            base_cc, cert.autonomous_cert, pert_cc, (-half, half),
            slack=slack, tol=tol, trunc_tol=trunc_tol,
        )
    except (RobustnessHypothesisError, ContractionMarginError) as exc:
        cert.status = STATUS_BOUNDED
        cert.meta["certification"] = {
            "error": str(exc),
            "measured": getattr(exc, "measured", None),
            "threshold": getattr(exc, "threshold", None),
        }
        return cert
    report = lin_cert.meta["verification"]
    cert.linearization_certificate = lin_cert
    cert.status = STATUS_CERTIFIED if report.passed else STATUS_BOUNDED
    return cert


def eta_row(p, eta, window, tol=1e-8, tail_tol=1e-9, n_half=5,
            trunc_tol=1e-9, step=None, n_time=65, n_cloud=32):
    """One eta of a ladder: find the bounded trajectory, certify its
    linearization, and read the outcome back as a row.

    Returns ``(row, sol)``, ``row`` keyed by ``ROW_COLUMNS``.  A
    :class:`SplitflowError` is warned about and becomes a row with status
    ``error`` and ``sol`` None.  Anything else propagates: a ``ValueError``
    names a bad argument, not a refused eta.
    """
    eta = float(eta)
    row = dict.fromkeys(ROW_COLUMNS)
    row.update(eta=eta, certified=False, status="error")
    try:
        sol = find_hyperbolic_solution(p, eta, window, tol=tol,
                                       tail_tol=tail_tol, n_time=n_time,
                                       n_cloud=n_cloud)
        certify_hyperbolic(p, sol, n_half=n_half, trunc_tol=trunc_tol,
                           step=step)
    except SplitflowError as exc:
        row["error"] = str(exc)
        warnings.warn(f"eta={eta:g}: {exc}")
        return row, None
    row.update({"sup_distance": sol.sup_distance, "eps_used": sol.eps_used,
                "lambda": sol.lambda_value,
                "certified": sol.status == STATUS_CERTIFIED,
                "residual": sol.fixed_point_residual, "status": sol.status})
    lc = sol.linearization_certificate
    if lc is not None:
        row.update(alpha_tilde=float(lc.exponent), M_bound=float(lc.bound))
    return row, sol
