"""Random hyperbolic solutions of semilinear nonautonomous problems.

Around a hyperbolic equilibrium ``y0*`` of the autonomous field, a small
nonautonomous perturbation of the nonlinearity leaves a unique bounded
trajectory nearby: the fixed point of

    I(phi)(t) = int G_A(t, s) g(s, phi(s)) ds,
    g(t, phi) = f_eta(t, y0* + phi) - f0(y0*) - f0'(y0*) phi,

where ``G_A`` is the Green kernel of the frozen linearization ``A``.  The
kernel is exponential, ``e^{A tau} Pi^s`` forward and ``-e^{A tau} Pi^u``
backward, so its composite trapezoid sum over the window is two
first-order recurrences with one constant map each, solved exactly by
doubling (:func:`_kernel_sum`); the two maps are built once per problem and
grid step.  Where ``y0*`` solves every perturbed field too (multiplicative
noise, ``f(0) = 0``), the forcing ``g(t, 0)`` is zero, and the zero
trajectory is the answer: one field call, and no kernel is built.  The
trajectory is then certified as hyperbolic by linearizing along it: by the
conjugacy of a dressed linearization to the autonomous flow, or else by the
continuous robustness pipeline.

The admission thresholds mirror the contraction argument: each smallness
term gets the budget ``1/(6 M beta^{-1})`` out of the contraction constant,
and the measured factor must stay below ``1/2`` plus a margin.
"""

import math
import warnings
from dataclasses import dataclass, field
from functools import cache, cached_property, partial

import numpy as np

from .cocycle import (DEFAULT_STEP, ContinuousCocycle, _finite, _rows,
                      spectral_sup)
from .dichotomy import (DichotomyCertificate, autonomous_certificate,
                        expm, verify_dichotomy)
from .errors import (ConfigurationError, ContractionMarginError,
                     RobustnessHypothesisError, SplitflowError, ThresholdError)
from .greens import _impulse_span, _picard, _seq_sup
from .robustness import robust_dichotomy_continuous

SMALLNESS_DIVISOR = 6.0     # per-term budget: 1/(6 M beta^{-1})
CONTRACTION_LIMIT = 0.75    # measured-factor bound: 1/2 from the proof + margin
EPS_FRACTION = 0.5          # the automatic ladder's neighborhood over eps0
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

    ``dressing``, if given, is the :class:`~splitflow.noise.NoiseDressing`
    of the scalar multiplicative noise the fields were transformed by.  At
    an all-zero ``y0_star`` the transformed Jacobian is ``f0'(0) + gap I``,
    ``gap`` of ``dressing.at``, so a linearization along ``y0_star`` is
    dressed by ``dressing.gap_integral`` (:func:`linearize_along`).
    """

    a_matrix: np.ndarray
    f_eta: object
    f0: object
    y0_star: np.ndarray
    r_u: float
    f0_prime: object
    f_eta_dy: object
    dressing: object = None
    lambda_samples: tuple = (65, 32)  # lambda_eta's (n_time, n_cloud)
    # base cocycles, Green kernel maps, lambda samples and thresholds; not an
    # init field, so a problem made by dataclasses.replace starts with none
    _memo: dict = field(default_factory=dict, init=False, repr=False,
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
        if ("base", step) not in self._memo:
            self._memo["base", step] = ContinuousCocycle.constant(
                self.a_matrix, step=step)
        return self._memo["base", step]

    def validate(self):
        """Equilibrium residual of the full autonomous field, plus hyperbolicity."""
        y0 = self.y0_star[None]
        drift = self.a_matrix - self.d_f0(y0)[0]
        res = float(np.linalg.norm(drift @ self.y0_star + self.f0_at(y0)[0]))
        if not res <= 1e-8:  # a NaN fails closed
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
    and a non-finite value raises naming its time.  The grid (read-only)
    and ``f0``, ``f0'`` at the cloud are sampled once per problem and
    ``(window, n_time, n_cloud)``.
    """
    key = ("lambda", window, n_time, n_cloud)
    if key not in p._memo:
        xs = _ball_cloud(p.y0_star, p.r_u, n_cloud)
        ts = np.tile(np.linspace(window.t_min, window.t_max, n_time), n_cloud)
        ys = np.repeat(xs, n_time, axis=0)
        ts.flags.writeable = ys.flags.writeable = False
        p._memo[key] = ts, ys, p.f0_at(xs), p.d_f0(xs)
    ts, ys, f0x, d0x = p._memo[key]
    f = _finite(p.f_eta_at(eta, ts, ys), ts, "field values")
    jac = _finite(p.d_f_eta(eta, ts, ys), ts, "field Jacobians")
    # each cloud point's f0 and f0' broadcast over its block of times
    dev = (f.reshape(n_cloud, n_time, -1) - f0x[:, None]).reshape(f.shape)
    jac = (jac.reshape((n_cloud, n_time) + jac.shape[1:])
           - d0x[:, None]).reshape(jac.shape)
    return spectral_sup(jac, 1.0, np.linalg.norm(dev, axis=1))


def rho_modulus(p, eps):
    """Sampled first-order remainder modulus of the autonomous nonlinearity:
    32 cloud points in the ball of radius ``r_u - eps``, 8 directions each."""
    if eps > p.r_u / 2:
        raise ValueError(f"rho_modulus needs eps <= r_u/2 = {p.r_u / 2:g}")
    if eps <= 0.0:
        return 0.0
    xs = _ball_cloud(p.y0_star, p.r_u - eps, 32)
    dirs = _cloud_draw(32 * 8, p.dim, 787)[0].reshape(32, 8, p.dim)
    mags = np.array([eps, eps / 2, eps / 8])
    # steps h[cloud point, direction, magnitude] and the points x + h
    h = mags[:, None] * dirs[:, :, None, :]
    f0xh = p.f0_at((xs[:, None, None, :] + h).reshape(-1, p.dim))
    rem = (f0xh.reshape(h.shape) - p.f0_at(xs)[:, None, None, :]
           - np.einsum("cij,cdmj->cdmi", p.d_f0(xs), h))
    out = float(np.max(np.linalg.norm(rem, axis=-1) / mags))
    if not out < math.inf:  # a NaN fails closed
        raise SplitflowError(f"remainder modulus {out} at eps={eps:g}: f0 is "
                             f"not finite in the ball of radius {p.r_u:g}")
    return out


def _lip_dev(p, eps):
    """Sampled sup of ``|f0'(y0*+h) - f0'(y0*)|`` over 24 ``|h| <= eps``."""
    if eps <= 0.0:
        return 0.0
    if "d_f0_star" not in p._memo:  # once per problem: bisections call often
        p._memo["d_f0_star"] = p.d_f0(p.y0_star[None])[0]
    hs = _ball_cloud(np.zeros(p.dim), eps, 24, seed=555)
    return spectral_sup(p.d_f0(p.y0_star + hs) - p._memo["d_f0_star"])


def _largest_below(value, target, lo, hi, steps, v_lo, v_hi=None):
    """Largest x with ``value(x) < target`` among the floats a ``steps``-step
    bisection of [lo, hi] visits, ``value`` nondecreasing: the float that
    bisection returns, or ``lo`` (value ``v_lo``, not read).  ``value(hi)``
    is read unless ``v_hi`` gives it.

    The bracket holds lattice indices in 0 ... 2^steps, the last that passed
    and the first that failed.  Each probe is the index that log-log
    interpolation of their values predicts (exact for a power law), or the
    midpoint where a value is not positive and finite or the last
    interpolated probe did not halve the bracket (Brent, 1973, ch. 4); its
    float replays the bisection's ``0.5 * (good + hi)``.  A midpoint halves
    the bracket and follows any probe that did not, so at most ``2 steps -
    1`` points below hi are read, ``steps`` when every probe is a midpoint.
    """
    if v_hi is None:
        v_hi = value(hi)
    if v_hi < target:
        return hi
    (a, x_a, v_a), (b, x_b, v_b) = (0, lo, v_lo), (1 << steps, hi, v_hi)
    halve = False
    while b - a > 1:
        k = (a + b) // 2
        guided = (not halve and 0.0 < x_a and 0.0 < v_a < target
                  and v_b / v_a < math.inf)
        if guided:  # t in (0, 1]: no log or power leaves the floats
            t = math.log(target / v_a) / math.log(v_b / v_a)
            frac = (x_a * (x_b / x_a) ** t - x_a) / (x_b - x_a)
            k = min(max(a + int((b - a) * frac), a + 1), b - 1)
        x_k, x_h = lo, hi
        for bit in reversed(range(steps)):  # the bits of k pick each half
            x_m = 0.5 * (x_k + x_h)
            if k >> bit & 1:
                x_k = x_m
            else:
                x_h = x_m
        v, width = value(x_k), b - a
        if v < target:
            a, x_a, v_a = k, x_k, v
        else:
            b, x_b, v_b = k, x_k, v
        halve = guided and 2 * (b - a) > width
    return x_a


def neighborhood_thresholds(p, m_bound, beta, bisect_steps=16):
    """The admissible sizes (eps1, eps2, eps0) for the contraction budgets.

    ``eps1`` bounds the derivative deviation term, ``eps2`` the remainder
    modulus (capped at 1/2), and ``eps0 = min(eps1, eps2/2)`` is the largest
    neighborhood the argument supports.  Each is a :func:`_largest_below`
    search from 0, where both sups are 0, over ``bisect_steps`` steps.
    """
    key = ("thresholds", m_bound, beta, bisect_steps)
    if key in p._memo:
        return p._memo[key]
    budget = beta / (SMALLNESS_DIVISOR * m_bound)
    eps1 = _largest_below(partial(_lip_dev, p), budget, 0.0, p.r_u / 2,
                          bisect_steps, 0.0)
    eps2 = _largest_below(partial(rho_modulus, p), budget, 0.0,
                          min(p.r_u / 2, 0.5 - 1e-9), bisect_steps, 0.0)
    p._memo[key] = (eps1, eps2, min(eps1, eps2 / 2))
    return p._memo[key]


def eta_epsilon(p, eps, m_bound, beta, lambda_curve):
    """Largest admissible perturbation size for a target neighborhood ``eps``.

    Requires ``eps`` below the threshold ``eps0``; then searches 16 steps
    deep (:func:`_largest_below`) for the largest eta with ``lambda_curve(eta)
    < eps/(6 M beta^{-1})``, between the first of the floors ``1, 2^-16, ...,
    2^-64`` that passes and the one above it, reading each eta once.
    Returns 0 with a warning when none does.
    """
    eps1, eps2, eps0 = neighborhood_thresholds(p, m_bound, beta)
    if eps >= eps0:
        which = "eps1" if eps1 <= eps2 / 2 else "eps2"
        raise ThresholdError(
            f"eps={eps:g} is not below eps0={eps0:g} (binding: {which}, "
            f"eps1={eps1:g}, eps2={eps2:g})", measured=eps, threshold=eps0)
    target = eps * beta / (SMALLNESS_DIVISOR * m_bound)
    above = lambda_curve(1.0)
    if above < target:
        return 1.0
    for k in range(1, 5):
        floor = 2.0 ** (-16 * k)
        lam = lambda_curve(floor)
        if lam < target:
            return _largest_below(lambda_curve, target, floor,
                                  floor * 2.0 ** 16, 16, lam, above)
        above = lam
    warnings.warn("no eta down to 2^-64 satisfies the smallness bound; "
                  "returning 0")
    return 0.0


def eta_cutoff(p, window):
    """:func:`eta_epsilon` at ``EPS_FRACTION * eps0``, lambda sampled over
    ``window`` at ``p.lambda_samples``: the dict of ``eta_cutoff``,
    ``eps_pick``, ``eps0``, ``autonomous_bound`` and ``autonomous_exponent``,
    once per problem and window (a ladder and its report share it)."""
    key = ("cutoff", window)
    if key not in p._memo:
        m_bound, beta = p.autonomous_cert.bound, p.autonomous_cert.exponent
        eps0 = neighborhood_thresholds(p, m_bound, beta)[2]
        eps_pick = EPS_FRACTION * eps0
        cut = eta_epsilon(p, eps_pick, m_bound, beta, lambda e: lambda_eta(
            p, e, window, *p.lambda_samples))
        p._memo[key] = {"eta_cutoff": cut, "eps_pick": eps_pick, "eps0": eps0,
                        "autonomous_bound": m_bound,
                        "autonomous_exponent": beta}
    return p._memo[key]


def kernel_tail_length(m_bound, beta, tail_tol):
    """Time span after which the kernel tail integral drops below
    ``tail_tol``: the band at each window edge where the kernel sum, cut
    off at the edge, may differ from the sum over all time by more."""
    return math.log(max(m_bound / (beta * tail_tol), 2.0)) / beta


def _kernel_sum(maps, jump, u, h, times):
    """Trapezoid sum ``h sum_j G(t_i - t_j) u_j`` of the Green kernel over
    the window, untruncated: ``h (F + J u - B)``, with ``J = jump = (Pi^s -
    Pi^u) / 2`` at the kernel's jump, and the forward ``F_i = T (F_{i-1} +
    u_{i-1})`` and backward ``B_i = S (B_{i+1} + u_{i+1})`` sweeps of
    ``maps = (T, S) = (Pi^s e^{Ah}, Pi^u e^{-Ah})``, run together by
    doubling on one map each: ``v[s:] += v[:-s] (T^s)^T`` at s = 1, 2, 4,
    ..., the power squared after each level (Kogge & Stone, IEEE Trans.
    Comput. C-22, 1973).  An overflow raises :class:`SplitflowError` naming
    the first non-finite time, with no numpy warning."""
    mul = np.multiply if u.shape[1] == 1 else np.matmul  # d = 1: scalars
    power = maps.transpose(0, 2, 1)  # row vectors: v @ T^T
    with np.errstate(over="ignore", invalid="ignore"):
        v = np.zeros((2,) + u.shape)
        mul(np.stack([u[:-1], u[:0:-1]]), power, out=v[:, 1:])
        s = 1
        while s < len(u):
            v[:, s:] += mul(v[:, :-s], power)
            power, s = power @ power, 2 * s
        out = v[0] - v[1, ::-1]
        out += mul(u, jump.T)
        out *= h
    return _finite(out, times, "kernel sum")


@dataclass
class HyperbolicSolutionCertificate:
    """A bounded trajectory near the equilibrium, with its certificates.

    ``status`` is three-valued: ``certified`` (linearized dichotomy verified),
    ``bounded`` (trajectory found, hyperbolicity unverified), ``failed``
    (sup distance not below ``eps_used``; never certified).
    Nodes within the kernel-tail length of the window edges are
    edge-contaminated; ``interior`` indexes the clean region.
    ``iterations`` counts the kernel applications, none for a zero forcing.
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
    status: str
    linearization_certificate: object = None
    meta: dict = field(default_factory=dict)

    def xi_star(self, t):
        """Trajectory value at ``t``, shape ``t.shape + (d,)``: ``np.interp``
        per component, exact at the nodes, held constant outside the
        window, NaN at a NaN time."""
        t = np.asarray(t, float)
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
                             measured=eps0, threshold=0.0)
    budget = beta / (SMALLNESS_DIVISOR * m_bound)
    if lam == 0.0:
        eps_used = eps0 / 2
    else:
        eps_needed = lam * SMALLNESS_DIVISOR * m_bound / beta
        if eps_needed >= eps0 * (1.0 - 1e-9):
            raise ContractionMarginError(
                f"lambda(eta)={lam:.4g} needs eps >= {eps_needed:.4g} but the "
                f"thresholds cap eps0 at {eps0:.4g}",
                measured=lam / (eps0 * budget), threshold=1.0)
        eps_used = min(0.999 * eps0, 1.5 * eps_needed)
    rho_eps = rho_modulus(p, min(eps_used, p.r_u / 2))
    lip_eps = _lip_dev(p, eps_used)
    factor = 2.0 * (m_bound / beta) * (lam + rho_eps + lip_eps)
    if factor > CONTRACTION_LIMIT:
        raise ContractionMarginError(
            f"measured contraction factor {factor:.4f} exceeds "
            f"{CONTRACTION_LIMIT}", measured=factor,
            threshold=CONTRACTION_LIMIT)
    selfmap = 2.0 * (m_bound / beta) * (lam + rho_eps * eps_used)
    if selfmap >= eps_used:
        raise ContractionMarginError(
            f"self-map bound {selfmap:.4g} does not close below eps="
            f"{eps_used:.4g}", measured=selfmap / eps_used, threshold=1.0)

    h = window.h
    times = window.times()
    n = len(times)
    n_off = int(math.ceil(kernel_tail_length(m_bound, beta, tail_tol) / h))
    if 2 * n_off >= n:
        raise ConfigurationError(
            f"window too short for the kernel tail: need > {2 * n_off} nodes, "
            f"have {n}"
        )
    weights = np.ones(n)
    weights[0] = weights[-1] = 0.5
    f0_star = p.f0_at(p.y0_star[None])[0]
    d0_star = p.d_f0(p.y0_star[None])[0]

    def u_all(phi):
        # w g(t, phi), one field call over every node; non-finite fails closed
        f = _finite(p.f_eta_at(eta, times, p.y0_star + phi), times,
                    "field values")
        return (f - f0_star - phi @ d0_star.T) * weights[:, None]

    phi = np.zeros((n, p.dim)) if x0 is None else np.array(x0, float)
    u0 = [u_all(phi)]  # the first apply's forcing, read by the zero test
    if x0 is None and not u0[0].any():
        # y0_star solves the perturbed field: phi = 0 is the fixed point,
        # with no kernel applied
        residual, it = 0.0, 0
    else:
        pi_s, eye = cert_a.proj_s([0])[0], np.eye(p.dim)
        if ("green", h) not in p._memo:  # once per problem and step
            p._memo["green", h] = np.stack([
                pi_s @ expm(p.a_matrix * h),
                (eye - pi_s) @ expm(-p.a_matrix * h)])
        maps, jump = p._memo["green", h], pi_s - 0.5 * eye
        phi, residual, it = _picard(
            lambda x: _kernel_sum(maps, jump, u0.pop() if u0 else u_all(x),
                                  h, times),
            phi, tol, factor, 2.0 * (m_bound / beta) * max(lam, tol),
            max_iter, "kernel iteration")
    interior = slice(n_off, n - n_off)
    sup_dist = _seq_sup(phi[interior])  # an overflow reads inf
    status = STATUS_BOUNDED
    if not sup_dist < eps_used:  # a NaN fails closed
        warnings.warn(
            f"sup distance {sup_dist:.4g} is not below eps={eps_used:.4g}"
        )
        status = STATUS_FAILED
    return HyperbolicSolutionCertificate(
        times=times, trajectory=p.y0_star + phi, interior=interior,
        sup_distance=sup_dist, fixed_point_residual=residual, iterations=it,
        eta=eta, eps_used=eps_used, lambda_value=lam, status=status,
        meta={"eps1": eps1, "eps2": eps2, "eps0": eps0, "tail_tol": tail_tol,
              "kernel_offsets": n_off, "window": [window.t_min, window.t_max],
              "rho_eps": rho_eps, "lip_eps": lip_eps, "selfmap": selfmap},
    )


def linearize_along(p, cert, step=None):
    """Variational cocycle along the certified trajectory.

    Generator ``A + B(t)`` with
    ``B(t) = d_y f_eta(eta, t, xi*(t)) - f0'(y0*)``, evaluated for a vector
    of times in one field call; dressed (base flows times ``exp(int gap)``)
    where the problem holds a ``dressing``, ``y0*`` is all zero and ``xi* =
    y0*`` bit for bit.
    """
    d0_star = p.d_f0(p.y0_star[None])[0]
    eta = cert.eta

    def gen(ts):
        g = p.a_matrix + p.d_f_eta(eta, ts, cert.xi_star(ts))
        g -= d0_star  # in place: one (N, d, d) temporary fewer
        return g

    h = cert.times[1] - cert.times[0]
    step = step if step else min(h, DEFAULT_STEP)
    if p.dressing is not None and not p.y0_star.any() and np.all(
            cert.trajectory.view(np.int64) == p.y0_star.view(np.int64)):
        return ContinuousCocycle(gen, p.dim, step, base=p.base_cocycle(step),
                                 log_scale=partial(p.dressing.gap_integral,
                                                   eta))
    return ContinuousCocycle(gen, p.dim, step)


def _conjugacy_certificate(p, cert, pert_cc, half, slack):
    """``(K e^{|eta| u}, beta, Pi^s)`` of ``A``'s certificate, verified on
    [-half, half]: a dressed flow is ``e^{eta (C(t) - C(s))} e^{A (t - s)}``,
    ``C = int gap``, u the larger rise of ``C`` over the trajectory window,
    once per problem and window (Duan, Lu & Schmalfuss, Ann. Probab. 31,
    2003).  A bound past the floats raises RobustnessHypothesisError."""
    cert_a, key = p.autonomous_cert, ("rise", cert.times[0], cert.times[-1])
    if key not in p._memo:
        p._memo[key] = max(p.dressing.rises(1.0, *key[1:]))
    rise = p._memo[key]
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(cert_a.bound * np.exp(abs(cert.eta) * rise))
    if not bound < math.inf:  # a NaN fails closed
        raise RobustnessHypothesisError(
            f"conjugacy bound K e^(|eta| u) = {bound} is not finite "
            f"(K={cert_a.bound:g}, eta={cert.eta:g}, u={rise:g})",
            measured=bound, threshold=math.inf)
    lin_cert = DichotomyCertificate.constant(
        cert_a.projections[0], bound, cert_a.exponent,
        meta={"route": "conjugacy", "rise": rise, "window": [-half, half]})
    lin_cert.meta["verification"] = verify_dichotomy(
        pert_cc, lin_cert, (-half, half), slack=slack)
    return lin_cert


def certify_hyperbolic(p, cert, n_half=5, slack=1.2, tol=1e-9,
                       trunc_tol=1e-9, step=None):
    """Attach a dichotomy certificate of the linearization along ``cert``.

    The projection nodes are [-h, h], h the largest up to ``n_half`` in the
    clean interior.  A dressed linearization (:func:`linearize_along`) is
    certified by its conjugacy (:func:`_conjugacy_certificate`); any other
    by the continuous robustness pipeline with the frozen linearization as
    the base, h cut further until the impulse span
    (:func:`~splitflow.greens._impulse_span` of the unit-step distance over
    [-h, h]) keeps its unit flows inside the trajectory window.  With no
    such h, or on a threshold violation, the status drops to ``bounded``,
    naming why.  The certificate's ``meta["route"]`` is ``conjugacy`` or
    ``roughness``, and the row is ``certified`` when :func:`verify_dichotomy`
    passes it.  A ``failed`` trajectory is left uncertified.
    """
    if not (0.0 < tol < math.inf and 0.0 < trunc_tol < math.inf):
        raise ValueError(f"tolerance must be positive and finite, got "
                         f"tol={tol}, trunc_tol={trunc_tol}")
    if cert.status == STATUS_FAILED:
        return cert
    pert_cc = linearize_along(p, cert, step=step)
    dressed = pert_cc.log_scale is not None
    t0, t1, t_int = cert.times[0], cert.times[-1], cert.interior_times()
    top = min(n_half, int(min(-t_int[0], t_int[-1]) - 1) if len(t_int) else 0)
    need = "n_half and the clean interior leave no nodes -1, 1"
    half = top
    if not dressed:
        base_cc = p.base_cocycle(pert_cc.step)
        # the impulse solves may read edge-contaminated trajectory values
        # (of exponentially small weight), but no flow past the window
        nodes = np.arange(-top, top + 1)  # read again by the pipeline
        dist = pert_cc.unit_steps(nodes) - base_cc.unit_steps(nodes)
        for half in range(top, 0, -1):
            lo, hi = _impulse_span(p.autonomous_cert,
                                   dist[top - half:top + half + 1], -half,
                                   half, trunc_tol)
            if t0 <= lo and hi + 1 <= t1:
                break
            need = (f"the impulse span [{lo}, {hi}] of nodes [-{half}, "
                    f"{half}] needs unit flows on [{lo}, {hi + 1}]")
        else:
            half = 0
    if half < 1:
        cert.status = STATUS_BOUNDED
        cert.meta["certification"] = {
            "error": f"trajectory window [{t0:g}, {t1:g}] too short for "
                     f"certification: {need}"
        }
        return cert
    try:
        if dressed:
            lin_cert = _conjugacy_certificate(p, cert, pert_cc, half, slack)
        else:
            lin_cert = robust_dichotomy_continuous(
                base_cc, p.autonomous_cert, pert_cc, (-half, half),
                slack=slack, tol=tol, trunc_tol=trunc_tol,
            )
            lin_cert.meta["route"] = "roughness"
    except (RobustnessHypothesisError, ContractionMarginError) as exc:
        cert.status = STATUS_BOUNDED
        cert.meta["certification"] = exc.record()
        return cert
    report = lin_cert.meta["verification"]
    cert.linearization_certificate = lin_cert
    cert.status = STATUS_CERTIFIED if report.passed else STATUS_BOUNDED
    return cert


def eta_row(p, eta, window, tol=1e-8, tail_tol=1e-9, n_half=5,
            trunc_tol=1e-9):
    """One eta of a ladder: find the bounded trajectory, certify its
    linearization, and read the outcome back as a row.

    Returns ``(row, sol)``, ``row`` keyed by ``ROW_COLUMNS``.  A
    :class:`SplitflowError` is warned about and becomes a row with status
    ``error`` and ``sol`` None.  A :class:`ConfigurationError` or anything
    else propagates: it names a bad config or argument, not a refused eta.
    """
    eta = float(eta)
    row = dict.fromkeys(ROW_COLUMNS)
    row.update(eta=eta, certified=False, status="error")
    n_time, n_cloud = p.lambda_samples
    try:
        sol = find_hyperbolic_solution(p, eta, window, tol=tol,
                                       tail_tol=tail_tol, n_time=n_time,
                                       n_cloud=n_cloud)
        certify_hyperbolic(p, sol, n_half=n_half, trunc_tol=trunc_tol)
    except ConfigurationError:
        raise
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


def ladder(p, window, eta_grid, *, tol, tail_tol, n_half, trunc_tol=1e-9):
    """The :func:`eta_row` pairs ``(row, sol)`` of ``eta_grid``, yielded one
    at a time, so a reader holds one trajectory at a time.  An empty grid is
    the automatic ladder ``0.9 cut / 2^k``, k = 0 ... 3, then 0, under the
    :func:`eta_cutoff` ``cut``; a given grid runs no search."""
    if not eta_grid:
        cut = eta_cutoff(p, window)["eta_cutoff"]
        eta_grid = [0.9 * cut / (2 ** k) for k in range(4)] + [0.0]
    for eta in eta_grid:
        yield eta_row(p, eta, window, tol, tail_tol, n_half, trunc_tol)
