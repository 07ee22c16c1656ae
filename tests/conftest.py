"""Shared oracles for the test suite.

These deliberately avoid the library code paths they are used to check:
the contour-integral projector is quadrature on the resolvent of a Cayley
transform, the long-product projections extract stable/unstable directions
by forward/backward power iteration, and :class:`GreenKernel` evaluates the
two-branch Green kernel one pair of times at a time, where the library
marches and sweeps whole windows; :func:`gamma_sequential` runs the two
kernel sweeps one node at a time, where the library evaluates them by
doubling, :func:`kernel_sum_oracle` sums the autonomous Green kernel over
every pair of a window's times, where the hyperbolic kernel iteration
sweeps, :func:`envelope_scan_sequential` builds the autonomous envelope
tables one step at a time, where the library doubles, and
:func:`all_pairs_ratios` takes an SVD of every kernel value, where the
verifier prunes, :func:`ball_cloud_oracle` and
:func:`rho_modulus_oracle` draw their clouds afresh, where the library
draws once, and :func:`conjugated_fields_oracle` composes the random ODE's
field from a conjugated nonlinearity and a linear noise term that each read
the noise dressing, where the library reads it once per call, and
:func:`impulse_family_oracle` Picard-iterates the impulse family from zero,
where the library returns a trivial splitting's ``Pi^s`` or solves for the
splitting, and :func:`wave_collocation` recomputes the wave model's
collocation rule, which the library keeps inside its fields, and
:func:`bisect_largest_oracle` bisects plainly, reading only whether each
midpoint passes, where the library's searches interpolate the values they
read (:func:`thresholds_oracle` and :func:`eta_search_oracle` redo the
threshold and eta cutoff searches on it).  The helpers at the end drive
library internals the way a test needs them.
"""

import numpy as np
import pytest

from splitflow import (ConfigurationError, DichotomyCertificate,
                       DiscreteCocycle, ForcingSequence, NonHyperbolicError,
                       SemilinearProblem, build_wave_system, default_kappa,
                       ladder, pointwise, wave_problem, wave_row)
from splitflow.cocycle import UNIT_SAMPLES, spectral_norms, stack_steps
from splitflow.dichotomy import (_restricted_inverse, _split_march,
                                 _window_nodes)
from splitflow.greens import (_gamma, _impulse_span, _sweeps,
                              bounded_solution)
from splitflow.hyperbolic import (SMALLNESS_DIVISOR, _ball_cloud, _lip_dev,
                                  rho_modulus)


def spectral_norm(m):
    """Largest singular value of one matrix."""
    return float(np.linalg.norm(np.asarray(m, float), 2))


def riesz_projector_oracle(a_matrix):
    """Spectral projector onto the expanding part via resolvent quadrature.

    The Cayley map ``mu = (lambda - sigma) / (lambda + sigma)``, ``sigma >
    0``, takes the open right half-plane onto the unit disk, so the unit
    circle encloses exactly the images of the eigenvalues with positive
    real part, whatever the spectrum's shape.  The projector is the contour
    integral ``(1/2 pi i) int (mu - C)^{-1} dmu`` of the Cayley transform
    ``C`` of ``A`` over that circle, with ``(mu - C)^{-1} = (A + sigma)
    ((mu - 1) A + (mu + 1) sigma)^{-1}``, so that ``A + sigma`` is never
    inverted.  The trapezoid rule converges geometrically, with ratio the
    largest of ``|mu_k|`` and ``1/|mu_k|`` over the mapped eigenvalues:
    ``sigma`` is the eigenvalue modulus that makes it smallest, and enough
    nodes are taken to push the quadrature error below 1e-18.
    """
    a_matrix = np.atleast_2d(np.asarray(a_matrix, float))
    d = a_matrix.shape[0]
    eigs = np.linalg.eigvals(a_matrix)

    def ratio(sigma):
        with np.errstate(divide="ignore", invalid="ignore"):
            mapped = np.abs((eigs - sigma) / (eigs + sigma))
            return float(np.max(np.minimum(mapped, 1.0 / mapped)))

    sigma = min(np.abs(eigs), key=ratio)
    n_quad = max(16, int(np.ceil(np.log(1e-18)
                                 / np.log(max(ratio(sigma), 1e-3)))))
    ident = np.eye(d)
    acc = np.zeros((d, d), dtype=complex)
    for lo in range(0, n_quad, 4096):  # bounded memory for long rules
        mu = np.exp(2j * np.pi * (np.arange(lo, min(n_quad, lo + 4096)) + 0.5)
                    / n_quad)[:, None, None]
        acc += np.sum(mu * np.linalg.inv((mu - 1.0) * a_matrix
                                         + (mu + 1.0) * sigma * ident), axis=0)
    # (1/2 pi i) sum (mu - C)^{-1} dmu with dmu = i mu (2 pi / n)
    return ((a_matrix + sigma * ident) @ acc / n_quad).real


def brute_force_projections(step_matrix, n_power=200):
    """Stable/unstable projections of a constant 2x2 step by long products.

    The unstable direction is the dominant left image of the forward long
    product; the stable one is the minimal-growth right direction (smallest
    right singular vector).  Returns (Pi_s, Pi_u).
    """
    m = np.atleast_2d(np.asarray(step_matrix, float))
    prod = np.eye(m.shape[0])
    for _ in range(n_power):
        prod = m @ prod
        prod /= np.linalg.norm(prod, 2)
    u_, s_, vt_ = np.linalg.svd(prod)
    u_dir = u_[:, 0]           # dominant image direction = unstable at +inf
    s_dir = vt_[-1, :]         # minimal-growth seed direction = stable
    # for a constant step these are the eigen-directions; build the oblique
    # projector onto span(u_dir) along span(s_dir)
    w = np.array([-s_dir[1], s_dir[0]])
    w = w / (w @ u_dir)
    pi_u = np.outer(u_dir, w)
    return np.eye(2) - pi_u, pi_u


def time_varying_saddle(window, seed=14, sigma=0.03, reach=80):
    """A saddle cocycle ``A_n = diag(1/2, 2) + sigma N(0, 1)`` with its exact
    invariant projections on the window nodes.

    The unstable direction at node n is the image of ``A_{n-1} ... A_{n-L}``
    (forward power iteration from the far past), the stable one the
    preimage of ``A_{n+L-1} ... A_n`` (backward power iteration from the far
    future); at ``L = reach`` both are exact to machine precision.  Returns
    ``(steps, projections)``: a dict of step matrices by node and the
    ``(N, 2, 2)`` stack of ``Pi^s`` at the nodes ``lo, ..., hi + 1``.
    """
    lo, hi = window
    gen = np.random.default_rng(seed)
    steps = {n: np.diag([0.5, 2.0]) + sigma * gen.standard_normal((2, 2))
             for n in range(lo - reach, hi + reach + 1)}
    projections = np.empty((hi + 2 - lo, 2, 2))
    for n in range(lo, hi + 2):
        u = np.ones(2)
        for k in range(n - reach, n):
            u = steps[k] @ u
            u /= np.linalg.norm(u)
        s = np.ones(2)
        for k in range(n + reach - 1, n - 1, -1):
            s = np.linalg.solve(steps[k], s)
            s /= np.linalg.norm(s)
        w = np.array([-s[1], s[0]])  # annihilates the stable direction
        projections[n - lo] = np.eye(2) - np.outer(u, w) / (w @ u)
    return steps, projections


def rotating_saddle(window, dim, n_stable, seed=0, bound=1.0, exponent=0.2):
    """A time-varying saddle ``A_n = V_{n+1} D_n V_n^{-1}`` on ``dim``
    coordinates and its exact invariant projections, as a node-batched
    :class:`DiscreteCocycle` and a family certificate on the window.

    ``V_n`` is a random rotation times a random well-conditioned shear, so
    the splitting turns from node to node and the projections
    ``Pi^s(n) = V_n E V_n^{-1}``, ``E`` the first ``n_stable`` coordinates,
    are oblique; ``D_n`` is diagonal with ``n_stable`` rates in [0.3, 0.7]
    and the others in [1.5, 2.5], so every step keeps the ranks.
    """
    lo, hi = window
    gen = np.random.default_rng(seed)
    frames = {}
    for n in range(lo, hi + 2):
        q, _ = np.linalg.qr(gen.standard_normal((dim, dim)))
        frames[n] = q @ (np.eye(dim) + 0.3 * np.triu(
            gen.uniform(-1.0, 1.0, (dim, dim)), 1))
    stable = np.arange(dim) < n_stable
    steps = np.array([frames[n + 1] @ np.diag(np.where(
        stable, gen.uniform(0.3, 0.7, dim), gen.uniform(1.5, 2.5, dim)))
        @ np.linalg.inv(frames[n]) for n in range(lo, hi + 1)])
    e = np.diag(stable.astype(float))
    cert = DichotomyCertificate(
        bound=bound, exponent=exponent, first=lo,
        projections=[v @ e @ np.linalg.inv(v) for v in frames.values()])
    return DiscreteCocycle(lambda ns: steps[np.asarray(ns) - lo], dim), cert


def _range_basis(proj, rank_tol=0.5):
    """Orthonormal basis of the range of a (possibly oblique) projection."""
    u, s, _ = np.linalg.svd(proj)
    return u[:, s > rank_tol]


class GreenKernel:
    """Two-branch solution kernel of a cocycle with a dichotomy certificate.

    For integer times: ``G(t, s) = phi_{t,s} Pi^s`` when ``t >= s``, as the
    steps ``Pi^s(k+1) A_k`` applied to ``Pi^s(s)``, and ``-phi_{t,s} Pi^u``
    (through the unstable-restricted inverse) when ``t < s``.  Each value is
    computed on its own, per pair: the reference for the split-flow march
    and the kernel sweeps.
    """

    def __init__(self, cocycle, cert):
        if not isinstance(cocycle, DiscreteCocycle):
            raise ConfigurationError("GreenKernel works on discrete cocycles; "
                                     "discretize continuous ones first")
        self.cocycle = cocycle
        self.cert = cert

    def _forward(self, t, s, m):
        """``phi_{t,s} m``, applied step by step from the right."""
        for step in stack_steps(self.cocycle.step, range(s, t),
                                self.cocycle.dim):
            m = step @ m
        return m

    def eval(self, t, s):
        t, s = int(t), int(s)
        if t >= s:
            # re-projected at every step, so round-off cannot grow along
            # the unstable range
            m = self.cert.proj_s([s])[0]
            for k in range(s, t):
                m = self.cert.proj_s([k + 1])[0] @ self._forward(k + 1, k, m)
            return m
        pu_s = self.cert.proj_u([s])[0]
        pu_t = self.cert.proj_u([t])[0]
        b_s = _range_basis(pu_s)
        b_t = _range_basis(pu_t)
        if b_s.shape[1] == 0:
            return np.zeros((self.cocycle.dim, self.cocycle.dim))
        w = b_s.T @ self._forward(s, t, b_t)
        sv = np.linalg.svd(w, compute_uv=False)
        if sv[-1] <= 1e-300:
            raise NonHyperbolicError("unstable-restricted map is singular; "
                                     "backward branch undefined")
        return -(b_t @ np.linalg.inv(w) @ b_s.T @ pu_s)

    def jump_residual(self, s):
        """|G(s,s) + (backward-branch limit at s) - Id|; zero when Pi^s+Pi^u=Id."""
        g_plus = self.eval(s, s)
        back_limit = self.cert.proj_u([s])[0]
        return spectral_norm(g_plus + back_limit - np.eye(self.cocycle.dim))


def gamma_apply(cocycle, cert, b, f, x):
    """One application of the library's kernel sum (``greens._gamma`` over
    ``greens._sweeps``) to a candidate ``x`` of the forcing's shape, over
    the forcing's whole window.  Linear in (x, f)."""
    n_lo, n_hi = f.window
    b_mats = stack_steps(b, range(n_lo, n_hi + 1), cocycle.dim)
    return _gamma(_sweeps(stack_steps(cocycle.step, range(n_lo, n_hi + 1),
                                  cocycle.dim),
                      cert.proj_s(range(n_lo, n_hi + 2)), n_lo), b_mats, f,
                  np.asarray(x, float))


def gamma_sequential(cocycle, cert, b, f, x):
    """The kernel sum of :func:`gamma_apply` by the two first-order sweeps
    one node at a time: forward ``S(m+1) = Pi^s(m+1) (A_m S(m) + u(m))``
    from ``S(n_lo) = 0``, backward ``U(m) = R_m (U(m+1) - Pi^u(m+1) u(m))``
    from ``U(n_hi+1) = 0``, with ``u = B x + f``."""
    n_lo, n_hi = f.window
    d = cocycle.dim
    steps = stack_steps(cocycle.step, range(n_lo, n_hi + 1), d)
    b_mats = stack_steps(b, range(n_lo, n_hi + 1), d)
    proj_s = cert.proj_s(range(n_lo, n_hi + 2))
    back = _restricted_inverse(steps, proj_s)[0]
    pi_s, pi_u = proj_s[1:], np.eye(d) - proj_s[1:]
    u = np.einsum("kab,kb...->ka...", b_mats, np.asarray(x, float)) + f.values
    out = np.zeros_like(u)
    for m in range(len(u) - 1):
        out[m + 1] = pi_s[m] @ (steps[m] @ out[m] + u[m])
    acc = np.zeros_like(u[0])
    for m in range(len(u) - 1, -1, -1):
        acc = back[m] @ (acc - pi_u[m] @ u[m])
        out[m] += acc
    return out


def kernel_sum_oracle(a_matrix, pi_s, u, h, reach=None):
    """The trapezoid sum ``h sum_j G(t_i - t_j) u_j`` of the autonomous
    Green kernel of ``a_matrix`` over the pairs of nodes of a window of
    step ``h``, ``u`` holding the weighted forcing at every node: all pairs,
    or those at most ``reach`` nodes apart.  ``G(kh)`` is ``(Pi^s
    e^{Ah})^k Pi^s`` for k > 0, ``-(Pi^u e^{-Ah})^{-k} Pi^u`` for k < 0 and
    ``(Pi^s - Pi^u) / 2`` at k = 0, each power one factor (scipy's
    ``expm``) on the last, with the ``pi_s`` given, where the library
    sweeps by doubling."""
    from scipy.linalg import expm

    a = np.atleast_2d(np.asarray(a_matrix, float))
    n, pi_u = len(u), np.eye(len(a)) - pi_s
    fwd, bwd = pi_s @ expm(a * h), pi_u @ expm(-a * h)
    kernel = np.empty((2 * n - 1, len(a), len(a)))  # offsets 1-n .. n-1
    kernel[n - 1] = 0.5 * (pi_s - pi_u)
    up, down = pi_s, pi_u
    for k in range(1, n):
        up, down = fwd @ up, bwd @ down
        kernel[n - 1 + k], kernel[n - 1 - k] = up, -down
    if reach is not None:
        kernel[:n - 1 - reach] = kernel[n + reach:] = 0.0
    js = np.arange(n)
    return h * np.stack([np.einsum("jab,jb->a", kernel[n - 1 + i - js], u)
                         for i in range(n)])


def envelope_scan_sequential(pi_s, pi_u, step_fwd, step_bwd, count):
    """The tables of :func:`splitflow.dichotomy._envelope_scan`, ``fwd[k] =
    Pi^s (S_f Pi^s)^k`` and ``bwd[k] = Pi^u (S_b Pi^u)^k`` as one ``(2,
    count, d, d)`` array, one step at a time, re-projected after every
    step."""
    d = pi_s.shape[0]
    tables = np.empty((2, count, d, d))
    cur_s, cur_u = pi_s, pi_u
    for k in range(count):
        tables[0, k], tables[1, k] = cur_s, cur_u
        cur_s = pi_s @ (step_fwd @ cur_s)
        cur_u = pi_u @ (step_bwd @ cur_u)
    return tables


def march_tables(steps, proj_s):
    """The streamed split-flow march stacked into ``(fwd, bwd)`` tables of
    shape ``(N, N, d, d)``, entry ``[offset j, source node i]`` (zero where
    the target leaves the nodes)."""
    n, d = proj_s.shape[:2]
    back = _restricted_inverse(steps, proj_s)[0]
    fwd, bwd = np.zeros((2, n, n, d, d))
    for j, (f, b) in enumerate(_split_march(steps, proj_s, back)):
        fwd[j, : n - j], bwd[j, j:] = f, b
    return fwd, bwd


def all_pairs_ratios(cocycle, cert, window):
    """``(max_ratio, worst)`` of the forward and the backward decay of
    :func:`splitflow.verify_dichotomy` from a spectral norm of every pair
    of the :func:`march_tables`, fractional horizons of a continuous
    cocycle included, each located by the first max in C order of the
    tables ``[source, offset, fraction]`` and ``[target, offset]``."""
    nodes = _window_nodes(window)
    n, d = len(nodes), cocycle.dim
    discrete = isinstance(cocycle, DiscreteCocycle)
    k_bound, alpha = cert.bound, cert.exponent
    flows = None if discrete else cocycle.unit_flows(nodes[:-1])
    steps = (stack_steps(cocycle.step, nodes[:-1], d) if discrete
             else flows[:, -1])
    fwd, bwd = march_tables(steps, cert.proj_s(nodes))

    def ratios(norms, exponents):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(norms > 0.0, norms * np.exp(exponents),
                            0.0) / k_bound

    subs = 1 if discrete else UNIT_SAMPLES
    horizon = np.arange(n)[:, None] + np.arange(subs) / subs
    def svd_norms(m):
        return np.linalg.norm(m, 2, axis=(-2, -1))

    norms = np.zeros((n, n, subs))
    norms[:, :, 0] = svd_norms(fwd).T
    for k in range(0 if discrete else n - 1):
        norms[: n - 1 - k, k, 1:] = svd_norms(
            flows[k:, 1:-1] @ fwd[k, : n - 1 - k, None])
    ratio = ratios(norms, alpha * horizon)
    i, k, j = np.unravel_index(np.argmax(ratio), ratio.shape)
    top_fwd = float(ratio[i, k, j])
    worst_fwd = (nodes[i], float(horizon[k, j])) if top_fwd > 0.0 else None

    target, offset = np.indices((n, n))
    inside = target + offset < n
    norms = svd_norms(bwd)[offset, np.where(inside, target + offset, 0)]
    ratio = ratios(np.where(inside, norms, 0.0), alpha * offset)
    i, k = np.unravel_index(np.argmax(ratio), ratio.shape)
    top_bwd = float(ratio[i, k])
    worst_bwd = (nodes[i + k], float(k)) if top_bwd > 0.0 else None
    return (top_fwd, worst_fwd), (top_bwd, worst_bwd)


def impulse(n_min, n_max, node, payload):
    """Forcing on [n_min, n_max] equal to ``payload`` at ``node`` and zero
    elsewhere."""
    payload = np.asarray(payload, float)
    f = ForcingSequence.zeros(n_min, n_max, payload.shape[0],
                              None if payload.ndim == 1 else payload.shape[1])
    f.values[node - n_min] = payload
    return f


def impulse_family_forcing(cocycle, cert, b, nodes, trunc_tol=1e-10):
    """The unit-impulse forcing of the family at ``nodes`` over the
    library's impulse span: column block j is the identity at ``nodes[j] -
    1``."""
    d, m = cocycle.dim, len(nodes)
    window = range(min(nodes), max(nodes) + 1)
    n_lo, n_hi = _impulse_span(cert, stack_steps(b, window, d), window[0],
                               window[-1], trunc_tol)
    f = ForcingSequence.zeros(n_lo, n_hi, d, d * m)
    for j, n in enumerate(nodes):
        f.values[n - 1 - n_lo, :, j * d:(j + 1) * d] = np.eye(d)
    return f


def impulse_family_oracle(cocycle, cert, b, nodes, tol=1e-10,
                          trunc_tol=1e-10):
    """The perturbed stable projections at ``nodes`` as one bounded solution
    of :func:`impulse_family_forcing`, Picard iterated from zero, where the
    library returns ``Pi^s`` itself or solves for the span's splitting.
    Returns ``(family, solution)``."""
    d, m = cocycle.dim, len(nodes)
    f = impulse_family_forcing(cocycle, cert, b, nodes, trunc_tol)
    n_lo = f.n_min
    sol = bounded_solution(cocycle, cert, b, f, tol=tol, trunc_tol=trunc_tol)
    blocks = sol.values.reshape(-1, d, m, d)
    return blocks[np.asarray(nodes) - n_lo, :, np.arange(m)], sol


def value_at(sol, n):
    """Value of a :class:`~splitflow.greens.BoundedSolution` at node n."""
    return sol.values[n - sol.n_min]


def validate_kappa(kappa, grid, fd_tol=1e-5):
    """Check a time-rescaling's positivity and its analytic derivative
    against central differences on ``grid``; returns the derivative error."""
    ts = grid.times()
    k = np.asarray(kappa.kappa(ts), float)
    if np.any(k <= 0.0):
        raise ConfigurationError(f"kappa must be positive on the grid ({kappa.name})")
    kd = np.asarray(kappa.kappa_dot(ts), float)
    fd = np.gradient(k, grid.h)
    err = np.max(np.abs(kd[2:-2] - fd[2:-2]))
    scale = max(1.0, float(np.max(np.abs(kd))))
    if err > max(fd_tol, 10.0 * grid.h**2 * scale):
        raise ConfigurationError(
            f"kappa_dot disagrees with finite differences (max err {err:.3e})"
        )
    return float(err)


def lambda_eta_loop(p, eta, window, n_time=65, n_cloud=32):
    """:func:`splitflow.lambda_eta` one cloud point at a time: a field call
    and a Jacobian call per point over all the times, and every sampled
    Jacobian deviation through its own SVD."""
    ts = np.linspace(window.t_min, window.t_max, n_time)
    xs = _ball_cloud(p.y0_star, p.r_u, n_cloud)
    f0x, d0x = p.f0_at(xs), p.d_f0(xs)
    worst = 0.0
    for x, f0, d0 in zip(xs, f0x, d0x):
        ys = np.broadcast_to(x, (n_time, p.dim))
        v = np.linalg.norm(p.f_eta_at(eta, ts, ys) - f0, axis=1)
        dv = spectral_norms(p.d_f_eta(eta, ts, ys) - d0)
        worst = max(worst, float(np.max(v + dv, initial=0.0)))
    return worst


def conjugated_fields_oracle(strat, dressing):
    """The field and Jacobian of :func:`splitflow.random_ode_problem` in two
    layers: the conjugated nonlinearity ``e^{-c} f(e^{c} v)``, ``c = eta
    kappa_t z*``, and its Jacobian in ``v`` by the chain rule, ``f'(e^{c}
    v)``, each interpolating ``kappa z*`` on its own, plus the linear noise
    term ``eta (kappa - kappadot) z* v``, interpolated on its own."""
    f, fp = strat.f, strat.f_prime
    d = strat.b_matrix.shape[0]

    def scale(eta, ts):
        col = np.asarray(ts, float)[:, None]
        return np.exp(eta * np.interp(col, dressing.ts, dressing.kz))

    def gap(eta, ts):
        return eta * np.interp(np.asarray(ts, float), dressing.ts,
                               dressing.ckz)

    def conj(eta, ts, v):
        s = scale(eta, ts)
        return np.asarray(f(s * v), float).reshape(v.shape) / s

    def conj_dy(eta, ts, v):
        return np.asarray(fp(scale(eta, ts) * v), float).reshape(len(v), d, d)

    def f_eta(eta, ts, v):
        return conj(eta, ts, v) + gap(eta, ts)[:, None] * v

    def f_eta_dy(eta, ts, v):
        return conj_dy(eta, ts, v) + gap(eta, ts)[:, None, None] * np.eye(d)

    return f_eta, f_eta_dy


def ball_cloud_oracle(center, radius, n, seed=20201102):
    """The point cloud of :func:`splitflow.hyperbolic._ball_cloud` from a
    fresh draw on every call."""
    center = np.atleast_1d(np.asarray(center, float))
    d = len(center)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n, d))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1)[:, None], 1e-12)
    radii = radius * rng.random(n) ** (1.0 / d)
    radii[: max(1, n // 4)] = radius  # pin a share to the boundary
    return center + dirs * radii[:, None]


def rho_modulus_oracle(p, eps):
    """:func:`splitflow.rho_modulus` from a fresh draw of its unit
    directions on every call."""
    n_cloud, n_dirs = 32, 8
    xs = _ball_cloud(p.y0_star, p.r_u - eps, n_cloud)
    dirs = np.random.default_rng(787).standard_normal((n_cloud, n_dirs, p.dim))
    dirs /= np.maximum(np.linalg.norm(dirs, axis=2)[..., None], 1e-12)
    mags = np.array([eps, eps / 2, eps / 8])
    h = mags[:, None] * dirs[:, :, None, :]
    f0xh = p.f0_at((xs[:, None, None, :] + h).reshape(-1, p.dim))
    rem = (f0xh.reshape(h.shape) - p.f0_at(xs)[:, None, None, :]
           - np.einsum("cij,cdmj->cdmi", p.d_f0(xs), h))
    return float(np.max(np.linalg.norm(rem, axis=-1) / mags))


def bisect_largest_oracle(pred, lo, hi, steps=16):
    """Largest x in (lo, hi] with pred(x), pred monotone, by ``steps``
    bisections ``mid = 0.5 * (good + hi)``; ``lo`` when none passes."""
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


def thresholds_oracle(p, m_bound, beta, steps=16):
    """:func:`splitflow.neighborhood_thresholds` by plain bisection."""
    budget = beta / (SMALLNESS_DIVISOR * m_bound)
    eps1 = bisect_largest_oracle(lambda e: _lip_dev(p, e) < budget, 0.0,
                                 p.r_u / 2, steps)
    eps2 = bisect_largest_oracle(lambda e: rho_modulus(p, e) < budget, 0.0,
                                 min(p.r_u / 2, 0.5 - 1e-9), steps)
    return eps1, eps2, min(eps1, eps2 / 2)


def eta_search_oracle(lambda_curve, target):
    """The eta of :func:`splitflow.hyperbolic.eta_epsilon` for a smallness
    ``target``: 1 if it passes, else 16 plain bisections between the first
    floor 2^-16, ..., 2^-64 that passes and the one above it, else 0."""
    def admits(eta):
        return lambda_curve(eta) < target

    if admits(1.0):
        return 1.0
    for k in range(1, 5):
        floor = 2.0 ** (-16 * k)
        if admits(floor):
            return bisect_largest_oracle(admits, floor, floor * 2.0 ** 16)
    return 0.0


def bump_problem():
    """Scalar ``y' = -y + 40 eta exp(-((t - 1)/0.05)^2)`` around 0.

    On the window [-70, 70] the bump falls between the sample times of
    :func:`splitflow.lambda_eta`, so lambda reads 0 and the admitted
    neighborhood is eps_used = 0.125; at eta = 1 the trajectory reaches a
    sup distance of about 3.2, so the solution is ``failed``.
    """
    return SemilinearProblem(
        a_matrix=[[-1.0]],
        f_eta=pointwise(lambda eta, t, y: np.array(
            [40.0 * eta * np.exp(-((t - 1.0) / 0.05) ** 2)])),
        f0=pointwise(lambda y: np.zeros(1)),
        y0_star=[0.0], r_u=1.0,
        f0_prime=pointwise(lambda y: np.zeros((1, 1))),
        f_eta_dy=pointwise(lambda eta, t, y: np.zeros((1, 1))),
    )


def ou_value_oracle(path, t):
    """z*(theta_t omega) by the trapezoid rule on the nodes from the
    window's left edge to ``t``, one sum per base point."""
    g = path.grid
    i = g.index_of(t)
    s = (np.arange(i + 1) - i) * g.h
    shifted = path.values[: i + 1] - path.values[i]
    return float(-np.trapezoid(np.exp(s) * shifted, dx=g.h))


def cumulative_ou_oracle(path, ts):
    """z*(theta_t omega) at the times ``ts`` by one cumulative pass weighted
    by ``e^{t - t0}``, ``t0 = min(ts)``: the weights overflow beyond about
    700 time units right of ``t0``."""
    g = path.grid
    all_t, idx, t0 = g.times(), g.index_of(ts), float(np.min(ts))

    def cumtrapz(y):
        return np.concatenate([[0.0], np.cumsum(g.h * (y[1:] + y[:-1]) / 2.0)])

    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(all_t - t0)
        cw, cwo = cumtrapz(w), cumtrapz(w * path.values)
        return np.exp(-(all_t[idx] - t0)) * (path.values[idx] * cw[idx] - cwo[idx])


def ensemble_oracle(n_paths, h, t_min, seed):
    """``(w1_var, z_var)`` of :func:`splitflow.noise.ensemble_diagnostics`
    from one increment matrix per half-line, z* as a weighted row sum."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(2,)))
    fwd = np.cumsum(rng.standard_normal((n_paths, round(1.0 / h))), axis=1) * np.sqrt(h)
    n_bwd = round(-t_min / h)
    bwd = np.cumsum(rng.standard_normal((n_paths, n_bwd)), axis=1) * np.sqrt(h)
    omega = np.concatenate([bwd[:, ::-1], np.zeros((n_paths, 1))], axis=1)
    w = np.exp(np.arange(-n_bwd, 1) * h) * h
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(np.var(fwd[:, -1], ddof=1)), float(np.var(-(omega @ w), ddof=1))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def wave_ladder(n_modes, eta_grid, seed, window, **knobs):
    """The stable wave of the damped-wave demo (f(u) = u - u^3, the default
    kappa) through the ladder at the ``wave`` command's defaults, ``knobs``
    overriding them: ``(problem, rows)``, the rows as ``wave.csv`` has
    them."""
    p = wave_problem(n_modes, 1.0, 1.0, default_kappa(), window, seed, 1e-7)
    knobs = {"tol": 1e-7, "tail_tol": 1e-7, "n_half": 3, "trunc_tol": 1e-7,
             **knobs}
    return p, [wave_row(p, row, sol, seed)
               for row, sol in ladder(p, window, eta_grid, **knobs)]


def wave_collocation(b_matrix):
    """``(lambda_k, phi, proj)`` of the collocation rule of the
    :func:`splitflow.build_wave_system` whose drift is ``b_matrix``,
    computed afresh: the eigenvalues ``(k pi)^2``, the sine modes at the
    ``n + 2`` Chebyshev-type nodes divided by the diagonal ``c`` of the
    coupling block ``B[:n, n:]``, and the re-projection onto the modes by
    the Gram solve of the quadrature.  The first half of the state is ``c
    a``, ``a`` the sine coefficients (c = 1 in coefficient coordinates,
    ``sqrt(lambda_k)`` in energy ones), so ``u = y[:n] @ phi.T``."""
    n = len(b_matrix) // 2
    theta = np.pi * (2 * np.arange(1, n + 3) - 1) / (2 * (n + 2))
    x = 0.5 * (1.0 - np.cos(theta))
    w = np.pi * np.sin(theta) / (2 * (n + 2))
    phi = np.sqrt(2.0) * np.sin(np.outer(x, np.arange(1, n + 1)) * np.pi)
    gram = phi.T @ (w[:, None] * phi)
    proj = np.linalg.solve(gram, phi.T * w[None, :])
    c = np.diag(b_matrix[:n, n:])
    return (np.arange(1, n + 1) * np.pi) ** 2, phi / c, proj


def autonomous_wave(n_modes, beta_damping, f_scalar, f_scalar_prime):
    """The system of :func:`splitflow.build_wave_system` as an autonomous
    problem around its equilibrium 0, working radius 0.5: ``a_matrix`` is
    the drift plus ``f0'(0)``, and the perturbed field and its Jacobian are
    ``f0`` and ``f0'``, whatever eta and t."""
    b_matrix, f0, f0_prime = build_wave_system(n_modes, beta_damping,
                                               f_scalar, f_scalar_prime)
    zero = np.zeros(len(b_matrix))
    return SemilinearProblem(
        a_matrix=b_matrix + f0_prime(zero[None])[0],
        f_eta=lambda eta, ts, ys: f0(ys), f0=f0, y0_star=zero, r_u=0.5,
        f0_prime=f0_prime, f_eta_dy=lambda eta, ts, ys: f0_prime(ys))


def counted_applies(monkeypatch, module):
    """The ``apply`` calls of every ``_picard`` run that ``module`` starts,
    one count per run, as a list."""
    real, runs = module._picard, []

    def counted(apply, *args):
        runs.append(0)

        def app(x):
            runs[-1] += 1
            return apply(x)

        return real(app, *args)

    monkeypatch.setattr(module, "_picard", counted)
    return runs


def gap_rise_oracle(dressing, eta, t0, t1, sub=64):
    """``(forward, backward)`` rises of ``C = int gap`` over [t0, t1] (see
    ``NoiseDressing.rises``), densely: the gap read through
    ``dressing.at``, integrated by the trapezoid at ``sub`` points per
    segment between ``t0``, the path's nodes, the gap's zero crossings
    (where ``C`` turns) and ``t1``, and the rises taken over those
    points."""
    nodes = dressing.ts[(dressing.ts > t0) & (dressing.ts < t1)]
    knots = np.concatenate([[t0], nodes, [t1]])
    g = dressing.at(eta, knots)[1]
    turns = [a - g0 * (b - a) / (g1 - g0)
             for a, b, g0, g1 in zip(knots, knots[1:], g, g[1:])
             if g0 * g1 < 0.0]
    knots = np.sort(np.concatenate([knots, turns]))
    t = np.concatenate([np.linspace(a, b, sub + 1)[:-1]
                        for a, b in zip(knots, knots[1:])] + [[t1]])
    g = dressing.at(eta, t)[1]
    c = np.concatenate([[0.0], np.cumsum(np.diff(t) * (g[:-1] + g[1:]) / 2)])
    return (float(np.max(c - np.minimum.accumulate(c))),
            float(np.max(c - np.minimum.accumulate(c[::-1])[::-1])))
