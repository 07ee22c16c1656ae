"""Shared oracles for the test suite.

These deliberately avoid the library code paths they are used to check:
the contour-integral projector is quadrature on the resolvent of a Cayley
transform, the long-product projections extract stable/unstable directions
by forward/backward power iteration, and :class:`GreenKernel` evaluates the
two-branch Green kernel one pair of times at a time, where the library
marches and sweeps whole windows.  The helpers at the end drive library
internals the way a test needs them.
"""

import numpy as np
import pytest

from splitflow import (ConfigurationError, DiscreteCocycle, ForcingSequence,
                       NonHyperbolicError)
from splitflow.cocycle import as_step_sequence, spectral_norms, stack_steps
from splitflow.greens import _gamma, _sweeps
from splitflow.hyperbolic import _ball_cloud


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
    ``(steps, projections)``: dicts of step matrices and ``Pi^s`` by node.
    """
    lo, hi = window
    gen = np.random.default_rng(seed)
    steps = {n: np.diag([0.5, 2.0]) + sigma * gen.standard_normal((2, 2))
             for n in range(lo - reach, hi + reach + 1)}
    projections = {}
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
        projections[n] = np.eye(2) - np.outer(u, w) / (w @ u)
    return steps, projections


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
            m = self.cert.proj_s(s)
            for k in range(s, t):
                m = self.cert.proj_s(k + 1) @ self._forward(k + 1, k, m)
            return m
        pu_s = self.cert.proj_u(s)
        pu_t = self.cert.proj_u(t)
        b_s = _range_basis(pu_s)
        b_t = _range_basis(pu_t)
        if b_s.shape[1] == 0:
            return np.zeros((self.cert.dim, self.cert.dim))
        w = b_s.T @ self._forward(s, t, b_t)
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


def gamma_apply(cocycle, cert, b, f, x):
    """One application of the library's kernel sum (``greens._gamma`` over
    ``greens._sweeps``) to a candidate ``x`` of the forcing's shape, over
    the forcing's whole window.  Linear in (x, f)."""
    n_lo, n_hi = f.window
    b_mats = stack_steps(as_step_sequence(b, cocycle.dim),
                         range(n_lo, n_hi + 1), cocycle.dim)
    return _gamma(_sweeps(cocycle, cert, n_lo, n_hi), b_mats, f,
                  np.asarray(x, float))


def impulse(n_min, n_max, node, payload):
    """Forcing on [n_min, n_max] equal to ``payload`` at ``node`` and zero
    elsewhere."""
    payload = np.asarray(payload, float)
    f = ForcingSequence.zeros(n_min, n_max, payload.shape[0],
                              None if payload.ndim == 1 else payload.shape[1])
    f.values[node - n_min] = payload
    return f


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
