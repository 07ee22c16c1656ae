"""Shared oracles for the test suite.

These deliberately avoid the library code paths they are used to check:
the contour-integral projector is quadrature on the resolvent, and the
long-product projections extract stable/unstable directions by
forward/backward power iteration.
"""

import numpy as np
import pytest


def riesz_projector_oracle(a_matrix, n_quad=400):
    """Spectral projector onto the expanding part via resolvent quadrature.

    Integrates (lambda - A)^{-1} over a circle enclosing exactly the
    eigenvalues with positive real part; exponentially accurate in n_quad.
    """
    a_matrix = np.atleast_2d(np.asarray(a_matrix, float))
    eigs = np.linalg.eigvals(a_matrix)
    plus = eigs[eigs.real > 0]
    d = a_matrix.shape[0]
    if len(plus) == 0:
        return np.zeros((d, d))
    center = complex(np.mean(plus))
    radius = float(max(abs(plus - center))) + 0.45 * float(np.min(np.abs(eigs.real)))
    theta = 2 * np.pi * (np.arange(n_quad) + 0.5) / n_quad
    acc = np.zeros((d, d), dtype=complex)
    for th in theta:
        lam = center + radius * np.exp(1j * th)
        dlam_dtheta = 1j * radius * np.exp(1j * th)
        acc += np.linalg.inv(lam * np.eye(d) - a_matrix) * dlam_dtheta
    # Q = (1/2pi i) * (2pi/n) * sum f dlam/dtheta
    return (acc / (1j * n_quad)).real


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
