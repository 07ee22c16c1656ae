"""Multiplicative-noise change of variables and the damped-wave demo.

A Stratonovich equation with bounded time-rescaled multiplicative noise,

    dy = B y dt + f(y) dt + eta kappa_t y o dW_t,

is never integrated directly.  The substitution
``v(t) = exp(-eta kappa_t z*(theta_t omega)) y(t)`` with the stationary
pathwise filter z* turns it into a random ODE

    v' = B v + e^{-c} f(e^{c} v) + eta (kappa_t - kappadot_t) z* v,
    c = eta kappa_t z*(theta_t omega),

which is exactly the semilinear perturbation format the hyperbolic-solution
machinery consumes.  The transform is an algebraic pointwise map, so it
inverts exactly; y-space results are pathwise reconstructions (the map is
not a stationary conjugacy).

The demo system is a damped wave equation reduced to its spectral
coefficients.  Desk-scale reduction: the spatial domain is the unit
interval (the theory is dimension-agnostic; the eigenstructure
``lambda_k = (k pi)^2`` is explicit), the nonlinearity is applied through a
fixed small collocation rule and re-projected, and the truncation error of
that rule is a documented modeling choice, not a numerical bug.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .dichotomy import spectral_projection
from .errors import ConfigurationError, NonHyperbolicError, WindowError
from .grids import TimeGrid
from .hyperbolic import (SemilinearProblem, eta_epsilon, eta_row, lambda_eta,
                         neighborhood_thresholds)
from .noise import (DEFAULT_TAIL_TOL, _tail_start, default_kappa,
                    rescaled_noise, sample_wiener_path)

# the wave driver's target neighborhood as a share of eps0, the reach of
# its noise path before the window, and its lambda(eta) (times, cloud) sizes
EPS_FRACTION = 0.5
PATH_MARGIN = 45.0
LAMBDA_SAMPLES = (33, 12)


@dataclass
class StratonovichSpec:
    """A Stratonovich problem with bounded time-rescaled multiplicative noise.

    ``f`` and ``f_prime`` are batched over states, ``f(Y[N, d]) -> [N, d]``
    and ``f_prime(Y) -> [N, d, d]``.  ``pattern`` is the 0/1 diagonal of the
    noise placement (which state blocks receive the noise); the actual
    noise matrix is ``eta * diag(pattern)`` with entries in {0, eta}.
    """

    b_matrix: np.ndarray
    f: object
    f_prime: object
    eta: float
    kappa: object
    pattern: np.ndarray = None

    def __post_init__(self):
        self.b_matrix = np.atleast_2d(np.asarray(self.b_matrix, float))
        d = self.b_matrix.shape[0]
        if self.pattern is None:
            self.pattern = np.ones(d)
        self.pattern = np.asarray(self.pattern, float)
        if self.pattern.shape != (d,) or not np.all(
                np.isin(self.pattern, (0.0, 1.0))):
            raise ConfigurationError("pattern must be a 0/1 vector of length d")
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1], got {self.eta}")


class _NoiseDressing:
    """Interpolators of ``kappa z*`` and ``(kappa - kappadot) z*`` on a path."""

    def __init__(self, path, kappa, tail_tol=DEFAULT_TAIL_TOL):
        t_first = _tail_start(path, tail_tol)
        ts = path.grid.times()
        self.ts = ts[ts >= t_first]
        if len(self.ts) < 2:
            raise WindowError("path window too short for the noise dressing",
                              required_extension=t_first - path.grid.t_min)
        self.kz, self.ckz = rescaled_noise(path, kappa, self.ts, tail_tol)

    def at(self, eta, pattern, t):
        """``(scale, gap)`` at the times ``t[N]``: ``scale[N, d] = exp(eta
        pattern kappa_t z*)``, so that ``y = scale * v``, and ``gap[N] = eta
        (kappa_t - kappadot_t) z*``, the coefficient of the linear noise term
        on the pattern block.  One range check per call: a time outside the
        dressed window raises :class:`WindowError`, naming the first such
        time and the count."""
        t = np.ravel(np.asarray(t, float))
        out = (t < self.ts[0] - 1e-9) | (t > self.ts[-1] + 1e-9)
        if np.any(out):
            raise WindowError(
                f"time {t[np.argmax(out)]} outside the dressed window "
                f"[{self.ts[0]:.2f}, {self.ts[-1]:.2f}] "
                f"({int(np.sum(out))} of {t.size} times out)"
            )
        scale = np.exp(eta * pattern * np.interp(t, self.ts, self.kz)[:, None])
        return scale, eta * np.interp(t, self.ts, self.ckz)


def inverse_transform(times, v_traj, spec, path, tail_tol=DEFAULT_TAIL_TOL):
    """Pointwise inverse map ``y(t) = exp(+eta_tilde kappa_t z*) v(t)``."""
    dressing = _NoiseDressing(path, spec.kappa, tail_tol)
    v_traj = np.atleast_2d(np.asarray(v_traj, float))
    return dressing.at(spec.eta, spec.pattern, times)[0] * v_traj


def random_ode_problem(strat, path, y0_star, r_u, a_matrix=None,
                       tail_tol=DEFAULT_TAIL_TOL):
    """Semilinear problem for the transformed equation, eta as a live knob.

    The perturbation of the autonomous nonlinearity is the transformed field
    plus the linear noise term; both scale down to zero with eta.
    """
    dressing = _NoiseDressing(path, strat.kappa, tail_tol)
    pattern = strat.pattern
    f, fp = strat.f, strat.f_prime
    d = len(pattern)
    y0_star = np.atleast_1d(np.asarray(y0_star, float))
    if a_matrix is None:
        a_matrix = strat.b_matrix + np.asarray(fp(y0_star[None]), float)[0]

    # with (s, gap) = dressing.at(eta, pattern, ts): the field
    # f(s v)/s + gap pattern v and its Jacobian (J s_j)/s_i + gap diag(pattern)
    def f_eta(eta, ts, v):
        s, gap = dressing.at(eta, pattern, ts)
        return (np.asarray(f(s * v), float).reshape(s.shape) / s
                + gap[:, None] * (pattern * v))

    def f_eta_dy(eta, ts, v):
        s, gap = dressing.at(eta, pattern, ts)
        jac = np.asarray(fp(s * v), float).reshape(len(s), d, d)
        return ((jac * s[:, None, :]) / s[:, :, None]
                + gap[:, None, None] * np.diag(pattern))

    return SemilinearProblem(
        a_matrix=a_matrix,
        f_eta=f_eta,
        f0=f,
        y0_star=y0_star,
        r_u=r_u,
        f0_prime=fp,
        f_eta_dy=f_eta_dy,
        meta={"dressing": dressing},
    )


def _chebyshev_rule(n_nodes):
    """Chebyshev-type nodes on (0, 1) with positive quadrature weights."""
    q = np.arange(1, n_nodes + 1)
    theta = np.pi * (2 * q - 1) / (2 * n_nodes)
    x = 0.5 * (1.0 - np.cos(theta))
    w = np.pi * np.sin(theta) / (2 * n_nodes)
    return x, w


def build_wave_system(n_modes, beta_damping, f_scalar, f_scalar_prime,
                      r_u=0.5):
    """Spectral reduction of the damped wave equation on the unit interval.

    State ``y = (a, adot)`` holds the coefficients of the Dirichlet sine
    modes; ``lambda_k = (k pi)^2``.  The scalar nonlinearity acts through
    collocation at ``n_modes + 2`` Chebyshev-type points followed by
    re-projection onto the modes (the Gram solve makes linear nonlinearities
    exact; the cubic aliasing error is the documented truncation).  Raises
    when the equilibrium 0 is not hyperbolic (some ``lambda_k`` equals
    ``f_scalar'(0)``).
    """
    if n_modes < 1:
        raise ConfigurationError("need n_modes >= 1")
    if not beta_damping > 0.0:
        raise ConfigurationError("need positive damping")
    n = int(n_modes)
    lam = (np.arange(1, n + 1) * np.pi) ** 2
    fp0 = float(f_scalar_prime(0.0))
    if np.min(np.abs(lam - fp0)) < 1e-8:
        raise NonHyperbolicError(
            f"equilibrium not hyperbolic: some lambda_k equals f'(0)={fp0:g}"
        )
    big_b = np.zeros((2 * n, 2 * n))
    big_b[:n, n:] = np.eye(n)
    big_b[n:, :n] = -np.diag(lam)
    big_b[n:, n:] = -beta_damping * np.eye(n)

    x, w = _chebyshev_rule(n + 2)
    phi = np.sqrt(2.0) * np.sin(np.outer(x, np.arange(1, n + 1)) * np.pi)
    gram = phi.T @ (w[:, None] * phi)
    proj = np.linalg.solve(gram, phi.T * w[None, :])  # modal re-projection

    def f0(ys):
        # batched over states: ys[N, 2n] -> [N, 2n]
        u = np.asarray(ys, float)[:, :n] @ phi.T
        out = np.zeros((len(u), 2 * n))
        out[:, n:] = np.asarray(f_scalar(u), float) @ proj.T
        return out

    def f0_prime(ys):
        u = np.asarray(ys, float)[:, :n] @ phi.T
        jac = np.zeros((len(u), 2 * n, 2 * n))
        jac[:, n:, :n] = proj @ (np.asarray(f_scalar_prime(u), float)[:, :, None]
                                 * phi)
        return jac

    a_matrix = big_b + f0_prime(np.zeros((1, 2 * n)))[0]
    spectral_projection(a_matrix)  # hard error when not hyperbolic
    problem = SemilinearProblem(
        a_matrix=a_matrix,
        f_eta=lambda eta, ts, ys: f0(ys),
        f0=f0,
        y0_star=np.zeros(2 * n),
        r_u=r_u,
        f0_prime=f0_prime,
        f_eta_dy=lambda eta, ts, ys: f0_prime(ys),
        meta={"n_modes": n, "beta_damping": beta_damping, "lambda_k": lam,
              "b_matrix": big_b, "collocation_x": x, "collocation_w": w,
              "phi": phi, "proj": proj},
    )
    return problem


@dataclass
class WaveDemoReport:
    """Per-eta outcome table of the stochastic damped-wave pipeline."""

    rows: list
    seed: int
    meta: dict = field(default_factory=dict)

    COLUMNS = ("eta", "sup_dist_v", "sup_dist_y", "certified", "alpha_tilde",
               "M_bound", "seed")


def run_wave_demo(n_modes, beta_damping, eta_grid, seed, window, *,
                  f_scalar=None, f_scalar_prime=None, kappa=None,
                  tol=1e-7, tail_tol=1e-7, trunc_tol=1e-7, n_half=3):
    """Full pipeline on the spectral damped wave system for an eta ladder.

    For each eta: transform, solve for the bounded trajectory, certify the
    linearization, and map the trajectory back to the original variables.
    Per-eta failures are recorded in the row and the run continues.  When
    ``eta_grid`` is None, a halving ladder under the computed admissibility
    cutoff is used (plus the eta = 0 reference row).
    """
    if f_scalar is None:
        f_scalar = lambda u: u - u ** 3
        f_scalar_prime = lambda u: 1.0 - 3.0 * u ** 2
    if kappa is None:
        kappa = default_kappa()
    base = build_wave_system(n_modes, beta_damping, f_scalar, f_scalar_prime)
    d = 2 * n_modes
    path_grid = TimeGrid(window.t_min - PATH_MARGIN, window.t_max + 1.0,
                         window.h)
    path = sample_wiener_path(path_grid, seed)
    strat = StratonovichSpec(
        b_matrix=base.meta["b_matrix"], f=base.f0, f_prime=base.f0_prime,
        eta=1.0, kappa=kappa, pattern=np.ones(d),
    )
    problem = random_ode_problem(strat, path, base.y0_star, base.r_u,
                                 a_matrix=base.a_matrix, tail_tol=tail_tol)
    cert_a = problem.autonomous_cert
    m_bound, beta = cert_a.bound, cert_a.exponent
    n_time, n_cloud = LAMBDA_SAMPLES

    def lam_curve(e):
        return lambda_eta(problem, e, window, n_time=n_time, n_cloud=n_cloud)

    eps1, eps2, eps0 = neighborhood_thresholds(problem, m_bound, beta)
    eps_pick = EPS_FRACTION * eps0
    eta_cut, emax = 0.0, 1.0
    for _ in range(4):  # zoom when the cutoff sits under the grid resolution
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            eta_cut = eta_epsilon(problem, eps_pick, m_bound, beta, lam_curve,
                                  eta_max=emax)
        if eta_cut > 0.0:
            break
        emax *= 2.0 ** -16
    if eta_grid is None:
        eta_grid = [0.9 * eta_cut / (2 ** k) for k in range(4)] + [0.0]
    meta = {"eta_cutoff": eta_cut, "eps_pick": eps_pick, "eps0": eps0,
            "autonomous_bound": m_bound, "autonomous_exponent": beta,
            "n_modes": n_modes, "beta_damping": beta_damping}
    rows = []
    for eta in eta_grid:
        row, sol = eta_row(problem, eta, window, tol=tol, tail_tol=tail_tol,
                           n_half=n_half, trunc_tol=trunc_tol, step=window.h,
                           n_time=n_time, n_cloud=n_cloud)
        sup_y = None
        if sol is not None:
            y = problem.meta["dressing"].at(
                row["eta"], strat.pattern, sol.interior_times()
            )[0] * sol.trajectory[sol.interior]
            sup_y = float(np.max(np.linalg.norm(y, axis=1)))
        rows.append({"eta": row["eta"], "seed": seed,
                     "sup_dist_v": row["sup_distance"], "sup_dist_y": sup_y,
                     **{k: row[k] for k in ("certified", "alpha_tilde",
                                            "M_bound", "status", "error")}})
    return WaveDemoReport(rows=rows, seed=seed, meta=meta)
