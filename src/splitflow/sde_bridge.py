"""Multiplicative-noise change of variables and the program's two models.

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

The wave model is a damped wave equation reduced to its spectral
coefficients.  Desk-scale reduction: the spatial domain is the unit
interval (the theory is dimension-agnostic; the eigenstructure
``lambda_k = (k pi)^2`` is explicit), the nonlinearity is applied through a
fixed small collocation rule and re-projected, and the truncation error of
that rule is a documented modeling choice, not a numerical bug.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonHyperbolicError
from .hyperbolic import SemilinearProblem
from .noise import DEFAULT_TAIL_TOL, NoiseDressing, sample_wiener_path

# the wave model's reach of its noise path before the window, and its
# lambda(eta) (times, cloud) sizes
PATH_MARGIN = 45.0
LAMBDA_SAMPLES = (33, 12)
# one row of wave.csv, in the order the wave command writes it
WAVE_COLUMNS = ("eta", "sup_dist_v", "sup_dist_y", "certified", "alpha_tilde",
                "M_bound", "seed")


@dataclass
class StratonovichSpec:
    """A Stratonovich problem with bounded time-rescaled multiplicative noise.

    ``f`` and ``f_prime`` are batched over states, ``f(Y[N, d]) -> [N, d]``
    and ``f_prime(Y) -> [N, d, d]``; ``f_prime`` returns a new array per
    call, since :func:`random_ode_problem` adds the noise gap to its
    diagonal in place (a read-only one is copied first).  The noise ``eta
    kappa_t y o dW_t`` is scalar, one Wiener path on every component.
    :func:`random_ode_problem` takes eta per field call and the program's
    specs carry ``eta = 1``; only :func:`inverse_transform` reads ``eta``,
    so a row's inverse map needs a spec with that row's eta.
    """

    b_matrix: np.ndarray
    f: object
    f_prime: object
    eta: float
    kappa: object

    def __post_init__(self):
        self.b_matrix = np.atleast_2d(np.asarray(self.b_matrix, float))
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigurationError(f"eta must lie in [0, 1], got {self.eta}")


def inverse_transform(times, v_traj, spec, path, tail_tol=DEFAULT_TAIL_TOL):
    """Pointwise inverse map ``y(t) = exp(+eta kappa_t z*) v(t)`` at the eta
    of ``spec``, not a row's: :func:`random_ode_problem` takes eta per field
    call and the program's specs carry ``eta = 1``, so a row's trajectory
    needs a spec that carries that row's eta."""
    dressing = NoiseDressing(path, spec.kappa, tail_tol)
    v_traj = np.atleast_2d(np.asarray(v_traj, float))
    return dressing.at(spec.eta, times)[0][:, None] * v_traj


def random_ode_problem(strat, path, y0_star, r_u, a_matrix=None,
                       tail_tol=DEFAULT_TAIL_TOL):
    """Semilinear problem for the transformed equation, eta as a live knob.

    The perturbation of the autonomous nonlinearity is the transformed field
    plus the linear noise term; both scale down to zero with eta.  The
    problem holds the :class:`~splitflow.noise.NoiseDressing` its fields
    read (``dressing``).
    """
    dressing = NoiseDressing(path, strat.kappa, tail_tol)
    f, fp = strat.f, strat.f_prime
    y0_star = np.atleast_1d(np.asarray(y0_star, float))
    if a_matrix is None:
        a_matrix = strat.b_matrix + np.asarray(fp(y0_star[None]), float)[0]

    # with (s, gap) = dressing.at(eta, ts): the field f(s v)/s + gap v and,
    # the scale being scalar, its Jacobian f'(s v) + gap I
    def f_eta(eta, ts, v):
        s, gap = (c[:, None] for c in dressing.at(eta, ts))
        return np.asarray(f(s * v), float).reshape(v.shape) / s + gap * v

    def f_eta_dy(eta, ts, v):
        s, gap = dressing.at(eta, ts)
        jac = np.asarray(fp(s[:, None] * v), float).reshape(
            len(v), v.shape[1], v.shape[1])
        if not jac.flags.writeable:
            jac = jac.copy()
        diag = np.einsum("nii->ni", jac)  # a writable view of the diagonals
        diag += gap[:, None]
        return jac

    return SemilinearProblem(
        a_matrix=a_matrix,
        f_eta=f_eta,
        f0=f,
        y0_star=y0_star,
        r_u=r_u,
        f0_prime=fp,
        f_eta_dy=f_eta_dy,
        dressing=dressing,
    )


def build_wave_system(n_modes, beta_damping, f_scalar, f_scalar_prime):
    """Spectral reduction of the damped wave equation on the unit interval.

    ``(b_matrix, f0, f0_prime)``, the drift and the batched nonlinearity
    and its Jacobian, of ``y = (a, adot)``, the coefficients of the
    Dirichlet sine modes; ``lambda_k = (k pi)^2``.  The scalar nonlinearity
    acts through collocation at ``n_modes + 2`` Chebyshev-type points
    followed by re-projection onto the modes (the Gram solve makes linear
    nonlinearities exact; the cubic aliasing error is the documented
    truncation).  Raises when some ``lambda_k`` equals ``f_scalar'(0)``.
    """
    if n_modes < 1:
        raise ConfigurationError("need n_modes >= 1")
    if not beta_damping > 0.0:
        raise ConfigurationError("need positive damping")
    n = int(n_modes)
    lam = (np.arange(1, n + 1) * np.pi) ** 2
    fp0 = float(f_scalar_prime(0.0))
    gap = float(np.min(np.abs(lam - fp0)))
    if gap < 1e-8:
        raise NonHyperbolicError(
            f"equilibrium not hyperbolic: some lambda_k equals f'(0)={fp0:g}",
            measured=gap, threshold=1e-8)
    big_b = np.zeros((2 * n, 2 * n))
    big_b[:n, n:] = np.eye(n)
    big_b[n:, :n] = -np.diag(lam)
    big_b[n:, n:] = -beta_damping * np.eye(n)

    # Chebyshev-type nodes on (0, 1) with positive quadrature weights
    theta = np.pi * (2 * np.arange(1, n + 3) - 1) / (2 * (n + 2))
    x = 0.5 * (1.0 - np.cos(theta))
    w = np.pi * np.sin(theta) / (2 * (n + 2))
    phi = np.sqrt(2.0) * np.sin(np.outer(x, np.arange(1, n + 1)) * np.pi)
    gram = phi.T @ (w[:, None] * phi)
    proj = np.linalg.solve(gram, phi.T * w[None, :])  # modal re-projection

    # batched over states, ys[N, 2n]; each product is written into its
    # block of the zero result, and f'(u) phi takes its products over whole
    # (n + 2, n) blocks, not rows of n (the same products, bit for bit)
    def f0(ys):
        u = np.asarray(ys, float)[:, :n] @ phi.T
        out = np.zeros((len(u), 2 * n))
        np.matmul(np.asarray(f_scalar(u), float), proj.T, out=out[:, n:])
        return out

    def f0_prime(ys):
        u = np.asarray(ys, float)[:, :n] @ phi.T
        jac = np.zeros((len(u), 2 * n, 2 * n))
        fpu = np.asarray(f_scalar_prime(u), float).repeat(n, axis=1)
        np.matmul(proj, fpu.reshape(len(u), n + 2, n) * phi,
                  out=jac[:, n:, :n])
        return jac

    return big_b, f0, f0_prime


def cubic_problem(kappa, window, seed, r_u):
    """The scalar cubic ``y' = y - y^3`` around its equilibrium ``y* = 1``,
    working radius ``r_u``, under the noise ``eta kappa_t y o dW_t``, as the
    random ODE of :func:`random_ode_problem`.  The Wiener path of ``seed``
    reaches 42 before ``window`` and 2 after it."""
    path = sample_wiener_path(window.widened(42.0, 2.0), seed)
    strat = StratonovichSpec(b_matrix=[[1.0]], f=lambda y: -(y * y * y),
                             f_prime=lambda y: (-3.0 * y ** 2)[:, :, None],
                             eta=1.0, kappa=kappa)
    return random_ode_problem(strat, path, [1.0], r_u)


def wave_problem(n_modes, beta_damping, a, kappa, window, seed, tail_tol):
    """The damped wave with ``f(u) = a u - u^3`` (:func:`build_wave_system`)
    around ``y* = 0``, working radius 0.5, under the noise ``eta kappa_t y o
    dW_t``, as the random ODE of :func:`random_ode_problem`.  The Wiener
    path of ``seed`` reaches ``PATH_MARGIN`` before ``window`` and 1 after."""
    b_matrix, f0, f0_prime = build_wave_system(
        n_modes, beta_damping, lambda u: a * u - u * u * u,  # no libm pow
        lambda u: a - 3.0 * u ** 2)
    path = sample_wiener_path(window.widened(PATH_MARGIN, 1.0), seed)
    strat = StratonovichSpec(b_matrix, f0, f0_prime, eta=1.0, kappa=kappa)
    p = random_ode_problem(strat, path, np.zeros(len(b_matrix)), 0.5,
                           tail_tol=tail_tol)
    p.lambda_samples = LAMBDA_SAMPLES
    return p


def wave_row(p, row, sol, seed):
    """The ``WAVE_COLUMNS`` row (plus ``status`` and ``error``) of a ladder
    pair ``(row, sol)`` over the wave problem ``p``: ``sup_distance``
    becomes ``sup_dist_v``, and ``sup_dist_y`` is the sup over the clean
    interior of the trajectory mapped back to the original variables,
    ``y = exp(eta kappa_t z*) v``."""
    sup_y = None
    if sol is not None:
        scale = p.dressing.at(row["eta"], sol.interior_times())[0]
        y = scale[:, None] * sol.trajectory[sol.interior]
        sup_y = float(np.max(np.linalg.norm(y, axis=1)))
    return {"eta": row["eta"], "seed": seed, "sup_dist_v": row["sup_distance"],
            "sup_dist_y": sup_y, **{k: row[k] for k in (
                "certified", "alpha_tilde", "M_bound", "status", "error")}}
