"""Two-sided noise paths, Wiener shifts, and the stationary pathwise filter.

A :class:`SamplePath` is a discretized two-sided Wiener-type path anchored at
``omega(0) = 0``.  The driving flow acts by the shift
``(theta_t omega)(s) = omega(t + s) - omega(t)``; shifted paths share the
underlying sample array so that the group law
``shift(shift(p, a), b) == shift(p, a + b)`` holds exactly in floating point.

The stationary filter value

    z*(omega) = -int_{-inf}^{0} e^s omega(s) ds

is evaluated by trapezoidal quadrature truncated at the stored window's left
edge; ``t -> z*(theta_t omega)`` is the pathwise stationary solution of the
Langevin equation ``dz + z dt = dW``.
"""

import numpy as np
import numpy.random  # noqa: F401  -- loaded at start-up, not by the first run

from .cocycle import _finite
from .errors import ConfigurationError, WindowError
from .grids import TimeGrid

DEFAULT_TAIL_TOL = 1e-10


class SamplePath:
    """A sampled path on a :class:`TimeGrid`, zero at ``t = 0``.

    Instances are immutable; construct them with :func:`sample_wiener_path`,
    :func:`injected_path`, :func:`zero_path` or :func:`linear_path`, or by
    shifting an existing path with :func:`shift_path`.
    """

    def __init__(self, grid, values, seed=None, *, _root=None, _root_lo=None,
                 _shift=0):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_nodes,):
            raise ConfigurationError(
                f"path needs {grid.n_nodes} values, got shape {values.shape}"
            )
        i0 = grid.index_of(0.0)
        if values[i0] != 0.0:
            raise ConfigurationError("path value at t = 0 must be exactly 0")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        self.seed = seed
        # Raw sample array in the frame of the originally sampled path.
        # root[j] is the original path at node (_root_lo + j); this view's
        # node m corresponds to original node m + _shift.  Shifts re-anchor
        # into the shared array instead of re-subtracting, which keeps the
        # shift group law exact in floating point.
        self._root = values if _root is None else _root
        self._root_lo = grid.n_min if _root_lo is None else _root_lo
        self._shift = _shift

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    def value_at(self, t):
        return float(self.values[self.grid.index_of(t)])


def _wiener_root(grid, seed):
    """Raw Wiener samples over ``grid``: independent half-lines from 0 outward.

    Generating a longer grid with the same seed extends the same streams, so
    values at common nodes are bit-identical.
    """
    n_fwd = grid.n_max
    n_bwd = -grid.n_min
    sqh = np.sqrt(grid.h)
    rng_f = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0,)))
    rng_b = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    fwd = np.cumsum(rng_f.standard_normal(n_fwd)) * sqh
    bwd = np.cumsum(rng_b.standard_normal(n_bwd)) * sqh
    return np.concatenate([bwd[::-1], [0.0], fwd])


def sample_wiener_path(grid, seed):
    """Sample a two-sided Wiener path on ``grid``, deterministic in (grid, seed).

    Increments over disjoint cells are independent N(0, h); the forward and
    backward half-lines use independent streams so either side can be
    extended without disturbing the other.
    """
    if not isinstance(grid, TimeGrid):
        raise ConfigurationError("grid must be a TimeGrid")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ConfigurationError(f"seed must be a nonnegative integer, got {seed!r}")
    return SamplePath(grid, _wiener_root(grid, seed), seed=int(seed))


def injected_path(grid, fn):
    """Deterministic test path from a vectorized function with ``fn(0) = 0``."""
    vals = np.asarray(fn(grid.times()), dtype=float)
    i0 = grid.index_of(0.0)
    if abs(vals[i0]) > 0.0:
        raise ConfigurationError("injected path must vanish at t = 0")
    return SamplePath(grid, vals)


def zero_path(grid):
    return SamplePath(grid, np.zeros(grid.n_nodes))


def linear_path(grid):
    """The path omega(s) = s, for which z*(theta_t omega) = 1 identically."""
    return injected_path(grid, lambda t: t)


def shift_path(path, t):
    """The Wiener-shifted path ``theta_t omega = omega(t + .) - omega(t)``.

    ``t`` must be a grid multiple of ``h``.  The result lives on the image
    of the stored window, which must still straddle 0; to shift further,
    sample a wider grid with the same seed, which extends the same streams.
    """
    n = path.grid.node_of(t)
    if n == 0:
        return path
    g = path.grid
    shift = path._shift + n
    out_lo, out_hi = g.n_min - n, g.n_max - n
    if not (out_lo < 0 < out_hi):
        raise WindowError(
            f"shift by {t} leaves the stored window [{g.t_min}, {g.t_max}]",
            required_extension=abs(n * g.h),
        )
    base = shift - path._root_lo  # root index of the shifted path's node 0
    vals = path._root[base + out_lo : base + out_hi + 1] - path._root[base]
    return SamplePath(TimeGrid(out_lo * g.h, out_hi * g.h, g.h), vals,
                      seed=path.seed, _root=path._root,
                      _root_lo=path._root_lo, _shift=shift)


def _tail_envelope(path, t):
    """Crude bound on the neglected left tail of the z* integral at base t."""
    return np.exp(path.grid.t_min - t) * (abs(path.grid.t_min) + path.max_abs())


def required_left_window(path, t, tail_tol):
    """How far left of ``t`` the window must reach for the tail bound to pass."""
    c = abs(path.grid.t_min) + path.max_abs()
    # solve e^{t_min - t} * c <= tol for t_min
    return float(t - np.log(max(c, 1e-300) / tail_tol))


def ou_value(path, t, tail_tol=DEFAULT_TAIL_TOL):
    """z* at the shifted base point: ``-int e^s (theta_t omega)(s) ds``.

    Trapezoidal quadrature on the grid, truncated at the stored window's left
    edge; total error is O(h^2) plus the documented tail below ``tail_tol``.
    """
    g = path.grid
    n = g.node_of(t)
    if not (g.n_min < n <= g.n_max):
        raise WindowError(f"base time {t} not inside the stored window")
    if _tail_envelope(path, t) > tail_tol:
        need = required_left_window(path, t, tail_tol)
        raise WindowError(
            f"left window too short for tail tolerance {tail_tol:g} at t={t}: "
            f"need t_min <= {need:.2f}, have {g.t_min}",
            required_extension=g.t_min - need,
        )
    i = g.index_of(t)
    s = (np.arange(g.n_min, g.n_min + i + 1) - n) * g.h  # s grid from t_min-t to 0
    shifted = path.values[: i + 1] - path.values[i]
    return float(-np.trapezoid(np.exp(s) * shifted, dx=g.h))


def _cumulative_trapezoid(y, h):
    """Running trapezoid integrals of ``y`` from its first sample, starting
    at 0; the arithmetic of ``scipy.integrate.cumulative_trapezoid``, so
    the sums agree bit for bit."""
    return np.concatenate([[0.0], np.cumsum(h * (y[1:] + y[:-1]) / 2.0)])


def ou_series(path, window, tail_tol=DEFAULT_TAIL_TOL):
    """z*(theta_t omega) at every node of ``window`` in one cumulative pass.

    Algebraically identical to calling :func:`ou_value` per node (same
    trapezoid weights), but O(N) overall.  Window spans beyond a few hundred
    time units overflow the internal exponential weights; a non-finite value
    raises :class:`SplitflowError`.
    """
    g = path.grid
    ts = window.times() if isinstance(window, TimeGrid) else np.asarray(window, float)
    t0 = float(ts.min())
    if _tail_envelope(path, t0) > tail_tol:
        need = required_left_window(path, t0, tail_tol)
        raise WindowError(
            f"left window too short for tail tolerance {tail_tol:g} at t={t0}: "
            f"need t_min <= {need:.2f}, have {g.t_min}",
            required_extension=g.t_min - need,
        )
    all_t = g.times()
    idx = g.index_of(ts)
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.exp(all_t - t0)  # renormalized at the window start
        cw = _cumulative_trapezoid(w, g.h)
        cwo = _cumulative_trapezoid(w * path.values, g.h)
        z = np.exp(-(all_t[idx] - t0)) * (path.values[idx] * cw[idx] - cwo[idx])
    return _finite(z, ts, "z*")


def pathwise_ou_residual(path, window, tail_tol=DEFAULT_TAIL_TOL):
    """Centered-difference residual of ``dz/dt + z = domega/dt`` on ``window``.

    A smooth-path diagnostic: for differentiable injected paths the residual
    is O(h^2); for rough paths it is meaningless and merely reported.
    """
    ts = window.times()
    z = ou_series(path, window, tail_tol)
    om = path.values[path.grid.index_of(ts)]
    h = window.h
    dz = (z[2:] - z[:-2]) / (2 * h)
    dom = (om[2:] - om[:-2]) / (2 * h)
    return dz + z[1:-1] - dom


class KappaFn:
    """A differentiable positive time-rescaling with its analytic derivative."""

    def __init__(self, kappa, kappa_dot, name="kappa"):
        self.kappa = kappa
        self.kappa_dot = kappa_dot
        self.name = name

    def __call__(self, t):
        return self.kappa(t)

    @staticmethod
    def inverse_quadratic(amplitude=1.0):
        """kappa_t = a / (1 + t^2), the library default with a = 1."""
        a = float(amplitude)
        return KappaFn(
            lambda t: a / (1.0 + t * t),
            lambda t: -2.0 * a * t / (1.0 + t * t) ** 2,
            name=f"{a:g}/(1+t^2)",
        )


def default_kappa():
    return KappaFn.inverse_quadratic(1.0)


class NoiseBounds:
    """Window maxima of the rescaled noise products.

    ``m1 = max |kappa_t z*(theta_t omega)|`` and
    ``m2 = max |(kappa_t - kappa_dot_t) z*(theta_t omega)|`` over the window
    nodes.  Any finite window yields lower bounds for the suprema over all of
    R; the window is recorded alongside.  ``eta`` scales the downstream
    linear perturbation only: ``b_sup = eta * m2``.
    """

    def __init__(self, m1, m2, window, eta=0.0):
        self.m1 = float(m1)
        self.m2 = float(m2)
        self.window = window
        self.eta = float(eta)

    @property
    def b_sup(self):
        return self.eta * self.m2

    def __repr__(self):
        return f"NoiseBounds(m1={self.m1:.6g}, m2={self.m2:.6g}, eta={self.eta:g})"


def rescaled_noise(path, kappa, ts, tail_tol=DEFAULT_TAIL_TOL):
    """The noise coefficients ``kappa_t z*(theta_t omega)`` and
    ``(kappa_t - kappa_dot_t) z*(theta_t omega)`` at the grid times ``ts``."""
    z = ou_series(path, ts, tail_tol)
    k = np.asarray(kappa.kappa(ts), float)
    kd = np.asarray(kappa.kappa_dot(ts), float)
    return k * z, (k - kd) * z


def noise_bounds(path, kappa, window, eta=0.0, tail_tol=DEFAULT_TAIL_TOL):
    """Grid maxima m1, m2 of the kappa-rescaled stationary noise on ``window``."""
    kz, ckz = rescaled_noise(path, kappa, window.times(), tail_tol)
    return NoiseBounds(np.max(np.abs(kz)), np.max(np.abs(ckz)), window, eta)


def sublinearity_report(path, checkpoints, tail_tol=DEFAULT_TAIL_TOL):
    """|z*(theta_t omega)| / |t| at each checkpoint (diagnostic trend to 0)."""
    out = []
    for t in checkpoints:
        if t == 0:
            raise ConfigurationError("sublinearity checkpoints must be nonzero")
        out.append(abs(ou_value(path, t, tail_tol)) / abs(t))
    return out


def ensemble_diagnostics(n_paths, h=1.0 / 64, t_min=-30.0, seed=0):
    """Vectorized Monte-Carlo checks over a path ensemble.

    Returns the sample variance of ``omega(1)`` (target 1) and of ``z*``
    (target 1/2, the stationary variance of the unit-rate Langevin filter),
    using one large increment matrix per half-line.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(2,)))
    n_fwd = round(1.0 / h)
    fwd = np.cumsum(rng.standard_normal((n_paths, n_fwd)), axis=1) * np.sqrt(h)
    w1_var = float(np.var(fwd[:, -1], ddof=1))
    n_bwd = round(-t_min / h)
    bwd = np.cumsum(rng.standard_normal((n_paths, n_bwd)), axis=1) * np.sqrt(h)
    # omega on [t_min, 0]: reverse so column j is node t_min + j*h; omega(0)=0
    omega = np.concatenate([bwd[:, ::-1], np.zeros((n_paths, 1))], axis=1)
    s = np.arange(-n_bwd, 1) * h
    w = np.exp(s) * h
    w[0] *= 0.5
    w[-1] *= 0.5
    z = -(omega @ w)
    z_var = float(np.var(z, ddof=1))
    return {"w1_var": w1_var, "z_var": z_var, "n_paths": n_paths, "h": h}

