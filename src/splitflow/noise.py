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

import math

import numpy as np
import numpy.random  # noqa: F401  -- loaded at start-up, not by the first run

from .cocycle import _finite
from .errors import ConfigurationError, WindowError
from .grids import TimeGrid

DEFAULT_TAIL_TOL = 1e-10
_OU_BLOCK = 512.0  # time units per block of the z* filter; e^512 is finite
_ENSEMBLE_BLOCK = 128  # paths per block of ensemble draws, about 2 MB at defaults


class SamplePath:
    """A sampled path on a :class:`TimeGrid`, zero at ``t = 0``.

    Instances are immutable; construct them with :func:`sample_wiener_path`,
    :func:`injected_path`, :func:`zero_path` or :func:`linear_path`, or by
    shifting an existing path with :func:`shift_path`.
    """

    def __init__(self, grid, values, *, _root=None, _root_lo=None, _shift=0):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.n_nodes,):
            raise ConfigurationError(
                f"path needs {grid.n_nodes} values, got shape {values.shape}"
            )
        if not np.all(np.isfinite(values)):
            t_bad = grid.times()[np.argmax(~np.isfinite(values))]
            raise ConfigurationError(f"non-finite path value at t={t_bad}")
        i0 = grid.index_of(0.0)
        if values[i0] != 0.0:
            raise ConfigurationError("path value at t = 0 must be exactly 0")
        self.grid = grid
        self.values = values
        self.values.setflags(write=False)
        # Raw sample array in the frame of the originally sampled path.
        # root[j] is the original path at node (_root_lo + j); this view's
        # node m corresponds to original node m + _shift.  Shifts re-anchor
        # into the shared array instead of re-subtracting, which keeps the
        # shift group law exact in floating point.
        self._root = values if _root is None else _root
        self._root_lo = grid.n_min if _root_lo is None else _root_lo
        self._shift = _shift

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
    return SamplePath(grid, _wiener_root(grid, seed))


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
            f"shift by {t} leaves the stored window [{g.t_min}, {g.t_max}]")
    base = shift - path._root_lo  # root index of the shifted path's node 0
    vals = path._root[base + out_lo : base + out_hi + 1] - path._root[base]
    return SamplePath(TimeGrid(out_lo * g.h, out_hi * g.h, g.h), vals,
                      _root=path._root, _root_lo=path._root_lo, _shift=shift)


def _tail_start(path, tail_tol):
    """The first base time whose neglected left tail of the z* integral,
    bounded by ``e^{t_min - t} (|t_min| + max|omega|)``, is within ``tail_tol``."""
    if not 0.0 < tail_tol < math.inf:
        raise ConfigurationError(f"tail_tol must be positive, got {tail_tol!r}")
    g = path.grid
    c = abs(g.t_min) + float(np.max(np.abs(path.values)))
    return g.t_min + math.log(max(c, 1e-300) / tail_tol)


def _window_floor(path, t0, tail_tol):
    """The largest ``t_min`` whose tail bound admits the base time ``t0``
    at the stored path's max|omega| ``m``: the fixed point of ``t = t0 -
    log((|t| + m) / tail_tol)``.  The bound grows with ``|t_min|``, so the
    stored ``t_min`` alone names too short a window; a wider window's
    max|omega| is at least ``m`` and can only raise the bound further."""
    m, t = float(np.max(np.abs(path.values))), path.grid.t_min
    for _ in range(16):  # each step contracts by about 1/(|t| + m)
        t = t0 - math.log(max(abs(t) + m, 1e-300) / tail_tol)
    return t


def _cumulative_trapezoid(y, h):
    """Running trapezoid integrals along the last axis of ``y``, 0 at its
    first sample, bit for bit ``scipy.integrate.cumulative_trapezoid``;
    computed in place in the result, which spares a block its temporaries."""
    out = np.zeros(y.shape)
    s = out[..., 1:]
    np.add(y[..., 1:], y[..., :-1], out=s)
    np.multiply(h, s, out=s)
    np.divide(s, 2.0, out=s)
    np.cumsum(s, axis=-1, out=s)
    return out


def _ou_filter(values, times, t0, h):
    """z*(theta_t omega) at the nodes of ``times`` (step ``h``) from ``t0``
    on, along the last axis of ``values``: one path or a block of paths.

    The trapezoid recursion ``I_{k+1} = e^{-h} I_k + (h/2) (e^{-h} omega_k
    + omega_{k+1})`` in closed form, ``z* = e^{-(t-a)} (omega W - WO)``, with
    ``W``, ``WO`` the running sums of ``e^{t-a}`` and ``e^{t-a} omega`` from
    the left edge and ``a = t0`` up to ``t0 + _OU_BLOCK``; each further block
    renormalizes at its first node, so no weight exceeds ``e^{_OU_BLOCK}``."""
    i0 = int(np.searchsorted(times, t0 - h / 2))
    step, last = round(_OU_BLOCK / h), len(times) - 1
    z, lo, anchor = [], 0, t0
    for hi in [*range(i0 + step, last, step), last]:
        t, om = times[lo:hi + 1], values[..., lo:hi + 1]
        w = np.exp(t - anchor)
        cw, cwo = _cumulative_trapezoid(w, h), _cumulative_trapezoid(w * om, h)
        if lo:  # the sums up to this block's first node, renormalized to it
            cw += carry * cw_end
            cwo += carry * cwo_end
        first = 1 if lo else i0  # a later block's first node closed the one before
        z.append(np.exp(-(t[first:] - anchor))
                 * (om[..., first:] * cw[first:] - cwo[..., first:]))
        cw_end, cwo_end = cw[-1], cwo[..., -1:]
        lo, anchor, carry = hi, times[hi], np.exp(anchor - times[hi])
    return np.concatenate(z, axis=-1)


def ou_series(path, window, tail_tol=DEFAULT_TAIL_TOL):
    """z*(theta_t omega) at every node of ``window`` (a :class:`TimeGrid` or
    grid times) by :func:`_ou_filter`: the per-node trapezoid weights in
    O(N), at any window length; under ``_OU_BLOCK`` one cumulative pass
    weighted by ``e^{t - t0}``, ``t0`` the first time.  A base time whose tail
    bound exceeds ``tail_tol`` raises :class:`WindowError`, a non-finite
    value :class:`SplitflowError`."""
    g = path.grid
    ts = window.times() if isinstance(window, TimeGrid) else np.asarray(window, float)
    t0 = float(ts.min())
    start = _tail_start(path, tail_tol)
    if t0 < start:
        raise WindowError(
            f"left window too short for tail tolerance {tail_tol:g} at t={t0}: "
            f"need t_min <= {_window_floor(path, t0, tail_tol):.2f}, have "
            f"{g.t_min} (the fixed point of the tail bound at this path's "
            f"max|omega|; a wider window's max|omega| can only raise the bound)")
    idx = g.index_of(ts)
    end = idx.max() + 1  # nodes right of the window enter no sum
    with np.errstate(over="ignore", invalid="ignore"):
        z = _ou_filter(path.values[:end], g.times()[:end], t0, g.h)
    return _finite(z[idx - idx.min()], ts, "z*")


def pathwise_ou_residual(path, window):
    """Centered-difference residual of ``dz/dt + z = domega/dt`` on ``window``.

    A smooth-path diagnostic: for differentiable injected paths the residual
    is O(h^2); for rough paths it is meaningless and merely reported.
    """
    ts = window.times()
    z = ou_series(path, window)
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

    @staticmethod
    def inverse_quadratic(amplitude=1.0):
        """kappa_t = a / (1 + t^2), the library default with a = 1."""
        a = float(amplitude)
        return KappaFn(
            lambda t: a / (1.0 + t * t),
            lambda t: -2.0 * a * t / (1.0 + t * t) ** 2,
            name=f"{a:g}/(1+t^2)",
        )


class NoiseDressing:
    """The noise coefficients ``kappa_t z*(theta_t omega)`` and ``(kappa_t -
    kappadot_t) z*(theta_t omega)`` of a path, stored at the path's nodes
    from the first base time the filter's tail rule admits, and read by
    piecewise-linear interpolation; every reader range-checks its times
    once per call, and a time outside the dressed window raises
    :class:`WindowError`, naming the first such time and the count."""

    def __init__(self, path, kappa, tail_tol=DEFAULT_TAIL_TOL):
        t_first = _tail_start(path, tail_tol)
        ts = path.grid.times()
        self.ts = ts[ts >= t_first]
        if len(self.ts) < 2:
            raise WindowError("path window too short for the noise dressing")
        z = ou_series(path, self.ts, tail_tol)
        k = np.asarray(kappa.kappa(self.ts), float)
        self.kz = k * z
        self.ckz = c = (k - np.asarray(kappa.kappa_dot(self.ts), float)) * z
        # the integral of the ckz interpolant from ts[0] to every node
        self.areas = np.concatenate([[0.0], np.cumsum(
            np.diff(self.ts) * (c[:-1] + c[1:]) / 2)])

    def _inside(self, t):
        """The times ``t``, flattened, after the range check."""
        t = np.ravel(np.asarray(t, float))
        out = (t < self.ts[0] - 1e-9) | (t > self.ts[-1] + 1e-9)
        if np.any(out):
            raise WindowError(
                f"time {t[np.argmax(out)]} outside the dressed window "
                f"[{self.ts[0]:.2f}, {self.ts[-1]:.2f}] "
                f"({int(np.sum(out))} of {t.size} times out)"
            )
        return t

    def at(self, eta, t):
        """``(scale, gap)`` at the times ``t[N]``: ``scale[N] = exp(eta
        kappa_t z*)``, so that ``y = scale v``, and ``gap[N] = eta (kappa_t -
        kappadot_t) z*``, the coefficient of the linear noise term."""
        t = self._inside(t)
        return (np.exp(eta * np.interp(t, self.ts, self.kz)),
                eta * np.interp(t, self.ts, self.ckz))

    def bounds(self, window):
        """``(m1, m2)``, the maxima of ``|kappa_t z*|`` and ``|(kappa_t -
        kappadot_t) z*|`` at the nodes of the :class:`TimeGrid` ``window``;
        a finite window yields lower bounds for the suprema over R."""
        t = self._inside(window.times())
        return tuple(float(np.max(np.abs(np.interp(t, self.ts, c))))
                     for c in (self.kz, self.ckz))

    def gap_integral(self, eta, t0, t1):
        """``int_{t0}^{t1} gap`` of :meth:`at`, broadcast over the arrays
        ``t0`` and ``t1``, exact for the piecewise-linear interpolant."""
        return eta * (self._area(t1) - self._area(t0))

    def _area(self, t):
        """``int_{ts[0]}^{t}`` of the ``(kappa - kappadot) z*`` interpolant
        at the array ``t``, each time checked and interpolated once: the
        trapezoids on the path's nodes plus the partial segment."""
        shape, t = np.shape(t), self._inside(t)
        k = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0,
                    len(self.ts) - 2)
        gap = np.interp(t, self.ts, self.ckz)
        return (self.areas[k] + (t - self.ts[k]) * (self.ckz[k] + gap) / 2
                ).reshape(shape)

    def rises(self, eta, t0, t1):
        """``(forward, backward)`` rises ``sup_{s <= t} (C(t) - C(s))`` and
        ``sup_{t <= s} (C(t) - C(s))`` of ``C = int gap`` over [t0, t1],
        exact for the piecewise-linear gap: ``C`` is piecewise quadratic,
        so it turns only at the path's nodes and the gap's zero crossings,
        where (and at t0, t1) :meth:`gap_integral` reads it."""
        ts, c = self.ts, self.ckz
        k = np.flatnonzero(np.sign(c[:-1]) * np.sign(c[1:]) < 0.0)
        cross = ts[k] + (ts[k + 1] - ts[k]) * (c[k] / (c[k] - c[k + 1]))
        t = np.concatenate([[t0], ts, cross, [t1]])
        t = np.sort(t[(t >= t0) & (t <= t1)])
        area = self.gap_integral(eta, t0, t)
        return (float(np.max(area - np.minimum.accumulate(area))),
                float(np.max(area - np.minimum.accumulate(area[::-1])[::-1])))


def ensemble_diagnostics(n_paths, h=1.0 / 64, t_min=-30.0, seed=0):
    """Vectorized Monte-Carlo checks over a path ensemble.

    Returns the sample variance of ``omega(1)`` (target 1) and of ``z*``
    (target 1/2, the stationary variance of the unit-rate Langevin filter).
    Increments are drawn in blocks of ``_ENSEMBLE_BLOCK`` paths, all forward
    rows before all backward ones; z*(0) is their weighted sum
    (:func:`_z0_weights`).
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed,
                                                       spawn_key=(2,)))
    sizes = np.diff([*range(0, n_paths, _ENSEMBLE_BLOCK), n_paths])
    w1 = np.concatenate([np.cumsum(rng.standard_normal((m, round(1.0 / h))),
                                   axis=1)[:, -1] * np.sqrt(h) for m in sizes])
    c = _z0_weights(round(-t_min / h), h)
    z = np.concatenate([rng.standard_normal((m, len(c))) @ c for m in sizes])
    return {"w1_var": float(np.var(w1, ddof=1)), "n_paths": n_paths, "h": h,
            "z_var": float(np.var(z, ddof=1))}


def _z0_weights(n_bwd, h):
    """``c`` with z*(0) = ``xi @ c`` for the backward increments ``xi`` of a
    path, ``omega(-h j) = sqrt(h) (xi_0 + ... + xi_{j-1})``: the trapezoid
    rule of :func:`_ou_filter` for ``-int_{-h n_bwd}^0 e^s omega(s) ds``,
    weights ``w_j = h e^{-h j}`` halved at both ends, summed over j > k."""
    w = h * np.exp(-h * np.arange(n_bwd + 1))
    w[[0, -1]] /= 2
    return -np.sqrt(h) * np.cumsum(w[::-1])[-2::-1]
