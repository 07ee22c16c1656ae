"""Linear cocycles over a driving flow, discrete and continuous.

A discrete cocycle is generated by a step-operator sequence ``n -> A_n`` (the
one-step maps along the driven base orbit); a continuous one by a
matrix-valued generator ``t -> G(t)`` of the linear ODE ``x' = G(t) x``.
Both expose the two-parameter evolution maps by composition.  Integration is
classical fixed-step RK4: generators met in practice are smooth in time and a
fixed step keeps runs bit-reproducible per seed.  The flow of a continuous
cocycle over each unit interval [n, n+1] is integrated once, into the
cocycle's unit-flow table (:meth:`ContinuousCocycle.unit_flow`); the
discretization, the lift envelope and the verifier all read that table.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import IntegrationError, SplitflowError
from .io import write_csv

DEFAULT_STEP = 1.0 / 64.0
UNIT_SAMPLES = 16  # snapshot intervals per unit in the unit-flow table


def spectral_norm(m):
    """Largest singular value (the operator norm used throughout)."""
    return float(np.linalg.norm(np.asarray(m, float), 2))


def spectral_norms(mats):
    """:func:`spectral_norm` of every matrix in a stack (last two axes)."""
    return np.linalg.norm(np.asarray(mats, float), 2, axis=(-2, -1))


def stack_steps(step, nodes):
    """``step(n)`` for every node, stacked to shape ``(len(nodes), d, d)``.

    A non-finite entry raises :class:`SplitflowError` naming its node, before
    any factorization can fail on it with a raw numpy error.
    """
    mats = np.array([np.atleast_2d(np.asarray(step(n), float)) for n in nodes])
    bad = np.argwhere(~np.isfinite(mats))
    if len(bad):
        raise SplitflowError(f"non-finite step matrix at node {nodes[bad[0][0]]}")
    return mats


@dataclass(frozen=True)
class DiscreteCocycle:
    """Step-operator view of a discrete linear cocycle.

    ``step(n)`` returns the d x d matrix applied between times n and n+1
    along the base orbit; it must be deterministic in n.
    """

    step: Callable[[int], np.ndarray]
    dim: int
    label: str = ""

    @staticmethod
    def constant(matrix, label=""):
        m = np.atleast_2d(np.asarray(matrix, float)).copy()
        return DiscreteCocycle(lambda n: m, m.shape[0], label)


class EvolutionProcessView:
    """Two-parameter maps ``phi_{t,s} = phi(t-s, shift s)`` of a cocycle.

    The base point is the one baked into the cocycle's step/generator
    closures; this view only fixes the two-time convention.
    """

    def __init__(self, cocycle):
        self.cocycle = cocycle
        self.discrete = isinstance(cocycle, DiscreteCocycle)

    def map(self, t, s):
        if t < s:
            raise ValueError("evolution maps need t >= s")
        if self.discrete:
            return compose_discrete(self.cocycle, int(t - s), base=int(s))
        return propagator(self.cocycle, float(s), float(t - s))


def export_matrix_csv(matrix, file, label=""):
    """Write a matrix as a labeled CSV block for cross-tool inspection."""
    write_csv(file, np.atleast_2d(np.asarray(matrix, float)),
              comment=label or None)


def as_step_sequence(b, dim):
    """Normalize a perturbation spec (callable, dict, matrix, scalar) to n -> matrix."""
    if callable(b):
        return lambda n: np.atleast_2d(np.asarray(b(n), float))
    if isinstance(b, dict):
        z = np.zeros((dim, dim))
        return lambda n: np.atleast_2d(np.asarray(b.get(n, z), float))
    m = np.asarray(b, float)
    if m.ndim == 0:
        m = m * np.eye(dim)
    m = np.atleast_2d(m)
    return lambda n: m


def compose_discrete(c, n, base=0):
    """Ordered product ``A_{base+n-1} ... A_{base}`` (identity for n = 0)."""
    if n < 0:
        raise ValueError("compose_discrete needs n >= 0")
    out = np.eye(c.dim)
    for k in range(base, base + n):
        out = c.step(k) @ out
    return out


@dataclass(frozen=True)
class ContinuousCocycle:
    """Generator view of a continuous linear cocycle ``x' = generator(t) x``.

    ``step`` is the RK4 integrator step; tighten it when an oracle demands
    more accuracy than the O(step^4) default.  ``time_invariant`` marks an
    autonomous generator so its unit-flow table holds one shared entry.
    """

    generator: Callable[[float], np.ndarray]
    dim: int
    step: float = DEFAULT_STEP
    label: str = ""
    time_invariant: bool = False
    _units: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def unit_flow(self, n):
        """Snapshots ``phi(j / UNIT_SAMPLES, shift n)``, j = 0..UNIT_SAMPLES.

        Memoized per cocycle and integer shift (shift 0 for every n when
        ``time_invariant``), so each unit propagator is integrated once.
        """
        key = 0 if self.time_invariant else int(n)
        if key not in self._units:
            self._units[key] = propagator(self, float(key), 1.0,
                                          UNIT_SAMPLES)[2]
        return self._units[key]

    @staticmethod
    def constant(matrix, step=DEFAULT_STEP, label=""):
        m = np.atleast_2d(np.asarray(matrix, float)).copy()
        return ContinuousCocycle(lambda t: m, m.shape[0], step, label,
                                 time_invariant=True)


def _rk4(field, t0, t1, y0, step, samples=None):
    """Integrate y' = field(t, y) from t0 to t1; optionally record snapshots.

    ``samples``: number of equispaced snapshot intervals in [t0, t1]; when
    given, returns (y_end, times, snapshots) with snapshots[0] = y(t0).
    """
    span = t1 - t0
    if span == 0:
        out = np.array(y0, float)
        if samples is None:
            return out
        return out, np.array([t0]), np.array([out])
    if samples is None:
        n = max(1, int(np.ceil(abs(span) / step - 1e-12)))
        bounds = np.linspace(t0, t1, n + 1)
        snaps = None
    else:
        per = max(1, int(np.ceil(abs(span) / (samples * step) - 1e-12)))
        n = per * samples
        bounds = np.linspace(t0, t1, n + 1)
        snaps = [np.array(y0, float)]
    y = np.array(y0, float)
    for i in range(n):
        ta, tb = bounds[i], bounds[i + 1]
        hh = tb - ta
        k1 = field(ta, y)
        k2 = field(ta + hh / 2, y + hh / 2 * k1)
        k3 = field(ta + hh / 2, y + hh / 2 * k2)
        k4 = field(tb, y + hh * k3)
        y = y + (hh / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if snaps is not None and (i + 1) % per == 0:
            snaps.append(y.copy())
    if not np.all(np.isfinite(y)):
        raise IntegrationError(f"non-finite state while integrating [{t0}, {t1}]")
    if snaps is None:
        return y
    return y, np.linspace(t0, t1, samples + 1), np.array(snaps)


def integrate(c, t0, t1, x0):
    """Solve ``x' = generator(t) x`` from (t0, x0) to t1 (t1 >= t0)."""
    if t1 < t0:
        raise ValueError("integrate needs t1 >= t0")
    x0 = np.asarray(x0, float)
    scalar = x0.ndim == 0
    gen = c.generator
    y = _rk4(lambda t, y: gen(t) @ y, t0, t1, np.atleast_1d(x0), c.step)
    return float(y[0]) if scalar else y


def propagator(c, shift, duration, samples=None):
    """The matrix ``phi(duration)`` along the orbit started at base shift.

    Integrates the matrix ODE over [shift, shift + duration]; with
    ``samples`` also returns equispaced snapshots for norm scans.
    """
    if duration < 0:
        raise ValueError("propagator needs duration >= 0")
    gen = c.generator
    return _rk4(lambda t, y: gen(t) @ y, shift, shift + duration,
                np.eye(c.dim), c.step, samples=samples)


def integrate_nonlinear(field, t0, t1, y0, step=DEFAULT_STEP):
    """RK4 for a nonlinear field ``y' = field(t, y)`` (oracles and demos)."""
    if t1 < t0:
        raise ValueError("integrate_nonlinear needs t1 >= t0")
    return _rk4(lambda t, y: np.asarray(field(t, y), float), t0, t1,
                np.atleast_1d(y0), step)


def discretize(c):
    """Unit-time step operators ``n -> phi(1, shift n)`` from the unit-flow
    table."""
    return DiscreteCocycle(lambda n: c.unit_flow(n)[-1], c.dim,
                           label=c.label + "|unit")


def _unit_envelope(c, shifts, alpha):
    """``max(1, max_n max_t |phi(t, shift n)| e^{alpha t})`` over the
    unit-flow table of ``c`` at the integer ``shifts``."""
    ts = np.linspace(0.0, 1.0, UNIT_SAMPLES + 1)
    env = 1.0
    for n in shifts:
        norms = spectral_norms(c.unit_flow(n))
        env = max(env, float(np.max(norms * np.exp(alpha * ts))))
    return env


def one_step_bound(c, window):
    """Sampled sup of ``|phi(t, shift)|`` over unit intervals in ``window``.

    The sup runs over integer shifts in the window and the unit-flow table's
    ``UNIT_SAMPLES + 1`` times in [0, 1]; the value is a sampled lower bound
    of the true supremum.
    """
    return _unit_envelope(c, window.integer_nodes()[:-1], 0.0)
