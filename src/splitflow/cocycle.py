"""Linear cocycles over a driving flow, discrete and continuous.

A discrete cocycle is generated by a step-operator sequence ``n -> A_n`` (the
one-step maps along the driven base orbit), node-batched as ``step(ns) ->
(N, d, d)`` and read through :func:`stack_steps`; a continuous one by a
matrix-valued generator ``t -> G(t)`` of the linear ODE ``x' = G(t) x``,
whose evolution maps :func:`propagator` integrates.  Integration is
classical fixed-step RK4: generators met in practice are smooth in time and a
fixed step keeps runs bit-reproducible per seed.

Generators are time-batched: ``generator(ts)`` maps a vector of N times to
the ``(N, d, d)`` stack of generator matrices; :func:`pointwise` adapts a
callback written for one time or node.  One RK4 run advances a whole stack of
initial value problems, and a linear run calls the generator once per
block of whole snapshot intervals (``1 / UNIT_SAMPLES`` of the run each),
for the step bounds and midpoints of all the block's steps and members at
once, a block being as many intervals as keep its generator matrices
within ``_BLOCK_BYTES`` (one interval at least): a short run is one call.
From that table it forms the RK4 step map ``M_i`` of every step and member
of the block at once, in batched products, and the states then take ``y <-
M_i y``, one product per step.  A non-finite generator row raises
:class:`SplitflowError` naming its time, and a flow that overflows raises
:class:`IntegrationError` naming its interval.  The flow of a
continuous cocycle over each unit interval [n, n+1] is integrated once, into
the cocycle's unit-flow table (:meth:`ContinuousCocycle.unit_flows`); the
discretization, the lift envelope and the verifier all read that table.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigurationError, IntegrationError, SplitflowError

DEFAULT_STEP = 1.0 / 64.0
UNIT_SAMPLES = 16  # snapshot intervals per unit in the unit-flow table
# bytes of stage matrices per generator call, and of kernel values per
# verifier reduction
_BLOCK_BYTES = 1 << 18


def pointwise(fn):
    """Adapt a callback written for one time point to the batched protocol.

    The adapted callable takes every array argument with a leading batch
    axis of length N (times ``ts[N]``, states ``Y[N, d]``) and shares every
    scalar argument (such as ``eta``) across the batch; it calls ``fn`` once
    per batch row and stacks the results.  ``pointwise(lambda eta, t, y:
    ...)`` is a field ``f_eta(eta, ts, Y)``, ``pointwise(lambda t: ...)`` a
    generator ``generator(ts)`` and ``pointwise(lambda n: ...)`` a step
    sequence ``step(ns)``.
    """
    def batched(*args):
        n = next(len(a) for a in args if np.ndim(a))
        return np.array([
            np.asarray(fn(*(a[i] if np.ndim(a) else a for a in args)), float)
            for i in range(n)])

    return batched


def _rows(values, n, *shape):
    """A batched callback's values as an ``(n, *shape)`` float array."""
    values = np.asarray(values, float)
    if values.size != n * math.prod(shape):
        raise ConfigurationError(
            f"batched callback gave shape {values.shape} for {n} points, "
            f"expected {(n, *shape)}; wrap a one-point callback with "
            "splitflow.pointwise")
    return values.reshape((n, *shape))


def _constant_rows(m):
    """The batched callback whose every row is the matrix ``m``."""
    return lambda xs: np.broadcast_to(m, (len(xs),) + m.shape)


FROBENIUS_SLACK = 1e-10  # relative room over the few-ulp error of both norms
_FIRST_BATCH = 16  # SVD batch of spectral_argmax, doubled batch after batch


def spectral_norms(mats):
    """Largest singular value (the operator norm used throughout) of every
    matrix in a stack (last two axes): the first of its singular values,
    which LAPACK returns in descending order, so ``np.linalg.norm(m, 2)``
    without its wrapper."""
    return np.linalg.svd(np.asarray(mats, float), compute_uv=False)[..., 0]


def spectral_argmax(mats, weigh=None, floor=-math.inf):
    """``(max, index)`` of ``weigh(|M|, rows)`` over a stack of matrices
    (last two axes), exactly as over :func:`spectral_norms` of the whole
    stack, ``index`` the first flat index (C order) of the max; None when
    no value reaches ``floor``, as for an empty stack.

    ``weigh(norms, rows)`` maps the norms of the rows ``rows`` (an index
    into the flattened stack) to their values, the norms by default, and
    must be non-decreasing in the norm.  As ``|M| <= |M|_F`` (Golub & Van
    Loan, *Matrix Computations*, 2.3), ``weigh(|M|_F (1 + FROBENIUS_SLACK))``
    bounds a row's value: rounding is monotone and the slack exceeds the
    error of either norm.  The rows whose bound reaches ``floor`` take an
    SVD in descending order of their bounds, in batches of 16, 32, 64, ...,
    until the next bound falls below the running max: no row left out can
    exceed it, and every row that ties with it is evaluated, so the first
    one is known.  Matrices of one entry take ``abs``, a stack of one
    matrix (every row bitwise equal, such as the steps of a constant
    perturbation: exact ties defeat the pruning) takes one SVD, its norm
    shared by every row, and a non-finite entry raises
    :class:`SplitflowError`.
    """
    mats = np.asarray(mats, float)
    flat = mats.reshape((-1,) + mats.shape[-2:])
    if not np.isfinite(flat).all():
        raise SplitflowError("non-finite matrix entry in a spectral max")
    weigh = weigh or (lambda norms, rows: norms)
    scalar = flat.shape[1:] == (1, 1)  # |M| itself for 1x1, in one pass
    frob = np.abs(flat[:, 0, 0]) if scalar else _frobenius(flat)
    if scalar or _one_matrix(flat, frob):
        norms = frob if scalar else np.repeat(spectral_norms(flat[:1]),
                                              len(flat))
        v = weigh(norms, slice(None))
        i = int(np.argmax(v)) if len(v) else 0
        return (float(v[i]), i) if len(v) and v[i] >= floor else None
    bounds = weigh(frob * (1.0 + FROBENIUS_SLACK), slice(None))
    order = np.flatnonzero(bounds >= floor)
    order = order[np.argsort(-bounds[order], kind="stable")]
    best, first, lo, size = floor, None, 0, _FIRST_BATCH
    while lo < len(order) and bounds[order[lo]] >= best:
        rows = order[lo:lo + size]
        values = weigh(spectral_norms(flat[rows]), rows)
        top = float(np.max(values))
        if top >= best:
            row = int(np.min(rows[values == top]))
            if top > best or first is None or row < first:
                first = row
            best = top
        lo, size = lo + size, 2 * size
    return None if first is None else (best, first)


def _one_matrix(flat, frob):
    """Whether every row of a stack of two or more is the first, bit for
    bit; the Frobenius norms ``frob`` and the last row are compared first,
    so a stack of distinct matrices rarely costs more than that."""
    bits = flat.view(np.int64)
    return (len(flat) > 1 and frob[0] == frob[-1]
            and np.array_equal(bits[0], bits[-1])
            and bool(np.all(bits == bits[0])))


def spectral_sup(mats, scale=1.0, offset=0.0):
    """``max(offset + scale |M|)`` over a stack of matrices (last two axes),
    exactly as over :func:`spectral_norms` of the whole stack
    (:func:`spectral_argmax`); 0 for an empty stack.  ``scale >= 0`` and
    ``offset`` broadcast over the stack's leading axes; a non-finite entry
    or weight raises :class:`SplitflowError`.
    """
    scale, offset = (np.broadcast_to(np.asarray(a, float), np.shape(mats)[:-2])
                     .ravel() for a in (scale, offset))
    if not (np.isfinite(scale).all() and np.isfinite(offset).all()):
        raise SplitflowError("non-finite weight in a spectral sup")
    found = spectral_argmax(
        mats, lambda norms, rows: offset[rows] + scale[rows] * norms)
    return 0.0 if found is None else found[0]


def _frobenius(mats):
    """``|M|_F`` of every matrix of a finite ``(N, m, n)`` stack.  Where
    squares may under- or overflow, ``|M|_F = m |M / m|_F`` with ``m = max
    |M_ij|`` (a zero matrix has its norm 0 already)."""
    frob = np.sqrt(np.einsum("nij,nij->n", mats, mats))
    odd = ~((frob >= 1e-150) & (frob <= 1e150)) & mats.any(axis=(1, 2))
    if np.any(odd):
        big = np.max(np.abs(mats[odd]), axis=(1, 2))
        unit = mats[odd] / big[:, None, None]
        frob[odd] = big * np.sqrt(np.einsum("nij,nij->n", unit, unit))
    return frob


def _finite(values, keys, what, nodes=False):
    """``values`` (one row per time in ``keys``, or per integer node when
    ``nodes``), or :class:`SplitflowError` naming the first time or node
    whose row is not finite."""
    if np.isfinite(values).all():  # one pass in the common case
        return values
    bad = ~np.isfinite(values.reshape(len(values), -1)).all(axis=1)
    if np.any(bad):
        at, kind = ("node ", "nodes") if nodes else ("t=", "times")
        raise SplitflowError(
            f"non-finite {what} at {at}{keys[int(np.argmax(bad))]} "
            f"({int(np.sum(bad))} of {len(bad)} {kind})")
    return values


def stack_steps(step, nodes, dim):
    """``step(nodes)``, the step matrices of the integer ``nodes`` from one
    batched call, as a ``(len(nodes), dim, dim)`` float stack.

    A wrong shape raises :class:`ConfigurationError` naming
    :func:`pointwise`; a non-finite entry raises :class:`SplitflowError`
    naming its node, before any factorization can fail on it with a raw
    numpy error.
    """
    nodes = np.asarray(nodes, int)
    return _finite(_rows(step(nodes), len(nodes), dim, dim), nodes,
                   "step matrix", nodes=True)


@dataclass(frozen=True)
class DiscreteCocycle:
    """Step-operator view of a discrete linear cocycle.

    ``step(ns)`` is node-batched: it maps a vector of N integer nodes to
    the ``(N, d, d)`` stack of the matrices applied between times n and n+1
    along the base orbit (wrap a one-node callback with :func:`pointwise`).
    It must be deterministic in n.
    """

    step: Callable[[np.ndarray], np.ndarray]
    dim: int

    @staticmethod
    def constant(matrix):
        m = np.atleast_2d(np.asarray(matrix, float)).copy()
        return DiscreteCocycle(_constant_rows(m), m.shape[0])


@dataclass(frozen=True)
class ContinuousCocycle:
    """Generator view of a continuous linear cocycle ``x' = generator(t) x``.

    ``generator(ts)`` is time-batched: it maps a vector of N times to the
    ``(N, d, d)`` stack of generator matrices (wrap a one-time callback with
    :func:`pointwise`).  ``step`` is the RK4 integrator step; tighten it
    when an oracle demands more accuracy than the O(step^4) default.
    ``time_invariant`` marks an autonomous generator so its unit-flow table
    holds one shared entry.

    A dressed cocycle's generator is a time-invariant ``base``'s plus
    ``g(t) I`` and ``log_scale(t0, t1) = int_{t0}^{t1} g`` (over arrays):
    its flow is exactly the base's times ``exp(log_scale)``, so its unit-flow
    table is the base's shift-0 table times those factors, no generator call.
    """

    generator: Callable[[np.ndarray], np.ndarray]
    dim: int
    step: float = DEFAULT_STEP
    time_invariant: bool = False
    base: "ContinuousCocycle" = None
    log_scale: Callable = None
    _units: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def unit_flows(self, shifts):
        """Snapshots ``phi(j / UNIT_SAMPLES, shift n)``, j = 0..UNIT_SAMPLES, at
        every integer shift, stacked to ``(len(shifts), UNIT_SAMPLES + 1, d, d)``.

        The table is memoized per cocycle and integer shift (shift 0 for
        every n when ``time_invariant``), every entry with all its
        snapshots; the shifts it lacks are integrated together, in one RK4
        run over their stack, or scaled when dressed.
        """
        keys = [0 if self.time_invariant else int(n) for n in shifts]
        todo = sorted({k for k in keys if k not in self._units})
        if not todo:
            flows = ()
        elif self.log_scale is not None:  # dressed: the base's table, scaled
            t0 = np.array(todo, float)[:, None]
            taus = np.linspace(0.0, 1.0, UNIT_SAMPLES + 1)
            with np.errstate(over="ignore", invalid="ignore"):
                scale = np.exp(self.log_scale(t0, t0 + taus))
                flows = scale[..., None, None] * self.base.unit_flows([0])[0]
            _finite_states(flows, t0[:, 0], t0[:, 0] + 1.0)
        elif len(todo) == 1:  # a single shift is one propagator call
            flows = propagator(self, float(todo[0]), 1.0, UNIT_SAMPLES)[2][None]
        else:
            t0 = np.array(todo, float)
            n = _step_count(1.0, self.step, UNIT_SAMPLES)
            flows = _rk4(_linear_field(self.generator), t0, t0 + 1.0,
                         np.broadcast_to(np.eye(self.dim),
                                         (len(todo), self.dim, self.dim)),
                         n, every=n // UNIT_SAMPLES)
        self._units.update(zip(todo, flows))
        return np.array([self._units[k] for k in keys]).reshape(
            len(keys), UNIT_SAMPLES + 1, self.dim, self.dim)

    def unit_steps(self, shifts):
        """The unit steps ``phi(1, shift n)``, the endpoints of
        :meth:`unit_flows`, stacked to shape ``(len(shifts), d, d)``."""
        return self.unit_flows(shifts)[:, -1]

    @staticmethod
    def constant(matrix, step=DEFAULT_STEP):
        m = np.atleast_2d(np.asarray(matrix, float)).copy()
        return ContinuousCocycle(_constant_rows(m), m.shape[0], step,
                                 time_invariant=True)


def _step_count(span, step, samples):
    """RK4 steps over ``span``: the least multiple of ``samples`` whose
    steps are at most ``step`` long (none for an empty span)."""
    if span == 0:
        return 0
    return max(1, int(np.ceil(abs(span) / (samples * step) - 1e-12))) * samples


def _rk4_step(f, y, h):
    """One classical RK4 step of length ``h`` from ``y`` for ``y' = f(s,
    y)``, ``s`` the stage time: 0 the step's start, 1 its midpoint (second
    and third stages), 2 its end.  Every stage argument and the sum ``y +
    (h / 6) (k1 + 2 k2 + 2 k3 + k4)`` are fresh arrays, so neither ``y``
    nor a stage value ``f`` returned is written."""
    k1 = f(0, y)
    k2 = f(1, y + h / 2 * k1)
    k3 = f(1, y + h / 2 * k2)
    k4 = f(2, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _step_maps(g, h):
    """``(maps, mul)``: the RK4 step maps ``M_i`` of ``x' = G(t) x`` for
    every step and member of a block, from its ``(2m + 1, members, d, d)``
    stage matrices ``g`` and step lengths ``h``, and the product that
    applies them (``np.multiply`` for 1x1 maps).  ``M_i`` is
    :func:`_rk4_step` on the identity: ``I + h/6 (k1 + 2 k2 + 2 k3 +
    k4)``, ``k1 = G(t_i)``, ``k2 = G(t_i + h/2) (I + h/2 k1)``, ``k3 =
    G(t_i + h/2) (I + h/2 k2)``, ``k4 = G(t_{i+1}) (I + h k3)`` (Hairer,
    Norsett & Wanner, *Solving ODEs I*, II.1)."""
    ident = np.eye(g.shape[-1])
    mul = np.multiply if g.shape[-1] == 1 else np.matmul

    def stage(s, x):
        gs = g[s:s + len(g) - 1:2]
        return gs if x is ident else mul(gs, x)  # k1 is G(t_i) itself

    return _rk4_step(stage, ident, h), mul


def _rk4(field, t0, t1, y0, n, every=None):
    """RK4 for ``y' = f(t, y)`` over a stack of initial value problems.

    Member b runs from ``t0[b]`` to ``t1[b]`` with ``y0[b]`` in ``n`` equal
    steps on its own grid ``linspace(t0[b], t1[b], n + 1)``, so it equals
    the run of that member alone.  Step i has three distinct stage times:
    ``bounds[i]``, the midpoint (shared by the second and third stages) and
    ``bounds[i + 1]`` (the next step's first).  ``field`` receives them a
    block at a time: ``field(ts)`` takes the ``(2m + 1, members)`` stage
    times of a block of m steps, even rows the step bounds and odd rows the
    midpoints.  A nonlinear field returns ``f(j, y)``, the field at the
    block's stage j applied to the stacked states, and the states march
    by :func:`_rk4_step`; a linear one returns its ``(2m + 1, members, d,
    d)`` generator matrices, whose step maps :func:`_step_maps` forms for
    the whole block at once, and the states take ``y <- M_i y``, one
    product per step.  A block is a whole number of snapshot intervals of
    ``max(1, n // UNIT_SAMPLES)`` steps each, as many as keep ``(2m + 1) *
    y.nbytes``, the block's stage matrices of a linear field, within
    ``_BLOCK_BYTES``, and one interval at least.  Returns the end states,
    or with ``every`` the states after every ``every`` steps, ``y0``
    included, stacked on axis 1.  The arithmetic runs with overflow
    ignored: a non-finite end state raises :class:`IntegrationError`
    naming its interval.
    """
    t0, t1 = np.asarray(t0, float), np.asarray(t1, float)
    bounds = np.linspace(t0, t1, n + 1)
    stages = np.empty((2 * n + 1,) + t0.shape)
    stages[::2] = bounds
    stages[1::2] = bounds[:-1] + (bounds[1:] - bounds[:-1]) / 2
    y = np.array(y0, float)
    h = (bounds[1:] - bounds[:-1]).reshape((n,) + t0.shape
                                           + (1,) * (y.ndim - 1))
    interval = max(1, n // UNIT_SAMPLES)
    block = interval * max(1, (_BLOCK_BYTES // y.nbytes - 1) // (2 * interval))
    snaps = None if every is None else [y]
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, block):
            m = min(block, n - lo)
            f = field(stages[2 * lo:2 * (lo + m) + 1])
            linear = isinstance(f, np.ndarray)
            if linear:
                maps, mul = _step_maps(f, h[lo:lo + m])
            for i in range(m):
                if linear:
                    y = mul(maps[i], y)
                else:
                    y = _rk4_step(lambda s, x: f(2 * i + s, x), y, h[lo + i])
                if snaps is not None and (lo + i + 1) % every == 0:
                    snaps.append(y)
    _finite_states(y, t0, t1)
    return y if snaps is None else np.stack(snaps, axis=1)


def _finite_states(y, t0, t1):
    """:class:`IntegrationError` at the first non-finite member of ``y``."""
    bad = ~np.isfinite(y.reshape(len(y), -1)).all(axis=1)
    if np.any(bad):
        b = int(np.argmax(bad))
        raise IntegrationError(
            f"non-finite state while integrating [{t0[b]}, {t1[b]}]")


def _linear_field(generator):
    """The :func:`_rk4` field of ``x' = generator(t) x``: one generator call
    per block of stage times (whole snapshot intervals, at most
    ``_BLOCK_BYTES`` of generator matrices unless one interval is more),
    each row checked finite, returned as the block's table of stage
    matrices."""
    def block(ts):
        flat = ts.ravel()
        g = _finite(np.asarray(generator(flat), float), flat, "generator")
        return g.reshape(ts.shape + g.shape[1:])

    return block


def propagator(c, shift, duration, samples=None):
    """The matrix ``phi(duration)`` along the orbit started at base shift.

    Integrates the matrix ODE over [shift, shift + duration]; with
    ``samples`` also returns the equispaced snapshot times and snapshots
    ``(y_end, times, snapshots)`` for norm scans, snapshots[0] = identity.
    """
    if duration < 0:
        raise ValueError("propagator needs duration >= 0")
    n = _step_count(duration, c.step, samples or 1)
    run = _rk4(_linear_field(c.generator), [shift], [shift + duration],
               np.eye(c.dim)[None], n,
               every=n // samples if samples else None)[0]
    if samples is None:
        return run
    return run[-1], np.linspace(shift, shift + duration, len(run)), run


def integrate_nonlinear(field, t0, t1, y0, step=DEFAULT_STEP):
    """RK4 for a nonlinear field ``y' = field(t, y)`` (oracles and demos)."""
    if t1 < t0:
        raise ValueError("integrate_nonlinear needs t1 >= t0")

    def stage_field(ts):
        return lambda j, y: np.asarray(field(ts[j][0], y[0]), float)[None]

    return _rk4(stage_field, [t0], [t1], np.atleast_1d(y0)[None],
                _step_count(t1 - t0, step, 1))[0]


def discretize(c):
    """Unit-time step operators ``n -> phi(1, shift n)``, read from the
    unit-flow table a whole batch of nodes at a time."""
    return DiscreteCocycle(c.unit_steps, c.dim)


def _unit_envelope(c, shifts, alpha):
    """``max(1, max_n max_t |phi(t, shift n)| e^{alpha t})`` over the
    unit-flow table of ``c`` at the integer ``shifts``."""
    ts = np.linspace(0.0, 1.0, UNIT_SAMPLES + 1)
    return max(1.0, spectral_sup(c.unit_flows(shifts), np.exp(alpha * ts)))

