"""Uniform two-sided time grids.

Every sampled object in the library lives on a :class:`TimeGrid`: a uniform
grid with step ``h`` that contains ``t = 0`` exactly and reaches into both
half-lines.  Node arithmetic is done on integer indices (``t = n * h``) so
that shifts and window checks are exact.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError

_REL_TOL = 1e-9


def _first(t, mask):
    """The first entry of ``t`` (a scalar or an array) where ``mask`` holds."""
    return np.ravel(t)[np.argmax(np.ravel(mask))].item()


def _as_node(t, h, what="time"):
    """Integer node index of ``t`` on a grid of step ``h``; error if off-grid.

    ``t`` may be an array, checked in one pass; the error names the first
    off-grid time.  A scalar gives an ``int``, an array an integer array.
    """
    q = np.asarray(t, float) / h
    n = np.rint(q)
    off = ~(np.abs(q - n) <= _REL_TOL * np.maximum(1.0, np.abs(q)))
    if off.any():
        raise ConfigurationError(f"{what} {_first(t, off)!r} is not a multiple "
                                 f"of the grid step {h!r}")
    return int(n) if n.ndim == 0 else n.astype(int)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [t_min, t_max] with step h, containing 0 exactly.

    Parameters
    ----------
    t_min, t_max : float
        Window endpoints, ``t_min < 0 < t_max``.  Both must be integer
        multiples of ``h``.
    h : float
        Grid step, ``h > 0``.
    """

    t_min: float
    t_max: float
    h: float
    n_min: int = field(init=False, repr=False, compare=False)
    n_max: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.h > 0.0 and np.isfinite(self.h)):
            raise ConfigurationError(f"grid step must be positive, got {self.h!r}")
        if not (self.t_min < 0.0 < self.t_max):
            raise ConfigurationError(
                f"grid must straddle 0: got [{self.t_min!r}, {self.t_max!r}]"
            )
        object.__setattr__(self, "n_min", _as_node(self.t_min, self.h, "t_min"))
        object.__setattr__(self, "n_max", _as_node(self.t_max, self.h, "t_max"))

    @property
    def n_nodes(self):
        return self.n_max - self.n_min + 1

    def times(self):
        """All grid nodes as an array, in increasing order."""
        return np.arange(self.n_min, self.n_max + 1) * self.h

    def index_of(self, t):
        """Array offset of grid time ``t`` (0 for ``t_min``); ``t`` may be an
        array of times, checked in one pass."""
        n = _as_node(t, self.h, "time")
        outside = (n < self.n_min) | (n > self.n_max)
        if np.any(outside):
            raise ConfigurationError(f"time {_first(t, outside)!r} outside grid "
                                     f"[{self.t_min}, {self.t_max}]")
        return n - self.n_min

    def widened(self, before, after):
        """This grid reaching ``before`` earlier and ``after`` later, at the
        same step; a margin that is not a multiple of ``h`` raises naming
        ``h`` and both margins."""
        try:
            return TimeGrid(self.t_min - before, self.t_max + after, self.h)
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"h {self.h!r} must divide the margins {before!r} and "
                f"{after!r} that the noise path reaches past the window") \
                from exc

    def node_of(self, t):
        """Signed node index of grid time ``t`` (0 for ``t = 0``)."""
        return _as_node(t, self.h, "time")
