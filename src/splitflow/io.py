"""Text output shared by every writer: CSV cells and JSON-ready values.

CSV cells are ``true``/``false`` for booleans, empty for None, ``repr`` of
the Python float for floats (numpy scalars included) and ``str`` otherwise,
so every numeric cell parses back with ``float()``.
"""

import numpy as np


def cell(v):
    """One CSV cell in the format above."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def jsonable(x):
    """``x`` with numpy scalars turned into Python ones, recursively through
    dicts, lists and tuples, so that ``json.dumps`` accepts it."""
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    return x
