"""Reproducible experiment runner.

Subcommands expose the library pipelines with seeded flat key=value configs
and machine-readable outputs:

    splitflow ou-check   --config cfg [--out DIR] [--seed N]
    splitflow robustness --config cfg [--out DIR] [--seed N]
    splitflow hyperbolic --config cfg [--out DIR] [--seed N]
    splitflow wave       --config cfg [--out DIR] [--seed N]

Config files are ``key = value`` lines (``#`` comments allowed); unknown or
malformed keys are usage errors.  Exit codes: 0 success, 1 scientific
failure (a certificate or threshold check failed), 2 usage/config error.
All randomness flows from the single seed through fixed stream splits, so
identical config and seed give byte-identical outputs.
"""

import argparse
import json
import locale  # noqa: F401  -- argparse's gettext loads it at the first parser
import sys
import warnings
from operator import itemgetter
from pathlib import Path

import numpy as np

from . import __version__
from .cocycle import DiscreteCocycle
from .dichotomy import DichotomyCertificate, _window_nodes
from .errors import ConfigurationError, SplitflowError, WindowError
from .grids import TimeGrid, _as_node
from .hyperbolic import ROW_COLUMNS, STATUS_FAILED, eta_cutoff, ladder
from .io import cell, jsonable
from .noise import (KappaFn, ensemble_diagnostics, injected_path, linear_path,
                    ou_series, pathwise_ou_residual, sample_wiener_path,
                    shift_path, zero_path)
from .robustness import robust_dichotomy_discrete, robustness_report
from .sde_bridge import WAVE_COLUMNS, cubic_problem, wave_problem, wave_row

# key -> (parser, default)
_COMMON = {"seed": (int, 12345)}
# the grid step of ou-check's sublinearity paths, which its checkpoints lie on
SUBLINEARITY_STEP = 1.0 / 16


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _bool(text):
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


SCHEMAS = {
    "ou-check": {
        **_COMMON,
        "t_min": (float, -30.0), "t_max": (float, 8.0), "h": (float, 1.0 / 64),
        "n_paths": (int, 10000),
        "variance_band": (float, 0.03),
        "w1_band": (float, 0.05),
        "linear_tol": (float, 1e-4),
        "ode_tol": (float, 5e-3),
        "checkpoints": (_float_list, [10.0, 25.0, 50.0, 100.0]),
    },
    "robustness": {
        **_COMMON,
        "t_min": (float, -8.0), "t_max": (float, 8.0),
        "base_step": (float, 0.5),
        "pert_step": (float, 0.55),
        "rotation": (float, 0.01),
        "slack": (float, 1.1),
        "run_saddle": (_bool, True),
    },
    "hyperbolic": {
        **_COMMON,
        "t_min": (float, -70.0), "t_max": (float, 70.0), "h": (float, 1.0 / 64),
        "model": (str, "cubic"),
        "eta_grid": (_float_list, [0.2, 0.1, 0.05, 0.025]),
        "kappa_amplitude": (float, 0.002),
        "r_u": (float, 0.3),
        "tol": (float, 1e-9),
        "tail_tol": (float, 1e-9),
        "n_half": (int, 4),
    },
    "wave": {
        **_COMMON,
        "t_min": (float, -60.0), "t_max": (float, 60.0), "h": (float, 1.0 / 32),
        "n_modes": (int, 4),
        "beta_damping": (float, 1.0),
        "f_linear_coeff": (float, 1.0),
        "eta_grid": (_float_list, []),
        "kappa_amplitude": (float, 0.05),
        "tol": (float, 1e-7),
        "tail_tol": (float, 1e-7),
        "trunc_tol": (float, 1e-7),
        "n_half": (int, 3),
    },
}


def load_config(text, command, seed=None):
    """Typed config dict of ``command``: the schema defaults overridden by
    the key = value lines of ``text``, and its seed by ``seed`` when given,
    checked; errors name a faulty line."""
    schema = SCHEMAS[command]
    given = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema:
            raise ConfigurationError(
                f"line {lineno}: unknown key {key!r} for command {command!r}")
        if key in given:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        try:
            given[key] = schema[key][0](val)
        except (ValueError, TypeError) as exc:
            raise ConfigurationError(
                f"line {lineno}: field {key!r}: {exc}") from exc
    values = {key: given.get(key, default)
              for key, (_, default) in schema.items()}
    if seed is not None:
        values["seed"] = seed
    if values["seed"] < 0:  # numpy's seed sequences take none below 0
        raise ConfigurationError(
            f"seed must be a nonnegative integer, got {values['seed']}")
    for key, val in values.items():
        if any(isinstance(x, float) and not np.isfinite(x)
               for x in (val if isinstance(val, list) else [val])):
            raise ConfigurationError(f"field {key!r} must be finite")
    for key in ("tol", "tail_tol", "trunc_tol", "ode_tol", "linear_tol"):
        if key in values and not values[key] > 0.0:
            raise ConfigurationError(f"tolerance {key} must be positive")
    if "eta_grid" in values:
        grid = values["eta_grid"]
        if any(e < 0 for e in grid):
            raise ConfigurationError("eta_grid entries must be >= 0")
        if list(grid) != sorted(grid, reverse=True):
            raise ConfigurationError("eta_grid must be sorted descending")
    for key in ("h", "r_u", "slack", "variance_band", "w1_band"):
        if key in values and not values[key] > 0.0:
            raise ConfigurationError(f"{key} must be positive")
    for key, least in (("n_paths", 2), ("n_half", 1)):  # a variance, a row
        if key in values and values[key] < least:
            raise ConfigurationError(f"{key} must be at least {least}")
    if "checkpoints" in values:  # a trend from the first to the last
        cps = values["checkpoints"]
        if len(cps) < 2 or any(a >= b for a, b in zip(cps, cps[1:])):
            raise ConfigurationError(
                "checkpoints must be at least two, strictly ascending")
        for cp in cps:
            try:
                _as_node(cp, SUBLINEARITY_STEP)
            except ConfigurationError:
                raise ConfigurationError(
                    f"checkpoints must be multiples of {SUBLINEARITY_STEP}, "
                    f"the sublinearity paths' grid step, got {cp}") from None
        if 0.0 in cps:  # |z*(theta_t omega)| / |t| has no value at t = 0
            raise ConfigurationError("sublinearity checkpoints must be nonzero")
    # an empty ladder checks nothing; wave reads it as the automatic one
    if command == "hyperbolic" and not values["eta_grid"]:
        raise ConfigurationError("eta_grid must not be empty")
    return values


def _grid(v):
    return TimeGrid(v["t_min"], v["t_max"], v["h"])


def _write(out_dir, name, text):
    path = Path(out_dir) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return str(path)


def _write_csv(out_dir, name, rows, columns):
    """A header row, then one CSV row per dict in ``rows``, one column per
    key in ``columns``; the cells are :func:`splitflow.io.cell`'s."""
    lines = [",".join(columns)]
    lines += [",".join(cell(r.get(c)) for c in columns) for r in rows]
    return _write(out_dir, name, "\n".join(lines) + "\n")


def _write_json(out_dir, name, doc):
    """``doc`` as indented JSON (numpy scalars as Python ones), one final
    newline."""
    return _write(out_dir, name, json.dumps(jsonable(doc), indent=2) + "\n")


def cmd_ou_check(v, out_dir):
    """Noise-module diagnostics; nonzero exit on any invariant failure."""
    grid = _grid(v)
    checks = []

    ens = ensemble_diagnostics(v["n_paths"], h=v["h"], t_min=v["t_min"],
                               seed=v["seed"])
    checks.append({"check": "wiener_variance_at_1", "value": ens["w1_var"],
                   "target": 1.0, "band": v["w1_band"],
                   "passed": abs(ens["w1_var"] - 1.0) <= v["w1_band"]})
    checks.append({"check": "ou_variance", "value": ens["z_var"],
                   "target": 0.5, "band": v["variance_band"],
                   "passed": abs(ens["z_var"] - 0.5) <= v["variance_band"]})

    lp = linear_path(grid)
    eval_grid = TimeGrid(-1.0, min(5.0, grid.t_max), grid.h)
    zs = ou_series(lp, eval_grid)
    err = float(np.max(np.abs(zs - 1.0)))
    checks.append({"check": "linear_path_filter", "value": err, "target": 0.0,
                   "band": v["linear_tol"], "passed": err <= v["linear_tol"]})

    sp = injected_path(grid, lambda t: np.sin(t))
    res = pathwise_ou_residual(sp, eval_grid)
    rmax = float(np.max(np.abs(res)))
    checks.append({"check": "pathwise_ode_identity", "value": rmax,
                   "target": 0.0, "band": v["ode_tol"],
                   "passed": rmax <= v["ode_tol"]})

    zp = zero_path(grid)
    z0 = float(np.max(np.abs(ou_series(zp, eval_grid))))
    checks.append({"check": "zero_path_filter", "value": z0, "target": 0.0,
                   "band": 0.0, "passed": z0 == 0.0})

    wp = sample_wiener_path(grid, v["seed"])
    q1 = shift_path(shift_path(wp, 2.0), 1.0)
    q2 = shift_path(wp, 3.0)
    lohi = (max(q1.grid.t_min, q2.grid.t_min), min(q1.grid.t_max, q2.grid.t_max))
    ts = np.arange(np.ceil(lohi[0] / grid.h), np.floor(lohi[1] / grid.h) + 1) * grid.h
    gerr = float(np.max(np.abs(q1.values[q1.grid.index_of(ts[:200])]
                               - q2.values[q2.grid.index_of(ts[:200])])))
    checks.append({"check": "shift_group_law", "value": gerr, "target": 0.0,
                   "band": 0.0, "passed": gerr == 0.0})

    # sublinearity trend: ensemble medians at the first/last checkpoints
    cps = v["checkpoints"]
    wide = TimeGrid(-30.0, max(cps) + 2.0, SUBLINEARITY_STEP)
    t = np.array([cps[0], cps[-1]])
    ratios = np.sort([np.abs(ou_series(
        sample_wiener_path(wide, v["seed"] + 1000 + k), t)) / np.abs(t)
        for k in range(500)], axis=0)
    # the median of the 500, as np.median takes it (which imports numpy.ma)
    early, late = ((ratios[249] + ratios[250]) / 2).tolist()
    checks.append({"check": "sublinearity_trend", "value": late, "target": early,
                   "band": 0.0, "passed": late < early})

    files = [_write_csv(out_dir, "ou_check.csv", checks,
                        ("check", "value", "target", "band", "passed"))]
    ok = all(c["passed"] for c in checks)
    return (0 if ok else 1), files


def cmd_robustness(v, out_dir):
    """Scalar and saddle regression instances through the discrete pipeline."""
    ln2 = float(np.log(2.0))
    window = (int(np.ceil(v["t_min"])), int(np.floor(v["t_max"])))
    _window_nodes(window)  # a window of fewer than two nodes exits 2
    cases = [({"name": "scalar", "base_step": v["base_step"],
               "pert_step": v["pert_step"]},
              DiscreteCocycle.constant([[v["base_step"]]]),
              DiscreteCocycle.constant([[v["pert_step"]]]),
              DichotomyCertificate.constant([[1.0]], 1.0, ln2))]
    if v["run_saddle"]:
        eps = v["rotation"]
        d_mat = np.diag([0.5, 2.0])
        rot = np.array([[np.cos(eps), -np.sin(eps)],
                        [np.sin(eps), np.cos(eps)]])
        cases.append(({"name": "saddle_rotation", "rotation": eps},
                      DiscreteCocycle.constant(d_mat),
                      DiscreteCocycle.constant(rot @ d_mat),
                      DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0,
                                                    ln2)))
    instances = []
    ok = True
    for entry, base, pert, bc in cases:
        try:
            cert = robust_dichotomy_discrete(base, bc, pert, window,
                                             slack=v["slack"])
            entry.update(robustness_report(cert))
            passed = cert.meta["verification"].passed
            if entry["name"] == "scalar":
                entry["alpha_tilde"] = cert.exponent
                true_rate = float(-np.log(abs(v["pert_step"]))) \
                    if v["pert_step"] != 0 else None
                entry["true_rate"] = true_rate
                entry["exponent_conservative"] = (
                    true_rate is not None and cert.exponent <= true_rate + 1e-9)
                passed = passed and entry["exponent_conservative"]
        except SplitflowError as exc:
            entry.update(exc.record())
            passed = False
        ok = ok and passed
        instances.append(entry)

    files = [_write_json(out_dir, "robustness.json",
                         {"command": "robustness", "seed": v["seed"],
                          "passed": bool(ok), "instances": instances})]
    return (0 if ok else 1), files


def _hyperbolic_problem(v):
    if v["model"] == "cubic":
        return cubic_problem(KappaFn.inverse_quadratic(v["kappa_amplitude"]),
                             _grid(v), v["seed"], v["r_u"])
    raise ConfigurationError(f"field 'model': unknown model {v['model']!r}")


def cmd_hyperbolic(v, out_dir):
    """Bounded-solution ladder over the eta grid, with certification."""
    window = _grid(v)  # an off-grid window is named as the config gives it
    problem = _hyperbolic_problem(v)
    # the rows alone: each eta's trajectory is dropped before the next one's
    rows = list(map(itemgetter(0), ladder(
        problem, window, v["eta_grid"], tol=v["tol"], tail_tol=v["tail_tol"],
        n_half=v["n_half"])))
    files = [_write_csv(out_dir, "hyperbolic.csv", rows, ROW_COLUMNS),
             _write_json(out_dir, "hyperbolic.json",
                         {"command": "hyperbolic", "seed": v["seed"],
                          "model": v["model"], "rows": rows})]
    ok = not any(r["status"] in (STATUS_FAILED, "error") for r in rows)
    return (0 if ok else 1), files


def cmd_wave(v, out_dir):
    """Stochastic damped-wave pipeline over the eta ladder."""
    window = _grid(v)
    try:
        problem = wave_problem(
            v["n_modes"], v["beta_damping"], v["f_linear_coeff"],
            KappaFn.inverse_quadratic(v["kappa_amplitude"]), window,
            v["seed"], v["tail_tol"])
        meta = {**eta_cutoff(problem, window),
                "n_modes": v["n_modes"], "beta_damping": v["beta_damping"]}
        pairs = ladder(problem, window, v["eta_grid"], tol=v["tol"],
                       tail_tol=v["tail_tol"], n_half=v["n_half"],
                       trunc_tol=v["trunc_tol"])
        rows = [wave_row(problem, row, sol, v["seed"]) for row, sol in pairs]
    except ConfigurationError:
        raise  # a config error exits 2, from main
    except SplitflowError as exc:
        files = [_write_json(out_dir, "wave.json",
                             {"command": "wave", **exc.record()})]
        sys.stderr.write(f"wave: {exc}\n")
        return 1, files
    files = [_write_csv(out_dir, "wave.csv", rows, WAVE_COLUMNS),
             _write_json(out_dir, "wave.json",
                         {"seed": v["seed"], "meta": meta, "rows": rows})]
    ok = all(r["certified"] for r in rows if r["eta"] <= meta["eta_cutoff"])
    ok = ok and not any(r["status"] == STATUS_FAILED for r in rows)
    return (0 if ok else 1), files


_COMMANDS = {
    "ou-check": cmd_ou_check,
    "robustness": cmd_robustness,
    "hyperbolic": cmd_hyperbolic,
    "wave": cmd_wave,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="splitflow",
        description="dichotomy robustness and random hyperbolic solutions",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="flat key=value config file")
        sp.add_argument("--out", default="splitflow_out",
                        help="output directory")
        sp.add_argument("--seed", type=int, help="override the config seed")
    args = parser.parse_args(argv)
    try:
        try:
            text = Path(args.config).read_text() if args.config else ""
        except OSError as exc:
            raise ConfigurationError(f"cannot read config: {exc}") from exc
        v = load_config(text, args.command, args.seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, files = _COMMANDS[args.command](v, args.out)
    except (ConfigurationError, WindowError) as exc:
        # a WindowError reaches here only from ou-check, whose windows are
        # all the config's; the other commands record theirs as failures
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    for f in files:
        sys.stderr.write(f"wrote {f}\n")
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
