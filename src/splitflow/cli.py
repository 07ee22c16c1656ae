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
from pathlib import Path

import numpy as np

from . import __version__
from .cocycle import DiscreteCocycle, pointwise
from .dichotomy import DichotomyCertificate, _window_nodes
from .errors import ConfigurationError, SplitflowError
from .grids import TimeGrid
from .hyperbolic import (ROW_COLUMNS, STATUS_FAILED, SemilinearProblem,
                         eta_row)
from .io import cell, jsonable
from .noise import (KappaFn, ensemble_diagnostics, injected_path, linear_path,
                    ou_series, pathwise_ou_residual, sample_wiener_path,
                    shift_path, sublinearity_report, zero_path)
from .robustness import robust_dichotomy_discrete, robustness_report
from .sde_bridge import StratonovichSpec, random_ode_problem, run_wave_demo

# key -> (parser, default)
_COMMON = {"seed": (int, 12345)}


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
        "t_min": (float, -8.0), "t_max": (float, 8.0), "h": (float, 1.0 / 64),
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


def load_config(text, command):
    """Typed config dict of ``command``: the schema defaults overridden by
    the key = value lines of ``text``, checked; errors name a faulty line."""
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
    if not values["h"] > 0.0:
        raise ConfigurationError("h must be positive")
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
    gerr = float(np.max(np.abs(
        np.array([q1.value_at(t) for t in ts[:200]])
        - np.array([q2.value_at(t) for t in ts[:200]]))))
    checks.append({"check": "shift_group_law", "value": gerr, "target": 0.0,
                   "band": 0.0, "passed": gerr == 0.0})

    # sublinearity trend: ensemble medians at the first/last checkpoints
    cps = v["checkpoints"]
    wide = TimeGrid(-30.0, max(cps) + 2.0, 1.0 / 16)
    ratios = [sublinearity_report(sample_wiener_path(wide, v["seed"] + 1000 + k),
                                  [cps[0], cps[-1]]) for k in range(500)]
    early, late = np.median(ratios, axis=0).tolist()
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
              DichotomyCertificate.constant([[1.0]], 1.0, ln2, discrete=True))]
    if v["run_saddle"]:
        eps = v["rotation"]
        d_mat = np.diag([0.5, 2.0])
        rot = np.array([[np.cos(eps), -np.sin(eps)],
                        [np.sin(eps), np.cos(eps)]])
        cases.append(({"name": "saddle_rotation", "rotation": eps},
                      DiscreteCocycle.constant(d_mat),
                      DiscreteCocycle.constant(rot @ d_mat),
                      DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0,
                                                    ln2, discrete=True)))
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
            entry["error"] = str(exc)
            entry["measured"] = getattr(exc, "measured", None)
            entry["threshold"] = getattr(exc, "threshold", None)
            passed = False
        ok = ok and passed
        instances.append(entry)

    files = [_write_json(out_dir, "robustness.json",
                         {"command": "robustness", "seed": v["seed"],
                          "passed": bool(ok), "instances": instances})]
    return (0 if ok else 1), files


def _hyperbolic_problem(v):
    if v["model"] == "additive":
        return SemilinearProblem(
            a_matrix=[[-1.0]],
            f_eta=pointwise(lambda eta, t, y: np.array([eta * np.cos(t)])),
            f0=pointwise(lambda y: np.zeros(1)),
            y0_star=[0.0], r_u=1.0,
            f0_prime=pointwise(lambda y: np.zeros((1, 1))),
            f_eta_dy=pointwise(lambda eta, t, y: np.zeros((1, 1))),
        )
    if v["model"] == "cubic":
        pg = TimeGrid(v["t_min"] - 42.0, v["t_max"] + 2.0, v["h"])
        path = sample_wiener_path(pg, v["seed"])
        kap = KappaFn.inverse_quadratic(v["kappa_amplitude"])
        strat = StratonovichSpec(
            b_matrix=[[1.0]], f=lambda y: -y ** 3,
            f_prime=lambda y: (-3.0 * y ** 2)[:, :, None],
            eta=1.0, kappa=kap,
        )
        return random_ode_problem(strat, path, [1.0], r_u=v["r_u"])
    raise ConfigurationError(f"field 'model': unknown model {v['model']!r}")


def cmd_hyperbolic(v, out_dir):
    """Bounded-solution ladder over the eta grid, with certification."""
    problem = _hyperbolic_problem(v)
    window = _grid(v)
    rows = [eta_row(problem, eta, window, tol=v["tol"],
                    tail_tol=v["tail_tol"], n_half=v["n_half"])[0]
            for eta in v["eta_grid"]]
    files = [_write_csv(out_dir, "hyperbolic.csv", rows, ROW_COLUMNS),
             _write_json(out_dir, "hyperbolic.json",
                         {"command": "hyperbolic", "seed": v["seed"],
                          "model": v["model"], "rows": rows})]
    ok = not any(r["status"] in (STATUS_FAILED, "error") for r in rows)
    return (0 if ok else 1), files


def cmd_wave(v, out_dir):
    """Stochastic damped-wave pipeline over the eta ladder."""
    window = _grid(v)
    a = v["f_linear_coeff"]
    kap = KappaFn.inverse_quadratic(v["kappa_amplitude"])
    eta_grid = v["eta_grid"] if v["eta_grid"] else None
    try:
        report = run_wave_demo(
            v["n_modes"], v["beta_damping"], eta_grid, v["seed"], window,
            f_scalar=lambda u: a * u - u ** 3,
            f_scalar_prime=lambda u: a - 3.0 * u ** 2,
            kappa=kap, tol=v["tol"], tail_tol=v["tail_tol"],
            trunc_tol=v["trunc_tol"], n_half=v["n_half"],
        )
    except ConfigurationError:
        raise  # a config error exits 2, from main
    except SplitflowError as exc:
        files = [_write_json(out_dir, "wave.json",
                             {"command": "wave", "error": str(exc)})]
        sys.stderr.write(f"wave: {exc}\n")
        return 1, files
    files = [_write_csv(out_dir, "wave.csv", report.rows, report.COLUMNS),
             _write_json(out_dir, "wave.json", {
                 "seed": report.seed, "meta": report.meta, "rows": report.rows})]
    cutoff = report.meta["eta_cutoff"]
    ok = all(r["certified"] for r in report.rows if r["eta"] <= cutoff)
    ok = ok and not any(r["status"] == STATUS_FAILED for r in report.rows)
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
        v = load_config(text, args.command)
        if args.seed is not None:
            v["seed"] = args.seed
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, files = _COMMANDS[args.command](v, args.out)
    except ConfigurationError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    for f in files:
        sys.stderr.write(f"wrote {f}\n")
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
