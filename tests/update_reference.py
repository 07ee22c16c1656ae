"""Reference outputs of the CLI, and the cell differ that compares them.

    PYTHONPATH=src python tests/update_reference.py

re-runs every call of :data:`CALLS`, rewrites ``tests/reference/`` and
prints each cell that moved against the references it replaces (old value,
new value, relative change), then the number of changed cells, then one
:func:`summary` line: the moved cells per call, the largest relative change
among the moved float cells outside the residual cells, the largest
absolute value of the moved residual cells (``residual``, ``leakage`` and
``charged_leakage``: round-off, read absolutely) and the number of moved
cells of any other kind.  That list is the record of a change that
moves outputs on purpose; ``tests/test_reference.py`` runs the same calls
and fails on any moved cell.

The calls: ``robustness``, ``hyperbolic`` and ``wave`` at their defaults
with ``--seed 12345``, ``ou-check`` at ``n_paths = 200``, and every CLI call
of each benchmark workload at seed 41 (the configs are read from
``perfbench/workloads.py``, never written).  ``tests/reference/<label>/``
holds each call's output files as written; ``tests/reference/MANIFEST.json``
holds each call's config, exit code and stderr (the output directory
written as ``OUT``), and the numpy version and platform the references came
from.  ``tests/reference/demos/<demo>.txt`` holds the standard output of
each script under ``demos/``, run in a fresh interpreter;
``tests/test_demos.py`` compares it exactly on the recorded numpy version
and platform.

A cell is one leaf of a JSON output (``rows[2].M_bound``) or one field of a
CSV row (``[2].M_bound``), parsed back to a bool, None, int, float or
string; the exit code, the stderr and the config of a call are cells too.
The CSV writer does not quote, so the fields past the header's last column
(commas in an error message) are joined back into that column.
"""

import contextlib
import io
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "tests" / "reference"
MANIFEST = REFERENCE / "MANIFEST.json"
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_REFERENCE = REFERENCE / "demos"

for _top in ("src", "perfbench"):
    if str(ROOT / _top) not in sys.path:
        sys.path.insert(0, str(ROOT / _top))

import numpy  # noqa: E402
import workloads  # noqa: E402  (perfbench/workloads.py)
from splitflow import cli  # noqa: E402

WORKLOAD_SEED = 41

# off the recorded numpy version and platform, a float cell passes when
# |new - old| <= REL_TOL * max(|old|, |new|) + ABS_TOL; everything else
# (exit codes, verdicts, strings, integers, None) stays exact
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _calls():
    """``label -> (command, config text, seed)``; :func:`run` passes the
    seed as ``--seed``."""
    calls = {command: (command, "", 12345)
             for command in ("robustness", "hyperbolic", "wave")}
    calls["ou-check"] = ("ou-check", "n_paths = 200\n", 12345)
    for name, make in workloads.WORKLOADS.items():
        for i, call in enumerate(make(WORKLOAD_SEED)):
            calls[f"{name}-{WORKLOAD_SEED}-{i}"] = (call.command, call.config,
                                                    call.seed)
    return calls


CALLS = _calls()


def environment():
    """What a float cell's last bits depend on besides the code."""
    return {"numpy": numpy.__version__, "system": platform.system(),
            "machine": platform.machine()}


def run(label, scratch):
    """``(exit, stderr, files)`` of one call, run in this process with its
    outputs under ``scratch``; ``files`` maps each output name to its
    text."""
    command, config, seed = CALLS[label]
    scratch = Path(scratch)
    cfg = scratch / f"{label}.cfg"
    cfg.write_text(config)
    out = scratch / label
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(cfg), "--seed", str(seed),
                         "--out", str(out)])
    files = {p.name: p.read_text() for p in sorted(out.glob("*"))}
    return code, err.getvalue().replace(str(out), "OUT"), files


def run_demo(demo, cwd):
    """The finished process of one demo script, run in a fresh interpreter
    in ``cwd`` against the package in ``src/``, its output captured as
    text."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(demo)], cwd=cwd,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def demo_reference(demo):
    """The reference file of a demo's standard output."""
    return DEMO_REFERENCE / f"{demo.stem}.txt"


def _parse(text):
    if text in ("true", "false"):
        return text == "true"
    if text == "":
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _leaves(x, path):
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, x


def file_cells(name, text):
    """``cell name -> value`` of one output file."""
    if name.endswith(".json"):
        return {f"{name}:{k}": v for k, v in _leaves(json.loads(text), "")}
    lines = text.splitlines()
    header = lines[0].split(",")
    cells = {}
    for i, line in enumerate(lines[1:]):
        fields = line.split(",")
        fields[len(header) - 1:] = [",".join(fields[len(header) - 1:])]
        for col, field in zip(header, fields):
            cells[f"{name}:[{i}].{col}"] = _parse(field)
    return cells


def cells(config, code, stderr, files):
    """Every cell of one call."""
    out = {"config": config, "exit": code, "stderr": stderr}
    for name, text in files.items():
        out[f"{name}:<file>"] = True
        out.update(file_cells(name, text))
    return out


def _same(old, new, exact):
    if type(old) is not type(new):
        return False
    if isinstance(old, float):
        if math.isnan(old) or math.isnan(new):
            return math.isnan(old) and math.isnan(new)
        if exact:
            return old == new
        return abs(new - old) <= REL_TOL * max(abs(old), abs(new)) + ABS_TOL
    return old == new


def _relative(old, new):
    if isinstance(old, bool) or isinstance(new, bool) \
            or not all(isinstance(x, (int, float)) for x in (old, new)):
        return ""
    scale = max(abs(old), abs(new))
    return f"  (relative change {abs(new - old) / scale:.3g})" if scale else ""


def diff(label, old, new, exact=True):
    """One line per cell of call ``label`` whose value moved from ``old``
    to ``new`` (cell dicts); a cell only one side has reads ``<absent>``
    on the other."""
    lines = []
    for key in _moved(old, new, exact):
        a = old.get(key, "<absent>")
        b = new.get(key, "<absent>")
        lines.append(f"{label}/{key}: {a!r} -> {b!r}{_relative(a, b)}")
    return lines


def _moved(old, new, exact):
    """The keys of the cells that moved from ``old`` to ``new``, those only
    one side has included, in the order of ``old`` and then ``new``."""
    return [key for key in list(old) + [k for k in new if k not in old]
            if not (key in old and key in new
                    and _same(old[key], new[key], exact))]


def _is_residual(key):
    """Whether cell ``key`` is read absolutely, as a residual: the
    ``residual`` cells, and the verifier's one-step ``leakage`` and its
    ``charged_leakage`` (``K`` times it).  In ``robustness.json`` these are
    round-off, about 1e-16, which a last-bit change upstream moves by a
    large relative amount; in ``hyperbolic`` the ``residual`` is the kernel
    iteration's last measured step, at most the row's ``tol``, which moves
    with the iterate the iteration stops at."""
    return key.rsplit(".", 1)[-1] in ("residual", "leakage",
                                      "charged_leakage")


def summary(pairs):
    """One line over ``label -> (old, new)`` cell dicts: the number of moved
    cells of each label that has any, the largest relative change among the
    moved cells that are floats on both sides (infinite when one is NaN or
    infinite), the largest absolute value of the moved residual cells
    (``residual``, ``leakage`` and ``charged_leakage``;
    :func:`_is_residual`), which are left out of the relative change, and
    the number of moved cells that are not floats (exit codes, verdicts,
    strings, None, a cell only one side has)."""
    per_label, largest, residual, other = [], 0.0, 0.0, 0
    for label, (old, new) in pairs.items():
        moved = _moved(old, new, True)
        if moved:
            per_label.append(f"{label} {len(moved)}")
        for key in moved:
            a, b = old.get(key), new.get(key)
            if type(a) is float and type(b) is float and _is_residual(key):
                residual = max(residual, abs(a), abs(b))
            elif type(a) is float and type(b) is float:
                # the scale is not 0: zeros of either sign are the same
                rel = abs(b - a) / max(abs(a), abs(b))
                largest = max(largest, math.inf if math.isnan(rel) else rel)
            else:
                other += 1
    return (f"moved cells: {', '.join(per_label) or 'none'}; largest "
            f"relative float change {largest:.3g} outside residual; moved "
            f"residual cells at most {residual:.3g} in absolute value; "
            f"{other} non-float cells moved")


def load_manifest():
    return json.loads(MANIFEST.read_text())


def reference_cells(label, manifest):
    """The recorded cells of call ``label``."""
    entry = manifest["calls"][label]
    files = {p.name: p.read_text() for p in sorted((REFERENCE / label).glob("*"))}
    return cells(entry["config"], entry["exit"], entry["stderr"], files)


def _update_demos():
    """Rewrite the demo references; one line per demo added, removed or
    whose standard output moved.  A demo that fails raises."""
    DEMO_REFERENCE.mkdir(parents=True, exist_ok=True)
    changed = []
    with tempfile.TemporaryDirectory() as scratch:
        for demo in DEMOS:
            done = run_demo(demo, scratch)
            if done.returncode != 0:
                raise RuntimeError(f"{demo.name} failed:\n{done.stderr}")
            target = demo_reference(demo)
            if not target.exists():
                changed.append(f"demos/{target.name}: demo added")
            elif target.read_text() != done.stdout:
                changed.append(f"demos/{target.name}: standard output moved")
            with open(target, "w", newline="\n") as fh:
                fh.write(done.stdout)
    for stale in set(DEMO_REFERENCE.glob("*.txt")) - set(map(demo_reference,
                                                             DEMOS)):
        stale.unlink()
        changed.append(f"demos/{stale.name}: demo removed")
    return changed


def main():
    old = load_manifest() if MANIFEST.exists() else {"calls": {}}
    calls = {}
    changed = []
    pairs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for label, (_, config, _) in CALLS.items():
            code, stderr, files = run(label, scratch)
            before = reference_cells(label, old) if label in old["calls"] \
                else {}
            pairs[label] = before, cells(config, code, stderr, files)
            changed += diff(label, *pairs[label])
            calls[label] = {"config": config, "exit": code, "stderr": stderr}
            target = REFERENCE / label
            shutil.rmtree(target, ignore_errors=True)
            target.mkdir(parents=True)
            for name, text in files.items():
                with open(target / name, "w", newline="\n") as fh:
                    fh.write(text)
    for label in set(old["calls"]) - set(calls):
        shutil.rmtree(REFERENCE / label, ignore_errors=True)
        changed.append(f"{label}: call removed")
    manifest = {"environment": environment(), "calls": calls}
    MANIFEST.write_text(json.dumps(manifest, indent=2) + "\n")
    changed += _update_demos()
    print("\n".join(changed))
    print(f"{len(changed)} changed cells")
    print(summary(pairs))


if __name__ == "__main__":
    main()
