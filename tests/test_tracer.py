"""The benchmark tracer still wraps what it names.

``perfbench/tracer.py`` replaces splitflow functions by module and name, and
its hooks read named parameters and result fields of some of them.  This
installs it over ``src/`` in a fresh interpreter and runs one small
``robustness`` call and one small ``hyperbolic`` call (which reaches the
continuous pipeline, ``propagator`` and ``autonomous_certificate``), so
renaming a traced function or a hooked parameter fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import inspect, json, os, sys
from tracer import Tracer
from splitflow import cli

tracer = Tracer()
tracer.install()
calls = {
    "robustness": "t_min = -4.0\\nt_max = 4.0\\n",
    "hyperbolic": "model = cubic\\nt_min = -30.0\\nt_max = 30.0\\n"
                  "h = 0.0625\\neta_grid = 0.1\\nn_half = 1\\n",
}
exits = {}
for command, text in calls.items():
    config = os.path.join(sys.argv[1], command + ".txt")
    with open(config, "w") as fh:
        fh.write(text)
    exits[command] = cli.main([command, "--config", config, "--seed", "7",
                               "--out", os.path.join(sys.argv[1], command)])
hooks = [name[len("_after_"):] for name, _ in inspect.getmembers(Tracer)
         if name.startswith("_after_")]
print(json.dumps({
    "exits": exits,
    "hooks": {h: sum(n for k, n in tracer.calls.items()
                     if k.endswith("." + h)) for h in hooks},
    "counts": dict(tracer.counts),
    "keys": {k: len(v) for k, v in tracer.keys.items()},
    "layers": tracer.layer_metrics(),
}))
"""


def test_every_tracer_hook_fires(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["exits"] == {"robustness": 0, "hyperbolic": 0}
    assert out["hooks"] and all(n > 0 for n in out["hooks"].values()), \
        out["hooks"]
    for counter in ("cocycle.rk4_steps", "greens.picard_iters",
                    "sde_bridge.field_calls", "hyperbolic.kernel_iters"):
        assert out["counts"].get(counter, 0) > 0, counter
    assert not [k for k in out["counts"] if k.endswith(".errors")]
    assert out["keys"]["cocycle.propagator"] > 0
    assert out["keys"]["dichotomy.autonomous_certificate"] > 0
    assert out["layers"]["greens.impulse_response_projection.calls"] == 3
    # the scalar instance and the cubic family are exact (Pi^u = 0): only
    # the saddle's family runs a bounded solve
    assert out["layers"]["greens.bounded_solution.calls"] == 1
