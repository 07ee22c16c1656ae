"""One workload execution in a fresh interpreter.

    python3 worker.py SPEC.json

SPEC holds ``spawn_time`` (the parent's wall clock just before it started
this process), ``calls`` (CLI argument lists), ``trace`` and ``result`` (the
path this process writes its JSON result to).  With no calls it only
measures start-up.
"""

import json
import resource
import sys
import time
import traceback


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    import numpy
    import scipy
    from splitflow import cli
    setup_s = time.time() - spec["spawn_time"]

    out = {"setup_s": setup_s, "splitflow": cli.__file__,
           "numpy": numpy.__version__, "scipy": scipy.__version__,
           "blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]}
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    exits = []
    t0 = time.perf_counter()
    for argv in spec["calls"]:
        try:
            exits.append(cli.main(argv))
        except Exception:  # a raising CLI is a failed attempt, not a crash
            exits.append(traceback.format_exc(limit=3))
    out["run_s"] = time.perf_counter() - t0
    out["exits"] = exits
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
