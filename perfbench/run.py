"""splitflow benchmark: certificate workloads through the CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each execution of a workload runs its CLI calls through ``splitflow.cli.main``
in a fresh interpreter, built from the ``src`` directory beside this one.
Every certificate attempt is judged from the files the CLI wrote (see
``workloads.assess``).  Outputs of one seed must be byte-identical across
executions, within a run and across runs in one checkout, and doctored
copies of the genuine outputs must be rejected by the same gate.

``--trace 0`` measures the end-to-end metrics: it times start-up in
``SETUP_PROBES`` bare interpreters, then executes the workload until
``--seconds`` have passed (at least once) and reports medians.
``--trace 1`` executes it twice with every layer function wrapped
(``tracer.py``) and once untraced in between; it reports per-layer self
times, exact work counts (which must repeat) and the tracing overhead.

Machine facts and the metrics are printed; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Per-run records and digests stay in ``.perfbench_runs/``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import METRICS as LAYER_METRICS, TIMED
from workloads import WORKLOADS, assess, digest, doctored

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_runs"

SETUP_PROBES = 5
RUN_CAP_S = 130  # no execution starts later, so a run ends within 180 s
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def nproc():
    return len(os.sched_getaffinity(0))


def machine_record(probe):
    """nproc, CPU, caches, interpreter and numerical stack of this run."""
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip()
                             for f in ("level", "type", "size"))
        caches.append(f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"
                      f" {size}")
    blas = probe["blas"]
    return {
        "nproc": nproc(), "cpu": cpu, "caches": caches,
        "python": platform.python_version(),
        "numpy": probe["numpy"], "scipy": probe["scipy"],
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {v: worker_env()[v] for v in THREAD_VARS},
    }


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in THREAD_VARS:  # one process, at most nproc threads
        env.setdefault(var, str(nproc()))
    return env


def spawn(run_dir, tag, argvs, trace):
    """Run worker.py on ``argvs`` in a fresh interpreter; its result dict."""
    spec_path = run_dir / f"{tag}.spec.json"
    result_path = run_dir / f"{tag}.result.json"
    log_path = run_dir / f"{tag}.log"
    spec = {"calls": argvs, "trace": trace, "result": str(result_path)}
    with open(log_path, "wb") as log:
        spec["spawn_time"] = time.time()
        spec_path.write_text(json.dumps(spec))
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                cwd=run_dir, env=worker_env(), stdin=subprocess.DEVNULL,
                stdout=log, stderr=log, timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{tag}: worker timed out after {exc.timeout} s")
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text(errors="replace")[-2000:]
        raise BenchError(f"{tag}: worker exited {proc.returncode}\n{tail}")
    result = json.loads(result_path.read_text())
    if not Path(result["splitflow"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"splitflow was imported from {result['splitflow']},"
                         f" not from {SRC}")
    return result


def execute(run_dir, tag, calls, trace):
    """One execution of the workload; its result plus each call's outputs."""
    exec_dir = run_dir / tag
    exec_dir.mkdir()
    argvs = []
    for i, call in enumerate(calls):
        cfg = exec_dir / f"call{i}.cfg"
        cfg.write_text(call.config)
        argvs.append([call.command, "--config", str(cfg),
                      "--out", str(exec_dir / f"out{i}"),
                      "--seed", str(call.seed)])
    result = spawn(run_dir, tag, argvs, trace)
    result["outputs"] = []
    for i in range(len(calls)):
        out_dir = exec_dir / f"out{i}"
        files = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))} \
            if out_dir.is_dir() else {}
        result["outputs"].append(files)
    result["output_bytes"] = sum(len(b) for files in result["outputs"]
                                 for b in files.values())
    return result


def remember(kind, key, value):
    """What an earlier run recorded under ``key``; records ``value`` if none."""
    path = WORK / "seen.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    entry = f"{kind}:{key}"
    if entry not in seen:
        seen[entry] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, indent=1, sort_keys=True))
        os.replace(tmp, path)
    return seen[entry]


def inputs_key(workload, calls):
    """Key of one set of inputs to one version of the program and tracer,
    so that a changed program is never compared with its old outputs."""
    h = hashlib.sha256(json.dumps(
        [workload, [(c.command, c.config, c.seed) for c in calls]]).encode())
    for path in sorted(SRC.rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:20]


def gate(workload, calls, executions):
    """Attempts, failed attempts and output problems over all executions,
    plus the doctored-output self-check on the first execution."""
    attempted = failed = 0
    problems, notes = [], []
    for i, call in enumerate(calls):
        first = executions[0]["outputs"][i]
        reference = remember("digest", inputs_key(workload, [call]),
                             digest(first))
        for k, ex in enumerate(executions):
            exit_code = ex["exits"][i]
            if isinstance(exit_code, str):
                notes.append(f"execution {k + 1} call {i + 1} raised:\n"
                             f"{exit_code}")
            f, p = assess(call, ex["outputs"][i], exit_code, reference)
            attempted += call.attempts
            failed += f
            problems += p
    doctored_total = doctored_rejected = 0
    for i, call in enumerate(calls):
        genuine, exit_code = executions[0]["outputs"][i], executions[0]["exits"][i]
        base_failed, base_problems = assess(call, genuine, exit_code)
        if isinstance(exit_code, str) or base_problems:
            notes.append(f"call {i + 1}: no well-formed outputs to doctor")
            continue
        for label, files, reference in doctored(call, genuine):
            f, p = assess(call, files, exit_code, reference)
            doctored_total += 1
            if f > base_failed or len(p) > len(base_problems):
                doctored_rejected += 1
            else:
                problems.append(f"gate accepted doctored outputs ({label})")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "notes": notes, "doctored": doctored_total,
            "doctored_rejected": doctored_rejected}


def run_untraced(run_dir, workload, calls, seconds):
    setups = [spawn(run_dir, f"probe{k}", [], False)
              for k in range(SETUP_PROBES)]
    executions = []
    start = time.perf_counter()
    while True:
        executions.append(execute(run_dir, f"exec{len(executions)}",
                                  calls, False))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or elapsed * (1 + 1 / len(executions)) > RUN_CAP_S:
            break
    verdict = gate(workload, calls, executions)
    metrics = {
        "run_s": median([ex["run_s"] for ex in executions]),
        "setup_s": median([r["setup_s"] for r in setups + executions]),
        "peak_rss_mb": median([ex["peak_rss_mb"] for ex in executions]),
        "passed_frac": 1.0 - verdict["failed"] / verdict["attempted"],
    }
    return setups[0], executions, verdict, metrics


def run_traced(run_dir, workload, calls):
    # the untraced execution runs between the traced ones, so that a steady
    # drift in machine speed cancels out of the overhead
    executions = [execute(run_dir, tag, calls, trace) for tag, trace in
                  (("traced0", True), ("plain", False), ("traced1", True))]
    plain, traced = executions[1], executions[::2]
    verdict = gate(workload, calls, executions)
    for ex in traced:
        ex["layers"]["cli.output_bytes"] = ex["output_bytes"]
    counts = [{m: v for m, v in ex["layers"].items() if m not in TIMED}
              for ex in traced]
    recorded = remember("counts", inputs_key(workload, calls), counts[0])
    for name in counts[0]:
        values = [c[name] for c in counts] + [recorded.get(name)]
        if len(set(values)) != 1:
            verdict["problems"].append(
                f"count {name} drifted across runs of one seed: {values}")
    run_s = median([ex["run_s"] for ex in traced])
    values = {**counts[0], "trace.run_s": run_s,
              "trace.overhead_s": run_s - plain["run_s"]}
    metrics = {name: values[name] if name in values
               else median([ex["layers"][name] for ex in traced])
               for name in LAYER_METRICS}
    return plain, executions, verdict, metrics


def report(workload, seed, trace, machine, executions, verdict, metrics, units):
    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} "
          f"caches={', '.join(machine['caches'])}")
    print(f"software: python {machine['python']}, numpy {machine['numpy']}, "
          f"scipy {machine['scipy']}, blas {machine['blas']} "
          f"({machine['blas_config']}), threads {machine['threads']}")
    print(f"workload {workload}, seed {seed}, trace {trace}: "
          f"{len(executions)} executions in fresh processes")
    for k, ex in enumerate(executions):
        exits = [e if isinstance(e, int) else "raised" for e in ex["exits"]]
        print(f"  execution {k + 1}{' (traced)' if 'layers' in ex else ''}: "
              f"run {ex['run_s']:.4f} s, setup {ex['setup_s']:.4f} s, "
              f"peak rss {ex['peak_rss_mb']:.1f} MB, exits {exits}")
    for note in verdict["notes"]:
        print(f"  note: {note}", file=sys.stderr)
    attempted, failed = verdict["attempted"], verdict["failed"]
    print(f"gate: {attempted} certificate attempts, {failed} failed "
          f"(failed_frac {failed / attempted:.4f}); doctored outputs rejected "
          f"{verdict['doctored_rejected']}/{verdict['doctored']}")
    for problem in verdict["problems"]:
        print(f"  problem: {problem}")
    print(f"correct: {'true' if not verdict['problems'] else 'false'}")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "splitflow" / "cli.py").is_file():
        print(f"no splitflow sources under {SRC}", file=sys.stderr)
        return 2

    calls = WORKLOADS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir()
    try:
        if args.trace:
            probe, executions, verdict, metrics = run_traced(
                run_dir, args.workload, calls)
            units = {name: unit for name, (unit, _) in LAYER_METRICS.items()}
        else:
            probe, executions, verdict, metrics = run_untraced(
                run_dir, args.workload, calls, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    machine = machine_record(probe)
    report(args.workload, args.seed, args.trace, machine, executions, verdict,
           metrics, units)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "machine": machine,
              "executions": [{k: v for k, v in ex.items() if k != "outputs"}
                             for ex in executions],
              "gate": verdict, "metrics": metrics}
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json") \
        .write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": not verdict["problems"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
