"""Workload definitions and the correctness gate.

A workload is a list of CLI calls, each a generated config text plus a seed.
The gate judges every certificate attempt (an instance or row of a command's
output) from the files the CLI wrote, with the command's own pass rule.
"""

import hashlib
import json
import random
from dataclasses import dataclass

OUTPUT_FILES = {
    "robustness": ("robustness.json",),
    "hyperbolic": ("hyperbolic.csv", "hyperbolic.json"),
    "wave": ("wave.csv", "wave.json"),
}

# per command: the list of attempts in the JSON output and each one's flag
_ATTEMPTS = {
    "robustness": ("instances", "passed"),
    "hyperbolic": ("rows", "certified"),
    "wave": ("rows", "certified"),
}


@dataclass(frozen=True)
class Call:
    """One ``splitflow <command> --config <config> --seed <seed>`` call."""

    command: str
    config: str
    seed: int
    attempts: int  # certificate attempts the call must report


def saddle_windows(seed):
    # Almost all work is impulse solves in greens; the verifier grows as
    # O(W^2).  No RK4, noise or hyperbolic layer runs.  The saddle verdict
    # is rejected at +-24 and +-48 (the round-off defect of the verifier),
    # and those rejections stay in failed_frac.
    rng = random.Random(seed)
    rotation = rng.uniform(0.0099, 0.0101)
    pert_step = rng.uniform(0.549, 0.551)
    return [Call("robustness",
                 f"t_min = {-w}\nt_max = {w}\n"
                 f"rotation = {rotation!r}\npert_step = {pert_step!r}\n",
                 seed, 2)
            for w in (8, 24, 48)]


def cubic_ladder(seed):
    # d=1 on a long fine grid: the hyperbolic kernel iteration and the
    # per-node field callbacks dominate; RK4 is about a third.
    return [Call("hyperbolic",
                 "model = cubic\nt_min = -70.0\nt_max = 70.0\nh = 0.015625\n"
                 "eta_grid = 0.2,0.1,0.05,0.025\n", seed, 4)]


def wave_ladder(seed):
    # d=8: unit propagators dominate, and greens runs over a time-varying
    # cocycle whose every step is an RK4 integration.  The automatic ladder
    # has four etas under the cutoff plus eta = 0.
    return [Call("wave",
                 "n_modes = 4\nt_min = -60.0\nt_max = 60.0\nh = 0.03125\n",
                 seed, 5)]


WORKLOADS = {
    "saddle_windows": saddle_windows,
    "cubic_ladder": cubic_ladder,
    "wave_ladder": wave_ladder,
}


def digest(files):
    """SHA-256 over the output files, names included."""
    h = hashlib.sha256()
    for name in sorted(files):
        h.update(name.encode() + b"\0" + files[name] + b"\0")
    return h.hexdigest()


def verdicts(command, doc):
    """Pass or fail of each certificate attempt in a parsed JSON output."""
    if command == "robustness":
        # the scalar instance also carries the exponent check
        return [inst.get("passed") is True
                and inst.get("exponent_conservative", True) is True
                for inst in doc["instances"]]
    if command == "hyperbolic":
        return [row["certified"] is True and row["sup_distance"] is not None
                and row["sup_distance"] < row["eps_used"]
                for row in doc["rows"]]
    if "error" in doc:
        return []
    cutoff = doc["meta"]["eta_cutoff"]
    return [row["status"] != "failed"
            and (row["certified"] is True or row["eta"] > cutoff)
            for row in doc["rows"]]


def _expected_exit(command, doc, passed):
    if command == "hyperbolic":
        # the CLI fails only a certified row whose distance misses eps
        return int(any(row["certified"] and not (
            row["sup_distance"] is not None
            and row["sup_distance"] < row["eps_used"]) for row in doc["rows"]))
    return int(not (passed and all(passed)))


def assess(call, files, exit_code, reference=None):
    """Judge one call's outputs.

    Returns ``(failed, problems)``: the number of failed attempts out of
    ``call.attempts``, and the output defects found (missing or malformed
    files, an exit code that contradicts the outputs, bytes that differ
    from ``reference``).  A failed attempt is a scientific verdict; a
    problem means the outputs themselves are wrong.
    """
    problems = []
    if isinstance(exit_code, str):  # the CLI raised; this is its traceback
        return call.attempts, []
    if exit_code not in (0, 1):
        return call.attempts, [f"{call.command}: CLI ended with {exit_code!r}"]
    missing = [n for n in OUTPUT_FILES[call.command] if n not in files]
    if missing:
        return call.attempts, [f"{call.command}: missing outputs {missing}"]
    name = OUTPUT_FILES[call.command][-1]
    try:
        doc = json.loads(files[name])
        passed = verdicts(call.command, doc)
        expected_exit = _expected_exit(call.command, doc, passed)
    except (ValueError, KeyError, TypeError) as exc:
        return call.attempts, [f"{name}: malformed ({exc!r})"]
    if len(passed) != call.attempts:
        problems.append(f"{name}: {len(passed)} attempts, "
                        f"expected {call.attempts}")
    if exit_code != expected_exit:
        problems.append(f"{name}: exit code {exit_code} contradicts "
                        f"the outputs (expected {expected_exit})")
    failed = call.attempts - min(sum(passed), call.attempts)
    if reference is not None and digest(files) != reference:
        problems.append(f"{call.command}: outputs differ from an earlier "
                        f"run of the same seed")
        failed = call.attempts
    return failed, problems


def doctored(call, files):
    """Doctored copies of genuine outputs that the gate must reject.

    Yields ``(label, files, reference)``: the first passing attempt's flag
    flipped to false, judged on the verdict alone; and one digit changed,
    judged against the genuine digest.
    """
    name = OUTPUT_FILES[call.command][-1]
    doc = json.loads(files[name])
    key, flag = _ATTEMPTS[call.command]
    passed = verdicts(call.command, doc)
    if any(passed):
        i = passed.index(True)
        doc[key][i][flag] = False
        text = json.dumps(doc, indent=2) + "\n"
        yield f"{name}: {key}[{i}].{flag} flipped", \
            {**files, name: text.encode()}, None
    raw = bytearray(files[name])
    pos = next(p for p in range(len(raw) // 2, len(raw))
               if chr(raw[p]).isdigit())
    raw[pos] = ord("0") + (raw[pos] - ord("0") + 1) % 10
    yield f"{name}: byte {pos} changed", {**files, name: bytes(raw)}, \
        digest(files)
