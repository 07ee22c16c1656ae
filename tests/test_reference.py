"""The CLI's outputs match the references in ``tests/reference/``.

Each call of ``update_reference.CALLS`` runs once; every cell (exit code,
stderr, config, and each leaf of the output files) must equal its recorded
value.  On the numpy version and platform recorded in the manifest a float
cell must be ``==``; elsewhere it may differ by round-off, within
``REL_TOL`` relative plus ``ABS_TOL`` absolute, and every other cell stays
exact.  A failure lists each moved cell with its old and new value and the
relative change.  A change that moves outputs on purpose rewrites the
references with ``python tests/update_reference.py``, which prints the same
list.
"""

import json

import numpy as np
import pytest

import update_reference as ref

MANIFEST = ref.load_manifest()
EXACT = MANIFEST["environment"] == ref.environment()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    scratch = tmp_path_factory.mktemp("reference")
    return {label: ref.run(label, scratch) for label in ref.CALLS}


def test_every_call_has_a_reference():
    assert sorted(MANIFEST["calls"]) == sorted(ref.CALLS)
    on_disk = sorted(p.name for p in ref.REFERENCE.iterdir()
                     if p.is_dir() and p != ref.DEMO_REFERENCE)
    assert on_disk == sorted(ref.CALLS)


@pytest.mark.parametrize("label", sorted(ref.CALLS))
def test_outputs_match_reference(runs, label):
    code, stderr, files = runs[label]
    new = ref.cells(ref.CALLS[label][1], code, stderr, files)
    moved = ref.diff(label, ref.reference_cells(label, MANIFEST), new,
                     exact=EXACT)
    rule = "==" if EXACT else (f"within {ref.REL_TOL:g} relative + "
                               f"{ref.ABS_TOL:g} absolute (not the recorded "
                               f"numpy version and platform)")
    assert not moved, (f"{len(moved)} cells moved (floats compared {rule}):\n"
                       + "\n".join(moved))


def test_one_ulp_move_is_named():
    # the differ sees the last bit of one certificate constant
    label = "hyperbolic"
    old = ref.reference_cells(label, MANIFEST)
    doc = json.loads((ref.REFERENCE / label / "hyperbolic.json").read_text())
    doc["rows"][1]["M_bound"] = float(np.nextafter(doc["rows"][1]["M_bound"],
                                                   np.inf))
    new = dict(old)
    new.update(ref.file_cells("hyperbolic.json", json.dumps(doc, indent=2)))
    moved = ref.diff(label, old, new)
    assert len(moved) == 1
    assert moved[0].startswith("hyperbolic/hyperbolic.json:rows[1].M_bound: ")
    assert "(relative change 2.22e-16)" in moved[0]


def test_summary_counts_moved_cells_by_kind():
    # per label the moved cells, the largest relative float move, and every
    # other move (an exit code, a verdict, None, a string, an absent cell)
    pairs = {
        "a": ({"exit": 0, "x": 1.0, "y": 2.0, "ok": True, "z": None},
              {"exit": 1, "x": 1.0 + 1e-9, "y": 2.0, "ok": False, "z": 0.5}),
        "b": ({"x": 4.0, "s": "r", "gone": 1.0},
              {"x": 3.0, "s": "t", "new": 1}),
        "c": ({"x": -0.0, "n": float("nan")}, {"x": 0.0, "n": float("nan")}),
    }
    assert ref.summary(pairs) == (
        "moved cells: a 4, b 4; largest relative float change 0.25 outside "
        "residual; moved residual cells at most 0 in absolute value; 6 "
        "non-float cells moved")
    assert ref.summary({"c": pairs["c"]}) == (
        "moved cells: none; largest relative float change 0 outside "
        "residual; moved residual cells at most 0 in absolute value; 0 "
        "non-float cells moved")
    nan = {"d": ({"x": 1.0}, {"x": float("nan")})}
    assert "largest relative float change inf" in ref.summary(nan)


def test_summary_reports_the_residual_column_apart():
    # a fixed-point residual is round-off: its moves count among the moved
    # cells, but only their largest absolute value is reported, not their
    # relative change; a residual that turns into a string is a non-float
    # move, and a cell that only ends in "residual" is an ordinary float
    pairs = {
        "h": ({"hyperbolic.csv:[0].residual": 3.0e-15,
               "hyperbolic.json:rows[1].residual": 4.6e-17,
               "hyperbolic.json:rows[1].sup_distance": 1.0,
               "hyperbolic.json:rows[2].residual": 1e-16},
              {"hyperbolic.csv:[0].residual": 2.0e-15,
               "hyperbolic.json:rows[1].residual": 3.3e-14,
               "hyperbolic.json:rows[1].sup_distance": 1.0 + 2e-12,
               "hyperbolic.json:rows[2].residual": "x"}),
        "r": ({"robustness.json:fixed_residual": 1.0},
              {"robustness.json:fixed_residual": 1.5}),
    }
    assert ref.summary(pairs) == (
        "moved cells: h 4, r 1; largest relative float change 0.333 outside "
        "residual; moved residual cells at most 3.3e-14 in absolute value; "
        "1 non-float cells moved")


def test_summary_reads_the_verifier_leakage_absolutely():
    # the verifier's one-step leakage and its charged value are round-off
    # (about 1e-16 in robustness.json) and move by large relative amounts,
    # so only their largest absolute value is reported, with the residuals;
    # a cell that only ends in "leakage" is an ordinary float
    inv = "robustness.json:instances[0].axioms.invertibility"
    old = {f"{inv}.leakage": 1.1e-16, f"{inv}.charged_leakage": 2.2e-16,
           f"{inv}.max_leakage": 1.0, f"{inv}.delta_threshold": 0.5}
    new = {f"{inv}.leakage": 2.2e-16, f"{inv}.charged_leakage": 4.4e-16,
           f"{inv}.max_leakage": 1.0 + 1e-12, f"{inv}.delta_threshold": 0.5}
    assert [ref._is_residual(k) for k in old] == [True, True, False, False]
    assert ref.summary({"r": (old, new)}) == (
        "moved cells: r 3; largest relative float change 1e-12 outside "
        "residual; moved residual cells at most 4.4e-16 in absolute value; "
        "0 non-float cells moved")
