"""Every script under demos/ runs to completion against the package in src/,
and its standard output is the reference in ``tests/reference/demos/``:
exactly, on the numpy version and platform recorded in the references'
manifest; elsewhere a demo only has to run."""

import pytest

import update_reference as ref

EXACT = ref.load_manifest()["environment"] == ref.environment()


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Each demo's finished process, run once and read by every test."""
    done = {}

    def run(demo):
        if demo not in done:
            done[demo] = ref.run_demo(demo, tmp_path_factory.mktemp("demo"))
        return done[demo]

    return run


def test_demos_are_found():  # a wrong path must not pass vacuously
    assert ref.DEMOS


def test_every_demo_has_a_reference():
    on_disk = sorted(p.name for p in ref.DEMO_REFERENCE.glob("*.txt"))
    assert on_disk == sorted(ref.demo_reference(d).name for d in ref.DEMOS)


@pytest.mark.parametrize("demo", ref.DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(runs, demo):
    done = runs(demo)
    assert done.returncode == 0, done.stderr
    assert done.stdout


@pytest.mark.parametrize("demo", ref.DEMOS, ids=lambda path: path.name)
def test_demo_stdout_matches_reference(runs, demo):
    reference = ref.demo_reference(demo).read_text()
    done = runs(demo)
    if EXACT:
        assert done.stdout == reference, (
            f"{demo.name}: standard output moved; a change that moves it on "
            "purpose rewrites it with tests/update_reference.py")
