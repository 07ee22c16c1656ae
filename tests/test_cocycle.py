import re
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from splitflow import (ConfigurationError, ContinuousCocycle,
                       DichotomyCertificate, DiscreteCocycle, ForcingSequence,
                       SplitflowError, bounded_solution, discretize, pointwise,
                       propagator, verify_dichotomy)
from splitflow import cocycle
from splitflow.cocycle import (UNIT_SAMPLES, _unit_envelope,
                               integrate_nonlinear, spectral_argmax,
                               spectral_norms, spectral_sup, stack_steps)
from splitflow.dichotomy import _decay_ratio
from splitflow.errors import IntegrationError
from conftest import autonomous_wave, march_tables, spectral_norm


def composed(c, n_lo, n_hi):
    """The forward table of the split-flow march over the nodes n_lo..n_hi
    with ``Pi^s = Id``: entry ``[j, i]`` is the ordered product
    ``A_{n_lo+i+j-1} ... A_{n_lo+i}`` of the cocycle's steps."""
    steps = stack_steps(c.step, range(n_lo, n_hi), c.dim)
    return march_tables(steps, np.broadcast_to(
        np.eye(c.dim), (n_hi - n_lo + 1, c.dim, c.dim)))[0]


class TestComposeDiscrete:
    def test_zero_steps_is_identity(self):
        c = DiscreteCocycle.constant([[2.0, 1.0], [0.0, 0.5]])
        assert np.array_equal(composed(c, 0, 3)[0], np.broadcast_to(
            np.eye(2), (4, 2, 2)))

    def test_scalar_power(self):
        c = DiscreteCocycle.constant([[0.5]])
        assert composed(c, 0, 3)[3, 0, 0, 0] == 0.125

    def test_alternating_sequence_brute_force(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        dia = np.diag([2.0, 0.5])

        def step(n):
            return dia if n % 2 == 0 else rot

        c = DiscreteCocycle(pointwise(step), 2)
        expected = rot @ dia @ rot @ dia  # n = 4 from base 0
        assert np.allclose(composed(c, 0, 4)[4, 0], expected, atol=1e-15)
        # and from a shifted base
        expected2 = rot @ dia @ rot  # steps at 1,2,3
        assert np.allclose(composed(c, 0, 4)[3, 1], expected2)

    def test_unwrapped_one_node_callbacks_name_pointwise(self):
        # a step or perturbation written for one node returns one matrix
        # for a whole batch of nodes; pointwise adapts it
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, 0.5)
        one_node = DiscreteCocycle(lambda n: rot, 2)
        with pytest.raises(ConfigurationError, match="splitflow.pointwise"):
            verify_dichotomy(one_node, cert, (-3, 3))
        saddle = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
        f = ForcingSequence.zeros(-3, 3, 2)
        with pytest.raises(ConfigurationError, match="splitflow.pointwise"):
            bounded_solution(saddle, cert, lambda n: 0.01 * rot, f)
        wrapped = DiscreteCocycle(pointwise(lambda n: rot), 2)
        assert np.array_equal(stack_steps(wrapped.step, range(-3, 3), 2),
                              np.broadcast_to(rot, (6, 2, 2)))
        assert bounded_solution(saddle, cert, pointwise(lambda n: 0.01 * rot),
                                f).meta["sup_norm"] == 0.0


class TestIntegrate:
    def test_zero_generator(self):
        c = ContinuousCocycle.constant(np.zeros((3, 3)))
        assert np.allclose(propagator(c, 0.0, 2.0), np.eye(3), atol=1e-14)

    def test_matrix_exponential_oracle(self, rng):
        mats = [np.array([[0.3, 1.2], [-0.7, -1.1]]),
                np.array([[0.0, 2.0], [-2.0, 0.0]])]
        for _ in range(4):
            m = rng.standard_normal((3, 3))
            m *= 2.0 / max(spectral_norm(m), 1e-9)
            mats.append(m)
        for a in mats:
            c = ContinuousCocycle.constant(a, step=1.0 / 256)
            got = propagator(c, 0.0, 2.0)
            want = expm(2.0 * a)
            assert spectral_norm(got - want) < 1e-8, spectral_norm(got - want)

    def test_scalar_integrating_factor(self):
        c = ContinuousCocycle(pointwise(lambda t: np.array([[np.sin(t)]])), 1)
        got = 1.3 * propagator(c, 0.5, 2.0)[0, 0]
        want = 1.3 * np.exp(np.cos(0.5) - np.cos(2.5))
        assert abs(got - want) < 1e-7

    def test_linearity(self, rng):
        # the vector RK4 of a linear field is linear in the initial state
        # and applies the matrix propagator
        gen = lambda t: np.array([[0.1 * np.cos(t), 1.0], [-1.0, -0.2]])
        c = ContinuousCocycle(pointwise(gen), 2)
        x = rng.standard_normal(2)
        y = rng.standard_normal(2)

        def solve(x0):
            return integrate_nonlinear(lambda t, v: gen(t) @ v, 0.0, 1.5, x0)

        lhs = solve(2.0 * x - 3.0 * y)
        assert np.allclose(lhs, 2.0 * solve(x) - 3.0 * solve(y), atol=1e-12)
        assert np.allclose(lhs, propagator(c, 0.0, 1.5) @ (2.0 * x - 3.0 * y),
                           atol=1e-12)

    def test_backward_rejected(self):
        c = ContinuousCocycle.constant([[1.0]])
        with pytest.raises(ValueError):
            propagator(c, 1.0, -1.0)


class TestPropagator:
    def test_zero_duration(self):
        c = ContinuousCocycle(pointwise(lambda t: np.array([[np.sin(t)]])), 1)
        assert np.array_equal(propagator(c, 0.3, 0.0), np.eye(1))

    def test_cocycle_law(self):
        # wave-like oscillatory generator at d = 4
        def gen(t):
            base = np.array([[0.0, 1.0, 0.0, 0.0],
                             [-9.0, -1.0, 0.2, 0.0],
                             [0.0, 0.0, 0.0, 1.0],
                             [0.3 * np.sin(t), 0.0, -40.0, -1.0]])
            return base

        c = ContinuousCocycle(pointwise(gen), 4)
        for (t, s) in [(0.5, 0.25), (1.0, 1.0), (0.75, 1.25)]:
            whole = propagator(c, 0.0, t + s)
            parts = propagator(c, s, t) @ propagator(c, 0.0, s)
            assert spectral_norm(whole - parts) < 1e-6

    def test_autonomous_shift_independence(self):
        a = np.array([[0.0, 1.0], [-4.0, -0.5]])
        c = ContinuousCocycle.constant(a)
        p0 = propagator(c, 0.0, 0.7)
        p5 = propagator(c, 5.0, 0.7)
        assert np.allclose(p0, p5, atol=1e-13)


class TestDiscretize:
    def test_constant_scalar(self):
        c = ContinuousCocycle.constant([[-0.3]])
        steps = discretize(c).step([0, 7])
        assert steps.shape == (2, 1, 1)
        assert np.all(np.abs(steps - np.exp(-0.3)) < 1e-10)

    def test_zero_generator(self):
        d = discretize(ContinuousCocycle.constant(np.zeros((2, 2))))
        assert np.allclose(d.step([3])[0], np.eye(2), atol=1e-14)

    def test_compose_matches_propagator(self):
        c = ContinuousCocycle(pointwise(lambda t: np.array(
            [[0.2 * np.cos(t), 0.5], [-0.5, -0.4]])), 2)
        s0, s1, s2 = discretize(c).step([0, 1, 2])
        got = s2 @ s1 @ s0
        want = propagator(c, 0.0, 3.0)
        assert spectral_norm(got - want) < 3e-9


def _rk4_oracle(gen, shift, n_steps, samples):
    """Unbatched RK4 of ``phi' = gen(t) phi`` over [shift, shift + 1] by its
    step maps: one scalar time per stage, each step's map built from the
    identity, then ``phi <- M phi``, with snapshots every ``n_steps /
    samples`` steps."""
    bounds = np.linspace(shift, shift + 1.0, n_steps + 1)
    ident = np.eye(gen(shift).shape[0])
    y = ident
    snaps = [y]
    for i in range(n_steps):
        ta, tb = bounds[i], bounds[i + 1]
        hh = tb - ta
        k1 = gen(ta)
        k2 = gen(ta + hh / 2) @ (ident + hh / 2 * k1)
        k3 = gen(ta + hh / 2) @ (ident + hh / 2 * k2)
        k4 = gen(tb) @ (ident + hh * k3)
        y = (ident + (hh / 6) * (k1 + 2 * k2 + 2 * k3 + k4)) @ y
        if (i + 1) % (n_steps // samples) == 0:
            snaps.append(y)
    return np.array(snaps)


def _state_march(gen, shift, n_steps, samples):
    """RK4 of ``phi' = gen(t) phi`` over [shift, shift + 1] on the state:
    each stage a product with the current state, one scalar time per stage,
    with snapshots every ``n_steps / samples`` steps."""
    bounds = np.linspace(shift, shift + 1.0, n_steps + 1)
    y = np.eye(gen(shift).shape[0])
    snaps = [y]
    for i in range(n_steps):
        ta, tb = bounds[i], bounds[i + 1]
        hh = tb - ta
        k1 = gen(ta) @ y
        k2 = gen(ta + hh / 2) @ (y + hh / 2 * k1)
        k3 = gen(ta + hh / 2) @ (y + hh / 2 * k2)
        k4 = gen(tb) @ (y + hh * k3)
        y = y + (hh / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (i + 1) % (n_steps // samples) == 0:
            snaps.append(y)
    return np.array(snaps)


class TestUnitFlowTable:
    @staticmethod
    def gen(t):
        return np.array([[0.2 * np.cos(t), 1.0, 0.0],
                         [-4.0, -0.3 + 0.1 * np.sin(2 * t), 0.5],
                         [0.0, 0.3 * np.cos(t), -1.0]])

    # 1/20: 1/step is not a multiple of UNIT_SAMPLES, so the step shrinks
    @pytest.mark.parametrize("step, n_steps", [(1.0 / 64, 64), (1.0 / 20, 32)])
    def test_batched_flows_match_scalar_propagators(self, step, n_steps):
        c = ContinuousCocycle(pointwise(self.gen), 3, step=step)
        shifts = list(range(-4, 5))
        flows = c.unit_flows(shifts)
        assert flows.shape == (len(shifts), UNIT_SAMPLES + 1, 3, 3)
        for n, flow in zip(shifts, flows):
            want = propagator(c, float(n), 1.0, UNIT_SAMPLES)[2]
            assert np.array_equal(flow, want)
            oracle = _rk4_oracle(self.gen, float(n), n_steps, UNIT_SAMPLES)
            assert np.array_equal(flow, oracle)

    # budgets: the default (None), three 1/64 snapshot intervals of nine
    # shifts (25 stage rows of nine 3x3 matrices) and less than one interval
    @pytest.mark.parametrize("budget", [None, 25 * 9 * 72, 1])
    @pytest.mark.parametrize("step, n_steps", [(1.0 / 64, 64), (1.0 / 20, 32)])
    def test_generator_calls_hold_whole_intervals_within_budget(
            self, monkeypatch, budget, step, n_steps):
        # a call takes the stage times of a whole number of snapshot
        # intervals for every shift of the stack, as many intervals as keep
        # its 2m + 1 generator matrices per shift within the byte budget
        # (one interval at least); the calls cover every stage time in order
        default = budget is None
        if default:
            budget = cocycle._BLOCK_BYTES
        monkeypatch.setattr(cocycle, "_BLOCK_BYTES", budget)
        interval = n_steps // UNIT_SAMPLES
        calls = []

        def gen(ts):
            calls.append(np.array(ts))
            return pointwise(self.gen)(ts)

        c = ContinuousCocycle(gen, 3, step=step)
        for shifts, fill in ((range(-4, 5), c.unit_flows),
                             (range(5, 8), c.unit_steps)):  # endpoints
            calls.clear()
            got = fill(list(shifts))
            members = len(shifts)
            rows = [ts.reshape(-1, members) for ts in calls]
            steps = [(len(r) - 1) // 2 for r in rows]
            assert all(len(r) == 2 * m + 1 for r, m in zip(rows, steps))
            assert all(m % interval == 0 for m in steps)
            row = members * 3 * 3 * 8  # bytes of one stage's matrices
            stage_bytes = [(2 * m + 1) * row for m in steps]
            assert all(b <= budget or m == interval
                       for b, m in zip(stage_bytes, steps))
            assert all(b + 2 * interval * row > budget  # as many as fit
                       for b in stage_bytes[:-1])
            # consecutive calls share the bound between their blocks
            assert all(np.array_equal(a[-1], b[0])
                       for a, b in zip(rows, rows[1:]))
            times = np.concatenate([rows[0][:1]] + [r[1:] for r in rows])
            for col, n in enumerate(shifts):
                bounds = np.linspace(n, n + 1.0, n_steps + 1)
                want = np.empty(2 * n_steps + 1)
                want[::2] = bounds
                want[1::2] = bounds[:-1] + (bounds[1:] - bounds[:-1]) / 2
                assert np.array_equal(times[:, col], want)
            for n, flow in zip(shifts, got):
                oracle = _rk4_oracle(self.gen, float(n), n_steps, UNIT_SAMPLES)
                assert np.array_equal(flow, oracle if flow.ndim == 3
                                      else oracle[-1])
        if default:  # a small fill is one call
            assert len(calls) == 1
            calls.clear()
            c.unit_flows(range(10, 19))
            assert len(calls) == 1

    def test_non_finite_generator_names_stage_time(self):
        bad = 0.5 + 1.0 / 128  # the midpoint of step 32 of shift 0

        def gen(ts):
            out = pointwise(self.gen)(ts)
            out[ts == bad] = np.nan
            return out

        c = ContinuousCocycle(gen, 3)
        match = re.escape(f"non-finite generator at t={bad}")
        with pytest.raises(SplitflowError, match=match):
            c.unit_flows(range(-2, 3))
        with pytest.raises(SplitflowError, match=match):
            propagator(c, 0.0, 1.0)

    def test_unit_steps_are_the_table_endpoints(self):
        # the shifts unit_steps integrates keep all their snapshots, from
        # one generator call; asking for the snapshots later calls it no more
        calls = []

        def gen(ts):
            calls.append(len(ts))
            return pointwise(self.gen)(ts)

        c = ContinuousCocycle(gen, 3, step=1.0 / 20)
        steps = c.unit_steps(range(-2, 3))
        assert calls == [5 * 65]  # five shifts, 2 * 32 + 1 stage times each
        assert sorted(c._units) == list(range(-2, 3))
        for flow in c._units.values():
            assert flow.shape == (UNIT_SAMPLES + 1, 3, 3)
        flows = c.unit_flows(range(-2, 3))
        assert calls == [5 * 65]
        assert np.array_equal(flows[:, -1], steps)
        assert np.array_equal(discretize(c).step([0])[0], flows[2, -1])
        for n, got in zip(range(-2, 3), steps):
            want = propagator(c, float(n), 1.0, UNIT_SAMPLES)[0]
            assert np.max(np.abs(got - want)) <= 1e-13

    def test_time_invariant_table_has_one_entry(self):
        c = ContinuousCocycle.constant([[0.0, 1.0], [-4.0, -0.5]])
        flows = c.unit_flows(range(-3, 3))
        assert list(c._units) == [0]
        assert np.allclose(flows[-1, -1], expm(np.array([[0.0, 1.0],
                                                          [-4.0, -0.5]])),
                           atol=1e-9)

    # budgets: the default (None), 16,200 bytes and less than one interval
    @pytest.mark.parametrize("budget", [None, 25 * 9 * 72, 1])
    @pytest.mark.parametrize("step, n_steps", [(1.0 / 64, 64), (1.0 / 20, 32)])
    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_step_maps_match_state_march(self, monkeypatch, dim, budget,
                                         step, n_steps):
        # the step maps and RK4 on the state differ by round-off only, in
        # every snapshot and endpoint of a fill
        if budget is not None:
            monkeypatch.setattr(cocycle, "_BLOCK_BYTES", budget)
        gen = _generators()[dim]
        c = ContinuousCocycle(pointwise(gen), dim, step=step)
        for shifts, fill in ((range(-4, 5), c.unit_flows),
                             (range(5, 8), c.unit_steps)):  # endpoints
            for n, flow in zip(shifts, fill(list(shifts))):
                state = _state_march(gen, float(n), n_steps, UNIT_SAMPLES)
                if flow.ndim == 2:
                    flow, state = flow[None], state[-1:]
                for got, want in zip(flow, state):
                    assert spectral_norm(got - want) <= 1e-13 * max(
                        1.0, spectral_norm(want))

    def test_stage_formula_once_per_block(self, monkeypatch):
        # a linear fill evaluates the stage formula once per generator
        # block, on every step and member of the block; the nonlinear
        # march evaluates it once per step
        monkeypatch.setattr(cocycle, "_BLOCK_BYTES", 25 * 9 * 72)
        real = cocycle._rk4_step
        lengths, calls = [], []
        monkeypatch.setattr(cocycle, "_rk4_step", lambda f, y, h: (
            lengths.append(np.shape(h)) or real(f, y, h)))

        def gen(ts):
            calls.append(len(ts))
            return pointwise(self.gen)(ts)

        ContinuousCocycle(gen, 3).unit_flows(range(-4, 5))
        assert len(calls) > 1
        assert lengths == [((k // 9 - 1) // 2, 9, 1, 1) for k in calls]
        calls.clear()
        lengths.clear()
        propagator(ContinuousCocycle(gen, 3), 0.0, 1.0)
        assert lengths == [((k - 1) // 2, 1, 1, 1) for k in calls]
        lengths.clear()
        integrate_nonlinear(lambda t, y: -y, 0.0, 1.0, np.ones(2),
                            step=1.0 / 64)
        assert lengths == [(1, 1)] * 64

    @pytest.mark.parametrize("dim", [1, 2])
    def test_overflow_fails_closed_without_warnings(self, dim):
        # an overflowing flow raises IntegrationError naming its interval,
        # and no raw numpy warning escapes first
        big = 5000.0 * np.eye(dim)
        varying = ContinuousCocycle(
            lambda ts: np.broadcast_to(big, (len(ts), dim, dim)), dim)
        # the same generator as 0 dressed with gap 5000: its factor overflows
        dressed = ContinuousCocycle(
            varying.generator, dim,
            base=ContinuousCocycle.constant(np.zeros((dim, dim))),
            log_scale=lambda t0, t1: 5000.0 * (t1 - t0))

        def raises(at):
            return pytest.raises(IntegrationError, match=re.escape(
                f"non-finite state while integrating {at}"))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with raises("[0.0, 1.0]"):
                propagator(ContinuousCocycle.constant(big), 0.0, 1.0)
            with raises("[0.0, 1.0]"):
                ContinuousCocycle.constant(big).unit_flows([3])
            with raises("[2.0, 3.0]"):
                varying.unit_flows(range(2, 5))
            with raises("[6.0, 7.0]"):
                varying.unit_steps(range(6, 9))
            with raises("[2.0, 3.0]"):
                dressed.unit_flows(range(2, 5))
            with raises("[6.0, 7.0]"):
                dressed.unit_steps(range(6, 9))
            with raises("[0.0, 1.0]"):
                integrate_nonlinear(lambda t, y: big @ y, 0.0, 1.0,
                                    np.ones(dim))


def _generators():
    """Time-varying generators at d = 1, 3 and 8."""
    rng = np.random.default_rng(8)
    a8, b8 = rng.standard_normal((2, 8, 8))
    return {1: lambda t: np.array([[0.3 * np.cos(t) - 0.5]]),
            3: TestUnitFlowTable.gen,
            8: lambda t: a8 + np.sin(t) * b8}


def _rk4_step_oracle(f, y, h):
    """One RK4 step in its one-expression form: every stage argument and the
    sum built from fresh temporaries."""
    k1 = f(0, y)
    k2 = f(1, y + h / 2 * k1)
    k3 = f(1, y + h / 2 * k2)
    k4 = f(2, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def _bits(a):
    return np.ascontiguousarray(a, float).view(np.int64)


class TestRk4Step:
    """``_rk4_step`` against the one-expression form, bit for bit, writing
    neither its state, nor a stage table, nor a field value that shares
    memory with its argument."""

    @pytest.mark.parametrize("dim", [1, 3, 8])
    def test_step_map_block(self, monkeypatch, dim):
        rng = np.random.default_rng(dim)
        g = rng.standard_normal((2 * 3 + 1, 5, dim, dim))
        h = rng.uniform(0.01, 0.1, (3, 5, 1, 1))
        g_bits = _bits(g).copy()
        got = cocycle._step_maps(g, h)[0]
        assert np.array_equal(_bits(g), g_bits)  # the table is not written
        monkeypatch.setattr(cocycle, "_rk4_step", _rk4_step_oracle)
        want = cocycle._step_maps(g, h)[0]
        assert got.shape == want.shape == (3, 5, dim, dim)
        assert np.array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("name", ["nonlinear", "its_argument",
                                      "a_view_of_it", "read_only"])
    def test_nonlinear_field(self, name):
        # fields that return their argument or a view of it share memory
        # with the stage argument, and neither may be written
        const = np.linspace(-1.0, 1.0, 4)
        fields = {
            "nonlinear": lambda s, y: np.sin(y) * (1.0 + s) - y ** 2,
            "its_argument": lambda s, y: y,
            "a_view_of_it": lambda s, y: y[:, ::-1],
            "read_only": lambda s, y: np.broadcast_to(const * (s - 1.0),
                                                      y.shape),
        }
        rng = np.random.default_rng(5)
        y = rng.standard_normal((3, 4))
        h = np.full((3, 1), 1.0 / 64)
        y_bits = _bits(y).copy()
        got = cocycle._rk4_step(fields[name], y, h)
        assert np.array_equal(_bits(y), y_bits)
        want = _rk4_step_oracle(fields[name], y, h)
        assert np.array_equal(_bits(got), _bits(want))


class TestOneStepBound:
    """The lift envelope at exponent 0: the sampled sup of ``|phi(t, n)|``
    over the unit intervals of the shifts."""

    SHIFTS = range(-2, 2)

    def test_zero_generator(self):
        c = ContinuousCocycle.constant(np.zeros((2, 2)))
        assert _unit_envelope(c, self.SHIFTS, 0.0) == 1.0

    def test_decaying_scalar(self):
        c = ContinuousCocycle.constant([[-1.0]])
        assert abs(_unit_envelope(c, self.SHIFTS, 0.0) - 1.0) < 1e-12

    def test_growing_scalar(self):
        c = ContinuousCocycle.constant([[1.0]])
        got = _unit_envelope(c, self.SHIFTS, 0.0)
        assert abs(got - np.e) < 1e-8


def test_integrate_nonlinear_logistic():
    # y' = y(1-y), y(0)=0.1: closed form 1/(1 + 9 e^{-t})
    field = lambda t, y: y * (1.0 - y)
    got = integrate_nonlinear(field, 0.0, 3.0, np.array([0.1]), step=1.0 / 64)[0]
    want = 1.0 / (1.0 + 9.0 * np.exp(-3.0))
    assert abs(got - want) < 1e-8


def test_cocycle_law_wave_scale():
    # the transformed wave generator at d = 8, horizons inside [0, 2]
    a = autonomous_wave(4, 1.0, lambda u: u - u ** 3,
                        lambda u: 1.0 - 3.0 * u ** 2).a_matrix
    c = ContinuousCocycle(pointwise(lambda t: a + 0.02 * np.sin(t) * np.eye(8)),
                          8)
    for (t, s) in [(1.0, 1.0), (0.5, 0.75), (1.0, 0.25)]:
        whole = propagator(c, 0.0, t + s)
        parts = propagator(c, s, t) @ propagator(c, 0.0, s)
        assert spectral_norm(whole - parts) < 1e-6


def _sup_cases():
    """Stacks for the spectral-sup oracle, each with its weight cases."""
    rng = np.random.default_rng(17)
    u, v = rng.standard_normal((200, 5, 1)), rng.standard_normal((200, 1, 5))
    tie = rng.standard_normal((3, 3))
    stacks = [
        rng.standard_normal((1, 3, 3)),
        rng.standard_normal((40, 4, 4)),
        rng.standard_normal((300, 2, 2)),
        rng.standard_normal((70, 3, 12)),  # d x d*m blocks
        u @ v,  # rank one: |M| = |M|_F, the case the slack exists for
        rng.standard_normal((50, 1, 1)),
        np.zeros((1, 1, 1)),
        np.zeros((30, 3, 3)),
        np.stack([tie] * 40 + [-tie] * 40 + [0.5 * tie] * 10),  # exact ties
        # 40 rotations (|Q| = 1, |Q|_F = 3) rank ahead of the rank-one max
        np.concatenate([np.linalg.qr(rng.standard_normal((40, 9, 9)))[0],
                        1.5 * np.outer(*np.eye(9)[:2])[None]]),
        # squares that underflow and overflow
        1e-170 * rng.standard_normal((100, 3, 3)),
        1e170 * rng.standard_normal((100, 3, 3)),
        # one wide matrix, and wide runs whose first and last rows agree
        np.repeat(np.random.default_rng(18).standard_normal((1, 8, 56)),
                  40, axis=0),
        np.repeat(np.random.default_rng(18).standard_normal((3, 8, 56))[
            [0, 1, 0]], [30, 1, 30], axis=0),
    ]
    for mats in stacks:
        n = len(mats)
        zeroed = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 3.0, n))
        for scale, offset in ((1.0, 0.0), (rng.uniform(0.0, 2.0, n), 0.0),
                              (1.0, rng.uniform(0.0, 1.0, n)),
                              (zeroed, rng.uniform(0.0, 1.0, n)),
                              (0.0, 0.25)):
            yield mats, scale, offset


class TestSpectralSup:
    def test_equals_max_over_every_svd(self):
        # spectral_sup, and spectral_argmax under the same weights: the max
        # and its first row among exact ties, as over an SVD of every row,
        # and None once the floor is above the max
        for mats, scale, offset in _sup_cases():
            values = offset + scale * spectral_norms(mats)
            want = np.max(values)
            assert spectral_sup(mats, scale, offset) == want
            scale, offset = (np.broadcast_to(a, len(mats))
                             for a in (scale, offset))

            def weigh(norms, rows):
                return offset[rows] + scale[rows] * norms

            first = (want, int(np.argmax(values)))
            assert spectral_argmax(mats, weigh) == first
            assert spectral_argmax(mats, weigh, floor=want) == first
            assert spectral_argmax(mats, weigh,
                                   floor=np.nextafter(want, np.inf)) is None
        # the verifier's weigh: an overflowed weight e^{alpha t} on a zero
        # matrix reads 0, and the tie at 1 goes to the first row
        mats = np.zeros((5, 2, 2))
        mats[1], mats[3] = np.eye(2), np.diag([0.0, 0.5])
        weights = np.array([np.inf, 1.0, np.inf, 2.0, 1.0])
        assert spectral_argmax(mats, lambda norms, rows: _decay_ratio(
            norms, weights[rows], 1.0)) == (1.0, 1)

    def test_weights_broadcast_over_leading_axes(self):
        # the unit-flow layout: (shifts, snapshots, d, d), one weight per
        # snapshot
        rng = np.random.default_rng(3)
        flows = rng.standard_normal((6, UNIT_SAMPLES + 1, 3, 3))
        w = np.exp(-0.7 * np.linspace(0.0, 1.0, UNIT_SAMPLES + 1))
        assert spectral_sup(flows, w) == np.max(spectral_norms(flows) * w)

    def test_empty_stack_is_zero(self):
        assert spectral_sup(np.zeros((0, 2, 2))) == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_raises(self, bad):
        mats = np.ones((20, 2, 2))
        mats[7, 1, 0] = bad
        with pytest.raises(SplitflowError, match="non-finite"):
            spectral_sup(mats)
        with pytest.raises(SplitflowError, match="non-finite"):
            spectral_sup(mats[:1, :1, :1] * bad)

    def test_prunes_rows_that_cannot_reach_the_max(self, monkeypatch):
        rng = np.random.default_rng(9)
        mats = 0.01 * rng.standard_normal((500, 4, 4))
        mats[123] *= 1000.0
        rows = []
        real = cocycle.spectral_norms
        monkeypatch.setattr(cocycle, "spectral_norms",
                            lambda m: rows.append(len(m)) or real(m))
        assert spectral_sup(mats) == np.max(real(mats))
        assert 0 < sum(rows) < len(mats)

    def test_one_matrix_takes_one_svd(self, monkeypatch):
        # a stack whose rows are one matrix, bit for bit, takes one SVD
        # row, broadcast or not, weighted or not; any other stack is
        # pruned as before, and the first of the tied rows still wins
        rows = []
        real = cocycle.spectral_norms
        monkeypatch.setattr(cocycle, "spectral_norms",
                            lambda m: rows.append(len(m)) or real(m))
        b = np.array([[0.3, -0.2], [0.1, 0.4]])
        assert spectral_sup(np.broadcast_to(b, (64, 2, 2))) == real(b)
        assert spectral_argmax(np.broadcast_to(b, (64, 2, 2))) == (
            real(b), 0)
        w = np.linspace(1.0, 2.0, 64)
        assert spectral_argmax(np.array([b] * 64), lambda n, r: n * w[r]) == (
            2.0 * real(b), 63)
        assert spectral_argmax(np.array([b] * 64), floor=1.0) is None
        wide = np.random.default_rng(5).standard_normal((8, 56))
        assert spectral_sup(np.broadcast_to(wide, (64, 8, 56))) == real(wide)
        assert sum(rows) == 5
        # equal first and last rows, a larger one between: no shortcut
        assert spectral_argmax(np.array([b] * 30 + [2 * b] + [b] * 30)) == (
            2.0 * real(b), 30)
        # two distinct matrices tied at the max, in runs or interleaved
        first, second = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        runs = np.array([0.5 * first] + [second] * 20 + [first] * 20)
        assert spectral_argmax(runs) == (1.0, 1)
        assert spectral_argmax(runs[::-1]) == (1.0, 0)
        mixed = np.array([0.5 * first] + [second, first] * 20)
        assert spectral_argmax(mixed) == (1.0, 1)
        assert spectral_argmax(mixed[::-1]) == (1.0, 0)
        # equal Frobenius norms (5), distinct spectral norms (4 and 5)
        pair = np.array([np.diag([3.0, 4.0]), np.diag([5.0, 0.0])])
        assert spectral_argmax(np.repeat(pair, 20, axis=0)) == (5.0, 20)
        assert spectral_argmax(np.tile(pair, (20, 1, 1))) == (5.0, 1)
