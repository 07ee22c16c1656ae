import math
import re
import warnings

import numpy as np
import pytest

from splitflow import (ContractionMarginError, DiscreteCocycle,
                       DichotomyCertificate, ForcingSequence,
                       RobustnessHypothesisError, SplitflowError,
                       bounded_solution, impulse_response_projection,
                       pointwise, truncation_length)
from splitflow import greens
from splitflow.greens import _seq_sup
from conftest import (GreenKernel, counted_applies, gamma_apply,
                      gamma_sequential, impulse, impulse_family_forcing,
                      impulse_family_oracle, march_tables, rotating_saddle,
                      time_varying_saddle, value_at)

LN2 = float(np.log(2.0))


def constant_b(m):
    """The perturbation ``m`` at every node, node-batched."""
    return DiscreteCocycle.constant(m).step


def stable_scalar():
    c = DiscreteCocycle.constant([[0.5]])
    cert = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
    return c, cert


def saddle():
    c = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
    cert = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
    return c, cert


class TestTruncationLength:
    def test_closed_form_example(self):
        assert truncation_length(LN2, 1.0, 1e-8) == 28

    def test_zero_when_tolerance_loose(self):
        assert truncation_length(LN2, 1.0, 10.0) == 0
        assert truncation_length(LN2, 0.0, 1e-12) == 0

    def test_halving_tolerance_increment(self):
        for alpha in (0.3, LN2, 1.7):
            step = np.log(2.0) / alpha
            for tol in (1e-6, 1e-9):
                n1 = truncation_length(alpha, 2.0, tol)
                n2 = truncation_length(alpha, 2.0, tol / 2)
                assert n2 - n1 in (int(np.ceil(step)), int(np.ceil(step)) - 1)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            truncation_length(-0.1, 1.0, 1e-8)
        with pytest.raises(ValueError):
            truncation_length(LN2, 1.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_non_finite_arguments_rejected(self, position, value):
        args = [LN2, 1.0, 1e-8]
        args[position] = value
        with pytest.raises(ValueError, match="finite"):
            truncation_length(*args)

    def test_length_past_the_floats_fails_closed(self):
        # sup_bound / tol overflows: a typed failure naming the bound, not
        # the OverflowError of ceil(log(inf))
        with pytest.raises(SplitflowError, match=r"^the truncation length "
                           r"is past the floats \(tail bound 6e\+298 ") as exc:
            truncation_length(LN2, 6e298, 1e-10)
        assert exc.value.measured == 6e298 and exc.value.threshold == np.inf


class TestGammaApply:
    def test_zero_everything(self):
        c, cert = stable_scalar()
        f = ForcingSequence.zeros(-10, 10, 1)
        x = np.random.default_rng(0).standard_normal((21, 1))
        out = gamma_apply(c, cert, constant_b([[0.0]]), f, x)
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_impulse_geometric(self):
        c, cert = stable_scalar()
        f = impulse(-20, 20, -1, np.array([1.0]))
        out = gamma_apply(c, cert, constant_b([[0.0]]), f, np.zeros((41, 1)))
        for n in range(0, 10):
            assert out[n + 20, 0] == 0.5 ** n
        for n in range(-10, 0):
            assert out[n + 20, 0] == 0.0

    def test_linear_in_candidate(self):
        c, cert = stable_scalar()
        rng = np.random.default_rng(3)
        f0 = ForcingSequence.zeros(-15, 15, 1)
        x = rng.standard_normal((31, 1))
        y = rng.standard_normal((31, 1))
        b = constant_b([[0.05]])
        lhs = gamma_apply(c, cert, b, f0, x + y)
        rhs = gamma_apply(c, cert, b, f0, x) + gamma_apply(c, cert, b, f0, y)
        assert np.allclose(lhs, rhs, atol=1e-12)

    @staticmethod
    def _kernel_sum_gap(n_lo, n_hi):
        """Largest deviation of the sweeps from sum_k G(n, k+1) (B_k x_k + f_k)
        over every pair of the window, and the largest entry of that sum, on
        the time-varying saddle with 3 forcing columns."""
        steps, projections = time_varying_saddle((n_lo, n_hi))
        c = DiscreteCocycle(pointwise(lambda n: steps[n]), 2)
        cert = DichotomyCertificate(bound=1.5, exponent=3.0,
                                    projections=projections, first=n_lo)
        rng = np.random.default_rng(5)
        w = n_hi - n_lo + 1
        b = {n: 0.02 * rng.standard_normal((2, 2))
             for n in range(n_lo, n_hi + 1)}
        f = ForcingSequence(n_lo, n_hi, rng.standard_normal((w, 2, 3)))
        x = rng.standard_normal((w, 2, 3))
        g = GreenKernel(c, cert)
        u = [b[k] @ x[k - n_lo] + f.values[k - n_lo]
             for k in range(n_lo, n_hi + 1)]
        want = np.array([sum(g.eval(n, k + 1) @ u[k - n_lo]
                             for k in range(n_lo, n_hi + 1))
                         for n in range(n_lo, n_hi + 1)])
        out = gamma_apply(c, cert, pointwise(lambda n: b[n]), f, x)
        return np.max(np.abs(out - want)), np.max(np.abs(want))

    def test_full_window_sum_matches_kernel_per_pair(self):
        # the overstated exponent puts the geometric-tail band at tolerance
        # 1e-10 (9 nodes) inside the 13-node window, so a sum cut at the
        # band misses terms
        gap, _ = self._kernel_sum_gap(-6, 6)
        assert gap < 1e-12

    def test_wide_window_sum_matches_kernel_per_pair(self):
        # on +-24 the per-pair forward branch crosses 48 steps of a saddle
        # whose unstable rate is 2; it stays an oracle only if round-off in
        # its stable projection cannot grow along the unstable range
        gap, scale = self._kernel_sum_gap(-24, 24)
        assert gap < 1e-12 * scale


class TestDoublingSweeps:
    @pytest.mark.parametrize("cols", [None, 3])
    @pytest.mark.parametrize("dim, n_stable", [(1, 1), (1, 0), (2, 1),
                                               (8, 5)])
    @pytest.mark.parametrize("width", [1, 2, 3, 8, 9, 32, 33, 64, 65])
    def test_matches_sequential_sweeps(self, width, dim, n_stable, cols):
        # the doubling sweeps against the two sweeps one node at a time, on
        # a time-varying saddle whose splitting rotates from node to node,
        # with a time-varying perturbation, vector or matrix (family)
        # forcing; the sums agree to 1e-14 of their size (reordered
        # round-off: 4.3e-16 at worst over these cases)
        lo = -3
        hi = lo + width - 1
        c, cert = rotating_saddle((lo, hi), dim, n_stable, seed=width)
        rng = np.random.default_rng(width + dim)
        b_mats = 0.05 * rng.standard_normal((width, dim, dim))
        shape = (width, dim) + (() if cols is None else (cols,))
        f = ForcingSequence(lo, hi, rng.standard_normal(shape))
        x = rng.standard_normal(shape)

        def b(ns):
            return b_mats[np.asarray(ns) - lo]

        want = gamma_sequential(c, cert, b, f, x)
        got = gamma_apply(c, cert, b, f, x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-14 * max(1.0, np.max(
            np.abs(want)))

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_matches_sequential_sweeps_in_small_blocks(self, rows,
                                                       monkeypatch):
        # a scratch of a few rows splits every doubling level into blocks,
        # which must run top down so that no block reads a row already
        # updated at its level
        monkeypatch.setattr(greens, "_SCAN_BYTES", rows * 8 * 2 * 3)
        for width in (9, 33):
            self.test_matches_sequential_sweeps(width, 2, 1, 3)
            self.test_matches_sequential_sweeps(width, 1, 1, 3)

    def test_constant_cocycle_nodes_stay_bitwise_alike(self):
        # every node takes the same doubling steps, so on a constant
        # cocycle the impulse projections away from the edges are equal
        c, cert = saddle()
        rot = np.array([[np.cos(0.01), -np.sin(0.01)],
                        [np.sin(0.01), np.cos(0.01)]])
        b = rot @ np.diag([0.5, 2.0]) - np.diag([0.5, 2.0])
        family = impulse_response_projection(c, cert, constant_b(b),
                                             list(range(-8, 9)))
        assert all(np.array_equal(p, family[0]) for p in family)


class TestPicardFixedPoint:
    """``_picard`` returns the first iterate whose measured residual is
    within the tolerance, that residual and the number of ``apply`` calls,
    of which at least one runs and none after the loop."""

    @staticmethod
    def _run(step, x, max_iter=None, calls=None):
        calls = [] if calls is None else calls

        def apply(x):
            calls.append(1)
            return step(x)

        out = greens._picard(apply, x, 1e-8, 0.5, 1.0, max_iter, "test")
        return out, len(calls)

    def test_signed_zero_returns_its_input(self):
        # a step that flips the zeros' signs passes the test at once, and
        # its input, not its output, is the certified iterate
        x = np.zeros((40, 2))
        (y, residual, it), calls = self._run(np.negative, x)
        assert calls == 1 and it == 1
        assert y is x and residual == 0.0 and not np.signbit(y).any()

    def test_moved_within_tol_returns_its_input(self):
        x = np.zeros((40, 2))
        (y, residual, it), calls = self._run(lambda x: x + 1e-12, x)
        assert calls == 1 and it == 1 and y is x
        assert residual == _seq_sup(np.full((40, 2), 1e-12))

    def test_no_iterations_still_certify(self):
        (_, residual, it), calls = self._run(np.copy, np.ones((40, 2)),
                                             max_iter=0)
        assert calls == 1 and it == 1 and residual == 0.0

    def test_returns_the_iterate_it_measured(self):
        # x <- x / 2 + 1 from 0, exact in binary: x_k = 2 - 2^(1-k) and the
        # step from it 2^-k, first within 1e-8 at k = 27
        (x, residual, it), calls = self._run(lambda x: 0.5 * x + 1.0,
                                             np.zeros((3, 1)))
        assert calls == it == 28
        assert residual == 2.0 ** -27
        assert np.array_equal(x, np.full((3, 1), 2.0 - 2.0 ** -26))

    @pytest.mark.parametrize("tol", [0.0, -1e-8, math.inf, math.nan])
    @pytest.mark.parametrize("max_iter", [None, 4])
    def test_bad_tolerance_raises_before_any_apply(self, tol, max_iter):
        calls = []
        with pytest.raises(ValueError, match=re.escape(
                f"tolerance must be positive and finite, got tol={tol}")):
            greens._picard(lambda x: calls.append(1) or x, np.zeros((3, 1)),
                           tol, 0.5, 1.0, max_iter, "test")
        assert not calls

    def test_uncertified_raises_after_max_iter_applications(self):
        calls = []
        with pytest.raises(SplitflowError, match=r"test did not certify "
                           r"residual 1e-08 \(got 1\.000e\+00 after 4 "
                           r"iterations\)") as exc:
            self._run(lambda x: x + 1.0, np.zeros((3, 1)), 4, calls)
        assert len(calls) == 4
        assert (exc.value.measured, exc.value.threshold) == (1.0, 1e-8)


class TestSplitMarch:
    def test_tables_match_kernel_per_pair(self):
        # the marched tables against the per-pair two-branch kernel on a
        # time-varying saddle with exact invariant projections
        n_lo, n_hi = -6, 5
        steps, projections = time_varying_saddle((n_lo, n_hi))
        c = DiscreteCocycle(pointwise(lambda n: steps[n]), 2)
        cert = DichotomyCertificate(bound=1.5, exponent=0.5,
                                    projections=projections, first=n_lo)
        band = n_hi - n_lo + 1
        fwd, bwd = march_tables(
            np.array([steps[n] for n in range(n_lo, n_hi + 1)]),
            projections)
        g = GreenKernel(c, cert)
        for i, m in enumerate(range(n_lo, n_hi + 2)):
            for j in range(band + 1):
                if m + j <= n_hi + 1:
                    assert np.max(np.abs(fwd[j, i] - g.eval(m + j, m))) \
                        < 1e-12
                if j >= 1 and m - j >= n_lo:
                    assert np.max(np.abs(bwd[j, i] - g.eval(m - j, m))) \
                        < 1e-12


class TestBoundedSolution:
    def test_zero_forcing_gives_zero(self):
        c, cert = stable_scalar()
        f = ForcingSequence.zeros(-20, 20, 1)
        sol = bounded_solution(c, cert, constant_b([[0.05]]), f, tol=1e-10)
        assert sol.meta["sup_norm"] == 0.0

    def test_perturbed_geometric_oracle(self):
        # x_{n+1} = 0.55 x_n + f_n with impulse: x_n = 0.55^n, n >= 0
        c, cert = stable_scalar()
        f = impulse(-50, 50, -1, np.array([1.0]))
        sol = bounded_solution(c, cert, constant_b([[0.05]]), f, tol=1e-10)
        lo, hi = sol.interior
        for n in range(max(lo, -12), min(hi, 12) + 1):
            want = 0.55 ** n if n >= 0 else 0.0
            assert abs(value_at(sol, n)[0] - want) < 1e-8

    @pytest.mark.parametrize("tol", [0.0, math.nan])
    def test_bad_tolerance_raises(self, tol):
        # was a math domain error at 0 and an int of NaN in the iteration cap
        c, cert = stable_scalar()
        f = impulse(-20, 20, -1, np.array([1.0]))
        with pytest.raises(ValueError, match=re.escape(
                f"tolerance must be positive and finite, got tol={tol}")):
            bounded_solution(c, cert, constant_b([[0.05]]), f, tol=tol)

    def test_two_initial_guesses_agree(self):
        c, cert = stable_scalar()
        f = impulse(-40, 40, -1, np.array([1.0]))
        tol = 1e-9
        s1 = bounded_solution(c, cert, constant_b([[0.05]]), f, tol=tol)
        rng = np.random.default_rng(8)
        s2 = bounded_solution(c, cert, constant_b([[0.05]]), f, tol=tol,
                              x0=rng.standard_normal(f.values.shape))
        assert np.max(np.abs(s1.values - s2.values)) < 2 * tol

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_initial_guess_names_its_node(self, bad):
        c, cert = stable_scalar()
        f = impulse(-10, 10, -1, np.array([1.0]))
        x0 = np.zeros(f.values.shape)
        x0[13] = bad
        with pytest.raises(SplitflowError,
                           match="non-finite initial guess at node 3 "):
            bounded_solution(c, cert, constant_b([[0.05]]), f, x0=x0)

    @pytest.mark.parametrize("r", [None, 2])  # vector and matrix forcing
    def test_iteration_cap_fails_closed(self, r):
        # one Picard step at a tight tolerance leaves the residual
        # uncertified: the solve raises rather than return it
        c, cert = saddle()
        f = ForcingSequence.zeros(-20, 20, 2, r)
        f.values[20] = 1.0
        with pytest.raises(SplitflowError, match=r"Picard iteration did not "
                           r"certify residual 1e-12 \(got .* after 1 "):
            bounded_solution(c, cert, constant_b(0.05 * np.eye(2)), f,
                             tol=1e-12, max_iter=1)

    @pytest.mark.parametrize("r", [None, 2])  # vector and matrix forcing
    def test_overflowing_sweep_fails_closed_without_warnings(self, r):
        # a "stable" step of 1e100: the forward sweep of the ones forcing
        # overflows at node -4, four steps after the first
        c = DiscreteCocycle.constant(np.diag([1e100, 2.0]))
        cert = saddle()[1]
        f = ForcingSequence(-8, 8, np.ones((17, 2) if r is None
                                           else (17, 2, r)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SplitflowError, match=r"^non-finite kernel "
                               r"sum at node -4 \("):
                bounded_solution(c, cert, constant_b(np.zeros((2, 2))), f)

    @pytest.mark.parametrize("r", [None, 2])
    def test_overflowing_forcing_norm_fails_closed(self, r):
        # finite entries whose norm overflows
        c, cert = saddle()
        f = ForcingSequence.zeros(-8, 8, 2, r)
        f.values[3:5] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SplitflowError,
                               match=r"^forcing norm overflows \(sup inf\)"):
                bounded_solution(c, cert, constant_b(np.zeros((2, 2))), f)

    @pytest.mark.parametrize("b, got", [(0.0, "nan"), (1e-302, "inf")])
    def test_band_past_the_floats_fails_closed(self, b, got):
        # K = 1e300 against forcing 1e10: the tail bound overflows, and with
        # no perturbation it reads 0 * inf = NaN
        c = DiscreteCocycle.constant([[0.5]])
        cert = DichotomyCertificate.constant([[1.0]], 1e300, LN2)
        f = ForcingSequence(-5, 5, np.full((11, 1), 1e10))
        with pytest.raises(SplitflowError) as exc:
            bounded_solution(c, cert, constant_b([[b]]), f)
        assert str(exc.value).startswith(
            "the truncation band has no finite length (tail bound "
            f"{got} at delta_eff=")
        assert exc.value.threshold == np.inf

    def test_contraction_certificate_random_pairs(self):
        c, cert = stable_scalar()
        f0 = ForcingSequence.zeros(-25, 25, 1)
        b = 0.05
        rho = cert.bound * b * (1 + 0.5) / (1 - 0.5)
        rng = np.random.default_rng(10)
        for _ in range(100):
            x = rng.standard_normal((51, 1))
            y = rng.standard_normal((51, 1))
            gx = gamma_apply(c, cert, constant_b([[b]]), f0, x)
            gy = gamma_apply(c, cert, constant_b([[b]]), f0, y)
            lhs = np.max(np.abs(gx - gy))
            rhs = rho * np.max(np.abs(x - y))
            assert lhs <= rhs * (1.0 + 1e-9)

    def test_apriori_bound_recorded_and_satisfied(self):
        c, cert = stable_scalar()
        f = impulse(-40, 40, -1, np.array([2.5]))
        sol = bounded_solution(c, cert, constant_b([[0.05]]), f, tol=1e-10)
        assert sol.meta["sup_norm"] <= sol.meta["apriori_bound"] * (1 + 1e-6)

    def test_solution_property_interior(self):
        c, cert = saddle()
        rng = np.random.default_rng(11)
        b_mat = 0.03 * rng.standard_normal((2, 2))
        f = ForcingSequence(-40, 40, 0.3 * rng.standard_normal((81, 2)))
        sol = bounded_solution(c, cert, constant_b(b_mat), f, tol=1e-10)
        step = np.diag([0.5, 2.0]) + b_mat
        lo, hi = sol.interior
        for n in range(lo, hi):
            res = (value_at(sol, n + 1) - step @ value_at(sol, n)
                   - f.values[n + 40])
            assert np.linalg.norm(res) < 1e-8

    def test_window_extension_stability(self):
        c, cert = stable_scalar()
        rng = np.random.default_rng(12)
        inner = rng.standard_normal((41, 1))
        f1 = ForcingSequence(-20, 20, inner)
        wide = np.zeros((81, 1))
        wide[20:61] = inner
        f2 = ForcingSequence(-40, 40, wide)
        s1 = bounded_solution(c, cert, constant_b([[0.05]]), f1, tol=1e-11)
        s2 = bounded_solution(c, cert, constant_b([[0.05]]), f2, tol=1e-11)
        lo, hi = s1.interior
        for n in range(lo, hi + 1):
            assert abs(value_at(s1, n)[0] - value_at(s2, n)[0]) < 1e-9

    def test_rank_change_raises(self):
        c, _ = saddle()
        cert = DichotomyCertificate(
            bound=1.0, exponent=LN2, first=-4,
            projections=[np.diag([1.0, float(n > 0)]) for n in range(-4, 5)])
        with pytest.raises(SplitflowError, match="rank changes across node 0"):
            bounded_solution(c, cert, constant_b(np.zeros((2, 2))),
                             ForcingSequence.zeros(-4, 3, 2))

    def test_perturbation_stacked_once_per_solve(self):
        # B is read in one batched call over the window nodes, not once per
        # node and iteration
        c, cert = saddle()
        rng = np.random.default_rng(11)
        b_mat = 0.03 * rng.standard_normal((2, 2))
        calls = []

        def b(ns):
            calls.append(list(ns))
            return np.broadcast_to(b_mat, (len(ns), 2, 2))

        f = ForcingSequence(-30, 30, 0.3 * rng.standard_normal((61, 2)))
        sol = bounded_solution(c, cert, b, f, tol=1e-10)
        assert sol.iterations > 1
        assert calls == [list(range(-30, 31))]

    def test_margin_error_reports_threshold(self):
        c, cert = stable_scalar()
        f = impulse(-20, 20, -1, np.array([1.0]))
        # rho against its margin; the roughness threshold delta(alpha) =
        # (1 - e^-a)/(1 + e^-a) on K sup|B| is named in the message
        with pytest.raises(ContractionMarginError,
                           match=r"threshold on sup\|B\|\*K is 0\.333333") as exc:
            bounded_solution(c, cert, constant_b([[0.4]]), f)
        assert exc.value.measured > 0.9
        assert exc.value.threshold == greens.CONTRACTION_MARGIN

    def test_direct_linear_solve_oracle(self):
        # assemble (I - Gamma_B) x = Gamma_f 0 densely and solve it
        c, cert = saddle()
        rng = np.random.default_rng(13)
        b = constant_b(0.04 * rng.standard_normal((2, 2)))
        f = ForcingSequence(-18, 18, 0.5 * rng.standard_normal((37, 2)))
        w = 37
        zero_f = ForcingSequence.zeros(-18, 18, 2)
        cols = []
        for j in range(w * 2):
            e = np.zeros((w, 2))
            e[j // 2, j % 2] = 1.0
            cols.append(gamma_apply(c, cert, b, zero_f, e).ravel())
        k_op = np.column_stack(cols)
        rhs = gamma_apply(c, cert, b, f, np.zeros((w, 2))).ravel()
        x_direct = np.linalg.solve(np.eye(2 * w) - k_op, rhs).reshape(w, 2)
        sol = bounded_solution(c, cert, b, f, tol=1e-12)
        assert np.max(np.abs(sol.values - x_direct)) < 1e-9


class TestImpulseProjections:
    def test_saddle_unperturbed_recovery(self):
        c, cert = saddle()
        pi_s = impulse_response_projection(
            c, cert, constant_b(np.zeros((2, 2))), [0], tol=1e-11)[0]
        pi_u = np.eye(2) - pi_s
        assert np.allclose(pi_s, np.diag([1.0, 0.0]), atol=1e-9)
        assert np.allclose(pi_u, np.diag([0.0, 1.0]), atol=1e-9)

    def test_stable_scalar_any_small_perturbation(self):
        c, cert = stable_scalar()
        pi_s = impulse_response_projection(
            c, cert, constant_b([[0.05]]), [0], tol=1e-11)[0]
        pi_u = np.eye(1) - pi_s
        assert abs(pi_s[0, 0] - 1.0) < 1e-9
        assert abs(pi_u[0, 0]) < 1e-9

    def test_unstable_scalar(self):
        c = DiscreteCocycle.constant([[2.0]])
        cert = DichotomyCertificate.constant([[0.0]], 1.0, LN2)
        pi_s = impulse_response_projection(
            c, cert, constant_b([[0.05]]), [0], tol=1e-11)[0]
        pi_u = np.eye(1) - pi_s
        assert abs(pi_u[0, 0] - 1.0) < 1e-9
        assert abs(pi_s[0, 0]) < 1e-9

    def test_idempotent(self):
        c, cert = saddle()
        rng = np.random.default_rng(14)
        b_mat = {n: 0.03 * rng.standard_normal((2, 2)) for n in range(-80, 81)}
        pi_s = impulse_response_projection(
            c, cert, pointwise(lambda n: b_mat[n]), [2], tol=1e-11)[0]
        pi_u = np.eye(2) - pi_s
        assert np.linalg.norm(pi_s @ pi_s - pi_s, 2) < 1e-8
        assert np.linalg.norm(pi_s @ pi_u, 2) < 1e-8

    def test_far_from_idempotent_names_the_first_worst_node(self,
                                                             monkeypatch):
        # doctored solves: the projection read at nodes -1 and 2 is 2 Pi^s
        # (residual 2, an exact tie) and at node 0 it is 1.5 Pi^s (0.75);
        # the error names the first node of the max and its residual
        c, cert = saddle()
        nodes = [-2, -1, 0, 1, 2]
        real = greens.bounded_solution

        def doctored(*args, **kwargs):
            sol = real(*args, **kwargs)
            blocks = sol.values.reshape(len(sol.values), 2, len(nodes), 2)
            for j, s in ((1, 2.0), (2, 1.5), (4, 2.0)):
                blocks[nodes[j] - sol.n_min, :, j] = s * np.diag([1.0, 0.0])
            return sol

        monkeypatch.setattr(greens, "bounded_solution", doctored)
        with pytest.raises(SplitflowError,
                           match=r"node -1 .*\(residual 2\.000e\+00\)"):
            impulse_response_projection(c, cert, constant_b(np.zeros((2, 2))),
                                        nodes)

    def test_band_past_the_floats_fails_closed(self):
        # K = 1e308 and no perturbation: the span's tail bound reads
        # 0 * inf = NaN, a refused hypothesis
        c = DiscreteCocycle.constant([[0.5]])
        cert = DichotomyCertificate.constant([[1.0]], 1e308, LN2)
        with pytest.raises(RobustnessHypothesisError,
                           match=r"^perturbation size delta_eff=0 has no "
                           r"finite impulse span"):
            impulse_response_projection(c, cert, constant_b([[0.0]]), [0])

    def test_family_solve_matches_single_node_solves(self):
        # one solve for the whole family against one solve per node, on the
        # time-varying saddle of test_idempotent
        c, cert = saddle()
        rng = np.random.default_rng(14)
        b_mat = {n: 0.03 * rng.standard_normal((2, 2)) for n in range(-80, 81)}
        b = pointwise(lambda n: b_mat[n])
        nodes = list(range(-6, 7))
        family = impulse_response_projection(c, cert, b, nodes, tol=1e-11)
        assert family.shape == (len(nodes), 2, 2)
        for n, pi_s in zip(nodes, family):
            single = impulse_response_projection(c, cert, b, [n],
                                                 tol=1e-11)[0]
            assert np.max(np.abs(pi_s - single)) < 1e-10


def stable_rotations(dim=8, reach=120, seed=3):
    """A fully stable time-varying cocycle ``A_n = 0.5 Q_n`` (``Q_n`` random
    orthogonal) with its exact certificate ``Pi^s = I``, ``K = 1``,
    ``alpha = ln 2``, and a time-varying perturbation of norm about 0.1,
    both node-batched on ``[-reach, reach]``."""
    gen = np.random.default_rng(seed)
    steps = 0.5 * np.linalg.qr(gen.standard_normal((2 * reach + 1, dim,
                                                    dim)))[0]
    pert = 0.02 * gen.standard_normal((2 * reach + 1, dim, dim))
    return (DiscreteCocycle(lambda ns: steps[np.asarray(ns) + reach], dim),
            DichotomyCertificate.constant(np.eye(dim), 1.0, LN2),
            lambda ns: pert[np.asarray(ns) + reach])


def counted_solves(monkeypatch):
    """The results of every ``greens.bounded_solution`` call, as a list."""
    real, solves = greens.bounded_solution, []

    def counted(*args, **kwargs):
        solves.append(real(*args, **kwargs))
        return solves[-1]

    monkeypatch.setattr(greens, "bounded_solution", counted)
    return solves


class TestImpulseFamilyPaths:
    """The family against :func:`conftest.impulse_family_oracle`, today's
    solve Picard-iterated from zero."""

    @pytest.mark.parametrize("case", ["stable scalar", "unstable scalar",
                                      "stable d=8"])
    def test_trivial_splitting_is_the_oracle_bit_for_bit(self, case,
                                                         monkeypatch):
        if case == "stable d=8":
            c, cert, b = stable_rotations()
        else:
            c, cert = stable_scalar()
            if case == "unstable scalar":
                c = DiscreteCocycle.constant([[2.0]])
                cert = DichotomyCertificate.constant([[0.0]], 1.0, LN2)
            b = constant_b([[0.05]])
        nodes = list(range(-5, 6))
        want, sol = impulse_family_oracle(c, cert, b, nodes, tol=1e-11)
        assert sol.iterations > 1
        solves = counted_solves(monkeypatch)
        got = impulse_response_projection(c, cert, b, nodes, tol=1e-11)
        assert np.array_equal(got, want)
        assert not solves

    def test_mixed_splitting_takes_one_picard_step(self, monkeypatch):
        # the time-varying saddle of test_idempotent: the marched solution
        # certifies at one kernel application, and is what the solve
        # returns, with the residual of that application
        c, cert = saddle()
        rng = np.random.default_rng(14)
        b_mat = {n: 0.03 * rng.standard_normal((2, 2))
                 for n in range(-80, 81)}
        b = pointwise(lambda n: b_mat[n])
        nodes = list(range(-6, 7))
        want, sol = impulse_family_oracle(c, cert, b, nodes, tol=1e-13)
        assert sol.iterations > 1
        solves = counted_solves(monkeypatch)
        applies = counted_applies(monkeypatch, greens)
        got = impulse_response_projection(c, cert, b, nodes, tol=1e-11)
        assert np.max(np.abs(got - want)) < 1e-12
        [sol] = solves
        assert applies == [1] and sol.iterations == 1
        f = impulse_family_forcing(c, cert, b, nodes)
        assert _seq_sup(gamma_apply(c, cert, b, f, sol.values)
                        - sol.values) == sol.residual <= 1e-11

    def test_doctored_splitting_is_corrected_by_the_picard_steps(
            self, monkeypatch):
        # the march only seeds the solve: a splitting off by 1e-3 costs
        # iterations, and the residual test still decides the family
        c, cert = saddle()
        b = constant_b(0.03 * np.random.default_rng(5).standard_normal(
            (2, 2)))
        nodes = list(range(-4, 5))
        want, _ = impulse_family_oracle(c, cert, b, nodes, tol=1e-13)
        real = greens._splitting
        monkeypatch.setattr(greens, "_splitting",
                            lambda *args: real(*args) + 1e-3)
        solves = counted_solves(monkeypatch)
        got = impulse_response_projection(c, cert, b, nodes, tol=1e-11)
        assert solves[0].iterations > 1
        assert np.max(np.abs(got - want)) <= 1e-11

    @pytest.mark.parametrize("fault", ["margin", "base step", "perturbation",
                                       "projection"])
    def test_trivial_splitting_raises_the_solves_errors(self, fault):
        # the faults sit inside the span but outside the window, which
        # sizes the span: the solve met them there first
        c, cert = stable_scalar()
        b = constant_b([[0.05]])
        if fault == "margin":
            b = constant_b([[0.4]])
        elif fault == "base step":
            c = DiscreteCocycle(lambda ns: np.where(
                np.asarray(ns) == 20, np.inf, 0.5)[:, None, None], 1)
        elif fault == "perturbation":
            b = lambda ns: np.where(np.asarray(ns) == -20, np.nan,
                                    0.05)[:, None, None]
        else:
            family = np.ones((201, 1, 1))
            family[120] = np.nan
            cert = DichotomyCertificate(1.0, LN2, family, first=-100)
        kind = ContractionMarginError if fault == "margin" else SplitflowError
        with pytest.raises(kind) as old:
            impulse_family_oracle(c, cert, b, [-2, 0, 3])
        with pytest.raises(kind) as new:
            impulse_response_projection(c, cert, b, [-2, 0, 3])
        assert type(new.value) is type(old.value)
        assert str(new.value) == str(old.value)

    def test_mixed_splitting_names_a_rank_change(self):
        c, _ = saddle()
        cert = DichotomyCertificate(
            bound=1.0, exponent=LN2, first=-60,
            projections=[np.diag([1.0, float(n > 30)])
                         for n in range(-60, 61)])
        with pytest.raises(SplitflowError,
                           match="rank changes across node 30"):
            impulse_response_projection(c, cert, constant_b(np.zeros((2, 2))),
                                        [0])

    def test_mixed_splitting_names_a_singular_node(self):
        # the range of Pi^u at the span's first node is e1, the stable
        # range at its last is e1 too: no splitting separates them
        c, _ = saddle()
        cert = DichotomyCertificate(
            bound=1.0, exponent=LN2, first=-60,
            projections=[np.diag([0.0, 1.0]) if n < -30
                         else np.diag([1.0, 0.0]) for n in range(-60, 61)])
        with pytest.raises(SplitflowError, match=r"no splitting at node -\d+"):
            impulse_response_projection(c, cert, constant_b(np.zeros((2, 2))),
                                        [0])
