"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines;
tolerances are pinned here, not calibrated elsewhere.
"""

import warnings

import numpy as np

import splitflow as sf
from splitflow import (DichotomyCertificate, DiscreteCocycle,
                       ContinuousCocycle, ForcingSequence, KappaFn,
                       TimeGrid)
from splitflow.cli import main as cli_main
from splitflow.noise import ensemble_diagnostics, pathwise_ou_residual
from conftest import (brute_force_projections, impulse, spectral_norm,
                      value_at, wave_ladder)

LN2 = float(np.log(2.0))


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_c1_closed_form_constants():
    ok = abs(sf.delta_threshold(LN2) - 1.0 / 3.0) < 1e-15
    detail = f"delta_threshold(ln2)={sf.delta_threshold(LN2)!r}"
    for d in (1.0, 2.0, 7.0):
        at, bt = sf.gronwall_constants(LN2, 0.0, d)
        ok = ok and abs(at - LN2) < 1e-12 and abs(bt - LN2) < 1e-12
    worst = 0.0
    for k, a in ((1.0, LN2), (2.5, 0.45), (10.0, 1.3)):
        rc = sf.robust_constants(k, a, 0.0)
        worst = max(worst, abs(rc.rho), abs(rc.alpha_tilde - a),
                    abs(rc.beta_tilde - a), abs(rc.D1 - 1.0),
                    abs(rc.D2 - 1.0), abs(rc.M - k))
    ok = ok and worst < 1e-12
    report("C1 closed-form constant regression", ok,
           detail + f", delta=0 collapse max dev {worst:.2e}")


def test_c2_admissibility_oracle():
    c = DiscreteCocycle.constant([[0.5]])
    cert = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
    b = DiscreteCocycle.constant([[0.05]]).step
    tol = 1e-10
    f = impulse(-50, 50, -1, np.array([1.0]))
    sol = sf.bounded_solution(c, cert, b, f, tol=tol)
    lo, hi = sol.interior
    worst = max(
        abs(value_at(sol, n)[0] - (0.55 ** n if n >= 0 else 0.0))
        for n in range(lo, hi + 1)
    )
    zero = sf.bounded_solution(
        c, cert, b, ForcingSequence.zeros(-50, 50, 1),
        tol=tol).meta["sup_norm"]
    rng = np.random.default_rng(6)
    alt = sf.bounded_solution(c, cert, b, f, tol=tol,
                              x0=rng.standard_normal(f.values.shape))
    guess_gap = float(np.max(np.abs(alt.values - sol.values)))
    ok = worst < 1e-8 and zero == 0.0 and guess_gap < 2 * tol
    report("C2 admissibility oracle", ok,
           f"geometric dev {worst:.2e}, f=0 sup {zero:.1e}, "
           f"guess gap {guess_gap:.2e}")


def test_c3_robustness_end_to_end():
    base = DiscreteCocycle.constant([[0.5]])
    pert = DiscreteCocycle.constant([[0.55]])
    bc = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
    cert = sf.robust_dichotomy_discrete(base, bc, pert, (-8, 8), slack=1.1)
    scalar_ok = (cert.meta["verification"].passed
                 and cert.exponent <= -np.log(0.55) + 1e-9)

    eps = 0.01
    d_mat = np.diag([0.5, 2.0])
    rot = np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]])
    base2 = DiscreteCocycle.constant(d_mat)
    pert2 = DiscreteCocycle.constant(rot @ d_mat)
    bc2 = DichotomyCertificate.constant(np.diag([1.0, 0.0]), 1.0, LN2)
    cert2 = sf.robust_dichotomy_discrete(base2, bc2, pert2, (-6, 6), slack=1.1)
    dist = sf.projection_distance(bc2, cert2, (-6, 6))
    bound = sf.paper_projection_bound(LN2, cert2.exponent, eps)
    pi_s_bf, _ = brute_force_projections(rot @ d_mat)
    oracle_dev = spectral_norm(cert2.proj_s([0])[0] - pi_s_bf)
    saddle_ok = (cert2.meta["verification"].passed and dist <= bound
                 and oracle_dev < 1e-6)
    report("C3 robustness end-to-end", scalar_ok and saddle_ok,
           f"alpha~={cert.exponent:.6f} <= {-np.log(0.55):.6f}; "
           f"proj dist {dist:.6f} <= bound {bound:.6f}, "
           f"brute-force dev {oracle_dev:.1e}")


def test_c4_discretize_lift_round_trip():
    a = np.diag([-1.0, 1.0])
    cc = ContinuousCocycle.constant(a)
    cont = sf.autonomous_certificate(a)
    disc = DichotomyCertificate.constant(cont.proj_s([0])[0], cont.bound,
                                         cont.exponent)
    lifted = sf.lift_certificate(cc, disc, (-4, 4))
    ts = np.linspace(0.0, 1.0, 20001)
    from scipy.linalg import expm

    scan = max(spectral_norm(expm(a * t)) * np.exp(cont.exponent * t)
               for t in ts)
    k_hat_oracle = cont.bound * scan
    rel = abs(lifted.bound - k_hat_oracle) / k_hat_oracle
    rep = sf.verify_dichotomy(cc, lifted, (-4, 4), slack=1.05)
    ok = rel <= 0.05 and rep.passed
    report("C4 discretize/lift round-trip", ok,
           f"K_hat={lifted.bound:.6f} vs scan {k_hat_oracle:.6f} "
           f"(rel {rel:.2%}), continuous verification "
           f"{'passed' if rep.passed else 'failed'}")


def test_c5_ou_diagnostics():
    ens = ensemble_diagnostics(10000, h=1.0 / 64, t_min=-30.0, seed=101)
    var_ok = 0.47 <= ens["z_var"] <= 0.53

    grid = TimeGrid(-32.0, 8.0, 1.0 / 64)
    lp = sf.linear_path(grid)
    win = TimeGrid(-2.0, 6.0, 1.0 / 64)
    zmax = float(np.max(np.abs(sf.ou_series(lp, win) - 1.0)))
    lin_ok = zmax <= 1e-4

    sp = sf.injected_path(grid, np.sin)
    res = float(np.max(np.abs(pathwise_ou_residual(sp, win))))
    ode_ok = res <= 1.0 / 64  # O(h) with huge headroom; measured O(h^2)
    report("C5 OU diagnostics", var_ok and lin_ok and ode_ok,
           f"var={ens['z_var']:.4f} in [0.47,0.53]; linear-path dev "
           f"{zmax:.2e} <= 1e-4; ODE residual {res:.2e} <= h")


def test_c6_hyperbolic_convergence():
    w = TimeGrid(-70.0, 70.0, 1.0 / 64)
    # additive model against the variation-of-constants oracle
    p = sf.SemilinearProblem(
        a_matrix=[[-1.0]],
        f_eta=sf.pointwise(lambda eta, t, y: np.array([eta * np.cos(t)])),
        f0=sf.pointwise(lambda y: np.zeros(1)), y0_star=[0.0], r_u=1.0,
        f0_prime=sf.pointwise(lambda y: np.zeros((1, 1))),
        f_eta_dy=sf.pointwise(lambda eta, t, y: np.zeros((1, 1))),
    )
    eta = 0.03
    sol = sf.find_hyperbolic_solution(p, eta, w, tol=1e-10, tail_tol=1e-9)
    all_t = w.times()
    voc_dev = 0.0
    for t in sol.interior_times()[::97]:
        i = w.index_of(t)
        s = all_t[: i + 1]
        oracle = eta * np.trapezoid(np.exp(-(t - s)) * np.cos(s), dx=w.h)
        voc_dev = max(voc_dev, abs(sol.xi_star(t)[0] - oracle))
    additive_ok = voc_dev < 1e-6 and sol.sup_distance <= eta * 1.0

    # cubic with bounded filtered noise: 5-seed medians over the eta ladder
    etas = (0.2, 0.1, 0.05, 0.025)
    sups = {e: [] for e in etas}
    all_rows_ok = True
    for seed in (7, 8, 9, 10, 11):
        prob = sf.cubic_problem(KappaFn.inverse_quadratic(0.002), w, seed,
                                0.3)
        for e in etas:
            s = sf.find_hyperbolic_solution(prob, e, w, tol=1e-9)
            sf.certify_hyperbolic(prob, s, n_half=3)
            sups[e].append(s.sup_distance)
            if s.status == "certified":
                all_rows_ok = all_rows_ok and (
                    s.sup_distance < s.eps_used
                    and s.linearization_certificate.meta["verification"].passed)
            else:
                all_rows_ok = False
    med = [float(np.median(sups[e])) for e in etas]
    trend_ok = all(a >= b for a, b in zip(med, med[1:]))
    ratio = med[-1] / med[0] if med[0] > 0 else 0.0
    cubic_ok = trend_ok and ratio <= 0.2 and all_rows_ok
    report("C6 hyperbolic-solution convergence", additive_ok and cubic_ok,
           f"VoC dev {voc_dev:.2e} <= 1e-6, sup<=eta; medians {med} "
           f"non-increasing, final/initial {ratio:.3f} <= 0.2, "
           f"all rows certified with sup < eps")


def test_c7_wave_demo():
    w = TimeGrid(-60.0, 60.0, 1.0 / 32)
    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for seed in (41, 42, 43, 44, 45):
            p, rows = wave_ladder(4, [], seed, w)
            runs.append((sf.eta_cutoff(p, w), rows))
    zero_ok = True
    cutoff_ok = True
    ladders = []
    for meta, rows in runs:
        z = [r for r in rows if r["eta"] == 0.0][0]
        zero_ok = zero_ok and z["sup_dist_v"] == 0.0 and z["certified"] \
            and abs(z["alpha_tilde"] - meta["autonomous_exponent"]) < 1e-9
        cutoff = meta["eta_cutoff"]
        for r in rows:
            if r["eta"] <= cutoff:
                cutoff_ok = cutoff_ok and r["certified"]
        ladders.append([r["sup_dist_v"] for r in rows if r["eta"] > 0.0])
    # median trend over seeds per ladder position, 10% slack
    n_pos = min(len(l) for l in ladders)
    med = [float(np.median([l[k] for l in ladders])) for k in range(n_pos)]
    trend_ok = all(med[k + 1] <= 1.1 * med[k] + 1e-12 for k in range(n_pos - 1))
    ok = zero_ok and cutoff_ok and trend_ok
    report("C7 wave demo", ok,
           f"eta=0 rows exact and certified; all rows below cutoff "
           f"certified; medians {med} non-increasing within 10%")


def test_c8_falsification_controls():
    a = np.diag([-1.0, 1.0])
    cert = sf.autonomous_certificate(a)
    doubled = DichotomyCertificate.constant(cert.proj_s([0])[0], cert.bound,
                                            2.0 * cert.exponent)
    rep1 = sf.verify_dichotomy(ContinuousCocycle.constant(a), doubled,
                               (-3, 3), slack=1.01)

    saddle = DiscreteCocycle.constant(np.diag([0.5, 2.0]))
    identity_u = DichotomyCertificate.constant(np.zeros((2, 2)), 1.0, LN2)
    rep2 = sf.verify_dichotomy(saddle, identity_u, (-3, 3), slack=1.05)

    base = DiscreteCocycle.constant([[0.5]])
    bc = DichotomyCertificate.constant([[1.0]], 1.0, LN2)
    try:
        sf.robust_dichotomy_discrete(base, bc,
                                     DiscreteCocycle.constant([[0.95]]),
                                     (-5, 5))
        threshold_raised = False
    except sf.RobustnessHypothesisError:
        threshold_raised = True

    import tempfile, os
    with tempfile.TemporaryDirectory() as td:
        bad = os.path.join(td, "bad.cfg")
        with open(bad, "w") as fh:
            fh.write("definitely_not_a_key = 1\n")
        code_usage = cli_main(["robustness", "--config", bad,
                               "--out", os.path.join(td, "o")])
        over = os.path.join(td, "over.cfg")
        with open(over, "w") as fh:
            fh.write("pert_step = 0.95\nrun_saddle = false\n")
        code_sci = cli_main(["robustness", "--config", over,
                             "--out", os.path.join(td, "o2")])
    ok = (not rep1.passed and not rep2.passed and threshold_raised
          and code_usage == 2 and code_sci == 1)
    report("C8 falsification controls", ok,
           f"doubled-exponent verify {'rejected' if not rep1.passed else 'ACCEPTED'}, "
           f"identity-projection verify {'rejected' if not rep2.passed else 'ACCEPTED'}, "
           f"threshold {'raised' if threshold_raised else 'missed'}, "
           f"exit codes usage={code_usage} scientific={code_sci}")
