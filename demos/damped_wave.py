#!/usr/bin/env python3
"""Spectral damped wave equation with multiplicative bounded noise.

Reduces u_tt + u_t - u_xx = f(u) on the unit interval to its first four
sine modes, dresses it with the noise eta kappa_t y o dW_t through the
filter substitution, and runs the full pipeline per eta: bounded solution,
linearized dichotomy certificate, and the pullbacked reconstruction in the
original variables.

Because the noise is multiplicative and the equilibrium sits at zero, the
random hyperbolic solution *is* the zero function for every eta; the
content here is the persistence of hyperbolicity, visible in the
certificates' exponents marching back to the autonomous value as eta drops.
A second run with f(u) = 12u - u^3 flips the first mode pair across the
axis and exercises the saddle (rank-one unstable) certification.
"""

import warnings

import numpy as np

import splitflow as sf

window = sf.TimeGrid(-60.0, 60.0, 1.0 / 32)

print("== stable configuration: f(u) = u - u^3, N = 4, beta = 1 ==")
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    rep = sf.run_wave_demo(4, 1.0, None, seed=42, window=window)
print(f"computed eta cutoff: {rep.meta['eta_cutoff']:.3e} "
      f"(K = {rep.meta['autonomous_bound']}, "
      f"alpha = {rep.meta['autonomous_exponent']})")
print("eta          sup|v|    sup|y|    certified  alpha~      M_hat")
for r in rep.rows:
    print(f"{r['eta']:<12.3e} {r['sup_dist_v']:<9.1e} {r['sup_dist_y']:<9.1e} "
          f"{str(r['certified']):<10} {r['alpha_tilde']:<11.6f} "
          f"{r['M_bound']:.2f}")

print("\n== saddle configuration: f(u) = 12u - u^3 (first mode unstable) ==")
p = sf.build_wave_system(2, 1.0, lambda u: 12.0 * u - u ** 3,
                         lambda u: 12.0 - 3.0 * u ** 2)
pi_u, gap = sf.spectral_projection(p.a_matrix)
print(f"unstable rank at the equilibrium: {int(round(np.trace(pi_u)))}, "
      f"spectral gap {gap:.4f}")

grid = sf.TimeGrid(-105.0, 64.0, 1.0 / 32)
path = sf.sample_wiener_path(grid, seed=7)
strat = sf.StratonovichSpec(
    b_matrix=p.meta["b_matrix"], f=p.f0, f_prime=p.f0_prime,
    eta=1.0, kappa=sf.default_kappa(),
)
prob = sf.random_ode_problem(strat, path, p.y0_star, p.r_u)
w2 = sf.TimeGrid(-58.0, 58.0, 1.0 / 32)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    _, sol = sf.eta_row(prob, 2e-6, w2, tol=1e-7, tail_tol=1e-7, n_half=3,
                        trunc_tol=1e-7, step=w2.h)
lc = sol.linearization_certificate
print(f"eta = 2e-6: status {sol.status}, alpha~ = {lc.exponent:.5f}, "
      f"M_hat = {lc.bound:.2f}")
print(f"unstable rank of the certified projections: "
      f"{int(round(np.trace(lc.proj_u([0])[0])))}")
