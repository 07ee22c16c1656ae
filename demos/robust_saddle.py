#!/usr/bin/env python3
"""Robustness of a saddle dichotomy under a small rotation.

The unperturbed step diag(1/2, 2) splits the plane into exact stable and
unstable axes.  A one-degree-per-radian rotation tilts those axes; the
pipeline measures the perturbation against the admissibility threshold,
rebuilds the projections from unit impulses, attaches the explicit
perturbed constants, and then verifies its own certificate.
"""

import json

import numpy as np

import splitflow as sf
from splitflow.robustness import robustness_report

d_mat = np.diag([0.5, 2.0])
eps = 0.01
rot = np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]])

base = sf.DiscreteCocycle.constant(d_mat)
pert = sf.DiscreteCocycle.constant(rot @ d_mat)
base_cert = sf.DichotomyCertificate.constant(
    np.diag([1.0, 0.0]), bound=1.0, exponent=np.log(2.0))

thr = sf.delta_threshold(base_cert.exponent)
print(f"threshold for alpha = ln 2: {thr:.6f} (= 1/3)")

cert = sf.robust_dichotomy_discrete(base, base_cert, pert, (-6, 6), slack=1.1)
c = cert.meta["constants"]
print(f"measured delta_eff = {cert.meta['delta_eff']:.6f}")
print(f"perturbed exponent alpha~ = {c['alpha_tilde']:.6f} "
      f"(base {c['alpha']:.6f})")
print(f"perturbed bound M = {c['M']:.6f}  (D1={c['D1']:.4f}, D2={c['D2']:.4f})")

print("\nstable projection at node 0 (impulse construction):")
print(np.array_str(cert.proj_s([0])[0], precision=6, suppress_small=False))

nodes = range(-6, 7)
dist = np.linalg.norm(base_cert.proj_s(nodes) - cert.proj_s(nodes), 2,
                      axis=(1, 2)).max()
bound = sf.paper_projection_bound(base_cert.exponent, cert.exponent, eps)
print(f"\nprojection distance {dist:.6f} <= continuity bound {bound:.6f}: "
      f"{dist <= bound}")

rep = cert.meta["verification"]
print(f"\nverification passed: {rep.passed}")
for name, ax in rep.axioms.items():
    key = "max_ratio" if "max_ratio" in ax else ("residual" if "residual" in ax
                                                 else "max_cond")
    print(f"  {name:>15}: {key} = {ax[key]:.3e}  passed = {ax['passed']}")

print("\nfull machine-readable report:")
print(json.dumps(robustness_report(cert), indent=2))
