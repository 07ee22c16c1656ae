#!/usr/bin/env python3
"""Tour of the noise layer: paths, shifts, and the stationary filter.

Samples a two-sided path, walks it with the shift map, evaluates the
exponentially weighted filter z* along the orbit, and shows why the
time-rescaling kappa is needed: z* grows sublinearly but unboundedly, while
kappa z* stays uniformly small.
"""

import splitflow as sf

grid = sf.TimeGrid(-40.0, 60.0, 1.0 / 32)
path = sf.sample_wiener_path(grid, seed=2024)

print("== two-sided path ==")
print(f"window [{grid.t_min}, {grid.t_max}], h = {grid.h}")
print(f"omega(0)  = {path.value_at(0.0)}")
print(f"omega(1)  = {path.value_at(1.0):+.4f}")
print(f"omega(-1) = {path.value_at(-1.0):+.4f}")

shifted = sf.shift_path(path, 5.0)
check = path.value_at(5.0 + 1.5) - path.value_at(5.0)
print(f"\nshift by 5: (theta_5 omega)(1.5) = {shifted.value_at(1.5):+.4f} "
      f"(direct: {check:+.4f})")

print("\n== stationary filter z*(theta_t omega) ==")
win = sf.TimeGrid(-4.0, 20.0, 1.0 / 32)
z = sf.ou_series(path, win)
for t in (0.0, 5.0, 10.0, 20.0):
    print(f"  z*(theta_{t:>4} omega) = {z[win.index_of(t)]:+.4f}")

print("\nsanity: on the injected path omega(s) = s the filter is constant 1:")
lin = sf.linear_path(grid)
print("  values:", [round(sf.ou_value(lin, t), 6) for t in (0.0, 3.0, 9.0)])

print("\n== sublinear growth vs kappa-rescaled boundedness ==")
checkpoints = [5.0, 10.0, 20.0, 40.0]
ratios = sf.sublinearity_report(path, checkpoints)
for t, r in zip(checkpoints, ratios):
    print(f"  |z*(theta_t)|/t at t={t:>5}: {r:.5f}")

kappa = sf.default_kappa()
m1, m2 = sf.NoiseDressing(path, kappa).bounds(win)
print(f"\nkappa = {kappa.name}: m1 = {m1:.4f}, m2 = {m2:.4f}")
print(f"linear perturbation sup at eta=0.1: {0.1 * m2:.4f}")
