"""Capturing an exponentially decaying pulse with a time-varying coupling.

Shows the closed-form optimal phase schedule, integrates the cavity
equation under it, cross-checks the fidelity against the single-excitation
collision model, and demonstrates that a slew-rate-limited staircase of the
same schedule loses essentially nothing.
"""

import math

import numpy as np

from phoncirc import memory

KAPPA_E = 2 * math.pi * 300e3

print("== ideal capture fidelity vs input bandwidth ==")
print("  r/kappa_e    a1      tau_c")
for ratio in (0.1, 0.2, 1 / 3, 0.5, 1.0, 2.0, 3.0):
    c = memory.profile_constants(ratio)
    print(f"  {ratio:8.3f}  {c.a1:.4f}  {c.tau_c:.4f}")
print("slower inputs (small r) are easier to catch; a1 -> 1 as r -> 0")

ratio = 1 / 3
profile = memory.optimal_profile(ratio)
print(f"\nworking point r = kappa_e/3: a1 = {profile.a1:.4f}, "
      f"t_c = {memory.critical_time(ratio, KAPPA_E) * 1e6:.3f} us at kappa_e = 2pi x 300 kHz")

print("\n== the schedule: hold theta = 0, then roll toward pi ==")
for tau in (0.0, 0.3, 0.37, 0.5, 1.0, 2.0, 5.0, 15.0):
    print(f"  tau = {tau:5.2f}  theta = {profile.theta(tau):5.3f} rad  "
          f"coupling = {profile.coupling(tau):5.3f} kappa_e")

print("\n== integrate the transfer ==")
cfg = memory.TransferConfig(kappa_e=KAPPA_E, r=KAPPA_E * ratio, kappa_i=0.0)
res = memory.simulate_transfer(cfg, profile)
print(f"fidelity |A|^2 at tau = {cfg.horizon}: {res.fidelity:.4f}")
print(f"reflected energy: {res.reflected_fraction:.4f} "
      f"(all loss happens in the loading stage)")
seed = np.interp(profile.tau_c, res.tau, np.abs(res.amplitude) ** 2)
print(f"seed population at the switch time: |A(tau_c)|^2 = {seed:.4f}")

oracle = memory.single_excitation_oracle(cfg, profile)
print(f"single-excitation collision model agrees: {oracle:.6f} "
      f"(|diff| = {abs(oracle - res.fidelity):.1e})")

print("\n== a realistic, slew-limited staircase ==")
sampled = memory.discretize_profile(profile, slope_cap=23.0)
stepped = memory.simulate_transfer(cfg, sampled).fidelity
print(f"{len(sampled.tau)} samples, max slope {sampled.max_slope():.1f} per 1/kappa_e")
print(f"fidelity {stepped:.4f} vs continuous {res.fidelity:.4f} "
      f"(loses {abs(res.fidelity - stepped):.1e})")
