"""What a 60 ns mirror round trip costs, and how clock lags buy some back.

The interference that nulls the cavity's leftward leakage assumes the echo
returns instantly.  With a finite round trip the echo arrives stale; the
fix is to let the mirror clock lag (delta_m) and the cavity-detuning clock
lead (delta_c < 0).  A coarse grid here locates the same optimum as the
1 ns acceptance scan, just faster.
"""

import math
import time

import numpy as np

from phoncirc import memory

KAPPA_E = 2 * math.pi * 300e3
NS = 1e-9
ratio = 1 / 3
profile = memory.optimal_profile(ratio)

base = memory.TransferConfig(kappa_e=KAPPA_E, r=KAPPA_E * ratio, kappa_i=0.0, horizon=50.0)
print(f"no delay: fidelity {memory.simulate_transfer(base, profile).fidelity:.4f}")

cfg = memory.TransferConfig(kappa_e=KAPPA_E, r=KAPPA_E * ratio, kappa_i=0.0,
                            delta_f=60 * NS, horizon=50.0)
naive = memory.simulate_with_delay(cfg, profile)
print(f"60 ns round trip, no lag compensation: {naive.fidelity:.4f}")

print("\n== scan the two clock lags (4 ns grid) ==")
t0 = time.monotonic()
scan = memory.optimize_delays(cfg, profile,
                              dm_grid=np.arange(0.0, 61.0, 4.0) * NS,
                              dc_grid=np.arange(-60.0, 1.0, 4.0) * NS)
print(f"best fidelity {scan.fidelity:.4f} at delta_m = {scan.delta_m / NS:.0f} ns, "
      f"delta_c = {scan.delta_c / NS:.0f} ns  ({time.monotonic() - t0:.1f} s)")

print("\nfidelity map (rows delta_m, cols delta_c, percent):")
header = "        " + " ".join(f"{dc / NS:+4.0f}" for dc in scan.dc_grid[::4])
print(header)
for i in range(0, len(scan.dm_grid), 4):
    row = " ".join(f"{100 * scan.fidelity_grid[i, j]:4.1f}"
                   for j in range(0, len(scan.dc_grid), 4))
    print(f"dm={scan.dm_grid[i] / NS:3.0f}  {row}")

dms, dcs = scan.ridge()
if len(dms) > 2:
    slope, intercept = np.polyfit(dms / NS, dcs / NS, 1)
    print(f"\nbest delta_c tracks delta_m linearly: "
          f"delta_c = {slope:.2f} delta_m {intercept:+.1f} ns")

best_cfg = memory.TransferConfig(kappa_e=KAPPA_E, r=KAPPA_E * ratio, kappa_i=0.0,
                                 delta_f=60 * NS, delta_m=scan.delta_m,
                                 delta_c=scan.delta_c, horizon=50.0)
best = memory.simulate_with_delay(best_cfg, profile)
print(f"\nrecovered {best.fidelity - naive.fidelity:+.4f} fidelity over the unlagged point; "
      f"the round trip still costs {0.969 - best.fidelity:.3f} against the ideal 0.969")
