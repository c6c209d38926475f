"""Programming an N-mode interferometer mesh, element by element.

Any N x N unitary factors into a phase screen on the inputs followed by a
triangle of N(N-1)/2 two-port elements on adjacent modes.  That is how an
addressable register routes a flying excitation into any of N memories with
chosen amplitudes and phases.
"""

import math

import numpy as np

from phoncirc import circuits as cc

rng = np.random.default_rng(6)

print("== one element ==")
theta, phi = 1.2, -0.4
u2 = cc.mzi_unitary(theta, phi)
print("U(theta=1.2, phi=-0.4) =")
print(np.array2string(u2, precision=4, suppress_small=True))
built = cc.mzi_from_primitives(theta, phi)
print("coupler + phase-pair construction reproduces it to",
      f"{np.max(np.abs(built - u2)):.1e}")
print("switch powers vs bias from the balanced point:")
for th in (-math.pi / 2, -0.5, 0.0, 0.5, math.pi / 2):
    p_top, p_bot = cc.switch_output_powers(th)
    print(f"  theta = {th:+5.2f} -> ({p_top:.3f}, {p_bot:.3f})")

print("\n== program a 6-mode mesh ==")
target = cc.haar_unitary(6, rng)
plan = cc.reck_decompose(target)
print(f"{plan.top.size} elements + {plan.n_modes} screen phases")
err = np.max(np.abs(plan.matrix() - target))
print(f"reconstruction error {err:.2e}")
print("first five elements (port, theta, phi):")
for i, th, ph in zip(plan.top[:5].tolist(), plan.theta[:5], plan.phi[:5]):
    print(f"  ports ({i}, {i + 1})  theta = {th:5.3f}  phi = {ph:+5.3f}")

print("\nroute a single excitation entering mode 0:")
x = np.zeros(6, dtype=complex)
x[0] = 1.0
y = cc.mesh_apply(plan, x)
print("output powers:", np.array2string(np.abs(y) ** 2, precision=4))
print("(equal to |column 0|^2 of the target, norm preserved to",
      f"{abs(np.linalg.norm(y) - 1):.1e})")

print("\n== voltage to phase, via a measured tuning curve ==")
cal = cc.CalibrationCurve([-50.0, -25.0, 0.0], [-7.9e6, -3.2e6, 0.0])
for v in (-50.0, -30.0, -10.0):
    phase = cc.phase_from_voltage(cal, v, length_periods=100, v_g=312.0, pitch=530e-9)
    print(f"  {v:+6.1f} V over 100 periods -> {math.degrees(phase):+8.1f} deg")

print("\n== and the terminating mirror ==")
for df_khz in (0.0, -400.0, -685.0):
    state = cc.mirror_state(df_khz * 1e3, 486e3)
    print(f"  band shift {df_khz:+7.1f} kHz (edge 486 kHz above): {state}")
