"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are hard-coded here; nothing is calibrated at
run time.
"""

import math
import time

import numpy as np

from phoncirc import circuits, elasticity as el, memory, slh

KAPPA_E = 2 * math.pi * 300e3
KAPPA_I = 2 * math.pi * 1.0
NS = 1e-9


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_ideal_transfer_fidelity():
    t0 = time.monotonic()
    a1 = memory.profile_constants(1 / 3).a1
    cfg = memory.TransferConfig(kappa_e=KAPPA_E, r=KAPPA_E / 3, kappa_i=0.0)
    fid = memory.simulate_transfer(cfg, memory.optimal_profile(1 / 3)).fidelity
    dt = time.monotonic() - t0
    ok = abs(a1 - 0.969) <= 1e-3 and abs(fid - a1) <= 2e-3 and dt < 1.0
    report(1, "ideal transfer fidelity", ok,
           f"a1={a1:.6f}, simulated={fid:.6f}, runtime={dt:.2f}s")


def test_criterion_02_critical_time():
    t_c = memory.critical_time(1 / 3, KAPPA_E)
    ok = abs(t_c - 0.18e-6) <= 0.005e-6
    report(2, "critical switch time", ok, f"t_c={t_c * 1e6:.4f}us vs 0.18+-0.005us")


def test_criterion_03_delay_optimum():
    t0 = time.monotonic()
    cfg = memory.TransferConfig(kappa_e=KAPPA_E, r=KAPPA_E / 3, kappa_i=KAPPA_I,
                                delta_f=60 * NS, horizon=50.0)
    profile = memory.optimal_profile(1 / 3)
    scan = memory.optimize_delays(cfg, profile,
                                  dm_grid=np.arange(0.0, 61.0) * NS,
                                  dc_grid=np.arange(-60.0, 1.0) * NS)
    dt = time.monotonic() - t0
    dm_ns = scan.delta_m / NS
    dc_ns = scan.delta_c / NS
    dm_ok = abs(dm_ns - 21.0) <= 2.0
    dc_ok = abs(dc_ns - (-34.0)) <= 2.0
    fid_ok = abs(scan.fidelity - 0.890) <= 5e-3
    # affine ridge of best delta_c against delta_m, grid-interior points only
    dms, dcs = scan.ridge()
    slope, intercept = np.polyfit(dms, dcs, 1)
    pred = slope * dms + intercept
    r2 = 1.0 - np.sum((dcs - pred) ** 2) / np.sum((dcs - np.mean(dcs)) ** 2)
    ok = dm_ok and dc_ok and fid_ok and r2 > 0.99 and dt < 120.0
    report(3, "delay optimum", ok,
           f"F={scan.fidelity:.4f} at ({dm_ns:.0f},{dc_ns:.0f})ns, "
           f"ridge R2={r2:.4f} over {len(dms)} pts, runtime={dt:.1f}s")


def test_criterion_04_slh_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    # unit-rate run: the 1e-12 componentwise bound applies in units where
    # kappa_e = 1; physical rates are checked with the same bound scaled by
    # the natural size of each block (1, sqrt(kappa_e), kappa_e)
    for theta in rng.uniform(0.0, 2 * math.pi, 100):
        for ke, ki in ((1.0, 0.37), (KAPPA_E, KAPPA_I)):
            got = slh.tunable_coupling_loop(theta, ke, ki)
            want = slh.tunable_coupling_closed_form(theta, ke, ki)
            err = max(np.max(np.abs(got.S - want.S)),
                      np.max(np.abs(got.L - want.L)) / max(1.0, math.sqrt(ke)),
                      np.max(np.abs(got.H - want.H)) / max(1.0, ke))
            worst = max(worst, err)
    ok = worst < 1e-12
    report(4, "SLH network oracle", ok, f"max scaled componentwise error {worst:.2e}")


def test_criterion_05_discretization_robustness():
    t0 = time.monotonic()
    cfg = memory.TransferConfig(kappa_e=KAPPA_E, r=KAPPA_E / 3, kappa_i=0.0)
    profile = memory.optimal_profile(1 / 3)
    sampled = memory.discretize_profile(profile, slope_cap=23.0)
    tau_c = profile.tau_c
    first = sampled.tau[sampled.tau > tau_c][0]
    continuous = memory.simulate_transfer(cfg, profile).fidelity
    stepped = memory.simulate_transfer(cfg, sampled).fidelity
    dt = time.monotonic() - t0
    ok = (abs(first - 1.1 * tau_c) < 1e-12 and abs(stepped - continuous) < 1e-3
          and sampled.max_slope() <= 23.0 and dt < 1.0)
    report(5, "discretization robustness", ok,
           f"|dF|={abs(stepped - continuous):.2e}, max slope={sampled.max_slope():.1f}, "
           f"runtime={dt:.2f}s")


def test_criterion_06_tensor_gradient_property():
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    step = 1e-7
    worst = 0.0
    for _ in range(1000):
        s = 0.02 * rng.uniform(-1.0, 1.0, 6)
        stress = el.phonoelastic_matrix(s, el.SILICON) @ s
        fd = np.zeros(6)
        for i in range(6):
            up, dn = s.copy(), s.copy()
            up[i] += step
            dn[i] -= step
            fd[i] = (el.strain_energy(up, el.SILICON, "third")
                     - el.strain_energy(dn, el.SILICON, "third")) / (2 * step)
        rel = np.max(np.abs(stress - fd)) / np.max(np.abs(fd))
        worst = max(worst, rel)
    dt = time.monotonic() - t0
    ok = worst <= 1e-6 and dt < 5.0
    report(6, "stress vs energy gradient", ok,
           f"worst relative deviation {worst:.2e} over 1000 strains, runtime={dt:.1f}s")


def _rotated_components_oracle(c):
    """The 21 quarter-turn component expressions, transcribed one by one."""
    r2 = math.sqrt(2.0)
    out = np.zeros((6, 6))
    out[0, 0] = 0.25 * (c[0, 0] + c[1, 1]) + 0.5 * c[0, 1] + c[0, 5] + c[1, 5] + c[5, 5]
    out[0, 1] = 0.25 * (c[0, 0] + c[1, 1]) + 0.5 * c[0, 1] - c[5, 5]
    out[0, 2] = 0.5 * (c[0, 2] + c[1, 2]) + c[2, 5]
    out[0, 3] = (0.5 * (c[0, 3] + c[1, 3] - c[0, 4] - c[1, 4]) + c[3, 5] - c[4, 5]) / r2
    out[0, 4] = (0.5 * (c[0, 3] + c[1, 3] + c[0, 4] + c[1, 4]) + c[3, 5] + c[4, 5]) / r2
    out[0, 5] = 0.5 * (c[1, 5] - c[0, 5]) + 0.25 * (c[1, 1] - c[0, 0])
    out[1, 1] = 0.25 * (c[0, 0] + c[1, 1]) + 0.5 * c[0, 1] - c[0, 5] - c[1, 5] + c[5, 5]
    out[1, 2] = 0.5 * (c[0, 2] + c[1, 2]) - c[2, 5]
    out[1, 3] = (0.5 * (c[0, 3] + c[1, 3] - c[0, 4] - c[1, 4]) - c[3, 5] + c[4, 5]) / r2
    out[1, 4] = (0.5 * (c[0, 3] + c[1, 3] + c[0, 4] + c[1, 4]) - c[3, 5] - c[4, 5]) / r2
    out[1, 5] = 0.5 * (c[0, 5] - c[1, 5]) + 0.25 * (c[1, 1] - c[0, 0])
    out[2, 2] = c[2, 2]
    out[2, 3] = (c[2, 3] - c[2, 4]) / r2
    out[2, 4] = (c[2, 3] + c[2, 4]) / r2
    out[2, 5] = 0.5 * (c[1, 2] - c[0, 2])
    out[3, 3] = 0.5 * (c[3, 3] + c[4, 4]) - c[3, 4]
    out[3, 4] = 0.5 * (c[3, 3] - c[4, 4])
    out[3, 5] = r2 / 4.0 * (-c[0, 3] + c[1, 3] + c[0, 4] - c[1, 4])
    out[4, 4] = 0.5 * (c[3, 3] + c[4, 4]) + c[3, 4]
    out[4, 5] = r2 / 4.0 * (-c[0, 3] + c[1, 3] - c[0, 4] + c[1, 4])
    out[5, 5] = 0.25 * (c[0, 0] + c[1, 1]) - 0.5 * c[0, 1]
    return out + np.triu(out, 1).T


def test_criterion_07_bond_frame_consistency():
    t0 = time.monotonic()
    rotated_c = el.bond_rotate(el.SILICON.stiffness_matrix(), math.pi / 4)
    rng = np.random.default_rng(7)
    worst_energy = 0.0
    for _ in range(100):
        s110 = 0.02 * rng.uniform(-1.0, 1.0, 6)
        w100 = el.strain_energy(el.strain_110_to_100(s110), el.SILICON, "second")
        sxx, syy, szz, syz, sxz, sxy = s110
        s_eng = np.array([sxx, syy, szz, 2 * syz, 2 * sxz, 2 * sxy])
        w110 = 0.5 * s_eng @ rotated_c @ s_eng
        worst_energy = max(worst_energy, abs(w110 - w100) / abs(w100))
    worst_matrix = 0.0
    for _ in range(10):
        s = 0.02 * rng.uniform(-1.0, 1.0, 6)
        full = el.phonoelastic_matrix(s, el.SILICON)
        got = el.bond_rotate(full, math.pi / 4)
        want = _rotated_components_oracle(full)
        worst_matrix = max(worst_matrix,
                           np.max(np.abs(got - want)) / np.max(np.abs(want)))
    dt = time.monotonic() - t0
    ok = worst_energy <= 1e-10 and worst_matrix <= 1e-12 and dt < 5.0
    report(7, "Bond/frame consistency", ok,
           f"energy rel err {worst_energy:.2e}, component rel err {worst_matrix:.2e}, "
           f"runtime={dt:.1f}s")


def test_criterion_08_mesh_round_trip():
    t0 = time.monotonic()
    rng = np.random.default_rng(808)
    worst = 0.0
    for k in range(200):
        n = int(rng.integers(2, 9))
        u = circuits.haar_unitary(n, rng)
        plan = circuits.reck_decompose(u)
        assert len(plan.elements) == n * (n - 1) // 2
        worst = max(worst, float(np.max(np.abs(plan.matrix() - u))))
    plan6 = circuits.reck_decompose(circuits.haar_unitary(6, rng))
    dt = time.monotonic() - t0
    ok = worst < 1e-10 and len(plan6.elements) == 15 and dt < 10.0
    report(8, "mesh round trip", ok,
           f"worst reconstruction error {worst:.2e} over 200 unitaries, "
           f"N=6 plan has {len(plan6.elements)} elements, runtime={dt:.1f}s")


def test_criterion_09_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    cfg = memory.TransferConfig(kappa_e=KAPPA_E, r=KAPPA_E / 3, kappa_i=0.0)
    worst = 0.0
    for _ in range(20):
        tau_c = rng.uniform(0.05, 0.8)
        n_pts = int(rng.integers(8, 40))
        taus = np.concatenate([[0.0, tau_c],
                               np.sort(rng.uniform(tau_c, 25.0, n_pts)), [25.0]])
        thetas = np.concatenate([[0.0, 0.0],
                                 np.sort(rng.uniform(0.0, math.pi, n_pts + 1))])
        profile = memory.SampledProfile(taus, thetas, tau_c=tau_c)
        sim = memory.simulate_transfer(cfg, profile).fidelity
        orc = memory.single_excitation_oracle(cfg, profile)
        worst = max(worst, abs(sim - orc))
    dt = time.monotonic() - t0
    ok = worst < 1e-6 and dt < 10.0
    report(9, "single-excitation oracle equivalence", ok,
           f"worst |sim - oracle| = {worst:.2e} over 20 profiles, runtime={dt:.1f}s")


def test_criterion_10_mirror_predicate():
    reflecting = circuits.mirror_state(-685e3, 486e3)
    propagating = circuits.mirror_state(-400e3, 486e3)
    ok = reflecting == "reflecting" and propagating == "propagating"
    report(10, "tunable mirror predicate", ok,
           f"(-685kHz, 486kHz) -> {reflecting}; (-400kHz, 486kHz) -> {propagating}")
