"""Capture profiles and transfer simulations, delay-free and retarded."""

import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phoncirc import memory, slh
from phoncirc.errors import (DomainError, InfeasibleCap, IntegrationError,
                             ProfileOutOfRange)

KAPPA_E = 2 * math.pi * 300e3
NS = 1e-9


def config(ratio=1 / 3, kappa_i=0.0, **kw):
    return memory.TransferConfig(kappa_e=KAPPA_E, r=ratio * KAPPA_E,
                                 kappa_i=kappa_i, **kw)


# --- profile constants -----------------------------------------------------------

def test_constants_at_one_third():
    c = memory.profile_constants(1 / 3)
    assert c.a1 == pytest.approx(0.969, abs=5e-4)
    assert c.tau_c == pytest.approx(0.3344, abs=5e-5)


def test_critical_time_in_seconds():
    t_c = memory.critical_time(1 / 3, KAPPA_E)
    assert t_c == pytest.approx(0.18e-6, abs=5e-9)  # 0.1774 us


def test_constants_limits():
    assert memory.profile_constants(1e-9).a1 == pytest.approx(1.0, abs=1e-8)
    assert memory.profile_constants(1.0).a1 == pytest.approx(0.9137555, abs=1e-6)
    for bad in (0.0, -1.0, 4.0, 4.5):
        with pytest.raises(DomainError):
            memory.profile_constants(bad)


def test_fidelity_decreases_with_ratio():
    grid = np.linspace(0.01, 3.99, 100)
    a1 = np.array([memory.profile_constants(r).a1 for r in grid])
    assert np.all(np.diff(a1) < 0.0)


# --- optimal coupling and phase ----------------------------------------------------

def test_coupling_starts_at_maximum():
    assert memory.optimal_profile(1 / 3).coupling(0.0) == 4.0


def test_coupling_decays():
    assert memory.optimal_profile(1 / 3).coupling(80.0) < 1e-10


def test_coupling_continuous_at_switch():
    prof = memory.optimal_profile(1 / 3)
    lo = prof.coupling(prof.tau_c * (1 - 1e-12))
    hi = prof.coupling(prof.tau_c * (1 + 1e-12))
    assert abs(lo - hi) < 1e-9


def test_phase_branches():
    prof = memory.optimal_profile(1 / 3)
    tau_c = prof.tau_c
    assert prof.theta(0.5 * tau_c) == 0.0
    assert prof.theta(200.0) == pytest.approx(math.pi, abs=1e-6)
    # continuous start of the rise just past tau_c
    assert prof.theta(tau_c + 1e-10) < 1e-4


@pytest.mark.parametrize("ratio", [0.1, 1 / 3, 1.0, 2.0, 3.5])
def test_coupling_matches_the_slh_loop(ratio):
    # the loop's output rate 2 kappa_e (1 + cos theta) = 4 cos^2(theta/2) kappa_e
    # at the profile's own phase, on both sides of tau_c
    prof = memory.optimal_profile(ratio)
    rng = np.random.default_rng(12)
    tau = np.concatenate((rng.uniform(0.0, prof.tau_c, 20),
                          prof.tau_c + rng.exponential(2.0 / ratio, 80)))
    coupling, theta = prof.coupling(tau), prof.theta(tau)
    loop = np.array([slh.effective_rate(t, KAPPA_E) / KAPPA_E for t in theta])
    np.testing.assert_allclose(coupling, loop, rtol=0, atol=1e-12)
    np.testing.assert_allclose(coupling, 4.0 * np.cos(theta / 2.0) ** 2, rtol=0, atol=1e-12)
    assert np.all(coupling[:20] == 4.0) and np.all(coupling[20:] < 4.0)


@pytest.mark.parametrize("ratio", [0.1, 1 / 3, 3.5])
def test_profile_keeps_shape_and_switches_after_tau_c(ratio):
    prof = memory.optimal_profile(ratio)
    tau = np.array([[0.0, prof.tau_c], [np.nextafter(prof.tau_c, np.inf), 5.0]])
    coupling, theta = prof.coupling(tau), prof.theta(tau)
    assert coupling.shape == theta.shape == (2, 2)
    assert coupling[0].tolist() == [4.0, 4.0] and theta[0].tolist() == [0.0, 0.0]
    assert abs(coupling[1, 0] - 4.0) < 1e-12 and theta[1, 0] < 1e-6
    assert type(prof.coupling(prof.tau_c)) is float and type(prof.theta(5.0)) is float
    assert prof.coupling(5.0) == coupling[1, 1] and prof.theta(5.0) == theta[1, 1]


def test_phase_from_coupling_domain():
    assert memory.phase_from_coupling(4.0) == pytest.approx(0.0)
    assert memory.phase_from_coupling(0.0) == pytest.approx(math.pi)
    # rounding-level excursions are clamped, real ones raise
    assert memory.phase_from_coupling(4.0 + 1e-13) == 0.0
    with pytest.raises(ProfileOutOfRange):
        memory.phase_from_coupling(4.1)
    with pytest.raises(ProfileOutOfRange):
        memory.phase_from_coupling(-0.1)


# --- discretization -----------------------------------------------------------------

def test_discretize_first_sample_and_cap():
    prof = memory.optimal_profile(1 / 3)
    sampled = memory.discretize_profile(prof, slope_cap=23.0)
    tau_c = prof.tau_c
    post = sampled.tau[sampled.tau > tau_c]
    assert post[0] == pytest.approx(1.1 * tau_c, rel=1e-12)
    assert sampled.max_slope() <= 23.0
    assert sampled.theta(0.5 * tau_c) == 0.0


def test_discretize_keeps_fidelity():
    prof = memory.optimal_profile(1 / 3)
    sampled = memory.discretize_profile(prof, slope_cap=23.0)
    fid = memory.simulate_transfer(config(), sampled).fidelity
    assert fid == pytest.approx(0.969, abs=1e-3)


def test_discretize_uncapped_matches_closed_form():
    prof = memory.optimal_profile(1 / 3)
    sampled = memory.discretize_profile(prof, slope_cap=1e9)
    assert np.max(np.abs(sampled.thetas - prof.theta(sampled.tau))) < 1e-12


def test_discretize_infeasible_cap():
    prof = memory.optimal_profile(1 / 3)
    with pytest.raises(InfeasibleCap):
        memory.discretize_profile(prof, slope_cap=0.001, horizon=20.0)


@pytest.mark.parametrize("slope_cap", [0.0, -1.0, math.nan, math.inf])
def test_discretize_refuses_bad_cap(slope_cap):
    with pytest.raises(DomainError, match="slope cap"):
        memory.discretize_profile(memory.optimal_profile(1 / 3), slope_cap=slope_cap)


@pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.2])
def test_discretize_refuses_bad_horizon(horizon):
    # an infinite horizon would grow the staircase without end
    with pytest.raises(DomainError, match="horizon"):
        memory.discretize_profile(memory.optimal_profile(1 / 3), 23.0, horizon)


def test_sampled_profile_validation():
    for tau, thetas, tau_c in [
        ([0.0, 1.0], [0.5, 0.2], 0.0),                    # decreasing
        ([0.0, 1.0], [0.2, 0.5], 2.0),                    # non-zero before tau_c
        ([0.0, 1.0, math.nan], [0.0, 0.0, 1.0], 0.5),     # non-finite sample time
        ([0.0, 1.0, 2.0], [0.0, math.nan, 1.0], 0.5),     # non-finite phase
        ([0.0, 1.0, math.inf], [0.0, 0.0, 1.0], 0.5),
        ([0.0, 1.0], [0.2, 0.5], math.nan),               # would skip the tau_c check
    ]:
        with pytest.raises(DomainError):
            memory.SampledProfile(np.array(tau), np.array(thetas), tau_c=tau_c)


# --- delay-free simulation ------------------------------------------------------------

def test_simulate_reaches_ideal_fidelity():
    res = memory.simulate_transfer(config(), memory.optimal_profile(1 / 3))
    assert res.fidelity == pytest.approx(0.969, abs=2e-3)


def test_simulate_matches_a1_across_ratios():
    for ratio in (0.1, 1 / 3, 1.0, 2.0):
        # horizon long enough that the input pulse has fully arrived
        cfg = config(ratio=ratio, horizon=max(25.0, 9.0 / ratio))
        fid = memory.simulate_transfer(cfg, memory.optimal_profile(ratio)).fidelity
        assert fid == pytest.approx(memory.profile_constants(ratio).a1, abs=2e-3)


def test_simulate_decoupled_profile():
    flat_pi = memory.SampledProfile(np.array([0.0, 25.0]),
                                    np.array([math.pi, math.pi]), tau_c=0.0)
    res = memory.simulate_transfer(config(), flat_pi)
    assert res.fidelity == pytest.approx(0.0, abs=1e-12)
    assert np.max(np.abs(res.amplitude)) < 1e-12


def test_simulate_constant_full_coupling_matches_analytic():
    # theta = 0: dA/dtau = -2A - 2 sqrt(rho) e^{-rho tau / 2} solves to
    # A = -2 sqrt(rho) (e^{-rho tau/2} - e^{-2 tau}) / (2 - rho/2)
    rho = 1 / 3
    flat = memory.SampledProfile(np.array([0.0, 25.0]), np.zeros(2), tau_c=25.0)
    res = memory.simulate_transfer(config(), flat)
    coef = 2 * math.sqrt(rho) / (2 - rho / 2)
    analytic = coef * (np.exp(-0.5 * rho * res.tau) - np.exp(-2.0 * res.tau))
    assert np.max(np.abs(np.abs(res.amplitude) - analytic)) < 1e-9
    assert np.max(np.abs(res.amplitude) ** 2) == pytest.approx(0.2121602, abs=1e-6)


def test_energy_bookkeeping_lossless():
    res = memory.simulate_transfer(config(), memory.optimal_profile(1 / 3))
    energy_in = 1.0 - math.exp(-25.0 / 3.0)
    assert res.fidelity + res.reflected_fraction == pytest.approx(energy_in, abs=1e-4)
    assert res.intrinsic_fraction == 0.0


def test_intrinsic_loss_fraction_accumulates():
    res = memory.simulate_transfer(config(kappa_i=0.02 * KAPPA_E),
                                   memory.optimal_profile(1 / 3))
    energy_in = 1.0 - math.exp(-25.0 / 3.0)
    assert res.intrinsic_fraction > 1e-3
    assert (res.fidelity + res.reflected_fraction
            + res.intrinsic_fraction) == pytest.approx(energy_in, abs=1e-4)


def test_step_halving_converges():
    cfg = config()
    prof = memory.optimal_profile(1 / 3)
    f1 = memory.simulate_transfer(cfg, prof, step=0.002).fidelity
    f2 = memory.simulate_transfer(cfg, prof, step=0.001).fidelity
    assert abs(f1 - f2) < 1e-5


def test_step_underflow_raises():
    with pytest.raises(IntegrationError):
        memory.simulate_transfer(config(), memory.optimal_profile(1 / 3), step=1e-9)


@pytest.mark.parametrize("step", [math.nan, math.inf, -1.0, 0.0])
@pytest.mark.parametrize("delta_f", [0.0, 60 * NS])
def test_bad_step_is_an_input_error(step, delta_f):
    run = memory.simulate_with_delay if delta_f else memory.simulate_transfer
    with pytest.raises(DomainError, match="integration step"):
        run(config(delta_f=delta_f), memory.optimal_profile(1 / 3), step=step)


# --- retarded simulation ----------------------------------------------------------------

def test_delay_free_limit_matches_ode_pointwise():
    cfg = config()
    prof = memory.optimal_profile(1 / 3)
    ode = memory.simulate_transfer(cfg, prof)
    dde = memory.simulate_with_delay(cfg, prof)
    assert np.max(np.abs(ode.amplitude - dde.amplitude)) < 1e-6
    assert dde.fidelity == pytest.approx(0.969, abs=2e-3)


def test_paper_delay_point():
    cfg = config(delta_f=60 * NS, delta_m=21 * NS, delta_c=-34 * NS)
    res = memory.simulate_with_delay(cfg, memory.optimal_profile(1 / 3))
    assert res.fidelity == pytest.approx(0.890, abs=5e-3)


def test_unlagged_delay_is_worse_than_optimum():
    prof = memory.optimal_profile(1 / 3)
    lagged = memory.simulate_with_delay(
        config(delta_f=60 * NS, delta_m=21 * NS, delta_c=-34 * NS), prof).fidelity
    bare = memory.simulate_with_delay(config(delta_f=60 * NS), prof).fidelity
    assert bare < lagged


def test_delay_step_halving_converges():
    cfg = config(delta_f=60 * NS, delta_m=21 * NS, delta_c=-34 * NS)
    prof = memory.optimal_profile(1 / 3)
    f1 = memory.simulate_with_delay(cfg, prof, step=0.002).fidelity
    f2 = memory.simulate_with_delay(cfg, prof, step=0.001).fidelity
    assert abs(f1 - f2) < 1e-5


def test_delay_energy_bookkeeping():
    # with a finite round trip, energy also sits in flight in the
    # cavity-mirror segment (~ |A|^2 * kappa_e * delta_f at steady storage),
    # and the shifted input exponential feeds an extra "echo" amount
    # e^{rho lag} - 1 before the real signal reaches the mirror
    cfg = config(delta_f=60 * NS)
    rho, lag = cfg.ratio, KAPPA_E * cfg.delta_f
    res = memory.simulate_with_delay(cfg, memory.optimal_profile(1 / 3))
    lhs = res.fidelity * (1.0 + lag) + res.reflected_fraction
    rhs = (1.0 - math.exp(-rho * cfg.horizon)) + (math.exp(rho * lag) - 1.0)
    assert lhs == pytest.approx(rhs, abs=1e-3)


# --- delay optimization --------------------------------------------------------------------

def test_optimize_zero_roundtrip_prefers_zero_lags():
    cfg = config()
    prof = memory.optimal_profile(1 / 3)
    scan = memory.optimize_delays(cfg, prof,
                                  dm_grid=np.array([0.0, 20e-9, 40e-9]),
                                  dc_grid=np.array([-40e-9, -20e-9, 0.0]))
    assert scan.delta_m == 0.0 and scan.delta_c == 0.0
    assert scan.fidelity == pytest.approx(0.969, abs=2e-3)


def test_optimize_recovers_paper_optimum_coarse():
    cfg = config(delta_f=60 * NS, horizon=50.0)
    prof = memory.optimal_profile(1 / 3)
    scan = memory.optimize_delays(cfg, prof,
                                  dm_grid=np.arange(15, 28, 3.0) * NS,
                                  dc_grid=np.arange(-40, -27, 3.0) * NS)
    assert scan.fidelity == pytest.approx(0.890, abs=5e-3)
    assert abs(scan.delta_m - 21 * NS) <= 3.1 * NS
    assert abs(scan.delta_c - (-34 * NS)) <= 3.1 * NS


@pytest.mark.parametrize("delta_f", [60 * NS, 0.0], ids=["delay-60ns", "zero-lag"])
def test_scan_matches_per_cell_runs(monkeypatch, delta_f):
    # a small table budget puts several chunks into a short horizon
    monkeypatch.setattr(memory, "_CHUNK_BYTES", 1 << 20)
    cfg = config(kappa_i=2 * math.pi, delta_f=delta_f, horizon=1.5)
    prof = memory.optimal_profile(1 / 3)
    dm = np.linspace(0.0, 44.0, 12) * NS
    dc = np.linspace(-54.0, -6.0, 13) * NS
    h, n_sub = memory._delay_step(KAPPA_E * delta_f, None)
    n = memory._ode_step_count(cfg.horizon, h)
    block = memory._block_length(dm.size * dc.size, n_sub)
    chunk = memory._chunk_length((dm.size, dc.size), block)
    assert block != memory._block_length(1, n_sub)
    assert n > 2 * chunk
    assert n % chunk != 0 and n % block != 0
    scan = memory.optimize_delays(cfg, prof, dm, dc)
    cells = [[memory.simulate_with_delay(replace(cfg, delta_m=m, delta_c=c), prof).fidelity
              for c in dc] for m in dm]
    assert np.max(np.abs(scan.fidelity_grid - np.array(cells))) <= 1e-12


def scan_7x6(cfg, prof):
    """A 7 x 6 lag grid inside a 60 ns round trip."""
    return memory.optimize_delays(cfg, prof, np.linspace(0.0, 42.0, 7) * NS,
                                  np.linspace(-50.0, -10.0, 6) * NS)


CHUNKED_RUNS = {
    "delay-free": (memory.simulate_transfer, dict(kappa_i=0.02 * KAPPA_E)),
    "zero-lag": (memory.simulate_with_delay, dict(kappa_i=0.02 * KAPPA_E, delta_c=-34 * NS)),
    "delay-60ns": (memory.simulate_with_delay,
                   dict(kappa_i=0.02 * KAPPA_E, delta_f=60 * NS, delta_m=21 * NS,
                        delta_c=-34 * NS)),
    "delay-20ns": (memory.simulate_with_delay,
                   dict(kappa_i=0.02 * KAPPA_E, delta_f=20 * NS, delta_m=7 * NS,
                        delta_c=-11 * NS)),
    "grid-60ns": (scan_7x6, dict(kappa_i=0.02 * KAPPA_E, delta_f=60 * NS)),
}


@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("run", CHUNKED_RUNS)
def test_chunking_leaves_runs_unchanged(monkeypatch, run, blocks):
    # the energy is summed once per table chunk; with a chunk of one block
    # on a delayed run, the chunk is shorter than the delay and its history
    # taps all read the zeroed ring tail
    free_block = memory._block_length(1, 0)
    assert memory._chunk_length((1, 1), free_block) == free_block  # a chunk is one scan
    # the history-free paths scan in 60 ns blocks, so that 3.1 kappa_e^-1
    # spans several chunks; a 20 ns run keeps its own 19-step block
    scan_block = memory._block_length(1, memory._delay_step(KAPPA_E * 60 * NS, None)[1])
    monkeypatch.setattr(memory, "_SCAN_STEPS", scan_block)
    simulate, kw = CHUNKED_RUNS[run]
    cfg = config(horizon=3.1, **kw)
    prof = memory.optimal_profile(1 / 3)
    want = simulate(cfg, prof)
    shape = (7, 6) if simulate is scan_7x6 else (1, 1)
    h, n_sub = memory._delay_step(KAPPA_E * cfg.delta_f, None)
    block = memory._block_length(math.prod(shape), n_sub)
    assert block == (19 if run == "delay-20ns" else scan_block)
    monkeypatch.setattr(memory, "_CHUNK_STEPS", blocks * block)
    chunk = memory._chunk_length(shape, block)
    assert chunk == blocks * block
    n = memory._ode_step_count(cfg.horizon, h)
    assert n > chunk and n % chunk != 0
    if n_sub and blocks == 1:
        assert chunk < n_sub
    got = simulate(cfg, prof)
    if simulate is scan_7x6:
        assert np.array_equal(got.fidelity_grid, want.fidelity_grid)
        return
    assert got.fidelity == want.fidelity
    assert np.array_equal(got.amplitude, want.amplitude)
    assert got.intrinsic_fraction > 1e-3
    assert abs(got.reflected_fraction - want.reflected_fraction) <= 1e-12
    assert abs(got.intrinsic_fraction - want.intrinsic_fraction) <= 1e-12


def test_lag_grid_holds_one_lean_chunk():
    # a grid chunk keeps only what its blocks read, one chunk at a time, and
    # its blocks reuse one factor buffer: the tables stay far below the
    # chunk budget over the five chunks of this run
    cfg = config(kappa_i=2 * math.pi, delta_f=60 * NS, horizon=5.0)
    prof = memory.optimal_profile(1 / 3)
    dm, dc = np.linspace(0.0, 60.0, 31) * NS, np.linspace(-60.0, 0.0, 31) * NS
    cells = dm.size * dc.size
    h, n_sub = memory._delay_step(KAPPA_E * cfg.delta_f, None)
    block = memory._block_length(cells, n_sub)
    assert memory._ode_step_count(cfg.horizon, h) > 4 * memory._chunk_length((31, 31), block)
    ring = 16 * cells * (n_sub + block + 4)
    tracemalloc.start()
    try:
        memory.optimize_delays(cfg, prof, dm, dc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < ring + memory._CHUNK_BYTES / 2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), log_p_min=st.floats(-4.0, 0.0),
       n=st.integers(1, 3000), block=st.integers(1, 2048))
def test_block_scan_matches_the_step_recurrence(seed, log_p_min, n, block):
    rng = np.random.default_rng(seed)
    p = np.exp(rng.uniform(log_p_min, 0.0, n) + 1j * rng.uniform(-math.pi, math.pi, n))
    q = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    want = [complex(rng.standard_normal(), rng.standard_normal())]
    for pk, qk in zip(p.tolist(), q.tolist()):
        want.append(pk * want[-1] + qk)
    got = np.empty(n + 1, dtype=complex)
    got[0] = want[0]
    bounds = memory._scan_blocks(p, block)
    assert [k for k, _ in bounds] == [0] + [m for _, m in bounds[:-1]]
    assert bounds[-1][1] == n
    for k, m in bounds:
        log_l = np.cumsum(np.log(np.abs(p[k:m])))
        assert m - k <= block and np.all(np.abs(log_l) <= memory._SCAN_LOG_L)
        got[k + 1:m + 1] = memory._scan(p[k:m], q[k:m], got[k])
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("delta_f, delay_steps", [(60 * NS, 57), (0.0, 0)],
                         ids=["delay-60ns", "zero-lag"])
def test_scan_reports_its_steps(delta_f, delay_steps):
    cfg = config(delta_f=delta_f, horizon=2.0)
    prof = memory.optimal_profile(1 / 3)
    scan = memory.optimize_delays(cfg, prof, np.array([10.0, 20.0]) * NS,
                                  np.array([-30.0, -20.0, -10.0]) * NS)
    one = memory.simulate_with_delay(replace(cfg, delta_m=scan.delta_m, delta_c=scan.delta_c),
                                     prof)
    assert scan.delay_steps == one.delay_steps == delay_steps
    assert (scan.step, scan.n_steps, scan.tau_end) == (one.step, one.n_steps, one.tau_end)
    assert scan.tau_end == scan.n_steps * scan.step >= cfg.horizon


def test_optimize_rejects_empty_grid():
    with pytest.raises(DomainError):
        memory.optimize_delays(config(), memory.optimal_profile(1 / 3), [], [0.0])


def test_work_budget_refuses_before_integrating(monkeypatch):
    monkeypatch.setattr(memory, "_WORK_BYTES", 4 << 20)
    prof = memory.optimal_profile(1 / 3)
    cfg = config(delta_f=60 * NS, horizon=1.5)
    small = np.linspace(0.0, 30.0, 4) * NS
    memory.optimize_delays(cfg, prof, small, small - 40 * NS)
    memory.simulate_transfer(config(horizon=100.0), prof)

    def no_tables(self, k0, k1):
        raise AssertionError("tables loaded past the budget")

    monkeypatch.setattr(memory._RetardedTables, "load", no_tables)
    monkeypatch.setattr(memory._FreeTables, "load", no_tables)
    # a 40 x 40 grid takes a 16 MiB table chunk besides its 1.6 MiB ring
    large = np.linspace(0.0, 39.0, 40) * NS
    with pytest.raises(DomainError, match="budget"):
        memory.optimize_delays(cfg, prof, large, large - 40 * NS)
    # a single cell's ring holds its whole run: 300 000 steps, 4.6 MiB
    with pytest.raises(DomainError, match="budget"):
        memory.simulate_transfer(config(horizon=600.0), prof)


# --- the SLH loop the memory equation models -------------------------------------------------

def _flat(theta):
    return SimpleNamespace(theta=lambda tau: np.full(np.shape(tau), theta))


def test_tables_match_the_slh_loop():
    # dA/dtau = c A - f is the master equation of the composed loop in units
    # of kappa_e, driven by the input amplitude sqrt(kappa_e) * pump
    rng = np.random.default_rng(31)
    h = 0.002
    for theta, ki in zip(rng.uniform(0.0, math.pi, 50), rng.uniform(0.0, 0.2, 50)):
        coeffs = slh.master_eq_coeffs(slh.tunable_coupling_loop(theta, KAPPA_E, ki * KAPPA_E))
        free = memory._FreeTables(_flat(theta), 1 / 3, ki, h)
        free.load(0, 2)
        c = coeffs.drift[0, 0] / KAPPA_E
        f = -coeffs.input_coupling[0, 0] / math.sqrt(KAPPA_E) * free.pump
        assert np.max(np.abs(free.coef - c)) <= 1e-14
        assert np.max(np.abs(free.known - f)) <= 1e-14
        # the retarded tables at zero lag and zero clock lags reduce to them
        zero = np.zeros(1)
        ret = memory._RetardedTables(_flat(theta), 1 / 3, ki, 0.0, 0, zero, zero, h)
        ret.load(0, 2)
        assert np.max(np.abs(ret.coef[:, 0, 0] - free.coef)) <= 1e-14
        assert np.max(np.abs(ret.known[:, 0, 0] - free.known)) <= 1e-14


# --- single-excitation oracle -----------------------------------------------------------------

def test_oracle_matches_ideal_fidelity():
    fid = memory.single_excitation_oracle(config(), memory.optimal_profile(1 / 3))
    assert fid == pytest.approx(0.969, abs=2e-3)


def test_oracle_decoupled():
    flat_pi = memory.SampledProfile(np.array([0.0, 25.0]),
                                    np.array([math.pi, math.pi]), tau_c=0.0)
    assert memory.single_excitation_oracle(config(), flat_pi) == pytest.approx(0.0, abs=1e-12)


@st.composite
def monotone_profiles(draw):
    """The optimal profile on a `discretize_profile` staircase under a random
    slope cap, or a random monotone `SampledProfile`.

    The random profile's knots lie anywhere, at least 0.05 apart, and climb at
    most 5 rad per unit tau.  A knot inside an integration step costs the
    fixed-step integrator an order: at slopes up to 23, two knots 0.1 apart
    put it 1.8e-6 off the oracle, while a search targeted at the error over
    600 of these profiles found at most 2.4e-7.
    """
    if draw(st.booleans()):
        cap = draw(st.floats(0.2, 1000.0))
        return memory.discretize_profile(memory.optimal_profile(1 / 3), cap, 25.0)
    tau_c = draw(st.floats(0.1, 0.6))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=20))
    slopes = draw(st.lists(st.floats(0.0, 5.0), min_size=len(gaps), max_size=len(gaps)))
    thetas = np.minimum(np.cumsum(np.multiply(gaps, slopes)), math.pi)
    return memory.SampledProfile(np.concatenate(([0.0, tau_c], tau_c + np.cumsum(gaps))),
                                 np.concatenate(([0.0, 0.0], thetas)), tau_c=tau_c)


@settings(max_examples=25, deadline=None)
@given(monotone_profiles())
def test_oracle_agrees_with_integrator_on_random_profiles(prof):
    cfg = config()
    sim = memory.simulate_transfer(cfg, prof).fidelity
    orc = memory.single_excitation_oracle(cfg, prof)
    assert abs(sim - orc) < 1e-6


def test_oracle_preconditions():
    with pytest.raises(DomainError):
        memory.single_excitation_oracle(config(kappa_i=1.0), memory.optimal_profile(1 / 3))
    with pytest.raises(DomainError):
        memory.single_excitation_oracle(config(delta_f=10 * NS), memory.optimal_profile(1 / 3))


@pytest.mark.parametrize("budget,bin_width", [(1 << 20, 25e-6), (memory._WORK_BYTES, 1e-300)],
                         ids=["1e6-bins", "1e-300"])
def test_oracle_refuses_bins_over_the_work_budget(monkeypatch, budget, bin_width):
    # refused before anything is allocated: the profile is never evaluated
    monkeypatch.setattr(memory, "_WORK_BYTES", budget)
    unread = SimpleNamespace(theta=lambda tau: pytest.fail("the profile was evaluated"))
    with pytest.raises(DomainError, match="work budget"):
        memory.single_excitation_oracle(config(), unread, bin_width)


# the horizon is 25: a wider bin leaves at most one bin, or none, and F reads about 0
@pytest.mark.parametrize("bin_width", [0.0, -1e-4, math.nan, math.inf, 30.0, 100.0])
def test_oracle_refuses_bad_bin_width(bin_width):
    with pytest.raises(DomainError, match="bin width"):
        memory.single_excitation_oracle(config(), memory.optimal_profile(1 / 3), bin_width)


# --- config validation --------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(DomainError):
        config(horizon=0.1)  # below the critical time
    with pytest.raises(DomainError):
        memory.TransferConfig(kappa_e=KAPPA_E, r=5 * KAPPA_E)
    with pytest.raises(DomainError):
        memory.TransferConfig(kappa_e=0.0, r=1.0)
    with pytest.raises(DomainError):
        config(delta_f=-1e-9)


def test_config_from_json_units():
    cfg = memory.TransferConfig.from_json({
        "kappa_e_hz": 300e3, "r_hz": 100e3, "kappa_i_hz": 0.0,
        "delta_f_ns": 60, "delta_m_ns": 21, "delta_c_ns": -34,
        "horizon": 30.0, "slope_cap": 23.0,
    })
    assert cfg.kappa_e == pytest.approx(2 * math.pi * 300e3)
    assert cfg.ratio == pytest.approx(1 / 3)
    assert cfg.delta_f == pytest.approx(60e-9)
    assert cfg.delta_c == pytest.approx(-34e-9)
    assert cfg.horizon == 30.0 and cfg.slope_cap == 23.0


def test_config_from_json_rejects_unknown_keys():
    with pytest.raises(DomainError):
        memory.TransferConfig.from_json({"kappa_e_hz": 1.0, "r_hz": 0.3, "bogus": 1})
