"""The block recurrence against the per-step RK4 loops it replaced."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rk4_reference as ref
from phoncirc import memory

KAPPA_E = 2 * math.pi * 300e3
NS = 1e-9
TOL = 1e-12


def config(ratio=1 / 3, kappa_i=0.0, **kw):
    return memory.TransferConfig(kappa_e=KAPPA_E, r=ratio * KAPPA_E,
                                 kappa_i=kappa_i, **kw)


def assert_same(new, old):
    assert abs(new.fidelity - old.fidelity) <= TOL
    assert abs(new.reflected_fraction - old.reflected_fraction) <= TOL
    assert abs(new.intrinsic_fraction - old.intrinsic_fraction) <= TOL
    assert np.array_equal(new.tau, old.tau)
    assert np.max(np.abs(new.amplitude - old.amplitude)) <= TOL


def optimal():
    return memory.optimal_profile(1 / 3)


def capped():
    return memory.discretize_profile(optimal(), slope_cap=12.0)


@pytest.mark.parametrize("cfg, profile", [
    (config(), optimal()),
    (config(), capped()),
    (config(kappa_i=0.02 * KAPPA_E), optimal()),
], ids=["optimal", "slope-capped", "kappa_i"])
def test_delay_free_matches_reference(cfg, profile):
    new = memory.simulate_transfer(cfg, profile)
    assert_same(new, ref.simulate_transfer(cfg, profile))
    assert np.all(new.amplitude.imag == 0.0)


@pytest.mark.parametrize("cfg", [
    config(delta_m=21 * NS, delta_c=-34 * NS, horizon=10.0),
    config(kappa_i=2 * math.pi, delta_f=20 * NS, delta_m=7 * NS, delta_c=-11 * NS,
           horizon=10.0),
    config(kappa_i=2 * math.pi, delta_f=60 * NS, delta_m=21 * NS, delta_c=-34 * NS,
           horizon=10.0),
], ids=["zero-lag-fold", "delay-20ns", "delay-60ns"])
def test_retarded_matches_reference(cfg):
    new = memory.simulate_with_delay(cfg, optimal())
    assert_same(new, ref.simulate_with_delay(cfg, optimal()))


@pytest.mark.parametrize("cfg", [
    config(kappa_i=1000 * KAPPA_E, horizon=10.0),
    config(kappa_i=1000 * KAPPA_E, delta_c=-34 * NS, horizon=10.0),
    config(kappa_i=1000 * KAPPA_E, delta_f=60 * NS, delta_m=21 * NS, delta_c=-34 * NS,
           horizon=10.0),
], ids=["delay-free", "zero-lag", "delay-60ns"])
def test_heavy_loss_matches_reference(cfg):
    # |P| is about e^-1 per step, so a whole-chunk scan block would underflow
    # its running product; the blocks end at the e^-600 floor instead
    run, reference = ((memory.simulate_with_delay, ref.simulate_with_delay) if cfg.delta_c
                      else (memory.simulate_transfer, ref.simulate_transfer))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = run(cfg, optimal())
    assert [str(w.message) for w in caught] == []
    assert 0.0 < new.fidelity < 1e-8
    old = reference(cfg, optimal())
    assert_same(new, old)
    # F is about 3e-14 here, so the absolute TOL alone would pass any F below it
    assert abs(new.fidelity - old.fidelity) <= TOL * old.fidelity
    assert np.max(np.abs(new.amplitude - old.amplitude)) <= TOL * np.max(np.abs(old.amplitude))


def test_long_delay_cuts_its_blocks_and_matches_reference():
    # a 700 ns delay gives 659-step blocks; at |P| about e^-1 per step each
    # is cut before its running product leaves e^-600
    cfg = config(kappa_i=1000 * KAPPA_E, delta_f=700 * NS, delta_m=233 * NS,
                 delta_c=-350 * NS, horizon=3.0)
    tables, n = memory._retarded(cfg, optimal(), np.array([cfg.delta_m]),
                                 np.array([cfg.delta_c]), None)
    block = memory._block_length(1, tables.n_sub)
    tables.load(0, 2 * n)
    assert block == 659 and len(memory._scan_blocks(tables.p.reshape(-1), block)) > -(-n // block)
    new = memory.simulate_with_delay(cfg, optimal())
    old = ref.simulate_with_delay(cfg, optimal())
    assert_same(new, old)
    assert abs(new.fidelity - old.fidelity) <= TOL * old.fidelity
    assert np.max(np.abs(new.amplitude - old.amplitude)) <= TOL * np.max(np.abs(old.amplitude))


@settings(max_examples=20, deadline=None)
@given(delta_f=st.floats(20.0, 60.0), lag_m=st.floats(-1.0, 1.0), lag_c=st.floats(-1.0, 1.0),
       slope_capped=st.booleans(),
       kappa_i=st.sampled_from([0.0, 2 * math.pi, 1000 * KAPPA_E]),
       horizon=st.floats(0.5, 3.0), log_l_bound=st.sampled_from([None, 8.0]))
def test_one_cell_delayed_runs_match_reference(delta_f, lag_m, lag_c, slope_capped, kappa_i,
                                               horizon, log_l_bound):
    # lags up to one round trip either way; a run ends mid-block unless its
    # step count happens to divide.  A lowered |L| bound cuts the heavy-loss
    # blocks (|P| about e^-1 per step) into pieces of about 8 steps.
    cfg = config(kappa_i=kappa_i, delta_f=delta_f * NS, delta_m=lag_m * delta_f * NS,
                 delta_c=lag_c * delta_f * NS, horizon=horizon)
    profile = capped() if slope_capped else optimal()
    with mock.patch.object(memory, "_SCAN_LOG_L", log_l_bound or memory._SCAN_LOG_L):
        new = memory.simulate_with_delay(cfg, profile)
    old = ref.simulate_with_delay(cfg, profile)
    assert_same(new, old)
    if old.fidelity < 1e-8:
        assert abs(new.fidelity - old.fidelity) <= TOL * old.fidelity
        assert np.max(np.abs(new.amplitude - old.amplitude)) <= TOL * np.max(np.abs(old.amplitude))


def test_smallest_delay_uses_twenty_substeps():
    h, n_sub = memory._delay_step(KAPPA_E * 20 * NS, None)
    assert n_sub == 20


def test_partial_last_block_matches_reference():
    cfg = config(delta_f=60 * NS, delta_m=10 * NS, delta_c=-20 * NS, horizon=2.9)
    h, n_sub = memory._delay_step(KAPPA_E * cfg.delta_f, None)
    n = memory._ode_step_count(cfg.horizon, h)
    assert n % memory._block_length(1, n_sub) != 0
    assert n % memory._block_length(1, 0) != 0
    assert_same(memory.simulate_with_delay(cfg, capped()),
                ref.simulate_with_delay(cfg, capped()))
    free = config(horizon=2.9)
    assert_same(memory.simulate_transfer(free, optimal()),
                ref.simulate_transfer(free, optimal()))


@pytest.mark.parametrize("delta_f", [0.0, 60 * NS], ids=["zero-lag", "delay-60ns"])
def test_small_grid_matches_reference(delta_f):
    cfg = config(kappa_i=2 * math.pi, delta_f=delta_f, horizon=10.0)
    dm = np.linspace(0.0, 40.0, 5) * NS
    dc = np.linspace(-45.0, -15.0, 4) * NS
    scan = memory.optimize_delays(cfg, optimal(), dm, dc)
    want = ref.fidelity_grid(cfg, optimal(), dm, dc)
    assert scan.fidelity_grid.shape == (5, 4)
    assert np.max(np.abs(scan.fidelity_grid - want)) <= TOL
