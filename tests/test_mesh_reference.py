"""Wavefront elimination and layered application against the per-element loops."""

import math

import numpy as np
import pytest

import mesh_reference as ref
from phoncirc import circuits as cc

TOL = 1e-12


def wrapped(d):
    """Distance mod 2 pi."""
    return np.abs(np.angle(np.exp(1j * np.asarray(d))))


def assert_same_plan(new, old):
    assert np.array_equal(new.top, [e.top for e in old.elements])
    theta = np.array([e.theta for e in old.elements])
    phi = np.array([e.phi for e in old.elements])
    assert np.all(np.abs(new.theta - theta) <= TOL)
    assert np.all(wrapped(new.screen - old.screen) <= TOL)
    # phi is the phase difference of the two pivot entries, so where one of
    # them nearly vanishes (theta near 0 or pi) rounding moves it by
    # ~1e-16 / sin(theta); weight by sin(theta) to compare what is determined
    assert np.all(wrapped(new.phi - phi) * np.abs(np.sin(theta)) <= TOL)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 33, 64, 256])
def test_haar_plans_match(n):
    u = cc.haar_unitary(n, np.random.default_rng(100 + n))
    new, old = cc.reck_decompose(u), ref.reck_decompose(u)
    assert_same_plan(new, old)
    assert np.max(np.abs(new.matrix() - u)) <= TOL


def test_mzi_unitary_matches_scalar_formula():
    rng = np.random.default_rng(11)
    angles = rng.uniform(-2 * math.pi, 2 * math.pi, (2000, 2)).tolist()
    angles += [[0.0, 0.0], [math.pi, 0.0], [0.0, 1.3], [math.pi, -2.1]]
    for theta, phi in angles:
        assert np.max(np.abs(cc.mzi_unitary(theta, phi) - ref.mzi_unitary(theta, phi))) <= 1e-15


def degenerate_counts(plan):
    bar = sum(e.theta == math.pi and e.phi == 0.0 for e in plan.elements)
    cross = sum(e.theta == 0.0 and e.phi == 0.0 for e in plan.elements)
    return bar, cross


def test_structured_inputs_hit_both_degenerate_branches():
    n = 6
    identity = np.eye(n, dtype=complex)
    permutation = identity[[3, 0, 5, 1, 4, 2]] * np.exp(1j * np.arange(n))
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    block = np.zeros((n, n), dtype=complex)
    block[:2, :2] = h
    block[2:5, 2:5] = cc.haar_unitary(3, np.random.default_rng(1))
    block[5, 5] = 1j
    bars = crosses = 0
    for u in (identity, permutation, block):
        new, old = cc.reck_decompose(u), ref.reck_decompose(u)
        assert_same_plan(new, old)
        assert degenerate_counts(new) == degenerate_counts(old)
        assert np.max(np.abs(new.matrix() - u)) <= TOL
        bar, cross = degenerate_counts(new)
        bars, crosses = bars + bar, crosses + cross
    assert bars > 0 and crosses > 0


def random_plan(rng, n, k):
    """A plan in no mesh order: random ports, repeated and adjacent."""
    top = rng.integers(0, n - 1, size=k)
    theta = rng.uniform(-2 * math.pi, 2 * math.pi, size=k)
    phi = rng.uniform(-2 * math.pi, 2 * math.pi, size=k)
    return cc.MeshPlan(rng.uniform(-math.pi, math.pi, size=n), top, theta, phi)


@pytest.mark.parametrize("n, k", [(2, 5), (3, 17), (7, 60), (16, 300)])
def test_layered_apply_matches_element_loop(n, k):
    rng = np.random.default_rng(n * 1000 + k)
    plan = random_plan(rng, n, k)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cols = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for inp in (x, cols, np.eye(n, dtype=complex)):
        got = cc.mesh_apply(plan, inp)
        assert got.shape == inp.shape
        assert np.max(np.abs(got - ref.mesh_apply(plan, inp))) <= TOL


def test_layered_apply_leaves_input_untouched():
    rng = np.random.default_rng(5)
    plan = random_plan(rng, 5, 20)
    x = rng.standard_normal((5, 2)) + 0j
    before = x.copy()
    cc.mesh_apply(plan, x)
    assert np.array_equal(x, before)
