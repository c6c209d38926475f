"""SLH node constructors, composition rules, and the tunable-coupling loop."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from phoncirc import slh
from phoncirc.errors import DomainError, PortMismatch, SingularLoop

KAPPA_E = 2 * math.pi * 300e3
KAPPA_I = 2 * math.pi * 1.0


def random_passive_triplet(rng, n_ports, n_modes):
    z = rng.standard_normal((n_ports, n_ports)) + 1j * rng.standard_normal((n_ports, n_ports))
    q, r = np.linalg.qr(z)
    s = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    length = rng.standard_normal((n_ports, n_modes)) + 1j * rng.standard_normal((n_ports, n_modes))
    h = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal((n_modes, n_modes))
    return slh.SLHTriplet(s, length, (h + h.conj().T) / 2)


def triplets_close(a, b, tol=1e-12):
    def same(x, y):
        return x.shape == y.shape and (x.size == 0 or np.max(np.abs(x - y)) < tol)
    return same(a.S, b.S) and same(a.L, b.L) and same(a.H, b.H)


# --- node constructors ----------------------------------------------------------

def test_cavity_node_structure():
    g = slh.cavity_node(KAPPA_E, KAPPA_I)
    assert g.n_ports == 3 and g.n_modes == 1
    assert np.array_equal(g.S, np.eye(3))
    assert np.allclose(g.L[:, 0], [math.sqrt(KAPPA_E), math.sqrt(KAPPA_E), math.sqrt(KAPPA_I)])
    assert g.H[0, 0] == 0.0


def test_cavity_node_zero_rates():
    g = slh.cavity_node(0.0, 0.0)
    assert np.all(g.L == 0.0)


def test_cavity_node_detuning():
    g = slh.cavity_node(KAPPA_E, 0.0, detuning=-KAPPA_E * math.sin(math.pi / 2))
    assert g.H[0, 0] == pytest.approx(-KAPPA_E)


def test_cavity_node_rejects_negative_rates():
    with pytest.raises(DomainError):
        slh.cavity_node(-1.0, 0.0)


def test_non_finite_triplets_rejected():
    for rate in (math.nan, math.inf):
        with pytest.raises(DomainError):
            slh.cavity_node(KAPPA_E, rate)
        with pytest.raises(DomainError):
            slh.cavity_node(rate, KAPPA_I)
    with pytest.raises(DomainError):
        slh.cavity_node(KAPPA_E, KAPPA_I, detuning=math.nan)
    with pytest.raises(DomainError):
        slh.phase_node(math.nan)
    eye, col, one = np.eye(2), np.ones((2, 1)), np.zeros((1, 1))
    for bad in ((np.diag([1.0, math.nan]), col, one), (np.diag([1.0, math.inf]), col, one),
                (eye, col * math.inf, one), (eye, col, one + math.nan),
                (eye, col, one + math.inf), (eye, col, one + 1j * math.inf)):
        with pytest.raises(DomainError):
            slh.SLHTriplet(*bad)


def test_phase_node():
    assert slh.phase_node(0.0).S[0, 0] == 1.0
    assert slh.phase_node(math.pi).S[0, 0] == pytest.approx(-1.0)
    for theta in (0.3, 2.0, -1.1):
        assert abs(slh.phase_node(theta).S[0, 0]) == pytest.approx(1.0)


def test_trivial_node():
    two = slh.trivial_node(2)
    assert np.array_equal(two.S, np.eye(2)) and two.n_modes == 0
    assert slh.trivial_node(1).S[0, 0] == 1.0
    joined = slh.concatenate(slh.trivial_node(1), slh.trivial_node(1))
    assert triplets_close(joined, two)
    with pytest.raises(DomainError):
        slh.trivial_node(0)


# --- concatenation and series ----------------------------------------------------

def test_concatenate_phase_with_trivial():
    theta = 0.77
    g = slh.concatenate(slh.phase_node(theta), slh.trivial_node(2))
    assert g.n_ports == 3
    assert np.allclose(np.diagonal(g.S), [cmath.exp(1j * theta), 1.0, 1.0])


def test_concatenate_counts_add():
    rng = np.random.default_rng(0)
    a = random_passive_triplet(rng, 2, 1)
    b = random_passive_triplet(rng, 3, 2)
    g = slh.concatenate(a, b)
    assert g.n_ports == 5 and g.n_modes == 3


def test_series_phases_compose():
    a, b = 0.4, 1.3
    g = slh.series(slh.phase_node(b), slh.phase_node(a))
    assert g.S[0, 0] == pytest.approx(cmath.exp(1j * (a + b)))


def test_series_identity():
    rng = np.random.default_rng(1)
    g = random_passive_triplet(rng, 3, 2)
    assert triplets_close(slh.series(slh.trivial_node(3), g), g)
    assert triplets_close(slh.series(g, slh.trivial_node(3)), g)


def test_series_port_mismatch():
    with pytest.raises(PortMismatch):
        slh.series(slh.trivial_node(2), slh.trivial_node(3))


def test_compositions_preserve_structure():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = random_passive_triplet(rng, 3, 2)
        b = random_passive_triplet(rng, 3, 1)
        for g in (slh.series(b, a), slh.concatenate(a, b),
                  slh.feedback(slh.series(b, a), 1, 2)):
            n = g.n_ports
            assert np.max(np.abs(g.S @ g.S.conj().T - np.eye(n))) < 1e-10
            assert np.max(np.abs(g.H - g.H.conj().T)) < 1e-10


def test_series_associative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_passive_triplet(rng, 2, 1)
        b = random_passive_triplet(rng, 2, 2)
        c = random_passive_triplet(rng, 2, 1)
        left = slh.series(slh.series(c, b), a)
        right = slh.series(c, slh.series(b, a))
        assert triplets_close(left, right, tol=1e-11)


def test_concatenate_associative():
    rng = np.random.default_rng(4)
    a = random_passive_triplet(rng, 1, 1)
    b = random_passive_triplet(rng, 2, 1)
    c = random_passive_triplet(rng, 1, 2)
    assert triplets_close(slh.concatenate(slh.concatenate(a, b), c),
                          slh.concatenate(a, slh.concatenate(b, c)))


def test_concatenate_block_layout():
    # S, L and H of g1 sit in the top-left blocks and those of g2 in the
    # bottom-right ones, for zero-mode nodes too
    rng = np.random.default_rng(5)
    for p1, m1, p2, m2 in [(1, 0, 2, 0), (2, 1, 1, 0), (1, 0, 3, 2), (2, 2, 3, 1), (3, 1, 2, 3)]:
        g1 = random_passive_triplet(rng, p1, m1)
        g2 = random_passive_triplet(rng, p2, m2)
        g = slh.concatenate(g1, g2)
        for got, a, b in ((g.S, g1.S, g2.S), (g.L, g1.L, g2.L), (g.H, g1.H, g2.H)):
            want = np.block([[a, np.zeros((a.shape[0], b.shape[1]))],
                             [np.zeros((b.shape[0], a.shape[1])), b]])
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


# --- feedback ---------------------------------------------------------------------

def test_feedback_uncorrected_loop_closed_form():
    for theta in (0.0, 0.4, 1.9, math.pi, 5.0):
        chain = slh.series(slh.concatenate(slh.phase_node(theta), slh.trivial_node(2)),
                           slh.cavity_node(KAPPA_E, KAPPA_I))
        got = slh.feedback(chain, out_port=1, in_port=2)
        want = slh.tunable_coupling_closed_form(theta, KAPPA_E, KAPPA_I, corrected=False)
        scale = math.sqrt(KAPPA_E)
        assert np.max(np.abs(got.S - want.S)) < 1e-12
        assert np.max(np.abs(got.L - want.L)) < 1e-12 * scale
        assert np.max(np.abs(got.H - want.H)) < 1e-12 * KAPPA_E


def test_feedback_unit_gain_loop_raises():
    swap = slh.SLHTriplet(np.array([[0.0, 1.0], [1.0, 0.0]]),
                          np.zeros((2, 0)), np.zeros((0, 0)))
    with pytest.raises(SingularLoop):
        slh.feedback(swap, out_port=1, in_port=2)


def test_feedback_same_port_rejected():
    with pytest.raises(DomainError):
        slh.feedback(slh.trivial_node(2), 1, 1)


def test_feedback_pass_through_on_trivial():
    # distinct-port feedback on the trivial 2-port has zero loop gain and
    # reduces to a single pass-through channel
    g = slh.feedback(slh.trivial_node(2), 1, 2)
    assert g.n_ports == 1 and g.S[0, 0] == pytest.approx(1.0)


def test_corrected_loop_matches_closed_form():
    rng = np.random.default_rng(5)
    for theta in rng.uniform(0.0, 2 * math.pi, 100):
        got = slh.tunable_coupling_loop(theta, KAPPA_E, KAPPA_I)
        want = slh.tunable_coupling_closed_form(theta, KAPPA_E, KAPPA_I)
        assert np.max(np.abs(got.S - want.S)) < 1e-12
        assert np.max(np.abs(got.L - want.L)) < 1e-12 * math.sqrt(KAPPA_E)
        assert np.max(np.abs(got.H)) < 1e-12 * KAPPA_E


def test_input_output_relation_emerges():
    # a_out = a_in + 2 sqrt(kappa_e) cos(theta/2) a_c: identity scattering
    # plus a real coupling row, with no special-casing in the composition
    theta = 1.1
    g = slh.tunable_coupling_loop(theta, KAPPA_E, 0.0)
    assert np.allclose(g.S, np.eye(2), atol=1e-12)
    expected = 2 * math.sqrt(KAPPA_E) * math.cos(theta / 2)
    assert g.L[0, 0] == pytest.approx(expected, abs=1e-9)
    assert abs(g.L[0, 0].imag) < 1e-9


# --- master equation coefficients -------------------------------------------------

def test_master_eq_corrected_network():
    theta = 0.8
    g = slh.tunable_coupling_loop(theta, KAPPA_E, KAPPA_I)
    eq = slh.master_eq_coeffs(g)
    drift = -0.5 * (4 * KAPPA_E * math.cos(theta / 2) ** 2 + KAPPA_I)
    assert eq.drift[0, 0] == pytest.approx(drift, rel=1e-12)
    assert eq.input_coupling[0, 0] == pytest.approx(-2 * math.sqrt(KAPPA_E) * math.cos(theta / 2), rel=1e-12)
    assert eq.input_coupling[0, 1] == pytest.approx(-math.sqrt(KAPPA_I), rel=1e-12)


def test_master_eq_decoupled_at_pi():
    g = slh.tunable_coupling_loop(math.pi, KAPPA_E, KAPPA_I)
    eq = slh.master_eq_coeffs(g)
    assert eq.drift[0, 0] == pytest.approx(-0.5 * KAPPA_I, abs=1e-6)
    assert abs(eq.input_coupling[0, 0]) < 1e-6


def test_master_eq_uncorrected_network():
    theta = 0.6
    g = slh.tunable_coupling_loop(theta, KAPPA_E, KAPPA_I, corrected=False)
    eq = slh.master_eq_coeffs(g)
    want = (-1j * KAPPA_E * math.sin(theta)
            - KAPPA_E * (1 + math.cos(theta)) - 0.5 * KAPPA_I)
    assert eq.drift[0, 0] == pytest.approx(want, rel=1e-12)
    assert eq.input_coupling[0, 0] == pytest.approx(
        -math.sqrt(KAPPA_E) * (1 + cmath.exp(1j * theta)), rel=1e-12)


def test_drift_eigenvalues_passive():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_passive_triplet(rng, 2, 2)
        eq = slh.master_eq_coeffs(g)
        assert np.all(np.linalg.eigvals(eq.drift).real <= 1e-10)


# --- effective rate -----------------------------------------------------------------

def test_effective_rate():
    assert slh.effective_rate(0.0, KAPPA_E) == pytest.approx(4 * KAPPA_E)
    assert slh.effective_rate(math.pi, KAPPA_E) == pytest.approx(0.0, abs=1e-9)
    assert slh.effective_rate(math.pi / 2, KAPPA_E) == pytest.approx(2 * KAPPA_E)
    assert slh.effective_rate(0.9, KAPPA_E) == pytest.approx(
        abs(2 * cmath.exp(0.45j) * math.sqrt(KAPPA_E) * math.cos(0.45)) ** 2, rel=1e-12)


@pytest.mark.parametrize("theta, kappa_e", [(0.3, math.nan), (0.3, math.inf),
                                             (math.nan, KAPPA_E), (0.3, -1.0)])
def test_effective_rate_refuses_bad_arguments(theta, kappa_e):
    with pytest.raises(DomainError):
        slh.effective_rate(theta, kappa_e)


# --- network description runner ------------------------------------------------------

def loop_network_doc(theta):
    return {
        "nodes": [
            {"name": "cav", "kind": "cavity",
             "params": {"kappa_e_hz": 300e3, "kappa_i_hz": 1.0}},
            {"name": "ph", "kind": "phase", "params": {"theta_rad": theta}},
            {"name": "t2", "kind": "trivial", "params": {"n": 2}},
        ],
        "script": [
            {"op": "concat", "args": ["ph", "t2"], "name": "stage"},
            {"op": "series", "args": ["stage", "cav"], "name": "chain"},
            {"op": "feedback", "args": ["chain", 1, 2]},
        ],
    }


def test_run_network_loop_matches_closed_form():
    theta = 1.3
    got = slh.run_network(loop_network_doc(theta))
    want = slh.tunable_coupling_closed_form(theta, KAPPA_E, KAPPA_I, corrected=False)
    assert np.max(np.abs(got.S - want.S)) < 1e-12
    assert np.max(np.abs(got.L - want.L)) < 1e-9


def test_run_network_echoes_single_node():
    doc = {"nodes": [{"name": "p", "kind": "phase", "params": {"theta_rad": 0.5}}],
           "script": []}
    got = slh.run_network(doc)
    assert got.S[0, 0] == pytest.approx(cmath.exp(0.5j))


@pytest.mark.parametrize("name", ["", "p", "s"], ids=["empty", "node", "earlier-step"])
def test_run_network_refuses_a_step_name_that_is_empty_or_taken(name):
    # a step named "p" would rebind the phase node, and the next concat [p, t]
    # would return 3 ports instead of 2; an empty name was dropped silently
    doc = {"nodes": [{"name": "p", "kind": "phase", "params": {"theta_rad": 0.5}},
                     {"name": "t", "kind": "trivial"}],
           "script": [{"op": "concat", "args": ["p", "t"], "name": "s"},
                      {"op": "concat", "args": ["p", "t"], "name": name},
                      {"op": "concat", "args": ["p", "t"]}]}
    with pytest.raises(DomainError, match="step name"):
        slh.run_network(doc)
    doc["script"][1]["name"] = None
    assert slh.run_network(doc).n_ports == 2


def test_run_network_rejects_unknown_kind():
    with pytest.raises(DomainError):
        slh.run_network({"nodes": [{"name": "x", "kind": "squeezer", "params": {}}]})


# --- random networks: run_network against the same calls made directly ------------------

_HZ = st.floats(0.0, 1e6)
_NODE_PARAMS = {
    "cavity": st.fixed_dictionaries({"kappa_e_hz": _HZ, "kappa_i_hz": _HZ,
                                     "detuning_hz": st.floats(-1e6, 1e6)}),
    "phase": st.fixed_dictionaries({"theta_rad": st.floats(-2 * math.pi, 2 * math.pi)}),
    "trivial": st.fixed_dictionaries({"n": st.integers(1, 3)}),
}


def _direct_node(kind, params):
    if kind == "cavity":
        return slh.cavity_node(2.0 * math.pi * params["kappa_e_hz"],
                               2.0 * math.pi * params["kappa_i_hz"],
                               2.0 * math.pi * params["detuning_hz"])
    if kind == "phase":
        return slh.phase_node(params["theta_rad"])
    return slh.trivial_node(params["n"])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_network_matches_direct_calls(data):
    doc = {"nodes": [], "script": []}
    direct = {}
    for k in range(data.draw(st.integers(1, 4), label="nodes")):
        kind = data.draw(st.sampled_from(sorted(_NODE_PARAMS)), label="kind")
        params = data.draw(_NODE_PARAMS[kind], label="params")
        doc["nodes"].append({"name": f"n{k}", "kind": kind, "params": params})
        direct[f"n{k}"] = last = _direct_node(kind, params)
    for k in range(data.draw(st.integers(0, 5), label="steps")):
        names = sorted(direct)
        ports = {name: direct[name].n_ports for name in names}
        ops = {"concat": [[a, b] for a in names for b in names if ports[a] + ports[b] <= 6],
               "series": [[a, b] for a in names for b in names if ports[a] == ports[b]],
               "feedback": [[a, i, j] for a in names for i in range(1, ports[a] + 1)
                            for j in range(1, ports[a] + 1) if i != j]}
        op = data.draw(st.sampled_from([op for op in sorted(ops) if ops[op]]), label="op")
        args = data.draw(st.sampled_from(ops[op]), label="args")
        try:
            if op == "concat":
                last = slh.concatenate(direct[args[0]], direct[args[1]])
            elif op == "series":
                # args are [downstream, upstream], as in series(g2, g1)
                last = slh.series(direct[args[0]], direct[args[1]])
            else:
                # feedback ports are 1-based
                last = slh.feedback(direct[args[0]], args[1], args[2])
        except SingularLoop:
            assume(False)
        doc["script"].append({"op": op, "args": args, "name": f"s{k}"})
        direct[f"s{k}"] = last
    got = slh.run_network(doc)
    for a, b in ((got.S, last.S), (got.L, last.L), (got.H, last.H)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
