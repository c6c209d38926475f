"""MZI algebra, triangular mesh synthesis, calibration, and the mirror predicate."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phoncirc import circuits as cc
from phoncirc.errors import DimensionMismatch, DomainError, NotUnitary, OutOfRange


# --- elementary blocks ----------------------------------------------------------

def test_mzi_unitary_is_unitary():
    rng = np.random.default_rng(0)
    for theta, phi in rng.uniform(-2 * math.pi, 2 * math.pi, (50, 2)):
        u = cc.mzi_unitary(theta, phi)
        assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-14
        assert abs(np.linalg.det(u)) == pytest.approx(1.0, abs=1e-14)


def test_mzi_bar_state():
    u = cc.mzi_unitary(math.pi, 0.0)
    assert np.allclose(u, 1j * np.diag([1.0, -1.0]), atol=1e-15)


def test_mzi_single_input_power_split():
    for theta in (0.0, 0.4, 1.2, math.pi):
        u = cc.mzi_unitary(theta, 0.7)
        assert abs(u[0, 0]) ** 2 == pytest.approx((1 - math.cos(theta)) / 2, abs=1e-14)


def test_beam_splitter():
    b = cc.beam_splitter()
    assert np.max(np.abs(b.conj().T @ b - np.eye(2))) < 1e-15
    out = b @ np.array([1.0, 0.0])
    assert abs(out[0]) ** 2 == pytest.approx(0.5) and abs(out[1]) ** 2 == pytest.approx(0.5)
    # two consecutive couplers make a phased swap
    assert np.allclose(b @ b, 1j * np.array([[0, 1], [1, 0]]), atol=1e-15)


def test_primitive_composition_equals_block():
    rng = np.random.default_rng(1)
    for theta, phi in rng.uniform(-math.pi, math.pi, (100, 2)):
        direct = cc.mzi_unitary(theta, phi)
        built = cc.mzi_from_primitives(theta, phi)
        ratio = built[np.abs(direct) > 0.3][0] / direct[np.abs(direct) > 0.3][0]
        assert abs(abs(ratio) - 1.0) < 1e-12
        assert np.max(np.abs(built - ratio * direct)) < 1e-12
        # with this primitive ordering the global phase is exactly one
        assert np.max(np.abs(built - direct)) < 1e-12


def test_primitive_cross_and_bar_limits():
    cross = cc.mzi_from_primitives(0.0, 0.0)
    assert abs(cross[0, 0]) < 1e-15 and abs(cross[1, 0]) == pytest.approx(1.0)
    bar = cc.mzi_from_primitives(math.pi, 0.0)
    assert abs(bar[1, 0]) < 1e-15 and abs(bar[0, 0]) == pytest.approx(1.0)


def test_switch_output_powers():
    for theta in (-1.2, 0.0, 0.3, 1.5):
        p1, p2 = cc.switch_output_powers(theta)
        assert p1 == pytest.approx((1 + math.sin(theta)) / 2, abs=1e-14)
        assert p2 == pytest.approx((1 - math.sin(theta)) / 2, abs=1e-14)
        assert p1 + p2 == pytest.approx(1.0, abs=1e-15)


# --- mesh decomposition -------------------------------------------------------------

def test_single_mode_decomposition():
    plan = cc.reck_decompose(np.array([[np.exp(0.7j)]]))
    assert len(plan.elements) == 0
    assert plan.screen[0] == pytest.approx(0.7)


def test_two_mode_roundtrip():
    rng = np.random.default_rng(2)
    u = cc.haar_unitary(2, rng)
    plan = cc.reck_decompose(u)
    assert len(plan.elements) == 1 and plan.screen.size == 2
    assert np.max(np.abs(plan.matrix() - u)) < 1e-12


def test_six_mode_plan_size():
    u = cc.haar_unitary(6, np.random.default_rng(3))
    plan = cc.reck_decompose(u)
    assert len(plan.elements) == 15  # N(N-1)/2
    assert np.max(np.abs(plan.matrix() - u)) < 1e-10


def test_identity_decomposes_to_transparent_mesh():
    plan = cc.reck_decompose(np.eye(4))
    assert np.max(np.abs(plan.matrix() - np.eye(4))) < 1e-14
    # every pivot is degenerate; all elements sit at the bar point
    assert all(e.theta == math.pi and e.phi == 0.0 for e in plan.elements)


def test_decomposition_is_deterministic():
    u = cc.haar_unitary(5, np.random.default_rng(4))
    a = cc.reck_decompose(u)
    b = cc.reck_decompose(u)
    assert np.array_equal(a.screen, b.screen)
    assert a.elements == b.elements


def test_canonical_ranges():
    rng = np.random.default_rng(5)
    plan = cc.reck_decompose(cc.haar_unitary(7, rng))
    for e in plan.elements:
        assert 0.0 <= e.theta <= math.pi
        assert -math.pi < e.phi <= math.pi


def test_reck_rejects_non_unitary():
    with pytest.raises(NotUnitary):
        cc.reck_decompose(np.eye(3) * 1.01)
    with pytest.raises(NotUnitary):
        cc.reck_decompose(np.diag([1.0, np.nan, 1.0]))
    with pytest.raises(DimensionMismatch):
        cc.reck_decompose(np.zeros((2, 3)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
def test_roundtrip_randomized_sizes(n, seed):
    u = cc.haar_unitary(n, np.random.default_rng(seed))
    plan = cc.reck_decompose(u)
    assert plan.top.size == n * (n - 1) // 2
    assert np.max(np.abs(plan.matrix() - u)) <= 1e-10
    again = cc.MeshPlan.from_json(plan.to_json())
    for name in ("screen", "top", "theta", "phi"):
        assert np.array_equal(getattr(again, name), getattr(plan, name))


# --- mesh application -----------------------------------------------------------------

def test_mesh_apply_identity_plan():
    plan = cc.MeshPlan(np.zeros(3), [], [], [])
    x = np.array([1.0, 2.0, 3.0], dtype=complex)
    assert np.array_equal(cc.mesh_apply(plan, x), x)


def test_mesh_apply_reproduces_columns():
    rng = np.random.default_rng(7)
    u = cc.haar_unitary(5, rng)
    plan = cc.reck_decompose(u)
    for k in range(5):
        e = np.zeros(5, dtype=complex)
        e[k] = 1.0
        assert np.max(np.abs(cc.mesh_apply(plan, e) - u[:, k])) < 1e-11


def test_mesh_apply_preserves_norm():
    rng = np.random.default_rng(8)
    plan = cc.reck_decompose(cc.haar_unitary(6, rng))
    x = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    y = cc.mesh_apply(plan, x)
    assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)


def test_mesh_apply_dimension_check():
    plan = cc.MeshPlan(np.zeros(3), [], [], [])
    with pytest.raises(DimensionMismatch):
        cc.mesh_apply(plan, np.ones(4))


def test_mesh_plan_json_roundtrip():
    rng = np.random.default_rng(9)
    plan = cc.reck_decompose(cc.haar_unitary(4, rng))
    again = cc.MeshPlan.from_json(plan.to_json())
    assert np.array_equal(again.screen, plan.screen)
    assert again.elements == plan.elements


def test_mesh_plan_arrays_and_elements_agree():
    elements = (cc.MZISetting(1, 0.3, -0.2), cc.MZISetting(0, 2.0, 1.1))
    plan = cc.MeshPlan([0.1, 0.2, 0.3], [1, 0], [0.3, 2.0], [-0.2, 1.1])
    same = cc.MeshPlan.from_json(plan.to_json())
    assert plan.elements == same.elements == elements
    assert plan.top.tolist() == [1, 0] and plan.theta.tolist() == [0.3, 2.0]
    assert np.array_equal(plan.matrix(), same.matrix())
    assert plan.to_json() == same.to_json()


def test_mesh_plan_rejects_bad_ports():
    for top in (-1, 2):
        with pytest.raises(DimensionMismatch):
            cc.MeshPlan(np.zeros(3), [top], [0.0], [0.0])
    with pytest.raises(DimensionMismatch):
        cc.MeshPlan.from_json('{"screen": [0, 0], "elements": [{"i": 1e30, "theta": 0, "phi": 0}]}')


def test_mesh_plan_rejects_non_finite():
    with pytest.raises(DomainError):
        cc.MeshPlan([0.0, math.nan], [], [], [])
    with pytest.raises(DomainError):
        cc.MeshPlan(np.zeros(2), [0], [math.inf], [0.0])
    # json.loads reads the bare NaN token
    with pytest.raises(DomainError):
        cc.MeshPlan.from_json('{"screen": [0, 0], "elements": [{"i": 0, "theta": 1, "phi": NaN}]}')


ELEMENT = '{"i": 0, "theta": 1, "phi": 0}'


# each element object is folded into a tuple as it is parsed: every refusal
# keeps its exception and message
@pytest.mark.parametrize("text,error,message", [
    (ELEMENT, DomainError, "mesh plan has unknown key 'i'"),
    ('{"screen": [0, 0], "elements": [{"i": 0, "theta": 1, "phi": 0, "x": 1}]}',
     DomainError, "mesh plan element has unknown key 'x'"),
    ('{"screen": [0, 0], "elements": [%s, {"i": 0, "theta": 1}]}' % ELEMENT,
     DomainError, "mesh plan element lacks the required key 'phi'"),
    ('{"screen": [0, 0], "elements": [%s, 5]}' % ELEMENT,
     DomainError, "mesh plan elements must be JSON objects in a list"),
    ('{"screen": [0, 0], "elements": %s}' % ELEMENT,
     DomainError, "mesh plan elements must be JSON objects in a list"),
    ('{"screen": [0, 0], "elements": [{"i": 0.0, "theta": 1, "phi": 0}]}',
     DimensionMismatch, "element ports must be integers in 0..0"),
    ('{"screen": [0, 0], "elements": [{"i": 0, "theta": 1, "phi": NaN}]}',
     DomainError, "mesh plan phi must be finite"),
    ('{"screen": [0], "elements": [], "reconstruction_error": {"phi": 0, "i": 0, "theta": 1}}',
     DomainError, "mesh plan 'reconstruction_error' must be a JSON number within the float "
                  "range, got {'phi': 0, 'i': 0, 'theta': 1}"),
], ids=["top-level-element", "element-extra-key", "element-missing-key", "element-not-object",
        "elements-not-list", "float-port", "nan-phase", "element-as-reconstruction-error"])
def test_mesh_plan_from_json_refusals(text, error, message):
    with pytest.raises(error) as caught:
        cc.MeshPlan.from_json(text)
    assert type(caught.value) is error and str(caught.value) == message


def test_mesh_plan_is_read_only():
    screen, theta = np.array([0.1, 0.2, 0.3]), np.array([0.3, 2.0])
    plan = cc.MeshPlan(screen, np.array([1, 0]), theta, [-0.2, 1.1])
    screen[0] = theta[0] = 9.0  # the plan holds copies
    assert plan.screen[0] == 0.1 and plan.theta[0] == 0.3
    for name in ("screen", "top", "theta", "phi"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(plan, name, np.zeros(2))
        with pytest.raises(ValueError, match="read-only"):
            getattr(plan, name)[0] = 0


# --- calibration ------------------------------------------------------------------------

V_G = 312.0
PITCH = 530e-9


def test_calibration_zero_point():
    cal = cc.CalibrationCurve([-50.0, 0.0], [-7.9e6, 0.0])
    assert cc.phase_from_voltage(cal, 0.0, 20, V_G, PITCH) == 0.0


def test_calibration_reproduces_97_degrees():
    # a -50 V table entry sized for the 97-degree shift over 20 periods
    df = math.radians(97.0) * V_G / (2 * math.pi * 20 * PITCH)
    cal = cc.CalibrationCurve([-50.0, 0.0], [-df, 0.0])
    got = cc.phase_from_voltage(cal, -50.0, 20, V_G, PITCH)
    assert math.degrees(got) == pytest.approx(97.0, abs=0.5)


def test_calibration_out_of_range():
    cal = cc.CalibrationCurve([-50.0, 0.0], [-7.9e6, 0.0])
    with pytest.raises(OutOfRange):
        cc.phase_from_voltage(cal, 10.0, 20, V_G, PITCH)


@pytest.mark.parametrize("call, error", [
    (lambda cal: cal.sample(math.nan), OutOfRange),
    (lambda cal: cc.phase_from_voltage(cal, math.nan, 20, V_G, PITCH), OutOfRange),
    (lambda cal: cc.phase_from_voltage(cal, -10.0, 20, math.nan, PITCH), DomainError),
    (lambda cal: cc.phase_from_voltage(cal, -10.0, 20, V_G, math.nan), DomainError),
    (lambda cal: cc.phase_from_voltage(cal, -10.0, 20, math.inf, PITCH), DomainError),
    # a negative length or pitch would flip the sign of the phase
    (lambda cal: cc.phase_from_voltage(cal, -10.0, 20, V_G, -PITCH), DomainError),
    (lambda cal: cc.phase_from_voltage(cal, -10.0, 20, V_G, 0.0), DomainError),
    (lambda cal: cc.phase_from_voltage(cal, -10.0, -20, V_G, PITCH), DomainError),
], ids=["sample", "voltage", "v_g", "pitch", "v_g-inf", "pitch-negative", "pitch-zero",
        "length-negative"])
def test_calibration_refuses_nan(call, error):
    with pytest.raises(error):
        call(cc.CalibrationCurve([-50.0, 0.0], [-7.9e6, 0.0]))


def test_calibration_monotone_between_nodes():
    cal = cc.CalibrationCurve([-50.0, -20.0, 0.0], [-8e6, -3e6, 0.0])
    vs = np.linspace(-50.0, 0.0, 41)
    phases = [cc.phase_from_voltage(cal, v, 20, V_G, PITCH) for v in vs]
    assert np.all(np.diff(phases) < 0.0)  # table monotone -> phase monotone


def test_calibration_phase_table_direct():
    cal = cc.CalibrationCurve([0.0, 10.0], [0.0, 1.0], kind="phase")
    assert cc.phase_from_voltage(cal, 5.0, 99, V_G, PITCH) == pytest.approx(0.5)


def test_calibration_csv_headers(tmp_path):
    p = tmp_path / "cal.csv"
    p.write_text("voltage_v,delta_f_hz\n-50,-7.9e6\n0,0\n")
    cal = cc.CalibrationCurve.from_csv(p)
    assert cal.kind == "delta_f" and cal.sample(-50.0) == -7.9e6
    p2 = tmp_path / "cal2.csv"
    p2.write_text("voltage_v,phase_rad\n0,0\n10,1.0\n")
    assert cc.CalibrationCurve.from_csv(p2).kind == "phase"
    p3 = tmp_path / "bad.csv"
    p3.write_text("volts,stuff\n0,0\n1,1\n")
    with pytest.raises(DomainError):
        cc.CalibrationCurve.from_csv(p3)


def test_calibration_validation():
    for voltages, values in [
        ([0.0, 0.0], [1.0, 2.0]), ([0.0], [1.0]),
        ([0.0, math.nan, 2.0], [0.0, 1.0, 2.0]), ([0.0, 1.0, 2.0], [0.0, math.nan, 2.0]),
        ([0.0, 1.0, math.inf], [0.0, 1.0, 2.0]), ([0.0, 1.0, 2.0], [0.0, -math.inf, 2.0]),
    ]:
        with pytest.raises(DomainError):
            cc.CalibrationCurve(voltages, values)


@pytest.mark.parametrize("body", ["", "0\n1\n", "0,1,2\n1,2,3\n"],
                         ids=["no-rows", "one-column", "three-columns"])
def test_calibration_csv_shape(tmp_path, recwarn, body):
    p = tmp_path / "cal.csv"
    p.write_text("voltage_v,delta_f_hz\n" + body)
    with pytest.raises(DomainError):
        cc.CalibrationCurve.from_csv(p)
    assert not recwarn.list


# --- tunable mirror -----------------------------------------------------------------------

def test_mirror_state_thresholds():
    assert cc.mirror_state(-685e3, 486e3) == "reflecting"
    assert cc.mirror_state(0.0, 486e3) == "propagating"
    assert cc.mirror_state(-400e3, 486e3) == "propagating"
    # band shifted up keeps the operating point inside the band
    assert cc.mirror_state(+685e3, 486e3) == "propagating"
    with pytest.raises(DomainError):
        cc.mirror_state(-685e3, 0.0)


@pytest.mark.parametrize("delta_f, offset", [
    (-1e6, math.nan), (math.nan, 486e3), (-1e6, math.inf), (-math.inf, 486e3),
    (math.inf, 486e3), (-685e3, -486e3),
])
def test_mirror_state_refuses_non_finite(delta_f, offset):
    with pytest.raises(DomainError):
        cc.mirror_state(delta_f, offset)
