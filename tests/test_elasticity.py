"""Tensor mechanics: strain kinematics, energies, phonoelastic stiffness, frames."""

import dataclasses
import json
import math
import warnings

import elasticity_reference as ref
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phoncirc import elasticity as el
from phoncirc.errors import DomainError, NonPhysicalDeformation

SI = el.SILICON


# --- Green-Lagrange strain ----------------------------------------------------

def test_zero_gradient_gives_zero_strain():
    assert np.all(el.green_lagrange_strain(np.zeros((3, 3))) == 0.0)


def test_uniaxial_stretch_keeps_quadratic_term():
    lam = 0.01
    s = el.green_lagrange_strain(np.diag([lam, 0.0, 0.0]))
    assert s[0] == pytest.approx(lam + lam**2 / 2.0, abs=1e-15)  # 0.01005
    assert np.all(s[1:] == 0.0)


def test_small_gradient_matches_symmetric_part():
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = 1e-6 * rng.standard_normal((3, 3))
        lin = 0.5 * (g + g.T)
        lin_voigt = np.array([lin[0, 0], lin[1, 1], lin[2, 2],
                              2 * lin[1, 2], 2 * lin[0, 2], 2 * lin[0, 1]])
        # quadratic remainder is O(|g|^2) = 1e-12
        assert np.max(np.abs(el.green_lagrange_strain(g) - lin_voigt)) < 1e-11


# --- strain energy -------------------------------------------------------------

def test_energy_vanishes_at_zero_strain():
    assert el.strain_energy(np.zeros(6), SI, order="second") == 0.0
    assert el.strain_energy(np.zeros(6), SI, order="third") == 0.0


def test_energy_uniaxial_second_order():
    s = np.array([0.01, 0, 0, 0, 0, 0])
    # (1/2) c11 s1^2
    assert el.strain_energy(s, SI, "second") == pytest.approx(8.282e6, rel=1e-12)


def test_energy_uniaxial_third_order_correction():
    s = np.array([0.01, 0, 0, 0, 0, 0])
    w3 = el.strain_energy(s, SI, "third") - el.strain_energy(s, SI, "second")
    # (1/6) c111 s1^3, negative because c111 < 0
    assert w3 == pytest.approx(-1.325e5, rel=1e-12)


def test_energy_rejects_bad_order():
    with pytest.raises(DomainError):
        el.strain_energy(np.zeros(6), SI, order="fourth")


def test_large_strain_warns():
    with pytest.warns(UserWarning):
        el.strain_energy(np.array([1.5, 0, 0, 0, 0, 0]), SI)


def test_overflow_is_refused_before_any_warning():
    # "error" turns the large-strain UserWarning and numpy's overflow
    # RuntimeWarnings into exceptions: only the DomainError may come out
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="strain energy"):
            el.strain_energy(np.array([1e200, 0, 0, 0, 0, 0]), SI)
        with pytest.raises(DomainError, match="phonoelastic"):
            el.phonoelastic_matrix(np.array([1e308, 1e308, 0, 0, 0, 0]), SI)
        with pytest.raises(DomainError, match="rotated"):
            el.bond_rotate(np.full((6, 6), 1e308), math.pi / 4)


# --- phonoelastic matrix -------------------------------------------------------

def test_phonoelastic_zero_strain_is_cubic_stiffness():
    m = el.phonoelastic_matrix(np.zeros(6), SI)
    assert np.array_equal(m, SI.stiffness_matrix())
    assert m[0, 0] == 165.64e9 and m[0, 1] == 63.94e9 and m[3, 3] == 79.51e9


def test_phonoelastic_shear_component():
    s = np.array([0, 0, 0, 0.01, 0, 0])
    m = el.phonoelastic_matrix(s, SI)
    # c~14 = (1/2) c144 s4
    assert m[0, 3] == pytest.approx(0.5 * 15e9 * 0.01, rel=1e-14)
    assert m[0, 3] == pytest.approx(7.5e7, rel=1e-14)


def test_phonoelastic_is_symmetric():
    rng = np.random.default_rng(3)
    s = 0.02 * rng.uniform(-1, 1, 6)
    m = el.phonoelastic_matrix(s, SI)
    assert np.array_equal(m, m.T)


def _fd_stress(s, step=1e-7):
    """Central finite differences of the third-order energy."""
    grad = np.zeros(6)
    for i in range(6):
        up, dn = s.copy(), s.copy()
        up[i] += step
        dn[i] -= step
        grad[i] = (el.strain_energy(up, SI, "third")
                   - el.strain_energy(dn, SI, "third")) / (2 * step)
    return grad


def test_stress_matches_energy_gradient():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = 0.02 * rng.uniform(-1, 1, 6)
        stress = el.phonoelastic_matrix(s, SI) @ s
        fd = _fd_stress(s)
        assert np.max(np.abs(stress - fd)) <= 1e-6 * max(1.0, np.max(np.abs(fd)))


# --- the Voigt tensors against the hand-written oracle ----------------------------

SECOND = ("c11", "c12", "c44")
THIRD = ("c111", "c112", "c123", "c144", "c166", "c456")


def _moduli_around_si(second, third):
    """Si with c11..c44 scaled by `second` and c111..c456 shifted by `third` (Pa)."""
    return el.CubicModuli(**{n: getattr(SI, n) * f for n, f in zip(SECOND, second)},
                          **{n: getattr(SI, n) + d for n, d in zip(THIRD, third)})


def _assert_matches_oracle(s, moduli):
    # bars: 1e-14 of the second-order energy, and of the matrix's largest
    # entry; the 1e-290 J/m^3 floor only covers strains below 1.5e-154,
    # whose squares the oracle underflows to 0
    w2 = ref.strain_energy(s, moduli, "second")
    for order in ("second", "third"):
        assert abs(el.strain_energy(s, moduli, order)
                   - ref.strain_energy(s, moduli, order)) <= 1e-14 * w2 + 1e-290
    want = ref.phonoelastic_matrix(s, moduli)
    got = el.phonoelastic_matrix(s, moduli)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(got, got.T)


def test_tensors_are_read_only_and_fully_symmetric():
    c2, c3 = SI.tensors
    assert SI.tensors is SI.tensors
    assert not (c2.flags.writeable or c3.flags.writeable)
    assert np.array_equal(c2, c2.T)
    for axes in ((0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
        assert np.array_equal(c3, c3.transpose(axes))
    assert np.array_equal(SI.stiffness_matrix(), ref.stiffness_matrix(SI))


def test_seeded_strains_match_oracle():
    rng = np.random.default_rng(2024)
    for k in range(1000):
        moduli = SI if k % 2 else _moduli_around_si(rng.uniform(0.8, 1.2, 3),
                                                     rng.uniform(-300e9, 300e9, 6))
        _assert_matches_oracle(0.02 * rng.uniform(-1, 1, 6), moduli)


# moduli drawn around Si: random values catch a constant placed in the wrong
# slot even where the Si values happen to hide it
@settings(max_examples=300, deadline=None)
@given(s=st.lists(st.floats(-2e-2, 2e-2), min_size=6, max_size=6),
       second=st.lists(st.floats(0.8, 1.2), min_size=3, max_size=3),
       third=st.lists(st.floats(-300e9, 300e9), min_size=6, max_size=6))
def test_energy_and_matrix_match_oracle(s, second, third):
    _assert_matches_oracle(np.array(s), _moduli_around_si(second, third))


# --- frame transform and Bond rotation -----------------------------------------

def test_frame_transform_zero():
    assert np.all(el.strain_110_to_100(np.zeros(6)) == 0.0)


def test_frame_transform_pure_xx():
    eps = 3e-3
    s = el.strain_110_to_100(np.array([eps, 0, 0, 0, 0, 0]))
    assert np.allclose(s, [eps / 2, eps / 2, 0, 0, 0, eps], atol=1e-18)


def test_frame_transform_round_trip():
    # build the linear map column by column and invert it numerically
    f = np.column_stack([el.strain_110_to_100(e) for e in np.eye(6)])
    rng = np.random.default_rng(11)
    sp = 0.01 * rng.standard_normal(6)
    back = np.linalg.solve(f, el.strain_110_to_100(sp))
    assert np.max(np.abs(back - sp)) < 1e-14


def test_bond_identity_rotation():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((6, 6))
    m = m + m.T
    assert np.allclose(el.bond_rotate(m, 0.0), m, atol=1e-15)


def test_bond_quarter_turn_c11():
    rotated = el.bond_rotate(SI.stiffness_matrix(), math.pi / 4)
    # c~'11 = (c11 + c12)/2 + c44 = 194.30 GPa for the Si constants
    assert rotated[0, 0] == pytest.approx(194.30e9, rel=1e-12)


def test_bond_half_turn_is_cubic_symmetry():
    c = SI.stiffness_matrix()
    twice = el.bond_rotate(el.bond_rotate(c, math.pi / 4), math.pi / 4)
    once = el.bond_rotate(c, math.pi / 2)
    assert np.max(np.abs(twice - once)) < 1e-12 * np.max(np.abs(once))
    assert np.max(np.abs(once - c)) < 1e-12 * np.max(np.abs(c))


def _tensor_to_engineering(s110):
    """[110] tensor components -> engineering Voigt in the same frame."""
    sxx, syy, szz, syz, sxz, sxy = s110
    return np.array([sxx, syy, szz, 2 * syz, 2 * sxz, 2 * sxy])


def test_second_order_energy_frame_invariance():
    rotated_c = el.bond_rotate(SI.stiffness_matrix(), math.pi / 4)
    rng = np.random.default_rng(13)
    for _ in range(100):
        s110 = 0.02 * rng.uniform(-1, 1, 6)
        w_100 = el.strain_energy(el.strain_110_to_100(s110), SI, "second")
        s_eng = _tensor_to_engineering(s110)
        w_110 = 0.5 * s_eng @ rotated_c @ s_eng
        assert w_110 == pytest.approx(w_100, rel=1e-10)


def test_third_order_form_is_invariant_but_overweights_cubic_term():
    # Empirical status of third-order frame invariance: the rotated
    # phonoelastic quadratic form is exactly frame-invariant, but by Euler's
    # theorem on the homogeneous cubic term its value is W2 + (3/2) W3, not
    # W2 + W3.  The plain energy is therefore *not* recovered from the
    # rotated matrix alone.
    rng = np.random.default_rng(17)
    for _ in range(25):
        s110 = 0.02 * rng.uniform(-1, 1, 6)
        s100 = el.strain_110_to_100(s110)
        s_eng = _tensor_to_engineering(s110)
        form = 0.5 * s_eng @ el.bond_rotate(el.phonoelastic_matrix(s100, SI), math.pi / 4) @ s_eng
        w2 = el.strain_energy(s100, SI, "second")
        w3 = el.strain_energy(s100, SI, "third") - w2
        assert form == pytest.approx(w2 + 1.5 * w3, rel=1e-10)
        assert abs(form - (w2 + w3)) > abs(0.25 * w3)


# --- deformation summary and path dilatation ------------------------------------

def test_deformation_identity():
    d = el.deformation_summary(np.zeros((3, 3)))
    assert d.jacobian == pytest.approx(1.0) and d.density_ratio == d.jacobian


def test_deformation_volumetric_stretch():
    d = el.deformation_summary(np.diag([0.01, 0.0, 0.0]))
    assert d.jacobian == pytest.approx(1.01, rel=1e-14)


def test_deformation_inverted_element_raises():
    with pytest.raises(NonPhysicalDeformation):
        el.deformation_summary(np.diag([-1.5, 0.0, 0.0]))


def test_path_dilatation():
    a = 530e-9
    assert el.path_dilatation(0.0, 0.0, a) == 0.0
    assert el.path_dilatation(0.0, a, a) == pytest.approx(a * (math.sqrt(2) - 1), rel=1e-14)
    assert el.path_dilatation(1e-9, 0.0, a) == pytest.approx(1e-9, rel=1e-12)
    with pytest.raises(DomainError):
        el.path_dilatation(0.0, 0.0, 0.0)


# --- phase accumulation and device length ---------------------------------------

V_G = 312.0          # m/s at the 5.1406 GHz operating point
PITCH = 530e-9


def test_phase_accumulation_zero():
    assert el.phase_accumulation(0.0, V_G, 10e-6) == 0.0


def test_phase_accumulation_97_degrees_over_20_periods():
    length = 20 * PITCH
    target = math.radians(97.0)
    # invert dphi = 2 pi |df| L / v_g for the driving frequency shift
    df = target * V_G / (2 * math.pi * length)
    assert df == pytest.approx(7.93e6, rel=1e-3)  # ~ -7.9 MHz bias point
    # negative band shift -> forward (positive) phase shift
    assert el.phase_accumulation(-df, V_G, length) == pytest.approx(target, rel=1e-12)
    assert el.phase_accumulation(+df, V_G, length) == pytest.approx(-target, rel=1e-12)


def test_phase_accumulation_path_length_term():
    k = 0.6897 * math.pi / PITCH
    target = math.radians(0.1)
    dl = target / k
    got = el.phase_accumulation(0.0, V_G, 20 * PITCH, k=k, delta_length=dl)
    assert got == pytest.approx(1.745e-3, rel=1e-3)


def test_phase_accumulation_rejects_bad_vg():
    with pytest.raises(DomainError):
        el.phase_accumulation(1e6, 0.0, 1e-6)


def test_pi_shift_length():
    assert el.pi_shift_length(1e6, V_G) == pytest.approx(156e-6, rel=1e-12)
    length = el.pi_shift_length(7.94e6, V_G)
    assert length == pytest.approx(19.6e-6, rel=5e-3)
    assert length / PITCH == pytest.approx(37.0, rel=5e-3)  # ~37 lattice periods
    with pytest.raises(DomainError):
        el.pi_shift_length(0.0, V_G)


NAN = math.nan


@pytest.mark.parametrize("call", [
    lambda: el.phase_accumulation(1e6, NAN, 1e-5),
    lambda: el.phase_accumulation(1e6, math.inf, 1e-5),
    lambda: el.phase_accumulation(NAN, V_G, 1e-5),
    lambda: el.phase_accumulation(1e6, V_G, NAN),
    lambda: el.pi_shift_length(NAN, 1000.0),
    lambda: el.pi_shift_length(1e6, NAN),
    lambda: el.pi_shift_length(math.inf, V_G),
    lambda: el.path_dilatation(0.0, 0.0, NAN),
    lambda: el.path_dilatation(NAN, 0.0, PITCH),
    lambda: el.strain_110_to_100([NAN, 0, 0, 0, 0, 0]),
], ids=["phase-vg", "phase-vg-inf", "phase-df", "phase-length", "pi-df", "pi-vg",
        "pi-df-inf", "dilatation-pitch", "dilatation-du", "strain-110"])
def test_non_finite_arguments_refused(call):
    with pytest.raises(DomainError):
        call()


# --- moduli loading --------------------------------------------------------------

def test_moduli_json_override(tmp_path):
    path = tmp_path / "moduli.json"
    path.write_text(json.dumps({"c11": 170e9}))
    m = el.CubicModuli.from_json(path)
    assert m.c11 == 170e9
    assert m.c12 == SI.c12 and m.c456 == SI.c456


def test_moduli_unknown_key_rejected(tmp_path):
    path = tmp_path / "moduli.json"
    path.write_text(json.dumps({"c99": 1.0}))
    with pytest.raises(DomainError):
        el.CubicModuli.from_json(path)


def test_moduli_stability_check():
    with pytest.raises(DomainError):
        el.CubicModuli(c11=1e9, c12=2e9, c44=1e9, c111=0, c112=0,
                       c123=0, c144=0, c166=0, c456=0)


@pytest.mark.parametrize("c12, stable", [(-49.99e9, True), (-50e9, False), (-60e9, False),
                                         (99.99e9, True), (100e9, False)])
def test_moduli_born_criterion(c12, stable):
    # c11 > c12 (shear) and c11 + 2 c12 > 0 (bulk), at c11 = 100 GPa
    if stable:
        assert el.CubicModuli.from_json({"c11": 100e9, "c12": c12}).c12 == c12
    else:
        with pytest.raises(DomainError, match="stability"):
            el.CubicModuli.from_json({"c11": 100e9, "c12": c12})


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(el.CubicModuli)])
def test_moduli_reject_non_finite(name):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            el.CubicModuli.from_json({name: value})
