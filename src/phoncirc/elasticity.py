"""Finite-strain elasticity and phase-shifter response for diamond-cubic silicon.

Strain vectors use Voigt order (xx, yy, zz, yz, xz, xy) with engineering
shears: s4 = 2*s_yz, s5 = 2*s_xz, s6 = 2*s_xy.  The moduli of a cubic (m-3m)
crystal are held as two fully symmetric Voigt tensors,
:attr:`CubicModuli.tensors`: C2 (6x6) and C3 (6x6x6).  Each is built from
its independent constants (c11, c12, c44 and c111 ... c456), copied to every
relabelling of the x, y, z axes and every order of its indices.  The energy
is W = (1/2) s . C2 . s + (1/6) s . (C3 . s) . s, and the strain-dependent
stiffness returned by :func:`phonoelastic_matrix` is c~(s) = C2 + (1/2) C3 . s
(Thurston & Brugger, Phys. Rev. 133, A1604, 1964).  Because C3 is symmetric
in all three indices, c~(s) . s = dW/ds holds by construction, not by two
hand expansions agreeing; the gradient-consistency tests check it.

Moduli are stored in Pa.  The bundled default set :data:`SILICON` covers
the second- and third-order constants of Si.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import asdict, dataclass, fields
from functools import cached_property

import numpy as np

from ._jsoncheck import json_numbers, read_object
from .errors import DomainError, NonPhysicalDeformation

__all__ = [
    "CubicModuli",
    "SILICON",
    "DeformationSummary",
    "green_lagrange_strain",
    "strain_energy",
    "phonoelastic_matrix",
    "strain_110_to_100",
    "bond_matrix",
    "bond_rotate",
    "deformation_summary",
    "path_dilatation",
    "phase_accumulation",
    "pi_shift_length",
]


@dataclass(frozen=True)
class CubicModuli:
    """Second- and third-order elastic moduli of a cubic (m-3m) crystal, in Pa."""

    c11: float
    c12: float
    c44: float
    c111: float
    c112: float
    c123: float
    c144: float
    c166: float
    c456: float

    def __post_init__(self):
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise DomainError("elastic moduli must be finite")
        if not (self.c11 > 0 and self.c44 > 0):
            raise DomainError("c11 and c44 must be positive")
        if not (self.c11 > self.c12 and self.c11 + 2 * self.c12 > 0):
            raise DomainError("elastic stability requires c11 > c12 and c11 + 2 c12 > 0")

    @classmethod
    def from_json(cls, source) -> "CubicModuli":
        """Moduli in Pa from a JSON object (a file path or a parsed dict) holding any
        subset of c11..c456 and no other key; the rest keep the :data:`SILICON` values."""
        data = read_object(source, asdict(SILICON), "moduli")
        return cls(**{name: float(v) for name, v in json_numbers(data, "modulus").items()})

    @cached_property
    def tensors(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only Voigt tensors C2 (6x6) and C3 (6x6x6), in Pa."""
        return (_voigt_tensor({(0, 0): self.c11, (0, 1): self.c12, (3, 3): self.c44}),
                _voigt_tensor({(0, 0, 0): self.c111, (0, 0, 1): self.c112,
                               (0, 1, 2): self.c123, (0, 3, 3): self.c144,
                               (0, 4, 4): self.c166, (3, 4, 5): self.c456}))

    def stiffness_matrix(self) -> np.ndarray:
        """Zero-strain cubic stiffness matrix (6x6, Pa)."""
        return self.tensors[0].copy()


# the six relabellings of the x, y, z axes acting on Voigt indices: a
# permutation p sends normal strain i to p[i] and the shear across axis i
# (Voigt index 3 + i) to 3 + p[i]
_AXIS_PERMUTATIONS = [p + tuple(3 + i for i in p) for p in itertools.permutations(range(3))]


def _voigt_tensor(entries: dict) -> np.ndarray:
    """The read-only cubic Voigt tensor with the given independent entries,
    each copied to every relabelling of the axes and every order of its indices."""
    t = np.zeros((6,) * len(next(iter(entries))))
    for index, value in entries.items():
        for p in _AXIS_PERMUTATIONS:
            for order in itertools.permutations(p[i] for i in index):
                t[order] = value
    t.flags.writeable = False
    return t


#: Si moduli (Pa): c11, c12, c44 and the six independent third-order constants.
SILICON = CubicModuli(
    c11=165.64e9,
    c12=63.94e9,
    c44=79.51e9,
    c111=-795e9,
    c112=-445e9,
    c123=-75e9,
    c144=15e9,
    c166=-310e9,
    c456=-86e9,
)


@dataclass(frozen=True)
class DeformationSummary:
    """Jacobian of a deformation and the matching inverse density change."""

    jacobian: float
    density_ratio: float  # rho_0 / rho, equal to the Jacobian


def _as_strain(s) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    if s.shape != (6,):
        raise DomainError(f"strain must be a 6-vector, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise DomainError("strain components must be finite")
    return s


def _finite(value, what: str, strain=None):
    """`value`, or DomainError when it overflowed to inf or nan.  Only then is
    a `strain` with a component at or beyond unity warned about, so that a
    refused strain prints its error alone."""
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{what} overflows the float range")
    if strain is not None and np.max(np.abs(strain)) >= 1.0:
        warnings.warn("strain component at or beyond unity; cubic energy expansion is suspect",
                      stacklevel=3)
    return value


def _as_gradient(g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (3, 3):
        raise DomainError(f"displacement gradient must be 3x3, got shape {g.shape}")
    if not np.all(np.isfinite(g)):
        raise DomainError("displacement gradient must be finite")
    return g


def green_lagrange_strain(g) -> np.ndarray:
    """Exact (non-linearized) strain of a displacement gradient, packed to Voigt.

    g[i, j] = du_i/dr_j.  Returns the 6-vector with engineering shears.
    """
    g = _as_gradient(g)
    e = 0.5 * (g + g.T + g.T @ g)
    return np.array([e[0, 0], e[1, 1], e[2, 2],
                     2.0 * e[1, 2], 2.0 * e[0, 2], 2.0 * e[0, 1]])


def strain_energy(s, moduli: CubicModuli = SILICON, order: str = "third") -> float:
    """Strain energy density (J/m^3) at second or third order in the strain."""
    if order not in ("second", "third"):
        raise DomainError(f"order must be 'second' or 'third', got {order!r}")
    s = _as_strain(s)
    c2, c3 = moduli.tensors
    with np.errstate(over="ignore", invalid="ignore"):
        w = 0.5 * (s @ c2 @ s)
        if order == "third":
            w += s @ (c3 @ s) @ s / 6.0
    return float(_finite(w, "strain energy", s))


def phonoelastic_matrix(s, moduli: CubicModuli = SILICON) -> np.ndarray:
    """Strain-dependent stiffness c~(s) in the [100] frame (6x6 symmetric, Pa).

    At s = 0 this is the conventional cubic stiffness matrix; the linear-in-s
    corrections come from the third-order moduli and satisfy c~(s) . s = dW/ds.
    """
    s = _as_strain(s)
    c2, c3 = moduli.tensors
    # C3 . s/2 as products summed along the last index in one fixed order, so
    # that entries (i, j) and (j, i) are bitwise equal whatever the BLAS;
    # halving s first keeps the sums finite as far as the entries are
    with np.errstate(over="ignore", invalid="ignore"):
        m = c2 + (c3 * (0.5 * s)).sum(axis=2)
    return _finite(m, "phonoelastic matrix", s)


def strain_110_to_100(s110) -> np.ndarray:
    """Re-express [110]-frame tensor strain components as [100] Voigt strains.

    Input order is (s'_xx, s'_yy, s'_zz, s'_yz, s'_xz, s'_xy) with *tensor*
    shears (no factor 2); the output carries engineering shears, ready for
    :func:`strain_energy` / :func:`phonoelastic_matrix`.
    """
    sxx, syy, szz, syz, sxz, sxy = _as_strain(s110)
    r2 = math.sqrt(2.0)
    return np.array([
        0.5 * sxx - sxy + 0.5 * syy,
        0.5 * sxx + sxy + 0.5 * syy,
        szz,
        r2 * (sxz + syz),
        r2 * (sxz - syz),
        sxx - syy,
    ])


def bond_matrix(xi: float) -> np.ndarray:
    """Bond transformation matrix for a rotation by `xi` about the z ([001]) axis."""
    if not math.isfinite(xi):
        raise DomainError("rotation angle must be finite")
    c, s = math.cos(xi), math.sin(xi)
    s2 = math.sin(2.0 * xi)
    c2 = math.cos(2.0 * xi)
    return np.array([
        [c * c, s * s, 0.0, 0.0, 0.0, s2],
        [s * s, c * c, 0.0, 0.0, 0.0, -s2],
        [0.0, 0.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, c, -s, 0.0],
        [0.0, 0.0, 0.0, s, c, 0.0],
        [-0.5 * s2, 0.5 * s2, 0.0, 0.0, 0.0, c2],
    ])


def bond_rotate(m, xi: float) -> np.ndarray:
    """Rotate a 6x6 Voigt stiffness-like matrix by `xi` about [001]: M m M^T."""
    m = np.asarray(m, dtype=float)
    if m.shape != (6, 6):
        raise DomainError(f"expected a 6x6 matrix, got shape {m.shape}")
    b = bond_matrix(xi)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite(b @ m @ b.T, "rotated matrix")


def deformation_summary(g) -> DeformationSummary:
    """Jacobian det(I + g) of the deformation and the density ratio rho0/rho."""
    g = _as_gradient(g)
    j = float(np.linalg.det(np.eye(3) + g))
    if j <= 0.0:
        raise NonPhysicalDeformation(f"det(I + g) = {j:.3g} <= 0 (inverted element)")
    return DeformationSummary(jacobian=j, density_ratio=j)


def path_dilatation(du: float, dw: float, pitch: float) -> float:
    """Per-period path-length change of a waveguide axis displaced by (du, dw).

    `du` is the axial and `dw` the out-of-plane displacement increment over
    one lattice period of length `pitch` (all in meters).
    """
    if not 0.0 < pitch < math.inf:
        raise DomainError(f"lattice pitch must be positive and finite, got {pitch}")
    if not (math.isfinite(du) and math.isfinite(dw)):
        raise DomainError("displacement increments must be finite")
    return math.hypot(du + pitch, dw) - pitch


def phase_accumulation(delta_f: float, v_g: float, length: float,
                       k: float = 0.0, delta_length: float = 0.0) -> float:
    """Phase shift (rad) from a band shift delta_f plus a path-length change.

    A negative frequency shift lowers the band, raising the propagation
    constant at fixed operating frequency, so negative delta_f gives a
    positive (forward) phase shift: dphi = -(2 pi delta_f / v_g) L + k dL.
    """
    if not 0.0 < v_g < math.inf:
        raise DomainError(f"group velocity must be positive and finite, got {v_g}")
    if not all(map(math.isfinite, (delta_f, length, k, delta_length))):
        raise DomainError("delta_f, length, k and delta_length must be finite")
    return -2.0 * math.pi * delta_f / v_g * length + k * delta_length


def pi_shift_length(delta_f: float, v_g: float) -> float:
    """Waveguide length (m) needed for a +/- pi phase shift at band shift delta_f."""
    if not 0.0 < v_g < math.inf:
        raise DomainError(f"group velocity must be positive and finite, got {v_g}")
    if not 0.0 < abs(delta_f) < math.inf:
        raise DomainError(f"delta_f must be nonzero and finite, got {delta_f}")
    return v_g / (2.0 * abs(delta_f))
