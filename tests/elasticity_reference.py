"""Reference cubic elasticity: the energy and stiffness written out by hand.

These are the per-component expressions that ``phoncirc.elasticity`` used
before it held the moduli as the Voigt tensors C2 and C3.  They are kept
verbatim as the oracle for ``test_elasticity.py``: the tensor contractions
must reproduce their energies and matrices to rounding, for any moduli.
"""

from __future__ import annotations

import numpy as np

from phoncirc.elasticity import SILICON, CubicModuli, _as_strain, _finite
from phoncirc.errors import DomainError


def stiffness_matrix(moduli: CubicModuli = SILICON) -> np.ndarray:
    """Zero-strain cubic stiffness matrix (6x6, Pa)."""
    c = np.zeros((6, 6))
    c[0, 0] = c[1, 1] = c[2, 2] = moduli.c11
    c[0, 1] = c[0, 2] = c[1, 2] = moduli.c12
    c[1, 0] = c[2, 0] = c[2, 1] = moduli.c12
    c[3, 3] = c[4, 4] = c[5, 5] = moduli.c44
    return c


def strain_energy(s, moduli: CubicModuli = SILICON, order: str = "third") -> float:
    """Strain energy density (J/m^3) at second or third order in the strain."""
    if order not in ("second", "third"):
        raise DomainError(f"order must be 'second' or 'third', got {order!r}")
    s = _as_strain(s)
    s1, s2, s3, s4, s5, s6 = s
    c = moduli
    with np.errstate(over="ignore", invalid="ignore"):
        w = (0.5 * c.c11 * (s1**2 + s2**2 + s3**2)
             + c.c12 * (s1 * s2 + s1 * s3 + s2 * s3)
             + 0.5 * c.c44 * (s4**2 + s5**2 + s6**2))
        if order == "third":
            w += (c.c111 * (s1**3 + s2**3 + s3**3) / 6.0
                  + 0.5 * c.c112 * (s1**2 * s2 + s1**2 * s3 + s1 * s2**2
                                    + s1 * s3**2 + s2**2 * s3 + s2 * s3**2)
                  + 0.5 * c.c144 * (s1 * s4**2 + s2 * s5**2 + s3 * s6**2)
                  + 0.5 * c.c166 * (s1 * s5**2 + s1 * s6**2 + s2 * s4**2
                                    + s2 * s6**2 + s3 * s4**2 + s3 * s5**2)
                  + c.c123 * s1 * s2 * s3
                  + c.c456 * s4 * s5 * s6)
    return float(_finite(w, "strain energy", s))


def phonoelastic_matrix(s, moduli: CubicModuli = SILICON) -> np.ndarray:
    """Strain-dependent stiffness c~(s) in the [100] frame (6x6 symmetric, Pa)."""
    s = _as_strain(s)
    s1, s2, s3, s4, s5, s6 = s
    c = moduli
    m = np.zeros((6, 6))
    with np.errstate(over="ignore", invalid="ignore"):
        m[0, 0] = c.c11 + 0.5 * c.c111 * s1 + 0.5 * c.c112 * (s2 + s3)
        m[0, 1] = c.c12 + 0.5 * c.c112 * (s1 + s2) + 0.5 * c.c123 * s3
        m[0, 2] = c.c12 + 0.5 * c.c112 * (s1 + s3) + 0.5 * c.c123 * s2
        m[0, 3] = 0.5 * c.c144 * s4
        m[0, 4] = 0.5 * c.c166 * s5
        m[0, 5] = 0.5 * c.c166 * s6
        m[1, 1] = c.c11 + 0.5 * c.c111 * s2 + 0.5 * c.c112 * (s1 + s3)
        m[1, 2] = c.c12 + 0.5 * c.c112 * (s2 + s3) + 0.5 * c.c123 * s1
        m[1, 3] = 0.5 * c.c166 * s4
        m[1, 4] = 0.5 * c.c144 * s5
        m[1, 5] = 0.5 * c.c166 * s6
        m[2, 2] = c.c11 + 0.5 * c.c111 * s3 + 0.5 * c.c112 * (s1 + s2)
        m[2, 3] = 0.5 * c.c166 * s4
        m[2, 4] = 0.5 * c.c166 * s5
        m[2, 5] = 0.5 * c.c144 * s6
        m[3, 3] = c.c44 + 0.5 * c.c144 * s1 + 0.5 * c.c166 * (s2 + s3)
        m[3, 4] = 0.5 * c.c456 * s6
        m[3, 5] = 0.5 * c.c456 * s5
        m[4, 4] = c.c44 + 0.5 * c.c144 * s2 + 0.5 * c.c166 * (s1 + s3)
        m[4, 5] = 0.5 * c.c456 * s4
        m[5, 5] = c.c44 + 0.5 * c.c144 * s3 + 0.5 * c.c166 * (s1 + s2)
    # fill the lower triangle; the matrix is symmetric by construction
    return _finite(m + np.triu(m, 1).T, "phonoelastic matrix", s)
