"""Reference mesh synthesis: one Python iteration per pivot and per element.

These are the loops that ``phoncirc.circuits`` used before the Reck
elimination ran as a wavefront and mesh application ran a layer at a time.
They are kept verbatim as the oracle for ``test_mesh_reference.py``: the
array versions must reproduce their element order, phases and outputs to
rounding.  The unitarity check here is the old, NaN-blind one, and the
element matrix is the old scalar ``math``/``cmath`` formula, which the
package now evaluates only in its stacked numpy form.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from phoncirc.circuits import _UNITARY_TOL, MeshPlan, MZISetting
from phoncirc.errors import DimensionMismatch, NotUnitary


def mzi_unitary(theta: float, phi: float) -> np.ndarray:
    """SU(2)-style transfer matrix of one Mach-Zehnder element."""
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    ep = cmath.exp(0.5j * phi)
    return 1j * np.array([[ep * s, ep * c],
                          [c / ep, -s / ep]])


def _wrap_phase(phi: float) -> float:
    """Wrap to (-pi, pi]."""
    return cmath.phase(cmath.exp(1j * phi))


def reck_decompose(u) -> MeshPlan:
    """Factor a unitary as (triangular mesh) o (input phase screen).

    Column by column, bottom up, each subdiagonal entry is nulled by the
    inverse of an element acting on adjacent rows; what remains is the
    diagonal phase screen.  theta is canonical in [0, pi], phi in (-pi, pi].
    A pivot whose target is already zero gets the transparent bar setting
    (theta = pi, phi = 0).
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[0]
    if u.ndim != 2 or u.shape != (n, n):
        raise DimensionMismatch(f"expected a square matrix, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) >= _UNITARY_TOL:
        raise NotUnitary("input matrix fails the unitarity check at 1e-10")
    work = u.copy()
    rotations: list[MZISetting] = []
    for col in range(n - 1):
        for row in range(n - 1, col, -1):
            a = work[row - 1, col]
            b = work[row, col]
            if abs(b) < 1e-14:
                theta, phi = math.pi, 0.0
            elif abs(a) < 1e-14:
                theta, phi = 0.0, 0.0
            else:
                phi = _wrap_phase(cmath.phase(a) - cmath.phase(b))
                theta = 2.0 * math.atan2(abs(a), abs(b))
            g = mzi_unitary(theta, phi).conj().T
            work[row - 1:row + 1, :] = g @ work[row - 1:row + 1, :]
            rotations.append(MZISetting(row - 1, theta, phi))
    screen = np.angle(np.diagonal(work))
    # the eliminations satisfy G_K ... G_1 U = D, so U = T_1 ... T_K D and the
    # mesh applies T_K first; reverse into application order
    return MeshPlan(screen, *([getattr(e, f) for e in reversed(rotations)]
                              for f in ("top", "theta", "phi")))


def mesh_apply(plan: MeshPlan, x) -> np.ndarray:
    """Send a vector (or matrix of columns) through screen and elements."""
    x = np.asarray(x, dtype=complex)
    if x.shape[0] != plan.n_modes:
        raise DimensionMismatch(
            f"input has {x.shape[0]} modes, plan expects {plan.n_modes}")
    y = (np.exp(1j * plan.screen)[:, None] * x) if x.ndim == 2 else np.exp(1j * plan.screen) * x
    for e in plan.elements:
        block = mzi_unitary(e.theta, e.phi)
        y[e.top:e.top + 2] = block @ y[e.top:e.top + 2]
    return y
