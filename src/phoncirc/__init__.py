"""phoncirc: modeling toolkit for strain-tuned phononic circuits.

Four capability areas, one module each:

* :mod:`phoncirc.elasticity` -- finite-strain kinematics, second/third-order
  strain energy, the strain-dependent (phonoelastic) stiffness, Bond
  rotations, and the phase-shifter response formulas.
* :mod:`phoncirc.slh` -- composition algebra for linear passive quantum
  network nodes and the tunable-coupling cavity loop.
* :mod:`phoncirc.memory` -- optimal capture profiles and time-domain
  transfer simulations, with and without mirror round-trip delay.
* :mod:`phoncirc.circuits` -- Mach-Zehnder algebra, triangular mesh
  decomposition of N-mode unitaries, voltage calibration, and the tunable
  mirror predicate.

The batch CLI lives in :mod:`phoncirc.cli` (entry point ``phoncirc``).
"""

__version__ = "0.1.0"

from . import circuits, elasticity, memory, slh
from .errors import (ComputationError, DimensionMismatch, DomainError,
                     HistoryUnderrun, InfeasibleCap, InputError, IntegrationError,
                     NonPhysicalDeformation, NotUnitary, OutOfRange, PhoncircError,
                     PortMismatch, ProfileOutOfRange, SingularLoop)

__all__ = [
    "__version__",
    "circuits",
    "elasticity",
    "memory",
    "slh",
    "PhoncircError",
    "InputError",
    "ComputationError",
    "DomainError",
    "NonPhysicalDeformation",
    "PortMismatch",
    "SingularLoop",
    "ProfileOutOfRange",
    "InfeasibleCap",
    "IntegrationError",
    "HistoryUnderrun",
    "NotUnitary",
    "DimensionMismatch",
    "OutOfRange",
]
