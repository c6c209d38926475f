"""Exception hierarchy shared across the package.

Every package error belongs to one of two families, and the family alone
decides the CLI exit code:

* :class:`InputError` (exit 2) -- the input is malformed or outside the
  domain of the operation: :class:`DomainError`, :class:`OutOfRange`,
  :class:`DimensionMismatch`, :class:`PortMismatch`.
* :class:`ComputationError` (exit 1) -- a valid input led to a failure found
  mid-run: :class:`SingularLoop`, :class:`NotUnitary`,
  :class:`IntegrationError`, :class:`InfeasibleCap`,
  :class:`ProfileOutOfRange`, :class:`HistoryUnderrun`,
  :class:`NonPhysicalDeformation`.
"""


class PhoncircError(Exception):
    """Base class for all package-specific errors."""


class InputError(PhoncircError):
    """The input is malformed or outside the domain of the operation."""


class ComputationError(PhoncircError):
    """A computation on valid input failed part way."""


class DomainError(InputError):
    """A parameter lies outside the physical/mathematical domain of an operation."""


class NonPhysicalDeformation(ComputationError):
    """Deformation gradient with non-positive Jacobian (inverted element)."""


class PortMismatch(InputError):
    """Series composition of systems with different port counts."""


class SingularLoop(ComputationError):
    """Feedback elimination hit a unit-gain algebraic loop (1 - S[out, in] = 0)."""


class ProfileOutOfRange(ComputationError):
    """Coupling-to-phase conversion asked for arccos of an argument outside [-1, 1]."""


class InfeasibleCap(ComputationError):
    """No slope-capped sampling can bring the phase near pi within the horizon."""


class IntegrationError(ComputationError):
    """Time integration failed (step-size underflow or non-finite state)."""


class HistoryUnderrun(ComputationError):
    """Delay buffer cannot serve a lookup that far in the past."""


class NotUnitary(ComputationError):
    """Matrix expected to be unitary is not, within tolerance."""


class DimensionMismatch(InputError):
    """Vector/matrix dimensions incompatible with the mesh or operation."""


class OutOfRange(InputError):
    """Interpolation query outside the calibration table."""
