"""Exception hierarchy.

Two broad families matter to callers: configuration problems (bad JSON,
bad expressions, inconsistent problem data) and numerical failures at
run time (lost brackets, degenerate kernels, near-singular Jacobians).
The command-line driver maps the former to exit code 2 and the latter
to exit code 3.
"""

from __future__ import annotations

__all__ = [
    "CharstochError", "ConfigError", "SchemaError", "ValidationError",
    "ExprError", "IllegalCharacter", "ExprSyntaxError", "UnknownVariable",
    "UnknownFunction", "ArityMismatch", "NumericalError", "EvalDomainError",
    "DegenerateKernel", "EmptyKernelSupport", "NoConvergence", "OutOfBracket",
    "NearBlowup", "SingularJacobian", "ZeroMass",
]


class CharstochError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(CharstochError):
    """A problem definition could not be understood or validated."""


class SchemaError(ConfigError):
    """Missing, mistyped, unknown, or unparsable configuration field."""


class ValidationError(ConfigError):
    """Well-formed configuration whose contents are inconsistent."""


class ExprError(ConfigError):
    """Base class for expression tokenizing/parsing errors."""

    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at offset {pos})"
        super().__init__(message)


class IllegalCharacter(ExprError):
    """Source text contains a byte outside the expression alphabet."""


class ExprSyntaxError(ExprError):
    """Token stream does not match the expression grammar."""


class UnknownVariable(ExprError):
    """Identifier is not in the allowed variable set for this context."""


class UnknownFunction(ExprError):
    """Call to a function outside the supported set."""


class ArityMismatch(ExprError):
    """Function called with the wrong number of arguments."""


class NumericalError(CharstochError):
    """A numerical routine could not produce a trustworthy result."""


class EvalDomainError(NumericalError):
    """Expression evaluated outside its real domain (log of a
    nonpositive value, division by zero, and similar)."""


class DegenerateKernel(NumericalError):
    """The smoothing kernel has effectively zero width (sigma^2 * t
    below the representable range)."""


class EmptyKernelSupport(NumericalError):
    """No quadrature mass under the kernel at the requested point."""


class NoConvergence(NumericalError):
    """An iteration hit its cap before meeting its tolerance."""


class OutOfBracket(NumericalError):
    """A root is not bracketed by the supplied interval."""


class NearBlowup(NumericalError):
    """Requested evaluation too close to (or past) the gradient
    blow-up time for the smooth-solution machinery to be reliable."""


class SingularJacobian(NumericalError):
    """Characteristic-map Jacobian is numerically singular."""


class ZeroMass(NumericalError):
    """Initial density integrates to zero; nothing to sample."""
