"""Exception hierarchy.

PreconditionError subclasses signal bad user input (CLI exit code 2);
everything else is an internal contract violation (exit code 1).
"""


class GaussManinError(Exception):
    """Base class for all library errors."""


class PreconditionError(GaussManinError):
    """Input fails a documented precondition."""


class MalformedSpec(PreconditionError):
    """Polynomial spec violates a structural invariant."""


class MalformedOperator(MalformedSpec, ValueError):
    """Operator JSON whose parts disagree; a ValueError too, as invalid JSON is."""


class MalformedRelation(MalformedSpec, ValueError):
    """Dependence-relation JSON that is unreadable or disagrees with its spec."""


class QuasiHomogeneous(PreconditionError):
    """The full exponent matrix is rank deficient: f is quasi-homogeneous."""


class GammaTouchesH(PreconditionError):
    """A chain exponent has a nonzero component on the zero-weight index set H."""


class LambdaZero(PreconditionError):
    """The deformation parameter must be nonzero."""


class InternalError(GaussManinError):
    """A computed result fails one of its exact invariant checks."""


class NotCoprime(GaussManinError):
    """Bezout cofactors requested for polynomials with a common factor."""


class ZeroElement(GaussManinError):
    """Operation undefined on the zero element."""


class NonMonicDivisor(GaussManinError):
    """Right division needs a divisor whose leading a-coefficient is a unit."""


class NotHomogeneous(GaussManinError):
    """Operation requires an (a,b)-homogeneous element."""


class NotMonic(GaussManinError):
    """Operation requires an element monic in a."""


class NotRegular(GaussManinError):
    """Bernstein data requested for an element that is not regular."""


class TruncationTooSmall(PreconditionError):
    """The requested or stored b-adic truncation order is too small."""


class PreconditionInitialForm(PreconditionError):
    """Element does not have the shape required by the irregular splitting."""


class HIsZero(PreconditionError):
    """Irregular splitting requires a nontrivial gap between a-degree and initial degree."""
