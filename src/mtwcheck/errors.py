"""Exception hierarchy shared by all mtwcheck modules."""


class MtwError(Exception):
    """Base class for all errors raised by mtwcheck."""


class DegenerateJetError(MtwError):
    """Division by a jet whose constant term is zero."""


class DomainError(MtwError):
    """An elementary function was evaluated outside its domain."""

    def __init__(self, message, value=None):
        super().__init__(message)
        self.value = value


class ParseError(MtwError):
    """Cost expression could not be parsed.

    Carries the byte offset of the failure and the set of token kinds
    that would have been accepted there.
    """

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = tuple(expected)


class AdmissibilityError(MtwError):
    """Cost function violates evenness or the constant-sign requirement on l''.

    kind is one of "not-even", "lpp-sign-change", "lpp-zero",
    "lprime-not-monotone" (sign * l' drops between two samples, as at a pole
    of l'), "not-finite" (l' or l'' overflows or is nan), "undefined" (l or
    one of its derivatives cannot be evaluated);
    witness is the first offending argument.
    """

    def __init__(self, kind, witness, message=None):
        super().__init__(message or f"admissibility violation: {kind} at z={witness}")
        self.kind = kind
        self.witness = witness


class OutOfRangeError(MtwError):
    """Argument outside the invertible range of l'."""


class ConvergenceFailure(MtwError):
    """Iterative root finding did not reach the required residual."""


class GeometryError(MtwError):
    """Point/tangent data violates the model constraints."""


class InjectivityRadiusError(MtwError):
    """Tangent vector leaves the injectivity radius (sphere: |v| >= pi)."""


class CutLocusError(MtwError):
    """Operation undefined at or past the cut locus."""


class ZeroVectorError(MtwError):
    """A direction argument that must be nonzero was zero."""


class PoleError(MtwError):
    """Evaluation hit a pole of cot/coth within tolerance."""


class StencilDegenerateError(MtwError):
    """Finite-difference stencil produced non-finite values."""
