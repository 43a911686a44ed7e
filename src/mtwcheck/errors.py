"""Exception hierarchy shared by all mtwcheck modules.

A raise site that rejects an argument its caller passed raises InputError, a
ValueError; one where a computation on accepted arguments failed raises
NumericError, an ArithmeticError.  The CLI maps these bases to exits 2 and 3.
"""


class MtwError(Exception):
    """Base class for all errors raised by mtwcheck."""


class InputError(MtwError, ValueError):
    """An argument was rejected."""


class NumericError(MtwError, ArithmeticError):
    """A computation on accepted arguments failed."""


class ParseError(InputError):
    """Cost expression could not be parsed: offset is the byte offset of the
    failure, and expected the token kinds that would have been accepted."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset
        self.expected = tuple(expected)


class AdmissibilityError(InputError):
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


class DomainError(NumericError):
    """An elementary function was evaluated outside its domain, or a jet
    was divided by one whose constant term is zero."""
