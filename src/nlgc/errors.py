"""Exception types raised by the compiler, and the guard for outside input."""
import contextlib


class CompilerError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CompilerError):
    """Operands have incompatible or non-factorizable dimensions."""


class ValidationError(CompilerError):
    """Input data violates a structural requirement (unitarity, group axioms, ...)."""


class NondeterminismError(CompilerError):
    """Two independent randomized runs disagreed; tolerances are too tight for the input."""


class SingularInputError(CompilerError):
    """A subspace expected to have full dimension turned out rank deficient."""


class AssignmentError(CompilerError):
    """No consistent irrep assignment exists for the requested block structure."""


class InconsistencyError(CompilerError):
    """An internal reconstruction identity failed beyond tolerance."""


@contextlib.contextmanager
def malformed(what: str):
    """Turn a missing, mis-typed or out-of-range field of an input file into
    a ValidationError. Usable as a decorator on the function that parses it."""
    try:
        yield
    except (AttributeError, KeyError, IndexError, TypeError, ValueError,
            OverflowError) as exc:
        raise ValidationError(f"malformed {what}: {type(exc).__name__}: {exc}") from exc
