"""Exceptions shared across the package."""


class SizeMismatch(ValueError):
    """Operands live in symmetric groups / algebras of different rank."""


class DimensionMismatch(ValueError):
    """Vectors or matrices with incompatible ambient dimensions."""


class BlockMismatch(ValueError):
    """Operands belong to different weight blocks."""


class BoundExceeded(ValueError):
    """A requested computation exceeds a fixed desk-scale bound."""


class PoleAtPoint(ZeroDivisionError):
    """Evaluation of a rational function at a pole of its denominator."""


class MembershipFailure(RuntimeError):
    """A claimed subspace membership fails; carries a residual witness."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class UnknownCheck(ValueError):
    """CLI was asked to run a check that does not exist."""
