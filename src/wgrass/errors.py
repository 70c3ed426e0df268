"""Exception hierarchy shared across the package."""


class WgrassError(Exception):
    """Base class for all package errors."""


class ParameterError(WgrassError):
    """Malformed input: bad (k, n), wrong vector length, bad words, ..."""


class CapacityError(WgrassError):
    """A request exceeds the desk-scale caps of an exhaustive search."""


class InvalidWeightVectorError(ParameterError):
    """The given weight vector fails the constant pair-sum test."""


class NotDivisiveError(WgrassError):
    """An operation requires a divisibility-descending weight vector."""


class InternalInconsistencyError(WgrassError):
    """An exactness invariant failed; indicates a bug, not bad input."""
