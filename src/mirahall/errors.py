"""Shared exception types.

Every failure mode that a caller might reasonably catch gets its own
class.  They all derive from MiraError so `except MiraError` works as a
blanket guard in the CLI.
"""


class MiraError(Exception):
    """Base class for all package-specific failures."""


class NonIntegral(MiraError):
    """Interpolation produced a non-integer coefficient."""


class InsufficientSamples(MiraError):
    """Not enough sample points for the requested interpolation degree."""


class RankTooSmall(MiraError):
    """A bipartition needs more parts than the ambient rank allows."""


class NotInImage(MiraError):
    """No preimage exists under the pair-to-bipartition correspondence."""


class Ambiguous(MiraError):
    """More than one preimage exists where exactly one was required."""


class NotNilpotent(MiraError):
    """Matrix expected to be nilpotent is not."""


class CostGuard(MiraError):
    """Requested brute-force computation exceeds the configured budget."""


class EdgeConventionMismatch(MiraError):
    """Closed-form transition labels disagree with the counting oracle."""


class DiagonalNotUnit(MiraError):
    """Triangular system has a non-invertible diagonal entry."""


class NotInTable(MiraError):
    """Requested cell lies outside the computed table."""


class OracleMismatch(MiraError):
    """A closed formula disagrees with its brute-force oracle."""


class FieldMismatch(MiraError):
    """Operands live over different prime fields."""


class NotFree(MiraError):
    """Module expected to be free of rank one is not."""


class Incompatible(MiraError):
    """Permutation and shape set fail the compatibility test."""


class ComponentMismatch(MiraError):
    """Comparison attempted across different lattice components."""


class TruncationTooSmall(MiraError):
    """Truncated model window is too short to classify the input."""


class NoTemplateMatch(MiraError):
    """Computed wall-crossing product fits none of the five shapes."""


class UsageError(MiraError):
    """Bad command-line arguments or config values."""


class IOFailure(MiraError):
    """File could not be read or written."""
