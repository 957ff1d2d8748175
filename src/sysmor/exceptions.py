"""Exception types raised across the toolkit."""

__all__ = [
    "SysmorError",
    "DimensionMismatch",
    "SingularAtFrequency",
    "IllPosedLyapunov",
    "RankOutOfRange",
    "ImaginaryAxisPoles",
    "NonzeroFeedthrough",
    "NonRealSampleAtZero",
    "ResidualImaginaryPoles",
    "InsufficientSpectrum",
    "SingularW0",
    "DuplicateSupportPoint",
    "Saturated",
    "UnstableInput",
    "ParseError",
]


class SysmorError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(SysmorError):
    """Operands have incompatible input/output/state dimensions."""


class SingularAtFrequency(SysmorError):
    """jw*I - A is numerically singular at the requested frequency."""


class IllPosedLyapunov(SysmorError):
    """The Lyapunov equation has no unique solution (lambda_i + lambda_j ~ 0)."""


class RankOutOfRange(SysmorError):
    """Requested truncation rank outside 1..min(p, q)."""


class ImaginaryAxisPoles(SysmorError):
    """A has eigenvalues on (or too close to) the imaginary axis."""


class NonzeroFeedthrough(SysmorError):
    """H2 metric requested for a system with D != 0."""


class NonRealSampleAtZero(SysmorError):
    """G(0) has a non-negligible imaginary part; the system data is not real."""


class ResidualImaginaryPoles(SysmorError):
    """The +/- j*omega_k block poles fail to cancel in the error system."""


class InsufficientSpectrum(SysmorError):
    """Fewer qualifying eigenvalues than weight rows requested."""


class SingularW0(SysmorError):
    """Leading p x p weight block is numerically singular."""


class DuplicateSupportPoint(SysmorError):
    """Candidate frequency coincides with an existing support point."""


class Saturated(SysmorError):
    """Nearest support point already at rank min(p, q); no rank growth possible."""


class UnstableInput(SysmorError):
    """Operation requires a stable system."""


class ParseError(SysmorError):
    """Model file is malformed."""
