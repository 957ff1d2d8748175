"""Model order reduction for continuous-time LTI state-space models.

Adaptive rational interpolation on the imaginary axis (full and low-rank
variants), balanced truncation, and the norm machinery both rely on.
"""

from .exceptions import (
    DegenerateFactors,
    DimensionMismatch,
    DuplicateSupportPoint,
    IllPosedLyapunov,
    ImaginaryAxisPoles,
    InsufficientSpectrum,
    NonRealSampleAtZero,
    NonzeroFeedthrough,
    ParseError,
    RankOutOfRange,
    ResidualImaginaryPoles,
    Saturated,
    SingularAtFrequency,
    SingularW0,
    SysmorError,
    UnstableInput,
)
from .statespace import (
    StateSpace,
    dual,
    eval_freq,
    is_stable,
    poles,
    static_gain,
    subtract,
)
from .numkernels import GramianResult, solve_lyapunov
from .norms import LinfResult, h2_error_metric, linf_norm, sigma_max
from .report import IterationRecord, ReductionReport
from .sysaaa import (
    BlockRealization,
    Interpolant,
    StoppingOptions,
    SupportPoint,
    WeightMatrix,
    assemble_error_system,
    build_block,
    compute_X,
    realize_interpolant,
    reduce,
    sample_support_point,
    select_or_grow,
    solve_weights,
)
from .lowrank import reduce_lowrank
from .balred import balanced_truncate
from .modelio import (
    format_model,
    parse_model,
    parse_raw_matrices,
    read_model,
    write_model,
)

__version__ = "0.1.0"

__all__ = [
    "StateSpace",
    "static_gain",
    "eval_freq",
    "subtract",
    "dual",
    "poles",
    "is_stable",
    "GramianResult",
    "solve_lyapunov",
    "LinfResult",
    "linf_norm",
    "sigma_max",
    "h2_error_metric",
    "IterationRecord",
    "ReductionReport",
    "SupportPoint",
    "BlockRealization",
    "WeightMatrix",
    "Interpolant",
    "StoppingOptions",
    "sample_support_point",
    "build_block",
    "assemble_error_system",
    "compute_X",
    "solve_weights",
    "realize_interpolant",
    "reduce",
    "select_or_grow",
    "reduce_lowrank",
    "balanced_truncate",
    "parse_model",
    "format_model",
    "read_model",
    "write_model",
    "parse_raw_matrices",
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
    "DegenerateFactors",
    "UnstableInput",
    "ParseError",
]
