"""Model order reduction for continuous-time LTI state-space models.

Adaptive rational interpolation on the imaginary axis (full and low-rank
variants), balanced truncation, and the norm machinery both rely on.
"""

from . import (
    balred, exceptions, lowrank, modelio, norms, numkernels, report, statespace,
    sysaaa,
)
from .statespace import *
from .numkernels import *
from .norms import *
from .report import *
from .sysaaa import *
from .lowrank import *
from .balred import *
from .modelio import *
from .exceptions import *

__version__ = "0.1.0"

# Each layer's ``__all__`` declares its public names; the package
# re-exports them all, layer by layer.
__all__ = [
    name
    for layer in (
        statespace, numkernels, norms, report, sysaaa, lowrank, balred, modelio,
        exceptions,
    )
    for name in layer.__all__
]
