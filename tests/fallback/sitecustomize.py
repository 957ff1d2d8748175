"""Hide numpy's ``scipy_*`` LAPACK symbols from ctypes, as on a numpy
whose LAPACK names its routines otherwise, so that ``sysmor.numkernels``
binds none of them and takes its fallback: ``np.linalg.eigvals`` for the
level tests, scipy's ``_flapack`` for ``dgees`` and ``dtrsyl``.

Python imports ``sitecustomize`` at startup from the first path entry
that holds one, so putting this directory first on ``PYTHONPATH`` runs
any interpreter on the fallback, before it imports numpy or the package:

    PYTHONPATH=tests/fallback:src python -m pytest -q

The fresh interpreters of ``tests/test_numkernels.py`` that take the
fallback start this way too.  One of them hides a single routine: it
sets ``PREFIX`` below, before it imports numpy, and ctypes then hides
only the symbols that start with it.
"""

import ctypes

PREFIX = "scipy_"


class Hidden(ctypes.CDLL):
    def __getattr__(self, name):
        if name.startswith(PREFIX):
            raise AttributeError(name)
        return super().__getattr__(name)


ctypes.CDLL = Hidden
