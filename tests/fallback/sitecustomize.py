"""Hide numpy's ``scipy_*`` LAPACK symbols from ctypes, as on a numpy
whose LAPACK names its routines otherwise, so that ``sysmor.numkernels``
binds none of them and takes its fallback: ``np.linalg.eigvals`` for the
level tests, scipy's ``_flapack`` for ``dgees`` and ``dtrsyl``.

Python imports ``sitecustomize`` at startup from the first path entry
that holds one, so putting this directory first on ``PYTHONPATH`` runs
any interpreter on the fallback, before it imports numpy or the package:

    PYTHONPATH=tests/fallback:src python -m pytest -q

The child interpreter of ``tests/check_bindings.py`` runs this way too.
"""

import ctypes


class Hidden(ctypes.CDLL):
    def __getattr__(self, name):
        if name.startswith("scipy_"):
            raise AttributeError(name)
        return super().__getattr__(name)


ctypes.CDLL = Hidden
