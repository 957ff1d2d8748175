"""Check that numpy's own LAPACK runs the package, with nothing else loaded.

    PYTHONPATH=src python tests/check_bindings.py

numpy's OpenBLAS runs the package's three LAPACK routines (dgeev, dgees,
dtrsyl) through ctypes.  All three must bind on the installed numpy
wheel, since a renamed symbol would fall back to np.linalg.eigvals and
scipy's LAPACK unseen; a small reduction must then load no scipy module
and leave numpy.ma unimported.  Exits non-zero with the failed assertion.
pytest does not collect this file (its name does not start with test_),
so it can run where pytest is not installed.
"""

import sys

import sysmor.cli
from oracles import mass_chain

for name in ("_dgeev", "_dgees", "_dtrsyl"):
    assert getattr(sysmor.numkernels, name) is not None, (
        f"{name} not bound on numpy's LAPACK"
    )
sysmor.reduce(mass_chain(0, 4, [0], [3]), sysmor.StoppingOptions(max_iterations=3))
scipy = [k for k in sys.modules if k.split(".")[0] == "scipy"]
assert not scipy, scipy
assert "numpy.ma" not in sys.modules
