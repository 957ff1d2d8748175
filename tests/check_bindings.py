"""Check that numpy's own LAPACK runs the package, with nothing else loaded,
and that scipy's fallback gives the same run.

    PYTHONPATH=src python tests/check_bindings.py

numpy's OpenBLAS runs the package's three LAPACK routines (dgeev, dgees,
dtrsyl) through ctypes.  All three must bind on the installed numpy
wheel, since a renamed symbol would fall back to np.linalg.eigvals and
scipy's LAPACK unseen.  ``run`` then makes a small reduction and a small
``compare_methods`` of balanced truncation and lowrank-aaa, whose
balanced orders' first level tests a worker thread solves, and reads the
Schur form of the reduction's error system G - R, which factors its own
stacked A: its Gramian by ``solve_lyapunov`` and the L-infinity norm of
its dual.  These must load no scipy module and leave numpy.ma
unimported.  A child interpreter, in which ctypes finds none of numpy's
``scipy_*_64_`` symbols, then runs the same ``run`` through the
fallback: it must load no scipy module but ``scipy.linalg._flapack``,
and its records, compare entries, Gramian and norm must equal this
interpreter's to 1e-12 relative.  Exits non-zero with the failed
assertion.  pytest does not collect this file (its name does not start
with test_), so it can run where pytest is not installed.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import sysmor.cli
from oracles import mass_chain

# The fallback's run: ctypes finds no scipy_* symbol, as on a numpy whose
# LAPACK names its routines otherwise.
FALLBACK = """
import ctypes, json, sys

class Hidden(ctypes.CDLL):
    def __getattr__(self, name):
        if name.startswith("scipy_"):
            raise AttributeError(name)
        return super().__getattr__(name)

ctypes.CDLL = Hidden
import sysmor
from check_bindings import run
assert sysmor.numkernels._dgees is None
ran = run()
scipy = [k for k in sys.modules if k.split(".")[0] == "scipy"]
assert scipy == ["scipy.linalg._flapack"], scipy
print(json.dumps(ran))
"""


def run() -> dict:
    """The records of a small reduction to R, the entries, without their
    reduced models, of a small compare, and the Gramian of G - R and the
    L-infinity norm of its dual, as JSON round-trips them."""
    model = mass_chain(0, 4, [0], [3])
    interpolant, report = sysmor.reduce(model, sysmor.StoppingOptions(max_iterations=3))
    entries = sysmor.cli.compare_methods(
        model, ["balanced", "lowrank-aaa"], 3, sysmor.StoppingOptions()
    )
    err = sysmor.subtract(model, interpolant.sys)
    norm = sysmor.linf_norm(sysmor.dual(err))
    return json.loads(json.dumps({
        "records": [record.to_dict() for record in report.records],
        "entries": [{k: v for k, v in e.items() if k != "system"} for e in entries],
        "gramian": sysmor.solve_lyapunov(err).P.tolist(),
        "linf": [norm.gamma, norm.omega_peak],
    }))


def main():
    for name in ("_dgeev", "_dgees", "_dtrsyl"):
        assert getattr(sysmor.numkernels, name) is not None, (
            f"{name} not bound on numpy's LAPACK"
        )
    ours = run()
    scipy = [k for k in sys.modules if k.split(".")[0] == "scipy"]
    assert not scipy, scipy
    assert "numpy.ma" not in sys.modules

    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    env = dict(os.environ, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-c", FALLBACK], env=env, capture_output=True, text=True
    )
    assert child.returncode == 0, child.stderr
    theirs = json.loads(child.stdout)
    for part in ("records", "entries"):
        rows, other = ours[part], theirs[part]
        assert rows and [r.keys() for r in rows] == [t.keys() for t in other], part
        for r, t in zip(rows, other):
            for key, value in r.items():
                if isinstance(value, float):
                    assert math.isclose(value, t[key], rel_tol=1e-12), (key, value, t[key])
                else:
                    assert value == t[key], (key, value, t[key])
    P, P_fallback = (np.array(ran["gramian"]) for ran in (ours, theirs))
    assert P.size and np.linalg.norm(P - P_fallback) <= 1e-12 * np.linalg.norm(P)
    for value, other in zip(ours["linf"], theirs["linf"]):
        assert math.isclose(value, other, rel_tol=1e-12), ("linf", value, other)


if __name__ == "__main__":
    main()
