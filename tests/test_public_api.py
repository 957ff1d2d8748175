"""Public API surface: exported names, removed names, traced bindings,
and identity equality of the array-carrying types."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import sysmor
from sysmor import (
    Interpolant,
    StateSpace,
    SupportPoint,
    build_block,
)
from sysmor.numkernels import GramianResult
from sysmor.sysaaa import WeightMatrix

LAYERS = (
    "statespace", "numkernels", "norms", "report", "sysaaa", "lowrank",
    "balred", "modelio", "exceptions",
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

REMOVED = (
    "series", "vertcat", "FrequencySample", "freq_sample", "minreal",
    "LowRankPoint", "NewPoint", "GrowRank", "truncate_sample",
    "build_lowrank_block", "sym_eig_ascending", "svd_truncate", "sigma_max",
)


def _expected_bindings():
    spec = importlib.util.spec_from_file_location("_sysmor_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.EXPECTED_BINDINGS


def test_exported_names_resolve():
    missing = [name for name in sysmor.__all__ if not hasattr(sysmor, name)]
    assert missing == []


def test_package_reexports_each_layers_all():
    # Each layer's ``__all__`` is the one declaration of its public names.
    layers = [importlib.import_module(f"sysmor.{layer}") for layer in LAYERS]
    assert sysmor.__all__ == [name for mod in layers for name in mod.__all__]
    assert len(set(sysmor.__all__)) == len(sysmor.__all__)
    for mod in layers:
        for name in mod.__all__:
            assert getattr(sysmor, name) is getattr(mod, name), name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in sysmor.__all__
        assert not hasattr(sysmor, name)
        for module in (
            sysmor.statespace, sysmor.norms, sysmor.lowrank, sysmor.numkernels,
            sysmor.sysaaa,
        ):
            assert not hasattr(module, name), (module.__name__, name)


# Used inside the package and by tests, so importable from their layers,
# but no driver, the CLI or the README needs them.
LAYER_ONLY = {
    "static_gain": "statespace", "parse_model": "modelio",
    "GramianResult": "numkernels", "WeightMatrix": "sysaaa",
}


def test_layer_only_names_are_not_exported():
    for name, layer in LAYER_ONLY.items():
        assert name not in sysmor.__all__ and not hasattr(sysmor, name)
        assert hasattr(importlib.import_module(f"sysmor.{layer}"), name)


def test_benchmark_tracer_bindings_exist():
    # The benchmark tracer wraps these functions at every listed module
    # binding; a refactor that drops one makes its self-check report it.
    for span, homes in _expected_bindings().items():
        layer, name = span.split(".")
        home = getattr(importlib.import_module(f"sysmor.{layer}"), name)
        for modname in homes:
            bound = getattr(importlib.import_module(modname), name, None)
            assert bound is home, f"{modname}.{name} is not {span}"


def test_cli_imports_no_private_norms_name():
    # compare's L-infinity schedule lives behind one norms entry, so the
    # CLI imports none of the level-test internals by name.
    cli = Path(importlib.util.find_spec("sysmor.cli").origin)
    private = [
        alias.name
        for node in ast.walk(ast.parse(cli.read_text()))
        if isinstance(node, ast.ImportFrom) and node.module in ("norms", "sysmor.norms")
        for alias in node.names if alias.name.startswith("_")
    ]
    assert private == []


def _model():
    return StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])


def _weights():
    return WeightMatrix(np.eye(2, 4), (1.0, 2.0))


# Two calls of a factory build equal contents in distinct instances, each
# with arrays larger than 1 x 1 (where elementwise == has no truth value).
FACTORIES = {
    "StateSpace": _model,
    "SupportPoint": lambda: SupportPoint(1.0, np.eye(2)),
    "BlockRealization": lambda: build_block(SupportPoint(1.0, np.eye(2))),
    "WeightMatrix": _weights,
    "Interpolant": lambda: Interpolant(_model(), (), _weights()),
    "GramianResult": lambda: GramianResult(np.eye(2), 0.0),
}


@pytest.mark.parametrize("name", list(FACTORIES))
def test_array_carriers_compare_by_identity(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a == a and not a != a
    assert a != b and not a == b
    assert a in [b, a] and a not in [b]
    assert {a, b} == {b, a} and len({a, a, b}) == 2
