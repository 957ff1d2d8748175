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
)
from sysmor.numkernels import GramianResult
from sysmor.sysaaa import WeightMatrix
from oracles import mass_chain

LAYERS = (
    "statespace", "numkernels", "norms", "report", "sysaaa", "lowrank",
    "balred", "modelio", "exceptions",
)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

REMOVED = (
    "series", "vertcat", "FrequencySample", "freq_sample", "minreal",
    "LowRankPoint", "NewPoint", "GrowRank", "truncate_sample",
    "build_lowrank_block", "sym_eig_ascending", "svd_truncate", "sigma_max",
    "BlockRealization", "build_block", "DegenerateFactors",
)


def _tracer():
    spec = importlib.util.spec_from_file_location("_sysmor_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


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
    "parse_raw_matrices": "modelio",
    "GramianResult": "numkernels", "WeightMatrix": "sysaaa",
}


def test_layer_only_names_are_not_exported():
    for name, layer in LAYER_ONLY.items():
        assert name not in sysmor.__all__ and not hasattr(sysmor, name)
        assert hasattr(importlib.import_module(f"sysmor.{layer}"), name)


def test_benchmark_tracer_bindings_exist():
    # The benchmark tracer wraps these functions at every listed module
    # binding; a refactor that drops one makes its self-check report it.
    for span, homes in _tracer().EXPECTED_BINDINGS.items():
        layer, name = span.split(".")
        home = getattr(importlib.import_module(f"sysmor.{layer}"), name)
        for modname in homes:
            bound = getattr(importlib.import_module(modname), name, None)
            assert bound is home, f"{modname}.{name} is not {span}"


def test_cli_uses_no_private_name_of_the_package():
    # The CLI runs on public names: it neither imports a _-prefixed name
    # from a sysmor module nor reads a _-prefixed attribute of one.
    cli = Path(importlib.util.find_spec("sysmor.cli").origin)
    tree = ast.parse(cli.read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {
                alias.asname or alias.name.split(".")[0] for alias in node.names
                if alias.name.split(".")[0] == "sysmor"
            }
        elif isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "sysmor"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
                if node.module is None or node.module == "sysmor":  # a module
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if (
            isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(root, ast.Name) and root.id in modules
        ):
            private.append(ast.unparse(node))
    assert private == []


def test_every_public_exception_has_a_raise_site():
    # An exception class that nothing raises any more is a public name
    # without a job; each but the base class is raised somewhere in the
    # package, by name.
    raised = set()
    for path in Path(sysmor.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    unraised = set(sysmor.exceptions.__all__) - raised - {"SysmorError"}
    assert unraised == set()


def test_compare_sweep_is_traced_under_compare_methods():
    # The benchmark tracer wraps each layer's public functions, so the
    # balanced orders' L-infinity sweep is a norms span of its own inside
    # compare_methods, not compare_methods' self time.
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        sysmor.cli.compare_methods(
            mass_chain(0, 4, inputs=(0,), outputs=(3,)), ["balanced", "sys-aaa"],
            3, sysmor.StoppingOptions(),
        )
    finally:
        tracer.uninstall()
    names = [name for name, *_ in tracer.spans]
    sweeps = [parent for name, _, _, parent in tracer.spans if name == "norms.linf_sweep"]
    assert len(sweeps) == 1 and names[sweeps[0]] == "cli.compare_methods"
    assert tracer.absent == [] and tracer.invariant_violations() == []


def _model():
    return StateSpace(-np.eye(2), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])


def _weights():
    return WeightMatrix(np.eye(2, 4), (1.0, 2.0))


# Two calls of a factory build equal contents in distinct instances, each
# with arrays larger than 1 x 1 (where elementwise == has no truth value).
FACTORIES = {
    "StateSpace": _model,
    "SupportPoint": lambda: SupportPoint(1.0, np.eye(2)),
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
