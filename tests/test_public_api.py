"""Public API surface: exported names, removed names, traced bindings."""

import importlib
import importlib.util
from pathlib import Path

import sysmor

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

REMOVED = ("series", "vertcat", "FrequencySample", "freq_sample")


def _expected_bindings():
    spec = importlib.util.spec_from_file_location("_sysmor_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.EXPECTED_BINDINGS


def test_exported_names_resolve():
    missing = [name for name in sysmor.__all__ if not hasattr(sysmor, name)]
    assert missing == []


def test_removed_names_are_gone():
    for name in REMOVED:
        assert name not in sysmor.__all__
        assert not hasattr(sysmor, name)
        assert not hasattr(sysmor.statespace, name)


def test_benchmark_tracer_bindings_exist():
    # The benchmark tracer wraps these functions at every listed module
    # binding; a refactor that drops one makes its self-check report it.
    for span, homes in _expected_bindings().items():
        layer, name = span.split(".")
        home = getattr(importlib.import_module(f"sysmor.{layer}"), name)
        for modname in homes:
            bound = getattr(importlib.import_module(modname), name, None)
            assert bound is home, f"{modname}.{name} is not {span}"
