"""Every exported name resolves, so a removed entry point leaves no dangling export."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import fvi
import fvi.harness as harness


def _modules():
    yield fvi
    for info in pkgutil.iter_modules(fvi.__path__):
        if info.name != "__main__":
            yield importlib.import_module(f"fvi.{info.name}")


def test_every_exported_name_resolves():
    for module in _modules():
        missing = [n for n in getattr(module, "__all__", ())
                   if not hasattr(module, n)]
        assert not missing, (module.__name__, missing)


@pytest.mark.parametrize("name", ["run_midcq", "ScalarWeightSequence", "apply_midcq"])
def test_run_midcq_is_not_exported(name):
    """Removed midpoint special cases stay gone from every module."""
    for module in _modules():
        assert name not in getattr(module, "__all__", ()), module.__name__
        assert not hasattr(module, name), module.__name__


def _tracer():
    """bench/tracer.py, loaded by path and read only."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_fvi_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_names_resolve():
    """Every span of bench/tracer.py finds at least one fvi name to wrap.

    The tracer reports a span whose names are all gone as absent, so a
    removed import of a traced name would otherwise pass unnoticed here.
    """
    unresolved = [span for span, sites in _tracer().SITES.items()
                  if not any(hasattr(importlib.import_module(module), attr)
                             for module, attr in sites)]
    assert not unresolved


def test_traced_weight_spans_see_both_table_paths(tmp_path):
    """A run and an export reach their weight tables through traced names.

    A name that resolves but is bypassed, say a dispatcher calling
    fvi.cq.compute_weights by module, would leave its weight metrics at 0.
    """
    with _tracer().Tracer() as trace:
        harness.run_benchmark(fvi.by_name("bagley-torvik"), "lobatto2", 16)
        harness.export_weights("midcq", -0.5, 0.1, 4, tmp_path / "w.csv")
    spans = {span[0] for span in trace.spans}
    assert {"cq.compute_weights", "cq.midcq_weights"} <= spans
    assert not trace.weights["retries"] and trace.weights["table_bytes"] > 0
