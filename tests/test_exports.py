"""Every exported name resolves, so a removed entry point leaves no dangling export."""

import importlib
import pkgutil

import pytest

import fvi


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
