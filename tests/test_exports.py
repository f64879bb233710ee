"""Every name a package exports in ``__all__`` resolves."""

import importlib

import pytest

PACKAGES = ("sbobench", "sbobench.core", "sbobench.surrogates", "sbobench.solvers",
            "sbobench.problems", "sbobench.analysis", "sbobench.harness")


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
