"""Repository hygiene checks: public API importability and __all__ sync.

These keep the package credible as a release: everything advertised in
``__all__`` must exist, and every subpackage must import cleanly on its
own (no hidden circular dependencies).
"""

import importlib

import pytest

SUBPACKAGES = [
    "repro",
    "repro.cells",
    "repro.netlist",
    "repro.sim",
    "repro.sta",
    "repro.synth",
    "repro.bench",
    "repro.core",
    "repro.baselines",
    "repro.postopt",
    "repro.reporting",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_imports_cleanly(name):
    module = importlib.import_module(name)
    assert module is not None


@pytest.mark.parametrize(
    "name",
    [n for n in SUBPACKAGES if n != "repro.reporting"],
)
def test_all_exports_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} should declare __all__"
    for symbol in exported:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_version_string():
    import repro

    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_no_wildcard_imports():
    import pathlib

    offenders = [
        str(p)
        for p in pathlib.Path("src").rglob("*.py")
        if "import *" in p.read_text()
    ]
    assert offenders == []
