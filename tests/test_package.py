"""The package's public names: each declared once, in its module's ``__all__``."""

import importlib

import pytest

import aybe

MODULES = ("errors", "tensors", "special", "solutions", "verify", "series", "curve")


def _module(name):
    return importlib.import_module(f"aybe.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_declared_name_exists(name):
    module = _module(name)
    missing = [x for x in module.__all__ if not hasattr(module, x)]
    assert not missing
    assert len(set(module.__all__)) == len(module.__all__)


def test_no_name_is_declared_by_two_modules():
    # a star import would let the later module shadow the earlier one
    owners = {}
    for name in MODULES:
        for x in _module(name).__all__:
            owners.setdefault(x, []).append(name)
    assert {x: mods for x, mods in owners.items() if len(mods) > 1} == {}


def test_the_package_exports_the_union():
    union = [x for name in MODULES for x in _module(name).__all__]
    assert len(set(aybe.__all__)) == len(aybe.__all__)
    assert set(aybe.__all__) == set(union) | {"__version__"}
    for name in MODULES:
        module = _module(name)
        for x in module.__all__:
            assert getattr(aybe, x) is getattr(module, x)
