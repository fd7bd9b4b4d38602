"""The package's public names: each declared once, in its module's ``__all__``;
and every name its docs refer to exists."""

import importlib
import pathlib
import re

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


SOURCES = sorted((pathlib.Path(aybe.__file__).parent).glob("*.py"))
# a module of the package, with or without the package prefix
_MODULE_NAME = "|".join(p.stem for p in SOURCES if p.stem != "__init__")


def _resolves(target, module):
    """Whether the dotted ``target`` names an attribute of ``module``, of
    the package, or of a module of the package (``aybe.x.y`` or ``x.y``)."""
    parts = target.lstrip("~").split(".")
    if parts[0] == "aybe":
        parts = parts[1:]
    for obj in (module, aybe):
        for part in parts:
            if not hasattr(obj, part):
                try:
                    obj = importlib.import_module(f"{obj.__name__}.{part}")
                    continue
                except (AttributeError, ImportError):
                    break
            obj = getattr(obj, part)
        else:
            return True
    return False


def test_every_docstring_reference_resolves():
    # a reference to a deleted or renamed helper fails here, not in a reader
    checked, missing = 0, []
    for path in SOURCES:
        module = importlib.import_module("aybe" if path.stem == "__init__" else f"aybe.{path.stem}")
        text = path.read_text()
        roles = re.findall(r":(?:func|class|data|meth|mod):`([^`]+)`", text)
        literals = re.findall(rf"``((?:aybe\.)?(?:{_MODULE_NAME})\.\w+)``", text)
        checked += len(roles) + len(literals)
        missing += [(path.stem, t) for t in roles + literals if not _resolves(t, module)]
    assert checked > 100
    assert missing == []


def test_every_private_name_in_the_readme_resolves():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    names = set(re.findall(r"`((?:aybe\.\w+\.)?_\w+)`", readme.read_text()))
    assert "_CHECKS" in names
    modules = [importlib.import_module(f"aybe.{p.stem}") for p in SOURCES if p.stem != "__init__"]
    missing = sorted(x for x in names if not any(_resolves(x, m) for m in modules))
    assert missing == []
