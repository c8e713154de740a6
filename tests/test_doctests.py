"""The examples in the module docstrings run as tests."""

import doctest
import importlib
import pkgutil
from pathlib import Path

import pretopo
import pretopo.core
import pretopo.operators


def test_core_doctests():
    result = doctest.testmod(pretopo.core)
    assert result.failed == 0
    assert result.attempted >= 7


def test_operators_doctests():
    result = doctest.testmod(pretopo.operators)
    assert result.failed == 0
    assert result.attempted >= 5


def test_every_module_doctests():
    """The package and every module in it, found by `pkgutil`, so that a
    new module's examples run without a change here."""
    names = ["pretopo"] + [
        info.name for info in pkgutil.iter_modules(pretopo.__path__, "pretopo.")
    ]
    attempted = {}
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, name
        attempted[name] = result.attempted
    files = Path(pretopo.__file__).parent.glob("*.py")
    assert set(attempted) == {
        "pretopo" if f.stem == "__init__" else f"pretopo.{f.stem}" for f in files
    }
    assert attempted["pretopo.cardinal"] >= 4
    assert attempted["pretopo.skills"] >= 4
