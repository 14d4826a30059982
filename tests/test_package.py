"""The package namespace: every public name loads from its submodule on first use."""

import ast
import importlib
from pathlib import Path

import pytest

import cavity_bell


def test_every_export_is_its_submodule_object():
    assert cavity_bell.__all__ == sorted(set(cavity_bell.__all__))
    for name in cavity_bell.__all__:
        module = importlib.import_module(f"cavity_bell.{cavity_bell._SUBMODULE[name]}")
        assert getattr(cavity_bell, name) is getattr(module, name), name


def test_dir_lists_the_exports():
    names = dir(cavity_bell)
    assert set(cavity_bell.__all__) <= set(names)
    assert "__all__" in names and "__version__" in names


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cavity_bell import *", namespace)
    for name in cavity_bell.__all__:
        assert namespace[name] is getattr(cavity_bell, name), name


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="no_such_name"):
        cavity_bell.no_such_name
    assert not hasattr(cavity_bell, "_private")


def test_sources_parse_as_python_3_10():
    # the oldest Python the package supports; a newer syntax fails here first
    root = Path(__file__).parents[1]
    sources = [path for part in ("src", "tests", "bench") for path in (root / part).rglob("*.py")]
    assert len(sources) > 10
    for path in sources:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
