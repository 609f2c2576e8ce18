"""The package's public surface: every name it exports resolves, each has
a caller beyond the tests, and each CDF has one checked entry point."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import dhtplan


def test_every_exported_name_is_an_attribute():
    assert [name for name in dhtplan.__all__ if not hasattr(dhtplan, name)] == []


def test_star_import():
    namespace = {}
    exec("from dhtplan import *", namespace)
    assert set(dhtplan.__all__) <= set(namespace)


def test_every_exported_name_is_its_home_modules_object():
    for name, home in dhtplan._EXPORTS.items():
        module = importlib.import_module("dhtplan." + home)
        assert getattr(dhtplan, name) is getattr(module, name), name


def test_dir_lists_every_exported_name():
    assert set(dhtplan.__all__) <= set(dir(dhtplan))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'solve_everything'"):
        dhtplan.solve_everything


def test_every_exported_name_has_a_caller_beyond_the_tests():
    # a caller is the CLI, another package module, the benchmark, the tools
    # or the README; __init__ lists every name, so it is no caller
    root = Path(__file__).resolve().parents[1]
    package = root / "src" / "dhtplan"
    sources = [*package.glob("*.py"), *root.glob("perfbench/*.py"),
               *root.glob("tools/*.py"), root / "README.md"]
    texts = {path: path.read_text() for path in sources}

    def called(name):
        home = package / ("%s.py" % dhtplan._EXPORTS.get(name, "__init__"))
        return any(re.search(r"\b%s\b" % name, text) for path, text in texts.items()
                   if path not in (home, package / "__init__.py"))

    assert [name for name in dhtplan.__all__ if not called(name)] == []


def test_each_cdf_has_one_kernel_entry_and_one_checked_entry():
    # modules reach _backend through the module object, so a patch of one of
    # its names reaches every caller; the checked CDFs live in stat_kernels only
    package = Path(__file__).resolve().parents[1] / "src" / "dhtplan"
    imports, defined = [], set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        imports += [path.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1
                    and node.module == "_backend"]
        if path.name == "_backend.py":
            defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert imports == []
    assert {"_binom_pass", "_poisson_pass", "_binom_grid"} <= defined
    assert not {"binom_cdf", "poisson_cdf"} & defined
