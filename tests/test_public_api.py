"""The package's public surface: every name it exports resolves."""

import importlib

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
