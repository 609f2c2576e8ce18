"""The package's public surface: every name it exports resolves."""

import dhtplan


def test_every_exported_name_is_an_attribute():
    assert [name for name in dhtplan.__all__ if not hasattr(dhtplan, name)] == []


def test_star_import():
    namespace = {}
    exec("from dhtplan import *", namespace)
    assert set(dhtplan.__all__) <= set(namespace)
