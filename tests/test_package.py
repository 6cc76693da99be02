import importlib

import pytest

import eulercc


def test_every_public_name_is_its_submodule_attribute():
    assert len(set(eulercc.__all__)) == len(eulercc.__all__) == 37
    for name in eulercc.__all__:
        module = importlib.import_module(f"eulercc.{eulercc._SOURCE[name]}")
        assert getattr(eulercc, name) is getattr(module, name), name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from eulercc import *", namespace)
    assert all(namespace[name] is getattr(eulercc, name) for name in eulercc.__all__)


def test_dir_lists_every_public_name():
    assert set(eulercc.__all__) <= set(dir(eulercc))


def test_unknown_attribute_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'eulercc' has no attribute 'count_everything'"):
        eulercc.count_everything
    assert not hasattr(eulercc, "count_everything")
