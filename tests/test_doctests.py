"""The examples in the module docstrings run as tests."""

import doctest
import importlib

import pytest

MODULES = ("affine", "bimodule", "laurent", "pairs", "partitions", "symfunc", "traces")


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    module = importlib.import_module(f"mirahall.{name}")
    result = doctest.testmod(module)
    assert result.attempted > 0, name
    assert result.failed == 0, name
