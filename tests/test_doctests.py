"""The examples in the module docstrings run as tests."""

import doctest

import pretopo.core


def test_core_doctests():
    result = doctest.testmod(pretopo.core)
    assert result.failed == 0
    assert result.attempted >= 7
