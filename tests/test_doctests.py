"""The examples in the package's docstrings run and print what they show."""

from __future__ import annotations

import doctest
import importlib

import pytest


@pytest.mark.parametrize("module", ["repro", "repro.runtime.seeding"])
def test_docstring_examples(module):
    failed, attempted = doctest.testmod(importlib.import_module(module))
    assert attempted > 0
    assert failed == 0
