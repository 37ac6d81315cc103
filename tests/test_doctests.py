"""The docstring examples of every rigidhecke module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import rigidhecke

MODULES = ["rigidhecke"] + [f"rigidhecke.{m.name}" for m in pkgutil.iter_modules(rigidhecke.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_exactpoly_examples_are_collected():
    result = doctest.testmod(importlib.import_module("rigidhecke.exactpoly"))
    assert result.attempted >= 4
