"""Every exported name resolves, so a deleted definition cannot leave a stale
entry that breaks ``from oamring.<module> import *``."""

import importlib
import pkgutil

import pytest

import oamring

MODULES = sorted(info.name for info in pkgutil.iter_modules(oamring.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"oamring.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if getattr(module, n, None) is None] == []


def test_package_exports_resolve_once():
    assert [n for n in oamring.__all__ if getattr(oamring, n, None) is None] == []
    assert len(set(oamring.__all__)) == len(oamring.__all__)
