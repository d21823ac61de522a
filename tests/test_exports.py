"""Every public name a module declares must exist."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import rom2l

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(rom2l.__path__, "rom2l.")
)


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
