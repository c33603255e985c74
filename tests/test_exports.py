"""Every name a kronjl module exports through __all__ exists."""

import importlib
import pkgutil

import kronjl


def test_every_exported_name_exists():
    checked = 0
    for info in pkgutil.iter_modules(kronjl.__path__):
        module = importlib.import_module(f"kronjl.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"kronjl.{info.name}.{name}"
            checked += 1
    assert checked > 0
