"""The library's module-level memos, found by scanning the package, for
tests that need them empty."""

import functools
import importlib
import pkgutil

import fracbessel


@functools.cache
def memos() -> tuple:
    """Every module-level cache of the package (anything with cache_clear),
    found once per session, before any test patches a module."""
    found = {}
    for info in pkgutil.iter_modules(fracbessel.__path__):
        module = importlib.import_module(f"fracbessel.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                found[id(obj)] = obj
    return tuple(found.values())


def clear_memos():
    for memo in memos():
        memo.cache_clear()
