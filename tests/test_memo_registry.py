"""tests/_memos.MEMOS, which the autouse fixture empties before every test,
lists every module-level memo of the package, so no memo a test warms can
leak into the next."""

import importlib
import pkgutil

import fracbessel

from _memos import MEMOS


def _name(memo):
    return f"{memo.__module__}.{memo.__qualname__}"


def test_memos_lists_every_module_level_cache():
    found = set()
    for info in pkgutil.iter_modules(fracbessel.__path__):
        module = importlib.import_module(f"fracbessel.{info.name}")
        found |= {_name(obj) for obj in vars(module).values() if hasattr(obj, "cache_clear")}
    assert found == {_name(memo) for memo in MEMOS}
