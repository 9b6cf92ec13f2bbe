"""Export hygiene: every ``repro`` module imports, and every name in its
``__all__`` resolves, lazy PEP 562 exports included.  A deletion that
leaves a stale re-export behind fails here."""

import importlib
import pkgutil

import repro


def test_every_module_exports_resolve():
    failures = []
    names = [repro.__name__]
    for info in pkgutil.walk_packages(
        repro.__path__, prefix="repro.", onerror=failures.append
    ):
        if info.name.rsplit(".", 1)[-1] != "__main__":
            names.append(info.name)
    for name in names:
        try:
            module = importlib.import_module(name)
        except Exception as exc:  # noqa: BLE001 - collected below
            failures.append(f"{name}: {type(exc).__name__}: {exc}")
            continue
        for attr in getattr(module, "__all__", ()):
            if not hasattr(module, attr):
                failures.append(f"{name}.__all__ names missing {attr!r}")
    assert failures == []
    assert "repro.core.engine.legacy" in names
