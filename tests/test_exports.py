import importlib
import pkgutil
import types

import phasestab

MODULES = [
    importlib.import_module(f"phasestab.{info.name}")
    for info in pkgutil.iter_modules(phasestab.__path__)
]


def test_module_exports_resolve():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(module, name, None) is not None, f"{module.__name__}.{name}"


def test_package_names_are_module_exports():
    # the package has no __all__ of its own; each public name it re-exports
    # must be listed by the module that defines it
    exported = {name for module in MODULES for name in module.__all__}
    public = [
        name
        for name in dir(phasestab)
        if not name.startswith("_")
        and not isinstance(getattr(phasestab, name), types.ModuleType)
    ]
    assert public
    assert [name for name in public if name not in exported] == []
