import ast
import importlib
import pkgutil
import types
from collections import Counter
from pathlib import Path

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


def _references(path: Path, strings: bool) -> Counter:
    """Names a file uses: loaded names, attributes and, if ``strings``, string constants.

    Definitions, imports and the strings of an ``__all__`` list are not uses.
    """
    tree = ast.parse(path.read_text())
    listed = {
        id(node)
        for stmt in tree.body
        if isinstance(stmt, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)
        for node in ast.walk(stmt.value)
    }
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in listed:
                used[node.value] += 1
    return used


def test_every_export_has_a_caller_outside_the_tests():
    # a public name that only tests call belongs in the tests (oracles.py);
    # the package's re-exports in __init__.py are not callers.  Only the
    # scripts and the benchmark look names up by string (the tracer's keys),
    # so a string in the package, such as a report row's label, is no use.
    root = Path(__file__).resolve().parents[1]
    package = Path(phasestab.__file__).parent
    files = [(p, False) for p in package.glob("*.py") if p.name != "__init__.py"]
    files += [(p, True) for p in (*root.glob("scripts/*.py"), *root.glob("phasebench/*.py"))]
    used = sum((_references(path, strings) for path, strings in files), Counter())
    unused = [
        f"{module.__name__}.{name}"
        for module in MODULES
        for name in module.__all__
        if not used[name]
    ]
    assert unused == []
