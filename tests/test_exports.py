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


def _imported(tree: ast.AST) -> set[str]:
    """Names a file binds by import, at module level or inside a function."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def _references(path: Path, strings: bool) -> Counter:
    """Names a file uses: loaded names, attributes of imported names and, if
    ``strings``, string constants.

    ``x.name`` is a use only when ``x`` is a name the file imports, so
    ``cli.render_report`` is one and ``m.stat.upsilon`` is not.  Definitions,
    imports and the strings of an ``__all__`` list are not uses.
    """
    tree = ast.parse(path.read_text())
    imported = _imported(tree)
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
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in imported
        ):
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


def test_attribute_of_a_local_object_is_no_use(tmp_path):
    path = tmp_path / "user.py"
    path.write_text(
        "from phasestab import cli\n"
        "\n"
        "def summarize(m):\n"
        "    return m.stat.upsilon, cli.render_report\n"
    )
    used = _references(path, strings=False)
    assert used["render_report"] == 1
    assert used["upsilon"] == 0
