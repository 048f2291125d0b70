"""API surface quality checks: docstrings, export and import hygiene.

Every public module, class and function reachable from the package
``__all__`` lists must carry a docstring, and every name exported in an
``__all__`` must actually exist — the library's documentation contract.
No module (package ``__init__`` files aside, which import to re-export)
may import a name it never uses.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

import repro

SRC_ROOT = pathlib.Path(repro.__file__).parent


def _dotted(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC_ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


# Every package and module under src/repro (``__main__`` runs the CLI on
# import, so it is left out).
PACKAGES = sorted(_dotted(path) for path in SRC_ROOT.rglob("__init__.py"))
MODULES = sorted(
    _dotted(path)
    for path in SRC_ROOT.rglob("*.py")
    if path.name not in ("__init__.py", "__main__.py")
)


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_module_has_docstring(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), name


@pytest.mark.parametrize("name", PACKAGES + MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for export in getattr(module, "__all__", []):
        assert _resolves(module, export), (
            f"{name}.__all__ lists missing {export}"
        )


def _resolves(module, export: str) -> bool:
    """Is ``export`` an attribute of ``module`` or, for a package, an
    importable submodule (which the package need not import eagerly)?"""

    if hasattr(module, export):
        return True
    if not hasattr(module, "__path__"):
        return False
    try:
        importlib.import_module(f"{module.__name__}.{export}")
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    for export in exports:
        obj = getattr(module, export)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__doc__ and obj.__doc__.strip(), (
                f"{name}.{export} lacks a docstring"
            )


def test_version_exposed():
    import repro

    assert repro.__version__


def _annotation_names(node):
    """Names an annotation uses, including inside quoted annotations."""

    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                quoted = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            yield from _annotation_names(quoted)


def unused_imports(source: str) -> list[str]:
    """The names ``source`` imports and never reads, exports or annotates
    with."""

    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(
                element.value
                for element in getattr(node.value, "elts", ())
                if isinstance(element, ast.Constant)
            )
    return [
        f"{name} (line {line})"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used
    ]


SOURCE_MODULES = sorted(
    path.relative_to(SRC_ROOT).as_posix()
    for path in SRC_ROOT.rglob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("module", SOURCE_MODULES)
def test_no_unused_imports(module):
    unused = unused_imports((SRC_ROOT / module).read_text())
    assert not unused, f"{module} imports but never uses: {', '.join(unused)}"


def test_unused_import_check_sees_what_it_should():
    source = (
        "from __future__ import annotations\n"
        "import os, re\n"
        "from typing import Sequence\n"
        "from x import Quoted, Exported, Dropped\n"
        "__all__ = ['Exported']\n"
        "def f(a: 'Quoted') -> Sequence[int]:\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == ["re (line 2)", "Dropped (line 4)"]
