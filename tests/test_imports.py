"""No module of the package imports a name it does not use, and no private
name is defined but never read.

Deleted code tends to leave its imports and its helpers behind; no linter
runs here, so this walks each module's syntax tree instead.  A module-level
import must be read somewhere in its module or be listed in the module's
``__all__``.  A module-level ``_name`` (function, class or constant) must be
read somewhere in the package outside its own definition.
"""

import ast
import functools
import pathlib

import pytest

import toda_whittaker

PACKAGE = pathlib.Path(toda_whittaker.__file__).parent
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.append(alias.asname or alias.name.split(".")[0])
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [
        name
        for name in _imported_names(tree)
        if name not in used and name not in _exported_names(tree)
    ]
    assert unused == [], f"{module} imports names it never uses: {unused}"


def _private_definitions(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [t.id for t in node.targets if isinstance(t, ast.Name)]
    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        names = [node.target.id]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(node: ast.AST) -> set[str]:
    """Names loaded, and attributes accessed, anywhere inside ``node``."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


@functools.lru_cache(maxsize=None)
def _top_level_reads() -> tuple[tuple[str, ast.stmt, frozenset], ...]:
    """Each top-level statement of the package, with its module and the names
    it reads."""
    return tuple(
        (path.name, node, frozenset(_reads(node)))
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
    )


@pytest.mark.parametrize("module", MODULES)
def test_every_private_name_is_read(module):
    statements = _top_level_reads()
    dead = [
        name
        for owner, node, _ in statements
        if owner == module
        for name in _private_definitions(node)
        if not any(name in reads for _, other, reads in statements if other is not node)
    ]
    assert dead == [], f"{module} defines private names nothing reads: {dead}"
