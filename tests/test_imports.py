"""No module of the package imports a name it does not use.

Deleted code tends to leave its imports behind; no linter runs here, so this
walks each module's syntax tree instead.  A module-level import must be read
somewhere in its module or be listed in the module's ``__all__``.
"""

import ast
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
