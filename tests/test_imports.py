"""Static checks of the package's import hygiene, with the stdlib ast."""

import ast
from pathlib import Path

import ocn_gamelab

PACKAGE = Path(ocn_gamelab.__file__).parent


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each module-level import, mapped to its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in imported_names(tree).items() if name not in used]
    assert unused == []


def test_all_lists_exactly_the_imported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert set(ocn_gamelab.__all__) == set(imported_names(tree))
    assert len(ocn_gamelab.__all__) == len(set(ocn_gamelab.__all__))
