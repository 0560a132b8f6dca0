"""Static checks of the package's import hygiene, with the stdlib ast."""

import ast
import importlib
import re
from pathlib import Path

import ocn_gamelab

PACKAGE = Path(ocn_gamelab.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_no_unreferenced_private_definitions():
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}

    def references(node) -> list:
        return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute))]

    everywhere = [name for tree in trees.values() for name in references(tree)]
    unreferenced = []
    for filename, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_")
                    and everywhere.count(node.name) == references(node).count(node.name)):
                unreferenced.append(f"{filename}:{node.lineno}: {node.name}")
    assert unreferenced == []


def test_traced_functions_exist():
    # The benchmark's tracer rebinds these (module, attribute) names when
    # it installs; a renamed or removed one would crash the traced run.
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    targets = next(node for node in tree.body
                   if isinstance(node, ast.FunctionDef) and node.name == "_targets")
    names = [(node.elts[0].value, node.elts[1].value) for node in ast.walk(targets)
             if isinstance(node, ast.Tuple) and len(node.elts) == 3
             and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                     for e in node.elts[:2])]
    assert len(names) >= 20
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"ocn_gamelab.{module}"), attr)]
    assert missing == []


def test_public_functions_are_reached():
    # Every public callable but the exception types is referenced by a
    # module of the package (its own definition aside) or named by the
    # benchmark, whose tracer names the functions it rebinds in strings.
    # Code that only the tests reach belongs in tests/oracles.py.
    referenced = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            tree = ast.parse(path.read_text(), filename=str(path))
            referenced |= {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                           if isinstance(n, (ast.Name, ast.Attribute))}
    benchmark = "\n".join(path.read_text() for path in sorted(PERFBENCH.glob("*.py")))
    unreached = [name for name in ocn_gamelab.__all__
                 if callable(obj := getattr(ocn_gamelab, name))
                 and not (isinstance(obj, type) and issubclass(obj, BaseException))
                 and name not in referenced
                 and not re.search(rf"\b{name}\b", benchmark)]
    assert unreached == []
