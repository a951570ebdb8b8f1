"""Static checks on the package source."""

import ast
from pathlib import Path

import vortibc

SRC = Path(vortibc.__file__).parent


def test_no_unused_module_imports():
    # every name a module imports at module level is read in it; __init__.py
    # imports to re-export and is skipped
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in read]
    assert not unused, "unused imports:\n" + "\n".join(unused)
