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


def test_no_function_level_package_imports():
    # a module imports the package modules it uses at its top; only cli.py
    # imports per command, so that `vortibc --help` loads no scipy.  Other
    # lazy imports (scipy.sparse.linalg in elliptic) are not package imports
    hits = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for inner in ast.walk(node):
                if isinstance(inner, ast.ImportFrom):
                    package = inner.level > 0 or (inner.module or "").split(".")[0] == "vortibc"
                elif isinstance(inner, ast.Import):
                    package = any(a.name.split(".")[0] == "vortibc" for a in inner.names)
                else:
                    continue
                if package:
                    hits.add(f"{path.name}:{inner.lineno}")
    assert not hits, "function-level package imports:\n" + "\n".join(sorted(hits))
