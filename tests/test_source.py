"""Static checks on the package source."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import vortibc

SRC = Path(vortibc.__file__).parent
ROOT = Path(__file__).resolve().parent.parent


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


def test_every_module_level_definition_is_referenced():
    # every module-level function and class of the package is named, as a
    # whole word, somewhere outside its own definition: in the package, the
    # tests, the scripts or the benchmark.  A helper whose last caller moved
    # away fails here
    sources = {path: path.read_text().splitlines()
               for path in [*SRC.glob("*.py"),
                            *(p for d in ("tests", "scripts", "perfbench")
                              for p in (ROOT / d).glob("*.py"))]}
    unused = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse("\n".join(sources[path])).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            first = min([node.lineno, *(d.lineno for d in node.decorator_list)])
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            used = any(word.search(line)
                       for other, lines in sources.items()
                       for k, line in enumerate(lines, 1)
                       if not (other == path and first <= k <= node.end_lineno))
            if not used:
                unused.append(f"{path.name}:{node.lineno}: {node.name}")
    assert not unused, "unreferenced definitions:\n" + "\n".join(unused)


def test_script_calls_bind_to_package_signatures():
    # every call in scripts/ and perfbench/ to a name imported from the
    # package, or to an attribute of such a module or class, binds to
    # that name's signature.  The suite runs few of those scripts, so a
    # signature change would otherwise break them unseen.  Calls with
    # *args or **kwargs are skipped
    unbound = []
    for path in sorted(p for d in ("scripts", "perfbench") for p in (ROOT / d).glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vortibc":
                module = importlib.import_module(node.module)
                for a in node.names:
                    # a submodule is an attribute of its package once imported
                    imported[a.asname or a.name] = getattr(module, a.name, None) \
                        or importlib.import_module(f"{node.module}.{a.name}")

        def resolve(func):
            if isinstance(func, ast.Name):
                return imported.get(func.id)
            if isinstance(func, ast.Attribute):
                owner = resolve(func.value)
                if inspect.ismodule(owner) or inspect.isclass(owner):
                    return getattr(owner, func.attr, None)
            return None

        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or (target := resolve(node.func)) is None:
                continue
            if (any(isinstance(a, ast.Starred) for a in node.args)
                    or any(k.arg is None for k in node.keywords)):
                continue
            try:
                inspect.signature(target).bind(*node.args,
                                               **{k.arg: k.value for k in node.keywords})
            except TypeError as exc:
                unbound.append(f"{path.relative_to(ROOT)}:{node.lineno} "
                               f"{ast.unparse(node.func)}: {exc}")
    assert not unbound, "calls that no longer bind:\n" + "\n".join(unbound)


def _is_none(node):
    return isinstance(node, ast.Constant) and node.value is None


def _is_frame(node):
    return (isinstance(node, ast.Name) and node.id == "frame"
            or isinstance(node, ast.Attribute) and node.attr == "frame")


def test_no_optional_frame():
    # the torus's boundary is the empty frame, not None: no module tests a
    # `frame` against None or annotates a frame as `BoundaryFrame | None`.
    # generators.make_boundary_data keeps a None frame for callers that
    # pass one, and is exempt
    hits = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        exempt = set()
        if path.name == "generators.py":
            exempt = {id(n) for f in tree.body if isinstance(f, ast.FunctionDef)
                      and f.name == "make_boundary_data" for n in ast.walk(f)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Compare) and any(isinstance(op, (ast.Is, ast.IsNot))
                                                     for op in node.ops):
                sides = [node.left, *node.comparators]
                optional = any(map(_is_none, sides)) and any(map(_is_frame, sides))
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
                sides = (node.left, node.right)
                optional = any(map(_is_none, sides)) and any(
                    isinstance(s, ast.Name) and s.id == "BoundaryFrame" for s in sides)
            else:
                continue
            if optional:
                hits.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert not hits, "frames that may be None:\n" + "\n".join(hits)
