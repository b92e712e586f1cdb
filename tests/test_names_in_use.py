"""Every function, class and method of ``src/blocksep`` has a use in the
package or in the benchmark, so code that no production path runs is deleted
rather than kept for the tests alone.

A definition counts as used when its name occurs in ``src/`` or
``perfbench/`` outside its own definition: as a name, an attribute, or a
whole string constant (the benchmark wraps functions by their names).
Imports do not count, and neither does a recursive call inside the
definition.  Dunder names are exempt, and so are CLI commands, which their
group's ``@main.command()`` decorator registers.  The check goes by name
alone, so it cannot tell apart a name that two classes share: a use of
``mul`` on Poly or on DiffOp keeps every ``mul`` method alive.

A single-underscore name is private to its module: no module of the
package imports one from another.  And every name a module imports is used
in it, except in ``__init__.py`` and on a line marked ``# noqa: F401``,
which re-export the name.

Work is shared through an environment or a context, which owns its tables:
no function binds an empty dict that a function or lambda nested in it then
writes into, a cache whose lifetime no caller can see.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "blocksep"


def _names(tree) -> Counter:
    """How often each identifier is used in ``tree``."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def _definitions(tree):
    """Every module-level function and class of ``tree`` and every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _exempt(node) -> bool:
    dunder = node.name.startswith("__") and node.name.endswith("__")
    command = any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
                  and d.func.attr == "command" for d in node.decorator_list)
    return dunder or command


def test_every_definition_is_used_outside_itself():
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "perfbench").glob("*.py"))]
    trees = {path: ast.parse(path.read_text()) for path in paths}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = [f"{path.name}: {qualname}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for qualname, node in _definitions(tree)
              if not _exempt(node) and used[node.name] - _names(node)[node.name] <= 0]
    assert not unused, "defined but never used: " + ", ".join(unused)


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module == "blocksep"
                                                     or node.module.startswith("blocksep.")):
                private += [f"{path.name}: {alias.name} from {node.module}" for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert not private, "private names imported: " + ", ".join(private)


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        lines, tree = text.splitlines(), ast.parse(text)
        used = _names(tree)
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or (
                    isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if not used[bound] and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}: {bound}")
    assert not unused, "imported but never used: " + ", ".join(unused)


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPES = (*_FUNCTIONS, ast.Lambda)


def _own_nodes(func):
    """The nodes of ``func``'s body outside the functions and lambdas nested in it."""
    todo = list(func.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _is_empty_dict(node) -> bool:
    return (isinstance(node, ast.Dict) and not node.keys) or (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "dict" and not node.args and not node.keywords)


def _closure_caches(func) -> set:
    """The empty dicts ``func`` binds that a function or lambda nested in it
    writes into, by item assignment, ``setdefault`` or ``update``."""
    own = list(_own_nodes(func))
    empty = {target.id for node in own if isinstance(node, (ast.Assign, ast.AnnAssign))
             and node.value is not None and _is_empty_dict(node.value)
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    written = set()
    for inner in (node for scope in own if isinstance(scope, _SCOPES) for node in ast.walk(scope)):
        if isinstance(inner, ast.Subscript) and isinstance(inner.ctx, ast.Store):
            target = inner.value
        elif isinstance(inner, ast.Call) and isinstance(inner.func, ast.Attribute) \
                and inner.func.attr in ("setdefault", "update", "__setitem__"):
            target = inner.func.value
        else:
            continue
        if isinstance(target, ast.Name):
            written.add(target.id)
    return empty & written


def test_no_function_keeps_a_cache_in_a_closure():
    caches = [f"{path.stem}.{func.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for func in ast.walk(ast.parse(path.read_text()))
              if isinstance(func, _FUNCTIONS) for name in sorted(_closure_caches(func))]
    assert not caches, "caches held by closures: " + ", ".join(caches)
