"""The package namespace: re-exports leave the submodules reachable,
every public name in the package is used by the package, and no function
in it recurses."""

import ast
import sys
from pathlib import Path

import fourcalc
from fourcalc.expr import Primitive


def test_evaluate_names_the_module():
    import fourcalc.evaluate as module

    assert fourcalc.evaluate is sys.modules["fourcalc.evaluate"]
    assert module is sys.modules["fourcalc.evaluate"]
    module.evaluate.cache_clear()
    assert module.evaluate.cache_info().currsize == 0
    # The two functions the package does re-export stay.
    k3 = Primitive("K3")
    assert fourcalc.eval_invariants(k3) == fourcalc.InvariantRecord(24, -16, 0)
    assert fourcalc.infer_flags(k3).spin is fourcalc.TriState.YES


def test_every_public_name_is_used_in_the_package():
    # Public API that only tests call is dead code: each public top-level
    # function or class, and each public method, must be referenced by a
    # Name or Attribute node somewhere in the package (imports do not count).
    # The package re-exports and the console entry point are exempt.
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(fourcalc.__file__).parent.glob("*.py")
    }
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                public.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                public += [
                    (f"{module}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)
                ]
    exempt = set(fourcalc.__all__) | {"cli.main"}
    unused = [
        qualname
        for qualname, name in public
        if not name.startswith("_") and name not in used
        and name not in exempt and qualname not in exempt
    ]
    assert unused == []


def _imported_names(tree):
    """Each name an import statement of ``tree`` binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0], node.lineno


def test_every_imported_name_is_used():
    # The unused-import rule of a linter, from the standard library alone:
    # each name a module imports must be read in that module.  The
    # package's re-exports (``__all__`` in ``__init__.py``) are exempt.
    unused = []
    for path in sorted(Path(fourcalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            read |= set(fourcalc.__all__)
        unused += [
            f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree)
            if name not in read
        ]
    assert unused == []


def test_no_primitive_name_tests_outside_the_table():
    # A block is a one-place change: only registry.py may compare a
    # primitive's name or parameters.  The other layers read the facts
    # that the table declares.
    found = []
    for path in sorted(Path(fourcalc.__file__).parent.glob("*.py")):
        if path.name == "registry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                isinstance(sub, ast.Attribute) and sub.attr in ("name", "params")
                for sub in ast.walk(node)
            ):
                found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def _functions(tree):
    """Each function a module defines, by qualified name, with the class
    whose ``self`` and ``cls`` it sees."""
    found = {}
    todo = [(tree, "", None)]
    while todo:
        node, prefix, cls = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                todo.append((child, f"{prefix}{child.name}.", f"{prefix}{child.name}"))
            elif isinstance(child, ast.FunctionDef):
                found[prefix + child.name] = (child, cls)
                todo.append((child, f"{prefix}{child.name}.", cls))
            else:
                todo.append((child, prefix, cls))
    return found


def _calls(function):
    """The call nodes in ``function``'s own body, not in the functions and
    classes it defines."""
    todo = list(ast.iter_child_nodes(function))
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Call):
            yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)


def _recursive_functions(tree):
    """The functions of a module that can reach a call of themselves:
    through plain calls of the functions it defines, looked up as Python
    looks up a name, and ``self.``/``cls.`` calls of their class's methods."""
    functions = _functions(tree)
    graph = {}
    for qualname, (function, cls) in functions.items():
        scopes = qualname.split(".")
        # The enclosing functions, innermost first; a class body is no scope.
        enclosing = [
            ".".join(scopes[:i]) for i in range(len(scopes), 0, -1)
            if ".".join(scopes[:i]) in functions
        ]
        graph[qualname] = set()
        for call in _calls(function):
            target = call.func
            if isinstance(target, ast.Name):
                names = [f"{scope}.{target.id}" for scope in enclosing] + [target.id]
            elif (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                  and target.value.id in ("self", "cls") and cls is not None):
                names = [f"{cls}.{target.attr}"]
            else:
                continue
            callee = next((name for name in names if name in functions), None)
            if callee is not None:
                graph[qualname].add(callee)
    recursive = set()
    for start in graph:
        seen, todo = set(), list(graph[start])
        while todo:
            name = todo.pop()
            if name == start:
                recursive.add(start)
                break
            if name not in seen:
                seen.add(name)
                todo += graph[name]
    return recursive


def test_nothing_in_the_package_recurses():
    # Every tree walk uses an explicit stack, so that a term tree of any
    # depth is read, evaluated and printed at the default recursion limit.
    # Exempt, each bounded by something other than a tree's depth:
    exempt = {
        # the nesting of the tuples in one node's fields;
        "expr._map_leaves",
        # the arithmetic text that one certificate step states.
        "certificates._eval_node",
    }
    found = set()
    for path in sorted(Path(fourcalc.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found |= {f"{path.stem}.{name}" for name in _recursive_functions(tree)}
    assert sorted(found - exempt) == []
    assert exempt <= found
