"""The package namespace: re-exports leave the submodules reachable,
every public name in the package is used by the package, the evaluator
core imports no other layer, and no function in it recurses."""

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


# The evaluator core: every command runs it, since the package's
# ``__init__`` imports it; the CLI loads every other layer on first use.
_CORE = ("__init__", "config", "errors", "expr", "invariants", "flags", "registry", "covers", "evaluate")


def _module_level_imports(tree):
    """The fourcalc modules that the module-level statements of ``tree``
    import; imports inside functions and classes run later, if at all."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fourcalc":
            if node.module == "fourcalc":
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".", 1)[1]
        elif isinstance(node, ast.Import):
            yield from (
                alias.name.split(".", 1)[1] for alias in node.names
                if alias.name.startswith("fourcalc.")
            )
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)


def test_the_evaluator_core_imports_only_the_core():
    # A core module that imported another layer at module level would run
    # that layer for every command.
    package = Path(fourcalc.__file__).parent
    found = [
        f"{name}.py: {module}"
        for name in _CORE
        for module in _module_level_imports(ast.parse((package / f"{name}.py").read_text(encoding="utf-8")))
        if module not in _CORE
    ]
    assert found == []
    # The walk sees the core's own imports, so an empty list means something.
    assert "covers" in _module_level_imports(ast.parse((package / "evaluate.py").read_text(encoding="utf-8")))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _module_aliases(tree):
    """The names ``tree`` binds to fourcalc modules: by an import, or by a
    call with the module's dotted name (the CLI's deferred loads)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {
                alias.asname or alias.name.split(".")[0]
                for alias in node.names if alias.name.split(".")[0] == "fourcalc"
            }
        elif isinstance(node, ast.ImportFrom) and node.module == "fourcalc":
            aliases |= {alias.asname or alias.name for alias in node.names}
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)
              and any(isinstance(arg, ast.Constant) and str(arg.value).startswith("fourcalc.")
                      for arg in node.value.args)):
            aliases |= {target.id for target in node.targets if isinstance(target, ast.Name)}
    return aliases


def _private_reads(tree):
    """Each private name of another fourcalc module that ``tree`` imports,
    or reads as an attribute of a name bound to such a module."""
    aliases = _module_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fourcalc":
            for alias in node.names:
                if _private(alias.name):
                    yield alias.lineno, f"from {node.module} import {alias.name}"
        elif isinstance(node, ast.Attribute) and _private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                yield node.lineno, ast.unparse(node)


def test_no_module_reads_another_modules_private_names():
    # A leading underscore marks a name as its module's own: a name that
    # another module needs is public, and named so.
    package = Path(fourcalc.__file__).parent
    found = [
        f"{path.name}:{line}: {text}"
        for path in sorted(package.glob("*.py"))
        for line, text in _private_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
    # The walk sees the CLI's deferred modules and both kinds of read, so
    # an empty list means something.
    cli_tree = ast.parse((package / "cli.py").read_text(encoding="utf-8"))
    assert {"geography", "reproduce"} <= _module_aliases(cli_tree)
    probe = (
        "reproduce = load('fourcalc.reproduce')\n"
        "from fourcalc.geography import _odd_part\n"
        "reproduce._BUILDERS\n"
    )
    assert sorted(line for line, _ in _private_reads(ast.parse(probe))) == [2, 3]


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
