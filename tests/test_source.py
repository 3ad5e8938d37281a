"""Static checks on the package source."""

import ast
from pathlib import Path

import loccon

SRC = Path(__file__).resolve().parent.parent / "src" / "loccon"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"


def test_every_import_is_used():
    """Each module uses every name it imports (``__init__`` only re-exports)."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a.asname or a.name).split(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [a.asname or a.name for a in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}"
                       for name in names if name not in used]
    assert unused == []


def test_no_assert_statement():
    """``python -O`` strips ``assert``, so every check in the package raises."""
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_every_parameter_is_used():
    """Each function reads every parameter it declares (``self``/``cls``
    aside), so no caller passes a value that changes nothing."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            params += [a for a in (args.vararg, args.kwarg) if a is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {n.id for stmt in body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.name}:{node.lineno} {a.arg}" for a in params
                       if a.arg not in ("self", "cls") and a.arg not in read]
    assert unread == []


def test_kinds_are_decided_where_defined():
    """A group's kind and a model's relation preset are asked of the types
    that define them, so no module compares a ``kind`` attribute with
    "free" or "finite" or tests a ``relation`` attribute with ``is None``
    or ``is not None``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            attrs = {side.attr for side in sides if isinstance(side, ast.Attribute)}
            consts = {side.value for side in sides if isinstance(side, ast.Constant)}
            if "kind" in attrs and consts & {"free", "finite"}:
                found.append(f"{path.name}:{node.lineno} kind")
            if "relation" in attrs and None in consts and any(
                    isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops):
                found.append(f"{path.name}:{node.lineno} relation")
    assert found == []


def _references(tree):
    """(name, node, is_attribute) for each loaded name, attribute access and
    ``from ... import`` name in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.id, node, False))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node, True))
        elif isinstance(node, ast.ImportFrom):
            found += [(alias.name, node, False) for alias in node.names]
    return found


def test_every_function_has_a_caller():
    """Each top-level function and public method is referenced in the
    package outside its own definition, exported in ``loccon.__all__`` or
    used by the acceptance tests, so no library code is reached only from
    its unit tests.  A method counts only through attribute access, so a
    local variable of the same name does not keep it."""
    defs, refs = [], _references(ast.parse(ACCEPTANCE.read_text(encoding="utf-8")))
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        refs += _references(tree)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((f"{path.stem}.{node.name}", node, False))
            elif isinstance(node, ast.ClassDef):
                defs += [(f"{node.name}.{m.name}", m, True) for m in node.body
                         if isinstance(m, ast.FunctionDef)
                         and not m.name.startswith("_")]
    uncalled = []
    for label, node, is_method in defs:
        own = {id(n) for n in ast.walk(node)}
        if node.name in loccon.__all__ or any(
                name == node.name and (is_attribute or not is_method)
                and id(ref) not in own for name, ref, is_attribute in refs):
            continue
        uncalled.append(label)
    assert uncalled == []
