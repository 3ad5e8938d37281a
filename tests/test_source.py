"""Static checks on the package source."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "loccon"


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
