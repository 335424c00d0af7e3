"""Source hygiene: every function in src/ has a caller there and names
every parameter it takes, and no guard in src/ is an assert statement
(python -O would strip it)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "picardlab"


def _trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(SRC.glob("*.py"))}


def _code_names(tree):
    """Names that code uses: Name and Attribute nodes and import aliases,
    never the words of comments or docstrings."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_function_is_named_elsewhere_in_src():
    trees = _trees()
    named = {name for tree in trees.values() for name in _code_names(tree)}
    unused = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if node.name not in named:
                unused.append("%s:%d %s" % (name, node.lineno, node.name))
    assert unused == []


def test_no_assert_statements_in_src():
    found = ["%s:%d" % (name, node.lineno)
             for name, tree in _trees().items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_every_parameter_is_named_in_its_function():
    unused = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args
                      + args.kwonlyargs + [args.vararg, args.kwarg] if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            named = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name)}
            unused.extend("%s:%d %s" % (name, node.lineno, param)
                          for param in params
                          if param not in ("self", "cls") and param not in named)
    assert unused == []
