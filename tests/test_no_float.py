"""Exactness guard: no library module has a float literal or a float() call."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rigidhecke"


def test_no_float_in_library():
    bad = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                bad.append(f"{path.name}:{node.lineno}: literal {node.value!r}")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "float"
            ):
                bad.append(f"{path.name}:{node.lineno}: float() call")
    assert not bad, bad
