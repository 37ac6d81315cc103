"""No module of the package imports a name it never uses.

A stdlib stand-in for a linter's unused-import rule (pyflakes F401): a name
bound by an import counts as used when it appears anywhere in the module as a
plain name, including as the base of an attribute access.  An import statement
whose first line carries ``# noqa: F401`` is exempt (a deliberate re-export).
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rigidhecke"


def unused_imports(source: str) -> list[str]:
    """The names that the import statements of ``source`` bind but the module
    never reads, as ``"line: name"``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if getattr(node, "module", None) == "__future__" or "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append(f"{node.lineno}: {name}")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_can_fail():
    source = (
        "from .exactpoly import LaurentPoly, _addmul, _clean\n"
        "import itertools as it\n"
        "from .rootdata import (  # noqa: F401  re-export\n"
        "    validate_datum,\n"
        ")\n"
        "x = LaurentPoly.const(None, 1)\n"
        "_clean.__name__\n"
    )
    assert unused_imports(source) == ["1: _addmul", "2: it"]
