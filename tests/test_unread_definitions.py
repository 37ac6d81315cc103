"""Every module-level function and class of the package, and every function
and class in a class body, is read by the package.

Code that only the tests read belongs in ``tests/oracles.py``.  A definition
counts as read when some module of ``src/rigidhecke`` loads its name, as a
plain name or as an attribute, outside the definition's own body (so a
recursive helper does not read itself).  An import does not count as a read,
nor does ``__init__``'s export table, which holds names as strings.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rigidhecke"

# public names that no module of the package needs to read
ALLOWED = {
    "exactpoly.parse_poly": "the public inverse of LaurentPoly.render",
    "rootdata.validate_datum": "public; perfbench/traced_job.py wraps weyl.validate_datum "
    "until ROADMAP item 2(b)",
}


def _loads(tree: ast.AST) -> Counter:
    """How often ``tree`` loads each name, as a plain name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def _definitions(tree: ast.Module):
    """(qualified name, node) for each function and class at module level and
    in the body of a module-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, defs):
                        yield f"{node.name}.{member.name}", member


def unread_definitions(sources: dict[str, str]) -> list[str]:
    """The definitions of ``sources`` (module name -> source) that no module
    reads outside their own bodies, as ``"module.name"`` or
    ``"module.Class.name"``; dunder names are the interpreter's and never
    count."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    total = sum((_loads(tree) for tree in trees.values()), Counter())
    return [
        f"{mod}.{qualname}"
        for mod, tree in trees.items()
        for qualname, node in _definitions(tree)
        if not node.name.startswith("__") and total[node.name] == _loads(node)[node.name]
    ]


def test_every_definition_is_read_in_the_package():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert sorted(unread_definitions(sources)) == sorted(ALLOWED)


def test_the_check_can_fail():
    sources = {
        "a": (
            "def used():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1) if n else 0\n"
            "class Unread:\n    pass\n"
            "class Box:\n"
            "    def read(self):\n        return 1\n"
            "    def unread(self):\n        return self.read()\n"
            "    def __len__(self):\n        return 0\n"
            "def __getattr__(name):\n    return name\n"
        ),
        "b": "from .a import Unread\nimport a\nx = a.used() + a.Box().read()\n",
    }
    assert unread_definitions(sources) == ["a.recursive", "a.Unread", "a.Box.unread"]
