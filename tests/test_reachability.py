"""src/ holds only what a run reaches: every public top-level function and
class of vertexreg is referenced from some other place in src/."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "vertexreg"

# reached from outside src/ on purpose
ALLOWED = {
    ("cli", "main"),  # the console entry point that pyproject.toml names
}


def _scan():
    """(module, name) of the public top-level definitions, and of every
    reference: a bare name inside its own module, module.name or
    from .module import name anywhere, never a definition's own body."""
    defined, reached = set(), set()
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined.add((module, owner))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and node.id != owner:
                    reached.add((module, node.id))
                elif isinstance(node, ast.Attribute) \
                        and isinstance(node.value, ast.Name):
                    reached.add((node.value.id, node.attr))
                elif isinstance(node, ast.ImportFrom) and node.level == 1:
                    reached.update((node.module, a.name) for a in node.names)
    return defined, reached


def test_every_public_definition_is_reached_from_src():
    defined, reached = _scan()
    assert ALLOWED <= defined
    unreached = sorted(f"{m}.{n}" for m, n in defined - reached - ALLOWED)
    assert unreached == []
