"""Layout guard: the library holds only code that the program itself uses.

Every public top-level function and class in ``src/bandalloc``, and every
public method of those classes, must be referenced (a ``Name``, an
``Attribute`` or an imported name) somewhere in ``src/``, ``perfbench/`` or
``benchmarks/``. An export from ``bandalloc/__init__.py`` is an import, so it
counts. Code that only tests call belongs under ``tests/``; the paper's closed
forms live in ``tests/oracles.py``. Names are matched without their module, so
a name that some other object shares can slip through.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PROGRAM_DIRS = ("src", "perfbench", "benchmarks")


def _referenced_names() -> set[str]:
    """Names each program file reads, imports or takes as an attribute.

    A file's own variables and parameters do not count, so a local
    ``marginal`` does not vouch for a library method of that name.
    """
    names = set()
    for directory in PROGRAM_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            nodes = list(ast.walk(ast.parse(path.read_text(), str(path))))
            local = {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)}
            local |= {n.arg for n in nodes if isinstance(n, ast.arg)}
            for node in nodes:
                if isinstance(node, ast.Name):
                    if node.id not in local:
                        names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.asname or node.name.rsplit(".", 1)[-1])
    return names


def _public_definitions():
    """(qualified name, bare name) of each public top-level definition and method."""
    for path in sorted((ROOT / "src" / "bandalloc").glob("*.py")):
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{path.stem}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                        yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_public_library_name_is_used_outside_the_tests():
    referenced = _referenced_names()
    unused = [qualified for qualified, name in _public_definitions() if name not in referenced]
    assert not unused, f"only tests use {unused}; move them under tests/"
