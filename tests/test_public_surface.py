"""Every public name of the package has a caller on a shipped path.

The scan parses each src/retnbody/*.py with ast and collects the public
top-level functions and classes and the public methods of each class.
Each must be named somewhere in src/, scripts/, bench/ or the
acceptance gate tests/test_acceptance.py, as an ast.Name, an
ast.Attribute or an import alias. Unit tests do not count: a name only
they call is a test oracle and belongs in the test file that uses it.

ast, not tokenize: config_hash is called only inside an f-string, which
Python 3.11's tokenize reads as one string token.

The scan goes by name, not by binding. A method that shares its name
with another callable is invisible to it: WorldlineHistory.append counts
as called by every list.append in the package, so whether it has a
shipped caller is checked by hand (acceptance check 10 and
scripts/boost_round_trip.py call it).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").rglob("*.py")),
           *sorted((ROOT / "bench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _names_used(paths) -> set:
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


def _public_definitions(path):
    """(qualified name, bare name) of each public top-level function or
    class of the module at path and each public method of its classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_public_name_has_a_shipped_caller():
    used = _names_used(SHIPPED)
    modules = sorted((ROOT / "src" / "retnbody").glob("*.py"))
    assert modules
    uncalled = [qual for path in modules for qual, name in _public_definitions(path)
                if name not in used]
    assert uncalled == [], f"public names no shipped path calls: {uncalled}"
