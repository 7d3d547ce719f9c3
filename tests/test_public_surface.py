"""Every public name of the package, and every defaulted parameter of a
function or method, has a caller on a shipped path.

The scan parses each src/retnbody/*.py with ast and collects the public
top-level functions and classes and the public methods of each class.
Each must be named somewhere in src/, scripts/, bench/ or the
acceptance gate tests/test_acceptance.py, as an ast.Name that is not
assigned to, an ast.Attribute or an import alias. Unit tests do not
count: a name only they call is a test oracle and belongs in the test
file that uses it. Every private definition (module level, or a method)
must be named somewhere in src/ outside its own definition, and every
defaulted parameter of a private function or method must be passed by
some call in src/.

ast, not tokenize: config_hash is called only inside an f-string, which
Python 3.11's tokenize reads as one string token.

The scan goes by name, not by binding. A method that shares its name
with another callable is invisible to it: WorldlineHistory.append counts
as called by every list.append in the package, so whether it has a
shipped caller is checked by hand (acceptance check 10 and
scripts/boost_round_trip.py call it). The parameter scan goes by name
too: a parameter counts as passed when any call of a callable of that
name passes it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = [*sorted((ROOT / "src").rglob("*.py")), *sorted((ROOT / "scripts").rglob("*.py")),
           *sorted((ROOT / "bench").rglob("*.py")), ROOT / "tests" / "test_acceptance.py"]


def _names_used(paths) -> set:
    """Names read in paths: every name but an assignment's target, every
    attribute and every import alias."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rsplit(".", 1)[-1])
    return used


MODULES = sorted((ROOT / "src" / "retnbody").glob("*.py"))


def _public_definitions(path):
    """(qualified name, node, whether a method) of each public top-level
    function or class of the module at path and each public method of
    its classes."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield f"{path.stem}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs) and not member.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{member.name}", member, True


def test_every_public_name_has_a_shipped_caller():
    used = _names_used(SHIPPED)
    assert MODULES
    uncalled = [qual for path in MODULES for qual, node, _ in _public_definitions(path)
                if node.name not in used]
    assert uncalled == [], f"public names no shipped path calls: {uncalled}"


def _public_constants(path):
    """(qualified name, name) of each public module-level assignment of
    the module at path."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((f"{path.stem}.{t.id}", t.id) for target in targets
                        for t in ast.walk(target)
                        if isinstance(t, ast.Name) and not t.id.startswith("_"))


def test_every_public_constant_is_read_on_a_shipped_path():
    # a step or tolerance left behind when the code that read it goes is
    # caught here, as an uncalled function is above
    used = _names_used(SHIPPED)
    defined = [d for path in MODULES for d in _public_constants(path)]
    assert len(defined) > 10
    unread = [qual for qual, name in defined if name not in used]
    assert unread == [], f"public constants no shipped path reads: {unread}"


# defaulted parameters no shipped call passes, each kept for its reason
KEEP = {
    "worldline.history_from_kinematics(c)":
        "a history's light speed, which every history factory takes: without it no "
        "c != 1 history could be sampled (the test helpers pass it through)",
}


def _calls(paths) -> dict:
    """Every call in paths, keyed by the bare name of the callable."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    return calls


def _defaulted(fn, method: bool):
    """(name, index) of each defaulted parameter of fn, the index where a
    call passes it positionally (self or cls not counted), None for a
    keyword-only one."""
    args = fn.args
    pos = [*args.posonlyargs, *args.args]
    static = any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    skip = int(method and not static)
    first = len(pos) - len(args.defaults)
    for i, arg in enumerate(pos[first:], start=first):
        yield arg.arg, i - skip
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name: str, index) -> bool:
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _unpassed(definitions, calls) -> list:
    """'qual(name)' of each defaulted parameter of the functions among
    definitions that no call in calls passes."""
    return sorted(f"{qual}({name})" for qual, node, method in definitions
                  if not isinstance(node, ast.ClassDef)
                  for name, index in _defaulted(node, method)
                  if not any(_passes(c, name, index) for c in calls.get(node.name, ())))


def test_every_defaulted_parameter_has_a_shipped_caller():
    unpassed = _unpassed([d for path in MODULES for d in _public_definitions(path)],
                         _calls(SHIPPED))
    assert unpassed == sorted(KEEP), \
        f"defaulted parameters no shipped call passes (KEEP: {sorted(KEEP)}): {unpassed}"


def _private(name) -> bool:
    """A private name of the package; dunder names are the language's."""
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_functions(path):
    """(qualified name, node, whether a method) of each private top-level
    function of the module at path and each private method of its
    classes."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, funcs) and _private(node.name):
            yield f"{path.stem}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{path.stem}.{node.name}.{m.name}", m, True) for m in node.body
                        if isinstance(m, funcs) and _private(m.name))


def test_every_defaulted_parameter_of_a_private_function_is_passed_in_src():
    # a private flag whose last passing call was folded away (a leftover
    # such as report=False that every call leaves at its default) is caught
    # here: only calls in src/ count
    defined = [d for path in MODULES for d in _private_functions(path)]
    assert len(defined) > 30
    unpassed = _unpassed(defined, _calls(sorted((ROOT / "src").rglob("*.py"))))
    assert unpassed == [], f"defaulted private parameters no call in src/ passes: {unpassed}"



def _private_definitions(path):
    """(qualified name, name) of each private top-level function, class or
    constant of the module at path and each private method of its
    classes."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ClassDef):
            yield from ((f"{path.stem}.{node.name}.{m.name}", m.name) for m in node.body
                        if isinstance(m, funcs) and _private(m.name))
        if isinstance(node, (*funcs, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for target in targets for t in ast.walk(target)
                     if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((f"{path.stem}.{name}", name) for name in names if _private(name))


def test_every_private_definition_has_a_caller():
    # a helper left behind when its last caller is folded away is caught
    # here: every private definition is named somewhere in src/ other
    # than where it is defined
    used = _names_used(sorted((ROOT / "src").rglob("*.py")))
    defined = [d for path in MODULES for d in _private_definitions(path)]
    assert len(defined) > 50
    orphans = [qual for qual, name in defined if name not in used]
    assert orphans == [], f"private definitions nothing in src/ names: {orphans}"
