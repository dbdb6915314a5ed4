"""src/ holds only what a run reaches: every public top-level function and
class of vertexreg is referenced from some other place in src/, every
field of the simulation's config is set by src/ but the named test hooks,
and every optional parameter is passed by some call in src/ but the named
entry points."""

import ast
import graphlib
import pathlib

import pytest

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


# fields that no call in src/ sets: the hooks through which the
# manufactured-solution, blow-up and StepFailure tests drive a simulation,
# kept for the manufactured solutions that checks of the stepper need
TEST_HOOKS = {("SimConfig", "source"), ("InitialData", "profile")}


def test_fields_no_src_call_sets_are_the_test_hooks():
    nodes = [node for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))]
    fields = {node.name: [s.target.id for s in node.body
                          if isinstance(s, ast.AnnAssign)]
              for node in nodes if isinstance(node, ast.ClassDef)
              and node.name in {c for c, _ in TEST_HOOKS}}
    passed = set()
    for node in nodes:
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name in fields:
                passed.update((name, f) for f in fields[name][:len(node.args)])
                passed.update((name, k.arg) for k in node.keywords)
    unset = {(c, f) for c, names in fields.items() for f in names} - passed
    assert unset == TEST_HOOKS


def _imports():
    """module -> the vertexreg modules it imports, at the top or inside a
    function; from . import __version__ is an import of the package."""
    modules = {path.stem for path in SRC.glob("*.py")}
    graph = {}
    for path in sorted(SRC.glob("*.py")):
        targets = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    targets.add(node.module)
                else:
                    targets.update(a.name if a.name in modules else "__init__"
                                   for a in node.names)
        graph[path.stem] = targets
    return graph


def test_no_module_imports_one_that_imports_it_back():
    graph = _imports()
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
    # the tail test and the agreement rule sit below both routes
    assert graph["tails"] == set()
    assert "petrovskii" not in graph["criterion"]


# optional parameters that no call in src/ passes, each reached otherwise
UNPASSED_OPTIONALS = {
    ("cli", "main", "argv"),  # the console entry point reads sys.argv
    ("cli", "run_scenarios", "workers"),  # perfbench passes it
    # lookup(**params) passes a config's parameters to the factories
    ("funcs", "_kappa_neg_log", "c"),
    ("funcs", "_kappa_pos_log", "c"),
    ("funcs", "_kappa_critical", "c"),
    ("funcs", "_kappa_neg_power", "q"),
}


def test_every_optional_parameter_is_passed_from_src():
    """Each parameter with a default, of a function defined anywhere in
    src/, is passed by some call in src/ to a function of that name: by
    keyword, by position, or through * or ** unpacking."""
    optional, calls = set(), {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {fn for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                positional = a.posonlyargs + a.args
                # a method's self is not among the call's arguments
                shift = 1 if node in methods and not any(
                    getattr(d, "id", None) == "staticmethod"
                    for d in node.decorator_list) else 0
                with_default = positional[len(positional) - len(a.defaults):]
                optional.update(
                    (path.stem, node.name, p.arg, positional.index(p) - shift)
                    for p in with_default)
                optional.update((path.stem, node.name, p.arg, None)
                                for p, d in zip(a.kwonlyargs, a.kw_defaults)
                                if d is not None)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls.setdefault(name, []).append(node)

    def passed(name, param, index):
        for call in calls.get(name, []):
            keys = {k.arg for k in call.keywords}
            if param in keys or None in keys:  # None: a ** unpacking
                return True
            if index is not None and (
                    index < len(call.args)
                    or any(isinstance(x, ast.Starred) for x in call.args)):
                return True
        return False

    unpassed = {(m, f, p) for m, f, p, i in optional if not passed(f, p, i)}
    assert unpassed == UNPASSED_OPTIONALS
