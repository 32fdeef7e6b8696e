"""Every function, class and method in src/tentbreak has a caller, and
every helper in tests/ is read by some test.

A top-level function or class in src/ counts as used when its bare name is
read somewhere in src/ or bench/ (as a name or an attribute), and a method
or property only when it is read as an attribute (obj.name): a local
variable of the same name calls no method.  A name that appears in one of
the dotted paths of bench/tracer.py's WRAPPED table counts for both, since
the tracer resolves those paths with getattr.  Dunder methods are called by
Python itself and are skipped.  Code that only the tests call lives under
tests/ (for example rank_reference.py), so ALLOWED is empty; a name added
to it needs its reason.

Every defaulted parameter of a function or method in src/ is passed, by
keyword or by position, by some call in src/ or bench/: an option that only
the tests set is a constant (a test that needs another value monkeypatches
it).  Calls match by bare name, as above, and an __init__ by its class's
name; partial(f, name=...) passes name to f.  Dunder methods other than
__init__ are skipped.

A top-level name in tests/ other than a test_ function (a helper, strategy,
constant or fixture) counts as read when a test_ function reaches it: reads
it, or reads a name that reads it, and so on, as a global of its module or
from another tests/ module by attribute or from-import.  A parameter counts
only where it names a fixture of its module, since pytest passes fixtures by
parameter name.  So a reference copy that no test calls any more fails
here, and so does one that only another unreached helper calls.

backend.number is the one reader of a number in an input file.  No other
function in src/tentbreak calls int() but those in INT_CALLERS, whose
arguments are no file's text.

cipher.start is the one rule of which registers a chain direction starts
from: no module in src/tentbreak but cipher reads U[0] or U[1].

backend.ParameterError is the one bad-input error: no other class that a
module of src/tentbreak defines derives from ValueError.

Every name that a module in src/ or tests/ imports is read in that module,
so a deletion leaves no stale import behind.  Importing the CLI loads none
of the standard modules in SLOW_IMPORTS: every tentbreak command pays for
its imports first.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tentbreak"
TESTS = ROOT / "tests"

# standard modules that cost a fresh process milliseconds to import
SLOW_IMPORTS = ("dataclasses", "inspect", "typing")

# definitions that only the tests call, each mapped to the reason it stays
ALLOWED = {}

# the functions besides backend.number that call int(), each with what it reads
INT_CALLERS = {
    "attack.solve_uj": "the bit columns of its transpose",
    "cli.blocks_from_bytes": "the hex digits of bytes.hex()",
    "cli._seed": "TENTBREAK_SEED, as argparse reads --seed",
    "cli._int_in": "a flag's text, as argparse reads type=int",
    "keystream.build_noise_vectors": "the bit digits of a vector",
}


def _definitions():
    """(module.qualified_name, bare name, is a method) of every top-level
    function and class and every method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name, False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                        yield f"{module}.{node.name}.{item.name}", item.name, True


def _int_callers() -> set:
    """module.qualified_name of every function and method that calls int();
    a call in a nested function counts for the one that holds it, and a
    call outside any function for <module> or <class>."""
    callers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                scopes = [(f"{node.name}.{getattr(item, 'name', '<class>')}", item)
                          for item in node.body]
            else:
                scopes = [(getattr(node, "name", "<module>"), node)]
            for name, scope in scopes:
                if any(isinstance(call, ast.Call)
                       and getattr(call.func, "id", None) == "int"
                       for call in ast.walk(scope)):
                    callers.add(f"{path.stem}.{name}")
    return callers


def _references() -> tuple:
    """(names read as a bare name or an attribute, names read as an
    attribute) in src/ and bench/; WRAPPED's path parts are in both."""
    names, attrs = set(), set()
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif path.name == "tracer.py" and isinstance(node, ast.Assign) and \
                    any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
                attrs.update(part for const in ast.walk(node.value)
                             if isinstance(const, ast.Constant)
                             and isinstance(const.value, str)
                             for part in const.value.split("."))
    return names | attrs, attrs


def _unused() -> set:
    """module.qualified_name of every definition that nothing uses."""
    names, attrs = _references()
    return {qual for qual, name, method in _definitions()
            if name not in (attrs if method else names)}


def test_every_definition_has_a_caller():
    unused = sorted(_unused() - ALLOWED.keys())
    assert not unused, f"defined in src/tentbreak but never used: {unused}"


def _unpassed_options(modules: dict, callers) -> list:
    """module.function(param) of every defaulted parameter of a function or
    method in `modules` (module name -> source text) that no call in
    `callers` (source texts) passes, by keyword or by position.  A call
    matches by bare name and an __init__ by its class's; partial(f, ...)
    passes its arguments to f.  Other dunder methods are skipped."""
    passed = {}     # bare name -> positions and keywords some call passes
    for text in callers:
        for call in ast.walk(ast.parse(text)):
            if isinstance(call, ast.Call):
                func, args = call.func, call.args
                if _called(func) == "partial" and args:
                    func, args = args[0], args[1:]
                passed.setdefault(_called(func), set()).update(
                    range(len(args)), (k.arg for k in call.keywords if k.arg))
    unpassed = []
    for module, text in modules.items():
        # (qualified name, the name its calls read, leading parameters that
        # no call passes, definition)
        scopes = []
        for node in ast.parse(text).body:
            if isinstance(node, ast.FunctionDef):
                scopes.append((f"{module}.{node.name}", node.name, 0, node))
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if not isinstance(item, ast.FunctionDef):
                    continue
                if item.name == "__init__":
                    scopes.append((f"{module}.{node.name}", node.name, 1, item))
                elif not _dunder(item.name):
                    scopes.append((f"{module}.{node.name}.{item.name}",
                                   item.name, 1, item))
        for qual, name, bound, fn in scopes:
            a, calls = fn.args, passed.get(name, set())
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            unpassed += [f"{qual}({arg.arg})"
                         for k, arg in enumerate(positional[first:], first)
                         if not {k - bound, arg.arg} & calls]
            unpassed += [f"{qual}({arg.arg})"
                         for arg, default in zip(a.kwonlyargs, a.kw_defaults)
                         if default is not None and arg.arg not in calls]
    return unpassed


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _called(func):
    """The bare name a call's function expression reads."""
    return getattr(func, "id", None) or getattr(func, "attr", None)


def test_every_option_is_passed():
    src = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    bench = [path.read_text() for path in sorted((ROOT / "bench").glob("*.py"))]
    unpassed = _unpassed_options(src, [*src.values(), *bench])
    assert not unpassed, f"defaulted but set by no call in src/ or bench/: {unpassed}"


def test_option_check_sees_each_way_to_pass():
    module = {"m": "def f(x, y=1):\n    return x + y\n"}
    assert _unpassed_options(module, ["f(1)", "g(1, 2)"]) == ["m.f(y)"]
    for call in ("f(1, 2)", "f(1, y=2)", "partial(f, y=2)",
                 "obj.f(1, 2)", "functools.partial(f, y=2)(1)"):
        assert _unpassed_options(module, [call]) == [], call
    # a call passes no self; calls of __init__ name its class
    cls = {"m": "class C:\n    def __init__(self, x, y=1):\n        pass\n"}
    assert _unpassed_options(cls, ["C(1)", "__init__(1, 2)"]) == ["m.C(y)"]
    assert _unpassed_options(cls, ["C(1, 2)"]) == []


def test_allowlist_is_current():
    defined = {qual for qual, _, _ in _definitions()}
    stale = sorted(qual for qual in ALLOWED
                   if qual not in defined or qual not in _unused())
    assert not stale, f"allowlisted but missing or now used: {stale}"


def test_one_reader_of_input_numbers():
    assert _int_callers() == {"backend.number", *INT_CALLERS}


def _register_reads(text: str) -> list:
    """The line of every U[0] or U[1], with U a name or an attribute."""
    return [node.lineno for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Subscript) and _called(node.value) == "U"
            and isinstance(node.slice, ast.Constant) and node.slice.value in (0, 1)]


def test_one_direction_rule():
    assert _register_reads("s.U[1]\nU[0]\nU[2]\nU[j + 1]\ns.U[:2]\nV[0]") == [1, 2]
    reads = {path.stem: _register_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.stem != "cipher"}
    assert not any(reads.values()), f"U[0] or U[1] read outside cipher: {reads}"


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_one_bad_input_error():
    for path in PACKAGE.glob("*.py"):
        importlib.import_module(f"tentbreak.{path.stem}".removesuffix(".__init__"))
    others = {f"{cls.__module__}.{cls.__qualname__}" for cls in _subclasses(ValueError)
              if cls.__module__.startswith("tentbreak.")}
    others.discard("tentbreak.backend.ParameterError")
    assert not others, f"bad-input errors besides ParameterError: {sorted(others)}"


def _is_fixture(node) -> bool:
    decorators = getattr(node, "decorator_list", ())
    return any(getattr(getattr(d, "func", d), "attr", None) == "fixture"
               for d in decorators)


def _test_names():
    """The top-level names in tests/ other than test_ functions, and those
    the test_ functions reach, each as (module, name)."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(TESTS.glob("*.py"))}
    defs = {}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[module, node.name] = node
            elif isinstance(node, ast.Assign):
                defs.update(((module, t.id), node) for t in node.targets
                            if isinstance(t, ast.Name))
    origins = {module: {a.asname or a.name: (node.module, a.name)
                        for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom)
                        and node.module in trees for a in node.names}
               for module, tree in trees.items()}

    def reads(module, node):
        nodes = list(ast.walk(node))
        # a function's parameters, assigned names and inner functions are
        # its own
        local = {n.arg for n in nodes if isinstance(n, ast.arg)} | \
            {n.id for n in nodes
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)} | \
            {n.name for n in nodes[1:] if isinstance(n, ast.FunctionDef)} \
            if isinstance(node, ast.FunctionDef) else set()
        for n in nodes:
            if isinstance(n, ast.Attribute) and \
                    getattr(n.value, "id", None) in trees:
                yield n.value.id, n.attr
            elif isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) \
                    and n.id not in local:
                yield origins[module].get(n.id, (module, n.id))
            elif isinstance(n, ast.arg) and _is_fixture(defs.get((module, n.arg))):
                yield module, n.arg

    todo = [key for key in defs if key[1].startswith("test_")]
    reached = set()
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            todo.extend(r for r in reads(key[0], defs[key]) if r in defs)
    return {d for d in defs if not d[1].startswith("test_")}, reached


def test_every_test_helper_is_read():
    defined, reached = _test_names()
    unread = sorted(f"{module}.{name}" for module, name in defined - reached)
    assert not unread, f"defined in tests/ but never read: {unread}"


def _stale_imports():
    """module:name of every name a module in src/ or tests/ imports but
    never reads; `from __future__ import ...` binds no name."""
    stale = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and \
                    getattr(node, "module", None) != "__future__":
                stale.extend(f"{path.relative_to(ROOT)}:{name}"
                             for alias in node.names
                             if (name := alias.asname or alias.name.split(".")[0])
                             not in read)
    return stale


def test_every_import_is_read():
    stale = _stale_imports()
    assert not stale, f"imported but never read: {stale}"


def test_start_up_loads_no_slow_module():
    # -S: no site module, so only the CLI's own imports count
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
            "import tentbreak.cli; "
            f"print(*[m for m in {SLOW_IMPORTS!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout.split()
    assert not out, f"importing tentbreak.cli loads {out}"
