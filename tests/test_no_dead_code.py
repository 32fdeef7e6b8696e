"""Every function, class and method in src/tentbreak has a caller.

A definition counts as used when its bare name is read somewhere in src/ or
bench/ (as a name or an attribute), or appears in one of the dotted paths of
bench/tracer.py's WRAPPED table, which the tracer resolves with getattr.
Dunder methods are called by Python itself and are skipped.  Code that only
the tests call lives under tests/ (for example rank_reference.py), so
ALLOWED is empty; a name added to it needs its reason.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tentbreak"

# definitions that only the tests call, each mapped to the reason it stays
ALLOWED = {}


def _definitions():
    """(module.qualified_name, bare name) of every top-level function and
    class and every method of a top-level class."""
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__") and item.name.endswith("__")):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _references() -> set:
    names = set()
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif path.name == "tracer.py" and isinstance(node, ast.Assign) and \
                    any(getattr(t, "id", None) == "WRAPPED" for t in node.targets):
                names.update(part for const in ast.walk(node.value)
                             if isinstance(const, ast.Constant)
                             and isinstance(const.value, str)
                             for part in const.value.split("."))
    return names


def test_every_definition_has_a_caller():
    refs = _references()
    unused = sorted(qual for qual, name in _definitions()
                    if name not in refs and qual not in ALLOWED)
    assert not unused, f"defined in src/tentbreak but never used: {unused}"


def test_allowlist_is_current():
    defined = {qual: name for qual, name in _definitions()}
    refs = _references()
    stale = sorted(qual for qual in ALLOWED
                   if qual not in defined or defined[qual] in refs)
    assert not stale, f"allowlisted but missing or now used: {stale}"
