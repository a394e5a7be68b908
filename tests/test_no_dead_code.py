"""Every function, method and class in src/vdcorput is used by the program.

A definition counts as used when its name is referenced somewhere in src/ or
bench/ outside its own body: as a name, as an attribute, or, in bench/, as a
string (the bench tracer looks functions up by name).  Imports and
``__all__`` entries are not uses.  The only exceptions are the paper's entry
points listed below, which the package exports and only the tests call.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vdcorput"

PAPER_ENTRY_POINTS = {
    "derivative_test_bounds",           # first and second derivative tests
    "fresnel_modified",                 # the modified Fresnel integral F(u)
    "stationary_phase_estimate",        # one-sided stationary phase expansion
    "refined_endpoint_term",            # refined large-f'' endpoint estimate
    "optimized_refinement_params",      # the optimized (C, L) choices
    "toinfinity_deltas",                # the fixed-a, growing-b budget
    "r_branch",                         # the critical-point branches r_pm(x)
}


def _definitions():
    """(name, file, first line, last line) of every top-level function and
    class of the package and of every method of those classes."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out += [(m.name, path, m.lineno, m.end_lineno) for m in node.body
                        if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")]
    return out


def _references():
    """name -> [(file, line)] of every use in src/ and bench/."""
    refs = {}
    files = [(p, False) for p in sorted(SRC.rglob("*.py"))]
    files += [(p, True) for p in sorted((ROOT / "bench").rglob("*.py"))]
    for path, strings_count in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif strings_count and isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            refs.setdefault(name, []).append((path, node.lineno))
    return refs


def _unused():
    refs = _references()
    unused = []
    for name, path, first, last in _definitions():
        if not any(not (p == path and first <= line <= last) for p, line in refs.get(name, [])):
            unused.append((name, f"{path.name}:{first}"))
    return unused


def test_every_definition_in_src_is_used_by_src_or_bench():
    unused = [f"{where} {name}" for name, where in _unused() if name not in PAPER_ENTRY_POINTS]
    assert not unused, "defined in src/ but used only by tests or not at all: " + ", ".join(unused)


def test_the_exceptions_are_defined_and_unused():
    # an exception that the program starts to use leaves the list
    assert {name for name, _ in _unused()} >= PAPER_ENTRY_POINTS
