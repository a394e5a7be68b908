"""Every function, method, class and class field in src/vdcorput is used by
the program.

A definition counts as used when its name is referenced somewhere in src/ or
bench/ outside its own body: as a name, as an attribute, or, in bench/, as a
string (the bench tracer looks functions up by name).  Imports and
``__all__`` entries are not uses.

An annotated class field counts as used when an attribute of its name is read
somewhere in src/ or bench/, or its name is a string in bench/; setting it
in a constructor is not a use.  The exceptions are the fields listed below,
which results carry for reports.

A parameter or dataclass field with a default counts as a setting the
program needs when src/ or bench/ sets it: by keyword or by position in a
call to its function or class, or, for a field, by assigning an attribute of
its name.  A default that only tests change is a constant in disguise.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vdcorput"

REPORT_FIELDS = {
    "ConditionMProfile.epsilon",        # the family scale factor baked into M
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
    unused = [f"{where} {name}" for name, where in _unused()]
    assert not unused, "defined in src/ but used only by tests or not at all: " + ", ".join(unused)


def _fields():
    """(Class.field, file:line) of every annotated field of a class in src/."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                out += [(f"{node.name}.{m.target.id}", f"{path.name}:{m.lineno}")
                        for m in node.body
                        if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
    return out


def _read_attributes():
    """Every attribute name read in src/ or bench/, and every string in bench/."""
    names = set()
    files = [(p, False) for p in sorted(SRC.rglob("*.py"))]
    files += [(p, True) for p in sorted((ROOT / "bench").rglob("*.py"))]
    for path, strings_count in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif strings_count and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_class_field_is_read_by_src_or_bench():
    read = _read_attributes()
    unread = {name: where for name, where in _fields() if name.split(".")[1] not in read}
    stale = [f"{where} {name}" for name, where in unread.items() if name not in REPORT_FIELDS]
    assert not stale, "class fields nothing in src/ or bench/ reads: " + ", ".join(stale)
    # an exception that the program starts to read leaves the list
    assert set(unread) >= REPORT_FIELDS


# default-valued settings that nothing in src/ or bench/ sets, and why they stay
UNSET_SETTINGS = {
    "example_regimes(c_reference)",     # the standing criterion-1 check passes it
    "TransformResult.flags",            # always empty; the bench reads it
}


def _settings():
    """(setting, owner, name, slot, file:line) of every parameter with a
    default of a function or method in src/, named "f(p)", and of every
    dataclass field with a default, named "C.p".  ``slot`` is the positional
    argument that sets it, None for a keyword-only parameter."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
        for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
            funcs += [m for m in cls.body if isinstance(m, ast.FunctionDef)]
            fields = [m for m in cls.body if isinstance(m, ast.AnnAssign)
                      and isinstance(m.target, ast.Name)
                      and "ClassVar" not in ast.unparse(m.annotation)]
            out += [(f"{cls.name}.{m.target.id}", cls.name, m.target.id, i,
                     f"{path.name}:{m.lineno}") for i, m in enumerate(fields) if m.value is not None]
        for fn in funcs:
            a = fn.args
            pos = a.posonlyargs + a.args
            shift = 1 if pos and pos[0].arg in ("self", "cls") else 0
            first = len(pos) - len(a.defaults)
            out += [(f"{fn.name}({p.arg})", fn.name, p.arg, i - shift,
                     f"{path.name}:{fn.lineno}") for i, p in enumerate(pos) if i >= first]
            out += [(f"{fn.name}({p.arg})", fn.name, p.arg, None, f"{path.name}:{fn.lineno}")
                    for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return out


def _setters():
    """In src/ and bench/: the (callee, keyword) pairs of every call, the
    largest positional argument count per callee, and every attribute name
    assigned to."""
    keywords, positional, assigned = set(), {}, set()
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "bench").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                assigned.add(node.attr)
            elif isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                keywords.update((callee, k.arg) for k in node.keywords)
                positional[callee] = max(positional.get(callee, 0), len(node.args))
    return keywords, positional, assigned


def _unset():
    keywords, positional, assigned = _setters()
    return [(setting, where) for setting, owner, name, slot, where in _settings()
            if (owner, name) not in keywords
            and not (slot is not None and positional.get(owner, 0) > slot)
            and not ("." in setting and name in assigned)]


def test_every_default_valued_setting_is_set_by_src_or_bench():
    unset = [f"{where} {name}" for name, where in _unset() if name not in UNSET_SETTINGS]
    assert not unset, "defaults only tests set, or nobody: " + ", ".join(unset)


def test_the_unset_settings_are_defined_and_unset():
    # an exception that the program starts to set leaves the list
    assert {name for name, _ in _unset()} >= UNSET_SETTINGS
