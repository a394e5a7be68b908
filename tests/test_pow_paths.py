"""Powers stay off numpy's slow paths.

numpy's float64 ``power`` is fast on positive bases but takes a slow scalar
path on a negative one: with numpy 2.4 on an AVX-512 Intel Xeon, ``y ** 3``
costs 119 ns per element on a negative y, against 3.0 ns on a positive y and
1.0 ns for ``y * y * y``.  g'' and P change sign along the K intervals, so
``WRFunctions.pm_terms`` and ``zero_terms``, and the terms they take from
their shared values (``_pm_terms`` and ``_zero_terms``), form every power as
a product.

A step that needs libm's bits on an array calls ``np.float_power``, whose
float64 loop calls libm's ``pow`` on every element: 14 ns per element on
the same machine, against 64 ns for ``math.pow`` mapped over the array in
Python.  This scan fails on either slow form in src/.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vdcorput"


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _method(tree, cls, name):
    (node,) = [m for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == cls
               for m in c.body if isinstance(m, ast.FunctionDef) and m.name == name]
    return node


def _powers(fn):
    return [n for n in ast.walk(fn) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]


def test_pm_terms_and_zero_terms_have_no_power():
    tree = _trees()["errbudget.py"]
    bad = [f"{method}: {ast.unparse(n)}" for method in ("pm_terms", "zero_terms")
           for n in _powers(_method(tree, "WRFunctions", method))]
    bad += [f"{fn.name}: {ast.unparse(n)}" for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name in ("_pm_terms", "_zero_terms")
            for n in _powers(fn)]
    assert len([fn for fn in tree.body if isinstance(fn, ast.FunctionDef)
                and fn.name in ("_pm_terms", "_zero_terms")]) == 2
    assert not bad, "powers in WRFunctions: " + "; ".join(bad)


def test_math_pow_is_not_mapped_over_arrays():
    found = []
    for name, tree in _trees().items():
        loops = [n for n in ast.walk(tree)
                 if isinstance(n, (ast.For, ast.While, ast.ListComp, ast.SetComp,
                                   ast.DictComp, ast.GeneratorExp))]
        in_loop = {id(m) for loop in loops for m in ast.walk(loop)}
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for n in ast.walk(tree):
            if isinstance(n, (ast.Attribute, ast.Name)) and ast.unparse(n) in ("math.pow", "pow"):
                # passed as a function (map, a helper, np.vectorize) or called per element
                if id(n) not in called or id(n) in in_loop:
                    found.append(f"{name}:{n.lineno}")
    assert not found, "math.pow over an array in Python (use np.float_power): " + ", ".join(found)
