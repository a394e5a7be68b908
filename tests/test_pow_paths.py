"""Powers stay off numpy's slow paths.

numpy's float64 ``power`` is fast on positive bases but takes a slow scalar
path on a negative one: with numpy 2.4 on an AVX-512 Intel Xeon, ``y ** 3``
costs 119 ns per element on a negative y, against 3.0 ns on a positive y and
1.0 ns for ``y * y * y``.  g'' and P change sign along the K intervals, so
``WRFunctions.pm_terms`` forms their cubes and fourth powers as products;
a square (``** 2``) goes to numpy's ``square`` and is exact.

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


def test_pm_terms_raises_to_no_constant_power_but_2():
    fn = _method(_trees()["errbudget.py"], "WRFunctions", "pm_terms")
    powers = [n for n in ast.walk(fn) if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)]
    assert powers, "the scan no longer sees pm_terms' squares"
    bad = [ast.unparse(n) for n in powers
           if not (isinstance(n.right, ast.Constant) and n.right.value == 2)]
    assert not bad, "pm_terms powers other than squares: " + "; ".join(bad)


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
