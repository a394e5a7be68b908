"""Every reduction mod 1 of a float has one home: ``numutil.mod1``.

``mod1(y)`` is y - floor(y), bit for bit numpy's remainder by 1 at a
fraction of its cost; libm's fmod is slower still.  This scan fails on any
``fmod``, ``remainder`` or ``mod`` call in ``src/``, and on any ``%`` with a
float literal operand (``% 1.0``), outside that helper.  Integer ``%`` (a
literal like 12, or two names) is not a reduction of a float and passes.
"""

import ast

from test_one_sign_change_home import SRC, _calls, _functions

HOME = ("numutil.py", "mod1")
CALLS = ("fmod", "remainder", "mod")


def _has_float_literal(node):
    return any(isinstance(n, ast.Constant) and isinstance(n.value, float) for n in ast.walk(node))


def _float_mods(node):
    """The ``%`` and ``%=`` nodes under node with a float literal operand."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mod):
            if _has_float_literal(n.left) or _has_float_literal(n.right):
                out.append(n)
        elif isinstance(n, ast.AugAssign) and isinstance(n.op, ast.Mod):
            if _has_float_literal(n.value):
                out.append(n)
    return out


def _offences(tree):
    """ast.unparse of every float reduction under tree, with its line."""
    found = [n for name in CALLS for n in _calls(tree, name)] + _float_mods(tree)
    return sorted((n.lineno, ast.unparse(n)) for n in found)


def test_the_helper_is_defined_once_in_numutil():
    defs = [(file, name) for file, name, _ in _functions() if name == "mod1"]
    assert defs == [HOME]


def test_no_float_reduction_outside_the_helper():
    inside = {line for file, name, fn in _functions() if (file, name) == HOME
              for line in range(fn.lineno, fn.end_lineno + 1)}
    bad = [f"{path.name}:{line}: {text}" for path in sorted(SRC.glob("*.py"))
           for line, text in _offences(ast.parse(path.read_text()))
           if not (path.name == HOME[0] and line in inside)]
    assert not bad, "float reductions mod 1 outside numutil.mod1:\n" + "\n".join(bad)


def test_the_scan_sees_each_form():
    # the forms the dual side used before it had one home, and integer % kept
    src = ("a = np.fmod(x, 1.0)\nb = math.fmod(x, 1.0)\nc = np.remainder(x, 1.0)\n"
           "d = np.mod(x, 1.0)\ne = (y - r * x) % 1.0\nf = lambda r: (r * r) % 1.0\n"
           "g %= 0.5\nh = n % 12\ni = c % k\n")
    assert [line for line, _ in _offences(ast.parse(src))] == [1, 2, 3, 4, 5, 6, 7]
