"""Each rounding decision of the starred sum and its transform has one home.

Whether a limit or f' at a limit is an integer, and what e(x) is once x is
reduced mod 1, are answered by numutil (``nearest_integer``, the one integer
rule, whose decisions ``integer_range`` turns into a range; ``cis_turns``,
the table kernel and the one home of e(x), which ``amplitude_e`` scales by
an amplitude).  For f' the family's exact test comes first, in
``phase.fprime_nearest`` alone.  A private copy elsewhere in src/ drifts
from them, so this scan fails on one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vdcorput"

# the functions allowed to apply the integer rule themselves
INTEGER_RULE_HOMES = {("numutil.py", "nearest_integer")}
# the one function allowed to call a family's exact test of an integral f'
EXACT_TEST_HOME = ("phase.py", "fprime_nearest")


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _callee(call: ast.Call) -> str:
    return ast.unparse(call.func)


def _functions(tree):
    """(function name, node) of every function defined at any depth."""
    return [(n.name, n) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]


def _imaginary(node) -> bool:
    """Whether an expression holds an imaginary literal or the 2 pi i constant."""
    for n in ast.walk(node):
        if isinstance(n, ast.Constant) and isinstance(n.value, complex):
            return True
        if isinstance(n, ast.Name) and n.id == "TWO_PI_I":
            return True
    return False


def test_is_integer_like_is_called_only_by_the_integer_rule():
    def calls(node):
        return sum(isinstance(n, ast.Call) and _callee(n).endswith("is_integer_like")
                   for n in ast.walk(node))
    trees = _trees()
    in_homes = {(name, fn_name): calls(fn) for name, tree in trees.items()
                for fn_name, fn in _functions(tree) if (name, fn_name) in INTEGER_RULE_HOMES}
    assert set(in_homes) == INTEGER_RULE_HOMES and all(in_homes.values())
    assert sum(calls(tree) for tree in trees.values()) == sum(in_homes.values())


def test_abar_bbar_has_no_slack_of_its_own():
    (fn,) = [fn for fn_name, fn in _functions(_trees()["errbudget.py"]) if fn_name == "abar_bbar"]
    consts = [n.value for n in ast.walk(fn) if isinstance(n, ast.Constant)]
    assert 1e-12 not in consts
    # nor a rounding of f' of its own: the range comes from integer_range
    assert not any(_callee(n) in ("math.ceil", "math.floor", "round")
                   for n in ast.walk(fn) if isinstance(n, ast.Call))


def test_the_exact_slope_test_is_called_only_by_fprime_nearest():
    found = [(name, fn_name) for name, tree in _trees().items()
             for fn_name, fn in _functions(tree)
             if any(isinstance(n, ast.Call) and _callee(n).endswith("fprime_integer")
                    for n in ast.walk(fn))]
    assert found == [EXACT_TEST_HOME]


def test_no_imaginary_exponential_outside_numutil():
    found = []
    for name, tree in _trees().items():
        if name == "numutil.py":
            continue
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and _callee(n) in ("np.exp", "numpy.exp", "cmath.exp", "exp"):
                if _callee(n) == "cmath.exp" or any(_imaginary(arg) for arg in n.args):
                    found.append(f"{name}:{n.lineno} {ast.unparse(n)}")
            elif isinstance(n, (ast.Import, ast.ImportFrom)):
                mods = [a.name for a in n.names] + [getattr(n, "module", None) or ""]
                if "cmath" in mods:
                    found.append(f"{name}:{n.lineno} imports cmath")
    assert not found, "e(x) outside numutil.amplitude_e: " + "; ".join(found)


def test_the_direct_sum_takes_e_x_from_the_table_kernel():
    # libm's cos and sin of the rounded angle 2 pi {f} err by up to 6 2^-53
    # per term, and are most of the direct sum's cost
    tree = _trees()["expsum.py"]
    found = [f"expsum.py:{n.lineno} {ast.unparse(n)}" for n in ast.walk(tree)
             if isinstance(n, ast.Call)
             and _callee(n).split(".")[-1] in ("cos", "sin")]
    assert not found, "e(x) in expsum outside cis_turns: " + "; ".join(found)
    assert any(isinstance(n, ast.Call) and _callee(n) == "cis_turns" for n in ast.walk(tree))

def test_every_e_x_comes_from_the_table_kernel():
    # amplitude_e and the modules that take e(x) from it (the Poisson
    # integrand, the dual terms, D(a) and D(b)) call no cos, sin or exp
    trees = _trees()
    (amp,) = [fn for name, fn in _functions(trees["numutil.py"]) if name == "amplitude_e"]
    scanned = [("numutil.py", amp), ("quad.py", trees["quad.py"]),
               ("transform.py", trees["transform.py"])]
    found = [f"{name}:{n.lineno} {ast.unparse(n)}" for name, node in scanned
             for n in ast.walk(node) if isinstance(n, ast.Call)
             and _callee(n).split(".")[-1] in ("cos", "sin", "exp")]
    assert not found, "e(x) outside cis_turns: " + "; ".join(found)
    assert any(isinstance(n, ast.Call) and _callee(n) == "cis_turns" for n in ast.walk(amp))


def test_two_pi_i_is_defined_once():
    defs = [name for name, tree in _trees().items() for n in ast.walk(tree)
            if isinstance(n, (ast.Assign, ast.AnnAssign))
            for t in (n.targets if isinstance(n, ast.Assign) else [n.target])
            if isinstance(t, ast.Name) and t.id == "TWO_PI_I"]
    assert defs == ["numutil.py"]


def test_quad_does_not_import_expsum():
    tree = _trees()["quad.py"]
    imported = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            imported.add(n.module or "")
            imported |= {a.name for a in n.names}
        elif isinstance(n, ast.Import):
            imported |= {a.name for a in n.names}
    assert not any(m.split(".")[-1] == "expsum" for m in imported)
