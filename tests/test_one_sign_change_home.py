"""Every sign change the error budget locates is bisected in one place.

``numutil.sign_change_roots`` bisects all the gaps of a scan, of every
function handed to it, in one loop of jet calls.  The partition and the K
functionals' scan (``errbudget.kappa_cuts``) each hand it all their functions
at once: one call each, outside any loop.  A refinement per function or per
interval, which costs a loop of some 40 jet calls apiece, fails this scan.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "vdcorput"

HOME = ("numutil.py", "sign_change_roots")
CALLERS = {("errbudget.py", "partition_assumptions"), ("errbudget.py", "kappa_cuts")}
LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _functions():
    """(file, name, node) of every function and method defined in src/."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                out.append((path.name, node.name, node))
    return out


def _calls(node, name):
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and ast.unparse(n.func).split(".")[-1] == name]


def test_bisection_has_one_home_in_numutil():
    defs = [(file, name) for file, name, _ in _functions()
            if name in ("sign_change_roots", "_bisect_paths", "bisect")]
    assert sorted(defs) == [("numutil.py", "_bisect_paths"), HOME]
    # the loop itself serves sign_change_roots alone
    users = {(file, name) for file, name, fn in _functions() if _calls(fn, "_bisect_paths")}
    assert users == {HOME}


def test_the_partition_and_the_k_scan_bisect_once_outside_any_loop():
    callers = {(file, name): fn for file, name, fn in _functions()
               if (file, name) != HOME and _calls(fn, "sign_change_roots")}
    assert set(callers) == CALLERS
    for (file, name), fn in callers.items():
        assert len(_calls(fn, "sign_change_roots")) == 1, name
        in_loops = [c for loop in ast.walk(fn) if isinstance(loop, LOOPS)
                    for c in _calls(loop, "sign_change_roots")]
        assert not in_loops, f"{file}:{name} bisects inside a loop"


def test_each_k_functional_scan_is_one_call():
    # the K functionals of J_0 and of both branches of J_pm get their break
    # points from kappa_cuts, one call per branch set, outside any loop
    (k_terms,) = [fn for file, name, fn in _functions() if name == "_k_terms"]
    assert len(_calls(k_terms, "kappa_cuts")) == 2
    assert not [c for loop in ast.walk(k_terms) if isinstance(loop, LOOPS)
                for c in _calls(loop, "kappa_cuts")]
