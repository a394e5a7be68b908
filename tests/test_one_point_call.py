"""The K terms of the error budget and the polish of the f' inversion
evaluate their points in one array call.

``errbudget.kappa_functional`` takes W at its isolated points, at the sign
changes of r' and at the interval ends from one ``terms`` call on an array,
and ``_k_terms`` takes the J_null sum from one g jet and one f'' call.
``phase.invert_fprime`` polishes every x_r from one jet of both ends of its
bracket.  A loop of calls, one point (a 0-d jet) or one step at a time,
fails this scan.
"""

import ast

from test_one_sign_change_home import LOOPS, _calls, _functions

JETS = ("fjet", "gjet", "f", "f1", "f2", "g")


def _function(name, file="errbudget.py"):
    (fn,) = [fn for f, fn_name, fn in _functions() if (f, fn_name) == (file, name)]
    return fn


def _in_loops(fn, names):
    return [ast.unparse(c) for loop in ast.walk(fn) if isinstance(loop, LOOPS)
            for name in names for c in _calls(loop, name)]


def test_kappa_functional_calls_terms_inside_no_loop():
    fn = _function("kappa_functional")
    assert len(_calls(fn, "terms")) == 2  # the quadrature integrand's and the points'
    assert not _in_loops(fn, ("terms",))


def test_k_terms_calls_no_jet_inside_a_loop():
    fn = _function("_k_terms")
    assert _calls(fn, "gjet") and _calls(fn, "f2")
    assert not _in_loops(fn, JETS)


def test_the_inversion_polish_calls_no_jet_inside_a_loop():
    # f' at the domain ends, then f' and f'' at both ends of every bracket;
    # the bracket steps' own loop lives in _newton_brackets
    fn = _function("invert_fprime", "phase.py")
    assert sorted(ast.unparse(c.args[0]) for c in _calls(fn, "fjet")) == [
        "ends", "np.array(model.domain)"]
    assert not [c for name in JETS[2:] for c in _calls(fn, name)]
    assert not _in_loops(fn, JETS)
