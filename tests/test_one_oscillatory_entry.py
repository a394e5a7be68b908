"""The oscillatory-integral oracle has one entry point.

``quad.oscillatory_integral(model, r, alpha, beta, tol)`` decides the
stationary point, pre-splits the interval and integrates g e(f - r x).  A
second entry point taking bare g, phase and slope callables would be a
parallel path to the same pre-split, so ``quad._phase_pieces`` has that one
caller in src/.
"""

from test_one_sign_change_home import _calls, _functions


def test_the_pre_split_serves_oscillatory_integral_alone():
    users = {(file, name) for file, name, fn in _functions() if _calls(fn, "_phase_pieces")}
    assert users == {("quad.py", "oscillatory_integral")}
