"""Golden outputs: the built-in families and the JSON of every CLI subcommand.

The recorded values live in ``golden_outputs.json`` next to this file.
Refactors that claim "same outputs" are held to them:

* families: the searched scale factor epsilon matches exactly, and M, M',
  U, f and g''' agree to within one ulp on seven points per case; the model
  alone (``family_model``) matches without any scale-factor search;
* CLI: every number agrees to within 1e-12 of its scale, max(1, |golden|);
  strings, integers, booleans and nulls agree exactly.

Re-record (only when an output is meant to change, and say why) with

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest

from vdcorput import phase
from vdcorput.experiments import cli_main
from vdcorput.phase import builtin_family, family_model

GOLDEN = Path(__file__).with_name("golden_outputs.json")

# (id, name, params, domain, points)
FAMILY_CASES = [
    ("power_phase", "power_phase", [], None, (1.0, 1e6)),
    ("power_phase_domain", "power_phase", [], (1.0, 1e6), (2.0, 9e5)),
    ("quadratic", "quadratic", [0.5], None, (-100.0, 100.0)),
    ("quadratic_span", "quadratic", [0.5, 40.0], (0.0, 100.0), (1.0, 99.0)),
    ("ik_monomial_2", "ik_monomial", [2.0, 100.0, 1e4], None, (50.0, 1e4)),
    ("ik_monomial_1.5", "ik_monomial", [1.5, 100.0, 1e4], None, (50.0, 1e4)),
    ("exponential", "exponential", [1.0, 2.0], None, (0.5, 20.0)),
    ("exponential_3", "exponential", [1.0, 3.0], None, (0.5, 10.0)),
    ("zeta_log", "zeta_log", [0.5, 1000.0], None, (1.0, 1e4)),
    ("oscillatory", "oscillatory", [1.0, 0.5, 2.0], (10.0, 1e4), (10.0, 1e3)),
    ("oscillatory_deep", "oscillatory", [1.0, 2.0, 3.0], (10.0, 1e4), (10.0, 1e3)),
    ("oscillatory_eps", "oscillatory", [1.0, 0.5, 2.0, 0.125], (10.0, 1e4), (10.0, 1e3)),
    ("sine_amplitude", "sine_amplitude", [0.37], None, (1.0, 400.0)),
    ("sine_amplitude_3", "sine_amplitude", [3.0], None, (1.0, 400.0)),
    ("sine_amplitude_eps", "sine_amplitude", [0.37, 0.25], None, (1.0, 400.0)),
]

# (id, argv with {d} for the output directory, file written)
CLI_CASES = [
    ("sum", ["sum", "--family", "power_phase", "--a", "1", "--b", "5000",
             "--json", "{d}"], "sum.json"),
    ("transform", ["transform", "--family", "power_phase", "--a", "100.5",
                   "--b", "1200", "--json", "{d}"], "transform.json"),
    ("budget", ["budget", "--family", "zeta_log", "--params", "0.5,1000",
                "--a", "50", "--b", "500", "--json", "{d}"], "budget.json"),
    ("example", ["example", "--N", "30100", "--json", "{d}"], "example_30100.json"),
    ("estimate-c", ["estimate-c", "--kmin", "10", "--kmax", "20", "--json", "{d}"],
     "estimate_c.json"),
    ("ck", ["ck", "--random", "6", "--seed", "3", "--json", "{d}"], "ck.json"),
    ("kl", ["kl", "--family", "quadratic", "--params", "0.001", "--a", "100",
            "--b", "400", "--json", "{d}"], "kl.json"),
    ("ik", ["ik", "--alpha", "1.5", "--nu", "2", "--N", "100", "--X", "1e4",
            "--json", "{d}"], "ik.json"),
    ("curve", ["curve", "--family", "sine_amplitude", "--params", "0.37",
               "--tmax", "60", "--samples-per-unit", "3", "--csv", "{d}/curve.csv"],
     "curve.csv"),
]

# the subcommands that keep no regularity profile
PROFILE_FREE = [c for c in CLI_CASES
                if c[0] in ("sum", "example", "estimate-c", "ck", "kl", "ik", "curve")]

SAMPLED = ("M", "M_prime", "U", "f", "g3")
MODEL_SAMPLED = ("f", "g3")


def _model_fns(model):
    return {"f": model.f, "g3": lambda x: model.gjet(x, 3, 3)[0]}


def _sample(fn, xs):
    return [float(v) for v in np.broadcast_to(np.asarray(fn(xs), dtype=float), xs.shape)]


def family_record(name, params, domain, points):
    model, profile = builtin_family(name, params, domain=domain)
    xs = np.geomspace(*points, 7) if points[0] > 0 else np.linspace(*points, 7)
    fns = {"M": profile.M, "M_prime": profile.M_prime, "U": profile.U, **_model_fns(model)}
    rec = {"epsilon": profile.epsilon, "domain": list(model.domain),
           "name": model.name, "params": list(model.params),
           "x": [float(x) for x in xs]}
    for key in SAMPLED:
        rec[key] = _sample(fns[key], xs)
    return rec


def cli_record(argv, written):
    with tempfile.TemporaryDirectory() as d:
        rc = cli_main([t.format(d=d) for t in argv])
        text = (Path(d) / written).read_text()
    if written.endswith(".csv"):
        lines = text.splitlines()
        payload = {"header": lines[0],
                   "rows": [[float(t) for t in ln.split(",")] for ln in lines[1:]]}
    else:
        payload = json.loads(text)
    return {"rc": rc, "payload": payload}


def _golden():
    return json.loads(GOLDEN.read_text())


def _same(got, want, path="$"):
    """Recursive comparison under the CLI rule; returns mismatch descriptions."""
    if isinstance(want, bool) or want is None or isinstance(want, str):
        return [] if got == want and type(got) is type(want) else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, int):
        return [] if type(got) is int and got == want else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, float):
        if not isinstance(got, float):
            return [f"{path}: {got!r} is not a float"]
        if math.isnan(want) or math.isinf(want):
            same = (math.isnan(got) and math.isnan(want)) or got == want
            return [] if same else [f"{path}: {got!r} != {want!r}"]
        tol = 1e-12 * max(1.0, abs(want))
        return [] if abs(got - want) <= tol else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length or type differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _same(g, w, f"{path}[{i}]")]
    if not isinstance(got, dict) or set(got) != set(want):
        return [f"{path}: keys differ: {sorted(got) if isinstance(got, dict) else got!r}"]
    return [m for k in want for m in _same(got[k], want[k], f"{path}.{k}")]


@pytest.mark.parametrize("case", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_family_matches_golden(case):
    cid, name, params, domain, points = case
    want = _golden()["families"][cid]
    got = family_record(name, params, domain, points)
    assert got["epsilon"] == want["epsilon"]
    assert got["domain"] == want["domain"]
    assert got["name"] == want["name"]
    assert got["params"] == want["params"]
    assert got["x"] == want["x"]
    for key in SAMPLED:
        for g, w in zip(got[key], want[key]):
            assert abs(g - w) <= math.ulp(w), (key, g, w)


def _check_cli(case):
    cid, argv, written = case
    want = _golden()["cli"][cid]
    got = cli_record(argv, written)
    assert got["rc"] == want["rc"]
    mismatches = _same(got["payload"], want["payload"])
    assert not mismatches, mismatches[:10]


@pytest.mark.parametrize("case", CLI_CASES, ids=[c[0] for c in CLI_CASES])
def test_cli_matches_golden(case):
    _check_cli(case)


def test_cli_cases_cover_every_subcommand():
    assert sorted(c[1][0] for c in CLI_CASES) == sorted(
        ["sum", "transform", "budget", "example", "estimate-c", "ck", "kl", "ik", "curve"])


@pytest.fixture
def no_search(monkeypatch):
    def refuse(*args):
        raise AssertionError("scale-factor search on a path that keeps no profile")

    monkeypatch.setattr(phase, "_search_epsilon", refuse)


@pytest.mark.parametrize("case", FAMILY_CASES, ids=[c[0] for c in FAMILY_CASES])
def test_family_model_matches_golden_without_a_search(case, no_search):
    cid, name, params, domain, points = case
    want = _golden()["families"][cid]
    model = family_model(name, params, domain)
    assert list(model.domain) == want["domain"]
    assert model.name == want["name"]
    assert list(model.params) == want["params"]
    xs = np.array(want["x"])
    for key in MODEL_SAMPLED:
        for g, w in zip(_sample(_model_fns(model)[key], xs), want[key]):
            assert abs(g - w) <= math.ulp(w), (key, g, w)


@pytest.mark.parametrize("case", PROFILE_FREE, ids=[c[0] for c in PROFILE_FREE])
def test_profile_free_commands_run_no_search(case, no_search):
    _check_cli(case)


def record() -> None:
    data = {"families": {c[0]: family_record(*c[1:]) for c in FAMILY_CASES},
            "cli": {c[0]: cli_record(c[1], c[2]) for c in CLI_CASES}}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    record()
