import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from xpoincare.algebra import (GENERATOR_NAMES, STRUCTURE_CONSTANTS,
                               GeneratorIndex as G, adjoint_of, casimir_lambda,
                               casimir_mu, commutator, exp_ad,
                               invariance_residual, jacobi_check,
                               table_from_json_obj, table_to_json_obj)
import xpoincare
from xpoincare.checks import element_doc, run_suite, suite_oracle
from xpoincare.cli import canonical_json
from xpoincare.poincare import (GroupParams, compose, inverse, oplus, theta_closed,
                                theta_numeric)
from xpoincare.xlorentz import XLParams, xl_decompose, xl_matrix


def basis(i):
    v = np.zeros(15)
    v[i] = 1.0
    return v


def test_antisymmetry_exact():
    f = STRUCTURE_CONSTANTS.dense
    assert np.abs(f + np.swapaxes(f, 0, 1)).max() == 0


def test_values_are_small_integers():
    vals = set(np.unique(STRUCTURE_CONSTANTS.dense))
    assert vals <= {-1, 0, 1}


@pytest.mark.parametrize("a,b,expect", [
    (G.J1, G.J2, {G.J3: 1.0}),
    (G.GAM0, G.GAM1, {G.K1: 1.0}),
    (G.GAM1, G.P1, {G.GS: -1.0}),
    (G.P0, G.P2, {}),
    (G.K1, G.P0, {G.P1: -1.0}),
    (G.GAM0, G.GS, {G.P0: 1.0}),   # -eta^{00} = +1, mostly-plus metric
    (G.GAM2, G.GS, {G.P2: -1.0}),
])
def test_commutator_table_entries(a, b, expect):
    z = commutator(basis(a), basis(b))
    want = np.zeros(15)
    for c, v in expect.items():
        want[c] = v
    assert np.array_equal(z, want)


def test_commutator_bilinear_antisymmetric():
    rng = np.random.default_rng(0)
    x, y = rng.integers(-3, 4, size=15), rng.integers(-3, 4, size=15)
    assert np.array_equal(commutator(x, y), -commutator(y, x))
    z = rng.integers(-3, 4, size=15)
    assert np.array_equal(commutator(x + 2 * z, y),
                          commutator(x, y) + 2 * commutator(z, y))


def test_extended_translations_commute():
    assert np.abs(STRUCTURE_CONSTANTS.dense[10:, 10:, :]).max() == 0


def test_jacobi_identity_exact():
    rep = jacobi_check()
    assert rep.max_violation == 0
    assert rep.violations == []


def test_jacobi_detects_mutated_table():
    obj = table_to_json_obj()
    for row in obj["entries"]:
        if (row["a"], row["b"], row["c"]) == ("J1", "J2", "J3"):
            row["f"] = -1
    rep = jacobi_check(table_from_json_obj(obj))
    assert rep.max_violation > 0
    triples = {v[:3] for v in rep.violations}
    assert ("J1", "J2", "K1") in triples
    # the violating component sits in the K sector
    comp = {v[3] for v in rep.violations if v[:3] == ("J1", "J2", "K1")}
    assert comp <= {"K1", "K2", "K3"}


def test_ad_matrix_p0_pattern():
    # Gam rows couple into the Gs column; K rows carry the boost action on P
    F = adjoint_of(basis(G.P0))
    assert F[G.GAM0, G.GS] == 1.0
    assert all(F[G.K1 + j, G.P1 + j] == 1.0 for j in range(3))
    mask = np.zeros((15, 15), dtype=bool)
    mask[G.GAM0, G.GS] = True
    for j in range(3):
        mask[G.K1 + j, G.P1 + j] = True
    assert np.abs(F[~mask]).max() == 0


def test_ad_matrix_gs_couples_gam_rows_to_p():
    F = adjoint_of(basis(G.GS))
    nz = np.argwhere(F != 0)
    assert len(nz) > 0
    for r, s in nz:
        assert 6 <= r <= 9 and 10 <= s <= 13


def test_ad_matrix_j3_rotates_pairs():
    F = adjoint_of(basis(G.J3))
    for i, j in [(G.J1, G.J2), (G.K1, G.K2), (G.GAM1, G.GAM2), (G.P1, G.P2)]:
        assert F[i, j] == 1.0 and F[j, i] == -1.0
    mask = np.zeros((15, 15), dtype=bool)
    for i, j in [(G.J1, G.J2), (G.K1, G.K2), (G.GAM1, G.GAM2), (G.P1, G.P2)]:
        mask[i, j] = mask[j, i] = True
    assert np.abs(F[~mask]).max() == 0


def test_package_import_does_not_load_scipy():
    # scipy serves only the exp_ad oracle and is imported inside it
    code = "import sys, xpoincare.cli; assert 'scipy' not in sys.modules"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# Runs each command through cli.main in one fresh process and records, per
# command, (exit code, stdout, stderr, whether numpy is loaded afterwards).
_CLI_RUNNER = """
import contextlib, io, json, sys
import xpoincare, xpoincare.cli
assert "numpy" not in sys.modules, "importing the package loaded numpy"
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = xpoincare.cli.main(argv)
    out.append([code, stdout.getvalue(), stderr.getvalue(), "numpy" in sys.modules])
print(json.dumps(out))
"""


def _matrix_text(m):
    rows = [[None if math.isnan(x) else x for x in row] for row in m.tolist()]
    return canonical_json({"matrix": rows}) + "\n"


def test_element_commands_do_not_load_numpy(tmp_path):
    # compose, invert, decompose and theta (--numeric by default) run on the
    # float core; oplus, theta --closed and check import numpy inside the
    # command, and every command prints the library's in-process bytes
    g2 = GroupParams(0.5, [1.0, -2.0, 0.3, 4.0],
                     XLParams([0.3, 0.1, -0.4, 0.2], [0.4, -0.3, 0.2], [0.5, 0.6, -0.7]))
    g1 = GroupParams(-1.5, [0.2, 0.7, -0.1, 1.0],
                     XLParams([0.1, -0.2, 0.1, 0.3], [-0.2, 0.1, 0.5], [0.3, -0.2, 0.4]))
    m = xl_matrix(g1.xl)
    n = np.array([math.sqrt(1.0 + 1.69), 1.2, 0.3, -0.4])  # unit timelike
    outside = xl_matrix(XLParams(math.pi * n)) @ xl_matrix(XLParams([0.0, 1.5, 0.0, 0.0]))
    files = {}
    for name, obj in (("g2", element_doc(g2)), ("g1", element_doc(g1)),
                      ("m", {"matrix": m.tolist()}), ("outside", {"matrix": outside.tolist()}),
                      ("big", {"omega": [0, 400, 0, 0]})):
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    def doc(g):
        return canonical_json(element_doc(g)) + "\n"

    cases = [  # argv, exit code, stdout, numpy loaded afterwards
        (["compose", files["g2"], files["g1"]], 0, doc(compose(g2, g1)), False),
        (["invert", files["g2"]], 0, doc(inverse(g2)), False),
        (["decompose", "--matrix", files["m"]], 0, doc(GroupParams(xl=xl_decompose(m))), False),
        (["decompose", "--matrix", files["outside"]], 3, "", False),
        (["theta", files["g2"]], 0, _matrix_text(theta_numeric(g2)), False),
        (["oplus", files["g1"]], 0, _matrix_text(oplus(g1)), True),
        (["theta", files["g2"], "--closed"], 0, _matrix_text(theta_closed(g2)), True),
        (["check", "--suite", "jacobi", "--trials", "10", "--seed", "3"], 0,
         canonical_json(run_suite("jacobi", 10, 3)) + "\n", True),
        (["oplus", files["big"]], 2, "", True),
    ]
    src = os.path.dirname(os.path.dirname(xpoincare.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
    proc = subprocess.run([sys.executable, "-c", _CLI_RUNNER,
                           json.dumps([argv for argv, *_ in cases])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for (argv, code, stdout, numpy_loaded), got in zip(cases, json.loads(proc.stdout)):
        assert got[0] == code and got[1] == stdout, argv
        assert got[3] == numpy_loaded, argv
        if code:  # one `error:` line; no numpy warning on the way
            assert got[2].startswith("error: ") and got[2].count("\n") == 1, (argv, got[2])
        else:
            assert got[2] == "", argv


def test_exp_ad_of_zero_is_identity():
    assert np.abs(exp_ad(np.zeros(15)) - np.eye(15)).max() == 0


def test_exp_ad_dirac_gs_entry():
    # temporal-dominant omega slot is trig, spatial is hyperbolic
    x = np.zeros(15)
    x[6:10] = [0.0, math.pi / 3, 0.0, 0.0]
    assert exp_ad(x)[14, 14] == pytest.approx(math.cosh(math.pi / 3), abs=1e-12)
    x[6:10] = [math.pi / 3, 0.0, 0.0, 0.0]
    assert exp_ad(x)[14, 14] == pytest.approx(0.5, abs=1e-12)


def test_exp_ad_one_parameter_subgroup():
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=15) * 0.5
        s, t = rng.uniform(-1.5, 1.5, size=2)
        lhs = exp_ad(x, s) @ exp_ad(x, t)
        assert np.abs(lhs - exp_ad(x, s + t)).max() < 1e-10


@pytest.mark.parametrize("seed", [7, 19])
def test_one_parameter_subgroup_residual_is_scaled(seed):
    # unscaled, the residual reached 3.3e-10 (seed 7) and 5.7e-10 (seed 19)
    # against the 1e-10 gate; scaled, 1.8e-12 and 1.3e-12
    props, failures = suite_oracle(1000, seed)
    assert not failures, failures
    r = next(p for p in props if p["name"] == "one-parameter-subgroup")
    assert r["max_residual"] < 1e-11


# worst one-parameter-subgroup draw of suite_oracle(1000, 7): t1, t2 and x
_SEED7_T = (-1.067464782607022, -1.3571314904302563)
_SEED7_X = [-0.5530864402687325, -0.3530190004424292, -0.35370335199432473,
            1.025919600169148, -1.1544352932980275, -0.19072019307911167,
            0.18899375768690543, -0.28992384142849553, 0.7666551600949293,
            1.6777251944962055, 0.4825189700754302, -0.10785389676602704,
            -0.014968081694003592, -0.20283494089692425, -0.7088674005455077]


def test_exp_ad_matches_mpmath():
    # scaling-and-squaring loses about 3e3 eps relative on the seed-7 draw at
    # t1 + t2 (7.0e-13); every other draw stays below 1.3e-13
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20)
    draws = [(np.array(_SEED7_X), t) for t in (*_SEED7_T, sum(_SEED7_T))]
    draws += [(rng.normal(size=15) * 0.6, rng.uniform(-3.0, 3.0)) for _ in range(7)]
    with mp.workdps(40):
        for x, t in draws:
            # the reference exponentiates the same float64 matrix exactly
            a = float(t) * adjoint_of(x)
            ref = np.array(mp.expm(mp.matrix(a.tolist())).tolist(), dtype=float)
            err = np.abs(exp_ad(x, t) - ref).max()
            assert err <= 1e-12 * np.abs(ref).max(), (t, err)


def test_exp_ad_unimodular():
    for a in range(15):
        for tau in np.linspace(-2.0, 2.0, 9):
            assert abs(np.linalg.det(exp_ad(basis(a), tau)) - 1.0) < 1e-10


def test_casimir_mu_diagonal():
    k = casimir_mu()
    assert np.array_equal(np.diag(k)[10:], [1, -1, -1, -1, 1])
    assert np.abs(k[:10, :]).max() == 0 and np.abs(k - k.T).max() == 0


def test_casimir_mu_invariant_under_all_rows():
    assert np.abs(invariance_residual(casimir_mu())).max() == 0


def test_casimir_lambda_subgroup_only():
    res = invariance_residual(casimir_lambda())
    assert np.abs(res[:10]).max() == 0
    # observed defect on every translation row is exactly 1
    assert np.array_equal(res[10:], [1, 1, 1, 1, 1])


def test_table_json_roundtrip():
    obj = table_to_json_obj()
    assert obj["order"] == list(GENERATOR_NAMES)
    assert len(obj["entries"]) == 50
    t2 = table_from_json_obj(obj)
    assert np.array_equal(t2.dense, STRUCTURE_CONSTANTS.dense)
