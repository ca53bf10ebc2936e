import ast
import itertools
import json
import math
import os
import subprocess
import sys
from importlib import import_module

import numpy as np
import pytest

from xpoincare.algebra import (GENERATOR_NAMES, STRUCTURE_CONSTANTS,
                               GeneratorIndex as G, adjoint_of, casimir_lambda,
                               casimir_mu, exp_ad,
                               invariance_residual, jacobi_check,
                               table_from_json_obj, table_to_csv, table_to_json_obj)
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
    z = STRUCTURE_CONSTANTS.dense[a, b]
    want = np.zeros(15)
    for c, v in expect.items():
        want[c] = v
    assert np.array_equal(z, want)


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


def _dense_from_obj(obj):
    """The table of a JSON object as a dense int64 array, partners implied."""
    f = np.zeros((15, 15, 15), dtype=np.int64)
    listed = set()
    for row in obj["entries"]:
        a, b, c = (GENERATOR_NAMES.index(row[k]) for k in "abc")
        f[a, b, c] = row["f"]
        listed.add((a, b, c))
    for a, b, c in listed:
        if (b, a, c) not in listed:
            f[b, a, c] = -f[a, b, c]
    return f


def _jacobi_oracle(f):
    """(max_violation, violations) of the dense table f, by einsum."""
    t = (np.einsum("abd,dce->abce", f, f)
         + np.einsum("bcd,dae->abce", f, f)
         + np.einsum("cad,dbe->abce", f, f))
    worst, violations = 0, []
    for a, b, c in itertools.combinations(range(15), 3):
        row = t[a, b, c]
        m = int(np.abs(row).max())
        if m:
            e = int(np.abs(row).argmax())
            violations.append(tuple(GENERATOR_NAMES[i] for i in (a, b, c, e))
                              + (int(row[e]),))
            worst = max(worst, m)
    return worst, violations


def _invariance_oracle(f, k):
    return [int(np.abs(f[r].T @ k + k @ f[r]).max()) for r in range(15)]


def _flipped_tables(both_orders):
    """The table, then each single-entry sign flip of its JSON form."""
    yield table_to_json_obj(both_orders)
    for i in range(len(table_to_json_obj(both_orders)["entries"])):
        obj = table_to_json_obj(both_orders)
        obj["entries"][i]["f"] *= -1
        yield obj


@pytest.mark.parametrize("both_orders", [False, True])
def test_integer_layer_matches_dense_oracle(both_orders):
    # one order: the flip keeps the table antisymmetric and breaks Jacobi and
    # the Casimirs; both orders: the flip breaks antisymmetry as well
    broken = 0
    for obj in _flipped_tables(both_orders):
        table = table_from_json_obj(obj)
        f = _dense_from_obj(obj)
        assert np.array_equal(table.dense, f)
        rep = jacobi_check(table)
        assert (rep.max_violation, rep.violations) == _jacobi_oracle(f)
        for k in (casimir_mu(), casimir_lambda()):
            assert invariance_residual(k, table).tolist() == _invariance_oracle(f, k)
        props = {p["name"]: p["max_residual"]
                 for p in run_suite("jacobi", 1, 0, table)["properties"]}
        assert props["antisymmetry-exact"] == np.abs(f + np.swapaxes(f, 0, 1)).max()
        assert props["extended-translations-commute"] == np.abs(f[10:, 10:]).max()
        broken += rep.max_violation > 0
    assert broken == len(table_to_json_obj(both_orders)["entries"])


def test_invariance_residual_of_a_full_matrix():
    # a K that is neither diagonal nor symmetric reads the same as the oracle
    k = np.random.default_rng(1).integers(-3, 4, size=(15, 15))
    assert invariance_residual(k).tolist() == _invariance_oracle(STRUCTURE_CONSTANTS.dense, k)


def test_invariance_residual_rejects_a_wrong_shape():
    with pytest.raises(ValueError, match=r"kmat must have shape \(15, 15\), got \(3, 3\)"):
        invariance_residual(np.eye(3, dtype=int))


def test_invariance_residual_rejects_a_non_finite_k():
    k = np.eye(15)
    k[14, 14] = np.inf
    with pytest.raises(ValueError, match="^kmat must be finite$"):
        invariance_residual(k)


def test_invariance_residual_truncates_toward_zero():
    # float entries truncate toward zero, as a cast to int64 does: +-1.5
    # reads +-1, and -1.9 reads -1 (not -2, as floor or rounding would)
    assert invariance_residual(casimir_mu() * 1.5).tolist() == \
        invariance_residual(casimir_mu()).tolist()
    assert invariance_residual(np.eye(15) * -1.9).tolist() == \
        invariance_residual(-np.eye(15, dtype=int)).tolist()


def test_invariance_residual_beyond_int64_overflows():
    # residuals are exact Python ints; one beyond int64 is numpy's OverflowError
    with pytest.raises(OverflowError, match="too large to convert"):
        invariance_residual(np.full((15, 15), 2**62, dtype=np.int64))


def test_tables_keep_their_arrays():
    # the numpy tables are made on first read with the values, dtypes and
    # read-only flags they had as module constants
    want = {"dense": STRUCTURE_CONSTANTS.dense,
            "BFORM": np.diag([1.0, -1.0, -1.0, -1.0, 1.0])}
    homes = {"dense": STRUCTURE_CONSTANTS, "BFORM": xpoincare.xlorentz}
    for name, ref in want.items():
        got = getattr(homes[name], name)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), name
        assert not got.flags.writeable, name
    assert len(STRUCTURE_CONSTANTS.rows(both_orders=True)) == 100


def test_table_and_report_are_plain_values():
    import dataclasses
    import pickle
    with pytest.raises(dataclasses.FrozenInstanceError):
        STRUCTURE_CONSTANTS.dense = None
    t = pickle.loads(pickle.dumps(STRUCTURE_CONSTANTS))
    assert t.rows(both_orders=True) == STRUCTURE_CONSTANTS.rows(both_orders=True)
    assert repr(t) == f"StructureConstants(dense={STRUCTURE_CONSTANTS.dense!r})"
    rep = jacobi_check()
    assert repr(rep) == "JacobiReport(max_violation=0, violations=[])"
    flipped = table_to_json_obj()
    flipped["entries"][0]["f"] *= -1
    assert rep == jacobi_check() and rep != jacobi_check(table_from_json_obj(flipped))


def test_generator_index_is_the_names_upper_cased():
    import pickle
    assert [m.name for m in G] == [n.upper() for n in GENERATOR_NAMES]
    assert [m.value for m in G] == list(range(15))
    assert repr(G.GAM2) == "<GeneratorIndex.GAM2: 8>"
    assert pickle.loads(pickle.dumps(G.GAM2)) is G.GAM2


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


def test_float_core_modules_import_no_numpy():
    # lorentz, xlorentz and poincare hold the float core: their arrays come
    # from _names, and numpy is imported only inside the oracles that have
    # not moved out yet, never at module level
    allowed = {("lorentz", "rapidity"), ("xlorentz", "__getattr__")}
    found = set()
    for module in ("lorentz", "xlorentz", "poincare"):
        path = import_module(f"xpoincare.{module}").__file__
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            where = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    names = [node.module]
                else:
                    continue
                if any(n == "numpy" or n.startswith("numpy.") for n in names):
                    found.add((module, where))
    assert found == allowed


def test_public_surface():
    # the package exports the group law, its parameters, the exact table and
    # the oracles; a name it does not export is not an attribute of it
    assert xpoincare.__all__ == [
        "BFORM", "DecompositionError", "GENERATOR_NAMES", "GeneratorIndex", "GroupParams",
        "JacobiReport", "STRUCTURE_CONSTANTS", "StructureConstants", "XLParams",
        "adjoint_of", "b_residual", "casimir_lambda", "casimir_mu", "compose",
        "compose_via_affine", "exp_ad", "invariance_residual", "inverse", "jacobi_check",
        "lorentz_decompose", "lorentz_matrix", "metric_residual", "oplus",
        "params_to_vector", "rapidity", "theta_claimed_mask", "theta_closed",
        "theta_numeric", "xl_decompose", "xl_matrix"]
    for name in xpoincare.__all__:
        assert getattr(xpoincare, name) is not None, name
    gone = {"algebra": ("ETA", "ETA_INT", "EPS3", "commutator", "_F_FLOAT"),
            "poincare": ("vector_to_params",), "_names": ("_lazy_constants",),
            "xlorentz": ("ETA",)}  # its __getattr__ answers as a plain module does
    for module, names in gone.items():
        home = import_module(f"xpoincare.{module}")
        for name in names:
            for where in (xpoincare, home):
                with pytest.raises(AttributeError,
                                   match=f"^module '{where.__name__}' has no attribute '{name}'$"):
                    getattr(where, name)
    assert xpoincare.BFORM is xpoincare.xlorentz.BFORM
    assert not xpoincare.BFORM.flags.writeable


def test_cli_import_does_not_load_numbers():
    # the JSON writer reads Python ints and floats only; -S keeps site's own
    # imports out of the count, so the package path is given explicitly
    path = os.path.dirname(os.path.dirname(xpoincare.__file__))
    code = (f"import sys; sys.path.insert(0, {path!r}); import xpoincare.cli; "
            "assert 'numbers' not in sys.modules")
    assert subprocess.run([sys.executable, "-S", "-c", code]).returncode == 0


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


def _csv_text(m):
    """The labelled CSV of a matrix with finite entries; + 0.0 turns -0.0 into 0."""
    lines = ["," + ",".join(GENERATOR_NAMES)]
    for name, row in zip(GENERATOR_NAMES, m.tolist()):
        lines.append(name + "," + ",".join(format(x + 0.0, ".17g") for x in row))
    return "\n".join(lines) + "\n"


def test_element_commands_do_not_load_numpy(tmp_path):
    # compose, invert, oplus, theta and decompose run on the float core, and
    # dump-algebra and the jacobi and casimir suites of check on the integer
    # layer; only the sampled suites of check import numpy, inside the
    # command.  The numpy-free commands run first, and every command prints
    # the library's in-process bytes
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
                      ("big", {"omega": [0, 400, 0, 0]}), ("table", table_to_json_obj()),
                      ("str", {"alpha": "1"}), ("dict", {"a": {"0": 1}}),
                      ("mstr", {"matrix": [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, "1", 0],
                                           [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]})):
        files[name] = str(tmp_path / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    def doc(g):
        return canonical_json(element_doc(g)) + "\n"

    def report(*args):
        return canonical_json(run_suite(*args)) + "\n"

    cases = [  # argv, exit code, stdout, numpy loaded afterwards
        (["compose", files["g2"], files["g1"]], 0, doc(compose(g2, g1)), False),
        (["invert", files["g2"]], 0, doc(inverse(g2)), False),
        (["decompose", "--matrix", files["m"]], 0, doc(GroupParams(xl=xl_decompose(m))), False),
        (["decompose", "--matrix", files["outside"]], 3, "", False),
        (["theta", files["g2"]], 0, _matrix_text(theta_numeric(g2)), False),
        (["theta", files["g2"], "--closed"], 0, _matrix_text(theta_closed(g2)), False),
        (["oplus", files["g1"]], 0, _matrix_text(oplus(g1)), False),
        (["oplus", files["g1"], "--csv", "--labels"], 0, _csv_text(oplus(g1)), False),
        (["oplus", files["big"]], 2, "", False),
        (["invert", files["str"]], 2, "", False),
        (["invert", files["dict"]], 2, "", False),
        (["decompose", "--matrix", files["mstr"]], 2, "", False),
        (["check", "--suite", "jacobi", "--trials", "10", "--seed", "3"], 0,
         report("jacobi", 10, 3), False),
        (["check", "--suite", "casimir"], 0, report("casimir", 200, 0), False),
        (["check", "--suite", "jacobi", "--constants", files["table"]], 0,
         report("jacobi", 200, 0, table_from_json_obj(table_to_json_obj())), False),
        (["dump-algebra", "--format", "csv", "--full"], 0, table_to_csv(True), False),
        (["dump-algebra", "--format", "json"], 0,
         canonical_json(table_to_json_obj()) + "\n", False),
        (["check", "--suite", "theta", "--trials", "10", "--seed", "3"], 0,
         report("theta", 10, 3), True),
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
