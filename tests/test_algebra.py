import ast
import itertools
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
                               table_from_json_obj, table_to_json_obj)
import xpoincare
from xpoincare.checks import run_suite, suite_oracle


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


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
def test_invariance_residual_reads_int_entries_exactly(dtype):
    # 2**53 + 1 has no float; read through a float it was 2**53
    k = np.zeros((15, 15), dtype=dtype)
    k[0, 0] = 2**53 + 1
    assert invariance_residual(k)[1] == 2**53 + 1
    assert invariance_residual(k).tolist() == \
        _invariance_oracle(STRUCTURE_CONSTANTS.dense, k.astype(np.int64))


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
    # adjoint_of reads a float64 copy of the table: the bytes of the
    # einsum on the int64 table, at scales 1e-5 to 1e5
    rng = np.random.default_rng(16)
    for x in rng.normal(size=(500, 15)) * 10.0 ** rng.integers(-5, 6, size=(500, 1)):
        want = np.einsum("a,ars->rs", x, STRUCTURE_CONSTANTS.dense)
        assert adjoint_of(x).tobytes() == want.tobytes()


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
    assert set(xpoincare.__all__) <= set(dir(xpoincare))
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


# tests/test_stdlib.py holds the one table of the commands that load no
# numpy.  Run in a fresh interpreter where importing numpy fails, its tests
# pass, and the positive control, a sampled suite of check, fails
_NUMPY_BLOCKED = """
import sys, unittest
sys.modules["numpy"] = None
from xpoincare import cli
result = unittest.main(module="test_stdlib", exit=False).result
try:
    cli.main(["check", "--suite", "theta", "--trials", "1"])
except ModuleNotFoundError:
    sys.exit(not result.wasSuccessful())
sys.exit("check --suite theta ran with numpy blocked")
"""


def test_numpy_free_commands_run_with_numpy_blocked():
    src = os.path.dirname(os.path.dirname(xpoincare.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    proc = subprocess.run([sys.executable, "-c", _NUMPY_BLOCKED], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])})
    assert proc.returncode == 0, proc.stderr


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
