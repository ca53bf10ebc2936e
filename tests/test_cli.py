import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from xpoincare import checks
from xpoincare.algebra import invariance_residual, table_to_json_obj
from xpoincare.cli import ParseError, canonical_json, main, parse_element_obj
from xpoincare.checks import element_doc
from xpoincare.lorentz import lorentz_decompose, lorentz_matrix, metric_residual
from xpoincare.poincare import GroupParams
from xpoincare.xlorentz import XLParams, b_residual, xl_decompose, xl_matrix


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "xpoincare.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def test_parse_defaults_and_roundtrip():
    g = parse_element_obj({"alpha": 1.5})
    assert g.alpha == 1.5 and np.allclose(g.a, 0)
    doc = element_doc(g)
    assert doc == {"alpha": 1.5, "a": [0, 0, 0, 0], "omega": [0, 0, 0, 0],
                   "u": [0, 0, 0], "theta": [0, 0, 0]}
    g2 = parse_element_obj(json.loads(canonical_json(doc)))
    assert element_doc(g2) == doc
    assert canonical_json({}) == "{}" and canonical_json([]) == "[]"
    with pytest.raises(TypeError):
        canonical_json(object())
    with pytest.raises(ValueError):
        canonical_json(float("inf"))


@pytest.mark.parametrize("doc", [
    {"alpha": float("nan")},
    {"a": [1, 2, 3]},
    {"u": [1, 2, "x"]},
    {"beta": [0, 0, 0]},
    {"theta": [0, 0, float("inf")]},
    [1, 2, 3],
])
def test_parse_rejections(doc):
    with pytest.raises(ParseError):
        parse_element_obj(doc)


_numbers = st.one_of(st.floats(), st.integers(), st.integers(2 ** 1024, 2 ** 1100),
                     st.integers(-2 ** 1100, -2 ** 1024))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.text(max_size=3), _numbers),
    lambda kids: st.one_of(st.lists(kids, max_size=5),
                           st.dictionaries(st.text(max_size=3), kids, max_size=3)),
    max_leaves=12)
_element_docs = st.dictionaries(
    st.sampled_from(["alpha", "a", "omega", "u", "theta"]) | st.text(max_size=3),
    st.one_of(_numbers, st.lists(_numbers, max_size=5), _json_values), max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_json_values, _element_docs))
def test_parse_element_obj_returns_params_or_parse_error(obj):
    # arbitrary JSON values: nested lists and dicts, ints beyond 2^1024,
    # bools, strings, NaN/inf and wrong lengths; nothing but a finite
    # GroupParams or a ParseError comes out
    try:
        g = parse_element_obj(obj)
    except ParseError:
        return
    assert isinstance(g, GroupParams)
    assert np.isfinite(g.alpha) and all(
        np.isfinite(v).all() for v in (g.a, g.xl.omega, g.xl.u, g.xl.theta))


_BIG = "1" + "0" * 399  # a 400-digit JSON integer, beyond the float range


@pytest.mark.parametrize("text,field", [
    ('{"alpha": %s}' % _BIG, "alpha"), ('{"a": [%s, 0, 0, 0]}' % _BIG, "a"),
    ('{"u": [0, -%s, 0]}' % _BIG, "u"), ('{"alpha": true}', "alpha"),
    ('{"theta": [0, false, 0]}', "theta"), ('{"alpha": "1"}', "alpha"),
    ('{"omega": [0, 0, "1", 0]}', "omega"), ('{"alpha": NaN}', "alpha"),
    ('{"a": [0, 0, Infinity, 0]}', "a"), ('{"omega": [0, 0, 0]}', "omega"),
    ('{"theta": [0, 0, 0, 0]}', "theta"), ('{"u": [[0], [0], [0]]}', "u"),
    ('{"a": {"0": 1}}', "a")], ids=lambda v: v.replace(_BIG, "1e399"))
def test_malformed_element_exits_2_naming_the_field(tmp_path, capsys, text, field):
    path = tmp_path / "e.json"
    path.write_text(text)
    assert main(["invert", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


def _matrix_text(entry):
    rows = [["1" if i == j else "0" for j in range(5)] for i in range(5)]
    rows[2][3] = entry
    return "[%s]" % ", ".join("[%s]" % ", ".join(r) for r in rows)


_MATRICES = {
    "big-int": _matrix_text(_BIG), "string": _matrix_text('"1"'),
    "true": _matrix_text("true"), "nan": _matrix_text("NaN"),
    "neg-inf": _matrix_text("-Infinity"), "nested": _matrix_text("[1]"),
    "null": _matrix_text("null"), "2x2": "[[1, 0], [0, 1]]",
    "ragged": "[%s, [1, 1, 1, 1]]" % ", ".join(["[1, 1, 1, 1, 1]"] * 4),
    "flat": "[1, 2, 3, 4, 5]", "empty": "[]", "not-a-list": '"eye"'}


@pytest.mark.parametrize("matrix", list(_MATRICES.values()), ids=list(_MATRICES))
def test_malformed_matrix_exits_2_naming_the_field(tmp_path, capsys, matrix):
    path = tmp_path / "m.json"
    path.write_text('{"matrix": %s}' % matrix)
    assert main(["decompose", "--matrix", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "matrix" in err


@pytest.mark.parametrize("data, message", [
    (b'{"matrix": %s1%s}' % (b"[" * 900, b"]" * 900),
     "matrix must be a float array of shape (5, 5)"),
    (b"[" * 100000 + b"]" * 100000, "cannot read {path}: "),
    (b'{"matrix": "\xff"}', "cannot read {path}: ")],
    ids=["matrix-900-deep", "document-100000-deep", "not-utf-8"])
def test_unreadable_matrix_document_exits_2(tmp_path, data, message):
    # a fresh process, as a user runs it: the depth json parses depends on
    # the stack the parser starts on
    path = tmp_path / "m.json"
    path.write_bytes(data)
    r = run_cli(["decompose", "--matrix", str(path)])
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
    assert message.format(path=path) in r.stderr


def test_decompose_rejects_unknown_fields(tmp_path, capsys):
    # as element documents do: exit 2, one error line naming the fields
    eye = [[float(i == j) for j in range(5)] for i in range(5)]
    path = write_json(tmp_path / "m.json", {"matrix": eye, "omega": [1, 2, 3, 4]})
    assert main(["decompose", "--matrix", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: unknown matrix document fields: ['omega']\n"


# --- contract fuzzing of the input edges ---------------------------------------
# Derandomised: the same examples on every run.  A failing example is a fault
# of the reader, not of the strategy.

_cells = st.one_of(st.floats(-3.0, 3.0), _numbers, st.booleans(), st.none(),
                   st.text(max_size=2), st.lists(_numbers, max_size=2))


def _scaled(v, scale):
    return [x * scale for x in v]


def _finite(n):
    """Finite n-vectors at three scales: inside the chart, near its edge, and
    where W(omega) and oplus overflow float64."""
    return st.builds(_scaled, st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n),
                     st.sampled_from([1.0, 10.0, 1e4]))


def _any_vector(n):
    return st.one_of(_finite(n), st.lists(_cells, min_size=n, max_size=n), _json_values)


def _fields(alpha, vector):
    return {"alpha": alpha, "a": vector(4), "omega": vector(4), "u": vector(3),
            "theta": vector(3)}


_cli_elements = st.one_of(st.fixed_dictionaries(_fields(st.floats(-3.0, 3.0), _finite)),
                          st.fixed_dictionaries({}, optional=_fields(_cells, _any_vector)),
                          _element_docs, _json_values)


def _with_cell(base, k, cell):
    """The entries of the vector or matrix `base` as lists, with entry k,
    row by row, replaced by `cell`."""
    rows = base.tolist()
    if base.ndim == 1:
        rows[k] = cell
    else:
        rows[k // base.shape[1]][k % base.shape[1]] = cell
    return rows


_XL_BASES = (np.eye(5), xl_matrix(XLParams([0.3, 0.1, -0.4, 0.2], [0.4, -0.3, 0.2],
                                           [0.5, 0.6, -0.7])))
_cli_matrices = st.one_of(
    st.sampled_from(_XL_BASES).map(np.ndarray.tolist),
    st.builds(_with_cell, st.sampled_from(_XL_BASES), st.integers(0, 24), _cells),
    st.lists(st.lists(_cells, min_size=5, max_size=5), min_size=5, max_size=5),
    _json_values)

def _finite_json(text):
    """The parsed text; NaN and infinities are rejected."""
    def reject(name):
        raise AssertionError(f"non-finite {name} in output")
    return json.loads(text, parse_constant=reject)


def _leaves(x):
    """The values of a parsed JSON document that are not lists or objects."""
    if isinstance(x, dict):
        x = list(x.values())
    return [y for v in x for y in _leaves(v)] if isinstance(x, list) else [x]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=st.sampled_from(["invert", "compose", "oplus", "theta", "decompose"]),
       docs=st.lists(_cli_elements, min_size=2, max_size=2), matrix=_cli_matrices)
@example(name="invert", docs=[{"omega": [0.0, 800.0, 0.0, 0.0]}] * 2, matrix=None)  # overflow
@example(name="decompose", docs=[{}] * 2, matrix=(2 * np.eye(5)).tolist())  # unreachable
def test_cli_contract_on_malformed_documents(tmp_path_factory, name, docs, matrix):
    # every run exits 0, 2 or 3; a rejection is one stderr line and no
    # traceback (an exception escaping main fails the test); exit 0 prints
    # finite numbers, and null only for the unclaimed entries of theta --closed
    folder = tmp_path_factory.mktemp("contract")
    if name == "decompose":
        argv = ["decompose", "--matrix", write_json(folder / "m.json", {"matrix": matrix})]
    else:
        docs = docs if name == "compose" else docs[:1]
        argv = [name] + [write_json(folder / f"{i}.json", d) for i, d in enumerate(docs)]
        argv += ["--closed"] if name == "theta" else []
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
        return
    assert err == ""
    assert all(type(x) in (int, float) or (x is None and name == "theta")
               for x in _leaves(_finite_json(out)))


_lib_scalars = st.one_of(
    st.floats(-2.0, 2.0), _numbers, st.booleans(), st.none(), st.text(max_size=2),
    st.fractions(), st.integers(10 ** 400, 10 ** 410),
    st.floats().map(np.float64), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.sampled_from([np.bool_(True), np.float32(1.5), np.uint8(3), np.complex128(1j)]))


def _array_forms(rows):
    """rows as nested lists, as an object array and, when numpy converts
    it, as a float array."""
    forms = [rows, np.array(rows, dtype=object)]
    try:
        forms.append(np.array(rows, dtype=float))
    except (TypeError, ValueError, OverflowError):
        pass
    return st.sampled_from(forms)


def _lib_arrays(base):
    """Values for an argument of the shape of `base`: base with one entry
    replaced, in each of its array forms, and values of any other shape."""
    rows = st.builds(_with_cell, st.just(base), st.integers(0, base.size - 1), _lib_scalars)
    return st.one_of(rows.flatmap(_array_forms), _lib_scalars, _json_values,
                     st.lists(_lib_scalars, max_size=4))


_Z3 = np.zeros(3)
_LIBRARY = (
    (lambda x: GroupParams(alpha=x), _lib_scalars | _json_values),
    (lambda x: GroupParams(a=x), _lib_arrays(np.zeros(4))),
    (lambda x: GroupParams(xl=x), _lib_scalars),
    (lambda x: XLParams(omega=x), _lib_arrays(np.zeros(4))),
    (lambda x: XLParams(u=x), _lib_arrays(_Z3)),
    (lambda x: XLParams(theta=x), _lib_arrays(_Z3)),
    (lambda x: lorentz_matrix(x, _Z3), _lib_arrays(_Z3)),
    (lambda x: lorentz_matrix(_Z3, x), _lib_arrays(_Z3)),
    (xl_decompose, _lib_arrays(_XL_BASES[1])),
    (b_residual, _lib_arrays(_XL_BASES[1])),
    (lorentz_decompose, _lib_arrays(lorentz_matrix([0.4, -0.3, 0.2], [0.5, 0.6, -0.7]))),
    (metric_residual, _lib_arrays(np.eye(4))),
    (invariance_residual, _lib_arrays(np.eye(15, dtype=np.int64))))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(case=st.sampled_from(range(len(_LIBRARY))), data=st.data())
def test_library_entry_points_raise_only_value_or_overflow_errors(case, data):
    # the entry points that read outside values: numbers, ints beyond 10^400,
    # Fractions, numpy scalars, object arrays, bools, strings, None and wrong
    # shapes either read or raise ValueError (DecompositionError included) or
    # OverflowError, with a one-line message
    call, values = _LIBRARY[case]
    try:
        call(data.draw(values))
    except (ValueError, OverflowError) as exc:
        assert str(exc) and "\n" not in str(exc), repr(exc)


def test_compose_command(tmp_path):
    e2 = write_json(tmp_path / "e2.json", {"a": [1, 0, 0, 0], "alpha": 2.0})
    e1 = write_json(tmp_path / "e1.json", {"a": [0, 1, 0, 0], "alpha": -0.5})
    r = run_cli(["compose", e2, e1])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["a"] == [1, 1, 0, 0] and out["alpha"] == 1.5


def test_compose_all_zero(tmp_path):
    z = write_json(tmp_path / "z.json", {})
    r = run_cli(["compose", z, z])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out == {"alpha": 0, "a": [0, 0, 0, 0], "omega": [0, 0, 0, 0],
                   "u": [0, 0, 0], "theta": [0, 0, 0]}


def test_compose_with_inverse_is_zero(tmp_path):
    doc = {"alpha": 0.7, "a": [1.0, -0.5, 2.0, 0.25],
           "omega": [0.1, 0.2, -0.1, 0.05], "u": [0.2, -0.1, 0.3],
           "theta": [0.4, 0.1, -0.2]}
    e = write_json(tmp_path / "e.json", doc)
    r = run_cli(["invert", e])
    assert r.returncode == 0
    ei = write_json(tmp_path / "ei.json", json.loads(r.stdout))
    r = run_cli(["compose", ei, e])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    for key in ("a", "omega", "u", "theta"):
        assert np.abs(out[key]).max() < 1e-10
    assert abs(out["alpha"]) < 1e-10


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = run_cli(["invert", str(bad)])
    assert r.returncode == 2
    assert "line" in r.stderr
    missing_field = write_json(tmp_path / "m.json", {"a": [1, 2]})
    r = run_cli(["invert", missing_field])
    assert r.returncode == 2


def test_overflowing_element_exit_code(tmp_path):
    # cosh(1000) overflows float64: an error, not a matrix of non-finite entries
    big = write_json(tmp_path / "big.json", {"omega": [0, 1000, 0, 0]})
    for command in ("oplus", "invert"):
        r = run_cli([command, big])
        assert r.returncode == 2 and "error" in r.stderr
    # at r = 400 W is finite, but the 2x2 minors of the adjoint block read
    # inf - inf where the exact value cosh^2 - sinh^2 is 1
    big = write_json(tmp_path / "big.json", {"omega": [0, 400, 0, 0]})
    r = run_cli(["oplus", big])
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: oplus entry (Gam1, Gam1) overflows float64\n"


@pytest.mark.parametrize("command, field, factor", [
    pytest.param(command, field, factor, id=command + suffix)
    for field, factor, suffix in (("omega", "W(omega)", ""), ("u", "L(u)", "-u"))
    for command in ("invert", "oplus", "compose")])
def test_overflowing_factor_exits_2_naming_omega(tmp_path, capsys, command, field, factor):
    # sinh(800) and sqrt(1 + |u|^2) at |u| = 1e155 are beyond float64: one
    # `error:` line naming the field and the cause
    value = [0, 800, 0, 0] if field == "omega" else [1e155, 0, 0]
    path = write_json(tmp_path / "e.json", {field: value})
    args = [command, path, path] if command == "compose" else [command, path]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ") and err.count("\n") == 1
    assert f"{factor} overflows float64" in err


def test_overflowing_product_prints_one_error_line(tmp_path, capsys):
    # W(omega) is finite at r = 460 but D2 D1 overflows to inf and NaN; the
    # B-form gate rejects it with one line, and no warning (an error under
    # this suite's filter) reaches stderr
    path = write_json(tmp_path / "e.json", {"omega": [0, 460, 0, 0]})
    assert main(["compose", path, path]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: B-form residual nan") and err.count("\n") == 1


def test_oplus_command(tmp_path):
    z = write_json(tmp_path / "z.json", {})
    r = run_cli(["oplus", z])
    assert r.returncode == 0
    m = np.array(json.loads(r.stdout)["matrix"])
    assert np.array_equal(m, np.eye(15))
    e = write_json(tmp_path / "e.json", {"a": [0, 0, 5, 0]})
    r = run_cli(["oplus", e, "--labels"])
    out = json.loads(r.stdout)
    assert out["labels"][8] == "Gam2" and out["labels"][14] == "Gs"
    assert out["matrix"][8][14] == 5.0


def test_oplus_csv(tmp_path):
    z = write_json(tmp_path / "z.json", {})
    r = run_cli(["oplus", z, "--csv", "--labels"])
    lines = r.stdout.strip().split("\n")
    assert len(lines) == 16
    assert lines[0].split(",")[1] == "J1"
    assert lines[1].split(",")[0] == "J1"


def test_theta_command(tmp_path):
    z = write_json(tmp_path / "z.json", {})
    r = run_cli(["theta", z])
    assert r.returncode == 0
    m = np.array(json.loads(r.stdout)["matrix"])
    assert np.abs(m - np.eye(15)).max() < 1e-6
    r = run_cli(["theta", z, "--closed"])
    rows = json.loads(r.stdout)["matrix"]
    assert rows[0][0] is None          # unclaimed block prints as null
    assert rows[14][14] == 1.0


def test_theta_closed_csv(tmp_path):
    # an unclaimed entry prints as an empty cell, a claimed one as its
    # 17-digit float with -0.0 as 0; a negative alpha gives signed zeros
    from xpoincare.algebra import GENERATOR_NAMES
    from xpoincare.poincare import theta_claimed_mask, theta_closed
    g = checks.sample_params(np.random.default_rng(35))
    g = GroupParams(alpha=-abs(g.alpha), a=g.a, xl=g.xl)
    f = write_json(tmp_path / "e.json", element_doc(g))
    r = run_cli(["theta", f, "--closed", "--csv", "--labels"])
    assert r.returncode == 0
    lines = r.stdout.splitlines()
    assert len(lines) == 16
    assert lines[0].split(",") == ["", *GENERATOR_NAMES]
    tc, mask = theta_closed(g), theta_claimed_mask()
    for i, line in enumerate(lines[1:]):
        name, *cells = line.split(",")
        assert name == GENERATOR_NAMES[i] and len(cells) == 15
        if i < 10:
            assert cells[:10] == [""] * 10
        assert [c for c, m in zip(cells, mask[i]) if m] == \
            [format(float(x) + 0.0, ".17g") for x in tc[i][mask[i]]]


def test_decompose_command(tmp_path):
    w = xl_matrix(XLParams(omega=[0.3, 0.2, 0.0, 0.1]))
    f = write_json(tmp_path / "m.json", {"matrix": [[float(x) for x in r] for r in w]})
    r = run_cli(["decompose", "--matrix", f])
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert np.allclose(out["omega"], [0.3, 0.2, 0.0, 0.1], atol=1e-9)
    assert np.abs(out["u"]).max() < 1e-9


def test_decompose_unreachable_exit_code(tmp_path):
    v = np.array([1.2, 0.3, -0.4])
    n = np.concatenate([[np.sqrt(1 + v @ v)], v])
    m = xl_matrix(XLParams(omega=np.pi * n)) @ xl_matrix(XLParams(omega=[0.0, 1.5, 0.0, 0.0]))
    f = write_json(tmp_path / "m.json", {"matrix": [[float(x) for x in r] for r in m]})
    r = run_cli(["decompose", "--matrix", f])
    assert r.returncode == 3
    assert "reachable" in r.stderr


def test_decompose_bad_shape(tmp_path):
    f = write_json(tmp_path / "m.json", {"matrix": [[1, 0], [0, 1]]})
    assert run_cli(["decompose", "--matrix", f]).returncode == 2


def test_check_accepts_pristine_constants_file(tmp_path):
    r = run_cli(["dump-algebra", "--format", "json"])
    f = tmp_path / "table.json"
    f.write_text(r.stdout)
    r = run_cli(["check", "--suite", "jacobi", "--constants", str(f)])
    assert r.returncode == 0
    assert json.loads(r.stdout)["pass"] is True


def test_check_corrupted_constants_fails(tmp_path):
    r = run_cli(["dump-algebra", "--format", "json"])
    table = json.loads(r.stdout)
    for row in table["entries"]:
        if (row["a"], row["b"], row["c"]) == ("J1", "J2", "J3"):
            row["f"] = -1
    f = write_json(tmp_path / "bad.json", table)
    r = run_cli(["check", "--suite", "jacobi", "--constants", f])
    assert r.returncode == 4
    rep = json.loads(r.stdout)
    assert rep["pass"] is False
    fail = next(x for x in rep["failures"] if x["property"] == "jacobi-identity-exact")
    assert fail["counterexample"]["triple"] == ["J1", "J2", "K1"]


def _table_with(**change):
    table = table_to_json_obj()
    table["entries"][0].update(change)
    return table


@pytest.mark.parametrize("table, named", [
    ({"order": []}, "entries"), ([], "entries"), ({"entries": [1]}, "1"),
    (_table_with(a="J9"), "J9"), (_table_with(c=["J1"]), "J1"),
    (_table_with(f=True), "True"), (_table_with(f=1.0), "1.0"),
    (_table_with(f=2), "2"), (_table_with(b="J1"), "diagonal entry")],
    ids=["no-entries", "top-level-list", "entry-not-object", "unknown-generator",
         "generator-not-string", "f-bool", "f-float", "f-out-of-range", "diagonal-entry"])
def test_malformed_constants_exit_2_naming_the_entry(tmp_path, capsys, table, named):
    path = write_json(tmp_path / "table.json", table)
    assert main(["check", "--suite", "jacobi", "--constants", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and named in err


@pytest.mark.parametrize("trials, named", [
    ("0", "--trials: must be at least 1"), ("-3", "--trials: must be at least 1"),
    ("abc", "invalid int value: 'abc'")], ids=["0", "-3", "abc"])
def test_check_rejects_trials_below_one(capsys, trials, named):
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "jacobi", "--trials", trials])
    assert exc.value.code == 2
    assert named in capsys.readouterr().err


def test_check_prints_non_finite_residual_as_null(monkeypatch, capsys):
    # the first oplus call of the suite is oplus(g2 g1) of the first draw:
    # an inf there makes representation-homomorphism read inf, a failure
    true_oplus = checks.oplus
    calls = []

    def inf_once(g):
        calls.append(g)
        m = true_oplus(g)
        return np.full_like(m, np.inf) if len(calls) == 1 else m

    monkeypatch.setattr(checks, "oplus", inf_once)
    assert main(["check", "--suite", "oplus-hom", "--trials", "10"]) == 4
    out, err = capsys.readouterr()
    assert err == ""
    rep = json.loads(out)
    assert rep["pass"] is False
    assert rep["properties"][0]["max_residual"] is None
    assert rep["failures"][0]["property"] == "representation-homomorphism"
    assert rep["failures"][0]["residual"] is None


def test_dump_algebra_rows():
    r = run_cli(["dump-algebra", "--format", "csv"])
    lines = r.stdout.strip().split("\n")
    assert lines[0] == "a,b,c,f"
    rows = [tuple(line.split(",")) for line in lines[1:]]
    assert len(rows) == 50
    assert ("Gam1", "P1", "Gs", "-1") in rows
    translation = {"P0", "P1", "P2", "P3", "Gs"}
    assert not any(a in translation and b in translation for a, b, _, _ in rows)
    r = run_cli(["dump-algebra", "--format", "csv", "--full"])
    assert len(r.stdout.strip().split("\n")) == 101


def test_main_returns_int(tmp_path):
    z = write_json(tmp_path / "z.json", {})
    assert main(["invert", str(z)]) == 0
