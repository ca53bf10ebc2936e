import contextlib
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from xpoincare import checks
from xpoincare.algebra import invariance_residual
from xpoincare.cli import ParseError, canonical_json, main, parse_element_obj
from xpoincare.checks import element_doc
from xpoincare.lorentz import lorentz_decompose, lorentz_matrix, metric_residual
from xpoincare.poincare import GroupParams
from xpoincare.xlorentz import XLParams, b_residual, xl_decompose, xl_matrix


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


def test_matrix_900_deep_exits_2_in_a_fresh_process(tmp_path):
    # json reads 900 levels or fails with RecursionError depending on the
    # stack the parser starts on, so this one case runs as a user runs it;
    # the other unreadable documents are rows of tests/test_stdlib.py
    path = tmp_path / "m.json"
    path.write_bytes(b'{"matrix": %s1%s}' % (b"[" * 900, b"]" * 900))
    r = subprocess.run([sys.executable, "-m", "xpoincare.cli", "decompose", "--matrix", str(path)],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout, r.stderr) == \
        (2, "", "error: matrix must be a float array of shape (5, 5)\n")


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


@pytest.mark.parametrize("flag, value, named", [
    ("--trials", "0", "--trials: must be at least 1"),
    ("--trials", "-3", "--trials: must be at least 1"),
    ("--trials", "abc", "--trials: invalid int value: 'abc'"),
    ("--seed", "-1", "--seed: must be at least 0")], ids=["0", "-3", "abc", "seed--1"])
def test_check_rejects_trials_below_one(capsys, flag, value, named):
    # not a row of tests/test_stdlib.py: argparse wraps the usage text it
    # prints above the error at the terminal width (COLUMNS)
    with pytest.raises(SystemExit) as exc:
        main(["check", "--suite", "jacobi", flag, value])
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
