"""How the seeded suites report a sampled property: trial count, worst
residual, and the counterexample of the draw that produced it; and, for
each property the acceptance gates read, a perturbation of the library that
the property catches."""

import numpy as np
import pytest

from test_acceptance import CRITERIA
from xpoincare import checks
from xpoincare.algebra import table_from_json_obj, table_to_json_obj
from xpoincare.checks import element_doc
from xpoincare.poincare import GroupParams, compose
from xpoincare.xlorentz import XLParams, xl_matrix


def _property(props, failures, name):
    prop = next(p for p in props if p["name"] == name)
    fail = next((f for f in failures if f["property"] == name), None)
    return prop, fail


def test_failure_record_names_the_worst_draw(monkeypatch):
    # offset alpha of every oracle result, by far the most at draw 5; the
    # residual is read off the offset result the way the suite's aff_dist
    # reads it, since the unpatched routes agree only to rounding
    draws = []
    oracle = checks.compose_via_affine

    def offset_oracle(g2, g1):
        g = oracle(g2, g1)
        d = 0.5 if len(draws) == 5 else 1e-3 * (len(draws) + 1)
        g = GroupParams(alpha=g.alpha + d, a=g.a, xl=g.xl)
        draws.append((g2, g1, g))
        return g

    monkeypatch.setattr(checks, "compose_via_affine", offset_oracle)
    props, failures = checks.suite_group_axioms(12, 0)
    assert len(draws) == 12
    g2, g1, g = draws[5]
    c = compose(g2, g1)
    residual = max(float(np.abs(xl_matrix(c.xl) - xl_matrix(g.xl)).max()),
                   float(np.abs(np.array([*c.a, c.alpha]) - np.array([*g.a, g.alpha])).max()))
    prop, fail = _property(props, failures, "closed-translation-vs-affine-oracle")
    assert prop == {"name": "closed-translation-vs-affine-oracle", "trials": 12,
                    "max_residual": residual, "tolerance": 1e-8, "pass": False}
    assert fail == {"property": "closed-translation-vs-affine-oracle",
                    "residual": residual, "tolerance": 1e-8,
                    "counterexample": [element_doc(g2), element_doc(g1)]}


def test_non_finite_residual_fails(monkeypatch):
    # one NaN oplus matrix, in the second draw of representation-homomorphism
    # (three oplus calls a draw), must fail the property, not be skipped
    calls = []
    true_oplus = checks.oplus

    def nan_once(g):
        calls.append(g)
        m = true_oplus(g)
        return np.full_like(m, np.nan) if len(calls) == 4 else m

    monkeypatch.setattr(checks, "oplus", nan_once)
    props, failures = checks.suite_oplus_hom(10, 0)
    prop, fail = _property(props, failures, "representation-homomorphism")
    assert prop["pass"] is False and prop["trials"] == 10
    assert prop["max_residual"] is None and fail["residual"] is None
    assert len(fail["counterexample"]) == 2
    assert all(p["pass"] for p in props[1:])


def test_run_suite_runs_the_suite_bound_on_the_module(monkeypatch):
    # perfbench/tracer.py rebinds module attributes to time them; run_suite
    # must call what the module holds when it runs
    fake = {"name": "fake", "trials": 1, "max_residual": 0.0, "tolerance": 0.0,
            "pass": True}
    monkeypatch.setattr(checks, "suite_theta", lambda trials, seed: ([dict(fake)], []))
    rep = checks.run_suite("theta", 3, 1)
    assert rep["properties"] == [dict(fake, suite="theta")]
    assert checks.SUITE_NAMES == ("jacobi", "casimir", "oracle", "group-axioms",
                                  "oplus-hom", "theta")


# --- positive controls: each property the acceptance gates read fails when
# the library name it checks, in the namespace of `checks`, is perturbed ----

def _after(change):
    """Replacement of a function: the function, then `change` of its result."""
    return lambda f: lambda *args: change(f(*args))


def _entry_plus(d, at):
    """A copy of a matrix with entry `at` off by d."""
    def change(m):
        m = np.array(m)
        m[at] += d
        return m
    return change


def _alpha_plus(g):
    # a left translation by 1e-6 in alpha, which Dirac boosts mix into a:
    # compose made so is not associative either
    return GroupParams(alpha=g.alpha + 1e-6, a=g.a, xl=g.xl)


def _flipped(a, b, c):
    """The structure constants with the sign of f_ab^c (and its partner) flipped."""
    obj = table_to_json_obj()
    row = next(r for r in obj["entries"] if (r["a"], r["b"], r["c"]) == (a, b, c))
    row["f"] = -row["f"]
    return table_from_json_obj(obj)


# property: (suite, name in checks, replacement of the name's value).  The
# form-preservation offsets stay below the 1e-8 gates of the decompositions,
# which the same suite runs first on the perturbed matrices.
CONTROLS = {
    "jacobi-identity-exact":
        ("jacobi", "STRUCTURE_CONSTANTS", lambda _: _flipped("J1", "J2", "J3")),
    "quadratic-invariant-full-group":
        ("casimir", "STRUCTURE_CONSTANTS", lambda _: _flipped("Gam1", "P1", "Gs")),
    "quadratic-invariant-xl-subgroup":
        ("casimir", "STRUCTURE_CONSTANTS", lambda _: _flipped("J1", "J2", "J3")),
    "dirac-boost-closed-vs-exp-ad": ("oracle", "xl_matrix", _after(_entry_plus(1e-6, (4, 4)))),
    "pure-factors-match-exp-ad": ("oplus-hom", "oplus", _after(_entry_plus(1e-6, (0, 0)))),
    "identity-element": ("group-axioms", "compose", _after(_alpha_plus)),
    "associativity": ("group-axioms", "compose", _after(_alpha_plus)),
    "two-sided-inverse": ("group-axioms", "inverse", _after(_alpha_plus)),
    "xl-factorization-roundtrip": ("group-axioms", "xl_decompose",
                                   _after(lambda p: XLParams(p.omega, p.u + 1e-6, p.theta))),
    "lorentz-factorization-roundtrip": ("group-axioms", "lorentz_decompose",
                                        _after(lambda ut: (ut[0] + 1e-6, ut[1]))),
    "metric-preservation": ("group-axioms", "lorentz_matrix", _after(_entry_plus(1e-10, (0, 0)))),
    "bform-preservation": ("group-axioms", "xl_matrix", _after(_entry_plus(1e-10, (4, 4)))),
    "structure-matrix-identity": ("theta", "theta_numeric", _after(_entry_plus(1e-5, (14, 14)))),
    "closed-entries-match-numeric":
        ("theta", "theta_numeric", _after(_entry_plus(1e-5, (14, 14)))),
}


@pytest.mark.parametrize("name", CONTROLS)
def test_gated_property_fails_under_its_control(monkeypatch, name):
    suite, attr, replace = CONTROLS[name]
    monkeypatch.setattr(checks, attr, replace(getattr(checks, attr)))
    prop = next(p for p in checks.run_suite(suite, 20, 0)["properties"] if p["name"] == name)
    assert prop["pass"] is False, prop


def test_every_gated_property_has_a_control():
    # the two tests at the top of this module are the controls of the
    # oracle and homomorphism properties
    gated = {name for *_, reads in CRITERIA.values() for name in reads}
    assert gated == set(CONTROLS) | {"closed-translation-vs-affine-oracle",
                                     "representation-homomorphism"}
