"""How the seeded suites report a sampled property: trial count, worst
residual, and the counterexample of the draw that produced it."""

import numpy as np

from xpoincare import checks
from xpoincare.checks import element_doc
from xpoincare.poincare import GroupParams, compose


def _property(props, failures, name):
    prop = next(p for p in props if p["name"] == name)
    fail = next((f for f in failures if f["property"] == name), None)
    return prop, fail


def test_failure_record_names_the_worst_draw(monkeypatch):
    # offset alpha of every oracle result, by far the most at draw 5; the
    # unpatched routes agree to rounding, so the residual is that offset
    draws = []
    oracle = checks.compose_via_affine

    def offset_oracle(g2, g1):
        g = oracle(g2, g1)
        d = 0.5 if len(draws) == 5 else 1e-3 * (len(draws) + 1)
        draws.append((g2, g1, d))
        return GroupParams(alpha=g.alpha + d, a=g.a, xl=g.xl)

    monkeypatch.setattr(checks, "compose_via_affine", offset_oracle)
    props, failures = checks.suite_group_axioms(12, 0)
    assert len(draws) == 12
    g2, g1, d = draws[5]
    alpha = compose(g2, g1).alpha
    residual = abs((alpha + d) - alpha)
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
