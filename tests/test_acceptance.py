"""Acceptance suite: ten verification gates, one test per criterion.

Each criterion reads properties of the seeded `check` suites at seed 42 and
1000 trials: the suites are the one implementation of each sampled
property, and `CRITERIA` is the one map from criterion to property.  A
criterion asserts, for each property it reads, the criterion's tolerance, at
least the criterion's trial count, and a pass; and its suite's run time under
the criterion's budget.  Each test prints a single PASS line (visible with
pytest -s).
"""

import subprocess
import sys
import time

import pytest

from xpoincare.checks import SUITE_NAMES, run_suite
from xpoincare.cli import canonical_json

TRIALS = 1000
SEED = 42

# criterion: (label, suite, budget in s, {property: (trials at least, tolerance)})
CRITERIA = {
    1: ("Jacobi identity over 455 triples, exact", "jacobi", 1.0,
        {"jacobi-identity-exact": (455, 0.0)}),
    2: ("Casimir invariance (full group + XL subgroup), exact", "casimir", 1.0,
        {"quadratic-invariant-full-group": (15, 0.0),
         "quadratic-invariant-xl-subgroup": (10, 0.0)}),
    3: ("Dirac-boost closed form vs exp(ad), 3 branches", "oracle", 5.0,
        {"dirac-boost-closed-vs-exp-ad": (1000, 1e-10)}),
    4: ("fundamental representation homomorphism", "oplus-hom", 10.0,
        {"representation-homomorphism": (1000, 1e-8),
         "pure-factors-match-exp-ad": (1000, 1e-10)}),
    5: ("group axioms (identity, associativity, inverse)", "group-axioms", 10.0,
        {"identity-element": (1000, 1e-8), "associativity": (1000, 1e-8),
         "two-sided-inverse": (1000, 1e-8)}),
    6: ("closed translation composition vs affine oracle", "group-axioms", 10.0,
        {"closed-translation-vs-affine-oracle": (1000, 1e-8)}),
    7: ("structure matrices: closed vs finite differences + zeros", "theta", 30.0,
        {"structure-matrix-identity": (1, 1e-6),
         "closed-entries-match-numeric": (100, 1e-6)}),
    8: ("metric and B-form preservation", "group-axioms", 10.0,
        {"metric-preservation": (1000, 1e-12), "bform-preservation": (1000, 1e-12)}),
    9: ("factorization roundtrips incl. branch points", "group-axioms", 30.0,
        {"xl-factorization-roundtrip": (500, 1e-8),
         "lorentz-factorization-roundtrip": (500, 1e-8)}),
}


@pytest.fixture(scope="module")
def suites():
    """Each suite's report at TRIALS and SEED, with its run time in s."""
    runs = {}
    for name in SUITE_NAMES:
        t0 = time.monotonic()
        report = run_suite(name, TRIALS, SEED)
        runs[name] = report, time.monotonic() - t0
    return runs


def _gate(num, suites):
    label, suite, budget, reads = CRITERIA[num]
    report, elapsed = suites[suite]
    props = {p["name"]: p for p in report["properties"]}
    read = []
    for name, (trials, tol) in reads.items():
        p = props[name]
        assert p["tolerance"] == tol, f"criterion {num}: {name} tolerance {p['tolerance']:g}"
        assert p["trials"] >= trials, f"criterion {num}: {name} ran {p['trials']} trials"
        assert p["pass"] is True and p["max_residual"] <= tol, \
            f"criterion {num}: {name} residual {p['max_residual']} > {tol:g}"
        read.append(f"{name} {p['max_residual']:.3e} (tol {tol:g})")
    assert elapsed < budget, f"criterion {num}: {suite} took {elapsed:.2f}s >= {budget}s"
    print(f"ACCEPTANCE {num:2d} PASS  {label}: {', '.join(read)}; "
          f"{suite} {elapsed:.2f}s (budget {budget:g}s)")


def test_criterion_01_jacobi_exact(suites):
    _gate(1, suites)


def test_criterion_02_casimir_invariance(suites):
    _gate(2, suites)


def test_criterion_03_dirac_closed_vs_oracle(suites):
    _gate(3, suites)


def test_criterion_04_oplus_representation(suites):
    _gate(4, suites)


def test_criterion_05_group_axioms(suites):
    _gate(5, suites)


def test_criterion_06_closed_translation_vs_affine_oracle(suites):
    _gate(6, suites)


def test_criterion_07_theta_verification(suites):
    _gate(7, suites)


def test_criterion_08_form_preservation(suites):
    _gate(8, suites)


def test_criterion_09_roundtrip_recovery(suites):
    _gate(9, suites)


def test_criterion_10_cli_determinism(suites):
    # the CLI report in a fresh interpreter equals the in-process reports,
    # joined as run_suite joins them for "all", byte for byte; exit code 0
    # means every property of every suite passed, so no report has failures
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-m", "xpoincare.cli", "check", "--suite", "all",
                          "--trials", str(TRIALS), "--seed", str(SEED)], capture_output=True)
    elapsed = time.monotonic() - t0 + sum(t for _, t in suites.values())
    reports = [r for r, _ in suites.values()]
    joined = {"suite": "all", "trials": TRIALS, "seed": SEED,
              "properties": [p for r in reports for p in r["properties"]],
              "pass": all(r["pass"] for r in reports)}
    assert out.returncode == 0, out.stdout.decode()[-2000:]
    assert out.stdout == (canonical_json(joined) + "\n").encode(), \
        "check output differs from the in-process report"
    assert elapsed < 60.0, f"in-process suites and check-all took {elapsed:.1f}s"
    print(f"ACCEPTANCE 10 PASS  CLI check --suite all --trials {TRIALS} --seed {SEED}: "
          f"byte-identical to the in-process report, {elapsed:.2f}s for both runs")
