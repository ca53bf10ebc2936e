"""Acceptance suite: ten verification gates, one test per criterion.

Each test prints a single PASS line (visible with pytest -s) and enforces the
stated tolerance and runtime budget.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from xpoincare.algebra import (casimir_lambda, casimir_mu, exp_ad,
                               invariance_residual, jacobi_check)
from xpoincare.checks import _algebra_vector, sample_omega, sample_params, sample_xl
from xpoincare.lorentz import lorentz_decompose, lorentz_matrix, metric_residual
from xpoincare.poincare import (GroupParams, _translation, compose,
                                compose_via_affine, inverse, oplus, theta_claimed_mask,
                                theta_closed, theta_numeric)
from xpoincare.xlorentz import XLParams, b_residual, xl_decompose, xl_matrix

TRIALS = 1000
SEED = 42


def _report(num, label, residual, tol, elapsed, budget):
    assert residual <= tol, f"criterion {num}: {residual:.3e} > {tol:g}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s >= {budget}s"
    print(f"ACCEPTANCE {num:2d} PASS  {label}: residual {residual:.3e} "
          f"(tol {tol:g}), {elapsed:.2f}s")


def _aff_dist(g2, g1):
    # = the distance of the affine forms (B D B, t): B is a sign matrix
    return max(float(np.abs(xl_matrix(g2.xl) - xl_matrix(g1.xl)).max()),
               float(np.abs(_translation(g2) - _translation(g1)).max()))


def test_criterion_01_jacobi_exact():
    t0 = time.monotonic()
    rep = jacobi_check()
    _report(1, "Jacobi identity over 455 triples, exact",
            rep.max_violation, 0, time.monotonic() - t0, 1.0)


def test_criterion_02_casimir_invariance():
    t0 = time.monotonic()
    res_mu = int(invariance_residual(casimir_mu()).max())
    res_lam_xl = int(invariance_residual(casimir_lambda())[:10].max())
    _report(2, "Casimir invariance (full group + XL subgroup), exact",
            max(res_mu, res_lam_xl), 0, time.monotonic() - t0, 1.0)


def test_criterion_03_dirac_closed_vs_oracle():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    kinds = ["trig", "hyperbolic", "null"]
    worst = 0.0
    for i in range(TRIALS):
        omega = sample_omega(rng, kinds[i % 3])
        x = np.zeros(15)
        x[6:10] = omega
        worst = max(worst, float(np.abs(
            exp_ad(x)[10:, 10:] - xl_matrix(XLParams(omega=omega))).max()))
    _report(3, "Dirac-boost closed form vs exp(ad), 1000 omegas, 3 branches",
            worst, 1e-10, time.monotonic() - t0, 5.0)


def test_criterion_04_oplus_representation():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst_hom = 0.0
    for _ in range(TRIALS):
        g2, g1 = sample_params(rng), sample_params(rng)
        worst_hom = max(worst_hom, float(np.abs(
            oplus(compose(g2, g1)) - oplus(g2) @ oplus(g1)).max()))
    worst_fac = 0.0
    for _ in range(TRIALS // 5):
        g = sample_params(rng, wide=True)
        factors = [GroupParams(alpha=g.alpha), GroupParams(a=g.a),
                   GroupParams(xl=XLParams(omega=g.xl.omega)),
                   GroupParams(xl=XLParams(u=g.xl.u)),
                   GroupParams(xl=XLParams(theta=g.xl.theta))]
        for fac in factors:
            worst_fac = max(worst_fac,
                            float(np.abs(oplus(fac) - exp_ad(_algebra_vector(fac))).max()))
    elapsed = time.monotonic() - t0
    assert worst_fac <= 1e-10, f"pure factors vs exp(ad): {worst_fac:.3e}"
    _report(4, "fundamental representation homomorphism, 1000 pairs",
            worst_hom, 1e-8, elapsed, 10.0)


def test_criterion_05_group_axioms():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    e = GroupParams.identity()
    worst = 0.0
    for _ in range(TRIALS):
        g = sample_params(rng)
        worst = max(worst, _aff_dist(compose(e, g), g), _aff_dist(compose(g, e), g))
        gi = inverse(g)
        worst = max(worst, _aff_dist(compose(gi, g), e), _aff_dist(compose(g, gi), e))
    for _ in range(TRIALS):
        g3, g2, g1 = (sample_params(rng) for _ in range(3))
        worst = max(worst, _aff_dist(compose(compose(g3, g2), g1),
                                     compose(g3, compose(g2, g1))))
    _report(5, "group axioms (identity, associativity, inverse), 1000 draws",
            worst, 1e-8, time.monotonic() - t0, 10.0)


def test_criterion_06_closed_translation_vs_affine_oracle():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(TRIALS):
        g2, g1 = sample_params(rng), sample_params(rng)
        worst = max(worst, _aff_dist(compose(g2, g1), compose_via_affine(g2, g1)))
    _report(6, "closed translation composition vs affine oracle, 1000 pairs",
            worst, 1e-8, time.monotonic() - t0, 10.0)


def test_criterion_07_theta_verification():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    mask = theta_claimed_mask()
    worst = float(np.abs(theta_numeric(GroupParams.identity()) - np.eye(15)).max())
    for _ in range(100):
        g = sample_params(rng)
        tn = theta_numeric(g)
        worst = max(worst, float(np.abs((theta_closed(g) - tn)[mask]).max()))
    _report(7, "structure matrices: closed vs finite differences + zeros",
            worst, 1e-6, time.monotonic() - t0, 30.0)


def test_criterion_08_form_preservation():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(TRIALS):
        u = rng.normal(size=3)
        u *= rng.uniform(0, 3.0) / np.linalg.norm(u)
        ax = rng.normal(size=3)
        theta = ax / np.linalg.norm(ax) * rng.uniform(0, math.pi)
        worst = max(worst, metric_residual(lorentz_matrix(u, theta)))
        w = rng.normal(size=4)
        w *= rng.uniform(0, 1.2) / np.linalg.norm(w)
        u2 = rng.normal(size=3)
        u2 *= rng.uniform(0, 1.2) / np.linalg.norm(u2)
        worst = max(worst, b_residual(xl_matrix(XLParams(w, u2, theta))))
    _report(8, "metric and B-form preservation, 1000 draws",
            worst, 1e-12, time.monotonic() - t0, 10.0)


def test_criterion_09_roundtrip_recovery():
    rng = np.random.default_rng(SEED)
    t0 = time.monotonic()
    worst = 0.0
    for i in range(TRIALS // 2):
        p = sample_xl(rng, wide=True)
        if i % 5 == 0:   # trig branch point
            v = rng.normal(size=3)
            n = np.concatenate([[np.sqrt(1.0 + v @ v)], v])
            phi = math.pi - rng.choice([0.0, 1e-9, 1e-6])
            p = XLParams(n * phi, p.u, p.theta)
        m = xl_matrix(p)
        worst = max(worst, float(np.abs(xl_matrix(xl_decompose(m)) - m).max()))
    for i in range(TRIALS // 2):
        u = rng.normal(size=3)
        u *= rng.uniform(0, 3.0) / np.linalg.norm(u)
        ang = math.pi - rng.choice([0.0, 1e-9, 1e-6]) if i % 5 == 0 \
            else rng.uniform(0, math.pi)
        ax = rng.normal(size=3)
        theta = ax / np.linalg.norm(ax) * ang
        m = lorentz_matrix(u, theta)
        u2, t2 = lorentz_decompose(m)
        worst = max(worst, float(np.abs(lorentz_matrix(u2, t2) - m).max()))
    _report(9, "factorization roundtrips incl. branch points, 1000 draws",
            worst, 1e-8, time.monotonic() - t0, 30.0)


def test_criterion_10_cli_determinism():
    t0 = time.monotonic()
    args = [sys.executable, "-m", "xpoincare.cli", "check", "--suite", "all",
            "--trials", str(TRIALS), "--seed", str(SEED)]
    first = subprocess.run(args, capture_output=True)
    second = subprocess.run(args, capture_output=True)
    elapsed = time.monotonic() - t0
    assert first.returncode == 0, first.stdout.decode()[-2000:]
    assert first.stdout == second.stdout, "check output not byte-identical"
    report = json.loads(first.stdout)
    assert report["pass"] is True
    assert elapsed < 60.0, f"two check-all runs took {elapsed:.1f}s"
    print(f"ACCEPTANCE 10 PASS  CLI check --suite all --trials {TRIALS} "
          f"--seed {SEED}: byte-identical, {elapsed:.2f}s for two runs")
