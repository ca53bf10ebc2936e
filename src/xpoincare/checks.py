"""Seeded property suites behind the command-line `check` command.

Each suite returns a list of property dicts (name, trials, max_residual,
tolerance, pass) plus failure records with counterexample parameters.  All
randomness flows from numpy's PCG64 seeded per suite, so a fixed seed gives a
byte-identical report.

Sampling ranges: single-element properties draw |omega| up to 2.5 across all
branches, |u| <= 2, |theta| <= pi.  Properties that compose elements draw
from a smaller ball (|omega| <= 0.5 euclidean, |u| <= 0.6) so that products
stay inside the W L R-factorizable set; leaving it is a correct rejection,
not an error, and is exercised separately by the unit tests.
"""

from __future__ import annotations

import numpy as np

from .algebra import (GENERATOR_NAMES, STRUCTURE_CONSTANTS, StructureConstants,
                      casimir_lambda, casimir_mu, exp_ad, invariance_residual,
                      jacobi_check)
from .lorentz import lorentz_decompose, lorentz_matrix, metric_residual, rapidity
from .poincare import (GroupParams, _translation, compose, compose_via_affine,
                       inverse, oplus, oplus_pure_factor_vector,
                       theta_claimed_mask, theta_closed, theta_numeric)
from .xlorentz import (BFORM, XLParams, b_residual, dirac_boost_mat5,
                       xl_decompose, xl_matrix)

SUITE_NAMES = ("jacobi", "casimir", "oracle", "group-axioms", "oplus-hom", "theta")


# --- samplers ---------------------------------------------------------------

def _unit(rng, n):
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _ball(rng, n, radius):
    return _unit(rng, n) * radius * rng.uniform() ** (1.0 / n)


def sample_omega(rng, kind: str) -> np.ndarray:
    """omega with a prescribed branch: trig (q<0), hyperbolic (q>0), near-null."""
    if kind == "trig":
        v = rng.normal(size=3)
        n = np.concatenate([[np.sqrt(1.0 + v @ v) * rng.choice([-1.0, 1.0])], v])
        return n * rng.uniform(0.01, 2.5)
    if kind == "hyperbolic":
        t = rng.normal()
        v = _unit(rng, 3) * np.sqrt(1.0 + t * t)
        return np.concatenate([[t], v]) * rng.uniform(0.01, 2.0)
    v = rng.normal(size=3)
    eps = rng.choice([0.0, 1e-9, -1e-9, 1e-12, -1e-12])
    return np.concatenate([[np.linalg.norm(v) * (1.0 + eps)], v]) * rng.uniform(0.1, 2.0)


def sample_xl(rng, wide: bool = True) -> XLParams:
    if wide:
        omega = sample_omega(rng, rng.choice(["trig", "hyperbolic", "null"]))
        u = _ball(rng, 3, 2.0)
    else:
        omega = _ball(rng, 4, 0.5)
        u = _ball(rng, 3, 0.6)
    theta = _unit(rng, 3) * rng.uniform(0.0, np.pi if wide else 3.0)
    return XLParams(omega, u, theta)


def sample_params(rng, wide: bool = False) -> GroupParams:
    return GroupParams(alpha=rng.normal() * 2.0, a=rng.normal(size=4) * 2.0,
                       xl=sample_xl(rng, wide))


# --- report helpers ----------------------------------------------------------

class _Suite:
    def __init__(self):
        self.properties = []
        self.failures = []

    def record(self, name, trials, max_residual, tolerance, counterexample=None):
        ok = bool(max_residual <= tolerance)
        self.properties.append({
            "name": name,
            "trials": int(trials),
            "max_residual": float(max_residual),
            "tolerance": float(tolerance),
            "pass": ok,
        })
        if not ok:
            rec = {"property": name, "residual": float(max_residual),
                   "tolerance": float(tolerance)}
            if counterexample is not None:
                rec["counterexample"] = counterexample
            self.failures.append(rec)

    def result(self):
        return self.properties, self.failures


def _track(worst, residual, example, maker):
    if residual > worst[0]:
        worst[0] = residual
        worst[1] = maker(example) if example is not None else None
    return worst


def element_doc(g: GroupParams) -> dict:
    return {"alpha": float(g.alpha), "a": [float(x) for x in g.a],
            "omega": [float(x) for x in g.xl.omega],
            "u": [float(x) for x in g.xl.u],
            "theta": [float(x) for x in g.xl.theta]}


# --- suites ------------------------------------------------------------------

def suite_jacobi(trials, seed, table: StructureConstants | None = None):
    table = table or STRUCTURE_CONSTANTS
    s = _Suite()
    f = table.dense
    anti = int(np.abs(f + np.swapaxes(f, 0, 1)).max())
    s.record("antisymmetry-exact", 15 * 15, anti, 0)
    rep = jacobi_check(table)
    ce = None
    if rep.violations:
        a, b, c, e, v = rep.violations[0]
        ce = {"triple": [a, b, c], "component": e, "value": v}
    s.record("jacobi-identity-exact", 455, rep.max_violation, 0, ce)
    trans = int(np.abs(f[10:, 10:, :]).max())
    s.record("extended-translations-commute", 25, trans, 0)
    return s.result()


def suite_casimir(trials, seed, table: StructureConstants | None = None):
    table = table or STRUCTURE_CONSTANTS
    s = _Suite()
    res_mu = invariance_residual(casimir_mu(), table)
    s.record("quadratic-invariant-full-group", 15, int(res_mu.max()), 0,
             {"per_row": [int(x) for x in res_mu]})
    res_lam = invariance_residual(casimir_lambda(), table)
    s.record("quadratic-invariant-xl-subgroup", 10, int(res_lam[:10].max()), 0,
             {"per_row": [int(x) for x in res_lam]})
    # the xl invariant must NOT extend to the translation rows
    broken = 0 if int(res_lam[10:].min()) >= 1 else 1
    s.record("xl-invariant-breaks-on-translations", 5, broken, 0,
             {"per_row": [int(x) for x in res_lam]})
    return s.result()


def suite_oracle(trials, seed):
    rng = np.random.default_rng([seed, 2])
    s = _Suite()
    kinds = ["trig", "hyperbolic", "null"]

    worst = [0.0, None]
    for i in range(trials):
        omega = sample_omega(rng, kinds[i % 3])
        x = np.zeros(15)
        x[6:10] = omega
        r = float(np.abs(exp_ad(x)[10:, 10:] - dirac_boost_mat5(omega)).max())
        _track(worst, r, omega, lambda w: {"omega": [float(v) for v in w]})
    s.record("dirac-boost-closed-vs-exp-ad", trials, worst[0], 1e-10, worst[1])

    worst = [0.0, None]
    for _ in range(max(1, trials // 2)):
        p = XLParams(u=_ball(rng, 3, 2.0))
        x = np.zeros(15)
        x[3:6] = rapidity(p.u)
        r = float(np.abs(exp_ad(x)[10:, 10:] - xl_matrix(p)).max())
        _track(worst, r, p.u, lambda u: {"u": [float(v) for v in u]})
        p = XLParams(theta=_unit(rng, 3) * rng.uniform(0, np.pi))
        x = np.zeros(15)
        x[0:3] = p.theta
        r = float(np.abs(exp_ad(x)[10:, 10:] - xl_matrix(p)).max())
        _track(worst, r, p.theta, lambda t: {"theta": [float(v) for v in t]})
    s.record("lorentz-embedding-vs-exp-ad", 2 * max(1, trials // 2),
             worst[0], 1e-10, worst[1])

    worst = [0.0, None]
    n_sub = max(1, trials // 5)
    for _ in range(n_sub):
        x = rng.normal(size=15) * 0.6
        t1, t2 = rng.uniform(-1.5, 1.5, size=2)
        a, b = exp_ad(x, t1), exp_ad(x, t2)
        # the float64 error of the three exponentials grows with their size
        scale = max(1.0, float(np.abs(a).max()) * float(np.abs(b).max()))
        r = float(np.abs(a @ b - exp_ad(x, t1 + t2)).max()) / scale
        _track(worst, r, x, lambda v: {"coefficients": [float(c) for c in v]})
    s.record("one-parameter-subgroup", n_sub, worst[0], 1e-10, worst[1])

    worst = [0.0, None]
    for a in range(15):
        for tau in np.linspace(-2.0, 2.0, 9):
            e = np.zeros(15)
            e[a] = 1.0
            r = abs(float(np.linalg.det(exp_ad(e, tau))) - 1.0)
            _track(worst, r, (a, tau),
                   lambda at: {"generator": GENERATOR_NAMES[at[0]], "tau": float(at[1])})
    s.record("exp-ad-unimodular", 15 * 9, worst[0], 1e-10, worst[1])
    return s.result()


def suite_group_axioms(trials, seed):
    rng = np.random.default_rng([seed, 3])
    s = _Suite()
    e = GroupParams.identity()

    def aff_dist(ga, gb):  # = the distance of B D B, since B is a sign matrix
        return max(float(np.abs(xl_matrix(ga.xl) - xl_matrix(gb.xl)).max()),
                   float(np.abs(_translation(ga) - _translation(gb)).max()))

    worst = [0.0, None]
    for _ in range(trials):
        g = sample_params(rng)
        r = max(aff_dist(compose(e, g), g), aff_dist(compose(g, e), g))
        _track(worst, r, g, element_doc)
    s.record("identity-element", trials, worst[0], 1e-8, worst[1])

    worst = [0.0, None]
    for _ in range(trials):
        g3, g2, g1 = (sample_params(rng) for _ in range(3))
        r = aff_dist(compose(compose(g3, g2), g1), compose(g3, compose(g2, g1)))
        _track(worst, r, (g3, g2, g1),
               lambda gs: [element_doc(x) for x in gs])
    s.record("associativity", trials, worst[0], 1e-8, worst[1])

    worst = [0.0, None]
    for _ in range(trials):
        g = sample_params(rng)
        gi = inverse(g)
        r = max(aff_dist(compose(gi, g), e), aff_dist(compose(g, gi), e))
        _track(worst, r, g, element_doc)
    s.record("two-sided-inverse", trials, worst[0], 1e-8, worst[1])

    worst = [0.0, None]
    for _ in range(trials):
        g2, g1 = sample_params(rng), sample_params(rng)
        r = aff_dist(compose(g2, g1), compose_via_affine(g2, g1))
        _track(worst, r, (g2, g1), lambda gs: [element_doc(x) for x in gs])
    s.record("closed-translation-vs-affine-oracle", trials, worst[0], 1e-8, worst[1])

    worst = [0.0, None]
    for i in range(trials):
        p = sample_xl(rng, wide=True)
        if i % 10 == 0:  # trig branch point and its vicinity
            v = rng.normal(size=3)
            n = np.concatenate([[np.sqrt(1.0 + v @ v)], v])
            phi = np.pi - rng.choice([0.0, 1e-9, 1e-6])
            p = XLParams(n * phi, p.u, _unit(rng, 3) * (np.pi - rng.choice([0.0, 1e-7, 1e-4])))
        m = xl_matrix(p)
        r = float(np.abs(xl_matrix(xl_decompose(m)) - m).max())
        _track(worst, r, p, lambda q: element_doc(GroupParams(xl=q)))
    s.record("xl-factorization-roundtrip", trials, worst[0], 1e-8, worst[1])

    worst = [0.0, None]
    for i in range(trials):
        u = _ball(rng, 3, 3.0)
        ang = np.pi - rng.choice([0.0, 1e-9, 1e-5]) if i % 10 == 0 \
            else rng.uniform(0.0, np.pi)
        theta = _unit(rng, 3) * ang
        m = lorentz_matrix(u, theta)
        u2, t2 = lorentz_decompose(m)
        r = float(np.abs(lorentz_matrix(u2, t2) - m).max())
        _track(worst, r, (u, theta),
               lambda ut: {"u": [float(x) for x in ut[0]],
                           "theta": [float(x) for x in ut[1]]})
    s.record("lorentz-factorization-roundtrip", trials, worst[0], 1e-8, worst[1])

    worst = [0.0, None]
    for _ in range(trials):
        u = _ball(rng, 3, 3.0)
        theta = _unit(rng, 3) * rng.uniform(0.0, np.pi)
        r = metric_residual(lorentz_matrix(u, theta))
        _track(worst, r, (u, theta),
               lambda ut: {"u": [float(x) for x in ut[0]],
                           "theta": [float(x) for x in ut[1]]})
    s.record("metric-preservation", trials, worst[0], 1e-12, worst[1])

    worst = [0.0, None]
    for _ in range(trials):
        # all branches via direction; radius 1.2 keeps the three-factor
        # product rounding comfortably below the strict 1e-12 gate
        # (measured extreme over 2e5 draws: 4e-13)
        p = XLParams(_ball(rng, 4, 1.2), _ball(rng, 3, 1.2),
                     _unit(rng, 3) * rng.uniform(0.0, np.pi))
        r = b_residual(xl_matrix(p))
        _track(worst, r, p, lambda q: element_doc(GroupParams(xl=q)))
    s.record("bform-preservation", trials, worst[0], 1e-12, worst[1])
    return s.result()


def suite_oplus_hom(trials, seed):
    rng = np.random.default_rng([seed, 4])
    s = _Suite()

    worst = [0.0, None]
    for _ in range(trials):
        g2, g1 = sample_params(rng), sample_params(rng)
        r = float(np.abs(oplus(compose(g2, g1)) - oplus(g2) @ oplus(g1)).max())
        _track(worst, r, (g2, g1), lambda gs: [element_doc(x) for x in gs])
    s.record("representation-homomorphism", trials, worst[0], 1e-8, worst[1])

    worst = [0.0, None]
    for _ in range(max(1, trials // 5)):
        g = sample_params(rng, wide=True)
        factors = [GroupParams(alpha=g.alpha), GroupParams(a=g.a),
                   GroupParams(xl=XLParams(omega=g.xl.omega)),
                   GroupParams(xl=XLParams(u=g.xl.u)),
                   GroupParams(xl=XLParams(theta=g.xl.theta))]
        for fac, vec in zip(factors, oplus_pure_factor_vector(g)):
            r = float(np.abs(oplus(fac) - exp_ad(vec)).max())
            _track(worst, r, fac, element_doc)
    s.record("pure-factors-match-exp-ad", 5 * max(1, trials // 5),
             worst[0], 1e-10, worst[1])

    worst = [0.0, None]
    for _ in range(max(1, trials // 2)):
        p = sample_xl(rng, wide=True)
        blk = oplus(GroupParams(xl=p))[10:, 10:]
        r = max(float(np.abs(blk - xl_matrix(p)).max()),
                float(np.abs(blk.T @ BFORM @ blk - BFORM).max()))
        _track(worst, r, p, lambda q: element_doc(GroupParams(xl=q)))
    s.record("translation-block-and-form", max(1, trials // 2),
             worst[0], 1e-10, worst[1])
    return s.result()


def suite_theta(trials, seed):
    rng = np.random.default_rng([seed, 5])
    s = _Suite()
    mask = theta_claimed_mask()

    tn = theta_numeric(GroupParams.identity())
    s.record("structure-matrix-identity", 1,
             float(np.abs(tn - np.eye(15)).max()), 1e-6)

    n = max(1, trials // 10)
    worst = [0.0, None]
    for _ in range(n):
        g = sample_params(rng)
        r = float(np.abs((theta_closed(g) - theta_numeric(g))[mask]).max())
        _track(worst, r, g, element_doc)
    s.record("closed-entries-match-numeric", n, worst[0], 1e-6, worst[1])
    return s.result()


def run_suite(name, trials, seed, table: StructureConstants | None = None) -> dict:
    """Run one suite (or 'all') and assemble the deterministic report."""
    table_suites = {"jacobi": suite_jacobi, "casimir": suite_casimir}
    plain_suites = {"oracle": suite_oracle, "group-axioms": suite_group_axioms,
                    "oplus-hom": suite_oplus_hom, "theta": suite_theta}
    names = list(SUITE_NAMES) if name == "all" else [name]
    properties, failures = [], []
    for n in names:
        if n in table_suites:
            props, fails = table_suites[n](trials, seed, table)
        else:
            props, fails = plain_suites[n](trials, seed)
        for p in props:
            p["suite"] = n
        properties.extend(props)
        failures.extend(fails)
    report = {
        "suite": name,
        "trials": int(trials),
        "seed": int(seed),
        "properties": properties,
        "pass": all(p["pass"] for p in properties),
    }
    if failures:
        report["failures"] = failures
    return report
