"""Seeded property suites behind the command-line `check` command.

Each suite returns a list of property dicts (name, trials, max_residual,
tolerance, pass) plus failure records with counterexample parameters.  All
randomness flows from numpy's PCG64 seeded per suite, so a fixed seed gives a
byte-identical report.

The jacobi and casimir suites run on the integer layer and load no numpy;
the samplers and the four sampled suites import it inside.

Sampling ranges: single-element properties draw |omega| up to 2.5 across all
branches, |u| <= 2, |theta| <= pi.  Properties that compose elements draw
from a smaller ball (|omega| <= 0.5 euclidean, |u| <= 0.6) so that products
stay inside the W L R-factorizable set; leaving it is a correct rejection,
not an error, and is exercised separately by the unit tests.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

from ._names import SUITE_NAMES
from .algebra import (_CASIMIR_LAMBDA, _CASIMIR_MU, GENERATOR_NAMES, STRUCTURE_CONSTANTS,
                      StructureConstants, _invariance_residual, exp_ad, jacobi_check)
from .lorentz import lorentz_decompose, lorentz_matrix, metric_residual, rapidity
from .poincare import (GroupParams, _translation, compose, compose_via_affine,
                       element_doc, inverse, oplus, oplus_pure_factor_vector,
                       theta_claimed_mask, theta_closed, theta_numeric)
from .xlorentz import XLParams, b_residual, xl_decompose, xl_matrix

# --- samplers ---------------------------------------------------------------

def _unit(rng, n):
    import numpy as np
    v = rng.normal(size=n)
    return v / np.linalg.norm(v)


def _ball(rng, n, radius):
    return _unit(rng, n) * radius * rng.uniform() ** (1.0 / n)


def sample_omega(rng, kind: str) -> np.ndarray:
    """omega with a prescribed branch: trig (q<0), hyperbolic (q>0), near-null."""
    import numpy as np
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
    import numpy as np
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
        r = float(max_residual) if math.isfinite(max_residual) else None
        self.properties.append({
            "name": name,
            "trials": int(trials),
            "max_residual": r,
            "tolerance": float(tolerance),
            "pass": ok,
        })
        if not ok:
            rec = {"property": name, "residual": r, "tolerance": float(tolerance)}
            if counterexample is not None:
                rec["counterexample"] = counterexample
            self.failures.append(rec)

    @contextmanager
    def sampled(self, name, tolerance, doc):
        """Record a sampled property when the block exits: each call of the
        yielded _Worst is one trial, and `doc` of the worst draw is its
        counterexample, built only if the property fails.  numpy's
        floating-point warnings are silenced inside: an overflow turns into
        inf or NaN, which fails the property instead of adding lines to
        stderr."""
        import numpy as np
        worst = _Worst()
        with np.errstate(all="ignore"):
            yield worst
        self.record(name, worst.trials, worst.residual, tolerance,
                    None if worst.residual <= tolerance else doc(worst.example))

    def result(self):
        return self.properties, self.failures


class _Worst:
    """Trial count and first strict maximum of a residual, with its example;
    NaN or inf ranks above every finite residual."""

    def __init__(self):
        self.trials, self.rank, self.residual, self.example = 0, 0.0, 0.0, None

    def __call__(self, residual, example):
        self.trials += 1
        rank = residual if math.isfinite(residual) else math.inf
        if rank > self.rank:
            self.rank, self.residual, self.example = rank, residual, example


def _elements_doc(gs) -> list:
    return [element_doc(g) for g in gs]


def _xl_doc(p: XLParams) -> dict:
    return element_doc(GroupParams(xl=p))


def _vectors_doc(vectors: dict) -> dict:
    return {k: [float(x) for x in v] for k, v in vectors.items()}


def _dist(x, y) -> float:
    """max |x - y| over all entries of two arrays."""
    return float(abs(x - y).max())


# --- suites ------------------------------------------------------------------

def suite_jacobi(trials, seed, table: StructureConstants | None = None):
    table = table or STRUCTURE_CONSTANTS
    s = _Suite()
    f = {(a, b, c): v for a, b, c, v in table.rows(both_orders=True)}
    anti = max((abs(v + f.get((b, a, c), 0)) for (a, b, c), v in f.items()), default=0)
    s.record("antisymmetry-exact", 15 * 15, anti, 0)
    rep = jacobi_check(table)
    ce = None
    if rep.violations:
        a, b, c, e, v = rep.violations[0]
        ce = {"triple": [a, b, c], "component": e, "value": v}
    s.record("jacobi-identity-exact", 455, rep.max_violation, 0, ce)
    trans = max((abs(v) for (a, b, c), v in f.items() if a >= 10 and b >= 10), default=0)
    s.record("extended-translations-commute", 25, trans, 0)
    return s.result()


def suite_casimir(trials, seed, table: StructureConstants | None = None):
    table = table or STRUCTURE_CONSTANTS
    s = _Suite()
    res_mu = _invariance_residual(_CASIMIR_MU, table)
    s.record("quadratic-invariant-full-group", 15, max(res_mu), 0, {"per_row": res_mu})
    res_lam = _invariance_residual(_CASIMIR_LAMBDA, table)
    s.record("quadratic-invariant-xl-subgroup", 10, max(res_lam[:10]), 0,
             {"per_row": res_lam})
    # the xl invariant must NOT extend to the translation rows
    broken = 0 if min(res_lam[10:]) >= 1 else 1
    s.record("xl-invariant-breaks-on-translations", 5, broken, 0, {"per_row": res_lam})
    return s.result()


def suite_oracle(trials, seed):
    import numpy as np
    rng = np.random.default_rng([seed, 2])
    s = _Suite()
    kinds = ["trig", "hyperbolic", "null"]

    with s.sampled("dirac-boost-closed-vs-exp-ad", 1e-10, _vectors_doc) as worst:
        for i in range(trials):
            omega = sample_omega(rng, kinds[i % 3])
            x = np.zeros(15)
            x[6:10] = omega
            worst(_dist(exp_ad(x)[10:, 10:], xl_matrix(XLParams(omega=omega))),
                  {"omega": omega})

    with s.sampled("lorentz-embedding-vs-exp-ad", 1e-10, _vectors_doc) as worst:
        for _ in range(max(1, trials // 2)):
            p = XLParams(u=_ball(rng, 3, 2.0))
            x = np.zeros(15)
            x[3:6] = rapidity(p.u)
            worst(_dist(exp_ad(x)[10:, 10:], xl_matrix(p)), {"u": p.u})
            p = XLParams(theta=_unit(rng, 3) * rng.uniform(0, np.pi))
            x = np.zeros(15)
            x[0:3] = p.theta
            worst(_dist(exp_ad(x)[10:, 10:], xl_matrix(p)), {"theta": p.theta})

    with s.sampled("one-parameter-subgroup", 1e-10, _vectors_doc) as worst:
        for _ in range(max(1, trials // 5)):
            x = rng.normal(size=15) * 0.6
            t1, t2 = rng.uniform(-1.5, 1.5, size=2)
            a, b = exp_ad(x, t1), exp_ad(x, t2)
            # the float64 error of the three exponentials grows with their size
            scale = max(1.0, float(np.abs(a).max()) * float(np.abs(b).max()))
            worst(_dist(a @ b, exp_ad(x, t1 + t2)) / scale, {"coefficients": x})

    with s.sampled("exp-ad-unimodular", 1e-10, lambda at: {
            "generator": GENERATOR_NAMES[at[0]], "tau": float(at[1])}) as worst:
        for a in range(15):
            for tau in np.linspace(-2.0, 2.0, 9):
                e = np.zeros(15)
                e[a] = 1.0
                worst(abs(float(np.linalg.det(exp_ad(e, tau))) - 1.0), (a, tau))
    return s.result()


def suite_group_axioms(trials, seed):
    import numpy as np
    rng = np.random.default_rng([seed, 3])
    s = _Suite()
    e = GroupParams.identity()

    def aff_dist(ga, gb):  # = the distance of B D B, since B is a sign matrix
        return max(_dist(xl_matrix(ga.xl), xl_matrix(gb.xl)),
                   _dist(_translation(ga), _translation(gb)))

    with s.sampled("identity-element", 1e-8, element_doc) as worst:
        for _ in range(trials):
            g = sample_params(rng)
            worst(max(aff_dist(compose(e, g), g), aff_dist(compose(g, e), g)), g)

    with s.sampled("associativity", 1e-8, _elements_doc) as worst:
        for _ in range(trials):
            g3, g2, g1 = (sample_params(rng) for _ in range(3))
            worst(aff_dist(compose(compose(g3, g2), g1), compose(g3, compose(g2, g1))),
                  (g3, g2, g1))

    with s.sampled("two-sided-inverse", 1e-8, element_doc) as worst:
        for _ in range(trials):
            g = sample_params(rng)
            gi = inverse(g)
            worst(max(aff_dist(compose(gi, g), e), aff_dist(compose(g, gi), e)), g)

    with s.sampled("closed-translation-vs-affine-oracle", 1e-8, _elements_doc) as worst:
        for _ in range(trials):
            g2, g1 = sample_params(rng), sample_params(rng)
            worst(aff_dist(compose(g2, g1), compose_via_affine(g2, g1)), (g2, g1))

    with s.sampled("xl-factorization-roundtrip", 1e-8, _xl_doc) as worst:
        for i in range(trials):
            p = sample_xl(rng, wide=True)
            if i % 10 == 0:  # trig branch point and its vicinity
                v = rng.normal(size=3)
                n = np.concatenate([[np.sqrt(1.0 + v @ v)], v])
                phi = np.pi - rng.choice([0.0, 1e-9, 1e-6])
                p = XLParams(n * phi, p.u,
                             _unit(rng, 3) * (np.pi - rng.choice([0.0, 1e-7, 1e-4])))
            m = xl_matrix(p)
            worst(_dist(xl_matrix(xl_decompose(m)), m), p)

    with s.sampled("lorentz-factorization-roundtrip", 1e-8, _vectors_doc) as worst:
        for i in range(trials):
            u = _ball(rng, 3, 3.0)
            ang = np.pi - rng.choice([0.0, 1e-9, 1e-5]) if i % 10 == 0 \
                else rng.uniform(0.0, np.pi)
            theta = _unit(rng, 3) * ang
            m = lorentz_matrix(u, theta)
            u2, t2 = lorentz_decompose(m)
            worst(_dist(lorentz_matrix(u2, t2), m), {"u": u, "theta": theta})

    with s.sampled("metric-preservation", 1e-12, _vectors_doc) as worst:
        for _ in range(trials):
            u = _ball(rng, 3, 3.0)
            theta = _unit(rng, 3) * rng.uniform(0.0, np.pi)
            worst(metric_residual(lorentz_matrix(u, theta)), {"u": u, "theta": theta})

    with s.sampled("bform-preservation", 1e-12, _xl_doc) as worst:
        for _ in range(trials):
            # all branches via direction; radius 1.2 keeps the three-factor
            # product rounding comfortably below the strict 1e-12 gate
            # (measured extreme over 2e5 draws: 4e-13)
            p = XLParams(_ball(rng, 4, 1.2), _ball(rng, 3, 1.2),
                         _unit(rng, 3) * rng.uniform(0.0, np.pi))
            worst(b_residual(xl_matrix(p)), p)
    return s.result()


def suite_oplus_hom(trials, seed):
    import numpy as np
    from .xlorentz import BFORM
    rng = np.random.default_rng([seed, 4])
    s = _Suite()

    with s.sampled("representation-homomorphism", 1e-8, _elements_doc) as worst:
        for _ in range(trials):
            g2, g1 = sample_params(rng), sample_params(rng)
            worst(_dist(oplus(compose(g2, g1)), oplus(g2) @ oplus(g1)), (g2, g1))

    with s.sampled("pure-factors-match-exp-ad", 1e-10, element_doc) as worst:
        for _ in range(max(1, trials // 5)):
            g = sample_params(rng, wide=True)
            factors = [GroupParams(alpha=g.alpha), GroupParams(a=g.a),
                       GroupParams(xl=XLParams(omega=g.xl.omega)),
                       GroupParams(xl=XLParams(u=g.xl.u)),
                       GroupParams(xl=XLParams(theta=g.xl.theta))]
            for fac, vec in zip(factors, oplus_pure_factor_vector(g)):
                worst(_dist(oplus(fac), exp_ad(vec)), fac)

    with s.sampled("translation-block-and-form", 1e-10, _xl_doc) as worst:
        for _ in range(max(1, trials // 2)):
            p = sample_xl(rng, wide=True)
            blk = oplus(GroupParams(xl=p))[10:, 10:]
            worst(max(_dist(blk, xl_matrix(p)), _dist(blk.T @ BFORM @ blk, BFORM)), p)
    return s.result()


def suite_theta(trials, seed):
    import numpy as np
    rng = np.random.default_rng([seed, 5])
    s = _Suite()
    mask = theta_claimed_mask()

    tn = theta_numeric(GroupParams.identity())
    s.record("structure-matrix-identity", 1, _dist(tn, np.eye(15)), 1e-6)

    with s.sampled("closed-entries-match-numeric", 1e-6, element_doc) as worst:
        for _ in range(max(1, trials // 10)):
            g = sample_params(rng)
            worst(_dist(theta_closed(g)[mask], theta_numeric(g)[mask]), g)
    return s.result()


def run_suite(name, trials, seed, table: StructureConstants | None = None) -> dict:
    """Run one suite (or 'all') and assemble the deterministic report.  Suite
    `n` is `suite_<n>` looked up on this module at the call, so a suite
    rebound here (as perfbench/tracer.py does) runs; jacobi and casimir read
    `table`."""
    properties, failures = [], []
    for n in SUITE_NAMES if name == "all" else [name]:
        suite = globals()["suite_" + n.replace("-", "_")]
        props, fails = (suite(trials, seed, table=table) if n in ("jacobi", "casimir")
                        else suite(trials, seed))
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
