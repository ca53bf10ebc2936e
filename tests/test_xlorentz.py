import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpoincare.algebra import STRUCTURE_CONSTANTS, casimir_lambda, casimir_mu, exp_ad
from xpoincare.checks import sample_params, suite_group_axioms
from xpoincare.lorentz import DecompositionError, lorentz_decompose, lorentz_matrix, trig_h, trig_s
from xpoincare.poincare import GroupParams, compose, inverse, oplus
from xpoincare.xlorentz import (BFORM, XLParams, _dirac_coefficients, _xl_entries, b_residual,
                                xl_decompose, xl_matrix)

_IDENTITY4 = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
              0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
COSH_HALF_PI = 2.5091784786580567
SINH_HALF_PI = 2.3012989023072947

coords = st.floats(-1.0, 1.0, allow_nan=False)
omega4 = st.tuples(coords, coords, coords, coords).map(np.array)
u3 = st.tuples(coords, coords, coords).map(np.array)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
F_FLOAT = STRUCTURE_CONSTANTS.dense.astype(float)  # f[a, b, c] as floats


def dirac_generator5(omega):
    """Infinitesimal Dirac boost on the (P, Gs) block."""
    omega = np.asarray(omega, dtype=float)
    g = np.zeros((5, 5))
    g[:4, 4] = -omega
    g[4, :4] = -(ETA @ omega)
    return g


def omega_square(omega):
    """q = omega_nu omega^nu under eta = diag(-1, 1, 1, 1)."""
    omega = np.asarray(omega, dtype=float)
    return float(omega @ (ETA @ omega))


def exp_ad_block(omega):
    x = np.zeros(15)
    x[6:10] = omega
    return exp_ad(x)[10:, 10:]


def xl_product(p2, p1):
    """Extended-Lorentz part of the product of two pure-xl elements."""
    return compose(GroupParams(xl=p2), GroupParams(xl=p1)).xl


def trig_direction(rng):
    v = rng.normal(size=3)
    return np.concatenate([[math.sqrt(1.0 + v @ v)], v])  # q = -1


def rand_omega(rng, kind):
    if kind == "trig":
        return trig_direction(rng) * rng.uniform(0.01, 2.5)
    if kind == "hyperbolic":
        t = rng.normal()
        v = rng.normal(size=3)
        v *= math.sqrt(1.0 + t * t) / np.linalg.norm(v)
        return np.concatenate([[t], v]) * rng.uniform(0.01, 2.0)
    v = rng.normal(size=3)
    eps = rng.choice([0.0, 1e-9, -1e-9])
    return np.concatenate([[np.linalg.norm(v) * (1 + eps)], v]) * rng.uniform(0.1, 2.0)


def test_branch_labels():
    # the rejection names the branch of the Gs column by the sign of
    # qv = -v0^2 + v1^2 + v2^2 + v3^2; F W((0.7, 0.7, 0, 0)) has qv = 0 exactly
    assert _dirac_coefficients(2.0, 1.0, 0, 0)[0] == pytest.approx(-3.0)
    M = np.diag([-1.0, 1.0, 1.0, 1.0, -1.0]) @ xl_matrix(XLParams(omega=[0.7, 0.7, 0, 0]))
    v0, v1 = M[:2, 4]
    assert M[4, 4] == -1.0 and -v0 * v0 + v1 * v1 == 0.0
    with pytest.raises(DecompositionError, match="branch 'null'"):
        xl_decompose(M)
    with pytest.raises(DecompositionError, match="branch 'hyperbolic'"):
        xl_decompose(_unreachable_product())


def test_dirac_boost_identity():
    assert np.array_equal(xl_matrix(XLParams(omega=np.zeros(4))), np.eye(5))


def test_dirac_boost_hyperbolic_entries():
    # spatial omega has q > 0 under the mostly-plus metric
    W = xl_matrix(XLParams(omega=[0.0, math.pi / 2, 0.0, 0.0]))
    assert W[4, 4] == pytest.approx(COSH_HALF_PI, abs=1e-14)
    assert W[1, 4] == pytest.approx(-SINH_HALF_PI, abs=1e-14)
    assert W[4, 1] == pytest.approx(-SINH_HALF_PI, abs=1e-14)
    assert np.abs(W - exp_ad_block([0.0, math.pi / 2, 0.0, 0.0])).max() < 1e-12


def test_dirac_boost_trig_entries():
    # temporal omega has q < 0: compact rotation in the (P0, Gs) plane
    W = xl_matrix(XLParams(omega=[1.0, 0.0, 0.0, 0.0]))
    assert W[4, 4] == pytest.approx(math.cos(1.0), abs=1e-14)
    assert W[0, 4] == pytest.approx(-math.sin(1.0), abs=1e-14)
    assert W[4, 0] == pytest.approx(math.sin(1.0), abs=1e-14)
    assert np.abs(W - exp_ad_block([1.0, 0.0, 0.0, 0.0])).max() < 1e-12


def test_dirac_boost_matches_generator_form():
    # reference: W = 1 + s g + h g^2 over the generator matrix
    eps = np.finfo(float).eps
    rng = np.random.default_rng(12)
    for kind in ("trig", "hyperbolic", "null") * 50:
        omega = rand_omega(rng, kind)
        g, q = dirac_generator5(omega), omega_square(omega)
        ref = np.eye(5) + trig_s(q) * g + trig_h(q) * (g @ g)
        W = xl_matrix(XLParams(omega=omega))
        assert np.abs(W - ref).max() < 8 * eps * np.abs(ref).max()


def _mp_factor(mp, name, x):
    """R, L or W from its closed form at the working precision of mp, from
    the exact values of the float64 parameters x."""
    x = [mp.mpf(float(v)) for v in x]
    if name == "L":
        u0 = mp.sqrt(1 + sum(v * v for v in x))
        m = mp.eye(4)
        m[0, 0] = u0
        for i in range(3):
            m[0, i + 1] = m[i + 1, 0] = -x[i]
            for j in range(3):
                m[i + 1, j + 1] += x[i] * x[j] / (1 + u0)
        return m
    if name == "R":  # 1 + s a + h a^2, a = theta . J
        g, q = mp.zeros(4, 4), -sum(v * v for v in x)
        g[1, 2], g[2, 3], g[3, 1] = x[2], x[0], x[1]
        g[2, 1], g[3, 2], g[1, 3] = -x[2], -x[0], -x[1]
    else:  # W: 1 + s g + h g^2, g = dirac_generator5(omega)
        g, q = mp.zeros(5, 5), sum(v * v for v in x[1:]) - x[0] * x[0]
        for i in range(4):
            g[i, 4], g[4, i] = -x[i], (x[i] if i == 0 else -x[i])
    if q == 0:
        s, h = mp.mpf(1), mp.mpf(1) / 2
    else:
        r = mp.sqrt(abs(q))
        c, s = (mp.cosh(r), mp.sinh(r) / r) if q > 0 else (mp.cos(r), mp.sin(r) / r)
        h = (c - 1) / q
    return mp.eye(g.rows) + s * g + h * g * g


def test_dirac_generator_structure():
    g = dirac_generator5([0.5, 0.2, 0, 0])
    assert np.allclose(g[:4, 4], [-0.5, -0.2, 0, 0])
    assert np.allclose(g[4, :4], [0.5, -0.2, 0, 0])  # raised index, eta00 = -1
    assert np.abs(g.T @ BFORM + BFORM @ g).max() == 0


@settings(max_examples=60, deadline=None)
@given(omega4)
def test_dirac_boost_preserves_bform(omega):
    assert b_residual(xl_matrix(XLParams(omega=2.0 * omega))) < 1e-12


def test_embed_identity_and_gs_slot():
    assert np.array_equal(xl_matrix(XLParams()), np.eye(5))
    rng = np.random.default_rng(12)
    for _ in range(20):
        E = xl_matrix(XLParams(u=rng.normal(size=3), theta=rng.normal(size=3)))
        assert E[4, 4] == 1.0
        assert np.abs(E[:4, 4]).max() == 0 and np.abs(E[4, :4]).max() == 0


def test_embed_pure_pi_rotation():
    E = xl_matrix(XLParams(theta=[0.0, 0.0, math.pi]))
    assert np.abs(E[:4, :4] - np.diag([1.0, -1.0, -1.0, 1.0])).max() < 1e-15


def test_xl_matrix_factors():
    assert np.array_equal(xl_matrix(XLParams.identity()), np.eye(5))
    omega = np.array([0.3, 0.1, -0.4, 0.2])
    # u = theta = 0 builds Lambda = 1 exactly, so D is the bare W(omega)
    assert np.array_equal(xl_matrix(XLParams(omega=omega)),
                          np.array(_xl_entries(omega.tolist(), _IDENTITY4)).reshape(5, 5))


@settings(max_examples=60, deadline=None)
@given(omega4, u3)
def test_xl_matrix_preserves_bform(omega, u):
    p = XLParams(0.6 * omega, 0.7 * u, np.array([0.4, -0.2, 0.1]))
    assert b_residual(xl_matrix(p)) < 1e-12


def test_decompose_identity():
    p = xl_decompose(np.eye(5))
    assert np.allclose(p.omega, 0) and np.allclose(p.u, 0) and np.allclose(p.theta, 0)


def test_decompose_roundtrip_random():
    rng = np.random.default_rng(13)
    worst = 0.0
    for kind in ("trig", "hyperbolic", "null") * 150:
        p = XLParams(rand_omega(rng, kind), rng.normal(size=3),
                     rng.normal(size=3) * 0.9)
        M = xl_matrix(p)
        worst = max(worst, np.abs(xl_matrix(xl_decompose(M)) - M).max())
    assert worst < 1e-8


def test_decompose_roundtrip_trig_branch_point():
    rng = np.random.default_rng(14)
    worst = 0.0
    for delta in [0.0, 1e-12, 1e-9, 1e-6, 1e-3]:
        for _ in range(20):
            omega = trig_direction(rng) * (math.pi - delta)
            p = XLParams(omega, rng.normal(size=3) * 0.8, rng.normal(size=3) * 0.5)
            M = xl_matrix(p)
            worst = max(worst, np.abs(xl_matrix(xl_decompose(M)) - M).max())
    assert worst < 1e-8


def test_decompose_noncanonical_trig_aliases():
    # effective angles beyond pi decompose to the canonical representative
    rng = np.random.default_rng(15)
    for _ in range(20):
        omega = trig_direction(rng) * rng.uniform(math.pi + 0.1, 2 * math.pi - 0.1)
        M = xl_matrix(XLParams(omega=omega))
        p = xl_decompose(M)
        assert -omega_square(p.omega) <= math.pi ** 2 + 1e-9
        assert np.abs(xl_matrix(p) - M).max() < 1e-8


@pytest.mark.parametrize("seed", [3, 11])
def test_group_axioms_at_rotation_branch_point_seeds(seed):
    # these seeds draw rotations within 1e-4 of |theta| = pi; dividing by
    # sin|theta| there used to leave xl-factorization-roundtrip at 1e-7
    props, failures = suite_group_axioms(1000, seed)
    assert not failures, failures
    rt = next(p for p in props if p["name"] == "xl-factorization-roundtrip")
    assert rt["max_residual"] < 1e-9


def _unreachable_product():
    # product of a branch-point trig boost and a hyperbolic one can push the
    # (Gs, Gs) entry below -1 (here -2.35), where no W(omega) L R
    # factorization exists
    v = np.array([1.2, 0.3, -0.4])
    n = np.concatenate([[math.sqrt(1.0 + v @ v)], v])
    return (xl_matrix(XLParams(omega=math.pi * n))
            @ xl_matrix(XLParams(omega=[0.0, 1.5, 0.0, 0.0])))


def test_decompose_rejects_outside_reachable_set():
    M = _unreachable_product()
    assert M[4, 4] < -1.0
    assert b_residual(M) < 1e-12
    with pytest.raises(DecompositionError, match="reachable"):
        xl_decompose(M)


def test_decompose_rejects_non_group_input():
    with pytest.raises(DecompositionError, match="B-form"):
        xl_decompose(np.eye(5) * 1.1)
    with pytest.raises(DecompositionError, match=r"M must have shape \(5, 5\), got \(4, 4\)"):
        xl_decompose(np.eye(4))


def test_compose_with_identity():
    rng = np.random.default_rng(16)
    p = XLParams(rand_omega(rng, "trig") * 0.3, rng.normal(size=3) * 0.5,
                 rng.normal(size=3) * 0.5)
    q = xl_product(p, XLParams.identity())
    assert np.abs(xl_matrix(q) - xl_matrix(p)).max() < 1e-10


def test_compose_rotations_add():
    a, b = 0.9, 2.8  # sum exceeds pi: compare matrices, angles add mod 2pi
    p = xl_product(XLParams(theta=np.array([0, 0, a])),
                   XLParams(theta=np.array([0, 0, b])))
    want = np.eye(5)
    want[:4, :4] = lorentz_matrix(np.zeros(3), [0.0, 0.0, a + b])
    assert np.abs(xl_matrix(p) - want).max() < 1e-10


def test_compose_dirac_boosts_same_direction_add():
    rng = np.random.default_rng(17)
    n = trig_direction(rng)
    p = xl_product(XLParams(omega=1.1 * n), XLParams(omega=0.7 * n))
    assert np.abs(xl_matrix(p) - xl_matrix(XLParams(omega=1.8 * n))).max() < 1e-10
    # same along a spatial (hyperbolic) direction
    s = np.array([0.0, 0.6, -0.8, 0.0])
    p = xl_product(XLParams(omega=1.3 * s), XLParams(omega=0.9 * s))
    assert np.abs(xl_matrix(p) - xl_matrix(XLParams(omega=2.2 * s))).max() < 1e-10


def test_matrix_associativity():
    rng = np.random.default_rng(18)
    for _ in range(30):
        ms = [xl_matrix(XLParams(rand_omega(rng, "trig"), rng.normal(size=3),
                                 rng.normal(size=3))) for _ in range(3)]
        assert np.abs((ms[0] @ ms[1]) @ ms[2] - ms[0] @ (ms[1] @ ms[2])).max() < 1e-12


def test_xl_inverse_closed_form():
    rng = np.random.default_rng(19)
    for kind in ("trig", "hyperbolic", "null") * 20:
        p = XLParams(rand_omega(rng, kind), rng.normal(size=3),
                     rng.normal(size=3) * 0.8)
        pi = inverse(GroupParams(xl=p)).xl
        assert np.abs(xl_matrix(pi) @ xl_matrix(p) - np.eye(5)).max() < 1e-10
        assert np.abs(xl_matrix(p) @ xl_matrix(pi) - np.eye(5)).max() < 1e-10


# --- non-finite input, gate reachability, parameter contract -----------------

@pytest.mark.parametrize("entry,value", [
    ((4, 4), np.nan), ((4, 4), np.inf), (..., np.nan), ((0, 4), np.inf),
    ((0, 0), np.nan), ((4, 0), np.nan), ((1, 1), -np.inf)],
    ids=["gs-gs-nan", "gs-gs-inf", "all-nan", "p0-gs-inf", "p0-p0-nan", "gs-p0-nan",
         "p1-p1-neginf"])
def test_decompose_rejects_non_finite(entry, value):
    # NaN used to pass every `res >= tol` gate: diag(1, 1, 1, 1, nan) came back
    # as the identity and other entries escaped as ValueError from XLParams
    M = np.eye(5)
    M[entry] = value
    with np.errstate(invalid="ignore"), pytest.raises(DecompositionError, match="B-form"):
        xl_decompose(M)


@pytest.mark.parametrize("diag,message", [([1, 1, 1, -1, 1], "improper"),
                                          ([-1, -1, 1, 1, 1], "orthochronous")])
def test_decompose_lorentz_gates_are_reachable(diag, message):
    # M preserves B exactly and is block diagonal, so only the det and M^0_0
    # gates of the Lorentz block can reject it: the B-form gate does not imply them
    M = np.diag(np.array(diag, dtype=float))
    assert b_residual(M) == 0.0
    with pytest.raises(DecompositionError, match=message):
        xl_decompose(M)


@pytest.mark.parametrize("name,value", [
    ("omega", [np.nan, 0.0, 0.0, 0.0]), ("omega", [0.0, np.inf, 0.0, 0.0]),
    ("u", [0.0, 0.0, -np.inf]), ("theta", [np.nan] * 3),
    ("omega", np.zeros(3)), ("u", np.zeros((3, 1))), ("theta", 0.0),
    ("omega", [True, 0, 0, 0]), ("u", ["1", "2", "3"]), ("theta", np.array([True, False, True]))])
def test_xlparams_rejects_non_finite_and_wrong_shape(name, value):
    with pytest.raises(ValueError, match=name):
        XLParams(**{name: value})


def test_xlparams_stores_read_only_copies():
    given_ = {"omega": np.array([0.1, 0.2, 0.3, 0.4]),
              "u": np.array([0.5, 0.6, 0.7]), "theta": np.array([0.1, -0.2, 0.3])}
    p = XLParams(**given_)
    for name, v in given_.items():
        stored = getattr(p, name)
        assert not stored.flags.writeable
        with pytest.raises(ValueError):
            stored[0] = 1.0
        before = stored.copy()
        v[:] = 9.0  # the caller's array changes, the parameters do not
        assert np.array_equal(getattr(p, name), before)


# --- both sides of the branch cuts of the decomposition ----------------------
# Inputs a few ulps on each side of each cut, built so that the cut quantity
# is exact: a Gs column (-S e0, C) gives sphi = sqrt(S*S) = S, and a rotation
# about e3 gives w = (0, 0, s) and c exactly.  Bound: the round trip
# xl_matrix(xl_decompose(M)) - M runs about 20 rounded products of at most
# 5 terms over factors bounded by |M|, so about 100 eps |M|^2; k = 128.
# At the trig branch point the cut sphi = 1e-12 costs more, and K_NEAR_PI
# states why.

ROUNDTRIP_K = 128
# sphi = 1e-12: below it the canonical direction replaces a direction known
# to O(sphi) = 4.5e3 eps; k = 2^17 leaves a wide margin (worst seen 826).
K_NEAR_PI = 2.0 ** 17
CUT_ULPS = (1, 2, 4, 16)
EPS = np.finfo(float).eps


def _ulp_sides(x):
    """(side, value) for values CUT_ULPS ulps below (-1) and above (+1) x."""
    out = []
    for k in CUT_ULPS:
        lo, hi = x, x
        for _ in range(k):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [(-1, float(lo)), (1, float(hi))]
    return out


def _roundtrip_in_eps(M):
    res = np.abs(xl_matrix(xl_decompose(M)) - M).max()
    return res / (EPS * max(1.0, np.abs(M).max() ** 2))


def _gs_rotation(S, C, n):
    """Dirac boost along the unit timelike n (eta(n, n) = -1) with Gs column
    (-S n, C), written from the closed form with sin r = S, cos r = C."""
    etan = ETA @ n
    W = np.eye(5)
    W[:4, :4] += (1.0 - C) * np.outer(n, etan)
    W[:4, 4] = -S * n
    W[4, :4] = -S * etan
    W[4, 4] = C
    return W


def _lorentz_right_factors(rng, count):
    yield np.eye(5)
    for _ in range(count):
        yield xl_matrix(XLParams(u=rng.normal(size=3), theta=rng.normal(size=3)))


@pytest.mark.parametrize("cut", [1e-4, 1e-12])
def test_omega_sphi_cuts_both_sides(cut):
    # near pi (C < 0) sphi > 1e-12 divides by the measured sphi and sphi <=
    # 1e-12 takes the canonical direction.  sphi = 1e-4 was the cut of a
    # deleted branch that divided by a sine recomputed from phi and reached
    # 2.8e4 eps |M|^2 just above it; both of its sides now meet ROUNDTRIP_K.
    k = ROUNDTRIP_K if cut == 1e-4 else K_NEAR_PI
    rng = np.random.default_rng(21)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    for side, S in _ulp_sides(cut):
        C = -math.sqrt(1.0 - S * S)
        assert (math.sqrt(S * S) > cut) == (side > 0)
        for n in (e0, trig_direction(rng)):
            for F in _lorentz_right_factors(rng, 5):
                assert _roundtrip_in_eps(_gs_rotation(S, C, n) @ F) < k


def test_omega_phi_cut_both_sides():
    # phi = 2.0 was the cut between two deleted branches; both sides now take
    # the one rule, angle over the measured sine, and must meet ROUNDTRIP_K
    rng = np.random.default_rng(22)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    sides = set()
    for _, phi in _ulp_sides(2.0):
        S, C = math.sin(phi), math.cos(phi)
        sides.add(math.atan2(S, C) < 2.0)
        for n in (e0, trig_direction(rng)):
            for F in _lorentz_right_factors(rng, 5):
                assert _roundtrip_in_eps(_gs_rotation(S, C, n) @ F) < ROUNDTRIP_K
    assert sides == {True, False}


def _omega_recovery_in_eps(omega, rng):
    """Worst round trip (in eps max(1, |M|^2)) and worst relative error of
    the recovered omega, over W(omega) times Lorentz right factors."""
    worst_rt = worst_omega = 0.0
    for F in _lorentz_right_factors(rng, 5):
        M = xl_matrix(XLParams(omega=omega)) @ F
        err = np.abs(xl_decompose(M).omega - omega).max() / np.abs(omega).max()
        worst_rt = max(worst_rt, _roundtrip_in_eps(M))
        worst_omega = max(worst_omega, err / EPS)
    return worst_rt, worst_omega


@pytest.mark.parametrize("offset", [0.0, 1e-9, -1e-9, 1e-12, -1e-12])
def test_omega_null_columns(offset):
    # near-null omega, with the time component offset as in checks.sample_omega;
    # the angle over the measured sine tends to 1 on the null cone from both sides
    rng = np.random.default_rng(24)
    for _ in range(20):
        v = rng.normal(size=3)
        omega = np.concatenate([[np.linalg.norm(v) * (1.0 + offset)], v])
        omega *= rng.uniform(0.1, 2.0)
        rt, rel = _omega_recovery_in_eps(omega, rng)
        assert rt < ROUNDTRIP_K and rel < ROUNDTRIP_K


@pytest.mark.parametrize("size", [1e-9, 1e-8])
@pytest.mark.parametrize("kind", ["hyperbolic", "trig"])
def test_omega_tiny_columns(kind, size):
    # |omega| so small that c(q) rounds to exactly 1.0
    rng = np.random.default_rng(25)
    for _ in range(20):
        omega = rand_omega(rng, kind)
        omega *= size / np.abs(omega).max()
        assert xl_matrix(XLParams(omega=omega))[4, 4] == 1.0
        rt, rel = _omega_recovery_in_eps(omega, rng)
        assert rt < ROUNDTRIP_K and rel < ROUNDTRIP_K


@pytest.mark.parametrize("p, accepted", [
    (XLParams(u=[math.sinh(9.0), 0, 0]), True), (XLParams(u=[math.sinh(10.0), 0, 0]), False),
    (XLParams(omega=[0, 9.0, 0, 0]), True), (XLParams(omega=[0, 10.0, 0, 0]), False)],
    ids=["rapidity-9", "rapidity-10", "omega-9", "omega-10"])
def test_default_gates_pin_the_large_element_edge(p, accepted):
    # B_TOL is absolute while the rounding of M^T B M grows as eps |M|^2, so
    # the default gates reject exact xl_matrix outputs near rapidity or |omega|
    # of 10: B-form residuals 8.1e-10 and 4.5e-9 at 9, 2.9e-8 and 5.1e-8 at 10
    M = xl_matrix(p)
    if accepted:
        assert _roundtrip_in_eps(M) < ROUNDTRIP_K
    else:
        with pytest.raises(DecompositionError, match="B-form residual"):
            xl_decompose(M)


def test_decompose_exact_trig_branch_point():
    # W(pi e0) is exactly diag(-1, 1, 1, 1, -1): its P part is exactly zero
    M = np.diag([-1.0, 1.0, 1.0, 1.0, -1.0])
    p = xl_decompose(M)
    assert np.array_equal(p.omega, [math.pi, 0.0, 0.0, 0.0])
    assert _roundtrip_in_eps(M) < ROUNDTRIP_K


def _rotation5(s, c, axis=None):
    """diag(1, R3, 1), R3 the rotation with sine s and cosine c about the unit
    axis (w = s * axis); about e3 when axis is None, with exact entries."""
    M = np.eye(5)
    if axis is None:
        M[1:3, 1:3] = [[c, s], [-s, c]]
        return M
    x, y, z = axis
    K = np.array([[0.0, z, -y], [-z, 0.0, x], [y, -x, 0.0]])
    M[1:4, 1:4] = c * np.eye(3) + (1.0 - c) * np.outer(axis, axis) + s * K
    return M


@pytest.mark.parametrize("cut", ["s", "c"])
def test_axis_angle_cut_both_sides(cut):
    # the sine branch is taken when c > 0 or s >= 0.5.  On the far side
    # (c < 0) the operative cut is s = 0.5.  c is rounded on the scale of the
    # trace, so its cut is probed at multiples of eps, where the computed c is
    # exact; there s ~ 1 and both sides take the sine branch.
    rng = np.random.default_rng(23)
    if cut == "s":
        draws = [(x, -math.sqrt(1.0 - x * x)) for _, x in _ulp_sides(0.5)]
    else:
        draws = [(math.sqrt(1.0 - x * x), x) for k in CUT_ULPS for x in (-k * EPS, k * EPS)]
    for s, c in draws:
        M = _rotation5(s, c)
        _, theta = lorentz_decompose(M[:4, :4])
        assert theta[2] == pytest.approx(math.atan2(s, c), rel=4 * EPS)
        assert _roundtrip_in_eps(M) < ROUNDTRIP_K
        for axis in rng.normal(size=(5, 3)):
            M = _rotation5(s, c, axis / np.linalg.norm(axis))
            left = xl_matrix(XLParams(omega=rand_omega(rng, "trig") * 0.5,
                                      u=rng.normal(size=3)))
            assert _roundtrip_in_eps(M) < ROUNDTRIP_K
            assert _roundtrip_in_eps(left @ M) < ROUNDTRIP_K


# --- the closed forms xl_matrix, inverse and oplus against independent routes:
# table lookups into outer(D, D) and 40-digit matrix definitions.  Scale of an
# element: max(1, |D|^2 max(1, |t|)), t = (a, alpha).  k = 32.

CLOSED_FORM_K = 32
PIN_TRIG_R = (0.0, 1e-9, 1e-6)       # trig r = pi - these
PIN_THETA = (0.0, 1e-7, 1e-4)        # |theta| = pi - these


def _pinned_draws(rng, count):
    """count elements at each pair of trig r = pi - PIN_TRIG_R and
    |theta| = pi - PIN_THETA."""
    for _ in range(count):
        for dr in PIN_TRIG_R:
            for dt in PIN_THETA:
                axis = rng.normal(size=3)
                xl = XLParams(trig_direction(rng) * (math.pi - dr), rng.normal(size=3),
                              axis / np.linalg.norm(axis) * (math.pi - dt))
                yield GroupParams(rng.normal() * 2.0, rng.normal(size=4) * 2.0, xl)


def _closed_form_draws():
    """4000 narrow and 4000 wide sample_params elements, then 180 pinned ones."""
    rng = np.random.default_rng(41)
    for wide in (False, True):
        for _ in range(4000):
            yield sample_params(rng, wide)
    yield from _pinned_draws(rng, 20)


# G_A, the images of the ten extended-Lorentz generators on the (P, Gs) block
_G5 = F_FLOAT[:10, 10:, 10:]


def _minor_tables():
    """Indices into outer(D, D).ravel() of the two products of each signed
    2x2 minor of the 10x10 block, the sign folded in by their order."""
    support = []
    for G in _G5:
        i, j = (int(x) for x in np.argwhere(G)[0])
        support.append((i, j, G[i, j] * BFORM[i, i]))
    plus, minus = np.empty((2, 10, 10), dtype=np.intp)
    for A, (i, j, sa) in enumerate(support):
        for C, (k, l, sc) in enumerate(support):
            pair = ((5 * i + k) * 25 + 5 * j + l, (5 * i + l) * 25 + 5 * j + k)
            plus[A, C], minus[A, C] = pair if sa * sc > 0 else pair[::-1]
    return plus, minus


def test_oplus_matches_minor_tables_bit_for_bit():
    # the minors of the ten `_generator_row` calls and the (P, Gs) block against an
    # independent route to the same products: table lookups into outer(D, D)
    plus, minus = _minor_tables()
    for g in _closed_form_draws():
        d, o = xl_matrix(g.xl), oplus(g)
        outer = np.outer(d, d).ravel()
        assert o[:10, :10].tobytes() == (outer[plus] - outer[minus]).tobytes()
        assert o[10:, 10:].tobytes() == d.tobytes() and not o[10:, :10].any()


def _mp_element(mp, g):
    """D = W diag(L R, 1) of g at the working precision of mp."""
    e = mp.eye(5)
    e[:4, :4] = _mp_factor(mp, "L", g.xl.u) * _mp_factor(mp, "R", g.xl.theta)
    return _mp_factor(mp, "W", g.xl.omega) * e


@pytest.mark.parametrize("r", [10.0, 20.0])
def test_oplus_adjoint_error_is_eps_d_squared(r):
    # the 10x10 block is differences of products of entries of D, so its
    # absolute error is of order eps |D|^2, not eps |entry|: along
    # omega = (0, r, 0, 0) the (Gam1, Gam1) entry is cosh^2 r - sinh^2 r = 1
    # exactly and reads 24.0 at r = 20.  Oracle: 0.5 <G_C, D^-1 G_A D> at 40
    # digits from the same float64 parameters; k = CLOSED_FORM_K
    mp = pytest.importorskip("mpmath")
    g = GroupParams(xl=XLParams([0.0, r, 0.0, 0.0]))
    got = oplus(g)[:10, :10]
    with mp.workdps(40):
        d = _mp_element(mp, g)
        b = mp.diag([1, -1, -1, -1, 1])
        gens = [mp.matrix(G.tolist()) for G in _G5]
        conj = [b * d.T * b * G * d for G in gens]
        err = max(abs(mp.mpf(float(got[a, c])) - sum(
                      gens[c][i, j] * conj[a][i, j] for i in range(5) for j in range(5)) / 2)
                  for a in range(10) for c in range(10))
        size = max(abs(x) for x in d) ** 2
    assert float(err / size) / EPS <= CLOSED_FORM_K


def test_oplus_preserves_both_casimir_forms():
    # O = oplus(g) is the adjoint action, so O K_lambda O^T = K_lambda on the
    # Lorentz-sector form and O^T K_mu O = K_mu on the translation form.  The
    # error is of order eps |O|^2, as above; measured on these 500 narrow and
    # 500 wide draws: 5.3 eps |O|^2 for K_lambda and 1.8 for K_mu; k = CLOSED_FORM_K
    k_lambda, k_mu = casimir_lambda(), casimir_mu()
    rng = np.random.default_rng(9)
    worst = 0.0
    for wide in [False] * 500 + [True] * 500:
        o = oplus(sample_params(rng, wide))
        size = EPS * max(1.0, np.abs(o).max() ** 2)
        worst = max(worst, np.abs(o @ k_lambda @ o.T - k_lambda).max() / size,
                    np.abs(o.T @ k_mu @ o - k_mu).max() / size)
    assert worst <= CLOSED_FORM_K, worst


# --- xl_decompose over canonical narrow parameters, searched by hypothesis -----
# omega = r n on the trig branch, n unit timelike with spatial part in
# [-2, 2]^3 and r <= 2.5; |u| <= 2; |theta| <= pi.  Every such xl_matrix is
# accepted and rebuilt within ROUNDTRIP_K eps max(1, |M|^2) (the bound of the
# cut tests above).  derandomize=True: the same search on every run,
# whatever the example database holds.

_spatial = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(_spatial, st.sampled_from([-1.0, 1.0]), st.floats(0.0, 2.5), _spatial,
       _spatial, st.floats(0.0, math.pi))
def test_decompose_roundtrip_canonical_narrow(v, sign, r, u, axis, angle):
    v = np.array(v)
    omega = r * np.array([sign * math.sqrt(1.0 + v @ v), *v])
    u = np.array(u)
    u *= min(1.0, 2.0 / max(np.linalg.norm(u), 1e-300))
    axis = np.array(axis)
    theta = axis / np.linalg.norm(axis) * angle if np.linalg.norm(axis) > 1e-9 else np.zeros(3)
    M = xl_matrix(XLParams(omega, u, theta))
    assert _roundtrip_in_eps(M) <= ROUNDTRIP_K
