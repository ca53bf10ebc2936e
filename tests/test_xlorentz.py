import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpoincare.algebra import exp_ad
from xpoincare.checks import suite_group_axioms
from xpoincare.lorentz import (DecompositionError, rotation_matrix, trig_h,
                               trig_s)
from xpoincare.poincare import GroupParams, compose, inverse
from xpoincare.xlorentz import (BFORM, XLParams, b_residual, dirac_boost_mat5,
                                dirac_generator5, omega_branch, omega_square,
                                xl_decompose, xl_matrix)

COSH_HALF_PI = 2.5091784786580567
SINH_HALF_PI = 2.3012989023072947

coords = st.floats(-1.0, 1.0, allow_nan=False)
omega4 = st.tuples(coords, coords, coords, coords).map(np.array)
u3 = st.tuples(coords, coords, coords).map(np.array)


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
    assert omega_branch([1.0, 0, 0, 0]) == "trig"        # q = -1
    assert omega_branch([0, 1.0, 0, 0]) == "hyperbolic"  # q = +1
    assert omega_branch([1.0, 1.0, 0, 0]) == "null"
    assert omega_square([2.0, 1.0, 0, 0]) == pytest.approx(-3.0)


def test_dirac_boost_identity():
    assert np.array_equal(dirac_boost_mat5(np.zeros(4)), np.eye(5))


def test_dirac_boost_hyperbolic_entries():
    # spatial omega has q > 0 under the mostly-plus metric
    W = dirac_boost_mat5([0.0, math.pi / 2, 0.0, 0.0])
    assert W[4, 4] == pytest.approx(COSH_HALF_PI, abs=1e-14)
    assert W[1, 4] == pytest.approx(-SINH_HALF_PI, abs=1e-14)
    assert W[4, 1] == pytest.approx(-SINH_HALF_PI, abs=1e-14)
    assert np.abs(W - exp_ad_block([0.0, math.pi / 2, 0.0, 0.0])).max() < 1e-12


def test_dirac_boost_trig_entries():
    # temporal omega has q < 0: compact rotation in the (P0, Gs) plane
    W = dirac_boost_mat5([1.0, 0.0, 0.0, 0.0])
    assert W[4, 4] == pytest.approx(math.cos(1.0), abs=1e-14)
    assert W[0, 4] == pytest.approx(-math.sin(1.0), abs=1e-14)
    assert W[4, 0] == pytest.approx(math.sin(1.0), abs=1e-14)
    assert np.abs(W - exp_ad_block([1.0, 0.0, 0.0, 0.0])).max() < 1e-12


def test_dirac_boost_matches_exp_ad_all_branches():
    rng = np.random.default_rng(11)
    worst = 0.0
    for kind in ("trig", "hyperbolic", "null") * 100:
        omega = rand_omega(rng, kind)
        worst = max(worst, np.abs(
            dirac_boost_mat5(omega) - exp_ad_block(omega)).max())
    assert worst < 1e-10


def test_dirac_boost_matches_generator_form():
    # reference: W = 1 + s g + h g^2 over the generator matrix
    eps = np.finfo(float).eps
    rng = np.random.default_rng(12)
    for kind in ("trig", "hyperbolic", "null") * 50:
        omega = rand_omega(rng, kind)
        g, q = dirac_generator5(omega), omega_square(omega)
        ref = np.eye(5) + trig_s(q) * g + trig_h(q) * (g @ g)
        assert np.abs(dirac_boost_mat5(omega) - ref).max() < 8 * eps * np.abs(ref).max()


def test_dirac_generator_structure():
    g = dirac_generator5([0.5, 0.2, 0, 0])
    assert np.allclose(g[:4, 4], [-0.5, -0.2, 0, 0])
    assert np.allclose(g[4, :4], [0.5, -0.2, 0, 0])  # raised index, eta00 = -1
    assert np.abs(g.T @ BFORM + BFORM @ g).max() == 0


@settings(max_examples=60, deadline=None)
@given(omega4)
def test_dirac_boost_preserves_bform(omega):
    assert b_residual(dirac_boost_mat5(2.0 * omega)) < 1e-12


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
    assert np.array_equal(xl_matrix(XLParams(omega=omega)),
                          dirac_boost_mat5(omega))


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


def test_decompose_rejects_outside_reachable_set():
    # product of a branch-point trig boost and a hyperbolic one can push the
    # (Gs, Gs) entry below -1, where no W(omega) L R factorization exists
    v = np.array([1.2, 0.3, -0.4])
    n = np.concatenate([[math.sqrt(1.0 + v @ v)], v])
    M = dirac_boost_mat5(math.pi * n) @ dirac_boost_mat5([0.0, 1.5, 0.0, 0.0])
    assert M[4, 4] < -1.0
    assert b_residual(M) < 1e-12
    with pytest.raises(DecompositionError, match="reachable"):
        xl_decompose(M)


def test_decompose_rejects_non_group_input():
    with pytest.raises(DecompositionError, match="B-form"):
        xl_decompose(np.eye(5) * 1.1)
    with pytest.raises(DecompositionError, match="5x5"):
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
    want[:4, :4] = rotation_matrix([0.0, 0.0, a + b])
    assert np.abs(xl_matrix(p) - want).max() < 1e-10


def test_compose_dirac_boosts_same_direction_add():
    rng = np.random.default_rng(17)
    n = trig_direction(rng)
    p = xl_product(XLParams(omega=1.1 * n), XLParams(omega=0.7 * n))
    assert np.abs(xl_matrix(p) - dirac_boost_mat5(1.8 * n)).max() < 1e-10
    # same along a spatial (hyperbolic) direction
    s = np.array([0.0, 0.6, -0.8, 0.0])
    p = xl_product(XLParams(omega=1.3 * s), XLParams(omega=0.9 * s))
    assert np.abs(xl_matrix(p) - dirac_boost_mat5(2.2 * s)).max() < 1e-10


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
