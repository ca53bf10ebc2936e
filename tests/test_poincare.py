import dataclasses
import math
import pickle

import numpy as np
import pytest

from xpoincare.algebra import exp_ad
from xpoincare.checks import sample_params
from xpoincare.lorentz import DecompositionError
from xpoincare.poincare import (GroupParams, _translation, compose,
                                compose_via_affine, inverse, oplus,
                                oplus_pure_factor_vector, params_to_vector,
                                theta_claimed_mask, theta_closed, theta_numeric,
                                vector_to_params)
from xpoincare.xlorentz import BFORM, XLParams, xl_matrix

COSH_HALF_PI = 2.5091784786580567
SINH_HALF_PI = 2.3012989023072947


def sample(rng, scale=0.5):
    omega = rng.normal(size=4)
    omega *= scale * rng.uniform() / np.linalg.norm(omega)
    u = rng.normal(size=3)
    u *= 0.6 * rng.uniform() / np.linalg.norm(u)
    theta = rng.normal(size=3)
    theta *= rng.uniform(0, 2.5) / np.linalg.norm(theta)
    return GroupParams(alpha=rng.normal(), a=rng.normal(size=4),
                       xl=XLParams(omega, u, theta))


def aff_dist(g2, g1):
    # = the distance of the affine forms (B D B, t): B is a sign matrix
    return max(np.abs(xl_matrix(g2.xl) - xl_matrix(g1.xl)).max(),
               np.abs(_translation(g2) - _translation(g1)).max())


def test_parameter_vector_roundtrip():
    rng = np.random.default_rng(20)
    g = sample(rng)
    v = params_to_vector(g)
    assert v.shape == (15,)
    assert aff_dist(vector_to_params(v), g) == 0


def test_affine_identity_and_pure_translation():
    e = GroupParams.identity()
    assert np.array_equal(BFORM @ xl_matrix(e.xl) @ BFORM, np.eye(5))
    assert np.array_equal(_translation(e), np.zeros(5))
    g = GroupParams(alpha=2.5, a=np.array([1.0, -2.0, 3.0, 0.5]))
    assert np.array_equal(BFORM @ xl_matrix(g.xl) @ BFORM, np.eye(5))
    assert np.array_equal(_translation(g), [1.0, -2.0, 3.0, 0.5, 2.5])


def test_affine_roundtrip():
    rng = np.random.default_rng(21)
    e = GroupParams.identity()
    for _ in range(30):
        g = sample(rng)
        assert aff_dist(compose_via_affine(g, e), g) < 1e-8
        assert aff_dist(compose_via_affine(e, g), g) < 1e-8


def test_compose_via_affine_propagates_rejection():
    # (Gs, Gs) entry of the product: cos(2.5) cosh(1) = -1.24, below -1
    g2 = GroupParams(xl=XLParams(omega=[2.5, 0, 0, 0]))
    g1 = GroupParams(xl=XLParams(omega=[0, 0, 0, 1.0]))
    with pytest.raises(DecompositionError, match="outside the reachable set"):
        compose_via_affine(g2, g1)


def test_both_routes_reject_an_overflowing_product():
    # each D is finite (sinh 460 ~ 1e199), their product is not
    g = GroupParams(xl=XLParams(omega=[0, 460, 0, 0]))
    for route in (compose, compose_via_affine):
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DecompositionError):
            route(g, g)


def test_compose_identity_both_sides():
    rng = np.random.default_rng(22)
    e = GroupParams.identity()
    for _ in range(10):
        g = sample(rng)
        assert aff_dist(compose(e, g), g) < 1e-12
        assert aff_dist(compose(g, e), g) < 1e-12


def test_compose_translations_add():
    g2 = GroupParams(alpha=1.5, a=np.array([1.0, 2.0, 3.0, 4.0]))
    g1 = GroupParams(alpha=-0.5, a=np.array([0.5, -1.0, 0.0, 2.0]))
    c = compose(g2, g1)
    assert c.alpha == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(c.a, [1.5, 1.0, 3.0, 6.0], atol=1e-15)
    assert np.allclose(params_to_vector(c)[:10], 0)


def test_compose_dirac_boost_on_scalar_translation():
    # pure hyperbolic Dirac boost acting on a pure scalar translation mixes
    # alpha into the matching spacetime slot through the boost column
    g2 = GroupParams(xl=XLParams(omega=np.array([0.0, math.pi / 2, 0.0, 0.0])))
    g1 = GroupParams(alpha=1.0)
    c = compose(g2, g1)
    assert c.alpha == pytest.approx(COSH_HALF_PI, abs=1e-14)
    assert np.allclose(c.a, [0.0, SINH_HALF_PI, 0.0, 0.0], atol=1e-14)
    assert aff_dist(c, compose_via_affine(g2, g1)) < 1e-14


def test_compose_closed_equals_affine_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        g2, g1 = sample(rng), sample(rng)
        assert aff_dist(compose(g2, g1), compose_via_affine(g2, g1)) < 1e-10


def test_compose_closed_equals_affine_oracle_wide():
    # wide draws cover the trig, hyperbolic and null branches, and some
    # products leave the chart: both routes must reject together
    rng = np.random.default_rng(26)
    rejected = 0
    for _ in range(1000):
        g2, g1 = sample_params(rng, wide=True), sample_params(rng, wide=True)
        routes = []
        for route in (compose, compose_via_affine):
            try:
                routes.append(route(g2, g1))
            except DecompositionError:
                routes.append(None)
        c, ref = routes
        assert (c is None) == (ref is None)
        if c is None:
            rejected += 1
            continue
        m = np.abs(xl_matrix(g2.xl) @ xl_matrix(g1.xl)).max()
        assert aff_dist(c, ref) <= 1e-10 * max(1.0, m * m)
    assert 0 < rejected < 1000


def test_compose_associativity():
    rng = np.random.default_rng(24)
    for _ in range(100):
        g3, g2, g1 = sample(rng), sample(rng), sample(rng)
        assert aff_dist(compose(compose(g3, g2), g1),
                        compose(g3, compose(g2, g1))) < 1e-8


def test_compose_propagates_factorization_failure():
    # the product of a branch-point trig boost and a large hyperbolic one
    # leaves the canonical chart; compose must reject, not approximate
    v = np.array([1.2, 0.3, -0.4])
    n = np.concatenate([[math.sqrt(1.0 + v @ v)], v])
    g2 = GroupParams(xl=XLParams(omega=math.pi * n))
    g1 = GroupParams(xl=XLParams(omega=np.array([0.0, 1.5, 0.0, 0.0])))
    with pytest.raises(DecompositionError, match="reachable"):
        compose(g2, g1)


def test_inverse_pure_cases():
    gi = inverse(GroupParams(alpha=2.0))
    assert gi.alpha == pytest.approx(-2.0, abs=1e-15)
    assert np.allclose(params_to_vector(gi)[:14], 0)
    theta = np.array([0.3, -0.4, 0.2])
    gi = inverse(GroupParams(xl=XLParams(theta=theta)))
    assert np.allclose(gi.xl.theta, -theta, atol=1e-15)
    assert gi.alpha == 0 and np.allclose(gi.a, 0)


def test_inverse_two_sided():
    rng = np.random.default_rng(25)
    e = GroupParams.identity()
    for _ in range(100):
        g = sample(rng)
        gi = inverse(g)
        assert aff_dist(compose(gi, g), e) < 1e-8
        assert aff_dist(compose(g, gi), e) < 1e-8


def test_oplus_identity():
    assert np.array_equal(oplus(GroupParams.identity()), np.eye(15))


def test_oplus_gs_entry_for_pure_lorentz():
    rng = np.random.default_rng(26)
    for _ in range(10):
        g = GroupParams(xl=XLParams(u=rng.normal(size=3), theta=rng.normal(size=3)))
        assert oplus(g)[14, 14] == 1.0


def test_oplus_translation_extras():
    O = oplus(GroupParams(alpha=2.0))
    # entry(Gam1, P1) = alpha * eta^{11} = +2 in the mostly-plus metric
    assert O[7, 11] == pytest.approx(2.0, abs=1e-15)
    assert O[6, 10] == pytest.approx(-2.0, abs=1e-15)  # eta^{00} = -1
    O = oplus(GroupParams(a=np.array([0.0, 0.0, 5.0, 0.0])))
    assert O[8, 14] == pytest.approx(5.0, abs=1e-15)   # entry(Gam2, Gs) = a^2


def test_oplus_pure_factors_match_exp_ad():
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(30):
        g = sample(rng, scale=2.0)
        factors = [GroupParams(alpha=g.alpha), GroupParams(a=g.a),
                   GroupParams(xl=XLParams(omega=g.xl.omega)),
                   GroupParams(xl=XLParams(u=g.xl.u)),
                   GroupParams(xl=XLParams(theta=g.xl.theta))]
        for fac, vec in zip(factors, oplus_pure_factor_vector(g)):
            worst = max(worst, np.abs(oplus(fac) - exp_ad(vec)).max())
    assert worst < 1e-10


def test_oplus_is_translation_factor_times_xl_block():
    # oplus writes the product of the translation factor and the block-diagonal
    # extended-Lorentz factor directly; compare with the 15x15 product
    rng = np.random.default_rng(32)
    for _ in range(30):
        g = sample(rng, scale=2.0)
        ref = oplus(GroupParams(alpha=g.alpha, a=g.a)) @ oplus(GroupParams(xl=g.xl))
        assert np.abs(oplus(g) - ref).max() < 8 * np.finfo(float).eps * np.abs(ref).max()


def test_oplus_homomorphism():
    rng = np.random.default_rng(28)
    for _ in range(60):
        g2, g1 = sample(rng), sample(rng)
        r = np.abs(oplus(compose(g2, g1)) - oplus(g2) @ oplus(g1)).max()
        assert r < 1e-8


def test_oplus_xl_block_is_mat5():
    rng = np.random.default_rng(29)
    for _ in range(20):
        g = sample(rng, scale=2.0)
        gxl = GroupParams(xl=g.xl)
        assert np.abs(oplus(gxl)[10:, 10:] - xl_matrix(g.xl)).max() < 1e-12


def test_bform_conjugate_is_inverse_transpose():
    # T = B D B, the action on translation 5-vectors, is D^-T
    rng = np.random.default_rng(30)
    p = sample(rng).xl
    T = BFORM @ xl_matrix(p) @ BFORM
    assert np.abs(T - np.linalg.inv(xl_matrix(p)).T).max() < 1e-12


def test_theta_at_identity_is_identity():
    assert np.abs(theta_numeric(GroupParams.identity()) - np.eye(15)).max() < 1e-6
    tc = theta_closed(GroupParams.identity())
    mask = theta_claimed_mask()
    assert np.abs((tc - np.eye(15))[mask]).max() == 0


def test_theta_scalar_column_entries():
    g = GroupParams(a=np.array([7.0, 0.0, 0.0, 2.0]))
    tn = theta_numeric(g)
    assert tn[6, 14] == pytest.approx(7.0, abs=1e-6)   # omega_0 row, alpha col
    assert tn[9, 14] == pytest.approx(2.0, abs=1e-6)   # omega_3 row, alpha col
    tc = theta_closed(g)
    assert tc[6, 14] == 7.0 and tc[9, 14] == 2.0


def test_theta_rotation_row_entry():
    # derivative of a^3 along theta^1 at a = (0,0,4,0) is eps_132 a^2 = -4;
    # fixed by the finite-difference oracle
    g = GroupParams(a=np.array([0.0, 0.0, 4.0, 0.0]))
    assert theta_numeric(g)[0, 13] == pytest.approx(-4.0, abs=1e-6)
    assert theta_closed(g)[0, 13] == -4.0


def test_theta_closed_matches_numeric():
    rng = np.random.default_rng(31)
    mask = theta_claimed_mask()
    for _ in range(15):
        g = sample(rng)
        err = np.abs((theta_closed(g) - theta_numeric(g))[mask]).max()
        assert err < 1e-6


def test_theta_unlisted_translation_entries_vanish():
    rng = np.random.default_rng(32)
    g = sample(rng)
    tn = theta_numeric(g)
    assert np.abs(tn[14, 10:14]).max() < 1e-6   # alpha row, a cols
    assert np.abs(tn[10:14, 14]).max() < 1e-6   # a rows, alpha col
    assert np.abs(tn[0:6, 14]).max() < 1e-6     # theta, u rows, alpha col
    assert np.abs(tn[10:, 0:10]).max() < 1e-6   # translation rows, xl cols


def test_theta_claimed_mask_shape():
    m = theta_claimed_mask()
    assert m.shape == (15, 15)
    assert not m[:10, :10].any()
    assert m[:, 10:].all() and m[10:, :].all()
    assert np.isnan(theta_closed(GroupParams.identity())[:10, :10]).all()


@pytest.mark.parametrize("kwargs", [
    {"a": [np.nan, 0.0, 0.0, 0.0]}, {"a": [0.0, 0.0, np.inf, 0.0]},
    {"alpha": np.nan}, {"alpha": -np.inf}, {"a": np.zeros(3)}, {"a": np.zeros((2, 2))}])
def test_group_params_rejects_non_finite_and_wrong_shape(kwargs):
    with pytest.raises(ValueError):
        GroupParams(**kwargs)


def test_group_params_stores_a_read_only_copy():
    a = np.array([0.1, 0.2, 0.3, 0.4])
    g = GroupParams(alpha=0.5, a=a)
    assert not g.a.flags.writeable
    with pytest.raises(ValueError):
        g.a[0] = 1.0
    a[:] = 9.0  # the caller's array changes, the parameters do not
    assert np.array_equal(g.a, [0.1, 0.2, 0.3, 0.4]) and g.alpha == 0.5


def test_params_are_immutable_and_pickle():
    # no field can be rebound, and an element survives a pickle round trip
    g = GroupParams(0.5, [0.1, 0.2, 0.3, 0.4], XLParams(omega=[0.3, 0.1, -0.4, 0.2]))
    for obj, name in ((g, "alpha"), (g, "a"), (g.xl, "omega"), (g.xl, "_u")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, 0.0)
    h = pickle.loads(pickle.dumps(g))
    assert np.array_equal(params_to_vector(h), params_to_vector(g))


@pytest.mark.parametrize("alpha", ["x", {}, None, [1.0]],
                         ids=["str", "dict", "none", "list"])
def test_group_params_rejects_non_number_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        GroupParams(alpha=alpha)
