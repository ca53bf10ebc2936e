import dataclasses
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from test_stdlib import ELEMENTS, _full_read, _outcome
from xpoincare import _names
from xpoincare.algebra import (STRUCTURE_CONSTANTS, casimir_lambda, casimir_mu, exp_ad,
                               invariance_residual)
from xpoincare.checks import _algebra_vector, _pure_factors, element_doc, sample_params
from xpoincare.lorentz import DecompositionError, lorentz_decompose, lorentz_matrix
from xpoincare.poincare import (GroupParams, _from_vector, _translation, _vector,
                                compose, compose_via_affine, inverse, oplus, params_to_vector,
                                theta_claimed_mask, theta_closed, theta_numeric)
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
    assert aff_dist(_from_vector(v), g) == 0


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


def test_seeded_draws_are_the_pinned_elements():
    # the bits of compose and inverse are pinned once, in the standard-library
    # module, on the five elements as hex literals: the seeded draws are those
    # elements
    rng = np.random.default_rng(94)
    for k in range(5):
        g = sample_params(rng, wide=k >= 3)
        assert [x.hex() for x in _vector(g)] == ELEMENTS[k].split(), k


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
        for fac in factors:
            worst = max(worst, np.abs(oplus(fac) - exp_ad(_algebra_vector(fac))).max())
    assert worst < 1e-10


def test_pure_factors_multiply_back_to_the_element():
    # _pure_factors(g) is C(alpha), V(a), W(omega), L(u), R(theta), and their
    # product gives back g within 64 eps max(1, |D|^2); measured with this
    # seed: k = 7.9 narrow and 32.5 wide, no rejection
    rng = np.random.default_rng(34)
    eps = np.finfo(float).eps
    for wide in (False, True):
        for _ in range(500):
            g = sample_params(rng, wide=wide)
            factors = [GroupParams(alpha=g.alpha), GroupParams(a=g.a),
                       GroupParams(xl=XLParams(omega=g.xl.omega)),
                       GroupParams(xl=XLParams(u=g.xl.u)),
                       GroupParams(xl=XLParams(theta=g.xl.theta))]
            got = _pure_factors(g)
            assert [element_doc(f) for f in got] == [element_doc(f) for f in factors]
            C, V, W, L, R = got
            bound = 64 * eps * max(1.0, float(np.abs(xl_matrix(g.xl)).max()) ** 2)
            assert aff_dist(compose(C, compose(V, compose(W, compose(L, R)))), g) <= bound


def test_oplus_is_translation_factor_times_xl_block():
    # oplus writes the product of the translation factor and the block-diagonal
    # extended-Lorentz factor directly; compare with the 15x15 product
    rng = np.random.default_rng(32)
    for _ in range(30):
        g = sample(rng, scale=2.0)
        ref = oplus(GroupParams(alpha=g.alpha, a=g.a)) @ oplus(GroupParams(xl=g.xl))
        assert np.abs(oplus(g) - ref).max() < 8 * np.finfo(float).eps * np.abs(ref).max()


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
    assert m.sum() == 125


def test_matrix_edges_return_fresh_arrays():
    # every array edge makes its own writable, C-contiguous array of its
    # dtype and shape on each call
    g = sample(np.random.default_rng(33))
    lam, k = lorentz_matrix(g.xl.u, g.xl.theta), casimir_lambda()
    edges = {
        "oplus": (lambda: oplus(g), np.float64, (15, 15)),
        "theta_closed": (lambda: theta_closed(g), np.float64, (15, 15)),
        "theta_numeric": (lambda: theta_numeric(g), np.float64, (15, 15)),
        "xl_matrix": (lambda: xl_matrix(g.xl), np.float64, (5, 5)),
        "lorentz_matrix": (lambda: lorentz_matrix(g.xl.u, g.xl.theta), np.float64, (4, 4)),
        "params_to_vector": (lambda: params_to_vector(g), np.float64, (15,)),
        "lorentz_decompose u": (lambda: lorentz_decompose(lam)[0], np.float64, (3,)),
        "lorentz_decompose theta": (lambda: lorentz_decompose(lam)[1], np.float64, (3,)),
        "casimir_lambda": (casimir_lambda, np.int64, (15, 15)),
        "casimir_mu": (casimir_mu, np.int64, (15, 15)),
        "invariance_residual": (lambda: invariance_residual(k), np.int64, (15,)),
        "theta_claimed_mask": (theta_claimed_mask, np.bool_, (15, 15)),
    }
    for name, (fn, dtype, shape) in edges.items():
        m1, m2 = fn(), fn()
        for m in (m1, m2):
            assert m.shape == shape and m.dtype == dtype, name
            assert m.flags.c_contiguous and m.flags.writeable and m.flags.owndata, name
        assert not np.shares_memory(m1, m2), name
        m1[...] = 0
        assert np.array_equal(m2, fn(), equal_nan=dtype == np.float64), name
    # the packer counts the array's size, so a list one entry short or long
    # is refused and never packed into part of an array
    for n in (224, 226):
        with pytest.raises(ValueError):
            _names._ndarray([1.0] * n, (15, 15))


def test_theta_closed_matches_array_formulas():
    # the claimed entries as array expressions in eta and eps, NaN included;
    # the zeros of alpha eta keep the sign of alpha
    eps3 = np.array([[[(i - j) * (j - k) * (k - i) / 2 for k in range(3)]
                      for j in range(3)] for i in range(3)])
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    rng = np.random.default_rng(34)
    for _ in range(200):
        g = sample_params(rng, wide=True)
        a = g.a
        ref = np.full((15, 15), np.nan)
        ref[:, 10:] = ref[10:, :10] = 0.0
        ref[10:, 10:] = np.eye(5)
        ref[6:10, 14] = a
        ref[6:10, 10:14] = g.alpha * eta
        ref[3:6, 10] = a[1:]
        ref[3, 11] = ref[4, 12] = ref[5, 13] = a[0]
        ref[0:3, 11:14] = eps3 @ a[1:]
        got = theta_closed(g)
        assert np.array_equal(got, ref, equal_nan=True)
        assert np.array_equal(np.signbit(got[6:10, 10:]), np.signbit(ref[6:10, 10:]))


@pytest.mark.parametrize("kwargs", [
    {"a": [np.nan, 0.0, 0.0, 0.0]}, {"a": [0.0, 0.0, np.inf, 0.0]},
    {"alpha": np.nan}, {"alpha": -np.inf}, {"a": np.zeros(3)}, {"a": np.zeros((2, 2))},
    {"xl": "nope"}])
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
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    assert repr(g).startswith("GroupParams(alpha=") and repr(g.xl) in repr(g)
    h = pickle.loads(pickle.dumps(g))
    assert np.array_equal(params_to_vector(h), params_to_vector(g))


@pytest.mark.parametrize("alpha", ["x", {}, None, [1.0], True, "1.5", np.bool_(True)],
                         ids=["str", "dict", "none", "list", "bool", "numeric-str", "numpy-bool"])
def test_group_params_rejects_non_number_alpha(alpha):
    with pytest.raises(ValueError, match="alpha"):
        GroupParams(alpha=alpha)


def test_vector_and_numpy_numbers_follow_the_number_rule():
    # one rule for the library and the command line: a number is a real
    # number that is not a bool; numpy's numbers and int arrays are numbers
    g = GroupParams(alpha=np.array(2.5), a=[np.float64(0.5), np.int64(-1), 0, 2],
                    xl=XLParams(omega=np.array([1, 0, 0, 0]), u=np.zeros(3, np.float32),
                                theta=(np.int64(1), 0.25, np.uint8(2))))
    assert g.alpha == 2.5 and type(g.alpha) is float
    assert list(g._a) == [0.5, -1.0, 0.0, 2.0]
    assert g.xl._omega == (1.0, 0.0, 0.0, 0.0) and g.xl._theta == (1.0, 0.25, 2.0)
    assert all(type(x) is float for x in g.xl._u + g.xl._theta)
    assert GroupParams(alpha=np.int64(3)).alpha == 3.0
    assert params_to_vector(_from_vector(np.arange(15))).tolist() == list(range(15))
    with pytest.raises(ValueError, match="^alpha must be finite$"):
        GroupParams(alpha=10 ** 400)


class _Tuple(tuple):
    pass


@pytest.mark.parametrize("value, want", [
    ([-0.0, 0.0, -0.0, 0.0], [-0.0, 0.0, -0.0, 0.0]),
    ([1e308, 1e308, 0.0, 0.0], [1e308, 1e308, 0.0, 0.0]),  # the sum overflows
    ([math.inf, -math.inf, 0, 0], "{} must be finite"),
    ([math.inf, -math.inf, 0.0, 0.0], "{} must be finite"),
    ([0.0, math.nan, 0.0, 0.0], "{} must be finite"),
    ([0.5, 0.25, 1.0], "{} must have shape (4,), got (3,)"),
    ((0.5, 0.25, 1.0, 2.0, 3.0), "{} must have shape (4,), got (5,)"),
    (0.5, "{} must have shape (4,), got ()"),
    ([0.5, True, 0.0, 0.0], "{} must be a float array of shape (4,)"),
    ([0.5, 2, 0.0, -0.0], [0.5, 2.0, 0.0, -0.0]),
    ([0.5, np.float64(-0.0), 0.0, 0.0], [0.5, -0.0, 0.0, 0.0]),
    ([0.5, Fraction(1, 4), 0.0, 0.0], [0.5, 0.25, 0.0, 0.0]),
    (_Tuple((0.5, 0.25, 0.0, -0.0)), [0.5, 0.25, 0.0, -0.0]),
], ids=["signed-zeros", "sum-overflows", "int-infinities", "infinities", "nan", "short",
        "long", "scalar", "bool", "int", "numpy-float", "fraction", "tuple-subclass"])
def test_float_fast_path_keeps_the_number_rule(value, want):
    # the fast path of `_float_entries` for lists of floats accepts, returns
    # and rejects exactly as the full read does, in both parameter classes
    for name, read in (("a", lambda v: GroupParams(a=v)._a),
                       ("omega", lambda v: XLParams(omega=v)._omega),
                       ("p", lambda v: _names._float_entries("p", v, (4,))),
                       ("p", lambda v: _full_read("p", v, (4,)))):
        expect = want.format(name) if isinstance(want, str) else [(float, x.hex()) for x in want]
        assert _outcome(read, value) == expect, name


@pytest.mark.parametrize("value, want", [
    (-0.0, -0.0), (1e308, 1e308), (math.nan, "alpha must be finite"),
    (-math.inf, "alpha must be finite"), (True, "alpha must be a number"),
    ([0.5], "alpha must be a number"), (2, 2.0), (np.float64(-0.0), -0.0), (Fraction(1, 4), 0.25),
], ids=["negative-zero", "large", "nan", "infinity", "bool", "list", "int", "numpy-float",
        "fraction"])
def test_float_fast_path_keeps_the_number_rule_for_one_number(value, want):
    expect = want if isinstance(want, str) else [(float, want.hex())]
    for read in (lambda v: (GroupParams(alpha=v).alpha,),
                 lambda v: _names._float_entries("alpha", v, ()),
                 lambda v: _full_read("alpha", v, ())):
        assert _outcome(read, value) == expect


def test_float_fast_path_takes_only_exact_floats(monkeypatch):
    # exact floats, finite in sum, skip the full read; anything else takes it
    seen = []
    real_entries = _names._real_entries

    def spy(*args):
        seen.append(args[1])
        return real_entries(*args)

    monkeypatch.setattr(_names, "_real_entries", spy)
    for value, shape in (([0.5, -0.0, 1.0, 2.0], (4,)), ((0.5, 1.0, 2.0), (3,)), (-0.0, ())):
        _names._float_entries("p", value, shape)
    assert seen == []
    full = [_Tuple((0.5, 0.0, 0.0, 0.0)), [0.5, 1, 0.0, 0.0], [1e308, 1e308, 0.0, 0.0],
            [np.float64(0.5), 0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]
    for value in full:
        _outcome(_names._float_entries, "p", value, (4,))
    assert len(seen) == len(full) and all(x is y for x, y in zip(seen, full))


def test_group_commutator_reads_the_integer_table():
    # for each ordered pair of generators, the parameters of g h g^-1 h^-1
    # with g = exp(eps e_a), h = exp(eps e_b) are eps^2 (-f_ab^c) + O(eps^3);
    # the Richardson combination 2 c(eps) - c(2 eps) cancels the eps^3 term.
    # The one global -1 is the i of [X_a, X_b] = i f_ab^c X_c
    f = STRUCTURE_CONSTANTS.dense

    def commutator(a, b, eps):
        g, h = (_from_vector(eps * np.eye(15)[k]) for k in (a, b))
        c = compose(compose(g, h), compose(inverse(g), inverse(h)))
        return params_to_vector(c) / eps ** 2

    for a, b in itertools.permutations(range(15), 2):
        c = 2 * commutator(a, b, 1e-4) - commutator(a, b, 2e-4)
        assert np.abs(c + f[a, b]).max() < 1e-7, (a, b)
