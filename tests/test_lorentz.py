import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xpoincare.algebra import invariance_residual
from xpoincare.lorentz import (_SERIES_WINDOW, METRIC_TOL, DecompositionError, lorentz_decompose,
                               lorentz_matrix, metric_residual, rapidity, trig_h, trig_s)
from xpoincare.poincare import GroupParams, inverse
from xpoincare.xlorentz import XLParams, b_residual, xl_decompose

coords = st.floats(-1.5, 1.5, allow_nan=False)
u_vectors = st.tuples(coords, coords, coords).map(np.array)
angles = st.floats(0.0, math.pi, allow_nan=False)

ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
EPS3 = np.array([[[(i - j) * (j - k) * (k - i) / 2 for k in range(3)]  # Levi-Civita
                  for j in range(3)] for i in range(3)])


def rotation_generators() -> np.ndarray:
    """(3, 4, 4) array of J_m, (J_m)^j_k = eps_mjk on the spatial block."""
    g = np.zeros((3, 4, 4))
    g[:, 1:, 1:] = EPS3
    return g


def boost_generators() -> np.ndarray:
    """(3, 4, 4) array of K_m, (K_m)^0_k = (K_m)^k_0 = -delta_mk."""
    g = np.zeros((3, 4, 4))
    for m in range(3):
        g[m, 0, 1 + m] = -1.0
        g[m, 1 + m, 0] = -1.0
    return g


def random_theta(rng, angle=None):
    ax = rng.normal(size=3)
    ax /= np.linalg.norm(ax)
    return ax * (rng.uniform(0, math.pi) if angle is None else angle)


def _ulps_around(x, k=3):
    """x and the k floats on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(k):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [float(lo), float(hi)]
    return out


def test_trig_coefficients_match_mpmath():
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    qs = _ulps_around(_SERIES_WINDOW) + _ulps_around(-_SERIES_WINDOW)
    qs += [sign * x for x in (1e-2, 1.0, 10.0) for sign in (1.0, -1.0)]

    def exact(name, q):
        r = mp.sqrt(abs(q))
        c = mp.cosh(r) if q > 0 else mp.cos(r)
        return {"c": c, "s": (mp.sinh(r) if q > 0 else mp.sin(r)) / r,
                "h": (c - 1) / q}[name]

    with mp.workdps(40):
        for name, fn in (("s", trig_s), ("h", trig_h)):
            for q in qs:
                ref = exact(name, mp.mpf(q))
                # relative condition number |q f'/f|: s at q = -10 sits near
                # its zero at r = pi, where the rounding of sqrt|q| alone
                # costs about 40 eps
                kappa = abs(q * mp.diff(lambda x: exact(name, x), q) / ref)
                err = abs((fn(q) - ref) / ref)
                assert err <= 4 * eps * max(1.0, float(kappa)), (name, q, float(err / eps))


def test_rotation_identity():
    # the one identity check of the one 4x4 builder: u = theta = 0 gives 1 exactly
    assert np.array_equal(lorentz_matrix(np.zeros(3), np.zeros(3)), np.eye(4))


def test_rotation_pi_about_z():
    R = lorentz_matrix(np.zeros(3), [0.0, 0.0, math.pi])
    assert np.abs(R - np.diag([1.0, -1.0, -1.0, 1.0])).max() < 1e-15


def test_rotation_half_pi_signs():
    # normative sign convention: eps_312 = +1 puts +1 at R^1_2
    R = lorentz_matrix(np.zeros(3), [0.0, 0.0, math.pi / 2])
    want = np.array([[1.0, 0, 0, 0],
                     [0, 0, 1.0, 0],
                     [0, -1.0, 0, 0],
                     [0, 0, 0, 1.0]])
    assert np.abs(R - want).max() < 1e-15


def test_boost_identity_and_gamma():
    L = lorentz_matrix([0.75, 0.0, 0.0], np.zeros(3))
    assert L[0, 0] == pytest.approx(1.25, abs=1e-15)
    assert L[0, 1] == pytest.approx(-0.75, abs=1e-15)
    # first column is (u0, -u)
    assert np.allclose(L[:, 0], [1.25, -0.75, 0, 0], atol=1e-15)


def test_boost_symmetric_unit_det():
    rng = np.random.default_rng(5)
    for _ in range(25):
        u = rng.normal(size=3)
        L = lorentz_matrix(u, np.zeros(3))
        assert np.abs(L - L.T).max() < 1e-14
        assert abs(np.linalg.det(L) - 1.0) < 1e-12


def test_boost_roundtrip_inverse():
    rng = np.random.default_rng(6)
    for _ in range(50):
        u = rng.normal(size=3)
        u *= rng.uniform(0, 3.0) / np.linalg.norm(u)
        prod = lorentz_matrix(u, np.zeros(3)) @ lorentz_matrix(-u, np.zeros(3))
        assert np.abs(prod - np.eye(4)).max() < 1e-12


def test_rapidity_maps_are_inverse():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u = rng.normal(size=3)
        beta = rapidity(u)
        nb = np.linalg.norm(beta)  # u = beta-hat sinh|beta|
        assert np.allclose(beta / nb * np.sinh(nb), u, atol=1e-12)
    assert lorentz_matrix([0.75, 0, 0], np.zeros(3))[0, 0] == pytest.approx(1.25)


@settings(max_examples=60, deadline=None)
@given(u_vectors, u_vectors, angles)
def test_metric_preservation(u, ax, ang):
    theta = ax / max(np.linalg.norm(ax), 1e-9) * ang
    assert metric_residual(lorentz_matrix(2.0 * u, theta)) < 1e-12


def test_inverse_by_index_gymnastics():
    rng = np.random.default_rng(8)
    for _ in range(30):
        lam = lorentz_matrix(rng.normal(size=3), random_theta(rng))
        assert np.abs(np.linalg.inv(lam) - ETA @ lam.T @ ETA).max() < 1e-12


def inverse_lorentz_params(u, theta):
    """(u', theta') of the inverse of a pure-Lorentz element, via inverse."""
    xl = inverse(GroupParams(xl=XLParams(u=u, theta=theta))).xl
    return xl.u, xl.theta


def test_inverse_params_special_cases():
    theta = np.array([0.2, -0.5, 0.4])
    u2, t2 = inverse_lorentz_params(np.zeros(3), theta)
    assert np.allclose(u2, 0) and np.array_equal(t2, -theta)
    u = np.array([0.4, 0.1, -0.2])
    u2, t2 = inverse_lorentz_params(u, np.zeros(3))
    assert np.allclose(u2, -u, atol=1e-15) and np.array_equal(t2, np.zeros(3))


def test_inverse_params_products_to_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        u, theta = rng.normal(size=3), random_theta(rng)
        u2, t2 = inverse_lorentz_params(u, theta)
        prod = lorentz_matrix(u2, t2) @ lorentz_matrix(u, theta)
        assert np.abs(prod - np.eye(4)).max() < 1e-10


def test_generators_match_finite_differences():
    # d/dtheta_m R at 0 = J_m and d/du_m Lambda(u, 0) at 0 = K_m
    h = 1e-6
    JG, KG = rotation_generators(), boost_generators()
    for m in range(3):
        e = np.zeros(3)
        e[m] = h
        dr = (lorentz_matrix(np.zeros(3), e) - lorentz_matrix(np.zeros(3), -e)) / (2 * h)
        assert np.abs(dr - JG[m]).max() < 1e-8
        dl = (lorentz_matrix(e, np.zeros(3)) - lorentz_matrix(-e, np.zeros(3))) / (2 * h)
        assert np.abs(dl - KG[m]).max() < 1e-8


def test_decompose_identity_and_pure_boost():
    u, theta = lorentz_decompose(np.eye(4))
    assert np.allclose(u, 0) and np.allclose(theta, 0)
    u, theta = lorentz_decompose(lorentz_matrix([0.75, 0, 0], np.zeros(3)))
    assert np.allclose(u, [0.75, 0, 0], atol=1e-10)
    assert np.allclose(theta, 0, atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(u_vectors, u_vectors, angles)
def test_decompose_roundtrip(u, ax, ang):
    theta = ax / max(np.linalg.norm(ax), 1e-9) * ang
    M = lorentz_matrix(2.0 * u, theta)
    u2, t2 = lorentz_decompose(M)
    assert np.abs(lorentz_matrix(u2, t2) - M).max() < 1e-9


def test_decompose_roundtrip_near_pi():
    rng = np.random.default_rng(10)
    for delta in [0.0, 1e-12, 1e-9, 1e-6, 1e-3]:
        for _ in range(20):
            theta = random_theta(rng, math.pi - delta)
            u = rng.normal(size=3)
            M = lorentz_matrix(u, theta)
            u2, t2 = lorentz_decompose(M)
            assert np.abs(lorentz_matrix(u2, t2) - M).max() < 1e-9
            assert np.linalg.norm(t2) <= math.pi + 1e-12


def test_axis_angle_canonical_at_pi():
    _, theta = lorentz_decompose(lorentz_matrix(np.zeros(3), [0, 0, math.pi]))
    nz = np.nonzero(np.abs(theta) > 1e-9)[0]
    assert theta[nz[0]] > 0  # first nonzero component positive


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_axis_angle_sign_cut_both_sides(sign):
    # an exact rotation about e3 with c = -1 and w = (0, 0, sign * s): the
    # symmetric part gives ax = e3 exactly and w . ax = sign * s exactly, so
    # |w . ax| meets the 1e-13 cut with no rounding; above it the axis sign
    # follows w, at and below it the canonical first-nonzero-positive applies
    for s in _ulps_around(1e-13):
        M = np.eye(4)
        M[1:3, 1:3] = [[-1.0, sign * s], [-sign * s, -1.0]]
        _, theta = lorentz_decompose(M)
        phi = math.atan2(s, -1.0)
        expected = sign if s > 1e-13 else 1.0
        assert theta.tolist() == [0.0, 0.0, expected * phi], s


@pytest.mark.parametrize("a, expected", [
    (5e-10, (-5e-10, 0.6, -0.8)), (2e-9, (2e-9, -0.6, 0.8)),
    (-2e-9, (2e-9, 0.6, -0.8))])
def test_canonical_sign_cut_both_sides(a, expected):
    # an exact pi rotation 2 n n^T - 1 is symmetric, so w = 0 and the axis sign
    # is canonical: the first component above 1e-9 in magnitude is positive
    n = np.array([a, -0.6, 0.8]) / math.hypot(a, 1.0)
    M = np.eye(4)
    M[1:, 1:] = 2.0 * np.outer(n, n) - np.eye(3)
    u, theta = lorentz_decompose(M)
    assert u.tolist() == [0.0, 0.0, 0.0]
    np.testing.assert_allclose(theta / math.pi, expected, rtol=1e-6, atol=0.0)


def test_decompose_rejections():
    with pytest.raises(DecompositionError, match="orthochronous"):
        lorentz_decompose(np.diag([-1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(DecompositionError, match="improper"):
        lorentz_decompose(np.diag([1.0, -1.0, 1.0, 1.0]))
    with pytest.raises(DecompositionError, match="metric"):
        lorentz_decompose(np.eye(4) * 1.5)
    with pytest.raises(DecompositionError, match=r"M must have shape \(4, 4\), got \(3, 3\)"):
        lorentz_decompose(np.eye(3))


@pytest.mark.parametrize("field", ["u", "theta"])
@pytest.mark.parametrize("value, message", [
    ([1.0, 2.0], r"must have shape \(3,\), got \(2,\)"),
    (np.zeros((3, 1)), r"must have shape \(3,\), got \(3, 1\)"),
    ([math.nan, 0.0, 0.0], "must be finite")], ids=["short", "column", "nan"])
def test_lorentz_matrix_rejects_as_xlparams(field, value, message):
    # the same ValueError, naming the field, as XLParams gives
    args = {"u": np.zeros(3), "theta": np.zeros(3), field: value}
    with pytest.raises(ValueError, match=f"^{field} {message}$"):
        lorentz_matrix(**args)
    with pytest.raises(ValueError, match=f"^{field} {message}$"):
        XLParams(**{field: value})


def _metric_gate_edge():
    """Smallest m for which diag(m, 1, 1, 1) passes the metric gate,
    1 - m^2 < METRIC_TOL: near sqrt(1 - 1e-8) = 1 - 5e-9."""
    m = math.sqrt(1.0 - METRIC_TOL)
    while metric_residual(np.diag([m, 1.0, 1.0, 1.0])) < METRIC_TOL:
        m = float(np.nextafter(m, 0.0))
    return float(np.nextafter(m, 2.0))


@pytest.mark.parametrize("ulps", [1, 2, 4, 16])
@pytest.mark.parametrize("dim", [4, 5])
def test_decompose_m00_cut_both_sides(dim, ulps):
    # M^0_0 is cut at 0, so on diag(m, 1, 1, 1[, 1]) the metric (B-form) gate
    # alone decides: m from its edge (near 1 - 5e-9) up decomposes, m below
    # the edge fails that gate, and -m, on the other sheet, fails the sign
    # test, whose message prints M^0_0 exactly
    decompose, residual = ((lorentz_decompose, metric_residual) if dim == 4
                           else (xl_decompose, b_residual))
    lo = hi = _metric_gate_edge()
    for _ in range(ulps):
        lo = float(np.nextafter(lo, 0.0))
    for _ in range(ulps - 1):
        hi = float(np.nextafter(hi, 2.0))

    def diag(m):
        return np.diag([m] + [1.0] * (dim - 1))

    with pytest.raises(DecompositionError, match="residual") as info:
        decompose(diag(lo))
    assert f"residual {residual(diag(lo)):.3e} exceeds" in str(info.value)
    out = decompose(diag(hi))
    u, theta = out if dim == 4 else (out.u, out.theta)
    assert not np.any(u) and not np.any(theta)
    with pytest.raises(DecompositionError, match="orthochronous") as info:
        decompose(diag(-hi))
    message = str(info.value)
    assert "<= 0" in message
    assert float(message.split("M^0_0 = ")[1].split(" <=")[0]) == -hi


def test_decompose_det_message_prints_the_value():
    with pytest.raises(DecompositionError, match="improper") as info:
        lorentz_decompose(np.diag([1.0, -1.0, 1.0, 1.0]))
    assert "det = -1 <= 0: improper" in str(info.value)


def test_decompose_accepts_large_boosts():
    # |M| = 3e3 passes the metric gate; the det gate must not reject it
    # through the |M|^3 eps rounding of a cofactor expansion of M itself
    rng = np.random.default_rng(31)
    for _ in range(100):
        M = lorentz_matrix(random_theta(rng, 3e3), rng.normal(size=3))
        lorentz_decompose(M)
        with pytest.raises(DecompositionError, match="improper"):
            lorentz_decompose(M @ np.diag([1.0, 1.0, -1.0, 1.0]))


def test_strip_backstop_far_side():
    # a Lambda that passes the metric gate and fails the 1e-7 coupling
    # backstop after the boost strip (|u| = 3.2e4), pinned bit for bit so
    # that the libm sin of lorentz_matrix does not enter; the near side is
    # every accepted decomposition above
    u = [float.fromhex(x) for x in ("0x1.9162e5e2e52eap+11", "0x1.f24d0d5fc5003p+14",
                                    "-0x1.6046f0a5a77e7p+10")]
    theta = [float.fromhex(x) for x in ("0x1.e288b9b6d25bfp-1", "0x1.a05e1eb64b8e5p+0",
                                        "0x1.71fd0e1e80cc0p+0")]
    M = np.array([[float.fromhex(x) for x in row] for row in (
        ("0x1.f54de61bb4d80p+14", "0x1.442d2ef1a6005p+10",
         "-0x1.40c36b1f63372p+12", "-0x1.ee6f16302e619p+14"),
        ("-0x1.9162e5e2e52eap+11", "-0x1.047284eb75d68p+7",
         "0x1.0144ba60821aap+9", "0x1.8bdd83d81e2fbp+11"),
        ("-0x1.f24d0d5fc5003p+14", "-0x1.42369fcbc49bep+10",
         "0x1.3ed65ee164798p+12", "0x1.eb78d5db4816dp+14"),
        ("0x1.6046f0a5a77e7p+10", "0x1.cebf7247cf7e0p+5",
         "-0x1.c1eaf01c59280p+7", "-0x1.5b754cb603685p+10"))])
    np.testing.assert_allclose(M, lorentz_matrix(u, theta), rtol=1e-12, atol=1e-8)  # its source
    assert metric_residual(M) < METRIC_TOL  # 7.45e-9
    with pytest.raises(DecompositionError,
                       match=r"^boost stripping left time-space coupling 1\.160e-07$"):
        lorentz_decompose(M)


@pytest.mark.parametrize("M", [np.full((4, 4), np.nan), np.diag([np.nan, 1.0, 1.0, 1.0]),
                               np.diag([1.0, 1.0, 1.0, np.inf])],
                         ids=["all-nan", "m00-nan", "m33-inf"])
def test_decompose_rejects_non_finite(M):
    # NaN used to pass the `res >= tol` gates: a NaN matrix returned NaN parameters
    with np.errstate(invalid="ignore"), pytest.raises(DecompositionError, match="metric"):
        lorentz_decompose(M)


def _identity_as(kind, n):
    """The n x n identity as a bool or str array, as a list of float ndarray
    rows, or as a list of lists with one entry made True, "1", None or 2**70,
    with its last row cut short, or with every entry a Fraction."""
    if kind in ("bool", "str"):
        return np.eye(n).astype(kind)
    if kind == "array-rows":
        return list(np.eye(n))
    m = np.eye(n, dtype=int).tolist()
    if kind == "fraction":
        return [[Fraction(x) for x in row] for row in m]
    if kind == "ragged":
        m[-1].pop()
    else:
        m[0][1] = {"true": True, "string": "1", "none": None, "big-int": 2**70}[kind]
    return m


def _outcome(fn, M):
    """What fn makes of M: the repr of its result, or its error's class and message."""
    try:
        return repr(fn(M))
    except (ValueError, OverflowError) as e:
        return type(e), str(e)


@pytest.mark.parametrize("fn,error,n", [
    (lorentz_decompose, DecompositionError, 4), (metric_residual, ValueError, 4),
    (xl_decompose, DecompositionError, 5), (b_residual, ValueError, 5),
    (invariance_residual, ValueError, 15)])
@pytest.mark.parametrize("kind", ["bool", "str", "true", "string", "none", "ragged",
                                  "big-int", "fraction", "array-rows"])
def test_matrix_arguments_must_hold_numbers(fn, error, n, kind):
    # the number rule of the parameters: a bool, a string or None is not read
    # as a number, nor are ragged rows a matrix; an int beyond int64, a
    # Fraction and a list of ndarray rows are numbers, read as the float array
    # of the same entries is
    M = _identity_as(kind, n)
    if kind in ("big-int", "fraction", "array-rows"):
        assert _outcome(fn, M) == _outcome(fn, np.array(M, dtype=float))
        return
    name = "kmat" if n == 15 else "M"
    with pytest.raises(error, match=rf"^{name} must be a float array of shape \({n}, {n}\)$"):
        fn(M)
