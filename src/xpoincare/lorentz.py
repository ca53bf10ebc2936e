"""4x4 Lorentz machinery: rotations R(theta), boosts L(u), Lambda = L R.

Parameterization: boosts carry the spatial part u of a four-velocity with
u0 = sqrt(1 + |u|^2); rapidity beta = artanh(|u|/u0) along u-hat.  Rotations
carry an axis-angle vector theta, canonical range |theta| <= pi.

Generator conventions (normative, they fix every sign downstream):

    (J_m)^j_k = eps_mjk          spatial block only
    (K_m)^0_k = (K_m)^k_0 = -delta_mk

so R(theta) = exp(theta . J) and L(u) = exp(beta . K).  Consequently
L(u) e0 = (u0, -u) and R((0,0,pi/2)) has R^1_2 = +1, R^2_1 = -1.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import ETA

_ETA_DIAG = np.diag(ETA)


class DecompositionError(ValueError):
    """Input matrix violates a decomposition precondition."""


# --- analytic scalar coefficients -----------------------------------------
# s(q), h(q) are sinc/ versine-like functions of the signed squared angle q
# (the cosine is c = 1 + q h): trig for q < 0, hyperbolic for q > 0, entire in q.
# Series taken below |q| = 1e-3, which covers r = sqrt|q| -> 0; truncation
# error there is < 1e-18.  Above it h uses the half-angle form.

_SERIES_WINDOW = 1e-3


def trig_s(q: float) -> float:
    if abs(q) < _SERIES_WINDOW:
        return 1.0 + q * (1 / 6 + q * (1 / 120 + q * (1 / 5040 + q / 362880)))
    r = math.sqrt(abs(q))
    return (math.sinh(r) if q > 0 else math.sin(r)) / r


def trig_h(q: float) -> float:
    if abs(q) < _SERIES_WINDOW:
        return 0.5 + q * (1 / 24 + q * (1 / 720 + q * (1 / 40320 + q / 3628800)))
    return 0.5 * trig_s(0.25 * q) ** 2  # = (c - 1) / q without cancellation


# --- basic maps ------------------------------------------------------------

def rapidity(u) -> np.ndarray:
    """Rapidity 3-vector beta with u = u-hat * sinh|beta|."""
    u = np.asarray(u, dtype=float)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        return np.zeros(3)
    return u / nu * float(np.arcsinh(nu))


def _lorentz_entries(u, theta) -> list:
    """The 16 entries of Lambda = L(u) R(theta), row by row, as Python floats.

    Lambda = [[u0, -v], [-u, R3 + k u v]] with v = u^T R3 and k = 1 / (1 + u0);
    R3 = 1 + s a + h a^2, a = theta . J, is written entry by entry.  theta = 0
    gives R3 = 1 exactly and u = 0 gives Lambda = diag(1, R3) exactly.
    """
    x, y, z = theta
    xx, yy, zz = x * x, y * y, z * z
    q = -(xx + yy + zz)
    s, h = trig_s(q), trig_h(q)
    sx, sy, sz = s * x, s * y, s * z
    hxy, hxz, hyz = h * x * y, h * x * z, h * y * z
    r00, r01, r02 = 1.0 - h * (yy + zz), hxy + sz, hxz - sy
    r10, r11, r12 = hxy - sz, 1.0 - h * (xx + zz), hyz + sx
    r20, r21, r22 = hxz + sy, hyz - sx, 1.0 - h * (xx + yy)
    a, b, c = u
    u0 = math.sqrt(1.0 + (a * a + b * b + c * c))
    k = 1.0 / (1.0 + u0)
    v0 = a * r00 + b * r10 + c * r20
    v1 = a * r01 + b * r11 + c * r21
    v2 = a * r02 + b * r12 + c * r22
    ka, kb, kc = k * a, k * b, k * c
    return [u0, -v0, -v1, -v2,
            -a, r00 + ka * v0, r01 + ka * v1, r02 + ka * v2,
            -b, r10 + kb * v0, r11 + kb * v1, r12 + kb * v2,
            -c, r20 + kc * v0, r21 + kc * v1, r22 + kc * v2]


_ZERO3 = (0.0, 0.0, 0.0)


def rotation_matrix(theta) -> np.ndarray:
    """4x4 rotation exp(theta . J); time row and column untouched."""
    theta = np.asarray(theta, dtype=float).tolist()
    return np.array(_lorentz_entries(_ZERO3, theta)).reshape(4, 4)


def boost_matrix(u) -> np.ndarray:
    """4x4 pure boost exp(beta . K), written in closed form in u.

    Symmetric up to rounding; L^0_0 = u0 and L e0 = (u0, -u).
    """
    u = np.asarray(u, dtype=float).tolist()
    return np.array(_lorentz_entries(u, _ZERO3)).reshape(4, 4)


def lorentz_matrix(u, theta) -> np.ndarray:
    """General transformation Lambda = L(u) R(theta), boost times rotation."""
    u, theta = np.asarray(u, dtype=float).tolist(), np.asarray(theta, dtype=float).tolist()
    return np.array(_lorentz_entries(u, theta)).reshape(4, 4)


def metric_residual(M) -> float:
    """max |M^T eta M - eta|; eta is diagonal, so M^T eta is a column scaling."""
    M = np.asarray(M, dtype=float)
    X = (M.T * _ETA_DIAG) @ M
    X -= ETA
    return float(np.abs(X, out=X).max())


# --- parameter recovery -----------------------------------------------------

METRIC_TOL = 1e-8


def _canonical_sign(v: np.ndarray) -> np.ndarray:
    nz = np.nonzero(np.abs(v) > 1e-9)[0]
    if len(nz) and v[nz[0]] < 0:
        return -v
    return v


def axis_angle_of_rotation3(R3) -> np.ndarray:
    """Axis-angle vector of a 3x3 rotation in the exp(theta . J) convention.

    Canonical output: |theta| in [0, pi]; at |theta| = pi the axis sign is
    normalized (first nonzero component positive).  The angle is atan2 of
    the antisymmetric part w = sin(phi) axis and the trace part, and theta is
    w times angle over the measured sine |w|; the sine is never recomputed
    from the angle.  The one special case is the rotation near pi, where w
    is small and rounded: there the axis comes from the symmetric part.
    """
    return np.array(_axis_angle(np.asarray(R3, dtype=float).tolist()))


def _axis_angle(rows):
    """axis_angle_of_rotation3 of the nested-list rows of R3; Python floats
    on the sine branch."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rows
    # w = sin(phi) * axis in this convention
    wx, wy, wz = 0.5 * (r12 - r21), 0.5 * (r20 - r02), 0.5 * (r01 - r10)
    c = (r00 + r11 + r22 - 1.0) / 2.0
    s = math.sqrt(wx * wx + wy * wy + wz * wz)
    phi = math.atan2(s, c)
    # the sine branch divides the rounding of w by s; below s = 0.5 on the
    # far side (c < 0) the symmetric part gives the better-conditioned axis
    if c > 0 or s >= 0.5:
        f = phi / s if s else 1.0
        return [wx * f, wy * f, wz * f]
    # near pi: axis^2 from the symmetric part, sign from w when resolvable
    R3 = np.array(rows)
    nn = ((R3 + R3.T) / 2.0 - c * np.eye(3)) / (1.0 - c)
    i = int(np.argmax(np.diag(nn)))
    ax = nn[:, i] / np.linalg.norm(nn[:, i])
    d = float(np.array([wx, wy, wz]) @ ax)
    if abs(d) > 1e-13:
        ax = ax * np.sign(d)
    else:
        ax = _canonical_sign(ax)
    return phi * ax


def _det4(m) -> float:
    """Determinant of a 4x4 nested list, by 2x2 minors of rows (0, 1) and (2, 3)."""
    (a00, a01, a02, a03), (a10, a11, a12, a13), (a20, a21, a22, a23), \
        (a30, a31, a32, a33) = m
    s0, s1, s2 = a00 * a11 - a10 * a01, a00 * a12 - a10 * a02, a00 * a13 - a10 * a03
    s3, s4, s5 = a01 * a12 - a11 * a02, a01 * a13 - a11 * a03, a02 * a13 - a12 * a03
    c5, c4, c3 = a22 * a33 - a32 * a23, a21 * a33 - a31 * a23, a21 * a32 - a31 * a22
    c2, c1, c0 = a20 * a33 - a30 * a23, a20 * a32 - a30 * a22, a20 * a31 - a30 * a21
    return s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0


def _boost_strip(m) -> list:
    """Rows of R = L(-u) M, u = -M[1:, 0], from the rows of M, as a rank-one
    update: with y = u^T M[1:, :] and k = 1 / (1 + u0),
    R[0, j] = u0 M[0, j] + y_j and R[i, j] = M[i, j] + u_i (M[0, j] + k y_j).
    Equal to boost_matrix(M[1:, 0]) @ M up to rounding."""
    (m00, m01, m02, m03), (m10, m11, m12, m13), (m20, m21, m22, m23), \
        (m30, m31, m32, m33) = m
    a, b, c = -m10, -m20, -m30
    u0 = math.sqrt(1.0 + (a * a + b * b + c * c))
    k = 1.0 / (1.0 + u0)
    y0 = a * m10 + b * m20 + c * m30
    y1 = a * m11 + b * m21 + c * m31
    y2 = a * m12 + b * m22 + c * m32
    y3 = a * m13 + b * m23 + c * m33
    t0, t1, t2, t3 = m00 + k * y0, m01 + k * y1, m02 + k * y2, m03 + k * y3
    return [[u0 * m00 + y0, u0 * m01 + y1, u0 * m02 + y2, u0 * m03 + y3],
            [m10 + a * t0, m11 + a * t1, m12 + a * t2, m13 + a * t3],
            [m20 + b * t0, m21 + b * t1, m22 + b * t2, m23 + b * t3],
            [m30 + c * t0, m31 + c * t1, m32 + c * t2, m33 + c * t3]]


def lorentz_decompose(M):
    """Recover (u, theta) with lorentz_matrix(u, theta) = M.

    Rejects input that is not a proper orthochronous Lorentz matrix:
    metric residual >= METRIC_TOL, M^0_0 <= 0, or det <= 0.  A passed metric
    gate leaves |M^0_0| >= 1 - 5e-9 and ||det| - 1| near 2e-8 at most, so
    only the two signs are left to test.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (4, 4):
        raise DecompositionError(f"expected a 4x4 matrix, got {M.shape}")
    u, theta = _lorentz_params(M, M.tolist())
    return np.array(u), np.array(theta)


def _lorentz_params(M: np.ndarray, m: list):
    """lorentz_decompose of the 4x4 array M with rows m = M.tolist(); u and,
    on the sine branch, theta as Python floats."""
    res = metric_residual(M)
    if not res < METRIC_TOL:  # `not ... <`: NaN fails every gate
        raise DecompositionError(
            f"metric residual {res:.3e} exceeds {METRIC_TOL:.1e}: not a Lorentz matrix")
    if not m[0][0] > 0.0:
        raise DecompositionError(f"M^0_0 = {m[0][0]:.17g} <= 0: not orthochronous")
    # R = L(-u) M has |R| ~ 1, so its cofactor determinant (= det M) rounds
    # like an LU of M; the cofactor of M itself would lose |M|^3 eps
    r = _boost_strip(m)
    det = _det4(r)
    # det^2 = 1 + tr(eta E) to first order, |E| < 1e-8: a sign test suffices
    if not det > 0.0:
        raise DecompositionError(f"det = {det:.17g} <= 0: improper")
    # 1e-7: the passed metric gate bounds this coupling near 1e-8; a backstop
    off = max(abs(r[0][1]), abs(r[0][2]), abs(r[0][3]), abs(r[1][0]),
              abs(r[2][0]), abs(r[3][0]), abs(r[0][0] - 1.0))
    if not off <= 1e-7:
        raise DecompositionError(
            f"boost stripping left time-space coupling {off:.3e}")
    theta = _axis_angle([r[1][1:], r[2][1:], r[3][1:]])
    return [-m[1][0], -m[2][0], -m[3][0]], theta
