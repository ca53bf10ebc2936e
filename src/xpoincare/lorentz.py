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

from .algebra import ETA, EPS3

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


# --- generators ------------------------------------------------------------

def rotation_generators() -> np.ndarray:
    """(3, 4, 4) array of J_m."""
    g = np.zeros((3, 4, 4))
    g[:, 1:, 1:] = EPS3.astype(float)
    return g


def boost_generators() -> np.ndarray:
    """(3, 4, 4) array of K_m."""
    g = np.zeros((3, 4, 4))
    for m in range(3):
        g[m, 0, 1 + m] = -1.0
        g[m, 1 + m, 0] = -1.0
    return g


# --- basic maps ------------------------------------------------------------

def rapidity(u) -> np.ndarray:
    """Rapidity 3-vector beta with u = u-hat * sinh|beta|."""
    u = np.asarray(u, dtype=float)
    nu = np.linalg.norm(u)
    if nu == 0.0:
        return np.zeros(3)
    return u / nu * float(np.arcsinh(nu))


def rotation_matrix(theta) -> np.ndarray:
    """4x4 rotation exp(theta . J); time row and column untouched.  Written
    entry by entry from R = 1 + s a + h a^2, a = theta . J."""
    x, y, z = np.asarray(theta, dtype=float).tolist()
    xx, yy, zz = x * x, y * y, z * z
    q = -(xx + yy + zz)
    s, h = trig_s(q), trig_h(q)
    sx, sy, sz = s * x, s * y, s * z
    hxy, hxz, hyz = h * x * y, h * x * z, h * y * z
    return np.array([1.0, 0.0, 0.0, 0.0,
                     0.0, 1.0 - h * (yy + zz), hxy + sz, hxz - sy,
                     0.0, hxy - sz, 1.0 - h * (xx + zz), hyz + sx,
                     0.0, hxz + sy, hyz - sx, 1.0 - h * (xx + yy)]).reshape(4, 4)


def boost_matrix(u) -> np.ndarray:
    """4x4 pure boost exp(beta . K), written in closed form in u.

    Symmetric; L^0_0 = u0 and L e0 = (u0, -u).
    """
    x, y, z = np.asarray(u, dtype=float).tolist()
    u0 = math.sqrt(1.0 + (x * x + y * y + z * z))
    k = 1.0 / (1.0 + u0)
    kxy, kxz, kyz = k * x * y, k * x * z, k * y * z
    return np.array([u0, -x, -y, -z,
                     -x, 1.0 + k * x * x, kxy, kxz,
                     -y, kxy, 1.0 + k * y * y, kyz,
                     -z, kxz, kyz, 1.0 + k * z * z]).reshape(4, 4)


def lorentz_matrix(u, theta) -> np.ndarray:
    """General transformation Lambda = L(u) R(theta), boost times rotation."""
    return boost_matrix(u) @ rotation_matrix(theta)


def metric_residual(M) -> float:
    """max |M^T eta M - eta|; eta is diagonal, so M^T eta is a column scaling."""
    M = np.asarray(M, dtype=float)
    return float(np.abs((M.T * _ETA_DIAG) @ M - ETA).max())


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
    R3 = np.asarray(R3, dtype=float)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = R3.tolist()
    # w = sin(phi) * axis in this convention
    wx, wy, wz = 0.5 * (r12 - r21), 0.5 * (r20 - r02), 0.5 * (r01 - r10)
    w = np.array([wx, wy, wz])
    c = (r00 + r11 + r22 - 1.0) / 2.0
    s = math.sqrt(wx * wx + wy * wy + wz * wz)
    phi = math.atan2(s, c)
    # the sine branch divides the rounding of w by s; below s = 0.5 on the
    # far side (c < 0) the symmetric part gives the better-conditioned axis
    if c > 0 or s >= 0.5:
        return w * (phi / s) if s else w
    # near pi: axis^2 from the symmetric part, sign from w when resolvable
    nn = ((R3 + R3.T) / 2.0 - c * np.eye(3)) / (1.0 - c)
    i = int(np.argmax(np.diag(nn)))
    ax = nn[:, i] / np.linalg.norm(nn[:, i])
    d = float(w @ ax)
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
    res = metric_residual(M)
    if not res < METRIC_TOL:  # `not ... <`: NaN fails every gate
        raise DecompositionError(
            f"metric residual {res:.3e} exceeds {METRIC_TOL:.1e}: not a Lorentz matrix")
    if not M[0, 0] > 0.0:
        raise DecompositionError(f"M^0_0 = {M[0, 0]:.17g} <= 0: not orthochronous")
    # R = L(-u) M has |R| ~ 1, so its cofactor determinant (= det M) rounds
    # like an LU of M; the cofactor of M itself would lose |M|^3 eps
    u = -M[1:, 0]
    R = boost_matrix(M[1:, 0]) @ M
    r = R.tolist()
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
    theta = axis_angle_of_rotation3(R[1:, 1:])
    return u, theta
