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

from ._names import _float_entries, _ndarray, _real_entries


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
    import numpy as np
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
    Raises OverflowError, naming u, when u0 is beyond float64.
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
    if u0 == math.inf:  # |u| > ~1.34e154: k would be 0 and Lambda finite but wrong
        raise OverflowError(f"u {[a, b, c]}: L(u) overflows float64")
    k = 1.0 / (1.0 + u0)
    v0 = a * r00 + b * r10 + c * r20
    v1 = a * r01 + b * r11 + c * r21
    v2 = a * r02 + b * r12 + c * r22
    ka, kb, kc = k * a, k * b, k * c
    return [u0, -v0, -v1, -v2,
            -a, r00 + ka * v0, r01 + ka * v1, r02 + ka * v2,
            -b, r10 + kb * v0, r11 + kb * v1, r12 + kb * v2,
            -c, r20 + kc * v0, r21 + kc * v1, r22 + kc * v2]


def lorentz_matrix(u, theta) -> np.ndarray:
    """General transformation Lambda = L(u) R(theta), boost times rotation;
    u = 0 gives the rotation R(theta) and theta = 0 the boost L(u) exactly.
    A u or theta that is not a finite 3-vector is a ValueError naming it."""
    u, theta = _float_entries("u", u, (3,)), _float_entries("theta", theta, (3,))
    return _ndarray(_lorentz_entries(u, theta), (4, 4))


def _max_abs(xs) -> float:
    """max |x| over xs, NaN when any x is NaN (as numpy's max): the builtin
    max keeps or drops a NaN depending on where it sits.  A NaN makes the
    sum NaN, so the sum screens for one."""
    m = max(map(abs, xs))
    s = sum(xs)
    return math.nan if s != s and any(map(math.isnan, xs)) else m


def _metric_residual(m) -> float:
    """max |M^T eta M - eta| of the 4x4 matrix with entries m, row by row.
    eta is diagonal, so entry (i, j) is the eta-signed dot product of columns
    i and j (named a, b, c, e, indexed by row); the result is symmetric, and
    only j >= i is formed."""
    a0, b0, c0, e0, a1, b1, c1, e1, a2, b2, c2, e2, a3, b3, c3, e3 = m
    return _max_abs((a1 * a1 + a2 * a2 + a3 * a3 - a0 * a0 + 1.0,
                     a1 * b1 + a2 * b2 + a3 * b3 - a0 * b0,
                     a1 * c1 + a2 * c2 + a3 * c3 - a0 * c0,
                     a1 * e1 + a2 * e2 + a3 * e3 - a0 * e0,
                     b1 * b1 + b2 * b2 + b3 * b3 - b0 * b0 - 1.0,
                     b1 * c1 + b2 * c2 + b3 * c3 - b0 * c0,
                     b1 * e1 + b2 * e2 + b3 * e3 - b0 * e0,
                     c1 * c1 + c2 * c2 + c3 * c3 - c0 * c0 - 1.0,
                     c1 * e1 + c2 * e2 + c3 * e3 - c0 * e0,
                     e1 * e1 + e2 * e2 + e3 * e3 - e0 * e0 - 1.0))


def metric_residual(M) -> float:
    """max |M^T eta M - eta| of a 4x4 matrix."""
    return _metric_residual(_real_entries("M", M, (4, 4)))


# --- parameter recovery -----------------------------------------------------

METRIC_TOL = 1e-8


def _axis_angle(r):
    """Axis-angle vector of a 3x3 rotation with entries r, row by row, in the
    exp(theta . J) convention, as a list of Python floats.

    Canonical output: |theta| in [0, pi]; at |theta| = pi the axis sign is
    normalized (first nonzero component positive).  The angle is atan2 of
    the antisymmetric part w = sin(phi) axis and the trace part, and theta is
    w times angle over the measured sine |w|; the sine is never recomputed
    from the angle.  The one special case is the rotation near pi, where w
    is small and rounded: there the axis comes from the symmetric part.
    """
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
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
    # near pi: axis^2 from the symmetric part n n^T = (sym(R3) - c) / (1 - c),
    # whose largest diagonal entry picks the best-conditioned column
    diag = ((r00 - c) / (1.0 - c), (r11 - c) / (1.0 - c), (r22 - c) / (1.0 - c))
    i = max(range(3), key=diag.__getitem__)
    col = [diag[k] if k == i else (r[3 * k + i] + r[3 * i + k]) / 2.0 / (1.0 - c)
           for k in range(3)]
    n = math.sqrt(col[0] * col[0] + col[1] * col[1] + col[2] * col[2])
    ax = [x / n for x in col]
    # sign from w when resolvable, else the first component above 1e-9 positive
    d = wx * ax[0] + wy * ax[1] + wz * ax[2]
    if abs(d) > 1e-13:
        flip = d < 0.0
    else:
        flip = next((x < 0.0 for x in ax if abs(x) > 1e-9), False)
    return [-phi * x if flip else phi * x for x in ax]


def _det3(r) -> float:
    """Determinant of the 3x3 matrix with entries r, row by row, by cofactors
    of row 0."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    return (r00 * (r11 * r22 - r12 * r21) - r01 * (r10 * r22 - r12 * r20)
            + r02 * (r10 * r21 - r11 * r20))


def _boost_strip(m) -> list:
    """The 16 entries of R = L(-u) M, u = -M[1:, 0], row by row, from the
    entries m of M, as a rank-one update: with y = u^T M[1:, :] and
    k = 1 / (1 + u0),
    R[0, j] = u0 M[0, j] + y_j and R[i, j] = M[i, j] + u_i (M[0, j] + k y_j).
    Equal to lorentz_matrix(M[1:, 0], zeros(3)) @ M up to rounding."""
    m00, m01, m02, m03, m10, m11, m12, m13, m20, m21, m22, m23, \
        m30, m31, m32, m33 = m
    a, b, c = -m10, -m20, -m30
    u0 = math.sqrt(1.0 + (a * a + b * b + c * c))
    k = 1.0 / (1.0 + u0)
    y0 = a * m10 + b * m20 + c * m30
    y1 = a * m11 + b * m21 + c * m31
    y2 = a * m12 + b * m22 + c * m32
    y3 = a * m13 + b * m23 + c * m33
    t0, t1, t2, t3 = m00 + k * y0, m01 + k * y1, m02 + k * y2, m03 + k * y3
    return [u0 * m00 + y0, u0 * m01 + y1, u0 * m02 + y2, u0 * m03 + y3,
            m10 + a * t0, m11 + a * t1, m12 + a * t2, m13 + a * t3,
            m20 + b * t0, m21 + b * t1, m22 + b * t2, m23 + b * t3,
            m30 + c * t0, m31 + c * t1, m32 + c * t2, m33 + c * t3]


def lorentz_decompose(M):
    """Recover (u, theta) with lorentz_matrix(u, theta) = M.

    Rejects input that is not a proper orthochronous Lorentz matrix:
    metric residual >= METRIC_TOL, M^0_0 <= 0, or det <= 0.  A passed metric
    gate leaves |M^0_0| >= 1 - 5e-9 and ||det| - 1| near 2e-8 at most, so
    only the two signs are left to test.
    """
    u, theta = _lorentz_params(_real_entries("M", M, (4, 4), DecompositionError))
    return _ndarray(u, (3,)), _ndarray(theta, (3,))


def _lorentz_params(m) -> tuple[list, list]:
    """lorentz_decompose of the 4x4 matrix with entries m, row by row: u and
    theta as lists of Python floats."""
    res = _metric_residual(m)
    if not res < METRIC_TOL:  # `not ... <`: NaN fails every gate
        raise DecompositionError(
            f"metric residual {res:.3e} exceeds {METRIC_TOL:.1e}: not a Lorentz matrix")
    if not m[0] > 0.0:
        raise DecompositionError(f"M^0_0 = {m[0]:.17g} <= 0: not orthochronous")
    # det R3 has the sign of det R = det M: R = L(-u) M is diag(1, R3) up to
    # the coupling `off` <= 1e-7, and |det R - R00 det R3| <= 18 off^2 max|R|^2
    r = _boost_strip(m)
    r3 = r[5:8] + r[9:12] + r[13:16]
    det = _det3(r3)
    # det^2 = 1 + tr(eta E) to first order, |E| < 1e-8: a sign test suffices
    if not det > 0.0:
        raise DecompositionError(f"det = {det:.17g} <= 0: improper")
    # 1e-7: the passed metric gate bounds this coupling near 1e-8; a backstop
    off = max(abs(r[1]), abs(r[2]), abs(r[3]), abs(r[4]),
              abs(r[8]), abs(r[12]), abs(r[0] - 1.0))
    if not off <= 1e-7:
        raise DecompositionError(
            f"boost stripping left time-space coupling {off:.3e}")
    theta = _axis_angle(r3)
    return [-m[4], -m[8], -m[12]], theta
