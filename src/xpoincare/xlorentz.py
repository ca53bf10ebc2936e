"""Extended Lorentz group as 5x5 matrices acting on the (P0..P3, Gs) block.

Every group matrix here preserves the bilinear form

    B(x, y) = x_Gs y_Gs - eta^{bn} x_Pb y_Pn,     B = diag(+1, -1, -1, -1, +1)

and factors as W(omega) L(u) R(theta): Dirac boost times embedded Lorentz
transformation.  The Dirac boost closed form is

    W_P^P  = delta + (c(q) - 1) omega_mu omega^beta / q
    W_P^Gs = -s(q) omega_mu          W_Gs^P = -s(q) omega^beta
    W_Gs^Gs = c(q)

with q = omega_nu omega^nu; trig branch for q < 0 (c = cos, s = sin r / r of
r = sqrt(-q)), hyperbolic continuation for q > 0, entire through q = 0.  The
trig sector is compact: W is 2pi-periodic in r, and the canonical range after
decomposition is r in [0, pi].

Geometry note for decomposition: W(omega) L R maps e_Gs to the Gs-column
(-s(q) omega, c(q)); matrices whose (Gs, Gs) entry is below -1 lie outside
the image of this factorization (the group is larger than one chart) and are
rejected, not approximated.
"""

from __future__ import annotations

import math

from ._names import _array_field, _float_entries, _Frozen, _ndarray, _real_entries
from .lorentz import (DecompositionError, _lorentz_entries, _lorentz_params,
                      _max_abs, trig_h, trig_s)

_BDIAG = (1.0, -1.0, -1.0, -1.0, 1.0)  # the diagonal of B


def __getattr__(name):
    """BFORM, the matrix of B, made on its first read and kept, read-only (PEP 562)."""
    if name != "BFORM":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import numpy as np
    bform = globals()["BFORM"] = np.diag(_BDIAG)
    bform.flags.writeable = False
    return bform


B_TOL = 1e-8        # B-form residual gate of xl_decompose
BLOCK_TOL = 1e-7    # block-diagonality gate after Dirac-boost stripping


def _dirac_coefficients(w0, w1, w2, w3) -> tuple[float, float, float]:
    """q = omega_nu omega^nu and the coefficients s(q), h(q) of W(omega)."""
    q = w1 * w1 + w2 * w2 + w3 * w3 - w0 * w0
    try:
        return q, trig_s(q), trig_h(q)
    except OverflowError:  # math.sinh or the square in trig_h, beyond float64
        raise OverflowError(f"omega {[w0, w1, w2, w3]}: W(omega) overflows float64") from None


def _xl_entries(omega, lam) -> list:
    """The 25 entries of D = W(omega) diag(Lambda, 1), row by row, as Python
    floats, from omega and the 16 entries of Lambda.

    With W[:4, :4] = 1 + h w (sigma w)^T, sigma = diag(eta), and
    z = (sigma w)^T Lambda: D[:4, :4] = Lambda + h w z^T, D[:4, 4] = -s w,
    D[4, :4] = -s z and D[4, 4] = 1 + h q.  Lambda = 1 gives W(omega) exactly.
    """
    w0, w1, w2, w3 = omega
    q, s, h = _dirac_coefficients(w0, w1, w2, w3)
    l00, l01, l02, l03, l10, l11, l12, l13, \
        l20, l21, l22, l23, l30, l31, l32, l33 = lam
    z0 = w1 * l10 + w2 * l20 + w3 * l30 - w0 * l00
    z1 = w1 * l11 + w2 * l21 + w3 * l31 - w0 * l01
    z2 = w1 * l12 + w2 * l22 + w3 * l32 - w0 * l02
    z3 = w1 * l13 + w2 * l23 + w3 * l33 - w0 * l03
    h0, h1, h2, h3 = h * w0, h * w1, h * w2, h * w3
    return [l00 + h0 * z0, l01 + h0 * z1, l02 + h0 * z2, l03 + h0 * z3, -s * w0,
            l10 + h1 * z0, l11 + h1 * z1, l12 + h1 * z2, l13 + h1 * z3, -s * w1,
            l20 + h2 * z0, l21 + h2 * z1, l22 + h2 * z2, l23 + h2 * z3, -s * w2,
            l30 + h3 * z0, l31 + h3 * z1, l32 + h3 * z2, l33 + h3 * z3, -s * w3,
            -s * z0, -s * z1, -s * z2, -s * z3, 1.0 + h * q]


# --- parameter objects -------------------------------------------------------

class XLParams(_Frozen):
    """Extended-Lorentz parameters (omega, u, theta) of W(omega) L(u) R(theta).

    Validated once, on construction, into float tuples (`_omega`, `_u`,
    `_theta`), which the group law reads; the fields `omega`, `u` and `theta`
    are read-only ndarrays of them.
    """

    __slots__ = ("_omega", "_u", "_theta")
    omega, u, theta = _array_field("omega"), _array_field("u"), _array_field("theta")

    def __init__(self, omega=(0.0,) * 4, u=(0.0,) * 3, theta=(0.0,) * 3):
        init = object.__setattr__
        init(self, "_omega", _float_entries("omega", omega, (4,)))
        init(self, "_u", _float_entries("u", u, (3,)))
        init(self, "_theta", _float_entries("theta", theta, (3,)))

    def __repr__(self):
        return f"XLParams(omega={self.omega!r}, u={self.u!r}, theta={self.theta!r})"

    def __reduce__(self):
        return XLParams, (self._omega, self._u, self._theta)

    @classmethod
    def identity(cls) -> "XLParams":
        return cls()


def xl_matrix(p: XLParams) -> np.ndarray:
    """5x5 matrix W(omega) L(u) R(theta), in closed form; u = theta = 0 gives
    the Dirac boost W(omega)."""
    return _ndarray(_xl_entries(p._omega, _lorentz_entries(p._u, p._theta)), (5, 5))


def _b_residual(d) -> float:
    """max |M^T B M - B| of the 5x5 matrix with entries d, row by row.  B is
    diagonal, so entry (i, j) is the B-signed dot product of columns i and j
    (named a, b, c, e, f, indexed by row); the result is symmetric, and only
    j >= i is formed."""
    a0, b0, c0, e0, f0, a1, b1, c1, e1, f1, a2, b2, c2, e2, f2, \
        a3, b3, c3, e3, f3, a4, b4, c4, e4, f4 = d
    return _max_abs((a0 * a0 - a1 * a1 - a2 * a2 - a3 * a3 + a4 * a4 - 1.0,
                     a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3 + a4 * b4,
                     a0 * c0 - a1 * c1 - a2 * c2 - a3 * c3 + a4 * c4,
                     a0 * e0 - a1 * e1 - a2 * e2 - a3 * e3 + a4 * e4,
                     a0 * f0 - a1 * f1 - a2 * f2 - a3 * f3 + a4 * f4,
                     b0 * b0 - b1 * b1 - b2 * b2 - b3 * b3 + b4 * b4 + 1.0,
                     b0 * c0 - b1 * c1 - b2 * c2 - b3 * c3 + b4 * c4,
                     b0 * e0 - b1 * e1 - b2 * e2 - b3 * e3 + b4 * e4,
                     b0 * f0 - b1 * f1 - b2 * f2 - b3 * f3 + b4 * f4,
                     c0 * c0 - c1 * c1 - c2 * c2 - c3 * c3 + c4 * c4 + 1.0,
                     c0 * e0 - c1 * e1 - c2 * e2 - c3 * e3 + c4 * e4,
                     c0 * f0 - c1 * f1 - c2 * f2 - c3 * f3 + c4 * f4,
                     e0 * e0 - e1 * e1 - e2 * e2 - e3 * e3 + e4 * e4 + 1.0,
                     e0 * f0 - e1 * f1 - e2 * f2 - e3 * f3 + e4 * f4,
                     f0 * f0 - f1 * f1 - f2 * f2 - f3 * f3 + f4 * f4 - 1.0))


def b_residual(M) -> float:
    """max |M^T B M - B| of a 5x5 matrix."""
    return _b_residual(_real_entries("M", M, (5, 5)))


def _omega_from_gs_column(v0, v1, v2, v3, c) -> list:
    """Invert the Gs column (-s(q) omega, c(q)) for omega; canonical trig
    range [0, pi].

    One rule on every branch: angle over the measured sine.  The P part
    vP = -s(q) omega has pseudo-norm sq = sqrt|qv|, which is sin r (trig) or
    sinh chi (hyperbolic); the angle is atan2(sq, c) or asinh(sq), and
    omega = -(angle / sq) vP, with angle / sq -> 1 on the null cone.  The
    sine is never recomputed from the angle.  The one special case is the
    trig branch point r = pi, where the P part is rounding and carries no
    direction: a canonical unit direction is taken there, which is valid
    because at r = pi the residual factor is absorbed into the Lorentz block.
    """
    qv = -v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3  # = -sin^2 r (trig), +sinh^2 chi (hyp.)
    sq = math.sqrt(abs(qv))
    # 1e-12: below it, on the far side, the P part is rounding and has no direction
    if sq <= 1e-12 and c < 0.0:
        return [math.atan2(sq, c), 0.0, 0.0, 0.0]
    f = -1.0 if sq == 0.0 else -(math.atan2(sq, c) if qv < 0.0 else math.asinh(sq)) / sq
    return [f * v0, f * v1, f * v2, f * v3]


def _dirac_strip(omega, d) -> list:
    """The 25 entries of E = W(-omega) M, row by row, from omega and the
    entries d of M, as a rank-one update.  W(-omega) is
    [[1 + h w (sigma w)^T, s w], [s (sigma w)^T, 1 + h q]], sigma = diag(eta),
    so with y = (sigma w)^T M[:4, :] and p = h y + s M[4, :]:
    E[:4, :] = M[:4, :] + w p^T and E[4, :] = s y + (1 + h q) M[4, :].
    Equal to xl_matrix(XLParams(-omega)) @ M up to rounding."""
    w0, w1, w2, w3 = omega
    q, s, h = _dirac_coefficients(w0, w1, w2, w3)  # q, s and h are even in omega
    m00, m01, m02, m03, m04, m10, m11, m12, m13, m14, m20, m21, m22, m23, m24, \
        m30, m31, m32, m33, m34, m40, m41, m42, m43, m44 = d
    y0 = w1 * m10 + w2 * m20 + w3 * m30 - w0 * m00
    y1 = w1 * m11 + w2 * m21 + w3 * m31 - w0 * m01
    y2 = w1 * m12 + w2 * m22 + w3 * m32 - w0 * m02
    y3 = w1 * m13 + w2 * m23 + w3 * m33 - w0 * m03
    y4 = w1 * m14 + w2 * m24 + w3 * m34 - w0 * m04
    p0, p1, p2 = h * y0 + s * m40, h * y1 + s * m41, h * y2 + s * m42
    p3, p4 = h * y3 + s * m43, h * y4 + s * m44
    g = 1.0 + h * q
    return [m00 + w0 * p0, m01 + w0 * p1, m02 + w0 * p2, m03 + w0 * p3, m04 + w0 * p4,
            m10 + w1 * p0, m11 + w1 * p1, m12 + w1 * p2, m13 + w1 * p3, m14 + w1 * p4,
            m20 + w2 * p0, m21 + w2 * p1, m22 + w2 * p2, m23 + w2 * p3, m24 + w2 * p4,
            m30 + w3 * p0, m31 + w3 * p1, m32 + w3 * p2, m33 + w3 * p3, m34 + w3 * p4,
            s * y0 + g * m40, s * y1 + g * m41, s * y2 + g * m42, s * y3 + g * m43,
            s * y4 + g * m44]


def _xl_decompose(d) -> XLParams:
    """xl_decompose of the 5x5 matrix with entries d, row by row, in Python
    floats."""
    res = _b_residual(d)
    if not res < B_TOL:  # `not ... <`: NaN fails every gate
        raise DecompositionError(
            f"B-form residual {res:.3e} exceeds {B_TOL:.1e}: not in the group")
    col = d[4::5]
    omega = _omega_from_gs_column(*col)
    e = _dirac_strip(omega, d)
    off = max(abs(e[4]), abs(e[9]), abs(e[14]), abs(e[19]), abs(e[20]),
              abs(e[21]), abs(e[22]), abs(e[23]), abs(e[24] - 1.0))
    if not off <= BLOCK_TOL:
        v0, v1, v2, v3, _ = col  # the branch of the Gs column, by the sign of qv
        qv = -v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3
        branch = "trig" if qv < 0.0 else "hyperbolic" if qv > 0.0 else "null"
        raise DecompositionError(
            f"residual {off:.3e} after Dirac-boost stripping "
            f"(branch '{branch}'): matrix outside the reachable set")
    u, theta = _lorentz_params(e[0:4] + e[5:9] + e[10:14] + e[15:19])
    return XLParams(omega, u, theta)


def xl_decompose(M) -> XLParams:
    """Factor a 5x5 matrix as W(omega) L(u) R(theta) and return the parameters.

    Preconditions: M preserves B within B_TOL and lies in the image of
    xl_matrix.  Matrices outside the reachable set (including any with
    M[Gs, Gs] < -1) fail the block-diagonality gate after the Dirac boost is
    stripped and are rejected with a diagnostic.
    """
    return _xl_decompose(_real_entries("M", M, (5, 5), DecompositionError))
