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
from dataclasses import dataclass, field

import numpy as np

from .algebra import ETA
from .lorentz import (DecompositionError, _lorentz_entries, _lorentz_params,
                      trig_h, trig_s)

BFORM = np.zeros((5, 5))
BFORM[:4, :4] = -ETA
BFORM[4, 4] = 1.0
BFORM.flags.writeable = False
_BDIAG = np.diag(BFORM)

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


_IDENTITY4 = (1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0,
              0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def _frozen_array(name: str, value, shape: tuple) -> np.ndarray:
    """Read-only float copy of a parameter array, checked for `shape` and
    finiteness; every rejection is a ValueError naming the field `name`."""
    try:
        v = np.array(value, dtype=float)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be finite") from None
    except (TypeError, ValueError):  # ragged nesting, a string, a dict
        raise ValueError(f"{name} must be a float array of shape {shape}") from None
    if v.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {v.shape}")
    if not all(map(math.isfinite, v.ravel().tolist())):
        raise ValueError(f"{name} must be finite")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class XLParams:
    """Extended-Lorentz parameters (omega, u, theta) of W(omega) L(u) R(theta)."""

    omega: np.ndarray = field(default_factory=lambda: np.zeros(4))
    u: np.ndarray = field(default_factory=lambda: np.zeros(3))
    theta: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        object.__setattr__(self, "omega", _frozen_array("omega", self.omega, (4,)))
        object.__setattr__(self, "u", _frozen_array("u", self.u, (3,)))
        object.__setattr__(self, "theta", _frozen_array("theta", self.theta, (3,)))

    @classmethod
    def identity(cls) -> "XLParams":
        return cls()


def xl_matrix(p: XLParams) -> np.ndarray:
    """5x5 matrix W(omega) L(u) R(theta), in closed form; u = theta = 0 gives
    the Dirac boost W(omega)."""
    lam = _lorentz_entries(p.u.tolist(), p.theta.tolist())
    return np.array(_xl_entries(p.omega.tolist(), lam)).reshape(5, 5)


def b_residual(M) -> float:
    """max |M^T B M - B|; B is diagonal, so M^T B is a column scaling."""
    M = np.asarray(M, dtype=float)
    X = (M.T * _BDIAG) @ M
    X -= BFORM
    return float(np.abs(X, out=X).max())


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


def xl_decompose(M) -> XLParams:
    """Factor a 5x5 matrix as W(omega) L(u) R(theta) and return the parameters.

    Preconditions: M preserves B within B_TOL and lies in the image of
    xl_matrix.  Matrices outside the reachable set (including any with
    M[Gs, Gs] < -1) fail the block-diagonality gate after the Dirac boost is
    stripped and are rejected with a diagnostic.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (5, 5):
        raise DecompositionError(f"expected a 5x5 matrix, got {M.shape}")
    res = b_residual(M)
    if not res < B_TOL:  # `not ... <`: NaN fails every gate
        raise DecompositionError(
            f"B-form residual {res:.3e} exceeds {B_TOL:.1e}: not in the group")
    col = M[:, 4].tolist()
    omega = _omega_from_gs_column(*col)
    w0, w1, w2, w3 = omega
    E = np.array(_xl_entries((-w0, -w1, -w2, -w3), _IDENTITY4)).reshape(5, 5) @ M
    e0, e1, e2, e3, e4 = E.tolist()
    off = max(abs(e0[4]), abs(e1[4]), abs(e2[4]), abs(e3[4]), abs(e4[0]),
              abs(e4[1]), abs(e4[2]), abs(e4[3]), abs(e4[4] - 1.0))
    if not off <= BLOCK_TOL:
        v0, v1, v2, v3, _ = col  # the branch of the Gs column, by the sign of qv
        qv = -v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3
        branch = "trig" if qv < 0.0 else "hyperbolic" if qv > 0.0 else "null"
        raise DecompositionError(
            f"residual {off:.3e} after Dirac-boost stripping "
            f"(branch '{branch}'): matrix outside the reachable set")
    u, theta = _lorentz_params(E[:4, :4], [e0[:4], e1[:4], e2[:4], e3[:4]])
    return XLParams(omega, u, theta)
