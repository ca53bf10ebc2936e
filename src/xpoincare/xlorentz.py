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
from .lorentz import (DecompositionError, lorentz_decompose, lorentz_matrix,
                      trig_h, trig_s)

BFORM = np.zeros((5, 5))
BFORM[:4, :4] = -ETA
BFORM[4, 4] = 1.0
BFORM.flags.writeable = False
_BDIAG = np.diag(BFORM)

NULL_BRANCH_TOL = 1e-12
B_TOL = 1e-8        # B-form residual gate of xl_decompose
BLOCK_TOL = 1e-7    # block-diagonality gate after Dirac-boost stripping


def omega_square(omega) -> float:
    """q = omega_nu omega^nu under eta = diag(-1, 1, 1, 1)."""
    omega = np.asarray(omega, dtype=float)
    return float(omega @ (ETA @ omega))


def omega_branch(omega) -> str:
    """Branch label of omega: 'trig', 'hyperbolic', or 'null'."""
    q = omega_square(omega)
    if abs(q) < NULL_BRANCH_TOL:
        return "null"
    return "hyperbolic" if q > 0 else "trig"


def dirac_generator5(omega) -> np.ndarray:
    """Infinitesimal Dirac boost on the (P, Gs) block."""
    omega = np.asarray(omega, dtype=float)
    g = np.zeros((5, 5))
    g[:4, 4] = -omega
    g[4, :4] = -(ETA @ omega)
    return g


def dirac_boost_mat5(omega) -> np.ndarray:
    """Closed-form Dirac boost W(omega) = exp(g), g = dirac_generator5(omega),
    written entry by entry from W = 1 + s g + h g^2."""
    w0, w1, w2, w3 = np.asarray(omega, dtype=float).tolist()
    q = w1 * w1 + w2 * w2 + w3 * w3 - w0 * w0
    s, h = trig_s(q), trig_h(q)
    h0, h1, h2, h3 = h * w0, h * w1, h * w2, h * w3
    return np.array([1.0 - h0 * w0, h0 * w1, h0 * w2, h0 * w3, -s * w0,
                     -h1 * w0, 1.0 + h1 * w1, h1 * w2, h1 * w3, -s * w1,
                     -h2 * w0, h2 * w1, 1.0 + h2 * w2, h2 * w3, -s * w2,
                     -h3 * w0, h3 * w1, h3 * w2, 1.0 + h3 * w3, -s * w3,
                     s * w0, -s * w1, -s * w2, -s * w3, 1.0 + h * q]).reshape(5, 5)


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
    v.flags.writeable = False
    return v


@dataclass(frozen=True)
class XLParams:
    """Extended-Lorentz parameters (omega, u, theta) of W(omega) L(u) R(theta)."""

    omega: np.ndarray = field(default_factory=lambda: np.zeros(4))
    u: np.ndarray = field(default_factory=lambda: np.zeros(3))
    theta: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        for name, n in (("omega", 4), ("u", 3), ("theta", 3)):
            object.__setattr__(self, name, _frozen_array(name, getattr(self, name), (n,)))

    @classmethod
    def identity(cls) -> "XLParams":
        return cls()


def _xl_factors(p: XLParams) -> tuple[np.ndarray, np.ndarray]:
    """D = W(omega) diag(Lambda, 1) and Lambda = L(u) R(theta), each built once."""
    lam = lorentz_matrix(p.u, p.theta)
    d = dirac_boost_mat5(p.omega)
    d[:, :4] = d[:, :4] @ lam
    return d, lam


def xl_matrix(p: XLParams) -> np.ndarray:
    """5x5 matrix W(omega) L(u) R(theta)."""
    return _xl_factors(p)[0]


def b_residual(M) -> float:
    """max |M^T B M - B|; B is diagonal, so M^T B is a column scaling."""
    M = np.asarray(M, dtype=float)
    return float(np.abs((M.T * _BDIAG) @ M - BFORM).max())


def _omega_from_gs_column(v: np.ndarray) -> np.ndarray:
    """Invert (-s(q) omega, c(q)) for omega; canonical trig range [0, pi].

    One rule on every branch: angle over the measured sine.  The P part
    vP = -s(q) omega has pseudo-norm sq = sqrt|qv|, which is sin r (trig) or
    sinh chi (hyperbolic); the angle is atan2(sq, c) or asinh(sq), and
    omega = -(angle / sq) vP, with angle / sq -> 1 on the null cone.  The
    sine is never recomputed from the angle.  The one special case is the
    trig branch point r = pi, where the P part is rounding and carries no
    direction: a canonical unit direction is taken there, which is valid
    because at r = pi the residual factor is absorbed into the Lorentz block.
    """
    vP = v[:4]
    v0, v1, v2, v3, c = v.tolist()
    qv = -v0 * v0 + v1 * v1 + v2 * v2 + v3 * v3  # = -sin^2 r (trig), +sinh^2 chi (hyp.)
    sq = math.sqrt(abs(qv))
    # 1e-12: below it, on the far side, the P part is rounding and has no direction
    if sq <= 1e-12 and c < 0.0:
        return np.array([math.atan2(sq, c), 0.0, 0.0, 0.0])
    ang = math.atan2(sq, c) if qv < 0.0 else math.asinh(sq)
    return -vP if sq == 0.0 else -(ang / sq) * vP


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
    omega = _omega_from_gs_column(M[:, 4])
    E = dirac_boost_mat5(-omega) @ M
    e0, e1, e2, e3, e4 = E.tolist()
    off = max(abs(e0[4]), abs(e1[4]), abs(e2[4]), abs(e3[4]), abs(e4[0]),
              abs(e4[1]), abs(e4[2]), abs(e4[3]), abs(e4[4] - 1.0))
    if not off <= BLOCK_TOL:
        raise DecompositionError(
            f"residual {off:.3e} after Dirac-boost stripping "
            f"(branch '{omega_branch(omega)}'): matrix outside the reachable set")
    u, theta = lorentz_decompose(E[:4, :4])
    return XLParams(omega, u, theta)
