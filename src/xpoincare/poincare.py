"""The full 15-parameter group: composition, inversion, the 15x15
fundamental representation, and the Lie structure matrices.

A group element carries parameters (alpha, a, omega, u, theta) and realizes

    M(g) = C(alpha) V(a) W(omega) L(u) R(theta)

scalar translation, spacetime translation, Dirac boost, Lorentz boost,
rotation, in that order.  The parameter 15-vector used by the structure
matrices lists the parameters in the order conjugate to the generator
ordering:

    index  0..2    theta^1..theta^3   (J)
    index  3..5    u^1..u^3           (K)
    index  6..9    omega_0..omega_3   (Gam)
    index 10..13   a^0..a^3           (P)
    index 14       alpha              (Gs)

Semidirect structure: the extended-Lorentz sector acts on the translation
5-vector t = (a, alpha) through T(g) = B D(g) B, where D is the 5x5 matrix of
the extended-Lorentz part and B the invariant form.  T is the action on
translation parameters (contravariant index placement); composition is then
the textbook affine rule (T2, t2)(T1, t1) = (T2 T1, t2 + T2 t1).  The closed
translation-composition formulas in `compose` are algebraically identical to
that affine rule; the test suite verifies both routes against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import _F_FLOAT, EPS3, ETA
from .lorentz import _ETA_DIAG, rapidity
from .xlorentz import (_BDIAG, BFORM, XLParams, _frozen_array, _xl_factors,
                       xl_decompose, xl_matrix)


@dataclass(frozen=True)
class GroupParams:
    """Canonical parameters (alpha, a, xl) of one group element."""

    alpha: float = 0.0
    a: np.ndarray = field(default_factory=lambda: np.zeros(4))
    xl: XLParams = field(default_factory=XLParams)

    def __post_init__(self):
        a = _frozen_array("a", self.a, (4,))
        try:
            alpha = float(self.alpha)
        except OverflowError:  # an int beyond the float range
            alpha = math.inf
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def identity(cls) -> "GroupParams":
        return cls()


def params_to_vector(g: GroupParams) -> np.ndarray:
    """15-vector (theta, u, omega, a, alpha) in generator-conjugate order."""
    return np.concatenate([g.xl.theta, g.xl.u, g.xl.omega, g.a, [g.alpha]])


def vector_to_params(v) -> GroupParams:
    v = np.asarray(v, dtype=float)
    if v.shape != (15,):
        raise ValueError(f"parameter vector must have shape (15,), got {v.shape}")
    return GroupParams(alpha=float(v[14]), a=v[10:14],
                       xl=XLParams(omega=v[6:10], u=v[3:6], theta=v[0:3]))


# --- affine (semidirect) realization ----------------------------------------

@dataclass(frozen=True)
class AffineRep:
    """Faithful affine form: x -> M x + t on translation-parameter 5-vectors.

    t is (a^0..a^3, alpha); M = B D B preserves B.
    """

    M: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M", _frozen_array("M", self.M, (5, 5)))
        object.__setattr__(self, "t", _frozen_array("t", self.t, (5,)))


def _translation(g: GroupParams) -> np.ndarray:
    return np.array([*g.a.tolist(), g.alpha])


def translation_action(xl: XLParams) -> np.ndarray:
    """Action of the extended-Lorentz part on translation parameters: B D B."""
    return BFORM @ xl_matrix(xl) @ BFORM


def to_affine(g: GroupParams) -> AffineRep:
    return AffineRep(translation_action(g.xl), np.concatenate([g.a, [g.alpha]]))


def from_affine(rep: AffineRep) -> GroupParams:
    """Recover canonical parameters; propagates xl_decompose rejection."""
    xl = xl_decompose(BFORM @ rep.M @ BFORM)
    return GroupParams(alpha=float(rep.t[4]), a=rep.t[:4], xl=xl)


# --- group operations --------------------------------------------------------

def compose(g2: GroupParams, g1: GroupParams) -> GroupParams:
    """Canonical parameters of the product g2 g1.

    D2 and D1, the extended-Lorentz 5x5 matrices of g2 and g1, are built once
    each.  Translation sector by the closed formulas, with Pi = D2^-1 = B D2^T B:

        alpha = alpha2 + alpha1 Pi[Gs,Gs] + a1^n Pi[P_n, Gs]
        a^m   = a2^m   + alpha1 Pi[Gs,P_m] + a1^n Pi[P_n, P_m],

    that is t = t2 + B D2 B t1 on t = (a, alpha).  The extended-Lorentz sector
    is xl_decompose(D2 D1), which fails (and this function with it) when the
    product leaves the factorizable set.
    """
    d2, d1 = xl_matrix(g2.xl), xl_matrix(g1.xl)
    t = _translation(g2) + _BDIAG * (d2 @ (_BDIAG * _translation(g1)))
    return GroupParams(alpha=float(t[4]), a=t[:4], xl=xl_decompose(d2 @ d1))


def compose_via_affine(g2: GroupParams, g1: GroupParams) -> GroupParams:
    """Independent composition route through the affine realization."""
    r2, r1 = to_affine(g2), to_affine(g1)
    return from_affine(AffineRep(r2.M @ r1.M, r2.t + r2.M @ r1.t))


def inverse(g: GroupParams) -> GroupParams:
    """Closed-form inverse, from one build of D and Lambda = L(u) R(theta).

    Translation 5-vector t' = -D(g)^T t (the closed form of -T(g)^{-1} t).
    Extended-Lorentz part: theta' = -theta, u' = -R3(-theta) u = Lambda[0, 1:],
    and omega transforms as a covector under the Lorentz part: omega' =
    -Lambda^{-1} omega = -eta Lambda^T eta omega, so W(omega') = E^{-1} W(-omega) E.
    """
    d, lam = _xl_factors(g.xl)
    t_inv = -(d.T @ _translation(g))
    xl = XLParams(-(_ETA_DIAG * (lam.T @ (_ETA_DIAG * g.xl.omega))), lam[0, 1:],
                  -g.xl.theta)
    return GroupParams(alpha=float(t_inv[4]), a=t_inv[:4], xl=xl)


# --- fundamental representation ----------------------------------------------

# The ten extended-Lorentz generators act faithfully on the (P, Gs) block;
# their images G_A there form a basis of the B-antisymmetric matrices with
# disjoint supports (Frobenius-orthogonal, squared norm 2), so the 10x10
# sector of the representation is read off exactly by expanding D^{-1} G_A D
# as coefficients 0.5 <G_B, .>.
_G5 = _F_FLOAT[:10, 10:, 10:]
_G5_DUAL = 0.5 * _G5.reshape(10, 25)
# t = (a, alpha) -> the only block off the identity of the translation factor
_F_TRANS = _F_FLOAT[10:, :10, 10:].reshape(5, 50)


def _xl_adjoint10(d5: np.ndarray) -> np.ndarray:
    d_inv = _BDIAG[:, None] * d5.T * _BDIAG
    return (d_inv @ _G5 @ d5).reshape(10, 25) @ _G5_DUAL.T


def oplus(g: GroupParams) -> np.ndarray:
    """15x15 fundamental representation matrix of g in generator order.

    Rows index the transformed generator, columns the expansion: conjugation
    by g sends X_r to sum_s O[r, s] X_s.  Product of the translation factor
    and the block-diagonal extended-Lorentz factor.  The translation factor
    is exactly I + alpha F_Gs + a^m F_Pm (the adjoint matrices of the abelian
    sector are commuting and nilpotent of order two); its Gam rows carry
    entry(Gam^m, P_b) = alpha eta^{mb} and entry(Gam^m, Gs) = a^m, its J and
    K rows the orbital couplings into the P columns.
    """
    d5 = xl_matrix(g.xl)
    out = np.zeros((15, 15))
    out[:10, :10] = _xl_adjoint10(d5)
    out[:10, 10:] = (_translation(g) @ _F_TRANS).reshape(10, 5) @ d5
    out[10:, 10:] = d5
    return out


def oplus_pure_factor_vector(g: GroupParams) -> list[np.ndarray]:
    """Algebra coefficient vectors of the five canonical factors of g.

    Order C(alpha), V(a), W(omega), L(u), R(theta); exp_ad of each vector is
    the oracle for the corresponding factor of oplus.
    """
    vs = []
    for sl, coeffs in ((slice(14, 15), [g.alpha]), (slice(10, 14), g.a),
                       (slice(6, 10), g.xl.omega), (slice(3, 6), rapidity(g.xl.u)),
                       (slice(0, 3), g.xl.theta)):
        v = np.zeros(15)
        v[sl] = coeffs
        vs.append(v)
    return vs


# --- Lie structure matrices ----------------------------------------------------

THETA_STEP = 1e-5  # central-difference step of theta_numeric


def theta_numeric(g: GroupParams) -> np.ndarray:
    """Structure matrix by central differences of the composition map.

    Entry [r, s] is the derivative of composed parameter s with respect to
    primed parameter r at the identity, for the primed element on the left.
    Requires compose to succeed near the identity in the primed slot.
    """
    out = np.zeros((15, 15))
    for r in range(15):
        dv = np.zeros(15)
        dv[r] = THETA_STEP
        plus = params_to_vector(compose(vector_to_params(dv), g))
        minus = params_to_vector(compose(vector_to_params(-dv), g))
        out[r, :] = (plus - minus) / (2.0 * THETA_STEP)
    return out


_THETA_FIXED = np.full((15, 15), np.nan)  # the entries of theta_closed free of g
_THETA_FIXED[:, 10:] = _THETA_FIXED[10:, :10] = 0.0
_THETA_FIXED[10:, 10:] = np.eye(5)        # a^b row, a^m col: delta; alpha-alpha: 1
_THETA_FIXED.flags.writeable = False


def theta_claimed_mask() -> np.ndarray:
    """True where theta_closed makes a claim (everything outside the 10x10
    extended-Lorentz block, whose entries have no closed form here)."""
    return ~np.isnan(_THETA_FIXED)


def theta_closed(g: GroupParams) -> np.ndarray:
    """Closed-form structure-matrix entries; NaN on the unclaimed block.

    Claimed region: all rows of the a- and alpha-columns, and the a/alpha
    rows of every column.  Entries without a listed formula are exact zeros
    of the composition rule and are claimed as 0.
    """
    t = _THETA_FIXED.copy()
    t[6:10, 14] = g.a                                 # omega_m row, alpha col: a^m
    t[6:10, 10:14] = g.alpha * ETA                    # omega_b row, a^m col: alpha eta^{mb}
    t[3:6, 10] = g.a[1:]                              # u^j row, a^0 col: a^j
    t[3, 11] = t[4, 12] = t[5, 13] = g.a[0]           # u^j row, a^j col: a^0
    # theta^j row, a^k col: eps_jkm a^m (finite-difference verified)
    t[0:3, 11:14] = EPS3 @ g.a[1:]
    return t
