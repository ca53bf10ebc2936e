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
the textbook affine rule (T2, t2)(T1, t1) = (T2 T1, t2 + T2 t1).  `compose`
evaluates that rule in closed form and `compose_via_affine` as matrix
products; both factor the same product D2 D1, so they agree to rounding and
the second is a check of the first's bookkeeping, not an independent formula.
"""

from __future__ import annotations

import math

from ._names import _array_field, _float_entries, _Frozen, _ndarray
from .lorentz import _lorentz_entries
from .xlorentz import (XLParams, _dirac_coefficients, _xl_decompose, _xl_entries,
                       xl_decompose, xl_matrix)


class GroupParams(_Frozen):
    """Canonical parameters (alpha, a, xl) of one group element.

    Validated once, on construction, by the number rule of `_float_entries`:
    alpha into a float and a into a float tuple `_a`, which the group law
    reads; the field `a` is a read-only ndarray of it.
    """

    __slots__ = ("alpha", "_a", "xl")
    a = _array_field("a")

    def __init__(self, alpha=0.0, a=(0.0,) * 4, xl=XLParams()):
        init = object.__setattr__
        init(self, "alpha", _float_entries("alpha", alpha, ())[0])
        init(self, "_a", _float_entries("a", a, (4,)))
        if not isinstance(xl, XLParams):
            raise ValueError(f"xl must be an XLParams, got {type(xl).__name__}")
        init(self, "xl", xl)

    def __repr__(self):
        return f"GroupParams(alpha={self.alpha!r}, a={self.a!r}, xl={self.xl!r})"

    def __reduce__(self):
        return GroupParams, (self.alpha, self._a, self.xl)

    @classmethod
    def identity(cls) -> "GroupParams":
        return cls()


def element_doc(g: GroupParams) -> dict:
    """The parameters of g as a JSON-ready dict of Python floats."""
    return {"alpha": g.alpha, "a": list(g._a), "omega": list(g.xl._omega),
            "u": list(g.xl._u), "theta": list(g.xl._theta)}


def _vector(g: GroupParams) -> tuple:
    """The 15 parameters (theta, u, omega, a, alpha) as a tuple of floats."""
    return g.xl._theta + g.xl._u + g.xl._omega + g._a + (g.alpha,)


def _from_vector(v) -> GroupParams:
    return GroupParams(v[14], v[10:14], XLParams(v[6:10], v[3:6], v[0:3]))


def params_to_vector(g: GroupParams) -> np.ndarray:
    """15-vector (theta, u, omega, a, alpha) in generator-conjugate order."""
    return _ndarray(_vector(g), (15,))


def _translation(g: GroupParams) -> np.ndarray:
    """Translation 5-vector t = (a^0..a^3, alpha)."""
    return _ndarray(g._a + (g.alpha,), (5,))


# --- group operations --------------------------------------------------------

def compose(g2: GroupParams, g1: GroupParams) -> GroupParams:
    """Canonical parameters of the product g2 g1.

    D2 and D1, the extended-Lorentz 5x5 matrices of g2 and g1, are built once
    each.  Translation sector by the closed formulas, with Pi = D2^-1 = B D2^T B:

        alpha = alpha2 + alpha1 Pi[Gs,Gs] + a1^n Pi[P_n, Gs]
        a^m   = a2^m   + alpha1 Pi[Gs,P_m] + a1^n Pi[P_n, P_m],

    that is t = t2 + B D2 B t1 on t = (a, alpha).  The extended-Lorentz sector
    is xl_decompose(D2 D1), which fails (and this function with it) when the
    product leaves the factorizable set.  All in Python floats.
    """
    x2, x1 = g2.xl, g1.xl
    d2 = _xl_entries(x2._omega, _lorentz_entries(x2._u, x2._theta))
    d1 = _xl_entries(x1._omega, _lorentz_entries(x1._u, x1._theta))
    rows = (d2[0:5], d2[5:10], d2[10:15], d2[15:20], d2[20:25])
    a0, a1, a2, a3 = g1._a
    s0, s1, s2, s3, s4 = a0, -a1, -a2, -a3, g1.alpha  # B t1
    y0, y1, y2, y3, y4 = [r0 * s0 + r1 * s1 + r2 * s2 + r3 * s3 + r4 * s4
                          for r0, r1, r2, r3, r4 in rows]
    t0, t1, t2, t3 = g2._a
    return GroupParams(alpha=g2.alpha + y4, a=[t0 + y0, t1 - y1, t2 - y2, t3 - y3],
                       xl=_xl_decompose(_matmul5(rows, d1)))


def _matmul5(rows, d) -> list:
    """The 25 entries of the 5x5 product A M, row by row, from the rows of A
    and the entries d of M, row by row.  Written out per column: a nested
    comprehension over rows and column slices ran 40% more bytecodes."""
    (m00, m01, m02, m03, m04, m10, m11, m12, m13, m14, m20, m21, m22, m23, m24,
     m30, m31, m32, m33, m34, m40, m41, m42, m43, m44) = d
    e = []
    for a0, a1, a2, a3, a4 in rows:
        e += [a0 * m00 + a1 * m10 + a2 * m20 + a3 * m30 + a4 * m40,
              a0 * m01 + a1 * m11 + a2 * m21 + a3 * m31 + a4 * m41,
              a0 * m02 + a1 * m12 + a2 * m22 + a3 * m32 + a4 * m42,
              a0 * m03 + a1 * m13 + a2 * m23 + a3 * m33 + a4 * m43,
              a0 * m04 + a1 * m14 + a2 * m24 + a3 * m34 + a4 * m44]
    return e


def compose_via_affine(g2: GroupParams, g1: GroupParams) -> GroupParams:
    """Composition by the affine rule (T2, t2)(T1, t1) = (T2 T1, t2 + T2 t1),
    with T = B D B the action on translation 5-vectors."""
    from .xlorentz import BFORM
    T2, T1 = (BFORM @ xl_matrix(g.xl) @ BFORM for g in (g2, g1))
    t = _translation(g2) + T2 @ _translation(g1)
    xl = xl_decompose(BFORM @ (T2 @ T1) @ BFORM)
    return GroupParams(alpha=float(t[4]), a=t[:4], xl=xl)


def inverse(g: GroupParams) -> GroupParams:
    """Closed-form inverse from the parameters, with no 5x5 build.

    D^-1 = B D^T B, so the translation 5-vector is t' = -D^T t =
    -diag(Lambda^T, 1) W^T t, where, with sigma = diag(eta),

        (W^T t)_j  = t_j + sigma_j w_j (h w.t_P - s t_Gs)
        (W^T t)_Gs = (1 + h q) t_Gs - s w.t_P.

    Extended-Lorentz part: theta' = -theta, u' = -R3(-theta) u = Lambda[0, 1:],
    and omega transforms as a covector under the Lorentz part: omega' =
    -Lambda^{-1} omega = -eta Lambda^T eta omega, so W(omega') = E^{-1} W(-omega) E.
    """
    w0, w1, w2, w3 = g.xl._omega
    t0, t1, t2, t3 = g._a
    q, s, h = _dirac_coefficients(w0, w1, w2, w3)
    wt = w0 * t0 + w1 * t1 + w2 * t2 + w3 * t3
    c = h * wt - s * g.alpha
    p0, p1, p2, p3 = t0 - w0 * c, t1 + w1 * c, t2 + w2 * c, t3 + w3 * c  # (W^T t)_P
    theta = g.xl._theta
    (l00, l01, l02, l03, l10, l11, l12, l13,
     l20, l21, l22, l23, l30, l31, l32, l33) = _lorentz_entries(g.xl._u, theta)
    a = [-(l00 * p0 + l10 * p1 + l20 * p2 + l30 * p3),  # -(Lambda^T p)
         -(l01 * p0 + l11 * p1 + l21 * p2 + l31 * p3),
         -(l02 * p0 + l12 * p1 + l22 * p2 + l32 * p3),
         -(l03 * p0 + l13 * p1 + l23 * p2 + l33 * p3)]
    # z = Lambda^T sigma w, so omega' = -sigma z
    omega = [l10 * w1 + l20 * w2 + l30 * w3 - l00 * w0,
             -(l11 * w1 + l21 * w2 + l31 * w3 - l01 * w0),
             -(l12 * w1 + l22 * w2 + l32 * w3 - l02 * w0),
             -(l13 * w1 + l23 * w2 + l33 * w3 - l03 * w0)]
    xl = XLParams(omega, (l01, l02, l03), [-x for x in theta])
    return GroupParams(alpha=s * wt - (1.0 + h * q) * g.alpha, a=a, xl=xl)


# --- fundamental representation ----------------------------------------------

def _generator_row(x, y, p, q) -> list:
    """Row A of oplus(g) outside the (P, Gs) block, from x = D[i, :] and
    y = D[j, :], (i, j) the support of G_A: the ten minors
    x_k y_l - x_l y_k over the supports (k, l) of G_C in generator order,
    then the translation row p y + q x."""
    x0, x1, x2, x3, x4 = x
    y0, y1, y2, y3, y4 = y
    return [x3 * y2 - x2 * y3, x1 * y3 - x3 * y1, x2 * y1 - x1 * y2,
            x1 * y0 - x0 * y1, x2 * y0 - x0 * y2, x3 * y0 - x0 * y3,
            x4 * y0 - x0 * y4, x1 * y4 - x4 * y1, x2 * y4 - x4 * y2, x3 * y4 - x4 * y3,
            p * y0 + q * x0, p * y1 + q * x1, p * y2 + q * x2, p * y3 + q * x3,
            p * y4 + q * x4]


_ZEROS10 = (0.0,) * 10


def _oplus_entries(g: GroupParams) -> list:
    """The 225 entries of oplus(g), row by row, as Python floats, from one
    build of D.

    The ten extended-Lorentz generators act faithfully on the (P, Gs) block;
    their images G_A there form a basis of the B-antisymmetric matrices with
    disjoint supports {(i, j), (j, i)} and entries +-1.  Expanding
    D^{-1} G_A D = B D^T B G_A D in that basis gives the 10x10 block as the
    second exterior power of D:
        Ad[A, C] = D[i, k] D[j, l] - D[i, l] D[j, k],
    (i, j) the support of G_A and (k, l) that of G_C, each ordered so that
    G_A[i, j] B[i, i] = +1, which folds in the sign.  Row A of the
    translation block is (sum_b t_b F_b)[A, (P, Gs)] D, with t = (a, alpha)
    and F_b the adjoint matrices of P0..P3, Gs; that row of the sum is +-t
    entries on A's support, so it reads p D[j, :] + q D[i, :].  The (P, Gs)
    block is D.  Ten unrolled calls of `_generator_row`, each with the
    (i, j, p, q) of its generator: a loop over a table of them was slower.
    """
    x = g.xl
    d = _xl_entries(x._omega, _lorentz_entries(x._u, x._theta))
    r0, r1, r2, r3, r4 = d[0:5], d[5:10], d[10:15], d[15:20], d[20:25]
    t0, t1, t2, t3 = g._a
    t4 = g.alpha
    return [*_generator_row(r3, r2, t3, -t2), *_generator_row(r1, r3, t1, -t3),  # J1, J2
            *_generator_row(r2, r1, t2, -t1), *_generator_row(r1, r0, t1, t0),   # J3, K1
            *_generator_row(r2, r0, t2, t0), *_generator_row(r3, r0, t3, t0),    # K2, K3
            *_generator_row(r4, r0, -t4, t0), *_generator_row(r1, r4, t1, t4),   # Gam0, Gam1
            *_generator_row(r2, r4, t2, t4), *_generator_row(r3, r4, t3, t4),    # Gam2, Gam3
            *_ZEROS10, *r0, *_ZEROS10, *r1, *_ZEROS10, *r2, *_ZEROS10, *r3, *_ZEROS10, *r4]


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
    return _ndarray(_oplus_entries(g), (15, 15))


# --- Lie structure matrices ----------------------------------------------------

THETA_STEP = 1e-5  # central-difference step of theta_numeric


def _theta_numeric(g: GroupParams) -> list:
    """The 225 entries of theta_numeric(g), row by row, as Python floats."""
    e = []
    for r in range(15):
        dv = [0.0] * 15
        dv[r] = THETA_STEP
        plus = _vector(compose(_from_vector(dv), g))
        minus = _vector(compose(_from_vector([-x for x in dv]), g))
        e += [(p - m) / (2.0 * THETA_STEP) for p, m in zip(plus, minus)]
    return e


def theta_numeric(g: GroupParams) -> np.ndarray:
    """Structure matrix by central differences of the composition map.

    Entry [r, s] is the derivative of composed parameter s with respect to
    primed parameter r at the identity, for the primed element on the left.
    Requires compose to succeed near the identity in the primed slot.
    """
    return _ndarray(_theta_numeric(g), (15, 15))


_NAN10 = (math.nan,) * 10  # the unclaimed entries of a generator row
# the (a, alpha) rows: 0 on the extended-Lorentz columns, then the identity
_THETA_TAIL = tuple(float(c == r + 10) for r in range(5) for c in range(15))


def theta_claimed_mask() -> np.ndarray:
    """True where theta_closed makes a claim (everything outside the 10x10
    extended-Lorentz block, whose entries have no closed form here)."""
    return _ndarray([x == x for x in _theta_closed_entries(GroupParams())], (15, 15), "bool")


def _theta_closed_entries(g: GroupParams) -> list:
    """The 225 entries of theta_closed(g), row by row, as Python floats."""
    a0, a1, a2, a3 = g._a
    al = g.alpha
    z = al * 0.0  # the zeros of alpha eta carry the sign of alpha
    # theta^j row, a^k col: eps_jkm a^m (finite-difference verified)
    return [*_NAN10, 0.0, 0.0, a3, -a2, 0.0,  # J1
            *_NAN10, 0.0, -a3, 0.0, a1, 0.0,  # J2
            *_NAN10, 0.0, a2, -a1, 0.0, 0.0,  # J3
            # u^j row: a^j in the a^0 col, a^0 in the a^j col
            *_NAN10, a1, a0, 0.0, 0.0, 0.0,   # K1
            *_NAN10, a2, 0.0, a0, 0.0, 0.0,   # K2
            *_NAN10, a3, 0.0, 0.0, a0, 0.0,   # K3
            # omega_b row: alpha eta^{mb} in the a^m cols, a^b in the alpha col
            *_NAN10, -al, z, z, z, a0,        # Gam0
            *_NAN10, z, al, z, z, a1,         # Gam1
            *_NAN10, z, z, al, z, a2,         # Gam2
            *_NAN10, z, z, z, al, a3,         # Gam3
            *_THETA_TAIL]


def theta_closed(g: GroupParams) -> np.ndarray:
    """Closed-form structure-matrix entries; NaN on the unclaimed block.

    Claimed region: all rows of the a- and alpha-columns, and the a/alpha
    rows of every column.  Entries without a listed formula are exact zeros
    of the composition rule and are claimed as 0.
    """
    return _ndarray(_theta_closed_entries(g), (15, 15))
