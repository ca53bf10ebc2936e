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

`compose`, `inverse` and the structure matrix `theta_numeric` run on Python
floats; numpy is imported by the functions that take or return arrays, and
the tables of `oplus` and `theta_closed` are built on their first call.
"""

from __future__ import annotations

import functools
import math
from types import SimpleNamespace

from .lorentz import _lorentz_entries, rapidity
from .xlorentz import (_BDIAG, XLParams, _array_field, _dirac_coefficients,
                       _float_entries, _Frozen, _xl_decompose, _xl_entries,
                       xl_decompose, xl_matrix)


class GroupParams(_Frozen):
    """Canonical parameters (alpha, a, xl) of one group element.

    Validated once, on construction: alpha into a float and a into a float
    tuple `_a`, which the group law reads; the field `a` is a read-only
    ndarray of it.
    """

    __slots__ = ("alpha", "_a", "xl")
    a = _array_field("a")

    def __init__(self, alpha=0.0, a=(0.0,) * 4, xl=XLParams()):
        a = _float_entries("a", a, (4,))
        try:
            alpha = float(alpha)
        except OverflowError:  # an int beyond the float range
            alpha = math.inf
        except (TypeError, ValueError):  # a string, a dict, None, a list
            raise ValueError("alpha must be a number") from None
        if not math.isfinite(alpha):
            raise ValueError("alpha must be finite")
        init = object.__setattr__
        init(self, "alpha", alpha)
        init(self, "_a", a)
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
    import numpy as np
    return np.array(_vector(g))


def vector_to_params(v) -> GroupParams:
    import numpy as np
    v = np.asarray(v, dtype=float)
    if v.shape != (15,):
        raise ValueError(f"parameter vector must have shape (15,), got {v.shape}")
    return _from_vector(v.tolist())


def _translation(g: GroupParams) -> np.ndarray:
    """Translation 5-vector t = (a^0..a^3, alpha)."""
    import numpy as np
    return np.array(g._a + (g.alpha,))


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
    and the entries d of M, row by row."""
    cols = (d[0::5], d[1::5], d[2::5], d[3::5], d[4::5])
    return [a0 * b0 + a1 * b1 + a2 * b2 + a3 * b3 + a4 * b4
            for a0, a1, a2, a3, a4 in rows for b0, b1, b2, b3, b4 in cols]


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
    lam = _lorentz_entries(g.xl._u, theta)
    cols = [lam[j::4] for j in range(4)]
    a = [-(l0 * p0 + l1 * p1 + l2 * p2 + l3 * p3) for l0, l1, l2, l3 in cols]
    # z = Lambda^T sigma w, so omega' = -sigma z
    z = [l1 * w1 + l2 * w2 + l3 * w3 - l0 * w0 for l0, l1, l2, l3 in cols]
    xl = XLParams([z[0], -z[1], -z[2], -z[3]], lam[1:4], [-x for x in theta])
    return GroupParams(alpha=s * wt - (1.0 + h * q) * g.alpha, a=a, xl=xl)


# --- fundamental representation ----------------------------------------------

# The ten extended-Lorentz generators act faithfully on the (P, Gs) block;
# their images G_A there form a basis of the B-antisymmetric matrices with
# disjoint supports {(i, j), (j, i)}, i < j, and entries +-1.  Expanding
# D^{-1} G_A D = B D^T B G_A D in that basis gives the 10x10 sector as the
# second exterior power of D:
#     Ad[A, C] = sigma_A sigma_C (D[i, k] D[j, l] - D[i, l] D[j, k]),
# (i, j) the support of G_A, (k, l) that of G_C, sigma_A = G_A[i, j] B[i, i].
# minor_plus/minor_minus index the two products in outer(D, D).ravel(), with
# the sign folded in by swapping them.


@functools.cache
def _tables() -> SimpleNamespace:
    """The numpy tables of oplus and theta_closed, built on their first call:
    g5, the G_A; f_trans, t = (a, alpha) -> the only block off the identity
    of the translation factor; minor_plus and minor_minus; and theta_fixed,
    the entries of theta_closed free of g, with eta and eps3."""
    import numpy as np
    from .algebra import _F_FLOAT, EPS3, ETA
    g5 = _F_FLOAT[:10, 10:, 10:]
    support = []
    for G in g5:
        i, j = (int(x) for x in np.argwhere(G)[0])
        support.append((i, j, G[i, j] * _BDIAG[i]))
    plus, minus = np.empty((2, 10, 10), dtype=np.intp)
    for A, (i, j, sa) in enumerate(support):
        for C, (k, l, sc) in enumerate(support):
            pair = ((5 * i + k) * 25 + 5 * j + l, (5 * i + l) * 25 + 5 * j + k)
            plus[A, C], minus[A, C] = pair if sa * sc > 0 else pair[::-1]
    fixed = np.full((15, 15), np.nan)
    fixed[:, 10:] = fixed[10:, :10] = 0.0
    fixed[10:, 10:] = np.eye(5)        # a^b row, a^m col: delta; alpha-alpha: 1
    eps3 = EPS3.astype(float)
    for table in (plus, minus, fixed, eps3):
        table.flags.writeable = False
    return SimpleNamespace(g5=g5, f_trans=_F_FLOAT[10:, :10, 10:].reshape(5, 50),
                           minor_plus=plus, minor_minus=minus,
                           theta_fixed=fixed, eta=ETA, eps3=eps3)


def _xl_adjoint10(d5: np.ndarray) -> np.ndarray:
    tables = _tables()
    d = d5.ravel()
    o = (d[:, None] * d).ravel()
    return o[tables.minor_plus] - o[tables.minor_minus]


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
    import numpy as np
    d5 = xl_matrix(g.xl)
    out = np.zeros((15, 15))
    out[:10, :10] = _xl_adjoint10(d5)
    out[:10, 10:] = (_translation(g) @ _tables().f_trans).reshape(10, 5) @ d5
    out[10:, 10:] = d5
    return out


def oplus_pure_factor_vector(g: GroupParams) -> list[np.ndarray]:
    """Algebra coefficient vectors of the five canonical factors of g.

    Order C(alpha), V(a), W(omega), L(u), R(theta); exp_ad of each vector is
    the oracle for the corresponding factor of oplus.
    """
    import numpy as np
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


def _theta_numeric(g: GroupParams) -> list:
    """The rows of theta_numeric(g) as lists of Python floats."""
    rows = []
    for r in range(15):
        dv = [0.0] * 15
        dv[r] = THETA_STEP
        plus = _vector(compose(_from_vector(dv), g))
        minus = _vector(compose(_from_vector([-x for x in dv]), g))
        rows.append([(p - m) / (2.0 * THETA_STEP) for p, m in zip(plus, minus)])
    return rows


def theta_numeric(g: GroupParams) -> np.ndarray:
    """Structure matrix by central differences of the composition map.

    Entry [r, s] is the derivative of composed parameter s with respect to
    primed parameter r at the identity, for the primed element on the left.
    Requires compose to succeed near the identity in the primed slot.
    """
    import numpy as np
    return np.array(_theta_numeric(g))


def theta_claimed_mask() -> np.ndarray:
    """True where theta_closed makes a claim (everything outside the 10x10
    extended-Lorentz block, whose entries have no closed form here)."""
    import numpy as np
    return ~np.isnan(_tables().theta_fixed)


def theta_closed(g: GroupParams) -> np.ndarray:
    """Closed-form structure-matrix entries; NaN on the unclaimed block.

    Claimed region: all rows of the a- and alpha-columns, and the a/alpha
    rows of every column.  Entries without a listed formula are exact zeros
    of the composition rule and are claimed as 0.
    """
    import numpy as np
    tables = _tables()
    a = np.array(g._a)
    t = tables.theta_fixed.copy()
    t[6:10, 14] = a                                   # omega_m row, alpha col: a^m
    t[6:10, 10:14] = g.alpha * tables.eta             # omega_b row, a^m col: alpha eta^{mb}
    t[3:6, 10] = a[1:]                                # u^j row, a^0 col: a^j
    t[3, 11] = t[4, 12] = t[5, 13] = a[0]             # u^j row, a^j col: a^0
    # theta^j row, a^k col: eps_jkm a^m (finite-difference verified)
    t[0:3, 11:14] = tables.eps3 @ a[1:]
    return t
