"""Exact Lie-algebra layer for the 15-generator extended Poincare algebra.

Generator basis, frozen ordering (this ordering fixes the row/column layout of
every 15x15 matrix in the package):

    ordinal  0..2   J1  J2  J3    rotations
    ordinal  3..5   K1  K2  K3    Lorentz boosts
    ordinal  6..9   Gam0..Gam3    Dirac boosts
    ordinal 10..13  P0..P3        spacetime translations
    ordinal 14      Gs            scalar translation

Commutators are written [X_a, X_b] = i f_ab^c X_c with real structure
constants f; every f value is an exact integer in {-1, 0, +1}.  The group law
of `poincare` reads the table with one global sign, the i of this convention:
for g = exp(eps e_a) and h = exp(eps e_b) in parameter coordinates, the
parameters of g h g^-1 h^-1 are -eps^2 f_ab^c + O(eps^3).  The metric is
eta = diag(-1, +1, +1, +1).  This signature is forced: it is the unique
diagonal signature for which the commutator table below satisfies the Jacobi
identity exactly (see tests), and it makes the invariant quadratic form on the
(P, Gs) block equal to diag(+1, -1, -1, -1, +1).

The table is kept as its 100 nonzero entries (a, b, c, f) in Python ints, and
the exact identities (antisymmetry, Jacobi, Casimir invariance) and the
serialization run on those entries.
"""

from __future__ import annotations

import collections
import functools
import itertools
from enum import IntEnum

from ._names import GENERATOR_NAMES, _float_entries, _Frozen, _ndarray, _read


GeneratorIndex = IntEnum("GeneratorIndex", [(n.upper(), i) for i, n in enumerate(GENERATOR_NAMES)],
                         module=__name__)
GeneratorIndex.__doc__ = "The 15 basis generators in frozen canonical order."

# Minkowski metric, mostly-plus.  Normative for the whole package.
_ETA_DIAG = (-1, 1, 1, 1)


def _eps3(i, j, k) -> int:
    """Levi-Civita symbol on 0..2, eps(0, 1, 2) = +1."""
    return (i - j) * (j - k) * (k - i) // 2


class StructureConstants(_Frozen):
    """Exact integer structure constants f_ab^c, kept as the nonzero entries
    (a, b, c, f); `dense` is the table f[a, b, c] as a read-only int64 array,
    made on first read."""

    __slots__ = ("_rows", "_dense")

    def __init__(self, rows):
        """`rows`: (a, b, c, f) ordinal tuples, each pair in one order or in
        both.  A missing partner (b, a, c, -f) is implied, a listed one is
        kept as listed, and zero values are dropped."""
        listed = {(a, b, c): v for a, b, c, v in rows}
        f = {(b, a, c): -v for (a, b, c), v in listed.items()} | listed
        object.__setattr__(self, "_rows", tuple(sorted(k + (v,) for k, v in f.items() if v)))
        object.__setattr__(self, "_dense", None)

    @property
    def dense(self) -> np.ndarray:
        if self._dense is None:
            e = [0] * 3375
            for a, b, c, v in self._rows:
                e[225 * a + 15 * b + c] = v
            f = _ndarray(e, (15, 15, 15), "int64")
            f.flags.writeable = False
            object.__setattr__(self, "_dense", f)
        return self._dense

    def __repr__(self):
        return f"StructureConstants(dense={self.dense!r})"

    def __reduce__(self):
        return StructureConstants, (self._rows,)

    def rows(self, both_orders: bool = False):
        """Nonzero entries as (a, b, c, f) ordinal tuples, lexicographic.

        With both_orders=False only the a < b representative of each
        antisymmetric pair is listed.
        """
        return [r for r in self._rows if both_orders or r[0] < r[1]]


def _build_rows():
    """Each bracket [X_a, X_b] = i f X_c once, as (a, b, c, f)."""
    J, K, GAM, P, GS = 0, 3, 6, 10, 14
    for j, k, m in itertools.permutations(range(3)):  # eps is +-1 on exactly these
        e = _eps3(j, k, m)
        if j < k:
            yield J + j, J + k, J + m, e                  # [Jj, Jk] = i eps Jm
            yield K + j, K + k, J + m, -e                 # [Kj, Kk] = -i eps Jm
            yield GAM + 1 + j, GAM + 1 + k, J + m, -e     # [Gj, Gk] = -i eps Jm
        yield J + j, K + k, K + m, e                      # [Jj, Kk] = i eps Km
        yield GAM + 1 + j, J + k, GAM + 1 + m, e          # [Gj, Jk] = i eps Gm
        yield J + j, P + 1 + k, P + 1 + m, e              # [Jj, Pk] = i eps Pm
    for k in range(1, 4):
        yield GAM, GAM + k, K + k - 1, 1     # [G0, Gk] = i Kk
        yield GAM, K + k - 1, GAM + k, -1    # [G0, Kk] = -i Gk
        yield GAM + k, K + k - 1, GAM, -1    # [Gj, Kk] = -i d_jk G0
        yield K + k - 1, P, P + k, -1        # [Kj, P0] = -i Pj
        yield K + k - 1, P + k, P, -1        # [Kj, Pk] = -i d_jk P0
    for mu in range(4):
        yield GAM + mu, P + mu, GS, -1                      # [Gmu, Pnu] = -i d Gs
        yield GAM + mu, GS, P + mu, -_ETA_DIAG[mu]          # [Gmu, Gs] = -i eta Pnu


STRUCTURE_CONSTANTS = StructureConstants(_build_rows())


JacobiReport = collections.namedtuple("JacobiReport", ("max_violation", "violations"))
JacobiReport.__doc__ = """Largest Jacobi defect, and one (a_name, b_name, c_name, worst_e_name,
value) tuple per violating triple."""


def jacobi_check(table: StructureConstants | None = None) -> JacobiReport:
    """Evaluate the Jacobi identity over all 455 unordered generator triples.

    For a < b < c the defect is t_e = f_ab^d f_dc^e + f_bc^d f_da^e +
    f_ca^d f_db^e, summed over the nonzero entries; a triple with a nonzero
    t is reported at the first e of largest |t_e|.
    """
    brackets = {}  # (a, b) -> [(c, f_ab^c)]
    for a, b, c, v in (table or STRUCTURE_CONSTANTS).rows(both_orders=True):
        brackets.setdefault((a, b), []).append((c, v))
    violations = []
    worst = 0
    for a, b, c in itertools.combinations(range(15), 3):
        t = [0] * 15
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for d, u in brackets.get((x, y), ()):
                for e, w in brackets.get((d, z), ()):
                    t[e] += u * w
        size = [abs(v) for v in t]
        m = max(size)
        if m:
            e = size.index(m)
            violations.append((GENERATOR_NAMES[a], GENERATOR_NAMES[b],
                               GENERATOR_NAMES[c], GENERATOR_NAMES[e], t[e]))
            worst = max(worst, m)
    return JacobiReport(worst, violations)


@functools.cache
def _float_table() -> np.ndarray:
    """STRUCTURE_CONSTANTS.dense as float64, made once, on first use."""
    return STRUCTURE_CONSTANTS.dense.astype(float)


def adjoint_of(x) -> np.ndarray:
    """Sum_a x_a F_a for a coefficient 15-vector x, (F_a)[r, s] = f_ar^s."""
    import numpy as np
    return np.einsum("a,ars->rs", np.asarray(x, dtype=float), _float_table())


def exp_ad(x, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(t * sum_a x_a F_a).

    This is the oracle every closed-form group matrix in the package is
    checked against; it is computed by scaling-and-squaring Pade (scipy,
    imported here alone) and shares no code with the closed forms.
    """
    from scipy.linalg import expm
    return expm(float(t) * adjoint_of(x))


def _diagonal(d) -> tuple:
    return tuple(x if i == j else 0 for i, x in enumerate(d) for j in range(15))


# The quadratic forms of the two Casimirs, as 225 ints, row by row.
_CASIMIR_LAMBDA = _diagonal((1, 1, 1, -1, -1, -1, 1, -1, -1, -1, 0, 0, 0, 0, 0))
_CASIMIR_MU = _diagonal((0,) * 10 + (1, -1, -1, -1, 1))


def casimir_lambda() -> np.ndarray:
    """Coefficient matrix of J.J - K.K + Gam0 Gam0 - Gam.Gam (integer 15x15)."""
    return _ndarray(_CASIMIR_LAMBDA, (15, 15), "int64")


def casimir_mu() -> np.ndarray:
    """Coefficient matrix of Gs^2 - eta^{bn} P_b P_n (integer 15x15)."""
    return _ndarray(_CASIMIR_MU, (15, 15), "int64")


def _invariance_residual(k, table: StructureConstants | None = None) -> list:
    """Per-row max |F_r^T K + K F_r| as 15 ints, for K given as its 225
    ints, row by row: with (F_r)[s, t] = f_rs^t, each nonzero entry adds
    v K[s, :] to row t and v K[:, s] to column t."""
    by_row = [[] for _ in range(15)]
    for r, s, t, v in (table or STRUCTURE_CONSTANTS).rows(both_orders=True):
        by_row[r].append((s, t, v))
    out = []
    for entries in by_row:
        m = [[0] * 15 for _ in range(15)]
        for s, t, v in entries:
            row_t, k_s = m[t], k[15 * s:15 * s + 15]
            for j in range(15):
                row_t[j] += v * k_s[j]
            for i in range(15):
                m[i][t] += k[15 * i + s] * v
        out.append(max(abs(x) for row in m for x in row))
    return out


def invariance_residual(kmat: np.ndarray,
                        table: StructureConstants | None = None) -> np.ndarray:
    """Per-row max |F_r^T K + K F_r|, the adjoint-invariance defect of K.

    Exactly zero in row r iff the quadratic form K commutes with generator r.
    Integer arithmetic throughout.  K is checked as a parameter is, by the
    number rule, its shape and finiteness (a non-finite K is a ValueError);
    an int entry is read exactly, at any size, and a float entry truncated
    toward zero.  The result is an int64 array of 15.
    """
    _float_entries("kmat", kmat, (15, 15))
    k = [int(x) for x in _read(kmat, 2)[1]]
    return _ndarray(_invariance_residual(k, table), (15,), "int64")


# ---------------------------------------------------------------------------
# serialization of the structure-constant table (CSV / JSON object)

def table_to_csv(both_orders: bool = False) -> str:
    # no field contains a comma or a quote, so no field is quoted
    rows = ["a,b,c,f\n"]
    for a, b, c, v in STRUCTURE_CONSTANTS.rows(both_orders):
        rows.append(f"{GENERATOR_NAMES[a]},{GENERATOR_NAMES[b]},{GENERATOR_NAMES[c]},{v}\n")
    return "".join(rows)


def table_to_json_obj(both_orders: bool = False) -> dict:
    return {
        "order": list(GENERATOR_NAMES),
        "convention": "[X_a, X_b] = i f_ab^c X_c",
        "entries": [
            {"a": GENERATOR_NAMES[a], "b": GENERATOR_NAMES[b],
             "c": GENERATOR_NAMES[c], "f": v}
            for a, b, c, v in STRUCTURE_CONSTANTS.rows(both_orders)
        ],
    }


def _ordinal(row: dict, key: str) -> int:
    name = row.get(key)
    if not isinstance(name, str) or name not in GENERATOR_NAMES:
        raise ValueError(f"unknown generator {name!r} in '{key}' of entry {row}")
    return GENERATOR_NAMES.index(name)


def table_from_json_obj(obj) -> StructureConstants:
    """Rebuild a table from the JSON form; antisymmetric partners are implied.

    Accepts files listing either one or both orders of each pair; values must
    be integers in {-1, +1} (not booleans, not floats).  Every malformed
    table is a ValueError naming the entry.
    """
    entries = obj.get("entries") if isinstance(obj, dict) else None
    if not isinstance(entries, list):
        raise ValueError("structure-constant table must be an object "
                         "with an 'entries' list")
    rows = []
    for row in entries:
        if not isinstance(row, dict):
            raise ValueError(f"entry {row!r} is not an object")
        a, b, c = (_ordinal(row, key) for key in "abc")
        v = row.get("f")
        if not (type(v) is int and v in (-1, 1)):  # type(): true and 1.0 are not int
            raise ValueError(f"structure constant must be the integer -1 or +1: {row}")
        if a == b:
            raise ValueError(f"diagonal entry not allowed: {row}")
        rows.append((a, b, c, v))
    return StructureConstants(rows)
