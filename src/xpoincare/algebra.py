"""Exact Lie-algebra layer for the 15-generator extended Poincare algebra.

Generator basis, frozen ordering (this ordering fixes the row/column layout of
every 15x15 matrix in the package):

    ordinal  0..2   J1  J2  J3    rotations
    ordinal  3..5   K1  K2  K3    Lorentz boosts
    ordinal  6..9   Gam0..Gam3    Dirac boosts
    ordinal 10..13  P0..P3        spacetime translations
    ordinal 14      Gs            scalar translation

Commutators are written [X_a, X_b] = i f_ab^c X_c with real structure
constants f; every f value is an exact integer in {-1, 0, +1}.  The metric is
eta = diag(-1, +1, +1, +1).  This signature is forced: it is the unique
diagonal signature for which the commutator table below satisfies the Jacobi
identity exactly (see tests), and it makes the invariant quadratic form on the
(P, Gs) block equal to diag(+1, -1, -1, -1, +1).

Exact identities (antisymmetry, Jacobi, Casimir invariance) are evaluated in
integer arithmetic; group-level matrices are double precision.
"""

from __future__ import annotations

import io
import csv
import itertools
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from ._names import GENERATOR_NAMES


class GeneratorIndex(IntEnum):
    """The 15 basis generators in frozen canonical order."""

    J1 = 0
    J2 = 1
    J3 = 2
    K1 = 3
    K2 = 4
    K3 = 5
    GAM0 = 6
    GAM1 = 7
    GAM2 = 8
    GAM3 = 9
    P0 = 10
    P1 = 11
    P2 = 12
    P3 = 13
    GS = 14


_NAME_TO_ORDINAL = {n: i for i, n in enumerate(GENERATOR_NAMES)}

# Minkowski metric, mostly-plus.  Normative for the whole package.
ETA = np.diag([-1.0, 1.0, 1.0, 1.0])
ETA_INT = np.diag([-1, 1, 1, 1]).astype(np.int64)

# Levi-Civita symbol, eps[0,1,2] = +1.
EPS3 = np.zeros((3, 3, 3), dtype=np.int64)
for _i, _j, _k in itertools.permutations(range(3)):
    EPS3[_i, _j, _k] = int(np.linalg.det(np.eye(3)[[_i, _j, _k]]))
for _arr in (ETA, ETA_INT, EPS3):
    _arr.flags.writeable = False


@dataclass(frozen=True)
class StructureConstants:
    """Dense table f[a, b, c] = f_ab^c of exact integer structure constants."""

    dense: np.ndarray

    def __post_init__(self):
        assert self.dense.shape == (15, 15, 15)
        self.dense.flags.writeable = False

    def rows(self, both_orders: bool = False):
        """Nonzero entries as (a, b, c, f) ordinal tuples, lexicographic.

        With both_orders=False only the a < b representative of each
        antisymmetric pair is listed.
        """
        out = []
        for a in range(15):
            for b in range(15):
                if not both_orders and a >= b:
                    continue
                for c in range(15):
                    v = int(self.dense[a, b, c])
                    if v:
                        out.append((a, b, c, v))
        return out


def _build_dense() -> np.ndarray:
    f = np.zeros((15, 15, 15), dtype=np.int64)

    def add(a, b, c, val):
        f[a, b, c] += val
        f[b, a, c] -= val

    J, K, GAM, P, GS = 0, 3, 6, 10, 14
    for j in range(3):
        for k in range(j + 1, 3):
            for m in range(3):
                e = int(EPS3[j, k, m])
                if e:
                    add(J + j, J + k, J + m, e)            # [Jj, Jk] = i eps Jm
                    add(K + j, K + k, J + m, -e)           # [Kj, Kk] = -i eps Jm
                    add(GAM + 1 + j, GAM + 1 + k, J + m, -e)  # [Gj, Gk] = -i eps Jm
    for j in range(3):
        for k in range(3):
            for m in range(3):
                e = int(EPS3[j, k, m])
                if e:
                    add(J + j, K + k, K + m, e)            # [Jj, Kk] = i eps Km
                    add(GAM + 1 + j, J + k, GAM + 1 + m, e)  # [Gj, Jk] = i eps Gm
                    add(J + j, P + 1 + k, P + 1 + m, e)    # [Jj, Pk] = i eps Pm
    for k in range(1, 4):
        add(GAM, GAM + k, K + k - 1, 1)     # [G0, Gk] = i Kk
        add(GAM, K + k - 1, GAM + k, -1)    # [G0, Kk] = -i Gk
        add(GAM + k, K + k - 1, GAM, -1)    # [Gj, Kk] = -i d_jk G0
        add(K + k - 1, P, P + k, -1)        # [Kj, P0] = -i Pj
        add(K + k - 1, P + k, P, -1)        # [Kj, Pk] = -i d_jk P0
    for mu in range(4):
        add(GAM + mu, P + mu, GS, -1)                       # [Gmu, Pnu] = -i d Gs
        add(GAM + mu, GS, P + mu, -int(ETA_INT[mu, mu]))    # [Gmu, Gs] = -i eta Pnu
    return f


STRUCTURE_CONSTANTS = StructureConstants(_build_dense())


# Read-only float copy of the table, shared by adjoint_of and poincare.oplus.
_F_FLOAT = STRUCTURE_CONSTANTS.dense.astype(float)
_F_FLOAT.flags.writeable = False


def commutator(x, y) -> np.ndarray:
    """Coefficients z of [x.X, y.X] = i z.X for coefficient 15-vectors x, y.

    Exact for integer-valued inputs.
    """
    x = np.asarray(x)
    y = np.asarray(y)
    return np.einsum("a,b,abc->c", x, y, STRUCTURE_CONSTANTS.dense)


@dataclass
class JacobiReport:
    max_violation: int
    violations: list  # (a_name, b_name, c_name, worst_e_name, value)


def jacobi_check(table: StructureConstants | None = None) -> JacobiReport:
    """Evaluate the Jacobi identity over all 455 unordered generator triples."""
    f = (table or STRUCTURE_CONSTANTS).dense
    t = (np.einsum("abd,dce->abce", f, f)
         + np.einsum("bcd,dae->abce", f, f)
         + np.einsum("cad,dbe->abce", f, f))
    violations = []
    worst = 0
    for a, b, c in itertools.combinations(range(15), 3):
        row = t[a, b, c]
        m = int(np.abs(row).max())
        if m:
            e = int(np.abs(row).argmax())
            violations.append((GENERATOR_NAMES[a], GENERATOR_NAMES[b],
                               GENERATOR_NAMES[c], GENERATOR_NAMES[e],
                               int(row[e])))
            worst = max(worst, m)
    return JacobiReport(worst, violations)


def adjoint_of(x) -> np.ndarray:
    """Sum_a x_a F_a for a coefficient 15-vector x, (F_a)[r, s] = f_ar^s."""
    return np.einsum("a,ars->rs", np.asarray(x, dtype=float), _F_FLOAT)


def exp_ad(x, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(t * sum_a x_a F_a).

    This is the oracle every closed-form group matrix in the package is
    checked against; it is computed by scaling-and-squaring Pade (scipy,
    imported here alone) and shares no code with the closed forms.
    """
    from scipy.linalg import expm
    return expm(float(t) * adjoint_of(x))


def casimir_lambda() -> np.ndarray:
    """Coefficient matrix of J.J - K.K + Gam0 Gam0 - Gam.Gam (integer 15x15)."""
    return np.diag(np.array([1, 1, 1, -1, -1, -1, 1, -1, -1, -1, 0, 0, 0, 0, 0],
                            dtype=np.int64))


def casimir_mu() -> np.ndarray:
    """Coefficient matrix of Gs^2 - eta^{bn} P_b P_n (integer 15x15)."""
    return np.diag(np.array([0] * 10 + [1, -1, -1, -1, 1], dtype=np.int64))


def invariance_residual(kmat: np.ndarray,
                        table: StructureConstants | None = None) -> np.ndarray:
    """Per-row max |F_r^T K + K F_r|, the adjoint-invariance defect of K.

    Exactly zero in row r iff the quadratic form K commutes with generator r.
    Integer arithmetic throughout.
    """
    f = (table or STRUCTURE_CONSTANTS).dense
    kmat = np.asarray(kmat, dtype=np.int64)
    out = np.zeros(15, dtype=np.int64)
    for r in range(15):
        fr = f[r]
        out[r] = np.abs(fr.T @ kmat + kmat @ fr).max()
    return out


# ---------------------------------------------------------------------------
# serialization of the structure-constant table (CSV / JSON object)

def table_to_csv(both_orders: bool = False) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["a", "b", "c", "f"])
    for a, b, c, v in STRUCTURE_CONSTANTS.rows(both_orders):
        w.writerow([GENERATOR_NAMES[a], GENERATOR_NAMES[b], GENERATOR_NAMES[c], v])
    return buf.getvalue()


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
    if not isinstance(name, str) or name not in _NAME_TO_ORDINAL:
        raise ValueError(f"unknown generator {name!r} in '{key}' of entry {row}")
    return _NAME_TO_ORDINAL[name]


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
    f = np.zeros((15, 15, 15), dtype=np.int64)
    seen = set()
    for row in entries:
        if not isinstance(row, dict):
            raise ValueError(f"entry {row!r} is not an object")
        a, b, c = (_ordinal(row, key) for key in "abc")
        v = row.get("f")
        if not (type(v) is int and v in (-1, 1)):  # type(): true and 1.0 are not int
            raise ValueError(f"structure constant must be the integer -1 or +1: {row}")
        if a == b:
            raise ValueError(f"diagonal entry not allowed: {row}")
        f[a, b, c] = v
        seen.add((a, b, c))
    for a, b, c in list(seen):
        if (b, a, c) not in seen:
            f[b, a, c] = -f[a, b, c]
    return StructureConstants(f)
