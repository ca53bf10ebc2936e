"""Plain definitions shared by the layers and the command-line parser, and
the one boundary between the float core and numpy.

Defined here, in a module that imports no numpy at import time, so that
building the parser (its `choices` and `--labels` output) loads no numpy;
`algebra` and `checks` re-export the names, and the parameter and table
classes share `_Frozen`.

The numpy boundary.  The group law, the gates and the exact layer run on
Python floats and ints, and every float kernel reads and writes flat
row-major lists.  numpy is imported only where a value crosses into or out
of an ndarray, and each crossing is one of the helpers below:

- `_real_entries` reads every outside value, a parameter or a matrix
  argument, into a shape-checked tuple of floats by the one rule for a
  number (a real number that is not a bool), in one walk, `_read`, of at
  most two list levels over numbers and numpy arrays; `_float_entries` is
  that read of a parameter, whose entries must also be finite, with a fast
  path for what the float core makes (a finite float, or a list or tuple of
  exact floats with a finite sum) that gives the same result;
- `_ndarray` packs a flat list in place into a fresh, writable array, by a
  `struct` format that the `struct` module compiles once and keeps;
- `_array_field` shows a float tuple as a read-only ndarray field.

The numpy computations themselves (`rapidity`, `adjoint_of`, `exp_ad`,
`compose_via_affine`, the samplers and factor vectors of `checks`) feed the
oracles and stay numpy code; they read their array arguments with
`np.asarray`, outside the number rule.
"""

import math
import struct

# The 15 basis generators in frozen canonical order (see `algebra`).
GENERATOR_NAMES = (
    "J1", "J2", "J3", "K1", "K2", "K3",
    "Gam0", "Gam1", "Gam2", "Gam3",
    "P0", "P1", "P2", "P3", "Gs",
)

# The check suites in report order; suite `n` is `checks.suite_<n>` with `-`
# read as `_`.
SUITE_NAMES = ("jacobi", "casimir", "oracle", "group-axioms", "oplus-hom", "theta")


class _Frozen:
    """Immutable after __init__, which sets the slots with object.__setattr__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError(f"cannot delete field {name!r}")


# --- the numpy boundary -------------------------------------------------------

def _ndarray(entries, shape: tuple, dtype: str = "float64"):
    """A fresh, writable, C-contiguous array of `shape` and numpy `dtype`
    holding the flat row-major `entries`, packed into its memory by `struct`,
    which keeps the compiled format: faster than np.array or np.fromiter of
    the list, which convert entry by entry.  The format counts the array's
    size, not the list's, so a list of another length ends in numpy's
    ValueError and never in a partly filled array."""
    import numpy as np
    a = np.empty(shape, dtype)
    try:
        struct.pack_into(f"{a.size}{a.dtype.char}", a, 0, *entries)
    except struct.error:  # a wrong length or an int beyond int64: numpy's conversion raises
        return np.array(entries, dtype).reshape(shape)
    return a


_NUMBERS = frozenset((float, int))


def _read(x, depth: int):
    """The shape of `x` and its entries, row by row, or None when `x` is not
    an array of numbers: a number, a numpy array of dtype kind i, u or f, or
    (at most `depth` list levels deep) a list or tuple of equal-shaped values
    of these kinds.  A list or tuple of floats and ints takes the fast path."""
    if isinstance(x, (list, tuple)) and depth and _NUMBERS.issuperset(map(type, x)):
        return (len(x),), x
    if type(x) in _NUMBERS:
        return (), (x,)
    if isinstance(x, (list, tuple)) and depth:
        parts = [_read(e, depth - 1) for e in x]
        if not all(parts) or len({p[0] for p in parts}) != 1:
            return None
        return (len(x),) + parts[0][0], [v for p in parts for v in p[1]]
    if hasattr(x, "__array__"):
        import numpy as np
        a = np.asarray(x)
        return (a.shape, a.ravel().tolist()) if a.dtype.kind in "iuf" else None
    from numbers import Real
    return ((), (x,)) if isinstance(x, Real) and not isinstance(x, bool) else None


def _real_entries(name: str, value, shape: tuple, error=ValueError) -> tuple:
    """The entries of `value` as a flat tuple of floats, row by row, checked
    for `shape` (`()` for one number); every rejection is an `error` naming
    `name`.  NaN and infinities pass, for the gates of the matrix functions;
    an int beyond the float range has no float and is rejected.

    The one rule for a number, for the library and the command line: a real
    number that is not a bool, read by `_read` at most two list levels deep."""
    got = _read(value, 2)
    if got is None or got[0] != shape:
        raise error(f"{name} must be a number" if shape == () else
                    f"{name} must be a float array of shape {shape}" if got is None else
                    f"{name} must have shape {shape}, got {got[0]}")
    try:
        return tuple(map(float, got[1]))
    except OverflowError:  # an int beyond the float range
        raise error(f"{name} must be finite") from None


_FLOAT = frozenset((float,))


def _float_entries(name: str, value, shape: tuple) -> tuple:
    """`_real_entries` of a parameter value, which must also be finite.

    The values the float core makes take a fast path with the same result:
    a float with `value - value == 0.0` (only a finite one has it) for shape
    `()`, and a list or tuple of a 1-D shape's length whose entries are
    exactly floats and whose sum is finite (a NaN or an infinity makes the
    sum non-finite).  Everything else takes the full read: ints, bools,
    numpy numbers, subclasses, a sum that overflows, and every rejection."""
    kind = type(value)
    if kind is float:
        if value - value == 0.0 and not shape:
            return (value,)
    elif ((kind is list or kind is tuple) and len(shape) == 1 and len(value) == shape[0]
          and _FLOAT.issuperset(map(type, value)) and math.isfinite(sum(value))):
        return tuple(value)
    v = _real_entries(name, value, shape)
    if not all(map(math.isfinite, v)):
        raise ValueError(f"{name} must be finite")
    return v


def _array_field(name: str):
    """Public field `name`: the float tuple in slot `_name` as a read-only
    ndarray, made on each read.  Not kept: an element whose fields are read
    would otherwise hold its values twice."""
    core = "_" + name

    def read(self):
        import numpy as np
        a = np.array(getattr(self, core))
        a.flags.writeable = False
        return a

    return property(read, doc=f"{name} as a read-only float ndarray")
