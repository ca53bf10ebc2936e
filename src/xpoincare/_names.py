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

- `_float_entries` reads a parameter field (a list, a tuple or any array)
  into a checked tuple of floats, in Python where it can;
- `_matrix_entries` reads a matrix argument: `asarray`, the shape check and
  the flat list of its entries;
- `_ndarray` packs a flat list into a fresh, writable array;
- `_array_field` shows a float tuple as a read-only ndarray field;
- `_lazy_constants` makes a module's array constants on first read.

The numpy computations themselves (`rapidity`, `commutator`, `adjoint_of`,
`exp_ad`, `compose_via_affine`, `oplus_pure_factor_vector`, the samplers of
`checks`) feed the oracles and stay numpy code.
"""

import math

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

def _lazy_constants(namespace: dict, makers: dict):
    """A module `__getattr__` (PEP 562) that makes the array `name` on its
    first read as `makers[name](np)`, read-only, and keeps it in `namespace`.
    Called in the module itself, it returns the kept array."""
    def __getattr__(name):
        if name not in makers:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        if name not in namespace:
            import numpy as np
            value = makers[name](np)
            value.flags.writeable = False
            namespace[name] = value
        return namespace[name]

    return __getattr__


def _ndarray(entries, shape: tuple, dtype: str = "float64"):
    """A fresh, writable, C-contiguous array of `shape` and numpy `dtype`
    holding the flat row-major `entries`.  Packed to bytes and copied once:
    faster than np.array or np.fromiter of the list, which convert entry by
    entry, and the array owns its memory, as theirs do.  struct reads the
    dtype's character code as the same C type that numpy does."""
    import struct
    import numpy as np
    np_dtype = np.dtype(dtype)
    try:
        data = struct.pack(f"{len(entries)}{np_dtype.char}", *entries)
    except struct.error:  # an int beyond int64: numpy's conversion raises its OverflowError
        return np.array(entries, np_dtype).reshape(shape)
    return np.frombuffer(data, np_dtype).copy().reshape(shape)


def _matrix_entries(M, shape: tuple, error=ValueError, dtype: str = "float64") -> list:
    """The entries of the matrix M, read as a numpy `dtype` array, as a flat
    row-major list of Python numbers; a shape other than `shape` raises
    `error`."""
    import numpy as np
    M = np.asarray(M, dtype=dtype)
    if M.shape != shape:
        raise error(f"expected a {shape[0]}x{shape[1]} matrix, got {M.shape}")
    return M.ravel().tolist()


_NUMBERS = frozenset((float, int))


def _float_entries(name: str, value, shape: tuple) -> tuple:
    """The entries of a parameter array as a flat tuple of floats, row by
    row, checked for `shape` and finiteness; every rejection is a ValueError
    naming the field `name`.  A list or tuple of ints and floats, or of
    equal-length lists or tuples of them, is read in Python; any other value
    (an ndarray, a scalar, a string, deeper nesting) goes through numpy's
    conversion first, which applies the same rules."""
    got = None
    if type(value) in (list, tuple):
        if _NUMBERS.issuperset(map(type, value)):
            got = (len(value),)
        elif value and all(type(r) in (list, tuple) and _NUMBERS.issuperset(map(type, r))
                           for r in value):
            if len(set(map(len, value))) > 1:  # ragged
                raise ValueError(f"{name} must be a float array of shape {shape}")
            got, value = (len(value), len(value[0])), [x for r in value for x in r]
    try:
        if got is None:
            import numpy as np
            value = np.array(value, dtype=float)
            got, value = value.shape, value.ravel().tolist()
        v = tuple(map(float, value))
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be finite") from None
    except (TypeError, ValueError):  # ragged nesting, a string, a dict
        raise ValueError(f"{name} must be a float array of shape {shape}") from None
    if got != shape:
        raise ValueError(f"{name} must have shape {shape}, got {got}")
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
