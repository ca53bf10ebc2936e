"""Plain definitions shared by the layers and the command-line parser.

Defined here, in a module that imports nothing, so that building the parser
(its `choices` and `--labels` output) loads no numpy; `algebra` and `checks`
re-export the names, and the parameter and table classes share `_Frozen`.
"""

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
