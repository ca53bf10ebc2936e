"""Computational toolkit for the 15-parameter extended Poincare group.

Layers, bottom up: exact structure constants and the exp(adjoint) oracle
(`algebra`); 4x4 Lorentz matrices (`lorentz`); the extended Lorentz group as
5x5 matrices with Dirac boosts (`xlorentz`); full group composition,
inversion, the 15x15 fundamental representation and Lie structure matrices
(`poincare`); a JSON command-line front end (`cli`).

All values are immutable after construction and every operation is a pure
function; the package is safe for concurrent use.

Importing the package imports none of its modules: each public name below is
imported from its module on first use (PEP 562), so a process that only
composes, inverts or decomposes elements, or reads the integer table and its
identities, never loads numpy.
"""

from importlib import import_module

_EXPORTS = {
    "_names": ("GENERATOR_NAMES",),
    "algebra": ("STRUCTURE_CONSTANTS", "GeneratorIndex", "JacobiReport", "StructureConstants",
                "adjoint_of", "casimir_lambda", "casimir_mu", "exp_ad",
                "invariance_residual", "jacobi_check"),
    "lorentz": ("DecompositionError", "lorentz_decompose", "lorentz_matrix",
                "metric_residual", "rapidity"),
    "xlorentz": ("BFORM", "XLParams", "b_residual", "xl_decompose", "xl_matrix"),
    "poincare": ("GroupParams", "compose", "compose_via_affine", "inverse", "oplus",
                 "params_to_vector", "theta_claimed_mask", "theta_closed",
                 "theta_numeric"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# the four layers are attributes of the package, as they were when it imported them
_LAYERS = ("algebra", "lorentz", "xlorentz", "poincare")

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _LAYERS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_LAYERS})
