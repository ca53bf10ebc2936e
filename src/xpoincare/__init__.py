"""Computational toolkit for the 15-parameter extended Poincare group.

Layers, bottom up: exact structure constants and the exp(adjoint) oracle
(`algebra`); 4x4 Lorentz matrices (`lorentz`); the extended Lorentz group as
5x5 matrices with Dirac boosts (`xlorentz`); full group composition,
inversion, the 15x15 fundamental representation and Lie structure matrices
(`poincare`); a JSON command-line front end (`cli`).

All values are immutable after construction and every operation is a pure
function; the package is safe for concurrent use.
"""

from .algebra import (EPS3, ETA, GENERATOR_NAMES, STRUCTURE_CONSTANTS,
                      GeneratorIndex, JacobiReport, StructureConstants,
                      adjoint_of, casimir_lambda, casimir_mu, commutator,
                      exp_ad, invariance_residual, jacobi_check)
from .lorentz import (DecompositionError, axis_angle_of_rotation3,
                      boost_matrix, lorentz_decompose, lorentz_matrix,
                      metric_residual, rapidity, rotation_matrix)
from .xlorentz import (BFORM, XLParams, b_residual, dirac_boost_mat5,
                       omega_branch, xl_decompose, xl_matrix)
from .poincare import (GroupParams, compose, compose_via_affine, inverse, oplus,
                       params_to_vector, theta_claimed_mask, theta_closed,
                       theta_numeric, vector_to_params)

__version__ = "0.1.0"
