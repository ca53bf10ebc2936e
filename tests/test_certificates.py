"""Symbolic certificates: float kernels run unchanged on sympy symbols and
are proved equal, for all inputs, to a reference built from the matrix
definition, instead of sampled.

The kernels are straight-line Python arithmetic on flat row-major lists, so
a kernel fed symbols returns polynomials.  The residual kernels end in
`_max_abs`, which is patched to return its terms.
"""

import pytest

sympy = pytest.importorskip("sympy")

from xpoincare import lorentz, poincare, xlorentz  # noqa: E402


def _symbols(name, n):
    """An n x n sympy Matrix of free symbols name00, name01, ..."""
    return sympy.Matrix(n, n, sympy.symbols(f"{name}:{n}:{n}"))


def _entries(M):
    """The entries of M as a flat row-major list."""
    return [M[i, j] for i in range(M.rows) for j in range(M.cols)]


def _upper(M):
    """The entries of M on and above the diagonal, row by row."""
    return [M[i, j] for i in range(M.rows) for j in range(i, M.cols)]


def _assert_identical(got, want):
    """got and want agree term by term as polynomials (a Float constant of
    the kernel, such as 1.0, cancels against its Integer)."""
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert sympy.expand(g - w).is_zero, f"term {k}: {g} != {w}"


@pytest.fixture
def terms(monkeypatch):
    """The residual kernels return their terms, not max |term|."""
    for module in (lorentz, xlorentz):
        monkeypatch.setattr(module, "_max_abs", lambda xs: xs)


def test_det3_is_the_determinant():
    M = _symbols("m", 3)
    _assert_identical([lorentz._det3(_entries(M))], [M.det()])


def test_metric_residual_is_the_upper_triangle_of_its_definition(terms):
    M = _symbols("m", 4)
    eta = sympy.diag(-1, 1, 1, 1)
    _assert_identical(lorentz._metric_residual(_entries(M)), _upper(M.T * eta * M - eta))


def test_b_residual_is_the_upper_triangle_of_its_definition(terms):
    M = _symbols("m", 5)
    B = sympy.diag(1, -1, -1, -1, 1)
    _assert_identical(xlorentz._b_residual(_entries(M)), _upper(M.T * B * M - B))


def test_matmul5_is_the_matrix_product():
    A, M = _symbols("a", 5), _symbols("m", 5)
    rows = [list(A.row(i)) for i in range(5)]
    _assert_identical(poincare._matmul5(rows, _entries(M)), _entries(A * M))
