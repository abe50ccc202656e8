"""Shared fault injections, references and conversions."""

from fractions import Fraction

import pytest

from g2verify import g2_algebra as g2
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import DenseMatrix
from g2verify.g2_algebra import BASIS, DIM, G2Element, bracket, killing
from g2verify.sampling import cleared


def clear(values) -> list[int]:
    """The rationals `values` times the lcm of their reduced denominators:
    integers in the same proportions, the form every point and row takes
    in the package."""
    return cleared([(x.numerator, x.denominator) for x in map(Fraction, values)])


def slice_coords(point) -> tuple:
    """The rational slice coordinates c_j = w_j / w_0 of the homogeneous
    point (w_0, ..., w_6) that `omega_prime_rank` takes."""
    return tuple(Fraction(w, point[0]) for w in point[1:])


def with_entry(m: DenseMatrix, i: int, j: int, value) -> DenseMatrix:
    """`m` with entry (i, j) set to `value`."""
    rows = [list(row) for row in m.entries]
    rows[i][j] = value
    return DenseMatrix.from_rows(rows)


@pytest.fixture
def bracket_with_extra_h_a(monkeypatch):
    """Patch g2.bracket by the antisymmetric bilinear term
    (x_e1 y_f1 - x_f1 y_e1) h_a: +1 on the h_a coefficient of [e1, f1] and
    -1 on that of [f1, e1].  Antisymmetry still holds; Jacobi does not.
    The cached bracket table is cleared after patching and on teardown, and
    so is any slice data built from the perturbed table."""
    g2.killing_gram()  # cache the true Gram before the bracket changes
    true_bracket = g2.bracket

    def bad_bracket(x, y):
        coords = list(true_bracket(x, y).coords)
        coords[12] += x.coords[0] * y.coords[3] - x.coords[3] * y.coords[0]
        return g2.G2Element(tuple(coords))

    monkeypatch.setattr(g2, "bracket", bad_bracket)
    g2._bracket_table.cache_clear()
    yield
    g2._bracket_table.cache_clear()
    sv.build_slice_data.cache_clear()


def _reference_omega_prime_rows(point) -> list[list[int]]:
    """The 20x20 Gram of omega' entry by entry through `killing` and
    `bracket`, at the integer point x = w_0 e + sum w_j k_j of the
    homogeneous slice point (w_0, ..., w_6) that `omega_prime_rank` takes:
    the algebra directions first, then the six slice directions.  With A
    and K the rational Gram's blocks at c_j = w_j / w_0, this is
    [[w_0 A, -K], [K^T, 0]] = diag(w_0 I, I) . Gram . diag(I, I / w_0),
    of the Gram's rank, and antisymmetric exactly when the Gram is."""
    kernel = [G2Element(v) for v in sv.build_slice_data().ker_ad_f]
    x = sv.E.scale(point[0])
    for w, kv in zip(point[1:], kernel):
        x = x + kv.scale(w)
    n = DIM + len(kernel)
    rows = [[0] * n for _ in range(n)]
    for i in range(DIM):
        for j in range(DIM):
            rows[i][j] = -killing(x, bracket(BASIS[i], BASIS[j]))
        for j, kv in enumerate(kernel):
            rows[i][DIM + j] = -killing(BASIS[i], kv)
            rows[DIM + j][i] = killing(BASIS[i], kv)
    return rows


@pytest.fixture
def reference_omega_prime_rows():
    """The entry-by-entry omega' Gram at a homogeneous slice point, as rows."""
    return _reference_omega_prime_rows


@pytest.fixture
def reference_omega_prime_gram():
    """The entry-by-entry omega' Gram at a homogeneous slice point, as a
    matrix: the witness for `omega_prime_rank`."""
    return lambda point: DenseMatrix.from_rows(_reference_omega_prime_rows(point))
