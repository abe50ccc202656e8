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


def _reference_omega_prime_rows(coeffs) -> list[list]:
    """The 20x20 Gram of omega' at the slice point e + sum c_j k_j, entry by
    entry through `killing` and `bracket`: the algebra directions first,
    then the six slice directions; rational where `coeffs` are."""
    kernel = [G2Element(v) for v in sv.build_slice_data().ker_ad_f]
    x = sv.E
    for c, kv in zip(coeffs, kernel):
        x = x + kv.scale(c)
    n = DIM + len(kernel)
    rows = [[0] * n for _ in range(n)]
    for i in range(DIM):
        for j in range(DIM):
            rows[i][j] = -killing(x, bracket(BASIS[i], BASIS[j]))
        for j, kv in enumerate(kernel):
            rows[i][DIM + j] = -killing(BASIS[i], kv)
            rows[DIM + j][i] = killing(BASIS[i], kv)
    return rows


def _reference_omega_prime_gram(coeffs) -> DenseMatrix:
    """d times the reference Gram, d the lcm of all its entries'
    denominators: an integer matrix with the Gram's rank, antisymmetric
    exactly when the Gram is, since one factor scales the whole grid."""
    rows = _reference_omega_prime_rows(coeffs)
    flat = clear([x for row in rows for x in row])
    n = len(rows)
    return DenseMatrix.from_rows([flat[i : i + n] for i in range(0, n * n, n)])


@pytest.fixture
def reference_omega_prime_rows():
    """The entry-by-entry omega' Gram, as rational rows."""
    return _reference_omega_prime_rows


@pytest.fixture
def reference_omega_prime_gram():
    """The entry-by-entry omega' Gram cleared to integers, the witness for
    `omega_prime_rank`."""
    return _reference_omega_prime_gram
