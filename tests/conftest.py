"""Shared fault injections and references."""

import pytest

from g2verify import g2_algebra as g2
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import DenseMatrix
from g2verify.g2_algebra import BASIS, DIM, G2Element, bracket, killing


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


def _reference_omega_prime_gram(coeffs) -> DenseMatrix:
    """The 20x20 Gram of omega' at the slice point e + sum c_j k_j, entry by
    entry through `killing` and `bracket`: the algebra directions first,
    then the six slice directions."""
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
    return DenseMatrix.from_rows(rows)


@pytest.fixture
def reference_omega_prime_gram():
    """The entry-by-entry omega' Gram, the witness for `omega_prime_rank`."""
    return _reference_omega_prime_gram
