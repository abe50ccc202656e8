"""The sl2-triple slice, its character, and the relevant-orbit count.

Frozen facts: grading dimensions (2, 1, 2, 4, 2, 1, 2) over levels
-3..3, a 6-dimensional kernel of ad f, psi(f1) = -24, all structural
lemmas true, relevancy criteria agreeing on all 12 Weyl elements, and
the headline count 6 base + 1 complementary = 7 relevant orbits.  The
omega' Gram is checked against its earlier entry-by-entry formulation
through `killing` and `bracket`, kept here as the reference.
"""

from fractions import Fraction

import pytest

from g2verify import root_weyl as rw
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import DenseMatrix, DimensionMismatch, rank
from g2verify.g2_algebra import BASIS, BASIS_WEIGHTS, DIM, G2Element, bracket, killing
from g2verify.root_weyl import ALPHA, GAMMA, Root
from g2verify.slice_verifier import (
    E,
    F,
    H,
    build_slice_data,
    count_relevant_orbits,
    omega_minus1_check,
    omega_prime_gram,
    omega_prime_sample_points,
    psi,
    verify_contracting_weights,
    verify_lemma_incl,
    verify_ml_formula,
    verify_psi_conditions,
)

f1 = G2Element.basis(3)


@pytest.fixture(scope="module")
def data():
    return build_slice_data()


def test_sl2_triple_relations() -> None:
    assert bracket(H, E) == E.scale(2)
    assert bracket(H, F) == F.scale(-2)
    assert bracket(E, F) == H


def test_grading_levels_and_dimensions(data) -> None:
    levels = tuple(sorted(set(data.levels)))
    assert levels == (-3, -2, -1, 0, 1, 2, 3)
    assert data.dims() == (2, 1, 2, 4, 2, 1, 2)
    assert sum(data.dims()) == 14


def test_kernel_of_ad_f(data) -> None:
    kernel = data.ker_ad_f
    assert len(kernel) == 6
    assert rank(DenseMatrix.from_rows(list(kernel))) == 6
    # ad f annihilates every kernel vector, including f itself.
    for v in kernel:
        assert bracket(F, G2Element(v)).is_zero()
    assert rank(DenseMatrix.from_rows(list(kernel) + [F.coords])) == 6


def test_psi_frozen_value() -> None:
    assert psi(f1) == -24
    assert psi(E) == 0


def test_structural_lemmas() -> None:
    assert verify_psi_conditions()
    assert verify_lemma_incl()
    assert verify_ml_formula()
    assert verify_contracting_weights()
    assert omega_minus1_check()


def test_subspace_dimensions() -> None:
    assert len(sv.U5) == 5
    assert len(sv.U6) == 6


def test_u6_weights_are_the_base_positive_system() -> None:
    # The slice's u6 and the combinatorics suite's base polarization are
    # written down separately; they must name the same six roots.
    assert {Root(*BASIS_WEIGHTS[i]) for i in sv.U6} == rw.base_positive_system().roots


def test_u5_weights_in_record_order() -> None:
    # The order of R_U5 fixes the order of every record's ubar_weights.
    expected = ((-3, -1), (-1, 0), (0, 1), (1, 1), (3, 2))
    assert sv.R_U5 == tuple(Root(*r) for r in expected)


def test_relevant_orbit_count() -> None:
    result = count_relevant_orbits()
    assert result.base == 6
    assert result.complementary == 1
    assert result.total == 7
    assert len(result.records) == 12


def test_relevancy_bookkeeping() -> None:
    records = count_relevant_orbits().records
    assert sum(r.base_relevant for r in records) == 6
    assert sum(r.complementary_exists for r in records) == 6
    assert sum(r.complementary_relevant for r in records) == 1
    # Five complementary candidates exist but fail the relevancy test.
    assert (
        sum(r.complementary_exists and not r.complementary_relevant for r in records)
        == 5
    )
    # The single relevant complementary orbit sits over a relevant base.
    (winner,) = [r for r in records if r.complementary_relevant]
    assert winner.base_relevant and winner.complementary_exists


def test_combinatorial_criterion_matches_psi() -> None:
    for rec in count_relevant_orbits().records:
        assert rec.base_relevant == (-ALPHA not in rec.s_w)
        assert rec.complementary_exists == (GAMMA not in rec.s_w)
        for r in rec.ubar_weights:
            assert r in rec.s_w


def test_opposite_cell_sizes() -> None:
    sizes = sorted(len(r.ubar_weights) for r in count_relevant_orbits().records)
    assert sizes == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


E_COORDS = (0,) * 6  # e is the slice point with zero coordinates


def test_omega_prime_at_base_point() -> None:
    gram = omega_prime_gram(E_COORDS)
    assert gram.rows == gram.cols == 20
    assert (gram + gram.transpose()).is_zero()
    assert rank(gram) == 20


def test_omega_prime_at_seeded_points() -> None:
    points = omega_prime_sample_points(seed=42, count=10)
    assert len(points) == 10
    for coeffs in points:
        assert len(coeffs) == 6
        gram = omega_prime_gram(coeffs)
        assert (gram + gram.transpose()).is_zero()
        assert rank(gram) == 20


def _reference_omega_prime_gram(coeffs, data) -> DenseMatrix:
    kernel = [G2Element(v) for v in data.ker_ad_f]
    x = E
    for c, kv in zip(coeffs, kernel):
        x = x + kv.scale(c)
    n = DIM + len(kernel)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(DIM):
        for j in range(DIM):
            rows[i][j] = -killing(x, bracket(BASIS[i], BASIS[j]))
        for j, kv in enumerate(kernel):
            rows[i][DIM + j] = -killing(BASIS[i], kv)
            rows[DIM + j][i] = killing(BASIS[i], kv)
    return DenseMatrix.from_rows(rows)


def test_omega_prime_gram_matches_reference(data) -> None:
    points = [E_COORDS] + list(omega_prime_sample_points(seed=3, count=20))
    for coeffs in points:
        assert omega_prime_gram(coeffs) == _reference_omega_prime_gram(coeffs, data)


def test_omega_prime_sampling_is_seed_deterministic() -> None:
    first = omega_prime_sample_points(seed=7, count=3)
    second = omega_prime_sample_points(seed=7, count=3)
    assert first == second
    other = omega_prime_sample_points(seed=8, count=3)
    assert first != other


def test_omega_prime_gram_takes_six_slice_coordinates() -> None:
    for length in (0, 5, 7, 14):
        with pytest.raises(DimensionMismatch):
            omega_prime_gram((1,) * length)
    gram = omega_prime_gram((Fraction(3, 2), 0, 0, 0, 0, 0))
    assert gram.rows == gram.cols == 20
