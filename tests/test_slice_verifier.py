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

from g2verify.exact_linalg import DenseMatrix, rank, span_contains
from g2verify.g2_algebra import BASIS, DIM, G2Element, bracket, killing
from g2verify.root_weyl import ALPHA, GAMMA
from g2verify.slice_verifier import (
    NotOnSliceError,
    build_slice_data,
    count_relevant_orbits,
    omega_minus1_check,
    omega_prime_gram,
    omega_prime_sample_points,
    verify_contracting_weights,
    verify_lemma_incl,
    verify_ml_formula,
    verify_psi_conditions,
)

f1 = G2Element.basis(3)


@pytest.fixture(scope="module")
def data():
    return build_slice_data()


def test_sl2_triple_relations(data) -> None:
    e, f, h = data.triple.e, data.triple.f, data.triple.h
    assert bracket(h, e) == e.scale(2)
    assert bracket(h, f) == f.scale(-2)
    assert bracket(e, f) == h


def test_grading_levels_and_dimensions(data) -> None:
    levels = tuple(lv for lv, _ in data.grading.levels)
    assert levels == (-3, -2, -1, 0, 1, 2, 3)
    assert data.grading.dims() == (2, 1, 2, 4, 2, 1, 2)
    assert sum(data.grading.dims()) == 14


def test_kernel_of_ad_f(data) -> None:
    kernel = data.subalgebras.ker_ad_f
    assert len(kernel) == 6
    assert rank(DenseMatrix.from_rows(list(kernel))) == 6
    # ad f annihilates every kernel vector, including f itself.
    f = data.triple.f
    for v in kernel:
        assert bracket(f, G2Element(v)).is_zero()
    assert span_contains(list(kernel), f.coords)


def test_psi_frozen_value(data) -> None:
    assert data.psi(f1) == -24
    assert data.psi(data.triple.e) == 0


def test_structural_lemmas() -> None:
    assert verify_psi_conditions()
    assert verify_lemma_incl()
    assert verify_ml_formula()
    assert verify_contracting_weights()
    assert omega_minus1_check()


def test_subspace_dimensions(data) -> None:
    sub = data.subalgebras
    assert len(sub.u5) == 5
    assert len(sub.u6) == 6


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


def test_omega_prime_at_base_point(data) -> None:
    gram = omega_prime_gram(data.triple.e)
    assert gram.rows == gram.cols == 20
    assert (gram + gram.transpose()).is_zero()
    assert rank(gram) == 20


def test_omega_prime_at_seeded_points() -> None:
    points = omega_prime_sample_points(seed=42, count=10)
    assert len(points) == 10
    for x, coeffs in points:
        assert len(coeffs) == 6
        gram = omega_prime_gram(x)
        assert (gram + gram.transpose()).is_zero()
        assert rank(gram) == 20


def _reference_omega_prime_gram(x: G2Element, data) -> DenseMatrix:
    kernel = [G2Element(v) for v in data.subalgebras.ker_ad_f]
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
    points = [(data.triple.e, ())] + list(
        omega_prime_sample_points(seed=3, count=20)
    )
    for x, _ in points:
        assert omega_prime_gram(x) == _reference_omega_prime_gram(x, data)


def test_omega_prime_sampling_is_seed_deterministic() -> None:
    first = omega_prime_sample_points(seed=7, count=3)
    second = omega_prime_sample_points(seed=7, count=3)
    assert first == second
    other = omega_prime_sample_points(seed=8, count=3)
    assert first != other


def test_off_slice_point_rejected() -> None:
    with pytest.raises(NotOnSliceError):
        omega_prime_gram(f1)
    with pytest.raises(NotOnSliceError):
        omega_prime_gram(G2Element.zero())


def test_slice_points_pass_membership(data) -> None:
    kernel = data.subalgebras.ker_ad_f
    x = data.triple.e + G2Element(kernel[0]).scale(Fraction(3, 2))
    gram = omega_prime_gram(x)
    assert gram.rows == 20
