"""The sl2-triple slice, its character, and the relevant-orbit count.

Frozen facts: grading dimensions (2, 1, 2, 4, 2, 1, 2) over levels
-3..3, a 6-dimensional kernel of ad f, psi(f1) = -24, all structural
lemmas true, relevancy criteria agreeing on all 12 Weyl elements, and
the headline count 6 base + 1 complementary = 7 relevant orbits.  The
pieces and the reduced rank of omega' are checked against the 20x20
Gram built entry by entry through `killing` and `bracket` (the
`reference_omega_prime_gram` fixture), and the rank identity behind the
reduction is checked on its own, on seeded integer instances.
"""

import random
from fractions import Fraction

import pytest

from g2verify import root_weyl as rw
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import DenseMatrix, DimensionMismatch, rank
from g2verify.g2_algebra import BASIS_WEIGHTS, DIM, G2Element, bracket
from g2verify.root_weyl import ALPHA, GAMMA, Root
from g2verify.slice_verifier import (
    E,
    F,
    H,
    build_slice_data,
    count_relevant_orbits,
    omega_minus1_check,
    omega_prime_rank,
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


def test_omega_prime_at_base_point(data, reference_omega_prime_gram) -> None:
    assert data.omega_antisymmetric
    assert omega_prime_rank(E_COORDS) == 20
    gram = reference_omega_prime_gram(E_COORDS)
    assert gram.rows == gram.cols == 20
    assert (gram + gram.transpose()).is_zero()
    assert rank(gram) == 20


def test_omega_prime_at_seeded_points(reference_omega_prime_gram) -> None:
    points = omega_prime_sample_points(seed=42, count=10)
    assert len(points) == 10
    for coeffs in points:
        assert len(coeffs) == 6
        assert omega_prime_rank(coeffs) == 20
        gram = reference_omega_prime_gram(coeffs)
        assert (gram + gram.transpose()).is_zero()
        assert rank(gram) == 20


def _affine_block(data, coeffs) -> list:
    """A_0 + sum c_j A_j, the algebra block of omega' at `coeffs`."""
    return [
        [sum(w * a[i][j] for w, a in zip((1, *coeffs), data.omega_pieces)) for j in range(DIM)]
        for i in range(DIM)
    ]


def test_omega_prime_gram_matches_reference(data, reference_omega_prime_gram) -> None:
    points = [E_COORDS] + list(omega_prime_sample_points(seed=3, count=20))
    for coeffs in points:
        gram = reference_omega_prime_gram(coeffs)
        block = _affine_block(data, coeffs)
        for i in range(DIM):
            assert list(gram.row(i)[:DIM]) == block[i]
            assert gram.row(i)[DIM:] == tuple(-x for x in data.kappa_ker[i])
            assert gram.column(i)[DIM:] == data.kappa_ker[i]
        assert not any(any(gram.row(i)[DIM:]) for i in range(DIM, DIM + 6))
        assert omega_prime_rank(coeffs) == rank(gram) == 20


def test_omega_prime_sampling_is_seed_deterministic() -> None:
    first = omega_prime_sample_points(seed=7, count=3)
    second = omega_prime_sample_points(seed=7, count=3)
    assert first == second
    other = omega_prime_sample_points(seed=8, count=3)
    assert first != other


def test_omega_prime_gram_takes_six_slice_coordinates() -> None:
    for length in (0, 5, 7, 14):
        with pytest.raises(DimensionMismatch):
            omega_prime_rank((1,) * length)
    assert omega_prime_rank((Fraction(3, 2), 0, 0, 0, 0, 0)) == 20


def test_omega_prime_reduction_is_stored_once(data) -> None:
    # Seven 14x14 pieces, K of rank 6, and P spanning ker K^T in integers.
    assert len(data.omega_pieces) == len(data.omega_blocks) == 7
    assert all(len(a) == len(a[0]) == DIM for a in data.omega_pieces)
    assert data.kappa_rank == 6
    p = DenseMatrix.from_rows(data.omega_kernel)
    assert p.rows == DIM - 6 and rank(p) == p.rows
    assert all(type(x) is int for row in p.entries for x in row)
    assert (p @ DenseMatrix.from_rows(data.kappa_ker)).is_zero()
    for a, b in zip(data.omega_pieces, data.omega_blocks):
        assert DenseMatrix.from_rows(b) == p @ DenseMatrix.from_rows(a) @ p.transpose()


def _random_matrix(rng, rows: int, cols: int) -> DenseMatrix:
    return DenseMatrix.from_rows([[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)])


def _square(rng, antisymmetric: bool, singular: bool) -> DenseMatrix:
    """A random 14x14 A; a singular one is a product through two dimensions,
    of rank at most 2, or at most 4 once made antisymmetric."""
    if singular:
        a = _random_matrix(rng, DIM, 2) @ _random_matrix(rng, 2, DIM)
    else:
        a = _random_matrix(rng, DIM, DIM)
    return a - a.transpose() if antisymmetric else a


def _of_rank(rng, r: int) -> DenseMatrix:
    """A random 14x6 K of rank exactly r."""
    if r == 0:
        return DenseMatrix.from_rows([[0] * 6 for _ in range(DIM)])
    while True:
        k = _random_matrix(rng, DIM, r) @ _random_matrix(rng, r, 6)
        if rank(k) == r:
            return k


@pytest.mark.parametrize("antisymmetric", [True, False])
@pytest.mark.parametrize("singular", [False, True])
def test_omega_prime_reduction_lemma(antisymmetric, singular) -> None:
    # rank [[A, -K], [K^T, 0]] = 2 rank K + rank(P^T A P), P spanning ker K^T,
    # for any square A; the reduction is the one build_slice_data stores.
    rng = random.Random(2002)
    for r in range(7):
        for _ in range(3):
            a, k = _square(rng, antisymmetric, singular), _of_rank(rng, r)
            full = [list(a.row(i)) + [-x for x in k.row(i)] for i in range(DIM)]
            full += [list(k.column(j)) + [0] * 6 for j in range(6)]
            reduced = sv._slice_data((), (), k.entries, (a.entries,))
            assert reduced.kappa_rank == r
            assert reduced.omega_antisymmetric is antisymmetric
            b = DenseMatrix.from_rows(reduced.omega_blocks[0])
            assert 2 * r + rank(b) == rank(DenseMatrix.from_rows(full))
            if singular:
                assert rank(a) < DIM
