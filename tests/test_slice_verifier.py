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

from g2verify import g2_algebra as g2
from g2verify import root_weyl as rw
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import DenseMatrix, DimensionMismatch, kernel_basis, rank
from g2verify.g2_algebra import (
    BASIS,
    BASIS_NAMES,
    BASIS_WEIGHTS,
    DIM,
    G2Element,
    ad_matrix,
    bracket,
    killing_gram,
)
from g2verify.root_weyl import ALPHA, GAMMA, Root
from g2verify.sampling import SmallRationalSampler
from g2verify.slice_verifier import (
    E,
    F,
    H,
    StructureMismatchError,
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

from conftest import clear_caches, is_zero, slice_coords

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
        assert not any(bracket(F, G2Element(v)).coords)
    assert rank(DenseMatrix.from_rows(list(kernel) + [F.coords])) == 6


def test_psi_frozen_value() -> None:
    assert psi(f1) == -24
    assert psi(E) == 0


def test_psi_and_its_row_read_a_patched_e(monkeypatch) -> None:
    # psi's basis row is derived from E when it is read, so with e = e2 both
    # it and psi give e2's Killing pairings: -24 at f2, not at f1.
    monkeypatch.setattr(sv, "E", sv.g2.e2)
    row = killing_gram()[BASIS_NAMES.index("e2")]
    assert sv._psi_row() == row
    assert tuple(psi(b) for b in BASIS) == row
    assert psi(sv.g2.f2) == -24 and psi(f1) == 0


def test_structural_lemmas() -> None:
    assert verify_psi_conditions()
    assert verify_lemma_incl()
    assert verify_ml_formula()
    assert verify_contracting_weights()
    assert omega_minus1_check()


def test_subspaces_are_derived_into_the_record(data) -> None:
    # n_l, s, t', u5 and u6 are read off l and the grading into the record.
    index = {name: i for i, name in enumerate(BASIS_NAMES)}
    assert set(data.n_l) == {index[n] for n in ("e2", "f1", "E21", "E31")}
    assert data.s == (index["E23"], index["h_b"])
    assert data.t_prime == (index["h_b"],)
    assert data.u5 == data.n_l + (index["E23"],)
    assert data.u6 == data.u5 + (index["f3"],)


def test_subspace_dimensions(data) -> None:
    assert len(data.u5) == 5
    assert len(data.u6) == 6


def test_u6_weights_are_the_base_positive_system(data) -> None:
    # The slice's u6 and the combinatorics suite's base polarization are
    # reached separately; they must name the same six roots.
    assert {Root(*BASIS_WEIGHTS[i]) for i in data.u6} == rw.base_positive_system().roots


def test_u5_weights_in_record_order(data) -> None:
    # The order of u5's sorted weights fixes the order of every record's
    # ubar_weights.
    expected = tuple(Root(*r) for r in ((-3, -1), (-1, 0), (0, 1), (1, 1), (3, 2)))
    assert tuple(sorted(Root(*BASIS_WEIGHTS[i]) for i in data.u5)) == expected
    records = count_relevant_orbits().records
    assert max((r.ubar_weights for r in records), key=len) == expected


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


def test_corrections_apply_ad_of_u6s_gamma_line(monkeypatch) -> None:
    # gamma = -(2a + b), e3's weight, with the base chamber that trades
    # 2a + b for it: S_w = w(u6) still holds, so the count runs through,
    # and the complementary corrections apply ad(e3), read from u6's gamma
    # line, not a typed ad(f3).
    root = Root(-2, -1)
    base = rw.base_positive_system().roots - {GAMMA} | {root}
    true_vanish = sv._psi_ad_powers_vanish
    operators = []

    def recorded(psi_row, a, v):
        operators.append(a)
        return true_vanish(psi_row, a, v)

    monkeypatch.setattr(rw, "GAMMA", root)
    monkeypatch.setattr(rw, "base_positive_system", lambda: rw.Polarization(base))
    monkeypatch.setattr(sv, "_psi_ad_powers_vanish", recorded)
    clear_caches()
    try:
        count_relevant_orbits()
        gamma_line = build_slice_data().u6[-1]
    finally:
        clear_caches()
    assert BASIS_NAMES[gamma_line] == "e3"
    assert operators and all(a == ad_matrix(BASIS[gamma_line]) for a in operators)


def test_opposite_cell_sizes() -> None:
    sizes = sorted(len(r.ubar_weights) for r in count_relevant_orbits().records)
    assert sizes == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


E_POINT = (1, 0, 0, 0, 0, 0, 0)  # e: w_0 = 1 and zero slice coordinates


def test_omega_prime_at_base_point(data, reference_omega_prime_gram) -> None:
    assert data.omega_antisymmetric
    assert omega_prime_rank(E_POINT) == 20
    gram = reference_omega_prime_gram(E_POINT)
    assert gram.rows == gram.cols == 20
    assert is_zero(gram + gram.transpose())
    assert rank(gram) == 20


def test_omega_prime_at_seeded_points(reference_omega_prime_gram) -> None:
    points = omega_prime_sample_points(seed=42, count=10)
    assert len(points) == 10
    # Each point is (1, c) times a positive factor, c the six draws of the
    # rational stream of the same seed.
    reference = SmallRationalSampler(42)
    for point in points:
        assert len(point) == 7 and point[0] > 0
        assert all(type(w) is int for w in point)
        assert slice_coords(point) == tuple(reference.fraction() for _ in range(6))
        assert omega_prime_rank(point) == 20
        gram = reference_omega_prime_gram(point)
        assert is_zero(gram + gram.transpose())
        assert rank(gram) == 20


def _affine_block(pieces, point) -> list:
    """sum w_j A_j = w_0 (A_0 + sum c_j A_j), w_0 times the algebra block of
    omega' at the homogeneous slice point `point`, for the pieces A_j."""
    return [
        [sum(w * a[i][j] for w, a in zip(point, pieces)) for j in range(DIM)]
        for i in range(DIM)
    ]


def test_omega_prime_gram_matches_reference(
    data, reference_omega_prime_rows, reference_omega_prime_gram
) -> None:
    points = [E_POINT] + list(omega_prime_sample_points(seed=3, count=20))
    pieces = sv._omega_pieces(data.kappa_ker)
    for point in points:
        rows = reference_omega_prime_rows(point)
        block = _affine_block(pieces, point)
        for i in range(DIM):
            assert rows[i][:DIM] == block[i]
            assert rows[i][DIM:] == [-x for x in data.kappa_ker[i]]
            assert [row[i] for row in rows[DIM:]] == list(data.kappa_ker[i])
        assert not any(any(rows[i][DIM:]) for i in range(DIM, DIM + 6))
        assert omega_prime_rank(point) == rank(reference_omega_prime_gram(point)) == 20


def test_omega_prime_sampling_is_seed_deterministic() -> None:
    first = omega_prime_sample_points(seed=7, count=3)
    second = omega_prime_sample_points(seed=7, count=3)
    assert first == second
    other = omega_prime_sample_points(seed=8, count=3)
    assert first != other


def test_omega_prime_gram_takes_six_slice_coordinates() -> None:
    # Six slice coordinates c, as the integer homogeneous point (w_0, w_0 c).
    for length in (0, 6, 8, 14):
        with pytest.raises(DimensionMismatch):
            omega_prime_rank((1,) * length)
    assert omega_prime_rank((2, 3, 0, 0, 0, 0, 0)) == 20  # c = (3/2, 0, ..., 0)
    with pytest.raises(ValueError):
        omega_prime_rank((0, 1, 0, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        omega_prime_rank((1, Fraction(3, 2), 0, 0, 0, 0, 0))


def _block(omega_entries, j: int) -> DenseMatrix:
    """The block B_j, read back from the nonzero (j, B_j[r][c]) stored per position."""
    rows = [[dict(pairs).get(j, 0) for pairs in row] for row in omega_entries]
    return DenseMatrix.from_rows(rows)


def test_omega_prime_reduction_is_stored_once(data) -> None:
    # Seven 14x14 pieces, K of rank 6, and P spanning ker K^T in integers.
    pieces = sv._omega_pieces(data.kappa_ker)
    assert len(pieces) == 7
    assert all(len(a) == len(a[0]) == DIM for a in pieces)
    assert data.kappa_rank == 6
    p = DenseMatrix.from_rows(kernel_basis(DenseMatrix.from_rows(data.kappa_ker).transpose()))
    assert p.rows == DIM - 6 and rank(p) == p.rows
    assert all(type(x) is int for row in p.entries for x in row)
    assert is_zero(p @ DenseMatrix.from_rows(data.kappa_ker))
    for j, a in enumerate(pieces):
        assert _block(data.omega_entries, j) == p @ DenseMatrix.from_rows(a) @ p.transpose()
    # Only nonzero entries are stored, at 18 of the 64 positions.
    entries = [entry for row in data.omega_entries for entry in row]
    assert all(x for entry in entries for _, x in entry)
    assert sum(map(bool, entries)) == 18


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
            is_antisymmetric, kappa_rank, entries = sv._omega_reduction(k.entries, (a.entries,))
            assert kappa_rank == r
            assert is_antisymmetric is antisymmetric
            assert 2 * r + rank(_block(entries, 0)) == rank(DenseMatrix.from_rows(full))
            if singular:
                assert rank(a) < DIM


@pytest.mark.parametrize("perturbed", [False, True])
def test_omega_pieces_match_the_per_piece_sums(request, perturbed) -> None:
    # The pieces as seven per-entry sums over the table, under the true
    # table and under one with an extra h_a term in [e1, f1] and [f1, e1].
    kappa_ker = build_slice_data().kappa_ker
    true_pieces = sv._omega_pieces(kappa_ker)
    if perturbed:
        request.getfixturevalue("bracket_with_extra_h_a")
    table = g2.bracket_table()
    expected = tuple(
        tuple(
            tuple(-sum(t * w[k] for k, t in table[i][l]) for l in range(DIM))
            for i in range(DIM)
        )
        for w in (sv._psi_row(), *zip(*kappa_ker))
    )
    assert sv._omega_pieces(kappa_ker) == expected
    assert (expected != true_pieces) == perturbed


def _lower_central_series_ends(indices) -> bool:
    """Whether the series of span(b_i : i in `indices`) reaches 0 within DIM
    steps, by one ad_matrix per vector, each applied to every vector."""
    ads = [ad_matrix(BASIS[i]) for i in indices]
    current = [BASIS[i].coords for i in indices]
    for _ in range(DIM):
        current = [w for w in (a.mul_vec(v) for a in ads for v in current) if any(w)]
        if not current:
            return True
    return False


@pytest.mark.parametrize("span", ["n_l", "u5", "s"])
def test_nilpotent_span_check_matches_the_ad_matrix_series(data, span) -> None:
    # s holds h_b, which moves E23, so its series never ends.
    indices = getattr(data, span)
    nilpotent = _lower_central_series_ends(indices)
    assert nilpotent == (span != "s")
    if nilpotent:
        sv._check_nilpotent_span(indices, span)
    else:
        with pytest.raises(StructureMismatchError, match=f"^{span} is not nilpotent$"):
            sv._check_nilpotent_span(indices, span)


@pytest.mark.parametrize(
    "gains", [("E21",), ("E21", "f1"), ("E21", "f1", "E31")], ids=lambda g: "-".join(g)
)
def test_nilpotent_span_check_stays_bounded_on_tables_fixing_e2(monkeypatch, data, gains) -> None:
    # [x, e2] gains e2 for each x in `gains`, so each ad x fixes e2.  Kept
    # whole, the images of a round would number about k^r for k such x;
    # reduced to a basis once they outnumber DIM, no round brackets more
    # than len(n_l) * DIM pairs, and the check fails within DIM rounds.
    table = [[dict(entry) for entry in row] for row in g2.bracket_table()]
    e2 = BASIS_NAMES.index("e2")
    for x in gains:
        table[BASIS_NAMES.index(x)][e2][e2] = table[BASIS_NAMES.index(x)][e2].get(e2, 0) + 1
    frozen = tuple(tuple(tuple(sorted(e.items())) for e in row) for row in table)
    monkeypatch.setattr(g2, "bracket_table", lambda: frozen)
    calls = []

    def counted(i, terms):
        # Stops a series that outgrows the bound before it exhausts memory.
        calls.append(terms)
        if len(calls) > DIM * len(data.n_l) * DIM:
            raise RuntimeError("more brackets than DIM rounds of a basis need")
        return g2.table_bracket(i, terms)

    monkeypatch.setattr(sv, "table_bracket", counted)
    with pytest.raises(StructureMismatchError, match="^n_l is not nilpotent$"):
        sv._check_nilpotent_span(data.n_l, "n_l")


def test_true_n_l_series_needs_no_reduction(monkeypatch, data) -> None:
    # n_l's series is 4 -> 2 -> 0 vectors: [e2, f1] and [f1, e2], then nothing.
    reduced = []
    monkeypatch.setattr(sv, "echelon", lambda rows, ncols: reduced.append(rows) or (rows, []))
    sv._check_nilpotent_span(data.n_l, "n_l")
    assert reduced == []
