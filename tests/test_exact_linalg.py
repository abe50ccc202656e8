"""Exact linear-algebra kernel: ranks, kernels, solving.

Property-based checks pin down the algebraic laws (rank--nullity, kernel
membership, solve correctness) that every later verification step leans
on; small frozen cases guard the edge behavior and the error paths.  The
fraction-free Bareiss `rank`, `kernel_basis` and `solve_linear` are checked
against the earlier rational reduced row-echelon elimination, kept here as
the reference: same rank, and the same basis vectors and solutions, value
for value and int or `Fraction` entry for entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from g2verify.exact_linalg import (
    DenseMatrix,
    DimensionMismatch,
    _exact,
    clear_denominators,
    integer_kernel,
    kernel_basis,
    rank,
    solve_linear,
)
from g2verify.g2_algebra import BASIS, G2Element, ad_matrix, bracket, killing, killing_gram
from g2verify.rep7_verifier import (
    BOREL_G2_NAMES,
    build_rep7,
    build_symplectic14,
    conormal_conditions,
    invariant_form,
    moment_zero_check,
    quadric_value,
)

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@st.composite
def qq_matrices(draw, max_dim: int = 5) -> DenseMatrix:
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    entries = draw(
        st.lists(
            st.lists(small_fractions, min_size=ncols, max_size=ncols),
            min_size=nrows,
            max_size=nrows,
        )
    )
    return DenseMatrix.from_rows(entries)


def _echelon(rows: list, ncols: int) -> tuple[list, list[int]]:
    """Reduce `rows` (a list of scalar lists) to reduced row-echelon form.

    Returns the reduced rows and the list of pivot columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        rows[r] = [Fraction(x) / piv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def _reference_rank(m: DenseMatrix) -> int:
    """The earlier rank: pivots of the rational reduced row-echelon form."""
    _, pivots = _echelon([list(row) for row in m.entries], m.cols)
    return len(pivots)


def _reference_kernel_basis(m: DenseMatrix) -> tuple:
    """The earlier kernel: one RREF basis vector per non-pivot column."""
    reduced, pivots = _echelon([list(row) for row in m.entries], m.cols)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [0] * m.cols
        v[fc] = 1
        for r_i, pc in enumerate(pivots):
            v[pc] = _exact(-reduced[r_i][fc])
        basis.append(tuple(v))
    return tuple(basis)


def _reference_solve_linear(m: DenseMatrix, b) -> tuple | None:
    """The earlier solver: the RREF solution with every free variable 0."""
    work = [list(row) + [_exact(x)] for row, x in zip(m.entries, b)]
    reduced, pivots = _echelon(work, m.cols + 1)
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for r_i, pc in enumerate(pivots):
        x[pc] = _exact(reduced[r_i][m.cols])
    return tuple(x)


def _typed(v) -> list | None:
    """The entries of `v` with their types: an int and an integral
    Fraction compare equal, and the kernel must store the int."""
    return None if v is None else [(type(x), x) for x in v]


tall_fractions = st.builds(
    Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)
)


@st.composite
def rank_test_matrices(draw) -> DenseMatrix:
    """Up to 8x8: dense, rank-deficient products, or zero; small or tall entries."""
    nrows = draw(st.integers(min_value=1, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=8))
    entries = draw(st.sampled_from([small_fractions, tall_fractions]))

    def grid(r: int, c: int) -> DenseMatrix:
        return DenseMatrix.from_rows(
            draw(st.lists(st.lists(entries, min_size=c, max_size=c), min_size=r, max_size=r))
        )

    kind = draw(st.sampled_from(["dense", "product", "zero"]))
    if kind == "zero":
        return DenseMatrix.from_rows([[0] * ncols for _ in range(nrows)])
    if kind == "dense":
        return grid(nrows, ncols)
    inner = draw(st.integers(min_value=1, max_value=min(nrows, ncols)))
    return grid(nrows, inner) @ grid(inner, ncols)


@given(rank_test_matrices())
@settings(max_examples=200, deadline=None)
def test_bareiss_rank_matches_reference_rank(m: DenseMatrix) -> None:
    r = rank(m)
    assert type(r) is int
    assert r == _reference_rank(m)


@given(rank_test_matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_bareiss_kernel_and_solution_match_reference_rref(m: DenseMatrix, data) -> None:
    kern, reference = kernel_basis(m), _reference_kernel_basis(m)
    assert list(map(_typed, kern)) == list(map(_typed, reference))
    # The integer kernel is the same basis before its division by d.
    vectors, d = integer_kernel(m.entries, m.cols)
    assert type(d) is int and d != 0
    assert all(type(x) is int for v in vectors for x in v)
    assert [[Fraction(x, d) for x in v] for v in vectors] == [list(v) for v in reference]
    # A right-hand side in the image, or drawn freely (mostly inconsistent
    # when m is rank-deficient, so the None branch is exercised too).
    if data.draw(st.booleans()):
        x = data.draw(st.lists(small_fractions, min_size=m.cols, max_size=m.cols))
        b = m.mul_vec(x)
    else:
        b = data.draw(st.lists(small_fractions, min_size=m.rows, max_size=m.rows))
    assert _typed(solve_linear(m, b)) == _typed(_reference_solve_linear(m, b))


@pytest.mark.parametrize(
    "rows, expected",
    [
        ([[0, 0, 0]], 0),
        ([[0], [0]], 0),
        ([[Fraction(3, 7), 0, -5]], 1),
        ([[2], [Fraction(-1, 3)], [0]], 1),
        ([[1, 2], [2, 4]], 1),
        ([[0, 1], [1, 0]], 2),
        # The first column is zero and the second pivot row is found by a swap.
        ([[0, 1, 2], [0, 2, 4], [0, 0, 1]], 2),
        # Determinant -1/7^100: nonzero, though floats would round it away.
        (
            [
                [Fraction(10**30 + 1, 7**50), Fraction(10**30, 7**50)],
                [Fraction(10**30, 7**50), Fraction(10**30 - 1, 7**50)],
            ],
            2,
        ),
        ([[Fraction(10**30, 7**50), Fraction(10**30, 7**50)], [1, 1]], 1),
    ],
)
def test_rank_edge_cases(rows, expected) -> None:
    m = DenseMatrix.from_rows(rows)
    assert rank(m) == _reference_rank(m) == expected


def test_clear_denominators_returns_ints() -> None:
    values = [Fraction(1, 6), 0, Fraction(-3, 4), 5]
    scaled = clear_denominators(values)
    assert scaled == [2, 0, -9, 60]
    assert all(type(x) is int for x in scaled)
    assert clear_denominators([0, Fraction(0)]) == [0, 0]
    assert all(type(x) is int for x in clear_denominators([Fraction(0), 0]))
    for bad in (0.0, 0.5, True):
        with pytest.raises(TypeError):
            clear_denominators([1, bad])


@given(qq_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(m: DenseMatrix) -> None:
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(qq_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_and_are_independent(m: DenseMatrix) -> None:
    kern = kernel_basis(m)
    for v in kern:
        assert not any(m.mul_vec(v))
    if kern:
        assert rank(DenseMatrix.from_rows(kern)) == len(kern)


@given(qq_matrices(), st.data())
@settings(max_examples=60, deadline=None)
def test_solve_recovers_consistent_systems(m: DenseMatrix, data) -> None:
    x = data.draw(
        st.lists(small_fractions, min_size=m.cols, max_size=m.cols)
    )
    b = m.mul_vec(x)
    sol = solve_linear(m, b)
    assert sol is not None
    assert m.mul_vec(sol) == b


@given(qq_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_is_transpose_invariant(m: DenseMatrix) -> None:
    assert rank(m) == rank(m.transpose())


@given(qq_matrices(max_dim=4), qq_matrices(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_product_transpose_law(a: DenseMatrix, b: DenseMatrix) -> None:
    if a.cols != b.rows:
        b = b.transpose()
        if a.cols != b.rows:
            return
    lhs = (a @ b).transpose()
    rhs = b.transpose() @ a.transpose()
    assert lhs.entries == rhs.entries


sparse_fractions = st.one_of(st.just(0), small_fractions)


@st.composite
def sparse_matrix_pairs(draw) -> tuple[DenseMatrix, DenseMatrix, list]:
    """a (n x k), b (k x m) and a k-vector, with about half their entries 0."""
    n, k, m = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))

    def grid(r: int, c: int) -> DenseMatrix:
        row = st.lists(sparse_fractions, min_size=c, max_size=c)
        return DenseMatrix.from_rows(draw(st.lists(row, min_size=r, max_size=r)))

    return grid(n, k), grid(k, m), draw(st.lists(sparse_fractions, min_size=k, max_size=k))


@given(sparse_matrix_pairs())
@settings(max_examples=100, deadline=None)
def test_sparse_products_match_dense_reference(operands) -> None:
    # The products walk only nonzero entries; every entry of the dense sums
    # must come out equal in value and in int/Fraction type.
    a, b, v = operands
    dense = [
        [_exact(sum(x * y for x, y in zip(row, b.column(j)))) for j in range(b.cols)]
        for row in a.entries
    ]
    assert [_typed(row) for row in (a @ b).entries] == [_typed(row) for row in dense]
    dense_vec = [_exact(sum(x * y for x, y in zip(row, v))) for row in a.entries]
    assert _typed(a.mul_vec(v)) == _typed(dense_vec)


def test_solve_inconsistent_returns_none() -> None:
    m = DenseMatrix.from_rows([[1], [1]])
    assert solve_linear(m, [0, 1]) is None


def test_identity_is_neutral() -> None:
    m = DenseMatrix.from_rows([[1, 2], [3, 4], [5, 6]])
    assert (DenseMatrix.identity(3) @ m).entries == m.entries
    assert (m @ DenseMatrix.identity(2)).entries == m.entries


def test_singular_rational_matrix_has_kernel() -> None:
    m = DenseMatrix.from_rows([[1, 2], [2, 4]])
    assert rank(m) == 1
    (v,) = kernel_basis(m)
    assert v[0] + 2 * v[1] == 0


def test_fields_reject_inexact_scalars() -> None:
    m = DenseMatrix.from_rows([[1, 2], [3, 4]])
    for bad in (0.5, True):
        with pytest.raises(TypeError):
            DenseMatrix.from_rows([[bad]])
        with pytest.raises(TypeError):
            m.mul_vec([1, bad])
        with pytest.raises(TypeError):
            m.scale(bad)
        with pytest.raises(TypeError):
            quadric_value([bad, 0, 0, 1, 0, 0, 0])
        # A g2 element refuses it, so no float reaches a Killing value or
        # a bracket.
        with pytest.raises(TypeError):
            killing(G2Element((bad,) + (0,) * 13), BASIS[3])
        with pytest.raises(TypeError):
            bracket(G2Element((bad,) + (0,) * 13), BASIS[3])
    # An inexact zero is refused too, not skipped as zero, in either
    # vector of the conormal conditions and in the moment map's point.
    inexact = [0.0, 0, 0, 1, 0, 0, 0]
    exact = [1, 0, 0, 0, 0, 0, 0]
    for call in (
        lambda: quadric_value(inexact),
        lambda: conormal_conditions(inexact, exact),
        lambda: conormal_conditions(exact, inexact),
        lambda: moment_zero_check(exact + inexact),
    ):
        with pytest.raises(TypeError):
            call()


def test_dimension_mismatches_raise() -> None:
    m = DenseMatrix.from_rows([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        m.mul_vec([1, 2, 3])
    with pytest.raises(DimensionMismatch):
        m @ DenseMatrix.from_rows([[1, 2, 3]])
    with pytest.raises(DimensionMismatch):
        DenseMatrix(2, 2, ((Fraction(1),),))
    with pytest.raises(DimensionMismatch):
        DenseMatrix.from_rows([])
    with pytest.raises(DimensionMismatch):
        solve_linear(m, [1, 2, 3])
    # The quadratic forms check the length of every vector, short or long.
    exact = [1, 0, 0, 0, 0, 0, 0]
    for bad in ([1, 2], [0, 0, 0, 1, 0, 0, 0, 0, 0]):
        for call in (
            lambda: quadric_value(bad),
            lambda: conormal_conditions(bad, exact),
            lambda: conormal_conditions(exact, bad),
            lambda: moment_zero_check(exact + bad),
        ):
            with pytest.raises(DimensionMismatch):
                call()


def test_integral_entries_are_stored_as_ints() -> None:
    def all_int(m: DenseMatrix) -> bool:
        return all(type(e) is int for row in m.entries for e in row)

    rep = build_rep7()
    symp = build_symplectic14()
    assert len(rep.matrices) == 14 and all(map(all_int, rep.matrices))
    assert all_int(invariant_form()) and all_int(symp.omega)
    b = invariant_form()
    moment = [symp.omega @ a for a in symp.actions14]
    conormal = [b] + [m.transpose() @ b - b @ m for m in map(rep.matrix, BOREL_G2_NAMES)]
    assert len(moment) == 10 and all(map(all_int, moment))
    assert len(conormal) == 9 and all(map(all_int, conormal))
    assert all(all_int(ad_matrix(b)) for b in BASIS)
    assert all(type(e) is int for row in killing_gram() for e in row)
    two = DenseMatrix.from_rows([[Fraction(4, 2)]]).entry(0, 0)
    assert type(two) is int and two == 2
    assert type(G2Element((Fraction(4, 2),) + (0,) * 13).coords[0]) is int
    # Arithmetic that lands on an integer stores it as an int as well.
    half = DenseMatrix.from_rows([[Fraction(1, 2), 1], [0, Fraction(3, 2)]])
    for m in (half + half, half.scale(2), half @ DenseMatrix.from_rows([[2, 0], [0, 2]])):
        assert all_int(m)
    assert all(type(e) is int for e in half.mul_vec([2, 2]))
    (v,) = kernel_basis(DenseMatrix.from_rows([[Fraction(1, 2), Fraction(1, 2)]]))
    assert v == (-1, 1) and all(type(e) is int for e in v)
    assert type(half.entry(0, 0)) is Fraction
