"""Exact linear-algebra kernel: ranks and kernels.

Property-based checks pin down the algebraic laws (rank--nullity, kernel
membership) that every later verification step leans on; small frozen
cases guard the edge behavior and the error paths.  The fraction-free
`rank` and `kernel_basis`, whose echelon pivots on the first row with a
nonzero in the column, uses drawn rows as they are and makes every
computed row primitive, are checked against two earlier eliminations
kept here as references, and are unchanged when the rows are permuted,
scaled or padded with zero rows.  The rational reduced row-echelon one
takes dense and sparse drawn matrices: same rank, and the same basis
vectors times one least positive factor that makes them all integral.  The dense integer Bareiss one, which the
package ran before, takes every rank and kernel of three whole runs.

A `DenseMatrix` holds ints only, so the strategies draw rational rows,
the references reduce those rows, and the package receives them cleared
of denominators (`_integer`): a nonzero factor per row changes no rank
and no kernel.  The strategies draw a shape first and then one flat list
of (numerator, denominator) pairs, which Hypothesis generates far faster
than nested lists of fractions.
"""

from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from g2verify import exact_linalg, report_cli
from g2verify import g2_algebra as g2
from g2verify import rep7_verifier as rep7
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import (
    DenseMatrix, DimensionMismatch, add_product, invariance_residual, kernel_basis, rank,
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
from g2verify.report_cli import Config, run_suite
from g2verify.sampling import cleared

from conftest import clear, clear_caches

#: A pair (n, d) stands for n/6 rounded down to a multiple of 1/d, which
#: reaches every fraction in [-5, 5] with denominator at most 6 with two
#: integer draws and no nested strategy.
small_pairs = st.tuples(st.integers(-30, 30), st.integers(1, 6))


def _small(pair: tuple[int, int]) -> Fraction:
    n, d = pair
    return Fraction(n * d // 6, d)


def _grid(values: list, nrows: int, ncols: int) -> list[list]:
    """The flat `values` as `nrows` rows of `ncols`."""
    return [values[i * ncols : (i + 1) * ncols] for i in range(nrows)]


@st.composite
def qq_matrices(draw, max_dim: int = 5) -> list[list[Fraction]]:
    """Rational rows: the shape first, then one flat list of small pairs."""
    nrows = draw(st.integers(min_value=1, max_value=max_dim))
    ncols = draw(st.integers(min_value=1, max_value=max_dim))
    pairs = draw(st.lists(small_pairs, min_size=nrows * ncols, max_size=nrows * ncols))
    return _grid(list(map(_small, pairs)), nrows, ncols)


def _integer(rows) -> DenseMatrix:
    """The matrix of the rational `rows`, each cleared of denominators."""
    return DenseMatrix.from_rows([clear(row) for row in rows])


def _normal(x):
    """The rational `x` as an int when integral, else as a Fraction: the
    form of a reference value, whose type `_typed` compares too."""
    x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _apply(rows, v) -> list:
    """rows times the vector v, summed entry by entry in rationals."""
    return [_normal(sum(x * y for x, y in zip(row, v))) for row in rows]


def _product(a, b) -> list[list]:
    """The rational product of the row lists a and b."""
    columns = list(zip(*b))
    return [_apply(columns, row) for row in a]


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


def _reference_rank(rows) -> int:
    """The earlier rank: pivots of the rational reduced row-echelon form."""
    _, pivots = _echelon([list(row) for row in rows], len(rows[0]))
    return len(pivots)


def _reference_kernel_basis(rows) -> tuple:
    """The earlier kernel: one RREF basis vector per non-pivot column."""
    ncols = len(rows[0])
    reduced, pivots = _echelon([list(row) for row in rows], ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols
        v[fc] = 1
        for r_i, pc in enumerate(pivots):
            v[pc] = _normal(-reduced[r_i][fc])
        basis.append(tuple(v))
    return tuple(basis)


def _typed(v) -> list:
    """The entries of `v` with their types: an int and an integral
    Fraction compare equal, and the kernel must store the int."""
    return [(type(x), x) for x in v]


#: Tall fractions n/d as (n, d) pairs, with numerator and denominator up to 10^40.
tall_pairs = st.tuples(st.integers(-(10**40), 10**40), st.integers(1, 10**40))


@st.composite
def rank_test_matrices(draw) -> list[list]:
    """Rational rows, up to 8x8: dense, rank-deficient products, or zero;
    small or tall entries.  The shape first, then one flat list of pairs
    per factor."""
    nrows = draw(st.integers(min_value=1, max_value=8))
    ncols = draw(st.integers(min_value=1, max_value=8))
    pairs, value = draw(
        st.sampled_from([(small_pairs, _small), (tall_pairs, lambda p: Fraction(*p))])
    )

    def grid(r: int, c: int) -> list[list]:
        return _grid(list(map(value, draw(st.lists(pairs, min_size=r * c, max_size=r * c)))), r, c)

    kind = draw(st.sampled_from(["dense", "product", "zero"]))
    if kind == "zero":
        return [[0] * ncols for _ in range(nrows)]
    if kind == "dense":
        return grid(nrows, ncols)
    inner = draw(st.integers(min_value=1, max_value=min(nrows, ncols)))
    return _product(grid(nrows, inner), grid(inner, ncols))


#: A nonzero entry of a sparse matrix: a small fraction, or a tall integer.
nonzero_entries = st.one_of(
    st.builds(Fraction, st.integers(1, 9) | st.integers(-9, -1), st.integers(1, 6)),
    st.integers(-(10**12), 10**12).filter(bool),
)


@st.composite
def sparse_rank_matrices(draw) -> list[list]:
    """Rational rows up to 12 x 16 with 50-90% zeros, the package's own
    shapes and sparsity: the shape, then the places of the nonzero entries
    and their values."""
    nrows, ncols = draw(st.integers(1, 12)), draw(st.integers(1, 16))
    size = nrows * ncols
    count = draw(st.integers(size // 10, size // 2))
    places = draw(st.lists(st.integers(0, size - 1), min_size=count, max_size=count, unique=True))
    nonzeros = draw(st.lists(nonzero_entries, min_size=count, max_size=count))
    values = [0] * size
    for place, value in zip(places, nonzeros):
        values[place] = value
    return _grid(values, nrows, ncols)


@given(st.one_of(rank_test_matrices(), sparse_rank_matrices()))
@settings(max_examples=200, deadline=None)
def test_echelon_rank_matches_reference_rank(rows) -> None:
    r = rank(_integer(rows))
    assert type(r) is int
    assert r == _reference_rank(rows)


@given(st.one_of(rank_test_matrices(), sparse_rank_matrices()))
@settings(max_examples=200, deadline=None)
def test_echelon_kernel_matches_reference_rref(rows) -> None:
    m = _integer(rows)
    kern, reference = kernel_basis(m), _reference_kernel_basis(rows)
    _, pivots = _echelon([list(row) for row in rows], m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    assert len(kern) == len(reference) == len(free)
    assert all(type(x) is int for v in kern for x in v)
    # The kernel is the RREF basis times one factor L, read at the free
    # columns: equal and positive across the vectors, and least, so that
    # no common divisor of L and the entries is left.
    if kern:
        (factor,) = {v[c] for v, c in zip(kern, free)}
        assert factor > 0
        assert kern == tuple(tuple(factor * x for x in v) for v in reference)
        assert gcd(factor, *chain.from_iterable(kern)) == 1


@example([[-2]])  # the drawn pivot keeps its content 2
@example([[2, 4], [1, 3]])  # (2, 4) is drawn; the update (0, 2) becomes (0, 1)
@given(st.one_of(rank_test_matrices(), sparse_rank_matrices()))
@settings(max_examples=200, deadline=None)
def test_echelon_rows_are_drawn_or_primitive(rows) -> None:
    # Every echelon row is nonzero and 0 left of its nonzero pivot entry, and
    # it is either an input row as drawn or a computed row, made primitive.
    m = _integer(rows)
    reduced, pivots = exact_linalg.echelon(m.entries, m.cols)
    assert len(reduced) == len(pivots) == _reference_rank(rows)
    assert pivots == sorted(set(pivots))
    for row, c in zip(reduced, pivots):
        assert row[c] and not any(row[:c])
        assert tuple(row) in m.entries or gcd(*row) == 1


@given(st.one_of(rank_test_matrices(), sparse_rank_matrices()), st.data())
@settings(max_examples=100, deadline=None)
def test_answers_ignore_row_order_scale_and_zero_rows(rows, data) -> None:
    # The rank, the pivot columns and the kernel depend on the row space
    # alone, so neither the choice of pivot row nor a row's content may show
    # in them: permuting the rows, scaling each by a nonzero integer and
    # padding with zero rows changes none of them.
    m = _integer(rows)
    padded = list(m.entries) + [(0,) * m.cols] * data.draw(st.integers(0, 3))
    scales = data.draw(
        st.lists(st.integers(-12, 12).filter(bool), min_size=len(padded), max_size=len(padded))
    )
    order = data.draw(st.permutations(range(len(padded))))
    moved = DenseMatrix.from_rows([[scales[i] * x for x in padded[i]] for i in order])
    assert rank(moved) == rank(m)
    assert exact_linalg.echelon(moved.entries, moved.cols)[1] == (
        exact_linalg.echelon(m.entries, m.cols)[1]
    )
    assert kernel_basis(moved) == kernel_basis(m)


# The elimination as the package wrote it before its echelon skipped the
# rows with a zero in the pivot column: dense fraction-free Bareiss, and
# back-substitution times the last pivot d.
def _bareiss(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free (Bareiss) row-echelon form of the integer `rows`, the
    entries of a `DenseMatrix`.  Returns the nonzero integer echelon rows
    and their pivot columns.  Every row below a pivot is updated, zeros in
    the pivot column included, so every division by the previous pivot is
    exact.  Only the entries right of the pivot column are computed: those
    left of it are already 0 in these rows, and the pivot column's become 0."""
    rows = [list(r) for r in rows if any(r)]
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv, top = rows[r][c], rows[r][c + 1 :]
        for i in range(r + 1, len(rows)):
            row = rows[i]
            f = row[c]
            row[c] = 0
            row[c + 1 :] = [(piv * x - f * y) // prev for x, y in zip(row[c + 1 :], top)]
        prev = piv
        pivots.append(c)
    return rows[: len(pivots)], pivots


def _bareiss_null_vector(rows, pivots, ncols: int, free: int, d: int) -> list:
    """d times the null vector of the echelon `rows` that is 1 at the
    non-pivot column `free` and 0 at every other one, for d their last
    pivot.  The vector is unique, so it is the reduced row-echelon basis
    vector, and d is the determinant of the rows' minor on the pivot
    columns, so by Cramer's rule d times the vector is integral: it is
    back-substituted in integers, each division exact."""
    v = [0] * ncols
    v[free] = d
    for row, pc in zip(reversed(rows), reversed(pivots)):
        acc = sum(row[j] * v[j] for j in range(pc + 1, ncols) if v[j])
        v[pc], remainder = divmod(-acc, row[pc])
        if remainder:
            raise ArithmeticError("Bareiss back-substitution left a remainder")
    return v


def _bareiss_rank(m: DenseMatrix) -> int:
    return len(_bareiss(m.entries, m.cols)[1])


def _bareiss_kernel_basis(m: DenseMatrix) -> tuple:
    """The reduced row-echelon basis times the least positive L that makes
    every vector integral."""
    echelon, pivots = _bareiss(m.entries, m.cols)
    d = echelon[-1][pivots[-1]] if echelon else 1  # the last pivot
    free = (c for c in range(m.cols) if c not in pivots)
    vectors = [_bareiss_null_vector(echelon, pivots, m.cols, c, d) for c in free]
    # The vectors are d times the reduced basis, so L = |d| / g.
    g = gcd(d, *chain.from_iterable(vectors))
    g = g if d > 0 else -g
    return tuple(tuple(x // g for x in v) for v in vectors)


#: The benchmark's workloads, with the calls of one cold run of each.
RUNS = {
    "default": (Config(), {"rank": 149, "kernel_basis": 21}),
    "oracle": (Config(suites=("linear",), samples=1), {"rank": 17, "kernel_basis": 9}),
    "exact": (Config(suites=("algebra", "slice"), samples=40), {"rank": 45, "kernel_basis": 12}),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_every_elimination_of_a_run_matches_the_bareiss_reference(monkeypatch, run) -> None:
    # Every rank and kernel_basis call of a cold run, wherever the package
    # imported the function, returns what the Bareiss reference returns.
    config, expected_calls = RUNS[run]
    calls, mismatches = Counter(), []
    for name, reference in (("rank", _bareiss_rank), ("kernel_basis", _bareiss_kernel_basis)):
        true = getattr(exact_linalg, name)

        def checked(m, name=name, true=true, reference=reference):
            calls[name] += 1
            value = true(m)
            if value != reference(m):
                mismatches.append((name, m))
            return value

        for module in (exact_linalg, g2, rep7, report_cli, sv):
            if getattr(module, name, None) is true:
                monkeypatch.setattr(module, name, checked)
    clear_caches()
    try:
        report = run_suite(config)
    finally:
        clear_caches()  # nothing a wrapped call filled outlives the test
    assert report.summary["failed"] == 0
    assert mismatches == []
    assert calls == expected_calls


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
    assert rank(_integer(rows)) == _reference_rank(rows) == expected


def test_cleared_returns_ints() -> None:
    # 1/6, 0, -3/4, 5 drawn as pairs: times lcm(6, 1, 4, 1) = 12.
    scaled = cleared([(1, 6), (0, 1), (-3, 4), (5, 1)])
    assert scaled == [2, 0, -9, 60]
    assert all(type(x) is int for x in scaled)
    # Unreduced pairs scale by the lcm of the denominators as drawn, zeros'
    # included: 2/4 and 0/6 times 12.
    assert cleared([(2, 4), (0, 6)]) == [6, 0]
    assert cleared([(0, 3)]) == [0]


@given(qq_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_nullity(rows) -> None:
    m = _integer(rows)
    assert rank(m) + len(kernel_basis(m)) == m.cols


@given(qq_matrices())
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_annihilate_and_are_independent(rows) -> None:
    kern = kernel_basis(_integer(rows))
    for v in kern:
        assert not any(_apply(rows, v))
    if kern:
        assert rank(_integer(kern)) == len(kern)


@given(qq_matrices())
@settings(max_examples=60, deadline=None)
def test_rank_is_transpose_invariant(rows) -> None:
    m = _integer(rows)
    assert rank(m) == rank(m.transpose()) == rank(_integer(zip(*rows)))


@given(qq_matrices(max_dim=4), qq_matrices(max_dim=4))
@settings(max_examples=40, deadline=None)
def test_product_transpose_law(a_rows, b_rows) -> None:
    a, b = _integer(a_rows), _integer(b_rows)
    if a.cols != b.rows:
        b = b.transpose()
        if a.cols != b.rows:
            return
    lhs = (a @ b).transpose()
    rhs = b.transpose() @ a.transpose()
    assert lhs.entries == rhs.entries


#: A small pair or, about half the time, the pair (0, 1) of a zero entry.
sparse_pairs = st.one_of(st.just((0, 1)), small_pairs)


@st.composite
def sparse_matrix_pairs(draw) -> tuple[DenseMatrix, DenseMatrix, list[int]]:
    """a (n x k), b (k x m) and a k-vector, with about half their entries 0,
    drawn rational and each row (and the vector) cleared of denominators:
    the shape first, then one flat list of pairs for all three."""
    n, k, m = (draw(st.integers(min_value=1, max_value=5)) for _ in range(3))
    size = n * k + k * m + k
    values = list(map(_small, draw(st.lists(sparse_pairs, min_size=size, max_size=size))))
    a, b, v = values[: n * k], values[n * k : -k], values[-k:]
    return _integer(_grid(a, n, k)), _integer(_grid(b, k, m)), clear(v)


@given(sparse_matrix_pairs())
@settings(max_examples=100, deadline=None)
def test_sparse_products_match_dense_reference(operands) -> None:
    # The products walk only nonzero entries; every entry of the dense sums
    # must come out equal in value, and as an int.
    a, b, v = operands
    dense = [
        [_normal(sum(x * y for x, y in zip(row, b.column(j)))) for j in range(b.cols)]
        for row in a.entries
    ]
    assert [_typed(row) for row in (a @ b).entries] == [_typed(row) for row in dense]
    dense_vec = [_normal(sum(x * y for x, y in zip(row, v))) for row in a.entries]
    assert _typed(a.mul_vec(v)) == _typed(dense_vec)
    # add_product with sign -1 subtracts a b from a grid that is not zero.
    start = [[i - 2 * j + 1 for j in range(b.cols)] for i in range(a.rows)]
    grid = [row.copy() for row in start]
    add_product(grid, a.nonzeros, b.nonzeros, -1)
    expected = [[s - d for s, d in zip(*rows)] for rows in zip(start, dense)]
    assert [_typed(row) for row in grid] == [_typed(row) for row in expected]
    assert a.nonzero_columns == a.transpose().nonzeros


_SMALL_ENTRY = st.sampled_from((0, 0, 0, 1, -1, 2))


@st.composite
def square_pairs(draw) -> tuple:
    """Two n x n matrices of one drawn n <= 4, their entries mostly 0."""
    n = draw(st.integers(1, 4))
    grid = st.lists(st.lists(_SMALL_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    return DenseMatrix.from_rows(draw(grid)), DenseMatrix.from_rows(draw(grid))


# An antisymmetric b that the diagonal m leaves invariant, and a b that is
# neither symmetric nor antisymmetric, which it does not.
@example((DenseMatrix.from_rows([[1, 0], [0, -1]]), DenseMatrix.from_rows([[0, 1], [-1, 0]])))
@example((DenseMatrix.from_rows([[1, 0], [0, -1]]), DenseMatrix.from_rows([[1, 2], [0, 1]])))
@given(square_pairs())
@settings(max_examples=200, deadline=None)
def test_invariance_residual_matches_the_matrix_formulation(pair) -> None:
    # Entry by entry, the grid is the dense m^T b + b m, in ints.
    m, b = pair
    dense = m.transpose() @ b + b @ m
    residual = invariance_residual(m.nonzeros, m.nonzero_columns, b.nonzeros)
    assert list(map(_typed, residual)) == list(map(_typed, dense.entries))
    # With m's rows and columns swapped, it is the residual of m^T.
    dense = m @ b + b @ m.transpose()
    residual = invariance_residual(m.nonzero_columns, m.nonzeros, b.nonzeros)
    assert list(map(_typed, residual)) == list(map(_typed, dense.entries))


@st.composite
def same_shape_pairs(draw) -> tuple[DenseMatrix, DenseMatrix]:
    """Two integer matrices of one drawn shape."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    entries = st.lists(st.integers(-30, 30), min_size=n * m, max_size=n * m)
    return tuple(DenseMatrix.from_rows(_grid(draw(entries), n, m)) for _ in range(2))


@given(same_shape_pairs())
@settings(max_examples=60, deadline=None)
def test_difference_is_the_sum_with_the_negation(operands) -> None:
    a, b = operands
    assert a - b == a + b.scale(-1)


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
    for other in (DenseMatrix.from_rows([[1, 2, 3]]), DenseMatrix.from_rows([[1, 2]])):
        with pytest.raises(DimensionMismatch):
            m - other
        with pytest.raises(DimensionMismatch):
            m + other
    with pytest.raises(DimensionMismatch):
        DenseMatrix(2, 2, ((Fraction(1),),))
    with pytest.raises(DimensionMismatch):
        DenseMatrix.from_rows([])
    # A shape with 0 rows or 0 columns, and fewer full rows than declared.
    for shape in ((0, 2, ()), (2, 0, ((), ())), (3, 2, ((1, 2), (3, 4)))):
        with pytest.raises(DimensionMismatch):
            DenseMatrix(*shape)
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
    # An exact quotient lands on ints, and a kernel vector is the reduced
    # row-echelon one where that is integral, and its least integral
    # multiple where it is not: (-1/2, 1) becomes (-1, 2).
    even = DenseMatrix.from_rows([[2, -6], [0, 4]])
    assert even.scale(Fraction(1, 2)).entries == ((1, -3), (0, 2))
    assert all_int(even.scale(Fraction(-3, 2))) and all_int(even.scale(Fraction(4, 2)))
    (v,) = kernel_basis(_integer([[Fraction(1, 2), Fraction(1, 2)]]))
    assert v == (-1, 1) and all(type(e) is int for e in v)
    (w,) = kernel_basis(DenseMatrix.from_rows([[2, 1]]))
    assert w == (-1, 2) and all(type(e) is int for e in w)
    # One factor serves all vectors: (-1/2, 1, 0) and (-3/2, 0, 1), times 2.
    assert kernel_basis(DenseMatrix.from_rows([[2, 1, 3]])) == ((-1, 2, 0), (-3, 0, 2))


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(4, 2), 1.0, True])
def test_matrices_refuse_every_entry_but_an_int(bad) -> None:
    # An integral Fraction is refused too: a DenseMatrix holds one scalar type.
    with pytest.raises(TypeError):
        DenseMatrix.from_rows([[1, bad], [0, 1]])
    with pytest.raises(TypeError):
        DenseMatrix(2, 2, ((1, bad), (0, 1)))
    with pytest.raises(TypeError):
        DenseMatrix.identity(2).mul_vec([1, bad])
    # A g2 element holds ints only, as a matrix does, and `scale` checks its
    # factor itself: True times an int coordinate is an int.
    with pytest.raises(TypeError):
        G2Element((bad,) + (0,) * 13)
    with pytest.raises(TypeError):
        G2Element.basis(0).scale(bad)
    # The rows must be tuples: a list row would compare unequal to the same
    # ints in a tuple, and make the matrix unhashable.
    with pytest.raises(TypeError):
        DenseMatrix(1, 2, ([1, 2],))
    with pytest.raises(TypeError):
        DenseMatrix(1, 2, [(1, 2)])


def test_scale_is_an_exact_quotient() -> None:
    m = DenseMatrix.from_rows([[2, 3], [4, 6]])
    with pytest.raises(ArithmeticError):
        m.scale(Fraction(1, 2))  # 3/2 is not an integer
    assert m.scale(Fraction(-4, 2)).entries == ((-4, -6), (-8, -12))
    assert DenseMatrix.from_rows([[3, -6]]).scale(Fraction(2, 3)).entries == ((2, -4),)
    for bad in (0.5, 2.0, True):
        with pytest.raises(TypeError):
            m.scale(bad)
