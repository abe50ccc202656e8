"""Small integer linear algebra, stored dense and multiplied sparse.

A `DenseMatrix` stores its dense `entries`, Python ints only, and its
`scale` by a Fraction is an exact quotient.  Two cached views list its
nonzero entries: `nonzeros` by row and `nonzero_columns` by column (the
rows of the transpose, `sparse_transpose`).  The module owns the sparse
product and the invariance residual: `add_product` adds sign a b into a
grid off such rows, for `@` and every sweep that sums products, and
`invariance_residual` sums m^T b + b m with it, which the Killing, B, q and
omega sweeps read and `invariant_form` solves B from.  The echelon reads
the dense rows instead.

One fraction-free echelon on integers serves `rank` (its pivot count) and
`kernel_basis`: the first row with a nonzero in a column is its pivot,
drawn rows are used as they are, only the rows with a nonzero in the pivot
column are updated, and each computed row is made primitive.  The pivot
columns depend only on the matrix, and any echelon with them
back-substitutes to one kernel basis: the reduced row-echelon basis times
the least positive factor that makes it integral, so ints only.  A linear
solve is a null vector of the augmented matrix, read by its caller.
Floating point is never used anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence


class DimensionMismatch(ValueError):
    """A vector or matrix operand has incompatible dimensions."""


def check_ints(values: Iterable) -> None:
    """TypeError unless each of `values` is an int: not a bool, a float or a
    Fraction, not even an integral one."""
    if not {int}.issuperset(map(type, values)):
        raise TypeError("expected ints only, not a bool, a float or a Fraction")


@dataclass(frozen=True)
class DenseMatrix:
    """An immutable integer matrix: every entry is an int, whichever way
    the matrix is built.  It stores the dense `entries`; `nonzeros` and
    `nonzero_columns` are cached sparse views of them, the rows that
    `add_product` multiplies, while `echelon` reads the dense rows."""

    rows: int
    cols: int
    entries: tuple  # tuple of row tuples of ints

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise DimensionMismatch("matrix dimensions must be positive")
        if type(self.entries) is not tuple or any(type(r) is not tuple for r in self.entries):
            raise TypeError("a DenseMatrix holds a tuple of row tuples")
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise DimensionMismatch("entry grid does not match declared shape")
        check_ints(chain.from_iterable(self.entries))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> DenseMatrix:
        entries = tuple(map(tuple, rows))
        return cls(len(entries), len(entries[0]) if entries else 0, entries)

    @classmethod
    def identity(cls, n: int) -> DenseMatrix:
        return cls.from_rows([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def entry(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i][j] for i in range(self.rows))

    def transpose(self) -> DenseMatrix:
        return DenseMatrix(self.cols, self.rows, tuple(zip(*self.entries)))

    def __add__(self, other: DenseMatrix) -> DenseMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition shape mismatch")
        rows = (tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        return DenseMatrix(self.rows, self.cols, tuple(rows))

    def __sub__(self, other: DenseMatrix) -> DenseMatrix:
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction shape mismatch")
        rows = (tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries))
        return DenseMatrix(self.rows, self.cols, tuple(rows))

    def scale(self, s: int | Fraction) -> DenseMatrix:
        """`s` times the matrix, for an int or a Fraction `s`: an exact
        quotient, so ArithmeticError if some product is not an integer."""
        if type(s) not in (int, Fraction):
            raise TypeError(f"not an exact rational: {s!r}")
        n, d = s.numerator, s.denominator
        entries = tuple(tuple(n * x for x in row) for row in self.entries)
        if d != 1:
            if any(x % d for row in entries for x in row):
                raise ArithmeticError(f"{s} times the matrix is not an integer matrix")
            entries = tuple(tuple(x // d for x in row) for row in entries)
        return DenseMatrix(self.rows, self.cols, entries)

    @cached_property
    def nonzeros(self) -> tuple:
        """Per row, the (column, entry) pairs of its nonzero entries."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.entries)

    @cached_property
    def nonzero_columns(self) -> tuple:
        """Per column, the (row, entry) pairs of its nonzero entries: the
        `nonzeros` of the transpose, read without building it."""
        return sparse_transpose(self.nonzeros, self.cols)

    def __matmul__(self, other: DenseMatrix) -> DenseMatrix:
        if self.cols != other.rows:
            raise DimensionMismatch("matrix product shape mismatch")
        grid = [[0] * other.cols for _ in range(self.rows)]
        add_product(grid, self.nonzeros, other.nonzeros, 1)
        return DenseMatrix(self.rows, other.cols, tuple(map(tuple, grid)))

    def mul_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.cols:
            raise DimensionMismatch("matrix-vector shape mismatch")
        check_ints(v)
        return tuple(sum(a * v[k] for k, a in row) for row in self.nonzeros)


def add_product(grid: list, a: Sequence, b: Sequence, sign: int) -> None:
    """grid += sign a b, for a and b given by their sparse rows, such as
    `nonzeros` or `nonzero_columns`: each (k, x) of a's row i adds
    sign x times b's row k to the grid's row i."""
    for acc, row in zip(grid, a):
        for k, x in row:
            x *= sign
            for j, y in b[k]:
                acc[j] += x * y


def sparse_transpose(rows: Sequence, ncols: int) -> tuple:
    """The sparse rows of the transpose of the matrix with sparse `rows`
    and `ncols` columns: per column, its (row, entry) pairs."""
    columns = [[] for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row:
            columns[j].append((i, x))
    return tuple(map(tuple, columns))


def invariance_residual(m_rows: Sequence, m_columns: Sequence, b_rows: Sequence) -> list:
    """m^T b + b m in a fresh grid, for square m and b of one size given by
    their sparse rows and m also by its columns, the rows of m^T.  Entry
    (y, z) is b(m y, z) + b(y, m z), so the grid is zero exactly when m
    leaves the bilinear form of b, symmetric or not, invariant."""
    grid = [[0] * len(b_rows) for _ in b_rows]
    add_product(grid, m_columns, b_rows, 1)
    add_product(grid, b_rows, m_rows, 1)
    return grid


def echelon(rows: Sequence[Sequence[int]], ncols: int) -> tuple[list, list[int]]:
    """Fraction-free row-echelon form of the integer `rows`, the entries of
    a `DenseMatrix`: the nonzero echelon rows and their pivot columns.  Each
    column's pivot row is the first row left with a nonzero there, used as
    it is; each other such row becomes p row - f top, for p the pivot and f
    the row's entry, divided by its content (its entries' gcd).  A row that
    is or becomes 0 is dropped; the sweep ends once none is left."""
    rows = [r for r in rows if any(r)]
    echelon, pivots = [], []
    for c in range(ncols):
        if not rows:
            break
        hits = [r for r in rows if r[c]]
        if not hits:
            continue
        rows = [r for r in rows if not r[c]]
        top = hits[0]
        piv = top[c]
        for row in hits[1:]:
            f = row[c]
            row = [piv * x - f * y for x, y in zip(row, top)]
            content = gcd(*row)
            if content:
                rows.append(row if content == 1 else [x // content for x in row])
        echelon.append(top)
        pivots.append(c)
    return echelon, pivots


def _null_vector(rows: list, pivots: list[int], ncols: int, free: int) -> list[int]:
    """The reduced row-echelon basis vector of the non-pivot column `free`
    times the least positive integer that makes it integral: the primitive
    null vector of the echelon `rows` that is positive at `free` and 0 at
    the other non-pivot columns.  It is back-substituted from e_free, last
    pivot row first; where the pivot p does not divide the row's sum s over
    the entries set so far, the vector is first scaled by |p| / gcd(s, p),
    which keeps it primitive."""
    v = [0] * ncols
    v[free] = 1
    for row, pc in zip(reversed(rows), reversed(pivots)):
        s, p = sum(map(mul, row, v)), row[pc]
        scale = abs(p) // gcd(s, p)
        if scale != 1:
            v = [scale * x for x in v]
            s *= scale
        v[pc] = -s // p
    return v


def rank(m: DenseMatrix) -> int:
    """Rank of `m`: the pivot count of its echelon form."""
    return len(echelon(m.entries, m.cols)[1])


def kernel_basis(m: DenseMatrix) -> tuple[tuple[int, ...], ...]:
    """An integer basis of the right null space of `m`: ``cols - rank(m)``
    vectors v with ``m v = 0``.  For each non-pivot column, the null vector
    that is 1 there and 0 at the other non-pivot columns (the reduced
    row-echelon basis), all times the least positive L that makes every one
    integral, so each reads L at its own non-pivot column."""
    rows, pivots = echelon(m.entries, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    vectors = [_null_vector(rows, pivots, m.cols, c) for c in free]
    # Each vector is the reduced one times its entry k at its free column.
    factor = lcm(*(v[c] for v, c in zip(vectors, free)))
    return tuple(tuple(factor // v[c] * x for x in v) for v, c in zip(vectors, free))
