"""The 7-dimensional representation of g2, its invariant quadric, the
14-dimensional symplectic doubling, conormal/moment-map conditions, and
two independent linear-side orbit counts.

The representation space has ordered basis (v, w, t~, v~, w~, t, u) with
weights (in a-coordinates) -a3, a2, -a1, a3, -a2, a1, 0.  The actions of
f1 and f3 are fixed explicitly, by the eight entries of `SEED_ENTRIES`; the
four unknown coefficients of f2 are determined by linear constraint solving
against the sl2-commutation identities, and the other eleven matrices are
generated by brackets.

Two invariant quadratic objects appear and are kept distinct.  The
element q = u^2 - 4 v v~ - 4 w w~ - 4 t t~ of the symmetric square of
the representation is invariant (coefficient matrix C, typed as sparse
data like rho(f1) and rho(f3); invariance rho(x) C + C rho(x)^T = 0).
The invariant bilinear FORM <.,.> on the representation space
(invariance rho(x)^T B + B rho(x) = 0) is solved from the invariance of
the generators rho(f1), rho(f2), rho(f3) and normalized by <v, v~> = -2;
it pairs the opposite-weight line pairs with -2 and the zero-weight line
with 4, and is proportional to the inverse of C.  The quadric cone Q is the
isotropic locus of the form, which is what the Borel action preserves.

The linear side's quadratic forms are written once, as sparse integer
monomial terms (`_form_terms`, the only cached record of them, built
from B, rho and the symplectic doubling): <x, x> on C^7, and on C^14 = (z, z')
the ten conormal polynomials (<z', z'> and the nine z^T f z') and the ten
moment polynomials x^T omega A x.  The quadric, conormal and moment
predicates evaluate them on integer vectors and refuse any other, the
conormal fiber at z' is the line through z' where z' annihilates the
rows read off the bilinear terms and a 6 x 6 minor of them has rank 6
(their integer `kernel_basis` elsewhere), the check that both sets span
one space takes its coefficient rows from the same table, and so does
the F_p oracle's quadric.  Every point is integral from the draw on: coordinates drawn as
(numerator, denominator) pairs are cleared by their lcm (`cleared`), the
cone's chart is solved by scaling instead of dividing, and a conormal
pair's z combines the fiber's basis vectors with cleared coefficients.

The linear side counts Borel orbits on the quadric cone two ways: over
characteristic zero via T-fixed isotropic lines with pairwise-distinct
orbit dimensions (6 lines + the origin = 7), and over F_p by brute force
(expected 7 for each configured prime): the cone's points are read slab
by slab in u off the table's <x, x> terms without u, summed mod p once
over a p^6 grid, and kept as sorted int32 keys sum_i x_i p^i; numpy labels
their orbits under exp(rho(x)) for the eight BOREL_G2_NAMES x: one
unipotent map per positive root, and s^rho(h) for h_a, h_b.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import gcd, isqrt
from operator import mul
from typing import Sequence

# The oracle's numpy work is integer only and never calls BLAS.  OpenBLAS
# starts its worker threads when numpy is imported, and they busy-wait for
# jobs that never come, billing a varying share of a core to whatever runs
# next; one thread starts none.  An explicit setting by the caller wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import g2_algebra as g2
from .exact_linalg import (
    DenseMatrix, DimensionMismatch, add_product, check_ints, kernel_basis, rank,
)
from .g2_algebra import BASIS_NAMES, BASIS_WEIGHTS, DIM
from .sampling import SmallRationalSampler, cleared

REP_DIM = 7

#: Ordered labels of the representation basis.
REP_LABELS: tuple[str, ...] = ("v", "w", "t~", "v~", "w~", "t", "u")

#: Weight of each representation line in simple-root coordinates; in
#: a-coordinates these are -a3, a2, -a1, a3, -a2, a1, 0.
REP_WEIGHTS: tuple[tuple[int, int], ...] = (
    (2, 1),    # v : -a3
    (1, 1),    # w : a2
    (-1, 0),   # t~: -a1
    (-2, -1),  # v~: a3
    (-1, -1),  # w~: -a2
    (1, 0),    # t : a1
    (0, 0),    # u
)

_V, _W, _TT, _VT, _WT, _T, _U = range(REP_DIM)

#: rho's seed, the eight fixed entries of rho(f1) and rho(f3) as
#: (matrix name, row, col, value); the others are zero.
SEED_ENTRIES: tuple[tuple[str, int, int, int], ...] = (
    ("f1", _W, _V, 1),     # f1 . v = w
    ("f1", _TT, _U, 2),    # f1 . u = 2 t~
    ("f1", _U, _T, 1),     # f1 . t = u
    ("f1", _VT, _WT, -1),  # f1 . w~ = -v~
    ("f3", _W, _TT, 1),    # f3 . t~ = w
    ("f3", _T, _WT, -1),   # f3 . w~ = -t
    ("f3", _U, _VT, -1),   # f3 . v~ = -u
    ("f3", _V, _U, -2),    # f3 . u = -2 v
)


class NoSolutionError(ValueError):
    """The representation constraint system is inconsistent."""


class AmbiguousSolutionError(ValueError):
    """The representation constraint system has more than one solution."""


class BadPrimeError(ValueError):
    """The requested prime cannot be used for the finite-field oracle."""


@dataclass(frozen=True)
class Rep7:
    """Fourteen 7x7 exact matrices indexed by the g2 basis order."""

    matrices: tuple  # tuple of 14 DenseMatrix
    f2_coefficients: tuple  # the four solved scalars

    def matrix(self, name: str) -> DenseMatrix:
        return self.matrices[BASIS_NAMES.index(name)]

    def act(self, terms: Sequence) -> list[list[int]]:
        """The entries of sum c rho(b_k) as a fresh grid of row lists, for
        the sparse terms (k, c) of a bracket-table entry."""
        rows = [[0] * REP_DIM for _ in range(REP_DIM)]
        for k, c in terms:
            for acc, nonzeros in zip(rows, self.matrices[k].nonzeros):
                for j, x in nonzeros:
                    acc[j] += c * x
        return rows


@dataclass(frozen=True)
class Symplectic14:
    """The symplectic doubling (C^7 tensor C^2, omega = B tensor omega2)
    together with the ten Borel generators acting on it.

    Basis order: x_i tensor e_1 for i < 7, then x_i tensor e_2.
    """

    omega: DenseMatrix
    actions14: tuple  # the ten 14x14 matrices, g2 part first


@dataclass(frozen=True)
class OrbitCountResult:
    """Result of the brute-force Borel-orbit count over F_p."""

    point_count: int
    orbit_count: int
    orbit_sizes: tuple[int, ...]
    origin_orbit_size: int


def quadric_element() -> DenseMatrix:
    """Coefficient matrix C of the invariant element q = u^2 - 4vv~ - 4ww~ - 4tt~
    of the symmetric square: x^T C x = q(x)."""
    return _sparse_matrix(
        {(_U, _U): 1, (_V, _VT): -2, (_VT, _V): -2, (_W, _WT): -2, (_WT, _W): -2,
         (_T, _TT): -2, (_TT, _T): -2}
    )


def _sym_index(i: int, j: int) -> int:
    """Position of the (i <= j) entry in the packed symmetric unknown vector."""
    if i > j:
        i, j = j, i
    return i * REP_DIM - i * (i - 1) // 2 + (j - i)


@cache
def invariant_form() -> DenseMatrix:
    """The matrix B of the invariant symmetric bilinear form <.,.>, solved
    exactly.

    The unknown symmetric matrix B must satisfy rho(x)^T B + B rho(x) = 0
    for the generators x = f1, f2, f3 (66 nonzero rows): build_rep7 builds
    the other eleven matrices as their brackets, and invariance under X
    and Y implies it under [X, Y]; verify_invariant_form tests all 14.
    The solution space must be one line (NoSolutionError if it is zero,
    AmbiguousSolutionError if larger), spanned by an integer null vector v
    of any scale, and B = -2 v / v_pivot is normalized by <v, v~> = -2, an
    exact integer quotient.  The result pairs
    opposite weight lines (<v,v~> = <w,w~> = <t,t~> = -2, <u,u> = 4, all
    other basis pairings zero) and is proportional to the inverse of the
    q coefficient matrix.
    """
    rep = build_rep7()
    nunk = REP_DIM * (REP_DIM + 1) // 2
    rows = []
    for m in map(rep.matrix, ("f1", "f2", "f3")):
        # (m^T B + B m)[r][c] = sum_k m[k][r] B[k][c] + B[r][k] m[k][c].
        for r in range(REP_DIM):
            for c in range(r, REP_DIM):
                coeffs = [0] * nunk
                for k in range(REP_DIM):
                    coeffs[_sym_index(k, c)] += m.entry(k, r)
                    coeffs[_sym_index(r, k)] += m.entry(k, c)
                if any(coeffs):
                    rows.append(coeffs)
    kern = kernel_basis(DenseMatrix.from_rows(rows))
    if len(kern) != 1:
        error = AmbiguousSolutionError if kern else NoSolutionError
        raise error(f"invariant-form solution space has dimension {len(kern)}")
    packed = kern[0]
    pivot = packed[_sym_index(_V, _VT)]
    if pivot == 0:
        raise NoSolutionError("invariant form does not pair v with v~")
    entries = [[packed[_sym_index(i, j)] for j in range(REP_DIM)] for i in range(REP_DIM)]
    return DenseMatrix.from_rows(entries).scale(Fraction(-2, pivot))


def quadric_value(x: Sequence[int]) -> int:
    """The quadratic form <x, x> whose isotropic locus is the cone Q, at an
    integer x."""
    x = _checked(x, REP_DIM)
    return sum(c * x[i] * x[j] for i, j, c in _form_terms().quadric)


def _sparse_matrix(entries: dict) -> DenseMatrix:
    rows = [[0] * REP_DIM for _ in range(REP_DIM)]
    for (i, j), val in entries.items():
        rows[i][j] = val
    return DenseMatrix.from_rows(rows)


def _seed_matrix(name: str) -> DenseMatrix:
    """rho(`name`), for f1 or f3, from its entries in `SEED_ENTRIES`."""
    return _sparse_matrix({(i, j): val for n, i, j, val in SEED_ENTRIES if n == name})


def _commutator(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    return a @ b - b @ a


def _cartan_action(terms: Sequence) -> DenseMatrix:
    """The diagonal action of a Cartan element H = c12 h_a + c13 h_b, given
    as the sparse terms (k, c_k) of a bracket-table entry, read off from the
    weights: alpha(H) = c12 and beta(H) = c13 - 2 c12."""
    c = dict(terms)
    if any(k < 12 for k in c):
        raise ValueError("not a Cartan element")
    alpha, beta = c.get(12, 0), c.get(13, 0) - 2 * c.get(12, 0)
    diag = [m1 * alpha + m2 * beta for m1, m2 in REP_WEIGHTS]
    return _sparse_matrix({(i, i): diag[i] for i in range(REP_DIM) if diag[i]})


#: (j, k) with (i, j, k) cyclic, for i = 0, 1, 2: rho(e_i) = [rho(f_j), rho(f_k)]/2.
_CYCLIC = ((1, 2), (2, 0), (0, 1))


def _f_matrices(c: Sequence) -> tuple:
    """rho(f1), rho(f2), rho(f3), with rho(f2) the weight-compatible unknown
    v -> t, w -> u, t~ -> v~, u -> w~ of coefficients `c`."""
    f2 = _sparse_matrix({(_T, _V): c[0], (_U, _W): c[1], (_VT, _TT): c[2], (_WT, _U): c[3]})
    return _seed_matrix("f1"), f2, _seed_matrix("f3")


def _constraint_stack(c: Sequence) -> tuple:
    """Twice the three sl2-commutation residuals [rho(e_i), rho(f_i)] -
    rho([e_i, f_i]), flattened to one vector.  With rho(e_i) =
    [rho(f_j), rho(f_k)]/2, that is [[rho(f_j), rho(f_k)], rho(f_i)] -
    2 rho([e_i, f_i]): integral for integer c, and affine in c."""
    fs = _f_matrices(c)
    table = g2.bracket_table()  # e_i and f_i are the basis vectors b_i and b_(i+3)
    residuals = [
        _commutator(_commutator(fs[j], fs[k]), fs[i]) - _cartan_action(table[i][i + 3]).scale(2)
        for i, (j, k) in enumerate(_CYCLIC)
    ]
    return tuple(x for r in residuals for row in r.entries for x in row)


def _solve_f2_coefficients() -> tuple:
    """Solve the affine constraint system for the four f2 coefficients: its
    null vector (c, 1) up to scale, divided by its last entry as an exact
    quotient (ArithmeticError otherwise, as in `DenseMatrix.scale`)."""
    zero = (0, 0, 0, 0)
    base = _constraint_stack(zero)
    columns = []
    for k in range(4):
        unit = tuple(1 if i == k else 0 for i in range(4))
        shifted = _constraint_stack(unit)
        columns.append([s - b for s, b in zip(shifted, base)])
    columns.append(base)  # the residual at c is zero iff (c, 1) is a null vector
    null = kernel_basis(DenseMatrix.from_rows(list(zip(*columns))))
    if not any(v[-1] for v in null):
        raise NoSolutionError("representation constraint system is inconsistent")
    if len(null) > 1:
        raise AmbiguousSolutionError("representation constraint system is underdetermined")
    *v, last = null[0]
    if any(x % last for x in v):
        raise ArithmeticError("the f2 coefficients are not integers")
    solution = tuple(x // last for x in v)
    if any(_constraint_stack(solution)):
        raise NoSolutionError("solved coefficients fail the constraint system")
    return solution


@cache
def build_rep7() -> Rep7:
    """Construct all fourteen representation matrices.

    rho(f1) and rho(f3) are fixed by `SEED_ENTRIES`; rho(f2) is solved from
    the commutation constraints; everything else is generated by brackets:
    e1 = [f2,f3]/2, e2 = [f3,f1]/2, e3 = [f1,f2]/2, E_ij = -[e_i, f_j]/3,
    h_a = [E12, E21], h_b = [E23, E32], each quotient exact (`scale` raises
    ArithmeticError otherwise).  The full homomorphism check over all 91
    basis pairs is run afterwards (see verify_homomorphism).
    """
    coeffs = _solve_f2_coefficients()
    fs = _f_matrices(coeffs)
    es = tuple(_commutator(fs[j], fs[k]).scale(Fraction(1, 2)) for j, k in _CYCLIC)
    # E12, E13, E21, E23, E31, E32: the pairs i != j in basis order.
    third = Fraction(-1, 3)
    e_ij = tuple(_commutator(es[i], fs[j]).scale(third) for i, j in permutations(range(3), 2))
    h_a, h_b = _commutator(e_ij[0], e_ij[2]), _commutator(e_ij[3], e_ij[5])
    return Rep7(matrices=es + fs + e_ij + (h_a, h_b), f2_coefficients=coeffs)


def verify_homomorphism() -> int:
    """Number of basis pairs (i < j) satisfying the homomorphism identity
    rho([b_i, b_j]) = [rho(b_i), rho(b_j)]; 91 means all pass.  Per pair,
    rho([b_i, b_j]) - rho_i rho_j + rho_j rho_i is summed into one grid
    off the sparse rows and tested for zero: no matrix is built."""
    rep = build_rep7()
    table = g2.bracket_table()
    rows = [m.nonzeros for m in rep.matrices]
    good = 0
    for i in range(DIM):
        for j in range(i + 1, DIM):
            grid = rep.act(table[i][j])
            add_product(grid, rows[i], rows[j], -1)
            add_product(grid, rows[j], rows[i], 1)
            good += not any(map(any, grid))
    return good


def verify_weight_compatibility() -> bool:
    """Each basis element maps every weight line into the line shifted by
    its weight: root vectors move the lines, and h_a, h_b (weight (0, 0))
    are diagonal: each nonzero entry (i, j) has weight i = weight j + delta."""
    return all(
        REP_WEIGHTS[i] == (REP_WEIGHTS[j][0] + d1, REP_WEIGHTS[j][1] + d2)
        for m, (d1, d2) in zip(build_rep7().matrices, BASIS_WEIGHTS)
        for i, row in enumerate(m.nonzeros)
        for j, _ in row
    )


def zero_weight_space() -> tuple:
    """Basis of the joint kernel of the two Cartan actions (the zero-weight
    space); expected to be the single line through u."""
    rep = build_rep7()
    stacked = [
        list(rep.matrix("h_a").row(i)) for i in range(REP_DIM)
    ] + [list(rep.matrix("h_b").row(i)) for i in range(REP_DIM)]
    return kernel_basis(DenseMatrix.from_rows(stacked))


def _is_invariant(m_rows: Sequence, m_columns: Sequence, b: DenseMatrix) -> bool:
    """Whether m^T b + b m = 0, for square m and b of one size, m given by
    its sparse rows and columns and b not necessarily symmetric: m^T b (the
    rows of m^T are m's columns) and b m are summed into one grid, which is
    tested for zero."""
    grid = [[0] * b.cols for _ in range(b.rows)]
    add_product(grid, m_columns, b.nonzeros, 1)
    add_product(grid, b.nonzeros, m_rows, 1)
    return not any(map(any, grid))


def verify_invariant_form() -> int:
    """Number of basis x whose action leaves the bilinear form invariant,
    rho(x)^T B + B rho(x) = 0 (`_is_invariant`); 14 means all pass."""
    b = invariant_form()
    return sum(_is_invariant(m.nonzeros, m.nonzero_columns, b) for m in build_rep7().matrices)


def verify_quadric_element() -> int:
    """Number of basis x whose action leaves the symmetric-square element q
    invariant, rho(x) C + C rho(x)^T = 0, where C is the typed coefficient
    matrix of q = u^2 - 4vv~ - 4ww~ - 4tt~: `_is_invariant` of rho(x)^T,
    whose rows are rho(x)'s columns, and C; 14 means all pass."""
    c = quadric_element()
    return sum(_is_invariant(m.nonzero_columns, m.nonzeros, c) for m in build_rep7().matrices)


#: The linear-side Borel: Cartan pair plus the six positive-root vectors of
#: the polarization {a1, a2, -a3, a1-a2, a1-a3, a2-a3}, which makes v (of
#: weight -a3) the highest-weight line.
BOREL_G2_NAMES: tuple[str, ...] = ("h_a", "h_b", "e1", "e2", "f3", "E12", "E13", "E23")


def _kron(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """The Kronecker product a tensor b: block (i, j) is a[i][j] * b."""
    return DenseMatrix.from_rows(
        [
            [x * y for x in a.row(i) for y in b.row(k)]
            for i in range(a.rows)
            for k in range(b.rows)
        ]
    )


@cache
def build_symplectic14() -> Symplectic14:
    """omega = B tensor omega2 with omega2(e1, e2) = 1, plus the ten Borel
    generators (eight from g2, two upper-triangular from sl2) acting on it."""
    rep = build_rep7()
    # The basis runs over the C^2 index first, so each tensor product
    # below is a Kronecker product with the 2x2 factor on the left.
    omega2 = DenseMatrix.from_rows([[0, 1], [-1, 0]])
    omega = _kron(omega2, invariant_form())
    sl2_h = DenseMatrix.from_rows([[1, 0], [0, -1]])
    sl2_e = DenseMatrix.from_rows([[0, 1], [0, 0]])
    eye2, eye7 = DenseMatrix.identity(2), DenseMatrix.identity(REP_DIM)
    actions = tuple(_kron(eye2, rep.matrix(name)) for name in BOREL_G2_NAMES) + (
        _kron(sl2_h, eye7),
        _kron(sl2_e, eye7),
    )
    return Symplectic14(omega=omega, actions14=actions)


def verify_symplectic_invariance() -> bool:
    """omega has rank 14 and A^T omega + omega A = 0 (`_is_invariant`) for
    all ten generators."""
    symp = build_symplectic14()
    if rank(symp.omega) != 2 * REP_DIM:
        return False
    return all(_is_invariant(a.nonzeros, a.nonzero_columns, symp.omega) for a in symp.actions14)


def _block_rows(blocks: Sequence) -> tuple:
    """The row tuples of the 2x2 block matrix of four 7x7 entry grids."""
    return tuple(left[i] + right[i] for left, right in blocks for i in range(REP_DIM))


def phi_symplectomorphism_check() -> bool:
    """The identification Phi: (x', x) -> ([x'], x) is a symplectomorphism.

    L = C^7 tensor e1 is the first block and the quotient V by L is
    represented by the e2 block, so Phi is the block swap P, and the check
    is omega = P^T Omega P for Omega(([y1], x1), ([y2], x2)) =
    x1^T B y2 - y1^T B^T x2: rows y are [0, -B^T], rows x are [B, 0].
    P^T Omega P is Omega with its blocks swapped, [[0, B], [-B^T, 0]],
    compared with omega entry by entry.  Each g2-Borel generator must act
    as eye2 tensor its 7x7 matrix m, i.e. as [[m, 0], [0, m]], alike on
    both tensor slots, so the action descends to V and commutes with Phi.
    """
    symp = build_symplectic14()
    b = invariant_form().entries
    zero = ((0,) * REP_DIM,) * REP_DIM
    minus_bt = tuple(tuple(-x for x in col) for col in zip(*b))
    if symp.omega.entries != _block_rows(((zero, b), (minus_bt, zero))):
        return False
    # This half repeats build_symplectic14's own _kron(eye2, m), so only a
    # patched builder can fail it; it stays because deleting it would
    # change the default report.
    ms = [m.entries for m in map(build_rep7().matrix, BOREL_G2_NAMES)]
    return all(a.entries == _block_rows(((m, zero), (zero, m))) for a, m in zip(symp.actions14, ms))


@dataclass(frozen=True)
class _FormTerms:
    """The linear side's quadratic forms, each written as its sparse
    monomial terms (i, j, c) with i <= j: the form is sum c x_i x_j.  The
    coefficients are integers, as B and the forms they come from are."""

    quadric: tuple  # <x, x> on C^7
    conormal: tuple  # (i) <z', z'>, (ii) z^T B z', (iii) z^T K_m z' per m, on C^14 = (z, z')
    moment: tuple  # x^T omega A x per Borel generator A, on C^14 = (z, z')


def _quadratic_terms(m: DenseMatrix) -> tuple:
    """x^T m x as terms (i, j, c), i <= j: c is m_ii on the diagonal and
    m_ij + m_ji off it; zero coefficients are left out."""
    n, e = m.rows, m.entries
    return tuple(
        (i, j, c)
        for i in range(n)
        for j in range(i, n)
        if (c := e[i][i] if i == j else e[i][j] + e[j][i])
    )


@cache
def _form_terms() -> _FormTerms:
    """The term table every linear-side form is evaluated from, the F_p
    oracle's quadric included, built once from invariant_form(), rho and
    build_symplectic14().  Conditions (ii) and (iii) make z orthogonal to
    B z' and to K_m z', K_m = m^T B - B m, for each g2-Borel generator m,
    read from rho; the moment map's H_A is x^T omega A x / 2 for each Borel
    generator A.  It keeps the builders' results of its first call."""
    b, rep, symp = invariant_form(), build_rep7(), build_symplectic14()
    quadric = _quadratic_terms(b)
    n = REP_DIM
    fs = (b,) + tuple(m.transpose() @ b - b @ m for m in map(rep.matrix, BOREL_G2_NAMES))
    conormal = (tuple((i + n, j + n, c) for i, j, c in quadric),) + tuple(
        tuple((i, j + n, c) for i, row in enumerate(f.nonzeros) for j, c in row)
        for f in fs
    )
    moment = tuple(_quadratic_terms(symp.omega @ a) for a in symp.actions14)
    return _FormTerms(quadric=quadric, conormal=conormal, moment=moment)


def _checked(x: Sequence[int], n: int) -> Sequence[int]:
    """`x` itself, once its length is n and each entry an int;
    DimensionMismatch or TypeError otherwise."""
    if len(x) != n:
        raise DimensionMismatch(f"vector has length {len(x)}, expected {n}")
    check_ints(x)
    return x


def _vanish(forms: Sequence, x: Sequence) -> bool:
    """Whether every form (terms (i, j, c): sum c x_i x_j) is 0 at x."""
    return not any(sum(c * x[i] * x[j] for i, j, c in terms) for terms in forms)


def form_span_ranks() -> tuple[int, ...]:
    """Ranks of the conormal forms, the moment forms and their union, as
    quadratic forms on C^14 = z + z' (coefficient rows over the monomials
    some form uses); equal ranks: one span, so one zero set."""
    terms = _form_terms()
    forms = terms.conormal + terms.moment
    column = {ij: k for k, ij in enumerate(sorted({(i, j) for t in forms for i, j, _ in t}))}
    rows = []
    for t in forms:
        row = [0] * len(column)
        for i, j, c in t:
            row[column[i, j]] = c
        rows.append(row)
    k = len(terms.conormal)
    return tuple(rank(DenseMatrix.from_rows(r)) for r in (rows[:k], rows[k:], rows))


def conormal_conditions(zprime: Sequence[int], z: Sequence[int]) -> bool:
    """The three exact conormal conditions at integer z', z: (i) <z', z'> = 0,
    (ii) <z, z'> = 0, (iii) <A z, z'> = <z, A z'>, i.e. z^T K_A z' = 0, for
    every g2-Borel generator A, read off the table's conormal forms."""
    # (ii) never decides alone on a sampled point: on the cone (iii) implied
    # it, and off the cone (i) fails.  It stays because the conormal ideal
    # needs it: without it the conormal forms span 9 dimensions, not the
    # moment forms' 10, and `form_span_ranks` tells them apart.
    return _vanish(_form_terms().conormal, [*_checked(z, REP_DIM), *_checked(zprime, REP_DIM)])


def moment_zero_check(point: Sequence[int]) -> bool:
    """H_A(point) = omega(point, A point)/2 = 0 for all ten Borel generators,
    at an integer point."""
    return _vanish(_form_terms().moment, _checked(point, 2 * REP_DIM))


def orbit_dimension(x: Sequence[int]) -> int:
    """Rank of the g2-Borel tangent map A -> rho(A) x at the integer point x."""
    rows = [m.mul_vec(x) for m in map(build_rep7().matrix, BOREL_G2_NAMES)]
    return rank(DenseMatrix.from_rows(rows))


def tfixed_isotropic_lines() -> tuple[int, ...]:
    """Indices of the basis weight lines that are isotropic for B.

    Exactly the six nonzero-weight lines qualify; the zero-weight line u
    is excluded because B(u, u) = 4.
    """
    b = invariant_form()
    return tuple(k for k in range(REP_DIM) if b.entry(k, k) == 0)


# ---------------------------------------------------------------------------
# Finite-field orbit oracle.
# ---------------------------------------------------------------------------


#: Upper bound on p**REP_DIM, the size of the oracle's key range: it admits
#: p = 3, 5, 7 (823,543 keys) and refuses p = 11.  At p = 7 the oracle holds
#: a p**7-entry int32 lookup (3.3 MB) and per cone point (p**6 = 117,649): an
#: int32 key, 7 uint8 digits, 2 int32 image buffers, a uint8 row plane and 8
#: int32 permutation entries (0.47 MB per int32 array); all but the
#: permutations are freed before labelling, which adds 2 int32 label arrays
#: (traced peak 9.05 MiB).
MAX_ORACLE_POINTS = 2_000_000


def _int32_intermediates(p: int) -> tuple[int, int, int]:
    """Worst cases of the oracle's int32 intermediates for coordinates in
    [0, p): the largest key p**7 - 1, a quadric value (at most 28 terms
    c x_i x_j with c reduced mod p) and an image row sum_j g_ij x_j, which
    also sizes the unsigned plane `_image_keys` sums that row in."""
    terms = REP_DIM * (REP_DIM + 1) // 2
    return p**REP_DIM - 1, terms * (p - 1) ** 3, REP_DIM * (p - 1) ** 2


def check_oracle_prime(p: int) -> None:
    """Raise BadPrimeError unless p is a prime >= 3 with p**7 at most
    MAX_ORACLE_POINTS, i.e. a modulus the oracle can enumerate, and with
    every int32 intermediate of the oracle in range."""
    # Bounded before p**7 is formed or p printed: p may have millions of digits.
    if not 3 <= p <= MAX_ORACLE_POINTS:
        raise BadPrimeError(f"oracle requires a prime >= 3 with p^7 <= {MAX_ORACLE_POINTS}")
    if p**REP_DIM > MAX_ORACLE_POINTS:
        raise BadPrimeError(
            f"oracle would enumerate {p}^{REP_DIM} points, more than "
            f"{MAX_ORACLE_POINTS}; got {p}"
        )
    if any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        raise BadPrimeError(f"oracle requires a prime >= 3, got {p}")
    if max(_int32_intermediates(p)) > np.iinfo(np.int32).max:
        raise BadPrimeError(f"oracle intermediates overflow int32 at p = {p}")


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group of F_p."""
    return next(g for g in range(2, p) if len({pow(g, k, p) for k in range(p)}) == p - 1)


def _unipotent_generators(p: int) -> list[np.ndarray]:
    """exp(N) = I + N + N^2/2 mod p with N = rho(x_delta), one per positive
    root.  N^3 = 0 and p is odd, so exp(aN) exp(bN) = exp((a+b)N): the
    powers of exp(N) are the exp(cN), c in F_p, which all p - 1 multiples give."""
    rep = build_rep7()
    inv2 = pow(2, -1, p)
    eye = np.eye(REP_DIM, dtype=np.int64)
    gens = []
    for name in BOREL_G2_NAMES[2:]:
        n_mat = np.array(rep.matrix(name).entries, dtype=np.int64) % p
        n2 = n_mat @ n_mat % p
        if np.any(n2 @ n_mat % p):
            raise ValueError(f"rho({name}) is not nilpotent of order <= 3")
        gens.append((eye + n_mat + inv2 * n2) % p)
    return gens


def _torus_generators(p: int) -> list[np.ndarray]:
    """s^rho(h) mod p for h = h_a, h_b and a primitive root s: the diagonal
    scaling of each weight line by s to the power of its eigenvalue."""
    rep, s = build_rep7(), _primitive_root(p)
    gens = []
    for name in BOREL_G2_NAMES[:2]:
        h = rep.matrix(name)
        if any(j != i for i, row in enumerate(h.nonzeros) for j, _ in row):
            raise ValueError(f"rho({name}) is not diagonal")
        gens.append(np.diag([pow(s, h.entry(i, i) % (p - 1), p) for i in range(REP_DIM)]))
    return gens


def _cone_keys(p: int) -> np.ndarray:
    """The sorted int32 keys sum_i x_i p^i of the points x of F_p^7 with
    <x, x> = 0.  The `_form_terms().quadric` terms c x_i x_j without the
    last coordinate u, c mod p, are summed once over a grid with one axis
    per other coordinate, largest place value first (a point's C-order flat
    index is its key mod p^6), and reduced mod p in place; the cone's slab
    u = s is where that equals -c_u s^2.  A term c x_i u, i != u: ValueError."""
    u = REP_DIM - 1
    terms = [(c % p, i, j) for i, j, c in _form_terms().quadric if c % p]
    if any(i != j == u for _, i, j in terms):
        raise ValueError("the quadric mixes u with another coordinate")
    axis = np.arange(p, dtype=np.int32)
    grid = [axis.reshape([p if a == u - 1 - i else 1 for a in range(u)]) for i in range(u)]
    rest = np.zeros((p,) * u, dtype=np.int32)
    for c, i, j in terms:
        if j != u:
            rest += c * grid[i] * grid[j]
    np.remainder(rest, p, out=rest)
    c_u = sum(c for c, i, _ in terms if i == u)
    return np.concatenate(
        [np.flatnonzero(rest == -c_u * s * s % p).astype(np.int32) + s * p**u for s in range(p)]
    )


def _key_points(keys: np.ndarray, p: int) -> np.ndarray:
    """The points with the given keys, one C-contiguous uint8 row of digits
    (each below p) per coordinate.  With q_i = key // p^i, taken by
    floor_divide (np.divmod on int32 is several times slower), digit i is
    q_i - p q_(i+1): it is below p, so uint8 arithmetic, which wraps mod
    256, gives it exactly from the low bytes of q_i and q_(i+1)."""
    points = np.empty((REP_DIM, len(keys)), dtype=np.uint8)
    rest = keys.copy()
    for i in range(REP_DIM):
        np.copyto(points[i], rest, casting="unsafe")  # the low byte of q_i
        np.floor_divide(rest, p, out=rest)
        if i:
            points[i - 1] -= points[i] * np.uint8(p)
    return points


def _image_buffers(p: int, n: int) -> tuple:
    """The buffers `_image_keys` fills for n points, allocated once per
    count: the int32 `image` and `y`, and the unsigned `plane` of the
    narrowest dtype that holds `_int32_intermediates`' row bound, uint8 up
    to p = 7 and uint16 from p = 11 on."""
    plane = np.empty(n, dtype=np.min_scalar_type(_int32_intermediates(p)[2]))
    return np.empty(n, dtype=np.int32), np.empty(n, dtype=np.int32), plane


def _image_keys(
    gen: np.ndarray,
    points: np.ndarray,
    keys: np.ndarray,
    p: int,
    image: np.ndarray,
    y: np.ndarray,
    plane: np.ndarray,
) -> np.ndarray:
    """The keys of gen @ points mod p, built in `_image_buffers`' int32
    `image` (returned) and `y` and unsigned `plane`.  A row of gen equal to
    the identity's leaves its coordinate, and so its place in the key, as it
    is; every other row i moves the key by p^i (y_i - x_i), where y_i, that
    row's image coordinate, is summed in `plane` over the row's nonzero
    entries and reduced mod p there as y_i - p (y_i // p)."""
    # y is free until the key moves, so its leading bytes hold the plane's
    # products and quotients.
    part = y.view(plane.dtype)[: len(y)]
    # As numpy scalars, p and c keep plane's arithmetic in plane's dtype.
    modulus = plane.dtype.type(p)
    signed = np.dtype(f"i{plane.itemsize}")
    np.copyto(image, keys)
    for i, row in enumerate(gen.tolist()):
        if any(c != (i == j) for j, c in enumerate(row)):
            plane.fill(0)
            for j, c in enumerate(row):
                if c:
                    plane += np.multiply(points[j], plane.dtype.type(c), out=part)
            np.floor_divide(plane, modulus, out=part)
            plane -= np.multiply(part, modulus, out=part)
            # y_i - x_i wraps in the unsigned plane; |y_i - x_i| < p, so read
            # as the signed type of its width it is exact.
            np.copyto(y, np.subtract(plane, points[i], out=plane).view(signed))
            image += np.multiply(y, p**i, out=y)
    return image


def _orbit_labels(perms: list[np.ndarray]) -> np.ndarray:
    """The least point of each point's orbit, by label propagation: each
    round takes the minimum label across every edge i -> perm[i], both
    ways, then pointer-jumps label = label[label] to a fixed point
    (Shiloach-Vishkin), until every edge joins equal labels: a label is a
    point of its own orbit and only falls, so one constant on an orbit is
    its least point."""
    # Indices are in range; mode="clip" lets take write into `pulled` unbuffered.
    label = np.arange(len(perms[0]), dtype=np.int32)
    pulled = np.empty_like(label)
    while True:
        for perm in perms:
            np.minimum(label, label.take(perm, out=pulled, mode="clip"), out=label)
            np.minimum.at(label, perm, label)
        while not np.array_equal(label.take(label, out=pulled, mode="clip"), label):
            label, pulled = pulled, label
        if all(np.array_equal(label.take(q, out=pulled, mode="clip"), label) for q in perms):
            return label


@cache
def count_orbits_mod_p(p: int) -> OrbitCountResult:
    """Count Borel orbits on the quadric cone Q(F_p) by brute force.

    Finds the points with <x, x> = 0 among all p^7 vectors, and labels
    the orbits of the group generated by the unipotent maps
    exp(rho(x_delta)) for the six positive roots and the two torus
    scalings s^rho(h_a), s^rho(h_b) by a primitive root s.  All arithmetic
    is exact integer arithmetic mod p, in int32 within the bounds
    check_oracle_prime sets, and the image rows in the narrowest unsigned
    dtype that holds their bound.
    """
    check_oracle_prime(p)
    keys = _cone_keys(p)
    if keys[0] != 0:
        raise AssertionError("the origin is not the first cone key")
    npoints = len(keys)
    points = _key_points(keys, p)
    lookup = np.full(p**REP_DIM, -1, dtype=np.int32)
    lookup[keys] = np.arange(npoints, dtype=np.int32)
    image, y, plane = _image_buffers(p, npoints)
    perms = []
    for gen in _unipotent_generators(p) + _torus_generators(p):
        perm = lookup[_image_keys(gen, points, keys, p, image, y, plane)]
        if perm.min() < 0:
            # An image outside the cone's keys: the generator is at fault if
            # some such image is off the quadric mod p, else the enumeration.
            missed = np.unique(image[perm < 0])
            x = _key_points(missed, p).astype(np.int64)
            if np.any(sum(c * x[i] * x[j] for i, j, c in _form_terms().quadric) % p):
                raise AssertionError("generator does not preserve the quadric")
            raise AssertionError(
                f"the cone enumeration missed {len(missed)} of the quadric's points"
            )
        perms.append(perm)
    del keys, points, lookup, image, y, plane  # the labelling needs only the permutations

    label = _orbit_labels(perms)
    counts = np.bincount(label)
    sizes = tuple(int(c) for c in np.sort(counts[counts > 0]))
    origin_size = int(counts[label[0]])
    return OrbitCountResult(
        point_count=npoints,
        orbit_count=len(sizes),
        orbit_sizes=sizes,
        origin_orbit_size=origin_size,
    )


# ---------------------------------------------------------------------------
# Seeded sampling for the conormal/moment equivalence and scaling checks.
# ---------------------------------------------------------------------------


def sample_isotropic_vector(sampler: SmallRationalSampler, chart: int) -> tuple[int, ...]:
    """An integer point of the quadric cone, solved on one of three charts.

    The drawn coordinates, with a nonzero one at `pivot`, are cleared to an
    integer x with x_s = 0 on the isotropic coordinate line s = `solve_for`.
    Then <x + t e_s, x + t e_s> = <x, x> + 2 t <x, e_s> is linear in t
    because the line is isotropic, and <x, e_s> = B[pivot][s] x[pivot] != 0.
    Its root is integral after scaling x by lam = 2 B[pivot][s] x[pivot]:
    lam x - <x, x> e_s is on the cone.
    """
    solve_for, pivot = ((_VT, _V), (_WT, _W), (_TT, _T))[chart % 3]
    ratios = [sampler.ratio() for _ in range(REP_DIM)]
    ratios[pivot] = sampler.ratio()
    while not ratios[pivot][0]:
        ratios[pivot] = sampler.ratio()
    ratios[solve_for] = (0, 1)
    x = cleared(ratios)
    lam = 2 * invariant_form().entry(pivot, solve_for) * x[pivot]
    residual = quadric_value(x)
    x = [lam * c for c in x]
    x[solve_for] = -residual
    if quadric_value(x) != 0:
        raise AssertionError("sampled vector is not on the quadric cone")
    return tuple(x)


def _fiber_rows(zprime: Sequence[int]) -> list[list[int]]:
    """The rows f z' of conditions (ii) and (iii) at an integer z', read off
    the bilinear terms (i, 7 + j, c) of the conormal forms after (i)."""
    rows = []
    for terms in _form_terms().conormal[1:]:
        row = [0] * REP_DIM
        for i, j, c in terms:
            row[i] += c * zprime[j - REP_DIM]
        rows.append(row)
    return rows


#: The g2-Borel generators whose condition-(iii) fiber rows, on every
#: column but v~, form the 6 x 6 minor that `_certified_line` ranks: the
#: tangent map's minor on the rows h_b, e1, e2, f3, E13, E23 and every
#: column but v's, carried through B, which swaps v and v~.  On sampled
#: cone points its determinant has been 8192 v~'^6.
_FIBER_MINOR_ROWS: tuple[str, ...] = ("h_b", "e1", "e2", "f3", "E13", "E23")


def _certified_line(rows: list[list[int]], zprime: Sequence[int]) -> tuple | None:
    """The primitive z' whose last nonzero entry is positive, if every fiber
    row vanishes at z' and the `_FIBER_MINOR_ROWS` minor has rank 6, so
    that the fiber is the line through z'; None otherwise.  v~' = 0 is
    refused unranked, as the minor's determinant suggests, and so are rows
    that are not (ii) then (iii) per BOREL_G2_NAMES and a minor naming an
    absent generator."""
    if (
        not zprime[_VT]
        or len(rows) != 1 + len(BOREL_G2_NAMES)
        or not set(_FIBER_MINOR_ROWS) <= set(BOREL_G2_NAMES)
        or any(sum(map(mul, row, zprime)) for row in rows)
    ):
        return None
    minor = [rows[1 + BOREL_G2_NAMES.index(name)] for name in _FIBER_MINOR_ROWS]
    if rank(DenseMatrix.from_rows([r[:_VT] + r[_VT + 1:] for r in minor])) != REP_DIM - 1:
        return None
    content = gcd(*zprime)
    if next(x for x in reversed(zprime) if x) < 0:
        content = -content
    return tuple(x // content for x in zprime)


def conormal_fiber_basis(zprime: Sequence[int]) -> tuple:
    """Integer basis of the space of z satisfying conditions (ii) and (iii)
    at an integer z', which scaling z' leaves as it is.

    z' itself is in it wherever <z', z'> = 0: the rows are B z' and K_m z',
    and z'^T K_m z' = 0 because B is symmetric.  So the rank is at most 6,
    and where `_certified_line` finds every row zero at z' and a 6 x 6 minor
    of rank 6, the fiber is the line through z', returned as `kernel_basis`
    would: primitive, positive at its last nonzero entry, the one non-pivot
    column.  Anywhere else it is the `kernel_basis` of `_fiber_rows`."""
    zprime = _checked(zprime, REP_DIM)
    rows = _fiber_rows(zprime)
    line = _certified_line(rows, zprime)
    return (line,) if line else kernel_basis(DenseMatrix.from_rows(rows))


def sample_conormal_pair(
    sampler: SmallRationalSampler, chart: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """An integer pair (z', z) satisfying all three conormal conditions by
    construction: z combines the `conormal_fiber_basis` vectors with drawn
    coefficients, cleared."""
    zprime = sample_isotropic_vector(sampler, chart)
    vectors = conormal_fiber_basis(zprime)
    coeffs = cleared([sampler.ratio() for _ in vectors])
    z = tuple(sum(c * v[i] for c, v in zip(coeffs, vectors)) for i in range(REP_DIM))
    return zprime, z
