"""Slice-side verification: sl2-triple, grading, nilpotent subalgebras,
the character psi, structural lemmas, and the relevant-orbit count.

Only the sl2-triple and the line l are typed: E = e1 (a short root
vector), F = -f1 and H = 3*E11 - Id = 2*h_a + h_b satisfy the sl2
relations, and l = <e2> is an isotropic line of g_(-1).  The rest is
derived: ad H grades g2 with dimension vector (2, 1, 2, 4, 2, 1, 2) over
levels -3..3, and the levels, l, psi = killing(E, .) and gamma give the
nilpotent n_l = l + g_(-2) + g_(-3) = <e2, f1, E21, E31> inside u5 =
n_l + [s, s] = n_l + <E23> inside u6 = u5 + g_gamma = u5 + <f3>, where
s = <E23, h_b> stabilises l and psi on n_l in g_0 and t' = <h_b> is its
zero-weight part.  psi on these drives the relevancy count: 6 relevant
base orbits plus 1 relevant complementary orbit, 7 in total.
`build_slice_data` verifies all of this once and returns the computed
pieces: the ad-H level of each basis vector, ker ad F, the Killing pairing
of the basis with ker ad F, omega' reduced to what its rank needs (whether
its affine pieces are antisymmetric, r = rank K and their 8 x 8 reductions),
and the subspaces as basis indices.  Every verifier below calls it first,
so a failed identity raises from each.

Only the sl2 relations and the point [x, y + E] of `verify_lemma_incl`
involve non-basis elements.  Every question about basis vectors reads the
cached tables of `g2_algebra`: the levels are the diagonal of ad H, a
bracket of basis vectors lies in a span of basis vectors when its support
in the structure-constant table does, and psi([b_i, b_j]) is the sum of
t * psi(b_k) over the table entry (`_psi_bracket`).  The kernels (ker ad F,
P and the m_l-perp basis) are integer `kernel_basis` bases, read as they
are.  A point E + sum (w_j / w_0) k_j of the slice E + ker ad F is given
by its integer homogeneous coordinates (w_0, w_1, ..., w_6), w_0 != 0;
E is (1, 0, ..., 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import mul
from typing import Sequence

from . import g2_algebra as g2
from . import root_weyl as rw
from .exact_linalg import DenseMatrix, DimensionMismatch, echelon, kernel_basis, rank
from .g2_algebra import (
    BASIS,
    BASIS_NAMES,
    BASIS_WEIGHTS,
    DIM,
    G2Element,
    ad_matrix,
    bracket,
    killing,
    table_bracket,
)
from .root_weyl import (
    Polarization,
    Root,
    WeylElement,
    all_polarizations,
    apply_weyl,
    generate_weyl,
)
from .sampling import SmallRationalSampler, cleared


class StructureMismatchError(AssertionError):
    """A structural identity required by the slice construction failed."""


class InconsistentCriteriaError(AssertionError):
    """Two readings of the relevancy data disagreed: the two independent
    base-relevancy criteria, or a polarization S_w and w(u6's weights)."""


#: The sl2-triple (e, f, h) = (e1, -f1, 2*h_a + h_b); e is the basis vector b_0.
E = g2.e1
F = -g2.f1
H = g2.h_a.scale(2) + g2.h_b

#: The isotropic line l = <e2> of g_(-1), as basis indices.
L = (BASIS_NAMES.index("e2"),)


def _psi_row() -> tuple[int, ...]:
    """psi's coefficients psi(b_k) = killing(e, b_k), read from E at each
    call; a caller reads them once and passes them on."""
    return tuple(killing(E, b) for b in BASIS)


def psi(x: G2Element) -> int:
    """The character psi = killing(e, x): psi's row times x's coordinates."""
    return sum(map(mul, _psi_row(), x.coords))


@dataclass(frozen=True)
class SliceData:
    """What `build_slice_data` computes rather than fixes; subspaces are basis indices."""

    levels: tuple[int, ...]  # the ad-h eigenvalue of each basis vector
    ker_ad_f: tuple  # tuple of 14-coordinate kernel vectors
    kappa_ker: tuple  # kappa(b_i, k_j): 14 rows, one column per kernel vector
    # omega' at c has block A_0 + sum c_j A_j, for 14x14 pieces A_j; P spans ker K^T.
    omega_antisymmetric: bool  # whether every piece A_j is
    kappa_rank: int  # r = rank K, K = kappa_ker
    omega_entries: tuple  # 8x8 blocks B_j = P^T A_j P: per (r, c), the (j, B_j[r][c]) != 0
    n_l: tuple[int, ...]  # l + g_(-2) + g_(-3), which is m_l on this slice
    s: tuple[int, ...]  # the stabiliser of l and of psi on n_l in g_0
    t_prime: tuple[int, ...]  # the zero-weight part of s
    u5: tuple[int, ...]  # n_l + [s, s]
    u6: tuple[int, ...]  # u5 + g_gamma

    def dims(self) -> tuple[int, ...]:
        """Dimensions of the ad-h eigenspaces, by increasing level."""
        return _grading_dims(self.levels)


def _grading_dims(levels: Sequence[int]) -> tuple[int, ...]:
    """How many basis vectors lie at each grading level, by increasing level."""
    return tuple(levels.count(lv) for lv in sorted(set(levels)))


@dataclass(frozen=True)
class RelevancyRecord:
    """Per-Weyl-element bookkeeping for the orbit relevancy analysis."""

    w: WeylElement
    s_w: Polarization
    ubar_weights: tuple[Root, ...]
    base_relevant: bool
    complementary_exists: bool
    complementary_relevant: bool


@dataclass(frozen=True)
class RelevantOrbitCount:
    base: int
    complementary: int
    total: int
    records: tuple[RelevancyRecord, ...]


def _check_brackets_in(a: Sequence[int], b: Sequence[int], what: str) -> None:
    """Brackets of the basis vectors `a` with those of `b` stay in span(b):
    every basis index in the support of c[i][j] lies in `b`."""
    c = g2.bracket_table()
    for i in a:
        for j in b:
            if any(k not in b for k, _ in c[i][j]):
                raise StructureMismatchError(f"{what} at ({BASIS_NAMES[i]}, {BASIS_NAMES[j]})")


def _check_nilpotent_span(indices: Sequence[int], name: str) -> None:
    """Lower-central-series termination for the span of basis `indices`:
    each round brackets every b_i with the last round's vectors, read off the
    table (`table_bracket`), and keeps the nonzero images, reduced to the
    echelon rows of their span when they outnumber DIM, so a round never
    holds more."""
    current = [((i, 1),) for i in indices]
    for _ in range(DIM):
        images = [
            img for i in indices for terms in current
            if any(img := table_bracket(i, terms))
        ]
        if len(images) > DIM:
            images = echelon(images, DIM)[0]
        current = [tuple((k, a) for k, a in enumerate(img) if a) for img in images]
        if not current:
            return
    raise StructureMismatchError(f"{name} is not nilpotent")


def _psi_bracket(psi_row: Sequence[int], i: int, j: int) -> int:
    """psi([b_i, b_j]): the sum of t * psi(b_k) over the table entry c[i][j],
    for psi's coefficients `psi_row`."""
    return sum(t * psi_row[k] for k, t in g2.bracket_table()[i][j])


def _omega_pieces(kappa_ker: Sequence) -> tuple:
    """The pieces A_0, ..., A_6 of the algebra block of omega': A_j(b_i, b_l) =
    -w_j([b_i, b_l]) for w_0 = psi and w_j the j-th column of `kappa_ker`,
    filled in one pass over the table's nonzeros: each (k, t) of c[i][l]
    takes t * w_j[k] off every A_j[i][l]."""
    ws = (_psi_row(), *zip(*kappa_ker))
    pieces = [[[0] * DIM for _ in range(DIM)] for _ in ws]
    for i, row in enumerate(g2.bracket_table()):
        for l, terms in enumerate(row):
            for k, t in terms:
                for a, w in zip(pieces, ws):
                    a[i][l] -= t * w[k]
    return tuple(tuple(map(tuple, a)) for a in pieces)


def _omega_reduction(kappa_ker: Sequence, pieces: Sequence) -> tuple:
    """(whether every piece of omega' is antisymmetric, r = rank K, the
    pieces reduced by P, an integer basis of ker K^T, and stored by their
    nonzero entries), for K = `kappa_ker`."""
    k_t = DenseMatrix.from_rows(kappa_ker).transpose()
    p = DenseMatrix.from_rows(kernel_basis(k_t))
    blocks = [(p @ DenseMatrix.from_rows(a) @ p.transpose()).entries for a in pieces]
    return (
        all(row == tuple(-x for x in col) for a in pieces for row, col in zip(a, zip(*a))),
        DIM - p.rows,
        tuple(tuple(tuple((j, x) for j, x in enumerate(xs) if x) for xs in zip(*rows))
              for rows in zip(*blocks)),
    )


def _subspaces(levels: Sequence[int]) -> tuple:
    """n_l, s, t', u5 and u6 as basis indices, read off l, the grading `levels`, psi and gamma."""
    c = g2.bracket_table()
    n_l = tuple(i for i, lv in enumerate(levels) if i in L or lv < -1)  # l + g_(-2) + g_(-3)
    # s = {x in g_0 : [x, l] in l, psi([x, n_l]) = 0}, one kernel over g_0's coordinates.
    g0 = [j for j, lv in enumerate(levels) if lv == 0]
    rows = [[dict(c[j][i]).get(k, 0) for j in g0] for i in L for k in range(DIM) if k not in L]
    psi_row = _psi_row()
    rows += [[_psi_bracket(psi_row, j, i) for j in g0] for i in n_l]
    kernel = kernel_basis(DenseMatrix.from_rows(rows))
    if any(sum(map(bool, v)) != 1 for v in kernel):
        raise StructureMismatchError("s is not spanned by basis vectors")
    s = tuple(j for j, *column in zip(g0, *kernel) if any(column))
    u5 = n_l + tuple(sorted({k for i in s for j in s for k, _ in c[i][j]} - set(n_l)))
    gamma = tuple(i for i, w in enumerate(BASIS_WEIGHTS) if w == rw.GAMMA.coords)
    t_prime = tuple(i for i in s if BASIS_WEIGHTS[i] == (0, 0))
    return n_l, s, t_prime, u5, u5 + gamma


@cache
def build_slice_data() -> SliceData:
    """Verify the sl2-triple, grading, subalgebras and l; return the grading
    levels, ker ad f, omega' reduced for its rank and the derived subspaces.

    Raises StructureMismatchError naming the first failing identity.
    """
    # sl2 relations.
    if bracket(H, E) != E.scale(2):
        raise StructureMismatchError("[h, e] != 2e")
    if bracket(H, F) != F.scale(-2):
        raise StructureMismatchError("[h, f] != -2f")
    if bracket(E, F) != H:
        raise StructureMismatchError("[e, f] != h")

    # Grading by ad-h eigenvalue: ad h is diagonal, and integral as a DenseMatrix.
    ad_h = ad_matrix(H)
    for j, b in enumerate(BASIS):
        if any(ad_h.entry(i, j) for i in range(DIM) if i != j):
            raise StructureMismatchError(f"{b!r} is not an ad-h eigenvector")
    levels = tuple(ad_h.entry(j, j) for j in range(DIM))
    ker_ad_f = kernel_basis(ad_matrix(F))
    gram = g2.killing_gram()
    kappa_ker = tuple(tuple(sum(map(mul, row, k)) for k in ker_ad_f) for row in gram)
    antisymmetric, kappa_rank, omega_entries = _omega_reduction(kappa_ker, _omega_pieces(kappa_ker))
    dims = _grading_dims(levels)
    if dims != (2, 1, 2, 4, 2, 1, 2):
        raise StructureMismatchError(f"grading dimensions {dims} != (2, 1, 2, 4, 2, 1, 2)")
    if len(ker_ad_f) != 6:
        raise StructureMismatchError(f"dim ker ad_f = {len(ker_ad_f)} != 6")

    n_l, s, t_prime, u5, u6 = _subspaces(levels)

    # Subalgebra closure, [s, n_l] inside n_l, and nilpotency.
    for name, a, b in (
        ("n_l is not bracket-closed", n_l, n_l),
        ("u5 is not bracket-closed", u5, u5),
        ("u6 is not bracket-closed", u6, u6),
        # s is the whole stabiliser of l and psi|n_l in g_0, a subalgebra that keeps
        # each level once Jacobi holds, so these two cannot fail; they state the lemma.
        ("s is not bracket-closed", s, s),
        ("[s, n_l] escapes n_l", s, n_l),
    ):
        _check_brackets_in(a, b, name)
    _check_nilpotent_span(n_l, "n_l")

    # l sits in g_(-1) and is isotropic for omega_{-1}.
    if any(levels[i] != -1 for i in L):
        raise StructureMismatchError("l is not inside g_(-1)")
    if _psi_bracket(_psi_row(), L[0], L[0]) != 0:
        raise StructureMismatchError("l is not isotropic for omega_{-1}")

    return SliceData(
        levels, ker_ad_f, kappa_ker, antisymmetric, kappa_rank, omega_entries,
        n_l, s, t_prime, u5, u6,
    )


def verify_psi_conditions() -> bool:
    """psi kills all brackets of n_l, of s with n_l, and of t' + u5.

    The first family is n_l-invariance of psi, the second is s-invariance,
    and the third certifies the invariant extension to the semidirect
    product at the Lie level.
    """
    data = build_slice_data()
    ext = data.t_prime + data.u5
    psi_row = _psi_row()
    # s is derived from psi([s, n_l]) = 0, so the second family cannot fail; it states the lemma.
    return not any(
        _psi_bracket(psi_row, i, j)
        for family_a, family_b in ((data.n_l, data.n_l), (data.s, data.n_l), (ext, ext))
        for i in family_a
        for j in family_b
    )


def verify_lemma_incl() -> bool:
    """Bracket-level inclusion of the slice action into e + m_l-perp.

    Checks killing(z, y) = 0 and killing([x, y + e], z) = 0 for all basis
    x in n_l, y in ker ad_f together with y = 0, and z in m_l = n_l.
    """
    data = build_slice_data()
    if any(any(data.kappa_ker[i]) for i in data.n_l):
        return False
    columns = [col for z, col in enumerate(zip(*g2.killing_gram())) if z in data.n_l]  # of m_l
    for y in data.ker_ad_f + (G2Element.zero().coords,):
        terms = [(m, a) for m, a in enumerate((G2Element(y) + E).coords) if a]  # y + e
        for i in data.n_l:
            img = table_bracket(i, terms)  # [b_i, y + e]
            if any(sum(map(mul, img, column)) for column in columns):
                return False
    return True


def _m_l_perp_basis() -> tuple:
    """Basis of the Killing-orthogonal complement of m_l = n_l."""
    gram = g2.killing_gram()
    return kernel_basis(DenseMatrix.from_rows([gram[i] for i in build_slice_data().n_l]))


def verify_ml_formula() -> bool:
    """m_l-perp = [n_l, e] + ker ad_f, a direct sum of dimensions 4 + 6 = 10.

    The 4 + 6 spanning vectors have rank 10, so the sum is direct; adding
    the 10 perp basis vectors keeps the rank at 10, so the sum is m_l-perp.
    """
    data = build_slice_data()
    perp = list(_m_l_perp_basis())
    ad_e = ad_matrix(E)
    sum_rows = [ad_e.column(i) for i in data.n_l] + list(data.ker_ad_f)  # [e, n_l] + ker ad_f
    return (
        len(perp) == len(sum_rows) == 10
        and rank(DenseMatrix.from_rows(sum_rows)) == 10
        and rank(DenseMatrix.from_rows(perp + sum_rows)) == 10
    )


def _max_h_level(vectors: Sequence, levels: Sequence[int]) -> int:
    """Largest grading level carrying a nonzero coordinate among `vectors`."""
    return max(levels[i] for v in vectors for i, c in enumerate(v) if c)


def verify_contracting_weights() -> bool:
    """The contracting-action weight bounds: ker ad_f sits in levels <= 0
    (so every scaling weight 2 - i is positive) and m_l-perp in levels <= 1."""
    data = build_slice_data()
    return (
        _max_h_level(data.ker_ad_f, data.levels) <= 0
        and _max_h_level(_m_l_perp_basis(), data.levels) <= 1
    )


def omega_minus1_check() -> bool:
    """The form omega_{-1}(x, y) = killing([x, y], e) on g_(-1) is
    alternating and non-degenerate, and l = <e2> is an isotropic
    single-weight line."""
    idx = [i for i, lv in enumerate(build_slice_data().levels) if lv == -1]
    if len(idx) != 2:
        return False
    # omega_{-1}(u, v) = killing([u, v], e) = psi([u, v]).
    psi_row = _psi_row()
    (xx, xy), (yx, yy) = [[_psi_bracket(psi_row, u, v) for v in idx] for u in idx]
    if xx or yy or xy + yx or not xy:
        return False
    # A basis line is a single torus-weight line by construction; confirm
    # its weight is a root (nonzero).
    return L[0] in idx and BASIS_WEIGHTS[L[0]] != (0, 0)


def _psi_ad_powers_vanish(psi_row: Sequence[int], a: DenseMatrix, v: Sequence[int]) -> bool:
    """True iff psi(a^k x) = 0 for every k >= 1, x with coordinates v, for
    psi's coefficients `psi_row` and a = ad of gamma's root vector: up to
    the factors 1/k! != 0, the coefficients of psi(exp(t a) x) - psi(x) as
    a polynomial in t.  a is nilpotent, so they are finitely many."""
    for _ in range(DIM):
        v = a.mul_vec(v)
        if not any(v):
            return True
        if sum(map(mul, psi_row, v)):
            return False
    return True


def count_relevant_orbits() -> RelevantOrbitCount:
    """Count relevant base and complementary orbits over the 12 Weyl elements.

    For each w: S_w = w(base positive system), which must equal w applied
    to u6's weights; the opposite-cell weights are the weights of u5's basis
    vectors in S_w.  A base orbit is relevant iff psi vanishes on their
    span, which is also computed combinatorially as -alpha not in S_w; the
    two criteria must agree.  A complementary orbit exists iff gamma is not
    in S_w, and is relevant iff the base orbit is and psi kills all higher
    corrections by ad of u6's gamma line coefficient-wise.
    """
    data = build_slice_data()
    u5 = sorted((Root(*BASIS_WEIGHTS[i]), i) for i in data.u5)
    u6 = Polarization(frozenset(Root(*BASIS_WEIGHTS[i]) for i in data.u6))
    (gamma,) = data.u6[len(data.u5) :]  # u6 = u5 + g_gamma
    ad_gamma = ad_matrix(BASIS[gamma])
    neg_alpha = -rw.ALPHA
    psi_row = _psi_row()
    records = []
    for w, s_w in zip(generate_weyl(), all_polarizations()):
        if s_w != apply_weyl(w, u6):
            raise InconsistentCriteriaError(f"S_w at w = {w!r} is not w(u6's weights)")
        ubar = [(r, BASIS[i]) for r, i in u5 if r in s_w]
        psi_vanishes = not any(sum(map(mul, psi_row, x.coords)) for _, x in ubar)
        combinatorial = neg_alpha not in s_w
        if psi_vanishes != combinatorial:
            raise InconsistentCriteriaError(
                f"relevancy criteria disagree at w = {w!r}: "
                f"psi-vanishing {psi_vanishes}, -alpha test {combinatorial}"
            )
        base_relevant = psi_vanishes
        complementary_exists = rw.GAMMA not in s_w
        complementary_relevant = (
            complementary_exists
            and base_relevant
            and all(_psi_ad_powers_vanish(psi_row, ad_gamma, x.coords) for _, x in ubar)
        )
        records.append(
            RelevancyRecord(
                w=w,
                s_w=s_w,
                ubar_weights=tuple(r for r, _ in ubar),
                base_relevant=base_relevant,
                complementary_exists=complementary_exists,
                complementary_relevant=complementary_relevant,
            )
        )
    base = sum(r.base_relevant for r in records)
    comp = sum(r.complementary_relevant for r in records)
    return RelevantOrbitCount(base, comp, base + comp, tuple(records))


def omega_prime_rank(point: Sequence[int]) -> int | None:
    """Rank of the 20x20 Gram of the two-form

        omega'((u1, v1), (u2, v2)) =
            -killing(x, [u1, u2]) - killing(u1, v2) + killing(u2, v1)

    on (algebra directions) + (slice directions) at the slice point
    x = e1 + sum c_j k_j, given by integer homogeneous coordinates
    `point` = (w_0, w_1, ..., w_6) with c_j = w_j / w_0; None if a piece is
    not antisymmetric.  The Gram is [[A, -K], [K^T, 0]] with
    A = A_0 + sum c_j A_j and K = `kappa_ker`, and its rank is
    2 rank K + rank(P^T A P) for any square A, P spanning ker K^T: complete
    P to an invertible Q = [P R] and transform by diag(Q, I); once K's
    dependent columns are dropped, S = R^T K is invertible and clears
    P^T A R, R^T A R and R^T A P.  w_0 times P^T A P is the integer block
    sum w_j B_j, of the same rank.  DimensionMismatch unless len(point) = 7,
    ValueError if w_0 = 0.
    """
    data = build_slice_data()
    if len(point) != 1 + len(data.ker_ad_f):
        raise DimensionMismatch(f"{len(point)} homogeneous slice coordinates, expected 7")
    if not point[0]:
        raise ValueError("w_0 = 0 is not a slice point")
    if not data.omega_antisymmetric:
        return None
    block = [[sum([point[j] * x for j, x in terms]) if terms else 0 for terms in row]
             for row in data.omega_entries]
    return 2 * data.kappa_rank + rank(DenseMatrix.from_rows(block))


def omega_prime_sample_points(seed: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Seeded slice points as integer homogeneous coordinates (w_0, ..., w_6),
    w_0 > 0: rational coordinates c over the ker ad_f basis, drawn as
    (numerator, denominator) pairs, and (1, c) cleared."""
    sampler = SmallRationalSampler(seed)
    dim = len(build_slice_data().ker_ad_f)
    return tuple(
        tuple(cleared([(1, 1), *(sampler.ratio() for _ in range(dim))])) for _ in range(count)
    )
