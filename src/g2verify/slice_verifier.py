"""Slice-side verification: sl2-triple, grading, nilpotent subalgebras,
the character psi, structural lemmas, and the relevant-orbit count.

The distinguished nilpotent is E = e1 (a short root vector).  With
F = -f1 and H = 3*E11 - Id = 2*h_a + h_b, the triple (E, F, H) satisfies
the sl2 relations, and ad H grades g2 with dimension vector
(2, 1, 2, 4, 2, 1, 2) over levels -3..3.  The isotropic line L = <e2>
inside g_(-1) gives rise to the chain of nilpotent subalgebras
N_L = <E21, E31, f1, e2> inside U5 = N_L + <E23> inside U6 = U5 + <f3>,
with S = <E23, E22 - E33> acting on N_L and T_PRIME = <E22 - E33> a torus
line; these constants hold basis indices, and R_U5 the torus weights of U5.
The character psi = killing(E, .) restricted to these subalgebras drives
the relevancy count: 6 relevant base orbits plus 1 relevant complementary
orbit, 7 in total.  `build_slice_data` verifies all of this and returns
the computed pieces: the ad-H level of each basis vector, ker ad F, the
Killing pairing of the basis with ker ad F, and the affine pieces of omega'
with their 8 x 8 reductions.  Every verifier below calls it first, so a failed
identity raises from each.

Only the sl2 relations and the point [x, y + E] of `verify_lemma_incl`
involve non-basis elements.  Every question about basis vectors reads the
cached tables of `g2_algebra`: the levels are the diagonal of ad H, a
bracket of basis vectors lies in a span of basis vectors when its support
in the structure-constant table does, and psi([b_i, b_j]) is the sum of
t * psi(b_k) over the table entry (`_psi_bracket`).  A point of the slice
E + ker ad F is its coordinate tuple over ker ad F; E is the zero tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Sequence

from . import g2_algebra as g2
from .exact_linalg import DenseMatrix, DimensionMismatch, clear_denominators, kernel_basis, rank
from .g2_algebra import (
    BASIS,
    BASIS_NAMES,
    BASIS_WEIGHTS,
    DIM,
    G2Element,
    ad_matrix,
    bracket,
    killing,
)
from .root_weyl import (
    GAMMA,
    Polarization,
    Root,
    WeylElement,
    all_polarizations,
    generate_weyl,
)
from .sampling import SmallRationalSampler


class StructureMismatchError(AssertionError):
    """A structural identity required by the slice construction failed."""


class InconsistentCriteriaError(AssertionError):
    """The two independent base-relevancy criteria disagreed."""


def _indices(*names: str) -> tuple[int, ...]:
    return tuple(BASIS_NAMES.index(n) for n in names)


#: The sl2-triple (e, f, h) = (e1, -f1, 2*h_a + h_b); e is the basis vector b_0.
E = g2.e1
F = -g2.f1
H = g2.h_a.scale(2) + g2.h_b
_E = BASIS.index(E)

#: Basis indices of the slice-side subspaces.
L = _indices("e2")
N_L = _indices("E21", "E31", "f1", "e2")  # m_l = n_l on this slice
U5 = N_L + _indices("E23")
U6 = U5 + _indices("f3")
S = _indices("E23", "h_b")
T_PRIME = _indices("h_b")

#: Torus weights of u5: the five roots whose vectors span u5, sorted.
R_U5: tuple[Root, ...] = tuple(sorted(Root(*BASIS_WEIGHTS[i]) for i in U5))


def psi(x: G2Element) -> int | Fraction:
    """The character psi = killing(e, x)."""
    return killing(E, x)


@dataclass(frozen=True)
class SliceData:
    """What `build_slice_data` computes rather than fixes."""

    levels: tuple[int, ...]  # the ad-h eigenvalue of each basis vector
    ker_ad_f: tuple  # tuple of 14-coordinate kernel vectors
    kappa_ker: tuple  # kappa(b_i, k_j): 14 rows, one column per kernel vector
    omega_pieces: tuple  # 14x14 A_0, ..., A_6: omega' at c has block A_0 + sum c_j A_j
    omega_antisymmetric: bool  # whether every piece is
    kappa_rank: int  # r = rank K, K = kappa_ker
    omega_kernel: tuple  # P: integer rows spanning ker K^T
    omega_blocks: tuple  # the 8x8 reduced blocks B_j = P^T A_j P

    def dims(self) -> tuple[int, ...]:
        """Dimensions of the ad-h eigenspaces, by increasing level."""
        return tuple(self.levels.count(lv) for lv in sorted(set(self.levels)))


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
    c = g2._bracket_table()
    for i in a:
        for j in b:
            if any(k not in b for k, _ in c[i][j]):
                raise StructureMismatchError(
                    f"{what} at ({BASIS_NAMES[i]}, {BASIS_NAMES[j]})"
                )


def _check_nilpotent_span(indices: Sequence[int], name: str) -> None:
    """Lower-central-series termination for the span of basis `indices`."""
    ads = [ad_matrix(BASIS[i]) for i in indices]
    current = [BASIS[i].coords for i in indices]
    for _ in range(DIM):
        images = (a.mul_vec(v) for a in ads for v in current)
        current = [w for w in images if any(w)]
        if not current:
            return
    raise StructureMismatchError(f"{name} is not nilpotent")


def _psi_bracket(i: int, j: int) -> int | Fraction:
    """psi([b_i, b_j]): the sum of t * psi(b_k) over the table entry c[i][j]."""
    psi_row = g2.killing_gram()[_E]
    return sum(t * psi_row[k] for k, t in g2._bracket_table()[i][j])


def _omega_pieces(kappa_ker: Sequence) -> tuple:
    """The pieces A_0, ..., A_6 of the algebra block of omega': A_j(b_i, b_l) =
    -w_j([b_i, b_l]) for w_0 = psi and w_j the j-th column of `kappa_ker`."""
    table = g2._bracket_table()
    return tuple(
        tuple(
            tuple(-sum(t * w[k] for k, t in table[i][l]) for l in range(DIM))
            for i in range(DIM)
        )
        for w in (g2.killing_gram()[_E], *zip(*kappa_ker))
    )


def _slice_data(levels, ker_ad_f, kappa_ker, pieces) -> SliceData:
    """SliceData with the pieces of omega' reduced by P, an integer basis of ker K^T."""
    k_t = DenseMatrix.from_rows(kappa_ker).transpose()
    p = DenseMatrix.from_rows([clear_denominators(v) for v in kernel_basis(k_t)])
    return SliceData(
        levels, ker_ad_f, kappa_ker, pieces,
        all(row == tuple(-x for x in col) for a in pieces for row, col in zip(a, zip(*a))),
        DIM - p.rows, p.entries,
        tuple((p @ DenseMatrix.from_rows(a) @ p.transpose()).entries for a in pieces),
    )


@cache
def build_slice_data() -> SliceData:
    """Verify the sl2-triple, grading, subalgebras and l; return the grading
    levels, ker ad f and the pieces of omega'.

    Raises StructureMismatchError naming the first failing identity.
    """
    # sl2 relations.
    if bracket(H, E) != E.scale(2):
        raise StructureMismatchError("[h, e] != 2e")
    if bracket(H, F) != F.scale(-2):
        raise StructureMismatchError("[h, f] != -2f")
    if bracket(E, F) != H:
        raise StructureMismatchError("[e, f] != h")

    # Grading by ad-h eigenvalue: ad h is diagonal with integer entries.
    ad_h = ad_matrix(H)
    for j, b in enumerate(BASIS):
        if any(ad_h.entry(i, j) for i in range(DIM) if i != j):
            raise StructureMismatchError(f"{b!r} is not an ad-h eigenvector")
        if not isinstance(ad_h.entry(j, j), int):
            raise StructureMismatchError(f"non-integer h-weight on {b!r}")
    levels = tuple(ad_h.entry(j, j) for j in range(DIM))
    ker_ad_f = kernel_basis(ad_matrix(F))
    gram = g2.killing_gram()
    kappa_ker = tuple(tuple(sum(map(mul, row, k)) for k in ker_ad_f) for row in gram)
    data = _slice_data(levels, ker_ad_f, kappa_ker, _omega_pieces(kappa_ker))
    if data.dims() != (2, 1, 2, 4, 2, 1, 2):
        raise StructureMismatchError(
            f"grading dimensions {data.dims()} != (2, 1, 2, 4, 2, 1, 2)"
        )
    if len(data.ker_ad_f) != 6:
        raise StructureMismatchError(f"dim ker ad_f = {len(data.ker_ad_f)} != 6")

    # Subalgebra closure, [s, n_l] inside n_l, and nilpotency.
    for name, a, b in (
        ("n_l is not bracket-closed", N_L, N_L),
        ("u5 is not bracket-closed", U5, U5),
        ("u6 is not bracket-closed", U6, U6),
        ("s is not bracket-closed", S, S),
        ("[s, n_l] escapes n_l", S, N_L),
    ):
        _check_brackets_in(a, b, name)
    _check_nilpotent_span(N_L, "n_l")

    # l sits in g_(-1) and is isotropic for omega_{-1}.
    if any(levels[i] != -1 for i in L):
        raise StructureMismatchError("l is not inside g_(-1)")
    if _psi_bracket(L[0], L[0]) != 0:
        raise StructureMismatchError("l is not isotropic for omega_{-1}")

    return data


def verify_psi_conditions() -> bool:
    """psi kills all brackets of n_l, of s with n_l, and of t' + u5.

    The first family is n_l-invariance of psi, the second is s-invariance,
    and the third certifies the invariant extension to the semidirect
    product at the Lie level.
    """
    build_slice_data()
    ext = T_PRIME + U5
    return not any(
        _psi_bracket(i, j)
        for family_a, family_b in ((N_L, N_L), (S, N_L), (ext, ext))
        for i in family_a
        for j in family_b
    )


def verify_lemma_incl() -> bool:
    """Bracket-level inclusion of the slice action into e + m_l-perp.

    Checks killing(z, y) = 0 and killing([x, y + e], z) = 0 for all basis
    x in n_l, y in ker ad_f together with y = 0, and z in m_l = n_l.
    """
    data = build_slice_data()
    if any(any(data.kappa_ker[i]) for i in N_L):
        return False
    gram = g2.killing_gram()
    for i in N_L:
        ad_x = ad_matrix(BASIS[i])
        for y in data.ker_ad_f + (G2Element.zero().coords,):
            img = ad_x.mul_vec((G2Element(y) + E).coords)  # [x, y + e]
            if any(sum(c * gram[k][z] for k, c in enumerate(img)) for z in N_L):
                return False
    return True


def _m_l_perp_basis() -> tuple:
    """Basis of the Killing-orthogonal complement of m_l = n_l."""
    gram = g2.killing_gram()
    return kernel_basis(DenseMatrix.from_rows([gram[i] for i in N_L]))


def verify_ml_formula() -> bool:
    """m_l-perp = [n_l, e] + ker ad_f, a direct sum of dimensions 4 + 6 = 10.

    The 4 + 6 spanning vectors have rank 10, so the sum is direct; adding
    the 10 perp basis vectors keeps the rank at 10, so the sum is m_l-perp.
    """
    kernel_span = list(build_slice_data().ker_ad_f)
    perp = list(_m_l_perp_basis())
    ad_e = ad_matrix(E)
    sum_rows = [ad_e.column(i) for i in N_L] + kernel_span  # [e, n_l] + ker ad_f
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
    (xx, xy), (yx, yy) = [[_psi_bracket(u, v) for v in idx] for u in idx]
    if xx or yy or xy + yx or not xy:
        return False
    # A basis line is a single torus-weight line by construction; confirm
    # its weight is a root (nonzero).
    return L[0] in idx and BASIS_WEIGHTS[L[0]] != (0, 0)


def _psi_ad_powers_vanish(v: Sequence) -> bool:
    """True iff psi(ad(f3)^k x) = 0 for every k >= 1, x with coordinates v:
    up to the factors 1/k! != 0, the coefficients of psi(exp(t ad f3) x) -
    psi(x) as a polynomial in t.  ad(f3) is nilpotent, so they are finitely many."""
    a = ad_matrix(g2.f3)
    psi_row = g2.killing_gram()[_E]
    for _ in range(DIM):
        v = a.mul_vec(v)
        if not any(v):
            return True
        if sum(map(mul, psi_row, v)):
            return False
    return True


def count_relevant_orbits() -> RelevantOrbitCount:
    """Count relevant base and complementary orbits over the 12 Weyl elements.

    For each w: S_w = w(base positive system); the opposite-cell weights
    are R(U5) intersected with S_w.  A base orbit is relevant iff psi
    vanishes on that span, which is also computed combinatorially as
    -alpha not in S_w; the two criteria must agree.  A complementary orbit
    exists iff gamma is not in S_w, and is relevant iff the base orbit is
    and psi kills all higher ad(f3)-corrections coefficient-wise.
    """
    build_slice_data()
    neg_alpha = Root(-1, 0)
    records = []
    base_count = 0
    comp_count = 0
    for w, s_w in zip(generate_weyl(), all_polarizations()):
        ubar_weights = tuple(r for r in R_U5 if r in s_w)
        ubar_vectors = [g2.root_vector(r.coords) for r in ubar_weights]
        psi_vanishes = all(psi(x) == 0 for x in ubar_vectors)
        combinatorial = neg_alpha not in s_w
        if psi_vanishes != combinatorial:
            raise InconsistentCriteriaError(
                f"relevancy criteria disagree at w = {w!r}: "
                f"psi-vanishing {psi_vanishes}, -alpha test {combinatorial}"
            )
        base_relevant = psi_vanishes
        complementary_exists = GAMMA not in s_w
        complementary_relevant = (
            complementary_exists
            and base_relevant
            and all(_psi_ad_powers_vanish(x.coords) for x in ubar_vectors)
        )
        if base_relevant:
            base_count += 1
        if complementary_relevant:
            comp_count += 1
        records.append(
            RelevancyRecord(
                w=w,
                s_w=s_w,
                ubar_weights=ubar_weights,
                base_relevant=base_relevant,
                complementary_exists=complementary_exists,
                complementary_relevant=complementary_relevant,
            )
        )
    return RelevantOrbitCount(
        base=base_count,
        complementary=comp_count,
        total=base_count + comp_count,
        records=tuple(records),
    )


def omega_prime_rank(coords: Sequence) -> int | None:
    """Rank of the 20x20 Gram of the two-form

        omega'((u1, v1), (u2, v2)) =
            -killing(x, [u1, u2]) - killing(u1, v2) + killing(u2, v1)

    on (algebra directions) + (slice directions) at the slice point
    x = e1 + sum c_j k_j, c = `coords`; None if a piece is not antisymmetric.
    The Gram is [[A, -K], [K^T, 0]] with A = A_0 + sum c_j A_j and
    K = `kappa_ker`, and its rank is 2 rank K + rank(P^T A P) for any square
    A, P spanning ker K^T: complete P to an invertible Q = [P R] and transform
    by diag(Q, I); once K's dependent columns are dropped, S = R^T K is
    invertible and clears P^T A R, R^T A R and R^T A P.  Scaling c by the
    lcm d of its denominators keeps the rank: P^T A P times d is the
    integer d B_0 + sum (d c_j) B_j.  DimensionMismatch unless len(c) = 6.
    """
    data = build_slice_data()
    if len(coords) != len(data.ker_ad_f):
        raise DimensionMismatch(f"{len(coords)} slice coordinates, expected 6")
    if not data.omega_antisymmetric:
        return None
    w = clear_denominators((1, *coords))
    block = [[sum(map(mul, w, xs)) for xs in zip(*rows)] for rows in zip(*data.omega_blocks)]
    return 2 * data.kappa_rank + rank(DenseMatrix.from_rows(block))


def omega_prime_sample_points(seed: int, count: int) -> tuple[tuple[Fraction, ...], ...]:
    """Seeded rational slice points, as coordinates over the ker ad_f basis."""
    sampler = SmallRationalSampler(seed)
    dim = len(build_slice_data().ker_ad_f)
    return tuple(tuple(sampler.fraction() for _ in range(dim)) for _ in range(count))
