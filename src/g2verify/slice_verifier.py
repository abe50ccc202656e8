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
the computed pieces: the ad-H level of each basis vector, ker ad F, and the
Killing pairing of the basis with ker ad F.  Every verifier below calls it
first, so a failed identity raises from each.

Only the sl2 relations and the point [x, y + E] of `verify_lemma_incl`
involve non-basis elements.  Every question about basis vectors reads the
cached tables of `g2_algebra`: the levels are the diagonal of ad H, a
bracket of basis vectors lies in a span of basis vectors when its support
in the structure-constant table does, and psi([b_i, b_j]) is the sum of
t * psi(b_k) over the table entry (`_psi_bracket`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from operator import mul
from typing import Sequence

from . import g2_algebra as g2
from .exact_linalg import DenseMatrix, kernel_basis, rank, span_contains
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


class NotOnSliceError(ValueError):
    """The requested point does not lie on the slice e1 + ker ad_f."""


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


@cache
def build_slice_data() -> SliceData:
    """Verify the sl2-triple, grading, subalgebras and l; return the grading
    levels and ker ad f.

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
    data = SliceData(levels, ker_ad_f, kappa_ker)
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


def _psi_ad_powers_vanish(x: G2Element) -> bool:
    """True iff psi(ad(f3)^k x / k!) = 0 for every k >= 1.

    Coefficient-wise vanishing of psi(exp(t ad f3) x) - psi(x) as a
    polynomial in t; ad(f3) is nilpotent so the sum is finite.
    """
    a = ad_matrix(g2.f3)
    current = x
    factorial = 1
    for k in range(1, DIM + 1):
        current = G2Element(a.mul_vec(current.coords))
        if current.is_zero():
            return True
        factorial *= k
        if psi(current.scale(Fraction(1, factorial))) != 0:
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
            and all(_psi_ad_powers_vanish(x) for x in ubar_vectors)
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


def omega_prime_gram(x: G2Element) -> DenseMatrix:
    """The 20x20 Gram matrix of the two-form

        omega'((u1, v1), (u2, v2)) =
            -killing(x, [u1, u2]) - killing(u1, v2) + killing(u2, v1)

    on (algebra directions) + (slice directions), at a point x of the
    slice e1 + span(ker ad_f).  The first 14 rows/columns are the algebra
    basis directions u; the last 6 are the kernel-basis slice directions v.
    """
    data = build_slice_data()
    kernel = data.ker_ad_f
    diff = x - E
    if not span_contains(list(kernel), diff.coords):
        raise NotOnSliceError("point is not on the slice e1 + ker ad_f")
    n = DIM + len(kernel)
    rows = [[0] * n for _ in range(n)]
    kappa_x = [killing(x, b) for b in BASIS]
    table = g2._bracket_table()
    for i in range(DIM):
        for j in range(DIM):
            rows[i][j] = -sum(c * kappa_x[k] for k, c in table[i][j])
    for i, kappa_row in enumerate(data.kappa_ker):
        for j, val in enumerate(kappa_row):
            rows[i][DIM + j] = -val
            rows[DIM + j][i] = val
    return DenseMatrix.from_rows(rows)


def omega_prime_sample_points(
    seed: int, count: int
) -> tuple[tuple[G2Element, tuple[Fraction, ...]], ...]:
    """Seeded rational slice points e1 + sum c_i k_i with their coefficients."""
    sampler = SmallRationalSampler(seed)
    kernel_elems = [G2Element(v) for v in build_slice_data().ker_ad_f]
    points = []
    for _ in range(count):
        coeffs = tuple(sampler.fraction() for _ in kernel_elems)
        x = E
        for c, kv in zip(coeffs, kernel_elems):
            x = x + kv.scale(c)
        points.append((x, coeffs))
    return tuple(points)
