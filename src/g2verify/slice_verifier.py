"""Slice-side verification: sl2-triple, grading, nilpotent subalgebras,
the character psi, structural lemmas, and the relevant-orbit count.

The distinguished nilpotent is e = e1 (a short root vector).  With
f = -f1 and h = 3*E11 - Id = 2*h_a + h_b, the triple (e, f, h) satisfies
the sl2 relations, and ad h grades g2 with dimension vector
(2, 1, 2, 4, 2, 1, 2) over levels -3..3.  The isotropic line l = <e2>
inside g_(-1) gives rise to the chain of nilpotent subalgebras
n_l = <E21, E31, f1, e2> inside u5 = n_l + <E23> inside u6 = u5 + <f3>,
with s = <E23, E22 - E33> acting on n_l and t' = <E22 - E33> a torus line.
The character psi = killing(., e1) restricted to these subalgebras drives
the relevancy count: 6 relevant base orbits plus 1 relevant complementary
orbit, 7 in total.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Sequence

from . import g2_algebra as g2
from .exact_linalg import DenseMatrix, kernel_basis, rank, span_contains
from .g2_algebra import (
    BASIS,
    BASIS_NAMES,
    BASIS_WEIGHTS,
    DIM,
    G2Element,
    ad_matrix,
    apply_matrix,
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


#: Torus weights of u5: the five roots whose vectors span u5 minus the
#: gamma line (E31, f1, E21, e2, E23 in basis order below).
R_U5: tuple[Root, ...] = (
    Root(-3, -1),  # E31
    Root(-1, 0),   # f1
    Root(0, 1),    # E21
    Root(1, 1),    # e2
    Root(3, 2),    # E23
)


@dataclass(frozen=True)
class Sl2TripleData:
    """The verified sl2-triple (e, f, h) = (e1, -f1, 2*h_a + h_b)."""

    e: G2Element
    f: G2Element
    h: G2Element


@dataclass(frozen=True)
class HGrading:
    """Eigenspace decomposition of g2 under ad h, as basis indices."""

    levels: tuple  # tuple of (level, tuple_of_basis_indices) pairs, sorted

    def indices(self, level: int) -> tuple[int, ...]:
        for lv, idx in self.levels:
            if lv == level:
                return idx
        return ()

    def dims(self) -> tuple[int, ...]:
        return tuple(len(idx) for _, idx in self.levels)

    def level_of(self, basis_index: int) -> int:
        for lv, idx in self.levels:
            if basis_index in idx:
                return lv
        raise ValueError(f"basis index {basis_index} not graded")


@dataclass(frozen=True)
class SliceSubalgebras:
    """Basis-index descriptions of the slice-side subspaces."""

    l: tuple[int, ...]
    n_l: tuple[int, ...]  # m_l = n_l on this slice
    u5: tuple[int, ...]
    u6: tuple[int, ...]
    s: tuple[int, ...]
    t_prime: tuple[int, ...]
    ker_ad_f: tuple  # tuple of 14-coordinate kernel vectors


@dataclass(frozen=True)
class SliceData:
    triple: Sl2TripleData
    grading: HGrading
    subalgebras: SliceSubalgebras
    psi: Callable[[G2Element], int | Fraction]  # x -> killing(e, x)


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


def _indices(*names: str) -> tuple[int, ...]:
    return tuple(BASIS_NAMES.index(n) for n in names)


def _h_weight(x: G2Element, h: G2Element) -> int:
    """The eigenvalue of ad h on a joint eigenvector x (must be exact)."""
    bx = bracket(h, x)
    for c, bc in zip(x.coords, bx.coords):
        if c:
            ratio = Fraction(bc) / Fraction(c)
            if x.scale(ratio).coords != bx.coords:
                raise StructureMismatchError(f"{x!r} is not an ad-h eigenvector")
            if ratio.denominator != 1:
                raise StructureMismatchError(f"non-integer h-weight on {x!r}")
            return int(ratio)
    return 0


def _check_brackets_in(a: Sequence[int], b: Sequence[int], what: str) -> None:
    """Brackets of the basis vectors `a` with those of `b` stay in span(b)."""
    rows = [BASIS[j].coords for j in b]
    for i in a:
        for j in b:
            br = bracket(BASIS[i], BASIS[j])
            if not br.is_zero() and not span_contains(rows, br.coords):
                raise StructureMismatchError(
                    f"{what} at ({BASIS_NAMES[i]}, {BASIS_NAMES[j]})"
                )


def _check_nilpotent_span(indices: Sequence[int], name: str) -> None:
    """Lower-central-series termination for the span of basis `indices`."""
    current = [BASIS[i] for i in indices]
    for _ in range(DIM):
        nxt = []
        for i in indices:
            for y in current:
                br = bracket(BASIS[i], y)
                if not br.is_zero():
                    nxt.append(br)
        if not nxt:
            return
        current = nxt
    raise StructureMismatchError(f"{name} is not nilpotent")


@cache
def build_slice_data() -> SliceData:
    """Construct and verify the sl2-triple, grading, subalgebras, and psi.

    Raises StructureMismatchError naming the first failing identity.
    """
    e = g2.e1
    f = -g2.f1
    h = g2.h_a.scale(2) + g2.h_b

    # sl2 relations.
    if bracket(h, e) != e.scale(2):
        raise StructureMismatchError("[h, e] != 2e")
    if bracket(h, f) != f.scale(-2):
        raise StructureMismatchError("[h, f] != -2f")
    if bracket(e, f) != h:
        raise StructureMismatchError("[e, f] != h")
    triple = Sl2TripleData(e, f, h)

    # Grading by ad-h eigenvalue; each basis element is an eigenvector.
    by_level: dict[int, list[int]] = {}
    for i in range(DIM):
        by_level.setdefault(_h_weight(BASIS[i], h), []).append(i)
    grading = HGrading(
        tuple((lv, tuple(by_level[lv])) for lv in sorted(by_level))
    )
    if grading.dims() != (2, 1, 2, 4, 2, 1, 2):
        raise StructureMismatchError(
            f"grading dimensions {grading.dims()} != (2, 1, 2, 4, 2, 1, 2)"
        )

    # Subspaces, all spanned by basis elements.
    l = _indices("e2")
    n_l = _indices("E21", "E31", "f1", "e2")
    u5 = n_l + _indices("E23")
    u6 = u5 + _indices("f3")
    s = _indices("E23", "h_b")
    t_prime = _indices("h_b")
    ker = kernel_basis(ad_matrix(f))
    if len(ker) != 6:
        raise StructureMismatchError(f"dim ker ad_f = {len(ker)} != 6")
    subs = SliceSubalgebras(
        l=l, n_l=n_l, u5=u5, u6=u6, s=s, t_prime=t_prime, ker_ad_f=ker
    )

    # Subalgebra closure, [s, n_l] inside n_l, and nilpotency.
    for name, a, b in (
        ("n_l is not bracket-closed", n_l, n_l),
        ("u5 is not bracket-closed", u5, u5),
        ("u6 is not bracket-closed", u6, u6),
        ("s is not bracket-closed", s, s),
        ("[s, n_l] escapes n_l", s, n_l),
    ):
        _check_brackets_in(a, b, name)
    _check_nilpotent_span(n_l, "n_l")

    # l sits in g_(-1) and is isotropic for omega_{-1}.
    if set(l) - set(grading.indices(-1)):
        raise StructureMismatchError("l is not inside g_(-1)")
    e2 = BASIS[l[0]]
    if killing(bracket(e2, e2), e) != 0:
        raise StructureMismatchError("l is not isotropic for omega_{-1}")

    return SliceData(triple, grading, subs, psi=partial(killing, e))


def verify_psi_conditions() -> bool:
    """psi kills all brackets of n_l, of s with n_l, and of t' + u5.

    The first family is n_l-invariance of psi, the second is s-invariance,
    and the third certifies the invariant extension to the semidirect
    product at the Lie level.
    """
    data = build_slice_data()
    psi = data.psi
    subs = data.subalgebras
    n_l = [BASIS[i] for i in subs.n_l]
    s = [BASIS[i] for i in subs.s]
    ext = [BASIS[i] for i in subs.t_prime + subs.u5]
    for family_a, family_b in ((n_l, n_l), (s, n_l), (ext, ext)):
        for x in family_a:
            for y in family_b:
                if psi(bracket(x, y)) != 0:
                    return False
    return True


def verify_lemma_incl() -> bool:
    """Bracket-level inclusion of the slice action into e + m_l-perp.

    Checks killing(z, y) = 0 and killing([x, y + e], z) = 0 for all basis
    x in n_l, y in ker ad_f together with y = 0, and z in m_l = n_l.
    """
    data = build_slice_data()
    subs = data.subalgebras
    e = data.triple.e
    n_l = [BASIS[i] for i in subs.n_l]
    kernel_elems = [G2Element(v) for v in subs.ker_ad_f]
    for z in n_l:
        for y in kernel_elems:
            if killing(z, y) != 0:
                return False
    for x in n_l:
        for y in kernel_elems + [G2Element.zero()]:
            img = bracket(x, y + e)
            for z in n_l:
                if killing(img, z) != 0:
                    return False
    return True


def _m_l_perp_basis(data: SliceData) -> tuple:
    """Basis of the Killing-orthogonal complement of m_l = n_l."""
    subs = data.subalgebras
    pairing_rows = [
        tuple(killing(BASIS[i], BASIS[j]) for j in range(DIM)) for i in subs.n_l
    ]
    return kernel_basis(DenseMatrix.from_rows(pairing_rows))


def verify_ml_formula() -> bool:
    """m_l-perp = [n_l, e] + ker ad_f, a direct sum of dimensions 4 + 6 = 10."""
    data = build_slice_data()
    subs = data.subalgebras
    e = data.triple.e
    perp = _m_l_perp_basis(data)
    bracket_span = [bracket(BASIS[i], e).coords for i in subs.n_l]
    kernel_span = list(subs.ker_ad_f)
    if len(perp) != 10:
        return False
    if rank(DenseMatrix.from_rows(bracket_span)) != 4:
        return False
    if len(kernel_span) != 6:
        return False
    perp_rows = list(perp)
    for v in bracket_span + kernel_span:
        if not span_contains(perp_rows, v):
            return False
    # Rank 4 + 6 = 10 makes the sum direct.
    return rank(DenseMatrix.from_rows(bracket_span + kernel_span)) == 10


def _max_h_level(vectors: Sequence, grading: HGrading) -> int:
    """Largest grading level carrying a nonzero coordinate among `vectors`."""
    top = None
    for v in vectors:
        for i, c in enumerate(v):
            if c:
                lv = grading.level_of(i)
                top = lv if top is None else max(top, lv)
    if top is None:
        raise ValueError("no nonzero vectors supplied")
    return top


def verify_contracting_weights() -> bool:
    """The contracting-action weight bounds: ker ad_f sits in levels <= 0
    (so every scaling weight 2 - i is positive) and m_l-perp in levels <= 1."""
    data = build_slice_data()
    return (
        _max_h_level(data.subalgebras.ker_ad_f, data.grading) <= 0
        and _max_h_level(_m_l_perp_basis(data), data.grading) <= 1
    )


def omega_minus1_check() -> bool:
    """The form omega_{-1}(x, y) = killing([x, y], e) on g_(-1) is
    alternating and non-degenerate, and l = <e2> is an isotropic
    single-weight line."""
    data = build_slice_data()
    e = data.triple.e
    idx = data.grading.indices(-1)
    if len(idx) != 2:
        return False
    x, y = BASIS[idx[0]], BASIS[idx[1]]
    om = lambda u, v: killing(bracket(u, v), e)
    if om(x, x) != 0 or om(y, y) != 0:
        return False
    if om(x, y) + om(y, x) != 0:
        return False
    if om(x, y) == 0:
        return False
    l_index = data.subalgebras.l[0]
    if l_index not in idx:
        return False
    # A basis line is a single torus-weight line by construction; confirm
    # its weight is a root (nonzero).
    return BASIS_WEIGHTS[l_index] != (0, 0)


def _psi_ad_powers_vanish(psi: Callable, x: G2Element) -> bool:
    """True iff psi(ad(f3)^k x / k!) = 0 for every k >= 1.

    Coefficient-wise vanishing of psi(exp(t ad f3) x) - psi(x) as a
    polynomial in t; ad(f3) is nilpotent so the sum is finite.
    """
    a = ad_matrix(g2.f3)
    current = x
    factorial = 1
    for k in range(1, DIM + 1):
        current = apply_matrix(a, current)
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
    data = build_slice_data()
    psi = data.psi
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
            and all(_psi_ad_powers_vanish(psi, x) for x in ubar_vectors)
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
    kernel = data.subalgebras.ker_ad_f
    diff = x - data.triple.e
    if not span_contains(list(kernel), diff.coords):
        raise NotOnSliceError("point is not on the slice e1 + ker ad_f")
    n = DIM + len(kernel)
    rows = [[0] * n for _ in range(n)]
    kernel_elems = [G2Element(v) for v in kernel]
    kappa_x = [killing(x, b) for b in BASIS]
    table = g2._bracket_table()
    for i in range(DIM):
        for j in range(DIM):
            rows[i][j] = -sum(c * kappa_x[k] for k, c in enumerate(table[i][j]) if c)
    for i in range(DIM):
        for j, kv in enumerate(kernel_elems):
            val = killing(BASIS[i], kv)
            rows[i][DIM + j] = -val
            rows[DIM + j][i] = val
    return DenseMatrix.from_rows(rows)


def omega_prime_sample_points(
    seed: int, count: int
) -> tuple[tuple[G2Element, tuple[Fraction, ...]], ...]:
    """Seeded rational slice points e1 + sum c_i k_i with their coefficients."""
    data = build_slice_data()
    sampler = SmallRationalSampler(seed)
    kernel_elems = [G2Element(v) for v in data.subalgebras.ker_ad_f]
    points = []
    for _ in range(count):
        coeffs = tuple(sampler.fraction() for _ in kernel_elems)
        x = data.triple.e
        for c, kv in zip(coeffs, kernel_elems):
            x = x + kv.scale(c)
        points.append((x, coeffs))
    return tuple(points)
