"""The 14-dimensional exceptional Lie algebra g2 = V + sl3 + V^t.

V is the space of column 3-vectors, V^t the space of row 3-vectors, and
sl3 the traceless 3x3 matrices.  The bracket is defined case by case:

* [x, y]   = xy - yx                      for x, y in sl3,
* [x, v]   = xv                           for x in sl3, v in V,
* [x, w^t] = -w^t x                       for x in sl3, w^t in V^t,
* [v, w]   = 2 (v x w)^t                  for v, w in V (cross product),
* [v^t, w^t] = 2 v x w                    for v^t, w^t in V^t,
* [v, w^t] = -3 v w^t + (w^t v) Id        for v in V, w^t in V^t.

`bracket` sums these over the nonzero entries of each part only,
`bracket_table` holds its values on the 196 basis pairs, and
`table_bracket` reads [b_i, v] off that table for sparse v.  The
fixed ordered basis is e1, e2, e3 (columns), f1, f2, f3 (rows),
E12, E13, E21, E23, E31, E32 (off-diagonal matrix units), and the Cartan
pair h_a = E11 - E22, h_b = E22 - E33.  Every basis element is a weight
vector; weights are recorded in simple-root coordinates (m1, m2) for the
simple roots alpha = a1 and beta = a2 - a1, where a_i is the weight of
e_i (so a2 = alpha + beta and a3 = -2*alpha - beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, product
from typing import Sequence

from .exact_linalg import DenseMatrix, add_product, check_ints, kernel_basis

#: Names of the 14 basis elements, in the fixed order used everywhere.
BASIS_NAMES: tuple[str, ...] = (
    "e1", "e2", "e3",
    "f1", "f2", "f3",
    "E12", "E13", "E21", "E23", "E31", "E32",
    "h_a", "h_b",
)

DIM = 14

#: Weight of each basis element in simple-root coordinates (alpha, beta).
#: e_i carries weight a_i, f_i carries -a_i, E_ij carries a_i - a_j, and
#: the Cartan pair carries weight zero.  The dictionary alpha = a1,
#: beta = a2 - a1 translates a-labels to (m1, m2) pairs.
BASIS_WEIGHTS: tuple[tuple[int, int], ...] = (
    (1, 0),    # e1 : a1
    (1, 1),    # e2 : a2
    (-2, -1),  # e3 : a3
    (-1, 0),   # f1 : -a1
    (-1, -1),  # f2 : -a2
    (2, 1),    # f3 : -a3
    (0, -1),   # E12: a1 - a2
    (3, 1),    # E13: a1 - a3
    (0, 1),    # E21: a2 - a1
    (3, 2),    # E23: a2 - a3
    (-3, -1),  # E31: a3 - a1
    (-3, -2),  # E32: a3 - a2
    (0, 0),    # h_a
    (0, 0),    # h_b
)


@dataclass(frozen=True)
class G2Element:
    """An element of g2: 14 integer coefficients in the fixed basis order.
    Any other coefficient raises TypeError: a Fraction (even an integral
    one), a float or a bool."""

    coords: tuple

    def __post_init__(self) -> None:
        if len(self.coords) != DIM:
            raise ValueError(f"g2 elements have {DIM} coordinates")
        object.__setattr__(self, "coords", tuple(self.coords))
        check_ints(self.coords)

    @classmethod
    def zero(cls) -> G2Element:
        return cls((0,) * DIM)

    @classmethod
    def basis(cls, index: int) -> G2Element:
        return cls(tuple(1 if i == index else 0 for i in range(DIM)))

    def __add__(self, other: G2Element) -> G2Element:
        return G2Element(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: G2Element) -> G2Element:
        return G2Element(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> G2Element:
        return G2Element(tuple(-a for a in self.coords))

    def scale(self, s: int) -> G2Element:
        check_ints((s,))
        return G2Element(tuple(s * a for a in self.coords))

    def __repr__(self) -> str:
        terms = []
        for c, name in zip(self.coords, BASIS_NAMES):
            if c:
                terms.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(terms) if terms else "0"


# Named basis elements.
e1 = G2Element.basis(0)
e2 = G2Element.basis(1)
e3 = G2Element.basis(2)
f1 = G2Element.basis(3)
f2 = G2Element.basis(4)
f3 = G2Element.basis(5)
E12 = G2Element.basis(6)
E13 = G2Element.basis(7)
E21 = G2Element.basis(8)
E23 = G2Element.basis(9)
E31 = G2Element.basis(10)
E32 = G2Element.basis(11)
h_a = G2Element.basis(12)
h_b = G2Element.basis(13)

BASIS: tuple[G2Element, ...] = tuple(G2Element.basis(i) for i in range(DIM))


def _decompose(x: G2Element):
    """Split an element into its (V, sl3, V^t) parts.

    Returns (v, m, phi): a column 3-vector, a 3x3 traceless matrix (as a
    tuple of row tuples), and a row 3-vector.
    """
    c = x.coords
    v = (c[0], c[1], c[2])
    phi = (c[3], c[4], c[5])
    m = (
        (c[12], c[6], c[7]),
        (c[8], c[13] - c[12], c[9]),
        (c[10], c[11], -c[13]),
    )
    return v, m, phi


def _recompose(v, m, phi) -> G2Element:
    """Inverse of _decompose; `m` must be traceless."""
    return G2Element(
        (
            v[0], v[1], v[2],
            phi[0], phi[1], phi[2],
            m[0][1], m[0][2], m[1][0], m[1][2], m[2][0], m[2][1],
            m[0][0], m[0][0] + m[1][1],
        )
    )


def _cross(total: list, s: int, a: list, b: list) -> None:
    """total += s (a x b), for 3-vectors a and b by their nonzero (index, value):
    e_i x e_j is e_k, k the third index, when (i, j, k) is cyclic, else -e_k."""
    for i, x in a:
        for j, y in b:
            if i != j:
                total[3 - i - j] += s * x * y if j - i in (1, -2) else -s * x * y


def bracket(x: G2Element, y: G2Element) -> G2Element:
    """The Lie bracket of g2, assembled from the six case formulas over the
    nonzero entries of each part, the products as in Gustavson's sparse
    scheme.  Each formula is h(x, y) - h(y, x), with h's V, sl3 and V^t parts
    m_x v_y + phi_x x phi_y, m_x m_y - 3 v_x phi_y + (phi_y v_x) Id and
    -phi_y m_x + v_x x v_y, so one pass per order of the arguments fills it."""
    parts = []
    for v, m, phi in (_decompose(x), _decompose(y)):
        parts.append((v, [(i, a) for i, a in enumerate(v) if a],
                      [(i, k, a) for i, row in enumerate(m) for k, a in enumerate(row) if a],
                      phi, [(j, a) for j, a in enumerate(phi) if a]))
    v_out, p_out, m_out, trace = [0] * 3, [0] * 3, [[0] * 3 for _ in range(3)], 0
    # s = 1 adds h(x, y) and s = -1 takes off h(y, x); v1, m1, p1 are nonzero entries.
    for s, (_, v1, m1, _, p1), (v2, v2_nz, m2, p2, p2_nz) in ((1, *parts), (-1, *parts[::-1])):
        for i, k, a in m1:
            v_out[i] += s * a * v2[k]  # m_x v_y
            p_out[k] -= s * p2[i] * a  # -phi_y m_x
            for l, j, b in m2:  # m_x m_y
                if l == k:
                    m_out[i][j] += s * a * b
        for i, a in v1:
            for j, b in p2_nz:  # -3 v_x phi_y
                m_out[i][j] -= 3 * s * a * b
            trace += s * a * p2[i]  # (phi_y v_x) Id
        _cross(v_out, s, p1, p2_nz)  # phi_x x phi_y
        _cross(p_out, s, v1, v2_nz)  # v_x x v_y
    for i in range(3):
        m_out[i][i] += trace
    return _recompose(v_out, m_out, p_out)


@cache
def bracket_table() -> tuple:
    """The structure constants: c[i][j] is the tuple of nonzero (k, c_ij^k)
    of [b_i, b_j], built once per process by one `bracket` call per basis
    pair, 196 calls in all.  Every question about brackets of basis vectors
    reads this one table: the algebra checks, `ad_matrix`, `killing_gram`,
    the slice checks and the rho homomorphism and f2 constraints.  The
    caches filled from the table keep the table of their first call:
    `killing_gram`, `slice_verifier.build_slice_data` and
    `rep7_verifier.build_rep7` (and the rep7 caches built on it)."""
    return tuple(
        tuple(tuple((k, t) for k, t in enumerate(bracket(x, y).coords) if t) for y in BASIS)
        for x in BASIS
    )


def table_bracket(i: int, terms: Sequence) -> list[int]:
    """The coordinates of [b_i, v] read off the structure-constant table, for
    v given by its nonzero (m, a) `terms`: the one-row `add_product` of the
    terms and the table's row c[i], whose entry c[i][m] holds the (k, t)
    that add a * t to coordinate k."""
    img = [0] * DIM
    add_product((img,), (terms,), bracket_table()[i], 1)
    return img


def ad_matrix(x: G2Element) -> DenseMatrix:
    """The 14x14 matrix of y -> [x, y] in the fixed basis."""
    c = bracket_table()
    rows = [[0] * DIM for _ in range(DIM)]
    for i, s in enumerate(x.coords):
        if s:
            for j in range(DIM):
                for k, t in c[i][j]:
                    rows[k][j] += s * t
    return DenseMatrix.from_rows(rows)


@cache
def killing_gram() -> tuple:
    """Gram matrix K[i][j] = trace(ad b_i . ad b_j) = sum c_il^k c_jk^l over
    the fixed basis, where c_ij^k is the b_k coefficient of [b_i, b_j]."""
    c = bracket_table()
    trace = lambda i, j: sum(
        s * t for l in range(DIM) for k, s in c[i][l] for m, t in c[j][k] if m == l
    )
    return tuple(tuple(trace(i, j) for j in range(DIM)) for i in range(DIM))


def killing(x: G2Element, y: G2Element) -> int:
    """The Killing form trace(ad x . ad y), via the cached basis Gram matrix."""
    gram = killing_gram()
    total = 0
    for i, a in enumerate(x.coords):
        if a:
            row = gram[i]
            for j, b in enumerate(y.coords):
                if b:
                    total += a * row[j] * b
    return total


def verify_antisymmetry() -> int:
    """Number of ordered basis pairs with [x, y] + [y, x] = 0 (196 = all)."""
    c = bracket_table()
    return sum(
        c[i][j] == tuple((k, -t) for k, t in c[j][i])
        for i in range(DIM)
        for j in range(DIM)
    )


def verify_jacobi() -> int:
    """Number of ordered basis triples satisfying the Jacobi identity
    [x, [y, z]] + [y, [z, x]] + [z, [x, y]] = 0 (2744 = all).  Under any
    table the sum is one for (i, j, k), (j, k, i) and (k, i, j), so it is
    taken once per rotation class, at its member with i least: (i, i, i), a
    class of 1, and (i, i, k), k > i, or (i, j, k), j, k > i, of 3."""
    c = bracket_table()
    good = 0
    for i in range(DIM):
        later = range(i + 1, DIM)
        for j, k in chain([(i, i)], ((i, k) for k in later), product(later, repeat=2)):
            total = [0] * DIM
            for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
                for m, s in c[b][d]:
                    for l, t in c[a][m]:
                        total[l] += s * t
            if not any(total):
                good += 1 if j == k == i else 3
    return good


def _combination(terms, vectors) -> list:
    """sum s * vectors[m] over the sparse terms (m, s)."""
    total = [0] * DIM
    for m, s in terms:
        for l, g in enumerate(vectors[m]):
            total[l] += s * g
    return total


def verify_killing_invariance() -> int:
    """Number of ordered basis triples satisfying the invariance identity
    kappa([x, y], z) + kappa(y, [x, z]) = 0 (2744 = all): the zero entries
    of ad(x)^T G + G ad(x), whose rows, per x, are summed once from Gram
    rows and whose columns from Gram columns, over the table's terms."""
    c = bracket_table()
    gram = killing_gram()
    columns = tuple(zip(*gram))
    good = 0
    for row in c:
        left = [_combination(terms, gram) for terms in row]
        right = [_combination(terms, columns) for terms in row]
        good += sum(
            left[j][k] + right[k][j] == 0 for j in range(DIM) for k in range(DIM)
        )
    return good


def killing_dual_norm(value_on_h_a: int, value_on_h_b: int) -> Fraction:
    """kappa-norm squared of the Cartan functional v with the given values.

    Its Killing dual t solves G t = v for the 2x2 Cartan Gram G, so the
    one null vector (x, y, z) of the integer matrix [G | v] gives
    t = -(x, y)/z, and the norm squared kappa(t, t) = v(t) is
    -(v_0 x + v_1 y)/z.  ValueError unless that kernel is one line with z != 0.
    """
    gram = killing_gram()
    rows = [[gram[i][12], gram[i][13], v] for i, v in ((12, value_on_h_a), (13, value_on_h_b))]
    kernel = kernel_basis(DenseMatrix.from_rows(rows))
    if len(kernel) != 1 or not kernel[0][2]:
        raise ValueError("Killing form is degenerate on the Cartan")
    ((x, y, z),) = kernel
    return Fraction(-(value_on_h_a * x + value_on_h_b * y), z)
