"""The 14-dimensional exceptional Lie algebra g2 = V + sl3 + V^t.

V is the space of column 3-vectors, V^t the space of row 3-vectors, and
sl3 the traceless 3x3 matrices.  The bracket is defined case by case:

* [x, y]   = xy - yx                      for x, y in sl3,
* [x, v]   = xv                           for x in sl3, v in V,
* [x, w^t] = -w^t x                       for x in sl3, w^t in V^t,
* [v, w]   = 2 (v x w)^t                  for v, w in V (cross product),
* [v^t, w^t] = 2 v x w                    for v^t, w^t in V^t,
* [v, w^t] = -3 v w^t + (w^t v) Id        for v in V, w^t in V^t.

The fixed ordered basis is e1, e2, e3 (columns), f1, f2, f3 (rows),
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
from itertools import product

from .exact_linalg import DenseMatrix, _check_ints, kernel_basis

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
        _check_ints(self.coords)

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
        _check_ints((s,))
        return G2Element(tuple(s * a for a in self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

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


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _mat_vec(m, v):
    return tuple(r[0] * v[0] + r[1] * v[1] + r[2] * v[2] for r in m)


def _vec_mat(phi, m):
    return tuple(phi[0] * a + phi[1] * b + phi[2] * c for a, b, c in zip(*m))


def _mat_mat(a, b):
    cols = tuple(zip(*b))
    return tuple(tuple(r[0] * c[0] + r[1] * c[1] + r[2] * c[2] for c in cols) for r in a)


def bracket(x: G2Element, y: G2Element) -> G2Element:
    """The Lie bracket of g2, assembled from the six case formulas."""
    v1, m1, p1 = _decompose(x)
    v2, m2, p2 = _decompose(y)

    # V component: [m1, v2] + [v1, m2] + [p1, p2].
    mv1, mv2, cr = _mat_vec(m1, v2), _mat_vec(m2, v1), _cross(p1, p2)
    v_out = tuple(a - b + 2 * c for a, b, c in zip(mv1, mv2, cr))

    # V^t component: [m1, p2] + [p1, m2] + [v1, v2].
    vm1, vm2, cr = _vec_mat(p2, m1), _vec_mat(p1, m2), _cross(v1, v2)
    p_out = tuple(-a + b + 2 * c for a, b, c in zip(vm1, vm2, cr))

    # sl3 component: [m1, m2] + [v1, p2] + [p1, v2].
    comm, comm2 = _mat_mat(m1, m2), _mat_mat(m2, m1)
    dot12 = p2[0] * v1[0] + p2[1] * v1[1] + p2[2] * v1[2]
    dot21 = p1[0] * v2[0] + p1[1] * v2[1] + p1[2] * v2[2]
    m_out = tuple(
        tuple(
            comm[i][j]
            - comm2[i][j]
            - 3 * v1[i] * p2[j]
            + 3 * v2[i] * p1[j]
            + ((dot12 - dot21) if i == j else 0)
            for j in range(3)
        )
        for i in range(3)
    )
    return _recompose(v_out, m_out, p_out)


@cache
def _bracket_table() -> tuple:
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


def ad_matrix(x: G2Element) -> DenseMatrix:
    """The 14x14 matrix of y -> [x, y] in the fixed basis."""
    c = _bracket_table()
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
    c = _bracket_table()
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
    c = _bracket_table()
    return sum(
        c[i][j] == tuple((k, -t) for k, t in c[j][i])
        for i in range(DIM)
        for j in range(DIM)
    )


def verify_jacobi() -> int:
    """Number of ordered basis triples satisfying the Jacobi identity
    [x, [y, z]] + [y, [z, x]] + [z, [x, y]] = 0 (2744 = all)."""
    c = _bracket_table()
    good = 0
    for i, j, k in product(range(DIM), repeat=3):
        total = [0] * DIM
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for m, s in c[b][d]:
                for l, t in c[a][m]:
                    total[l] += s * t
        if not any(total):
            good += 1
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
    c = _bracket_table()
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
