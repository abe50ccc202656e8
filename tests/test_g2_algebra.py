"""Structure constants of g2 = V + sl3 + V^t and its Killing geometry.

The headline facts are frozen: all 196 bracket pairs antisymmetric, all
2744 Jacobi triples zero, all 2744 invariance triples balanced, Killing
values kappa(h_a, h_a) = 16, kappa(h_a, h_b) = -8, kappa(e1, f1) = -24,
and the dual Cartan norms |a_i|^2 = 1/12, |a_i - a_j|^2 = 1/4.  The
integer Jacobi, invariance and Gram computations are checked against the
earlier formulations through `bracket`, `killing` and `ad_matrix`, kept
here as references.  So are `bracket` itself, against its earlier
per-entry generator sums, and the Gram-row invariance sweep, against
its earlier two sums per triple, on true and perturbed tables and Grams.

A `G2Element` holds ints only, so the random elements are small
rationals cleared of denominators (`conftest.clear`).  The identities
tested on them are homogeneous and multilinear, so each holds at a
rational point exactly when it holds at that point's cleared multiple.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from g2verify import g2_algebra as g2
from g2verify.exact_linalg import DenseMatrix, rank
from g2verify.g2_algebra import (
    BASIS,
    BASIS_NAMES,
    BASIS_WEIGHTS,
    DIM,
    G2Element,
    ad_matrix,
    bracket,
    killing,
    killing_dual_norm,
    killing_gram,
    verify_antisymmetry,
    verify_jacobi,
    verify_killing_invariance,
)

from conftest import clear, is_zero

e1 = G2Element.basis(0)
f1 = G2Element.basis(3)
h_a = G2Element.basis(12)
h_b = G2Element.basis(13)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
elements = st.lists(small_fractions, min_size=DIM, max_size=DIM).map(
    lambda coords: G2Element(tuple(clear(coords)))
)


def test_basis_bookkeeping() -> None:
    assert DIM == 14
    assert len(BASIS) == len(BASIS_NAMES) == len(BASIS_WEIGHTS) == DIM
    assert len(set(BASIS_NAMES)) == DIM


def test_antisymmetry_all_pairs() -> None:
    assert verify_antisymmetry() == 196


def test_jacobi_all_triples() -> None:
    assert verify_jacobi() == 2744


def test_killing_invariance_all_triples() -> None:
    assert verify_killing_invariance() == 2744


def _reference_jacobi() -> int:
    """The earlier Jacobi count, one `bracket` call per term."""
    good = 0
    for x in BASIS:
        for y in BASIS:
            for z in BASIS:
                total = (
                    g2.bracket(x, g2.bracket(y, z))
                    + g2.bracket(y, g2.bracket(z, x))
                    + g2.bracket(z, g2.bracket(x, y))
                )
                if not any(total.coords):
                    good += 1
    return good


def _reference_killing_invariance() -> int:
    """The earlier invariance count through `killing` and `bracket`."""
    good = 0
    for x in BASIS:
        for y in BASIS:
            for z in BASIS:
                if killing(g2.bracket(x, y), z) + killing(y, g2.bracket(x, z)) == 0:
                    good += 1
    return good


def _reference_invariance_sweep() -> int:
    """The earlier `verify_killing_invariance`: two sparse sums per triple."""
    c = g2.bracket_table()
    gram = g2.killing_gram()
    return sum(
        sum(s * gram[m][k] for m, s in c[i][j]) + sum(s * gram[j][m] for m, s in c[i][k]) == 0
        for i, j, k in product(range(DIM), repeat=3)
    )


@pytest.mark.parametrize("fault", ["none", "table", "gram"])
def test_invariance_sweep_matches_the_triple_loop(monkeypatch, fault) -> None:
    # Each entry of ad(x)^T G + G ad(x) is the same sum as the triple loop's,
    # so the counts agree for any table and any Gram, symmetric or not.
    table = [list(row) for row in g2.bracket_table()]
    gram = [list(row) for row in killing_gram()]
    if fault == "table":
        table[0][3] = table[0][3] + ((0, 1),)  # [e1, f1] gains an e1 term
    if fault == "gram":
        gram[0][12] += 1  # kappa(e1, h_a) only, not kappa(h_a, e1)
    monkeypatch.setattr(g2, "bracket_table", lambda: tuple(map(tuple, table)))
    monkeypatch.setattr(g2, "killing_gram", lambda: tuple(map(tuple, gram)))
    count = verify_killing_invariance()
    assert count == _reference_invariance_sweep()
    assert (count < 2744) == (fault != "none")


def _reference_jacobi_sweep() -> int:
    """The earlier `verify_jacobi`: all 2744 ordered triples, three table sums each."""
    c = g2.bracket_table()
    good = 0
    for i, j, k in product(range(DIM), repeat=3):
        total = [0] * DIM
        for a, b, d in ((i, j, k), (j, k, i), (k, i, j)):
            for m, s in c[b][d]:
                for l, t in c[a][m]:
                    total[l] += s * t
        good += not any(total)
    return good


@pytest.mark.parametrize("fault", ["none", "table", "extra_h_a"])
def test_jacobi_by_rotation_class_matches_the_triple_sweep(request, monkeypatch, fault) -> None:
    # A rotation of (i, j, k) permutes the three terms of one sum, so the
    # counts agree for any table, antisymmetric or not.
    if fault == "table":
        table = [list(row) for row in g2.bracket_table()]
        table[0][3] = table[0][3] + ((0, 1),)  # [e1, f1] gains an e1 term, [f1, e1] does not
        monkeypatch.setattr(g2, "bracket_table", lambda: tuple(map(tuple, table)))
    if fault == "extra_h_a":
        request.getfixturevalue("bracket_with_extra_h_a")
    count = verify_jacobi()
    assert count == _reference_jacobi_sweep()
    assert (count < 2744) == (fault != "none")


@pytest.mark.parametrize("perturbed", [False, True])
def test_integer_identities_match_reference_counts(request, perturbed) -> None:
    if perturbed:
        request.getfixturevalue("bracket_with_extra_h_a")
    jacobi = verify_jacobi()
    assert jacobi == _reference_jacobi()
    assert verify_killing_invariance() == _reference_killing_invariance()
    assert (jacobi < 2744) == perturbed


def test_killing_gram_is_the_trace_of_ad_products() -> None:
    ads = [ad_matrix(b).entries for b in BASIS]
    expected = tuple(
        tuple(
            sum(a[k][l] * b[l][k] for k in range(DIM) for l in range(DIM))
            for b in ads
        )
        for a in ads
    )
    assert killing_gram() == expected
    assert all(type(v) is int for row in killing_gram() for v in row)


def test_killing_frozen_values() -> None:
    assert killing(h_a, h_a) == 16
    assert killing(h_a, h_b) == -8
    assert killing(h_b, h_b) == 16
    assert killing(e1, f1) == -24
    assert killing(f1, e1) == -24


def test_killing_gram_nondegenerate() -> None:
    gram = DenseMatrix.from_rows([list(r) for r in killing_gram()])
    assert rank(gram) == DIM
    assert is_zero(gram - gram.transpose())


A_VALUES = ((1, 0), (-1, 1), (0, -1))  # a1, a2, a3 evaluated on (h_a, h_b)


def test_dual_cartan_norms() -> None:
    for v in A_VALUES:
        assert killing_dual_norm(*v) == Fraction(1, 12)
    for i in range(3):
        for j in range(i + 1, 3):
            diff = (
                A_VALUES[i][0] - A_VALUES[j][0],
                A_VALUES[i][1] - A_VALUES[j][1],
            )
            assert killing_dual_norm(*diff) == Fraction(1, 4)


@pytest.mark.parametrize("values", [(1, 0), (2, -1)])
def test_dual_norm_refuses_a_degenerate_cartan(monkeypatch, values) -> None:
    # With kappa(h_b, h_b) = 4 the Cartan Gram [[16, -8], [-8, 4]] is
    # singular.  (1, 0) is outside its image, so [G | v] has one null line
    # with z = 0; (2, -1) is 1/8 of its first column, so the kernel is a
    # plane.  Either way the functional has no Killing dual.
    gram = [list(row) for row in killing_gram()]
    gram[13][13] = 4
    monkeypatch.setattr(g2, "killing_gram", lambda: tuple(map(tuple, gram)))
    with pytest.raises(ValueError, match="degenerate"):
        killing_dual_norm(*values)


def test_a_functionals_sum_to_zero() -> None:
    assert tuple(sum(v[k] for v in A_VALUES) for k in (0, 1)) == (0, 0)


def test_cartan_acts_diagonally() -> None:
    eigenpairs = []
    for i, x in enumerate(BASIS[:12]):
        pair = []
        for h in (h_a, h_b):
            image = bracket(h, x)
            ratio = image.coords[i]
            assert image - x.scale(ratio) == G2Element.zero()
            pair.append(ratio)
        eigenpairs.append(tuple(pair))
    # The twelve root vectors carry twelve distinct Cartan eigenvalue pairs.
    assert len(set(eigenpairs)) == 12


def test_weights_linear_in_declared_coordinates() -> None:
    # Eigenvalues under (h_a, h_b) must be linear in the declared
    # (alpha, beta) weight coordinates: lambda(h) = m*alpha(h) + n*beta(h).
    alpha_on = {}
    beta_on = {}
    for h, name in ((h_a, "h_a"), (h_b, "h_b")):
        i_alpha = BASIS_WEIGHTS.index((1, 0))
        alpha_on[name] = bracket(h, BASIS[i_alpha]).coords[i_alpha]
        i_aux = BASIS_WEIGHTS.index((1, 1))
        aux = bracket(h, BASIS[i_aux]).coords[i_aux]
        beta_on[name] = aux - alpha_on[name]
    for i, (m, n) in enumerate(BASIS_WEIGHTS[:12]):
        for h, name in ((h_a, "h_a"), (h_b, "h_b")):
            expected = m * alpha_on[name] + n * beta_on[name]
            assert bracket(h, BASIS[i]).coords[i] == expected


@given(elements, elements)
@settings(max_examples=30, deadline=None)
def test_bracket_antisymmetric_on_random_elements(x, y) -> None:
    assert bracket(x, y) + bracket(y, x) == G2Element.zero()


@given(elements, elements, elements)
@settings(max_examples=20, deadline=None)
def test_jacobi_on_random_elements(x, y, z) -> None:
    total = (
        bracket(x, bracket(y, z))
        + bracket(y, bracket(z, x))
        + bracket(z, bracket(x, y))
    )
    assert total == G2Element.zero()


@given(elements, elements, elements)
@settings(max_examples=20, deadline=None)
def test_killing_associativity_on_random_elements(x, y, z) -> None:
    assert killing(bracket(x, y), z) == killing(x, bracket(y, z))


@given(elements, elements)
@settings(max_examples=30, deadline=None)
def test_ad_matrix_matches_bracket(x, y) -> None:
    assert ad_matrix(x).mul_vec(y.coords) == bracket(x, y).coords


def _terms(x: G2Element) -> list:
    return [(i, a) for i, a in enumerate(x.coords) if a]


@given(elements)
@settings(max_examples=30, deadline=None)
def test_table_bracket_matches_bracket(y) -> None:
    for i, b in enumerate(BASIS):
        assert g2.table_bracket(i, _terms(y)) == list(bracket(b, y).coords)


# The reference: `bracket` and its helpers as they were before each product
# became an explicit three-term sum computed once per bracket, verbatim.


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
    return tuple(sum(m[i][k] * v[k] for k in range(3)) for i in range(3))


def _vec_mat(phi, m):
    return tuple(sum(phi[k] * m[k][j] for k in range(3)) for j in range(3))


def _mat_mat(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _reference_bracket(x: G2Element, y: G2Element) -> G2Element:
    """The Lie bracket of g2, assembled from the six case formulas."""
    v1, m1, p1 = _decompose(x)
    v2, m2, p2 = _decompose(y)

    # V component: [m1, v2] + [v1, m2] + [p1, p2].
    v_out = tuple(
        _mat_vec(m1, v2)[i] - _mat_vec(m2, v1)[i] + 2 * _cross(p1, p2)[i]
        for i in range(3)
    )

    # V^t component: [m1, p2] + [p1, m2] + [v1, v2].
    vm1 = _vec_mat(p2, m1)
    vm2 = _vec_mat(p1, m2)
    cr = _cross(v1, v2)
    p_out = tuple(-vm1[j] + vm2[j] + 2 * cr[j] for j in range(3))

    # sl3 component: [m1, m2] + [v1, p2] + [p1, v2].
    comm = _mat_mat(m1, m2)
    comm2 = _mat_mat(m2, m1)
    dot12 = sum(p2[k] * v1[k] for k in range(3))
    dot21 = sum(p1[k] * v2[k] for k in range(3))
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


integer_elements = st.lists(st.integers(-99, 99), min_size=DIM, max_size=DIM).map(
    lambda coords: G2Element(tuple(coords))
)


@st.composite
def sparse_elements(draw) -> G2Element:
    """An element with 1-3 nonzero coordinates, all in the parts among V,
    sl3 and V^t drawn to be nonzero, so a part is often zero."""
    parts = draw(st.lists(st.sampled_from((range(3), range(6, DIM), range(3, 6))),
                          min_size=1, max_size=3, unique=True))
    support = draw(st.lists(st.sampled_from([k for part in parts for k in part]),
                            min_size=1, max_size=3, unique=True))
    coords = [0] * DIM
    for k in support:
        coords[k] = draw(st.integers(-99, 99).filter(bool))
    return G2Element(tuple(coords))


# Dense draws almost never meet a zero part; sparse ones mostly do.
any_elements = st.one_of(integer_elements, sparse_elements())


@given(any_elements, any_elements)
@settings(max_examples=200, deadline=None)
def test_bracket_matches_its_reference(x, y) -> None:
    assert bracket(x, y) == _reference_bracket(x, y)


def test_bracket_table_matches_the_reference_table() -> None:
    expected = tuple(
        tuple(
            tuple((k, t) for k, t in enumerate(_reference_bracket(x, y).coords) if t)
            for y in BASIS
        )
        for x in BASIS
    )
    assert g2.bracket_table() == expected
