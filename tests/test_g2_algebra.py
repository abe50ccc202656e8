"""Structure constants of g2 = V + sl3 + V^t and its Killing geometry.

The headline facts are frozen: all 196 bracket pairs antisymmetric, all
2744 Jacobi triples zero, all 2744 invariance triples balanced, Killing
values kappa(h_a, h_a) = 16, kappa(h_a, h_b) = -8, kappa(e1, f1) = -24,
and the dual Cartan norms |a_i|^2 = 1/12, |a_i - a_j|^2 = 1/4.  The
integer Jacobi, invariance and Gram computations are checked against the
earlier formulations through `bracket`, `killing` and `ad_matrix`, kept
here as references.

A `G2Element` holds ints only, so the random elements are small
rationals cleared of denominators (`conftest.clear`).  The identities
tested on them are homogeneous and multilinear, so each holds at a
rational point exactly when it holds at that point's cleared multiple.
"""

from fractions import Fraction

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

from conftest import clear

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
                if total.is_zero():
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
    assert (gram - gram.transpose()).is_zero()


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
