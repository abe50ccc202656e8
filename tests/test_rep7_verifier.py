"""The 7-dimensional representation, its invariant quadric, and the
Borel-orbit count on the quadric cone.

Frozen facts: the four undetermined rho(f2) coefficients solve uniquely
to (1, -1, -1, -2); all 91 bracket pairs are matched; the invariant
bilinear form pairs dual weight lines at -2 with B(u, u) = 4; the
quadratic invariant as a polynomial has unit u^2 coefficient; there are
6 isotropic T-fixed lines with pairwise distinct orbit dimensions; and
the Borel-orbit count over F_p is 7 for p in {3, 5, 7}, with the same
orbits as the earlier union-find oracle over all p - 1 multiples of each
root vector.  The integer conormal, moment and fiber computations, read
from one table of monomial terms, are checked against their earlier
`Fraction` formulations through the tests' own bilinear form x^T m y,
kept here as references, and the table against the matrices it is
written from.  The package takes integer points only, so a rational
point drawn here reaches it cleared (`clear`), while the references
read it as drawn.  The identity sweeps, which sum into plain grids, are
checked against their matrix-product formulations, kept here too.
"""

import dataclasses
import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from g2verify import g2_algebra as g2
from g2verify import rep7_verifier as rep7
from g2verify import report_cli
from g2verify import root_weyl as rw
from g2verify.exact_linalg import DenseMatrix, DimensionMismatch, kernel_basis, rank
from g2verify.rep7_verifier import (
    BOREL_G2_NAMES,
    REP_DIM,
    REP_LABELS,
    REP_WEIGHTS,
    BadPrimeError,
    build_rep7,
    build_symplectic14,
    conormal_conditions,
    conormal_fiber_basis,
    count_orbits_mod_p,
    invariant_form,
    moment_zero_check,
    orbit_dimension,
    phi_symplectomorphism_check,
    quadric_element,
    quadric_value,
    sample_conormal_pair,
    sample_isotropic_vector,
    tfixed_isotropic_lines,
    verify_homomorphism,
    verify_invariant_form,
    verify_quadric_element,
    verify_symplectic_invariance,
    verify_weight_compatibility,
    zero_weight_space,
)
from g2verify.report_cli import Config, emit, run_suite
from g2verify.sampling import SmallRationalSampler, cleared

from conftest import GOLDEN_DEFAULT_REPORT, clear, clear_caches, is_zero, with_entry


def unit(i: int) -> tuple:
    return tuple(int(k == i) for k in range(REP_DIM))


def _bilinear(m: DenseMatrix, x, y):
    """x^T m y, summed entry by entry: the tests' own reference, which
    shares no code with the package's evaluators."""
    assert (len(x), len(y)) == (m.rows, m.cols)
    return sum(x[i] * e * y[j] for i, row in enumerate(m.entries) for j, e in enumerate(row) if e)


ZERO = (0,) * REP_DIM


def _nonzero_fraction(sampler: SmallRationalSampler) -> Fraction:
    """The next nonzero draw, redrawn while the numerator is 0."""
    while True:
        x = sampler.fraction()
        if x:
            return x


@pytest.fixture(scope="module")
def rep():
    return build_rep7()


def test_basis_bookkeeping() -> None:
    assert REP_DIM == 7
    assert REP_LABELS == ("v", "w", "t~", "v~", "w~", "t", "u")
    assert len(REP_WEIGHTS) == 7
    assert REP_WEIGHTS[6] == (0, 0)
    # Nonzero weights occur in opposite pairs.
    nonzero = [w for w in REP_WEIGHTS if w != (0, 0)]
    assert all((-m, -n) in nonzero for m, n in nonzero)


def test_f2_coefficients_frozen(rep) -> None:
    assert rep.f2_coefficients == (
        Fraction(1),
        Fraction(-1),
        Fraction(-1),
        Fraction(-2),
    )
    assert all(type(c) is int for c in rep.f2_coefficients)


def test_f2_null_vector_is_divided_by_its_last_entry_exactly(monkeypatch) -> None:
    # The null vector (c, 1) of [M | base] may come at any scale: 2 (c, 1)
    # still solves to c, and a last entry that does not divide the rest
    # raises instead of rounding.
    monkeypatch.setattr(rep7, "kernel_basis", lambda m: ((2, -2, -2, -4, 2),))
    assert rep7._solve_f2_coefficients() == (1, -1, -1, -2)
    monkeypatch.setattr(rep7, "kernel_basis", lambda m: ((1, -1, -1, -2, 2),))
    with pytest.raises(ArithmeticError):
        rep7._solve_f2_coefficients()


def test_seed_matrix_entries(rep) -> None:
    rho_f1 = rep.matrix("f1")
    rho_f3 = rep.matrix("f3")
    expected_f1 = {(1, 0): 1, (2, 6): 2, (6, 5): 1, (3, 4): -1}
    expected_f3 = {(1, 2): 1, (5, 4): -1, (6, 3): -1, (0, 6): -2}
    for m, expected in ((rho_f1, expected_f1), (rho_f3, expected_f3)):
        actual = {
            (i, j): m.entry(i, j)
            for i in range(REP_DIM)
            for j in range(REP_DIM)
            if m.entry(i, j)
        }
        assert actual == expected


def test_homomorphism_all_pairs() -> None:
    assert verify_homomorphism() == 91


@given(st.lists(st.tuples(st.integers(0, 13), st.integers(-9, 9)), max_size=6))
@settings(max_examples=60, deadline=None)
def test_action_matches_a_dense_reference(terms) -> None:
    # Repeated and zero terms included: the action sums c * rho(b_k) over
    # the nonzero entries, which must equal the entry-by-entry dense sum.
    matrices = build_rep7().matrices
    dense = [
        [sum(c * matrices[k].entry(i, j) for k, c in terms) for j in range(REP_DIM)]
        for i in range(REP_DIM)
    ]
    assert build_rep7().act(terms) == dense


# The homomorphism sweep as the package wrote it before its sweeps summed
# into one grid, through validated DenseMatrix products: the reference the
# grid sweep is checked against.
def _reference_act(rep, terms) -> DenseMatrix:
    """The matrix of sum c b_k acting on the representation, for the
    sparse terms (k, c) of a bracket-table entry."""
    rows = [[0] * REP_DIM for _ in range(REP_DIM)]
    for k, c in terms:
        for acc, nonzeros in zip(rows, rep.matrices[k].nonzeros):
            for j, x in nonzeros:
                acc[j] += c * x
    return DenseMatrix.from_rows(rows)


def _reference_commutator(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    return a @ b - b @ a


def _reference_homomorphism() -> int:
    """Number of basis pairs (i < j) satisfying the homomorphism identity
    rho([b_i, b_j]) = [rho(b_i), rho(b_j)]; 91 means all pass."""
    rep = rep7.build_rep7()
    table = g2.bracket_table()
    good = 0
    for i in range(g2.DIM):
        for j in range(i + 1, g2.DIM):
            if _reference_act(rep, table[i][j]) == _reference_commutator(rep.matrices[i], rep.matrices[j]):
                good += 1
    return good


def test_homomorphism_count_matches_the_reference(monkeypatch) -> None:
    assert verify_homomorphism() == _reference_homomorphism() == 91
    rep = build_rep7()
    for k, m in enumerate(rep.matrices):
        # One entry of rho(b_k) moved by 1, a different place for each k.
        i, j = k % REP_DIM, (3 * k + 1) % REP_DIM
        bad_m = with_entry(m, i, j, m.entry(i, j) + 1)
        bad = dataclasses.replace(rep, matrices=rep.matrices[:k] + (bad_m,) + rep.matrices[k + 1:])
        monkeypatch.setattr(rep7, "build_rep7", lambda: bad)
        count = verify_homomorphism()
        assert count == _reference_homomorphism() < 91, (k, count)
        monkeypatch.undo()


_SMALL_ENTRY = st.sampled_from((0, 0, 0, 1, -1, 2))


@st.composite
def _square_pair(draw) -> tuple:
    n = draw(st.integers(1, 4))
    grid = st.lists(st.lists(_SMALL_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    return DenseMatrix.from_rows(draw(grid)), DenseMatrix.from_rows(draw(grid))


# An antisymmetric b that the diagonal m leaves invariant, and a b that is
# neither symmetric nor antisymmetric, which it does not.
@example((DenseMatrix.from_rows([[1, 0], [0, -1]]), DenseMatrix.from_rows([[0, 1], [-1, 0]])))
@example((DenseMatrix.from_rows([[1, 0], [0, -1]]), DenseMatrix.from_rows([[1, 2], [0, 1]])))
@given(_square_pair())
@settings(max_examples=200, deadline=None)
def test_is_invariant_matches_the_matrix_formulation(pair) -> None:
    m, b = pair
    assert rep7._is_invariant(m.nonzeros, m.nonzero_columns, b) == is_zero(
        m.transpose() @ b + b @ m
    )
    # With m's rows and columns swapped, the test is that of m^T.
    assert rep7._is_invariant(m.nonzero_columns, m.nonzeros, b) == is_zero(
        m @ b + b @ m.transpose()
    )


def test_identity_sweeps_build_no_matrix(monkeypatch) -> None:
    # With every cache warm, a sweep sums its products into plain grids:
    # only verify_quadric_element builds a matrix, C (quadric_element is
    # not cached); it reads rho(x)^T off rho(x)'s columns.
    sweeps = (verify_homomorphism, verify_invariant_form, verify_symplectic_invariance,
              verify_quadric_element)
    for sweep in sweeps:
        sweep()
    built = Counter()
    true_post_init = DenseMatrix.__post_init__

    def counting_post_init(self) -> None:
        built[sweep.__name__] += 1
        true_post_init(self)

    monkeypatch.setattr(DenseMatrix, "__post_init__", counting_post_init)
    for sweep in sweeps:
        sweep()
    assert built == Counter(verify_quadric_element=1)


def test_weight_compatibility() -> None:
    assert verify_weight_compatibility()


def test_zero_weight_space_is_the_u_line() -> None:
    space = zero_weight_space()
    assert len(space) == 1
    (v,) = space
    assert [k for k in range(REP_DIM) if v[k]] == [6]


def test_invariant_form_entries() -> None:
    b = invariant_form()
    expected = {
        (0, 3): -2, (3, 0): -2,
        (1, 4): -2, (4, 1): -2,
        (2, 5): -2, (5, 2): -2,
        (6, 6): 4,
    }
    actual = {
        (i, j): b.entry(i, j)
        for i in range(REP_DIM)
        for j in range(REP_DIM)
        if b.entry(i, j)
    }
    assert actual == expected
    assert is_zero(b - b.transpose())
    assert rank(b) == 7


def test_invariant_form_identity() -> None:
    assert verify_invariant_form() == 14


def test_invariant_form_system_keeps_one_primitive_row_per_line() -> None:
    # The full system rho(x)^T B + B rho(x) = 0 over all 14 matrices,
    # written out here as the reference: 246 nonzero rows, 126 distinct.
    # The generators' rows alone (66 of them) have the same one-line kernel.
    pairs = itertools.combinations_with_replacement(range(REP_DIM), 2)
    idx = {ij: k for k, ij in enumerate(pairs)}

    def rows(matrices) -> list:
        found = []
        for m in matrices:
            for r, c in idx:
                row = [0] * len(idx)
                for k in range(REP_DIM):
                    row[idx[min(k, c), max(k, c)]] += m.entry(k, r)
                    row[idx[min(r, k), max(r, k)]] += m.entry(k, c)
                if any(row):
                    found.append(tuple(row))
        return found

    full = rows(build_rep7().matrices)
    assert (len(full), len(set(full))) == (246, 126)
    (kernel,) = kernel_basis(DenseMatrix.from_rows(full))
    generators = rows(map(build_rep7().matrix, ("f1", "f2", "f3")))
    assert len(generators) == 66
    assert kernel_basis(DenseMatrix.from_rows(generators)) == (kernel,)
    scale = Fraction(-2) / kernel[idx[0, 3]]
    assert invariant_form().entries == tuple(
        tuple(kernel[idx[min(i, j), max(i, j)]] * scale for j in range(REP_DIM))
        for i in range(REP_DIM)
    )


def test_quadric_element_invariance() -> None:
    assert verify_quadric_element() == 14


def test_quadratic_invariant_polynomial() -> None:
    # The typed matrix C against the polynomial it stands for.
    c = quadric_element()
    sampler = SmallRationalSampler(5)
    for _ in range(20):
        x = clear([sampler.fraction() for _ in range(REP_DIM)])
        v, w, tt, vt, wt, t, u = x
        q = u * u - 4 * v * vt - 4 * w * wt - 4 * t * tt
        xcx = sum(x[i] * c.entry(i, j) * x[j] for i in range(REP_DIM) for j in range(REP_DIM))
        assert xcx == q
        # The bilinear form computes the same polynomial up to the u^2
        # normalization: <x, x> = q(x) + 3 u^2.
        assert quadric_value(x) == q + 3 * u * u
    assert c.entry(6, 6) == 1


def test_symplectic_doubling() -> None:
    symp = build_symplectic14()
    assert symp.omega.rows == symp.omega.cols == 14
    assert is_zero(symp.omega + symp.omega.transpose())
    assert rank(symp.omega) == 14
    assert len(symp.actions14) == 10
    assert verify_symplectic_invariance()


def test_omega_pair_antisymmetry() -> None:
    omega = build_symplectic14().omega
    sampler = SmallRationalSampler(11)
    for _ in range(10):
        x = [sampler.fraction() for _ in range(14)]
        y = [sampler.fraction() for _ in range(14)]
        assert _bilinear(omega, x, y) == -_bilinear(omega, y, x)


def test_phi_is_a_symplectomorphism() -> None:
    assert phi_symplectomorphism_check()


def test_phi_check_fails_on_a_perturbed_omega_or_block(monkeypatch) -> None:
    symp = build_symplectic14()
    # omega(v, v~) moved off -2, and one entry of the e2-slot block of the
    # first g2-Borel generator moved off its 7x7 matrix.
    bad_omega = with_entry(symp.omega, 0, REP_DIM + 3, -1)
    a = symp.actions14[0]
    bad_block = with_entry(a, REP_DIM, REP_DIM, a.entry(REP_DIM, REP_DIM) + 1)
    faults = (
        dataclasses.replace(symp, omega=bad_omega),
        dataclasses.replace(symp, actions14=(bad_block,) + symp.actions14[1:]),
    )
    for bad in faults:
        monkeypatch.setattr(rep7, "build_symplectic14", lambda: bad)
        try:
            assert not phi_symplectomorphism_check()
        finally:
            monkeypatch.undo()
            clear_caches()  # anything built from the fault
    assert phi_symplectomorphism_check()


def test_conormal_worked_examples() -> None:
    # (z' = v, z = v): all three conditions hold.
    assert conormal_conditions(unit(0), unit(0))
    # (z' = v, z = v~): <z, z'> = -2 breaks condition (ii).
    assert not conormal_conditions(unit(0), unit(3))
    # (z' = u, z = 0): <z', z'> = 4 breaks condition (i).
    assert not conormal_conditions(unit(6), ZERO)


def test_moment_map_matches_conormal_on_examples() -> None:
    for zprime, z in ((unit(0), unit(0)), (unit(0), unit(3)), (unit(6), ZERO)):
        point = tuple(z) + tuple(zprime)
        assert moment_zero_check(point) == conormal_conditions(zprime, z)


def test_conormal_sampler_produces_members() -> None:
    sampler = SmallRationalSampler(3)
    for k in range(12):
        zprime, z = sample_conormal_pair(sampler, k)
        assert conormal_conditions(zprime, z)
        assert moment_zero_check(tuple(z) + tuple(zprime))


def test_moment_map_matches_conormal_on_random_pairs() -> None:
    sampler = SmallRationalSampler(9)
    for _ in range(25):
        zprime = clear([sampler.fraction() for _ in range(REP_DIM)])
        z = clear([sampler.fraction() for _ in range(REP_DIM)])
        point = z + zprime
        assert conormal_conditions(zprime, z) == moment_zero_check(point)


def _apply(m: DenseMatrix, x) -> list:
    """m x for a rational x, summed entry by entry like `_bilinear`: an
    integer matrix's `mul_vec` takes integer vectors only."""
    return [sum(a * b for a, b in zip(row, x)) for row in m.entries]


def _reference_conormal_conditions(zprime, z) -> bool:
    form = invariant_form()
    if _bilinear(form, zprime, zprime) != 0 or _bilinear(form, z, zprime) != 0:
        return False
    return all(
        _bilinear(form, _apply(m, z), zprime) == _bilinear(form, z, _apply(m, zprime))
        for m in map(build_rep7().matrix, BOREL_G2_NAMES)
    )


def _reference_moment_zero_check(point) -> bool:
    symp = build_symplectic14()
    return all(_bilinear(symp.omega, point, _apply(a, point)) == 0 for a in symp.actions14)


def _reference_fiber_basis(zprime) -> tuple:
    form = invariant_form()
    rows = [list(form.mul_vec(zprime))]
    for m in map(build_rep7().matrix, BOREL_G2_NAMES):
        lhs = (m.transpose() @ form).mul_vec(zprime)
        rhs = form.mul_vec(m.mul_vec(zprime))
        rows.append([a - b for a, b in zip(lhs, rhs)])
    return kernel_basis(DenseMatrix.from_rows(rows))


def _assert_predicates_match_reference(zprime, z) -> bool:
    # The references read the point as drawn, the package cleared.
    point = tuple(z) + tuple(zprime)
    conormal = conormal_conditions(clear(zprime), clear(z))
    assert conormal == _reference_conormal_conditions(zprime, z)
    assert moment_zero_check(clear(z) + clear(zprime)) == _reference_moment_zero_check(point)
    return conormal


def test_integer_predicates_match_reference_on_random_pairs() -> None:
    sampler = SmallRationalSampler(31)
    for _ in range(200):
        zprime = tuple(sampler.fraction() for _ in range(REP_DIM))
        z = tuple(sampler.fraction() for _ in range(REP_DIM))
        _assert_predicates_match_reference(zprime, z)


def test_integer_predicates_match_reference_on_sampled_conormal_pairs() -> None:
    sampler = SmallRationalSampler(37)
    for k in range(100):
        zprime, z = sample_conormal_pair(sampler, k)
        assert conormal_fiber_basis(zprime) == _reference_fiber_basis(zprime)
        assert _assert_predicates_match_reference(zprime, z)
        # One coordinate moved off the pair: both sides must follow.
        bumped = list(z)
        bumped[k % REP_DIM] += 1
        _assert_predicates_match_reference(zprime, bumped)


def test_conormal_predicates_reject_bad_vectors() -> None:
    for call in (
        lambda: conormal_conditions(unit(0), ZERO + (0,)),
        lambda: conormal_conditions(unit(0)[:6], ZERO),
        lambda: moment_zero_check(unit(0)),
        lambda: conormal_fiber_basis(ZERO[:6]),
    ):
        with pytest.raises(DimensionMismatch):
            call()
    for bad in (0.0, 0.5, True):
        with pytest.raises(TypeError):
            conormal_conditions(unit(0), (bad,) + ZERO[1:])
        with pytest.raises(TypeError):
            moment_zero_check((bad,) + ZERO + ZERO[1:])


def test_form_terms_match_their_matrices() -> None:
    # Each polynomial sum c x_i x_j of the term table equals x^T M x for
    # the matrix M it was written from, at every e_i and e_i + e_j, which
    # fix a quadratic form.  On C^14 = (z, z'), condition (i) is B in the
    # z' block and each z^T f z' is f in the (z, z') block, for f = B and
    # f = m^T B - B m per g2-Borel generator m; the moment forms are omega A.
    terms = rep7._form_terms()
    b = invariant_form()
    symp = build_symplectic14()
    z_zprime = DenseMatrix.from_rows([[0, 1], [0, 0]])
    zprime_zprime = DenseMatrix.from_rows([[0, 0], [0, 1]])
    fs = [b] + [m.transpose() @ b - b @ m for m in map(build_rep7().matrix, BOREL_G2_NAMES)]
    conormal = [rep7._kron(zprime_zprime, b)] + [rep7._kron(z_zprime, f) for f in fs]
    moment = [symp.omega @ a for a in symp.actions14]
    pairs = [(terms.quadric, b)]
    pairs += list(zip(terms.conormal, conormal, strict=True))
    pairs += list(zip(terms.moment, moment, strict=True))
    assert len(pairs) == 21
    for poly, m in pairs:
        assert all(type(c) is int and c and i <= j for i, j, c in poly)
        n = m.rows
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            for x in ([int(k == i) for k in range(n)], [int(k in (i, j)) for k in range(n)]):
                value = sum(c * x[p] * x[q] for p, q, c in poly)
                assert value == _bilinear(m, x, x), (poly, i, j)


def test_isotropic_sampler() -> None:
    sampler = SmallRationalSampler(17)
    for chart in range(9):
        x = sample_isotropic_vector(sampler, chart)
        assert quadric_value(x) == 0
        assert any(x)


def _reference_isotropic_vector(sampler, chart) -> tuple:
    # The rational chart solve the integer sampler replaced: the same draws
    # as Fractions, and the isotropic coordinate solved by a division.
    solve_for, pivot = ((3, 0), (4, 1), (2, 5))[chart % 3]
    x = [sampler.fraction() for _ in range(REP_DIM)]
    x[pivot] = _nonzero_fraction(sampler)
    x[solve_for] = 0
    residual = _bilinear(invariant_form(), x, x)
    x[solve_for] = Fraction(-residual) / (2 * invariant_form().entry(pivot, solve_for) * x[pivot])
    return tuple(x)


def _reference_conormal_pair(sampler, chart) -> tuple[tuple, tuple]:
    # The rational pair: the fiber basis (pinned to the reference fiber by
    # its own test) at z' cleared, combined with Fraction draws.
    zprime = _reference_isotropic_vector(sampler, chart)
    z = [0] * REP_DIM
    for basis_vec in conormal_fiber_basis(clear(zprime)):
        c = sampler.fraction()
        z = [a + c * b for a, b in zip(z, basis_vec)]
    return zprime, tuple(z)


def _same_line(a, b) -> bool:
    """b is a nonzero multiple of a, or both are 0."""
    n = len(a)
    return any(a) == any(b) and all(
        a[i] * b[j] == a[j] * b[i] for i in range(n) for j in range(i + 1, n)
    )


def test_integer_samplers_match_the_rational_reference_up_to_scale() -> None:
    # Same seed, same stream: each integer z' and z is the reference's times
    # a nonzero scalar, and z = 0 exactly where the reference's z is.
    for seed in range(20):
        sampler, reference = SmallRationalSampler(seed), SmallRationalSampler(seed)
        for k in range(100):
            zprime, z = sample_conormal_pair(sampler, k)
            ref_zprime, ref_z = _reference_conormal_pair(reference, k)
            assert _same_line(zprime, ref_zprime), (seed, k)
            assert _same_line(z, ref_z), (seed, k)
        assert sampler.ratio() == reference.ratio()


def test_samplers_return_tuples_of_ints() -> None:
    sampler = SmallRationalSampler(41)
    for chart in range(6):
        x = sample_isotropic_vector(sampler, chart)
        zprime, z = sample_conormal_pair(sampler, chart)
        for v in (x, zprime, z):
            assert type(v) is tuple and len(v) == REP_DIM
            assert all(type(c) is int for c in v)


def test_ratio_draws_the_randint_stream() -> None:
    # ratio() draws by rejection on getrandbits, as randint(-10, 10) and
    # randint(1, 10) do, so the two streams agree draw for draw.
    for seed in (*range(20), 7007, 2**64 - 1):
        sampler, reference = SmallRationalSampler(seed), random.Random(seed)
        draws = [sampler.ratio() for _ in range(10_000)]
        expected = [(reference.randint(-10, 10), reference.randint(1, 10)) for _ in draws]
        assert draws == expected, seed


def test_conormal_fiber_is_annihilated() -> None:
    sampler = SmallRationalSampler(23)
    zprime = sample_isotropic_vector(sampler, 0)
    form = invariant_form()
    for z in conormal_fiber_basis(zprime):
        assert conormal_conditions(zprime, z)
        assert _bilinear(form, z, zprime) == 0


def _fiber_kernel(zprime) -> tuple:
    """The fiber by elimination alone: the kernel_basis of the fiber rows."""
    return kernel_basis(DenseMatrix.from_rows(rep7._fiber_rows(zprime)))


@pytest.fixture
def certified(monkeypatch) -> list:
    """Whether each `_certified_line` call from now on returned a line."""
    outcomes = []
    true_line = rep7._certified_line

    def recorded(rows, zprime):
        line = true_line(rows, zprime)
        outcomes.append(line is not None)
        return line

    monkeypatch.setattr(rep7, "_certified_line", recorded)
    return outcomes


def test_certified_fibers_are_the_kernel(certified) -> None:
    # The six T-fixed lines, the origin, then every membership z' of 21
    # seeds of the default config: the fiber is the kernel_basis of its
    # rows whichever way it is found, and both ways are taken.
    points = [unit(k) for k in tfixed_isotropic_lines()] + [ZERO]
    for seed in (*range(20), 7007):
        sampler = SmallRationalSampler(report_cli._check_seed(Config(seed=seed), 11))
        points += [sample_conormal_pair(sampler, k)[0] for k in range(100)]
    certified.clear()
    for zprime in points:
        assert conormal_fiber_basis(zprime) == _fiber_kernel(zprime)
    assert certified[:7] == [REP_LABELS[k] == "v~" for k in range(REP_DIM)]
    assert (len(certified[7:]), sum(certified[7:])) == (2100, 2036)


def test_off_cone_fibers_are_never_certified(certified) -> None:
    # Off the cone, row (ii) . z' = <z', z'> != 0: z' is not in its fiber.
    sampler = SmallRationalSampler(41)
    points = [cleared([sampler.ratio() for _ in range(REP_DIM)]) for _ in range(200)]
    points = [x for x in points if quadric_value(x) and x[REP_LABELS.index("v~")]]
    assert len(points) > 150
    for zprime in points:
        assert conormal_fiber_basis(zprime) == _fiber_kernel(zprime)
    assert certified == [False] * len(points)


def test_fiber_rows_of_another_shape_fall_back() -> None:
    # Without condition (ii), or without E23 among the Borel's names, there
    # are 8 rows: the minor is not read off them, and the kernel decides.
    zprime = sample_conormal_pair(SmallRationalSampler(7), 0)[0]
    rows = rep7._fiber_rows(zprime)
    assert rep7._certified_line(rows, zprime) == _fiber_kernel(zprime)[0]
    assert rep7._certified_line(rows[1:], zprime) is None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rep7, "BOREL_G2_NAMES", BOREL_G2_NAMES[:-1])
        assert rep7._certified_line(rows[:-1], zprime) is None


def test_a_singular_minor_certifies_nothing_and_keeps_the_report(
    monkeypatch, certified
) -> None:
    # h_b named twice: the minor's rank is at most 5, so every fiber is
    # eliminated, to the same bytes.
    monkeypatch.setattr(rep7, "_FIBER_MINOR_ROWS", ("h_b", "h_b", "e2", "f3", "E13", "E23"))
    config = Config(format="json")
    report = emit(run_suite(config), config)
    assert len(certified) == 107 and not any(certified)
    assert report.encode("utf-8") == GOLDEN_DEFAULT_REPORT.read_bytes()


def test_tfixed_isotropic_lines() -> None:
    lines = tfixed_isotropic_lines()
    assert lines == (0, 1, 2, 3, 4, 5)
    assert all(REP_LABELS[k] != "u" for k in lines)


def test_orbit_dimensions_distinct() -> None:
    dims = {REP_LABELS[k]: orbit_dimension(unit(k)) for k in tfixed_isotropic_lines()}
    assert dims == {"v": 1, "w": 3, "t~": 5, "v~": 6, "w~": 4, "t": 2}
    assert sorted(dims.values()) == [1, 2, 3, 4, 5, 6]
    assert orbit_dimension(ZERO) == 0


def test_orbit_dimension_scale_invariant() -> None:
    sampler = SmallRationalSampler(29)
    for _ in range(10):
        x = [sampler.fraction() for _ in range(REP_DIM)]
        lam = _nonzero_fraction(sampler)
        assert orbit_dimension(clear([lam * c for c in x])) == orbit_dimension(clear(x))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_orbit_count_mod_p(p: int) -> None:
    result = count_orbits_mod_p(p)
    assert result.orbit_count == 7
    assert result.point_count == p**6
    assert result.origin_orbit_size == 1
    assert sum(result.orbit_sizes) == result.point_count
    assert all(s % (p - 1) == 0 for s in result.orbit_sizes if s > 1)


def _mod_p(m, p: int) -> np.ndarray:
    return np.array(
        [[x.numerator * pow(x.denominator, -1, p) % p for x in row] for row in m.entries],
        dtype=np.int64,
    )


def _exp_mod_p(n: np.ndarray, c: int, p: int) -> np.ndarray:
    """exp(cN) = I + cN + c^2 N^2 / 2 mod p for a nilpotent N with N^3 = 0."""
    return (np.eye(REP_DIM, dtype=np.int64) + c * n + c * c * pow(2, -1, p) * (n @ n)) % p


def _reference_orbit_count(p: int) -> tuple[int, tuple[int, ...], int]:
    """The earlier oracle, kept as the reference: the cone cut out of all
    p^7 vectors, the images under exp(cN) for every positive root and
    every c in F_p - {0} plus the scalings s^<mu, coroot> by a primitive
    root s for the two simple coroots, typed here rather than read off
    rho(h), and a pure-Python union-find.  Returns the point count, sorted
    orbit sizes and the size of the origin's orbit."""
    vectors = np.array(list(itertools.product(range(p), repeat=REP_DIM)), dtype=np.int64)
    b = _mod_p(invariant_form(), p)
    cone = vectors[((vectors @ b) * vectors).sum(axis=1) % p == 0]
    powers = p ** np.arange(REP_DIM, dtype=np.int64)
    index = {k: i for i, k in enumerate((cone @ powers).tolist())}
    s = rep7._primitive_root(p)
    coroots = ((2, -3), (-1, 2))  # <mu, alpha-coroot>, <mu, beta-coroot>
    generators = [
        np.diag([pow(s, (ca * m1 + cb * m2) % (p - 1), p) for m1, m2 in REP_WEIGHTS])
        for ca, cb in coroots
    ]
    for name in BOREL_G2_NAMES[2:]:
        n = _mod_p(build_rep7().matrix(name), p)
        generators += [_exp_mod_p(n, c, p) for c in range(1, p)]
    parent = list(range(len(cone)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for gen in generators:
        for i, key in enumerate(((cone @ gen.T % p) @ powers).tolist()):
            parent[find(i)] = find(index[key])
    sizes = Counter(find(i) for i in range(len(cone)))
    return len(cone), tuple(sorted(sizes.values())), sizes[find(index[0])]


def _borel_names(pol: rw.Polarization) -> tuple[str, ...]:
    """The Cartan pair and the root vector of each root of `pol`."""
    roots = tuple(g2.BASIS_NAMES[g2.BASIS_WEIGHTS.index(r.coords)] for r in pol.sorted_roots)
    return ("h_a", "h_b") + roots


def _orbit_sizes_under(monkeypatch, names: tuple[str, ...], p: int) -> tuple[int, ...]:
    monkeypatch.setattr(rep7, "BOREL_G2_NAMES", names)
    clear_caches()
    try:
        return count_orbits_mod_p(p).orbit_sizes
    finally:
        monkeypatch.undo()
        clear_caches()  # the counts of the patched Borel


def test_orbit_count_is_the_same_under_all_twelve_borels(monkeypatch) -> None:
    # A lift of w in W maps B-orbits on the cone onto (w B w^-1)-orbits, so
    # each of the 12 Borels containing T sees 7 orbits of sizes 1 and
    # (p - 1) p^(d - 1), d = 1..6.  Dropping a root vector that the others
    # generate changes no count; this sees only the group generated.
    borels = [_borel_names(pol) for pol in rw.all_polarizations()]
    name_sets = set(map(frozenset, borels))
    assert len(name_sets) == 12 and frozenset(BOREL_G2_NAMES) in name_sets
    for p in (3, 5):
        expected = (1, *((p - 1) * p ** (d - 1) for d in range(1, 7)))
        for names in borels:
            assert _orbit_sizes_under(monkeypatch, names, p) == expected, (names, p)
    # The negative control: all twelve root groups with T join the cone's
    # nonzero points into one orbit.
    every_root = ("h_a", "h_b") + tuple(n for n in g2.BASIS_NAMES if not n.startswith("h"))
    assert _orbit_sizes_under(monkeypatch, every_root, 3) == (1, 728)


@pytest.mark.parametrize("p", [3, 5])
def test_orbit_count_matches_union_find_reference(p: int) -> None:
    result = count_orbits_mod_p(p)
    points, sizes, origin = _reference_orbit_count(p)
    assert (result.point_count, result.orbit_sizes, result.origin_orbit_size) == (
        points,
        sizes,
        origin,
    )


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unipotent_generator_powers_are_all_multiples(p: int) -> None:
    # exp(N)^c = exp(cN) for c = 1 .. p-1: one generator per root makes the
    # same group as the p - 1 multiples the earlier oracle used.
    generators = rep7._unipotent_generators(p)
    assert len(generators) == len(BOREL_G2_NAMES[2:]) == 6
    for name, gen in zip(BOREL_G2_NAMES[2:], generators):
        n = _mod_p(build_rep7().matrix(name), p)
        power = np.eye(REP_DIM, dtype=np.int64)
        for c in range(1, p):
            power = power @ gen % p
            assert np.array_equal(power, _exp_mod_p(n, c, p)), (name, c)


def test_torus_generators_refuse_a_non_diagonal_cartan_action(monkeypatch) -> None:
    rep = build_rep7()
    k = rep7.BASIS_NAMES.index("h_a")
    bad_h_a = with_entry(rep.matrices[k], 0, 1, 1)
    bad = dataclasses.replace(rep, matrices=rep.matrices[:k] + (bad_h_a,) + rep.matrices[k + 1:])
    monkeypatch.setattr(rep7, "build_rep7", lambda: bad)
    with pytest.raises(ValueError, match="not diagonal"):
        rep7._torus_generators(3)


@pytest.mark.parametrize("p", [3, 5])
def test_key_built_cone_equals_brute_force_cone(p: int) -> None:
    # Every vector of F_p^7 from itertools.product, kept when the integer
    # form <x, x> vanishes mod p: the same set of points, not only as many.
    b = np.array(invariant_form().entries, dtype=np.int64)
    vectors = np.array(list(itertools.product(range(p), repeat=REP_DIM)), dtype=np.int64)
    cone = vectors[((vectors @ b) * vectors).sum(axis=1) % p == 0]
    keys = rep7._cone_keys(p)
    points = rep7._key_points(keys, p)
    assert keys.dtype == np.int32 and points.dtype == np.uint8
    assert points.shape == (REP_DIM, p**6) and points.flags["C_CONTIGUOUS"]
    assert np.all(np.diff(keys) > 0)
    assert np.array_equal(p ** np.arange(REP_DIM) @ points, keys)
    assert set(map(tuple, points.T.tolist())) == set(map(tuple, cone.tolist()))


def test_cone_keys_refuse_a_quadric_mixing_u_with_another_coordinate(monkeypatch) -> None:
    terms = rep7._form_terms()
    mixed = dataclasses.replace(terms, quadric=terms.quadric + ((0, REP_DIM - 1, 1),))
    monkeypatch.setattr(rep7, "_form_terms", lambda: mixed)
    with pytest.raises(ValueError, match="mixes u"):
        rep7._cone_keys(3)


def _reference_image_keys(gen: np.ndarray, points: np.ndarray, p: int) -> np.ndarray:
    """The keys of gen @ points mod p, in int64 throughout."""
    images = gen.astype(np.int64) @ points.astype(np.int64) % p
    return p ** np.arange(REP_DIM, dtype=np.int64) @ images


def _borel_generators(p: int) -> list:
    return rep7._unipotent_generators(p) + rep7._torus_generators(p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_image_keys_match_an_int64_reference(p: int) -> None:
    keys = rep7._cone_keys(p)
    points = rep7._key_points(keys, p)
    buffers = rep7._image_buffers(p, len(keys))
    assert buffers[2].dtype == np.uint8
    for gen in _borel_generators(p):
        image = rep7._image_keys(gen, points, keys, p, *buffers)
        assert image is buffers[0]
        assert np.array_equal(image, _reference_image_keys(gen, points, p))


@pytest.mark.parametrize("p", [11, 19])
def test_image_keys_in_a_uint16_plane_match_the_reference(monkeypatch, p: int) -> None:
    # Drawn points of F_p^7, on the cone or not, and the point of all p - 1:
    # the images do not read the quadric.  At 19 a product c x_j (up to 324)
    # passes uint8, so the plane's dtype must carry the products too.
    monkeypatch.setattr(rep7, "MAX_ORACLE_POINTS", p**REP_DIM)
    rep7.check_oracle_prime(p)
    rng = np.random.default_rng(p)
    points = rng.integers(0, p, size=(REP_DIM, 3000), dtype=np.uint8)
    points[:, -1] = p - 1
    keys = (p ** np.arange(REP_DIM, dtype=np.int64) @ points.astype(np.int64)).astype(np.int32)
    assert np.array_equal(rep7._key_points(keys, p), points)
    buffers = rep7._image_buffers(p, len(keys))
    assert buffers[2].dtype == np.uint16
    for gen in _borel_generators(p):
        image = rep7._image_keys(gen, points, keys, p, *buffers)
        assert np.array_equal(image, _reference_image_keys(gen, points, p))


class _CountedPasses(list):
    """A list of permutations that counts the passes made over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def _cycles(cycles: list, n: int) -> np.ndarray:
    perm = np.arange(n, dtype=np.int32)
    for cycle in cycles:
        perm[cycle] = np.roll(cycle, -1)
    return perm


def _union_find_least_points(perms: list, n: int) -> list[int]:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in perms:
        for i, j in enumerate(perm.tolist()):
            parent[find(i)] = find(j)
    least = {}
    for i in range(n):
        least.setdefault(find(i), i)
    return [least[find(i)] for i in range(n)]


def _sawtooth_cycle() -> list:
    # One 16-cycle 0 -> 15 -> 1 -> 14 -> ... -> 8 -> 0.
    return [_cycles([[0, 15, 1, 14, 2, 13, 3, 12, 4, 11, 5, 10, 6, 9, 7, 8]], 16)]


def _random_blocks() -> list:
    # Two random permutations of each block of a seeded partition of 200
    # points into blocks of 1, 2, 50 and 147.
    rng = np.random.default_rng(18)
    blocks = np.split(rng.permutation(200), [1, 3, 53])
    return [_cycles([rng.permutation(b) for b in blocks], 200) for _ in range(2)]


@pytest.mark.parametrize("build", [_sawtooth_cycle, _random_blocks])
def test_orbit_labels_are_least_points_after_several_rounds(build) -> None:
    perms = _CountedPasses(build())
    label = rep7._orbit_labels(perms)
    # Each round passes over the permutations twice, to propagate and then
    # to check every edge, so these components took more than one round.
    assert perms.passes >= 4
    assert label.tolist() == _union_find_least_points(perms, len(label))


def test_oracle_memory_peak_at_p7() -> None:
    # numpy reports its buffers to tracemalloc, so the peak counts every
    # array the count allocates; the cached form table and rho are built first.
    clear_caches()
    rep7._form_terms()
    tracemalloc.start()
    try:
        points = count_orbits_mod_p(7).point_count
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # At its peak the count holds the int32 lookup over all 7^7 keys and, per
    # cone point, its int32 key, image and row sum, its 7 uint8 digits and 8
    # int32 arrays of the generators: the permutations so far and the one being
    # formed.  A quarter MiB covers numpy's buffers and the uint8 row plane;
    # an intp copy of a whole row sum (8 bytes per point) does not fit.
    held = 4 * 7**7 + (3 * 4 + 7 + 8 * 4) * points
    assert peak <= held + 2**18


def test_oracle_keeps_its_cache() -> None:
    # The benchmark's tracer counts oracle points through cache misses.
    assert callable(count_orbits_mod_p.cache_info)
    assert callable(count_orbits_mod_p.cache_clear)
    count_orbits_mod_p(3)
    hits = count_orbits_mod_p.cache_info().hits
    count_orbits_mod_p(3)
    assert count_orbits_mod_p.cache_info().hits == hits + 1


def test_int32_headroom_at_the_largest_admitted_prime(monkeypatch) -> None:
    int32_max = 2**31 - 1
    admitted = []
    for p in range(3, 30):
        try:
            rep7.check_oracle_prime(p)
        except BadPrimeError:
            continue
        admitted.append(p)
    assert admitted == [3, 5, 7]
    p = admitted[-1]
    # The largest key, a quadric value (28 terms c x_i x_j, each factor at
    # most p - 1) and an image row sum_j g_ij x_j (7 terms).
    bounds = (p**7 - 1, 28 * (p - 1) ** 3, 7 * (p - 1) ** 2)
    assert rep7._int32_intermediates(p) == bounds
    assert max(bounds) <= int32_max
    # The image rows are summed in the narrowest plane that holds the row
    # bound: 7 * 6^2 = 252 fits uint8, and 7 * 10^2 = 700 at 11 does not.
    assert rep7._image_buffers(p, 1)[2].dtype == np.uint8
    assert rep7._image_buffers(11, 1)[2].dtype == np.uint16
    # Without the size cap the guard admits 13 and 19 but refuses 23,
    # whose largest key 23^7 - 1 overflows int32.
    monkeypatch.setattr(rep7, "MAX_ORACLE_POINTS", 10**12)
    for ok in (11, 13, 19):
        rep7.check_oracle_prime(ok)
        assert rep7._image_buffers(ok, 1)[2].dtype == np.uint16
    assert 23**7 - 1 > int32_max
    with pytest.raises(BadPrimeError, match="int32"):
        rep7.check_oracle_prime(23)


@pytest.mark.parametrize("bad", [2, 4, 9, 11])
def test_orbit_count_rejects_bad_moduli(bad: int) -> None:
    with pytest.raises(BadPrimeError):
        count_orbits_mod_p(bad)


_THREADS_AFTER_IMPORT = (
    "import os, g2verify; "
    "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))"
)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads through /proc")
@pytest.mark.parametrize("setting, expected", [(None, "1"), ("2", "2")])
def test_numpy_import_starts_no_blas_threads(setting, expected) -> None:
    # The oracle never calls BLAS, so importing the package leaves the
    # process single-threaded; a caller's own OpenBLAS setting is kept.
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", _THREADS_AFTER_IMPORT],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    ).stdout.split()
    assert out[0] == expected
    if setting is None:
        assert out[1] == "1"
