"""sympy as an independent witness for the exact kernel.

sympy is installed in the development environment but is no dependency
of the package, so this module is skipped where it is missing.  Its
`Matrix.nullspace` and `Matrix.rank` share no code with the package's
Bareiss elimination: the null spaces of the conormal fiber systems drawn
by a default run (sympy's reduced basis, which `kernel_basis` scales by
one least factor to integers), and the ranks of the Killing Gram and of
the omega' Gram at e (built entry by entry, and reduced by
`omega_prime_rank`), must agree with it.  sympy's `RootSystem('G2')` witnesses the
root system: its root count and Cartan matrix must match `root_weyl`.
"""

from fractions import Fraction
from math import lcm

import pytest

from g2verify import report_cli
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import DenseMatrix, kernel_basis
from g2verify.g2_algebra import killing_gram
from g2verify.rep7_verifier import (
    BOREL_G2_NAMES,
    build_rep7,
    conormal_fiber_basis,
    invariant_form,
    sample_conormal_pair,
)
from g2verify.root_weyl import ALPHA, BETA
from g2verify.sampling import SmallRationalSampler

sympy = pytest.importorskip("sympy")


def _sympy_matrix(m: DenseMatrix):
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries]
    )


def _as_fractions(v) -> tuple:
    return tuple(Fraction(int(x.p), int(x.q)) for x in v)


def test_nullspace_matches_kernel_basis_on_default_conormal_fibers() -> None:
    # The stream of the default run's linear.conormal_moment_equivalence.
    config = report_cli.Config()
    sampler = SmallRationalSampler(report_cli._check_seed(config, 11))
    assert config.conormal_samples == 100
    # Conditions (ii) and (iii): z orthogonal to B z' and to (m^T B - B m) z'.
    b = invariant_form()
    forms = [b] + [m.transpose() @ b - b @ m for m in map(build_rep7().matrix, BOREL_G2_NAMES)]
    for k in range(config.conormal_samples):
        zprime, _ = sample_conormal_pair(sampler, k)
        m = DenseMatrix.from_rows([f.mul_vec(zprime) for f in forms])
        reduced = tuple(map(_as_fractions, _sympy_matrix(m).nullspace()))
        # The least positive factor that makes every reduced vector integral.
        factor = lcm(*(x.denominator for v in reduced for x in v))
        expected = tuple(tuple(factor * x for x in v) for v in reduced)
        assert kernel_basis(m) == expected
        assert conormal_fiber_basis(zprime) == expected


def test_killing_gram_has_sympy_rank_14() -> None:
    assert sympy.Matrix(killing_gram()).rank() == 14


def test_omega_prime_gram_at_e_has_sympy_rank_20(reference_omega_prime_gram) -> None:
    gram = reference_omega_prime_gram((1,) + (0,) * 6)
    assert _sympy_matrix(gram).rank() == sv.omega_prime_rank((1, 0, 0, 0, 0, 0, 0)) == 20


def test_root_system_g2_matches_root_weyl() -> None:
    from sympy.liealgebras.root_system import RootSystem

    # The roots are compared by count only: sympy 1.14 lists 2a + b as
    # [1, 0, 1] instead of [1, 0, -1], a vector outside the root lattice.
    system = RootSystem("G2")
    assert len(system.all_roots()) == 12
    cartan = [[2, -1], [-3, 2]]
    assert system.cartan_matrix() == sympy.Matrix(cartan)
    simple = (ALPHA, BETA)
    assert [[Fraction(2 * a.pairing(b), b.norm_sq()) for b in simple] for a in simple] == cartan
