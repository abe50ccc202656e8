"""Acceptance gate: the nine headline guarantees of the package.

Every check is exact (integer or rational equality, zero tolerance).
Each timed criterion clears its public caches first so the budget is
measured from a cold start of the relevant computation.
"""

import time
from fractions import Fraction
from pathlib import Path

from g2verify import g2_algebra as g2
from g2verify import rep7_verifier as rep7
from g2verify import root_weyl as rw
from g2verify import slice_verifier as sv
from g2verify.report_cli import Config, emit, run_suite
from g2verify.sampling import SmallRationalSampler

#: `verify --format json` with every option at its default.
GOLDEN_DEFAULT_REPORT = Path(__file__).parent / "data" / "default_report.json"


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def test_1_slice_side_count_is_six_plus_one() -> None:
    sv.build_slice_data.cache_clear()
    with Stopwatch() as sw:
        result = sv.count_relevant_orbits()
    assert result.base == 6
    assert result.complementary == 1
    assert result.total == 7
    assert sw.elapsed < 1.0


def test_2_linear_side_count_is_seven() -> None:
    lines = rep7.tfixed_isotropic_lines()
    assert len(lines) == 6
    dims = [rep7.orbit_dimension(
        tuple(Fraction(1) if k == i else Fraction(0) for k in range(7))
    ) for i in lines]
    assert len(set(dims)) == 6
    origin = tuple(Fraction(0) for _ in range(7))
    assert rep7.orbit_dimension(origin) == 0
    for p in (3, 5, 7):
        rep7.count_orbits_mod_p.cache_clear()
        with Stopwatch() as sw:
            result = rep7.count_orbits_mod_p(p)
        assert result.orbit_count == 7
        assert sw.elapsed < 30.0


def test_3_algebra_integrity() -> None:
    with Stopwatch() as sw:
        assert g2.verify_antisymmetry() == 196
        assert g2.verify_jacobi() == 2744
        assert g2.verify_killing_invariance() == 2744
        for v in ((1, 0), (-1, 1), (0, -1)):
            assert g2.killing_dual_norm(*v) == Fraction(1, 12)
        for diff in ((2, -1), (1, 1), (-1, 2)):
            assert g2.killing_dual_norm(*diff) == Fraction(1, 4)
    assert sw.elapsed < 5.0


def test_4_representation_integrity() -> None:
    rep7.build_rep7.cache_clear()
    rep7.invariant_form.cache_clear()
    with Stopwatch() as sw:
        rep = rep7.build_rep7()
        assert rep7.verify_homomorphism() == 91
        rho_f1, rho_f3 = rep.matrix("f1"), rep.matrix("f3")
        assert rho_f1.entry(1, 0) == 1   # f1 . v = w
        assert rho_f1.entry(2, 6) == 2   # f1 . u = 2 t~
        assert rho_f1.entry(6, 5) == 1   # f1 . t = u
        assert rho_f1.entry(3, 4) == -1  # f1 . w~ = -v~
        assert rho_f3.entry(1, 2) == 1   # f3 . t~ = w
        assert rho_f3.entry(5, 4) == -1  # f3 . w~ = -t
        assert rho_f3.entry(6, 3) == -1  # f3 . v~ = -u
        assert rho_f3.entry(0, 6) == -2  # f3 . u = -2 v
        b = rep7.invariant_form()
        for m in rep.matrices:
            assert ((m.transpose() @ b) + (b @ m)).is_zero()
        assert len(rep7.zero_weight_space()) == 1
    assert sw.elapsed < 1.0


def test_5_structural_lemmas() -> None:
    sv.build_slice_data()  # built before the clock starts
    with Stopwatch() as sw:
        assert sv.verify_lemma_incl()
        assert sv.verify_ml_formula()
        assert sv.verify_contracting_weights()
        assert sv.verify_psi_conditions()
        assert sv.omega_minus1_check()
    assert sw.elapsed < 1.0


def test_6_symplectic_identifications() -> None:
    sv.build_slice_data()  # built before the clock starts
    with Stopwatch() as sw:
        assert rep7.phi_symplectomorphism_check()
        assert sv.omega_prime_rank((0,) * 6) == 20  # None if not antisymmetric
        for coeffs in sv.omega_prime_sample_points(seed=42, count=10):
            assert sv.omega_prime_rank(coeffs) == 20
    assert sw.elapsed < 2.0


def test_7_conormal_moment_equivalence_on_samples() -> None:
    sampler = SmallRationalSampler(42)
    discrepancies = 0
    samples = 0
    for k in range(100):
        zprime, z = rep7.sample_conormal_pair(sampler, k)
        point = tuple(z) + tuple(zprime)
        if not (
            rep7.conormal_conditions(zprime, z)
            and rep7.moment_zero_check(point)
        ):
            discrepancies += 1
        samples += 1
    for _ in range(100):
        zprime = tuple(sampler.fraction() for _ in range(7))
        z = tuple(sampler.fraction() for _ in range(7))
        point = tuple(z) + tuple(zprime)
        if rep7.conormal_conditions(zprime, z) != rep7.moment_zero_check(point):
            discrepancies += 1
        samples += 1
    assert samples >= 100
    assert discrepancies == 0


def test_8_combinatorics() -> None:
    with Stopwatch() as sw:
        assert len(rw.generate_weyl()) == 12
        pols = rw.all_polarizations()
        assert len(set(pols)) == 12
        neg_alpha = -rw.ALPHA
        assert sum(1 for pol in pols if neg_alpha in pol) == 6
        records = sv.count_relevant_orbits().records
        assert len(records) == 12
        for rec in records:
            assert rec.base_relevant == (neg_alpha not in rec.s_w)
    assert sw.elapsed < 1.0


def test_9_deterministic_json_reports() -> None:
    cfg = Config(format="json")
    first = emit(run_suite(cfg), cfg)
    second = emit(run_suite(cfg), cfg)
    assert first.encode("utf-8") == second.encode("utf-8")
    # Behaviour lock: the default report, byte for byte.
    assert first.encode("utf-8") == GOLDEN_DEFAULT_REPORT.read_bytes()
