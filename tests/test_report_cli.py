"""Suite runner and report emitter: config validation, dependency
skipping, JSON schema and byte stability, and CLI exit codes.
"""

import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import g2verify
from g2verify import exact_linalg
from g2verify import g2_algebra as g2
from g2verify import rep7_verifier as rep7
from g2verify import report_cli
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import DenseMatrix
from g2verify.report_cli import (
    MAX_SAMPLES,
    SUITE_ORDER,
    Config,
    ConfigError,
    emit,
    main,
    run_suite,
)
from g2verify.sampling import SmallRationalSampler

from conftest import with_entry

FAST = Config(suites=("combinatorics",))
GOLDEN_TABLES = Path(__file__).parent / "data" / "tables.txt"
#: sha256 of `verify ARGS --format json` for a few non-default ARGS.
REPORT_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "report_digests.json").read_text(encoding="utf-8")
)


# ---------------------------------------------------------------------------
# Config validation and normalization.
# ---------------------------------------------------------------------------


def test_default_config() -> None:
    cfg = Config()
    assert cfg.suites == ("algebra", "combinatorics", "slice", "linear")
    assert cfg.primes == (3, 5, 7)
    assert cfg.samples is None
    assert cfg.rank_samples == 10
    assert cfg.conormal_samples == 100
    assert cfg.seed == 42
    assert cfg.format == "text"


def test_config_normalizes_suite_order_and_duplicates() -> None:
    cfg = Config(suites=("linear", "algebra", "linear"))
    assert cfg.suites == ("algebra", "linear")
    assert Config(primes=(5, 3, 5)).primes == (5, 3)


def test_samples_override_both_defaults() -> None:
    cfg = Config(samples=25)
    assert cfg.rank_samples == 25
    assert cfg.conormal_samples == 25


@pytest.mark.parametrize(
    "kwargs",
    [
        {"suites": ("bogus",)},
        {"suites": ()},
        {"primes": ()},
        {"primes": (2,)},
        {"primes": (4,)},
        {"primes": (3, 9)},
        {"samples": 0},
        {"samples": -3},
        {"seed": -1},
        {"seed": 2**64},
        {"format": "xml"},
        {"primes": (11,)},
        {"samples": 10001},
        {"samples": 2.5},
        {"seed": 1.5},
        {"samples": True},
        {"seed": True},
        {"primes": (3.0,)},
        {"primes": 7},
        {"primes": "3"},
        {"suites": "slice"},
        {"suites": None},
        # Too long for str(): a message that printed them would raise ValueError.
        {"primes": (10**5000 + 1,)},
        {"seed": 10**5000},
        {"samples": 10**5000},
        {"seed": Fraction(10**5000)},
        {"format": 10**5000},
    ],
)
def test_invalid_configs_rejected(kwargs) -> None:
    with pytest.raises(ConfigError):
        Config(**kwargs)


def test_huge_prime_refused_before_its_seventh_power() -> None:
    # p**7 alone takes seconds for this 3,000,000-bit p.
    start = time.perf_counter()
    with pytest.raises(ConfigError):
        Config(primes=((1 << 3_000_000) // 3,))
    assert time.perf_counter() - start < 1


def test_bare_str_suites_names_the_field() -> None:
    # Iterating "slice" would read the letters as suites ("unknown suite 's'").
    with pytest.raises(ConfigError, match="^suites: expected a sequence, got 'slice'$"):
        Config(suites="slice")


def test_cli_parses_comma_lists() -> None:
    runner = CliRunner()
    result = runner.invoke(main, [
        "--suite", "combinatorics,algebra", "--primes", "5, 3", "--seed", "7",
        "--format", "json",
    ])
    assert result.exit_code == 0
    config = json.loads(result.stdout)["config"]
    assert config["suites"] == ["algebra", "combinatorics"]
    assert config["primes"] == [5, 3]
    assert config["seed"] == 7
    for args in (["--primes", "3,five"], ["--suite", " , "]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2
        assert "configuration error" in result.stderr


# ---------------------------------------------------------------------------
# Suite execution and dependency skipping.
# ---------------------------------------------------------------------------


def test_combinatorics_suite_passes() -> None:
    report = run_suite(FAST)
    assert report.summary["failed"] == 0
    assert report.summary["skipped"] == 0
    assert report.summary["total"] == report.summary["passed"] == 6
    assert all(c.name.startswith("combinatorics.") for c in report.checks)
    assert report.headline == {"slice_total": None, "linear_total": None}


def test_check_names_unique_and_namespaced() -> None:
    # A check runs only when its name's prefix is a selected suite, so a
    # mistyped prefix would drop it from every run without an error.
    names = [spec.name for spec in report_cli._registry(Config())]
    assert len(names) == len(set(names))
    for name in names:
        assert name.split(".", 1)[0] in report_cli.SUITE_ORDER


def test_summary_counts_match_statuses() -> None:
    report = run_suite(FAST)
    statuses = [c.status for c in report.checks]
    assert report.summary["total"] == len(statuses)
    assert report.summary["passed"] == statuses.count("pass")
    assert report.summary["failed"] == statuses.count("fail")
    assert report.summary["skipped"] == statuses.count("skipped")


def test_failure_skips_dependents(monkeypatch) -> None:
    monkeypatch.setattr(
        report_cli, "_run_root_count", lambda: ("13", None)
    )
    report = run_suite(FAST)
    by_name = {c.name: c for c in report.checks}
    assert by_name["combinatorics.roots.count"].status == "fail"
    assert by_name["combinatorics.weyl.order"].status == "skipped"
    assert (
        "unmet prerequisites"
        in by_name["combinatorics.weyl.order"].actual
    )
    skipped = by_name["combinatorics.weyl.order"]
    assert skipped.expected == "12"
    assert skipped.millis == 0
    assert skipped.details is None
    assert report.summary["failed"] == 1
    assert report.summary["skipped"] >= 1


LINEAR_FAST = Config(suites=("linear",), primes=(3,), samples=1)


def test_perturbed_quadric_element_fails_its_check(monkeypatch) -> None:
    c = rep7.quadric_element()
    bad = with_entry(c, 6, 6, c.entry(6, 6) + 1)
    monkeypatch.setattr(rep7, "quadric_element", lambda: bad)
    by_name = {c.name: c for c in run_suite(LINEAR_FAST).checks}
    check = by_name["linear.quadric_element.invariance"]
    assert check.status == "fail"
    assert check.actual != "14/14"
    assert by_name["linear.invariant_form.invariance"].status == "pass"


#: Every cache built from build_rep7(), directly or through another.
_REP7_CACHES = (
    rep7.invariant_form, rep7.build_symplectic14, rep7._form_terms, rep7.count_orbits_mod_p
)


def _linear_checks_with_rho_entry(monkeypatch, name: str, i: int, j: int, value) -> dict:
    """The LINEAR_FAST checks by name, run on the true representation with
    entry (i, j) of rho(name) set to `value`; every cache that reads
    build_rep7 is cleared before the run and after it."""
    rep = rep7.build_rep7()
    k = g2.BASIS_NAMES.index(name)
    bad_m = with_entry(rep.matrices[k], i, j, value)
    bad = dataclasses.replace(rep, matrices=rep.matrices[:k] + (bad_m,) + rep.matrices[k + 1:])
    for cached in _REP7_CACHES:
        cached.cache_clear()
    monkeypatch.setattr(rep7, "build_rep7", lambda: bad)
    try:
        report = run_suite(LINEAR_FAST)
    finally:
        # Drop everything built from the fault before build_rep7 is restored.
        for cached in _REP7_CACHES:
            cached.cache_clear()
    return {c.name: c for c in report.checks}


def test_changed_seed_entry_fails_its_check(monkeypatch) -> None:
    # f3 . t~ = 2 w instead of w: one of the eight seed entries moves.
    by_name = _linear_checks_with_rho_entry(monkeypatch, "f3", 1, 2, 2)
    assert by_name["linear.rep7.build"].status == "pass"
    check = by_name["linear.rep7.seed_entries"]
    assert check.status == "fail"
    assert check.actual == "7/8"


def test_off_diagonal_cartan_action_fails_weight_compatibility(monkeypatch) -> None:
    # rho(h_a) sends w into the line of v: h_a has weight (0, 0), so it
    # must keep every weight line, and the oracle's torus reads its diagonal.
    by_name = _linear_checks_with_rho_entry(monkeypatch, "h_a", 0, 1, 1)
    assert by_name["linear.rep7.build"].status == "pass"
    check = by_name["linear.rep7.weight_compatibility"]
    assert check.status == "fail"
    assert check.actual == "false"


def test_wrong_derived_rho_matrix_fails_the_checks_that_read_it(monkeypatch) -> None:
    # rho(E13) sends v into its own line: it is built from the generators,
    # so B, solved from f1, f2, f3 alone, stays right, and only the checks
    # that read rho(E13) (or need B invariant under it) fail.
    report = _linear_checks_with_rho_entry(monkeypatch, "E13", 0, 0, 1)
    assert report["linear.invariant_form.values"].actual == "ok"
    assert report["linear.invariant_form.invariance"].actual == "13/14"
    for name in (
        "linear.orbit_scaling_invariance",
        "linear.orbit_dimension.examples",
        "linear.tfixed_lines.count",
        "linear.tfixed_lines.orbit_dims",
    ):
        assert report[name].status == "pass", name
    # count_orbits_mod_p(3) raises a plain ValueError: the prime is fine.
    oracle = report["linear.count_orbits_mod_p.p3"].actual
    assert oracle.startswith("error: ValueError: rho(E13) is not nilpotent")
    statuses = Counter(c.status for c in report.values())
    assert (len(report), statuses["pass"], statuses["fail"], statuses["skipped"]) == (17, 8, 6, 3)


def test_wrong_generator_leaves_no_invariant_form(monkeypatch) -> None:
    # rho(f2) sends v to 7 t instead of t: a generator's own entry, so the
    # invariance rows of f1, f2, f3 leave no nonzero symmetric form.
    report = _linear_checks_with_rho_entry(monkeypatch, "f2", 5, 0, 7)
    assert report["linear.invariant_form.values"].actual.startswith("error: NoSolutionError: ")


def test_perturbed_invariant_form_fails_and_skips_dependents(monkeypatch) -> None:
    # Cache the true symplectic doubling first, so that no check run with
    # the perturbed form can leave a perturbed omega behind in the cache.
    rep7.build_symplectic14()
    b = rep7.invariant_form()
    bad = with_entry(b, 6, 6, b.entry(6, 6) + 1)
    rep7._form_terms.cache_clear()
    monkeypatch.setattr(rep7, "invariant_form", lambda: bad)
    try:
        assert rep7.verify_invariant_form() < 14
        report = run_suite(LINEAR_FAST)
    finally:
        # Drop any form terms read from the perturbed form.
        rep7._form_terms.cache_clear()
    by_name = {c.name: c for c in report.checks}
    assert by_name["linear.invariant_form.values"].status == "fail"
    for name in (
        "linear.invariant_form.invariance",
        "linear.symplectic.invariance",
        "linear.tfixed_lines.count",
        "linear.count_orbits_mod_p.p3",
    ):
        assert by_name[name].status == "skipped"
    assert report.summary["failed"] == 1


def test_perturbed_structure_constant_fails_and_skips_dependents(
    monkeypatch,
) -> None:
    # Cache the true Killing Gram first, then rebuild the bracket table
    # from the perturbed bracket; clear it again so that no later test
    # reads the perturbed table.
    g2.killing_gram()
    true_bracket = g2.bracket

    def bad_bracket(x, y):
        z = true_bracket(x, y)
        if (x, y) == (g2.e1, g2.f1):
            coords = list(z.coords)
            coords[12] += 1
            return g2.G2Element(tuple(coords))
        return z

    monkeypatch.setattr(g2, "bracket", bad_bracket)
    g2._bracket_table.cache_clear()
    try:
        report = run_suite(Config(suites=("algebra",)))
    finally:
        g2._bracket_table.cache_clear()
    by_name = {c.name: c for c in report.checks}
    antisymmetry = by_name["algebra.bracket.antisymmetry"]
    assert antisymmetry.status == "fail"
    assert antisymmetry.actual == "194/196"
    assert by_name["algebra.bracket.jacobi"].status == "skipped"
    assert by_name["algebra.killing.invariance"].status == "skipped"
    assert report.summary["failed"] == 1


def _clear_table_caches() -> None:
    g2._bracket_table.cache_clear()
    g2.killing_gram.cache_clear()
    sv.build_slice_data.cache_clear()
    rep7.build_rep7.cache_clear()


def test_algebra_suite_computes_each_basis_bracket_once(monkeypatch) -> None:
    # The structure constants are written once: from cleared caches, an
    # algebra run calls `bracket` on each of the 196 basis pairs exactly
    # once, and a full default run makes no other call on two basis
    # vectors (the slice and rho checks read the table).  The counting
    # wrapper returns the true bracket, so the tables it leaves cached are
    # the true ones.
    true_bracket = g2.bracket
    calls = []

    def counted_bracket(x, y):
        calls.append((x, y))
        return true_bracket(x, y)

    for module in (g2, sv, rep7, report_cli):
        if getattr(module, "bracket", None) is true_bracket:
            monkeypatch.setattr(module, "bracket", counted_bracket)
    _clear_table_caches()
    report = run_suite(Config(suites=("algebra",)))
    assert report.summary["passed"] == report.summary["total"]
    assert len(calls) == 196
    assert set(calls) == set(itertools.product(g2.BASIS, repeat=2))

    calls.clear()
    _clear_table_caches()
    report = run_suite(Config())
    assert report.summary["passed"] == report.summary["total"] == 43
    basis = set(g2.BASIS)
    basis_pairs = [(x, y) for x, y in calls if x in basis and y in basis]
    assert len(basis_pairs) == 196
    assert set(basis_pairs) == set(itertools.product(g2.BASIS, repeat=2))


@pytest.mark.parametrize(
    ("x", "y", "extra", "message"),
    [
        # c[E23][E31] = E21: an extra f3 term takes u5 out of itself.
        ("E23", "E31", "f3", "u5 is not bracket-closed at (E23, E31)"),
        # [E21, e2] = 0: an extra e2 term keeps n_l closed, but ad E21
        # then fixes e2, so the lower central series never ends.
        ("E21", "e2", "e2", "n_l is not nilpotent"),
    ],
)
def test_perturbed_table_entry_fails_slice_build(monkeypatch, x, y, extra, message) -> None:
    # The slice build reads the table, so it fails there and its
    # dependents skip.  The true Killing Gram is cached first, and the
    # slice data built from the perturbed table is dropped afterwards.
    g2.killing_gram()
    i, j, k = (g2.BASIS_NAMES.index(n) for n in (x, y, extra))
    table = [list(row) for row in g2._bracket_table()]
    table[i][j] = tuple(sorted(table[i][j] + ((k, 1),)))
    bad = tuple(tuple(row) for row in table)
    monkeypatch.setattr(g2, "_bracket_table", lambda: bad)
    sv.build_slice_data.cache_clear()
    try:
        report = run_suite(Config(suites=("slice",)))
    finally:
        sv.build_slice_data.cache_clear()
    by_name = {c.name: c for c in report.checks}
    build = by_name["slice.build"]
    assert build.status == "fail"
    assert build.actual == f"error: StructureMismatchError: {message}"
    others = [c for c in report.checks if c.name != "slice.build"]
    assert len(others) == 11
    assert all(c.status == "skipped" for c in others)
    assert report.summary["failed"] == 1


def _slice_checks_with(monkeypatch, name: str, fault) -> dict:
    """The slice suite's checks by name, run with `sv.<name>` replaced by
    `fault(true)`; build_slice_data is cleared before the run and after it."""
    monkeypatch.setattr(sv, name, fault(getattr(sv, name)))
    sv.build_slice_data.cache_clear()
    try:
        report = run_suite(Config(suites=("slice",)))
    finally:
        sv.build_slice_data.cache_clear()
    assert report.summary["failed"] == 1
    return {c.name: c for c in report.checks}


def test_zeroed_kappa_column_fails_omega_prime_rank(monkeypatch) -> None:
    # kappa(b_i, k_0) = 0 for every i: K drops to rank 5, and omega' at e
    # has a zero row, so its even rank is at most 18.  The pieces are read
    # from the zeroed columns too.
    def zeroed(true_slice_data):
        def slice_data(levels, ker_ad_f, kappa_ker, pieces):
            kappa_ker = tuple((0,) + row[1:] for row in kappa_ker)
            return true_slice_data(levels, ker_ad_f, kappa_ker, sv._omega_pieces(kappa_ker))

        return slice_data

    by_name = _slice_checks_with(monkeypatch, "_slice_data", zeroed)
    at_e = by_name["slice.omega_prime.rank_at_e"]
    assert at_e.status == "fail"
    assert at_e.actual == "18"
    assert by_name["slice.omega_prime.rank_at_samples"].status == "skipped"


def test_non_antisymmetric_piece_fails_omega_prime_rank(monkeypatch) -> None:
    # One entry of A_0 (psi's piece) moves by 1, off its transpose's negative.
    def bumped(true_pieces):
        def pieces(kappa_ker):
            a = [list(row) for row in true_pieces(kappa_ker)[0]]
            a[0][1] += 1
            return (tuple(map(tuple, a)),) + true_pieces(kappa_ker)[1:]

        return pieces

    by_name = _slice_checks_with(monkeypatch, "_omega_pieces", bumped)
    at_e = by_name["slice.omega_prime.rank_at_e"]
    assert at_e.status == "fail"
    assert at_e.actual == "not antisymmetric"
    assert by_name["slice.omega_prime.rank_at_samples"].status == "skipped"


def test_antisymmetric_structure_constant_fault_fails_jacobi(
    bracket_with_extra_h_a,
) -> None:
    by_name = {c.name: c for c in run_suite(Config(suites=("algebra",))).checks}
    assert by_name["algebra.bracket.antisymmetry"].actual == "196/196"
    jacobi = by_name["algebra.bracket.jacobi"]
    assert jacobi.status == "fail"
    assert jacobi.actual != "2744/2744"
    assert by_name["algebra.killing.invariance"].status == "skipped"


def test_perturbed_killing_gram_fails_invariance(monkeypatch) -> None:
    gram = [list(row) for row in g2.killing_gram()]
    gram[0][12] += 1  # kappa(e1, h_a), kept symmetric
    gram[12][0] += 1
    bad = tuple(tuple(row) for row in gram)
    monkeypatch.setattr(g2, "killing_gram", lambda: bad)
    by_name = {c.name: c for c in run_suite(Config(suites=("algebra",))).checks}
    assert by_name["algebra.bracket.jacobi"].status == "pass"
    invariance = by_name["algebra.killing.invariance"]
    assert invariance.status == "fail"
    assert invariance.actual != "2744/2744"


def test_replaced_borel_action_breaks_conormal_equivalence(monkeypatch) -> None:
    # A 1 at (0, 0) of the sl2 raising operator's action adds 2 x_0 x_10 to
    # its Hamiltonian and leaves the conormal conditions, which read only
    # the g2 part, alone: members with z_0 z'_3 != 0 now disagree.
    symp = rep7.build_symplectic14()
    odd = with_entry(symp.actions14[-1], 0, 0, 1)
    bad = dataclasses.replace(symp, actions14=symp.actions14[:-1] + (odd,))
    rep7._form_terms.cache_clear()
    monkeypatch.setattr(rep7, "build_symplectic14", lambda: bad)
    try:
        actual, _ = report_cli._run_conormal_equivalence(Config(samples=10))
    finally:
        # Drop the terms built from the replaced action before the true
        # build_symplectic14 is restored.
        rep7._form_terms.cache_clear()
    agree = int(actual.split("/")[0])
    assert agree < 20, actual


def test_symmetric_omega_fails_symplectic_invariance(monkeypatch) -> None:
    # omega = [[0, B], [-B, 0]] with its lower-left block negated is
    # [[0, B], [B, 0]]: symmetric and still of rank 14, so only the
    # generators' invariance can reject it (the sl2 raising operator does).
    symp = rep7.build_symplectic14()
    rows = [list(row) for row in symp.omega.entries]
    for i in range(7, 14):
        rows[i][:7] = [-x for x in rows[i][:7]]
    bad = dataclasses.replace(symp, omega=DenseMatrix.from_rows(rows))
    rep7._form_terms.cache_clear()
    monkeypatch.setattr(rep7, "build_symplectic14", lambda: bad)
    try:
        report = run_suite(Config(suites=("linear",), samples=1))
    finally:
        # Drop the terms built from the symmetric omega before the true
        # build_symplectic14 is restored.
        rep7._form_terms.cache_clear()
    by_name = {c.name: c for c in report.checks}
    assert by_name["linear.symplectic.invariance"].actual == "false"
    for name in ("linear.phi_symplectomorphism", "linear.conormal_moment_equivalence"):
        assert by_name[name].status == "skipped"
    assert report.summary == {"total": 19, "passed": 16, "failed": 1, "skipped": 2}


def _without_condition_ii(terms):
    # The conormal forms are (i) <z', z'>, then (ii) z^T B z', then (iii).
    return dataclasses.replace(terms, conormal=terms.conormal[:1] + terms.conormal[2:])


def _omega_a_bumped(terms):
    # Entry (0, 1) of the first omega A, plus 1: its moment form, which has
    # no x_0 x_1 term, gains 1 x_0 x_1.
    first, *rest = terms.moment
    assert all((i, j) != (0, 1) for i, j, _ in first)
    return dataclasses.replace(terms, moment=(((0, 1, 1),) + first, *rest))


@pytest.mark.parametrize(
    "bad, tail",
    [
        # Without (ii), z^T B z', every sample still agrees: on them (iii)
        # implies it.  Only the span of the forms tells.
        (_without_condition_ii, "20/20 agree; form span ranks (9, 10, 10)"),
        (_omega_a_bumped, " agree; form span ranks (10, 10, 11)"),
    ],
    ids=["without_condition_ii", "omega_a_bumped"],
)
def test_conormal_and_moment_forms_must_span_one_space(monkeypatch, bad, tail) -> None:
    terms = bad(rep7._form_terms())
    monkeypatch.setattr(rep7, "_form_terms", lambda: terms)
    actual, details = report_cli._run_conormal_equivalence(Config(samples=10))
    assert actual.endswith(tail), actual
    assert details == {"membership_samples": 10, "random_samples": 10}


def test_conormal_equivalence_makes_no_mul_vec_call(monkeypatch) -> None:
    # The twenty forms are evaluated from their cached integer terms, and
    # the fiber rows are read off the same terms: no matrix-vector product,
    # from a cleared term table on.
    calls = []
    true_mul_vec = DenseMatrix.mul_vec

    def counted(self, v):
        calls.append(v)
        return true_mul_vec(self, v)

    monkeypatch.setattr(DenseMatrix, "mul_vec", counted)
    rep7._form_terms.cache_clear()
    actual, _ = report_cli._run_conormal_equivalence(Config())
    assert actual == "200/200 agree"
    assert calls == []


def test_conormal_equivalence_draws_no_fraction_and_makes_no_kernel_basis_call(
    monkeypatch,
) -> None:
    # Every point is drawn as (numerator, denominator) pairs and cleared to
    # integers, and the sampled fibers come from integer null vectors: no
    # Fraction is drawn and no reduced kernel is built.  The cached B, rho
    # and term table are built first: solving B and f2 takes kernels.
    def refused(name):
        def call(*args):
            raise AssertionError(f"{name} called")

        return call

    rep7._form_terms()
    monkeypatch.setattr(SmallRationalSampler, "fraction", refused("fraction"))
    monkeypatch.setattr(exact_linalg, "kernel_basis", refused("kernel_basis"))
    monkeypatch.setattr(rep7, "kernel_basis", refused("kernel_basis"))
    actual, _ = report_cli._run_conormal_equivalence(Config())
    assert actual == "200/200 agree"


def test_omega_prime_samples_run_eight_by_eight_eliminations(monkeypatch) -> None:
    # Each sample's rank is one elimination of an 8x8 integer block: no
    # 20x20 Gram is eliminated, and no sample's block holds a Fraction.
    shapes = []
    true_bareiss = exact_linalg._bareiss

    def recorded(rows, ncols):
        shapes.append((len(rows), ncols, all(type(x) is int for r in rows for x in r)))
        return true_bareiss(rows, ncols)

    sv.build_slice_data()
    monkeypatch.setattr(exact_linalg, "_bareiss", recorded)
    config = Config(suites=("slice",), samples=40)
    assert report_cli._omega_prime_full_rank_samples(config) == 40
    assert shapes == [(8, 8, True)] * 40


def test_tfixed_line_dimensions_computed_once_per_run(monkeypatch) -> None:
    calls = []
    true_orbit_dimension = rep7.orbit_dimension

    def counted(x):
        calls.append(tuple(x))
        return true_orbit_dimension(x)

    monkeypatch.setattr(rep7, "orbit_dimension", counted)
    report = run_suite(Config(suites=("linear",), samples=1))
    assert report.summary["failed"] == 0
    # Two for the one scaling sample, six T-fixed lines, three examples;
    # the three primes reuse the six line dimensions.
    assert len(calls) == 2 + 6 + 3


def test_perturbed_rho_seed_entry_fails_and_skips_dependents(monkeypatch) -> None:
    true_f1 = rep7._f1_matrix
    bad_f1 = with_entry(true_f1(), 1, 0, 2)  # f1 . v = 2w instead of w
    monkeypatch.setattr(rep7, "_f1_matrix", lambda: bad_f1)
    rep7.build_rep7.cache_clear()
    try:
        report = run_suite(LINEAR_FAST)
    finally:
        # Drop anything built from the perturbed seed before the true
        # _f1_matrix is restored.
        rep7.build_rep7.cache_clear()
    by_name = {c.name: c for c in report.checks}
    build = by_name["linear.rep7.build"]
    assert build.status == "fail"
    assert build.actual.startswith("error: NoSolutionError")
    for check in report.checks:
        if check.name != "linear.rep7.build":
            assert check.status == "skipped", check.name
    assert report.summary["failed"] == 1


def test_mod_p_orbit_sizes_must_match_tfixed_line_dimensions(monkeypatch) -> None:
    # Seven orbits summing to 3^6, the origin a singleton and every other
    # size even: only the link to the orbit dimensions 1..6 of the T-fixed
    # lines, which ask for sizes 2 * 3^(d-1), can reject it.
    fake = rep7.OrbitCountResult(
        point_count=729,
        orbit_count=7,
        orbit_sizes=(1, 2, 6, 18, 54, 216, 432),
        origin_orbit_size=1,
    )
    monkeypatch.setattr(rep7, "count_orbits_mod_p", lambda p: fake)
    by_name = {c.name: c for c in run_suite(LINEAR_FAST).checks}
    check = by_name["linear.count_orbits_mod_p.p3"]
    assert check.status == "fail"
    assert "orbit sizes do not match" in check.actual


def test_linear_headline_needs_distinct_orbit_dimensions(monkeypatch) -> None:
    # Six T-fixed lines of one orbit dimension need not lie in six orbits:
    # the line count still reads 6, but the headline must not claim 7.
    monkeypatch.setattr(
        report_cli,
        "_tfixed_line_dims",
        lambda: {rep7.REP_LABELS[k]: 3 for k in rep7.tfixed_isotropic_lines()},
    )
    report = run_suite(LINEAR_FAST)
    by_name = {c.name: c for c in report.checks}
    assert by_name["linear.tfixed_lines.count"].status == "pass"
    assert by_name["linear.tfixed_lines.orbit_dims"].actual == "collision"
    assert by_name["linear.count_orbits_mod_p.p3"].status == "fail"
    assert report.headline["linear_total"] is None


def test_stratum_dimension_mismatch_fails_orbit_dims(monkeypatch) -> None:
    # One vector short in the conormal fiber over the line v leaves the
    # stratum over v 6-dimensional, so the strata no longer count components.
    true_fiber = rep7.conormal_fiber_basis
    v = (1, 0, 0, 0, 0, 0, 0)
    monkeypatch.setattr(
        rep7,
        "conormal_fiber_basis",
        lambda zprime: true_fiber(zprime)[: -1 if tuple(zprime) == v else None],
    )
    report = run_suite(LINEAR_FAST)
    by_name = {c.name: c for c in report.checks}
    check = by_name["linear.tfixed_lines.orbit_dims"]
    assert check.status == "fail"
    assert check.actual == "stratum v: 1 + 5 != 7"
    assert check.details == {
        "orbit_dims": {"v": 1, "w": 3, "t~": 5, "v~": 6, "w~": 4, "t": 2}
    }
    assert by_name["linear.tfixed_lines.count"].status == "pass"
    assert report.headline["linear_total"] is None


def test_oracle_rejects_a_generator_off_the_quadric(monkeypatch) -> None:
    bad_torus = np.diag([2, 1, 1, 1, 1, 1, 1]).astype(np.int64)  # not an isometry
    monkeypatch.setattr(rep7, "_torus_generators", lambda p: [bad_torus])
    rep7.count_orbits_mod_p.cache_clear()
    try:
        report = run_suite(LINEAR_FAST)
    finally:
        # Drop anything counted with the perturbed generator before the
        # true _torus_generators is restored.
        rep7.count_orbits_mod_p.cache_clear()
    by_name = {c.name: c for c in report.checks}
    check = by_name["linear.count_orbits_mod_p.p3"]
    assert check.status == "fail"
    assert check.actual == "error: AssertionError: generator does not preserve the quadric"
    assert by_name["linear.count_orbits_mod_p.consistency"].status == "skipped"
    assert report.summary["failed"] == 1


def test_oracle_fails_on_a_cone_missing_one_point(monkeypatch) -> None:
    true_cone_keys = rep7._cone_keys
    monkeypatch.setattr(rep7, "_cone_keys", lambda p: true_cone_keys(p)[:-1])
    rep7.count_orbits_mod_p.cache_clear()
    try:
        report = run_suite(LINEAR_FAST)
    finally:
        # Drop the count made on the short cone before _cone_keys is restored.
        rep7.count_orbits_mod_p.cache_clear()
    by_name = {c.name: c for c in report.checks}
    assert by_name["linear.count_orbits_mod_p.p3"].status == "fail"
    assert by_name["linear.count_orbits_mod_p.consistency"].status == "skipped"
    assert report.summary["failed"] == 1


def test_check_exceptions_recorded_not_raised(monkeypatch) -> None:
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(report_cli, "_run_root_count", boom)
    report = run_suite(FAST)
    failed = {c.name: c for c in report.checks}["combinatorics.roots.count"]
    assert failed.status == "fail"
    assert failed.actual == "error: RuntimeError: boom"
    assert failed.expected == "12"
    assert failed.details is None


def test_absent_prerequisites_are_ignored() -> None:
    # The slice suite depends on algebra checks; running it alone must
    # not skip anything.
    report = run_suite(Config(suites=("slice",)))
    assert report.summary["failed"] == 0
    assert report.summary["skipped"] == 0
    assert report.headline["slice_total"] == 7
    assert report.headline["linear_total"] is None


# ---------------------------------------------------------------------------
# Report emission.
# ---------------------------------------------------------------------------


def test_json_schema_and_millis() -> None:
    cfg = Config(suites=("combinatorics",), format="json")
    report = run_suite(cfg)
    doc = json.loads(emit(report, cfg))
    assert set(doc) == {"config", "checks", "summary", "headline"}
    assert doc["config"]["suites"] == ["combinatorics"]
    assert doc["config"]["seed"] == 42
    for check in doc["checks"]:
        assert set(check) == {
            "name", "status", "expected", "actual", "millis", "details",
        }
        assert check["status"] in ("pass", "fail", "skipped")
        assert check["millis"] == 0
    assert set(doc["summary"]) == {"total", "passed", "failed", "skipped"}
    assert set(doc["headline"]) == {"slice_total", "linear_total"}


def test_json_output_is_byte_stable() -> None:
    cfg = Config(suites=("combinatorics",), format="json")
    first = emit(run_suite(cfg), cfg)
    second = emit(run_suite(cfg), cfg)
    assert first == second
    assert first.endswith("\n")


def test_emit_echoes_the_config_of_the_run() -> None:
    # The format comes from the Config passed to emit; everything echoed
    # comes from the run itself.
    report = run_suite(Config(suites=("combinatorics",), seed=1))
    other = Config(suites=("algebra", "linear"), primes=(5,), samples=3, seed=2)
    doc = json.loads(emit(report, dataclasses.replace(other, format="json")))
    assert doc["config"] == {
        "suites": ["combinatorics"],
        "primes": [3, 5, 7],
        "samples": None,
        "rank_samples": 10,
        "conormal_samples": 100,
        "seed": 1,
    }
    assert len(doc["checks"]) == 6
    header = emit(report, other).splitlines()[1]
    assert header == "suites: combinatorics; primes: 3, 5, 7; seed: 1"


def test_text_report_is_a_table() -> None:
    cfg = Config(suites=("combinatorics",))
    text = emit(run_suite(cfg), cfg)
    assert text.startswith("verification report")
    assert "combinatorics.roots.count" in text
    assert "summary: total 6, passed 6, failed 0, skipped 0" in text


# ---------------------------------------------------------------------------
# CLI entry point.
# ---------------------------------------------------------------------------


def test_cli_passes_on_fast_suite() -> None:
    runner = CliRunner()
    result = runner.invoke(main, ["--suite", "combinatorics"])
    assert result.exit_code == 0
    assert "summary: total 6, passed 6" in result.output


def test_cli_json_round_trip(tmp_path) -> None:
    out = tmp_path / "report.json"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["--suite", "combinatorics", "--format", "json", "--out", str(out)],
    )
    assert result.exit_code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["summary"]["failed"] == 0


def test_cli_out_files_are_identical_across_runs(tmp_path) -> None:
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    runner = CliRunner()
    for path in paths:
        result = runner.invoke(
            main,
            ["--suite", "combinatorics", "--format", "json", "--out", str(path)],
        )
        assert result.exit_code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["--primes", "2"],
        ["--primes", "3,four"],
        ["--suite", "bogus"],
        ["--seed", "-1"],
        ["--samples", "0"],
        ["--primes", "11"],
        ["--samples", "10001"],
    ],
)
def test_cli_config_errors_exit_two(args) -> None:
    runner = CliRunner()
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "configuration error" in result.stderr


@pytest.mark.parametrize("option, what", [("--primes", "primes"), ("--suite", "suite")])
def test_cli_empty_list_is_named_as_empty(option, what) -> None:
    # The empty list is reported as such, not as a list of non-integers.
    result = CliRunner().invoke(main, [option, " , "])
    assert result.exit_code == 2
    assert f"configuration error: empty {what} list: ' , '" in result.stderr


def test_cli_help_states_the_config_defaults_and_limits() -> None:
    result = CliRunner().invoke(main, ["--help"])
    assert result.exit_code == 0
    text = " ".join(result.output.split())
    defaults = Config()
    for stated in (
        f"({','.join(SUITE_ORDER)}) or 'all'. [default: all]",
        f"p**7 <= {rep7.MAX_ORACLE_POINTS}",
        f"[default: {','.join(map(str, defaults.primes))}]",
        f"1 to {MAX_SAMPLES} (defaults: {defaults.rank_samples} for rank checks, "
        f"{defaults.conormal_samples} for the conormal/moment equivalence)",
        f"[default: {defaults.seed}]",
        f"[{'|'.join(report_cli._FORMATS)}]",
        f"[default: {defaults.format}]",
    ):
        assert stated in text


def test_cli_failure_exits_one(monkeypatch) -> None:
    monkeypatch.setattr(
        report_cli, "_run_root_count", lambda: ("13", None)
    )
    runner = CliRunner()
    result = runner.invoke(main, ["--suite", "combinatorics"])
    assert result.exit_code == 1


def test_cli_dump_tables(tmp_path) -> None:
    path = tmp_path / "tables.txt"
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["--suite", "combinatorics", "--dump-tables", str(path)],
    )
    assert result.exit_code == 0
    tables = path.read_text(encoding="utf-8")
    assert tables.count("ad(") == 14
    assert tables.count("rho(") == 14
    assert path.read_bytes() == GOLDEN_TABLES.read_bytes()


@pytest.mark.parametrize("args", sorted(REPORT_DIGESTS))
def test_cli_json_report_digests(args) -> None:
    """Behaviour lock beyond the default report: seeds, sample counts,
    primes and suite subsets each keep their report bytes."""
    result = CliRunner().invoke(main, args.split() + ["--format", "json"])
    assert result.exit_code == 0
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == REPORT_DIGESTS[args]


def _run_module(*args: str) -> subprocess.CompletedProcess:
    package_root = str(Path(g2verify.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": package_root}
    return subprocess.run(
        [sys.executable, "-m", "g2verify", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_entry_point_runs_the_cli() -> None:
    result = _run_module("--suite", "combinatorics", "--format", "json")
    assert result.returncode == 0
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert len(report["checks"]) == 6
    assert report["summary"]["failed"] == 0
    assert _run_module("--primes", "4").returncode == 2
