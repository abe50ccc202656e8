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

from conftest import GOLDEN_DEFAULT_REPORT, clear_caches, with_entry
from test_fault_table import REPORT_CLI_FAULTS, collect

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


# Rows of the fault table (test_fault_table.py), collected here to keep their test ids.
globals().update(collect(REPORT_CLI_FAULTS))


def test_default_run_builds_integer_matrices_only(monkeypatch) -> None:
    # From cleared caches, the entries of every DenseMatrix a default run
    # constructs, by any path, are recorded before the type's own check:
    # each one is an int (not a bool, not an integral Fraction).
    entry_types = Counter()
    built = []
    true_post_init = DenseMatrix.__post_init__

    def recorded(self) -> None:
        built.append((self.rows, self.cols))
        entry_types.update(type(x) for row in self.entries for x in row)
        true_post_init(self)

    clear_caches()
    monkeypatch.setattr(DenseMatrix, "__post_init__", recorded)
    try:
        report = run_suite(Config())
    finally:
        clear_caches()
    assert report.summary["failed"] == 0
    assert (14, 14) in built and (7, 7) in built and (8, 8) in built
    assert set(entry_types) == {int}


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
    clear_caches()
    report = run_suite(Config(suites=("algebra",)))
    assert report.summary["passed"] == report.summary["total"]
    assert len(calls) == 196
    assert set(calls) == set(itertools.product(g2.BASIS, repeat=2))

    calls.clear()
    clear_caches()
    report = run_suite(Config())
    assert report.summary["passed"] == report.summary["total"] == 43
    basis = set(g2.BASIS)
    basis_pairs = [(x, y) for x, y in calls if x in basis and y in basis]
    assert len(basis_pairs) == 196
    assert set(basis_pairs) == set(itertools.product(g2.BASIS, repeat=2))


def test_replaced_borel_action_breaks_conormal_equivalence(monkeypatch) -> None:
    # A 1 at (0, 0) of the sl2 raising operator's action adds 2 x_0 x_10 to
    # its Hamiltonian and leaves the conormal conditions, which read only
    # the g2 part, alone: members with z_0 z'_3 != 0 now disagree.
    symp = rep7.build_symplectic14()
    odd = with_entry(symp.actions14[-1], 0, 0, 1)
    bad = dataclasses.replace(symp, actions14=symp.actions14[:-1] + (odd,))
    clear_caches()
    monkeypatch.setattr(rep7, "build_symplectic14", lambda: bad)
    try:
        actual, _ = report_cli._run_conormal_equivalence(Config(samples=10))
    finally:
        clear_caches()  # the terms built from the replaced action
    agree = int(actual.split("/")[0])
    assert agree < 20, actual


def test_conormal_equivalence_makes_no_mul_vec_call(monkeypatch) -> None:
    # The twenty forms are evaluated from their cached integer terms, and
    # the fiber rows are read off the same terms: no matrix-vector product,
    # from a cleared term table on (B, rho and omega cached).
    calls = []
    true_mul_vec = DenseMatrix.mul_vec

    def counted(self, v):
        calls.append(v)
        return true_mul_vec(self, v)

    clear_caches()
    rep7.build_symplectic14()
    monkeypatch.setattr(DenseMatrix, "mul_vec", counted)
    actual, _ = report_cli._run_conormal_equivalence(Config())
    assert actual == "200/200 agree"
    assert calls == []


def test_conormal_equivalence_draws_no_fraction_and_certifies_or_eliminates_each_fiber(
    monkeypatch,
) -> None:
    # Every point is drawn as (numerator, denominator) pairs and cleared to
    # integers, and each sampled fiber is either certified as the line
    # through z' by one 6 x 6 rank, or one integer kernel_basis of its 9 x 7
    # rows: no Fraction is drawn, and no other kernel is built.  Seed 42
    # certifies every fiber, seed 3 both ways.  The cached B, rho and term
    # table are built first: solving B and f2 takes kernels.
    def refused(*args):
        raise AssertionError("fraction called")

    fibers, outside = [], []
    sink = [outside]  # where the next rank or kernel_basis call is recorded
    true_fiber_basis = rep7.conormal_fiber_basis

    def fiber(zprime):
        sink[0] = []
        basis = true_fiber_basis(zprime)
        fibers.append((*sink[0], all(type(x) is int for v in basis for x in v)))
        sink[0] = outside
        return basis

    def recorded(name, true):
        def call(m):
            sink[0].append((name, m.rows, m.cols))
            return true(m)
        return call

    rep7._form_terms()
    monkeypatch.setattr(SmallRationalSampler, "fraction", refused)
    monkeypatch.setattr(rep7, "conormal_fiber_basis", fiber)
    for name in ("kernel_basis", "rank"):
        true = getattr(exact_linalg, name)
        monkeypatch.setattr(exact_linalg, name, recorded(name, true))
        monkeypatch.setattr(rep7, name, recorded(name, true))
    certified, eliminated = (("rank", 6, 6), True), (("kernel_basis", 9, 7), True)
    for seed, expected in ((42, {certified: 100}), (3, {certified: 93, eliminated: 7})):
        fibers.clear()
        outside.clear()
        actual, _ = report_cli._run_conormal_equivalence(Config(seed=seed))
        assert actual == "200/200 agree"
        assert Counter(fibers) == expected
        assert all(name == "rank" for name, _, _ in outside)  # form_span_ranks


def test_omega_prime_samples_run_eight_by_eight_eliminations(monkeypatch) -> None:
    # Each sample's rank is one elimination of an 8x8 integer block: no
    # 20x20 Gram is eliminated, and no sample's block holds a Fraction.
    shapes = []
    true_echelon = exact_linalg.echelon

    def recorded(rows, ncols):
        shapes.append((len(rows), ncols, all(type(x) is int for r in rows for x in r)))
        return true_echelon(rows, ncols)

    sv.build_slice_data()
    monkeypatch.setattr(exact_linalg, "echelon", recorded)
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


def _run_module(*args: str, flags: tuple = (), **variables: str) -> subprocess.CompletedProcess:
    """`python [flags] -m g2verify [args]`, the environment plus `variables`."""
    package_root = str(Path(g2verify.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": package_root, **variables}
    return subprocess.run(
        [sys.executable, *flags, "-m", "g2verify", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize(
    "flags, env",
    [(("-O",), {}), ((), {"PYTHONHASHSEED": "0"}), ((), {"PYTHONHASHSEED": "12345"})],
    ids=["O", "hashseed-0", "hashseed-12345"],
)
def test_default_report_keeps_its_bytes_under_o_and_hash_seeds(flags, env) -> None:
    # -O strips every assert, so no invariant of the report may rest on
    # one; the hash seed orders str sets and dicts, which no byte may follow.
    result = _run_module("--format", "json", flags=flags, **env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.encode("utf-8") == GOLDEN_DEFAULT_REPORT.read_bytes()


def test_module_entry_point_runs_the_cli() -> None:
    result = _run_module("--suite", "combinatorics", "--format", "json")
    assert result.returncode == 0
    assert result.stderr == ""
    report = json.loads(result.stdout)
    assert len(report["checks"]) == 6
    assert report["summary"]["failed"] == 0
    assert _run_module("--primes", "4").returncode == 2
