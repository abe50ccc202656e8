"""Suite runner and report emitter.

Executes the verification checks in dependency order across four suites
(algebra, combinatorics, slice, linear), collects CheckResult rows, and
emits a text table or a byte-stable JSON document.  Exit status: 0 when
every executed check passes, 1 on any failure, 2 on configuration error.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Sequence

import click

from . import g2_algebra as g2
from . import rep7_verifier as rep7
from . import root_weyl as rw
from . import slice_verifier as sv
from .exact_linalg import DenseMatrix, kernel_basis, rank
from .sampling import SmallRationalSampler, cleared

SUITE_ORDER: tuple[str, ...] = ("algebra", "combinatorics", "slice", "linear")
_FORMATS = ("text", "json")

_DEFAULT_RANK_SAMPLES = 10
_DEFAULT_CONORMAL_SAMPLES = 100

#: Upper bound on --samples: each sampled check holds or draws this many
#: points, so an unbounded count could exhaust memory or run for hours.
MAX_SAMPLES = 10_000

#: Fixed per-check offsets mixed into the seed so each sampled check draws
#: an independent, order-insensitive stream.
_SEED_STRIDE = 1000003


class ConfigError(ValueError):
    """Invalid runner configuration."""


def _shown(value) -> str:
    try:
        return repr(value)
    except ValueError:  # str() refuses an int of more than 4,300 digits
        return "a value too long to print"


def _require_int(what: str, value) -> None:
    # bool is an int subclass, but True is no count, seed or prime.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what}: expected an integer, got {_shown(value)}")


@dataclass(frozen=True)
class Config:
    """Runner configuration; validation errors raise ConfigError."""

    suites: tuple[str, ...] = SUITE_ORDER
    primes: tuple[int, ...] = (3, 5, 7)
    samples: int | None = None
    seed: int = 42
    format: str = "text"

    def __post_init__(self) -> None:
        for what, value in (("suites", self.suites), ("primes", self.primes)):
            # A bare str is a sequence of letters: "slice" would name five suites.
            if isinstance(value, str) or not isinstance(value, Sequence):
                raise ConfigError(f"{what}: expected a sequence, got {_shown(value)}")
        for s in self.suites:
            if s not in SUITE_ORDER:
                raise ConfigError(f"unknown suite {_shown(s)}")
        ordered = tuple(s for s in SUITE_ORDER if s in self.suites)
        if not ordered:
            raise ConfigError("at least one suite is required")
        object.__setattr__(self, "suites", ordered)
        for p in self.primes:
            _require_int("primes", p)
        primes = tuple(dict.fromkeys(self.primes))
        if not primes:
            raise ConfigError("at least one prime is required")
        for p in primes:
            try:
                rep7.check_oracle_prime(p)
            except rep7.BadPrimeError as exc:
                raise ConfigError(f"primes: {exc}") from exc
        object.__setattr__(self, "primes", primes)
        if self.samples is not None:
            _require_int("samples", self.samples)
            if not 1 <= self.samples <= MAX_SAMPLES:
                raise ConfigError(
                    f"samples must be between 1 and {MAX_SAMPLES}, got {_shown(self.samples)}"
                )
        _require_int("seed", self.seed)
        if not 0 <= self.seed < 2**64:
            raise ConfigError(
                f"seed must be an unsigned 64-bit integer, got {_shown(self.seed)}"
            )
        if self.format not in _FORMATS:
            choices = " or ".join(map(repr, _FORMATS))
            raise ConfigError(f"format must be {choices}, got {_shown(self.format)}")

    @property
    def rank_samples(self) -> int:
        return self.samples if self.samples is not None else _DEFAULT_RANK_SAMPLES

    @property
    def conormal_samples(self) -> int:
        return self.samples if self.samples is not None else _DEFAULT_CONORMAL_SAMPLES


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str  # pass | fail | skipped
    expected: str
    actual: str
    millis: int
    details: dict | None


@dataclass(frozen=True)
class VerificationReport:
    config: Config
    checks: tuple[CheckResult, ...]
    summary: dict
    headline: dict


@dataclass(frozen=True)
class _CheckSpec:
    name: str  # "<suite>.<check>"
    needs: tuple[str, ...]
    expected: str
    run: Callable[[], tuple[str, dict | None]]


def _tally(
    name: str, needs: tuple[str, ...], total: int, count: Callable[[], int]
) -> _CheckSpec:
    """A check whose `count()` says how many of `total` cases hold; all must."""
    return _CheckSpec(
        name, needs, f"{total}/{total}", lambda: (f"{count()}/{total}", None)
    )


def _holds(
    name: str, needs: tuple[str, ...], verifier: Callable[[], bool]
) -> _CheckSpec:
    """A check that passes when `verifier()` returns True."""
    return _CheckSpec(
        name, needs, "true", lambda: (str(verifier()).lower(), None)
    )


def _check_seed(config: Config, offset: int) -> int:
    return config.seed * _SEED_STRIDE + offset


# ---------------------------------------------------------------------------
# Suite: algebra.
# ---------------------------------------------------------------------------


def _run_linalg_selftest() -> tuple[str, dict | None]:
    # Its inputs are constant 2 x 2 matrices, so no fault in g2's or rho's
    # data reaches it; it stays because deleting it would change the
    # default report.
    if rank(DenseMatrix.from_rows([[1, 2], [2, 4]])) != 1:
        return "rank failure", None
    kern = kernel_basis(DenseMatrix.from_rows([[1, 2], [2, 4]]))
    if len(kern) != 1 or kern[0][0] + 2 * kern[0][1] != 0:
        return "kernel failure", None
    return "ok", None


_A_VALUES = ((1, 0), (-1, 1), (0, -1))  # a1, a2, a3 on (h_a, h_b)


def _run_cartan_norms() -> tuple[str, dict | None]:
    a_norms = [g2.killing_dual_norm(*v) for v in _A_VALUES]
    diff_norms = []
    for i in range(3):
        for j in range(i + 1, 3):
            va, vb = _A_VALUES[i], _A_VALUES[j]
            diff_norms.append(
                g2.killing_dual_norm(va[0] - vb[0], va[1] - vb[1])
            )
    details = {
        "a_norms": [str(n) for n in a_norms],
        "difference_norms": [str(n) for n in diff_norms],
    }
    ok = all(n == Fraction(1, 12) for n in a_norms) and all(
        n == Fraction(1, 4) for n in diff_norms
    )
    if ok:
        return "1/12 and 1/4", details
    return "mismatch", details


# ---------------------------------------------------------------------------
# Suite: combinatorics.
# ---------------------------------------------------------------------------


def _run_root_count() -> tuple[str, dict | None]:
    roots = rw.enumerate_roots()
    return str(len(roots)), {"roots": [repr(r) for r in roots]}


def _run_polarization_count() -> tuple[str, dict | None]:
    pols = rw.all_polarizations()
    distinct = {p.roots for p in pols}
    return str(len(distinct)), None


def _run_alpha_partition() -> tuple[str, dict | None]:
    minus_alpha = -rw.ALPHA
    pols = rw.all_polarizations()
    omit = sum(1 for p in pols if minus_alpha not in p)
    contain = sum(1 for p in pols if minus_alpha in p)
    return f"{omit}/{contain}", {
        "omit_minus_alpha": omit,
        "contain_minus_alpha": contain,
    }


# ---------------------------------------------------------------------------
# Suite: slice.
# ---------------------------------------------------------------------------


def _run_slice_build() -> tuple[str, dict | None]:
    data = sv.build_slice_data()
    details = {
        "grading_dims": list(data.dims()),
        "dim_ker_ad_f": len(data.ker_ad_f),
        "psi_f1": str(sv.psi(g2.f1)),
    }
    return "ok", details


_COUNT_SCOPE_NOTE = (
    "The reduction from the two-sided group action to relevant orbits is a "
    "variety-level statement consumed here as a counting rule; this check "
    "certifies its Lie-algebra-level hypotheses and the resulting count, "
    "nothing more."
)


def _run_relevant_total(count: sv.RelevantOrbitCount) -> tuple[str, dict | None]:
    rows = []
    for idx, record in enumerate(count.records):
        rows.append(
            {
                "weyl_index": idx,
                "weyl": repr(record.w),
                "s_w": [repr(r) for r in record.s_w.sorted_roots],
                "ubar_weights": [repr(r) for r in record.ubar_weights],
                "base_relevant": record.base_relevant,
                "complementary_exists": record.complementary_exists,
                "complementary_relevant": record.complementary_relevant,
            }
        )
    details = {"records": rows, "scope_note": _COUNT_SCOPE_NOTE}
    return str(count.total), details


def _run_omega_prime_at_e() -> tuple[str, dict | None]:
    r = sv.omega_prime_rank((1, 0, 0, 0, 0, 0, 0))  # e: w_0 = 1, zero slice coordinates
    return ("not antisymmetric" if r is None else str(r)), None


def _omega_prime_full_rank_samples(config: Config) -> int:
    points = sv.omega_prime_sample_points(_check_seed(config, 5), config.rank_samples)
    return sum(sv.omega_prime_rank(c) == 20 for c in points)


# ---------------------------------------------------------------------------
# Suite: linear.
# ---------------------------------------------------------------------------


def _run_rep_build() -> tuple[str, dict | None]:
    rep = rep7.build_rep7()
    details = {"f2_coefficients": [str(c) for c in rep.f2_coefficients]}
    return "unique solution", details


def _seed_entries_held() -> int:
    rep = rep7.build_rep7()
    return sum(
        1
        for name, i, j, val in rep7.SEED_ENTRIES
        if rep.matrix(name).entry(i, j) == val
    )


def _run_zero_weight() -> tuple[str, dict | None]:
    basis = rep7.zero_weight_space()
    if len(basis) == 1 and all(basis[0][i] == 0 for i in range(6)):
        return "dim 1 (u)", None
    return f"dim {len(basis)}", None


def _run_form_values() -> tuple[str, dict | None]:
    b = rep7.invariant_form()
    expected_entries = {(0, 3): -2, (1, 4): -2, (5, 2): -2, (6, 6): 4}
    for i in range(7):
        for j in range(7):
            want = expected_entries.get((i, j)) or expected_entries.get((j, i)) or 0
            if b.entry(i, j) != want:
                return f"unexpected B[{i}][{j}] = {b.entry(i, j)}", None
    return "ok", None


def _run_conormal_equivalence(config: Config) -> tuple[str, dict | None]:
    n = config.conormal_samples
    sampler = SmallRationalSampler(_check_seed(config, 11))
    agree = 0
    for k in range(n):
        zprime, z = rep7.sample_conormal_pair(sampler, k)
        if rep7.conormal_conditions(zprime, z) and rep7.moment_zero_check(z + zprime):
            agree += 1
    for _ in range(n):
        # z' and z are drawn in that order and cleared as one point: every
        # form is homogeneous, so no zero moves.
        drawn = cleared([sampler.ratio() for _ in range(14)])
        zprime, z = drawn[:7], drawn[7:]
        if rep7.conormal_conditions(zprime, z) == rep7.moment_zero_check(z + zprime):
            agree += 1
    details = {"membership_samples": n, "random_samples": n}
    ranks = rep7.form_span_ranks()  # one span proves the zero sets equal
    span = "" if len(set(ranks)) == 1 else f"; form span ranks {ranks}"
    return f"{agree}/{2 * n} agree{span}", details


def _scaling_invariant_samples(config: Config) -> int:
    # x and lam x are drawn as ratios and cleared, so this compares the
    # ranks of two nonzero multiples of one integer vector under a tangent
    # map linear in the point: they agree for any rho, so no fault in the
    # data reaches it.  It stays because deleting it would change the
    # default report.
    sampler = SmallRationalSampler(_check_seed(config, 13))
    good = 0
    for _ in range(config.rank_samples):
        x = [sampler.ratio() for _ in range(7)]
        n, d = sampler.ratio()
        while not n:  # lam = n/d != 0
            n, d = sampler.ratio()
        scaled = cleared([(n * a, d * b) for a, b in x])
        if rep7.orbit_dimension(scaled) == rep7.orbit_dimension(cleared(x)):
            good += 1
    return good


def _run_tfixed_count() -> tuple[str, dict | None]:
    lines = rep7.tfixed_isotropic_lines()
    details = {"lines": [rep7.REP_LABELS[k] for k in lines]}
    return str(len(lines)), details


def _tfixed_line_dims() -> dict[str, int]:
    """The orbit dimension of each T-fixed isotropic line, by its label."""
    return {
        rep7.REP_LABELS[k]: rep7.orbit_dimension(tuple(int(i == k) for i in range(7)))
        for k in rep7.tfixed_isotropic_lines()
    }


def _run_tfixed_dims(dims: dict[str, int]) -> tuple[str, dict | None]:
    details = {"orbit_dims": dims}
    if len(set(dims.values())) != len(dims):
        return "collision", details
    # Each stratum of the zero fiber, an orbit with its conormal fiber, is
    # 7-dimensional; "origin" is no label, so its point is the fixed point 0.
    for label, d in [*dims.items(), ("origin", 0)]:
        point = tuple(int(x == label) for x in rep7.REP_LABELS)
        fiber = len(rep7.conormal_fiber_basis(point))
        if d + fiber != 7:
            return f"stratum {label}: {d} + {fiber} != 7", details
    return "distinct", details


def _run_orbit_examples() -> tuple[str, dict | None]:
    origin = rep7.orbit_dimension((0,) * 7)
    highest = rep7.orbit_dimension((1, 0, 0, 0, 0, 0, 0))
    lowest = rep7.orbit_dimension((0, 0, 0, 1, 0, 0, 0))
    return f"{origin},{highest},{lowest}", None


_ORACLE_NOTE = (
    "Finite-field oracle expectation: the characteristic-0 count (7) is "
    "proved over the complex numbers; a mod-p mismatch is a reported "
    "finding, not a silent failure."
)


def _run_mod_p(p: int, line_dims: Callable) -> Callable[[], tuple[str, dict | None]]:
    def run() -> tuple[str, dict | None]:
        result = rep7.count_orbits_mod_p(p)
        problems = []
        if result.origin_orbit_size != 1:
            problems.append("origin orbit is not a singleton")
        nonzero = list(result.orbit_sizes)
        nonzero.remove(result.origin_orbit_size)
        if any(s % (p - 1) != 0 for s in nonzero):
            problems.append("a nonzero orbit size is not divisible by p-1")
        if result.point_count != p**6:
            problems.append("the cone does not have p^6 points")
        # The orbit of a line of orbit dimension d has (p-1) p^(d-1) points.
        expected = [1] + [(p - 1) * p ** (d - 1) for d in line_dims().values()]
        if list(result.orbit_sizes) != sorted(expected):
            problems.append("orbit sizes do not match the T-fixed line dimensions")
        details = {
            "p": p,
            "point_count": result.point_count,
            "orbit_sizes": list(result.orbit_sizes),
            "origin_orbit_size": result.origin_orbit_size,
            "char0_count": 7,
            "note": _ORACLE_NOTE,
        }
        if problems:
            return f"{result.orbit_count} ({'; '.join(problems)})", details
        return str(result.orbit_count), details

    return run


def _run_mod_p_consistency(primes: Sequence[int]) -> tuple[str, dict | None]:
    # Each prime's check read 7 from the same cached count before this runs, so
    # no fault reaches it; it stays because deleting it would change the default report.
    counts = {p: rep7.count_orbits_mod_p(p).orbit_count for p in primes}
    details = {str(p): c for p, c in counts.items()}
    if len(set(counts.values())) == 1:
        return "equal", details
    return "unequal", details


# ---------------------------------------------------------------------------
# Registry and runner.
# ---------------------------------------------------------------------------


def _registry(config: Config) -> tuple[_CheckSpec, ...]:
    """Every check in run order; each name starts with its suite."""
    rank_n = config.rank_samples
    conormal_n = 2 * config.conormal_samples
    # Shared by the checks of one run only, so the next run sees patched data.
    line_dims = cache(_tfixed_line_dims)
    relevant = cache(sv.count_relevant_orbits)
    specs = [
        _CheckSpec("algebra.exact_linalg.selftest", (), "ok", _run_linalg_selftest),
        _tally(
            "algebra.bracket.antisymmetry", ("algebra.exact_linalg.selftest",),
            196, g2.verify_antisymmetry,
        ),
        _tally(
            "algebra.bracket.jacobi", ("algebra.bracket.antisymmetry",),
            2744, g2.verify_jacobi,
        ),
        _tally(
            "algebra.killing.invariance", ("algebra.bracket.jacobi",),
            2744, g2.verify_killing_invariance,
        ),
        _CheckSpec(
            "algebra.killing.gram_rank", ("algebra.exact_linalg.selftest",), "14",
            lambda: (str(rank(DenseMatrix.from_rows(g2.killing_gram()))), None),
        ),
        _CheckSpec(
            "algebra.killing.cartan_norms", ("algebra.killing.gram_rank",),
            "1/12 and 1/4", _run_cartan_norms,
        ),
        _CheckSpec("combinatorics.roots.count", (), "12", _run_root_count),
        _CheckSpec(
            "combinatorics.weyl.order", ("combinatorics.roots.count",), "12",
            lambda: (str(len(rw.generate_weyl())), None),
        ),
        _CheckSpec(
            "combinatorics.polarizations.count", ("combinatorics.weyl.order",),
            "12", _run_polarization_count,
        ),
        _tally(
            "combinatorics.polarizations.valid",
            ("combinatorics.polarizations.count",), 12,
            lambda: sum(p.is_valid() for p in rw.all_polarizations()),
        ),
        _CheckSpec(
            "combinatorics.polarizations.alpha_partition",
            ("combinatorics.polarizations.count",), "6/6", _run_alpha_partition,
        ),
        _holds(
            "combinatorics.root_addition_lemma", ("combinatorics.roots.count",),
            rw.verify_root_addition_lemma,
        ),
        _CheckSpec("slice.build", ("algebra.bracket.jacobi",), "ok", _run_slice_build),
        _holds("slice.psi_conditions", ("slice.build",), sv.verify_psi_conditions),
        _holds("slice.lemma_incl", ("slice.build",), sv.verify_lemma_incl),
        _holds("slice.ml_formula", ("slice.build",), sv.verify_ml_formula),
        _holds(
            "slice.contracting_weights", ("slice.build",),
            sv.verify_contracting_weights,
        ),
        _holds("slice.omega_minus1", ("slice.build",), sv.omega_minus1_check),
        # count_relevant_orbits raises InconsistentCriteriaError if the two
        # base-relevancy criteria (psi restricted to ubar_w vanishes; -alpha
        # not in S_w) ever disagree, so completing all 12 records is the check.
        _tally(
            "slice.relevancy_criteria_agreement",
            ("slice.build", "combinatorics.polarizations.count"), 12,
            lambda: len(relevant().records),
        ),
        _CheckSpec(
            "slice.count_relevant_orbits.base",
            ("slice.relevancy_criteria_agreement",), "6",
            lambda: (str(relevant().base), None),
        ),
        _CheckSpec(
            "slice.count_relevant_orbits.complementary",
            ("slice.relevancy_criteria_agreement",), "1",
            lambda: (str(relevant().complementary), None),
        ),
        _CheckSpec(
            "slice.count_relevant_orbits.total",
            (
                "slice.count_relevant_orbits.base",
                "slice.count_relevant_orbits.complementary",
            ),
            "7", lambda: _run_relevant_total(relevant()),
        ),
        _CheckSpec(
            "slice.omega_prime.rank_at_e", ("slice.build",), "20",
            _run_omega_prime_at_e,
        ),
        _tally(
            "slice.omega_prime.rank_at_samples", ("slice.omega_prime.rank_at_e",),
            rank_n, lambda: _omega_prime_full_rank_samples(config),
        ),
        _CheckSpec(
            "linear.rep7.build", ("algebra.bracket.jacobi",), "unique solution",
            _run_rep_build,
        ),
        _tally(
            "linear.rep7.seed_entries", ("linear.rep7.build",), len(rep7.SEED_ENTRIES),
            _seed_entries_held,
        ),
        _tally(
            "linear.rep7.homomorphism", ("linear.rep7.build",), 91,
            rep7.verify_homomorphism,
        ),
        _holds(
            "linear.rep7.weight_compatibility", ("linear.rep7.build",),
            rep7.verify_weight_compatibility,
        ),
        _CheckSpec(
            "linear.rep7.zero_weight_space", ("linear.rep7.build",), "dim 1 (u)",
            _run_zero_weight,
        ),
        _tally(
            "linear.quadric_element.invariance", ("linear.rep7.build",), 14,
            rep7.verify_quadric_element,
        ),
        _CheckSpec(
            "linear.invariant_form.values", ("linear.rep7.build",), "ok",
            _run_form_values,
        ),
        _tally(
            "linear.invariant_form.invariance", ("linear.invariant_form.values",),
            14, rep7.verify_invariant_form,
        ),
        _holds(
            "linear.symplectic.invariance", ("linear.invariant_form.values",),
            rep7.verify_symplectic_invariance,
        ),
        _holds(
            "linear.phi_symplectomorphism", ("linear.symplectic.invariance",),
            rep7.phi_symplectomorphism_check,
        ),
        _CheckSpec(
            "linear.conormal_moment_equivalence", ("linear.symplectic.invariance",),
            f"{conormal_n}/{conormal_n} agree", lambda: _run_conormal_equivalence(config),
        ),
        _tally(
            "linear.orbit_scaling_invariance", ("linear.rep7.build",), rank_n,
            lambda: _scaling_invariant_samples(config),
        ),
        _CheckSpec(
            "linear.tfixed_lines.count", ("linear.invariant_form.values",), "6",
            _run_tfixed_count,
        ),
        _CheckSpec(
            "linear.tfixed_lines.orbit_dims", ("linear.tfixed_lines.count",),
            "distinct", lambda: _run_tfixed_dims(line_dims()),
        ),
        _CheckSpec(
            "linear.orbit_dimension.examples", ("linear.rep7.build",), "0,1,6",
            _run_orbit_examples,
        ),
    ]
    prime_names = [f"linear.count_orbits_mod_p.p{p}" for p in config.primes]
    for p, name in zip(config.primes, prime_names):
        specs.append(
            _CheckSpec(
                name, ("linear.rep7.build", "linear.invariant_form.values"), "7",
                _run_mod_p(p, line_dims),
            )
        )
    specs.append(
        _CheckSpec(
            "linear.count_orbits_mod_p.consistency", tuple(prime_names), "equal",
            lambda: _run_mod_p_consistency(config.primes),
        )
    )
    return tuple(specs)


def run_suite(config: Config) -> VerificationReport:
    """Execute every check of the configured suites in dependency order.

    A failed or skipped prerequisite marks its dependents skipped; a
    prerequisite absent from the run (its suite not selected) is ignored.
    Check failures are recorded, never raised.
    """
    results: list[CheckResult] = []
    statuses: dict[str, str] = {}
    for spec in _registry(config):
        if spec.name.split(".", 1)[0] not in config.suites:
            continue
        unmet = [n for n in spec.needs if statuses.get(n, "pass") != "pass"]
        if unmet:
            status = "skipped"
            actual, details = "skipped: unmet prerequisites " + ", ".join(unmet), None
            millis = 0
        else:
            start = time.perf_counter()
            try:
                actual, details = spec.run()
            except Exception as exc:  # recorded, never raised
                actual, details = f"error: {type(exc).__name__}: {exc}", None
            millis = int((time.perf_counter() - start) * 1000)
            status = "pass" if actual == spec.expected else "fail"
        results.append(CheckResult(spec.name, status, spec.expected, actual, millis, details))
        statuses[spec.name] = status

    summary = {
        "total": len(results),
        "passed": sum(1 for r in results if r.status == "pass"),
        "failed": sum(1 for r in results if r.status == "fail"),
        "skipped": sum(1 for r in results if r.status == "skipped"),
    }
    passed = {r.name: r.actual for r in results if r.status == "pass"}
    slice_total = passed.get("slice.count_relevant_orbits.total")
    # T-fixed isotropic lines plus the origin orbit, once their orbit
    # dimensions are distinct, so that the lines lie in distinct orbits.
    lines = passed.get("linear.tfixed_lines.count")
    if "linear.tfixed_lines.orbit_dims" not in passed:
        lines = None
    headline = {
        "slice_total": None if slice_total is None else int(slice_total),
        "linear_total": None if lines is None else int(lines) + 1,
    }
    return VerificationReport(
        config=config, checks=tuple(results), summary=summary, headline=headline
    )


def _config_payload(config: Config) -> dict:
    """The verification-relevant configuration echoed into the report.

    Only verification settings are echoed, so the same verification
    emits identical bytes wherever it is written.
    """
    return {
        "suites": list(config.suites),
        "primes": list(config.primes),
        "samples": config.samples,
        "rank_samples": config.rank_samples,
        "conormal_samples": config.conormal_samples,
        "seed": config.seed,
    }


def emit(report: VerificationReport, config: Config) -> str:
    """Serialize the report: a text table or a byte-stable JSON document.

    The echoed configuration is the one the run used (`report.config`);
    `config` picks only the format.  JSON reports always record millis as
    0 so that fixed (config, seed) pairs produce byte-identical documents;
    the text table shows the measured wall time.
    """
    run = report.config
    if config.format == "json":
        doc = {
            "config": _config_payload(run),
            "checks": [
                {
                    "name": c.name,
                    "status": c.status,
                    "expected": c.expected,
                    "actual": c.actual,
                    "millis": 0,
                    "details": c.details,
                }
                for c in report.checks
            ],
            "summary": report.summary,
            "headline": report.headline,
        }
        return json.dumps(doc, indent=2) + "\n"

    name_w = max([len(c.name) for c in report.checks] + [len("check")])
    status_w = max([len(c.status) for c in report.checks] + [len("status")])
    expected_w = max([len(c.expected) for c in report.checks] + [len("expected")])
    lines = [
        "verification report",
        f"suites: {', '.join(run.suites)}; primes: "
        f"{', '.join(str(p) for p in run.primes)}; seed: {run.seed}",
        "",
        f"{'check'.ljust(name_w)}  {'status'.ljust(status_w)}  "
        f"{'expected'.ljust(expected_w)}  actual (millis)",
    ]
    for c in report.checks:
        lines.append(
            f"{c.name.ljust(name_w)}  {c.status.ljust(status_w)}  "
            f"{c.expected.ljust(expected_w)}  {c.actual} ({c.millis} ms)"
        )
    s = report.summary
    lines.append("")
    lines.append(
        f"summary: total {s['total']}, passed {s['passed']}, "
        f"failed {s['failed']}, skipped {s['skipped']}"
    )
    h = report.headline
    lines.append(
        f"headline: slice_total = {h['slice_total']}, "
        f"linear_total = {h['linear_total']}"
    )
    return "\n".join(lines) + "\n"


def _matrix_lines(label: str, m: DenseMatrix) -> list[str]:
    """`label =`, then the rows of `m` with entries right-aligned to one
    width, then a blank line."""
    width = max(len(str(x)) for row in m.entries for x in row)
    rows = ["  [" + "  ".join(str(x).rjust(width) for x in row) + "]" for row in m.entries]
    return [f"{label} ="] + rows + [""]


def _tables_text() -> str:
    """The 14 adjoint matrices and the 14 representation matrices, as text."""
    lines = []
    for name, b in zip(g2.BASIS_NAMES, g2.BASIS):
        lines += _matrix_lines(f"ad({name})", g2.ad_matrix(b))
    lines += [f"basis order: {', '.join(rep7.REP_LABELS)}", ""]
    for name, m in zip(g2.BASIS_NAMES, rep7.build_rep7().matrices):
        lines += _matrix_lines(f"rho({name})", m)
    return "\n".join(lines)


def _parse_csv(value: str, what: str) -> tuple[str, ...]:
    items = tuple(part.strip() for part in value.split(",") if part.strip())
    if not items:
        raise ConfigError(f"empty {what} list: {value!r}")
    return items


@click.command(name="verify")
@click.option(
    "--suite", default="all", metavar="NAMES", show_default=True,
    help=f"Comma-separated suites ({','.join(SUITE_ORDER)}) or 'all'.",
)
@click.option(
    "--primes", default=",".join(map(str, Config.primes)), metavar="LIST",
    show_default=True, help="Primes for the finite-field orbit oracle: each p >= 3 "
    f"with p**7 <= {rep7.MAX_ORACLE_POINTS}, so 3, 5 or 7.",
)
@click.option(
    "--samples", type=int, default=None, metavar="N",
    help=f"Sample count override, 1 to {MAX_SAMPLES} (defaults: {_DEFAULT_RANK_SAMPLES} for "
    f"rank checks, {_DEFAULT_CONORMAL_SAMPLES} for the conormal/moment equivalence).",
)
@click.option(
    "--seed", type=int, default=Config.seed, show_default=True,
    help="Unsigned 64-bit seed for all sampling.",
)
@click.option(
    "--format", "format_", type=click.Choice(_FORMATS), default=Config.format,
    show_default=True, help="Report format.",
)
@click.option(
    "--out", type=click.Path(dir_okay=False), default=None,
    help="Write the report to PATH instead of stdout.",
)
@click.option(
    "--dump-tables", type=click.Path(dir_okay=False), default=None,
    help="Also write the adjoint and representation matrix tables to PATH.",
)
def main(
    suite: str,
    primes: str,
    samples: int | None,
    seed: int,
    format_: str,
    out: str | None,
    dump_tables: str | None,
) -> None:
    """Run the exact verification suites and emit a report."""
    try:
        suites = SUITE_ORDER if suite == "all" else _parse_csv(suite, "suite")
        prime_items = _parse_csv(primes, "primes")
        try:
            prime_tuple = tuple(map(int, prime_items))
        except ValueError as exc:
            raise ConfigError(f"primes must be integers: {primes!r}") from exc
        config = Config(
            suites=suites, primes=prime_tuple, samples=samples, seed=seed, format=format_
        )
    except ConfigError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        raise SystemExit(2)

    report = run_suite(config)
    document = emit(report, config)
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as handle:
                handle.write(document)
        except OSError as exc:
            click.echo(f"failed to write report to {out}: {exc}", err=True)
            raise SystemExit(1)
    else:
        click.echo(document, nl=False)

    if dump_tables is not None:
        try:
            with open(dump_tables, "w", encoding="utf-8") as handle:
                handle.write(_tables_text())
        except OSError as exc:
            click.echo(f"failed to write tables to {dump_tables}: {exc}", err=True)
            raise SystemExit(1)

    raise SystemExit(0 if report.summary["failed"] == 0 else 1)
