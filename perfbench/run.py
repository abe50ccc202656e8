"""Benchmark of g2verify's `verify` run: cold and warm wall time, CPU,
set-up and memory, plus a traced per-layer breakdown.

    python3 perfbench/run.py --workload default --seed 3 --seconds 25 --trace 0

Every measurement happens in a fresh child interpreter (child.py), one
child at a time.  The program is driven only through its public entry
points: `report_cli.Config`, `run_suite`, `emit` and `report_cli.main`.
End-to-end times are scaled to a reference core speed by the SpeedProbe
each of those children runs; standard error also shows unscaled medians.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of traced runs.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A run is failed unless
every check passes, the headline is the workload's, the cold and warm
reports are byte-identical and the report's sha256 equals the digest
recorded in digests.json for its seed; the first child of each invocation
also checks the `verify` command path.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import COUNT_METRICS, LAYERS, ORACLE_PRIMES, SPAN_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
DIGESTS = HERE / "digests.json"

#: Workload name -> Config fields (besides seed) and the expected headline.
#: Why each was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    "default": {
        "config": {"suites": ["algebra", "combinatorics", "slice", "linear"], "primes": [3, 5, 7], "samples": None},
        "headline": {"slice_total": 7, "linear_total": 7},
    },
    "oracle": {
        "config": {"suites": ["linear"], "primes": [3, 5, 7], "samples": 1},
        "headline": {"slice_total": None, "linear_total": 7},
    },
    "exact": {
        "config": {"suites": ["algebra", "slice"], "primes": [3, 5, 7], "samples": 40},
        "headline": {"slice_total": 7, "linear_total": None},
    },
}

END_TO_END_UNITS = {"setup_s": "s", "cold_s": "s", "cpu_s": "s", "warm_s": "s", "peak_rss_mb": "MB"}

#: Every check of the default workload, in report order.  A check a
#: workload does not execute reports 0 ms.
CHECK_NAMES = (
    "algebra.exact_linalg.selftest", "algebra.bracket.antisymmetry",
    "algebra.bracket.jacobi", "algebra.killing.invariance",
    "algebra.killing.gram_rank", "algebra.killing.cartan_norms",
    "combinatorics.roots.count", "combinatorics.weyl.order",
    "combinatorics.polarizations.count", "combinatorics.polarizations.valid",
    "combinatorics.polarizations.alpha_partition",
    "combinatorics.root_addition_lemma", "slice.build",
    "slice.psi_conditions", "slice.lemma_incl", "slice.ml_formula",
    "slice.contracting_weights", "slice.omega_minus1",
    "slice.relevancy_criteria_agreement", "slice.count_relevant_orbits.base",
    "slice.count_relevant_orbits.complementary",
    "slice.count_relevant_orbits.total", "slice.omega_prime.rank_at_e",
    "slice.omega_prime.rank_at_samples", "linear.rep7.build",
    "linear.rep7.seed_entries", "linear.rep7.homomorphism",
    "linear.rep7.weight_compatibility", "linear.rep7.zero_weight_space",
    "linear.quadric_element.invariance", "linear.invariant_form.values",
    "linear.invariant_form.invariance", "linear.symplectic.invariance",
    "linear.phi_symplectomorphism", "linear.conormal_moment_equivalence",
    "linear.orbit_scaling_invariance", "linear.tfixed_lines.count",
    "linear.tfixed_lines.orbit_dims", "linear.orbit_dimension.examples",
    "linear.count_orbits_mod_p.p3", "linear.count_orbits_mod_p.p5",
    "linear.count_orbits_mod_p.p7", "linear.count_orbits_mod_p.consistency",
)

#: Children cache bytecode like an installed package does, whatever the
#: caller's environment says, so setup_s means the same everywhere.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}

SETUP_CHILDREN = 15  # import-only children per invocation, for setup_s
HARD_LIMIT_S = 165  # no child may still run after this much of an invocation


def layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    for name in SPAN_METRICS:
        units[name] = "count" if name in COUNT_METRICS else "s"
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({f"rep7_verifier.oracle.p{p}.s": "s" for p in ORACLE_PRIMES})
    units["rep7_verifier.oracle.points_per_s"] = "1/s"
    units.update({f"check.{name}.ms": "ms" for name in CHECK_NAMES})
    units["trace.overhead_s"] = "s"
    return units


def config_seed(workload: str, seed: int, digests: dict) -> int:
    """The Config.seed for a benchmark seed.

    A seed with a recorded digest is used as is; any other seed is folded
    onto the recorded tuning seeds, so every run is checked byte for byte.
    """
    if str(seed) in digests["sha256"][workload]:
        return seed
    pool = digests["tuning_seeds"]
    return pool[seed % len(pool)]


class Runner:
    """Starts children one at a time and applies the correctness gate."""

    def __init__(self, workload: str, seed: int, digests: dict) -> None:
        self.started = time.monotonic()
        self.workload = workload
        self.config = dict(WORKLOADS[workload]["config"], seed=config_seed(workload, seed, digests))
        self.digest = digests["sha256"][workload][str(self.config["seed"])]
        self.attempted = 0
        self.failed = 0

    def time_left(self) -> float:
        return HARD_LIMIT_S - (time.monotonic() - self.started)

    def spawn(self, job: dict) -> tuple[dict | None, float]:
        """Run one child; return its result (None if it failed) and wall time."""
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), json.dumps(job)],
            cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"child timed out: {job['mode']}", file=sys.stderr)
            return None, time.monotonic() - start
        wall = time.monotonic() - start
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"child failed ({proc.returncode}): {err.strip()}", file=sys.stderr)
            return None, wall
        result = json.loads(lines[-1])
        result["setup_raw_s"] = result["setup_s"] = result["imported"] - start
        if "setup_speed" in result:  # the child ran a SpeedProbe
            result["setup_s"] = (result["setup_raw_s"] - result["setup_probe_s"]) * result["setup_speed"]
        return result, wall

    def measured(self, job: dict) -> tuple[dict | None, float]:
        """Spawn a gated child: count it as attempted, and as failed unless correct.

        A failed child's timings are still returned when it produced any.
        """
        job = dict(job, config=self.config)
        result, wall = self.spawn(job)
        self.attempted += 1
        problems = self.problems(result, job)
        if problems:
            self.failed += 1
            print(f"{self.workload} run failed: {'; '.join(problems)}", file=sys.stderr)
        return result, wall

    def problems(self, result: dict | None, job: dict) -> list[str]:
        if result is None:
            return ["no result"]
        found = []
        if result["not_passed"]:
            found.append("checks not passed: " + ", ".join(result["not_passed"]))
        if result["headline"] != WORKLOADS[self.workload]["headline"]:
            found.append(f"headline {result['headline']}")
        if result["sha256"] != self.digest:
            found.append(f"report sha256 {result['sha256']} != recorded {self.digest}")
        if job.get("warm") and not result["warm_identical"]:
            found.append("warm report differs from cold report")
        cli = result.get("cli")
        if job.get("cli") and not (cli["exit"] == 0 and cli["same_bytes"] and cli["refused"]):
            found.append(f"verify command path: {cli}")
        return found


def end_to_end(runner: Runner, seconds: int) -> dict[str, float]:
    setups = []
    for _ in range(SETUP_CHILDREN):
        result, _ = runner.spawn({"mode": "setup", "probe": True})
        if result is None:
            raise SystemExit("cannot import g2verify from src/")
        setups.append(result["setup_s"])
    results, measured = [], 0.0
    while measured < seconds and runner.time_left() > 0:
        job = {"mode": "run", "warm": True, "probe": True, "cli": not runner.attempted}
        result, wall = runner.measured(job)
        measured += wall - (result or {}).get("cli_s", 0.0)
        if result is not None:
            results.append(result)
    if not results:
        raise SystemExit("no child produced a result")
    setups += [r["setup_s"] for r in results]
    metrics = {"setup_s": statistics.median(setups)}
    for name in ("cold_s", "cpu_s", "warm_s", "peak_rss_mb"):
        metrics[name] = statistics.median(r[name] for r in results)
    print(f"{runner.workload} {len(results)} measuring children; unscaled medians: "
          f"cold {statistics.median(r['cold_raw_s'] for r in results):.6g} s, "
          f"setup {statistics.median(r['setup_raw_s'] for r in results):.6g} s", file=sys.stderr)
    return metrics


def per_layer(runner: Runner, seconds: int) -> dict[str, float]:
    plain, traced, measured = [], [], 0.0
    while (measured < seconds or len(traced) < 2) and runner.time_left() > 0:
        result, wall = runner.measured({"mode": "run", "cli": not runner.attempted})
        measured += wall - (result or {}).get("cli_s", 0.0)
        if result is not None:
            plain.append(result)
        result, wall = runner.measured({"mode": "trace"})
        measured += wall
        if result is None:
            continue
        if traced and any(result["layers"][c] != traced[0]["layers"][c] for c in COUNT_METRICS):
            runner.failed += 1
            print(f"{runner.workload}: work counts differ between traced runs", file=sys.stderr)
            continue
        traced.append(result)
    if not plain or not traced:
        raise SystemExit("no child produced a result")
    metrics = {
        name: value if name in COUNT_METRICS else statistics.median(r["layers"][name] for r in traced)
        for name, value in traced[0]["layers"].items()
    }
    for name in CHECK_NAMES:
        metrics[f"check.{name}.ms"] = statistics.median(r["check_ms"].get(name, 0) for r in plain)
    metrics["trace.overhead_s"] = statistics.median(r["cold_s"] for r in traced) - statistics.median(
        r["cold_s"] for r in plain
    )
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "g2verify" / "__init__.py").is_file():
        print(f"no g2verify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())
    runner = Runner(args.workload, args.seed, digests)
    if args.trace:
        values, units = per_layer(runner, args.seconds), layer_units()
    else:
        values, units = end_to_end(runner, args.seconds), END_TO_END_UNITS
    for name, value in values.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(f"{args.workload} fail_frac = {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted} runs)", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
