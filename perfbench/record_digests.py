"""Record the sha256 of each workload's JSON report for every benchmark seed.

    python3 perfbench/record_digests.py

Writes digests.json next to this file.  The digests are the benchmark's
behaviour lock: run.py fails any run whose report differs from them, so
re-record only on purpose, never to make a failing run pass.
"""

from __future__ import annotations

import hashlib
import json
import sys

from run import DIGESTS, ROOT, WORKLOADS

TUNING_SEEDS = list(range(20))
HELD_OUT_SEED = 7007  # kept out of tuning; use it to check a claimed gain


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from g2verify.report_cli import Config, emit, run_suite

    sha256 = {}
    for workload, spec in WORKLOADS.items():
        sha256[workload] = {}
        for seed in TUNING_SEEDS + [HELD_OUT_SEED]:
            c = spec["config"]
            config = Config(
                suites=tuple(c["suites"]), primes=tuple(c["primes"]),
                samples=c["samples"], seed=seed, format="json",
            )
            report = run_suite(config)
            if report.summary["passed"] != report.summary["total"]:
                raise SystemExit(f"{workload} seed {seed}: not every check passed")
            document = emit(report, config)
            sha256[workload][str(seed)] = hashlib.sha256(document.encode("utf-8")).hexdigest()
            print(workload, seed, sha256[workload][str(seed)], flush=True)
    DIGESTS.write_text(json.dumps(
        {"tuning_seeds": TUNING_SEEDS, "held_out_seed": HELD_OUT_SEED, "sha256": sha256},
        indent=2,
    ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
