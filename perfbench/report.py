"""Print every benchmark metric of every workload, by name and with its unit.

    python3 perfbench/report.py --seed 7007 --seconds 25 [--out perfbench/points/NAME.json]

Runs run.py once per workload with --trace 0 (end-to-end metrics) and
once with --trace 1 (per-layer metrics of traced runs, whose work counts
run.py requires to repeat exactly), one run at a time.  fail_frac is the
failed runs over the attempted runs of both.  With --out, the numbers are
also written as a JSON trajectory point.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib import metadata

from run import HERE, ROOT, WORKLOADS


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7007)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--out", default=None, help="also write the numbers to this JSON file")
    args = parser.parse_args()

    point = {
        "machine": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "workloads": {},
    }
    for workload in WORKLOADS:
        plain = run_once(workload, args.seed, args.seconds, 0)
        traced = run_once(workload, args.seed, args.seconds, 1)
        attempted = plain["attempted"] + traced["attempted"]
        failed = plain["failed"] + traced["failed"]
        end_to_end = dict(plain["metrics"], fail_frac={"value": failed / attempted, "unit": "1"})
        point["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "end_to_end": end_to_end,
            "per_layer": traced["metrics"],
        }
        for section in ("end_to_end", "per_layer"):
            for name, m in point["workloads"][workload][section].items():
                print(f"{workload:8} {section:10} {name:52} {m['value']:>14.6g} {m['unit']}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(point, handle, indent=2)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
