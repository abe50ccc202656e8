"""One measured g2verify run inside a fresh interpreter.

Started by run.py, one child at a time.  The single argument is a JSON
object: ``mode`` ("setup", "run" or "trace"), the workload ``config``
(suites, primes, samples, seed), ``warm`` (also time the same config
again in the same process, at least once and for at least WARM_MIN_S),
``cli`` (also check the `verify` command path) and ``probe`` (run a
SpeedProbe from before the import until the warm runs are over).  The
child prints one JSON line with what it measured.

- setup: import g2verify and report when the import returned.
- run:   cold `run_suite` + `emit(format="json")` with every cache still
         empty, then (with ``warm``) the same config again.
- trace: the cold run with every layer wrapped by spans.Tracer.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

WARM_MIN_S = 2.0
PROBE_PERIOD_S = 0.01
#: The probe's duration on the reference core; scaled times are seconds there.
PROBE_REF_S = 8.0e-5


_PROBE_STEP = Fraction(3, 7)


def _probe_work() -> None:
    """A little of both kinds of work g2verify spends its time on:
    `Fraction` arithmetic and a union-find over a Python list."""
    acc = Fraction(0)
    for i in range(1, 7):
        acc += Fraction(i, i + 1) * _PROBE_STEP
    parent = list(range(128))
    for i in range(1, 128):
        a, b = i, (i * 37) % 128
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        while parent[b] != b:
            parent[b] = parent[parent[b]]
            b = parent[b]
        if a != b:
            parent[a] = b


class SpeedProbe:
    """Samples, while the program runs, how fast this core does a fixed bit of work.

    On a shared host the speed of a core drifts by tens of percent within
    seconds, as other tenants load its sibling, and every measured time
    drifts with it.  Every PROBE_PERIOD_S a timer signal runs `_probe_work`
    twice and times the second pass.  `scaled` turns a time measured over
    a window into the time on a core where that pass takes PROBE_REF_S,
    using the passes timed inside the window, after taking the signal
    handler's own time out.  The program's work and output are unchanged:
    the handler touches nothing of g2verify.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        _probe_work()
        timed = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.samples.append(end - timed)
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def since(self, mark: tuple[int, float]) -> tuple[float, float]:
        """(speed, handler seconds) over the window opened by `mark`.

        speed is the mean of PROBE_REF_S over each timed pass in the window
        (or in the whole child, if the window saw none): the work a window
        does is its speed integrated over time, so speeds are averaged, not
        pass times.
        """
        count, spent = mark
        taken = self.samples[count:] or self.samples
        return PROBE_REF_S * sum(1 / t for t in taken) / len(taken), self.spent - spent

    def scaled(self, mark: tuple[int, float], seconds: float) -> float:
        speed, spent = self.since(mark)
        return (seconds - spent) * speed


def _exit_code(command, args: list[str]) -> int | str | None:
    try:
        command.main(args=args, prog_name="verify")
    except SystemExit as exc:
        return exc.code
    return 0


def _cli_check(report_cli, config, document: str) -> dict:
    """The `verify` entry point writes the same bytes and refuses --primes 4."""
    TMP.mkdir(exist_ok=True)
    out = TMP / f"report-{os.getpid()}.json"
    args = [
        "--suite", ",".join(config.suites),
        "--primes", ",".join(str(p) for p in config.primes),
        "--seed", str(config.seed),
        "--format", "json",
        "--out", str(out),
    ]
    if config.samples is not None:
        args += ["--samples", str(config.samples)]
    try:
        code = _exit_code(report_cli.main, args)
        same_bytes = out.is_file() and out.read_bytes() == document.encode("utf-8")
        out.unlink(missing_ok=True)

        suite_calls = []
        real_run_suite = report_cli.run_suite

        def counting_run_suite(cfg):
            suite_calls.append(cfg)
            return real_run_suite(cfg)

        report_cli.run_suite = counting_run_suite
        try:
            bad_code = _exit_code(report_cli.main, ["--primes", "4", "--format", "json", "--out", str(out)])
        finally:
            report_cli.run_suite = real_run_suite
        refused = bad_code == 2 and not suite_calls and not out.exists()
    finally:
        out.unlink(missing_ok=True)
        TMP.rmdir()
    return {"exit": code, "same_bytes": same_bytes, "bad_primes_exit": bad_code, "refused": refused}


def _timed_report(report_cli, config, probe: SpeedProbe | None) -> tuple:
    """Run and emit once: report, document, wall and CPU seconds, raw wall seconds.

    Wall and CPU seconds are scaled by `probe` when there is one.
    """
    mark = probe.mark() if probe else None
    wall0, cpu0 = time.perf_counter(), time.process_time()
    report = report_cli.run_suite(config)
    document = report_cli.emit(report, config)
    raw = wall = time.perf_counter() - wall0
    cpu = time.process_time() - cpu0
    if probe:
        wall, cpu = probe.scaled(mark, raw), probe.scaled(mark, cpu)
    return report, document, wall, cpu, raw


def main() -> int:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, str(SRC))
    probe = SpeedProbe() if job.get("probe") else None
    if probe:
        probe.start()
    import g2verify

    imported = time.monotonic()
    if not Path(g2verify.__file__).resolve().is_relative_to(SRC):
        print(f"g2verify imported from {g2verify.__file__}, not {SRC}", file=sys.stderr)
        return 2
    result: dict = {"imported": imported}
    if probe:
        result["setup_speed"], result["setup_probe_s"] = probe.since((0, 0.0))
    if job["mode"] == "setup":
        if probe:
            probe.stop()
        print(json.dumps(result))
        return 0

    from g2verify import report_cli

    spec = job["config"]
    config = report_cli.Config(
        suites=tuple(spec["suites"]), primes=tuple(spec["primes"]),
        samples=spec["samples"], seed=spec["seed"], format="json",
    )
    tracer = None
    if job["mode"] == "trace":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    report, document, cold_s, cpu_s, cold_raw_s = _timed_report(report_cli, config, probe)
    result.update(
        cold_s=cold_s,
        cold_raw_s=cold_raw_s,
        cpu_s=cpu_s,
        sha256=hashlib.sha256(document.encode("utf-8")).hexdigest(),
        not_passed=[c.name for c in report.checks if c.status != "pass"],
        headline=report.headline,
        check_ms={c.name: c.millis for c in report.checks},
    )
    if tracer is not None:
        result["layers"] = tracer.metrics()
    if job.get("warm"):
        warm, identical, started = [], True, time.perf_counter()
        while not warm or time.perf_counter() - started < WARM_MIN_S:
            _, warm_document, warm_s, _, _ = _timed_report(report_cli, config, probe)
            warm.append(warm_s)
            identical = identical and warm_document == document
        warm.sort()
        result.update(warm_s=warm[len(warm) // 2], warm_runs=len(warm), warm_identical=identical)
    if probe:
        probe.stop()
        result["probe_passes"] = len(probe.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if job.get("cli"):
        start = time.perf_counter()
        result["cli"] = _cli_check(report_cli, config, document)
        result["cli_s"] = time.perf_counter() - start
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
