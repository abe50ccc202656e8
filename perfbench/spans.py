"""Outside-in span recorder for the layers of g2verify.

`Tracer.install()` replaces, from outside the package, the public
module-level functions of each layer (and the names other g2verify
modules re-bind with ``from ... import``) plus five `DenseMatrix` methods
with wrappers that time each call.  Spans keep a stack so that each
call's self time excludes the wrapped calls it makes.  Everything stays
in memory; `metrics()` summarises it once the run is over.

Hot internals (`Fraction` operators, `UnionFind.find`/`union`, private
helpers) are deliberately not wrapped: their time is charged to the
nearest wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

LAYERS = (
    "exact_linalg",
    "g2_algebra",
    "root_weyl",
    "slice_verifier",
    "rep7_verifier",
    "report_cli",
)
DENSE_METHODS = {
    "__matmul__": "matmul",
    "mul_vec": "mul_vec",
    "__add__": "add",
    "transpose": "transpose",
    "scale": "scale",
}
ORACLE = "rep7_verifier.count_orbits_mod_p"

#: Per-layer metrics read from span statistics: name -> (span, field).
SPAN_METRICS = {
    "exact_linalg.rank.calls": ("exact_linalg.rank", "calls"),
    "exact_linalg.rank.s": ("exact_linalg.rank", "total"),
    "exact_linalg.kernel_basis.calls": ("exact_linalg.kernel_basis", "calls"),
    "exact_linalg.kernel_basis.s": ("exact_linalg.kernel_basis", "total"),
    "exact_linalg.solve_linear.calls": ("exact_linalg.solve_linear", "calls"),
    "exact_linalg.matmul.calls": ("exact_linalg.matmul", "calls"),
    "exact_linalg.matmul.s": ("exact_linalg.matmul", "total"),
    "exact_linalg.mul_vec.calls": ("exact_linalg.mul_vec", "calls"),
    "exact_linalg.mul_vec.s": ("exact_linalg.mul_vec", "total"),
    "g2_algebra.bracket.calls": ("g2_algebra.bracket", "calls"),
    "g2_algebra.bracket.s": ("g2_algebra.bracket", "total"),
    "g2_algebra.killing.calls": ("g2_algebra.killing", "calls"),
    "g2_algebra.killing.s": ("g2_algebra.killing", "total"),
    "g2_algebra.ad_matrix.calls": ("g2_algebra.ad_matrix", "calls"),
    "slice_verifier.build_slice_data.s": ("slice_verifier.build_slice_data", "total"),
    "slice_verifier.omega_prime_gram.calls": ("slice_verifier.omega_prime_gram", "calls"),
    "slice_verifier.omega_prime_gram.s": ("slice_verifier.omega_prime_gram", "total"),
    "rep7_verifier.build_rep7.s": ("rep7_verifier.build_rep7", "total"),
    "rep7_verifier.invariant_form.s": ("rep7_verifier.invariant_form", "total"),
    "rep7_verifier.conormal_conditions.s": ("rep7_verifier.conormal_conditions", "total"),
    "rep7_verifier.moment_zero_check.s": ("rep7_verifier.moment_zero_check", "total"),
    "rep7_verifier.sample_conormal_pair.s": ("rep7_verifier.sample_conormal_pair", "total"),
    "rep7_verifier.omega_pair.calls": ("rep7_verifier.omega_pair", "calls"),
    "rep7_verifier.orbit_dimension.calls": ("rep7_verifier.orbit_dimension", "calls"),
    "rep7_verifier.oracle.s": (ORACLE, "total"),
    "report_cli.emit_s": ("report_cli.emit", "total"),
}
ORACLE_PRIMES = (3, 5, 7)

#: Metrics that count work; two traced runs of one config must agree on them.
COUNT_METRICS = tuple(
    sorted(
        [name for name in SPAN_METRICS if name.endswith(".calls")]
        + ["exact_linalg.rank.cells", "rep7_verifier.oracle.points", "sampling.fraction.calls"]
    )
)


class Tracer:
    """In-memory span statistics for one traced run."""

    def __init__(self) -> None:
        # span name -> [calls, total seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self._open: list[float] = []  # child time of each open span
        self.rank_cells = 0
        self.draws = 0
        self.oracle_s: dict[int, float] = defaultdict(float)
        self.oracle_points = 0

    def _span(self, name: str, fn):
        stats = self.stats[name]
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner

        return span

    def _instrumented(self, name: str, fn):
        """`fn` plus the counters its span name calls for."""
        if name == "exact_linalg.rank":

            def rank(m, *args, **kwargs):
                self.rank_cells += m.rows * m.cols
                return fn(m, *args, **kwargs)

            return rank
        if name == ORACLE:

            def count_orbits_mod_p(p, *args, **kwargs):
                misses = fn.cache_info().misses
                start = perf_counter()
                result = fn(p, *args, **kwargs)
                self.oracle_s[p] += perf_counter() - start
                if fn.cache_info().misses > misses:  # the oracle really ran
                    self.oracle_points += result.point_count
                return result

            return count_orbits_mod_p
        return fn

    def install(self) -> None:
        """Wrap the layers of the already imported g2verify package."""
        package = importlib.import_module("g2verify")
        modules = [package] + [
            importlib.import_module(f"g2verify.{m}") for m in LAYERS + ("sampling",)
        ]
        wrapped: dict[int, tuple] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"g2verify.{layer}")
            for attr, obj in vars(module).items():
                public_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if attr.startswith("_") or not public_function:
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, self._span(name, self._instrumented(name, obj)))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])

        dense = importlib.import_module("g2verify.exact_linalg").DenseMatrix
        for method, short in DENSE_METHODS.items():
            setattr(dense, method, self._span(f"exact_linalg.{short}", getattr(dense, method)))

        sampler = importlib.import_module("g2verify.sampling").SmallRationalSampler
        draw = sampler.fraction

        @functools.wraps(draw)
        def fraction(sampler_self):
            self.draws += 1
            return draw(sampler_self)

        sampler.fraction = fraction

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run, except the `check.*` and `trace.*` ones."""
        fields = {"calls": 0, "total": 1}
        out = {
            metric: self.stats[span][fields[field]] if span in self.stats else 0
            for metric, (span, field) in SPAN_METRICS.items()
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s[2] for name, s in self.stats.items() if name.startswith(layer + ".")
            )
        out["exact_linalg.rank.cells"] = self.rank_cells
        for p in ORACLE_PRIMES:
            out[f"rep7_verifier.oracle.p{p}.s"] = self.oracle_s.get(p, 0.0)
        out["rep7_verifier.oracle.points"] = self.oracle_points
        oracle_s = out["rep7_verifier.oracle.s"]
        out["rep7_verifier.oracle.points_per_s"] = (
            self.oracle_points / oracle_s if oracle_s else 0.0
        )
        out["sampling.fraction.calls"] = self.draws
        return out
