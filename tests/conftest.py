"""Shared fault injections, references and conversions, and the one reset
of the package's caches."""

import importlib
import pkgutil
from fractions import Fraction

import pytest

import g2verify
from g2verify import g2_algebra as g2
from g2verify import slice_verifier as sv
from g2verify.exact_linalg import DenseMatrix
from g2verify.g2_algebra import BASIS, DIM, G2Element, bracket, killing
from g2verify.report_cli import run_suite
from g2verify.sampling import cleared


def _package_caches() -> dict:
    """Every cache a g2verify module defines, by "module.name": the module
    attributes with a `cache_clear`, found by walking the package."""
    found = {}
    for info in pkgutil.iter_modules(g2verify.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"{g2verify.__name__}.{info.name}")
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and value.__module__ == module.__name__:
                found[f"{info.name}.{value.__name__}"] = value
    return found


#: Found once, so that a test which patches a cached function away still
#: clears the true one.
_CACHES = _package_caches()


def clear_caches() -> tuple[str, ...]:
    """Empty every package cache; the names of the caches emptied.  This is
    the only place the tests clear a cache: a cache filled while a datum
    was patched keeps what it read, so every reset empties them all."""
    for cached in _CACHES.values():
        cached.cache_clear()
    return tuple(_CACHES)


def run_faulted(monkeypatch, config, patches, fill, probes):
    """run_suite(config) under `patches`, (module, attribute, make) each:
    the attribute becomes make(its true value).  The caches are emptied
    first, those in `fill` are filled from the true data, and they are
    emptied again once the patches are undone.  Returns the report and the
    value of each probe, called under the patches before the run."""
    clear_caches()
    for cached in fill:
        cached()
    try:
        for module, name, make in patches:
            monkeypatch.setattr(module, name, make(getattr(module, name)))
        values = tuple(probe() for probe in probes)
        return run_suite(config), values
    finally:
        monkeypatch.undo()
        clear_caches()


def clear(values) -> list[int]:
    """The rationals `values` times the lcm of their reduced denominators:
    integers in the same proportions, the form every point and row takes
    in the package."""
    return cleared([(x.numerator, x.denominator) for x in map(Fraction, values)])


def slice_coords(point) -> tuple:
    """The rational slice coordinates c_j = w_j / w_0 of the homogeneous
    point (w_0, ..., w_6) that `omega_prime_rank` takes."""
    return tuple(Fraction(w, point[0]) for w in point[1:])


def is_zero(m: DenseMatrix) -> bool:
    """Whether every entry of `m` is zero."""
    return not any(map(any, m.entries))


def with_entry(m: DenseMatrix, i: int, j: int, value) -> DenseMatrix:
    """`m` with entry (i, j) set to `value`."""
    rows = [list(row) for row in m.entries]
    rows[i][j] = value
    return DenseMatrix.from_rows(rows)


@pytest.fixture
def bracket_with_extra_h_a(monkeypatch):
    """Patch g2.bracket by the antisymmetric bilinear term
    (x_e1 y_f1 - x_f1 y_e1) h_a: +1 on the h_a coefficient of [e1, f1] and
    -1 on that of [f1, e1].  Antisymmetry still holds; Jacobi does not.
    The structure-constant table is the patched bracket's, and the Gram the
    true one, filled before; every cache is emptied on teardown."""
    clear_caches()
    g2.killing_gram()
    true_bracket = g2.bracket

    def bad_bracket(x, y):
        coords = list(true_bracket(x, y).coords)
        coords[12] += x.coords[0] * y.coords[3] - x.coords[3] * y.coords[0]
        return g2.G2Element(tuple(coords))

    monkeypatch.setattr(g2, "bracket", bad_bracket)
    table = g2.bracket_table.__wrapped__()  # built through the patched bracket, uncached
    monkeypatch.setattr(g2, "bracket_table", lambda: table)
    yield
    clear_caches()


def _reference_omega_prime_rows(point) -> list[list[int]]:
    """The 20x20 Gram of omega' entry by entry through `killing` and
    `bracket`, at the integer point x = w_0 e + sum w_j k_j of the
    homogeneous slice point (w_0, ..., w_6) that `omega_prime_rank` takes:
    the algebra directions first, then the six slice directions.  With A
    and K the rational Gram's blocks at c_j = w_j / w_0, this is
    [[w_0 A, -K], [K^T, 0]] = diag(w_0 I, I) . Gram . diag(I, I / w_0),
    of the Gram's rank, and antisymmetric exactly when the Gram is."""
    kernel = [G2Element(v) for v in sv.build_slice_data().ker_ad_f]
    x = sv.E.scale(point[0])
    for w, kv in zip(point[1:], kernel):
        x = x + kv.scale(w)
    n = DIM + len(kernel)
    rows = [[0] * n for _ in range(n)]
    for i in range(DIM):
        for j in range(DIM):
            rows[i][j] = -killing(x, bracket(BASIS[i], BASIS[j]))
        for j, kv in enumerate(kernel):
            rows[i][DIM + j] = -killing(BASIS[i], kv)
            rows[DIM + j][i] = killing(BASIS[i], kv)
    return rows


@pytest.fixture
def reference_omega_prime_rows():
    """The entry-by-entry omega' Gram at a homogeneous slice point, as rows."""
    return _reference_omega_prime_rows


@pytest.fixture
def reference_omega_prime_gram():
    """The entry-by-entry omega' Gram at a homogeneous slice point, as a
    matrix: the witness for `omega_prime_rank`."""
    return lambda point: DenseMatrix.from_rows(_reference_omega_prime_rows(point))
