"""Exact-arithmetic verification engine for the exceptional Lie algebra g2.

The package constructs g2 = V + sl3 + V^t over the rationals, its root
and Weyl combinatorics, an sl2-triple slice with a Whittaker-type
character, and the 7-dimensional representation with its invariant
quadric — then machine-checks two independent counts of 7: the relevant
slice orbits (6 base + 1 complementary) and the Borel orbits on the
quadric cone (6 T-fixed isotropic lines + the origin, cross-checked by a
finite-field orbit-labelling oracle).

The top level re-exports the entry points: the bracket and Killing form,
both orbit counts, the representation and its invariant form B, and the
report runner.  Every other name imports from its module, for example
``from g2verify.rep7_verifier import orbit_dimension``.
"""

from __future__ import annotations

from .exact_linalg import DenseMatrix
from .g2_algebra import BASIS, bracket, killing
from .rep7_verifier import build_rep7, count_orbits_mod_p, invariant_form
from .report_cli import Config, ConfigError, emit, run_suite
from .sampling import SmallRationalSampler
from .slice_verifier import count_relevant_orbits

__all__ = [
    "BASIS",
    "Config",
    "ConfigError",
    "DenseMatrix",
    "SmallRationalSampler",
    "bracket",
    "build_rep7",
    "count_orbits_mod_p",
    "count_relevant_orbits",
    "emit",
    "invariant_form",
    "killing",
    "run_suite",
]
