"""The fault table: every fault injected into a `run_suite` run, one row each.

A row patches (module, attribute, make): the attribute becomes make(its
true value).  It names its Config and the caches it fills with true data
first, and states exactly which checks fail, each with its `actual`, and
which are skipped.  `run_faulted` (conftest) runs it from empty caches.
test_report_cli.py collects REPORT_CLI_FAULTS, so that those rows keep
the test ids they have there; this module collects TABLE_FAULTS.  The
ratchet at the end keeps the checks that no row fails in declared lists.
"""

import ast
import dataclasses
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from g2verify import g2_algebra as g2
from g2verify import rep7_verifier as rep7
from g2verify import report_cli
from g2verify import root_weyl as rw
from g2verify import slice_verifier as sv
from g2verify.report_cli import Config

from conftest import clear_caches, run_faulted, with_entry


class Fault(NamedTuple):
    test: str  # the test function that collects the row
    case: str | None  # its parametrize id; None for a test of one case
    config: Config
    patches: tuple  # (module, attribute, make)
    failed: dict  # every failed check, with its exact actual
    skipped: tuple | str = ()  # every skipped check, or REST: all but the failed
    # Caches filled from the true data before patching.  The structure
    # constants and the Gram are filled by default: a row that faults them
    # patches them, and a fill that hid a row's fault would fail its row.
    fill: tuple = (g2.killing_gram,)
    details: dict = {}  # exact details of some checks
    summary: dict | None = None
    headline: dict | None = None
    probes: tuple = ()  # (function, value): function() under the patches


def fixed(build):
    """A make: a function returning build(true attribute), built once."""

    def make(true):
        value = build(true)
        return lambda *args: value

    return make


def returning(value):
    """A make for data: the attribute becomes `value`."""
    return lambda _: value


def rho_entry(name: str, i: int, j: int, value: int) -> tuple:
    """The patch setting entry (i, j) of rho(name) to `value`."""
    k = g2.BASIS_NAMES.index(name)
    return (rep7, "build_rep7", fixed(lambda true: dataclasses.replace(true(), matrices=tuple(
        with_entry(m, i, j, value) if n == k else m for n, m in enumerate(true().matrices)
    ))))


def table_entries(*changes) -> tuple:
    """The patch adding t to the b_k coefficient of [x, y] in the structure
    constants, for each (x, y, k, t) with the basis vectors by name."""

    def build(true):
        table = [[dict(entry) for entry in row] for row in true()]
        for x, y, k, t in changes:
            i, j, k = map(g2.BASIS_NAMES.index, (x, y, k))
            table[i][j][k] = table[i][j].get(k, 0) + t
        return tuple(tuple(tuple((k, t) for k, t in sorted(e.items()) if t) for e in row)
                     for row in table)

    return (g2, "_bracket_table", fixed(build))


def slice_line(*names) -> tuple:
    """The patch typing l as the basis lines `names`."""
    return (sv, "L", returning(tuple(map(g2.BASIS_NAMES.index, names))))


def base_root(typed, mutant) -> tuple:
    """The patch replacing the root `typed` of the base positive system by `mutant`."""
    return (rw, "base_positive_system", fixed(
        lambda true: rw.Polarization(true().roots - {rw.Root(*typed)} | {rw.Root(*mutant)})
    ))


def _psi_bracket_one_at(x: str, y: str):
    pair = (g2.BASIS_NAMES.index(x), g2.BASIS_NAMES.index(y))
    return lambda true: lambda row, i, j: 1 if (i, j) == pair else true(row, i, j)


def _zeroed_kappa_column(true_slice_data):
    def slice_data(levels, ker_ad_f, kappa_ker, pieces):
        kappa_ker = tuple((0,) + row[1:] for row in kappa_ker)
        return true_slice_data(levels, ker_ad_f, kappa_ker, sv._omega_pieces(kappa_ker))

    return slice_data


def _non_antisymmetric_piece(true_pieces):
    def pieces(kappa_ker):
        first, *rest = true_pieces(kappa_ker)
        return (((first[0][0], first[0][1] + 1, *first[0][2:]), *first[1:]), *rest)

    return pieces


def _symmetric_omega(true):
    rows = [list(row) for row in true().omega.entries]
    for row in rows[7:]:
        row[:7] = [-x for x in row[:7]]
    return dataclasses.replace(true(), omega=rep7.DenseMatrix.from_rows(rows))


def _omega_a_bumped(true):
    first, *rest = true().moment
    assert all((i, j) != (0, 1) for i, j, _ in first)
    return dataclasses.replace(true(), moment=(((0, 1, 1),) + first, *rest))


LINEAR_FAST = Config(suites=("linear",), primes=(3,), samples=1)
ALGEBRA = Config(suites=("algebra",))
COMBINATORICS = Config(suites=("combinatorics",))
SLICE = Config(suites=("slice",))
REST = "rest"  # `skipped` when the failure skips every other check of the run
SLICE_BUILD = "error: StructureMismatchError: "
NO_FORM = "error: NoSolutionError: invariant-form solution space has dimension 0"
SIZES_DIFFER = "7 (orbit sizes do not match the T-fixed line dimensions)"
OFF_QUADRIC = "error: AssertionError: generator does not preserve the quadric"
CONE_MISSED_ONE = "error: AssertionError: the cone enumeration missed 1 of the quadric's points"
NOT_W_U6 = "error: InconsistentCriteriaError: S_w at w = [[-2,3],[-1,1]] is not w(u6's weights)"
#: What a wrong matrix of rho breaks besides its own checks.
ONE_RHO_MATRIX = {
    "linear.quadric_element.invariance": "13/14", "linear.invariant_form.invariance": "13/14",
    "linear.symplectic.invariance": "false",
}
OMEGA_DEPENDENTS = ("linear.phi_symplectomorphism", "linear.conormal_moment_equivalence")
CONSISTENCY = ("linear.count_orbits_mod_p.consistency",)
#: Everything that needs B, skipped when linear.invariant_form.values fails.
FORM_DEPENDENTS = (
    "linear.invariant_form.invariance", "linear.symplectic.invariance", *OMEGA_DEPENDENTS,
    "linear.tfixed_lines.count", "linear.tfixed_lines.orbit_dims",
    "linear.count_orbits_mod_p.p3", *CONSISTENCY,
)
RECORD_READERS = tuple(
    f"slice.count_relevant_orbits.{n}" for n in ("base", "complementary", "total")
)

REPORT_CLI_FAULTS = [
    Fault(  # C's entry at (u, u), 1 -> 2.
        "test_perturbed_quadric_element_fails_its_check", None, LINEAR_FAST,
        ((rep7, "quadric_element", fixed(lambda true: with_entry(true(), 6, 6, 2))),),
        {"linear.quadric_element.invariance": "8/14"},
    ),
    Fault(  # f3 . t~ = 2 w instead of w: one of the eight seed entries moves.
        "test_changed_seed_entry_fails_its_check", None, LINEAR_FAST, (rho_entry("f3", 1, 2, 2),),
        {"linear.rep7.seed_entries": "7/8", "linear.rep7.homomorphism": "79/91",
         "linear.quadric_element.invariance": "13/14", "linear.invariant_form.values": NO_FORM},
        FORM_DEPENDENTS,
    ),
    # rho(h_a) sends w into the line of v: h_a has weight (0, 0), so it must
    # keep every weight line, and the oracle's torus reads its diagonal.
    Fault(
        "test_off_diagonal_cartan_action_fails_weight_compatibility", None, LINEAR_FAST,
        (rho_entry("h_a", 0, 1, 1),),
        {"linear.rep7.homomorphism": "77/91", "linear.rep7.weight_compatibility": "false",
         **ONE_RHO_MATRIX,
         "linear.count_orbits_mod_p.p3": "error: ValueError: rho(h_a) is not diagonal"},
        OMEGA_DEPENDENTS + CONSISTENCY,
    ),
    # rho(E13) sends v into its own line: it is built from the generators, so
    # B, solved from f1, f2, f3 alone, stays right, and the orbit-dimension
    # checks pass.  The prime is fine, so the oracle raises a plain ValueError.
    Fault(
        "test_wrong_derived_rho_matrix_fails_the_checks_that_read_it", None, LINEAR_FAST,
        (rho_entry("E13", 0, 0, 1),),
        {"linear.rep7.homomorphism": "78/91", "linear.rep7.weight_compatibility": "false",
         **ONE_RHO_MATRIX,
         "linear.count_orbits_mod_p.p3":
             "error: ValueError: rho(E13) is not nilpotent of order <= 3"},
        OMEGA_DEPENDENTS + CONSISTENCY,
    ),
    # rho(f2) sends v to 7 t instead of t: a generator's own entry, so the
    # invariance rows of f1, f2, f3 leave no nonzero symmetric form.
    Fault(
        "test_wrong_generator_leaves_no_invariant_form", None, LINEAR_FAST,
        (rho_entry("f2", 5, 0, 7),),
        {"linear.rep7.homomorphism": "79/91", "linear.quadric_element.invariance": "13/14",
         "linear.invariant_form.values": NO_FORM},
        FORM_DEPENDENTS,
    ),
    # B's entry at (u, u), 4 -> 5.  The true symplectic doubling is cached
    # first, so no check can build omega from the perturbed form.
    Fault(
        "test_perturbed_invariant_form_fails_and_skips_dependents", None, LINEAR_FAST,
        ((rep7, "invariant_form", fixed(lambda true: with_entry(true(), 6, 6, 5))),),
        {"linear.invariant_form.values": "unexpected B[6][6] = 5"}, FORM_DEPENDENTS,
        fill=(rep7.build_symplectic14,), probes=((rep7.verify_invariant_form, 8),),
    ),
    Fault(  # [e1, f1] gains an h_a term that [f1, e1] does not lose.
        "test_perturbed_structure_constant_fails_and_skips_dependents", None, ALGEBRA,
        (table_entries(("e1", "f1", "h_a", 1)),), {"algebra.bracket.antisymmetry": "194/196"},
        ("algebra.bracket.jacobi", "algebra.killing.invariance"),
    ),
    *(
        Fault(
            "test_perturbed_table_entry_fails_slice_build", f"{x}-{y}-{extra}-{message}", SLICE,
            (table_entries((x, y, extra, 1)),), {"slice.build": SLICE_BUILD + message}, REST,
        )
        for x, y, extra, message in (
            # c[E23][E31] = E21: an extra f3 term takes u5 out of itself.
            ("E23", "E31", "f3", "u5 is not bracket-closed at (E23, E31)"),
            # [E21, e2] = 0: an extra e2 term keeps n_l closed, but ad E21
            # then fixes e2, so the lower central series never ends.
            ("E21", "e2", "e2", "n_l is not nilpotent"),
            # [E23, e2] = 0: an extra e3 term ties E23 to E32 in the conditions
            # that define s, whose kernel is then not spanned by basis vectors.
            ("E23", "e2", "e3", "s is not spanned by basis vectors"),
        )
    ),
    # n_l, s, u5 and u6 are derived from l, so a wrong line reaches their
    # closure checks.  <e3> is the other isotropic line of g_(-1): it passes
    # every test of l alone, and u6 = u5 + <f3> is not closed with it.
    *(
        Fault(
            "test_every_other_basis_line_as_l_fails_slice_build", line, SLICE, (slice_line(line),),
            {"slice.build": f"{SLICE_BUILD}{closed} is not bracket-closed at {pair}"}, REST,
        )
        for line, closed, pair in (
            ("e1", "n_l", "(e1, f1)"), ("e3", "u6", "(e3, f3)"), ("f1", "u6", "(f1, f3)"),
            ("f2", "n_l", "(f1, f2)"), ("f3", "n_l", "(f1, f3)"), ("E12", "n_l", "(f1, E12)"),
            ("E13", "n_l", "(f1, E13)"), ("E21", "u6", "(f1, f3)"), ("E23", "u6", "(f1, f3)"),
            ("E31", "u6", "(f1, f3)"), ("E32", "u6", "(f1, f3)"), ("h_a", "u6", "(f1, f3)"),
            ("h_b", "u6", "(f1, f3)"),
        )
    ),
    # gamma picks u6's last root vector, so a wrong root breaks u6's closure,
    # or moves u6's weights off the base positive system whose Weyl images
    # are the polarizations S_w.
    *(
        Fault(
            "test_every_other_root_as_gamma_fails_a_slice_check", repr(rw.Root(*root)), SLICE,
            ((rw, "GAMMA", returning(rw.Root(*root))),),
            *(({"slice.build": f"{SLICE_BUILD}u6 is not bracket-closed at {pair}"}, REST) if pair
              else ({"slice.relevancy_criteria_agreement": NOT_W_U6}, RECORD_READERS)),
        )
        for root, pair in (
            ((-3, -2), "(e2, E32)"), ((-3, -1), None), ((-2, -1), None), ((-1, -1), "(e2, f2)"),
            ((-1, 0), None), ((0, -1), "(e2, E12)"), ((0, 1), None), ((1, 0), "(e2, e1)"),
            ((1, 1), None), ((3, 1), "(f1, E13)"), ((3, 2), None),
        )
    ),
    # Each mutant is another valid chamber, so the polarization checks pass;
    # the S_w are then no longer the Weyl images of u6's weights.
    *(
        Fault(
            "test_base_system_mutants_fail_relevancy_agreement", f"{typed}-{mutant}",
            Config(suites=("combinatorics", "slice")), (base_root(typed, mutant),),
            {"slice.relevancy_criteria_agreement": NOT_W_U6}, RECORD_READERS,
            summary={"total": 18, "passed": 14, "failed": 1, "skipped": 3},
        )
        for typed, mutant in (((-3, -1), (3, 1)), ((2, 1), (-2, -1)))
    ),
    # kappa(b_i, k_0) = 0 for every i, read by the pieces too: K drops to
    # rank 5, and omega' at e has a zero row, so its even rank is at most 18.
    Fault(
        "test_zeroed_kappa_column_fails_omega_prime_rank", None, SLICE,
        ((sv, "_slice_data", _zeroed_kappa_column),),
        {"slice.omega_prime.rank_at_e": "18"}, ("slice.omega_prime.rank_at_samples",),
    ),
    Fault(  # One entry of A_0 (psi's piece) moves by 1, off its transpose's negative.
        "test_non_antisymmetric_piece_fails_omega_prime_rank", None, SLICE,
        ((sv, "_omega_pieces", _non_antisymmetric_piece),),
        {"slice.omega_prime.rank_at_e": "not antisymmetric"},
        ("slice.omega_prime.rank_at_samples",),
    ),
    # +1 on the h_a coefficient of [e1, f1] and -1 on that of [f1, e1]:
    # antisymmetry still holds, Jacobi does not.
    Fault(
        "test_antisymmetric_structure_constant_fault_fails_jacobi", None, ALGEBRA,
        (table_entries(("e1", "f1", "h_a", 1), ("f1", "e1", "h_a", -1)),),
        {"algebra.bracket.jacobi": "2660/2744"}, ("algebra.killing.invariance",),
    ),
    Fault(  # kappa(e1, h_a) plus 1, kept symmetric.
        "test_perturbed_killing_gram_fails_invariance", None, ALGEBRA,
        ((g2, "killing_gram", fixed(lambda true: tuple(
            tuple(x + ((i, j) in ((0, 12), (12, 0))) for j, x in enumerate(row))
            for i, row in enumerate(true())
        ))),),
        {"algebra.killing.invariance": "2710/2744"},
    ),
    # omega with its lower-left block negated, [[0, B], [B, 0]], is symmetric
    # and still of rank 14: only the sl2 raising operator's invariance rejects it.
    Fault(
        "test_symmetric_omega_fails_symplectic_invariance", None,
        Config(suites=("linear",), samples=1),
        ((rep7, "build_symplectic14", fixed(_symmetric_omega)),),
        {"linear.symplectic.invariance": "false"}, OMEGA_DEPENDENTS,
        summary={"total": 19, "passed": 16, "failed": 1, "skipped": 2},
    ),
    # The conormal forms are (i) <z', z'>, (ii) z^T B z', then (iii).  Without
    # (ii) every sample still agrees, since (iii) implies it on them, and only
    # the span of the forms tells.  Entry (0, 1) of the first omega A, plus 1,
    # gives its moment form an x_0 x_1 term.
    *(
        Fault(
            "test_conormal_and_moment_forms_must_span_one_space", case,
            Config(suites=("linear",), primes=(3,), samples=10),
            ((rep7, "_form_terms", fixed(bad)),),
            {"linear.conormal_moment_equivalence": f"{agree}/20 agree; form span ranks {ranks}"},
            details={"linear.conormal_moment_equivalence": {
                "membership_samples": 10, "random_samples": 10,
            }},
        )
        for case, bad, agree, ranks in (
            ("without_condition_ii", lambda true: dataclasses.replace(
                true(), conormal=true().conormal[:1] + true().conormal[2:]), 20, (9, 10, 10)),
            ("omega_a_bumped", _omega_a_bumped, 13, (10, 10, 11)),
        )
    ),
    Fault(  # f1 . v = 2 w instead of w: no representation extends the seed.
        "test_perturbed_rho_seed_entry_fails_and_skips_dependents", None, LINEAR_FAST,
        ((rep7, "_f1_matrix", fixed(lambda true: with_entry(true(), 1, 0, 2))),),
        {"linear.rep7.build":
             "error: NoSolutionError: representation constraint system is inconsistent"},
        REST,
    ),
    # Seven orbits summing to 3^6, the origin a singleton and every other size
    # even: only the link to the orbit dimensions 1..6 of the T-fixed lines,
    # which ask for sizes 2 * 3^(d-1), can reject it.
    Fault(
        "test_mod_p_orbit_sizes_must_match_tfixed_line_dimensions", None, LINEAR_FAST,
        ((rep7, "count_orbits_mod_p", fixed(lambda _: rep7.OrbitCountResult(
            point_count=729, orbit_count=7, orbit_sizes=(1, 2, 6, 18, 54, 216, 432),
            origin_orbit_size=1,
        ))),),
        {"linear.count_orbits_mod_p.p3": SIZES_DIFFER}, CONSISTENCY,
    ),
    # Six T-fixed lines of one orbit dimension need not lie in six orbits:
    # the line count still reads 6, but the headline must not claim 7.
    Fault(
        "test_linear_headline_needs_distinct_orbit_dimensions", None, LINEAR_FAST,
        ((report_cli, "_tfixed_line_dims", fixed(
            lambda _: {rep7.REP_LABELS[k]: 3 for k in rep7.tfixed_isotropic_lines()}
        )),),
        {"linear.tfixed_lines.orbit_dims": "collision",
         "linear.count_orbits_mod_p.p3": SIZES_DIFFER},
        CONSISTENCY, headline={"slice_total": None, "linear_total": None},
    ),
    # One vector short in the conormal fiber over the line v leaves the
    # stratum over v 6-dimensional, so the strata no longer count components.
    Fault(
        "test_stratum_dimension_mismatch_fails_orbit_dims", None, LINEAR_FAST,
        ((rep7, "conormal_fiber_basis",
          lambda true: lambda z: true(z)[: -1 if tuple(z) == (1, 0, 0, 0, 0, 0, 0) else None]),),
        {"linear.tfixed_lines.orbit_dims": "stratum v: 1 + 5 != 7"},
        details={"linear.tfixed_lines.orbit_dims": {
            "orbit_dims": {"v": 1, "w": 3, "t~": 5, "v~": 6, "w~": 4, "t": 2}
        }},
        headline={"slice_total": None, "linear_total": None},
    ),
    Fault(  # diag(2, 1, ..., 1) is no isometry of the quadric.
        "test_oracle_rejects_a_generator_off_the_quadric", None, LINEAR_FAST,
        ((rep7, "_torus_generators", fixed(
            lambda _: [np.diag([2, 1, 1, 1, 1, 1, 1]).astype(np.int64)]
        )),),
        {"linear.count_orbits_mod_p.p3": OFF_QUADRIC}, CONSISTENCY,
    ),
    Fault(
        "test_oracle_fails_on_a_cone_missing_one_point", None, LINEAR_FAST,
        ((rep7, "_cone_keys", lambda true: lambda p: true(p)[:-1]),),
        {"linear.count_orbits_mod_p.p3": CONE_MISSED_ONE}, CONSISTENCY,
    ),
]

TABLE_FAULTS = [
    # l = <e2, f1>: f1 sits in g_(-2), already inside n_l, so every closure
    # holds and the level test fires first; no single line does this.
    Fault(
        "test_fault", "l_outside_g_minus_1", SLICE, (slice_line("e2", "f1"),),
        {"slice.build": SLICE_BUILD + "l is not inside g_(-1)"}, REST,
    ),
    Fault(
        "test_fault", "l_not_isotropic", SLICE,
        ((sv, "_psi_bracket", _psi_bracket_one_at("e2", "e2")),),
        {"slice.build": SLICE_BUILD + "l is not isotropic for omega_{-1}"}, REST,
    ),
    # s and [s, n_l] are closed in every table that satisfies Jacobi; the
    # slice suite alone does not ask for it, so one entry reaches each raise.
    Fault(
        "test_fault", "s_not_closed", SLICE, (table_entries(("E23", "E23", "f1", 1)),),
        {"slice.build": SLICE_BUILD + "s is not bracket-closed at (E23, E23)"}, REST,
    ),
    Fault(
        "test_fault", "s_n_l_escapes", SLICE, (table_entries(("E23", "f1", "E23", 1)),),
        {"slice.build": SLICE_BUILD + "[s, n_l] escapes n_l at (E23, f1)"}, REST,
    ),
    Fault(  # h_b spans t', so only the t' + u5 family of the psi conditions reads this pair.
        "test_fault", "psi_on_t_prime", SLICE,
        ((sv, "_psi_bracket", _psi_bracket_one_at("h_b", "h_b")),),
        {"slice.psi_conditions": "false"},
    ),
    # e read as e2 once the slice data are built from e1: psi is e2's
    # Killing row, and ad e maps n_l elsewhere.
    Fault(
        "test_fault", "e_as_e2_after_build", SLICE, ((sv, "E", returning(g2.e2)),),
        {"slice.ml_formula": "false", "slice.omega_minus1": "false",
         "slice.relevancy_criteria_agreement": "error: InconsistentCriteriaError: relevancy "
         "criteria disagree at w = [[-2,3],[-1,2]]: psi-vanishing True, -alpha test False"},
        RECORD_READERS, (sv.build_slice_data,),
    ),
    # alpha read as -alpha once the chambers are built from the true alpha
    # (a patched alpha before that stops the Weyl closure, as in the next
    # row): the -alpha criterion of the relevancy count then disagrees with psi.
    Fault(
        "test_fault", "alpha_as_minus_alpha_after_the_chambers", SLICE,
        ((rw, "ALPHA", returning(rw.Root(-1, 0))),),
        {"slice.relevancy_criteria_agreement": "error: InconsistentCriteriaError: relevancy "
         "criteria disagree at w = [[-2,3],[-1,1]]: psi-vanishing True, -alpha test False"},
        RECORD_READERS, (rw.all_polarizations, g2.killing_gram),
    ),
    # alpha = a + b before the chambers: s_(a+b) and s_b generate an
    # infinite group, and the closure stops once it passes 12 elements.
    Fault(
        "test_fault", "alpha_as_a_plus_b", Config(suites=("combinatorics", "slice")),
        ((rw, "ALPHA", returning(rw.Root(1, 1))),),
        {"combinatorics.weyl.order": "error: ValueError: the Weyl closure exceeds 12 elements"},
        ("combinatorics.polarizations.count", "combinatorics.polarizations.valid",
         "combinatorics.polarizations.alpha_partition", "slice.relevancy_criteria_agreement",
         *RECORD_READERS),
    ),
    Fault(  # Every complementary orbit beside a relevant base orbit counts.
        "test_fault", "corrections_ignored", SLICE,
        ((sv, "_psi_ad_powers_vanish", returning(lambda row, a, v: True)),),
        {"slice.count_relevant_orbits.complementary": "2"}, ("slice.count_relevant_orbits.total",),
    ),
    Fault(  # Twice the Killing form is invariant and of rank 14; the Cartan norms halve.
        "test_fault", "killing_gram_doubled", ALGEBRA,
        ((g2, "killing_gram", fixed(lambda true: tuple(tuple(2 * x for x in r) for r in true()))),),
        {"algebra.killing.cartan_norms": "mismatch"},
    ),
    Fault(  # The zero form is invariant too, of rank 0.
        "test_fault", "killing_gram_zero", ALGEBRA,
        ((g2, "killing_gram", fixed(lambda true: ((0,) * 14,) * 14)),),
        {"algebra.killing.gram_rank": "0"}, ("algebra.killing.cartan_norms",),
    ),
    # kappa(e2, f1) plus 1, kept symmetric: e2 lies in m_l = n_l and f1 in
    # ker ad f, so m_l no longer pairs to 0 with ker ad f, and m_l-perp moves.
    Fault(
        "test_fault", "killing_gram_e2_f1", Config(suites=("algebra", "slice")),
        ((g2, "killing_gram", fixed(lambda true: tuple(
            tuple(x + ((i, j) in ((1, 3), (3, 1))) for j, x in enumerate(row))
            for i, row in enumerate(true())
        ))),),
        {"algebra.killing.invariance": "2712/2744", "slice.lemma_incl": "false",
         "slice.ml_formula": "false", "slice.contracting_weights": "false"},
    ),
    # [e2, e1] gains f2, which pairs with e2 in m_l: the Gram stays true, so
    # only the lemma's sweep over [x, y + e] sees it.
    Fault(
        "test_fault", "bracket_e2_e1_gains_f2", SLICE, (table_entries(("e2", "e1", "f2", 1)),),
        {"slice.lemma_incl": "false"},
    ),
    Fault(
        "test_fault", "roots_one_short", COMBINATORICS,
        ((rw, "enumerate_roots", fixed(lambda true: true()[:-1])),),
        {"combinatorics.roots.count": "11"}, REST,
    ),
    Fault(
        "test_fault", "weyl_one_short", COMBINATORICS,
        ((rw, "generate_weyl", fixed(lambda true: true()[:-1])),),
        {"combinatorics.weyl.order": "11"},
        ("combinatorics.polarizations.count", "combinatorics.polarizations.valid",
         "combinatorics.polarizations.alpha_partition"),
    ),
    Fault(  # A decremented vector k delta, |k| >= 2, then reads as a gap in a root string.
        "test_fault", "no_root_multiples", COMBINATORICS,
        ((rw, "_is_root_multiple", fixed(lambda true: False)),),
        {"combinatorics.root_addition_lemma": "false"},
    ),
    Fault(  # b -> -(2a + b) leaves a set with only six distinct Weyl images.
        "test_fault", "base_system_with_six_images", COMBINATORICS, (base_root((0, 1), (-2, -1)),),
        {"combinatorics.polarizations.count": "6"},
        ("combinatorics.polarizations.valid", "combinatorics.polarizations.alpha_partition"),
    ),
    Fault(  # 3a + 2b -> -(2a + b): no chamber, and -a lies in 8 of its 12 images.
        "test_fault", "base_system_off_the_chambers", COMBINATORICS, (base_root((3, 2), (-2, -1)),),
        {"combinatorics.polarizations.valid": "0/12",
         "combinatorics.polarizations.alpha_partition": "4/8"},
    ),
    Fault(  # rho(h_b) moves u off weight 0, so nothing has weight 0.
        "test_fault", "h_b_on_u", LINEAR_FAST, (rho_entry("h_b", 6, 6, 1),),
        {"linear.rep7.homomorphism": "80/91", "linear.rep7.zero_weight_space": "dim 0",
         **ONE_RHO_MATRIX},
        OMEGA_DEPENDENTS,
    ),
    Fault(  # Without E23 the g2-Borel tangent map loses a rank at v~.
        "test_fault", "borel_without_e23", LINEAR_FAST,
        ((rep7, "BOREL_G2_NAMES", returning(rep7.BOREL_G2_NAMES[:-1])),),
        {"linear.tfixed_lines.orbit_dims": "collision", "linear.orbit_dimension.examples": "0,1,5",
         "linear.count_orbits_mod_p.p3": SIZES_DIFFER},
        CONSISTENCY,
    ),
    Fault(
        "test_fault", "tfixed_lines_one_short", LINEAR_FAST,
        ((rep7, "tfixed_isotropic_lines", fixed(lambda true: true()[:-1])),),
        {"linear.tfixed_lines.count": "5", "linear.count_orbits_mod_p.p3": SIZES_DIFFER},
        ("linear.tfixed_lines.orbit_dims", *CONSISTENCY),
    ),
    Fault(
        "test_fault", "cone_missing_one_point_at_5_and_7",
        Config(suites=("linear",), primes=(5, 7), samples=1),
        ((rep7, "_cone_keys", lambda true: lambda p: true(p)[:-1]),),
        {"linear.count_orbits_mod_p.p5": CONE_MISSED_ONE,
         "linear.count_orbits_mod_p.p7": CONE_MISSED_ONE},
        CONSISTENCY,
    ),
]
FAULTS = REPORT_CLI_FAULTS + TABLE_FAULTS

#: Checks that no fault reaches; each one's source says why it stays.
WHY_IT_STAYS = {
    "algebra.exact_linalg.selftest": "its inputs are constant 2 x 2 matrices",
    "linear.phi_symplectomorphism": "its Kronecker half repeats build_symplectic14's own product",
    "linear.orbit_scaling_invariance":
        "two nonzero multiples of one vector have one rank under a map linear in the point",
    "linear.count_orbits_mod_p.consistency":
        "each prime's check read 7 from the same cached count first",
}
#: The other checks of the default run that no row fails yet.
NOT_YET_FAULTED = (
    "slice.count_relevant_orbits.base",
    "slice.count_relevant_orbits.total",
    "slice.omega_prime.rank_at_samples",
)


def check_fault(monkeypatch, fault: Fault) -> None:
    """Run the row and assert all it declares: exactly its failed checks,
    with their actuals, and exactly its skipped ones."""
    report, probed = run_faulted(
        monkeypatch, fault.config, fault.patches, fault.fill, [f for f, _ in fault.probes]
    )
    by_name = {c.name: c for c in report.checks}
    failed = {name: c.actual for name, c in by_name.items() if c.status == "fail"}
    skipped = {name for name, c in by_name.items() if c.status == "skipped"}
    assert failed == fault.failed and failed  # every row fails some check
    assert skipped == (set(by_name) - set(failed) if fault.skipped == REST else set(fault.skipped))
    assert {name: by_name[name].details for name in fault.details} == fault.details
    assert probed == tuple(value for _, value in fault.probes)
    if fault.summary is not None:
        assert report.summary == fault.summary
    if fault.headline is not None:
        assert report.headline == fault.headline


def _test(rows: list):
    """The test function of `rows`: plain for one row of case None, else
    parametrized by the rows' cases."""
    if rows[0].case is None:

        def test(monkeypatch):
            check_fault(monkeypatch, rows[0])

        return test

    @pytest.mark.parametrize("fault", rows, ids=[f.case for f in rows])
    def test(monkeypatch, fault):
        check_fault(monkeypatch, fault)

    return test


def collect(faults) -> dict:
    """The test functions of `faults`, by their `test` names."""
    names = dict.fromkeys(f.test for f in faults)
    return {name: _test([f for f in faults if f.test == name]) for name in names}


globals().update(collect(TABLE_FAULTS))


def test_every_check_without_a_row_is_declared() -> None:
    # A row that fails a declared check must take it off the list, and a
    # new check needs a row or a place on it.
    names = {spec.name for spec in report_cli._registry(Config())}
    faulted = {name for fault in FAULTS for name in fault.failed}
    assert faulted <= names
    assert set(WHY_IT_STAYS).isdisjoint(NOT_YET_FAULTED)
    assert names - faulted == set(WHY_IT_STAYS) | set(NOT_YET_FAULTED)


def _cache_clears(tree: ast.Module, allowed: str | None) -> list[int]:
    """Lines of the `.cache_clear()` calls in `tree` outside the function `allowed`."""
    inside = {
        id(node)
        for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == allowed
        for node in ast.walk(f)
    }
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "cache_clear" and id(node) not in inside
    ]


def test_only_clear_caches_empties_a_cache() -> None:
    tests = Path(__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in tests.glob("*.py")}
    found = {
        name: _cache_clears(ast.parse(text), "clear_caches" if name == "conftest.py" else None)
        for name, text in sources.items()
        if "cache_clear" in text  # a file without the word calls no cache_clear
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    # The walk itself finds a call outside the allowed function, in a nested one too.
    probe = "def clear_caches():\n    f.cache_clear()\n"
    probe += "def g():\n    def h():\n        f.cache_clear()\n"
    assert _cache_clears(ast.parse(probe), "clear_caches") == [5]


def test_clear_caches_finds_every_package_cache() -> None:
    assert sorted(clear_caches()) == sorted([
        "g2_algebra._bracket_table", "g2_algebra.killing_gram",
        "root_weyl.enumerate_roots", "root_weyl.generate_weyl", "root_weyl.all_polarizations",
        "slice_verifier.build_slice_data",
        "rep7_verifier.invariant_form", "rep7_verifier.build_rep7",
        "rep7_verifier.build_symplectic14", "rep7_verifier._form_terms",
        "rep7_verifier.count_orbits_mod_p",
    ])
