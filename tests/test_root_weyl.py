"""Root system, Weyl group, and polarization combinatorics.

Frozen facts: 12 roots (6 long, 6 short), a dihedral Weyl group of
order 12, exactly 12 valid polarizations forming a single free Weyl
orbit, a 6/6 partition by containment of -alpha, and the root-addition
lemma for non-proportional pairs with positive pairing.
"""

from hypothesis import given, settings, strategies as st

from g2verify.root_weyl import (
    ALPHA,
    BETA,
    GAMMA,
    Polarization,
    Root,
    WeylElement,
    all_polarizations,
    apply_weyl,
    base_positive_system,
    enumerate_roots,
    generate_weyl,
    reflection,
    verify_root_addition_lemma,
)

lattice_vectors = st.builds(
    Root,
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-6, max_value=6),
)


def test_twelve_roots_closed_under_negation() -> None:
    roots = enumerate_roots()
    assert len(roots) == 12
    assert len(set(roots)) == 12
    assert all(-r in set(roots) for r in roots)


def test_length_split_six_six() -> None:
    roots = enumerate_roots()
    assert sum(1 for r in roots if r.norm_sq() == 6) == 6
    assert sum(1 for r in roots if r.norm_sq() == 2) == 6


def test_named_roots() -> None:
    assert ALPHA.norm_sq() == 2
    assert BETA.norm_sq() == 6
    assert GAMMA == ALPHA.times(2) + BETA
    assert GAMMA.norm_sq() == 2
    roots = enumerate_roots()
    assert ALPHA in roots and BETA in roots and GAMMA in roots
    assert Root(0, 0) not in roots
    assert ALPHA.times(2) not in roots


@given(lattice_vectors, lattice_vectors)
@settings(max_examples=60, deadline=None)
def test_pairing_symmetric_and_bilinear(u: Root, v: Root) -> None:
    assert u.pairing(v) == v.pairing(u)
    assert (u + v).pairing(u + v) == u.norm_sq() + 2 * u.pairing(v) + v.norm_sq()


def test_weyl_group_order_twelve() -> None:
    weyl = generate_weyl()
    assert len(weyl) == 12
    assert len(set(weyl)) == 12
    assert WeylElement.identity() in weyl


def test_weyl_group_closed_and_invertible() -> None:
    weyl = set(generate_weyl())
    for w in weyl:
        for v in weyl:
            assert w.compose(v) in weyl
        assert any(w.compose(v) == WeylElement.identity() for v in weyl)


def test_weyl_elements_permute_roots_isometrically() -> None:
    roots = set(enumerate_roots())
    for w in generate_weyl():
        images = {w.apply(r) for r in roots}
        assert images == roots
        for r in roots:
            assert w.apply(r).norm_sq() == r.norm_sq()


def test_simple_reflections_are_involutions() -> None:
    for delta in (ALPHA, BETA):
        s = reflection(delta)
        assert s.compose(s) == WeylElement.identity()
        assert s.apply(delta) == -delta


def test_twelve_distinct_valid_polarizations() -> None:
    pols = all_polarizations()
    assert len(pols) == 12
    assert len(set(pols)) == 12
    for pol in pols:
        assert pol.is_valid()


def test_base_system_is_among_polarizations() -> None:
    assert base_positive_system() in set(all_polarizations())


def test_weyl_orbit_is_free() -> None:
    base = base_positive_system()
    images = {apply_weyl(w, base) for w in generate_weyl()}
    assert len(images) == 12


def test_neg_alpha_partition_six_six() -> None:
    neg_alpha = -ALPHA
    contain = sum(1 for pol in all_polarizations() if neg_alpha in pol)
    assert contain == 6


def _box_separable(pol: Polarization) -> bool:
    """The earlier separability test, kept as the reference: some integer
    functional (phi1, phi2) in [-25, 25]^2 is strictly positive on every root."""
    box = range(-25, 26)
    return any(
        all(phi1 * r.m1 + phi2 * r.m2 > 0 for r in pol.roots) for phi1 in box for phi2 in box
    )


def _addition_closed(roots: frozenset) -> bool:
    """No sum of two roots of the set is a root outside it."""
    all_roots = set(enumerate_roots())
    return not any(d + e in all_roots - roots for d in roots for e in roots)


def test_exactly_twelve_of_all_half_systems_are_valid() -> None:
    # Exhaust all 2^6 sign choices, one root from each opposite pair:
    # exactly the 12 Weyl images of the base system survive validation,
    # and validation agrees with the box search and with addition closure
    # on every one of the 64.
    roots = enumerate_roots()
    pairs = [r for r in roots if (r.m1, r.m2) > (-r.m1, -r.m2)]
    assert len(pairs) == 6
    valid = set()
    for mask in range(64):
        chosen = frozenset(
            pairs[k] if mask >> k & 1 else -pairs[k] for k in range(6)
        )
        pol = Polarization(chosen)
        assert pol.is_half_system()
        assert pol.is_valid() == _box_separable(pol) == _addition_closed(chosen), pol
        if pol.is_valid():
            valid.add(pol)
    assert valid == set(all_polarizations())


def test_polarization_validity_rejects_broken_sets() -> None:
    base = base_positive_system()
    # Flip (1,1) to (-1,-1): then (-1,0) + (-1,-1) = (-2,-1) is a root
    # outside the set, so addition closure fails.
    swapped = frozenset(
        -r if r == Root(1, 1) else r for r in base.sorted_roots
    )
    flipped = Polarization(swapped)
    assert flipped.is_half_system()
    assert Root(-1, 0) + Root(-1, -1) in set(enumerate_roots()) - swapped
    assert not _addition_closed(swapped)
    assert not flipped.is_valid()
    # Drop a root entirely: not a half-system.
    short = Polarization(frozenset(base.sorted_roots[1:]))
    assert not short.is_half_system()
    assert not short.is_valid()


def test_root_addition_lemma() -> None:
    assert verify_root_addition_lemma()


def test_root_addition_concrete_instances() -> None:
    # Negative pairing, non-opposite: the sum is again a root.
    assert ALPHA.pairing(Root(1, 1)) < 0
    assert ALPHA + Root(1, 1) in enumerate_roots()
    assert ALPHA.pairing(BETA) < 0
    assert ALPHA + BETA in enumerate_roots()
    # Root strings walk back to roots: gamma - alpha = alpha + beta.
    assert GAMMA - ALPHA in enumerate_roots()
    # Doubling never escapes the reduced system.
    assert ALPHA + ALPHA not in enumerate_roots()
