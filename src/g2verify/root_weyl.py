"""The G2 root system, its Weyl group, and polarization combinatorics.

Roots live in the rank-2 lattice with integer coordinates (m1, m2) in the
simple-root basis (alpha, beta).  The invariant lattice form is fixed by
(alpha, alpha) = 2, (beta, beta) = 6, (alpha, beta) = -3, which makes all
reflection matrices integral.  A polarization is a choice of half the
roots closed under addition; for G2 there are exactly 12 of them, one per
Weyl element.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache


@dataclass(frozen=True, order=True)
class Root:
    """A root (or lattice vector) m1*alpha + m2*beta, with integer m1, m2."""

    m1: int
    m2: int

    @property
    def coords(self) -> tuple[int, int]:
        return (self.m1, self.m2)

    def __add__(self, other: Root) -> Root:
        return Root(self.m1 + other.m1, self.m2 + other.m2)

    def __sub__(self, other: Root) -> Root:
        return Root(self.m1 - other.m1, self.m2 - other.m2)

    def __neg__(self) -> Root:
        return Root(-self.m1, -self.m2)

    def times(self, k: int) -> Root:
        return Root(k * self.m1, k * self.m2)

    def pairing(self, other: Root) -> int:
        """The invariant lattice form with (a,a)=2, (b,b)=6, (a,b)=-3."""
        return (
            2 * self.m1 * other.m1
            + 6 * self.m2 * other.m2
            - 3 * (self.m1 * other.m2 + self.m2 * other.m1)
        )

    def norm_sq(self) -> int:
        return self.pairing(self)

    def __repr__(self) -> str:
        return f"({self.m1},{self.m2})"


ALPHA = Root(1, 0)
BETA = Root(0, 1)
GAMMA = Root(2, 1)  # 2*alpha + beta, the highest short root


@cache
def enumerate_roots() -> tuple[Root, ...]:
    """The 12 roots of G2, in a fixed sorted order."""
    positive = [Root(1, 0), Root(0, 1), Root(1, 1), Root(2, 1), Root(3, 1), Root(3, 2)]
    roots = positive + [-r for r in positive]
    return tuple(sorted(roots))


@dataclass(frozen=True, order=True)
class WeylElement:
    """A 2x2 integer matrix acting on root coordinates (column convention)."""

    a11: int
    a12: int
    a21: int
    a22: int

    @classmethod
    def identity(cls) -> WeylElement:
        return cls(1, 0, 0, 1)

    def apply(self, r: Root) -> Root:
        return Root(self.a11 * r.m1 + self.a12 * r.m2, self.a21 * r.m1 + self.a22 * r.m2)

    def compose(self, other: WeylElement) -> WeylElement:
        """Matrix product self . other (apply `other` first)."""
        return WeylElement(
            self.a11 * other.a11 + self.a12 * other.a21,
            self.a11 * other.a12 + self.a12 * other.a22,
            self.a21 * other.a11 + self.a22 * other.a21,
            self.a21 * other.a12 + self.a22 * other.a22,
        )

    def __repr__(self) -> str:
        return f"[[{self.a11},{self.a12}],[{self.a21},{self.a22}]]"


def reflection(delta: Root) -> WeylElement:
    """The reflection s_delta(x) = x - 2 (x, delta)/(delta, delta) * delta."""
    nsq = delta.norm_sq()
    images = []
    for basis_vec in (ALPHA, BETA):
        num = 2 * basis_vec.pairing(delta)
        if num % nsq != 0:
            raise ValueError(f"non-integral reflection for {delta}")
        k = num // nsq
        images.append(basis_vec - delta.times(k))
    sa, sb = images
    return WeylElement(sa.m1, sb.m1, sa.m2, sb.m2)


@cache
def generate_weyl() -> tuple[WeylElement, ...]:
    """The Weyl group of G2: closure of the two simple reflections.

    Returns exactly 12 distinct elements in a fixed sorted order.  Two
    reflections that are not G2's simple ones may generate an infinite
    group, so the closure raises ValueError once it passes 12 elements.
    """
    gens = (reflection(ALPHA), reflection(BETA))
    seen = {WeylElement.identity()}
    frontier = [WeylElement.identity()]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                c = g.compose(w)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        if len(seen) > 12:
            raise ValueError("the Weyl closure exceeds 12 elements")
        frontier = nxt
    return tuple(sorted(seen))


@dataclass(frozen=True)
class Polarization:
    """A positive system: six roots, one from each opposite pair, closed
    under root addition, and separated by a linear functional."""

    roots: frozenset

    @property
    def sorted_roots(self) -> tuple[Root, ...]:
        return tuple(sorted(self.roots))

    def __contains__(self, r: Root) -> bool:
        return r in self.roots

    def is_half_system(self) -> bool:
        all_roots = enumerate_roots()
        return len(self.roots) == 6 and all(
            (r in self.roots) != (-r in self.roots) for r in all_roots
        )

    def is_valid(self) -> bool:
        """A half-system is separated by some functional exactly when
        <2 rho_S, .> is positive on it, 2 rho_S being the sum of its roots:
        for a positive system 2 rho_S is strictly dominant.  S is then the
        positive system of that functional, so it is closed under addition."""
        two_rho = sum(self.roots, Root(0, 0))
        return self.is_half_system() and all(two_rho.pairing(r) > 0 for r in self.roots)

    def __repr__(self) -> str:
        return "{" + ", ".join(repr(r) for r in self.sorted_roots) + "}"


def base_positive_system() -> Polarization:
    """The fixed base polarization {-3a-b, -a, b, a+b, 2a+b, 3a+2b}.

    These six roots are the torus weights of the six-dimensional nilpotent
    subalgebra u6 used on the slice side.
    """
    pol = Polarization(
        frozenset(
            {Root(-3, -1), Root(-1, 0), Root(0, 1), Root(1, 1), Root(2, 1), Root(3, 2)}
        )
    )
    if not pol.is_valid():
        raise AssertionError("base positive system failed validation")
    return pol


def apply_weyl(w: WeylElement, pol: Polarization) -> Polarization:
    return Polarization(frozenset(w.apply(r) for r in pol.roots))


@cache
def all_polarizations() -> tuple[Polarization, ...]:
    """All 12 polarizations, as the Weyl orbit of the base system.

    Indexed in the order of generate_weyl(): entry k is w_k(base).
    """
    base = base_positive_system()
    return tuple(apply_weyl(w, base) for w in generate_weyl())


def _is_root_multiple(v: tuple[int, int], root_set: set) -> bool:
    """True iff the coordinates v are k*delta for a root delta (in
    `root_set`, as coordinate pairs) and an integer |k| >= 2."""
    return any(
        v[0] % k == 0 and v[1] % k == 0 and (v[0] // k, v[1] // k) in root_set
        for k in range(2, 4)
    )


def verify_root_addition_lemma() -> bool:
    """Exhaustive rank-2 root-string check.

    For every pair of distinct, non-opposite roots (delta, epsilon) and all
    i, j >= 1 with i*delta + j*epsilon a root, both decremented vectors
    (i-1)*delta + j*epsilon and i*delta + (j-1)*epsilon must be roots or
    zero.  Decremented vectors that are integer multiples (|k| >= 2) of a
    single root are excluded, since they can only arise from non-reduced
    configurations.  The walk runs on coordinate pairs (m1, m2).
    """
    roots = [r.coords for r in enumerate_roots()]
    root_set = set(roots)
    for d1, d2 in roots:
        for e1, e2 in roots:
            if (e1, e2) in ((d1, d2), (-d1, -d2)):
                continue
            for i in range(1, 5):
                for j in range(1, 5):
                    t1, t2 = i * d1 + j * e1, i * d2 + j * e2
                    if (t1, t2) not in root_set:
                        continue
                    for cand in ((t1 - d1, t2 - d2), (t1 - e1, t2 - e2)):
                        if cand == (0, 0) or cand in root_set:
                            continue
                        if _is_root_multiple(cand, root_set):
                            continue
                        return False
    return True
