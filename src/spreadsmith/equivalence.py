"""Collineations of the distinguished Baer subgeometry that stabilize the
Desarguesian spread and its distinguished line, equivalence testing of the
constructed parallelisms, and their orbit classification.

Collineations are stored as ambient semilinear maps of PG(3,q^2); two maps
inducing the same action on the subgeometry differ by the subgeometry
involution, so group elements are deduplicated by the permutation they
induce on the subgeometry's point ids.  Group orders therefore count
induced collineations, which is what the reference order
2 m q^2 (q^2-1) (q+1) speaks about.  A closed group keeps each element's
point permutation next to the element, and callers act on spreads with
those permutations (Geometry.spread_keys); only the identity and the
generators have theirs memoised by Geometry.point_permutation.

The searches act on the candidate flip classes of goodsets.flip_classes:
label_action makes a collineation a permutation of their representatives,
reading each image pencil off two point images, and orbit_of,
are_equivalent and classify carry flip-canonical good sets along the
generators' permutations with apply_label_action.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
import math

from spreadsmith.goodsets import (Candidate, GoodSet, enumerate_good_sets, flip_canonical,
                                  flip_classes, is_good)
from spreadsmith.proj_geometry import Collineation
from spreadsmith.spreads import Geometry, memo


# ---------------------------------------------------------------------------
# generators and closure


def _block_pair(geo: Geometry, m2) -> Collineation:
    """diag(M, M^(q)) for M in GL(2,q^2): stabilizes every Baer component
    of the spread union."""
    s = geo.spec
    (a, b), (c, d) = m2
    f = s.frobenius
    mat = ((a, b, 0, 0),
           (c, d, 0, 0),
           (0, 0, f(a), f(b)),
           (0, 0, f(c), f(d)))
    return Collineation.linear(s, mat)


def _swap_iota(geo: Geometry) -> Collineation:
    s = geo.spec
    return Collineation.linear(s, ((0, 0, 1, 0), (0, 0, 0, 1),
                                   (1, 0, 0, 0), (0, 1, 0, 0)))


def stabilizer_gens(geo: Geometry) -> list[Collineation]:
    """Generators of the stabilizer of the Desarguesian spread and the
    distinguished line: upper-triangular block pairs, the transversal swap,
    and the coordinatewise p-power."""
    g = geo.spec.generator
    return [
        _block_pair(geo, ((g, 0), (0, 1))),
        _block_pair(geo, ((1, 0), (0, g))),
        _block_pair(geo, ((1, 1), (0, 1))),
        _swap_iota(geo),
        Collineation.frobenius(geo.spec, 1),
    ]


def full_stabilizer_gens(geo: Geometry) -> list[Collineation]:
    """Generators of the full spread stabilizer (line not fixed): add the
    lower unitriangular block pair."""
    return stabilizer_gens(geo) + [_block_pair(geo, ((1, 0), (1, 1)))]


@dataclass
class StabilizerGroup:
    generators: list[Collineation]
    elements: list[Collineation]          # one ambient representative per induced map
    perms: list[tuple[int, ...]]          # the point permutation of each element
    formula_order: int

    @property
    def order(self) -> int:
        return len(self.elements)


def close_group(geo: Geometry, gens) -> list[tuple[Collineation, tuple[int, ...]]]:
    """Breadth-first closure under composition, deduplicating by the
    permutation each element induces on the subgeometry points: products
    are composed as permutations, and only a new one is composed as a
    collineation.  Each element comes with its permutation, in a
    deterministic order."""
    ident = Collineation.identity(geo.spec)
    members = [(ident, geo.point_permutation(ident))]
    seen = {members[0][1]}
    moves = [geo.point_permutation(g) for g in gens]
    for e, perm in members:
        for g, move in zip(gens, moves):
            image = tuple(map(move.__getitem__, perm))
            if image not in seen:
                seen.add(image)
                members.append((e.then(g), image))
    return members


def _closed_group(geo: Geometry, gens, formula_order: int) -> StabilizerGroup:
    elements, perms = zip(*close_group(geo, gens))
    return StabilizerGroup(gens, list(elements), list(perms), formula_order)


def stabilizer_order(geo: Geometry) -> int:
    """The order 2 m q^2 (q^2-1) (q+1) of the line stabilizer."""
    return 2 * geo.spec.m * geo.q**2 * (geo.q**2 - 1) * (geo.q + 1)


@memo
def stabilizer_group(geo: Geometry) -> StabilizerGroup:
    """Closure of the line-stabilizer generators; its order must equal
    stabilizer_order."""
    return _closed_group(geo, stabilizer_gens(geo), stabilizer_order(geo))


@memo
def full_stabilizer_group(geo: Geometry) -> StabilizerGroup:
    """The full spread stabilizer: q^2+1 times the line stabilizer."""
    return _closed_group(geo, full_stabilizer_gens(geo),
                         stabilizer_order(geo) * (geo.q**2 + 1))


# ---------------------------------------------------------------------------
# induced action on pencil labels


def label_action(geo: Geometry, psi: Collineation) -> dict[Candidate, Candidate]:
    """How an element of the line stabilizer permutes the representatives
    of the candidate flip classes, read off point images: psi fixes r_U1,
    so the image pencil has the base point psi(point_P(a, u)) and the plane
    spanned by r_U1 and psi(plane_point(a, v)).  An image pencil whose base
    point falls outside the I classes is read off through the subgeometry
    involution, which fixes r_U1 and maps the pencil to the same pencil of
    the distinguished subgeometry."""
    classes = flip_classes(geo.lam)
    out = {}
    n = geo.q + 1
    for a in geo.lam.I:
        images = [psi.apply_point(geo.plane_point(a, v)) for v in range(n)]
        planes = list(map(geo.r_U1_plane, images))
        for u in range(n):
            P = psi.apply_point(geo.point_P(a, u))
            for v, pl in enumerate(planes):
                rep = Candidate(a, u, v)
                if classes[rep] != rep:
                    continue
                lab = geo.pencil_label(P, pl)
                if lab is None:
                    lab = geo.pencil_label(geo.tau_eta_point(P),
                                           geo.r_U1_plane(geo.tau_eta_point(images[v])))
                assert lab is not None, f"pencil {P}, {pl} not in the I classes"
                out[rep] = classes[lab]
    return out


def apply_label_action(perm: dict[Candidate, Candidate], gs: GoodSet) -> GoodSet:
    """The image of a flip-canonical good set under a label action."""
    return tuple(sorted(map(perm.__getitem__, gs)))


@memo
def label_group(geo: Geometry) -> list[dict[Candidate, Candidate]]:
    """The line-stabilizer generators as permutations of the candidate flip
    classes."""
    return [label_action(geo, psi) for psi in stabilizer_gens(geo)]


def orbit_of(geo: Geometry, gs) -> dict[GoodSet, tuple[GoodSet, int] | None]:
    """The orbit of a good set under the line stabilizer, by breadth-first
    search over the label group: each flip-canonical image mapped to the
    member it was first reached from and the index of the generator that
    reached it, the start to None."""
    start = flip_canonical(geo.lam, gs)
    parent = {start: None}
    queue = [start]
    for x in queue:
        for i, perm in enumerate(label_group(geo)):
            y = apply_label_action(perm, x)
            if y not in parent:
                parent[y] = (x, i)
                queue.append(y)
    return parent


# ---------------------------------------------------------------------------
# equivalence and classification


def are_equivalent(geo: Geometry, gs1, gs2) -> Collineation | None:
    """Search the line stabilizer for a witness mapping the parallelism of
    one good set to that of the other; sound and complete for the
    parallelisms built from good sets.  A set that is not good is a
    ValueError."""
    for gs in (gs1, gs2):
        if not is_good(geo.lam, gs):
            raise ValueError("label set is not a good set")
    parent = orbit_of(geo, gs1)
    g2 = flip_canonical(geo.lam, gs2)
    if g2 not in parent:
        return None
    gens = stabilizer_gens(geo)
    path = []
    while parent[g2] is not None:
        g2, i = parent[g2]
        path.append(gens[i])
    return reduce(Collineation.then, reversed(path), Collineation.identity(geo.spec))


@dataclass
class Orbit:
    representative: GoodSet
    size: int
    stabilizer_order: int
    family_count: int


@dataclass
class OrbitReport:
    group_order: int
    family_size: int
    orbits: list[Orbit]
    bounds: dict[str, Fraction]

    @property
    def orbit_count(self):
        return len(self.orbits)


def lower_bound_formulas(q: int, m: int) -> dict[str, Fraction]:
    """The published lower bounds on the number of inequivalent
    parallelisms, evaluated exactly (they may be fractional)."""
    h = m
    out: dict[str, Fraction] = {}
    if q % 2 == 0:
        base = Fraction(math.factorial(q - 2), 2 * h * q * (q + 1))
        out["even_printed"] = Fraction(q - 1, 2) ** (q + 1) * base
        out["even_I_based"] = Fraction(q - 2, 2) ** (q + 1) * base
    else:
        tail = Fraction((q * q - 1) ** ((q - 1) // 2), 2 * h * q * q * (q + 1))
        if q % 4 == 1:
            out["odd_1_mod_4"] = Fraction((q - 5) * (q - 1), 16) ** ((q + 1) // 2) * tail
        else:
            out["odd_3_mod_4"] = Fraction(q - 3, 4) ** (q + 1) * tail
    return out


def classify(geo: Geometry) -> OrbitReport:
    """Orbit partition of the parallelisms built from good sets under the
    line stabilizer: the flip classes of the enumerated good sets, good by
    construction.  Orbits are reported with exact sizes and stabilizer
    orders from the orbit-stabilizer relation, each represented by its
    least member and in the order of those."""
    family_keys = {flip_canonical(geo.lam, gs) for gs in enumerate_good_sets(geo.lam)}
    order = stabilizer_order(geo)
    seen = set()
    orbits = []
    for gs in sorted(family_keys):
        if gs in seen:
            continue
        orbit = orbit_of(geo, gs).keys()
        if not orbit <= family_keys:
            raise AssertionError("an orbit leaves the good sets: the label "
                                 "actions do not map good sets to good sets")
        seen.update(orbit)
        size = len(orbit)
        assert order % size == 0
        orbits.append(Orbit(representative=gs, size=size, stabilizer_order=order // size,
                            family_count=size))
    return OrbitReport(group_order=order, family_size=len(family_keys),
                       orbits=orbits,
                       bounds=lower_bound_formulas(geo.q, geo.spec.m))
