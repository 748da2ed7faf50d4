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
those permutations (Geometry.spread_keys); only the generators have
theirs memoised by Geometry.point_permutation.

The equivalence questions are answered on the flip classes of
goodsets.flip_classes, numbered in sorted order (flip_numbering).
label_action makes a collineation a permutation of the numbers, read off
point images, and label_group is G', the line stabilizer on the numbers,
closed once per Geometry by the loop that closes point permutations.
orbit_of maps each image of a good set to the first element of G' that
reaches it: the witness of are_equivalent and the orbits of classify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from spreadsmith.goodsets import (Candidate, GoodSet, enumerate_good_sets, flip_canonical,
                                  flip_classes, is_good)
from spreadsmith.proj_geometry import Collineation, tau_point
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


def _close(geo: Geometry, gens, moves) -> list[tuple[Collineation, tuple[int, ...]]]:
    """Breadth-first closure of gens, each acting by its permutation in
    moves, deduplicated by permutation: products are composed as
    permutations, and only a new one is composed as a collineation.  Each
    element comes with its permutation, in a deterministic order."""
    members = [(Collineation.identity(geo.spec), tuple(range(len(moves[0]))))]
    seen = {members[0][1]}
    for e, perm in members:
        for g, move in zip(gens, moves):
            image = tuple(map(move.__getitem__, perm))
            if image not in seen:
                seen.add(image)
                members.append((e.then(g), image))
    return members


def close_group(geo: Geometry, gens) -> list[tuple[Collineation, tuple[int, ...]]]:
    """The closure of gens acting on the subgeometry point ids (_close)."""
    return _close(geo, gens, [geo.point_permutation(g) for g in gens])


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


@memo
def flip_numbering(geo: Geometry) -> tuple[tuple[Candidate, ...], dict[Candidate, int]]:
    """The flip-class representatives in sorted order, and every candidate
    mapped to the position of its class's.  A numbered good set is the
    sorted tuple of its candidates' numbers."""
    classes = flip_classes(geo.lam)
    reps = tuple(sorted(set(classes.values())))
    number = {rep: i for i, rep in enumerate(reps)}
    return reps, {c: number[rep] for c, rep in classes.items()}


def label_action(geo: Geometry, psi: Collineation) -> tuple[int, ...]:
    """How an element of the line stabilizer permutes the numbered flip
    classes, read off point images: psi fixes r_U1, so the image pencil
    has the base point psi(point_P(a, u)) and the plane spanned by r_U1
    and psi(plane_point(a, v)).  An image pencil whose base point falls
    outside the I classes is read off through the subgeometry involution,
    which fixes r_U1 and maps the pencil to the same pencil of the
    distinguished subgeometry."""
    reps, number = flip_numbering(geo)
    n = geo.q + 1
    points = {(a, u): psi.apply_point(geo.point_P(a, u)) for a in geo.lam.I for u in range(n)}
    images = {(a, v): psi.apply_point(geo.plane_point(a, v)) for a in geo.lam.I for v in range(n)}
    out = []
    for a, u, v in reps:
        P, Q = points[a, u], images[a, v]
        lab = (geo.pencil_label(P, geo.r_U1_plane(Q))
               or geo.pencil_label(tau_point(geo.spec, geo.eta, P),
                                   geo.r_U1_plane(tau_point(geo.spec, geo.eta, Q))))
        assert lab is not None, f"pencil at {P} through {Q} not in the I classes"
        out.append(number[lab])
    return tuple(out)


def apply_label_action(perm: tuple[int, ...], gs: tuple[int, ...]) -> tuple[int, ...]:
    """The image of a numbered good set under a label action."""
    return tuple(sorted(map(perm.__getitem__, gs)))


@memo
def label_group(geo: Geometry) -> list[tuple[Collineation, tuple[int, ...]]]:
    """G', the line stabilizer acting on the numbered flip classes: each
    element an ambient representative with its label action, closed from
    the generators' label actions."""
    gens = stabilizer_gens(geo)
    return _close(geo, gens, [label_action(geo, psi) for psi in gens])


def orbit_of(geo: Geometry, gs) -> dict[GoodSet, Collineation]:
    """The orbit of a good set under the line stabilizer: each
    flip-canonical image mapped to the first element of label_group that
    carries gs to it, gs itself to the identity."""
    reps, number = flip_numbering(geo)
    start = tuple(sorted(map(number.__getitem__, gs)))
    orbit = {}
    for psi, perm in label_group(geo):
        orbit.setdefault(tuple(map(reps.__getitem__, apply_label_action(perm, start))), psi)
    return orbit


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
    return orbit_of(geo, gs1).get(flip_canonical(geo.lam, gs2))


@dataclass
class Orbit:
    representative: GoodSet
    size: int
    stabilizer_order: int


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
        orbits.append(Orbit(representative=gs, size=size, stabilizer_order=order // size))
    return OrbitReport(group_order=order, family_size=len(family_keys),
                       orbits=orbits,
                       bounds=lower_bound_formulas(geo.q, geo.spec.m))
