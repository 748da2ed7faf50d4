"""Collineations of the distinguished Baer subgeometry that stabilize the
Desarguesian spread and its distinguished line, equivalence testing of the
constructed parallelisms, and orbit classification of small families.

Collineations are stored as ambient semilinear maps of PG(3,q^2); two maps
inducing the same action on the subgeometry differ by the subgeometry
involution, so group elements are deduplicated by the minimum of the two
canonical keys.  Group orders therefore count induced collineations, which
is what the reference order 2 m q^2 (q^2-1) (q+1) speaks about.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
import math

from spreadsmith.field_tower import LambdaSystem
from spreadsmith.goodsets import Candidate, GoodSet, canonical, flip_canonical, is_good
from spreadsmith.parallelisms import Parallelism, characterize
from spreadsmith.proj_geometry import Collineation, normalize, tau_plane
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
    order: int
    formula_order: int | None = None


def close_group(geo: Geometry, gens) -> list[Collineation]:
    """Breadth-first closure under composition, deduplicating by induced
    action on the subgeometry.  Deterministic element order."""
    spec = geo.spec
    m, norm, f = spec.m, spec.norm(geo.eta), spec.frobenius
    ident = Collineation.identity(spec)

    def key(c):
        # c then tau_eta: the q-Frobenius of c's matrix with its row pairs
        # swapped and the moved-down pair scaled by N(eta)
        a, b, c2, d = c.matrix
        twin = [f(x) for x in c2 + d] + [spec.mul(norm, f(x)) for x in a + b]
        return min(c.canonical_key(),
                   ((c.twist + m) % (2 * m),) + normalize(spec, twin))

    seen = {key(ident)}
    elements = [ident]
    for e in elements:
        for g in gens:
            n = e.then(g)
            k = key(n)
            if k not in seen:
                seen.add(k)
                elements.append(n)
    return elements


def stabilizer_order(geo: Geometry) -> int:
    """The order 2 m q^2 (q^2-1) (q+1) of the line stabilizer."""
    return 2 * geo.spec.m * geo.q**2 * (geo.q**2 - 1) * (geo.q + 1)


@memo
def stabilizer_group(geo: Geometry) -> StabilizerGroup:
    """Closure of the line-stabilizer generators; its order must equal
    stabilizer_order."""
    gens = stabilizer_gens(geo)
    elements = close_group(geo, gens)
    return StabilizerGroup(generators=gens, elements=elements,
                           order=len(elements), formula_order=stabilizer_order(geo))


@memo
def full_stabilizer_group(geo: Geometry) -> StabilizerGroup:
    gens = full_stabilizer_gens(geo)
    elements = close_group(geo, gens)
    q, m = geo.q, geo.spec.m
    return StabilizerGroup(generators=gens, elements=elements,
                           order=len(elements),
                           formula_order=2 * m * q * q * (q**4 - 1) * (q + 1))


# ---------------------------------------------------------------------------
# induced action on pencil labels


def label_action(geo: Geometry, psi: Collineation) -> dict[Candidate, Candidate]:
    """How an element of the line stabilizer permutes pencil labels.  An
    image pencil whose base point falls outside the I classes is read off
    through the subgeometry involution, which maps it to the same pencil
    of the distinguished subgeometry."""
    out = {}
    n = geo.q + 1
    for a in geo.lam.I:
        planes = [psi.apply_plane(geo.plane_pi(a, v)) for v in range(n)]
        for u in range(n):
            P = psi.apply_point(geo.point_P(a, u))
            for v, pl in enumerate(planes):
                lab = geo.pencil_label(P, pl)
                if lab is None:
                    lab = geo.pencil_label(geo.tau_eta_point(P),
                                           tau_plane(geo.spec, geo.eta, pl))
                assert lab is not None, f"pencil {P}, {pl} not in the I classes"
                out[Candidate(a, u, v)] = lab
    return out


def apply_label_action(lam: LambdaSystem, act: dict[Candidate, Candidate],
                       gs) -> GoodSet:
    return flip_canonical(lam, tuple(act[Candidate(*c)] for c in gs))


@memo
def label_group(geo: Geometry) -> list[dict[Candidate, Candidate]]:
    """The line-stabilizer generators as permutations of the candidate flip
    classes, each class named by its flip-canonical candidate."""
    acts = [label_action(geo, psi) for psi in stabilizer_gens(geo)]
    cls = {c: flip_canonical(geo.lam, (c,))[0] for c in acts[0]}
    return [{c: cls[img] for c, img in act.items() if cls[c] == c} for act in acts]


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
            y = tuple(sorted(perm[c] for c in x))
            if y not in parent:
                parent[y] = (x, i)
                queue.append(y)
    return parent


# ---------------------------------------------------------------------------
# equivalence and classification


def _as_canonical_goodset(geo: Geometry, obj) -> GoodSet:
    """Accept a Parallelism of the constructed family, a raw spread list,
    or a good set; reject anything outside the family the search is sound
    for."""
    from spreadsmith.spreads import Spread

    if not isinstance(obj, Parallelism) and any(isinstance(x, Spread) for x in obj):
        obj = Parallelism(spreads=tuple(obj), desarguesian_index=-1)
    if isinstance(obj, Parallelism):
        if obj.source is not None:
            gs = obj.source
        else:
            res = characterize(geo, obj)
            if not res.ok:
                raise ValueError(f"parallelism outside the searched family: {res.reason}")
            gs = res.good_set
    else:
        gs = canonical(obj)
        verdict = is_good(geo.lam, gs)
        if not verdict.ok:
            raise ValueError("label set is not a good set")
    return flip_canonical(geo.lam, gs)


def are_equivalent(geo: Geometry, p1, p2) -> Collineation | None:
    """Search the line stabilizer for a witness mapping one parallelism to
    the other; sound and complete for the constructed family."""
    g1 = _as_canonical_goodset(geo, p1)
    g2 = _as_canonical_goodset(geo, p2)
    parent = orbit_of(geo, g1)
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


def classify(geo: Geometry, family) -> OrbitReport:
    """Orbit partition of a family of parallelisms (given as parallelisms
    or good sets) under the line stabilizer.  The family must be closed
    under the group action; orbits are reported with exact sizes and
    stabilizer orders from the orbit-stabilizer relation."""
    family_keys = {_as_canonical_goodset(geo, obj) for obj in family}
    order = stabilizer_order(geo)
    remaining = dict.fromkeys(sorted(family_keys))
    orbits = []
    for gs in remaining:
        if remaining[gs] is not None:
            continue
        orbit = orbit_of(geo, gs).keys()
        if not orbit <= family_keys:
            raise ValueError("family is not closed under the stabilizer action")
        for member in orbit:
            remaining[member] = True
        size = len(orbit)
        assert order % size == 0
        orbits.append(Orbit(representative=min(orbit), size=size,
                            stabilizer_order=order // size,
                            family_count=len(orbit & family_keys)))
    orbits.sort(key=lambda o: o.representative)
    return OrbitReport(group_order=order, family_size=len(family_keys),
                       orbits=orbits,
                       bounds=lower_bound_formulas(geo.q, geo.spec.m))
