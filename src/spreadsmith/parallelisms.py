"""Assemble a parallelism from a good set, verify the exact-cover property,
build the prescribed elementary abelian automorphism group, and recover a
good set from a parallelism of the right shape.

A parallelism of the distinguished Baer subgeometry is q^2+q+1 pairwise
line-disjoint spreads whose union is the full line set.  The construction
switches, for every line of every selected punctured pencil, the regulus
that the transversal-induced spread shares with the Desarguesian one.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from spreadsmith.goodsets import (
    Candidate,
    GoodSet,
    canonical,
    flip_canonical,
    is_good,
)
from spreadsmith.proj_geometry import (
    Collineation,
    Line,
    klein_bilinear,
    klein_transversals,
    line_from_plucker,
    line_intersection,
    line_through,  # noqa: F401  kept as a module name: perfbench's tracing tests rebind it
    normalize,
    plucker,
)
from spreadsmith.spreads import Geometry, Spread, SpreadReport, memo


@dataclass(frozen=True)
class Parallelism:
    spreads: tuple[Spread, ...]
    desarguesian_index: int
    source: GoodSet | None = None
    certificate: Certificate | None = field(default=None, compare=False, repr=False)

    def key(self):
        return tuple(sorted(sp.key() for sp in self.spreads))

    def __len__(self):
        return len(self.spreads)


@dataclass
class Certificate:
    ok: bool
    spread_failures: list[tuple[int, SpreadReport]]
    uncovered: list[Line]
    multiply_covered: list[Line]
    line_count: int
    checksum: str

    def reason(self) -> str | None:
        if self.ok:
            return None
        if self.spread_failures:
            idx, rep = self.spread_failures[0]
            return f"member {idx} is not a spread: {rep.reason}"
        if self.multiply_covered:
            return f"line covered more than once: {self.multiply_covered[0]}"
        return f"line not covered: {self.uncovered[0]}"


def assemble_spread_family(geo: Geometry, cands) -> list[Spread]:
    """The q^2+q Hall spreads of the punctured pencils of the given labels,
    then the Desarguesian spread.  No goodness check: callers that want the
    guarantee go through build_parallelism."""
    family = []
    for cand in canonical(cands):
        pencil = geo.pencil(*cand)
        for l in pencil.punctured(geo.space.r_U1):
            family.append(geo.hall_spread(l))
    family.append(geo.desarguesian_spread())
    return family


def build_parallelism(geo: Geometry, gs) -> Parallelism:
    verdict = is_good(geo.lam, gs)
    if not verdict.ok:
        raise ValueError(
            f"not a good set: pair {verdict.witness} fails the "
            f"{verdict.condition} condition")
    family = tuple(assemble_spread_family(geo, gs))
    cert = verify_parallelism(geo, family)
    assert cert.ok, f"construction from a good set must verify: {cert.reason()}"
    return Parallelism(spreads=family, desarguesian_index=len(family) - 1,
                       source=canonical(gs), certificate=cert)


def family_checksum(geo: Geometry, spreads) -> str:
    """SHA-256 over the canonical serialization of the sorted line multiset."""
    digits = ["".join(map(str, geo.spec.elem_vec(x))) for x in geo.spec.elements()]
    blobs = [",".join(digits[x] for row in l for x in row)
             for sp in spreads for l in sp.lines]
    return hashlib.sha256("|".join(sorted(blobs)).encode()).hexdigest()


def verify_parallelism(geo: Geometry, par) -> Certificate:
    """Every member passes the spread verdict and every subgeometry line is
    covered exactly once."""
    spreads = par.spreads if isinstance(par, Parallelism) else tuple(par)
    failures = []
    for i, sp in enumerate(spreads):
        rep = geo.is_spread(sp.lines)
        if not rep.ok:
            failures.append((i, rep))
    index, universe = geo.line_index(), geo.sigma_eta_lines()
    counts = [0] * len(universe)
    strays: dict[Line, int] = {}
    for sp in spreads:
        for l in sp.lines:
            k = index.get(l)
            if k is None:
                strays[l] = strays.get(l, 0) + 1
            else:
                counts[k] += 1
    uncovered = [universe[k] for k, c in enumerate(counts) if not c]
    multi = sorted([universe[k] for k, c in enumerate(counts) if c > 1]
                   + [l for l, c in strays.items() if c > 1])
    ok = not failures and not uncovered and not multi and not strays
    return Certificate(ok=ok, spread_failures=failures, uncovered=uncovered,
                       multiply_covered=multi,
                       line_count=sum(counts) + sum(strays.values()),
                       checksum=family_checksum(geo, spreads))


# ---------------------------------------------------------------------------
# the elementary abelian group fixing r_U1 pointwise


@dataclass(frozen=True)
class GroupE:
    elements: tuple[Collineation, ...]
    generators: tuple[Collineation, ...]

    @property
    def order(self):
        return len(self.elements)


def group_E(geo: Geometry) -> GroupE:
    """All q^2 unitriangular members xi_map(b, 1); the generators are the
    p-basis powers g^0 .. g^(2m-1) of the parameter b."""
    s = geo.spec
    elements = tuple(geo.xi_map(b, 1) for b in range(s.order))
    gens = tuple(geo.xi_map(s.pow(s.generator, k), 1)
                 for k in range(2 * s.m))
    return GroupE(elements=elements, generators=gens)


def image_key(psi: Collineation, lines) -> tuple[Line, ...]:
    """The image of a line set under a collineation, sorted like Spread.key()."""
    return tuple(sorted(psi.apply_line(l) for l in lines))


def is_E_invariant(geo: Geometry, par, full: bool = False) -> bool:
    """Invariance of the spread set under the unitriangular group; the
    generator check suffices by closure, the full sweep is the slow mode.
    Spreads of subgeometry lines are mapped as sorted line ids, by the
    permutation each element induces on the subgeometry."""
    spreads = par.spreads if isinstance(par, Parallelism) else tuple(par)
    keys = {sp.key() for sp in spreads}
    grp = group_E(geo)
    todo = grp.elements if full else grp.generators
    index = geo.line_index()
    if all(l in index for key in keys for l in key):
        keys = {tuple(index[l] for l in key) for key in keys}
        perms = (geo.line_permutation(psi) for psi in todo)
        return all({tuple(sorted(perm[k] for k in key)) for key in keys} == keys
                   for perm in perms)
    return all({image_key(psi, key) for key in keys} == keys for psi in todo)


# ---------------------------------------------------------------------------
# converse: read a good set off a parallelism of the right shape


@dataclass
class CharacterizeResult:
    ok: bool
    good_set: GoodSet | None = None
    reason: str | None = None
    labels: list[Candidate] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def _ambient_directors(geo: Geometry, spread_lines) -> list[Line]:
    """The transversal (director) lines of a Desarguesian spread given by
    its extended lines, on the Klein quadric: the transversals of its first
    three lines and a fourth outside their regulus, kept when they meet
    every line of the spread."""
    spec = geo.spec
    coords = [plucker(spec, l) for l in sorted(spread_lines)]
    found = []
    for u in coords[3:]:
        found = klein_transversals(spec, coords[:3] + [u])
        if found:
            break
    return sorted(line_from_plucker(spec, t) for t in found
                  if all(klein_bilinear(spec, t, u) == 0 for u in coords))


@memo
def _hall_member_label(geo: Geometry, lines) -> tuple[Candidate | None, str | None]:
    """Validate one non-Desarguesian member, given by its sorted lines, as
    a Hall spread switched on a regulus through r_U1 and recover its
    pencil label."""
    spec = geo.spec
    q = geo.q
    r_ids = set(geo.subline_ids(geo.space.r_U1))
    touching = [l for l in lines if not r_ids.isdisjoint(geo.subline_ids(l))]
    if len(touching) != q + 1:
        return None, "does not meet the distinguished line in a regulus pattern"
    try:
        reg = geo.transversals_of(touching)
    except (AssertionError, ValueError):
        reg = []
    if len(reg) != q + 1:
        return None, "lines through the distinguished line admit no opposite regulus"
    d_lines = set(geo.desarguesian_spread().lines)
    if geo.space.r_U1 not in reg or not set(reg) <= d_lines:
        return None, "switched regulus misses the distinguished line"
    # the unswitched Desarguesian spread this member came from
    source_lines = (set(lines) - set(touching)) | set(reg)
    if not geo.is_spread(source_lines).ok:
        return None, "unswitching does not yield a spread"
    labels = []
    for d in _ambient_directors(geo, source_lines):
        P = line_intersection(spec, d, geo.space.r_U1)
        if P is None:
            continue
        lab = geo.pencil_label(P, _plane_with_r_U1(spec, d))
        if lab is not None:
            labels.append(lab)
    if not labels:
        return None, "no director line carries an I-class pencil label"
    return min(labels), None


def _plane_with_r_U1(spec, l: Line):
    """The plane spanned by r_U1 = <U1, U3> and a line meeting it: every
    such plane is h2 X2 + h4 X4 = 0, fixed by a point of l off r_U1."""
    R = next(r for r in l if r[1] or r[3])
    return normalize(spec, (0, R[3], 0, spec.neg(R[1])))


def characterize(geo: Geometry, par) -> CharacterizeResult:
    """Check the shape hypotheses (Desarguesian member present, all other
    members Hall spreads switched on reguli through r_U1, invariance under
    the unitriangular group) and read off the good set."""
    spreads = list(par.spreads if isinstance(par, Parallelism) else par)
    q = geo.q
    d_key = geo.desarguesian_spread().key()
    rest = [sp for sp in spreads if sp.key() != d_key]
    if len(rest) == len(spreads):
        return CharacterizeResult(False, reason="no Desarguesian member")
    if len(spreads) != q * q + q + 1 or len(rest) != len(spreads) - 1:
        return CharacterizeResult(False, reason="malformed family size")
    labels = []
    for sp in rest:
        label, err = _hall_member_label(geo, sp.key())
        if label is None:
            return CharacterizeResult(False, reason=f"regulus misses r_U1: {err}",
                                      labels=labels)
        labels.append(label)
    if not is_E_invariant(geo, spreads):
        return CharacterizeResult(False, reason="not E-invariant", labels=labels)
    distinct = sorted(set(labels))
    if len(distinct) != q + 1 or any(labels.count(l) != q for l in distinct):
        return CharacterizeResult(False, reason="pencil labels do not form q+1 full pencils",
                                  labels=labels)
    gs = flip_canonical(geo.lam, distinct)
    verdict = is_good(geo.lam, gs)
    if not verdict.ok:
        return CharacterizeResult(False, reason="recovered set not good",
                                  labels=labels)
    return CharacterizeResult(True, good_set=gs, labels=labels)
