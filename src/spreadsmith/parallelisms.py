"""Assemble a parallelism from a good set, verify the exact-cover property,
build the prescribed elementary abelian automorphism group, and recover a
good set from a parallelism of the right shape.

A parallelism of the distinguished Baer subgeometry is q^2+q+1 pairwise
line-disjoint spreads whose union is the full line set, each spread the
sorted tuple of its line ids.  The construction switches, for every line
of every selected pencil, the regulus that the transversal-induced spread
shares with the Desarguesian one; the Desarguesian spread comes last.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

# CPython's built-in SHA-256, the module hashlib itself falls back to:
# importing hashlib loads OpenSSL, about 3.7 MB of a command's peak memory
try:
    from _sha2 import sha256            # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256      # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256
from spreadsmith.field_codec import coefficient_table
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
    klein_transversals,
    line_from_plucker,
    line_through,  # noqa: F401  kept as a module name: perfbench's tracing tests rebind it
    plucker,
)
from spreadsmith.spreads import Geometry, SpreadReport, memo


@dataclass(frozen=True)
class Parallelism:
    spreads: tuple[tuple[int, ...], ...]
    desarguesian_index: int
    source: GoodSet | None = None
    certificate: Certificate | None = field(default=None, compare=False, repr=False)

    def key(self):
        return tuple(sorted(self.spreads))

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


def assemble_spread_family(geo: Geometry, cands) -> list[tuple[int, ...]]:
    """The q^2+q Hall spreads of the pencils of the given labels, then the
    Desarguesian spread.  No goodness check: callers that want the
    guarantee go through build_parallelism."""
    family = [geo.hall_spread(l) for cand in canonical(cands) for l in geo.pencil(*cand)]
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


# blobs per update of the digest in family_checksum
CHECKSUM_CHUNK = 1024


def family_checksum(geo: Geometry, spreads) -> str:
    """SHA-256 over the canonical serialization of the sorted line multiset:
    the sorted line blobs joined by "|", fed to the digest a chunk at a
    time so the joined text is never built.

    A line's blob joins the digit strings of its 8 coordinates with ",",
    which sorts before every digit, so blobs sort as the tuples of their
    digit strings do.  So each line is sorted by an 8-byte key, the ranks
    of its strings among all of them (equal strings, equal ranks), and a
    chunk's text is written from its keys with bytes.translate: each
    coordinate takes a slot of the longest string's width plus a
    separator, each string padded with NUL bytes that are then deleted.

    Every parallelism of a geometry covers each subgeometry line once, so
    all of them have the same checksum (_cover_checksum): it certifies the
    cover, not which parallelism it is."""
    digits = ["".join(map(str, v)) for v in coefficient_table(geo.spec).vectors]
    names = sorted(set(digits))
    rank = {d: r for r, d in enumerate(names)}
    # element codes are below q^2 <= 256, so each line's 8 codes are bytes,
    # read off the line's code (Geometry.line_bytes)
    to_rank = bytes([rank[d] for d in digits]).ljust(256, b"\0")
    keys = sorted([b.translate(to_rank) for sp in spreads for b in map(geo.line_bytes, sp)])
    width = max(map(len, names))
    padded = [d.encode().ljust(width, b"\0") for d in names]
    # the j-th byte of each rank's padded string
    planes = [bytes([p[j] for p in padded]).ljust(256, b"\0") for j in range(width)]
    slot = width + 1
    h = sha256()
    for i in range(0, len(keys), CHECKSUM_CHUNK):
        ranks = b"".join(keys[i:i + CHECKSUM_CHUNK])
        text = bytearray(b",") * (len(ranks) * slot)
        for j, plane in enumerate(planes):
            text[j::slot] = ranks.translate(plane)
        # the separator after a line's last coordinate
        text[8 * slot - 1::8 * slot] = b"|" * (len(ranks) // 8)
        if i + CHECKSUM_CHUNK >= len(keys):
            del text[-1]
        h.update(text.translate(None, b"\0"))
    return h.hexdigest()


def verify_parallelism(geo: Geometry, par) -> Certificate:
    """Every member passes the spread verdict and every subgeometry line is
    covered exactly once.  A line outside the subgeometry fails the verdict
    of each member that holds it."""
    spreads = par.spreads if isinstance(par, Parallelism) else tuple(par)
    failures = []
    for i, sp in enumerate(spreads):
        rep = geo.is_spread(sp)
        if not rep.ok:
            failures.append((i, rep))
    # ids from n upward are lines outside the subgeometry
    n = geo.line_count
    counts = [0] * max([n, *(max(sp) + 1 for sp in spreads if sp)])
    for sp in spreads:
        for k in sp:
            counts[k] += 1
    uncovered = [geo.line(k) for k in range(n) if not counts[k]]
    # sorted by coordinates, which ids from n upward do not follow
    multi = sorted([geo.line(k) for k, c in enumerate(counts) if c > 1])
    # each subgeometry line once and no other: the line multiset is the line set
    exact = not uncovered and not multi and len(counts) == n
    line_count = sum(counts)
    # freed first, so that the counts and the checksum's sort keys are never held at once
    del counts
    checksum = _cover_checksum(geo) if exact else family_checksum(geo, spreads)
    return Certificate(ok=not failures and not uncovered and not multi,
                       spread_failures=failures, uncovered=uncovered,
                       multiply_covered=multi, line_count=line_count,
                       checksum=checksum)


@memo
def _cover_checksum(geo: Geometry) -> str:
    """family_checksum of every subgeometry line once: the checksum of every
    exact cover, so of every parallelism of the geometry."""
    return family_checksum(geo, [range(geo.line_count)])


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


@memo
def E_generator_line_perms(geo: Geometry) -> tuple[list[int], ...]:
    """The line permutation of each generator xi_map(g^k, 1) of group_E, in
    order.  Only xi_map(1, 1) and delta (Geometry.delta_map) act through
    their point permutations: delta^-1 xi_map(b, 1) delta = xi_map(b g, 1),
    so the permutation of each further generator is the previous one
    conjugated by delta's."""
    d = geo.line_permutation(geo.delta_map())
    d_inv = [0] * len(d)
    # d holds each of the index's own int objects once, so the permutations
    # hold none of their own
    for k in d:
        d_inv[d[k]] = k
    perms = [geo.line_permutation(geo.xi_map(1, 1))]
    for _ in range(2 * geo.spec.m - 1):
        perms.append(list(map(d_inv.__getitem__, map(perms[-1].__getitem__, d))))
    return tuple(perms)


def _sorted_members(par) -> list[tuple[int, ...]]:
    """The members of a family of line-id sets, each as its sorted ids: the
    form in which two spreads compare equal.  A member that is a sorted
    tuple already is kept, not copied."""
    return [sp if (key := tuple(sorted(sp))) == sp else key
            for sp in (par.spreads if isinstance(par, Parallelism) else par)]


def is_E_invariant(geo: Geometry, par) -> bool:
    """Invariance of the spread multiset under E (_E_orbit_starts)."""
    return _E_orbit_starts(geo, _sorted_members(par)) is not None


def _E_orbit_starts(geo: Geometry, members) -> list[int] | None:
    """For each member of a list of spreads (sorted tuples of line ids), the
    index of the first member of its E-orbit; None when E does not map the
    list onto itself as a multiset.  Each distinct member is mapped once by
    each of E's 2m generators, which suffice by closure; an image must
    occur as often as the member it comes from.  E maps the subgeometry
    onto itself, so a list holding a line outside it is not a list of its
    spreads and is reported as not invariant, before E's permutations are
    derived."""
    n = geo.line_count
    if any(sp and sp[-1] >= n for sp in members):
        return None
    perms = E_generator_line_perms(geo)
    count = Counter(members)
    start = {}
    for i, sp in enumerate(members):
        if sp in start:
            continue
        start[sp] = i
        todo = [sp]
        while todo:
            cur = todo.pop()
            for perm in perms:
                image = tuple(sorted(map(perm.__getitem__, cur)))
                if count[image] != count[cur]:
                    return None
                if image not in start:
                    start[image] = i
                    todo.append(image)
    return [start[sp] for sp in members]


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


def _ambient_directors(geo: Geometry, spread_lines, regulus) -> list[Line]:
    """The transversal (director) lines of a Desarguesian spread given by
    the ids of its lines, sorted, found on the Klein quadric: the
    transversals of three lines of a regulus of the spread and a fourth
    spread line, kept when the spread they induce
    (Geometry.spread_from_transversal) is the given one, a ValueError
    rejecting them.  Those are exactly the lines meeting every line of the
    spread: each spread line is stable, so one through a point Q of t is
    <Q, Q^tau>.  The fourth is taken from outside the regulus first, the
    regulus lines serving as fallbacks.  Any four lines of the spread in no
    common regulus give the same kept lines, and the three with any line
    outside the regulus are such four."""
    spec = geo.spec
    line = geo.line
    base = [plucker(spec, line(l)) for l in regulus[:3]]
    in_regulus, in_base = set(regulus), set(regulus[:3])
    found = []
    # the lines outside the regulus first (sorted is stable)
    for l in sorted((l for l in spread_lines if l not in in_base), key=in_regulus.__contains__):
        found = klein_transversals(spec, base + [plucker(spec, line(l))])
        if found:
            break
    target = tuple(sorted(spread_lines))
    kept = []
    for v in found:
        t = line_from_plucker(spec, v)
        try:
            if geo.spread_from_transversal(t) == target:
                kept.append(t)
        except ValueError:
            pass
    return sorted(kept)


@memo
def _hall_member_label(geo: Geometry, lines) -> tuple[Candidate | None, str | None]:
    """Validate one non-Desarguesian member, given by its sorted line ids,
    as a Hall spread switched on a regulus through r_U1 and recover its
    pencil label."""
    q = geo.q
    r_U1 = geo.line_id(geo.space.r_U1)
    r_ids = set(geo.subline_ids(r_U1))
    # the lines sharing a subgeometry point with r_U1
    touching = [k for k in lines if not r_ids.isdisjoint(geo.subline_ids(k))]
    if len(touching) != q + 1:
        return None, "does not meet the distinguished line in a regulus pattern"
    try:
        reg = geo.transversals_of(touching)
    except (AssertionError, ValueError):
        reg = []
    if len(reg) != q + 1:
        return None, "lines through the distinguished line admit no opposite regulus"
    d_lines = set(geo.desarguesian_spread())
    if r_U1 not in reg or not set(reg) <= d_lines:
        return None, "switched regulus misses the distinguished line"
    # the unswitched Desarguesian spread this member came from
    source_lines = (set(lines) - set(touching)) | set(reg)
    if not geo.is_spread(source_lines).ok:
        return None, "unswitching does not yield a spread"
    labels = [lab for lab in map(geo.pencil_label_of, _ambient_directors(geo, source_lines, reg))
              if lab is not None]
    if not labels:
        return None, "no director line carries an I-class pencil label"
    return min(labels), None


def characterize(geo: Geometry, par) -> CharacterizeResult:
    """Check the shape hypotheses (Desarguesian member present, all other
    members Hall spreads switched on reguli through r_U1, invariance under
    the unitriangular group) and read off the good set.

    The members are checked in order and the first failure is reported.
    The first member starts its own E-orbit, so it is checked before E's
    permutations are derived.  When the family is E-invariant, only the
    first member of each E-orbit is checked, and the others take its
    label.  This gives what checking every member gives, because each
    step of _hall_member_label is E-equivariant, so the members of one
    orbit share label and error, and the first member that fails is the
    first of its orbit:
    - E fixes r_U1 pointwise, D_eta, the subgeometry and every plane
      through r_U1, because xi_b changes only X1 and X3.
    - When two of the lines touching r_U1 meet, all of them have at most 2
      common transversals, so whichever two transversals_of starts from,
      its ValueError and a count other than q+1 give the same error.
    - The directors are the lines meeting every line of the unswitched
      spread, whichever four lines the Klein solve starts from.  Such a
      line t avoids the subgeometry, hence its conjugate too (they could
      meet only in a fixed point): were P a subgeometry point of t, every
      spread line missing P would be <Q, Q^tau> for a point Q of t, so it
      would lie in the plane <t, t^tau>, and two of them would meet.
    A family that is not invariant has each member checked on its own."""
    spreads = _sorted_members(par)
    q = geo.q
    d_lines = geo.desarguesian_spread()
    rest = [sp for sp in spreads if sp != d_lines]
    if len(rest) == len(spreads):
        return CharacterizeResult(False, reason="no Desarguesian member")
    if len(spreads) != q * q + q + 1 or len(rest) != len(spreads) - 1:
        return CharacterizeResult(False, reason="malformed family size")
    labels, start = [], None
    for i, sp in enumerate(rest):
        if i == 1:
            # rest[0] starts its own E-orbit and passed.  E fixes the
            # Desarguesian member, which occurs once: the others decide
            start = _E_orbit_starts(geo, rest)
        if start is not None and start[i] < i:
            # the first member of the orbit passed, so this one does
            labels.append(labels[start[i]])
            continue
        label, err = _hall_member_label(geo, sp)
        if label is None:
            return CharacterizeResult(False, reason=f"regulus misses r_U1: {err}",
                                      labels=labels)
        labels.append(label)
    if start is None:
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
