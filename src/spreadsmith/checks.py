"""Named verification suites over the whole construction: each suite checks
one structural fact (a partition, an intersection pattern, a case split, a
group order) by direct computation, exhaustively at small q and by seeded
sampling where the search space is larger.

Each suite is one function that the @suite decorator registers with its
name and the q at which selftest runs it.  Called directly, a suite
returns a CheckResult; the command-line selftest prints one line per
suite and the pytest modules assert on the same functions.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from functools import wraps
from inspect import signature
from itertools import combinations

from spreadsmith.goodsets import (
    Candidate,
    G1Element,
    PlaneModel,
    apply_G1,
    candidate_universe,
    candidate_values,
    canonical,
    census,
    dual,
    enumerate_good_sets,
    fixed_plane_good_set,
    flip_canonical,
    flip_classes,
    intersection_profile,
    is_good,
    is_good_geometric,
    pair_conditions,
)
from spreadsmith.parallelisms import (
    assemble_spread_family,
    build_parallelism,
    characterize,
    group_E,
    is_E_invariant,
    verify_parallelism,
)
from spreadsmith.proj_geometry import (
    Collineation,
    line_in_plane,
    line_plane_meet,
    line_points,
    line_through,
    lines_meet,
    normalize,
    point_on_line,
    point_on_plane,
    tau_line,
    tau_point,
)
from spreadsmith.spreads import Geometry, memo
from spreadsmith.equivalence import (
    apply_label_action,
    are_equivalent,
    classify,
    flip_numbering,
    full_stabilizer_group,
    label_action,
    stabilizer_group,
)


@dataclass
class CheckResult:
    name: str
    q: int
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Suite:
    name: str
    run: Callable[..., CheckResult]
    applies: Callable[[int], bool]

    @property
    def samples(self) -> bool:
        """Whether the suite samples with a seed that --sample-seed overrides."""
        return "seed" in signature(self.run).parameters


# every registered suite, in definition order: the order selftest prints
SUITES: list[Suite] = []


def suite(name: str, applies: Callable[[int], bool] = lambda q: True):
    """Register the decorated function as the suite `name`, which selftest
    runs at every q where applies(q) holds.  The function returns its verdict
    and detail, (ok, detail); the suite returns them as a CheckResult."""
    def register(body):
        @wraps(body)
        def run(geo: Geometry, *args, **kwargs) -> CheckResult:
            return CheckResult(name, geo.q, *body(geo, *args, **kwargs))
        SUITES.append(Suite(name, run, applies))
        return run
    return register


def suites_at(q: int) -> list[Suite]:
    """The suites selftest runs at q, in order, without running them."""
    return [s for s in SUITES if s.applies(q)]


def run_selftest(geo: Geometry, sample_seed: int | None = None) -> list[CheckResult]:
    """Run every suite applicable at this q, in registry order.  A sample
    seed overrides the fixed default of every sampling suite."""
    seeded = {} if sample_seed is None else {"seed": sample_seed}
    return [s.run(geo, **seeded) if s.samples else s.run(geo) for s in suites_at(geo.q)]


def _plane_section(geo: Geometry, points, plane) -> set:
    """The given points that lie on the plane."""
    return {P for P in points if point_on_plane(geo.spec, plane, P)}


# ---------------------------------------------------------------------------
# objects only the suites derive: the distinguished transversal family of
# one pencil, its maps, and brute-force searches


def l_lambda(geo: Geometry, alpha_idx: int, scalar: int):
    """The pencil line through (1,0,alpha,0) inside the plane X4 = alpha X2
    determined by the subfield scalar; scalar 0 gives the line through
    (0,1,0,alpha)."""
    if not geo.spec.in_subfield(scalar):
        raise ValueError("scalar must lie in the subfield")
    return geo._pencil_line(alpha_idx, 0, 0, scalar)


def phi_map(geo: Geometry, alpha_idx: int) -> Collineation:
    """Linear map sending t1, t2 to the scalar-0 pencil line and its
    conjugate while fixing the distinguished subgeometry."""
    a = geo.alpha_of(alpha_idx)
    aq = geo.spec.frobenius(a)
    mat = ((1, 0, aq, 0),
           (0, 1, 0, aq),
           (a, 0, 1, 0),
           (0, a, 0, 1))
    return Collineation.linear(geo.spec, mat)


def phi_lambda_map(geo: Geometry, alpha_idx: int, scalar: int) -> Collineation:
    return phi_map(geo, alpha_idx).then(geo.xi_map(scalar))


def extension_points(geo: Geometry, lines) -> set:
    """Union of the ambient points of the lines of the given ids."""
    out = set()
    for l in map(geo.line, lines):
        out.update(line_points(geo.spec, l))
    return out


@memo
def desarguesian_lines(geo: Geometry, alpha_idx: int) -> frozenset:
    """{ <P, P^tau> : P in t1 }, tau = tau_alpha: the Desarguesian spread of
    the subgeometry of alpha, as ambient lines."""
    spec, alpha = geo.spec, geo.alpha_of(alpha_idx)
    return frozenset(line_through(spec, P, tau_point(spec, alpha, P))
                     for P in line_points(spec, geo.space.t1))


def reguli_through_r_U1(geo: Geometry) -> list[tuple[int, ...]]:
    """All reguli of D_eta containing r_U1, by brute force over triples:
    the spread lines sharing a point id with every transversal of one."""
    d = geo.desarguesian_spread()
    r_U1 = geo.line_id(geo.space.r_U1)
    others = [l for l in d if l != r_U1]
    found = set()
    for i, l2 in enumerate(others):
        for l3 in others[i + 1:]:
            meets = [set(geo.subline_ids(t)) for t in geo.transversals_of([r_U1, l2, l3])]
            found.add(tuple(l for l in d
                            if all(not t.isdisjoint(geo.subline_ids(l)) for t in meets)))
    return sorted(found)


# ---------------------------------------------------------------------------
# field level


@suite("field-automorphism")
def check_field_automorphism(geo: Geometry, seed: int = 0) -> CheckResult:
    """Conjugation x -> x^q: involutory automorphism fixing exactly the
    subfield; the norm is multiplicative and lands in the subfield."""
    s = geo.spec
    rng = random.Random(seed)
    pairs = ([(a, b) for a in range(s.order) for b in range(s.order)]
             if s.q <= 5 else
             [(rng.randrange(s.order), rng.randrange(s.order)) for _ in range(4000)])
    for a, b in pairs:
        if s.frobenius(s.add(a, b)) != s.add(s.frobenius(a), s.frobenius(b)):
            return False, f"additivity fails at {(a, b)}"
        if s.frobenius(s.mul(a, b)) != s.mul(s.frobenius(a), s.frobenius(b)):
            return False, f"multiplicativity fails at {(a, b)}"
        if s.norm(s.mul(a, b)) != s.mul(s.norm(a), s.norm(b)):
            return False, f"norm not multiplicative at {(a, b)}"
    fixed = [x for x in range(s.order) if s.frobenius(x) == x]
    if sorted(fixed) != list(range(s.q)):
        return False, "fixed set of conjugation is not the subfield"
    if any(s.frobenius(s.frobenius(x)) != x for x in range(s.order)):
        return False, "conjugation is not an involution"
    if any(not s.in_subfield(s.norm(x)) for x in range(s.order)):
        return False, "norm leaves the subfield"
    circle = [x for x in range(1, s.order) if s.norm(x) == 1]
    if sorted(circle) != sorted(s.unit_circle()) or len(circle) != s.q + 1:
        return False, "unit circle mismatch"
    return True, f"{len(pairs)} pairs, circle size {s.q + 1}"


@suite("norm-partition")
def check_norm_partition(geo: Geometry) -> CheckResult:
    """The three-part partition of the nonzero subfield with A disjoint
    from its inverses (and from its negatives for odd q)."""
    s = geo.spec
    part = geo.lam.partition
    q = s.q
    A, Ainv = set(part.A), set(part.A_inv)
    units = set(part.units_part)
    if A & Ainv:
        return False, "A meets its inverse set"
    if units | A | Ainv != set(range(1, q)):
        return False, "parts do not cover the nonzero subfield"
    if len(units) + len(A) + len(Ainv) != q - 1:
        return False, "parts overlap"
    if q % 2:
        if units != {1, s.minus_one()}:
            return False, "unit part must be {1,-1}"
        if any(s.neg(a) in A for a in A):
            return False, "A meets -A"
        want_t = (q - 3) // 2
    else:
        if units != {1}:
            return False, "unit part must be {1}"
        want_t = (q - 2) // 2
    if part.t != want_t or len(A) != want_t:
        return False, f"t = {part.t}, expected {want_t}"
    return True, f"t = {part.t}"


@suite("lambda-classes")
def check_lambda_classes(geo: Geometry) -> CheckResult:
    """Sizes and closure properties of the I classes: inverse-norm flip,
    negated-norm exclusion, and the square/nonsquare split."""
    lam = geo.lam
    s = geo.spec
    q = s.q
    norms = [lam.norm_of(k) for k in range(q - 1)]
    if len(set(norms)) != q - 1:
        return False, "norms not pairwise distinct"
    if s.norm(lam.eta) != 1 or lam.eta_index in lam.I:
        return False, "eta must have norm 1 and avoid the I class"
    want = (q - 2) // 2 if q % 2 == 0 else (q - 1) // 2
    if len(lam.I) != want:
        return False, f"|I| = {len(lam.I)}, expected {want}"
    for k in range(q - 1):
        j = lam.inverse_norm_index(k)
        if s.mul(norms[k], norms[j]) != 1:
            return False, "inverse-norm partner wrong"
        if norms[k] not in (1, s.minus_one()):
            if (k in lam.I) == (j in lam.I):
                return False, f"I membership does not flip at index {k}"
    if q % 2:
        for k in lam.I:
            if lam.negated_norm_index(k) in lam.I:
                return False, "negated norm stayed in I"
        i1, i2 = len(lam.I1), len(lam.I2)
        want12 = ((q - 1) // 4, (q - 1) // 4) if q % 4 == 1 else ((q - 3) // 4, (q + 1) // 4)
        if (i1, i2) != want12:
            return False, f"|I1|,|I2| = {(i1, i2)}, expected {want12}"
        if set(lam.I1) | set(lam.I2) != set(lam.I) or set(lam.I1) & set(lam.I2):
            return False, "I1, I2 do not partition I"
    return True, f"|I| = {len(lam.I)}"


# ---------------------------------------------------------------------------
# subgeometry geometry


@suite("baer-subgeometries", lambda q: q <= 5)
def check_baer_subgeometries(geo: Geometry) -> CheckResult:
    """Fixed-point sets of the involutions: sizes, pairwise disjointness,
    transversal avoidance; at q = 3 the subline counts of every ambient
    line against the stability predicate."""
    s = geo.spec
    q = s.q
    space = geo.space
    for k in range(q - 1):
        sig = geo.component(k)
        if len(sig) != (q + 1) * (q * q + 1):
            return False, f"wrong subgeometry size at index {k}"
        for P in line_points(s, space.t1) + line_points(s, space.t2):
            if P in sig:
                return False, "transversal line meets a subgeometry"
    for k1, k2 in combinations(range(q - 1), 2):
        if geo.component(k1) & geo.component(k2):
            return False, f"subgeometries {k1},{k2} intersect"
    if q == 3:
        eta = geo.eta
        sig = geo.sigma_eta
        for l in space.all_lines():
            cnt = sum(1 for P in line_points(s, l) if P in sig)
            if cnt not in (0, 1, 2, q + 1):
                return False, f"line meets subgeometry in {cnt} points"
            if space.is_baer_subline(l, eta) != (cnt == q + 1):
                return False, "stability predicate disagrees with point count"
        detail = "exhaustive over all ambient lines"
    else:
        detail = "sizes and disjointness"
    return True, detail


@suite("subline-extension", lambda q: q <= 5)
def check_subline_extension(geo: Geometry) -> CheckResult:
    """A plane cutting one subgeometry in a subplane cuts every other in a
    spread subline; a line cutting one subgeometry in a subline outside
    its spread avoids every other subgeometry."""
    s = geo.spec
    q = s.q
    lam = geo.lam
    space = geo.space
    # (component, plane) pairs whose section is a subplane: all of them at
    # q = 3, the distinguished planes otherwise
    if q == 3:
        pairs = [(k, pl) for k in range(q - 1) for pl in space.all_planes()
                 if len(_plane_section(geo, geo.component(k), pl))
                 == q * q + q + 1]
        probe = geo.line_set_L()
    else:
        pairs = [(a, geo.plane_pi(a, v)) for a in lam.I for v in (0, 1)]
        probe = geo.line_set_L()[: 4 * (q + 1)]
    for k, pl in pairs:
        for k2 in range(q - 1):
            if k2 == k:
                continue
            other = _plane_section(geo, geo.component(k2), pl)
            if len(other) != q + 1:
                return False, "cross section size wrong"
            l = line_through(s, *sorted(other)[:2])
            if any(not point_on_line(s, l, P) for P in other):
                return False, "cross section not collinear"
            if l not in desarguesian_lines(geo, k2):
                return False, "cross section not a spread line"
    for l in probe:
        k = geo.label_of(l)[0]
        for k2 in range(q - 1):
            if k2 != k and any(P in geo.component(k2)
                               for P in line_points(s, l)):
                return False, "pencil line meets a second subgeometry"
    return True, f"{len(pairs)} subplane sections, {len(probe)} lines"


@suite("spread-union-sections", lambda q: q <= 5)
def check_spread_union(geo: Geometry) -> CheckResult:
    """The union of the extended Desarguesian lines has (q^2+1)^2 points
    and every plane cuts it in q^2+1 or 2q^2+1 points, the larger case
    splitting as one spread line plus a transversal or one subplane."""
    s = geo.spec
    q = s.q
    d = geo.desarguesian_spread()
    ext = extension_points(geo, d)
    if len(ext) != (q * q + 1) ** 2:
        return False, f"extension union has {len(ext)} points"
    if q != 3:
        return True, "union size (plane sections exhaustive at q=3)"
    space = geo.space
    t1_pts = set(line_points(s, space.t1))
    t2_pts = set(line_points(s, space.t2))
    sizes_seen = set()
    for pl in space.all_planes():
        sec = _plane_section(geo, ext, pl)
        if len(sec) not in (q * q + 1, 2 * q * q + 1):
            return False, f"plane section of size {len(sec)}"
        sizes_seen.add(len(sec))
        if len(sec) == 2 * q * q + 1:
            inside = [l for l in map(geo.line, d) if line_in_plane(s, l, pl)]
            if len(inside) != 1:
                return False, "large section without a unique spread line"
            lpts = set(line_points(s, inside[0]))
            residue_ok = any(
                sec == lpts | cand and len(cand) == q * q + 1
                for cand in (t1_pts & sec, t2_pts & sec))
            if not residue_ok:
                for k in range(q - 1):
                    cut = _plane_section(geo, geo.component(k), pl)
                    if len(cut) == q * q + q + 1 and sec == lpts | cut:
                        residue_ok = True
                        break
            if not residue_ok:
                return False, "large section does not decompose"
    if sizes_seen != {q * q + 1, 2 * q * q + 1}:
        return False, f"section sizes seen: {sizes_seen}"
    return True, "exhaustive over all planes"


@suite("regulus-transversal-classification", lambda q: q == 3)
def check_regulus_transversal_classification(geo: Geometry) -> CheckResult:
    """Every ambient line meeting all extended lines of a spread regulus
    through the distinguished line is a transversal line or cuts exactly
    one subgeometry in a non-spread subline, and meets r_U1 once."""
    s = geo.spec
    q = s.q
    if q != 3:
        return True, "exhaustive only at q=3 (skipped)"
    lam = geo.lam
    space = geo.space
    reguli = reguli_through_r_U1(geo)
    if len(reguli) != q * q + q:
        return False, f"{len(reguli)} reguli through the line"
    stable = set(geo.sigma_eta_lines())
    ambient = [l for l in space.all_lines() if l not in stable]
    for reg in reguli[:4]:
        # a transversal meets r_U1 by meeting every line of the regulus
        lines = list(map(geo.line, reg))
        if space.r_U1 not in lines:
            return False, "regulus misses r_U1"
        transversals = list(map(geo.line, geo.transversals_of(reg))) + [
            l for l in ambient if all(lines_meet(s, l, r) for r in lines)]
        if len(transversals) != q * q + 1:
            return False, f"{len(transversals)} ambient transversals"
        for l in transversals:
            if l in (space.t1, space.t2):
                continue
            hits = [k for k in range(q - 1)
                    if space.is_baer_subline(l, lam.alpha(k))]
            if len(hits) != 1:
                return False, f"transversal cuts {len(hits)} subgeometries"
            if l in desarguesian_lines(geo, hits[0]):
                return False, "transversal subline lies in its spread"
    return True, f"{len(reguli)} reguli, 4 fully classified"


@suite("pencil-line-family", lambda q: q <= 5)
def check_pencils_and_line_family(geo: Geometry) -> CheckResult:
    """Pencil sizes, r_U1 membership, family size |I| q (q+1)^2, stability
    of members, and avoidance of the distinguished subgeometry."""
    s = geo.spec
    q = s.q
    lam = geo.lam
    L = geo.line_set_L()
    want = len(lam.I) * q * (q + 1) ** 2
    if len(L) != want:
        return False, f"|family| = {len(L)}, expected {want}"
    r_U1 = geo.space.r_U1
    for a in lam.I:
        alpha = lam.alpha(a)
        for u in range(q + 1):
            for v in range(q + 1):
                pen = geo.pencil(a, u, v)
                if len(pen) != q or r_U1 in pen:
                    return False, f"pencil {(a, u, v)} malformed"
                P, pl = geo.point_P(a, u), geo.plane_pi(a, v)
                for l in (*pen, r_U1):
                    if tau_line(s, alpha, l) != l:
                        return False, "pencil member not stable"
                    if not point_on_line(s, l, P):
                        return False, "pencil member misses base point"
                    if not line_in_plane(s, l, pl):
                        return False, "pencil member leaves the plane"
    sig = geo.sigma_eta
    probe = L if q == 3 else L[:60]
    for l in probe:
        if any(P in sig for P in line_points(s, l)):
            return False, "family line meets the distinguished subgeometry"
    return True, f"{len(L)} lines in {len(lam.I) * (q + 1)**2} pencils"


@suite("transversal-spreads", lambda q: q <= 5)
def check_transversal_spreads(geo: Geometry, sample: int = 40, seed: int = 0) -> CheckResult:
    """Spreads induced by family transversals: valid spreads sharing a
    regulus through r_U1 with the Desarguesian spread; the conjugate
    transversal induces the same spread."""
    q = geo.q
    rng = random.Random(seed)
    L = list(geo.line_set_L())
    probe = L if q <= 4 else rng.sample(L, sample)
    d_lines = set(geo.desarguesian_spread())
    if geo.spread_from_transversal(geo.space.t1) != geo.desarguesian_spread():
        return False, "transversal t1 does not rebuild the spread"
    for l in probe:
        sp = geo.spread_from_transversal(l)
        rep = geo.is_spread(sp)
        if not rep.ok:
            return False, f"induced family is not a spread: {rep.reason}"
        common = set(sp) & d_lines
        if len(common) != q + 1 or geo.line_id(geo.space.r_U1) not in common:
            return False, "shared lines are not a regulus through r_U1"
        if geo.spread_from_transversal(geo.tau_eta_line(l)) != sp:
            return False, "conjugate transversal changes the spread"
    return True, f"{len(probe)} transversals"


@suite("hall-spreads", lambda q: q <= 5)
def check_hall_spreads(geo: Geometry, sample: int = 30, seed: int = 1) -> CheckResult:
    """Regulus switching: the switched family is a spread disjoint from the
    Desarguesian one, differing from its source in 2(q+1) lines; the
    opposite of the opposite is the regulus and incidences are exact."""
    q = geo.q
    rng = random.Random(seed)
    L = list(geo.line_set_L())
    probe = L if q <= 4 else rng.sample(L, sample)
    d_lines = set(geo.desarguesian_spread())
    for l in probe:
        reg = geo.regulus_of(l)
        opp = geo.opposite_regulus(reg)
        if geo.opposite_regulus(opp) != reg:
            return False, "double opposite is not the identity"
        for a in reg:
            ids = set(geo.subline_ids(a))
            if any(len(ids.intersection(geo.subline_ids(b))) != 1 for b in opp):
                return False, "regulus/opposite incidence broken"
        h = geo.hall_spread(l)
        rep = geo.is_spread(h)
        if not rep.ok:
            return False, f"switched family is not a spread: {rep.reason}"
        if set(h) & d_lines:
            return False, "switched spread meets the Desarguesian one"
        src = geo.spread_from_transversal(l)
        if len(set(h) ^ set(src)) != 2 * (q + 1):
            return False, "switch did not replace exactly one regulus"
    return True, f"{len(probe)} switched spreads"


@suite("desarguesian-regulus-property", lambda q: q <= 5)
def check_desarguesian_property(geo: Geometry, sample: int = 50, seed: int = 3) -> CheckResult:
    """External subgeometry lines meet the spread in a regulus: the q+1
    spread lines they touch admit a full set of common transversals."""
    q = geo.q
    rng = random.Random(seed)
    d = geo.desarguesian_spread()
    d_set = set(d)
    universe = [k for k in range(geo.line_count) if k not in d_set]
    probe = rng.sample(universe, min(sample, len(universe)))
    for l in probe:
        ids = set(geo.subline_ids(l))
        touched = [m for m in d if not ids.isdisjoint(geo.subline_ids(m))]
        if len(touched) != q + 1:
            return False, f"external line meets {len(touched)} spread lines"
        if len(geo.transversals_of(touched)) != q + 1:
            return False, "touched lines admit no full transversal set"
    return True, f"{len(probe)} external lines"


# ---------------------------------------------------------------------------
# plane sections of the shifted spread family


@memo
def _shift_image(geo: Geometry, a_idx: int, scalar: int, k: int) -> frozenset:
    """Image of the k-th Baer component under the composite shift map."""
    phi_l = phi_lambda_map(geo, a_idx, scalar)
    return frozenset(phi_l.apply_point(P)
                     for P in geo.component(k))


def _component_subplane(geo: Geometry, a_idx: int, scalar: int, plane):
    """The unique shifted component cutting the plane in a Baer subplane,
    as (component index, point set); None if there is not exactly one."""
    q = geo.q
    matches = []
    for k in range(q - 1):
        cut = _plane_section(geo, _shift_image(geo, a_idx, scalar, k), plane)
        if len(cut) == q * q + q + 1:
            matches.append((k, cut))
    return matches[0] if len(matches) == 1 else None


def _pivot_point(geo: Geometry, a_idx: int, b_idx: int, v_pow: int):
    """The predicted pivot (1, 0, beta^q alpha v^q / alpha^q, 0) of a
    shifted spread of alpha against the plane pi(beta, v)."""
    s = geo.spec
    alpha, beta = geo.lam.alpha(a_idx), geo.lam.alpha(b_idx)
    c = s.mul(s.div(s.mul(s.frobenius(beta), alpha), s.frobenius(alpha)),
              s.frobenius(geo.U[v_pow]))
    return (1, 0, c, 0)


def _section_cases(geo: Geometry, a_idx: int):
    """(scalar, beta_idx, v_pow, shifted line, section points, case tag)
    for every distinguished plane against every shifted spread."""
    s = geo.spec
    q = geo.q
    lam = geo.lam
    alpha = lam.alpha(a_idx)
    minus1 = s.minus_one()
    for scalar in range(q):
        l_lam = l_lambda(geo, a_idx, scalar)
        sp = geo.spread_from_transversal(l_lam)
        for b_idx in lam.I:
            for v_pow in range(q + 1):
                pl = geo.plane_pi(b_idx, v_pow)
                sec: set = set()
                for l in map(geo.line, sp):
                    hit = line_plane_meet(s, l, pl)
                    if hit is None:
                        sec.update(line_points(s, l))
                    else:
                        sec.add(hit)
                v = geo.U[v_pow]
                if (b_idx, v) == (a_idx, 1):
                    tag = "contains-shifted-line"
                elif (q % 2 and s.norm(alpha) == minus1
                      and b_idx == a_idx and v == minus1):
                    tag = "contains-conjugate-line"
                else:
                    tag = "subplane"
                yield scalar, b_idx, v_pow, l_lam, sec, tag


@suite("shifted-spread-plane-sections", lambda q: q in (3, 5))
def check_plane_sections(geo: Geometry) -> CheckResult:
    """Sections of the extended shifted spreads with the distinguished
    planes: always 2q^2+1 points; the residue past r_U1 is the shifted
    line, its conjugate, or a Baer subplane of the predicted component."""
    s = geo.spec
    q = geo.q
    lam = geo.lam
    r_pts = set(line_points(s, geo.space.r_U1))
    cases = 0
    for a_idx in lam.I:
        alpha = lam.alpha(a_idx)
        for scalar, b_idx, v_pow, l_lam, sec, tag in _section_cases(geo, a_idx):
            cases += 1
            if len(sec) != 2 * q * q + 1:
                return False, f"section size {len(sec)}"
            if not r_pts <= sec:
                return False, "section misses r_U1"
            if tag == "contains-shifted-line":
                if sec != r_pts | set(line_points(s, l_lam)):
                    return False, "section is not r_U1 + shifted line"
                continue
            if tag == "contains-conjugate-line":
                lt = geo.tau_eta_line(l_lam)
                if sec != r_pts | set(line_points(s, lt)):
                    return False, "section is not r_U1 + conjugate line"
                continue
            beta = lam.alpha(b_idx)
            v = geo.U[v_pow]
            num = s.sub(s.mul(beta, v), alpha)
            den = s.sub(s.mul(s.mul(beta, s.frobenius(alpha)), v), 1)
            if num == 0 or den == 0:
                return False, "degenerate component predictor"
            found = _component_subplane(geo, a_idx, scalar, geo.plane_pi(b_idx, v_pow))
            if found is None:
                return False, "no unique component subplane in section"
            k, cut = found
            if s.norm(lam.alpha(k)) != s.norm(s.div(num, den)):
                return False, "wrong component cut by the plane"
            if sec != r_pts | cut:
                return False, "section residue is not the subplane"
    return True, f"{cases} (shift, plane) sections"


@suite("shift-maps", lambda q: q in (3, 5))
def check_shift_maps(geo: Geometry) -> CheckResult:
    """The maps behind the shifted spreads: the mixing map fixes the
    distinguished subgeometry and r_U1 and carries the transversal pair to
    the scalar-0 line pair; the unitriangular shift translates the line
    family (it lies in E, whose fixed objects unitriangular-group checks);
    their composite carries the Desarguesian spread over."""
    s = geo.spec
    q = geo.q
    lam = geo.lam
    d_lines, r_line = [geo.desarguesian_spread()], [(geo.line_id(geo.space.r_U1),)]
    for a_idx in lam.I:
        phi = phi_map(geo, a_idx)
        try:
            perm = geo.point_permutation(phi)
        except KeyError:
            return False, "mixing map moves the distinguished subgeometry"
        if geo.spread_keys(r_line, perm) != r_line:
            return False, "mixing map moves r_U1"
        l0 = l_lambda(geo, a_idx, 0)
        if phi.apply_line(geo.space.t1) != l0:
            return False, "mixing map misses the scalar-0 line"
        if phi.apply_line(geo.space.t2) != geo.tau_eta_line(l0):
            return False, "mixing map misses the conjugate line"
        for scalar in range(q):
            l_lam = l_lambda(geo, a_idx, scalar)
            if geo.xi_map(scalar).apply_line(l0) != l_lam:
                return False, "shift misplaces the line family"
            phi_l = phi_lambda_map(geo, a_idx, scalar)
            sp = geo.spread_from_transversal(l_lam)
            if geo.spread_keys(d_lines, geo.point_permutation(phi_l)) != [sp]:
                return False, "composite map misses the shifted spread"
            union = set(line_points(s, l_lam)) | set(line_points(s, geo.tau_eta_line(l_lam)))
            for k in range(q - 1):
                union |= _shift_image(geo, a_idx, scalar, k)
            if extension_points(geo, sp) != union:
                return False, "extension union is not components plus directors"
    return True, "all shift and component cases"


@suite("section-subplane-meet", lambda q: q in (3, 5))
def check_subplane_meet(geo: Geometry) -> CheckResult:
    """The section subplane and the plane's own Baer subplane share the
    predicted pivot point together with the predicted subline (the shift
    image of the explicit trace-zero subline): q+2 points in general, and
    q+1 exactly when the pivot degenerates onto the subline, which happens
    iff beta*v/alpha lies in the subfield."""
    s = geo.spec
    q = geo.q
    lam = geo.lam
    trace_zero = [x for x in range(s.order) if s.add(x, s.frobenius(x)) == 0]
    cases = degenerate = 0
    for a_idx in lam.I:
        alpha = lam.alpha(a_idx)
        for scalar, b_idx, v_pow, l_lam, sec, tag in _section_cases(geo, a_idx):
            if tag != "subplane" or v_pow == 0:
                continue
            cases += 1
            beta = lam.alpha(b_idx)
            v = geo.U[v_pow]
            pl = geo.plane_pi(b_idx, v_pow)
            found = _component_subplane(geo, a_idx, scalar, pl)
            if found is None:
                return False, "missing section subplane"
            _, sigma_cut = found
            shared = sigma_cut & _plane_section(geo, geo.component(b_idx), pl)
            pivot = _pivot_point(geo, a_idx, b_idx, v_pow)
            bv = s.mul(beta, v)
            xi = geo.xi_map(scalar)
            subline = set()
            for x in trace_zero:
                for y in trace_zero:
                    if x or y:
                        subline.add(xi.apply_point(
                            normalize(s, (x, y, s.mul(bv, x), s.mul(bv, y)))))
            if len(subline) != q + 1:
                return False, f"predicted subline has {len(subline)} points"
            if shared != subline | {pivot}:
                return False, "configuration is not pivot + subline"
            pivot_on_subline = s.in_subfield(s.div(bv, alpha))
            want = q + 1 if pivot_on_subline else q + 2
            if len(shared) != want:
                return False, f"shared configuration has {len(shared)} points, expected {want}"
            degenerate += pivot_on_subline
    return True, f"{cases} subplane pairs, {degenerate} with the pivot on the subline"


@suite("section-pivot-point", lambda q: q in (3, 5))
def check_section_pivot(geo: Geometry) -> CheckResult:
    """A family line inside a distinguished plane that touches the shifted
    spread outside the shared regulus passes through the pivot point."""
    s = geo.spec
    q = geo.q
    lam = geo.lam
    cases = 0
    for a_idx in lam.I:
        for scalar in range(q):
            l_lam = l_lambda(geo, a_idx, scalar)
            diff = _pair_data(geo, l_lam)[2]
            for b_idx in lam.I:
                for v_pow in range(q + 1):
                    pivot = _pivot_point(geo, a_idx, b_idx, v_pow)
                    for u_pow in range(q + 1):
                        for l in geo.pencil(b_idx, u_pow, v_pow):
                            if l == l_lam:
                                continue
                            cases += 1
                            pts = line_points(s, l)
                            if not diff.isdisjoint(pts) and pivot not in pts:
                                where = (a_idx, scalar, b_idx, v_pow)
                                return False, f"line misses the pivot at {where}"
    return True, f"{cases} line/section incidences"


# ---------------------------------------------------------------------------
# pairwise regulus / extension conditions on family lines


@memo
def _pair_data(geo: Geometry, l):
    """A family line's label, its regulus, the points of its spread's
    extension outside the regulus (ext(S_l) - ext(regulus)), its points."""
    label = geo.label_of(l)
    reg = geo.regulus_of(l)
    sp = geo.spread_from_transversal(l)
    outside = extension_points(geo, sp) - extension_points(geo, reg)
    return label, frozenset(reg), frozenset(outside), line_points(geo.spec, l)


def _sampled_ordered_pairs(geo: Geometry, count: int, seed: int):
    L = geo.line_set_L()
    rng = random.Random(seed)
    if geo.q == 3:
        return [(a, b) for a in L for b in L if a != b]
    out = []
    n = len(L)
    for _ in range(count):
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        out.append((L[i], L[j]))
    return out


def _label_values(geo):
    """The field values of every label, as is_good's pair_conditions takes them."""
    labels = candidate_universe(geo.lam)
    return dict(zip(labels, candidate_values(geo.lam, labels)))


@suite("regulus-pair-conditions", lambda q: q <= 5)
def check_regulus_pair_conditions(geo: Geometry, pairs: int = 10000,
                                  seed: int = 11) -> CheckResult:
    """Shared spread-reguli across the line family.  Per line pair: equal
    labels or a nonzero unit cross form force distinct reguli.  Per label
    pair: some cross pair shares a regulus exactly when the labels differ
    and the form vanishes (the sharing is a partial matching, never the
    full pencil product)."""
    s = geo.spec
    q = geo.q
    vals = _label_values(geo)
    checked = 0
    for li, lj in _sampled_ordered_pairs(geo, pairs, seed):
        (lab_i, reg_i, _, _) = _pair_data(geo, li)
        (lab_j, reg_j, _, _) = _pair_data(geo, lj)
        checked += 1
        if (lab_i == lab_j or pair_conditions(s, vals[lab_i], vals[lab_j])[0]) \
                and li != lj and reg_i == reg_j:
            return False, f"regulus collision at labels {lab_i}, {lab_j}"
    labels = candidate_universe(geo.lam)
    agg = 0
    for lab_i in labels:
        regs_i = {geo.regulus_of(l) for l in geo.pencil(*lab_i)}
        if len(regs_i) != q:
            return False, f"pencil {lab_i} repeats a regulus"
        for lab_j in labels:
            if lab_j <= lab_i:
                continue
            agg += 1
            regs_j = {geo.regulus_of(l) for l in geo.pencil(*lab_j)}
            shares = bool(regs_i & regs_j)
            if shares == pair_conditions(s, vals[lab_i], vals[lab_j])[0]:
                return False, f"label verdict wrong at {lab_i}, {lab_j}"
    return True, f"{checked} line pairs, {agg} label pairs"


@suite("extension-disjointness-conditions", lambda q: q <= 5)
def check_extension_disjoint_conditions(geo: Geometry, pairs: int = 10000,
                                        seed: int = 13) -> CheckResult:
    """Interference between a family line and the extension of another
    line's spread minus their shared regulus.  Per line pair: equal labels
    or a nonzero twisted form force empty intersection.  Per label pair:
    some cross pair interferes exactly when the labels differ and the
    twisted form vanishes."""
    s = geo.spec
    vals = _label_values(geo)
    checked = 0
    for li, lj in _sampled_ordered_pairs(geo, pairs, seed):
        (lab_i, _, outside_i, _) = _pair_data(geo, li)
        (lab_j, _, _, points_j) = _pair_data(geo, lj)
        checked += 1
        if lab_i == lab_j or pair_conditions(s, vals[lab_i], vals[lab_j])[1]:
            if not outside_i.isdisjoint(points_j):
                return False, f"interference at labels {lab_i}, {lab_j}"
    labels = candidate_universe(geo.lam)
    agg = 0
    for lab_i in labels:
        pen_i = geo.pencil(*lab_i)
        for lab_j in labels:
            if lab_j == lab_i:
                continue
            agg += 1
            want = not pair_conditions(s, vals[lab_i], vals[lab_j])[1]
            pen_j = geo.pencil(*lab_j)
            found = any(not _pair_data(geo, li)[2].isdisjoint(_pair_data(geo, lj)[3])
                        for li in pen_i for lj in pen_j)
            if found != want:
                return False, f"label verdict wrong at {lab_i}, {lab_j}"
    return True, f"{checked} line pairs, {agg} label pairs"


# ---------------------------------------------------------------------------
# good sets, parallelisms, groups


@suite("plane-model-partitions", lambda q: q <= 7)
def check_plane_model_partitions(geo: Geometry) -> CheckResult:
    """Model point sets have size (q+1)^2, are pairwise disjoint, and are
    partitioned by the line family and by each conic family into q+1
    classes of q+1 points."""
    q = geo.q
    lam = geo.lam
    model = PlaneModel(lam)
    zsets = {a: model.Z_alpha(a) for a in lam.I}
    for a, z in zsets.items():
        if len(z) != (q + 1) ** 2:
            return False, f"|Z| = {len(z)} at index {a}"
        for c in model.U:
            cls = [p for p in z if model.on_line(c, p)]
            if len(cls) != q + 1:
                return False, "line class size wrong"
        for b in model.U:
            cls = [p for p in z if model.on_conic(lam.alpha(a), b, p)]
            if len(cls) != q + 1:
                return False, "conic class size wrong"
    for a1, a2 in combinations(lam.I, 2):
        if zsets[a1] & zsets[a2]:
            return False, "model point sets intersect"
    return True, f"{len(lam.I)} components of size {(q + 1)**2}"


@suite("goodset-predicate-equivalence", lambda q: q <= 7)
def check_predicate_equivalence(geo: Geometry, samples: int = 20000,
                                seed: int = 5) -> CheckResult:
    """The pairwise algebraic predicate agrees with the one-point-per-line,
    one-point-per-bundle geometric predicate."""
    q = geo.q
    lam = geo.lam
    univ = candidate_universe(lam)
    if q <= 4:
        todo = combinations(univ, q + 1)
        note = "exhaustive"
    else:
        rng = random.Random(seed)
        todo = (tuple(rng.sample(univ, q + 1)) for _ in range(samples))
        note = f"{samples} sampled"
    n = 0
    for sub in todo:
        n += 1
        if is_good(lam, sub).ok != is_good_geometric(lam, sub):
            return False, f"predicates disagree on {sub}"
    return True, f"{note}, {n} subsets"


@suite("line-conic-intersections", lambda q: q <= 7)
def check_intersection_tables(geo: Geometry) -> CheckResult:
    """Line/conic/component intersection counts and their bundle row sums,
    exhaustively over all (c, b, alpha, beta)."""
    s = geo.spec
    q = geo.q
    lam = geo.lam
    minus1 = s.minus_one()
    half = (q + 1) // 2
    i1, i2 = len(lam.I1), len(lam.I2)
    for c in geo.U:
        for b in geo.U:
            prof = intersection_profile(lam, c, b)
            for (a_idx, b_idx), cnt in prof.items():
                if a_idx != b_idx:
                    if cnt != 0:
                        return False, "off-component intersection nonzero"
                    continue
                if q % 2 == 0:
                    if cnt != 1:
                        return False, f"even-q count {cnt} != 1"
                    continue
                sign = s.pow(s.mul(c, b), half)
                square = s.is_square_subfield(lam.norm_of(a_idx)) \
                    if lam.norm_of(a_idx) != 0 else False
                want = 2 if ((square and sign == 1)
                             or (not square and sign == minus1)) else 0
                if cnt != want:
                    return False, f"odd-q count {cnt} != {want}"
            row = sum(prof[(a_idx, a_idx)] for a_idx in lam.I)
            if q % 2 == 0:
                if row != len(lam.I):
                    return False, "bundle row sum wrong"
            else:
                sign = s.pow(s.mul(c, b), half)
                want_row = 2 * i1 if sign == 1 else 2 * i2
                if row != want_row:
                    return False, "bundle row sum wrong"
    return True, f"all {(q + 1) ** 2} (c,b) cells"


@suite("goodset-census")
def check_count_census(geo: Geometry) -> CheckResult:
    """Enumeration agrees with the mask count, is duplicate-free, emits
    only good sets, and is deterministic (two runs give identical streams).
    Closed-form agreement is reported as data."""
    q = geo.q
    lam = geo.lam
    cen = census(lam)
    detail = f"oracle {cen.oracle}"
    if q <= 5:
        run1 = list(enumerate_good_sets(lam))
        run2 = list(enumerate_good_sets(lam))
        if run1 != run2:
            return False, "two enumeration runs differ"
        if len(run1) != len(set(run1)):
            return False, "enumeration emitted duplicates"
        if len(run1) != cen.oracle:
            return False, f"enumeration {len(run1)} != mask count {cen.oracle}"
        probe = run1 if len(run1) <= 256 else run1[:256]
        for gs in probe:
            if not is_good(lam, gs).ok:
                return False, "enumeration emitted a non-good set"
    for k, v in cen.formulas.items():
        detail += f", {k}={v}{'(match)' if cen.oracle_matches.get(k) else '(differs)'}"
    if cen.formula_conflict:
        detail += ", even-q printed forms conflict"
    return True, detail


@suite("parallelism-roundtrip", lambda q: q <= 5)
def check_parallelism_roundtrip(geo: Geometry, count: int = 4) -> CheckResult:
    """Build a few parallelisms, verify exact cover, invariance under the
    unitriangular group, and label recovery."""
    q = geo.q
    lam = geo.lam
    sets = [fixed_plane_good_set(lam, lam.I[0], 0),
            dual(fixed_plane_good_set(lam, lam.I[0], 0))]
    for gs in enumerate_good_sets(lam, limit=count):
        sets.append(gs)
    for gs in sets:
        par = build_parallelism(geo, gs)
        cert = verify_parallelism(geo, par)
        if not cert.ok:
            return False, f"certificate failed: {cert.reason()}"
        if cert.line_count != (q * q + 1) * (q * q + q + 1):
            return False, "covered line count wrong"
        if not is_E_invariant(geo, par):
            return False, "not invariant under the unitriangular group"
        res = characterize(geo, par)
        if not res.ok or res.good_set != flip_canonical(lam, gs):
            return False, f"label recovery failed: {res.reason}"
    return True, f"{len(sets)} parallelisms"


@suite("non-good-families-fail", lambda q: q <= 4)
def check_negative_mutations(geo: Geometry, want: int = 20) -> CheckResult:
    """Families assembled from non-good label sets must fail the exact
    cover with a concrete overcovered or uncovered line."""
    q = geo.q
    lam = geo.lam
    n = q + 1
    tried = 0
    for gs in enumerate_good_sets(lam, limit=8):
        for slot in range(n):
            for delta in range(1, n):
                if tried >= want:
                    break
                cands = list(gs)
                c = cands[slot]
                cands[slot] = Candidate(c.alpha_idx, c.u_pow, (c.v_pow + delta) % n)
                if len(set(cands)) != n:
                    continue
                if is_good(lam, cands).ok:
                    continue
                tried += 1
                family = assemble_spread_family(geo, cands)
                cert = verify_parallelism(geo, family)
                if cert.ok:
                    return False, f"mutant {cands} passed verification"
                if not cert.multiply_covered and not cert.uncovered \
                        and not cert.spread_failures:
                    return False, "failure without a concrete witness"
    if tried < want:
        return False, f"only {tried} mutants exercised"
    try:
        build_parallelism(geo, cands)
        return False, "builder accepted a non-good set"
    except ValueError:
        pass
    return True, f"{tried} mutants all failed with witnesses"


@suite("pencil-orbits", lambda q: q <= 5)
def check_pencil_orbits(geo: Geometry, sample: int = 6, seed: int = 17) -> CheckResult:
    """The unitriangular group is transitive on each pencil (its q lines
    other than r_U1): the orbit of any member is the whole pencil."""
    rng = random.Random(seed)
    E = group_E(geo)
    labels = candidate_universe(geo.lam)
    for a, u, v in rng.sample(labels, min(sample, len(labels))):
        pen = set(geo.pencil(a, u, v))
        l = next(iter(pen))
        orbit = {psi.apply_line(l) for psi in E.elements}
        if orbit != pen:
            return False, f"orbit mismatch at {(a, u, v)}"
    return True, f"{min(sample, len(labels))} pencils"


@suite("unitriangular-group", lambda q: q <= 5)
def check_unitriangular_group(geo: Geometry) -> CheckResult:
    """Order q^2, elementary abelian, fixes r_U1 pointwise, stabilizes the
    transversal pair, every component, and every distinguished plane."""
    s = geo.spec
    q = geo.q
    E = group_E(geo)
    if E.order != q * q:
        return False, f"order {E.order} != q^2"
    for psi in E.elements:
        power = psi
        for _ in range(s.p - 1):
            power = power.then(psi)
        if not power.is_identity():
            return False, "element order does not divide p"
    for g1 in E.generators:
        for g2 in E.generators:
            if g1.then(g2).canonical_key() != g2.then(g1).canonical_key():
                return False, "generators do not commute"
    for P in line_points(s, geo.space.r_U1):
        if any(psi.apply_point(P) != P for psi in E.generators):
            return False, "r_U1 not fixed pointwise"
    for psi in E.generators:
        if psi.apply_line(geo.space.t1) != geo.space.t1:
            return False, "t1 moved"
        if psi.apply_line(geo.space.t2) != geo.space.t2:
            return False, "t2 moved"
        for k in range(q - 1):
            sig = geo.component(k)
            if {psi.apply_point(P) for P in sig} != sig:
                return False, "component moved"
        # psi fixes r_U1, so it maps a plane through r_U1 to the plane of
        # r_U1 and the image of any one of its other points
        for a in geo.lam.I:
            for v_pow in range(q + 1):
                R = psi.apply_point(geo.plane_point(a, v_pow))
                if geo.r_U1_plane(R) != geo.plane_pi(a, v_pow):
                    return False, "distinguished plane moved"
    return True, f"order {E.order}"


@suite("distinct-parallelisms", lambda q: q <= 5)
def check_distinct_parallelisms(geo: Geometry, sample: int = 24, seed: int = 23) -> CheckResult:
    """Distinct norm-minus-one-free good sets give distinct parallelisms;
    flip-conjugate good sets give the same parallelism."""
    q = geo.q
    lam = geo.lam
    rng = random.Random(seed)
    if q % 2 == 0:
        family = list(enumerate_good_sets(lam))
    else:
        family = list(enumerate_good_sets(lam, exclude_norm_minus_one=True))
        if len(family) > sample:
            family = rng.sample(family, sample)
    keys = {}
    for gs in family:
        key = build_parallelism(geo, gs).key()
        if key in keys:
            return False, f"collision between {keys[key]} and {gs}"
        keys[key] = gs
    detail = f"{len(family)} norm-filtered good sets pairwise distinct"
    classes = flip_classes(lam)
    gs = next(iter(enumerate_good_sets(lam, limit=1)))
    partners = [(c, d) for c in gs for d in classes if d != c and classes[d] == classes[c]]
    if partners:
        c, d = partners[0]
        k1 = build_parallelism(geo, gs).key()
        k2 = build_parallelism(geo, canonical(d if x == c else x for x in gs)).key()
        if k1 != k2:
            return False, "flip-conjugate labels changed the parallelism"
        detail += "; flip-conjugate collapse confirmed"
    return True, detail


@suite("model-group-actions", lambda q: q <= 4)
def check_group_actions(geo: Geometry, sample: int = 4, seed: int = 29) -> CheckResult:
    """Model-plane group actions: images of good sets are good, the label
    swap is an involution, and the diagonal action yields equivalent
    parallelisms via the explicit diagonal witness."""
    s = geo.spec
    q = geo.q
    lam = geo.lam
    rng = random.Random(seed)
    sets = list(enumerate_good_sets(lam, limit=64))
    probe = rng.sample(sets, min(sample, len(sets)))
    gens = [G1Element(1, 0), G1Element(0, 1), G1Element(0, 0, swapped=True)]
    for gs in probe:
        if dual(dual(gs)) != gs:
            return False, "label swap is not an involution"
        if not is_good(lam, dual(gs)).ok:
            return False, "dual of a good set is not good"
        for g in gens:
            apply_G1(lam, gs, g)   # raises if the image is not good
    # diagonal action: explicit ambient witness maps the parallelisms
    gs = probe[0]
    u_pow, v_pow = 1, 2
    img = apply_G1(lam, gs, G1Element(u_pow, v_pow))
    u0, v0 = geo.U[u_pow], geo.U[v_pow]
    ratio = s.div(v0, u0)
    c = next(x for x in range(1, s.order) if s.pow(x, q - 1) == ratio)
    witness = Collineation.linear(s, (
        (1, 0, 0, 0),
        (0, c, 0, 0),
        (0, 0, u0, 0),
        (0, 0, 0, s.mul(s.frobenius(c), u0))))
    p1 = build_parallelism(geo, gs)
    p2 = build_parallelism(geo, img)
    if (geo.spread_keys(p1.spreads, geo.point_permutation(witness))
            != list(p2.key())):
        return False, "diagonal witness does not map the parallelisms"
    if are_equivalent(geo, gs, img) is None:
        return False, "diagonal images not detected as equivalent"
    return True, f"{len(probe)} sets, diagonal witness verified"


@suite("stabilizer-order", lambda q: q <= 5)
def check_stabilizer_order(geo: Geometry) -> CheckResult:
    """Closure of the line-stabilizer generators has the reference order
    and every generator preserves the spread union and the line."""
    grp = stabilizer_group(geo)
    if grp.order != grp.formula_order:
        return False, f"closure {grp.order} != formula {grp.formula_order}"
    d_lines, r_line = [geo.desarguesian_spread()], [(geo.line_id(geo.space.r_U1),)]
    for perm in map(geo.point_permutation, grp.generators):
        if geo.spread_keys(d_lines, perm) != d_lines:
            return False, "generator moves the Desarguesian spread"
        if geo.spread_keys(r_line, perm) != r_line:
            return False, "generator moves the distinguished line"
    return True, f"order {grp.order}"


@suite("equivalence-search", lambda q: q <= 4)
def check_equivalence_search(geo: Geometry, trials: int = 10, seed: int = 31) -> CheckResult:
    """Randomized soundness of the equivalence search, inequivalence of the
    fixed-plane example and its dual, and (q=3) confirmation against the
    full spread stabilizer."""
    q = geo.q
    lam = geo.lam
    rng = random.Random(seed)
    grp = stabilizer_group(geo)
    reps, number = flip_numbering(geo)
    sets = list(enumerate_good_sets(lam, limit=64))
    for _ in range(trials):
        gs = rng.choice(sets)
        psi = rng.choice(grp.elements)
        moved = apply_label_action(label_action(geo, psi), sorted(map(number.__getitem__, gs)))
        if are_equivalent(geo, gs, [reps[i] for i in moved]) is None:
            return False, "search missed a constructed equivalence"
    B = fixed_plane_good_set(lam, lam.I[0], 0)
    Bd = dual(B)
    if are_equivalent(geo, B, Bd) is not None:
        return False, "fixed-plane example equivalent to its dual"
    detail = f"{trials} random pairs, dual separation"
    if q == 3:
        # sweep the full spread stabilizer: no element carries the
        # fixed-plane parallelism to its dual, and every element that
        # stabilizes it also fixes the distinguished line
        full = full_stabilizer_group(geo)
        pb = build_parallelism(geo, B)
        own = pb.spreads
        own_key = list(pb.key())
        dual_key = list(build_parallelism(geo, Bd).key())
        members = set(own_key) | set(dual_key)
        r_line = [(geo.line_id(geo.space.r_U1),)]
        cross_hits = 0
        stab_size = 0
        for perm in full.perms:
            # two Hall members first: every element fixes the Desarguesian one
            if not members.issuperset(geo.spread_keys(own[:2], perm)):
                continue
            whole = geo.spread_keys(own, perm)
            if whole == dual_key:
                cross_hits += 1
            elif whole == own_key:
                stab_size += 1
                if geo.spread_keys(r_line, perm) != r_line:
                    return False, "a parallelism stabilizer element moves r_U1"
        if cross_hits:
            return False, "full-group sweep found a forbidden equivalence"
        detail += (f", full-group sweep over {full.order} elements clean "
                   f"(stabilizer size {stab_size}, all fixing the line)")
    return True, detail


@suite("orbit-consistency", lambda q: q <= 4)
def check_orbit_consistency(geo: Geometry) -> CheckResult:
    """Orbit sizes divide the group order, stabilizer orders multiply back,
    and orbit sizes sum to the family size."""
    report = classify(geo)
    if sum(o.size for o in report.orbits) != report.family_size:
        return False, "orbit sizes do not sum up"
    for o in report.orbits:
        if o.size * o.stabilizer_order != report.group_order:
            return False, "orbit-stabilizer relation broken"
    return True, f"{report.orbit_count} orbits on {report.family_size} classes"
