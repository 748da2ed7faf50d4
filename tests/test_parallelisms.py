"""Parallelism assembly, exact-cover verification, the unitriangular
group, and good-set recovery with its distinct failure reasons."""

import hashlib
import random

import pytest

from spreadsmith import parallelisms
from spreadsmith.goodsets import (
    Candidate,
    canonical,
    dual,
    enumerate_good_sets,
    fixed_plane_good_set,
    flip_canonical,
    is_good,
)
from spreadsmith.parallelisms import (
    CharacterizeResult,
    E_generator_line_perms,
    Parallelism,
    assemble_spread_family,
    build_parallelism,
    characterize,
    family_checksum,
    group_E,
    is_E_invariant,
    verify_parallelism,
)
from spreadsmith.proj_geometry import (
    Collineation,
    klein_bilinear,
    klein_transversals,
    line_from_plucker,
    line_through,
    plucker,
)
from spreadsmith.field_tower import lambda_for_q
from spreadsmith.spreads import Geometry, geometry_for_q


def test_build_and_cover_q3_q4():
    for q in (3, 4):
        geo = geometry_for_q(q)
        gs = fixed_plane_good_set(geo.lam, geo.lam.I[0], 0)
        par = build_parallelism(geo, gs)
        assert len(par) == q * q + q + 1
        d = par.desarguesian_index
        assert d == len(par) - 1
        assert par.spreads[d] == geo.desarguesian_spread()
        # the other q^2+q members are the Hall spreads of the pencil lines
        hall = [l for cand in par.source for l in geo.pencil(*cand)]
        assert len(hall) == q * q + q
        assert list(par.spreads[:d]) == list(map(geo.hall_spread, hall))
        cert = verify_parallelism(geo, par)
        assert cert.ok
        assert cert.line_count == (q * q + 1) * (q * q + q + 1)
        # every hall member switches a regulus through the distinguished line
        r_U1 = geo.line_id(geo.space.r_U1)
        for l in hall:
            assert r_U1 in geo.regulus_of(l)


def test_builder_rejects_non_good_input():
    geo = geometry_for_q(3)
    a = geo.lam.I[0]
    bad = (Candidate(a, 0, 0), Candidate(a, 1, 1),
           Candidate(a, 1, 2), Candidate(a, 2, 0))
    assert not is_good(geo.lam, bad).ok
    with pytest.raises(ValueError, match="not a good set"):
        build_parallelism(geo, bad)


def test_duplicated_desarguesian_member_fails_pigeonhole():
    geo = geometry_for_q(3)
    q = geo.q
    gs = fixed_plane_good_set(geo.lam, geo.lam.I[0], 0)
    par = build_parallelism(geo, gs)
    spreads = list(par.spreads)
    hall_idx = next(i for i in range(len(spreads)) if i != par.desarguesian_index)
    spreads[hall_idx] = geo.desarguesian_spread()
    cert = verify_parallelism(geo, spreads)
    assert not cert.ok
    # the q^2+1 Desarguesian lines are double covered and the q^2+1 lines of
    # the dropped Hall member are uncovered
    assert len(cert.multiply_covered) == q * q + 1
    assert cert.multiply_covered == list(map(geo.line, geo.desarguesian_spread()))
    assert len(cert.uncovered) == q * q + 1
    assert cert.uncovered == list(map(geo.line, par.spreads[hall_idx]))


def test_mutated_families_fail_with_witness():
    geo = geometry_for_q(3)
    lam = geo.lam
    n = geo.q + 1
    found = 0
    for gs in enumerate_good_sets(lam, limit=6):
        for slot in range(n):
            for delta in range(1, n):
                for coord in ("u", "v"):
                    cands = list(gs)
                    c = cands[slot]
                    if coord == "u":
                        cands[slot] = Candidate(c.alpha_idx,
                                                (c.u_pow + delta) % n, c.v_pow)
                    else:
                        cands[slot] = Candidate(c.alpha_idx, c.u_pow,
                                                (c.v_pow + delta) % n)
                    if len(set(cands)) != n or is_good(lam, cands).ok:
                        continue
                    found += 1
                    cert = verify_parallelism(
                        geo, assemble_spread_family(geo, cands))
                    assert not cert.ok
                    assert (cert.multiply_covered or cert.uncovered
                            or cert.spread_failures)
        if found >= 20:
            break
    assert found >= 20


def test_unitriangular_group_properties():
    for q in (3, 4):
        geo = geometry_for_q(q)
        E = group_E(geo)
        assert E.order == q * q
        assert len(E.generators) == 2 * geo.spec.m
        keys = {psi.canonical_key() for psi in E.elements}
        assert len(keys) == q * q


def test_all_parallelisms_E_invariant_q3():
    geo = geometry_for_q(3)
    for gs in enumerate_good_sets(geo.lam):
        par = build_parallelism(geo, gs)
        assert is_E_invariant(geo, par)
    # the closure argument behind the generator check: one of them is
    # invariant under every element of E, mapped as line ids
    keys = set(map(frozenset, par.spreads))
    for perm in map(geo.line_permutation, group_E(geo).elements):
        assert {frozenset(perm[k] for k in key) for key in keys} == keys


def test_a_line_outside_the_subgeometry_is_not_E_invariant():
    # t1 is fixed by every element of E, so the ambient images of this
    # family are the family itself; t1 is not a subgeometry line, though
    geo = geometry_for_q(3)
    E = group_E(geo)
    t1 = geo.space.t1
    assert all(psi.apply_line(t1) == t1 for psi in E.elements)
    assert geo.line_id(t1) >= len(geo.sigma_eta_lines())
    par = build_parallelism(geo, next(enumerate_good_sets(geo.lam)))
    family = [*par.spreads, (geo.line_id(t1),)]
    assert not is_E_invariant(geo, family)
    # told before E's line permutations are derived
    fresh = Geometry(geo.lam)
    assert not is_E_invariant(fresh, family)
    assert all(key[0] != "E_generator_line_perms" for key in fresh._cache)


def test_verify_reads_the_ids_of_a_member_in_any_order():
    geo = geometry_for_q(3)
    par = build_parallelism(geo, next(enumerate_good_sets(geo.lam)))
    spreads = [tuple(reversed(sp)) for sp in par.spreads]
    assert verify_parallelism(geo, spreads).ok
    # a line outside the subgeometry first, so not the member's largest id last
    spreads[0] = (geo.line_id(geo.space.t1),) + par.spreads[0][1:]
    assert (verify_parallelism(geo, spreads).reason()
            == "member 0 is not a spread: line is not stable under the involution")


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_derived_E_permutations_are_the_generators_own(q):
    geo = geometry_for_q(q)
    gens = group_E(geo).generators
    assert list(E_generator_line_perms(geo)) == list(map(geo.line_permutation, gens))


@pytest.mark.parametrize("q", [3, 4, 8, 9])
def test_delta_maps_the_subgeometry_onto_itself_and_conjugates_xi(q):
    geo = geometry_for_q(q)
    s = geo.spec
    delta = geo.delta_map()
    # a KeyError if some point left the subgeometry
    assert sorted(geo.point_permutation(delta)) == list(range(len(geo.sigma_eta)))
    g, gq = s.generator, s.frobenius(s.generator)
    delta_inv = Collineation.linear(s, ((1, 0, 0, 0), (0, s.inv(g), 0, 0),
                                        (0, 0, 1, 0), (0, 0, 0, s.inv(gq))))
    for b in (1, g, s.mul(g, g)):
        conj = delta.then(geo.xi_map(b, 1)).then(delta_inv)
        assert conj.canonical_key() == geo.xi_map(s.mul(b, g), 1).canonical_key()


@pytest.mark.parametrize("q", [4, 8, 9])
def test_E_invariance_checks_the_derived_generators(q):
    """D with the Hall spreads of one xi_1-orbit of pencil lines is mapped
    onto itself by xi_1 but, for p < q, not by xi_g: only the derived
    generators can reject it."""
    geo = geometry_for_q(q)
    xi_1 = geo.xi_map(1, 1)
    orbit = [next(l for l in geo.line_set_L() if xi_1.apply_line(l) != l)]
    while (l := xi_1.apply_line(orbit[-1])) != orbit[0]:
        orbit.append(l)
    assert len(orbit) == geo.spec.p
    family = [geo.desarguesian_spread(), *map(geo.hall_spread, orbit)]
    keys = sorted(family)
    assert geo.spread_keys(family, geo.point_permutation(xi_1)) == keys
    assert not is_E_invariant(geo, family)


def test_characterize_round_trip():
    for q in (3, 4):
        geo = geometry_for_q(q)
        lam = geo.lam
        count = 0
        for gs in enumerate_good_sets(lam, limit=12):
            par = build_parallelism(geo, gs)
            res = characterize(geo, par)
            assert res.ok, res.reason
            assert res.good_set == flip_canonical(lam, gs)
            count += 1
        assert count == 12


def test_characterize_failure_reasons():
    geo = geometry_for_q(3)
    lam = geo.lam
    q = geo.q
    gs = fixed_plane_good_set(lam, lam.I[0], 0)
    par = build_parallelism(geo, gs)
    spreads = list(par.spreads)

    # no Desarguesian member
    members = [sp for i, sp in enumerate(spreads) if i != par.desarguesian_index]
    res = characterize(geo, members + [spreads[0]])
    assert not res.ok and res.reason == "no Desarguesian member"

    # a Hall spread switched on a regulus avoiding the distinguished line
    d = geo.desarguesian_spread()
    r_U1 = geo.line_id(geo.space.r_U1)
    others = [l for l in d if l != r_U1]
    rogue = None
    for i in range(len(others)):
        reg_lines = geo.transversals_of(
            geo.transversals_of([others[0], others[1], others[i]])) \
            if i >= 2 else None
        if reg_lines and r_U1 not in reg_lines:
            reg = tuple(reg_lines)
            opp = geo.opposite_regulus(reg)
            rogue = tuple(sorted((set(d) - set(reg)) | set(opp)))
            break
    assert rogue is not None
    assert geo.is_spread(rogue).ok
    mutated = spreads[:]
    mutated[0] = rogue
    res = characterize(geo, mutated)
    assert not res.ok and res.reason.startswith("regulus misses r_U1")

    # break invariance under the unitriangular group: swap one Hall member
    # for a Hall spread from a pencil that is not fully included
    other_gs = next(g for g in enumerate_good_sets(lam)
                    if flip_canonical(lam, g) != flip_canonical(lam, gs))
    other_par = build_parallelism(geo, other_gs)
    foreign = next(sp for i, sp in enumerate(other_par.spreads)
                   if i != other_par.desarguesian_index and sp not in spreads)
    mutated = spreads[:]
    mutated[0] = foreign
    res = characterize(geo, mutated)
    assert not res.ok and res.reason in ("not E-invariant",
                                         "pencil labels do not form q+1 full pencils")

    # full pencils with a non-good label set (distinct line classes, one
    # bundle collision): E-invariant, correctly grouped, but not good
    a = lam.I[0]
    labels = [Candidate(a, 0, 0), Candidate(a, 1, 3),
              Candidate(a, 1, 0), Candidate(a, 3, 0)]
    assert len({(c.u_pow - c.v_pow) % (q + 1) for c in labels}) == q + 1
    assert not is_good(lam, labels).ok
    family = assemble_spread_family(geo, labels)
    assert len(set(family)) == len(family)
    res = characterize(geo, family)
    assert not res.ok and res.reason == "recovered set not good"

    # a Hall member whose second line meeting r_U1 is a copy of the first:
    # the transversal search then meets two equal lines
    r_pts = set(geo.subline_points(r_U1))
    hall = spreads[0]
    touching = [l for l in hall if r_pts & set(geo.subline_points(l))]
    tampered = [touching[0] if l == touching[1] else l for l in hall]
    mutated = spreads[:]
    mutated[0] = tuple(sorted(tampered))
    res = characterize(geo, mutated)
    assert not res.ok


def _seeded_parallelism(geo, seed):
    rng = random.Random(f"{seed} {geo.q}")
    return build_parallelism(geo, rng.choice(list(enumerate_good_sets(geo.lam, limit=40))))


def _image(perm, lines):
    return tuple(sorted(map(perm.__getitem__, lines)))


def _swap_one_line(members, rng):
    """Each member with one of its lines swapped for a line of the next."""
    out = []
    for sp, other in zip(members, members[1:] + members[:1]):
        k = rng.randrange(len(sp))
        out.append(tuple(sorted(sp[:k] + sp[k + 1:] + (rng.choice(other),))))
    return out


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_hall_member_label_is_E_equivariant(q):
    """What lets characterize check one member per E-orbit: the label, or
    the error, of a member's image under each generator of E is the
    member's own, on built Hall members and on members with one line
    swapped in from another member."""
    geo = geometry_for_q(q)
    members = list(_seeded_parallelism(geo, "equivariant").spreads[:-1])
    swapped = _swap_one_line(members, random.Random(f"swap {q}"))
    perms = E_generator_line_perms(geo)
    errors = set()
    for sp in members + swapped:
        own = parallelisms._hall_member_label(geo, sp)
        errors.add(own[1])
        for perm in perms:
            assert parallelisms._hall_member_label(geo, _image(perm, sp)) == own
    # the valid members, and swapped ones failing in more than one way
    assert None in errors and len(errors) >= 3


def _characterize_member_by_member(geo, family):
    """characterize as it was before the orbit shortcut: every member is
    labelled on its own, in order, and E-invariance is checked last."""
    spreads = [tuple(sorted(sp)) for sp in family]
    q = geo.q
    d_lines = geo.desarguesian_spread()
    rest = [sp for sp in spreads if sp != d_lines]
    if len(rest) == len(spreads):
        return CharacterizeResult(False, reason="no Desarguesian member")
    if len(spreads) != q * q + q + 1 or len(rest) != len(spreads) - 1:
        return CharacterizeResult(False, reason="malformed family size")
    labels = []
    for sp in rest:
        label, err = parallelisms._hall_member_label(geo, sp)
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
    if not is_good(geo.lam, gs).ok:
        return CharacterizeResult(False, reason="recovered set not good", labels=labels)
    return CharacterizeResult(True, good_set=gs, labels=labels)


def _one_pencil_replaced(geo, gs):
    """gs with one candidate replaced by one from another good set, the
    flip classes still distinct and the set not good: its Hall spreads
    are a union of E-orbits that characterize reads as full pencils."""
    lam = geo.lam
    classes = {flip_canonical(lam, [c])[0] for c in gs}
    for other in enumerate_good_sets(lam):
        for c in other:
            if flip_canonical(lam, [c])[0] in classes:
                continue
            for k in range(len(gs)):
                labels = list(gs[:k]) + [c] + list(gs[k + 1:])
                if not is_good(lam, labels).ok:
                    return labels
    raise AssertionError("no replacement leaves a set that is not good")


def _E_orbit(geo, lines):
    orbit, todo = {lines}, [lines]
    while todo:
        sp = todo.pop()
        for perm in E_generator_line_perms(geo):
            if (image := _image(perm, sp)) not in orbit:
                orbit.add(image)
                todo.append(image)
    return sorted(orbit)


def _failing_orbit(geo, members):
    """The E-orbit of the first member with one line swapped for a line of
    another member, for a swap whose orbit has q members, as the first
    member's own has."""
    first = members[0]
    for other in members[1:]:
        for y in set(other) - set(first):
            for k in range(len(first)):
                orbit = _E_orbit(geo, tuple(sorted(first[:k] + first[k + 1:] + (y,))))
                if len(orbit) == geo.q:
                    return orbit
    raise AssertionError("no swap keeps an orbit of q members")


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_characterize_matches_the_member_by_member_loop(q):
    """The orbit shortcut gives the result, reason and labels of checking
    every member, on valid families (also shuffled), one-line swaps between
    two members, a foreign member from another good set, E-invariant
    families with one orbit replaced: by another good set's, or by one
    that fails the member check (the family shuffled), and families with
    repeated members."""
    geo = geometry_for_q(q)
    rng = random.Random(f"member by member {q}")
    par = _seeded_parallelism(geo, "member by member")
    spreads = list(par.spreads)
    shuffled = spreads[:]
    rng.shuffle(shuffled)
    other = build_parallelism(geo, next(
        gs for gs in enumerate_good_sets(geo.lam)
        if flip_canonical(geo.lam, gs) != flip_canonical(geo.lam, par.source)))
    foreign = next(sp for sp in other.spreads if sp not in spreads)
    families = {"built": spreads, "shuffled": shuffled,
                "foreign member": [foreign] + spreads[1:]}
    for n in range(3):
        i, j = rng.sample(range(len(spreads) - 1), 2)
        a, b = rng.randrange(q * q + 1), rng.randrange(q * q + 1)
        swapped = spreads[:]
        swapped[i] = spreads[i][:a] + (spreads[j][b],) + spreads[i][a + 1:]
        swapped[j] = spreads[j][:b] + (spreads[i][a],) + spreads[j][b + 1:]
        families[f"swap {n}"] = swapped
    replaced = assemble_spread_family(geo, _one_pencil_replaced(geo, par.source))
    assert is_E_invariant(geo, replaced)
    families["one orbit replaced"] = replaced
    assert sorted(spreads[:q]) == _E_orbit(geo, spreads[0])
    failing = _failing_orbit(geo, spreads) + spreads[q:]
    rng.shuffle(failing)
    assert is_E_invariant(geo, failing)
    families["failing orbit"] = failing
    # repeated members: q copies of one member in place of its own orbit,
    # or in place of another orbit, which set membership would read as
    # invariant; and one orbit twice, which is invariant as a multiset
    assert sorted(spreads[q:2 * q]) == _E_orbit(geo, spreads[q])
    families["own member repeated"] = [spreads[0]] * q + spreads[q:]
    families["other member repeated"] = [spreads[q]] * q + spreads[q:]
    families["one orbit twice"] = spreads[q:2 * q] + spreads[q:]
    assert is_E_invariant(geo, families["one orbit twice"])
    reasons = {}
    for name, family in families.items():
        res = characterize(geo, family)
        assert res == _characterize_member_by_member(geo, family), (q, name)
        reasons[name] = res.reason
    assert reasons["built"] is reasons["shuffled"] is None
    assert reasons["one orbit replaced"] == "recovered set not good"
    assert reasons["failing orbit"].startswith("regulus misses r_U1")
    assert reasons["foreign member"] in ("not E-invariant",
                                         "pencil labels do not form q+1 full pencils")
    assert reasons["own member repeated"] == reasons["other member repeated"] == "not E-invariant"
    assert reasons["one orbit twice"] == "pencil labels do not form q+1 full pencils"


@pytest.mark.parametrize("q", [3, 4, 5])
def test_characterize_reports_a_failing_first_member_before_deriving_E(q, monkeypatch):
    """A line swapped between the first two Hall members makes the first
    fail its member check, and characterize reports that failure, as the
    member-by-member loop does, without deriving E's permutations."""
    geo = geometry_for_q(q)
    spreads = list(_seeded_parallelism(geo, "first member").spreads)
    i, j = [k for k, sp in enumerate(spreads) if sp != geo.desarguesian_spread()][:2]
    y = next(l for l in spreads[j] if l not in spreads[i])
    family = spreads[:]
    family[i] = (y,) + spreads[i][1:]
    family[j] = tuple(spreads[i][0] if l == y else l for l in spreads[j])
    expected = _characterize_member_by_member(geo, family)
    assert expected.reason.startswith("regulus misses r_U1") and expected.labels == []
    calls = []
    monkeypatch.setattr(parallelisms, "E_generator_line_perms",
                        lambda geo: calls.append(geo) or E_generator_line_perms(geo))
    assert characterize(geo, family) == expected
    assert calls == []


@pytest.mark.parametrize("q", [3, 4])
def test_members_in_any_order_read_as_sorted(q):
    geo = geometry_for_q(q)
    par = _seeded_parallelism(geo, "reversed")
    reversed_members = [tuple(reversed(sp)) for sp in par.spreads]
    assert verify_parallelism(geo, reversed_members) == verify_parallelism(geo, par)
    assert is_E_invariant(geo, reversed_members)
    assert characterize(geo, reversed_members) == characterize(geo, par)
    assert characterize(geo, par).ok


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8])
def test_every_parallelism_has_the_cover_checksum(q):
    geo = geometry_for_q(q)
    for seed in ("cover", "cover again"):
        par = _seeded_parallelism(geo, seed)
        assert parallelisms._cover_checksum(geo) == family_checksum(geo, par.spreads)
        assert verify_parallelism(geo, par).checksum == family_checksum(geo, par.spreads)


def _directors_by_the_sorted_loop(geo, spread_lines):
    """The directors as they were found before the regulus was passed in:
    the first three sorted lines and each later one in turn, until the four
    have a transversal, kept when it meets every line by klein_bilinear."""
    spec = geo.spec
    coords = [plucker(spec, geo.line(k)) for k in sorted(spread_lines)]
    found = []
    for u in coords[3:]:
        found = klein_transversals(spec, coords[:3] + [u])
        if found:
            break
    return sorted(line_from_plucker(spec, t) for t in found
                  if all(klein_bilinear(spec, t, u) == 0 for u in coords))


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_ambient_directors_match_the_sorted_loop(q):
    """On every Hall member of a seeded parallelism, with the regulus it
    switched in, and on its source, the Desarguesian spread it came from,
    with the regulus switched out: the sources have the two directors of a
    Desarguesian spread, the Hall members none."""
    geo = geometry_for_q(q)
    rng = random.Random(f"directors {q}")
    gs = rng.choice(list(enumerate_good_sets(geo.lam, limit=40)))
    par = build_parallelism(geo, gs)
    members = par.spreads[:par.desarguesian_index]
    assert len(members) == q * q + q
    for l, sp in zip((l for cand in par.source for l in geo.pencil(*cand)), members):
        assert sp == geo.hall_spread(l)
        switched = geo.regulus_of(l)
        opp = geo.transversals_of(switched)
        source = (set(sp) - set(opp)) | set(switched)
        for lines, regulus in ((sp, opp), (source, switched)):
            assert (parallelisms._ambient_directors(geo, lines, regulus)
                    == _directors_by_the_sorted_loop(geo, lines))
        assert parallelisms._ambient_directors(geo, sp, opp) == []
        assert len(parallelisms._ambient_directors(geo, source, switched)) == 2


def test_checksum_fingerprints_the_line_multiset():
    geo = geometry_for_q(3)
    gs = fixed_plane_good_set(geo.lam, geo.lam.I[0], 0)
    par = build_parallelism(geo, gs)
    c1 = family_checksum(geo, par.spreads)
    # member order does not matter
    assert family_checksum(geo, tuple(reversed(par.spreads))) == c1
    # every valid parallelism covers the same line set, so the cover
    # fingerprint agrees; a damaged multiset does not
    other = build_parallelism(geo, dual(gs))
    assert family_checksum(geo, other.spreads) == c1
    damaged = list(par.spreads)
    damaged[0] = damaged[0][:-1]
    assert family_checksum(geo, damaged) != c1


def _reference_checksum(geo, spreads):
    """family_checksum's definition, computed the direct way: hashlib over
    the whole joined text of the sorted line blobs."""
    digits = ["".join(map(str, geo.spec.elem_vec(x))) for x in geo.spec.elements()]
    blobs = [",".join(digits[x] for row in l for x in row)
             for sp in spreads for l in map(geo.line, sp)]
    return hashlib.sha256("|".join(sorted(blobs)).encode()).hexdigest()


def _stray_line(geo):
    """The id of a line of PG(3, q^2) that is not a line of the subgeometry."""
    for x in geo.spec.elements():
        l = line_through(geo.spec, (1, 0, 0, 0), (0, 1, x, 0))
        if geo.tau_eta_line(l) != l:
            return geo.line_id(l)
    raise AssertionError("every line through U1 of that plane is a subgeometry line")


@pytest.mark.parametrize("chunk", [1, 7, parallelisms.CHECKSUM_CHUNK])
def test_checksum_equals_the_digest_of_the_joined_text(chunk, monkeypatch):
    """Fed a chunk of blobs at a time, the digest is the one of the joined
    text: built families at q = 3 and 4, one with a repeated line, one with
    a line outside the subgeometry, and the empty family."""
    monkeypatch.setattr(parallelisms, "CHECKSUM_CHUNK", chunk)
    for q in (3, 4):
        geo = geometry_for_q(q)
        spreads = list(build_parallelism(
            geo, fixed_plane_good_set(geo.lam, geo.lam.I[0], 0)).spreads)
        first = spreads[0]
        families = {
            "built": spreads,
            "repeated line": spreads + [first[:1]],
            "stray line": [first[1:] + (_stray_line(geo),)] + spreads[1:],
            "empty": [],
        }
        for name, family in families.items():
            assert family_checksum(geo, family) == _reference_checksum(geo, family), (q, name)
    assert family_checksum(geo, []) == hashlib.sha256(b"").hexdigest()


CHECKSUM_QS = (3, 4, 5, 7, 8, 9, 11, 13, 16)


def _random_lines(geo, rng, count):
    """The ids of lines of PG(3, q^2) through pairs of seeded random points:
    almost none of them a subgeometry line."""
    spec, order = geo.spec, geo.spec.order
    out = []
    while len(out) < count:
        P, R = ([rng.randrange(order) for _ in range(4)] for _ in range(2))
        if any(P) and any(R):
            try:
                out.append(geo.line_id(line_through(spec, tuple(P), tuple(R))))
            except ValueError:          # the same point twice
                pass
    return out


def _checksum_families(geo, rng):
    """Families of line sets: the Desarguesian spread and two Hall spreads
    (at q <= 9, where the tests build Hall spreads), seeded ambient lines,
    families holding a stray line, repeated lines, or both, and the empty
    family."""
    if geo.q <= 9:
        members = [geo.desarguesian_spread(),
                   *(geo.hall_spread(l) for l in rng.sample(geo.line_set_L(), 2))]
    else:
        members = [tuple(_random_lines(geo, rng, geo.q * geo.q + 1)) for _ in range(3)]
    strays = _random_lines(geo, rng, 5)
    repeated = [members[0][:3], members[1][2:9], members[0][:1]]
    families = {
        "members": members,
        "stray lines": members + [tuple(strays)],
        "repeated lines": members + repeated,
        "stray and repeated": members + repeated + [tuple(strays + strays[:2])],
        "one line": [members[0][:1]],
        "empty": [],
    }
    return {name: [tuple(sorted(lines)) for lines in fam]
            for name, fam in families.items()}


@pytest.mark.parametrize("q", CHECKSUM_QS)
def test_checksum_matches_the_blob_sort_at_every_q(q):
    """The key-sorted checksum against the blob sort written out at every
    supported q.  At q = 11 and 13 the element strings differ in length
    (one GF(p) coefficient may take two digits, so "1" < "10" < "2"), and
    at q = 13 two elements even share a string (1,12 and 11,2)."""
    geo = geometry_for_q(q) if q <= 9 else Geometry(lambda_for_q(q))
    digits = ["".join(map(str, geo.spec.elem_vec(x))) for x in geo.spec.elements()]
    assert (len(set(map(len, digits))) > 1) == (q in (11, 13))
    assert (len(set(digits)) < len(digits)) == (q == 13)
    for name, family in _checksum_families(geo, random.Random(f"checksum {q}")).items():
        assert family_checksum(geo, family) == _reference_checksum(geo, family), (q, name)


@pytest.mark.parametrize("chunk", [1, 5, parallelisms.CHECKSUM_CHUNK])
def test_checksum_chunks_with_uneven_element_strings(chunk, monkeypatch):
    """Chunk boundaries at q = 13, where the blobs differ in length."""
    monkeypatch.setattr(parallelisms, "CHECKSUM_CHUNK", chunk)
    geo = Geometry(lambda_for_q(13))
    for name, family in _checksum_families(geo, random.Random("chunks")).items():
        assert family_checksum(geo, family) == _reference_checksum(geo, family), name


@pytest.mark.parametrize("size", [0, 1, 64, 10**6])
def test_the_checksum_digest_is_sha256(size):
    data = random.Random(size).randbytes(size)
    assert parallelisms.sha256(data).hexdigest() == hashlib.sha256(data).hexdigest()


def test_q7_pipeline_end_to_end():
    # one full build/verify/recover pass at the largest suite q
    geo = geometry_for_q(7)
    gs = fixed_plane_good_set(geo.lam, geo.lam.I[0], 0)
    par = build_parallelism(geo, gs)
    assert len(par) == 57
    cert = verify_parallelism(geo, par)
    assert cert.ok and cert.line_count == 50 * 57
    res = characterize(geo, par)
    assert res.ok and res.good_set == flip_canonical(geo.lam, gs)


def test_parallelism_key_identity():
    geo = geometry_for_q(3)
    lam = geo.lam
    sets = list(enumerate_good_sets(lam))
    keys = {build_parallelism(geo, gs).key() for gs in sets}
    classes = {flip_canonical(lam, gs) for gs in sets}
    assert len(keys) == len(classes) == 4
