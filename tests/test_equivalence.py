"""Stabilizer groups, equivalence search, orbit classification and the
published lower bounds."""

import random
from fractions import Fraction

import pytest

from spreadsmith import equivalence
from spreadsmith.equivalence import (
    apply_label_action,
    are_equivalent,
    classify,
    full_stabilizer_group,
    label_action,
    lower_bound_formulas,
    orbit_of,
    stabilizer_gens,
    stabilizer_group,
    stabilizer_order,
)
from spreadsmith.field_tower import lambda_for_q
from spreadsmith.goodsets import (
    Candidate,
    G1Element,
    apply_G1,
    canonical,
    dual,
    enumerate_good_sets,
    fixed_plane_good_set,
    flip_canonical,
    flip_classes,
)
from spreadsmith.parallelisms import build_parallelism
from spreadsmith.proj_geometry import Collineation
from spreadsmith.spreads import Geometry, geometry_for_q


def test_close_group_composes_each_product_once(monkeypatch):
    """The closure dedups on the point permutations it composes, so it
    calls Collineation.then once per new element, and its element list is
    the one the composing key gave, each element with its permutation."""
    geo = geometry_for_q(3)
    gens = stabilizer_gens(geo)
    tau = Collineation.from_tau(geo.spec, geo.eta)

    def key(c):
        return min(c.canonical_key(), c.then(tau).canonical_key())

    composed = [Collineation.identity(geo.spec)]
    seen = {key(composed[0])}
    for e in composed:
        for g in gens:
            n = e.then(g)
            if key(n) not in seen:
                seen.add(key(n))
                composed.append(n)
    calls = []
    then = Collineation.then
    monkeypatch.setattr(Collineation, "then",
                        lambda self, other: calls.append(1) or then(self, other))
    members = equivalence.close_group(geo, gens)
    elements = [e for e, _ in members]
    assert elements == composed and len(elements) == 576
    assert len(calls) == len(elements) - 1
    assert len({perm for _, perm in members}) == 576


def test_stabilizer_orders_match_formula():
    for q, want in ((3, 576), (4, 4800), (5, 7200)):
        geo = geometry_for_q(q)
        assert stabilizer_group(geo).order == want == stabilizer_order(geo)


def test_full_stabilizer_order_q3():
    geo = geometry_for_q(3)
    grp = full_stabilizer_group(geo)
    assert grp.order == 5760 == stabilizer_order(geo) * (geo.q**2 + 1)


def test_generators_stabilize_spread_and_line():
    for q in (3, 4):
        geo = geometry_for_q(q)
        d = set(map(geo.line, geo.desarguesian_spread()))
        for psi in stabilizer_gens(geo):
            assert {psi.apply_line(l) for l in d} == d
            assert psi.apply_line(geo.space.r_U1) == geo.space.r_U1


def _numbered(geo, gs):
    _, number = flip_classes(geo.lam)
    return tuple(sorted(number[c] for c in gs))


def _candidates(geo, numbered):
    reps, _ = flip_classes(geo.lam)
    return tuple(reps[i] for i in numbered)


def test_label_action_matches_spread_action():
    rng = random.Random(11)
    for q in (3, 4):
        geo = geometry_for_q(q)
        lam = geo.lam
        grp = stabilizer_group(geo)
        sets = list(enumerate_good_sets(lam, limit=40))
        for _ in range(4):
            psi = rng.choice(grp.elements)
            gs = rng.choice(sets)
            par = build_parallelism(geo, gs)
            spread_keys = sorted(tuple(sorted(psi.apply_line(l) for l in map(geo.line, sp)))
                                 for sp in par.spreads)
            act = label_action(geo, psi)
            moved = apply_label_action(act, _numbered(geo, gs))
            par2 = build_parallelism(geo, _candidates(geo, moved))
            assert spread_keys == sorted(tuple(map(geo.line, sp)) for sp in par2.spreads)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_label_actions_permute_the_flip_classes(q):
    # the classes are numbered by their sorted representatives, and each
    # generator's images are the numbers, each once
    geo = geometry_for_q(q)
    reps, number = flip_classes(geo.lam)
    assert list(reps) == sorted(set(reps)) == sorted(reps[i] for i in set(number.values()))
    assert all(number[rep] == i for i, rep in enumerate(reps))
    for psi in stabilizer_gens(geo):
        assert sorted(label_action(geo, psi)) == list(range(len(reps)))


@pytest.mark.parametrize("q, order", [(3, 16), (4, 100), (5, 72), (7, 128), (8, 486), (9, 400)])
def test_label_group_order(q, order):
    assert len(equivalence.label_group(geometry_for_q(q))) == order


@pytest.mark.parametrize("q", [3, 4])
def test_label_group_holds_each_elements_own_action(q):
    geo = geometry_for_q(q)
    for psi, perm in equivalence.label_group(geo):
        assert label_action(geo, psi) == perm


def test_are_equivalent_basics():
    geo = geometry_for_q(3)
    lam = geo.lam
    B = fixed_plane_good_set(lam, lam.I[0], 0)
    w = are_equivalent(geo, B, B)
    assert w is not None
    # the diagonal group image is equivalent
    img = apply_G1(lam, B, G1Element(2, 1))
    assert are_equivalent(geo, B, img) is not None
    # the dual is not
    assert are_equivalent(geo, B, dual(B)) is None


def test_are_equivalent_rejects_out_of_family():
    # q+1 valid candidates on one line class fail the unit-ratio condition
    geo = geometry_for_q(3)
    lam = geo.lam
    bad = [Candidate(lam.I[0], u, u) for u in range(4)]
    good = fixed_plane_good_set(lam, lam.I[0], 0)
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="not a good set"):
            are_equivalent(geo, *pair)


def test_classification_q3():
    geo = geometry_for_q(3)
    rep = classify(geo)
    assert rep.orbit_count == 2
    assert sorted(o.size for o in rep.orbits) == [2, 2]
    assert all(o.stabilizer_order == 288 for o in rep.orbits)
    assert rep.family_size == 4
    # fixed-plane example and its dual land in different orbits
    lam = geo.lam
    B = flip_canonical(lam, fixed_plane_good_set(lam, lam.I[0], 0))
    Bd = flip_canonical(lam, dual(fixed_plane_good_set(lam, lam.I[0], 0)))
    assert Bd not in orbit_of(geo, B)


@pytest.mark.parametrize("q", [3, 4])
def test_orbit_of_matches_full_group_sweep(q):
    # reference: the images of a family member under every element of the
    # closed point-permutation group, which is the same set for every
    # member of that orbit
    geo = geometry_for_q(q)
    lam = geo.lam
    actions = [label_action(geo, psi) for psi in stabilizer_group(geo).elements]
    family = {_numbered(geo, gs) for gs in enumerate_good_sets(lam)}
    while family:
        swept = {apply_label_action(act, min(family)) for act in actions}
        for gs in swept:
            want = {_candidates(geo, x) for x in swept}
            assert orbit_of(geo, _candidates(geo, gs)).keys() == want
        family -= swept


@pytest.mark.parametrize("q", [3, 4, 5])
def test_are_equivalent_witness_maps_spreads(q):
    rng = random.Random(q)
    geo = geometry_for_q(q)
    family = sorted({flip_canonical(geo.lam, gs)
                     for gs in enumerate_good_sets(geo.lam)})
    for _ in range(6):
        g1 = rng.choice(family)
        g2 = rng.choice(sorted(orbit_of(geo, g1)))
        w = are_equivalent(geo, g1, g2)
        p1, p2 = build_parallelism(geo, g1), build_parallelism(geo, g2)
        assert (sorted(tuple(sorted(w.apply_line(l) for l in map(geo.line, sp)))
                       for sp in p1.spreads)
                == sorted(tuple(map(geo.line, sp)) for sp in p2.spreads))


def test_classification_q4():
    geo = geometry_for_q(4)
    rep = classify(geo)
    assert rep.family_size == 120
    assert rep.orbit_count == 6
    assert sorted(o.size for o in rep.orbits) == [5, 5, 5, 5, 50, 50]
    for o in rep.orbits:
        assert o.size * o.stabilizer_order == rep.group_order
    assert sum(o.size for o in rep.orbits) == 120


def test_classification_q5():
    geo = geometry_for_q(5)
    rep = classify(geo)
    assert (rep.orbit_count, rep.family_size, rep.group_order) == (187, 8820, 7200)
    census = {}
    for o in rep.orbits:
        census[o.size] = census.get(o.size, 0) + 1
    assert census == {3: 2, 6: 6, 12: 4, 18: 17, 36: 82, 72: 76}


@pytest.mark.parametrize("q", [3, 4])
def test_classify_and_are_equivalent_close_no_group(q, monkeypatch):
    # the orbits run on the label group and take |G| from the formula: on a
    # fresh Geometry, with no closed group cached, neither path closes a
    # point-permutation group
    def refuse(*args):
        raise AssertionError("close_group called")

    monkeypatch.setattr(equivalence, "close_group", refuse)
    geo = Geometry(lambda_for_q(q))
    rep = classify(geo)
    assert rep.group_order == {3: 576, 4: 4800}[q]
    g1 = flip_canonical(geo.lam, next(enumerate_good_sets(geo.lam)))
    g2 = max(orbit_of(geo, g1))
    w = are_equivalent(geo, g1, g2)
    p1, p2 = build_parallelism(geo, g1), build_parallelism(geo, g2)
    assert (sorted(tuple(sorted(w.apply_line(l) for l in map(geo.line, sp)))
                   for sp in p1.spreads)
            == sorted(tuple(map(geo.line, sp)) for sp in p2.spreads))


def test_classify_rejects_non_closed_family(monkeypatch):
    # the label actions map good sets to good sets, so an orbit that leaves
    # the enumerated family is a fault in them, not in the caller's input
    geo = geometry_for_q(4)
    family = list(enumerate_good_sets(geo.lam, limit=3))
    monkeypatch.setattr(equivalence, "enumerate_good_sets", lambda lam: iter(family))
    with pytest.raises(AssertionError, match="label actions"):
        classify(geo)


def test_lower_bound_formulas():
    # even q: both printed variants, exact fractions
    b4 = lower_bound_formulas(4, 2)
    assert b4["even_printed"] == Fraction(3, 2) ** 5 * Fraction(2, 2 * 2 * 4 * 5)
    assert b4["even_I_based"] == Fraction(1, 40)
    # odd q by residue class
    assert lower_bound_formulas(3, 1)["odd_3_mod_4"] == 0
    b5 = lower_bound_formulas(5, 1)
    assert b5["odd_1_mod_4"] == 0
    b7 = lower_bound_formulas(7, 1)
    assert b7["odd_3_mod_4"] == Fraction(1, 1) * (48 ** 3) / (2 * 49 * 8)
    b13 = lower_bound_formulas(13, 1)
    assert b13["odd_1_mod_4"] > 1


def test_product_inequality_direction_for_odd_q():
    # the reference chain claims prod (q+1-2i)^2 > (q^2-1)^((q+1)/2); the
    # numeric check refutes it: equality at q=3 and strictly reversed for
    # larger odd q (each factor with i >= 1 is below q^2-1)
    for q in (3, 5, 7, 9, 11, 13):
        prod = 1
        for i in range((q - 1) // 2 + 1):
            prod *= (q + 1 - 2 * i) ** 2
        rhs = (q * q - 1) ** ((q + 1) // 2)
        assert prod == rhs if q == 3 else prod < rhs


def test_equivalence_search_randomized_q3():
    from spreadsmith.checks import check_equivalence_search
    r = check_equivalence_search(geometry_for_q(3))
    assert r.ok, r.detail
