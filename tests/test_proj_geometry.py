"""Ambient projective geometry: canonical forms, incidence, the Plucker
embedding, the Baer involutions and semilinear collineations."""

import random

import pytest

from spreadsmith.field_tower import field_for_q
from spreadsmith.proj_geometry import (
    AmbientSpace,
    Collineation,
    klein_bilinear,
    klein_form,
    klein_transversals,
    line_from_plucker,
    line_in_plane,
    line_intersection,
    line_plane_meet,
    line_points,
    line_through,
    lines_meet,
    normalize,
    plucker,
    point_on_line,
    point_on_plane,
    rref,
    tau_line,
    tau_point,
)


def test_normalize_and_rref_canonical():
    s = field_for_q(3)
    v = (2, 3, 0, 7)
    n = normalize(s, v)
    assert n[0] == 1
    assert normalize(s, n) == n
    with pytest.raises(ValueError):
        normalize(s, (0, 0, 0, 0))
    # any generator pair of a line yields the same canonical form
    rng = random.Random(0)
    amb = AmbientSpace(s)
    for l in rng.sample(amb.all_lines(), 30):
        pts = line_points(s, l)
        for _ in range(5):
            P, Q = rng.sample(pts, 2)
            assert line_through(s, P, Q) == l
    with pytest.raises(ValueError):
        line_through(s, (1, 0, 0, 0), (1, 0, 0, 0))


def test_ambient_counts_q3():
    # PG(3,9): (9^4-1)/8 = 820 points and (81+1)(81+9+1) = 7462 lines
    amb = AmbientSpace(field_for_q(3))
    assert len(amb.all_points()) == 820
    assert len(amb.all_lines()) == 7462
    assert len(set(amb.all_lines())) == 7462


def test_line_points_and_incidence():
    s = field_for_q(4)
    amb = AmbientSpace(s)
    l = amb.t1
    pts = line_points(s, l)
    assert len(pts) == len(set(pts)) == s.order + 1
    for P in pts:
        assert point_on_line(s, l, P)
    assert not point_on_line(s, l, (0, 0, 1, 0))


def test_plane_operations():
    s = field_for_q(3)
    amb = AmbientSpace(s)
    pl = (0, 0, 0, 1)          # X4 = 0, spanned by t1 and U3
    assert point_on_plane(s, pl, amb.U3)
    for P in line_points(s, amb.t1):
        assert point_on_plane(s, pl, P)
    assert line_in_plane(s, amb.t1, pl)
    assert not line_in_plane(s, amb.t2, pl)
    hit = line_plane_meet(s, amb.t2, pl)
    assert hit == (0, 0, 1, 0)
    assert line_plane_meet(s, amb.t1, pl) is None


def test_line_intersection_matches_rank():
    s = field_for_q(3)
    amb = AmbientSpace(s)
    rng = random.Random(1)
    lines = rng.sample(amb.all_lines(), 60)
    for l1 in lines[:30]:
        for l2 in lines[30:]:
            if l1 == l2:
                continue
            pt = line_intersection(s, l1, l2)
            assert (pt is not None) == lines_meet(s, l1, l2)
            if pt is not None:
                assert point_on_line(s, l1, pt) and point_on_line(s, l2, pt)


def test_plucker_klein_relation_all_lines_q3():
    s = field_for_q(3)
    amb = AmbientSpace(s)
    for l in amb.all_lines():
        assert klein_form(s, plucker(s, l)) == 0


def test_plucker_round_trip():
    s = field_for_q(4)
    amb = AmbientSpace(s)
    rng = random.Random(2)
    pts = amb.all_points()
    seen = set()
    while len(seen) < 500:
        P, Q = rng.sample(pts, 2)
        try:
            seen.add(line_through(s, P, Q))
        except ValueError:
            continue
    for l in seen:
        t = plucker(s, l)
        assert line_from_plucker(s, t) == l
    with pytest.raises(ValueError):
        line_from_plucker(s, (1, 0, 0, 0, 0, 1))  # off the quadric
    with pytest.raises(ValueError):
        line_from_plucker(s, (0,) * 6)


def test_plucker_of_t1_has_single_nonzero_coordinate():
    # oracle: the six 2x2 minors of the generator matrix directly
    s = field_for_q(3)
    amb = AmbientSpace(s)
    r, t = amb.t1
    minors = [r[i] * t[j] - r[j] * t[i]
              for i in range(4) for j in range(i + 1, 4)]
    assert sum(1 for x in minors if x) == 1
    assert sum(1 for x in plucker(s, amb.t1) if x) == 1


def test_klein_bilinear_detects_meeting():
    s = field_for_q(3)
    amb = AmbientSpace(s)
    rng = random.Random(3)
    lines = rng.sample(amb.all_lines(), 40)
    for l1 in lines[:20]:
        for l2 in lines[20:]:
            if l1 == l2:
                continue
            meets = lines_meet(s, l1, l2)
            assert (klein_bilinear(s, plucker(s, l1), plucker(s, l2)) == 0) == meets


def test_klein_transversals_match_a_full_search():
    s = field_for_q(3)
    lines = AmbientSpace(s).all_lines()
    rng = random.Random(4)
    seen = 0
    for _ in range(12):
        four = rng.sample(lines, 4)
        coords = [plucker(s, l) for l in four]
        if any(klein_bilinear(s, a, b) == 0 for i, a in enumerate(coords)
               for b in coords[i + 1:]):
            continue
        seen, skew = seen + 1, four
        full = [l for l in lines if all(lines_meet(s, l, m) for m in four)]
        got = sorted(line_from_plucker(s, t) for t in klein_transversals(s, coords))
        assert got == full
    assert seen >= 5
    # four lines of one regulus: the orthogonal vectors form a plane, not a line
    transversals = [l for l in lines if all(lines_meet(s, l, m) for m in skew[:3])]
    regulus = [l for l in lines if all(lines_meet(s, l, t) for t in transversals[:3])]
    assert klein_transversals(s, [plucker(s, l) for l in regulus[:4]]) == []


def test_tau_involution_and_fixed_points():
    for q in (3, 4):
        s = field_for_q(q)
        amb = AmbientSpace(s)
        alpha = s.generator
        # basis image and the fixed point (1, 0, alpha, 0)
        assert tau_point(s, alpha, (1, 0, 0, 0)) == (0, 0, 1, 0)
        P = normalize(s, (1, 0, alpha, 0))
        assert tau_point(s, alpha, P) == P
        pts = amb.all_points() if q == 3 else None
        if pts:
            fixed = [X for X in pts if tau_point(s, alpha, X) == X]
            assert len(fixed) == (q + 1) * (q * q + 1)
            assert set(fixed) == set(amb.sigma_points(alpha))
        for X in (amb.U1, amb.U2, (1, 5, 2, 3)):
            Xn = normalize(s, X)
            assert tau_point(s, alpha, tau_point(s, alpha, Xn)) == Xn
        with pytest.raises(ValueError):
            tau_point(s, 0, (1, 0, 0, 0))
    # the line action is compatible with the point action
    s = field_for_q(3)
    amb = AmbientSpace(s)
    alpha = s.generator
    assert tau_line(s, alpha, amb.t1) == amb.t2
    l = line_through(s, (1, 2, 3, 4), (0, 1, 5, 7))
    lt = tau_line(s, alpha, l)
    assert set(line_points(s, lt)) == {tau_point(s, alpha, P)
                                       for P in line_points(s, l)}


def test_baer_subline_predicate_examples():
    s = field_for_q(4)
    amb = AmbientSpace(s)
    for k in range(s.q - 1):
        alpha = s.pow(s.generator, k)
        assert amb.is_baer_subline(amb.r_U1, alpha)
        assert not amb.is_baer_subline(amb.t1, alpha)


def test_collineation_algebra():
    s = field_for_q(4)
    ident = Collineation.identity(s)
    assert ident.is_identity()
    rng = random.Random(4)
    amb = AmbientSpace(s)
    pts = amb.all_points()
    c1 = Collineation.from_tau(s, s.generator)
    c2 = Collineation.linear(s, ((1, 5, 0, 0), (0, 1, 0, 0),
                                 (0, 0, 1, 7), (0, 0, 0, 1)))
    c3 = Collineation.frobenius(s, 1)
    # each permutes the points, and its powers return to the identity at
    # its order: 2 for tau and for the shift in characteristic 2, 2m = 4
    # for the p-power map
    for c, order in ((c1, 2), (c2, 2), (c3, 4)):
        assert sorted(map(c.apply_point, pts)) == pts
        power = c
        for _ in range(order - 1):
            assert not power.is_identity()
            power = power.then(c)
        assert power.is_identity()
    # composition order: (P^a)^b == P^(a.then(b))
    comp = c1.then(c2)
    for P in rng.sample(pts, 20):
        assert comp.apply_point(P) == c2.apply_point(c1.apply_point(P))
    # tau as a collineation agrees with the raw map
    for P in rng.sample(pts, 50):
        assert c1.apply_point(P) == tau_point(s, s.generator, P)


@pytest.mark.parametrize("q", [3, 4, 8, 9, 16])
def test_from_tau_acts_as_tau_point(q):
    """Collineation.from_tau(spec, alpha) is tau_alpha: on every point at
    q = 3 and 4 and on seeded points above, for an alpha of norm 1 and one
    of another norm."""
    s = field_for_q(q)
    if q <= 4:
        pts = AmbientSpace(s).all_points()
    else:
        rng = random.Random(q)
        vecs = (tuple(rng.randrange(s.order) for _ in range(4)) for _ in range(2000))
        pts = [normalize(s, v) for v in vecs if any(v)]
    unit = next(u for u in s.unit_circle() if u != 1)
    for alpha in (unit, s.generator):
        assert (s.norm(alpha) == 1) == (alpha == unit)
        tau = Collineation.from_tau(s, alpha)
        assert [tau.apply_point(P) for P in pts] == [tau_point(s, alpha, P) for P in pts]


def test_collineation_preserves_incidence():
    s = field_for_q(4)
    amb = AmbientSpace(s)
    rng = random.Random(5)
    pts = amb.all_points()
    c = Collineation.linear(s, ((1, 2, 3, 0), (0, 1, 0, 0),
                                (5, 0, 1, 0), (0, 0, 0, 1))).then(
        Collineation.frobenius(s, 1))
    for _ in range(200):
        P, Q, R = rng.sample(pts, 3)
        try:
            l = line_through(s, P, Q)
        except ValueError:
            continue
        img = c.apply_line(l)
        assert point_on_line(s, img, c.apply_point(P))
        assert point_on_line(s, img, c.apply_point(Q))
        assert point_on_line(s, img, c.apply_point(R)) == point_on_line(s, l, R)


def test_sigma_points_disjointness_examples():
    s = field_for_q(3)
    amb = AmbientSpace(s)
    a1, a2 = 1, s.generator      # norms 1 and norm(g) != 1
    assert not amb.sigma_points(a1) & amb.sigma_points(a2)
    assert len(amb.sigma_points(a1)) == 40
