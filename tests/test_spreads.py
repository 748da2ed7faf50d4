"""Spreads, pencils, reguli and Hall switching, plus the structural suites
over the spread union and the shifted spread family."""

import random
import tracemalloc
from bisect import bisect_left

import pytest

from spreadsmith import checks
from spreadsmith.equivalence import full_stabilizer_gens, full_stabilizer_group
from spreadsmith.field_tower import lambda_for_q
from spreadsmith.goodsets import candidate_universe
from spreadsmith.parallelisms import group_E
from spreadsmith.proj_geometry import (
    echelon_pairs,
    line_intersection,
    line_points,
    line_through,
    lines_meet,
    normalize,
    point_on_plane,
    rref,
)
from spreadsmith.spreads import Geometry, SpreadReport, geometry_for_q


def test_desarguesian_spread_counts():
    for q in (3, 4, 5):
        geo = geometry_for_q(q)
        d = geo.desarguesian_spread()
        assert len(d) == q * q + 1
        assert geo.is_spread(d).ok
        assert len(checks.extension_points(geo, d)) == (q * q + 1) ** 2
        assert set(map(geo.line, d)) == checks.desarguesian_lines(geo, geo.lam.eta_index)


def test_subgeometry_line_universe():
    for q in (3, 4, 5):
        geo = geometry_for_q(q)
        assert len(geo.sigma_eta_lines()) == (q * q + 1) * (q * q + q + 1)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_sigma_eta_lines_match_the_pairwise_sweep(q):
    """The generated index against the O(N^2) sweep it replaced: the RREF
    line through every pair of subgeometry points, and each line's points
    filtered from its q^2+1 ambient points."""
    geo = geometry_for_q(q)
    spec, sig = geo.spec, geo.sigma_eta
    pts = sorted(sig)
    sweep = sorted({rref(spec, [P, Q]) for i, P in enumerate(pts) for Q in pts[i + 1:]})
    assert geo.sigma_eta_lines() == sweep
    for k, l in enumerate(sweep):
        assert geo.line_id(l) == k and geo.line(k) == l
        on_line = tuple(P for P in line_points(spec, l) if P in sig)
        assert geo.subline_points(k) == on_line


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_line_id_and_line_convert_both_ways(q):
    """Every subgeometry line comes back from its id, and the ids follow
    sigma_eta_lines().  Seeded lines outside the subgeometry get ids from
    N = (q^2+1)(q^2+q+1) upward, the same line the same id, given by any
    two of its points, and is_spread rejects them."""
    geo = Geometry(lambda_for_q(q))
    spec, lines = geo.spec, geo.sigma_eta_lines()
    n = (q * q + 1) * (q * q + q + 1)
    assert len(lines) == n
    assert [geo.line_id(l) for l in lines] == list(range(n))
    assert all(geo.line(geo.line_id(l)) == l for l in lines)
    rng = random.Random(f"strays {q}")
    strays = {}
    while len(strays) < 20:
        P, Q = (normalize(spec, [rng.randrange(spec.order) for _ in range(4)]) for _ in "PQ")
        if P != Q and geo.tau_eta_line(l := line_through(spec, P, Q)) != l:
            strays[l] = geo.line_id(l)
            R = next(R for R in line_points(spec, l) if R not in l)
            assert geo.line_id((R, l[0])) == strays[l]
    assert sorted(strays.values()) == list(range(n, n + 20))
    for l, k in strays.items():
        assert geo.line_id(l) == k and geo.line(k) == l
    d = list(geo.desarguesian_spread())
    for k in strays.values():
        assert geo.is_spread(d[:-1] + [k]).reason == "line is not stable under the involution"


def _blob(l):
    """A line's 8 coordinates as bytes; its code is their big-endian value."""
    return bytes(l[0] + l[1])


def _code(l):
    return int.from_bytes(_blob(l), "big")


@pytest.mark.parametrize("q", [3, 4, 8])
def test_line_id_finds_strays_at_both_ends_and_between_codes(q):
    """Lines outside the subgeometry whose codes sort before the first
    code, after the last and between two codes get stray ids, and keep
    them when given by two other points; a subgeometry line given by two
    of its points that are not its RREF rows gets its own id."""
    geo = Geometry(lambda_for_q(q))
    spec, Q, codes = geo.spec, geo.spec.order, geo._index().codes
    n = geo.line_count
    assert len(codes) == n and list(codes) == sorted(set(codes))
    first = ((0, 0, 1, 0), (0, 0, 0, 1))            # X1 = X2 = 0
    last = ((1, Q - 1, Q - 1, 0), (0, 0, 0, 1))     # the largest RREF code
    rng = random.Random(f"between {q}")
    while True:
        P, R = (normalize(spec, [rng.randrange(Q) for _ in range(4)]) for _ in "PR")
        if P != R and geo.tau_eta_line(between := line_through(spec, P, R)) != between:
            break
    assert _code(first) < codes[0] and _code(last) > codes[-1]
    k = bisect_left(codes, _code(between))
    assert 0 < k < n and codes[k - 1] < _code(between) < codes[k]
    strays = [first, last, between]
    assert [geo.line_id(l) for l in strays] == [n, n + 1, n + 2]
    for i, l in enumerate(strays):
        assert geo.line(n + i) == l and geo.line_bytes(n + i) == _blob(l)
        R, S = [P for P in line_points(spec, l) if P not in l][:2]
        assert geo.line_id((R, S)) == n + i
    assert len(geo._index().strays) == 3
    for k in random.Random(f"lines {q}").sample(range(n), 20):
        P, R = geo.subline_points(k)[1:3]
        assert (P, R) != geo.line(k) and geo.line_id((P, R)) is geo._index().ints[k]


@pytest.mark.parametrize("q", [8, 16])
def test_every_id_handed_out_is_the_index_own_int(q):
    """line_id(line(k)) is the index's own int object for every line at
    q = 8 and for seeded lines at q = 16, and so are the ids the pair
    lookup hands out."""
    geo = Geometry(lambda_for_q(q))
    index = geo._index()
    ks = range(geo.line_count) if q == 8 else random.Random(q).sample(range(geo.line_count), 500)
    assert all(geo.line_id(geo.line(k)) is index.ints[k] for k in ks)
    assert all(geo.line_bytes(k) == _blob(geo.line(k)) for k in ks)
    start, _, line = geo._line_by_pair()
    assert all(k is index.ints[k] for k in line)
    assert all(k is index.ints[k] for k in start if k < geo.line_count)


@pytest.mark.parametrize("q", [3, 4])
def test_line_permutation_matches_apply_line(q):
    """The id action against apply_line for the E generators, the spread
    stabilizer generators (full_stabilizer_gens extends stabilizer_gens)
    and, at q = 3, a seeded sample of the full closure, acting through the
    permutations the closure composed rather than computed."""
    geo = geometry_for_q(q)
    lines = geo.sigma_eta_lines()
    moves = [*group_E(geo).generators, *full_stabilizer_gens(geo)]
    for psi in moves:
        assert geo.line_permutation(psi) == [geo.line_id(psi.apply_line(l)) for l in lines]
    if q == 3:
        full = full_stabilizer_group(geo)
        for k in random.Random(q).sample(range(full.order), 50):
            psi, perm = full.elements[k], full.perms[k]
            for i, l in enumerate(lines):
                assert geo.spread_keys([[i]], perm) == [(geo.line_id(psi.apply_line(l)),)]


INDEX_QS = (3, 4, 5, 7, 8, 9)


def _reference_subline_ids(geo):
    """Each subgeometry line's point ids in the order the index generates
    them, derived here with the scalar field methods: for each 2-dimensional
    GF(q)-subspace <X1, X2> of GF(q^2)^2, the RREF pair of echelon_pairs(q)
    with (a0, a1) coded a0 + q a1, the points v(X1 + c X2) for c = 0 .. q-1,
    then v(X2), where v(x, y) = (x, y, eta x^q, eta y^q)."""
    spec, q, eta = geo.spec, geo.q, geo.eta
    points = sorted(geo.sigma_eta)
    point_id = {P: k for k, P in enumerate(points)}

    def v(x, y):
        return point_id[normalize(spec, (x, y, spec.mul(eta, spec.frobenius(x)),
                                         spec.mul(eta, spec.frobenius(y))))]

    out = {}
    for r1, r2 in echelon_pairs(q):
        x1, y1 = r1[0] + q * r1[1], r1[2] + q * r1[3]
        x2, y2 = r2[0] + q * r2[1], r2[2] + q * r2[3]
        ids = [v(spec.add(x1, spec.mul(c, x2)), spec.add(y1, spec.mul(c, y2))) for c in range(q)]
        ids.append(v(x2, y2))
        out[line_through(spec, points[ids[0]], points[ids[-1]])] = tuple(ids)
    return out


@pytest.mark.parametrize("q", INDEX_QS)
def test_subline_ids_match_the_reference_order(q):
    """The flat id array against the per-line ids derived with the scalar
    field methods, in the same order, and as a set against the line's
    points that lie in the subgeometry."""
    geo = geometry_for_q(q)
    spec, sig, point_id = geo.spec, geo.sigma_eta, geo._index().point_id
    reference = _reference_subline_ids(geo)
    lines = geo.sigma_eta_lines()
    assert sorted(reference) == lines
    for k, l in enumerate(lines):
        ids = tuple(geo.subline_ids(k))
        assert ids == reference[l]
        assert sorted(ids) == sorted(point_id[P] for P in line_points(spec, l) if P in sig)


def _seeded_moves(geo, count):
    """delta, xi_map(1, 1) and seeded products of up to four generators of
    the full spread stabilizer."""
    rng = random.Random(f"moves {geo.q}")
    gens = full_stabilizer_gens(geo)
    moves = [geo.delta_map(), geo.xi_map(1, 1)]
    for _ in range(count):
        psi = rng.choice(gens)
        for _ in range(rng.randrange(4)):
            psi = psi.then(rng.choice(gens))
        moves.append(psi)
    return moves


@pytest.mark.parametrize("q", INDEX_QS)
def test_pair_lookup_and_line_permutation_match_line_through(q):
    """The flat pair lookup finds every line from its two smallest point
    ids, and line_permutation and spread_keys map each line to the line
    through the images of two of its points."""
    geo = geometry_for_q(q)
    spec, points = geo.spec, geo._index().points
    n = len(geo.sigma_eta_lines())
    start, second, line = geo._line_by_pair()
    for k in range(n):
        a, b = sorted(geo.subline_ids(k))[:2]
        assert line[bisect_left(second, b, start[a], start[a + 1])] == k
    sample = random.Random(q).sample(range(n), 40)
    for psi in _seeded_moves(geo, 3):
        perm = geo.point_permutation(psi)
        images = geo.line_permutation(psi)
        assert sorted(images) == list(range(n))
        for k in range(n):
            ids = geo.subline_ids(k)
            assert images[k] == geo.line_id(line_through(spec, points[perm[ids[0]]],
                                                         points[perm[ids[-1]]]))
        assert geo.spread_keys([[k] for k in sample], perm) == sorted(
            (images[k],) for k in sample)


@pytest.mark.parametrize("q", INDEX_QS)
def test_is_spread_reports_match_the_point_count_on_seeded_mutants(q):
    """Seeded mutants of the Desarguesian spread and of Hall spreads: a line
    swapped for another subgeometry line, for a pencil line or for an
    unstable line, a repeated line, a dropped or an added line."""
    geo = geometry_for_q(q)
    rng = random.Random(f"mutants {q}")
    sigma, family = geo.sigma_eta_lines(), geo.line_set_L()
    bases = [list(map(geo.line, geo.desarguesian_spread()))]
    bases += [list(map(geo.line, geo.hall_spread(l))) for l in rng.sample(family, 2)]
    cases = [list(b) for b in bases]
    for base in bases:
        for _ in range(4):
            i = rng.randrange(len(base))
            for new in (rng.choice(sigma), rng.choice(family), geo.space.t1,
                        base[rng.randrange(len(base))]):
                cases.append(base[:i] + [new] + base[i + 1:])
            cases.append(base[:i] + base[i + 1:])
            cases.append(base + [rng.choice(sigma)])
    reasons = set()
    for lines in cases:
        got = geo.is_spread(map(geo.line_id, lines))
        assert got == _is_spread_by_point_count(geo, lines)
        reasons.add(got.reason)
    assert reasons == {None, "point covered more than once",
                       "line is not stable under the involution",
                       f"expected {q*q+1} lines, got {q*q}",
                       f"expected {q*q+1} lines, got {q*q+2}"}


def test_index_and_pair_lookup_memory_q9():
    """One 8-byte code per line and no Python object per line besides its
    id: _index() of a fresh q = 9 Geometry, its point set included, holds
    at most 1.2 MB (tracemalloc; 0.69 MB with the code array, 2.35 MB with
    a line tuple per line and a dict of them), and its traced peak is at
    most 1.5 times what it holds, so no list of line tuples is built on
    the way.  The pair lookup adds at most 0.2 MB (0.08 MB)."""
    geo = Geometry(lambda_for_q(9))
    geo.spec.tables                     # the field tables
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        geo._index()
        held, peak = (m - before for m in tracemalloc.get_traced_memory())
        geo._line_by_pair()
        pairs = tracemalloc.get_traced_memory()[0] - before - held
    finally:
        tracemalloc.stop()
    assert held <= 1.2e6, held
    assert peak <= 1.5 * held, (peak, held)
    assert pairs <= 0.2e6, pairs


def _transversals_by_brute_force(geo, lines):
    """Every subgeometry line meeting each given line, tested by lines_meet."""
    spec = geo.spec
    return [l for l in geo.sigma_eta_lines() if all(lines_meet(spec, l, r) for r in lines)]


def _transversals(geo, lines):
    """transversals_of on the ids of the given lines, as lines."""
    return [geo.line(k) for k in geo.transversals_of(map(geo.line_id, lines))]


def test_transversals_of_match_a_full_search():
    """Transversals found on point ids against every subgeometry line that
    meets the given lines, also when one given line is not in the index."""
    geo = geometry_for_q(4)
    spec = geo.spec
    d = list(map(geo.line, geo.desarguesian_spread()))
    foreign = next(l for l in geo.line_set_L() if not lines_meet(spec, l, d[0])
                   and not lines_meet(spec, l, d[5]))
    for lines in ([d[0], d[5], d[9]], [d[0], d[5], d[9], d[11]], [d[0], d[5], foreign]):
        got = geo.transversals_of(map(geo.line_id, lines))
        assert list(map(geo.line, got)) == _transversals_by_brute_force(geo, lines)
        assert all(t is geo.line_id(geo.line(t)) for t in got)


@pytest.mark.parametrize("q", [3, 4])
def test_transversals_of_match_the_brute_force_on_seeded_sets(q):
    """Point-id masks against lines_meet on seeded reguli and their
    opposites, on sets whose later lines meet earlier ones, and on sets
    holding a line outside the subgeometry among the others."""
    geo = geometry_for_q(q)
    spec, rng = geo.spec, random.Random(f"transversals {q}")
    sigma, family = geo.sigma_eta_lines(), geo.line_set_L()

    def skew_pair():
        while True:
            l1, l2 = rng.sample(sigma, 2)
            if not lines_meet(spec, l1, l2):
                return [l1, l2]

    cases = []
    for _ in range(6):
        pair = skew_pair()
        third = next(l for l in rng.sample(sigma, len(sigma))
                     if not any(lines_meet(spec, l, m) for m in pair))
        opp = _transversals(geo, pair + [third])
        reg = _transversals(geo, opp)
        assert len(opp) == len(reg) == q + 1
        cases += [pair + [third], opp, reg, reg[:2] + rng.sample(reg[2:], 2)]
    for _ in range(6):
        pair = skew_pair()
        # later lines meeting the first or the second, or each other
        meeting = [l for l in rng.sample(sigma, len(sigma)) if lines_meet(spec, l, pair[0])]
        cases += [pair + meeting[:1], pair + meeting[:2] + rng.sample(sigma, 1),
                  pair + [pair[1], pair[0]]]
    for _ in range(6):
        pair = skew_pair()
        ambient = [l for l in rng.sample(family, len(family))
                   if not lines_meet(spec, l, pair[0]) and not lines_meet(spec, l, pair[1])]
        cases += [pair + ambient[:1], pair + ambient[:2], pair + [ambient[0]] + rng.sample(sigma, 1)]
    assert any(_transversals(geo, lines) for lines in cases)
    for lines in cases:
        assert _transversals(geo, lines) == _transversals_by_brute_force(geo, lines)


def test_transversals_of_rejects_meeting_first_lines():
    """The candidates are lines through a point of each of the first two
    given lines, so two that share a point have no line through it and the
    shared point: a ValueError, which characterize reports as no opposite
    regulus."""
    geo = geometry_for_q(3)
    spec, sigma = geo.spec, geo.sigma_eta_lines()
    first = sigma[0]
    second = next(l for l in sigma[1:] if lines_meet(spec, first, l))
    with pytest.raises(ValueError):
        _transversals(geo, [first, second, sigma[-1]])


def _pencil_label_by_intersection(geo, l):
    """pencil_label_of as it was computed with line_intersection."""
    if geo.tau_eta_line(l) == l:       # a subgeometry line
        return None
    P = line_intersection(geo.spec, l, geo.space.r_U1)
    if P is None:
        return None
    return geo.pencil_label(P, geo.r_U1_plane(next(r for r in l if r[1] or r[3])))


def test_pencil_label_of_matches_line_intersection_on_every_line_q3():
    geo = geometry_for_q(3)
    lines = geo.space.all_lines()
    assert len(lines) == 82 * 91
    got = {l: geo.pencil_label_of(l) for l in lines}
    assert got == {l: _pencil_label_by_intersection(geo, l) for l in lines}
    # each of the |I| (q+1)^2 labels names the q^2 lines other than r_U1
    # through its point_P in its plane_pi
    assert sum(lab is not None for lab in got.values()) == len(candidate_universe(geo.lam)) * 3**2


@pytest.mark.parametrize("q", [4, 5, 8])
def test_pencil_label_of_matches_line_intersection_through_r_U1(q):
    """Seeded lines through points of r_U1, U3 included, and the pencil
    line family."""
    geo = geometry_for_q(q)
    spec, rng = geo.spec, random.Random(f"pencil labels {q}")
    lines = list(geo.line_set_L())
    for _ in range(2000):
        P = rng.choice(((1, 0, rng.randrange(spec.order), 0), geo.space.U3))
        Q = tuple(rng.randrange(spec.order) for _ in range(4))
        if any(Q[1::2]):
            lines.append(line_through(spec, P, Q))
    got = [geo.pencil_label_of(l) for l in lines]
    assert got == [_pencil_label_by_intersection(geo, l) for l in lines]
    assert all(lab is not None for lab in got[:len(geo.line_set_L())])


def test_spreads_hold_the_index_lines():
    """Spreads and reguli hold the index's own int objects as line ids."""
    geo = geometry_for_q(4)
    l = geo.line_set_L()[7]
    spreads = (geo.desarguesian_spread(), geo.spread_from_transversal(l), geo.hall_spread(l))
    lines = [m for sp in spreads for m in sp]
    lines += geo.regulus_of(l) + geo.opposite_regulus(geo.regulus_of(l))
    assert all(m is geo.line_id(geo.line(m)) for m in lines)


def _is_spread_by_point_count(geo, lines) -> SpreadReport:
    """The verdict counted point by point on the ambient lines, as it was
    computed before the index."""
    q, spec, sig = geo.q, geo.spec, geo.sigma_eta
    lines = list(lines)
    if len(lines) != q * q + 1:
        return SpreadReport(False, f"expected {q*q+1} lines, got {len(lines)}")
    counts = {}
    for l in lines:
        if geo.tau_eta_line(l) != l:
            return SpreadReport(False, "line is not stable under the involution")
        pts = [P for P in line_points(spec, l) if P in sig]
        if len(pts) != q + 1:
            return SpreadReport(False, "line does not meet the subgeometry in a subline")
        for P in pts:
            counts[P] = counts.get(P, 0) + 1
    for P, c in counts.items():
        if c > 1:
            return SpreadReport(False, "point covered more than once", multiply_covered=P)
    for P in sig:
        if P not in counts:
            return SpreadReport(False, "point not covered")
    return SpreadReport(True)


def _pencil_by_section_scan(geo, a, u, v):
    """The pencil's lines as they were computed before the closed form: the
    line through point_P and each other point of the Baer subplane that
    plane_pi cuts from the subgeometry of alpha."""
    spec = geo.spec
    P, pi = geo.point_P(a, u), geo.plane_pi(a, v)
    section = [S for S in geo.component(a)
               if point_on_plane(spec, pi, S)]
    assert len(section) == geo.q**2 + geo.q + 1
    return tuple(sorted({line_through(spec, P, S) for S in section if S != P}))


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_pencils_and_labels_match_the_section_scan(q):
    geo = geometry_for_q(q)
    r_U1 = geo.space.r_U1
    table = {}
    for lab in candidate_universe(geo.lam):
        pen = geo.pencil(*lab)
        scan = _pencil_by_section_scan(geo, *lab)
        assert r_U1 in scan and pen == tuple(l for l in scan if l != r_U1)
        table.update((l, lab) for l in pen)
    assert {l: geo.label_of(l) for l in table} == table


def test_label_of_rejects_lines_outside_the_family():
    geo = geometry_for_q(3)
    space = geo.space
    for l in (space.r_U1, space.t1, space.t2, *geo.sigma_eta_lines()):
        with pytest.raises(ValueError, match="does not belong to the pencil line family"):
            geo.label_of(l)


@pytest.mark.parametrize("q", [3, 4])
def test_is_spread_reports_match_the_point_count(q):
    geo = geometry_for_q(q)
    d = list(map(geo.line, geo.desarguesian_spread()))
    pencil_line = geo.line_set_L()[0]           # meets the subgeometry in one point
    skew = geo.space.t1                         # misses it, and is not tau-stable
    n = len(geo.sigma_eta_lines())
    assert geo.line_id(pencil_line) >= n and geo.line_id(skew) >= n
    other = next(l for l in geo.sigma_eta_lines() if l not in d)
    cases = {
        "line outside": d[:-1] + [pencil_line],
        "unstable line": [skew] + d[1:],
        "overlap": d[:-1] + [other],
        "repeat": d[:-1] + [d[0]],
        "short": d[:-1],
        "spread": d,
        "hall": list(map(geo.line, geo.hall_spread(pencil_line))),
    }
    reports = {name: geo.is_spread(map(geo.line_id, lines)) for name, lines in cases.items()}
    for name, lines in cases.items():
        assert reports[name] == _is_spread_by_point_count(geo, lines), name
    assert reports["line outside"].reason == "line is not stable under the involution"
    assert reports["unstable line"].reason == "line is not stable under the involution"
    assert reports["overlap"].reason == "point covered more than once"
    assert reports["spread"].ok and reports["hall"].ok


def test_pencil_contents():
    geo = geometry_for_q(4)
    q = geo.q
    for a in geo.lam.I:
        for u in range(q + 1):
            for v in range(q + 1):
                pen = geo.pencil(a, u, v)
                assert len(pen) == q
                assert geo.space.r_U1 not in pen
    with pytest.raises(ValueError):
        geo.pencil(geo.lam.eta_index, 0, 0)


@pytest.mark.parametrize("u, v", [(5, 0), (0, 5), (-1, 0), (0, -1)])
def test_pencil_rejects_exponents_outside_0_to_q(u, v):
    # an exponent that only agrees with 0..q modulo q+1 names the same pencil
    # and must not get a second cache entry
    geo = geometry_for_q(4)
    with pytest.raises(ValueError, match="0..4"):
        geo.pencil(geo.lam.I[0], u, v)


def test_line_family_sizes():
    assert len(geometry_for_q(3).line_set_L()) == 1 * 3 * 16
    assert len(geometry_for_q(4).line_set_L()) == 1 * 4 * 25
    assert len(geometry_for_q(5).line_set_L()) == 2 * 5 * 36


@pytest.mark.parametrize("q", [3, 4, 5])
def test_line_family_is_the_pencils_in_candidate_order(q):
    geo = geometry_for_q(q)
    pencils = [geo.pencil(*c) for c in candidate_universe(geo.lam)]
    assert geo.line_set_L() == tuple(l for pen in pencils for l in pen)


def test_spread_from_transversal_preconditions():
    geo = geometry_for_q(3)
    s = geo.spec
    # a subgeometry line is stable: self-conjugate diagnosis
    with pytest.raises(ValueError, match="self-conjugate"):
        geo.spread_from_transversal(geo.sigma_eta_lines()[0])
    # a one-point secant: meets-the-subgeometry diagnosis
    secant = None
    for l in geo.space.all_lines():
        pts = line_points(s, l)
        if sum(1 for P in pts if P in geo.sigma_eta) == 1:
            secant = l
            break
    assert secant is not None
    with pytest.raises(ValueError, match="meets the subgeometry"):
        geo.spread_from_transversal(secant)
    # no further precondition exists: every line avoiding the subgeometry is
    # automatically non-stable and skew to its conjugate (exhaustive at q=3)
    for l in geo.space.all_lines():
        pts = line_points(s, l)
        if all(P not in geo.sigma_eta for P in pts):
            lt = geo.tau_eta_line(l)
            assert lt != l and not lines_meet(s, l, lt)


def test_transversal_of_t1_rebuilds_desarguesian():
    for q in (3, 4):
        geo = geometry_for_q(q)
        assert geo.spread_from_transversal(geo.space.t1) == geo.desarguesian_spread()


def test_conjugate_transversal_derives_its_own_spread():
    # the memo holds what each call derived, so the spread of l^tau is
    # built from l^tau and must come out equal to the spread of l
    geo = geometry_for_q(5)
    l = geo.line_set_L()[0]
    sp = geo.spread_from_transversal(l)
    conj = geo.spread_from_transversal(geo.tau_eta_line(l))
    assert conj is not sp
    assert conj == sp


def test_regulus_membership_requires_family_line():
    geo = geometry_for_q(3)
    with pytest.raises(ValueError):
        geo.regulus_of(geo.space.t1)


def test_hall_spread_structure():
    geo = geometry_for_q(3)
    q = geo.q
    for l in geo.line_set_L():
        h = geo.hall_spread(l)
        assert geo.is_spread(h).ok
        assert not set(h) & set(geo.desarguesian_spread())
        src = geo.spread_from_transversal(l)
        assert h != src
        assert len(set(h) ^ set(src)) == 2 * (q + 1)


def test_is_spread_negative_report():
    geo = geometry_for_q(3)
    d = list(geo.desarguesian_spread())
    other = next(k for k in range(len(geo.sigma_eta_lines())) if k not in d)
    mutated = d[:-1] + [other]
    rep = geo.is_spread(mutated)
    assert not rep.ok
    assert rep.multiply_covered is not None
    assert not geo.is_spread(d[:-1]).ok


def test_reguli_through_distinguished_line_count():
    geo = geometry_for_q(3)
    assert len(checks.reguli_through_r_U1(geo)) == 12


def test_scalar_line_family_is_one_punctured_pencil():
    for q in (3, 5):
        geo = geometry_for_q(q)
        a = geo.lam.I[0]
        family = {checks.l_lambda(geo, a, scalar) for scalar in range(q)}
        assert family == set(geo.pencil(a, 0, 0))
    with pytest.raises(ValueError, match="subfield"):
        checks.l_lambda(geometry_for_q(3), geometry_for_q(3).lam.I[0], 3)


# structural suites (exhaustive at q=3, case splits at q in {3,5})

def test_suite_baer_subgeometries_q3():
    r = checks.check_baer_subgeometries(geometry_for_q(3))
    assert r.ok, r.detail


def test_suite_subline_extension():
    for q in (3, 4):
        r = checks.check_subline_extension(geometry_for_q(q))
        assert r.ok, r.detail


def test_suite_spread_union_sections_q3():
    r = checks.check_spread_union(geometry_for_q(3))
    assert r.ok, r.detail


def test_suite_regulus_transversal_classification_q3():
    r = checks.check_regulus_transversal_classification(geometry_for_q(3))
    assert r.ok, r.detail


def test_suite_pencil_line_family():
    for q in (3, 4):
        r = checks.check_pencils_and_line_family(geometry_for_q(q))
        assert r.ok, r.detail


def test_suite_transversal_and_hall_spreads_q4():
    geo = geometry_for_q(4)
    assert checks.check_transversal_spreads(geo).ok
    assert checks.check_hall_spreads(geo).ok


def test_suite_desarguesian_property_q3():
    r = checks.check_desarguesian_property(geometry_for_q(3))
    assert r.ok, r.detail


def test_suite_shift_maps_q3():
    r = checks.check_shift_maps(geometry_for_q(3))
    assert r.ok, r.detail


def test_suite_plane_sections_q3():
    r = checks.check_plane_sections(geometry_for_q(3))
    assert r.ok, r.detail


def test_suite_subplane_meet_q3():
    r = checks.check_subplane_meet(geometry_for_q(3))
    assert r.ok, r.detail


def test_suite_section_pivot_q3():
    r = checks.check_section_pivot(geometry_for_q(3))
    assert r.ok, r.detail


@pytest.mark.parametrize("q", [3, 4, 5])
def test_pencil_label_inverts_point_and_plane(q):
    geo = geometry_for_q(q)
    for cand in candidate_universe(geo.lam):
        a, u, v = cand
        assert geo.pencil_label(geo.point_P(a, u), geo.plane_pi(a, v)) == cand
    for a in set(range(q - 1)) - set(geo.lam.I):
        assert geo.pencil_label(geo.point_P(a, 0), geo.plane_pi(a, 0)) is None
    assert geo.pencil_label(geo.space.U3, geo.plane_pi(geo.lam.I[0], 0)) is None
