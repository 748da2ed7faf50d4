"""Spreads, pencils, reguli and Hall switching, plus the structural suites
over the spread union and the shifted spread family."""

import pytest

from spreadsmith import checks
from spreadsmith.goodsets import candidate_universe
from spreadsmith.parallelisms import group_E
from spreadsmith.proj_geometry import line_points, lines_meet, rref
from spreadsmith.spreads import SpreadReport, geometry_for_q


def test_desarguesian_spread_counts():
    for q in (3, 4, 5):
        geo = geometry_for_q(q)
        d = geo.desarguesian_spread()
        assert len(d.lines) == q * q + 1
        assert geo.is_spread(d.lines).ok
        assert len(geo.extension_points(d.lines)) == (q * q + 1) ** 2
        assert geo.desarguesian_spread(geo.lam.eta_index) is d


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
    assert geo.line_index() == {l: k for k, l in enumerate(sweep)}
    for l in sweep:
        on_line = tuple(P for P in line_points(spec, l) if P in sig)
        assert geo.subline_points(l) == on_line
        assert geo.intern(l) is geo.sigma_eta_lines()[geo.line_index()[l]]


@pytest.mark.parametrize("q", [3, 4])
def test_line_permutation_matches_apply_line(q):
    geo = geometry_for_q(q)
    index = geo.line_index()
    for psi in group_E(geo).generators:
        assert geo.line_permutation(psi) == [index[psi.apply_line(l)]
                                             for l in geo.sigma_eta_lines()]


def test_transversals_of_match_a_full_search():
    """Transversals found on point ids against every subgeometry line that
    meets the given lines, also when one given line is not in the index."""
    geo = geometry_for_q(4)
    spec, sigma = geo.spec, geo.sigma_eta_lines()
    d = sorted(geo.desarguesian_spread().lines)
    foreign = next(l for l in geo.line_set_L() if not lines_meet(spec, l, d[0])
                   and not lines_meet(spec, l, d[5]))
    for lines in ([d[0], d[5], d[9]], [d[0], d[5], d[9], d[11]], [d[0], d[5], foreign]):
        full = [l for l in sigma if all(lines_meet(spec, l, r) for r in lines)]
        got = geo.transversals_of(lines)
        assert got == full
        assert all(t is geo.intern(t) for t in got)


def test_spreads_hold_the_index_lines():
    geo = geometry_for_q(4)
    l = geo.line_set_L()[7]
    spreads = (geo.desarguesian_spread(), geo.spread_from_transversal(l), geo.hall_spread(l))
    lines = [m for sp in spreads for m in sp.lines]
    lines += geo.regulus_of(l).lines + geo.opposite_regulus(geo.regulus_of(l)).lines
    assert all(m is geo.intern(m) for m in lines)


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
            return SpreadReport(False, "point not covered", uncovered=P)
    return SpreadReport(True)


@pytest.mark.parametrize("q", [3, 4])
def test_is_spread_reports_match_the_point_count(q):
    geo = geometry_for_q(q)
    d = list(geo.desarguesian_spread().lines)
    pencil_line = geo.line_set_L()[0]           # meets the subgeometry in one point
    skew = geo.space.t1                         # misses it, and is not tau-stable
    assert pencil_line not in geo.line_index() and skew not in geo.line_index()
    other = next(l for l in geo.sigma_eta_lines() if l not in d)
    cases = {
        "line outside": d[:-1] + [pencil_line],
        "unstable line": [skew] + d[1:],
        "overlap": d[:-1] + [other],
        "repeat": d[:-1] + [d[0]],
        "short": d[:-1],
        "spread": d,
        "hall": list(geo.hall_spread(pencil_line).lines),
    }
    reports = {name: geo.is_spread(lines) for name, lines in cases.items()}
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
                assert len(pen.lines) == q + 1
                assert geo.space.r_U1 in pen.lines
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
        assert geo.spread_from_transversal(geo.space.t1).key() == \
            geo.desarguesian_spread().key()


def test_regulus_membership_requires_family_line():
    geo = geometry_for_q(3)
    with pytest.raises(ValueError):
        geo.regulus_of(geo.space.t1)


def test_hall_spread_structure():
    geo = geometry_for_q(3)
    q = geo.q
    for l in geo.line_set_L():
        h = geo.hall_spread(l)
        assert geo.is_spread(h.lines).ok
        assert not set(h.lines) & set(geo.desarguesian_spread().lines)
        src = geo.spread_from_transversal(l)
        assert h.key() != src.key()
        assert len(set(h.lines) ^ set(src.lines)) == 2 * (q + 1)


def test_is_spread_negative_report():
    geo = geometry_for_q(3)
    d = list(geo.desarguesian_spread().lines)
    other = next(l for l in geo.sigma_eta_lines() if l not in d)
    mutated = d[:-1] + [other]
    rep = geo.is_spread(mutated)
    assert not rep.ok
    assert rep.multiply_covered is not None or rep.uncovered is not None
    assert not geo.is_spread(d[:-1]).ok


def test_reguli_through_distinguished_line_count():
    geo = geometry_for_q(3)
    assert len(geo.reguli_through_r_U1()) == 12


def test_scalar_line_family_is_one_punctured_pencil():
    for q in (3, 5):
        geo = geometry_for_q(q)
        a = geo.lam.I[0]
        family = {geo.l_lambda(a, scalar) for scalar in range(q)}
        pen = set(geo.pencil(a, 0, 0).punctured(geo.space.r_U1))
        assert family == pen
    with pytest.raises(ValueError):
        geometry_for_q(3).l_lambda(geometry_for_q(3).lam.I[0], 0, xtilde=1)


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
