"""Run the full verification-suite registry at every supported small q,
exactly as the command-line selftest does.  Each suite asserts one
structural fact by direct computation; any failure message names it."""

import pytest

from spreadsmith import checks, proj_geometry, spreads
from spreadsmith.checks import (
    check_desarguesian_property,
    check_hall_spreads,
    check_regulus_transversal_classification,
    run_selftest,
)
from spreadsmith.spreads import Geometry, geometry_for_q


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_all_applicable_suites_pass(q):
    results = run_selftest(geometry_for_q(q))
    assert results, "no suites ran"
    failed = [r.line() for r in results if not r.ok]
    assert not failed, "\n".join(failed)


def test_sample_seed_override_threads_through():
    geo = geometry_for_q(3)
    base = run_selftest(geo)
    seeded = run_selftest(geo, sample_seed=999)
    assert [r.name for r in base] == [r.name for r in seeded]
    assert all(r.ok for r in seeded)


@pytest.mark.parametrize("q", [3, 4])
def test_subgeometry_lines_meet_on_shared_point_ids(q, monkeypatch):
    """Two subgeometry lines meet exactly when they share a point id, so no
    suite and no regulus search row-reduces such a pair: here lines_meet and
    line_intersection raise when both of their lines are subgeometry lines."""
    geo = Geometry.from_q(q)
    index = geo.line_index()

    def ambient_only(fn):
        def guarded(spec, l1, l2):
            if l1 in index and l2 in index:
                raise AssertionError(f"{fn.__name__} called on two subgeometry lines")
            return fn(spec, l1, l2)
        return guarded

    for module in (checks, spreads):
        for fn in (proj_geometry.lines_meet, proj_geometry.line_intersection):
            monkeypatch.setattr(module, fn.__name__, ambient_only(fn), raising=False)
    assert len(checks.reguli_through_r_U1(geo)) == q * q + q
    assert not any(map(geo.pencil_label_of, geo.sigma_eta_lines()))
    for suite in (check_hall_spreads, check_desarguesian_property,
                  check_regulus_transversal_classification):
        result = suite(geo)
        assert result.ok, result.line()
