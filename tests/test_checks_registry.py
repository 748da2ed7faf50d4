"""Run the full verification-suite registry at every supported small q,
exactly as the command-line selftest does.  Each suite asserts one
structural fact by direct computation; any failure message names it."""

from dataclasses import replace
from functools import wraps

import pytest

from spreadsmith import checks, cli, proj_geometry, spreads
from spreadsmith.checks import (
    check_desarguesian_property,
    check_hall_spreads,
    check_regulus_transversal_classification,
    run_selftest,
)
from spreadsmith.field_tower import lambda_for_q
from spreadsmith.spreads import Geometry, geometry_for_q


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_all_applicable_suites_pass(q):
    results = run_selftest(geometry_for_q(q))
    assert results, "no suites ran"
    failed = [f"{r.name}: {r.detail}" for r in results if not r.ok]
    assert not failed, "\n".join(failed)


def test_sample_seed_override_threads_through():
    geo = geometry_for_q(3)
    base = run_selftest(geo)
    seeded = run_selftest(geo, sample_seed=999)
    assert [r.name for r in base] == [r.name for r in seeded]
    assert all(r.ok for r in seeded)


# every suite in the order selftest prints them, with the supported q at
# which it runs
ALL_Q = (3, 4, 5, 7, 8, 9, 11, 13, 16)
SUITE_GATES = [
    ("field-automorphism", ALL_Q),
    ("norm-partition", ALL_Q),
    ("lambda-classes", ALL_Q),
    ("baer-subgeometries", (3, 4, 5)),
    ("subline-extension", (3, 4, 5)),
    ("spread-union-sections", (3, 4, 5)),
    ("regulus-transversal-classification", (3,)),
    ("pencil-line-family", (3, 4, 5)),
    ("transversal-spreads", (3, 4, 5)),
    ("hall-spreads", (3, 4, 5)),
    ("desarguesian-regulus-property", (3, 4, 5)),
    ("shifted-spread-plane-sections", (3, 5)),
    ("shift-maps", (3, 5)),
    ("section-subplane-meet", (3, 5)),
    ("section-pivot-point", (3, 5)),
    ("regulus-pair-conditions", (3, 4, 5)),
    ("extension-disjointness-conditions", (3, 4, 5)),
    ("plane-model-partitions", (3, 4, 5, 7)),
    ("goodset-predicate-equivalence", (3, 4, 5, 7)),
    ("line-conic-intersections", (3, 4, 5, 7)),
    ("goodset-census", ALL_Q),
    ("parallelism-roundtrip", (3, 4, 5)),
    ("non-good-families-fail", (3, 4)),
    ("pencil-orbits", (3, 4, 5)),
    ("unitriangular-group", (3, 4, 5)),
    ("distinct-parallelisms", (3, 4, 5)),
    ("model-group-actions", (3, 4)),
    ("stabilizer-order", (3, 4, 5)),
    ("equivalence-search", (3, 4)),
    ("orbit-consistency", (3, 4)),
]
SUITES_AT = {q: [name for name, qs in SUITE_GATES if q in qs] for q in ALL_Q}

# the suites with a seed parameter, whose seed --sample-seed overrides
SAMPLING_SUITES = {
    "field-automorphism", "transversal-spreads", "hall-spreads",
    "desarguesian-regulus-property", "regulus-pair-conditions",
    "extension-disjointness-conditions", "goodset-predicate-equivalence",
    "pencil-orbits", "distinct-parallelisms", "model-group-actions",
    "equivalence-search",
}


@pytest.mark.parametrize("q", sorted(SUITES_AT))
def test_suite_list_is_pinned_at_every_supported_q(q):
    """The gates alone decide the list; no suite runs here."""
    assert [s.name for s in checks.suites_at(q)] == SUITES_AT[q]


def test_each_suite_is_registered_once_and_samples_when_it_takes_a_seed():
    names = [s.name for s in checks.SUITES]
    assert names == SUITES_AT[3] and len(set(names)) == len(names)
    assert {s.name for s in checks.SUITES if s.samples} == SAMPLING_SUITES


def _spy_on_the_registry(monkeypatch) -> dict:
    """Replace every suite by one that records the keyword arguments it is
    called with and passes; the spy keeps the suite's signature."""
    calls = {}

    def spy(s):
        @wraps(s.run)
        def run(geo, **kwargs):
            calls[s.name] = kwargs
            return checks.CheckResult(s.name, geo.q, True)
        return replace(s, run=run)

    monkeypatch.setattr(checks, "SUITES", [spy(s) for s in checks.SUITES])
    return calls


@pytest.mark.parametrize("through_cli", [False, True])
@pytest.mark.parametrize("seed", [None, 7])
def test_sample_seed_reaches_exactly_the_sampling_suites(through_cli, seed, monkeypatch,
                                                         capsys):
    calls = _spy_on_the_registry(monkeypatch)
    if through_cli:
        argv = ["selftest", "--q", "3"] + ([] if seed is None else ["--sample-seed", str(seed)])
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.endswith("30/30 suites passed\n")
    else:
        assert len(run_selftest(geometry_for_q(3), sample_seed=seed)) == 30
    assert list(calls) == SUITES_AT[3]
    want = {} if seed is None else {"seed": seed}
    assert calls == {name: want if name in SAMPLING_SUITES else {} for name in SUITES_AT[3]}


def test_a_suite_called_directly_returns_its_check_result():
    geo = geometry_for_q(3)
    result = check_hall_spreads(geo, sample=2, seed=5)
    assert (result.name, result.q, result.ok) == ("hall-spreads", 3, True)
    assert result.detail == f"{len(geo.line_set_L())} switched spreads"


@pytest.mark.parametrize("q", [3, 4])
def test_subgeometry_lines_meet_on_shared_point_ids(q, monkeypatch):
    """Two subgeometry lines meet exactly when they share a point id, so no
    suite and no regulus search row-reduces such a pair: here lines_meet and
    line_intersection raise when both of their lines are subgeometry lines."""
    geo = Geometry(lambda_for_q(q))
    index = set(geo.sigma_eta_lines())

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
        assert result.ok, result.detail
