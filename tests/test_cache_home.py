"""Where a Geometry keeps what it derives, and what the benchmark tracer
relies on: every derived object lives in the Geometry's one memo, so no
module attaches attributes of its own, and every traced name is found in
its owner's own namespace, where the tracer rebinds it."""

import importlib
import importlib.util
import random
import re
from pathlib import Path

import pytest

import spreadsmith
from spreadsmith.checks import run_selftest
from spreadsmith.equivalence import classify, stabilizer_group
from spreadsmith.goodsets import enumerate_good_sets, flip_canonical
from spreadsmith.parallelisms import build_parallelism, characterize, verify_parallelism
from spreadsmith.spreads import Geometry, geometry_for_q

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_geometry_attributes_stay_those_of_init():
    geo = geometry_for_q(3)
    init_attrs = set(vars(Geometry(geo.lam)))
    family = list(enumerate_good_sets(geo.lam))
    par = build_parallelism(geo, family[0])
    assert verify_parallelism(geo, par).ok
    assert characterize(geo, par.spreads).ok
    classify(geo)
    assert all(r.ok for r in run_selftest(geo))
    assert set(vars(geo)) == init_attrs


def test_traced_names_resolve_in_their_owner():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, attr, _ in tracing.TARGETS:
        owner = importlib.import_module(f"spreadsmith.{module}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(leaf)), f"{module}.{attr}"


def test_a_closed_group_keeps_its_own_permutations():
    """Closing the line stabilizer memoises the point permutations of the
    identity and the five generators only: each element's permutation
    stays in the group, and it is the one the element induces."""
    geo = Geometry(geometry_for_q(3).lam)
    grp = stabilizer_group(geo)
    filed = [key for key in geo._cache if key[0] == "Geometry.point_permutation"]
    assert len(filed) <= 1 + len(grp.generators) == 6
    assert len(grp.perms) == grp.order == 576
    for k in random.Random(3).sample(range(grp.order), 40):
        assert grp.perms[k] == geo.point_permutation(grp.elements[k])


def test_only_spreads_touches_the_cache():
    # the Geometry attribute, not functools.lru_cache
    src = Path(spreadsmith.__file__).resolve().parent
    touching = sorted(p.name for p in src.glob("*.py")
                      if re.search(r"\b_cache\b", p.read_text()))
    assert touching == ["spreads.py"]


def test_a_hall_spread_files_only_itself():
    """Building and characterizing a parallelism memoises one Hall spread
    per pencil line used, and neither S_l nor its regulus."""
    geo = Geometry(geometry_for_q(4).lam)
    gs = next(enumerate_good_sets(geo.lam))
    par = build_parallelism(geo, gs)
    assert characterize(geo, par.spreads).ok
    names = [key[0] for key in geo._cache]
    assert "Geometry.spread_from_transversal" not in names
    assert "Geometry.regulus_of" not in names
    used = {l for cand in gs for l in geo.pencil(*cand)}
    assert {key[1] for key in geo._cache if key[0] == "Geometry.hall_spread"} == used
    assert names.count("Geometry.hall_spread") == len(used) == geo.q * (geo.q + 1)
    # each Hall spread switched the regulus of its line for the opposite one
    for l in used:
        reg = geo.regulus_of(l)
        switched = set(geo.spread_from_transversal(l)) ^ set(geo.hall_spread(l))
        assert switched == set(reg) | set(geo.opposite_regulus(reg))


@pytest.mark.parametrize("q", [3, 4])
def test_characterize_labels_one_member_per_E_orbit(q):
    """On a fresh Geometry, characterize files q+1 member labels for a
    parallelism, one per pencil, and q^2+q for a family that is not
    E-invariant: a foreign Hall spread in place of one member."""
    lam = geometry_for_q(q).lam
    sets = enumerate_good_sets(lam)
    gs = next(sets)
    other = next(g for g in sets if flip_canonical(lam, g) != flip_canonical(lam, gs))

    def labelled(family):
        geo = Geometry(lam)
        res = characterize(geo, family)
        return res, [key for key in geo._cache if key[0] == "_hall_member_label"]

    spreads = build_parallelism(geometry_for_q(q), gs).spreads
    res, filed = labelled(spreads)
    assert res.ok and len(filed) == q + 1
    foreign = next(sp for sp in build_parallelism(geometry_for_q(q), other).spreads
                   if sp not in spreads)
    res, filed = labelled((foreign,) + spreads[1:])
    assert res.reason == "not E-invariant" and len(filed) == q * q + q
