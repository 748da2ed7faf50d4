"""Where a Geometry keeps what it derives, and what the benchmark tracer
relies on: every derived object lives in the Geometry's one memo, so no
module attaches attributes of its own, and every traced name is found in
its owner's own namespace, where the tracer rebinds it."""

import importlib
import importlib.util
from pathlib import Path

from spreadsmith.checks import run_selftest
from spreadsmith.equivalence import classify
from spreadsmith.goodsets import enumerate_good_sets
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
