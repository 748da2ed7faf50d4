"""Representative independence: the whole pipeline runs unchanged when the
norm-representative list is replaced by another valid choice, and the
label-level invariants (counts, covers, recoveries) do not move."""

import json

from spreadsmith.checks import check_count_census
from spreadsmith.cli import main
from spreadsmith.field_tower import build_lambda, build_partition, field_for_q, lambda_for_q
from spreadsmith.goodsets import (
    count_good_sets,
    enumerate_good_sets,
    fixed_plane_good_set,
    flip_canonical,
)
from spreadsmith.parallelisms import build_parallelism, characterize, verify_parallelism
from spreadsmith.serialization import lambda_from_obj, lambda_to_obj
from spreadsmith.spreads import Geometry


def _override_geometry(q):
    spec = field_for_q(q)
    base = lambda_for_q(q)
    w = spec.pow(spec.generator, spec.q - 1)
    # multiply every representative by a unit: norms unchanged, elements not
    override = tuple(spec.mul(x, w) for x in base.lam)
    lam = build_lambda(spec, build_partition(spec), override=override)
    assert lam.lam != base.lam and lam.I == base.I
    return Geometry(lam)


def test_counts_are_representative_independent():
    for q in (3, 4, 5):
        geo = _override_geometry(q)
        assert count_good_sets(geo.lam) == count_good_sets(lambda_for_q(q))


def test_pipeline_under_override():
    for q in (3, 4):
        geo = _override_geometry(q)
        lam = geo.lam
        assert len(geo.line_set_L()) == len(lam.I) * q * (q + 1) ** 2
        gs = fixed_plane_good_set(lam, lam.I[0], 0)
        par = build_parallelism(geo, gs)
        cert = verify_parallelism(geo, par)
        assert cert.ok and cert.line_count == (q * q + 1) * (q * q + q + 1)
        res = characterize(geo, par)
        assert res.ok and res.good_set == flip_canonical(lam, gs)
        # enumeration agrees with the mask count under the override too
        assert len(list(enumerate_good_sets(lam))) == count_good_sets(lam)


def test_enumeration_searches_the_given_lambda(tmp_path, capsys):
    # the reversed q = 3 list moves the I class, so an enumeration that
    # rebuilt the default Lambda would write records that fail to verify
    obj = lambda_to_obj(lambda_for_q(3))
    obj["elements"].reverse()
    lam_file = tmp_path / "lambda.json"
    lam_file.write_text(json.dumps(obj))
    path = tmp_path / "enum.jsonl"
    assert main(["goodsets", "enumerate", "--q", "3", "--lambda", str(lam_file),
                 "--output", str(path)]) == 0
    assert main(["goodsets", "verify", str(path), "--q", "3",
                 "--lambda", str(lam_file)]) == 0
    assert "all records good" in capsys.readouterr().out
    geo = Geometry(lambda_from_obj(field_for_q(3), obj))
    assert geo.lam.I != lambda_for_q(3).I
    assert check_count_census(geo).ok
