"""File formats and the command-line front end: round trips, tamper
detection, exit codes and byte-level determinism."""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

import spreadsmith
from spreadsmith import cli, parallelisms
from spreadsmith.cli import main
from spreadsmith.field_tower import field_for_q, lambda_for_q
from spreadsmith.goodsets import enumerate_good_sets, fixed_plane_good_set, flip_canonical
from spreadsmith.parallelisms import build_parallelism, verify_parallelism
from spreadsmith.serialization import (
    field_spec_from_obj,
    field_spec_to_obj,
    goodset_record,
    lambda_from_obj,
    lambda_to_obj,
    parse_goodset_record,
    read_parallelism_file,
    write_parallelism_file,
)
from spreadsmith.spreads import geometry_for_q


def test_field_spec_round_trip():
    for q in (3, 4, 9):
        spec = field_for_q(q)
        back = field_spec_from_obj(field_spec_to_obj(spec))
        assert (back.p, back.m) == (spec.p, spec.m)
        assert back.modulus_q == spec.modulus_q
        assert back.modulus_q2 == spec.modulus_q2
        assert back.generator == spec.generator


def test_lambda_round_trip():
    lam = lambda_for_q(5)
    back = lambda_from_obj(lam.spec, lambda_to_obj(lam))
    assert back.lam == lam.lam and back.I == lam.I


def test_goodset_record_round_trip():
    lam = lambda_for_q(4)
    for gs in enumerate_good_sets(lam, limit=5):
        assert parse_goodset_record(lam, goodset_record(lam, gs)) == gs
    with pytest.raises(ValueError, match="q="):
        parse_goodset_record(lambda_for_q(3), goodset_record(lam, gs))
    rec = json.loads(goodset_record(lam, gs))
    rec["entries"][0]["alpha_idx"] = 0      # eta's index: not in the I class
    with pytest.raises(ValueError, match="I class"):
        parse_goodset_record(lam, json.dumps(rec))


def test_parallelism_file_round_trip(tmp_path):
    geo = geometry_for_q(3)
    gs = fixed_plane_good_set(geo.lam, geo.lam.I[0], 0)
    par = build_parallelism(geo, gs)
    cert = verify_parallelism(geo, par)
    path = tmp_path / "par.jsonl"
    write_parallelism_file(path, geo, par, cert)
    header, geo2, spreads, stored = read_parallelism_file(path)
    assert header["q"] == 3
    assert len(spreads) == 13
    assert {sp.key() for sp in spreads} == {sp.key() for sp in par.spreads}
    cert2 = verify_parallelism(geo2, spreads)
    assert cert2.ok and cert2.checksum == stored["checksum"]


def run_cli(*argv):
    return main(list(argv))


def test_cli_field_info_and_errors(capsys):
    assert run_cli("field-info", "--q", "5") == 0
    out = capsys.readouterr().out
    assert "|U| = 6" in out and "(|I| = 2)" in out
    assert run_cli("field-info", "--q", "4", "--format", "json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sizes"] == {"U": 5, "I": 1, "I1": 0, "I2": 0}
    assert run_cli("field-info", "--q", "6") == 2
    capsys.readouterr()
    assert run_cli("field-info", "--q", "17") == 2
    capsys.readouterr()


def test_cli_goodsets_count_and_enumerate(tmp_path, capsys):
    assert run_cli("goodsets", "count", "--q", "4") == 0
    out = capsys.readouterr().out
    assert "120" in out and "DIFFERS" in out and "conflict" in out
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    assert run_cli("goodsets", "enumerate", "--q", "3", "--output", str(out1)) == 0
    assert run_cli("goodsets", "enumerate", "--q", "3", "--jobs", "2",
                   "--output", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 64


def test_cli_goodsets_filter_and_limit(tmp_path, capsys):
    # the norm-minus-one-free family at q=5 has 2304 members while the
    # corresponding closed form collapses to zero there
    assert run_cli("goodsets", "count", "--q", "5",
                   "--filter", "no-norm-minus-one", "--format", "json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["count"] == 2304
    assert obj["formulas"]["exclude_minus_one_odd"] == 0
    assert not obj["formula_matches_count"]["exclude_minus_one_odd"]
    out = tmp_path / "lim.jsonl"
    assert run_cli("goodsets", "enumerate", "--q", "4", "--limit", "7",
                   "--output", str(out)) == 0
    assert len(out.read_text().splitlines()) == 7


def test_cli_enumerate_memory_does_not_grow_with_the_output(tmp_path):
    # 20 000 records are about 5 MB of output; the stream holds one at a time
    out = tmp_path / "enum.jsonl"
    tracemalloc.start()
    try:
        assert run_cli("goodsets", "enumerate", "--q", "5", "--limit", "20000",
                       "--output", str(out)) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out.read_text().splitlines()) == 20000
    assert peak < 2 * 2**20


def test_cli_closed_stdout_exits_quietly():
    env = dict(os.environ, PYTHONPATH=str(Path(spreadsmith.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "spreadsmith.cli", "goodsets", "enumerate", "--q", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert len(child.stdout.read(100)) == 100
    child.stdout.close()
    err = child.stderr.read()
    assert child.wait(timeout=120) == 141
    assert err == b""


def test_cli_parallelism_build_rejects_non_good(tmp_path, capsys):
    lam = lambda_for_q(3)
    rec = json.loads(goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0)))
    rec["entries"][1]["u_pow"] = rec["entries"][0]["u_pow"] + 1
    rec["entries"][1]["v_pow"] = rec["entries"][0]["v_pow"] + 1
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(rec) + "\n")
    assert run_cli("parallelism", "build", str(path), "--q", "3") == 1
    out = capsys.readouterr().out
    assert "not a good set" in out and "unit-ratio" in out


def test_cli_goodsets_verify(tmp_path, capsys):
    lam = lambda_for_q(3)
    good = goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0))
    bad_rec = json.loads(good)
    bad_rec["entries"][1]["v_pow"] = bad_rec["entries"][0]["v_pow"]
    bad_rec["entries"][1]["u_pow"] = bad_rec["entries"][0]["u_pow"]
    path = tmp_path / "mixed.jsonl"
    path.write_text(good + "\n" + json.dumps(bad_rec) + "\n")
    assert run_cli("goodsets", "verify", str(path), "--q", "3") == 1
    out = capsys.readouterr().out
    assert "line 2" in out


def test_cli_parallelism_round_trip(tmp_path, capsys):
    lam = lambda_for_q(3)
    gs_file = tmp_path / "gs.jsonl"
    gs = fixed_plane_good_set(lam, lam.I[0], 0)
    gs_file.write_text(goodset_record(lam, gs) + "\n")
    par_file = tmp_path / "par.jsonl"
    assert run_cli("parallelism", "build", str(gs_file), "--q", "3",
                   "--output", str(par_file)) == 0
    capsys.readouterr()
    assert run_cli("parallelism", "verify", str(par_file)) == 0
    assert "pass" in capsys.readouterr().out
    assert run_cli("parallelism", "characterize", str(par_file)) == 0
    rec = capsys.readouterr().out.strip()
    from spreadsmith.goodsets import flip_canonical
    assert parse_goodset_record(lam, rec) == flip_canonical(lam, gs)
    # tamper: drop one spread record entirely
    rows = par_file.read_text().splitlines()
    spread_rows = [i for i, r in enumerate(rows)
                   if '"type":"spread"' in r]
    del rows[spread_rows[0]]
    par_file.write_text("\n".join(rows) + "\n")
    assert run_cli("parallelism", "verify", str(par_file)) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_cli_classify_q3(tmp_path, capsys):
    outdir = tmp_path / "cls"
    assert run_cli("classify", "--q", "3", "--output", str(outdir)) == 0
    capsys.readouterr()
    report = json.loads((outdir / "report.json").read_text())
    assert report["orbit_count"] == 2
    assert report["group_order"] == 576 == report["group_order_formula"]
    assert sorted(o["orbit_size"] for o in report["orbits"]) == [2, 2]
    # the emitted representatives re-verify
    for o in report["orbits"]:
        assert run_cli("parallelism", "verify", str(outdir / o["file"])) == 0
        capsys.readouterr()


def test_cli_classify_verifies_each_representative_once(tmp_path, monkeypatch):
    calls = []

    def counting(geo, par):
        calls.append(1)
        return verify_parallelism(geo, par)

    monkeypatch.setattr(parallelisms, "verify_parallelism", counting)
    monkeypatch.setattr(cli, "verify_parallelism", counting)
    assert run_cli("classify", "--q", "3", "--output", str(tmp_path / "cls")) == 0
    assert len(calls) == 2      # one per orbit, inside build_parallelism


def test_cli_classify_determinism(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run_cli("classify", "--q", "3", "--output", str(out)) == 0
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_cli_selftest_q3(capsys):
    assert run_cli("selftest", "--q", "3", "--jobs", "2") == 0
    out = capsys.readouterr().out
    assert "suites passed" in out and "FAIL" not in out


def test_cli_selftest_output_identical_across_jobs(capsys):
    assert run_cli("selftest", "--q", "3", "--jobs", "1") == 0
    out1 = capsys.readouterr().out
    assert run_cli("selftest", "--q", "3", "--jobs", "2") == 0
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_cli_lambda_override(tmp_path, capsys):
    lam = lambda_for_q(4)
    spec = lam.spec
    w = spec.pow(spec.generator, spec.q - 1)
    override = {"elements": [list(spec.elem_vec(spec.mul(x, w))) for x in lam.lam],
                "eta_index": 0, "I": [], "I1": [], "I2": []}
    path = tmp_path / "lambda.json"
    path.write_text(json.dumps(override))
    assert run_cli("field-info", "--q", "4", "--lambda", str(path),
                   "--format", "json") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["sizes"]["I"] == 1


def test_cli_explicit_field_parts(capsys):
    assert run_cli("field-info", "--p", "3", "--m", "1") == 0
    capsys.readouterr()
    assert run_cli("field-info", "--p", "3", "--m", "1",
                   "--modulus-q2", "1,0,1") == 0
    capsys.readouterr()
    assert run_cli("field-info", "--p", "3", "--m", "1",
                   "--modulus-q2", "0,0,1") == 2
    capsys.readouterr()
    assert run_cli("field-info", "--q", "3", "--p", "3") == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("goodsets", "enumerate", "--q", "3", "--limit", "-1"),
    ("goodsets", "enumerate", "--q", "3", "--jobs", "0"),
    ("goodsets", "count", "--q", "3", "--jobs", "-5"),
    ("selftest", "--q", "3", "--jobs", "0"),
    ("parallelism", "verify", "no-such-dir/par.jsonl"),
    ("parallelism", "characterize", "no-such-dir/par.jsonl"),
    ("parallelism", "build", "no-such-dir/rec.jsonl", "--q", "3"),
    ("goodsets", "verify", "no-such-dir/rec.jsonl", "--q", "3"),
    ("field-info", "--q", "3", "--lambda", "no-such-dir/lambda.json"),
])
def test_cli_rejects_negative_limit_and_jobs(argv, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


def _tampered_coordinates(tmp_path):
    """q = 3 parallelism files whose first spread record has its first
    coordinate replaced by [2, 4] or [7, 0] (coefficients >= p) or by
    [1, 0, 0] (three coefficients where 2m = 2)."""
    geo = geometry_for_q(3)
    par = build_parallelism(geo, fixed_plane_good_set(geo.lam, geo.lam.I[0], 0))
    good = tmp_path / "par.jsonl"
    write_parallelism_file(good, geo, par, verify_parallelism(geo, par))
    rows = good.read_text().splitlines()
    paths = []
    for i, coeffs in enumerate(([2, 4], [7, 0], [1, 0, 0])):
        spread = json.loads(rows[1])
        spread["lines"][0][0][0] = coeffs
        path = tmp_path / f"tampered_{i}.jsonl"
        path.write_text("\n".join([rows[0], json.dumps(spread), *rows[2:]]) + "\n")
        paths.append(str(path))
    return paths


def _tampered_shapes(tmp_path):
    """q = 3 parallelism files with a value of the wrong JSON type: a
    spread's "lines", the header Lambda's "elements" and the header
    field's "p"."""
    geo = geometry_for_q(3)
    par = build_parallelism(geo, fixed_plane_good_set(geo.lam, geo.lam.I[0], 0))
    good = tmp_path / "par.jsonl"
    write_parallelism_file(good, geo, par, verify_parallelism(geo, par))
    rows = [json.loads(row) for row in good.read_text().splitlines()]
    paths = []
    for i, (row, keys, value) in enumerate(((1, ("lines",), 5),
                                            (0, ("lambda", "elements"), 5),
                                            (0, ("field", "p"), "3"))):
        changed = json.loads(json.dumps(rows))
        obj = changed[row]
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
        path = tmp_path / f"shape_{i}.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in changed) + "\n")
        paths.append(str(path))
    return paths


def test_cli_rejects_empty_and_foreign_files(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text(json.dumps({"q": 3}) + "\n")
    binary = tmp_path / "binary.jsonl"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    tampered = _tampered_coordinates(tmp_path) + _tampered_shapes(tmp_path)
    for argv in (*[("parallelism", sub, path) for path in tampered
                   for sub in ("verify", "characterize")],
                 ("parallelism", "build", str(empty), "--q", "3"),
                 ("parallelism", "build", str(binary), "--q", "3"),
                 ("goodsets", "verify", str(binary), "--q", "3"),
                 ("parallelism", "build", str(foreign), "--q", "3"),
                 ("parallelism", "verify", str(empty)),
                 ("parallelism", "verify", str(foreign)),
                 ("parallelism", "characterize", str(foreign)),
                 ("field-info", "--q", "3", "--lambda", str(foreign))):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1


# sha256 of the `parallelism build` file for a seeded good set, as written
# before the subgeometry lines were indexed
ROUND_TRIP_FILES = {
    8: "ece3420da83d3d3ae594c029859a36e96883571eb2ea3ac263872cd7d155797f",
    9: "16c71aec3beb7e69293191c75cdf09b9b65775deb3574a044f6b7257818b78b6",
}


@pytest.mark.parametrize("q", sorted(ROUND_TRIP_FILES))
def test_cli_round_trip_keeps_the_file_bytes(q, tmp_path, capsys):
    """build -> verify -> characterize at q = 8 (m = 3) and q = 9.  The
    certificate checksum is the same for every valid parallelism at one q,
    so the file itself is pinned."""
    lam = lambda_for_q(q)
    gs = random.Random(q).choice(list(islice(enumerate_good_sets(lam), 1000)))
    record = tmp_path / "record.jsonl"
    record.write_text(goodset_record(lam, gs) + "\n")
    par = tmp_path / "par.jsonl"
    assert run_cli("parallelism", "build", str(record), "--q", str(q),
                   "--output", str(par)) == 0
    capsys.readouterr()
    assert hashlib.sha256(par.read_bytes()).hexdigest() == ROUND_TRIP_FILES[q]
    assert run_cli("parallelism", "verify", str(par)) == 0
    assert capsys.readouterr().out.endswith("verdict: pass\n")
    assert run_cli("parallelism", "characterize", str(par)) == 0
    assert capsys.readouterr().out == goodset_record(lam, flip_canonical(lam, gs)) + "\n"


def test_cli_classify_has_no_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("classify", "--q", "3", "--limit", "3")
    assert exc.value.code == 2
    assert "--limit" in capsys.readouterr().err
