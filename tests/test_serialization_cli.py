"""File formats and the command-line front end: round trips, tamper
detection, exit codes and byte-level determinism."""

import hashlib
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest

import spreadsmith
from spreadsmith import cli, parallelisms
from spreadsmith.cli import main
from spreadsmith.field_codec import coefficient_table, element_decoder
from spreadsmith.field_tower import field_for_q, lambda_for_q
from spreadsmith.goodsets import enumerate_good_sets, fixed_plane_good_set, flip_canonical
from spreadsmith.parallelisms import build_parallelism, verify_parallelism
from spreadsmith.proj_geometry import line_through, normalize
from spreadsmith.serialization import (
    _line_points,
    _line_text,
    _point_from_obj,
    dumps,
    field_spec_from_obj,
    field_spec_to_obj,
    goodset_record,
    lambda_from_obj,
    lambda_to_obj,
    parse_goodset_record,
    read_parallelism_file,
    write_parallelism_file,
)
from spreadsmith.spreads import Geometry, geometry_for_q


# every supported field order
ALL_Q = (3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_field_spec_round_trip():
    for q in ALL_Q:
        spec = field_for_q(q)
        back = field_spec_from_obj(field_spec_to_obj(spec))
        assert (back.p, back.m) == (spec.p, spec.m)
        assert back.modulus_q == spec.modulus_q
        assert back.modulus_q2 == spec.modulus_q2
        assert back.generator == spec.generator


def test_lambda_round_trip():
    for q in ALL_Q:
        lam = lambda_for_q(q)
        back = lambda_from_obj(lam.spec, lambda_to_obj(lam))
        assert back.lam == lam.lam and back.I == lam.I


def test_point_and_line_codecs_round_trip():
    """Seeded points and the lines through pairs of them, through the
    parallelism file's coordinate codec."""
    for q in ALL_Q:
        spec = field_for_q(q)
        rng = random.Random(q)
        points = set()
        while len(points) < 50:
            vec = [rng.randrange(spec.order) for _ in range(4)]
            if any(vec):
                points.add(normalize(spec, vec))
        points = sorted(points)
        vectors = coefficient_table(spec).vectors
        texts = [dumps(v) for v in vectors]
        decode = element_decoder(spec)
        for P in points:
            assert _point_from_obj(decode, json.loads(json.dumps([vectors[c] for c in P]))) == P
        for P, R in zip(points, points[1:]):
            l = line_through(spec, P, R)
            text = _line_text(texts, l)
            assert text == dumps([[vectors[c] for c in row] for row in l])
            assert _line_points(decode, json.loads(text)) == l


def test_goodset_record_round_trip():
    for q in ALL_Q:
        lam = lambda_for_q(q)
        for gs in enumerate_good_sets(lam, limit=5):
            assert parse_goodset_record(lam, goodset_record(lam, gs)) == gs
    lam = lambda_for_q(4)
    gs = next(enumerate_good_sets(lam))
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
    assert set(spreads) == set(par.spreads)
    cert2 = verify_parallelism(geo2, spreads)
    assert cert2.ok and cert2.checksum == stored["checksum"]


def test_parallelism_file_is_written_row_by_row(tmp_path):
    """Writing a q = 7 parallelism file holds one row at a time: the peak
    traced allocation of the write is below the size of the file."""
    geo = geometry_for_q(7)
    par = build_parallelism(geo, next(enumerate_good_sets(geo.lam)))
    path = tmp_path / "par.jsonl"
    tracemalloc.start()
    try:
        write_parallelism_file(path, geo, par, par.certificate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_parallelism_file(path)[3]["ok"]
    assert peak < path.stat().st_size


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
    out = tmp_path / "a.jsonl"
    assert run_cli("goodsets", "enumerate", "--q", "3", "--output", str(out)) == 0
    assert len(out.read_text().splitlines()) == 64


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
    try:
        ready, _, _ = select.select([child.stdout], [], [], 60)
        assert ready, "no record within 60 s"
        assert len(child.stdout.read(100)) == 100
        child.stdout.close()
        err = child.communicate(timeout=60)[1]
        assert child.returncode == 141
        assert err == b""
    finally:
        child.kill()
        child.wait()


def test_cli_sigterm_keeps_whole_records(tmp_path):
    """SIGTERM to `goodsets enumerate --q 7 --output F` exits 143 through the
    command's cleanup: no traceback, and F holds whole records, the first
    ones of the stream."""
    out = tmp_path / "enum.jsonl"
    env = dict(os.environ, PYTHONPATH=str(Path(spreadsmith.__file__).parents[1]))
    child = subprocess.Popen(
        [sys.executable, "-m", "spreadsmith.cli", "goodsets", "enumerate", "--q", "7",
         "--output", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    try:
        deadline = time.monotonic() + 60
        while not (out.exists() and out.stat().st_size) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert out.exists() and out.stat().st_size, "no record within 60 s"
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30) == 143
        assert b"Traceback" not in child.stderr.read()
    finally:
        child.kill()
        child.wait()
    text = out.read_text()
    assert text.endswith("\n")
    rows = text.splitlines()
    lam = lambda_for_q(7)
    assert rows == [goodset_record(lam, gs)
                    for gs in enumerate_good_sets(lam, limit=len(rows))]


def test_cli_rejects_the_removed_jobs_option():
    env = dict(os.environ, PYTHONPATH=str(Path(spreadsmith.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-m", "spreadsmith.cli", "goodsets", "enumerate", "--q", "3",
         "--jobs", "2"],
        capture_output=True, env=env, timeout=60)
    assert done.returncode == 2
    assert done.stdout == b""
    assert b"unrecognized arguments: --jobs 2" in done.stderr
    assert b"Traceback" not in done.stderr


GEOMETRY_MODULES = ("spreads", "proj_geometry", "parallelisms", "equivalence")


def _modules_loaded_by(*argv, package="spreadsmith.") -> set[str]:
    """The modules named package + NAME that a fresh ``python -m
    spreadsmith.cli ARGV`` imports, as their NAMEs, read from its ``-X
    importtime`` log; package="" gives every module by its full name.  The
    command must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(spreadsmith.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "spreadsmith.cli",
                           *argv], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    names = (line.rpartition("|")[2].strip() for line in done.stderr.decode().splitlines()
             if line.startswith("import time:"))
    return {n.removeprefix(package) for n in names if n.startswith(package)}


def test_cli_imports_the_selftest_suites_only_for_selftest():
    """A fresh process that runs `field-info` imports the field layer and its
    codec only: every CLI child compiles what it imports, and checks is the
    largest module."""
    loaded = _modules_loaded_by("field-info", "--q", "3")
    assert "field_tower" in loaded
    assert not loaded & {*GEOMETRY_MODULES, "goodsets", "checks"}, loaded


@pytest.mark.parametrize("subcmd", ["count", "enumerate", "verify"])
def test_cli_goodsets_commands_load_no_geometry(subcmd, tmp_path):
    lam = lambda_for_q(4)
    record = tmp_path / "gs.jsonl"
    record.write_text(goodset_record(lam, next(enumerate_good_sets(lam))) + "\n")
    argv = {"count": (), "enumerate": ("--limit", "3"), "verify": (str(record),)}[subcmd]
    loaded = _modules_loaded_by("goodsets", subcmd, *argv, "--q", "4")
    assert "goodsets" in loaded and "serialization" in loaded
    assert not loaded & {*GEOMETRY_MODULES, "checks"}, loaded


def test_parallelism_commands_load_no_openssl(tmp_path):
    """The certificate's SHA-256 is CPython's built-in one, so build, verify
    and characterize load neither hashlib nor OpenSSL's _hashlib."""
    lam = lambda_for_q(3)
    record = tmp_path / "gs.jsonl"
    record.write_text(goodset_record(lam, next(enumerate_good_sets(lam))) + "\n")
    par = str(tmp_path / "par.jsonl")
    for argv in (("build", str(record), "--q", "3", "--output", par),
                 ("verify", par), ("characterize", par)):
        loaded = _modules_loaded_by("parallelism", *argv, package="")
        assert "spreadsmith.parallelisms" in loaded and "_random" in loaded, argv
        assert not loaded & {"hashlib", "_hashlib"}, argv


def test_field_info_builds_no_coefficient_table():
    script = ("from spreadsmith import cli, field_codec\n"
              "assert cli.main(['field-info', '--q', '9', '--format', 'json']) == 0\n"
              "assert not field_codec._TABLES\n")
    env = dict(os.environ, PYTHONPATH=str(Path(spreadsmith.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr


def test_package_names_load_lazily_from_their_home_modules():
    """`import spreadsmith` loads no submodule; each name of __all__ is the
    object its home module defines, dir() lists it, and an unknown name is
    an AttributeError."""
    env = dict(os.environ, PYTHONPATH=str(Path(spreadsmith.__file__).parents[1]))
    code = ("import sys\n"
            "import spreadsmith\n"
            "print(sorted(m for m in sys.modules if m.startswith('spreadsmith.')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          timeout=60)
    assert done.stderr == b"" and done.stdout.split() == [b"[]"]
    for name in spreadsmith.__all__:
        obj = getattr(spreadsmith, name)
        home = sys.modules[f"spreadsmith.{spreadsmith._HOME[name]}"]
        assert obj is vars(home)[name] and obj.__module__ == home.__name__, name
    assert set(spreadsmith.__all__) <= set(dir(spreadsmith))
    with pytest.raises(AttributeError, match="no_such_name"):
        spreadsmith.no_such_name
    with pytest.raises(ImportError):
        from spreadsmith import no_such_name  # noqa: F401


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


def _malformed_records():
    """q = 3 good-set records of the wrong shape: not an object, "entries"
    not a list, and an entry that is not an object."""
    lam = lambda_for_q(3)
    good = json.loads(goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0)))
    return [json.dumps([1]), json.dumps({**good, "entries": 5}),
            json.dumps({**good, "entries": [5]})]


def test_cli_goodsets_verify(tmp_path, capsys):
    lam = lambda_for_q(3)
    good = goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0))
    bad_rec = json.loads(good)
    bad_rec["entries"][1]["v_pow"] = bad_rec["entries"][0]["v_pow"]
    bad_rec["entries"][1]["u_pow"] = bad_rec["entries"][0]["u_pow"]
    path = tmp_path / "mixed.jsonl"
    path.write_text("\n".join([good, json.dumps(bad_rec), *_malformed_records()]) + "\n")
    assert run_cli("goodsets", "verify", str(path), "--q", "3") == 1
    out = capsys.readouterr().out
    assert "line 2" in out
    for lineno in (3, 4, 5):
        assert f"line {lineno}: malformed record" in out


@pytest.mark.parametrize("argv", [
    ("goodsets", "verify", "--q", "3", "FILE"),
    ("goodsets", "verify", "FILE", "--q", "3"),
    ("goodsets", "--q", "3", "verify", "FILE"),
    ("goodsets", "--q", "5", "verify", "FILE", "--q", "3"),
])
def test_cli_goodsets_verify_takes_its_options_anywhere(argv, tmp_path, capsys):
    """The field options go before the subcommand, between it and the file
    or after the file; given twice, the later one stands."""
    lam = lambda_for_q(3)
    path = tmp_path / "gs.jsonl"
    path.write_text(goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0)) + "\n")
    assert run_cli(*[str(path) if a == "FILE" else a for a in argv]) == 0
    assert capsys.readouterr().out == "verified: all records good\n"


@pytest.mark.parametrize("argv", [
    ("goodsets", "verify"),
    ("goodsets", "verify", "--q", "3"),
    ("goodsets", "--q", "3", "verify"),
])
def test_cli_goodsets_verify_without_a_file_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.rstrip().endswith("error: goodsets verify needs a record file")


def test_cli_goodsets_options_before_the_subcommand(capsys):
    """An option given only before the subcommand keeps its value; one
    given on both sides takes the later."""
    assert run_cli("goodsets", "--q", "3", "--format", "json", "count") == 0
    first = json.loads(capsys.readouterr().out)
    assert run_cli("goodsets", "count", "--q", "3", "--format", "json") == 0
    assert json.loads(capsys.readouterr().out) == first and first["filter"] == "all"
    assert run_cli("goodsets", "--format", "json", "count", "--q", "3",
                   "--format", "text") == 0
    assert capsys.readouterr().out.startswith("good sets (q=3, filter=all)")


def test_cli_goodsets_verify_writes_its_report_to_output(tmp_path, capsys):
    # the report goes to --output in place of stdout; the status is the same
    lam = lambda_for_q(3)
    good = goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0))
    for name, text, status in (("good", good, 0),
                               ("mixed", f"{good}\n{{\n{good[:-1]}", 1)):
        path = tmp_path / f"{name}.jsonl"
        path.write_text(text + "\n")
        assert run_cli("goodsets", "verify", str(path), "--q", "3") == status
        stdout = capsys.readouterr().out
        report = tmp_path / f"{name}.txt"
        assert run_cli("goodsets", "verify", str(path), "--q", "3",
                       "--output", str(report)) == status
        assert capsys.readouterr().out == ""
        assert report.read_text() == stdout and stdout.startswith(
            "verified" if status == 0 else "line 2: malformed record")


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


def test_cli_parallelism_verify_and_characterize_write_to_output(tmp_path, capsys):
    # each writes to --output exactly what it prints without it, and exits
    # with the same status, for a valid file and for one missing a spread
    lam = lambda_for_q(3)
    gs_file = tmp_path / "gs.jsonl"
    gs_file.write_text(goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0)) + "\n")
    good, broken = tmp_path / "par.jsonl", tmp_path / "broken.jsonl"
    assert run_cli("parallelism", "build", str(gs_file), "--q", "3",
                   "--output", str(good)) == 0
    capsys.readouterr()
    rows = good.read_text().splitlines()
    rows.remove(next(r for r in rows if '"type":"spread"' in r))
    broken.write_text("\n".join(rows) + "\n")
    for par, status in ((good, 0), (broken, 1)):
        for subcmd in ("verify", "characterize"):
            assert run_cli("parallelism", subcmd, str(par)) == status
            stdout = capsys.readouterr().out
            out = tmp_path / f"{par.stem}-{subcmd}.txt"
            assert run_cli("parallelism", subcmd, str(par), "--output", str(out)) == status
            assert capsys.readouterr().out == ""
            assert out.read_text() == stdout
    assert (tmp_path / "par-verify.txt").read_text().endswith("verdict: pass\n")
    assert (tmp_path / "broken-verify.txt").read_text().endswith("verdict: FAIL\n")
    assert (tmp_path / "broken-characterize.txt").read_text().startswith(
        "characterization failed: ")


@pytest.mark.parametrize("subcmd, what", [
    ("build", "record it builds from"),
    ("verify", "parallelism file it reads"),
    ("characterize", "parallelism file it reads"),
])
def test_cli_parallelism_output_may_not_replace_its_input(subcmd, what, tmp_path, capsys):
    lam = lambda_for_q(3)
    gs_file = tmp_path / "gs.jsonl"
    gs_file.write_text(goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0)) + "\n")
    source = tmp_path / "par.jsonl"
    assert run_cli("parallelism", "build", str(gs_file), "--q", "3",
                   "--output", str(source)) == 0
    capsys.readouterr()
    if subcmd == "build":
        source = gs_file
    before = source.read_bytes()
    # the same file, named through another path
    same = tmp_path / "sub" / ".." / source.name
    (tmp_path / "sub").mkdir()
    field = ("--q", "3") if subcmd == "build" else ()
    assert run_cli("parallelism", subcmd, str(source), *field, "--output", str(same)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --output {same} would overwrite the {what}\n"
    assert source.read_bytes() == before


def test_cli_parallelism_build_may_not_replace_its_record_by_the_default_name(
        tmp_path, monkeypatch, capsys):
    # without --output, build writes parallelism_q3.jsonl in the working
    # directory, which here is the record it reads
    monkeypatch.chdir(tmp_path)
    record = tmp_path / "parallelism_q3.jsonl"
    assert run_cli("goodsets", "enumerate", "--q", "3", "--limit", "1",
                   "--output", record.name) == 0
    before = record.read_bytes()
    assert run_cli("parallelism", "build", record.name, "--q", "3") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --output parallelism_q3.jsonl would overwrite the "
                            "record it builds from\n")
    assert record.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [record]


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
    assert run_cli("selftest", "--q", "3") == 0
    out = capsys.readouterr().out
    assert "suites passed" in out and "FAIL" not in out


# sha256 of the `selftest` stdout: every suite's name, verdict and detail
SELFTEST_SHA256 = {
    3: "0d73d70c7d6a2df7f226aefe4b296be41d2f2ebf5e110fc19706b2771a57becb",
    4: "3f3a3e25943ac9cd010c9723ecf4e5fa4a0ae8cfe36f56f32d69961b55367b5b",
    5: "d0ad6ed5ab99151498b2de19acf414d946052247ca12d6c15b1947267cbb1e81",
}


# sha256 of the `classify` stdout: the orbit report
CLASSIFY_SHA256 = {
    3: "012276909ab292a03203499988c2ac96e9d257afb5869daa54f10d1dee1d6e59",
    4: "4632984a5616848a42cd211be2c5e3ca4c0d16fda3111d57f4cbd92f40bce300",
    5: "f53da4ba250ab1626adf4bbee39f8bfae6cfb023e3fef4ece032643cb1563d67",
}


@pytest.mark.parametrize("q", sorted(CLASSIFY_SHA256))
def test_cli_classify_output_is_pinned(q, capsys):
    assert run_cli("classify", "--q", str(q)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CLASSIFY_SHA256[q]


def test_cli_classify_output_directory_is_pinned_at_q4(tmp_path, capsys):
    # the sha256 of the directory's `sha256sum *` listing: the report and
    # the six representative parallelism files
    assert run_cli("classify", "--q", "4", "--output", str(tmp_path)) == 0
    capsys.readouterr()
    listing = "".join(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n"
                      for f in sorted(tmp_path.iterdir()))
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        "05dde8b3c948f22b701a662a3ec5e2c39d06f3927d025d63f06794a30ffa8e63")


@pytest.mark.parametrize("q", sorted(SELFTEST_SHA256))
def test_cli_selftest_output_is_pinned(q, capsys):
    assert run_cli("selftest", "--q", str(q)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SELFTEST_SHA256[q]


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
    ("goodsets", "count", "--p", "4"),
    ("selftest",),
    ("classify", "--q", "7"),
    ("parallelism", "verify", "no-such-dir/par.jsonl"),
    ("parallelism", "characterize", "no-such-dir/par.jsonl"),
    ("parallelism", "build", "no-such-dir/rec.jsonl", "--q", "3"),
    ("goodsets", "verify", "no-such-dir/rec.jsonl", "--q", "3"),
    ("field-info", "--q", "3", "--lambda", "no-such-dir/lambda.json"),
    ("field-info", "--q", "3", "--modulus-q", "a,b"),
    ("field-info", "--q", "3", "--modulus-q2", "1,x,1"),
    ("field-info", "--q", "4", "--modulus-q2", "9,9,1"),
    ("field-info", "--q", "3", "--modulus-q2", "4,0,1"),
    ("field-info", "--q", "3", "--modulus-q2", "1,0"),
    ("field-info", "--q", "4", "--modulus-q", "3,1,1"),
    ("field-info", "--p", "3", "--m", "-1"),
    ("field-info", "--p", "2", "--m", "1000000"),
])
def test_cli_rejects_negative_limit_and_jobs(argv, capsys):
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


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


def _changed_rows(tmp_path, name, *changes):
    """A q = 3 parallelism file with each (row, key path, value) of changes
    set; rows are counted from the header, and row -1 is the certificate."""
    geo = geometry_for_q(3)
    par = build_parallelism(geo, fixed_plane_good_set(geo.lam, geo.lam.I[0], 0))
    good = tmp_path / "par.jsonl"
    write_parallelism_file(good, geo, par, verify_parallelism(geo, par))
    rows = [json.loads(row) for row in good.read_text().splitlines()]
    for row, keys, value in changes:
        obj = rows[row]
        for key in keys[:-1]:
            obj = obj[key]
        obj[keys[-1]] = value
    path = tmp_path / f"{name}.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    return str(path), rows


def _tampered_shapes(tmp_path):
    """q = 3 parallelism files with a value of the wrong JSON type: a
    spread's "lines", the header Lambda's "elements", the header field's
    "p" and each member of the certificate; one whose header "q" is not the
    field's p^m; and one with a second certificate record."""
    paths = []
    for i, change in enumerate(((1, ("lines",), 5),
                                (0, ("lambda", "elements"), 5),
                                (0, ("field", "p"), "3"),
                                (0, ("q",), 4),
                                (-1, ("checksum",), 5),
                                (-1, ("ok",), "yes"),
                                (-1, ("ok",), 1),
                                (-1, ("spread_count",), "13"),
                                (-1, ("line_count",), True))):
        paths.append(_changed_rows(tmp_path, f"shape_{i}", change)[0])
    path, rows = _changed_rows(tmp_path, "two_certificates")
    Path(path).write_text("\n".join(json.dumps(r) for r in rows + rows[-1:]) + "\n")
    return paths + [path]


def _tampered_members(tmp_path):
    """q = 3 parallelism files whose members were changed four ways: the
    first line of member 0 replaced by a line that is not a subgeometry
    line (through the subgeometry point (1, 0, 1, 0) of r_U1 and the point
    (0, 1, 0, 0) off the subgeometry); the first lines of members 0 and 1
    both replaced by that line; the first line of member 1 replaced by that
    of member 0; member 1 dropped."""
    spec = geometry_for_q(3).spec
    stray = [[list(spec.elem_vec(x)) for x in pt]
             for pt in line_through(spec, (1, 0, 1, 0), (0, 1, 0, 0))]
    dropped, rows = _changed_rows(tmp_path, "dropped")
    Path(dropped).write_text("\n".join(json.dumps(r) for r in rows[:2] + rows[3:]) + "\n")
    return {
        "stray": _changed_rows(tmp_path, "stray", (1, ("lines", 0), stray))[0],
        "stray twice": _changed_rows(tmp_path, "stray_twice", (1, ("lines", 0), stray),
                                     (2, ("lines", 0), stray))[0],
        "repeated": _changed_rows(tmp_path, "repeated",
                                  (2, ("lines", 0), rows[1]["lines"][0]))[0],
        "dropped": dropped,
    }


_REGULUS_PATTERN = ("characterization failed: regulus misses r_U1: "
                    "does not meet the distinguished line in a regulus pattern\n")
_STORED = ("ok mismatch against the stored certificate\n"
           "checksum mismatch against the stored certificate\n")
# the full stdout of `parallelism verify` and `characterize` on each file of
# _tampered_members; every such file exits 1
TAMPERED_OUTPUT = {
    "stray": (
        "spreads: 13\nlines covered: 130\nchecksum: 941bde84b8505250..\n" + _STORED
        + "failure: member 0 is not a spread: line is not stable under the involution\n"
        "first uncovered line: ((1, 0, 0, 5), (0, 1, 7, 0))\n"
        "verdict: FAIL\n",
        _REGULUS_PATTERN),
    "stray twice": (
        "spreads: 13\nlines covered: 130\nchecksum: a111b365567b4bde..\n" + _STORED
        + "failure: member 0 is not a spread: line is not stable under the involution\n"
        "first uncovered line: ((1, 0, 0, 5), (0, 1, 7, 0))\n"
        "first multiply covered line: ((1, 0, 1, 0), (0, 1, 0, 0))\n"
        "verdict: FAIL\n",
        _REGULUS_PATTERN),
    "repeated": (
        "spreads: 13\nlines covered: 130\nchecksum: 05f9d4ac9bd95786..\n" + _STORED
        + "failure: member 1 is not a spread: point covered more than once\n"
        "first uncovered line: ((1, 0, 1, 0), (0, 1, 3, 1))\n"
        "first multiply covered line: ((1, 0, 0, 5), (0, 1, 7, 0))\n"
        "verdict: FAIL\n",
        _REGULUS_PATTERN),
    "dropped": (
        "spreads: 12\nlines covered: 120\nchecksum: 758febca6ef286de..\n"
        "ok mismatch against the stored certificate\n"
        "spread_count mismatch against the stored certificate\n"
        "line_count mismatch against the stored certificate\n"
        "checksum mismatch against the stored certificate\n"
        "failure: line not covered: ((1, 0, 1, 0), (0, 1, 3, 1))\n"
        "first uncovered line: ((1, 0, 1, 0), (0, 1, 3, 1))\n"
        "verdict: FAIL\n",
        "characterization failed: malformed family size\n"),
}


@pytest.mark.parametrize("name", sorted(TAMPERED_OUTPUT))
def test_cli_output_on_tampered_members_is_pinned(name, tmp_path, capsys):
    path = _tampered_members(tmp_path)[name]
    for sub, expected in zip(("verify", "characterize"), TAMPERED_OUTPUT[name]):
        assert run_cli("parallelism", sub, path) == 1
        assert capsys.readouterr() == (expected, "")


@pytest.mark.parametrize("q", [3, 4])
def test_spread_tags_follow_the_member_position(q, tmp_path):
    """A built file tags its q^2+q Hall members "hall" and then its last
    member, the Desarguesian spread, "desarguesian"."""
    geo = geometry_for_q(q)
    par = build_parallelism(geo, fixed_plane_good_set(geo.lam, geo.lam.I[0], 0))
    path = tmp_path / "par.jsonl"
    write_parallelism_file(path, geo, par, par.certificate)
    rows = [json.loads(row) for row in path.read_text().splitlines()]
    tags = [row["tag"] for row in rows if row.get("type") == "spread"]
    assert tags == ["hall"] * (q * q + q) + ["desarguesian"]


@pytest.mark.parametrize("change", ["removed", "unknown", "swapped"])
def test_spread_tags_are_not_read(change, tmp_path, capsys):
    """verify and characterize print the same and exit the same on a q = 3
    file whatever its spread rows' tags say: with no tag, with every tag
    "unknown", or with the first and last rows' tags swapped."""
    _, rows = _changed_rows(tmp_path, "copy")
    untouched = tmp_path / "par.jsonl"
    spreads = [row for row in rows if row.get("type") == "spread"]
    for row in spreads:
        if change == "removed":
            del row["tag"]
        elif change == "unknown":
            row["tag"] = "unknown"
    if change == "swapped":
        spreads[0]["tag"], spreads[-1]["tag"] = spreads[-1]["tag"], spreads[0]["tag"]
        assert spreads[0]["tag"] == "desarguesian"
    changed = tmp_path / "changed.jsonl"
    changed.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    for sub in ("verify", "characterize"):
        code = run_cli("parallelism", sub, str(untouched))
        expected = capsys.readouterr()
        assert run_cli("parallelism", sub, str(changed)) == code == 0
        assert capsys.readouterr() == expected


@pytest.mark.parametrize("key, value", [("ok", False), ("spread_count", 3),
                                        ("line_count", 3), ("checksum", "0" * 64)])
def test_cli_verify_compares_the_stored_certificate(key, value, tmp_path, capsys):
    path, _ = _changed_rows(tmp_path, "certificate", (-1, (key,), value))
    assert run_cli("parallelism", "verify", path) == 1
    out = capsys.readouterr().out
    assert f"{key} mismatch against the stored certificate" in out
    assert out.endswith("verdict: FAIL\n") and out.count("mismatch") == 1


def test_cli_rejects_empty_and_foreign_files(tmp_path, capsys):
    """Every subcommand that reads a file exits 2 with one `error:` line
    and no traceback on a missing, empty, non-UTF-8, directory, malformed,
    wrong-shape or out-of-range file, and so does every subcommand that
    writes one on an --output it cannot create.  In `goodsets verify` a record that
    does not parse is a failed record instead (exit 1, see
    test_cli_goodsets_verify), so only files that hold no record are
    rejected there."""
    def write(name, text):
        (tmp_path / name).write_text(text)
        return str(tmp_path / name)

    binary = tmp_path / "binary.jsonl"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    unreadable = [str(tmp_path / "missing.jsonl"), write("empty.jsonl", ""),
                  write("blank.jsonl", "\n"), str(binary), str(tmp_path)]
    malformed = unreadable + [write("malformed.jsonl", "{"),
                              write("foreign.jsonl", json.dumps({"q": 3}))]
    lam = lambda_for_q(3)
    good = json.loads(goodset_record(lam, fixed_plane_good_set(lam, lam.I[0], 0)))
    entries = good["entries"]
    # wrong shape (also too few entries, and a repeated one), then out of range
    records = [write(f"record_{i}.jsonl", text) for i, text in enumerate((
        *_malformed_records(),
        json.dumps({**good, "entries": entries[:2]}),
        json.dumps({**good, "entries": [entries[0], *entries[:3]]}),
        json.dumps({**good, "entries": [{**entries[0], "alpha_idx": 9}, *entries[1:]]}),
        json.dumps({**good, "entries": [{**entries[0], "u_pow": 4}, *entries[1:]]}),
        json.dumps({**good, "q": 5})))]
    parallelisms = _tampered_coordinates(tmp_path) + _tampered_shapes(tmp_path)
    # wrong shape, then coefficients out of range and too few elements
    lambdas = [write(f"lambda_{i}.json", json.dumps(obj)) for i, obj in enumerate((
        [1], {"elements": 5}, {"elements": [[1, 0], "x"]},
        {"elements": [[7, 0], [1, 0]]}, {"elements": [[1, 0]]}))]
    # outputs that cannot be written: under a missing directory, a
    # directory, under a regular file; classify writes a directory, so a
    # regular file in its place; the input file of verify itself
    record = write("record.jsonl", json.dumps(good))
    unwritable = [str(tmp_path / "missing" / "out"), str(tmp_path), f"{record}/out"]
    writers = [("field-info", "--q", "3"), ("goodsets", "count", "--q", "3"),
               ("goodsets", "enumerate", "--q", "3"),
               ("goodsets", "verify", record, "--q", "3"),
               ("parallelism", "build", record, "--q", "3")]
    rows = [*[(*command, "--output", path) for command in writers for path in unwritable],
            *[("classify", "--q", "3", "--output", path) for path in (record, f"{record}/out")],
            ("goodsets", "verify", record, "--q", "3", "--output", record),
            *[("goodsets", "verify", path, "--q", "3") for path in unreadable],
            *[("parallelism", "build", path, "--q", "3") for path in malformed + records],
            *[("parallelism", sub, path) for path in malformed + parallelisms
              for sub in ("verify", "characterize")],
            *[(*command, "--q", "3", "--lambda", path) for path in malformed + lambdas
              for command in (("field-info",), ("goodsets", "count"), ("classify",),
                              ("selftest",))]]
    for argv in rows:
        assert run_cli(*argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1, argv
        assert "Traceback" not in captured.err
    assert json.loads(Path(record).read_text()) == good


@pytest.mark.parametrize("q", [3, 4, 8, 9, 16])
def test_every_element_round_trips_through_the_coefficient_table(q):
    spec = field_for_q(q)
    table = coefficient_table(spec)
    decode = element_decoder(spec)
    assert coefficient_table(spec) is table
    assert len(table.vectors) == len(table.codes) == spec.order
    for x in spec.elements():
        vec = table.vectors[x]
        assert vec == spec.elem_vec(x)
        assert table.codes[vec] == decode(list(vec)) == spec.elem_from_vec(vec) == x


def _own_ids(geo, ids) -> bool:
    """Whether every id is the int object that line_id gives its line."""
    return all(k is geo.line_id(geo.line(k)) for k in ids)


def test_read_lines_are_the_index_objects(tmp_path):
    path, _ = _changed_rows(tmp_path, "par")
    _, geo, spreads, _ = read_parallelism_file(path)
    assert _own_ids(geo, (k for sp in spreads for k in sp))


def _sorted_own_tuples(geo, line_sets) -> bool:
    """Whether each line set is a sorted tuple of the index's own ints."""
    return all(type(ids) is tuple and list(ids) == sorted(ids) and _own_ids(geo, ids)
               for ids in line_sets)


def test_line_ids_are_the_index_int_objects(tmp_path):
    """The spreads of a built q = 8 parallelism, the Desarguesian spread, a
    Hall spread, its regulus and the opposite regulus, and the spreads of a
    q = 9 file read back are sorted tuples of the index's own int objects,
    and so are E's generator permutations.  A fresh int takes 28 B, and a
    q = 8 Geometry can memoise 1 944 Hall spreads of 65 lines: about
    3.5 MB of second copies."""
    geo = Geometry(lambda_for_q(8))
    par = build_parallelism(geo, next(enumerate_good_sets(geo.lam)))
    assert _sorted_own_tuples(geo, par.spreads)
    l = geo.line_set_L()[-1]
    reg = geo.regulus_of(l)
    assert _sorted_own_tuples(geo, (geo.desarguesian_spread(), geo.hall_spread(l),
                                    reg, geo.opposite_regulus(reg)))
    assert _own_ids(geo, (k for perm in parallelisms.E_generator_line_perms(geo) for k in perm))
    geo9 = geometry_for_q(9)
    path = tmp_path / "par.jsonl"
    par = build_parallelism(geo9, next(enumerate_good_sets(geo9.lam)))
    write_parallelism_file(path, geo9, par, par.certificate)
    _, geo2, spreads, _ = read_parallelism_file(path)
    assert spreads == list(par.spreads)
    assert _sorted_own_tuples(geo2, spreads)


def test_a_line_written_as_other_points_of_it_reads_the_same(tmp_path, capsys):
    """A line given by two of its points that are not its canonical rows
    goes through line_through and still reads to the index's own line."""
    good, rows = _changed_rows(tmp_path, "good")
    _, geo, spreads, _ = read_parallelism_file(good)
    spec = geo.spec
    decode = element_decoder(spec)
    P, R = _line_points(decode, rows[1]["lines"][0])
    c = spec.generator
    T = tuple(spec.mul(c, x) for x in P)                  # not normalized
    S = tuple(spec.add(x, y) for x, y in zip(P, R))       # neither row
    assert T not in (P, R) and S not in (P, R)
    other, _ = _changed_rows(tmp_path, "other", (1, ("lines", 0),
                             [[list(spec.elem_vec(x)) for x in pt] for pt in (T, S)]))
    _, geo2, spreads2, _ = read_parallelism_file(other)
    assert spreads2 == spreads
    assert _own_ids(geo2, (k for sp in spreads2 for k in sp))
    assert run_cli("parallelism", "verify", good) == 0
    expected = capsys.readouterr()
    assert run_cli("parallelism", "verify", other) == 0
    assert capsys.readouterr() == expected


@pytest.mark.parametrize("text, shown", [
    ("[true,0]", "[True, 0]"), ("[1.0,0]", "[1.0, 0]"), ("[0]", "[0]"),
    ("[9,0]", "[9, 0]"), ("[{},0]", "[{}, 0]"), ("[[0],0]", "[[0], 0]")])
def test_a_bad_coefficient_vector_keeps_its_error(text, shown, tmp_path, capsys):
    """Vectors that equal or hash like a table key, or cannot be hashed,
    fail with the coefficient check's own message."""
    path, _ = _changed_rows(tmp_path, "bad", (1, ("lines", 0, 0, 0), json.loads(text)))
    for sub in ("verify", "characterize"):
        assert run_cli("parallelism", sub, path) == 2
        assert capsys.readouterr() == ("", f"error: {path}: malformed parallelism file: "
                                           f"{shown} is not 2 coefficients in 0..2\n")


@pytest.mark.parametrize("vec, cause", [
    ([0, 0], "0 has no multiplicative order"),
    ([1, 0], "generator 1 does not have order 8"),
    ([2, 0], "generator 2 does not have order 8")])     # -1, of order 2
def test_a_header_generator_that_is_not_primitive_is_an_input_error(vec, cause, tmp_path,
                                                                    capsys):
    """The header's generator is checked by the field construction, and its
    ValueError is the one error line of verify and characterize, exit 2."""
    path, _ = _changed_rows(tmp_path, "generator", (0, ("field", "generator"), vec))
    for sub in ("verify", "characterize"):
        assert run_cli("parallelism", sub, path) == 2
        assert capsys.readouterr() == ("", f"error: {path}: malformed parallelism file: "
                                           f"{cause}\n")


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
