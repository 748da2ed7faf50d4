"""Seeded mutations of the CLI's input files: whatever a file holds, every
command that reads it keeps the exit-code contract (0 success, 1 failed
verification, 2 input error) and reports an input error on one `error:`
line of stderr, never with a traceback."""

import copy
import json
import random

import pytest

from spreadsmith.cli import main
from spreadsmith.goodsets import enumerate_good_sets, fixed_plane_good_set
from spreadsmith.parallelisms import build_parallelism
from spreadsmith.serialization import goodset_record, write_parallelism_file
from spreadsmith.spreads import geometry_for_q

DEEP = 100_000
# a string that marks where a mutant holds DEEP nested arrays, which the
# JSON encoder cannot write itself
DEEP_MARK = "<deep>"
# JSON values of every type, with ints in and out of the ranges the
# formats allow
REPLACEMENTS = (None, True, False, 0, 1, 2, -1, 3, 9, 10**30, 0.5, "", "3", "x",
                [], [0], [[1, 0]], {}, {"q": 3}, DEEP_MARK)
SEED = 1
MUTANTS = 24          # of each file, per kind of change


def _nodes(value, path=()):
    """Every (path, value) in a JSON value, the value itself first."""
    yield path, value
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _nodes(item, path + (i,))


def _text(obj) -> str:
    deep = "[" * DEEP + "]" * DEEP
    return json.dumps(obj, sort_keys=True).replace(json.dumps(DEEP_MARK), deep)


def _mutant(rng: random.Random, rows: list, kind: str) -> str:
    """The text of rows with one change of the given kind."""
    rows = copy.deepcopy(rows)
    if kind in ("drop", "duplicate", "truncate"):
        texts = [_text(r) for r in rows]
        i = rng.randrange(len(texts))
        if kind == "drop":
            del texts[i]
        elif kind == "duplicate":
            texts.insert(i, texts[i])
        else:
            texts[i] = texts[i][:rng.randrange(len(texts[i]))]
        return "\n".join(texts) + "\n"
    if kind == "deep":
        rows.insert(rng.randrange(len(rows) + 1), DEEP_MARK)
        return "\n".join(map(_text, rows)) + "\n"
    i = rng.randrange(len(rows))
    if kind == "delete":
        keyed = [(p, v) for p, v in _nodes(rows[i]) if isinstance(v, dict) and v]
        path, obj = rng.choice(keyed)
        del obj[rng.choice(sorted(obj))]
    else:   # "retype": one value, the row itself included, replaced
        path, _ = rng.choice(list(_nodes(rows[i])))
        value = rng.choice(REPLACEMENTS)
        if not path:
            rows[i] = value
        else:
            parent = rows[i]
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
    return "\n".join(map(_text, rows)) + "\n"


KINDS = ("delete", "retype", "truncate", "drop", "duplicate", "deep")


@pytest.fixture(scope="module")
def originals(tmp_path_factory):
    """The rows of a q = 3 parallelism file and of a good-set file."""
    geo = geometry_for_q(3)
    lam = geo.lam
    par = build_parallelism(geo, fixed_plane_good_set(lam, lam.I[0], 0))
    path = tmp_path_factory.mktemp("originals") / "par.jsonl"
    write_parallelism_file(path, geo, par, par.certificate)
    par_rows = [json.loads(row) for row in path.read_text().splitlines()]
    gs_rows = [json.loads(goodset_record(lam, gs))
               for gs in enumerate_good_sets(lam, limit=3)]
    return par_rows, gs_rows


def _run(argv, capsys):
    status = main(argv)
    err = capsys.readouterr().err
    assert status in (0, 1, 2), (argv, status)
    assert err == "" or (err.startswith("error:") and err.count("\n") == 1), (argv, err)


def test_cli_keeps_its_exit_contract_on_mutated_files(originals, tmp_path, capsys):
    par_rows, gs_rows = originals
    rng = random.Random(SEED)
    path = tmp_path / "mutant.jsonl"
    out = str(tmp_path / "out.jsonl")
    for kind in KINDS:
        for _ in range(MUTANTS):
            path.write_text(_mutant(rng, par_rows, kind))
            for sub in ("verify", "characterize"):
                _run(["parallelism", sub, str(path)], capsys)
            path.write_text(_mutant(rng, gs_rows, kind))
            _run(["goodsets", "verify", str(path), "--q", "3"], capsys)
            _run(["parallelism", "build", str(path), "--q", "3", "--output", out], capsys)


@pytest.mark.parametrize("argv", [
    ("goodsets", "verify", "F", "--q", "3"),
    ("parallelism", "build", "F", "--q", "3"),
    ("parallelism", "verify", "F"),
    ("parallelism", "characterize", "F"),
    ("field-info", "--q", "3", "--lambda", "F"),
], ids=["goodsets-verify", "parallelism-build", "parallelism-verify",
        "parallelism-characterize", "field-info"])
def test_cli_deep_nesting_is_an_input_error(argv, tmp_path, capsys):
    """A line of DEEP `[` is malformed JSON: a failed record in `goodsets
    verify`, an input error everywhere else."""
    path = tmp_path / "deep.jsonl"
    path.write_text("[" * DEEP + "\n")
    status = main([str(path) if a == "F" else a for a in argv])
    captured = capsys.readouterr()
    if argv[:2] == ("goodsets", "verify"):
        assert status == 1
        assert captured.out.startswith("line 1: malformed record: ")
        assert captured.err == ""
    else:
        assert status == 2
        assert captured.err.startswith("error:") and captured.err.count("\n") == 1
