"""JSON codecs for the on-disk formats: good-set records (JSON lines),
parallelism files with verification certificates, and classification
reports.  The field-spec and Lambda codecs and the shared ``dumps`` and
``loads`` live in field_codec, which this module re-exports.

Points travel as lists of four field elements; lines as their two
canonical points.  The good-set codec needs only goodsets; the
parallelism-file reader imports the geometry when it is called, so a
command that streams good sets never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from spreadsmith.field_codec import (
    _member,
    coefficient_table,
    dumps,
    element_decoder,
    field_spec_from_obj,
    field_spec_to_obj,
    lambda_from_obj,
    lambda_to_obj,
    loads,
)
from spreadsmith.field_tower import LambdaSystem
from spreadsmith.goodsets import Candidate, GoodSet, canonical, validate

if TYPE_CHECKING:
    from spreadsmith.parallelisms import Certificate, Parallelism
    from spreadsmith.proj_geometry import Line, Point
    from spreadsmith.spreads import Geometry

FORMAT_NAME = "pg3q-parallelism"
FORMAT_VERSION = 1
# the JSON type of each member of the certificate record
CERTIFICATE_MEMBERS = (("ok", bool), ("spread_count", int), ("line_count", int),
                       ("checksum", str))


# ---------------------------------------------------------------------------
# good sets (JSON lines)


@lru_cache(maxsize=None)
def _lambda_idx(lam: LambdaSystem) -> tuple[int, ...]:
    """The discrete logarithms of the Lambda elements that every good-set
    record carries, computed once per Lambda system."""
    return tuple(lam.spec.dlog(x) for x in lam.lam)


def _entries(cands) -> list[dict]:
    """Candidates as the JSON objects of records, files and reports, keyed
    by the Candidate field names that parse_goodset_record reads."""
    return [{"alpha_idx": a, "u_pow": u, "v_pow": v} for a, u, v in cands]


def goodset_record(lam: LambdaSystem, gs) -> str:
    return dumps({"q": lam.spec.q, "lambda_idx": _lambda_idx(lam),
                  "entries": _entries(canonical(gs))})


def parse_goodset_record(lam: LambdaSystem, text: str) -> GoodSet:
    obj = loads(text)
    q = lam.spec.q
    if _member(obj, "q", int) != q:
        raise ValueError(f"record is for q={obj['q']}, expected q={q}")
    if tuple(_member(obj, "lambda_idx", list)) != _lambda_idx(lam):
        raise ValueError("record was written against a different Lambda")
    entries = ([_member(e, key, int) for key in Candidate._fields]
               for e in _member(obj, "entries", list))
    return canonical(validate(lam, entries))


# ---------------------------------------------------------------------------
# parallelism files


def _point_from_obj(decode, obj) -> Point:
    """A point from four coefficient vectors, each read by decode."""
    if not isinstance(obj, list) or len(obj) != 4:
        raise ValueError(f"{obj!r} is not a point of four coordinates")
    return tuple([decode(v) for v in obj])


def _line_points(decode, obj) -> tuple[Point, Point]:
    """The two points a file gives for a line."""
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"{obj!r} is not a line of two points")
    return _point_from_obj(decode, obj[0]), _point_from_obj(decode, obj[1])


def _line_text(texts, l: Line) -> str:
    """The JSON of a line as its two canonical points, the bytes dumps would
    write for them; texts[x] is the JSON of element x's coefficients."""
    (a, b, c, d), (e, f, g, h) = l
    return "[[%s,%s,%s,%s],[%s,%s,%s,%s]]" % (texts[a], texts[b], texts[c], texts[d],
                                                texts[e], texts[f], texts[g], texts[h])


def write_parallelism_file(path, geo: Geometry, par: Parallelism,
                           cert: Certificate) -> None:
    """Writes the header, one row per spread and the certificate, each row
    as soon as it is encoded, so no more than one row is held at a time.
    A spread row is built as text, in the key order dumps sorts into."""
    spec = geo.spec
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "q": spec.q,
        "field": field_spec_to_obj(spec),
        "lambda": lambda_to_obj(geo.lam),
        "source": _entries(par.source) if par.source else None,
    }
    texts = [dumps(v) for v in coefficient_table(spec).vectors]
    with open(path, "w") as fh:
        fh.write(dumps(header) + "\n")
        for i, sp in enumerate(par.spreads):
            lines = ",".join([_line_text(texts, l) for l in map(geo.line, sp)])
            tag = "desarguesian" if i == par.desarguesian_index else "hall"
            fh.write(f'{{"lines":[{lines}],"tag":"{tag}","type":"spread"}}\n')
        fh.write(dumps(certificate_record(len(par.spreads), cert)) + "\n")


def certificate_record(spread_count: int, cert: Certificate) -> dict:
    """The certificate row of a parallelism file of spread_count spreads."""
    return {"type": "certificate", "ok": cert.ok, "spread_count": spread_count,
            "line_count": cert.line_count, "checksum": cert.checksum}


def read_parallelism_file(path):
    """Returns (header dict, Geometry, spreads, certificate dict).  Rows are
    decoded one at a time, and a spread is its sorted line ids
    (Geometry.line_id); tags are not read."""
    from spreadsmith.spreads import Geometry

    with open(path) as fh:
        rows = (loads(line) for line in fh if line.strip())
        header = next(rows, None)
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ValueError("not a parallelism file")
        spec = field_spec_from_obj(header["field"])
        if _member(header, "q", int) != spec.q:
            raise ValueError(f"header q={header['q']} is not the field order {spec.p}^{spec.m}")
        geo = Geometry(lambda_from_obj(spec, header["lambda"]))
        decode = element_decoder(spec)
        spreads = []
        cert = None
        for row in rows:
            kind = _member(row, "type", str)
            if kind == "spread":
                lines = [geo.line_id(_line_points(decode, obj))
                         for obj in _member(row, "lines", list)]
                spreads.append(tuple(sorted(lines)))
            elif kind == "certificate":
                if cert is not None:
                    raise ValueError("more than one certificate record")
                for key, json_type in CERTIFICATE_MEMBERS:
                    _member(row, key, json_type)
                cert = row
            else:
                raise ValueError(f"unknown record type {kind!r}")
    return header, geo, spreads, cert


# ---------------------------------------------------------------------------
# classification reports


def orbit_report_to_obj(report, lam: LambdaSystem, file_refs=None) -> dict:
    orbits = []
    for i, o in enumerate(report.orbits):
        entry = {
            "representative": _entries(o.representative),
            "orbit_size": o.size,
            "stabilizer_order": o.stabilizer_order,
            "family_count": o.size,
        }
        if file_refs:
            entry["file"] = file_refs[i]
        orbits.append(entry)
    return {
        "q": lam.spec.q,
        "group_order": report.group_order,
        "family_size": report.family_size,
        "orbit_count": report.orbit_count,
        "orbits": orbits,
        "lower_bounds": {k: str(v) for k, v in report.bounds.items()},
    }
