"""JSON codecs for the on-disk formats: field specifications, good-set
records (JSON lines), parallelism files with verification certificates,
and classification reports.

Field elements travel as flat GF(p)-coefficient lists (constant term
first, length 2m for elements of the big field); points as lists of four
such lists; lines as their two canonical points.  All emitters sort keys
and use fixed separators so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import Any

from spreadsmith.field_tower import FieldSpec, LambdaSystem, build_lambda, build_partition
from spreadsmith.goodsets import Candidate, GoodSet, canonical, validate
from spreadsmith.parallelisms import Certificate, Parallelism
from spreadsmith.proj_geometry import Line, Point, line_through
from spreadsmith.spreads import Geometry, Spread

FORMAT_NAME = "pg3q-parallelism"
FORMAT_VERSION = 1
# the JSON type of each member of the certificate record
CERTIFICATE_MEMBERS = (("ok", bool), ("spread_count", int), ("line_count", int),
                       ("checksum", str))


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads(text: str) -> Any:
    """The JSON value of text, the one way every input file is parsed:
    text nested too deeply for the parser is a ValueError, like any other
    malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


# ---------------------------------------------------------------------------
# field specs


def field_spec_to_obj(spec: FieldSpec) -> dict:
    return {
        "p": spec.p,
        "m": spec.m,
        "modulus_q": list(spec.modulus_q),
        "modulus_q2": [list(spec.gfq_vec(c)) for c in spec.modulus_q2],
        "generator": list(spec.elem_vec(spec.generator)),
    }


def _member(obj, key: str, kind: type):
    """obj[key] for a JSON object obj, required to be of the JSON type kind
    (int excludes booleans); any other shape is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError(f"expected a JSON object holding {key!r}")
    value = obj[key]
    if type(value) is not kind:
        raise ValueError(f"{key!r} is not a JSON {kind.__name__}")
    return value


def _coefficients(vec, width: int, p: int) -> list[int]:
    """Exactly width ints in 0..p-1; anything else is a ValueError."""
    if (not isinstance(vec, list) or len(vec) != width
            or not all(type(c) is int and 0 <= c < p for c in vec)):
        raise ValueError(f"{vec!r} is not {width} coefficients in 0..{p - 1}")
    return vec


def _decode(spec: FieldSpec, vec, gfq: bool = False) -> int:
    """An element of GF(q^2) from exactly 2m ints in 0..p-1, or with gfq a
    GF(q) code from exactly m of them; anything else is a ValueError."""
    _coefficients(vec, spec.m if gfq else 2 * spec.m, spec.p)
    return spec._gfq_code(vec) if gfq else spec.elem_from_vec(vec)


def field_spec_from_obj(obj: dict) -> FieldSpec:
    p, m = _member(obj, "p", int), _member(obj, "m", int)
    if not (p >= 2 and 1 <= m <= 4 and 3 <= p**m <= 16):
        raise ValueError(f"field order {p}^{m} is outside the supported range 3..16")
    mod_q = tuple(_coefficients(_member(obj, "modulus_q", list), m + 1, p))
    probe = FieldSpec(p, m, modulus_q=mod_q)
    mod2 = tuple(_decode(probe, v, gfq=True) for v in _member(obj, "modulus_q2", list))
    spec = FieldSpec(p, m, modulus_q=mod_q, modulus_q2=mod2)
    gen = _decode(spec, obj["generator"])
    if gen != spec.generator:
        spec = FieldSpec(p, m, modulus_q=mod_q, modulus_q2=mod2, generator=gen)
    return spec


def lambda_to_obj(lam: LambdaSystem) -> dict:
    spec = lam.spec
    return {
        "elements": [list(spec.elem_vec(x)) for x in lam.lam],
        "eta_index": lam.eta_index,
        "I": list(lam.I),
        "I1": list(lam.I1),
        "I2": list(lam.I2),
    }


def lambda_from_obj(spec: FieldSpec, obj: dict) -> LambdaSystem:
    codes = tuple(_decode(spec, v) for v in _member(obj, "elements", list))
    return build_lambda(spec, build_partition(spec), override=codes)


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


def _point_to_obj(spec: FieldSpec, P: Point) -> list:
    return [list(spec.elem_vec(c)) for c in P]


def _point_from_obj(spec: FieldSpec, obj) -> Point:
    if not isinstance(obj, list) or len(obj) != 4:
        raise ValueError(f"{obj!r} is not a point of four coordinates")
    return tuple(_decode(spec, v) for v in obj)


def _line_to_obj(spec: FieldSpec, l: Line) -> list:
    return [_point_to_obj(spec, l[0]), _point_to_obj(spec, l[1])]


def _line_from_obj(spec: FieldSpec, obj) -> Line:
    if not isinstance(obj, list) or len(obj) != 2:
        raise ValueError(f"{obj!r} is not a line of two points")
    return line_through(spec, _point_from_obj(spec, obj[0]),
                        _point_from_obj(spec, obj[1]))


def write_parallelism_file(path, geo: Geometry, par: Parallelism,
                           cert: Certificate) -> None:
    spec = geo.spec
    lines_out = []
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "q": spec.q,
        "field": field_spec_to_obj(spec),
        "lambda": lambda_to_obj(geo.lam),
        "source": _entries(par.source) if par.source else None,
    }
    lines_out.append(dumps(header))
    for sp in par.spreads:
        lines_out.append(dumps({
            "type": "spread",
            "tag": sp.tag,
            "lines": [_line_to_obj(spec, l) for l in sp.lines],
        }))
    lines_out.append(dumps(certificate_record(len(par.spreads), cert)))
    with open(path, "w") as fh:
        fh.write("\n".join(lines_out) + "\n")


def certificate_record(spread_count: int, cert: Certificate) -> dict:
    """The certificate row of a parallelism file of spread_count spreads."""
    return {"type": "certificate", "ok": cert.ok, "spread_count": spread_count,
            "line_count": cert.line_count, "checksum": cert.checksum}


def read_parallelism_file(path):
    """Returns (header dict, Geometry, list of Spread, certificate dict).
    Rows are decoded one at a time, and each subgeometry line is replaced
    by the index's own object, so the file's lines are held once."""
    with open(path) as fh:
        rows = (loads(line) for line in fh if line.strip())
        header = next(rows, None)
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ValueError("not a parallelism file")
        spec = field_spec_from_obj(header["field"])
        if _member(header, "q", int) != spec.q:
            raise ValueError(f"header q={header['q']} is not the field order {spec.p}^{spec.m}")
        geo = Geometry(lambda_from_obj(spec, header["lambda"]))
        spreads = []
        cert = None
        for row in rows:
            kind = _member(row, "type", str)
            if kind == "spread":
                lines = tuple(geo.intern(_line_from_obj(spec, l))
                              for l in _member(row, "lines", list))
                spreads.append(Spread(lines=lines, alpha=geo.eta, tag=row.get("tag", "unknown")))
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
            "family_count": o.family_count,
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
