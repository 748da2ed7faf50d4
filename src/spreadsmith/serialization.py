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
from typing import Any

from spreadsmith.field_tower import FieldSpec, LambdaSystem, build_lambda, build_partition
from spreadsmith.goodsets import Candidate, GoodSet, canonical
from spreadsmith.parallelisms import Certificate, Parallelism
from spreadsmith.proj_geometry import Line, Point, line_through
from spreadsmith.spreads import Geometry, Spread

FORMAT_NAME = "pg3q-parallelism"
FORMAT_VERSION = 1


def dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


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


def goodset_record(lam: LambdaSystem, gs) -> str:
    spec = lam.spec
    lam_idx = [spec.dlog(x) for x in lam.lam]
    entries = [{"alpha_idx": c.alpha_idx, "u_pow": c.u_pow, "v_pow": c.v_pow}
               for c in canonical(gs)]
    return dumps({"q": spec.q, "lambda_idx": lam_idx, "entries": entries})


def parse_goodset_record(lam: LambdaSystem, text: str) -> GoodSet:
    obj = json.loads(text)
    q = lam.spec.q
    if obj.get("q") != q:
        raise ValueError(f"record is for q={obj.get('q')}, expected q={q}")
    want_idx = [lam.spec.dlog(x) for x in lam.lam]
    if obj.get("lambda_idx") != want_idx:
        raise ValueError("record was written against a different Lambda")
    entries = obj["entries"]
    cands = []
    for e in entries:
        c = Candidate(int(e["alpha_idx"]), int(e["u_pow"]), int(e["v_pow"]))
        if c.alpha_idx not in lam.I:
            raise ValueError(f"alpha index {c.alpha_idx} is not in the I class")
        if not (0 <= c.u_pow <= q and 0 <= c.v_pow <= q):
            raise ValueError("unit exponent out of range")
        cands.append(c)
    return canonical(cands)


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
        "source": ([{"alpha_idx": c.alpha_idx, "u_pow": c.u_pow,
                     "v_pow": c.v_pow} for c in par.source]
                   if par.source else None),
    }
    lines_out.append(dumps(header))
    for sp in par.spreads:
        lines_out.append(dumps({
            "type": "spread",
            "tag": sp.tag,
            "lines": [_line_to_obj(spec, l) for l in sp.lines],
        }))
    lines_out.append(dumps({
        "type": "certificate",
        "ok": cert.ok,
        "spread_count": len(par.spreads),
        "line_count": cert.line_count,
        "checksum": cert.checksum,
    }))
    with open(path, "w") as fh:
        fh.write("\n".join(lines_out) + "\n")


def read_parallelism_file(path):
    """Returns (header dict, Geometry, list of Spread, certificate dict)."""
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    if not rows or not all(isinstance(row, dict) for row in rows) \
            or rows[0].get("format") != FORMAT_NAME:
        raise ValueError("not a parallelism file")
    header = rows[0]
    spec = field_spec_from_obj(header["field"])
    lam = lambda_from_obj(spec, header["lambda"])
    geo = Geometry(lam)
    spreads = []
    cert = None
    for row in rows[1:]:
        kind = row.get("type")
        if kind == "spread":
            lines = tuple(_line_from_obj(spec, l) for l in _member(row, "lines", list))
            spreads.append(Spread(lines=lines, alpha=geo.eta, tag=row.get("tag", "unknown")))
        elif kind == "certificate":
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
            "representative": [{"alpha_idx": c.alpha_idx, "u_pow": c.u_pow,
                                "v_pow": c.v_pow} for c in o.representative],
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
