"""The JSON layer every on-disk format shares, and the codecs of field
specifications and Lambda systems.

It imports only field_tower, so a command that writes no good set and no
geometry (``field-info``) loads nothing else of the package.  Field
elements travel as flat GF(p)-coefficient lists, constant term first, of
length 2m for elements of the big field.  ``dumps`` sorts keys and uses
fixed separators, so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from typing import Callable, NamedTuple
from weakref import WeakKeyDictionary

from spreadsmith.field_tower import FieldSpec, LambdaSystem, build_lambda, build_partition, value


def dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def loads(text: str) -> object:
    """The JSON value of text, the one way every input file is parsed:
    text nested too deeply for the parser is a ValueError, like any other
    malformed JSON."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


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


def _code(vec, width: int, p: int) -> int:
    """The field code of exactly width ints in 0..p-1, constant first: their
    value as base-p digits, for width m a GF(q) code and for width 2m a
    GF(q^2) code, whatever the moduli.  Anything else is a ValueError."""
    return value(_coefficients(vec, width, p), p)


class CoefficientTable(NamedTuple):
    """Every element of GF(q^2) and its coefficient vector, both ways."""
    vectors: tuple[tuple[int, ...], ...]    # element code -> its 2m coefficients
    codes: dict[tuple[int, ...], int]       # coefficient vector -> element code


# one table per FieldSpec, built on first use by a parallelism codec; it
# holds no reference to its spec, so a spec read from a file can still go
_TABLES: WeakKeyDictionary[FieldSpec, CoefficientTable] = WeakKeyDictionary()


def coefficient_table(spec: FieldSpec) -> CoefficientTable:
    table = _TABLES.get(spec)
    if table is None:
        vectors = tuple(spec.elem_vec(x) for x in spec.elements())
        table = _TABLES[spec] = CoefficientTable(
            vectors, {v: x for x, v in enumerate(vectors)})
    return table


def element_decoder(spec: FieldSpec) -> Callable[[object], int]:
    """The GF(q^2) element of 2m coefficients, _code(vec, 2m, p), by one
    table lookup when vec is a list of ints found in the table.  The ints
    are checked before the tuple is built: a dict or list coefficient would
    not hash, and True or 1.0 would find the entry of 1.  Any other vec goes
    to _code, so it fails with _code's message."""
    codes, width, p = coefficient_table(spec).codes, 2 * spec.m, spec.p

    def decode(vec) -> int:
        if type(vec) is list:
            for c in vec:
                if type(c) is not int:
                    break
            else:
                x = codes.get(tuple(vec))
                if x is not None:
                    return x
        return _code(vec, width, p)

    return decode


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


def field_spec_from_obj(obj: dict) -> FieldSpec:
    p, m = _member(obj, "p", int), _member(obj, "m", int)
    if not (p >= 2 and 1 <= m <= 4 and 3 <= p**m <= 16):
        raise ValueError(f"field order {p}^{m} is outside the supported range 3..16")
    mod_q = tuple(_coefficients(_member(obj, "modulus_q", list), m + 1, p))
    mod2 = tuple(_code(v, m, p) for v in _member(obj, "modulus_q2", list))
    return FieldSpec(p, m, modulus_q=mod_q, modulus_q2=mod2,
                     generator=_code(obj["generator"], 2 * m, p))


# ---------------------------------------------------------------------------
# Lambda systems


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
    codes = tuple(_code(v, 2 * spec.m, spec.p) for v in _member(obj, "elements", list))
    return build_lambda(spec, build_partition(spec), override=codes)
