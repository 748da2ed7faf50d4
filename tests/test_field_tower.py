"""Field tower: arithmetic, the unit circle, the norm partition and the
Lambda system.  Oracles here are exhaustive scans of the small fields,
independent of the table-driven fast paths they check; the field axioms
are sampled with a generator seeded by q."""

import dataclasses
import hashlib
import random

import pytest

from spreadsmith.field_tower import (
    FieldSpec,
    build_lambda,
    build_partition,
    field_for_q,
    lambda_for_q,
    prime_power,
    value,
)

# every supported field order
ALL_Q = (3, 4, 5, 7, 8, 9, 11, 13, 16)


def test_prime_power_decomposition():
    assert prime_power(3) == (3, 1)
    assert prime_power(4) == (2, 2)
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    for bad in (6, 10, 12, 1, 15):
        with pytest.raises(ValueError):
            prime_power(bad)


def test_frobenius_fixes_subfield_and_is_involution():
    for q in ALL_Q:
        s = field_for_q(q)
        for c in range(s.q):
            assert s.frobenius(c) == c
        for x in range(s.order):
            assert s.frobenius(s.frobenius(x)) == x


def test_norm_into_subfield_and_multiplicative():
    for q in ALL_Q:
        s = field_for_q(q)
        assert s.norm(1) == 1
        for c in range(s.q):
            assert s.norm(c) == s.mul(c, c)   # subfield: x^q = x
        for x in range(s.order):
            assert s.in_subfield(s.norm(x))
            for y in (1, 2, s.generator, s.order - 1):
                assert s.norm(s.mul(x, y)) == s.mul(s.norm(x), s.norm(y))


@pytest.mark.parametrize("q", ALL_Q)
def test_field_axioms_on_seeded_samples(q):
    """Associativity, commutativity, distributivity, inverses, the Frobenius
    x -> x^q as a field automorphism and the norm x^(q+1) as a
    multiplicative map, on 300 seeded triples of GF(q^2)."""
    s = field_for_q(q)
    add, mul, f = s.add, s.mul, s.frobenius
    rng = random.Random(q)
    for _ in range(300):
        x, y, z = (rng.randrange(s.order) for _ in range(3))
        assert add(add(x, y), z) == add(x, add(y, z))
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert add(x, y) == add(y, x) and mul(x, y) == mul(y, x)
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert add(x, s.neg(x)) == 0 and add(s.sub(x, y), y) == x
        if x:
            assert mul(x, s.inv(x)) == 1 and mul(s.div(y, x), x) == y
        assert f(x) == s.pow(x, q)
        assert f(add(x, y)) == add(f(x), f(y)) and f(mul(x, y)) == mul(f(x), f(y))
        assert s.norm(x) == mul(x, f(x))
        assert s.norm(mul(x, y)) == mul(s.norm(x), s.norm(y))


def test_generator_norm_lands_in_subfield_by_direct_power():
    # oracle: direct square-and-multiply, no table shortcut
    s = field_for_q(4)
    g = s.generator
    acc = 1
    for _ in range(s.q + 1):
        acc = s.mul(acc, g)
    assert s.in_subfield(acc)
    assert acc == s.mul(g, s.frobenius(g))


def test_unit_circle_matches_exhaustive_scan():
    for q in ALL_Q:
        s = field_for_q(q)
        scan = sorted(x for x in range(1, s.order) if s.pow(x, q + 1) == 1)
        circle = s.unit_circle()
        assert sorted(circle) == scan
        assert len(circle) == q + 1
        # deterministic order: successive powers of g^(q-1)
        w = s.pow(s.generator, q - 1)
        assert all(circle[i] == s.pow(w, i) for i in range(q + 1))
        # closed under multiplication (kernel of the norm)
        cs = set(circle)
        assert all(s.mul(a, b) in cs for a in circle for b in circle)
    # q odd: contains -1; q = 3 example
    s3 = field_for_q(3)
    assert 1 in s3.unit_circle() and s3.minus_one() in s3.unit_circle()


def _partition_ok(s, part):
    q = s.q
    A, Ainv = set(part.A), set(part.A_inv)
    if A & Ainv:
        return False
    if set(part.units_part) | A | Ainv != set(range(1, q)):
        return False
    if q % 2 and any(s.neg(a) in A for a in A):
        return False
    if q % 2 and (1 in A or s.minus_one() in A):
        return False
    return True


def test_partition_examples():
    # q=5: t=1 and the bullet conditions hold (exhaustive oracle)
    s5 = field_for_q(5)
    p5 = build_partition(s5)
    assert p5.t == 1 and _partition_ok(s5, p5)
    assert set(p5.A) | set(p5.A_inv) == {2, 3}
    # q=3: degenerate
    s3 = field_for_q(3)
    p3 = build_partition(s3)
    assert p3.t == 0 and p3.A == () and set(p3.units_part) == {1, 2}
    # q=7: t=2, union covers
    s7 = field_for_q(7)
    p7 = build_partition(s7)
    assert p7.t == 2 and _partition_ok(s7, p7)
    # even q
    for q in (4, 8, 16):
        s = field_for_q(q)
        part = build_partition(s)
        assert part.t == (q - 2) // 2 and _partition_ok(s, part)


def test_lambda_sizes_and_classes():
    # |I| per parity, |I1|/|I2| per q mod 4
    expected = {3: (1, 0, 1), 4: (1, 0, 0), 5: (2, 1, 1), 7: (3, 1, 2),
                8: (3, 0, 0), 9: (4, 2, 2), 11: (5, 2, 3), 13: (6, 3, 3)}
    for q, (ni, n1, n2) in expected.items():
        lam = lambda_for_q(q)
        assert len(lam.I) == ni
        assert (len(lam.I1), len(lam.I2)) == (n1, n2)
        s = lam.spec
        norms = [lam.norm_of(k) for k in range(q - 1)]
        assert len(set(norms)) == q - 1
        assert s.norm(lam.eta) == 1 and lam.eta_index not in lam.I


def test_inverse_norm_partner_flips_membership():
    # membership flip under norm inversion, away from norm +-1 (exhaustive q<=13)
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        lam = lambda_for_q(q)
        s = lam.spec
        for k in range(q - 1):
            j = lam.inverse_norm_index(k)
            assert s.mul(lam.norm_of(k), lam.norm_of(j)) == 1
            if lam.norm_of(k) not in (1, s.minus_one()):
                assert (k in lam.I) != (j in lam.I)
        if q % 2:
            for k in lam.I:
                assert lam.negated_norm_index(k) not in lam.I


def test_lambda_override():
    s = field_for_q(4)
    part = build_partition(s)
    base = lambda_for_q(4)
    # a different set of norm representatives: multiply each by a unit
    w = s.pow(s.generator, s.q - 1)
    override = tuple(s.mul(x, w) for x in base.lam)
    lam = build_lambda(s, part, override=override)
    assert len(lam.I) == len(base.I)
    assert s.norm(lam.eta) == 1
    with pytest.raises(ValueError):
        build_lambda(s, part, override=override[:-1])
    with pytest.raises(ValueError):
        build_lambda(s, part, override=(1,) * (s.q - 1))


def test_element_codecs_round_trip():
    for q in ALL_Q:
        s = field_for_q(q)
        for x in range(s.order):
            vec = s.elem_vec(x)
            assert len(vec) == 2 * s.m and all(0 <= c < s.p for c in vec)
            assert value(list(vec), s.p) == x
            # the subfield is where the w-coefficient a1 is 0
            assert s.in_subfield(x) == (not any(vec[s.m:])) == (s.frobenius(x) == x)


def test_modulus_choices_are_deterministic_and_irreducible():
    s = field_for_q(9)
    assert s.modulus_q == (1, 0, 1)       # y^2 + 1 over GF(3)
    s2 = FieldSpec(3, 2)
    assert s2.modulus_q2 == s.modulus_q2 and s2.generator == s.generator
    with pytest.raises(ValueError):
        FieldSpec(3, 2, modulus_q=(0, 0, 1))      # y^2, reducible
    with pytest.raises(ValueError):
        FieldSpec(4, 1)                           # p not prime


@pytest.mark.parametrize("p, m, parts", [
    (2, 2, {"modulus_q": (3, 1, 1)}),       # x^2 + x + 1 with its constant as 3
    (3, 1, {"modulus_q": (-2, 1)}),
    (3, 1, {"modulus_q2": (4, 0, 1)}),      # a code outside GF(3)
    (2, 2, {"modulus_q2": (9, 9, 1)}),
    (3, 1, {"modulus_q2": (1, 0)}),
    (3, 0, {}),
    (3, -1, {}),
])
def test_field_spec_rejects_coefficients_out_of_range(p, m, parts):
    with pytest.raises(ValueError):
        FieldSpec(p, m, **parts)


def test_generator_order_is_full():
    for q in ALL_Q:
        s = field_for_q(q)
        # oracle: repeated multiplication, no table of logarithms
        powers, x = {1}, s.generator
        while x != 1:
            powers.add(x)
            x = s.mul(x, s.generator)
        assert len(powers) == s.order - 1


def _field_digest(s):
    """sha256 over everything a construction decides: the moduli, the
    generator, every FieldTables field, the logarithms and the norms."""
    t = s.tables
    parts = (s.modulus_q, s.modulus_q2, s.generator,
             *(getattr(t, f.name) for f in dataclasses.fields(t)),
             tuple(s.dlog(x) for x in range(1, s.order)),
             tuple(s.norm(x) for x in range(s.order)))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


# the digests of the default construction at every supported q
FIELD_DIGESTS = {
    3: "69b6a1dbd692de6b505e8cf77a632e31b48a35b53f0ac9b9b62545e5046045ab",
    4: "4291c94aefad723a84e08e06cacd8fe068c1b3d589b2a6c3523d59a028d14379",
    5: "1c7972ee0ac28823bbbb2b1fd817a0f24612744100d10a445731664f967b8753",
    7: "65607f6f7358bae99b33c8296e4b74aa7b5358d400b6f150a9a0094b36cfe5e6",
    8: "2d2e87eb79fa234224fd08433678ce43e5cf364c11424eaca12aece38926a8b6",
    9: "dd0ac82847231149d0a204ed637662c40613324b35c2c5489cc9d132904a1ebe",
    11: "a87de5fa240655cfff81ee4b11ada2ec6faae4f4a25f522d061825fd30ed8ee5",
    13: "79319969351c744559d0de4eba05251cf31fc0b729291a0334a735bc4c5224b5",
    16: "415925e299c235f057583fbf397110a6f37e6e5e14be413d02fbc53c07dc17b6",
}


@pytest.mark.parametrize("q", ALL_Q)
def test_default_construction_is_pinned(q):
    p, m = prime_power(q)
    assert _field_digest(FieldSpec(p, m)) == FIELD_DIGESTS[q]


@pytest.mark.parametrize("p, m, parts, message", [
    (3, 2, {"modulus_q": (0, 0, 1)}, "modulus_q (0, 0, 1) is reducible over GF(3)"),
    (3, 1, {"modulus_q2": (0, 0, 1)}, "modulus_q2 must be monic irreducible over GF(q)"),
    (2, 2, {"generator": 0}, "0 has no multiplicative order"),
    (3, 2, {"generator": 1}, "generator 1 does not have order 80"),
])
def test_construction_errors_are_pinned(p, m, parts, message):
    with pytest.raises(ValueError) as err:
        FieldSpec(p, m, **parts)
    assert str(err.value) == message
