"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^2), q = p^m.

Every element is an integer code: the base-p value of its coefficient
vector, constant term first (``digits`` and ``value`` convert, and nothing
else does).  A GF(q) element c0 + c1*y + ... over the degree-m modulus
over GF(p) has the m digits c0, c1, ...; a GF(q^2) element a0 + a1*w over
the degree-2 modulus over GF(q) has the 2m digits of a0 then those of a1,
so its code is ``a0 + q*a1``.  Two elements are equal iff their codes are,
and x lies in GF(q) iff its code is < q.

The construction is table driven and exact.  The default moduli are the
first monic irreducibles in coefficient order.  GF(q)'s sum, product and
negation tables give GF(q^2)'s sum, product and negation tables.  Then one
power walk per candidate, the nonzero codes in coefficient order, finds the
generator: the first whose powers come back to 1 only after q^2 - 1 steps
(a supplied generator is checked by the same walk).  That walk is the
exponent table, and with its inverse, the logarithms, it gives the
inverses, both Frobenius maps and the norm.  ``FieldSpec`` instances are
immutable after construction and safe to share between threads/processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(q: int) -> tuple[int, int]:
    """Decompose q = p^m with p prime, or raise ValueError.  The smallest
    divisor p of q is prime, and q is a power of p or of no prime."""
    if q >= 2:
        p = next(d for d in range(2, q + 1) if q % d == 0)
        m = 1
        while p**m < q:
            m += 1
        if p**m == q:
            return p, m
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# the digit codec, and polynomials over GF(p) as coefficient vectors, constant
# term first


def digits(code: int, width: int, p: int) -> tuple[int, ...]:
    """The width base-p digits of code, units first: the coefficient vector
    of the element or monic-polynomial tail with that code."""
    out = []
    for _ in range(width):
        code, c = divmod(code, p)
        out.append(c)
    return tuple(out)


def value(vec, p: int) -> int:
    """The code of a coefficient vector: its base-p value, vec[0] the units."""
    return sum(c * p**i for i, c in enumerate(vec))


def _poly_mod(num, mod: tuple[int, ...], p: int) -> list[int]:
    num = list(num)
    deg = len(mod) - 1
    for i in range(len(num) - 1, deg - 1, -1):
        c = num[i]
        if c:
            for j in range(deg + 1):
                num[i - deg + j] = (num[i - deg + j] - c * mod[j]) % p
    out = [x % p for x in num[:deg]]
    out += [0] * (deg - len(out))
    return out


def _poly_mul_mod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] = (res[i + j] + ai * bj) % p
    return _poly_mod(res, mod, p)


def _poly_is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Monic polynomial over GF(p), constant first.  Trial division by all
    monic polynomials of degree 1..deg//2 (fine at desk scale, deg <= 4)."""
    deg = len(coeffs) - 1
    return all(any(_poly_mod(coeffs, digits(idx, d, p) + (1,), p))
               for d in range(1, deg // 2 + 1) for idx in range(p**d))


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p),
    coefficients ordered constant term first."""
    return next(cand for cand in (digits(idx, m, p) + (1,) for idx in range(p**m))
                if _poly_is_irreducible(cand, p))


def _has_no_root(q_add, q_mul, c0: int, c1: int) -> bool:
    """w^2 + c1 w + c0 has no root in GF(q), so it is irreducible there."""
    return all(q_add[q_add[q_mul[x][x]][q_mul[c1][x]]][c0] for x in range(len(q_add)))


def _power_walk(mul, order: int, g: int) -> list[int]:
    """The powers 1, g, g^2, ... of a nonzero code g, up to the first
    return to 1: their number is g's multiplicative order."""
    exp = [1]
    x = g
    while x != 1:
        exp.append(x)
        x = mul[x * order + g]
    return exp


@dataclass(frozen=True, slots=True)
class FieldTables:
    """The arithmetic of GF(q^2) as flat, read-only tables over element
    codes: a + b is ``add[a * order + b]``, a * b is ``mul[a * order + b]``,
    -a is ``neg[a]``, 1/a is ``inv[a]`` (``inv[0]`` is 0 and means nothing),
    a^q is ``frob[a]`` and a^p is ``frob_p[a]``."""
    order: int
    mul: tuple[int, ...]
    add: tuple[int, ...]
    neg: tuple[int, ...]
    inv: tuple[int, ...]
    frob: tuple[int, ...]
    frob_p: tuple[int, ...]


class FieldSpec:
    """The tower GF(q) < GF(q^2) with table-driven exact arithmetic.

    Attributes
    ----------
    p, m, q : the characteristic, extension degree and subfield order
    order : q*q, the order of the big field
    modulus_q : monic irreducible of degree m over GF(p) (constant first)
    modulus_q2 : monic irreducible (c0, c1, 1) over GF(q), as GF(q) codes
    generator : code of the chosen generator of GF(q^2)*
    tables : the FieldTables every scalar method reads, for kernels that
        index them directly instead of calling the scalar methods
    """

    def __init__(self, p: int, m: int, modulus_q=None, modulus_q2=None,
                 generator=None):
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if m < 1:
            raise ValueError(f"m = {m} is not a positive extension degree")
        self.p = p
        self.m = m
        self.q = q = p**m
        self.order = Q = q * q

        self.modulus_q = mod = tuple(modulus_q) if modulus_q else _smallest_irreducible(p, m)
        if not all(0 <= c < p for c in mod):
            raise ValueError(f"modulus_q {list(mod)} has a coefficient "
                             f"outside 0..{p - 1}")
        if len(mod) != m + 1 or mod[-1] != 1:
            raise ValueError("modulus_q must be monic of degree m")
        if not _poly_is_irreducible(mod, p):
            raise ValueError(f"modulus_q {mod} is reducible over GF({p})")

        # GF(q): digit-wise sums, and products modulo modulus_q
        vecs = [digits(a, m, p) for a in range(q)]
        qa = [[value([(x + y) % p for x, y in zip(va, vb)], p) for vb in vecs]
              for va in vecs]
        qm = [[value(_poly_mul_mod(va, vb, mod, p), p) for vb in vecs] for va in vecs]
        qn = [value([-x % p for x in va], p) for va in vecs]

        if modulus_q2 is not None:
            if len(modulus_q2) != 3 or not all(0 <= c < q for c in modulus_q2):
                raise ValueError(f"modulus_q2 {list(modulus_q2)} is not 3 codes "
                                 f"in 0..{q - 1}")
            c0, c1, lead = modulus_q2
            if lead != 1 or not _has_no_root(qa, qm, c0, c1):
                raise ValueError("modulus_q2 must be monic irreducible over GF(q)")
        else:
            in_order = sorted(range(q), key=vecs.__getitem__)
            c0, c1 = next((c0, c1) for c0 in in_order for c1 in in_order
                          if _has_no_root(qa, qm, c0, c1))
        self.modulus_q2 = (c0, c1, 1)

        mul = [0] * (Q * Q)
        add = [0] * (Q * Q)
        neg = [0] * Q
        for a in range(Q):
            a0, a1 = a % q, a // q
            neg[a] = qn[a0] + q * qn[a1]
            arow = a * Q
            for b in range(Q):
                b0, b1 = b % q, b // q
                add[arow + b] = qa[a0][b0] + q * qa[a1][b1]
                # (a0 + a1 w)(b0 + b1 w), with w^2 = -c1 w - c0
                t2 = qm[a1][b1]
                r0 = qa[qm[a0][b0]][qn[qm[t2][c0]]]
                r1 = qa[qa[qm[a0][b1]][qm[a1][b0]]][qn[qm[t2][c1]]]
                mul[arow + b] = r0 + q * r1

        if generator is not None:
            if generator == 0:
                raise ValueError("0 has no multiplicative order")
            exp = _power_walk(mul, Q, generator)
            if len(exp) != Q - 1:
                raise ValueError(f"generator {generator} does not have order {Q - 1}")
        else:
            candidates = sorted(range(1, Q), key=lambda x: digits(x, 2 * m, p))
            exp = next(walk for walk in (_power_walk(mul, Q, g) for g in candidates)
                       if len(walk) == Q - 1)
        self.generator = exp[1]
        log = [0] * Q
        for k, x in enumerate(exp):
            log[x] = k
        self._exp, self._log = exp, log

        def power(e):
            return tuple(exp[log[x] * e % (Q - 1)] if x else 0 for x in range(Q))

        self.tables = FieldTables(Q, tuple(mul), tuple(add), tuple(neg), inv=power(-1),
                                  frob=power(q), frob_p=power(p))
        self._norm = power(q + 1)

    # -- element codecs ------------------------------------------------------

    def gfq_vec(self, code: int) -> tuple[int, ...]:
        """GF(q) code -> GF(p) coefficient tuple, constant first."""
        return digits(code, self.m, self.p)

    def elem_vec(self, x: int) -> tuple[int, ...]:
        """Flat GF(p)-coefficient vector of length 2m (a0 coeffs then a1)."""
        return digits(x, 2 * self.m, self.p)

    def elem_from_vec(self, vec) -> int:
        return value(vec, self.p)

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return self.tables.add[a * self.order + b]

    def sub(self, a, b):
        t = self.tables
        return t.add[a * self.order + t.neg[b]]

    def neg(self, a):
        return self.tables.neg[a]

    def mul(self, a, b):
        return self.tables.mul[a * self.order + b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.tables.inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError("0 ** nonpositive")
            return 0
        return self._exp[(self._log[a] * e) % (self.order - 1)]

    def frobenius(self, x):
        """x -> x^q, the involutory automorphism fixing GF(q)."""
        return self.tables.frob[x]

    def frobenius_p(self, x):
        """x -> x^p, generating the full automorphism group of GF(q^2)."""
        return self.tables.frob_p[x]

    def norm(self, x):
        """x -> x^(q+1) in GF(q)."""
        return self._norm[x]

    def in_subfield(self, x) -> bool:
        return x < self.q

    def is_square_subfield(self, x) -> bool:
        """Quadratic residue test for x in GF(q)*, q odd."""
        if self.q % 2 == 0:
            return True
        if not self.in_subfield(x) or x == 0:
            raise ValueError("expected a nonzero subfield element")
        return self.pow(x, (self.q - 1) // 2) == 1

    def dlog(self, x):
        if x == 0:
            raise ValueError("dlog of 0")
        return self._log[x]

    # -- distinguished subsets ----------------------------------------------

    def minus_one(self):
        return self.tables.neg[1]

    def unit_circle(self) -> tuple[int, ...]:
        """The q+1 solutions of x^(q+1) = 1, as successive powers of g^(q-1)."""
        return tuple(self._exp[::self.q - 1])

    def subfield_star_generator(self):
        """norm(g) = g^(q+1) generates GF(q)*."""
        return self.norm(self.generator)

    def elements(self):
        return range(self.order)

    def __repr__(self):
        return f"FieldSpec(p={self.p}, m={self.m}, q={self.q})"


@lru_cache(maxsize=None)
def field_for_q(q: int) -> FieldSpec:
    p, m = prime_power(q)
    return FieldSpec(p, m)


# ---------------------------------------------------------------------------
# the norm partition of GF(q)* and the Lambda system


@dataclass(frozen=True)
class NormPartition:
    """Partition of GF(q)* into {1} (or {+-1}) and A, A^{-1} with
    A disjoint from A^{-1} and, for q odd, A disjoint from -A."""
    t: int
    units_part: tuple[int, ...]
    A: tuple[int, ...]
    A_inv: tuple[int, ...]


def build_partition(spec: FieldSpec) -> NormPartition:
    """Greedy construction: quadruples {c, -c, 1/c, -1/c} (pairs {c, 1/c}
    for q even) consumed in increasing generator-power order of GF(q)*."""
    q = spec.q
    if q < 3:
        raise ValueError("need q >= 3")
    g0 = spec.subfield_star_generator()
    powers = []
    x = 1
    for _ in range(q - 1):
        powers.append(x)
        x = spec.mul(x, g0)
    A: list[int] = []
    if q % 2 == 0:
        used = {1}
        for c in powers:
            if c in used:
                continue
            A.append(c)
            used.add(c)
            used.add(spec.inv(c))
        units = (1,)
    else:
        minus1 = spec.minus_one()
        used = {1, minus1}
        if q % 4 == 1:
            b = next(c for c in powers if spec.mul(c, c) == minus1)
            A.append(b)
            used.update({b, spec.inv(b)})
        for c in powers:
            if c in used:
                continue
            A.extend([c, spec.neg(spec.inv(c))])
            used.update({c, spec.neg(c), spec.inv(c), spec.neg(spec.inv(c))})
        units = (1, minus1)
    A_inv = tuple(spec.inv(a) for a in A)
    part = NormPartition(t=len(A), units_part=units, A=tuple(A), A_inv=A_inv)
    expected_t = (q - 2) // 2 if q % 2 == 0 else (q - 3) // 2
    assert part.t == expected_t
    assert set(part.units_part) | set(part.A) | set(part.A_inv) == set(range(1, q))
    return part


@dataclass(frozen=True)
class LambdaSystem:
    """An ordered set of q-1 norm-distinct elements of GF(q^2)* together
    with the distinguished unit eta and the index classes I, I1, I2."""
    spec: FieldSpec
    lam: tuple[int, ...]
    eta_index: int
    partition: NormPartition
    I: tuple[int, ...]
    I1: tuple[int, ...]
    I2: tuple[int, ...]

    @property
    def eta(self) -> int:
        return self.lam[self.eta_index]

    def alpha(self, idx: int) -> int:
        return self.lam[idx]

    def norm_of(self, idx: int) -> int:
        return self.spec.norm(self.lam[idx])

    def index_by_norm(self, norm_code: int) -> int:
        for k, a in enumerate(self.lam):
            if self.spec.norm(a) == norm_code:
                return k
        raise KeyError(f"no Lambda element of norm {norm_code}")

    def inverse_norm_index(self, idx: int) -> int:
        """The unique index whose norm is the inverse norm (exists for all idx)."""
        return self.index_by_norm(self.spec.inv(self.norm_of(idx)))

    def negated_norm_index(self, idx: int) -> int:
        return self.index_by_norm(self.spec.neg(self.norm_of(idx)))


def build_lambda(spec: FieldSpec, partition: NormPartition | None = None,
                 override: tuple[int, ...] | None = None) -> LambdaSystem:
    """Canonical Lambda = (g^0, ..., g^(q-2)); the norms g^(k(q+1)) then
    exhaust GF(q)*.  An explicit override (q-1 elements with pairwise
    distinct norms, containing a unit) may be supplied instead."""
    q = spec.q
    if partition is None:
        partition = build_partition(spec)
    if override is not None:
        lam = tuple(override)
        if len(lam) != q - 1:
            raise ValueError(f"Lambda must have {q - 1} elements")
        norms = [spec.norm(x) for x in lam]
        if 0 in lam or len(set(norms)) != q - 1:
            raise ValueError("Lambda elements must be nonzero with pairwise distinct norms")
        eta_index = norms.index(1)
    else:
        g = spec.generator
        lam = tuple(spec.pow(g, k) for k in range(q - 1))
        eta_index = 0
    target = set(partition.A)
    if q % 2 == 1:
        target.add(spec.minus_one())
    I = tuple(k for k in range(q - 1) if spec.norm(lam[k]) in target)
    if q % 2 == 1:
        I1 = tuple(k for k in I if spec.is_square_subfield(spec.norm(lam[k])))
        I2 = tuple(k for k in I if k not in I1)
    else:
        I1 = ()
        I2 = ()
    expected = (q - 2) // 2 if q % 2 == 0 else (q - 1) // 2
    assert len(I) == expected
    assert eta_index not in I
    return LambdaSystem(spec=spec, lam=lam, eta_index=eta_index,
                        partition=partition, I=I, I1=I1, I2=I2)


@lru_cache(maxsize=None)
def lambda_for_q(q: int) -> LambdaSystem:
    spec = field_for_q(q)
    return build_lambda(spec)
