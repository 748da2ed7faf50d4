"""Exact arithmetic in the tower GF(p) < GF(q) < GF(q^2), q = p^m.

Elements of GF(q^2) are integer codes in ``range(q*q)``: the element
a0 + a1*w has code ``a0 + q*a1`` where a0, a1 are GF(q) codes and w is a
root of the degree-2 modulus over GF(q).  A GF(q) element c0 + c1*y + ...
has code ``sum(c_i * p**i)`` with y a root of the degree-m modulus over
GF(p).  The code is the canonical representation: two elements are equal
iff their codes are equal, and x lies in the subfield GF(q) iff its code
is < q.

All arithmetic is table driven and exact.  ``FieldSpec`` instances are
immutable after construction and safe to share between threads/processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    """Decompose q = p^m with p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            if not is_prime(p):
                raise ValueError(f"{q} is not a prime power")
            m = 0
            t = q
            while t % p == 0:
                t //= p
                m += 1
            if t != 1:
                raise ValueError(f"{q} is not a prime power")
            return p, m
    raise ValueError(f"{q} is not a prime power")


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), coefficient vectors constant term first


def _poly_mod(num: list[int], mod: tuple[int, ...], p: int) -> list[int]:
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
    if deg == 1:
        return True
    if coeffs[0] == 0:
        return False
    for d in range(1, deg // 2 + 1):
        for idx in range(p**d):
            div = []
            t = idx
            for _ in range(d):
                div.append(t % p)
                t //= p
            div.append(1)
            # remainder of coeffs / div
            rem = list(coeffs)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem[:d]):
                return False
    return True


def _smallest_irreducible(p: int, m: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree m over GF(p),
    coefficients ordered constant term first."""
    if m == 1:
        return (0, 1)
    for idx in range(p**m):
        coeffs = []
        t = idx
        for _ in range(m):
            coeffs.append(t % p)
            t //= p
        cand = tuple(coeffs) + (1,)
        if _poly_is_irreducible(cand, p):
            return cand
    raise AssertionError("no irreducible polynomial found")


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
    tables : the FieldTables every scalar method reads
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

        self.modulus_q = tuple(modulus_q) if modulus_q else _smallest_irreducible(p, m)
        if not all(0 <= c < p for c in self.modulus_q):
            raise ValueError(f"modulus_q {list(self.modulus_q)} has a coefficient "
                             f"outside 0..{p - 1}")
        if len(self.modulus_q) != m + 1 or self.modulus_q[-1] != 1:
            raise ValueError("modulus_q must be monic of degree m")
        if not _poly_is_irreducible(self.modulus_q, p):
            raise ValueError(f"modulus_q {self.modulus_q} is reducible over GF({p})")

        self._build_subfield_tables()

        if modulus_q2 is not None:
            if len(modulus_q2) != 3 or not all(0 <= c < q for c in modulus_q2):
                raise ValueError(f"modulus_q2 {list(modulus_q2)} is not 3 codes "
                                 f"in 0..{q - 1}")
            c0, c1, lead = modulus_q2
            if lead != 1 or not self._q2_candidate_irreducible(c0, c1):
                raise ValueError("modulus_q2 must be monic irreducible over GF(q)")
            self.modulus_q2 = (c0, c1, 1)
        else:
            self.modulus_q2 = self._smallest_q2_modulus()

        self._build_tables()

        if generator is not None:
            if self.mul_order(generator) != Q - 1:
                raise ValueError(f"generator {generator} does not have order {Q - 1}")
            self.generator = generator
        else:
            self.generator = self._find_generator()
        self._build_logs()

    # -- construction helpers ------------------------------------------------

    def _build_subfield_tables(self):
        p, m, q = self.p, self.m, self.q
        mod = self.modulus_q
        self._q_add = [[0] * q for _ in range(q)]
        self._q_mul = [[0] * q for _ in range(q)]
        self._q_neg = [0] * q
        for a in range(q):
            va = self.gfq_vec(a)
            self._q_neg[a] = self._gfq_code([(-x) % p for x in va])
            for b in range(q):
                vb = self.gfq_vec(b)
                self._q_add[a][b] = self._gfq_code([(x + y) % p for x, y in zip(va, vb)])
                self._q_mul[a][b] = self._gfq_code(_poly_mul_mod(va, vb, mod, p))

    def _q2_candidate_irreducible(self, c0, c1):
        # w^2 + c1 w + c0 has no root in GF(q)
        qm = self._q_mul
        qa = self._q_add
        for x in range(self.q):
            if qa[qa[qm[x][x]][qm[c1][x]]][c0] == 0:
                return False
        return True

    def _smallest_q2_modulus(self):
        key = self.gfq_vec
        codes = sorted(range(self.q), key=key)
        for c0 in codes:
            for c1 in codes:
                if self._q2_candidate_irreducible(c0, c1):
                    return (c0, c1, 1)
        raise AssertionError("no irreducible quadratic over GF(q)")

    def _build_tables(self):
        q, Q = self.q, self.order
        qa, qm, qn = self._q_add, self._q_mul, self._q_neg
        c0, c1, _ = self.modulus_q2
        mul = [0] * (Q * Q)
        add = [0] * (Q * Q)
        neg = [0] * Q
        inv = [0] * Q
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
                mul[arow + b] = r = r0 + q * r1
                if r == 1:
                    inv[a] = b
        # the Frobenius tables follow once the logarithms exist (_build_logs)
        self._tables = FieldTables(Q, tuple(mul), tuple(add), tuple(neg), tuple(inv),
                                   frob=(), frob_p=())

    @property
    def tables(self) -> FieldTables:
        """The flat arithmetic tables of GF(q^2), for kernels that index
        them directly instead of calling the scalar methods."""
        return self._tables

    def _find_generator(self):
        target = self.order - 1
        factors = set()
        t = target
        d = 2
        while d * d <= t:
            while t % d == 0:
                factors.add(d)
                t //= d
            d += 1
        if t > 1:
            factors.add(t)
        cofactors = [target // f for f in factors]
        for code in self._codes_coeff_lex():
            if code == 0:
                continue
            if all(self.pow_nolog(code, c) != 1 for c in cofactors):
                return code
        raise AssertionError("no generator found")

    def _codes_coeff_lex(self):
        # all GF(q^2) codes ordered by full coefficient vector, constant first
        q = self.q
        key = lambda x: self.gfq_vec(x % q) + self.gfq_vec(x // q)
        return sorted(range(self.order), key=key)

    def _build_logs(self):
        Q = self.order
        g = self.generator
        exp = [1] * (Q - 1)
        log = [0] * Q
        x = 1
        for k in range(Q - 1):
            exp[k] = x
            log[x] = k
            x = self.mul(x, g)
        assert x == 1
        self._exp = exp
        self._log = log
        q = self.q
        frob = tuple(self.pow(x, q) if x else 0 for x in range(Q))
        frob_p = tuple(self.pow(x, self.p) if x else 0 for x in range(Q))
        self._tables = replace(self._tables, frob=frob, frob_p=frob_p)
        self._norm = [self.mul(x, frob[x]) for x in range(Q)]

    # -- element codecs ------------------------------------------------------

    def gfq_vec(self, code: int) -> tuple[int, ...]:
        """GF(q) code -> GF(p) coefficient tuple, constant first."""
        v = []
        for _ in range(self.m):
            v.append(code % self.p)
            code //= self.p
        return tuple(v)

    def _gfq_code(self, vec) -> int:
        c = 0
        for x in reversed(list(vec[: self.m])):
            c = c * self.p + x
        return c

    def coeffs(self, x: int) -> tuple[int, int]:
        """GF(q^2) code -> (a0, a1) pair of GF(q) codes, constant first."""
        return x % self.q, x // self.q

    def from_coeffs(self, a0: int, a1: int) -> int:
        return a0 + self.q * a1

    def elem_vec(self, x: int) -> tuple[int, ...]:
        """Flat GF(p)-coefficient vector of length 2m (a0 coeffs then a1)."""
        a0, a1 = self.coeffs(x)
        return self.gfq_vec(a0) + self.gfq_vec(a1)

    def elem_from_vec(self, vec) -> int:
        m = self.m
        return self.from_coeffs(self._gfq_code(vec[:m]), self._gfq_code(vec[m:]))

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return self._tables.add[a * self.order + b]

    def sub(self, a, b):
        t = self._tables
        return t.add[a * self.order + t.neg[b]]

    def neg(self, a):
        return self._tables.neg[a]

    def mul(self, a, b):
        return self._tables.mul[a * self.order + b]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._tables.inv[a]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e):
        if a == 0:
            if e <= 0:
                raise ZeroDivisionError("0 ** nonpositive")
            return 0
        if hasattr(self, "_exp"):
            n = self.order - 1
            return self._exp[(self._log[a] * e) % n]
        return self.pow_nolog(a, e)

    def pow_nolog(self, a, e):
        r = 1
        b = a
        e %= self.order - 1
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def mul_order(self, a):
        if a == 0:
            raise ValueError("0 has no multiplicative order")
        o = 1
        x = a
        while x != 1:
            x = self.mul(x, a)
            o += 1
        return o

    def frobenius(self, x):
        """x -> x^q, the involutory automorphism fixing GF(q)."""
        return self._tables.frob[x]

    def frobenius_p(self, x):
        """x -> x^p, generating the full automorphism group of GF(q^2)."""
        return self._tables.frob_p[x]

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
        return self._tables.neg[1]

    def unit_circle(self) -> tuple[int, ...]:
        """The q+1 solutions of x^(q+1) = 1, as successive powers of g^(q-1)."""
        w = self.pow(self.generator, self.q - 1)
        out = [1]
        x = w
        while x != 1:
            out.append(x)
            x = self.mul(x, w)
        assert len(out) == self.q + 1
        return tuple(out)

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
