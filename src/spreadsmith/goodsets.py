"""Good sets: the (q+1)-tuples of pencil labels whose Hall spreads assemble
into a parallelism.  Provides the algebraic pairwise predicate, the plane
model with its line/conic incidence structure, the geometric predicate,
exhaustive enumeration and counting, the closed-form reference values, and
the duality/group actions on labels.

A candidate is a triple (alpha_idx, u_pow, v_pow): an index into the I
class of the Lambda system and two exponents of the unit-circle generator
w = g^(q-1).  Good sets are stored as sorted candidate tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, NamedTuple

from spreadsmith.field_tower import FieldSpec, LambdaSystem


class Candidate(NamedTuple):
    alpha_idx: int
    u_pow: int
    v_pow: int


GoodSet = tuple[Candidate, ...]


def canonical(cands) -> GoodSet:
    # a Candidate is kept, not copied: sets drawn from shared tables share them
    return tuple(sorted(c if type(c) is Candidate else Candidate(*c) for c in cands))


def candidate_universe(lam: LambdaSystem,
                       exclude_norm_minus_one: bool = False) -> list[Candidate]:
    """All |I|(q+1)^2 candidates in lexicographic order."""
    q = lam.spec.q
    idxs = _filtered_I(lam, exclude_norm_minus_one)
    return [Candidate(a, u, v)
            for a in idxs for u in range(q + 1) for v in range(q + 1)]


def _filtered_I(lam: LambdaSystem, exclude_norm_minus_one: bool) -> tuple[int, ...]:
    if not exclude_norm_minus_one or lam.spec.q % 2 == 0:
        return lam.I
    minus1 = lam.spec.minus_one()
    return tuple(a for a in lam.I if lam.norm_of(a) != minus1)


def candidate(lam: LambdaSystem, a: int, u: int, v: int) -> Candidate:
    """The candidate rule, the one place that states it: the alpha index
    lies in the I class and both unit exponents in 0..q.  Anything else is a
    ValueError."""
    q = lam.spec.q
    if a not in lam.I:
        raise ValueError(f"alpha index {a} is not in the I class")
    if not (0 <= u <= q and 0 <= v <= q):
        raise ValueError(f"unit exponents {u}, {v} are not in 0..{q}")
    return Candidate(a, u, v)


def validate(lam: LambdaSystem, cands) -> GoodSet:
    """q+1 distinct candidates, each by the candidate rule, in the given
    order."""
    q = lam.spec.q
    cands = [candidate(lam, *c) for c in cands]
    if len(cands) != q + 1:
        raise ValueError(f"a good set needs exactly {q + 1} candidates, got {len(cands)}")
    if len(set(cands)) != len(cands):
        raise ValueError("duplicate candidate triples")
    return tuple(cands)


@dataclass
class GoodSetVerdict:
    ok: bool
    witness: tuple[Candidate, Candidate] | None = None
    condition: str | None = None    # which pairwise condition failed

    def __bool__(self):
        return self.ok


def candidate_values(lam: LambdaSystem, cands) -> list[tuple[int, int, int]]:
    """The field values (alpha, u, v) of each candidate's labels."""
    U = lam.spec.unit_circle()
    return [(lam.alpha(a), U[u], U[v]) for a, u, v in cands]


def pair_conditions(s: FieldSpec, first, second) -> tuple[bool, bool]:
    """The two pairwise conditions of a good set on the field values
    (a, u, v) of two candidates i, j: the unit-ratio condition
    u_i v_j - v_i u_j != 0 and the conic-bundle condition
    a_i u_i (a_j v_j)^q - (a_i v_i)^q a_j u_j != 0."""
    ai, ui, vi = first
    aj, uj, vj = second
    lhs = s.mul(s.mul(ai, ui), s.frobenius(s.mul(aj, vj)))
    rhs = s.mul(s.frobenius(s.mul(ai, vi)), s.mul(aj, uj))
    return s.sub(s.mul(ui, vj), s.mul(vi, uj)) != 0, lhs != rhs


def is_good(lam: LambdaSystem, cands) -> GoodSetVerdict:
    """Both pair_conditions hold on every pair of distinct triples."""
    cands = validate(lam, cands)
    s = lam.spec
    vals = candidate_values(lam, cands)
    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            ratio, bundle = pair_conditions(s, vals[i], vals[j])
            if not ratio:
                return GoodSetVerdict(False, (cands[i], cands[j]), "unit-ratio")
            if not bundle:
                return GoodSetVerdict(False, (cands[i], cands[j]), "conic-bundle")
    return GoodSetVerdict(True)


# ---------------------------------------------------------------------------
# the plane model in PG(2,q^2)

PlanePoint = tuple[int, int, int]


def epsilon(lam: LambdaSystem, cands) -> tuple[PlanePoint, ...]:
    """(alpha_i, u_i, v_i) -> (1, alpha_i u_i, alpha_i v_i)."""
    s = lam.spec
    U = s.unit_circle()
    return tuple((1, s.mul(lam.alpha(a), U[u]), s.mul(lam.alpha(a), U[v]))
                 for a, u, v in (Candidate(*c) for c in cands))


class PlaneModel:
    """The point set Z, the vertical line family s_c and the conic bundles
    C_b of the plane PG(2,q^2), restricted to what the label calculus needs."""

    def __init__(self, lam: LambdaSystem):
        self.lam = lam
        self.spec = lam.spec
        self.U = self.spec.unit_circle()

    def Z_alpha(self, alpha_idx: int) -> frozenset[PlanePoint]:
        s = self.spec
        alpha = self.lam.alpha(alpha_idx)
        return frozenset((1, s.mul(alpha, u), s.mul(alpha, v))
                         for u in self.U for v in self.U)

    def on_line(self, c: int, pt: PlanePoint) -> bool:
        """s_c : X2 = c X3."""
        return pt[1] == self.spec.mul(c, pt[2])

    def on_conic(self, alpha: int, b: int, pt: PlanePoint) -> bool:
        """C_{alpha b} : norm(alpha) b X1^2 - X2 X3 = 0."""
        s = self.spec
        lhs = s.mul(s.mul(s.norm(alpha), b), s.mul(pt[0], pt[0]))
        return lhs == s.mul(pt[1], pt[2])

    def on_bundle(self, b: int, pt: PlanePoint) -> bool:
        return any(self.on_conic(self.lam.alpha(a), b, pt) for a in self.lam.I)


def is_good_geometric(lam: LambdaSystem, cands) -> bool:
    """Every line s_c and every conic bundle C_b meets the image exactly once."""
    cands = validate(lam, cands)
    model = PlaneModel(lam)
    pts = epsilon(lam, cands)
    for c in model.U:
        if sum(1 for p in pts if model.on_line(c, p)) != 1:
            return False
    for b in model.U:
        if sum(1 for p in pts if model.on_bundle(b, p)) != 1:
            return False
    return True


def intersection_profile(lam: LambdaSystem, c: int, b: int) -> dict[tuple[int, int], int]:
    """|s_c ∩ C_{alpha b} ∩ Z_beta| for all alpha, beta in the I class,
    by direct point enumeration."""
    if lam.spec.norm(c) != 1 or lam.spec.norm(b) != 1:
        raise ValueError("c and b must lie on the unit circle")
    model = PlaneModel(lam)
    out = {}
    for a_idx in lam.I:
        alpha = lam.alpha(a_idx)
        for b_idx in lam.I:
            n = 0
            for pt in model.Z_alpha(b_idx):
                if model.on_line(c, pt) and model.on_conic(alpha, b, pt):
                    n += 1
            out[(a_idx, b_idx)] = n
    return out


# ---------------------------------------------------------------------------
# label calculus: line classes and bundle classes


def line_class(lam: LambdaSystem, cand: Candidate) -> int:
    """Index of the unique s_c through the image point: c = u/v."""
    return (cand.u_pow - cand.v_pow) % (lam.spec.q + 1)


def bundle_class(lam: LambdaSystem, cand: Candidate) -> int:
    """Index of the unique bundle through the image point:
    b = alpha^(1-q) u v, an element of the unit circle."""
    s = lam.spec
    alpha = lam.alpha(cand.alpha_idx)
    e = s.mul(alpha, s.inv(s.frobenius(alpha)))
    U = s.unit_circle()
    b = s.mul(e, s.mul(U[cand.u_pow], U[cand.v_pow]))
    return {u: i for i, u in enumerate(U)}[b]


def _slot_tables(lam: LambdaSystem, exclude_norm_minus_one: bool):
    """Per line-class c: candidates grouped and ordered lexicographically,
    each with its bundle class."""
    n = lam.spec.q + 1
    slots: list[list[tuple[Candidate, int]]] = [[] for _ in range(n)]
    for cand in candidate_universe(lam, exclude_norm_minus_one):
        slots[line_class(lam, cand)].append((cand, bundle_class(lam, cand)))
    return slots


def _search(slots) -> Iterator[GoodSet]:
    """Deterministic backtracking, one slot per line class in increasing
    order, candidates in table order; pruning keeps one image point per line
    (slot shape) and one per conic bundle (bitmask)."""
    n = len(slots)
    chosen: list[Candidate] = []

    def rec(slot: int, used_mask: int):
        if slot == n:
            # chosen holds the slot tables' own Candidates: sorting is canonical
            yield tuple(sorted(chosen))
            return
        for cand, b in slots[slot]:
            if not used_mask >> b & 1:
                chosen.append(cand)
                yield from rec(slot + 1, used_mask | 1 << b)
                chosen.pop()

    return rec(0, 0)


def enumerate_good_sets(lam: LambdaSystem, exclude_norm_minus_one: bool = False,
                        limit: int | None = None) -> Iterator[GoodSet]:
    """The good sets in slot order, at most ``limit`` of them."""
    slots = _slot_tables(lam, exclude_norm_minus_one)
    yield from itertools.islice(_search(slots), limit)


def count_good_sets(lam: LambdaSystem, exclude_norm_minus_one: bool = False) -> int:
    """Exact count by dynamic programming over (slot, used-bundle mask);
    exhausts the same search tree as the enumerator without materializing
    the leaves."""
    n = lam.spec.q + 1
    slots = _slot_tables(lam, exclude_norm_minus_one)
    per_slot: list[dict[int, int]] = []
    for options in slots:
        mult: dict[int, int] = {}
        for _, b in options:
            mult[b] = mult.get(b, 0) + 1
        per_slot.append(mult)
    dp = {0: 1}
    for slot in range(n):
        ndp: dict[int, int] = {}
        for mask, cnt in dp.items():
            for b, k in per_slot[slot].items():
                if not mask >> b & 1:
                    nm = mask | 1 << b
                    ndp[nm] = ndp.get(nm, 0) + cnt * k
        dp = ndp
    return dp.get((1 << n) - 1, 0)


# ---------------------------------------------------------------------------
# closed-form reference values

FORMULA_VARIANTS = ("all_even", "all_odd", "exclude_minus_one_odd")


def count_formula(q: int, variant: str) -> int:
    """The published closed forms, evaluated exactly.  ``all_even`` is the
    leading expression |I|^(q+1) (q+1)! with |I| = (q-2)/2; its printed
    simplification lives in count_formula_even_simplified because the two
    disagree and the census report must flag that."""
    if variant not in FORMULA_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == "all_even":
        if q % 2:
            raise ValueError("even-q formula requested for odd q")
        return ((q - 2) // 2) ** (q + 1) * math.factorial(q + 1)
    if q % 2 == 0:
        raise ValueError("odd-q formula requested for even q")
    prod = 1
    for i in range((q - 1) // 2 + 1):
        prod *= (q + 1 - 2 * i) ** 2
    if variant == "all_odd":
        if q % 4 == 1:
            i1 = i2 = (q - 1) // 4
        else:
            i1, i2 = (q - 3) // 4, (q + 1) // 4
        return (i1 * i2) ** ((q + 1) // 2) * prod
    # exclude_minus_one_odd
    if q % 4 == 1:
        return ((q - 5) * (q - 1) // 16) ** ((q + 1) // 2) * prod
    return ((q - 3) // 4) ** (q + 1) * prod


def count_formula_even_simplified(q: int) -> Fraction:
    """The printed simplification ((q-1)/2)^(q+1) (q+1)! of the even-q count.
    It conflicts with the leading expression (|I| is (q-2)/2, not (q-1)/2)
    and need not even be an integer; returned exactly as a fraction."""
    if q % 2:
        raise ValueError("even-q formula requested for odd q")
    return Fraction(q - 1, 2) ** (q + 1) * math.factorial(q + 1)


@dataclass
class CountCensus:
    q: int
    exclude_norm_minus_one: bool
    oracle: int
    formulas: dict[str, object]     # int, or Fraction for the flagged form
    formula_conflict: bool          # even q: the two printed forms disagree
    oracle_matches: dict[str, bool]


def census(lam: LambdaSystem, exclude_norm_minus_one: bool = False) -> CountCensus:
    """Exhaustive count next to every applicable closed form."""
    q = lam.spec.q
    oracle = count_good_sets(lam, exclude_norm_minus_one)
    formulas: dict[str, object] = {}
    if q % 2 == 0:
        formulas["all_even"] = count_formula(q, "all_even")
        formulas["all_even_simplified"] = count_formula_even_simplified(q)
    else:
        if exclude_norm_minus_one:
            formulas["exclude_minus_one_odd"] = count_formula(q, "exclude_minus_one_odd")
        else:
            formulas["all_odd"] = count_formula(q, "all_odd")
    conflict = (q % 2 == 0 and
                formulas["all_even"] != formulas["all_even_simplified"])
    matches = {k: v == oracle for k, v in formulas.items()}
    return CountCensus(q=q, exclude_norm_minus_one=exclude_norm_minus_one,
                       oracle=oracle, formulas=formulas,
                       formula_conflict=conflict, oracle_matches=matches)


# ---------------------------------------------------------------------------
# named examples and label actions


def fixed_plane_good_set(lam: LambdaSystem, alpha_idx: int, v_pow: int = 0) -> GoodSet:
    """All q+1 base points on r_U1 paired with one fixed plane: the switched
    lines all lie in that plane."""
    return canonical(candidate(lam, alpha_idx, u, v_pow) for u in range(lam.spec.q + 1))


def fixed_point_good_set(lam: LambdaSystem, alpha_idx: int, u_pow: int = 0) -> GoodSet:
    """Dual example: one base point paired with all q+1 planes."""
    return dual(fixed_plane_good_set(lam, alpha_idx, u_pow))


def dual(gs) -> GoodSet:
    """Swap the point and plane label of every candidate."""
    return canonical(Candidate(a, v, u) for a, u, v in (Candidate(*c) for c in gs))


@dataclass(frozen=True)
class G1Element:
    """A collineation of the plane model fixing (1,0,0) and preserving the
    line/conic families: diag(1,u,v) optionally composed with the swap of
    the last two coordinates (u, v on the unit circle)."""
    u_pow: int
    v_pow: int
    swapped: bool = False


def apply_G1(lam: LambdaSystem, gs, g: G1Element) -> GoodSet:
    """Act on the image points and pull back; the result is again good."""
    s = lam.spec
    U = s.unit_circle()
    n = len(U)
    if not (0 <= g.u_pow < n and 0 <= g.v_pow < n):
        raise ValueError("group element exponents out of range")
    out = []
    for a, u, v in (Candidate(*c) for c in gs):
        nu, nv = (u + g.u_pow) % n, (v + g.v_pow) % n
        if g.swapped:
            nu, nv = (v + g.u_pow) % n, (u + g.v_pow) % n
        out.append(Candidate(a, nu, nv))
    result = canonical(out)
    verdict = is_good(lam, result)
    if not verdict.ok:
        raise AssertionError("group image of a good set failed the predicate")
    return result


@lru_cache(maxsize=None)
def flip_classes(lam: LambdaSystem) -> dict[Candidate, Candidate]:
    """Every candidate mapped to the least member of its flip class, in one
    table per Lambda system that all callers share.  For odd q, the
    substitution (u, v) -> (-u, -v), a shift of both exponents by (q+1)/2,
    on a candidate whose alpha has norm -1 replaces its pencil by the
    conjugate under the subgeometry involution and leaves the assembled
    spread family unchanged; every other class has one member."""
    n = lam.spec.q + 1
    classes = {}
    for c in candidate_universe(lam):
        a, u, v = c
        h = n // 2 if n % 2 == 0 and lam.norm_of(a) == lam.spec.minus_one() else 0
        classes[c] = min(c, Candidate(a, (u + h) % n, (v + h) % n))
    return classes


def flip_canonical(lam: LambdaSystem, gs) -> GoodSet:
    """The sorted flip-class representatives of the candidates of gs."""
    return tuple(sorted(map(flip_classes(lam).__getitem__, gs)))
