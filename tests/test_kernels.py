"""The table-driven kernels of proj_geometry against references written here
with FieldSpec's scalar methods, on seeded random vectors at every field
shape: odd and even characteristic, m = 1, 2, 3 and 4."""

import random

import pytest

from spreadsmith.field_tower import field_for_q
from spreadsmith.proj_geometry import (
    Collineation,
    klein_bilinear,
    klein_form,
    klein_transversals,
    line_points,
    line_through,
    normalize,
    plucker,
    rref,
    tau_point,
)

QS = (3, 4, 5, 7, 8, 9, 16)
DRAWS = 300


# ---------------------------------------------------------------------------
# references on the scalar methods


def ref_normalize(s, vec):
    for c in vec:
        if c:
            inv = s.inv(c)
            return tuple(s.mul(inv, x) for x in vec)
    raise ValueError("zero vector")


def ref_rref(s, rows):
    mat = [list(r) for r in rows]
    pivot_row = 0
    for col in range(len(mat[0])):
        pr = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        inv = s.inv(mat[pivot_row][col])
        mat[pivot_row] = [s.mul(inv, x) for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row:
                c = mat[r][col]
                mat[r] = [s.sub(x, s.mul(c, y)) for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row])


def ref_line_points(s, line):
    r, l2 = line
    return [ref_normalize(s, l2)] + [
        ref_normalize(s, tuple(s.add(a, s.mul(t, b)) for a, b in zip(r, l2)))
        for t in range(s.order)]


def ref_apply_point(psi, P):
    s = psi.spec
    x = P
    for _ in range(psi.twist):
        x = tuple(s.frobenius_p(c) for c in x)
    out = []
    for row in psi.matrix:
        acc = 0
        for a, b in zip(row, x):
            acc = s.add(acc, s.mul(a, b))
        out.append(acc)
    return ref_normalize(s, out)


def ref_tau_point(s, alpha, P):
    n, f = s.norm(alpha), s.frobenius
    return ref_normalize(s, (f(P[2]), f(P[3]), s.mul(n, f(P[0])), s.mul(n, f(P[1]))))


def ref_plucker(s, line):
    r, l2 = line
    return ref_normalize(s, tuple(s.sub(s.mul(r[i], l2[j]), s.mul(r[j], l2[i]))
                                  for i in range(4) for j in range(i + 1, 4)))


def ref_klein_form(s, t):
    return s.add(s.sub(s.mul(t[0], t[5]), s.mul(t[1], t[4])), s.mul(t[2], t[3]))


def ref_klein_bilinear(s, t, u):
    return s.add(s.sub(s.add(s.mul(t[0], u[5]), s.mul(t[5], u[0])),
                       s.add(s.mul(t[1], u[4]), s.mul(t[4], u[1]))),
                 s.add(s.mul(t[2], u[3]), s.mul(t[3], u[2])))


def ref_klein_transversals(s, coords):
    rows = [(u[5], s.neg(u[4]), u[3], u[2], s.neg(u[1]), u[0]) for u in coords]
    red = ref_rref(s, rows)
    if len(red) != 4:
        return []
    pivots = [next(i for i, x in enumerate(r) if x) for r in red]
    basis = []
    for free in (i for i in range(6) if i not in pivots):
        t = [0] * 6
        t[free] = 1
        for r, piv in zip(red, pivots):
            t[piv] = s.neg(r[free])
        basis.append(tuple(t))
    a, b = basis
    qa, qb = ref_klein_form(s, a), ref_klein_form(s, b)
    bab = ref_klein_bilinear(s, a, b)
    out = [a] if qa == 0 else []
    for x in s.elements():
        if s.add(s.mul(x, s.add(s.mul(x, qa), bab)), qb) == 0:
            out.append(tuple(s.add(s.mul(x, ai), bi) for ai, bi in zip(a, b)))
    return out


# ---------------------------------------------------------------------------
# seeded inputs; sparse vectors reach the pivot cases that dense ones miss


def vector(rng, s, length):
    sparsity = rng.choice((0.0, 0.5, 0.8))
    return tuple(0 if rng.random() < sparsity else rng.randrange(s.order)
                 for _ in range(length))


def nonzero(rng, s, length):
    while True:
        v = vector(rng, s, length)
        if any(v):
            return v


def two_points(rng, s):
    while True:
        P, Q = nonzero(rng, s, 4), nonzero(rng, s, 4)
        if len(ref_rref(s, [P, Q])) == 2:
            return P, Q


@pytest.fixture(params=QS, ids=lambda q: f"q{q}")
def field(request):
    return field_for_q(request.param), random.Random(f"kernels {request.param}")


def test_normalize(field):
    s, rng = field
    for _ in range(DRAWS):
        v = nonzero(rng, s, rng.choice((4, 6, 16)))
        assert normalize(s, v) == ref_normalize(s, v)
    with pytest.raises(ValueError):
        normalize(s, (0, 0, 0, 0))


def test_rref(field):
    s, rng = field
    for _ in range(DRAWS):
        width = rng.choice((4, 6, 8))
        rows = [vector(rng, s, width) for _ in range(rng.randint(1, 4))]
        assert rref(s, rows) == ref_rref(s, rows)


def test_line_through_is_the_rref_of_its_points(field):
    s, rng = field
    for _ in range(DRAWS):
        P, Q = two_points(rng, s)
        line = line_through(s, P, Q)
        assert line == ref_rref(s, [P, Q]) == line_through(s, Q, P)
        # unnormalized representatives span the same line
        c = rng.randrange(1, s.order)
        assert line_through(s, tuple(s.mul(c, x) for x in P), Q) == line


def test_line_through_rejects_dependent_points(field):
    s, rng = field
    for _ in range(DRAWS // 10):
        P = nonzero(rng, s, 4)
        c = rng.randrange(1, s.order)
        for Q in (P, tuple(s.mul(c, x) for x in P), (0, 0, 0, 0)):
            with pytest.raises(ValueError):
                line_through(s, P, Q)
            with pytest.raises(ValueError):
                line_through(s, Q, P)


def test_line_points(field):
    s, rng = field
    for _ in range(DRAWS // 10):
        line = line_through(s, *two_points(rng, s))
        assert line_points(s, line) == ref_line_points(s, line)


def test_apply_point(field):
    s, rng = field
    for _ in range(DRAWS // 10):
        while True:
            mat = tuple(nonzero(rng, s, 4) for _ in range(4))
            if len(ref_rref(s, mat)) == 4:
                break
        psi = Collineation(s, mat, rng.randrange(2 * s.m))
        for _ in range(10):
            P = nonzero(rng, s, 4)
            assert psi.apply_point(P) == ref_apply_point(psi, P)


def test_tau_point(field):
    s, rng = field
    for _ in range(DRAWS):
        alpha = rng.randrange(1, s.order)
        P = nonzero(rng, s, 4)
        assert tau_point(s, alpha, P) == ref_tau_point(s, alpha, P)
    with pytest.raises(ValueError):
        tau_point(s, 0, (1, 0, 0, 0))


def test_plucker_and_klein_forms(field):
    s, rng = field
    for _ in range(DRAWS):
        line = line_through(s, *two_points(rng, s))
        t = plucker(s, line)
        assert t == ref_plucker(s, line)
        assert klein_form(s, t) == 0
        u, w = vector(rng, s, 6), vector(rng, s, 6)
        assert klein_form(s, u) == ref_klein_form(s, u)
        assert klein_bilinear(s, u, w) == ref_klein_bilinear(s, u, w)


def regulus_quadruple(rng, s):
    """Four lines of one regulus: the images under a random invertible map
    of <(1, 0, t, 0), (0, 1, 0, t)> for four distinct t, lines of the
    regulus of X1 X4 = X2 X3 (t = 0 included)."""
    while True:
        mat = tuple(nonzero(rng, s, 4) for _ in range(4))
        if len(ref_rref(s, mat)) == 4:
            break
    psi = Collineation.linear(s, mat)
    return [line_through(s, psi.apply_point((1, 0, t, 0)), psi.apply_point((0, 1, 0, t)))
            for t in rng.sample(range(s.order), 4)]


def test_klein_transversals(field):
    s, rng = field
    for _ in range(DRAWS // 3):
        coords = [plucker(s, line_through(s, *two_points(rng, s))) for _ in range(4)]
        assert klein_transversals(s, coords) == ref_klein_transversals(s, coords)
    for _ in range(DRAWS // 15):
        coords = [plucker(s, l) for l in regulus_quadruple(rng, s)]
        assert klein_transversals(s, coords) == ref_klein_transversals(s, coords) == []
