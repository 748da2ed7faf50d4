"""Points, lines and planes of PG(3,q^2), Baer subgeometries, semilinear
collineations and the Plucker embedding of lines onto the Klein quadric.

Conventions
-----------
* A point or a (dual) plane is a tuple of 4 field codes, normalized so the
  first nonzero coordinate is 1.  Equality is tuple equality.
* A line is the pair of rows of its reduced-row-echelon 2x4 generator
  matrix; the rows are themselves canonical points on the line.
* Matrices act on the left on column vectors; a semilinear collineation
  applies a power of the p-Frobenius first, then the matrix.
* A collineation touches the geometry only through apply_point: the image
  of a line is the line through two image points, and callers read the
  image of a plane through a fixed line off the image of one point.
* The hot kernels (normalize, rref, line_through, line_points, tau_point,
  plucker, the Klein forms, klein_transversals and the collineation
  action) index the flat ``FieldSpec.tables`` directly; c * x is
  ``mul[c * order + x]``, so a kernel that scales a row by c computes
  ``c * order`` once.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from spreadsmith.field_tower import FieldSpec

Point = tuple[int, int, int, int]
Plane = tuple[int, int, int, int]
Line = tuple[Point, Point]


def normalize(spec: FieldSpec, vec) -> tuple[int, ...]:
    """Scale a nonzero coordinate vector so its first nonzero entry is 1."""
    for c in vec:
        if c:
            if c == 1:
                return tuple(vec)
            t = spec.tables
            k = t.inv[c] * t.order
            mul = t.mul
            return tuple([mul[k + x] for x in vec])
    raise ValueError("zero vector has no projective normalization")


def rref(spec: FieldSpec, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(q^2); zero rows dropped."""
    t = spec.tables
    n, mul, add, neg, inv = t.order, t.mul, t.add, t.neg, t.inv
    mat = [list(r) for r in rows]
    ncols = len(mat[0])
    pivot_row = 0
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(mat)):
            if mat[r][col]:
                pr = r
                break
        if pr is None:
            continue
        mat[pivot_row], mat[pr] = mat[pr], mat[pivot_row]
        prow = mat[pivot_row]
        c = prow[col]
        if c != 1:
            k = inv[c] * n
            prow = mat[pivot_row] = [mul[k + x] for x in prow]
        for r in range(len(mat)):
            c = mat[r][col]
            if c and r != pivot_row:
                # row r minus c times the pivot row
                k = neg[c] * n
                mat[r] = [add[x * n + mul[k + y]] for x, y in zip(mat[r], prow)]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row])


def line_through(spec: FieldSpec, P: Point, Q: Point) -> Line:
    """The line through two points: the RREF of the 2x4 matrix with rows P
    and Q, by the one elimination that a 2x4 matrix needs."""
    for i in range(4):
        if P[i] or Q[i]:
            break
    else:
        raise ValueError(f"points {P} and {Q} do not span a line")
    t = spec.tables
    n, mul, add, neg, inv = t.order, t.mul, t.add, t.neg, t.inv
    # first pivot in column i: scale its row to 1 there, clear it in the other
    r, s = (P, Q) if P[i] else (Q, P)
    r0, r1, r2, r3 = r
    s0, s1, s2, s3 = s
    c = r[i]
    if c != 1:
        k = inv[c] * n
        r0, r1, r2, r3 = mul[k + r0], mul[k + r1], mul[k + r2], mul[k + r3]
    c = s[i]
    if c:
        k = neg[c] * n
        s0, s1, s2, s3 = (add[s0 * n + mul[k + r0]], add[s1 * n + mul[k + r1]],
                          add[s2 * n + mul[k + r2]], add[s3 * n + mul[k + r3]])
    # second pivot in the first later column where the other row is nonzero
    s = (s0, s1, s2, s3)
    for j in range(i + 1, 4):
        if s[j]:
            break
    else:
        raise ValueError(f"points {P} and {Q} do not span a line")
    c = s[j]
    if c != 1:
        k = inv[c] * n
        s0, s1, s2, s3 = s = (mul[k + s0], mul[k + s1], mul[k + s2], mul[k + s3])
    r = (r0, r1, r2, r3)
    c = r[j]
    if c:
        k = neg[c] * n
        r = (add[r0 * n + mul[k + s0]], add[r1 * n + mul[k + s1]],
             add[r2 * n + mul[k + s2]], add[r3 * n + mul[k + s3]])
    return r, s


def line_points(spec: FieldSpec, line: Line) -> list[Point]:
    """The q^2+1 points of a line, in a deterministic order."""
    r, s = line
    t = spec.tables
    n, mul, add = t.order, t.mul, t.add
    # r + x s for every x, with x s read from the row x * n of mul
    r0, r1, r2, r3 = r[0] * n, r[1] * n, r[2] * n, r[3] * n
    s0, s1, s2, s3 = s
    pts = [normalize(spec, s)]
    for k in range(0, n * n, n):
        pts.append(normalize(spec, (add[r0 + mul[k + s0]], add[r1 + mul[k + s1]],
                                    add[r2 + mul[k + s2]], add[r3 + mul[k + s3]])))
    return pts


def point_on_line(spec: FieldSpec, line: Line, P: Point) -> bool:
    # reduce P against the RREF rows, pivot columns first
    v = list(P)
    for row in line:
        piv = next(i for i, x in enumerate(row) if x)
        c = v[piv]
        if c:
            v = [spec.sub(x, spec.mul(c, y)) for x, y in zip(v, row)]
    return not any(v)


def point_on_plane(spec: FieldSpec, plane: Plane, P: Point) -> bool:
    acc = 0
    for h, x in zip(plane, P):
        acc = spec.add(acc, spec.mul(h, x))
    return acc == 0


def line_in_plane(spec: FieldSpec, line: Line, plane: Plane) -> bool:
    return (point_on_plane(spec, plane, line[0])
            and point_on_plane(spec, plane, line[1]))


def line_plane_meet(spec: FieldSpec, line: Line, plane: Plane) -> Point | None:
    """The unique intersection point, or None when the line lies in the plane."""
    r, s = line
    hr = 0
    hs = 0
    for h, x, y in zip(plane, r, s):
        hr = spec.add(hr, spec.mul(h, x))
        hs = spec.add(hs, spec.mul(h, y))
    if hs == 0:
        if hr == 0:
            return None
        return normalize(spec, s)
    t = spec.neg(spec.div(hr, hs))
    return normalize(spec, tuple(spec.add(x, spec.mul(t, y)) for x, y in zip(r, s)))


def lines_meet(spec: FieldSpec, l1: Line, l2: Line) -> bool:
    return len(rref(spec, [l1[0], l1[1], l2[0], l2[1]])) <= 3


def line_intersection(spec: FieldSpec, l1: Line, l2: Line) -> Point | None:
    """Common point of two distinct lines, or None if skew."""
    if l1 == l2:
        raise ValueError("lines coincide")
    rows = rref(spec, [l1[0], l1[1], l2[0], l2[1]])
    if len(rows) != 3:
        return None
    # solve a*r1 + b*r2 = c*s1 + d*s2: null space of the 4x4 with those columns
    cols = [l1[0], l1[1], tuple(spec.neg(x) for x in l2[0]),
            tuple(spec.neg(x) for x in l2[1])]
    mat = [[cols[j][i] for j in range(4)] for i in range(4)]
    red = rref(spec, mat)
    pivots = [next(i for i, x in enumerate(r) if x) for r in red]
    free = next(i for i in range(4) if i not in pivots)
    sol = [0, 0, 0, 0]
    sol[free] = 1
    for r, piv in zip(red, pivots):
        sol[piv] = spec.neg(r[free])
    a, b = sol[0], sol[1]
    pt = tuple(spec.add(spec.mul(a, x), spec.mul(b, y))
               for x, y in zip(l1[0], l1[1]))
    return normalize(spec, pt)


def echelon_pairs(order: int):
    """Every 2x4 matrix in reduced row echelon form over a field whose
    element codes are 0..order-1, with 0 the zero and 1 the one: the lines
    of PG(3, order), each as the pair of its rows."""
    for i in range(4):
        for j in range(i + 1, 4):
            free1 = [c for c in range(4) if c > i and c != j]
            free2 = [c for c in range(4) if c > j]
            for vals1 in product(range(order), repeat=len(free1)):
                r1 = [0, 0, 0, 0]
                r1[i] = 1
                for c, v in zip(free1, vals1):
                    r1[c] = v
                r1 = tuple(r1)
                for vals2 in product(range(order), repeat=len(free2)):
                    r2 = [0, 0, 0, 0]
                    r2[j] = 1
                    for c, v in zip(free2, vals2):
                        r2[c] = v
                    yield r1, tuple(r2)


# ---------------------------------------------------------------------------
# Plucker coordinates and the Klein quadric X1 X6 - X2 X5 + X3 X4 = 0


def plucker(spec: FieldSpec, line: Line) -> tuple[int, ...]:
    """The Plucker vector of a line with rows r, s: the minors
    r_i s_j - r_j s_i for the column pairs ij = 01, 02, 03, 12, 13, 23,
    normalized."""
    (r0, r1, r2, r3), (s0, s1, s2, s3) = line
    t = spec.tables
    n, mul, add, neg = t.order, t.mul, t.add, t.neg
    # the entries of r as offsets into mul
    r0, r1, r2, r3 = r0 * n, r1 * n, r2 * n, r3 * n
    return normalize(spec, (add[mul[r0 + s1] * n + neg[mul[r1 + s0]]],
                            add[mul[r0 + s2] * n + neg[mul[r2 + s0]]],
                            add[mul[r0 + s3] * n + neg[mul[r3 + s0]]],
                            add[mul[r1 + s2] * n + neg[mul[r2 + s1]]],
                            add[mul[r1 + s3] * n + neg[mul[r3 + s1]]],
                            add[mul[r2 + s3] * n + neg[mul[r3 + s2]]]))


def klein_form(spec: FieldSpec, t) -> int:
    """X1 X6 - X2 X5 + X3 X4."""
    tb = spec.tables
    n, mul, add, neg = tb.order, tb.mul, tb.add, tb.neg
    acc = add[mul[t[0] * n + t[5]] * n + neg[mul[t[1] * n + t[4]]]]
    return add[acc * n + mul[t[2] * n + t[3]]]


def klein_bilinear(spec: FieldSpec, t, u) -> int:
    """Polarized Klein form; vanishes exactly when the two lines meet."""
    tb = spec.tables
    n, mul, add, neg = tb.order, tb.mul, tb.add, tb.neg
    plus = add[mul[t[0] * n + u[5]] * n + mul[t[5] * n + u[0]]]
    minus = add[mul[t[1] * n + u[4]] * n + mul[t[4] * n + u[1]]]
    last = add[mul[t[2] * n + u[3]] * n + mul[t[3] * n + u[2]]]
    return add[add[plus * n + neg[minus]] * n + last]


def klein_transversals(spec: FieldSpec, coords) -> list[tuple[int, ...]]:
    """Plucker vectors of the lines meeting four lines, given by theirs.
    The vectors orthogonal to all four under the polarized Klein form make
    up a projective line when the four lie in no common regulus, and the
    transversals are its points on the quadric: the roots (x:y) of
    x^2 Q(a) + x y B(a, b) + y^2 Q(b) for a basis a, b: a first when
    Q(a) = 0, then x a + b for each root x in element order.  Empty when
    the orthogonal space is not a line."""
    tb = spec.tables
    n, mul, add, neg = tb.order, tb.mul, tb.add, tb.neg
    # u's dual vector: its dot product with t is the polarized form of t, u
    rows = [(u[5], neg[u[4]], u[3], u[2], neg[u[1]], u[0]) for u in coords]
    red = rref(spec, rows)
    if len(red) != 4:
        return []
    pivots = [next(i for i, x in enumerate(r) if x) for r in red]
    basis = []
    for free in (i for i in range(6) if i not in pivots):
        t = [0] * 6
        t[free] = 1
        for r, piv in zip(red, pivots):
            t[piv] = neg[r[free]]
        basis.append(tuple(t))
    a, b = basis
    qa, qb, bab = klein_form(spec, a), klein_form(spec, b), klein_bilinear(spec, a, b)
    out = [a] if qa == 0 else []
    qa_row = qa * n
    for x in range(n):
        # x (x Q(a) + B(a, b)) + Q(b)
        if add[mul[x * n + add[mul[qa_row + x] * n + bab]] * n + qb] == 0:
            k = x * n
            out.append(tuple([add[mul[k + ai] * n + bi] for ai, bi in zip(a, b)]))
    return out


def line_from_plucker(spec: FieldSpec, t) -> Line:
    if not any(t):
        raise ValueError("zero Plucker vector")
    if klein_form(spec, t) != 0:
        raise ValueError("tuple does not satisfy the Klein relation")
    p12, p13, p14, p23, p24, p34 = t
    n = spec.neg
    m = [[0, p12, p13, p14],
         [n(p12), 0, p23, p24],
         [n(p13), n(p23), 0, p34],
         [n(p14), n(p24), n(p34), 0]]
    cols = [tuple(m[i][j] for i in range(4)) for j in range(4)]
    rows = rref(spec, [c for c in cols if any(c)])
    assert len(rows) == 2
    return rows


# ---------------------------------------------------------------------------
# the Baer involutions tau_alpha and their fixed subgeometries


def tau_point(spec: FieldSpec, alpha: int, P: Point) -> Point:
    if alpha == 0:
        raise ValueError("alpha must be nonzero")
    t = spec.tables
    f, mul = t.frob, t.mul
    k = spec.norm(alpha) * t.order
    return normalize(spec, (f[P[2]], f[P[3]], mul[k + f[P[0]]], mul[k + f[P[1]]]))


def tau_line(spec: FieldSpec, alpha: int, line: Line) -> Line:
    return line_through(spec, tau_point(spec, alpha, line[0]),
                        tau_point(spec, alpha, line[1]))


# ---------------------------------------------------------------------------
# semilinear collineations


@dataclass(frozen=True)
class Collineation:
    """x -> M . x^(p^twist).  The Frobenius power applies first."""
    spec: FieldSpec
    matrix: tuple[tuple[int, ...], ...]
    twist: int

    def __post_init__(self):
        object.__setattr__(self, "twist", self.twist % (2 * self.spec.m))

    @staticmethod
    def identity(spec: FieldSpec) -> "Collineation":
        return Collineation(spec, ((1, 0, 0, 0), (0, 1, 0, 0),
                                   (0, 0, 1, 0), (0, 0, 0, 1)), 0)

    @staticmethod
    def linear(spec: FieldSpec, matrix) -> "Collineation":
        return Collineation(spec, tuple(tuple(r) for r in matrix), 0)

    @staticmethod
    def from_tau(spec: FieldSpec, alpha: int) -> "Collineation":
        """tau_alpha as matrix composed with the q-power Frobenius."""
        n = spec.norm(alpha)
        mat = ((0, 0, 1, 0), (0, 0, 0, 1), (n, 0, 0, 0), (0, n, 0, 0))
        return Collineation(spec, mat, spec.m)

    @staticmethod
    def frobenius(spec: FieldSpec, power: int = 1) -> "Collineation":
        return Collineation(spec, Collineation.identity(spec).matrix, power)

    def _twist_vec(self, vec):
        frob_p = self.spec.tables.frob_p
        for _ in range(self.twist):
            vec = [frob_p[x] for x in vec]
        return vec

    def apply_point(self, P: Point) -> Point:
        s = self.spec
        t = s.tables
        x = self._twist_vec(P)
        return normalize(s, tuple([_dot(t, row, x) for row in self.matrix]))

    def apply_line(self, line: Line) -> Line:
        return line_through(self.spec, self.apply_point(line[0]),
                            self.apply_point(line[1]))

    def then(self, other: "Collineation") -> "Collineation":
        """The collineation 'apply self first, then other'."""
        s = self.spec
        t = other.twist
        cols = list(zip(*self.matrix))
        if t:
            cols = [tuple(_iter_frob(s, x, t) for x in col) for col in cols]
        mat = tuple(tuple(_dot(s.tables, row, col) for col in cols) for row in other.matrix)
        return Collineation(s, mat, self.twist + other.twist)

    def canonical_key(self):
        """Projective canonical form: scale so the first nonzero entry is 1."""
        flat = [x for row in self.matrix for x in row]
        return (self.twist,) + normalize(self.spec, flat)

    def is_identity(self) -> bool:
        return self.canonical_key() == Collineation.identity(self.spec).canonical_key()


def _dot(tables, row, vec):
    n, mul, add = tables.order, tables.mul, tables.add
    acc = 0
    for a, b in zip(row, vec):
        if a and b:
            acc = add[acc * n + mul[a * n + b]]
    return acc


def _iter_frob(spec, x, t):
    frob_p = spec.tables.frob_p
    for _ in range(t % (2 * spec.m)):
        x = frob_p[x]
    return x


# ---------------------------------------------------------------------------
# the ambient space with its Baer apparatus


class AmbientSpace:
    """PG(3,q^2) with its coordinate frame and the point, plane and line
    enumerations and Baer subgeometries derived from it.  It holds only its
    constants: every method derives its answer afresh, and a Geometry
    memoises what it reuses."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.U1: Point = (1, 0, 0, 0)
        self.U2: Point = (0, 1, 0, 0)
        self.U3: Point = (0, 0, 1, 0)
        self.U4: Point = (0, 0, 0, 1)
        self.t1 = line_through(spec, self.U1, self.U2)
        self.t2 = line_through(spec, self.U3, self.U4)
        self.r_U1 = line_through(spec, self.U1, self.U3)

    def all_points(self) -> list[Point]:
        spec = self.spec
        pts = set()
        for vec in product(range(spec.order), repeat=4):
            if any(vec):
                pts.add(normalize(spec, vec))
        return sorted(pts)

    def all_planes(self) -> list[Plane]:
        return self.all_points()

    def all_lines(self) -> list[Line]:
        """Every line of PG(3,q^2), generated directly in RREF form."""
        return sorted(echelon_pairs(self.spec.order))

    # -- Baer subgeometries --------------------------------------------------

    def sigma_points(self, alpha: int) -> frozenset[Point]:
        """Fixed points of tau_alpha: the (q+1)(q^2+1) points
        (x, y, a x^q, a y^q).  They depend on norm(alpha) only."""
        spec = self.spec
        f = spec.frobenius
        # (x, y) up to GF(q)* scaling: coset representatives g^0..g^q
        reps = [spec.pow(spec.generator, k) for k in range(spec.q + 1)]
        pairs = [(r, 0) for r in reps]
        pairs += [(x, r) for r in reps for x in range(spec.order)]
        pts = frozenset(normalize(spec, (
            x, y, spec.mul(alpha, f(x)), spec.mul(alpha, f(y))))
            for x, y in pairs)
        assert len(pts) == (spec.q + 1) * (spec.q**2 + 1)
        return pts

    def in_sigma(self, alpha: int, P: Point) -> bool:
        return tau_point(self.spec, alpha, P) == P

    def is_baer_subline(self, line: Line, alpha: int) -> bool:
        """True iff the line meets the fixed subgeometry of tau_alpha in q+1
        points: the line is tau_alpha-stable and touches the subgeometry."""
        if tau_line(self.spec, alpha, line) != line:
            return False
        return any(self.in_sigma(alpha, P)
                   for P in line_points(self.spec, line))
