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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
            inv = spec.inv(c)
            return tuple(spec.mul(inv, x) for x in vec)
    raise ValueError("zero vector has no projective normalization")


def rref(spec: FieldSpec, rows) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over GF(q^2); zero rows dropped."""
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
        inv = spec.inv(mat[pivot_row][col])
        if inv != 1:
            mat[pivot_row] = [spec.mul(inv, x) for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                c = mat[r][col]
                mat[r] = [spec.sub(x, spec.mul(c, y))
                          for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(r) for r in mat[:pivot_row])


def line_through(spec: FieldSpec, P: Point, Q: Point) -> Line:
    rows = rref(spec, [P, Q])
    if len(rows) != 2:
        raise ValueError(f"points {P} and {Q} do not span a line")
    return rows


def line_points(spec: FieldSpec, line: Line) -> list[Point]:
    """The q^2+1 points of a line, in a deterministic order."""
    r, s = line
    pts = [normalize(spec, s)]
    for t in range(spec.order):
        pts.append(normalize(spec, tuple(spec.add(a, spec.mul(t, b))
                                         for a, b in zip(r, s))))
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


def plane_through(spec: FieldSpec, line: Line, P: Point) -> Plane:
    """The plane spanned by a line and an external point (dual coordinates)."""
    rows = rref(spec, [line[0], line[1], P])
    if len(rows) != 3:
        raise ValueError("point lies on the line")
    # the dual vector is the 1-dimensional null space of the 3x4 matrix
    pivots = [next(i for i, x in enumerate(r) if x) for r in rows]
    free = next(i for i in range(4) if i not in pivots)
    h = [0, 0, 0, 0]
    h[free] = 1
    for r, piv in zip(rows, pivots):
        h[piv] = spec.neg(r[free])
    return normalize(spec, h)


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
    r, s = line
    def minor(i, j):
        return spec.sub(spec.mul(r[i], s[j]), spec.mul(r[j], s[i]))
    return normalize(spec, (minor(0, 1), minor(0, 2), minor(0, 3),
                            minor(1, 2), minor(1, 3), minor(2, 3)))


def klein_form(spec: FieldSpec, t) -> int:
    return spec.add(spec.sub(spec.mul(t[0], t[5]), spec.mul(t[1], t[4])),
                    spec.mul(t[2], t[3]))


def klein_bilinear(spec: FieldSpec, t, u) -> int:
    """Polarized Klein form; vanishes exactly when the two lines meet."""
    acc = spec.add(spec.mul(t[0], u[5]), spec.mul(t[5], u[0]))
    acc = spec.sub(acc, spec.add(spec.mul(t[1], u[4]), spec.mul(t[4], u[1])))
    return spec.add(acc, spec.add(spec.mul(t[2], u[3]), spec.mul(t[3], u[2])))


def klein_transversals(spec: FieldSpec, coords) -> list[tuple[int, ...]]:
    """Plucker vectors of the lines meeting four lines, given by theirs.
    The vectors orthogonal to all four under the polarized Klein form make
    up a projective line when the four lie in no common regulus, and the
    transversals are its points on the quadric: the roots (x:y) of
    x^2 Q(a) + x y B(a, b) + y^2 Q(b) for a basis a, b.  Empty when the
    orthogonal space is not a line."""
    rows = [(u[5], spec.neg(u[4]), u[3], u[2], spec.neg(u[1]), u[0]) for u in coords]
    red = rref(spec, rows)
    if len(red) != 4:
        return []
    pivots = [next(i for i, x in enumerate(r) if x) for r in red]
    basis = []
    for free in (i for i in range(6) if i not in pivots):
        t = [0] * 6
        t[free] = 1
        for r, piv in zip(red, pivots):
            t[piv] = spec.neg(r[free])
        basis.append(tuple(t))
    a, b = basis
    qa, qb, bab = klein_form(spec, a), klein_form(spec, b), klein_bilinear(spec, a, b)
    out = [a] if qa == 0 else []
    for x in spec.elements():
        if spec.add(spec.mul(x, spec.add(spec.mul(x, qa), bab)), qb) == 0:
            out.append(tuple(spec.add(spec.mul(x, ai), bi) for ai, bi in zip(a, b)))
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
    n = spec.norm(alpha)
    f = spec.frobenius
    return normalize(spec, (f(P[2]), f(P[3]),
                            spec.mul(n, f(P[0])), spec.mul(n, f(P[1]))))


def tau_line(spec: FieldSpec, alpha: int, line: Line) -> Line:
    return line_through(spec, tau_point(spec, alpha, line[0]),
                        tau_point(spec, alpha, line[1]))


def tau_plane(spec: FieldSpec, alpha: int, plane: Plane) -> Plane:
    n = spec.norm(alpha)
    f = spec.frobenius
    return normalize(spec, (spec.mul(n, f(plane[2])), spec.mul(n, f(plane[3])),
                            f(plane[0]), f(plane[1])))


# ---------------------------------------------------------------------------
# semilinear collineations


def _matrix_inverse(spec: FieldSpec, mat) -> tuple[tuple[int, ...], ...]:
    n = len(mat)
    aug = [list(mat[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    red = rref(spec, aug)
    if len(red) != n or any(red[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(r[n:]) for r in red)


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
        s = self.spec
        t = self.twist
        if t == 0:
            return vec
        out = vec
        for _ in range(t):
            out = tuple(s.frobenius_p(x) for x in out)
        return out

    def apply_point(self, P: Point) -> Point:
        s = self.spec
        x = self._twist_vec(P)
        return normalize(s, tuple(
            _dot(s, row, x) for row in self.matrix))

    def apply_line(self, line: Line) -> Line:
        return line_through(self.spec, self.apply_point(line[0]),
                            self.apply_point(line[1]))

    def apply_plane(self, plane: Plane) -> Plane:
        s = self.spec
        h = self._twist_vec(plane)
        inv = _collineation_inverse_matrix(self)
        return normalize(s, tuple(
            _dot(s, tuple(inv[i][j] for i in range(4)), h) for j in range(4)))

    def then(self, other: "Collineation") -> "Collineation":
        """The collineation 'apply self first, then other'."""
        s = self.spec
        t = other.twist
        twisted = tuple(tuple(_iter_frob(s, x, t) for x in row) for row in self.matrix)
        mat = tuple(tuple(_dot(s, other.matrix[i],
                               tuple(twisted[k][j] for k in range(4)))
                          for j in range(4)) for i in range(4))
        return Collineation(s, mat, self.twist + other.twist)

    def inverse(self) -> "Collineation":
        s = self.spec
        inv = _collineation_inverse_matrix(self)
        t = (-self.twist) % (2 * s.m)
        mat = tuple(tuple(_iter_frob(s, x, t) for x in row) for row in inv)
        return Collineation(s, mat, t)

    def canonical_key(self):
        """Projective canonical form: scale so the first nonzero entry is 1."""
        flat = [x for row in self.matrix for x in row]
        return (self.twist,) + normalize(self.spec, flat)

    def is_identity(self) -> bool:
        return self.canonical_key() == Collineation.identity(self.spec).canonical_key()


def _dot(spec, row, vec):
    acc = 0
    for a, b in zip(row, vec):
        if a and b:
            acc = spec.add(acc, spec.mul(a, b))
    return acc


def _iter_frob(spec, x, t):
    for _ in range(t % (2 * spec.m)):
        x = spec.frobenius_p(x)
    return x


@lru_cache(maxsize=65536)
def _collineation_inverse_matrix(coll: Collineation):
    return _matrix_inverse(coll.spec, coll.matrix)


# ---------------------------------------------------------------------------
# the ambient space with its cached Baer apparatus


class AmbientSpace:
    """PG(3,q^2) with cached point/line enumerations and Baer subgeometry
    machinery.  All cached structures are immutable once built."""

    def __init__(self, spec: FieldSpec):
        self.spec = spec
        self.U1: Point = (1, 0, 0, 0)
        self.U2: Point = (0, 1, 0, 0)
        self.U3: Point = (0, 0, 1, 0)
        self.U4: Point = (0, 0, 0, 1)
        self.t1 = line_through(spec, self.U1, self.U2)
        self.t2 = line_through(spec, self.U3, self.U4)
        self.r_U1 = line_through(spec, self.U1, self.U3)
        self._sigma_cache: dict[int, frozenset[Point]] = {}
        self._all_points = None
        self._all_planes = None
        self._all_lines = None

    def all_points(self) -> list[Point]:
        if self._all_points is None:
            spec = self.spec
            pts = set()
            for vec in product(range(spec.order), repeat=4):
                if any(vec):
                    pts.add(normalize(spec, vec))
            self._all_points = sorted(pts)
        return self._all_points

    def all_planes(self) -> list[Plane]:
        if self._all_planes is None:
            self._all_planes = list(self.all_points())
        return self._all_planes

    def all_lines(self) -> list[Line]:
        """Every line of PG(3,q^2), generated directly in RREF form."""
        if self._all_lines is None:
            self._all_lines = sorted(echelon_pairs(self.spec.order))
        return self._all_lines

    # -- Baer subgeometries --------------------------------------------------

    def sigma_points(self, alpha: int) -> frozenset[Point]:
        """Fixed points of tau_alpha: the (q+1)(q^2+1) points
        (x, y, a x^q, a y^q).  Keyed by norm(alpha)."""
        spec = self.spec
        key = spec.norm(alpha)
        cached = self._sigma_cache.get(key)
        if cached is None:
            f = spec.frobenius
            # (x, y) up to GF(q)* scaling: coset representatives g^0..g^q
            reps = [spec.pow(spec.generator, k) for k in range(spec.q + 1)]
            pairs = [(r, 0) for r in reps]
            pairs += [(x, r) for r in reps for x in range(spec.order)]
            pts = frozenset(normalize(spec, (
                x, y, spec.mul(alpha, f(x)), spec.mul(alpha, f(y))))
                for x, y in pairs)
            assert len(pts) == (spec.q + 1) * (spec.q**2 + 1)
            cached = pts
            self._sigma_cache[key] = cached
        return cached

    def in_sigma(self, alpha: int, P: Point) -> bool:
        return tau_point(self.spec, alpha, P) == P

    def is_baer_subline(self, line: Line, alpha: int) -> bool:
        """True iff the line meets the fixed subgeometry of tau_alpha in q+1
        points: the line is tau_alpha-stable and touches the subgeometry."""
        if tau_line(self.spec, alpha, line) != line:
            return False
        return any(self.in_sigma(alpha, P)
                   for P in line_points(self.spec, line))
