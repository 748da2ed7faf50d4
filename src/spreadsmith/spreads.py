"""Desarguesian spreads of the Baer subgeometry fixed by tau_eta, pencils of
Baer sublines through points of r_U1, transversal-induced spreads, reguli
and their opposites, and Hall spreads obtained by regulus switching.

Lines of the distinguished Baer subgeometry are always stored as their
ambient extensions in PG(3,q^2): the ambient line is stable under the
involution and meets the subgeometry in q+1 points, and this single
representation serves both incidence levels.  The subgeometry's points and
lines are numbered once (SubgeometryIndex); spreads hold the index's own
line objects, and spread, cover and incidence checks on them run on ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps

from spreadsmith.field_tower import FieldSpec, LambdaSystem, lambda_for_q
from spreadsmith.goodsets import Candidate, candidate_universe
from spreadsmith.proj_geometry import (
    AmbientSpace,
    Collineation,
    Line,
    Plane,
    Point,
    echelon_pairs,
    line_points,
    line_through,
    lines_meet,
    normalize,
    point_on_plane,
    tau_line,
    tau_point,
)


@dataclass(frozen=True)
class Spread:
    """q^2+1 pairwise disjoint lines covering the subgeometry of alpha."""
    lines: tuple[Line, ...]
    alpha: int
    tag: str = "unknown"            # desarguesian | hall | unknown
    transversal: Line | None = None
    switched: tuple[Line, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(sorted(self.lines)))

    def key(self) -> tuple[Line, ...]:
        return self.lines


@dataclass(frozen=True)
class Regulus:
    lines: tuple[Line, ...]

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(sorted(self.lines)))


@dataclass(frozen=True)
class Pencil:
    """The q+1 lines through P (inside the plane) carrying Baer sublines of
    the plane's Baer subplane; always contains r_U1."""
    alpha_idx: int
    u_pow: int
    v_pow: int
    base_point: Point
    plane: Plane
    lines: tuple[Line, ...]

    def punctured(self, r_U1: Line) -> tuple[Line, ...]:
        return tuple(l for l in self.lines if l != r_U1)


def memo(fn):
    """Cache ``fn(geo, *args)`` in the one cache dict of ``geo``, keyed by
    the function's qualified name and its positional arguments.  Every
    object a Geometry derives lives there, whichever module derives it, so
    qualified names of memoised functions must be unique."""
    name = fn.__qualname__

    @wraps(fn)
    def cached(geo, *args):
        key = (name, *args)
        try:
            return geo._cache[key]
        except KeyError:
            got = geo._cache[key] = fn(geo, *args)
            return got

    return cached


@dataclass
class SpreadReport:
    ok: bool
    reason: str | None = None
    uncovered: Point | None = None
    multiply_covered: Point | None = None


class SubgeometryIndex:
    """The points and lines of the distinguished subgeometry, each numbered
    by its position in sorted order, and the point ids on every line."""

    def __init__(self, points: list[Point], point_id: dict[Point, int],
                 lines: list[Line], line_point_ids: list[tuple[int, ...]]):
        self.points = points
        self.point_id = point_id
        self.lines = lines
        self.line_id = {l: k for k, l in enumerate(lines)}
        self.line_point_ids = line_point_ids


class Geometry:
    """Shared context: field tower, Lambda system, ambient space and the
    cached spread/pencil apparatus of the distinguished subgeometry."""

    def __init__(self, lam: LambdaSystem):
        self.lam = lam
        self.spec: FieldSpec = lam.spec
        self.space = AmbientSpace(self.spec)
        self.q = self.spec.q
        self.eta = lam.eta
        assert self.spec.norm(self.eta) == 1
        self.U = self.spec.unit_circle()
        self.u_index = {u: i for i, u in enumerate(self.U)}
        self._cache: dict[tuple, object] = {}     # see memo

    @classmethod
    def from_q(cls, q: int) -> "Geometry":
        return cls(lambda_for_q(q))

    # -- the distinguished subgeometry ----------------------------------------

    @property
    @memo
    def sigma_eta(self) -> frozenset[Point]:
        return self.space.sigma_points(self.eta)

    def tau_eta_point(self, P: Point) -> Point:
        return tau_point(self.spec, self.eta, P)

    def tau_eta_line(self, l: Line) -> Line:
        return tau_line(self.spec, self.eta, l)

    @memo
    def _index(self) -> SubgeometryIndex:
        """Number the subgeometry.  Its points are v(X) = (X, eta X^q) for
        nonzero X = (x, y) in GF(q^2)^2 = GF(q)^4 up to GF(q)* scaling, and
        its lines are the images under the GF(q)-linear map v of the
        2-dimensional GF(q)-subspaces <X, Y>, enumerated in RREF.

        The ambient line of <X, Y> is {(aX + bY, eta (a X^q + b Y^q))}.  When
        X, Y span GF(q^2)^2 it is the graph Z -> eta M Z of the linear map
        with M X = X^q and M Y = Y^q, whose RREF rows are (e_i, eta M e_i).
        Otherwise Y is in GF(q^2) X and the line is <(X, 0), (0, X^q)>."""
        spec, q, Q = self.spec, self.q, self.spec.order
        mul, add, sub, f, eta = spec.mul, spec.add, spec.sub, spec.frobenius, self.eta

        points = sorted(self.sigma_eta)
        point_id = {P: k for k, P in enumerate(points)}
        # the point id of every nonzero X = (x, y), coded x Q + y
        pid = [-1] * (Q * Q)
        for code in range(1, Q * Q):
            if pid[code] < 0:
                x, y = divmod(code, Q)
                k = point_id[normalize(spec, (x, y, mul(eta, f(x)), mul(eta, f(y))))]
                for c in range(1, q):
                    pid[mul(c, x) * Q + mul(c, y)] = k
        scaled = [[mul(t, z) for t in range(q)] for z in range(Q)]
        shifted = [[add(z, w) for w in range(Q)] for z in range(Q)]
        found = []
        for r1, r2 in echelon_pairs(q):
            # GF(q)^4 coordinates (a0, a1, b0, b1) are (a0 + a1 w, b0 + b1 w)
            x1, y1 = r1[0] + q * r1[1], r1[2] + q * r1[3]
            x2, y2 = r2[0] + q * r2[1], r2[2] + q * r2[3]
            ax, ay = shifted[x1], shifted[y1]
            ids = [pid[ax[a] * Q + ay[b]] for a, b in zip(scaled[x2], scaled[y2])]
            ids.append(pid[x2 * Q + y2])
            det = sub(mul(x1, y2), mul(x2, y1))
            if det:
                d = spec.div(eta, det)
                x1q, y1q, x2q, y2q = f(x1), f(y1), f(x2), f(y2)
                line = ((1, 0, mul(d, sub(mul(y2, x1q), mul(y1, x2q))),
                         mul(d, sub(mul(y2, y1q), mul(y1, y2q)))),
                        (0, 1, mul(d, sub(mul(x1, x2q), mul(x2, x1q))),
                         mul(d, sub(mul(x1, y2q), mul(x2, y1q)))))
            else:
                line = (normalize(spec, (x1, y1, 0, 0)), normalize(spec, (0, 0, f(x1), f(y1))))
            found.append((line, tuple(ids)))
        found.sort()
        index = SubgeometryIndex(points, point_id, [l for l, _ in found],
                                 [ids for _, ids in found])
        assert len(index.line_id) == (q * q + 1) * (q * q + q + 1)
        return index

    def sigma_eta_lines(self) -> list[Line]:
        """All (q^2+1)(q^2+q+1) lines of the subgeometry, sorted."""
        return self._index().lines

    def line_index(self) -> dict[Line, int]:
        """Position of each subgeometry line in sigma_eta_lines()."""
        return self._index().line_id

    def intern(self, l: Line) -> Line:
        """The index's own object for a subgeometry line, so that every
        spread holds one shared copy of each line."""
        index = self._index()
        return index.lines[index.line_id[l]]

    def subline_ids(self, l: Line) -> tuple[int, ...]:
        """The ids of the subgeometry points on a line: q+1 of them on a
        subgeometry line, read from the index, and at most one elsewhere."""
        index = self._index()
        k = index.line_id.get(l)
        if k is not None:
            return index.line_point_ids[k]
        return tuple(index.point_id[P] for P in line_points(self.spec, l)
                     if P in index.point_id)

    def subline_points(self, l: Line) -> tuple[Point, ...]:
        """The subgeometry points of a line, in line_points order: its
        second RREF row first, then the others by their coordinate in that
        row's pivot column."""
        s = l[1]
        j = next(c for c, x in enumerate(s) if x)
        points = self._index().points
        return tuple(sorted((points[p] for p in self.subline_ids(l)),
                            key=lambda P: -1 if P == s else P[j]))

    @memo
    def _line_by_pair(self) -> dict[int, int]:
        """The id of each line keyed by its two smallest point ids a < b,
        as a n + b for n points."""
        index = self._index()
        n = len(index.points)
        out = {}
        for k, ids in enumerate(index.line_point_ids):
            a, b = sorted(ids)[:2]
            out[a * n + b] = k
        return out

    @memo
    def line_permutation(self, psi: Collineation) -> list[int]:
        """The image of every line id under a collineation that maps the
        subgeometry onto itself, computed on point ids."""
        index = self._index()
        perm = [index.point_id[psi.apply_point(P)] for P in index.points]
        by_pair = self._line_by_pair()
        n = len(perm)
        out = []
        for ids in index.line_point_ids:
            a, b = sorted([perm[p] for p in ids])[:2]
            out.append(by_pair[a * n + b])
        return out

    # -- distinguished points, planes, pencils --------------------------------

    def alpha_of(self, alpha_idx: int) -> int:
        return self.lam.alpha(alpha_idx)

    def point_P(self, alpha_idx: int, u_pow: int) -> Point:
        """(1, 0, alpha*u, 0) on r_U1."""
        s = self.spec
        c = s.mul(self.alpha_of(alpha_idx), self.U[u_pow % (self.q + 1)])
        return (1, 0, c, 0)

    def plane_pi(self, alpha_idx: int, v_pow: int) -> Plane:
        """The plane X4 = alpha*v X2 through r_U1."""
        s = self.spec
        c = s.mul(self.alpha_of(alpha_idx), self.U[v_pow % (self.q + 1)])
        return normalize(s, (0, s.neg(c), 0, 1))

    @memo
    def _pencil_coords(self) -> tuple[dict[Point, tuple[int, int]],
                                      dict[Plane, tuple[int, int]]]:
        """point_P and plane_pi of every I-class index, keyed for inversion."""
        n = self.q + 1
        points = {self.point_P(a, u): (a, u) for a in self.lam.I for u in range(n)}
        planes = {self.plane_pi(a, v): (a, v) for a in self.lam.I for v in range(n)}
        return points, planes

    def pencil_label(self, P: Point, plane: Plane) -> Candidate | None:
        """The label (alpha_idx, u_pow, v_pow) whose point_P is P and whose
        plane_pi is the given plane: the inverse of those two maps, on
        normalized coordinates.  None when no I-class label has both."""
        points, planes = self._pencil_coords()
        point, pl = points.get(P), planes.get(plane)
        if point is None or pl is None or point[0] != pl[0]:
            return None
        return Candidate(point[0], point[1], pl[1])

    @memo
    def pencil(self, alpha_idx: int, u_pow: int, v_pow: int) -> Pencil:
        if alpha_idx not in self.lam.I:
            raise ValueError(f"alpha index {alpha_idx} is not in the I class")
        if not (0 <= u_pow <= self.q and 0 <= v_pow <= self.q):
            raise ValueError(f"unit exponents {u_pow}, {v_pow} are not in 0..{self.q}")
        spec = self.spec
        alpha = self.alpha_of(alpha_idx)
        P = self.point_P(alpha_idx, u_pow)
        pi = self.plane_pi(alpha_idx, v_pow)
        section = [S for S in self.space.sigma_points(alpha)
                   if point_on_plane(spec, pi, S)]
        assert len(section) == self.q**2 + self.q + 1, "plane section must be a Baer subplane"
        members = {line_through(spec, P, S) for S in section if S != P}
        assert len(members) == self.q + 1
        assert self.space.r_U1 in members
        return Pencil(alpha_idx, u_pow, v_pow, base_point=P, plane=pi,
                      lines=tuple(sorted(members)))

    @memo
    def line_set_L(self) -> tuple[Line, ...]:
        """Union of all punctured pencils: |I| q (q+1)^2 lines, q per
        pencil, pencils in candidate order."""
        r_U1 = self.space.r_U1
        out = tuple(l for cand in candidate_universe(self.lam)
                    for l in self.pencil(*cand).punctured(r_U1))
        assert len(out) == len(set(out)) == len(self.lam.I) * self.q * (self.q + 1)**2
        return out

    @memo
    def _line_labels(self) -> dict[Line, Candidate]:
        """The pencil label of every line of L."""
        labels = candidate_universe(self.lam)
        return {l: labels[i // self.q] for i, l in enumerate(self.line_set_L())}

    def label_of(self, l: Line) -> Candidate:
        try:
            return self._line_labels()[l]
        except KeyError:
            raise ValueError("line does not belong to the pencil line family") from None

    # -- spreads ---------------------------------------------------------------

    def desarguesian_spread(self, alpha_idx: int | None = None) -> Spread:
        """{ <P, P^tau> : P in t1 } restricted to the subgeometry of alpha
        (of eta when no index is given)."""
        return self._desarguesian_spread(
            self.lam.eta_index if alpha_idx is None else alpha_idx)

    @memo
    def _desarguesian_spread(self, alpha_idx: int) -> Spread:
        alpha = self.alpha_of(alpha_idx)
        spec = self.spec
        lines = set()
        for P in line_points(spec, self.space.t1):
            lines.add(line_through(spec, P, tau_point(spec, alpha, P)))
        assert len(lines) == self.q**2 + 1
        if alpha == self.eta:
            lines = map(self.intern, lines)
        return Spread(lines=tuple(lines), alpha=alpha, tag="desarguesian",
                      transversal=self.space.t1)

    @memo
    def spread_from_transversal(self, l: Line) -> Spread:
        """The Desarguesian spread with director lines l, l^tau.

        The only genuine precondition is that l avoids the subgeometry: a
        stable line always meets it in a subline, and a meeting point of l
        and its conjugate is fixed, hence in the subgeometry.  Violations
        are still reported distinctly, and the skewness assertion guards
        the derivation."""
        spec = self.spec
        lt = self.tau_eta_line(l)
        if lt == l:
            raise ValueError("transversal is self-conjugate")
        pts = line_points(spec, l)
        sig = self.sigma_eta
        if any(P in sig for P in pts):
            raise ValueError("transversal meets the subgeometry")
        if lines_meet(spec, l, lt):
            raise ValueError("transversal and its conjugate are not skew")
        lines = {self.intern(line_through(spec, Q, self.tau_eta_point(Q))) for Q in pts}
        assert len(lines) == self.q**2 + 1
        got = Spread(lines=tuple(lines), alpha=self.eta, tag="desarguesian",
                     transversal=l)
        # the conjugate transversal induces the same spread; memo files l
        self._cache["Geometry.spread_from_transversal", lt] = got
        return got

    @memo
    def regulus_of(self, l: Line) -> Regulus:
        """D_eta intersect S_l, a regulus through r_U1 when l is a pencil line."""
        self.label_of(l)  # membership check
        common = set(self.desarguesian_spread().lines) & set(
            self.spread_from_transversal(l).lines)
        assert len(common) == self.q + 1
        assert self.space.r_U1 in common
        return Regulus(lines=tuple(common))

    def transversals_of(self, lines) -> list[Line]:
        """All subgeometry lines meeting each of the given pairwise skew
        lines: each line through a point of the first and a point of the
        second that meets every other given line, which for a subgeometry
        line means sharing a point id with it."""
        spec = self.spec
        index = self._index()
        first, second, *rest = list(lines)

        def meets(r):
            k = index.line_id.get(r)
            if k is None:
                return lambda c: lines_meet(spec, index.lines[c], r)
            ids = set(index.line_point_ids[k])
            return lambda c: not ids.isdisjoint(index.line_point_ids[c])

        tests = [meets(r) for r in rest]
        found = set()
        for X in self.subline_points(first):
            for Y in self.subline_points(second):
                cand = index.line_id[line_through(spec, X, Y)]
                if all(test(cand) for test in tests):
                    found.add(cand)
        return [index.lines[k] for k in sorted(found)]

    @memo
    def opposite_regulus(self, reg: Regulus) -> Regulus:
        opp = self.transversals_of(reg.lines)
        assert len(opp) == self.q + 1
        return Regulus(lines=tuple(opp))

    @memo
    def hall_spread(self, l: Line) -> Spread:
        """Switch the regulus of S_l shared with D_eta for its opposite."""
        reg = self.regulus_of(l)
        sl = self.spread_from_transversal(l)
        opp = self.opposite_regulus(reg)
        lines = (set(sl.lines) - set(reg.lines)) | set(opp.lines)
        return Spread(lines=tuple(lines), alpha=self.eta, tag="hall",
                      transversal=l, switched=reg.lines)

    def is_spread(self, lines) -> SpreadReport:
        """Verdict: q^2+1 subgeometry lines, pairwise disjoint, covering
        every subgeometry point exactly once."""
        lines = list(lines)
        q = self.q
        if len(lines) != q * q + 1:
            return SpreadReport(False, f"expected {q*q+1} lines, got {len(lines)}")
        index = self._index()
        covered = set()
        for l in lines:
            k = index.line_id.get(l)
            if k is None:
                break
            covered.update(index.line_point_ids[k])
        else:
            # q^2+1 sublines of q+1 points cover all (q+1)(q^2+1) points
            # exactly when they are pairwise disjoint
            if len(covered) == len(index.points):
                return SpreadReport(True)
        # name the first failure
        counts: dict[Point, int] = {}
        for l in lines:
            if self.tau_eta_line(l) != l:
                return SpreadReport(False, "line is not stable under the involution")
            pts = self.subline_points(l)
            if len(pts) != q + 1:
                return SpreadReport(False, "line does not meet the subgeometry in a subline")
            for P in pts:
                counts[P] = counts.get(P, 0) + 1
        for P, c in counts.items():
            if c > 1:
                return SpreadReport(False, "point covered more than once",
                                    multiply_covered=P)
        for P in self.sigma_eta:
            if P not in counts:
                return SpreadReport(False, "point not covered", uncovered=P)
        return SpreadReport(True)

    # -- the distinguished transversal family of one pencil -------------------

    def l_lambda(self, alpha_idx: int, scalar: int, xtilde: int | None = None) -> Line:
        """The pencil line through (1,0,alpha,0) inside the plane X4 = alpha X2
        determined by the subfield scalar; scalar 0 gives the line through
        (0,1,0,alpha)."""
        spec = self.spec
        if not spec.in_subfield(scalar):
            raise ValueError("scalar must lie in the subfield")
        if xtilde is None:
            xtilde = spec.generator
        if spec.in_subfield(xtilde):
            raise ValueError("xtilde must lie outside the subfield")
        alpha = self.alpha_of(alpha_idx)
        x = spec.mul(scalar, xtilde)
        second = (x, 1, spec.mul(alpha, spec.frobenius(x)), alpha)
        return line_through(spec, (1, 0, alpha, 0), second)

    def phi_map(self, alpha_idx: int) -> Collineation:
        """Linear map sending t1, t2 to the scalar-0 pencil line and its
        conjugate while fixing the distinguished subgeometry."""
        a = self.alpha_of(alpha_idx)
        aq = self.spec.frobenius(a)
        mat = ((1, 0, aq, 0),
               (0, 1, 0, aq),
               (a, 0, 1, 0),
               (0, a, 0, 1))
        return Collineation.linear(self.spec, mat)

    def xi_map(self, scalar: int, xtilde: int | None = None) -> Collineation:
        """Unitriangular map fixing r_U1 pointwise and every Baer component
        of the spread union; shifts the scalar-0 pencil line family."""
        spec = self.spec
        if xtilde is None:
            xtilde = spec.generator
        x = spec.mul(scalar, xtilde)
        mat = ((1, x, 0, 0),
               (0, 1, 0, 0),
               (0, 0, 1, spec.frobenius(x)),
               (0, 0, 0, 1))
        return Collineation.linear(spec, mat)

    def phi_lambda_map(self, alpha_idx: int, scalar: int,
                       xtilde: int | None = None) -> Collineation:
        return self.phi_map(alpha_idx).then(self.xi_map(scalar, xtilde))

    # -- misc helpers ----------------------------------------------------------

    def extension_points(self, lines) -> set[Point]:
        """Union of the ambient points of the extended lines."""
        out: set[Point] = set()
        for l in lines:
            out.update(line_points(self.spec, l))
        return out

    def reguli_through_r_U1(self) -> list[Regulus]:
        """All reguli of D_eta containing r_U1, by brute force over triples."""
        d = self.desarguesian_spread()
        others = [l for l in d.lines if l != self.space.r_U1]
        found = set()
        for i, l2 in enumerate(others):
            for l3 in others[i + 1:]:
                trip = [self.space.r_U1, l2, l3]
                transversals = self.transversals_of(trip)
                reg = tuple(sorted(l for l in d.lines
                                   if all(lines_meet(self.spec, l, t)
                                          for t in transversals)))
                found.add(reg)
        return [Regulus(lines=r) for r in sorted(found)]


@lru_cache(maxsize=None)
def geometry_for_q(q: int) -> Geometry:
    return Geometry.from_q(q)
