"""Desarguesian spreads of the Baer subgeometry fixed by tau_eta, pencils of
Baer sublines through points of r_U1, transversal-induced spreads, reguli
and their opposites, and Hall spreads obtained by regulus switching.

A line of the distinguished Baer subgeometry is its ambient extension in
PG(3,q^2): the ambient line is stable under the involution and meets the
subgeometry in q+1 points.  The subgeometry's points and lines are
numbered once (SubgeometryIndex), a line by the place of its 8-byte code
in one sorted array, so id order is coordinate order.  A spread or a
regulus is a plain tuple, the sorted ids of its lines, held as the
index's own int objects, and spread, cover and incidence checks run on
ids.  Geometry.line_id and Geometry.line convert between a line and its
id; any other line (only a file or a test holds one) gets an id from
(q^2+1)(q^2+q+1) upward.

A pencil is the sorted tuple of its q lines other than r_U1, written down
from the closed form of its Baer subplane section, and the label of a
pencil line is read off the line itself: its point on r_U1 and its plane
through r_U1.  No table over the whole pencil line family is needed.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import TYPE_CHECKING

from spreadsmith.field_tower import FieldSpec, LambdaSystem, lambda_for_q
from spreadsmith.goodsets import Candidate, candidate, candidate_universe
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
    tau_line,
    tau_point,
)

if TYPE_CHECKING:
    from array import array
    from collections.abc import Callable


def memo(fn):
    """Cache ``fn(geo, *args)`` in the one cache dict of ``geo``, keyed by
    the function's qualified name and its positional arguments.  Every
    object a Geometry derives lives there, whichever module derives it, so
    qualified names of memoised functions must be unique.  Each entry holds
    what its own call returned; nothing else writes to the cache."""
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


class SubgeometryIndex:
    """The points and lines of the distinguished subgeometry, each numbered
    by its position in sorted order, and the lines outside it that
    Geometry.line_id numbered (strays), from len(codes) upward.  Line k is
    codes[k], the big-endian integer of its 8 RREF coordinates (all below
    q^2 <= 256, so code order is coordinate order), and ints[k] is k, the
    one int object handed out for it.  Its q+1 point ids, in the order
    Geometry._index generated them, are ids[k w : (k+1) w], w = q+1.
    Reading an id above 256 from an array makes an int, so hot readers
    hand whole slices to C-level consumers."""

    def __init__(self, points: list[Point], point_id: dict[Point, int],
                 codes: array, ids: array, width: int):
        self.points = points
        self.point_id = point_id
        self.codes = codes
        self.ints = list(range(len(codes)))
        self.ids = ids
        self.width = width
        self.stray_id, self.strays = {}, []

    def find(self, l: Line) -> int | None:
        """The id of l, given by its RREF rows, if it is a subgeometry line."""
        codes, code = self.codes, int.from_bytes(bytes(l[0] + l[1]), "big")
        k = bisect_left(codes, code)
        if k < len(codes) and codes[k] == code:
            return self.ints[k]

    def line_bytes(self, k: int) -> bytes:
        """The 8 RREF coordinates of the line of id k."""
        n = len(self.codes)
        if k < n:
            return self.codes[k].to_bytes(8, "big")
        r, s = self.strays[k - n]
        return bytes(r + s)

    def line(self, k: int) -> Line:
        """The line of id k."""
        b = self.line_bytes(k)
        return tuple(b[:4]), tuple(b[4:])


class Geometry:
    """Shared context: field tower, Lambda system, ambient space and the
    cached spread/pencil apparatus of the distinguished subgeometry."""

    def __init__(self, lam: LambdaSystem):
        self.lam = lam
        self.spec: FieldSpec = lam.spec
        self.space = AmbientSpace(self.spec)
        self.q = q = self.spec.q
        self.line_count = (q * q + 1) * (q * q + q + 1)     # the ids below it
        self.eta = lam.eta
        assert self.spec.norm(self.eta) == 1
        self.U = self.spec.unit_circle()
        self._cache: dict[tuple, object] = {}     # see memo

    # -- the distinguished subgeometry ----------------------------------------

    @memo
    def component(self, alpha_idx: int) -> frozenset[Point]:
        """The points of the Baer subgeometry fixed by tau_alpha, alpha the
        Lambda element of the given index."""
        return self.space.sigma_points(self.lam.alpha(alpha_idx))

    @property
    def sigma_eta(self) -> frozenset[Point]:
        return self.component(self.lam.eta_index)

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
        t = spec.tables
        mul, add, neg, f = t.mul, t.add, t.neg, t.frob
        eta_row = self.eta * Q        # eta * z is mul[eta_row + z]

        points = sorted(self.sigma_eta)
        point_id = {P: k for k, P in enumerate(points)}
        # the point id of every nonzero X = (x, y), coded x Q + y
        pid = [-1] * (Q * Q)
        for code in range(1, Q * Q):
            if pid[code] < 0:
                x, y = divmod(code, Q)
                k = point_id[normalize(spec, (x, y, mul[eta_row + f[x]], mul[eta_row + f[y]]))]
                for c in range(Q, q * Q, Q):
                    pid[mul[c + x] * Q + mul[c + y]] = k
        scaled = [[mul[z * Q + c] for c in range(q)] for z in range(Q)]
        shifted = [add[z * Q:(z + 1) * Q] for z in range(Q)]
        width = q + 1
        # imported here: it loads a shared library (0.15 MB), and most
        # processes that import spreads build no index
        from array import array

        found, flat = [], array("H")
        for r1, r2 in echelon_pairs(q):
            # GF(q)^4 coordinates (a0, a1, b0, b1) are (a0 + a1 w, b0 + b1 w)
            x1, y1 = r1[0] + q * r1[1], r1[2] + q * r1[3]
            x2, y2 = r2[0] + q * r2[1], r2[2] + q * r2[3]
            ax, ay = shifted[x1], shifted[y1]
            # the points X1 + c X2, c in GF(q), then X2
            flat.extend([pid[ax[a] * Q + ay[b]] for a, b in zip(scaled[x2], scaled[y2])])
            flat.append(pid[x2 * Q + y2])
            # rows scaled by x1, y1, x2, y2, as offsets into mul
            x1r, y1r, x2r, y2r = x1 * Q, y1 * Q, x2 * Q, y2 * Q
            det = add[mul[x1r + y2] * Q + neg[mul[x2r + y1]]]
            if det:
                d = mul[eta_row + t.inv[det]] * Q
                x1q, y1q, x2q, y2q = f[x1], f[y1], f[x2], f[y2]
                row = (1, 0, mul[d + add[mul[y2r + x1q] * Q + neg[mul[y1r + x2q]]]],
                       mul[d + add[mul[y2r + y1q] * Q + neg[mul[y1r + y2q]]]],
                       0, 1, mul[d + add[mul[x1r + x2q] * Q + neg[mul[x2r + x1q]]]],
                       mul[d + add[mul[x1r + y2q] * Q + neg[mul[x2r + y1q]]]])
            else:
                row = normalize(spec, (x1, y1, 0, 0)) + normalize(spec, (0, 0, f[x1], f[y1]))
            # the code, and below it the line's place in this order (N < 2^17)
            found.append(int.from_bytes(bytes(row), "big") << 17 | len(found))
        # number the lines in code order, each taking its point ids along;
        # the scratch goes first, and found shrinks as the index grows
        del pid, shifted
        found.sort(reverse=True)
        codes, ids = array("Q"), array("H")
        while found:
            k = found.pop()
            codes.append(k >> 17)
            k = (k & 0x1FFFF) * width
            ids += flat[k:k + width]
        del flat
        assert len(codes) == self.line_count and all(map(int.__lt__, codes, codes[1:]))
        return SubgeometryIndex(points, point_id, codes, ids, width)

    def sigma_eta_lines(self) -> list[Line]:
        """Every subgeometry line, in id order, decoded."""
        rows = zip(*[iter(b"".join([c.to_bytes(8, "big") for c in self._index().codes]))] * 4)
        return list(zip(rows, rows))

    def line_id(self, l: Line) -> int:
        """The id of a line given by two of its points: its position in
        sigma_eta_lines() for a subgeometry line, the index's own int
        object; any other line gets the next id from line_count upward,
        the same one each time."""
        index = self._index()
        k = index.find(l)
        if k is None:
            l = line_through(self.spec, *l)
            k = index.find(l)
        if k is not None:
            return k
        if l not in index.stray_id:
            index.stray_id[l] = self.line_count + len(index.strays)
            index.strays.append(l)
        return index.stray_id[l]

    @property
    def line(self) -> Callable[[int], Line]:
        """line(k) is the line of id k (see line_id): the index's own
        method, so map(geo.line, ids) looks the index up once."""
        return self._index().line

    @property
    def line_bytes(self) -> Callable[[int], bytes]:
        """line_bytes(k) is its 8 RREF coordinates, the same way."""
        return self._index().line_bytes

    def subline_ids(self, k: int) -> array | tuple[int, ...]:
        """The ids of the subgeometry points on the line of id k: q+1 of
        them on a subgeometry line, a slice of the index's array, and at
        most one on any other."""
        index = self._index()
        if k < self.line_count:
            w = index.width
            return index.ids[k * w:(k + 1) * w]
        return tuple(index.point_id[P] for P in line_points(self.spec, self.line(k))
                     if P in index.point_id)

    @memo
    def _line_by_pair(self) -> tuple[list[int], array, list[int]]:
        """The lines sorted by their two smallest point ids (a, b), in three
        flat sequences: line[j] is the id at position j, second[j] (an
        array('H')) its b, and the lines of a sit at start[a] to
        start[a+1] - 1.  So the line of (a, b) is
        line[bisect_left(second, b, start[a], start[a + 1])].  start and
        line hold the index's own ints, so reading them makes none."""
        index = self._index()
        n, w = len(index.points), index.width
        keys = [s[0] * n + s[1] for s in map(sorted, zip(*[iter(index.ids)] * w))]
        line = sorted(index.ints, key=keys.__getitem__)
        keys.sort()
        second = index.ids[:0]      # an empty array('H')
        second.extend(k % n for k in keys)
        ints = [*index.ints, len(keys)]     # and one past the last position
        start = [ints[bisect_left(keys, a * n)] for a in range(n + 1)]
        return start, second, line

    @memo
    def point_permutation(self, psi: Collineation) -> tuple[int, ...]:
        """The image id of every subgeometry point under a collineation that
        maps the subgeometry onto itself (a KeyError for any other): the one
        place a collineation acts on it.  A collineation fixing the
        subgeometry pointwise is 1 or tau_eta, so this permutation is
        exactly the action psi induces."""
        index = self._index()
        return tuple(index.point_id[psi.apply_point(P)] for P in index.points)

    def spread_keys(self, line_sets, perm) -> list[tuple[int, ...]]:
        """The images of sets of subgeometry line ids (spreads, or a single
        line) under a point permutation, each as the sorted ids of its
        lines' images, the list sorted: the form in which two sets of
        spreads compare.  A line goes to the one whose two smallest point
        ids are the two smallest images of its own.  An id outside
        the subgeometry is an IndexError."""
        index = self._index()
        ids, w = index.ids, index.width
        start, second, line = self._line_by_pair()

        def image(k):
            s = sorted(map(perm.__getitem__, ids[k * w:(k + 1) * w]))
            return line[bisect_left(second, s[1], start[(a := s[0])], start[a + 1])]

        return sorted(tuple(sorted(map(image, lines))) for lines in line_sets)

    def line_permutation(self, psi: Collineation) -> list[int]:
        """The image id of every line under psi, read off its point
        permutation, which maps the whole flat id array at once.  Not kept:
        E_generator_line_perms keeps those of E's generators."""
        perm = self.point_permutation(psi)
        start, second, line = self._line_by_pair()
        images = map(perm.__getitem__, self._index().ids)
        return [line[bisect_left(second, s[1], start[(a := s[0])], start[a + 1])]
                for s in map(sorted, zip(*[images] * (self.q + 1)))]

    # -- distinguished points, planes, pencils --------------------------------

    def point_P(self, alpha_idx: int, u_pow: int) -> Point:
        """(1, 0, alpha*u, 0) on r_U1."""
        s = self.spec
        c = s.mul(self.lam.alpha(alpha_idx), self.U[u_pow % (self.q + 1)])
        return (1, 0, c, 0)

    def plane_point(self, alpha_idx: int, v_pow: int) -> Point:
        """(0, 1, 0, alpha*v), the point of plane_pi off r_U1 on X1 = X3 = 0."""
        c = self.spec.mul(self.lam.alpha(alpha_idx), self.U[v_pow % (self.q + 1)])
        return (0, 1, 0, c)

    def plane_pi(self, alpha_idx: int, v_pow: int) -> Plane:
        """The plane X4 = alpha*v X2 through r_U1."""
        return self.r_U1_plane(self.plane_point(alpha_idx, v_pow))

    def r_U1_plane(self, R: Point) -> Plane:
        """The plane spanned by r_U1 = <U1, U3> and a point R off it: every
        plane through r_U1 is h2 X2 + h4 X4 = 0, and R fixes h2 : h4.  So a
        collineation fixing r_U1 maps this plane to that of R's image."""
        return normalize(self.spec, (0, R[3], 0, self.spec.neg(R[1])))

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

    def pencil_label_of(self, l: Line) -> Candidate | None:
        """The label whose point_P is the point where l meets r_U1 and whose
        plane_pi is the plane <l, r_U1>.  None when l is r_U1, when it misses
        r_U1, or when no I-class label has both.  So it is None on every
        subgeometry line: one meets r_U1 only in a subgeometry point
        (1, 0, c, 0), c of norm 1, and no point_P is one, as no I-class alpha
        has norm 1.

        r_U1 is X2 = X4 = 0, so a r + b s lies on it exactly when
        a r2 + b s2 = a r4 + b s4 = 0: l = <r, s> meets it exactly when
        r2 s4 = r4 s2, in the point with (a, b) = (s2, -r2), or (s4, -r4)
        when r2 = s2 = 0 (both pairs vanish only on r_U1 itself)."""
        r, s = l
        t = self.spec.tables
        n, mul, add, neg = t.order, t.mul, t.add, t.neg
        if l == self.space.r_U1 or mul[r[1] * n + s[3]] != mul[r[3] * n + s[1]]:
            return None
        a, b = (s[1], neg[r[1]]) if r[1] or s[1] else (s[3], neg[r[3]])
        a, b = a * n, b * n
        P = normalize(self.spec, tuple([add[mul[a + x] * n + mul[b + y]] for x, y in zip(r, s)]))
        return self.pencil_label(P, self.r_U1_plane(r if r[1] or r[3] else s))

    def _pencil_line(self, alpha_idx: int, u_pow: int, v_pow: int, s: int) -> Line:
        """The line through point_P and (x, 1, c x^q, c), x = s w (see pencil)."""
        spec = self.spec
        c = spec.mul(self.lam.alpha(alpha_idx), self.U[v_pow])
        x = s if u_pow != v_pow else spec.mul(s, spec.generator)
        return line_through(spec, self.point_P(alpha_idx, u_pow),
                            (x, 1, spec.mul(c, spec.frobenius(x)), c))

    @memo
    def pencil(self, alpha_idx: int, u_pow: int, v_pow: int) -> tuple[Line, ...]:
        """The q lines other than r_U1, sorted, through point_P(a, u) in
        plane_pi(a, v), X4 = c X2 with c = alpha v, that carry Baer sublines
        of the subgeometry of alpha; with r_U1 they are its q+1 such lines.
        Off r_U1 the plane meets it in the points (x, 1, c x^q, c), and two
        lie on one line through point_P exactly when (x - x')^(q-1) = u/v.
        So x = s w, s in GF(q), gives each line once, with w = 1 when
        u != v and w the generator (outside GF(q)) when u = v."""
        candidate(self.lam, alpha_idx, u_pow, v_pow)
        members = {self._pencil_line(alpha_idx, u_pow, v_pow, s) for s in range(self.q)}
        assert len(members) == self.q and self.space.r_U1 not in members
        return tuple(sorted(members))

    @memo
    def line_set_L(self) -> tuple[Line, ...]:
        """Union of all pencils: |I| q (q+1)^2 lines, q per pencil,
        pencils in candidate order."""
        out = tuple(l for cand in candidate_universe(self.lam) for l in self.pencil(*cand))
        assert len(out) == len(set(out)) == len(self.lam.I) * self.q * (self.q + 1)**2
        return out

    def label_of(self, l: Line) -> Candidate:
        """The label of the pencil that holds l, read off where l meets r_U1
        and the plane it spans with r_U1."""
        lab = self.pencil_label_of(l)
        if lab is None or l not in self.pencil(*lab):
            raise ValueError("line does not belong to the pencil line family")
        return lab

    # -- spreads ---------------------------------------------------------------

    @memo
    def desarguesian_spread(self) -> tuple[int, ...]:
        """D_eta, the spread S_t1 with director lines t1 and t2 = t1^tau."""
        return self.spread_from_transversal(self.space.t1)

    def spread_from_transversal(self, l: Line) -> tuple[int, ...]:
        """S_l, the sorted ids of the q^2+1 stable lines <P, P^tau>, P on l,
        tau = tau_eta: the Desarguesian spread with director lines l, l^tau.
        Not memoised: hall_spread and regulus_of derive it once per line
        and keep only what they return.

        The only genuine precondition is that l avoids the subgeometry: a
        stable line always meets it in a subline, and a meeting point of l
        and its conjugate is fixed, hence in the subgeometry.  Other
        violations get errors of their own."""
        spec = self.spec
        lt = self.tau_eta_line(l)
        if lt == l:
            raise ValueError("transversal is self-conjugate")
        pts = line_points(spec, l)
        if not self.sigma_eta.isdisjoint(pts):
            raise ValueError("transversal meets the subgeometry")
        if lines_meet(spec, l, lt):
            raise ValueError("transversal and its conjugate are not skew")
        eta, find = self.eta, self._index().find
        lines = {find(line_through(spec, P, tau_point(spec, eta, P))) for P in pts}
        assert len(lines) == self.q**2 + 1
        return tuple(sorted(lines))

    def _spread_and_regulus(self, l: Line) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """S_l and D_eta intersect S_l, q+1 lines through r_U1, for a pencil
        line l (a ValueError for any other line)."""
        self.label_of(l)  # membership check
        sl = self.spread_from_transversal(l)
        common = set(sl).intersection(self.desarguesian_spread())
        assert len(common) == self.q + 1
        assert self.line_id(self.space.r_U1) in common
        return sl, tuple(sorted(common))

    @memo
    def regulus_of(self, l: Line) -> tuple[int, ...]:
        """D_eta intersect S_l, a regulus through r_U1 when l is a pencil line."""
        return self._spread_and_regulus(l)[1]

    def transversals_of(self, lines) -> list[int]:
        """The sorted ids of all subgeometry lines meeting each of the
        pairwise skew lines of the given ids: each line through a point of
        the first and a point of the second that meets every other given
        line.  A subgeometry line among the others is met when the
        candidate shares a point id with it: bit i of hits[p] is set when
        point p lies on the i-th of them, and a candidate passes when its
        points' bits cover them all.  Any other line is tested with
        lines_meet."""
        spec = self.spec
        index = self._index()
        points, find, ids, w = index.points, index.find, index.ids, index.width
        first, second, *rest = list(lines)
        hits = [0] * len(points)
        full = 0
        ambient = []
        for r in rest:
            if r >= self.line_count:
                ambient.append(self.line(r))
                continue
            bit = full + 1          # full is 2^i - 1 after i of them
            for p in self.subline_ids(r):
                hits[p] |= bit
            full |= bit
        found = set()
        ys = [points[y] for y in self.subline_ids(second)]
        for x in self.subline_ids(first):
            X = points[x]
            for Y in ys:
                cand = find(line_through(spec, X, Y))
                mask = 0
                for p in ids[cand * w:(cand + 1) * w]:
                    mask |= hits[p]
                if mask == full and all(lines_meet(spec, index.line(cand), r) for r in ambient):
                    found.add(cand)
        return sorted(found)

    @memo
    def opposite_regulus(self, reg: tuple[int, ...]) -> tuple[int, ...]:
        opp = self.transversals_of(reg)
        assert len(opp) == self.q + 1
        return tuple(opp)

    @memo
    def hall_spread(self, l: Line) -> tuple[int, ...]:
        """Switch the regulus of S_l shared with D_eta for its opposite.
        Only the switched spread is kept: S_l and its regulus are derived
        here and dropped."""
        sl, reg = self._spread_and_regulus(l)
        opp = self.opposite_regulus(reg)
        return tuple(sorted((set(sl) - set(reg)) | set(opp)))

    def is_spread(self, lines) -> SpreadReport:
        """Verdict on the lines of the given ids: q^2+1 subgeometry lines,
        pairwise disjoint, covering every subgeometry point exactly once."""
        lines = list(lines)
        q = self.q
        if len(lines) != q * q + 1:
            return SpreadReport(False, f"expected {q*q+1} lines, got {len(lines)}")
        index = self._index()
        # a tau-stable line meets the subgeometry in a subline, so the
        # stable lines are exactly those of the index
        if max(lines) >= self.line_count:
            return SpreadReport(False, "line is not stable under the involution")
        ids, w = index.ids, index.width
        on = ids[:0]                # an empty array('H')
        for k in lines:
            on += ids[k * w:(k + 1) * w]
        # q^2+1 sublines of q+1 points cover all (q+1)(q^2+1) points exactly
        # when they are pairwise disjoint
        if len(set(on)) == len(index.points):
            return SpreadReport(True)
        return SpreadReport(False, "point covered more than once")

    # -- collineations --------------------------------------------------------

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

    def delta_map(self) -> Collineation:
        """diag(1, g, 1, g^q), g the field generator: it maps v(x, y) to
        v(x, g y), so it maps the subgeometry onto itself, and
        delta^-1 xi_map(b, 1) delta = xi_map(b g, 1), delta applied first."""
        g = self.spec.generator
        return Collineation.linear(self.spec, ((1, 0, 0, 0), (0, g, 0, 0),
                                               (0, 0, 1, 0), (0, 0, 0, self.spec.frobenius(g))))


@lru_cache(maxsize=None)
def geometry_for_q(q: int) -> Geometry:
    return Geometry(lambda_for_q(q))
