"""Two coordinate models of PG(2,q) and the oval / line-oval predicates.

Homogeneous model: points (x : y : z) and lines [a : b : c] over F, incidence
ax + by + cz = 0.  Field model: points (x : z) with x in K, z in F, lines
[alpha : beta], incidence <alpha, x> + beta*z = 0; affine lines are
L(u, mu) = {x in K : <u, x> + mu = 0} with u on the unit circle.

The two models are glued by z = x + y*i (i the distinguished trace-one
element), i.e. a point (x : y : 1) corresponds to x + y*i in K and then
x = <i, z>, y = <1, z>.  Collinearity is decided once, by a determinant over
F in the homogeneous model; the field model delegates through the conversion.

A hyperoval is q+2 points with no three collinear; removing any point leaves
an oval whose nucleus is the removed point.  For line ovals, three lines are
concurrent iff their dual points are collinear, and the covered point set
E(O) consists of the pairwise intersection points, each on exactly two lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2m import FieldParams, polar_v, spread_i, unit_circle


class GeometryError(ValueError):
    pass


# ---------------------------------------------------------------- H model


@dataclass(frozen=True, slots=True)
class ProjPointH:
    """Point (x : y : z) of PG(2,q), normalized so the last nonzero coord is 1."""

    params: FieldParams
    x: int
    y: int
    z: int

    @staticmethod
    def make(params: FieldParams, x: int, y: int, z: int) -> "ProjPointH":
        if z:
            zi = params.finv(z)
            return ProjPointH(params, params.fmul(x, zi), params.fmul(y, zi), 1)
        if y:
            yi = params.finv(y)
            return ProjPointH(params, params.fmul(x, yi), 1, 0)
        if x:
            return ProjPointH(params, 1, 0, 0)
        raise GeometryError("(0:0:0) is not a projective point")

    @property
    def code(self) -> int:
        q = self.params.q
        if self.z:
            return self.x * q + self.y
        if self.y:
            return q * q + self.x
        return q * q + q

    @staticmethod
    def from_code(params: FieldParams, code: int) -> "ProjPointH":
        q = params.q
        if code < q * q:
            return ProjPointH(params, code // q, code % q, 1)
        if code < q * q + q:
            return ProjPointH(params, code - q * q, 1, 0)
        return ProjPointH(params, 1, 0, 0)

    def hex(self) -> str:
        h = self.params.f_hex
        return f"{h(self.x)}:{h(self.y)}:{h(self.z)}"


@dataclass(frozen=True, slots=True)
class LineH:
    """Line [a : b : c] of PG(2,q), same normalization as points."""

    params: FieldParams
    a: int
    b: int
    c: int

    @staticmethod
    def make(params: FieldParams, a: int, b: int, c: int) -> "LineH":
        p = ProjPointH.make(params, a, b, c)
        return LineH(params, p.x, p.y, p.z)

    @property
    def code(self) -> int:
        return ProjPointH(self.params, self.a, self.b, self.c).code


def incident_h(p: ProjPointH, l: LineH) -> bool:
    P = p.params
    return (P.fmul(l.a, p.x) ^ P.fmul(l.b, p.y) ^ P.fmul(l.c, p.z)) == 0


def line_through(p: ProjPointH, r: ProjPointH) -> LineH:
    """The unique line through two distinct points (cross product; char 2)."""
    P = p.params
    a = P.fmul(p.y, r.z) ^ P.fmul(p.z, r.y)
    b = P.fmul(p.z, r.x) ^ P.fmul(p.x, r.z)
    c = P.fmul(p.x, r.y) ^ P.fmul(p.y, r.x)
    return LineH.make(P, a, b, c)


def collinear(p: ProjPointH, r: ProjPointH, s: ProjPointH) -> bool:
    P = p.params
    a = P.fmul(p.y, r.z) ^ P.fmul(p.z, r.y)
    b = P.fmul(p.z, r.x) ^ P.fmul(p.x, r.z)
    c = P.fmul(p.x, r.y) ^ P.fmul(p.y, r.x)
    return (P.fmul(a, s.x) ^ P.fmul(b, s.y) ^ P.fmul(c, s.z)) == 0


# ------------------------------------------------------------ vector kernel


def normalize_codes_v(params: FieldParams, xs, ys, zs) -> np.ndarray:
    """Canonical point codes for arrays of (possibly unnormalized) coords."""
    q = params.q
    zi = params.finv_v(zs, zero_to_zero=True)
    yi = params.finv_v(ys, zero_to_zero=True)
    affine = params.fmul_v(xs, zi).astype(np.int64) * q + params.fmul_v(ys, zi)
    infin = q * q + params.fmul_v(xs, yi).astype(np.int64)
    return np.where(zs != 0, affine, np.where(ys != 0, infin, q * q + q))


def codes_to_coords_v(params: FieldParams, codes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    q = params.q
    codes = np.asarray(codes, dtype=np.int64)
    aff = codes < q * q
    inf = (codes >= q * q) & (codes < q * q + q)
    x = np.where(aff, codes // q, np.where(inf, codes - q * q, 1))
    y = np.where(aff, codes % q, np.where(inf, 1, 0))
    z = np.where(aff, 1, 0)
    return x.astype(np.uint32), y.astype(np.uint32), z.astype(np.uint32)


def no_three_collinear(params: FieldParams, codes: list[int]) -> bool:
    """True iff the points are distinct and no three are collinear: through
    each point, the lines to the other points are pairwise distinct."""
    if len(set(codes)) != len(codes):
        return False
    x, y, z = (v[:, None] for v in codes_to_coords_v(params, np.array(codes, dtype=np.int64)))
    fm = params.fmul_v
    lines = normalize_codes_v(params, fm(y, z.T) ^ fm(z, y.T), fm(z, x.T) ^ fm(x, z.T),
                              fm(x, y.T) ^ fm(y, x.T))
    np.fill_diagonal(lines, -1)
    lines.sort(axis=1)
    return not np.any(lines[:, 1:] == lines[:, :-1])


# --------------------------------------------------------------- predicates


def is_hyperoval(params: FieldParams, points) -> bool:
    """True iff `points` is a set of q+2 points with no three collinear."""
    codes = _as_codes(params, points)
    if len(codes) != params.q + 2:
        raise GeometryError(f"a hyperoval has q+2 = {params.q + 2} points, got {len(codes)}")
    return no_three_collinear(params, codes)


def is_oval(params: FieldParams, points) -> bool:
    codes = _as_codes(params, points)
    if len(codes) != params.q + 1:
        raise GeometryError(f"an oval has q+1 = {params.q + 1} points, got {len(codes)}")
    return no_three_collinear(params, codes)


def nucleus(params: FieldParams, points) -> ProjPointH:
    """Common point of all tangents of an oval (q even, so they concur)."""
    codes = _as_codes(params, points)
    if not is_oval(params, codes):
        raise GeometryError("input is not an oval")
    pts = [ProjPointH.from_code(params, c) for c in codes]

    def tangent(p: ProjPointH) -> LineH:
        secants = {line_through(p, r).code for r in pts if r.code != p.code}
        # sweep the q+1 lines through p: join p to each point of a line missing p
        ref = LineH.make(params, 0, 0, 1)
        if incident_h(p, ref):
            ref = LineH.make(params, 1, 0, 0)
        through = []
        for c in range(params.q * params.q + params.q + 1):
            r = ProjPointH.from_code(params, c)
            if incident_h(r, ref) and r.code != p.code:
                through.append(line_through(p, r))
        missing = [l for l in through if l.code not in secants]
        if len(missing) != 1:
            raise GeometryError("tangent not unique; not an oval")  # pragma: no cover
        return missing[0]

    t1, t2 = tangent(pts[0]), tangent(pts[1])
    # intersection of two lines = cross product of their coefficient triples
    P = params
    x = P.fmul(t1.b, t2.c) ^ P.fmul(t1.c, t2.b)
    y = P.fmul(t1.c, t2.a) ^ P.fmul(t1.a, t2.c)
    z = P.fmul(t1.a, t2.b) ^ P.fmul(t1.b, t2.a)
    n = ProjPointH.make(params, x, y, z)
    if not no_three_collinear(params, codes + [n.code]):
        raise GeometryError("tangents do not concur correctly")  # pragma: no cover
    return n


def _as_codes(params: FieldParams, points) -> list[int]:
    out = []
    for p in points:
        if isinstance(p, ProjPointH):
            out.append(p.code)
        elif isinstance(p, ProjPointK):
            out.append(k_to_h(p).code)
        elif isinstance(p, (int, np.integer)):
            out.append(int(p))
        else:
            raise GeometryError(f"not a point: {p!r}")
    return out


# ---------------------------------------------------------------- K model


@dataclass(frozen=True, slots=True)
class ProjPointK:
    """Point (x : z) with x in K, z in F; normalized to z = 1 or (u : 0), u in S."""

    params: FieldParams
    xcode: int
    z: int

    @staticmethod
    def make(params: FieldParams, xcode: int, z: int) -> "ProjPointK":
        if z:
            return ProjPointK(params, params.kmul(xcode, params.finv(z)), 1)
        if xcode == 0:
            raise GeometryError("(0:0) is not a projective point")
        _, l = polar_v(params, xcode)
        return ProjPointK(params, int(unit_circle(params).codes[l]), 0)

    @staticmethod
    def affine(params: FieldParams, xcode: int) -> "ProjPointK":
        return ProjPointK(params, xcode, 1)

    def hex(self) -> str:
        return f"{self.params.k_hex(self.xcode)}:{self.params.f_hex(self.z)}"


@dataclass(frozen=True, slots=True)
class LineK:
    """Affine line L(u, mu) = {x in K : <u, x> + mu = 0}; projectively [u : mu]."""

    params: FieldParams
    ucode: int
    mu: int

    def __post_init__(self):
        if self.params.knorm(self.ucode) != 1:
            raise GeometryError("line direction must lie on the unit circle")

    def points(self) -> list[int]:
        """The q affine points of the line, as K codes."""
        P = self.params
        v = 1 if self.ucode != 1 else unit_circle(P).codes[1]
        x0 = P.kmul(self.mu, P.kmul(int(v), P.finv(P.bform(self.ucode, int(v)))))
        return sorted(x0 ^ P.kmul(lam, self.ucode) for lam in range(P.q))


def incident_k(p: ProjPointK, alpha: int, beta: int) -> bool:
    """Incidence of (x : z) with the line [alpha : beta]."""
    P = p.params
    return (P.bform(alpha, p.xcode) ^ P.fmul(beta, p.z)) == 0


def k_to_h(p: ProjPointK) -> ProjPointH:
    P = p.params
    i = spread_i(P)
    x = P.bform(i, p.xcode)
    y = P.bform(1, p.xcode)
    if p.z:
        return ProjPointH.make(P, x, y, 1)
    return ProjPointH.make(P, x, y, 0)


def h_to_k(p: ProjPointH) -> ProjPointK:
    P = p.params
    i = spread_i(P)
    xc = p.x ^ P.kmul(p.y, i)
    if p.z:
        return ProjPointK.affine(P, xc)
    return ProjPointK.make(P, xc, 0)


def k_codes_to_h_codes(params: FieldParams, xcodes, z) -> np.ndarray:
    """Vectorized K -> H conversion of the points (x : z), as H codes.

    (x : z) is (<i,x> : <1,x> : z) in the H model; z = 1 for affine codes.
    """
    i = spread_i(params)
    xcodes = np.asarray(xcodes, dtype=np.uint32)
    x = params.bform_v(np.uint32(i), xcodes)
    y = params.kT_v(xcodes)  # <1, x> = x + conj x = T(x)
    return normalize_codes_v(params, x, y, np.asarray(z, dtype=np.uint32))


# ---------------------------------------------------------------- line ovals


def is_line_oval(lines: list[LineK]) -> bool:
    """q+1 pairwise nonparallel affine lines, no three concurrent.

    Extended by their points at infinity such a family is a line oval of
    PG(2,q) whose dual nucleus is the line at infinity.
    """
    if not lines:
        return False
    P = lines[0].params
    if len(lines) != P.q + 1:
        raise GeometryError(f"a line oval has q+1 = {P.q + 1} lines, got {len(lines)}")
    if len({l.ucode for l in lines}) != P.q + 1:
        return False
    return bool(np.all(_intersection_counts(lines) <= 1))


def _pairwise_intersections(lines: list[LineK]) -> np.ndarray:
    P = lines[0].params
    u = np.array([l.ucode for l in lines], dtype=np.uint32)
    mu = np.array([l.mu for l in lines], dtype=np.uint32)
    ii, jj = np.triu_indices(len(lines), k=1)
    d = P.bform_v(u[ii], u[jj])
    if np.any(d == 0):
        raise GeometryError("parallel lines in family")
    x = P.kmul_v(np.asarray(mu[jj], dtype=np.uint32), u[ii]) ^ \
        P.kmul_v(np.asarray(mu[ii], dtype=np.uint32), u[jj])
    return P.kmul_v(x, P.kinv_v(d))


def _intersection_counts(lines: list[LineK]) -> np.ndarray:
    """Number of pairs of the family meeting at each K code: all counts are
    at most 1 iff no three lines are concurrent."""
    P = lines[0].params
    return np.bincount(_pairwise_intersections(lines), minlength=P.q * P.q)


def line_oval_points(lines: list[LineK]) -> list[int]:
    """E(O): the q(q+1)/2 points covered by a line oval, sorted K codes.

    Raises unless every covered point lies on exactly two lines of the family.
    """
    P = lines[0].params
    if len({l.ucode for l in lines}) != P.q + 1:
        raise GeometryError("input is not a line oval (repeated directions)")
    counts = _intersection_counts(lines)
    if np.any(counts > 1):
        raise GeometryError("input is not a line oval (three concurrent lines)")
    return np.flatnonzero(counts).tolist()


# ----------------------------------------------------------------- set types


@dataclass(frozen=True)
class Hyperoval:
    """q+2 points, no three collinear; stored as sorted H-model codes."""

    params: FieldParams
    codes: tuple[int, ...]

    @staticmethod
    def make(params: FieldParams, points) -> "Hyperoval":
        codes = sorted(_as_codes(params, points))
        if not is_hyperoval(params, codes):
            raise GeometryError("points do not form a hyperoval")
        return Hyperoval(params, tuple(codes))

    def points(self) -> list[ProjPointH]:
        return [ProjPointH.from_code(self.params, c) for c in self.codes]

    def __contains__(self, p) -> bool:
        return _as_codes(self.params, [p])[0] in set(self.codes)


@dataclass(frozen=True)
class Oval:
    """q+1 points, no three collinear, plus the nucleus all tangents share."""

    params: FieldParams
    codes: tuple[int, ...]
    nucleus_code: int

    @staticmethod
    def make(params: FieldParams, points) -> "Oval":
        codes = sorted(_as_codes(params, points))
        n = nucleus(params, codes)  # validates ovalness on the way
        return Oval(params, tuple(codes), n.code)

    @property
    def nucleus(self) -> ProjPointH:
        return ProjPointH.from_code(self.params, self.nucleus_code)

    def hyperoval(self) -> Hyperoval:
        return Hyperoval.make(self.params, list(self.codes) + [self.nucleus_code])


@dataclass(frozen=True)
class LineOval:
    """q+1 affine lines, pairwise nonparallel, no three concurrent."""

    params: FieldParams
    lines: tuple[LineK, ...]  # sorted by (direction index, mu)

    @staticmethod
    def make(params: FieldParams, lines) -> "LineOval":
        lines = sorted(lines, key=lambda l: (unit_circle(params).index(l.ucode), l.mu))
        if not is_line_oval(list(lines)):
            raise GeometryError("lines do not form a line oval")
        return LineOval(params, tuple(lines))

# ------------------------------------------------------------- serialization


def points_to_json(params: FieldParams, points, model: str = "H") -> str:
    """Point set as a JSON object {"model": ..., "points": [hex, ...]}, sorted."""
    import json
    if model == "H":
        hexes = sorted(ProjPointH.from_code(params, c).hex()
                       for c in _as_codes(params, points))
    elif model == "K":
        out = []
        for p in points:
            if isinstance(p, ProjPointH):
                p = h_to_k(p)
            elif isinstance(p, (int, np.integer)):
                p = h_to_k(ProjPointH.from_code(params, int(p)))
            out.append(p.hex())
        hexes = sorted(out)
    else:
        raise GeometryError("model must be 'H' or 'K'")
    return json.dumps({"model": model, "m": params.m, "points": hexes},
                      sort_keys=True)

