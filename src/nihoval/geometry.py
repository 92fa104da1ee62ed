"""PG(2,q) on int point codes in two coordinate models, and the hyperoval and
line-oval predicates.

Homogeneous model: points (x : y : z) over F, normalized so the last nonzero
coordinate is 1, each stored as one int code: x*q + y for (x : y : 1),
q^2 + x for (x : 1 : 0) and q^2 + q for (1 : 0 : 0).  Field model: points
(x : z) with x in K, z in F, normalized to z = 1 or to (u : 0) with u on the
unit circle S; affine lines are L(u, mu) = {x in K : <u, x> + mu = 0} with u
on S, given as arrays of directions u and offsets mu.

The two models are glued by z = x + y*i (i the distinguished trace-one
element), i.e. a point (x : y : 1) corresponds to x + y*i in K and then
x = <i, z>, y = <1, z>; k_codes_to_h_codes and h_codes_to_k convert arrays of
points.  Collinearity is decided once, by determinants over F in the
homogeneous model.

A hyperoval is q+2 points with no three collinear; removing any point leaves
an oval whose nucleus is the removed point.  For line ovals, three lines are
concurrent iff their dual points are collinear, and the covered point set
E(O) consists of the pairwise intersection points, each on exactly two lines.
"""

from __future__ import annotations

import json

import numpy as np

from .gf2m import FieldParams, polar_v, spread_i, unit_circle


class GeometryError(ValueError):
    pass


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
    """Normalized coordinates of point codes; each must lie in [0, q^2 + q]."""
    q = params.q
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size and (codes.min() < 0 or codes.max() > q * q + q):
        raise GeometryError(f"not a point code of PG(2,{q}): outside [0, {q * q + q}]")
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


def k_codes_to_h_codes(params: FieldParams, xcodes, z) -> np.ndarray:
    """Vectorized K -> H conversion of the points (x : z), as H codes.

    (x : z) is (<i,x> : <1,x> : z) in the H model; z = 1 for affine codes.
    """
    i = spread_i(params)
    xcodes = np.asarray(xcodes, dtype=np.uint32)
    x = params.bform_v(np.uint32(i), xcodes)
    y = params.kT_v(xcodes)  # <1, x> = x + conj x = T(x)
    return normalize_codes_v(params, x, y, np.asarray(z, dtype=np.uint32))


def h_codes_to_k(params: FieldParams, codes) -> tuple[np.ndarray, np.ndarray]:
    """The inverse of k_codes_to_h_codes: the normalized K points (x : z) of
    H codes, x + y*i at z = 1 and the direction u on S of x + y*i at z = 0."""
    x, y, z = codes_to_coords_v(params, codes)
    xk = x ^ params.kmul_v(y, np.uint32(spread_i(params)))
    at_inf = z == 0
    _, l = polar_v(params, xk[at_inf])
    xk[at_inf] = unit_circle(params).codes[l]
    return xk, z


# --------------------------------------------------------------- predicates


def is_hyperoval(params: FieldParams, points) -> bool:
    """True iff `points` is a set of q+2 points with no three collinear."""
    codes = _as_codes(params, points)
    if len(codes) != params.q + 2:
        raise GeometryError(f"a hyperoval has q+2 = {params.q + 2} points, got {len(codes)}")
    return no_three_collinear(params, codes)


def _as_codes(params: FieldParams, points) -> list[int]:
    """The point codes as ints; each must name a point, 0 <= code <= q^2 + q."""
    top = params.q * params.q + params.q
    out = []
    for p in points:
        if not isinstance(p, (int, np.integer)) or not 0 <= p <= top:
            raise GeometryError(f"not a point code of PG(2,{params.q}): {p!r}")
        out.append(int(p))
    return out


# ---------------------------------------------------------------- line ovals


def is_line_oval(params: FieldParams, u, mu) -> bool:
    """The q+1 affine lines L(u_k, mu_k) are pairwise nonparallel, no three
    concurrent.

    Extended by their points at infinity such a family is a line oval of
    PG(2,q) whose dual nucleus is the line at infinity.
    """
    u, mu, distinct = _line_family(params, u, mu)
    return distinct and bool(np.all(_intersection_counts(params, u, mu) <= 1))


def _line_family(params: FieldParams, u, mu) -> tuple[np.ndarray, np.ndarray, bool]:
    """u and mu as uint32 arrays, and whether the q+1 directions are distinct."""
    u = np.asarray(u, dtype=np.uint32)
    mu = np.asarray(mu, dtype=np.uint32)
    if len(u) != params.q + 1 or mu.shape != u.shape:
        raise GeometryError(f"a line oval has q+1 = {params.q + 1} lines, got {len(u)}")
    directions = set(u.tolist())
    if not directions <= set(unit_circle(params).codes.tolist()):
        raise GeometryError("line direction must lie on the unit circle")
    return u, mu, len(directions) == params.q + 1


def _pairwise_intersections(params: FieldParams, u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    P = params
    ii, jj = np.triu_indices(len(u), k=1)
    d = P.bform_v(u[ii], u[jj])
    if np.any(d == 0):
        raise GeometryError("parallel lines in family")
    x = P.kmul_v(mu[jj], u[ii]) ^ P.kmul_v(mu[ii], u[jj])
    return P.kmul_v(x, P.kinv_v(d))


def _intersection_counts(params: FieldParams, u: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Number of pairs of the family meeting at each K code: all counts are
    at most 1 iff no three lines are concurrent."""
    return np.bincount(_pairwise_intersections(params, u, mu), minlength=params.q ** 2)


def line_oval_points(params: FieldParams, u, mu) -> list[int]:
    """E(O): the q(q+1)/2 points covered by the line oval {L(u_k, mu_k)},
    sorted K codes.

    Raises unless every covered point lies on exactly two lines of the family.
    """
    u, mu, distinct = _line_family(params, u, mu)
    if not distinct:
        raise GeometryError("input is not a line oval (repeated directions)")
    counts = _intersection_counts(params, u, mu)
    if np.any(counts > 1):
        raise GeometryError("input is not a line oval (three concurrent lines)")
    return np.flatnonzero(counts).tolist()


# ------------------------------------------------------------- serialization


def points_to_json(params: FieldParams, codes, model: str = "H") -> str:
    """Point set as a JSON object {"model": ..., "points": [hex, ...]}, sorted."""
    codes = _as_codes(params, codes)
    if model == "H":
        coords = zip(*codes_to_coords_v(params, codes))
        hexes = [":".join(params.f_hex(int(c)) for c in p) for p in coords]
    elif model == "K":
        hexes = [f"{params.k_hex(int(x))}:{params.f_hex(int(z))}"
                 for x, z in zip(*h_codes_to_k(params, codes))]
    else:
        raise GeometryError("model must be 'H' or 'K'")
    return json.dumps({"model": model, "m": params.m, "points": sorted(hexes)},
                      sort_keys=True)
