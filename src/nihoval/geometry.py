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
points.

A hyperoval is q+2 points with no three collinear; removing any point leaves
an oval whose nucleus is the removed point.  Collinearity is decided by
pencils in the homogeneous model: through each point, the line to every
other point is coded by its point of PG(1, q), a slope or an intercept, and
three points are collinear iff some row of codes repeats one.  For line
ovals, three lines are concurrent iff their dual points are collinear, and
the covered point set E(O) consists of the pairwise intersection points,
each on exactly two lines; on each line the meeting points are coded by
their parameter t in F, and three lines are concurrent iff some line's row
of parameters repeats one.  Both counts run over blocks of rows of at most
_PENCIL_CELLS cells, one bincount per block.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

from .gf2m import FieldParams, polar_v, spread_i, unit_circle


class GeometryError(ValueError):
    pass


# the pencil counts work on blocks of rows of at most this many cells, so
# their intp temporaries stay under 128 KiB: larger ones are handed back to
# the system and faulted in again on every call
_PENCIL_CELLS = 1 << 14


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
    each point, the lines to the other points are pairwise distinct.

    The lines through p_i are coded by their points of PG(1, q).  For an
    affine p_i the line to p_j has the direction (dx : dy) = (x_j + x_i z_j :
    y_j + y_i z_j), coded as the slope log dy - log dx mod q - 1, q - 1 for
    dy = 0 and q for dx = 0 (_slope_table).  For p_i = (x_i : y_i : 0) the line
    to an affine p_j is coded by its intercept y_i x_j + x_i y_j, and the line
    to a point at infinity, the line at infinity, by q.
    """
    if len(set(codes)) != len(codes):
        return False
    x, y, z = codes_to_coords_v(params, np.array(codes, dtype=np.int64))
    q, logs, slope = params.q, params.f_log.astype(np.intp), _slope_table(params.q)
    affine = np.flatnonzero(z)
    for rows in _row_blocks(affine, len(codes)):
        dx = x[rows, None] * z
        dx ^= x
        dy = y[rows, None] * z
        dy ^= y
        s = np.take(logs, dy)
        s -= np.take(logs, dx)
        if _row_repeats(np.take(slope, s), rows, q + 1):
            return False
    for rows in _row_blocks(np.flatnonzero(z == 0), len(codes)):
        lines = params.fmul_v(x[rows, None], y)
        lines ^= y[rows, None] * x
        lines[:, z == 0] = q
        if _row_repeats(lines, rows, q + 1):
            return False
    return True


@lru_cache(maxsize=None)
def _slope_table(q: int) -> np.ndarray:
    """The code of (dx : dy) in PG(1, q) at s = log dy - log dx in [-2L, 2L],
    L = q - 1 (a negative s read from the end): s mod L where dx, dy != 0,
    L where dy = 0 and q where dx = 0 (log 0 = 2L).  Shared, so read-only."""
    L = q - 1
    s = np.arange(4 * L + 1)
    s[2 * L + 1:] -= 4 * L + 1
    table = np.where(abs(s) < L, s % L, np.where(s > 0, L, q))
    table.flags.writeable = False
    return table


def _row_blocks(rows: np.ndarray, width: int):
    """`rows` in blocks of at most _PENCIL_CELLS cells of `width` columns."""
    step = max(1, _PENCIL_CELLS // max(width, 1))
    return (rows[lo:lo + step] for lo in range(0, len(rows), step))


def _row_repeats(codes: np.ndarray, cols: np.ndarray, n_codes: int) -> bool:
    """True iff some row r of the codes in [0, n_codes) holds one code twice,
    column cols[r] (the row's own point or line) left out.  One bincount over
    (row, code); the left-out cell goes to a bin of its own, n_codes."""
    rows = np.arange(len(codes))
    codes[rows, cols] = n_codes
    bins = codes + (rows * (n_codes + 1))[:, None]
    return bool(np.bincount(bins.reshape(-1)).max() > 1)


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
    mu, distinct = _line_family(params, u, mu)
    return distinct and not any(_row_repeats(t, rows, params.q)
                                for rows, t in _meeting_parameters(params, mu))


def _line_family(params: FieldParams, u, mu) -> tuple[np.ndarray, bool]:
    """mu ordered by direction, so that line k has direction w^k, and
    whether the q+1 directions are distinct."""
    u = np.asarray(u, dtype=np.uint32)
    mu = np.asarray(mu, dtype=np.uint32)
    if len(u) != params.q + 1 or mu.shape != u.shape:
        raise GeometryError(f"a line oval has q+1 = {params.q + 1} lines, got {len(u)}")
    S = unit_circle(params)
    k = S._positions(u)
    if np.any(S.codes[k] != u):
        raise GeometryError("line direction must lie on the unit circle")
    ordered = np.zeros_like(mu)
    ordered[k] = mu
    return ordered, bool(np.all(np.bincount(k, minlength=params.q + 1)))


def _meeting_parameters(params: FieldParams, mu: np.ndarray):
    """Blocks (rows, t) with t[r, j] the parameter on line k = rows[r] of the
    point where line j meets it, for the lines L(w^k, mu[k]).

    On S, <u, u> = T(N(u)) = 0 and <u, i u> = T(conj(i)) = 1, so line k is
    {mu_k i w^k + t w^k : t in F}, and line j meets it at
    t = (mu_j + mu_k e[j-k]) / d[j-k] with d[s] = T(w^s) and
    e[s] = T(conj(i) w^s), indices mod q+1.  d[s] = 0 only at s = 0, where t
    reads 0.  Row k of e[j-k] and d[j-k] is the window at offset q+1-k of the
    doubled table, a view, so a block is formed on the log tables with no
    gather by j - k.
    """
    P = params
    n = P.q + 1
    S = unit_circle(P).codes
    d = P.kT_v(S)
    e = P.kT_v(P.kmul_v(np.uint32(P.kconj(spread_i(P))), S))

    def windows(table):
        return np.lib.stride_tricks.sliding_window_view(np.concatenate([table, table]), n)

    logs = P.f_log.astype(np.intp)
    log_e, log_dinv = windows(logs[e]), windows(logs[P.f_inv[d]])
    log_mu = logs[mu]
    for rows in _row_blocks(np.arange(n), n):
        at = slice(n - rows[0], n - rows[-1] - 1, -1)
        t = np.take(P.f_exp, log_mu[rows, None] + log_e[at])
        t ^= mu
        s = np.take(logs, t)
        s += log_dinv[at]
        yield rows, np.take(P.f_exp, s)


def line_oval_points(params: FieldParams, u, mu) -> list[int]:
    """E(O): the q(q+1)/2 points covered by the line oval {L(u_k, mu_k)},
    sorted K codes.

    Raises unless every covered point lies on exactly two lines of the family.
    """
    P = params
    mu, distinct = _line_family(P, u, mu)
    if not distinct:
        raise GeometryError("input is not a line oval (repeated directions)")
    S = unit_circle(P).codes
    mu_i = P.kmul_v(mu, np.uint32(spread_i(P)))
    points = []
    for rows, t in _meeting_parameters(P, mu):
        if _row_repeats(t, rows, P.q):
            raise GeometryError("input is not a line oval (three concurrent lines)")
        # each point once: at the meeting of line k with a line j > k
        later = np.arange(P.q + 1) > rows[:, None]
        t ^= mu_i[rows, None]         # mu_k i + t on line k, times w^k
        points.append(P.kmul_v(t, S[rows, None])[later])
    return np.sort(np.concatenate(points)).tolist()


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
