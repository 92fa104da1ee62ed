"""Collineations of PG(2,q), hyperoval stabilizers and equivalence classes.

A collineation is x -> M * x^(2^j) with M in PGL(3,q) (canonically scaled)
and j a Frobenius power.  The search finds every collineation mapping an arc
S onto an arc T of the same size (S = T for a stabilizer) by torus keys:

* Fix a source triangle (P0, P1, P2).  For each j and each ordered image
  triangle (A, B, C) of T, the projectivities sending P_i^(2^j) to (A, B, C)
  are diagonal in those bases: a two-dimensional torus.
* A point Y of T off the triangle has the key
  (log l0 - log l1, log l0 - log l2) in Z_(q-1)^2, where
  l = (L_BC.Y, L_CA.Y, L_AB.Y) and L_BC = B x C is the line BC.  In that
  basis a torus element acts on keys as a translation t, and the Frobenius
  multiplies source keys by 2^j.  So (j, A, B, C, t) is a hit iff
  2^j K_src(X) + t is a key of T for every other source point X.
* log(L_ab . X_l) is tabulated once per point set as an N x N x N cube L,
  from the pairs a < b only (L_ba = L_ab in characteristic 2), with
  N^2 (N - 1) / 2 field products.  After that the search is integer work
  only: with A = L[a], the keys of the points y relative to a triangle
  (a, b, c) are k0 = L[b, c] - A[c] and k1 = L[b, c] - A[b] mod q - 1,
  gathered for the pair rows (b, c) a chunk keeps, and an entry whose
  a, b, c, y are not distinct reads the log of 0, which the cube holds as
  -2(q - 1), outside every key range.  On an
  arc the keys relative to a triangle form a permutation graph
  k1 = pi(k0), so one row of 2(q-1) slots per pair row (b, c) holds k1 and
  the image index at k0 and at k0 + q - 1.  Candidate translations come
  from the image of the fourth source point; gathers from the rows prune
  them.
* Every hit is one group element, and the hits with first image A form the
  coset {g : g(P0) = A}.  A stabilizer search counts only the chunk A = P0,
  Stab(P0): |G| = |Stab(P0)| * |P0^G|.  It counts Stab(P0) along the base
  (P0, P1, P2), not hit by hit: |Stab(P0)| = n1 * n2 * n3, with n1 the
  images of P1, n2 the images of P2 with P1 fixed and n3 the elements
  fixing P1 and P2, so one checked hit decides each image of P1 or P2.
  Every other A needs one hit or a proof of none, and no chunk at all once
  the elements found so far put it in P0's orbit or in the orbit of a point
  without a hit.  Stab(P0) and one hit per reached A generate the group, so
  the closure of their point images (table lookups) is the orbit partition.
* point_invariant is an exact collineation invariant of a point of the set,
  so an A whose invariant differs from P0's is outside P0's orbit and runs
  no chunk; only A that tie P0's invariant need one.  The least point of
  every orbit is reached undecided, so the invariants the search computes
  cover every orbit, and the stabilizer reports one per orbit.
* The invariant is built per pair row: n_A[b, c] counts the pairs of points
  whose keys relative to (A, b, c) share v = k1 - 2*k0.  A collineation g
  maps row (b, c) of A onto row (gb, gc) of gA with the same count, so a hit
  taking (P0, P1, P2) to (A, b, c) needs n_A[b, c] = n_P0[P1, P2].  Every
  chunk runs over those pair rows only, which the invariant of A (computed
  anyway) names.  Chunk P0 of the catalog's non-classical hyperovals from
  q = 32 to 128 keeps 0.2-11 % of the rows (Segre at q = 32: 35 %); the
  hyperconic and translation hyperovals keep nearly all.
* The sample elements are one hit per coset of each stabilizer along the
  base (P0, P1, P2, P3), so they generate Stab(P0) (Schreier).  They are
  kept as permutations of the points: the stabilizer of a hyperoval acts
  faithfully on it.  Only the witness of are_equivalent gets a matrix,
  from the four image points of the source quadrangle (P0, P1, P2, P3).
* A zero in the line-log table means three collinear points: the input is
  not an arc and the search raises EquivError.

The search has two modes, both over the first image points A in index order
(one A when `marked` pins it).  Each chunk runs over the triangles (A, b, c)
of its kept pair rows, whose slot tables are formed one slab of rows at a
time.  The orbit search (stabilizer) counts chunk P0 along the base and
runs a first-hit chunk for each undecided A.  The witness search
(are_equivalent, optionally with a marked point: nucleus -> nucleus for
oval equivalence) runs first-hit chunks until one has a hit.  A first-hit
chunk stops at its first slab with a hit, and an A whose invariant differs
from the source P0's runs no chunk.
point_invariant reads v of all triangles at one point straight off the
cube, with one table lookup per entry.
classify_bent takes the invariant of each class's nucleus from the
stabilizer's orbit invariants and runs the marked search only for classes
whose invariants tie.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import bent as bent_mod
from . import geometry, gfun
from .gf2m import FieldParams


class EquivError(ValueError):
    pass


# ------------------------------------------------------------- collineations


@dataclass(frozen=True)
class Collineation:
    """x -> M * x^(2^frob) on PG(2,q); M row-major, canonically scaled."""

    params: FieldParams
    matrix: tuple[int, ...]  # 9 entries
    frob: int

    @staticmethod
    def make(params: FieldParams, matrix, frob: int) -> "Collineation":
        m = [int(v) for v in matrix]
        lead = next((v for v in m if v), 0)
        if lead == 0:
            raise EquivError("singular matrix")
        li = params.finv(lead)
        m = tuple(params.fmul(v, li) for v in m)
        return Collineation(params, m, frob % params.m)

    def apply_code(self, code: int) -> int:
        """The H code of the image of the point with H code `code`."""
        P = self.params
        q2 = P.q * P.q
        if not 0 <= code <= q2 + P.q:
            raise geometry.GeometryError(f"not a point code of PG(2,{P.q}): {code!r}")
        x, y, z = ((code // P.q, code % P.q, 1) if code < q2
                   else (code - q2, 1, 0) if code < q2 + P.q else (1, 0, 0))
        fr = P.f_frob[self.frob]
        x, y, z = int(fr[x]), int(fr[y]), int(fr[z])
        M = self.matrix
        u, v, w = (P.fmul(M[r], x) ^ P.fmul(M[r + 1], y) ^ P.fmul(M[r + 2], z)
                   for r in (0, 3, 6))
        if w:
            wi = P.finv(w)
            return P.fmul(u, wi) * P.q + P.fmul(v, wi)
        if v:
            return q2 + P.fmul(u, P.finv(v))
        if u:
            return q2 + P.q
        raise EquivError("singular matrix: the image is (0:0:0)")

    def compose(self, other: "Collineation") -> "Collineation":
        """self after other: x -> M1 (M2 x^(2^j2))^(2^j1)."""
        P = self.params
        fr = P.f_frob[self.frob]
        m2 = [int(fr[v]) for v in other.matrix]
        m1 = self.matrix
        out = []
        for r in range(3):
            for c in range(3):
                acc = 0
                for k in range(3):
                    acc ^= P.fmul(m1[3 * r + k], m2[3 * k + c])
                out.append(acc)
        return Collineation.make(P, out, self.frob + other.frob)

    def inverse(self) -> "Collineation":
        P = self.params
        M = self.matrix
        adj = _adjugate3(P, M)
        jinv = (-self.frob) % P.m
        fr = P.f_frob[jinv]
        return Collineation.make(P, [int(fr[v]) for v in adj], jinv)

    def det(self) -> int:
        P, M = self.params, self.matrix
        return (P.fmul(M[0], P.fmul(M[4], M[8]) ^ P.fmul(M[5], M[7]))
                ^ P.fmul(M[1], P.fmul(M[3], M[8]) ^ P.fmul(M[5], M[6]))
                ^ P.fmul(M[2], P.fmul(M[3], M[7]) ^ P.fmul(M[4], M[6])))


def _adjugate3(P: FieldParams, M) -> list[int]:
    """Adjugate of a row-major 3x3 over GF(2^m) (signs vanish in char 2)."""
    a, b, c, d, e, f, g, h, i = M
    return [P.fmul(e, i) ^ P.fmul(f, h), P.fmul(b, i) ^ P.fmul(c, h), P.fmul(b, f) ^ P.fmul(c, e),
            P.fmul(d, i) ^ P.fmul(f, g), P.fmul(a, i) ^ P.fmul(c, g), P.fmul(a, f) ^ P.fmul(c, d),
            P.fmul(d, h) ^ P.fmul(e, g), P.fmul(a, h) ^ P.fmul(b, g), P.fmul(a, e) ^ P.fmul(b, d)]


# ------------------------------------------------------------ batch helpers


def _coords_of_codes(params: FieldParams, codes) -> np.ndarray:
    x, y, z = geometry.codes_to_coords_v(params, np.asarray(codes, dtype=np.int64))
    return np.stack([x, y, z], axis=-1).astype(np.uint32)


def _frame_matrix(P: FieldParams, quad: np.ndarray) -> np.ndarray:
    """3x3 taking the standard frame to the 4 rows of `quad` (up to scale)."""
    A, B, C, D = (quad[k] for k in range(4))
    cols = [int(v) for v in np.stack([A, B, C], axis=-1).reshape(-1)]
    adj = _adjugate3(P, cols)
    s = [P.fmul(adj[3 * r], int(D[0])) ^ P.fmul(adj[3 * r + 1], int(D[1]))
         ^ P.fmul(adj[3 * r + 2], int(D[2])) for r in range(3)]
    if not all(s):
        raise EquivError("frame points are not in general position")
    return np.array([P.fmul(cols[3 * r + c], s[c]) for r in range(3) for c in range(3)],
                    dtype=np.uint32).reshape(3, 3)


_LOG_SLAB_CELLS = 66 ** 3      # cube entries per slab: one slab up to q = 64


def _line_logs(P: FieldParams, pts: np.ndarray) -> np.ndarray:
    """The N x N x N cube of log(L_ab . X_l) at [a, b, l]; L_ab = X_a x X_b is the line XaXb.

    L_aa vanishes and L_ab vanishes on X_a and X_b; any further zero means
    three collinear (or two equal) points, which the torus keys cannot use.
    Logs lie in [0, q - 1); the log of 0 reads _zero_log(q - 1) = -2(q - 1)
    (not the 2(q - 1) of the field's own table), which keeps it out of the
    key and invariant ranges.  In characteristic 2, L_ba = L_ab, so only the
    pairs a < b are computed and mirrored, in slabs of at most
    _LOG_SLAB_CELLS entries, which bounds the uint32 temporaries.
    """
    fm = P.fmul_v
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    n = len(pts)
    out = np.empty((n, n, n), dtype=_key_dtype(P.q - 1))
    log = P.f_log.astype(out.dtype)
    log[0] = _zero_log(P.q - 1)
    out[np.arange(n), np.arange(n)] = log[0]
    first, second = np.triu_indices(n, 1)
    zeros = 0
    slab = max(1, _LOG_SLAB_CELLS // n)
    for lo in range(0, len(first), slab):
        a, b = first[lo:lo + slab], second[lo:lo + slab]
        l0 = fm(y[a], z[b]) ^ fm(z[a], y[b])
        l1 = fm(z[a], x[b]) ^ fm(x[a], z[b])
        l2 = fm(x[a], y[b]) ^ fm(y[a], x[b])
        dots = fm(l0[:, None], x)
        dots ^= fm(l1[:, None], y)
        dots ^= fm(l2[:, None], z)
        zeros += np.count_nonzero(dots == 0)
        out[a, b] = out[b, a] = log[dots]
    if zeros != 2 * len(first):
        raise EquivError("three of the points are collinear: not an arc")
    return out


_FAN_SLAB_CELLS = 1 << 16      # _fan entries (kept rows times N) per slab of a chunk
_EXIT_FIRST_ROWS = 128         # kept rows in the first slab of a first-hit chunk
_INVARIANT_SLAB_CELLS = 1 << 14   # cube entries per slab of b in an invariant


def _zero_log(Q: int) -> int:
    """The log of 0 in the line-log cube: -2Q lies outside the logs [0, Q)
    and puts every s of _point_invariant that reads it outside
    [-2Q + 2, 2Q - 2]."""
    return -2 * Q


def _key_dtype(Q: int):
    """Narrowest dtype for logs, keys, key offsets and point indices.  Logs lie
    in [0, Q) plus -2Q (the log of 0), so _fan's log differences lie in
    [-3Q, 3Q] and the search forms -2Q - key: int16 only while 3Q < 2^15
    (m <= 13)."""
    return np.int16 if 3 * Q < 1 << 15 else np.int32


def _sum_dtype(Q: int):
    """Dtype of the invariant's s = 2*A - A - L in [-6Q, 6Q]: int16 only while
    6Q < 2^15 (m <= 12)."""
    return np.int16 if 6 * Q < 1 << 15 else np.int32


def _fan(LL: np.ndarray, Q: int, a: int, b, c):
    """Torus keys of every point y relative to the triangles (a, b[i], c[i]),
    b and c index arrays: k0, k1 and the mask `bad`, each over (i, y).  k0
    and k1 lie in [0, Q) where a, b, c and y are pairwise distinct; `bad`
    marks the other entries, exactly those where a log reads -2Q (the log of
    0)."""
    A = LL[a]                        # A[c, y] = log(L_ac . X_y)
    L, Ab, Ac = LL[b, c], A[b], A[c]
    k0, k1 = L - Ac, L - Ab
    for k in (k0, k1):               # a difference of two logs in [0, Q) wraps once
        k += (k < 0) * k.dtype.type(Q)
    zero = _zero_log(Q)
    return k0, k1, (L == zero) | (Ac == zero) | (Ab == zero)


# ----------------------------------------------------------- the enumeration


@dataclass
class _SearchResult:
    order: int = 0                      # orbit searches: |G|
    classes: np.ndarray | None = None   # orbit searches: least point of each point's orbit
    witness: Collineation | None = None
    generators: list = field(default_factory=list)   # point permutations, orbit searches
    invariants: dict = field(default_factory=dict)   # point -> _point_invariant, orbit searches


@dataclass(frozen=True)
class _Torus:
    """What every chunk of one search shares (read only)."""
    LL: np.ndarray          # destination line-log cube (_line_logs)
    N: int
    Q: int                  # q - 1, the order of each torus coordinate
    shifts: np.ndarray      # (m, 2, N-4) source key offsets (d0, d1) from the fourth point
    src_order: np.ndarray   # source indices: base triangle, fourth point, the rest


def _search(params: FieldParams, src_codes, dst_codes, *,
            marked: tuple[int, int] | None = None,
            orbits: bool = False) -> _SearchResult:
    """Find collineations mapping the src set onto the dst set.

    `marked` = (src_code, dst_code) pins the image of one point.  Without
    `orbits` this is the witness search: each first image a whose
    point_invariant ties that of the source's P0 runs its first-hit chunk
    (_process_chunk), until one has a hit, which becomes `witness`.  With
    `orbits` (src = dst) it is the orbit search, which finds the group G by
    orbit-stabilizer:

    * chunk P0 is counted along the base (_chain_count), for |Stab(P0)| and
      its samples;
    * each other first image a is visited in index order.  It is skipped if
      the relation "x ~ g(x)" over the elements recorded so far puts it in
      P0's class (then a is in P0^G) or in the class of a point known to be
      outside P0^G (G preserves P0^G, so a is outside it too).  Otherwise
      a's point_invariant is computed: if it differs from P0's, a is outside
      P0^G.  If it ties, chunk a runs to its first hit: a hit records one
      element g with g(P0) = a, no hit puts a outside P0^G.

    Every chunk a runs only over the pair rows (b, c) with
    n_a[b, c] = n_P0[P1, P2], read off a's invariant: a collineation maps
    row (P1, P2) of P0 onto row (b, c) of a with the same count, so no
    other row holds a hit.  The rows keep their order, so the count, the
    samples and the first hit are those over all N^2 rows.  P0's invariant,
    computed once, serves as the source's and as chunk P0's when src is
    dst.

    Stab(P0) and one element per positive chunk generate G, so the final
    classes are the orbits (`classes`), the order is |Stab(P0)| times the
    size of P0's orbit and `generators` generate G.  `invariants` maps each
    visited point and P0 to its invariant; that includes the least point of
    every orbit, which no earlier point can decide.  EquivError is raised
    when chunk P0 has no hit or a point found outside P0^G ends up in P0's
    orbit.  That check is partial: a positive chunk wrongly reported empty
    is caught only if a later chunk joins its point to P0's class, else the
    order comes out too small.  Points refuted by their invariant are
    outside P0^G by proof, so the gap is left only for points that tie
    P0's invariant.  Inside chunk P0, row (P1, P2) holds the identity, so
    n3 = 0 raises, and _chain_count checks n1 against the orbit of P1 under
    the samples and n2 against that of P2 under the samples fixing P1.  A
    stream wrongly left empty undercounts n1 or n2, and is caught when the
    other samples still reach its image.  They do whenever that level has
    more than two images: with all of Stab(P0, P1), a subgroup reaching
    n1 - 1 of the n1 images of P1 reaches all of them, since its orbit size
    divides n1 (likewise for n2).  The gap left is a lost stream at a level
    of two images, or several lost at once; the tests cover it against the
    count of every hit of chunk P0.
    """
    P = params
    Q, m = P.q - 1, P.m
    src_codes = [int(c) for c in src_codes]
    dst_codes = [int(c) for c in dst_codes]
    N = len(src_codes)
    if len(dst_codes) != N:
        raise EquivError("point sets differ in size")
    if N < 4:
        raise EquivError("the search needs at least four points")
    src = _coords_of_codes(P, src_codes)
    dst = _coords_of_codes(P, dst_codes)
    LLs = _line_logs(P, src)
    LLd = LLs if dst_codes == src_codes else _line_logs(P, dst)

    # source base triangle and fourth point: marked point first when present
    order = list(range(N))
    firsts = range(N)
    if marked is not None:
        if marked[0] not in src_codes or marked[1] not in dst_codes:
            raise EquivError("marked point is not in the point set")
        ms = src_codes.index(marked[0])
        order = [ms] + [k for k in range(N) if k != ms]
        firsts = [dst_codes.index(marked[1])]
    p0 = order[0]
    if orbits and (dst_codes != src_codes or p0 not in firsts):
        raise EquivError("an orbit search maps a point set (and a marked point) to itself")
    # keys of the other source points minus the fourth point's key, times 2^j
    k0, k1 = (k[0, order[3:]] for k in _fan(LLs, Q, order[0], [order[1]], [order[2]])[:2])
    d = np.stack([k0[1:] - k0[0], k1[1:] - k1[0]])
    shifts = np.array([d.astype(np.int64) * (1 << j) % Q for j in range(m)],
                      dtype=LLs.dtype)
    ctx = _Torus(LLd, N, Q, shifts, np.array(order))
    res = _SearchResult()
    # a hit maps (P0, P1, P2) to (a, b, c) only where n_a[b, c] = n_P0[P1, P2]
    inv0, n0 = _point_invariant(LLs, Q, p0)
    want = n0[order[1] * N + order[2]]
    row_dtype = np.int32 if N * N * 2 * Q < 1 << 31 else np.int64

    def invariant(a):     # a's invariant and row counts; P0's are known when src is dst
        return (inv0, n0) if LLd is LLs and a == p0 else _point_invariant(LLd, Q, a)

    def kept(n):          # the ascending pair rows b*N + c whose count is the base's
        return np.flatnonzero(n == want).astype(row_dtype)

    if not orbits:
        for a in firsts:
            v, n = invariant(a)
            if v != inv0:
                continue
            found = _process_chunk(ctx, a, kept(n))
            if found:
                # N_Q1 * frob_j(N_Q0^-1), Q0 the source quadrangle, Q1 its images
                j, images = found[0]
                quad = order[:4]
                base = Collineation.make(P, _frame_matrix(P, src[quad]).reshape(-1), 0)
                res.witness = Collineation.make(
                    P, _frame_matrix(P, dst[images[quad]]).reshape(-1), j).compose(base.inverse())
                break
        return res
    stab, found = _chain_count(ctx, p0, kept(n0))
    if stab < 1:
        raise EquivError("chunk P0 has no hit, against orbit-stabilizer")
    least = np.arange(N)        # least[x]: the least point of the class of x
    picks, negative = {}, []    # picks: the samples' point images, in the order found

    def keep(images):
        picks.setdefault(tuple(images.tolist()))
        _join(least, images)

    for _, images in found:
        keep(images)
    inv = res.invariants
    inv[p0] = inv0

    for a in firsts:
        if a == p0 or least[a] == least[p0] or least[a] in least[negative]:
            continue
        inv[a], n = invariant(a)
        found = _process_chunk(ctx, a, kept(n)) if inv[a] == inv0 else []
        if found:
            keep(found[0][1])
        else:
            negative.append(a)
    if np.any(least[negative] == least[p0]):
        raise EquivError("a point whose chunk has no hit lies in P0's orbit, "
                         "against orbit-stabilizer")
    res.order = stab * int(np.count_nonzero(least == least[p0]))
    res.classes = least
    res.generators = list(picks)
    return res


def _join(least: np.ndarray, images: np.ndarray) -> None:
    """Merge the classes of x and images[x] for every point x, in place;
    least[x] is the least point of the class of x."""
    for x in np.flatnonzero(least != least[images]):
        u, v = least[x], least[images[x]]
        if u != v:
            least[least == max(u, v)] = min(u, v)


def _slabs(rows: np.ndarray, N: int, size: int):
    """Bounds (lo, hi) of successive slabs of the ascending pair rows b*N + c
    in `rows`.  The first slab holds at most `size` rows and each next one
    at most twice as many as the last, up to _FAN_SLAB_CELLS // N rows.  A
    slab ends where the rows of one b end, and holds the rows of at least
    one b."""
    ends = np.searchsorted(rows, np.arange(1, N + 1) * N).tolist()
    cap = max(1, _FAN_SLAB_CELLS // N)
    size, lo = min(size, cap), 0
    while lo < len(rows):
        k = bisect.bisect_right(ends, lo + size)        # ends[:k] <= lo + size
        hi = ends[k - 1] if k and ends[k - 1] > lo else ends[bisect.bisect_right(ends, lo)]
        yield lo, hi
        lo, size = hi, min(2 * size, cap)


class _Slab:
    """The slot tables of the pair rows `rows` of chunk a, and the checks
    that read them.

    The keys of the points off a triangle form a permutation graph
    k1 = pi(k0) (an arc meets each line through c in at most one more
    point), so row i of the slab, the pair row rows[i] = b*N + c, holds k1
    and the image index at column k0 of each point, and again at k0 + Q:
    k0 + offset needs no reduction.  A slot left empty (an arc smaller than
    a hyperoval, or a pair row whose a, b, c are not distinct) holds
    k1 = -2Q and never matches.  Candidate h, the point y of row i, sits at
    base[h] = i*2Q + k0, in (i, y) order, so in (b, c, y) order.
    """

    def __init__(self, ctx: _Torus, a: int, rows: np.ndarray):
        N, Q = ctx.N, ctx.Q
        self.ctx, self.a, self.rows, self.W = ctx, a, rows, 2 * Q
        k0, k1, bad = _fan(ctx.LL, Q, a, rows // N, rows % N)
        t = np.flatnonzero(~bad).astype(rows.dtype)      # i*N + y
        self.base = t // N * self.W + k0.reshape(-1)[t]
        self.k1 = k1.reshape(-1)[t]
        self.k1row = np.full(len(rows) * self.W, -self.W, dtype=k1.dtype)
        self.yrow = np.zeros(len(self.k1row), dtype=k1.dtype)     # point index y
        for lift in (0, Q):
            self.k1row[self.base + lift] = self.k1
            self.yrow[self.base + lift] = t % N

    def holds(self, cand, d0, d1):
        # the slot at k0 + d0 of the candidate's row holds k1 + d1 mod Q
        diff = self.k1row[self.base[cand] + d0] - self.k1[cand]
        return (diff == d1) | (diff == d1 - self.ctx.Q)

    def survivors(self, j: int, cand=None) -> np.ndarray:
        """One candidate translation per (b, c, y), y the image of the fourth
        source point, at Frobenius power j: those of the ascending candidates
        `cand` (None: all) that hold on the fifth and sixth source points."""
        d0, d1 = self.ctx.shifts[j]
        if not len(d0):
            return np.arange(len(self.base)) if cand is None else cand
        if cand is None:            # every candidate: the probe needs no gather
            alive = np.flatnonzero(self.holds(slice(None), d0[0], d1[0]))
        else:
            alive = cand[self.holds(cand, d0[0], d1[0])]
        return alive[self.holds(alive, d0[1], d1[1])] if len(d0) > 1 else alive

    def hits(self, cand: np.ndarray, j: int, first: bool = False) -> np.ndarray:
        """The hits at power j among the ascending candidates `cand`, checked
        on every source point in blocks of _FAN_SLAB_CELLS // N, which bounds
        the memory; with `first`, only those of the first block with a hit."""
        d0, d1 = self.ctx.shifts[j]
        step = max(1, _FAN_SLAB_CELLS // self.ctx.N)
        out = []
        for lo in range(0, len(cand), step):
            block = cand[lo:lo + step]
            out.append(block[self.holds(block[:, None], d0, d1).all(axis=1)])
            if first and len(out[-1]):
                break
        return np.concatenate(out) if out else cand[:0]

    def corners(self, h) -> np.ndarray:
        """The rows (a, b, c, y) of the candidates h: the images of the source
        quadrangle."""
        b, c = np.divmod(self.rows[self.base[h] // self.W], self.ctx.N)
        return np.stack([np.full_like(b, self.a), b, c, self.yrow[self.base[h]]], axis=1)

    def elements(self, h, j) -> list:
        """(j[k], images) of candidate h[k] at power j[k]: images[x] is the
        index of the image of source point x."""
        ctx, h, j = self.ctx, np.asarray(h), np.asarray(j)
        images = np.empty((len(h), ctx.N), dtype=np.int64)
        images[:, ctx.src_order[:4]] = self.corners(h)
        images[:, ctx.src_order[4:]] = self.yrow[self.base[h][:, None] + ctx.shifts[j, 0]]
        return list(zip(j.tolist(), images))


def _process_chunk(ctx: _Torus, a: int, rows: np.ndarray) -> list:
    """The first hit that maps the source triangle to (a, b, c), over the
    pair rows b*N + c in `rows` (ascending), in (b, c, j, y) order.

    A hit is the Frobenius power j and the image (a, b, c, y) of the source
    quadrangle (P0, P1, P2, P3).  Returns `found`: empty, or the one pair
    (j, images) of the first hit, images[x] the index of the image of
    source point x (the quadrangle's images are images[src_order[:4]]).
    The rows run in slabs that double from _EXIT_FIRST_ROWS, and the chunk
    returns at the first slab with a hit.  Each slab builds the slot tables
    of its rows only (_Slab), at most _FAN_SLAB_CELLS // N rows (or those
    of one b), which bounds the memory.
    """
    for lo, hi in _slabs(rows, ctx.N, _EXIT_FIRST_ROWS):
        slab = _Slab(ctx, a, rows[lo:hi])
        # the first hit in (b, c, j, y) order: the least row, then the least j
        first = None
        for j in range(len(ctx.shifts)):
            hits = slab.hits(slab.survivors(j), j, first=True)
            if len(hits) and (first is None or
                              slab.base[hits[0]] // slab.W < slab.base[first[0]] // slab.W):
                first = hits[0], j
        if first is not None:
            return slab.elements([first[0]], [first[1]])
    return []


def _chain_count(ctx: _Torus, a: int, rows: np.ndarray):
    """|Stab(P0)| and its samples, for chunk P0 of an orbit search (a = P0,
    the destination the source), over the pair rows `rows` (ascending).

    Returns (|Stab(P0)|, found), `found` the samples as (j, images) pairs
    like those of _process_chunk.  |Stab(P0)| = n1 * n2 * n3: n1 counts the
    images b of P1 with a hit (P1 included), n2 the images c of P2 with a
    hit in row block P1 (P2 included), and n3 the hits in row (P1, P2),
    over all j.  So one hit per stream decides it: the rows of one b != P1 form a stream, and so does
    each row (P1, c) with c != P2.  For each j in ascending order, after the
    probes, only the first survivor of each undecided stream is checked,
    and a stream whose survivor fails tries its next one; every survivor of
    row (P1, P2) is checked.  The slabs hold whole rows of b, so each stream
    lies in one slab.

    The samples are one hit per coset of each stabilizer along the base
    (P0, P1, P2, P3): the first hit per image of P1, of P2 among the hits
    fixing P1, of P3 among those fixing P1 and P2, and per j among those
    fixing all three, each at the lowest j with such a hit.  By Schreier's
    lemma they generate Stab(P0).  A stream's first hit is its first hit in
    (c, y) order at the lowest j; the others lie in row block P1, whose
    lowest j with a hit finds the first hit of every stream there.  Point
    images are gathered for the samples only, in (level, image) order.
    """
    N, m = ctx.N, len(ctx.shifts)
    base = ctx.src_order[1:4].tolist()
    p1, p2 = base[:2]
    # streams with a hit: b for b != P1, N + c in row block P1, and 2N for
    # row (P1, P2), which never closes
    done = np.zeros(2 * N + 1, dtype=bool)
    n3, samples = 0, {}
    for lo, hi in _slabs(rows, N, N * N):
        slab = _Slab(ctx, a, rows[lo:hi])
        firsts = {}     # (level, image) -> (h, j); each lies in one slab
        b, c = np.divmod(slab.rows, N)
        stream = np.where(b != p1, b, N + c)
        stream[slab.rows == p1 * N + p2] = 2 * N
        stream = stream[slab.base // slab.W]          # of each candidate
        for j in range(m):
            undecided = ~done[stream]
            if not undecided.any():
                break
            cand = None if undecided.all() else np.flatnonzero(undecided)
            pending, found = slab.survivors(j, cand), []
            while len(pending := pending[~done[stream[pending]]]):
                s = stream[pending]
                first = s == 2 * N
                first[0] = True
                first[1:] |= s[1:] != s[:-1]
                found.append(slab.hits(pending[first], j))
                done[stream[found[-1]]] = True
                done[-1] = False
                pending = pending[~first]
            hits = np.sort(np.concatenate(found)) if found else pending
            n3 += int(np.count_nonzero(stream[hits] == 2 * N))
            for h, corners in zip(hits.tolist(), slab.corners(hits)[:, 1:].tolist()):
                for level in range(4):
                    firsts.setdefault((level + 1, corners[level] if level < 3 else j), (h, j))
                    if level == 3 or corners[level] != base[level]:
                        break
        if firsts:
            samples.update(zip(firsts, slab.elements(*zip(*firsts.values()))))
    n2 = int(np.count_nonzero(done[N:2 * N])) + (n3 > 0)
    n1 = int(np.count_nonzero(done[:N])) + (n2 > 0)
    keys = sorted(samples)
    found = [samples[k] for k in keys]
    if n3:      # the samples generate Stab(P0), and those of level >= 2 Stab(P0, P1)
        perms = np.array([images for _, images in found])
        upper = np.array([level >= 2 for level, _ in keys])
        if _orbit_size(perms[upper], p2) != n2 or _orbit_size(perms, p1) != n1:
            raise EquivError("a stream of chunk P0 has no hit, against its samples")
    return n1 * n2 * n3, found


def _orbit_size(perms: np.ndarray, x: int) -> int:
    """The size of the orbit of point x under the group that the rows of
    `perms` (point permutations) generate."""
    orbit = np.zeros(perms.shape[1], dtype=bool)
    orbit[x] = True
    while True:
        size = np.count_nonzero(orbit)
        orbit[perms[:, orbit]] = True
        if np.count_nonzero(orbit) == size:
            return size


# ----------------------------------------------------------------- public API


@dataclass(frozen=True)
class OrbitDecomposition:
    params: FieldParams
    point_codes: tuple[int, ...]          # H-model codes, input order
    stabilizer_order: int
    orbits: tuple[tuple[int, ...], ...]   # tuples of indices into point_codes
    # sample elements as point permutations, generators[k][x] the index of
    # the image of point x; they generate the group (tested on the catalog,
    # q <= 32)
    generators: tuple[tuple[int, ...], ...]
    # point_invariant of the points of each orbit, in the order of `orbits`
    invariants: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    def orbit_sizes(self) -> list[int]:
        return sorted(len(o) for o in self.orbits)


def stabilizer(params: FieldParams, points, *, threads: int = 1) -> OrbitDecomposition:
    """Exact stabilizer order, orbits and sample elements of a hyperoval.

    `invariants` holds the point_invariant of each orbit's points.  Each
    chunk of the search runs only over the pair rows whose invariant row
    count matches the base triangle's (see _search), one slab of rows at a
    time, and chunk P0 counts Stab(P0) along the base.  At q = 128
    Cherowitzo, the hyperconic (either point first) and the translation
    hyperoval r = 6 each peak at 7.7 MiB (tracemalloc), the line-log cube
    and its slabs; the hyperconic keeps nearly all rows, and peaked at
    45.5 MiB when chunk P0 held them at once.  The nucleus-first hyperconic
    and translation r = 6, whose whole group fixes point 0, take 0.2-0.5 s
    at q = 128 (11 s when chunk P0 checked every hit).

    `threads` is accepted and ignored, only because bench/workloads.py still
    passes it; it goes once the benchmark drops it (ROADMAP item 1).
    """
    codes = geometry._as_codes(params, points)
    if len(codes) != params.q + 2:
        raise EquivError("a hyperoval has q+2 points")
    res = _search(params, codes, codes, orbits=True)
    seen = {}                       # orbits in the order of their least points
    for k, least in enumerate(res.classes.tolist()):
        seen.setdefault(least, []).append(k)
    orbits = tuple(tuple(v) for v in seen.values())
    # P0 is point 0; the search reaches the least point of every other orbit
    # undecided, so each orbit's least point has its invariant
    return OrbitDecomposition(params, tuple(codes), res.order, orbits,
                              tuple(res.generators),
                              tuple(res.invariants[o[0]] for o in orbits))


def are_equivalent(params: FieldParams, points_a, points_b,
                   marked: tuple | None = None) -> Collineation | None:
    """A collineation mapping arc A onto arc B (and marked_a to marked_b),
    or None after exhausting all candidates."""
    codes_a = geometry._as_codes(params, points_a)
    codes_b = geometry._as_codes(params, points_b)
    mk = None
    if marked is not None:
        ma, mb = geometry._as_codes(params, list(marked))
        mk = (ma, mb)
    res = _search(params, codes_a, codes_b, marked=mk)
    phi = res.witness
    if phi is None:
        return None
    image = {phi.apply_code(c) for c in codes_a}
    if image != set(codes_b):
        raise EquivError("witness verification failed")  # pragma: no cover
    if mk is not None and phi.apply_code(mk[0]) != mk[1]:
        raise EquivError("witness violates marked point")  # pragma: no cover
    return phi


def point_invariant(params: FieldParams, points, point) -> tuple[int, ...]:
    """An invariant of a point of an arc under collineations.

    For each ordered pair (b, c) of the other points, the keys of the rest
    relative to the triangle (point, b, c) give v = k1 - 2*k0 mod (q-1), and
    the row counts the pairs of them with equal v.  A collineation maps the
    keys to 2^j*k + t relative to the image triangle, so it maps v to
    2^j*v + const, with 2^j a unit mod the odd q-1: each row's partition by v
    is preserved.  The result is the multiset of the row counts, as a
    histogram (entry n: the rows with n pairs).  If there is a collineation
    taking the arc to another and the point to one of its points, both
    (arc, point) pairs have the same invariant.
    """
    codes = geometry._as_codes(params, points)
    (point,) = geometry._as_codes(params, [point])
    if point not in codes:
        raise EquivError("the point is not in the point set")
    N = len(codes)
    if N < 4:
        raise EquivError("the invariant needs at least four points")
    LL = _line_logs(params, _coords_of_codes(params, codes))
    return _point_invariant(LL, params.q - 1, codes.index(point))[0]


@lru_cache(maxsize=None)
def _bin_table(Q: int) -> np.ndarray:
    """The invariant's bin of each s in [-6Q, 6Q], read at s (a negative s
    from the end): s mod Q on [-2Q + 2, 2Q - 2], where the points off a
    triangle fall, and the discard bin Q everywhere else.  Built once per Q
    and shared, so the table is read-only."""
    table = np.full(12 * Q + 1, Q, dtype=np.intp)
    good = np.arange(2 - 2 * Q, 2 * Q - 1)
    table[good] = good % Q
    table.flags.writeable = False
    return table


def _point_invariant(LL: np.ndarray, Q: int, a: int):
    """point_invariant of point a, and its row counts, from the line-log cube
    of its point set.

    Returns (histogram, n): n is the flat N*N array of the row counts
    n_a[b, c] at b*N + c, and -1 where a, b, c are not distinct.

    With A = LL[a] and L = LL[b], v = k1 - 2*k0 is read straight off the
    cube as s = 2*A[c, y] - A[b, y] - L[c, y], in [-6Q, 6Q] (_sum_dtype),
    and one table of 12Q + 1 entries (_bin_table) maps s to its bin.  In a
    distinct row the N - 3 points off the triangle give s in
    [-2Q + 2, 2Q - 2], binned at s mod Q; y = a, b and c read the log of 0,
    Z = -2Q, and give Z - L, 2A - 2Z and Z - A, all outside that range, so
    they land in the discard bin Q.
    """
    N = len(LL)
    table = _bin_table(Q)
    A = LL[a].astype(_sum_dtype(Q))
    A2 = 2 * A
    n_rows = np.empty(N * N, dtype=np.int64)
    # one slab of b at a time, with one bincount over (row, bin).  The slabs
    # keep every intp temporary under about 128 KiB: larger ones are handed
    # back to the system and faulted in again on every call
    slab = max(1, _INVARIANT_SLAB_CELLS // (N * N))
    offsets = (np.arange(slab * N) * (Q + 1))[:, None]
    for lo in range(0, N, slab):
        L = LL[lo:lo + slab]
        s = A2[None] - A[lo:lo + slab][:, None]
        s -= L
        rows = len(L) * N
        bins = table[s.astype(np.intp)].reshape(rows, N)
        bins += offsets[:rows]
        n = np.bincount(bins.reshape(-1), minlength=rows * (Q + 1)).reshape(rows, -1)[:, :Q]
        np.einsum("ij,ij->i", n, n, out=n_rows[lo * N:lo * N + rows])
    # the pairs with equal v, (sum n^2 - sum n) / 2: on an arc the N - 3
    # points off the triangle are exactly the entries binned below Q
    n_rows -= N - 3
    n_rows //= 2
    n_rows[a * N:(a + 1) * N] = -1       # the rows through a and the diagonal
    n_rows[a::N] = -1
    n_rows[::N + 1] = -1
    return tuple(np.bincount(n_rows[n_rows >= 0]).tolist()), n_rows


# --------------------------------------------------------- bent class counts


@dataclass(frozen=True)
class BentClass:
    s_index: int | None          # unit-circle index of the removed point; None = origin
    g: "gfun.GFunction"
    f: "bent_mod.NihoPolynomial"
    oval_h_codes: tuple[int, ...]   # shifted oval + nucleus 0, H-model codes
    orbit_size: int


@dataclass(frozen=True)
class ClassifyResult:
    params: FieldParams
    family: str
    stabilizer_order: int
    orbit_sizes: tuple[int, ...]
    classes: tuple[BentClass, ...]

    @property
    def class_count(self) -> int:
        return len(self.classes)


def classify_bent(g: "gfun.GFunction") -> ClassifyResult:
    """One Niho bent class per stabilizer orbit of the hyperoval of g.

    g must be nowhere zero (apply gfun.fix_zeros first).  Representatives are
    chosen inside each orbit by minimal serialized g-table.  The classes are
    proved pairwise inequivalent as ovals with their nucleus marked: two
    classes whose nuclei have different point_invariant are inequivalent,
    and each pair that ties runs the exhaustive marked search.  The class of
    an orbit has the oval O_s + {0}, which is the hyperoval translated by
    s/g(s) for s in the orbit; the translation takes s to the nucleus 0, so
    the nucleus invariant is the orbit's invariant from the stabilizer.
    """
    P = g.params
    if not g.is_zero_free():
        raise EquivError("g has zeros; apply fix_zeros first")
    oval = g.oval_codes_k()
    # hyperoval point k < q+1 is u_k/g(u_k), point q+1 is the nucleus 0
    dec = stabilizer(P, g.hyperoval_codes_h())

    shifts = gfun.g_shift_tables(g, np.arange(P.q + 1))     # row s: g_s
    classes = []
    for orbit in dec.orbits:
        s_idx = min(orbit, key=lambda idx: (g.values if idx == P.q + 1
                                            else shifts[idx]).tobytes())
        if s_idx == P.q + 1:
            s_idx, g_rep = None, g
            rep_oval, f_rep = oval, bent_mod.f_univariate(P, oval)
        else:       # g_shift forms that row again: bench/ traces it as a layer boundary
            g_rep = gfun.g_shift(g, s_idx)
            rep_oval = gfun.shifted_oval_codes(g, s_idx)
            f_rep = bent_mod.f_shift(g, s_idx)
        oval_h = geometry.k_codes_to_h_codes(P, np.append(rep_oval, 0), 1)
        fb = bent_mod.bent_from_g(g_rep)
        if not bent_mod.is_bent(fb):
            raise EquivError("class representative is not bent")  # pragma: no cover
        if fb != f_rep.evaluate():
            raise EquivError("polynomial/table mismatch")  # pragma: no cover
        classes.append(BentClass(s_idx, g_rep, f_rep,
                                 tuple(int(c) for c in oval_h), len(orbit)))

    origin = 0  # H-code of the K point 0 is (0:0:1) -> code 0
    ties = {}
    for c, inv in zip(classes, dec.invariants):
        ties.setdefault(inv, []).append(c)
    for tie in ties.values():
        for a, b in itertools.combinations(tie, 2):
            w = are_equivalent(P, list(a.oval_h_codes), list(b.oval_h_codes),
                               marked=(origin, origin))
            if w is not None:
                raise EquivError("orbit representatives are equivalent")
    return ClassifyResult(P, g.provenance, dec.stabilizer_order,
                          tuple(dec.orbit_sizes()), tuple(classes))
