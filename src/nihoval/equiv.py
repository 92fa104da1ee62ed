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
  with N^3 field products.  After that the search is integer work only:
  with A = L[a], the keys relative to every triangle (a, b, c) are two
  broadcasts over (b, c, y), k0 = L - A[None] and k1 = L - A[:, None]
  mod q - 1, and an entry whose a, b, c, y are not distinct reads the log
  of 0.  On an arc the keys relative to a triangle form a permutation graph
  k1 = pi(k0), so one row of 2(q-1) slots per pair row (b, c) holds k1 and
  the image index at k0 and at k0 + q - 1.  Candidate translations come
  from the image of the fourth source point; gathers from the rows prune
  them.
* Every hit is one group element, and the hits with first image A form the
  coset {g : g(P0) = A}.  A stabilizer search counts only the chunk A = P0,
  Stab(P0), in full: |G| = |Stab(P0)| * |P0^G|.  Every other A needs one hit
  or a proof of none, and no chunk at all once the elements found so far
  put it in P0's orbit or in the orbit of a point without a hit.  Stab(P0) and
  one hit per reached A generate the group, so the closure of their point
  images (table lookups) is the orbit partition.
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

Chunks run over the first image point A (one chunk when `marked` pins it),
each over the triangles (A, b, c) of its kept pair rows, formed one slab of
b at a time.  Results are committed in A order, so they do not depend on the
thread count.  are_equivalent runs the same search with an early exit on the
first hit, optionally with a marked point (nucleus -> nucleus for oval
equivalence); an A whose invariant differs from the source P0's runs no
chunk.  point_invariant reuses the keys of all triangles at one point.
classify_bent takes the invariant of each class's nucleus from the
stabilizer's orbit invariants and runs the marked search only for classes
whose invariants tie.
"""

from __future__ import annotations

import itertools
from contextlib import nullcontext
from dataclasses import dataclass, field

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


_LOG_SLAB_CELLS = 66 ** 3      # the whole cube of a hyperoval at q = 64


def _line_logs(P: FieldParams, pts: np.ndarray) -> np.ndarray:
    """The N x N x N cube of log(L_ab . X_l) at [a, b, l]; L_ab = X_a x X_b is the line XaXb.

    L_aa vanishes and L_ab vanishes on X_a and X_b; any further zero means
    three collinear (or two equal) points, which the torus keys cannot use.
    The cube is filled in slabs of a of at most _LOG_SLAB_CELLS entries (one
    slab up to q = 64), which bounds the uint32 temporaries.
    """
    fm = P.fmul_v
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    l0 = fm(y[:, None], z[None, :]) ^ fm(z[:, None], y[None, :])
    l1 = fm(z[:, None], x[None, :]) ^ fm(x[:, None], z[None, :])
    l2 = fm(x[:, None], y[None, :]) ^ fm(y[:, None], x[None, :])
    n = len(pts)
    out = np.empty((n, n, n), dtype=_key_dtype(P.q - 1))
    zeros = 0
    slab = max(1, _LOG_SLAB_CELLS // (n * n))
    for lo in range(0, n, slab):
        s = slice(lo, lo + slab)
        dots = fm(l0[s, :, None], x)
        dots ^= fm(l1[s, :, None], y)
        dots ^= fm(l2[s, :, None], z)
        zeros += np.count_nonzero(dots == 0)
        out[s] = P.f_log[dots]
    if zeros != n * n + 2 * n * (n - 1):
        raise EquivError("three of the points are collinear: not an arc")
    return out


_FAN_SLAB_CELLS = 1 << 16      # _fan entries per slab of b in chunks and invariants


def _key_dtype(Q: int):
    """Narrowest dtype for logs, keys, key offsets and point indices.  Logs lie
    in [0, Q) plus 2Q (the log of 0), so _fan's log differences lie in
    [-2Q, 2Q] and its keys in [-Q, 2Q]; the invariant forms k1 - 2*k0 in
    [-3Q, 2Q] (k0 zeroed where `bad`) and the search -2Q - key: int16 only
    while 3Q < 2^15 (m <= 13)."""
    return np.int16 if 3 * Q < 1 << 15 else np.int32


def _fan(LL: np.ndarray, Q: int, a: int, b=slice(None)):
    """Torus keys of every point y relative to every triangle (a, b, c), for
    the first corners b (a slice or index list): k0, k1 and the mask `bad`,
    each over (b, c, y).  k0 and k1 lie in [0, Q) where a, b, c and y are
    pairwise distinct; `bad` marks the other entries, exactly those where a
    log reads 2Q (the log of 0)."""
    A, L = LL[a], LL[b]              # A[c, y] = log(L_ac . X_y)
    Ab = A[b][:, None]
    k0, k1 = L - A[None], L - Ab
    for k in (k0, k1):               # a difference of two logs in [0, Q) wraps once
        k += (k < 0) * k.dtype.type(Q)
    zero = 2 * Q
    return k0, k1, (L == zero) | (A == zero)[None] | (Ab == zero)


# ----------------------------------------------------------- the enumeration


@dataclass
class _SearchResult:
    order: int = 0
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
            early_exit: bool = False,
            want_orbits: bool = False,
            threads: int = 1) -> _SearchResult:
    """Count/find collineations mapping the src set onto the dst set.

    `marked` = (src_code, dst_code) pins the image of one point.  With
    `early_exit` the first hit is returned as the witness: each first image
    a whose point_invariant ties that of the source's P0 runs its chunk,
    until one has a hit.  Otherwise every chunk (one per first image point)
    is counted in full over all N^2 pair rows (the oracle of the tests),
    except that `want_orbits` (src = dst) finds the group G by
    orbit-stabilizer:

    * chunk P0 is counted in full, for |Stab(P0)| and its samples;
    * each other first image a is visited in index order.  It is skipped if
      the relation "x ~ g(x)" over the elements recorded so far puts it in
      P0's class (then a is in P0^G) or in the class of a point known to be
      outside P0^G (G preserves P0^G, so a is outside it too).  Otherwise
      a's point_invariant is computed: if it differs from P0's, a is outside
      P0^G.  If it ties, chunk a runs with early exit: a hit records one
      element g with g(P0) = a, no hit puts a outside P0^G.

    In the early-exit and orbit searches a chunk a runs only over the pair
    rows (b, c) with n_a[b, c] = n_P0[P1, P2] (_process_chunk), read off a's
    invariant; P0's invariant, computed once, serves as the source's and as
    chunk P0's when src is dst.

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
    P0's invariant.

    With threads > 1 the next `threads` undecided points are visited at
    once (invariant, and chunk on a tie) and committed in index order; a
    result whose point an earlier commit decided is dropped.  So the chunks
    that count, the order, the orbits, the witness, the samples and the
    invariants do not depend on the thread count.
    """
    if threads < 1:
        raise EquivError(f"threads must be >= 1, got {threads}")
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
    if want_orbits and (dst_codes != src_codes or p0 not in firsts):
        raise EquivError("an orbit search maps a point set (and a marked point) to itself")
    # keys of the other source points minus the fourth point's key, times 2^j
    k0, k1 = (k[0, order[2], order[3:]] for k in _fan(LLs, Q, order[0], [order[1]])[:2])
    d = np.stack([k0[1:] - k0[0], k1[1:] - k1[0]])
    shifts = np.array([d.astype(np.int64) * (1 << j) % Q for j in range(m)],
                      dtype=LLs.dtype)
    ctx = _Torus(LLd, N, Q, shifts, np.array(order))
    res = _SearchResult()
    if not (early_exit or want_orbits):      # every chunk over all pair rows
        every_row = np.arange(N * N)
        res.order = sum(_process_chunk(ctx, a, False, every_row)[0] for a in firsts)
        return res
    # a hit maps (P0, P1, P2) to (a, b, c) only where n_a[b, c] = n_P0[P1, P2]
    inv0, n0 = _point_invariant(LLs, Q, p0)
    want = n0[order[1] * N + order[2]]

    def invariant(a):     # a's invariant and row counts; P0's are known when src is dst
        return (inv0, n0) if LLd is LLs and a == p0 else _point_invariant(LLd, Q, a)

    def chunk(a, early, n):
        return _process_chunk(ctx, a, early, np.flatnonzero(n == want))

    if early_exit:
        for a in firsts:
            v, n = invariant(a)
            if v != inv0:
                continue
            res.order, found = chunk(a, True, n)
            if found:
                # N_Q1 * frob_j(N_Q0^-1), Q0 the source quadrangle, Q1 its images
                j, images = found[0]
                quad = order[:4]
                base = Collineation.make(P, _frame_matrix(P, src[quad]).reshape(-1), 0)
                res.witness = Collineation.make(
                    P, _frame_matrix(P, dst[images[quad]]).reshape(-1), j).compose(base.inverse())
                break
        return res
    stab, found = chunk(p0, False, n0)
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

    def visit(a):       # a's invariant, and its early-exit chunk if that ties P0's
        v, n = invariant(a)
        return v, (chunk(a, True, n) if v == inv0 else (0, []))

    def decided(a) -> bool:
        return least[a] == least[p0] or least[a] in least[negative]

    if threads > 1:        # imported here: it (and logging) would slow the package import
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(threads) if threads > 1 else nullcontext() as pool:
        todo = (a for a in firsts if a != p0 and not decided(a))
        while window := list(itertools.islice(todo, threads)):
            done = map(visit, window) if pool is None else pool.map(visit, window)
            for a, (v, (count, found)) in zip(window, list(done)):
                if decided(a):                  # by an earlier commit of this window
                    continue
                inv[a] = v
                if count:
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


def _process_chunk(ctx: _Torus, a: int, early_exit: bool, rows: np.ndarray):
    """The hits that map the source triangle to (a, b, c) for the pair rows
    b*N + c in `rows` (ascending).

    Returns (hit count, found).  A hit is the Frobenius power j and the image
    (a, b, c, y) of the source quadrangle (P0, P1, P2, P3), and `found`
    lists (j, images) pairs, images[x] the index of the image of source
    point x: the quadrangle's images are images[src_order[:4]].  With
    `early_exit` the count is 0 or 1 and `found` holds the first hit in
    (b, c, j, y) order.  Otherwise every hit is counted and `found` holds the
    samples: one hit per coset of each stabilizer along the base (P0, P1, P2,
    P3).  In chunk P0, the stabilizer of P0, the cosets are told apart by the
    image of P1, of P2 (P1 fixed), of P3 (P1, P2 fixed) and by j (all four
    fixed), so by Schreier's lemma the samples generate Stab(P0).  Point
    images are gathered for them only.

    _search passes the rows whose count n_a[b, c] (_point_invariant) equals
    the source triangle's n_P0[P1, P2]: a collineation maps row (P1, P2) of
    P0 onto row (b, c) of a with the same count, so no other row holds a
    hit.  The rows keep their order, so the hits, the samples and the first
    hit are those of the search over all rows.

    The keys of the points off a triangle form a permutation graph
    k1 = pi(k0) (an arc meets each line through c in at most one more
    point), so the kept row r of the pair (b, c) holds k1 and the image index
    at column k0 of each point, and again at k0 + Q: k0 + offset needs no
    reduction.  A slot left empty (an arc smaller than a hyperoval, or a
    pair row whose a, b, c are not distinct) holds k1 = -2Q and never matches.
    The rows are filled one slab of b at a time from _fan.
    """
    N, Q, shifts = ctx.N, ctx.Q, ctx.shifts
    m, W = len(shifts), 2 * Q
    # candidate h, the point y of kept row r, sits at base[h] = r*W + k0, in
    # (r, y) order, so in (b, c, y) order
    at = np.int32 if N * N * W < 1 << 31 else np.int64
    rows = rows.astype(at)
    k1row = np.full(len(rows) * W, -W, dtype=ctx.LL.dtype)
    yrow = np.zeros(len(k1row), dtype=ctx.LL.dtype)      # point index y
    base, k1 = [], []
    slab = max(1, _FAN_SLAB_CELLS // (N * N))
    for lo in range(0, N, slab):
        i, k = np.searchsorted(rows, (lo * N, (lo + slab) * N)).tolist()
        if i == k:
            continue
        k0s, k1s, bad = (f.reshape(-1, N)[rows[i:k] - lo * N]
                         for f in _fan(ctx.LL, Q, a, slice(lo, lo + slab)))
        t = np.flatnonzero(~bad).astype(at)      # r*N + y over the slab's rows
        base.append((t // N + i) * W + k0s.reshape(-1)[t])
        k1.append(k1s.reshape(-1)[t])
        for lift in (0, Q):
            k1row[base[-1] + lift] = k1[-1]
            yrow[base[-1] + lift] = t % N
    base, k1 = np.concatenate(base), np.concatenate(k1)

    def corners(h):                      # (b, c, y) of candidates h
        b, c = np.divmod(rows[base[h] // W], N)
        return b, c, yrow[base[h]]

    def holds(cand, d0, d1):
        # the slot at k0 + d0 of the candidate's row holds k1 + d1 mod Q
        diff = k1row[base[cand] + d0] - k1[cand]
        return (diff == d1) | (diff == d1 - Q)

    def element(h, j):                   # j and the point images of candidate h
        images = np.empty(N, dtype=np.int64)
        images[ctx.src_order] = np.concatenate(
            ([a], corners(h), yrow[base[h] + shifts[j][0]]))
        return j, images

    count = 0
    base_pts = ctx.src_order[1:4]
    samples = {}                          # (level, image, j) -> first such candidate
    first = None
    for j in range(m):
        d0, d1 = shifts[j]
        # one candidate translation per (b, c, y), y the fourth point's image;
        # prune on the fifth and sixth source points, then check all at once
        alive = (np.flatnonzero(holds(slice(None), d0[0], d1[0])) if len(d0)
                 else np.arange(len(base)))
        if len(d0) > 1:
            alive = alive[holds(alive, d0[1], d1[1])]
        # check the survivors in blocks doubling up to 2^14, which bounds the
        # memory; an early exit needs only the first block with a hit
        hits, lo = [], 0
        while lo < len(alive) and not (early_exit and hits):
            block = alive[lo:lo + min(lo + 64, 1 << 14)]
            lo += len(block)
            block = block[holds(block[:, None], d0, d1).all(axis=1)]
            if len(block):
                hits.append(block)
        hits = np.concatenate(hits) if hits else alive[:0]
        if early_exit:
            # only the first hit in (b, c, j, y) order counts
            if len(hits) and (first is None or base[hits[0]] // W < base[first[0]] // W):
                first = (hits[0], j)
            continue
        count += len(hits)
        # the first hit per image of P1, then of P2 among the hits fixing
        # P1, of P3 among those fixing P1 and P2, and the one fixing all three
        on = np.arange(len(hits))
        for level, col in enumerate(corners(hits)):
            vals, pos = np.unique(col[on], return_index=True)
            for v, h in zip(vals.tolist(), hits[on[pos]].tolist()):
                samples.setdefault((level + 1, v, j), h)
            on = on[col[on] == base_pts[level]]
        for h in hits[on].tolist():
            samples.setdefault((4, j, j), h)
    if early_exit:
        return (0, []) if first is None else (1, [element(*first)])
    # first hit per stream in (b, c, y) order; the lowest j wins
    kept = {}
    for (level, v, j), h in sorted(samples.items()):
        kept.setdefault((level, v), (h, j))
    return count, [element(h, j) for h, j in kept.values()]


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
    count matches the base triangle's (see _search), one slab of b at a
    time: Cherowitzo at q = 128 peaks at 7.7 MiB (tracemalloc), the
    line-log cube and its slabs.  The hyperconic keeps most rows (45.5 MiB).

    `threads` > 1 visits several undecided points at once, with the same
    results.  It pays little: work that an earlier commit makes unnecessary
    is run and dropped.  On a 2-core VM (median of 3 fresh processes, 1 vs 2
    threads) Cherowitzo at q = 128 took 1.19 s and 1.04 s, Payne 0.78 s and
    0.70 s, Glynn I 0.49 s and 0.50 s, Glynn II 0.55 s and 0.64 s, and
    Adelaide at q = 64 0.085 s and 0.095 s.
    """
    codes = geometry._as_codes(params, points)
    if len(codes) != params.q + 2:
        raise EquivError("a hyperoval has q+2 points")
    res = _search(params, codes, codes, want_orbits=True, threads=threads)
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
    res = _search(params, codes_a, codes_b, marked=mk, early_exit=True)
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


def _point_invariant(LL: np.ndarray, Q: int, a: int):
    """point_invariant of point a, and its row counts, from the line-log cube
    of its point set.

    Returns (histogram, n): n is the flat N*N array of the row counts
    n_a[b, c] at b*N + c, and -1 where a, b, c are not distinct.
    """
    N = len(LL)
    p = np.arange(N)
    distinct = ((p[:, None] != p) & (p[:, None] != a) & (p != a)).reshape(-1)   # pair rows
    n_rows = np.full(N * N, -1, dtype=np.int64)
    # one slab of b at a time, with one bincount over (row, v), keeps the
    # temporaries and the bins few; `bad` entries go to the extra bin Q
    slab = max(1, _FAN_SLAB_CELLS // (N * max(N, Q + 1)))
    for lo in range(0, N, slab):
        k0, k1, bad = _fan(LL, Q, a, slice(lo, lo + slab))
        np.putmask(k0, bad, 0)           # keeps k1 - 2*k0 within _key_dtype
        v = k1 - 2 * k0
        for _ in range(2):               # from (-2Q, Q) into [0, Q)
            v += (v < 0) * v.dtype.type(Q)
        np.putmask(v, bad, Q)
        keep = distinct[lo * N:(lo + slab) * N]
        v = v.reshape(-1, N)[keep]
        n = np.bincount((np.arange(len(v))[:, None] * (Q + 1) + v).reshape(-1),
                        minlength=len(v) * (Q + 1)).reshape(-1, Q + 1)[:, :Q]
        # the pairs with equal v, (sum n^2 - sum n) / 2: on an arc the N - 3
        # points off the triangle are exactly the entries that are not `bad`
        n_rows[lo * N:(lo + slab) * N][keep] = (np.einsum("ij,ij->i", n, n) - (N - 3)) // 2
    return tuple(np.bincount(n_rows[distinct]).tolist()), n_rows


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


def classify_bent(g: "gfun.GFunction", *, threads: int = 1) -> ClassifyResult:
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
    dec = stabilizer(P, g.hyperoval_codes_h(), threads=threads)

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
