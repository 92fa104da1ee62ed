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
* log(L_ab . X_l) is tabulated once per point set with N^3 field products.
  After that the search is integer work only.  On an arc the keys relative
  to a triangle form a permutation graph k1 = pi(k0), so one row of 2(q-1)
  slots per image pair (B, C) holds k1 and the image index at k0 and at
  k0 + q - 1.  Candidate translations come from the image of the fourth
  source point; gathers from the rows prune them.
* Every hit is one group element, so the hit count is the exact stabilizer
  order.  The hits with first image A form the coset {g : g(P0) = A}, so
  each chunk counts |Stab(P0)| hits or none; the search checks this.  The
  hits with A = P0 (the stabilizer of P0) and one hit for each other A
  generate the group; table lookups give their point images, and the
  closure of that relation is the orbit partition.
* The sample elements are one hit per coset of each stabilizer along the
  base (P0, P1, P2, P3), so they generate the group (Schreier).  Matrices
  are built only for them and for the witness, from the four image points
  of the source quadrangle (P0, P1, P2, P3).
* A zero in the line-log table means three collinear points: the input is
  not an arc and the search raises EquivError.

Chunks run over the first image point A (one chunk when `marked` pins it),
each over all of its triangles at once.  Results are merged in A order, so
they do not depend on the thread count.  are_equivalent runs the same
search with an early exit on the first hit, optionally with a marked point
(nucleus -> nucleus for oval equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bent as bent_mod
from . import geometry, gfun
from .gf2m import FieldParams


class EquivError(ValueError):
    pass


def pgammal_order(params: FieldParams) -> int:
    q = params.q
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1) * params.m


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

    @staticmethod
    def identity(params: FieldParams) -> "Collineation":
        return Collineation(params, (1, 0, 0, 0, 1, 0, 0, 0, 1), 0)

    def apply(self, p: geometry.ProjPointH) -> geometry.ProjPointH:
        P = self.params
        fr = P.f_frob[self.frob]
        x, y, z = int(fr[p.x]), int(fr[p.y]), int(fr[p.z])
        M = self.matrix
        return geometry.ProjPointH.make(
            P,
            P.fmul(M[0], x) ^ P.fmul(M[1], y) ^ P.fmul(M[2], z),
            P.fmul(M[3], x) ^ P.fmul(M[4], y) ^ P.fmul(M[5], z),
            P.fmul(M[6], x) ^ P.fmul(M[7], y) ^ P.fmul(M[8], z),
        )

    def apply_code(self, code: int) -> int:
        return self.apply(geometry.ProjPointH.from_code(self.params, code)).code

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

    def key(self) -> tuple:
        return (self.matrix, self.frob)


def _adjugate3(P: FieldParams, M) -> list[int]:
    """Adjugate of a row-major 3x3 over GF(2^m) (signs vanish in char 2)."""
    a, b, c, d, e, f, g, h, i = M
    return [P.fmul(e, i) ^ P.fmul(f, h), P.fmul(b, i) ^ P.fmul(c, h), P.fmul(b, f) ^ P.fmul(c, e),
            P.fmul(d, i) ^ P.fmul(f, g), P.fmul(a, i) ^ P.fmul(c, g), P.fmul(a, f) ^ P.fmul(c, d),
            P.fmul(d, h) ^ P.fmul(e, g), P.fmul(a, h) ^ P.fmul(b, g), P.fmul(a, e) ^ P.fmul(b, d)]


def collineation_from_k_multiplier(params: FieldParams, c_code: int) -> Collineation:
    """The projectivity of PG(2,q) induced by x -> c*x on K (c != 0)."""
    from .gf2m import spread_i
    i = spread_i(params).code
    # columns: images of the basis (1, i) of K in (x, y) = (<i,.>, <1,.>) coords
    c1 = params.kmul(c_code, 1)
    ci = params.kmul(c_code, i)
    m00, m10 = params.bform(i, c1), params.kT(c1)
    m01, m11 = params.bform(i, ci), params.kT(ci)
    return Collineation.make(params, (m00, m01, 0, m10, m11, 0, 0, 0, 1), 0)


def frobenius_collineation(params: FieldParams, j: int) -> Collineation:
    return Collineation.make(params, (1, 0, 0, 0, 1, 0, 0, 0, 1), j)


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


def _line_logs(P: FieldParams, pts: np.ndarray) -> np.ndarray:
    """log(L_ab . X_l) at flat index (a*N + b)*N + l; L_ab = X_a x X_b is the line XaXb.

    L_aa vanishes and L_ab vanishes on X_a and X_b; any further zero means
    three collinear (or two equal) points, which the torus keys cannot use.
    """
    fm = P.fmul_v
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    l0 = fm(y[:, None], z[None, :]) ^ fm(z[:, None], y[None, :])
    l1 = fm(z[:, None], x[None, :]) ^ fm(x[:, None], z[None, :])
    l2 = fm(x[:, None], y[None, :]) ^ fm(y[:, None], x[None, :])
    dots = fm(l0[:, :, None], x) ^ fm(l1[:, :, None], y) ^ fm(l2[:, :, None], z)
    n = len(pts)
    if np.count_nonzero(dots == 0) != n * n + 2 * n * (n - 1):
        raise EquivError("three of the points are collinear: not an arc")
    return P.f_log[dots.reshape(-1)].astype(_key_dtype(P.q - 1))


def _key_dtype(Q: int):
    """Narrowest dtype for logs, keys, key offsets and point indices: the
    search also forms -2Q - key, so int16 only while 3Q < 2^15 (m <= 13)."""
    return np.int16 if 3 * Q < 1 << 15 else np.int32


def _keys(LL: np.ndarray, N: int, Q: int, a, b, c, y):
    """Torus key of points y relative to the triangle (a, b, c), two arrays mod Q."""
    bc = LL[(b * N + c) * N + y]
    k0, k1 = bc - LL[(a * N + c) * N + y], bc - LL[(a * N + b) * N + y]
    for k in (k0, k1):            # a difference of two logs in [0, Q) wraps once
        k += (k < 0) * k.dtype.type(Q)
    return k0, k1


def _triples(n: int) -> np.ndarray:
    """Flat positions (i*n + k)*n + l in an n^3 cube of the pairwise distinct
    (i, k, l) in range(n), in (i, k, l) order: entry h has pair row h // (n-2)."""
    p = np.arange(n)
    return np.flatnonzero((p[:, None, None] != p[:, None]) & (p[:, None, None] != p)
                          & (p[:, None] != p)).astype(np.int32)


# ----------------------------------------------------------- the enumeration


@dataclass
class _SearchResult:
    order: int = 0
    reach: np.ndarray | None = None
    witness: Collineation | None = None
    generators: list = field(default_factory=list)


@dataclass(frozen=True)
class _Torus:
    """What every chunk of one search shares (read only)."""
    LL: np.ndarray          # destination line-log table (_line_logs)
    N: int
    Q: int                  # q - 1, the order of each torus coordinate
    shifts: np.ndarray      # (m, 2, N-4) source key offsets (d0, d1) from the fourth point
    src_order: np.ndarray   # source indices: base triangle, fourth point, the rest
    triples: np.ndarray     # _triples(N - 1)
    want_orbits: bool
    early_exit: bool


def _search(params: FieldParams, src_codes, dst_codes, *,
            marked: tuple[int, int] | None = None,
            early_exit: bool = False,
            want_orbits: bool = False,
            threads: int = 1) -> _SearchResult:
    """Count/find collineations mapping the src set onto the dst set.

    `marked` = (src_code, dst_code) pins the image of one point.  With
    `early_exit` the first hit is returned as the witness.  With
    `want_orbits` (src must equal dst) `reach` is the orbit relation on the
    points, `generators` generate the group, and EquivError is raised unless
    every chunk counts |Stab(P0)| hits or none (orbit-stabilizer).  Chunks
    (one per first image point) are merged in order, so counts, orbits, the
    witness and the sample elements do not depend on the thread count.
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
    # keys of the other source points minus the fourth point's key, times 2^j
    k0, k1 = _keys(LLs, N, Q, order[0], order[1], order[2], np.array(order[3:]))
    d = np.stack([k0[1:] - k0[0], k1[1:] - k1[0]])
    shifts = np.array([d.astype(np.int64) * (1 << j) % Q for j in range(m)],
                      dtype=LLs.dtype)
    ctx = _Torus(LLd, N, Q, shifts, np.array(order), _triples(N - 1),
                 want_orbits, early_exit)
    # hit (j, a, b, c, y) = N_(a,b,c,y) * frob_j(N_Q0^-1), Q0 the source quadrangle
    base = Collineation.make(P, _frame_matrix(P, src[order[:4]]).reshape(-1), 0).inverse()

    def build(hit) -> Collineation:
        j, *quad = hit
        return Collineation.make(P, _frame_matrix(P, dst[quad]).reshape(-1), j).compose(base)

    if threads > 1 and len(firsts) > 1 and not early_exit:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(lambda a: _process_chunk(ctx, a), firsts))
    else:
        outs = []
        for a in firsts:
            outs.append(_process_chunk(ctx, a))
            if early_exit and outs[-1][3] is not None:
                break

    res = _SearchResult()
    if want_orbits:
        res.reach = np.eye(N, dtype=bool)
    picks = []
    for count, reach, chunk_picks, first in outs:
        res.order += count
        if want_orbits:
            res.reach |= reach
        picks += chunk_picks
        if first is not None and res.witness is None:
            res.witness = build(first)
    if want_orbits:
        # chunk a holds the coset {g : g(P0) = a}: |Stab(P0)| hits or none
        counts = {a: out[0] for a, out in zip(firsts, outs)}
        stab = counts.get(order[0], 0)
        if stab < 1 or any(c not in (0, stab) for c in counts.values()):
            raise EquivError("chunk hit counts break the orbit-stabilizer identity")
        # the recorded elements generate the group: close the relation
        while True:
            closed = res.reach | res.reach.T | (res.reach @ res.reach)
            if np.array_equal(closed, res.reach):
                break
            res.reach = closed
    res.generators = [build(hit) for hit in dict.fromkeys(picks)]
    return res


def _process_chunk(ctx: _Torus, a: int):
    """All hits that map the source triangle to (a, b, c) for some b, c.

    Returns (hit count, reach | None, sample hits, first hit | None); a hit is
    (j, a, b, c, y) with y the image of the fourth source point.  The keys of
    the points off a triangle form a permutation graph k1 = pi(k0) (an arc
    meets each line through c in at most one more point), so the row of the
    pair (b, c) holds k1 and the image index at column k0 of each point, and
    again at k0 + Q: k0 + offset needs no reduction.  A slot left empty (an
    arc smaller than a hyperoval) holds k1 = -2Q and never matches.

    The samples (orbit searches only) are one hit per coset of each
    stabilizer along the base (P0, P1, P2, P3): chunk a != P0 is one coset of
    Stab(P0), and in chunk P0 the cosets are told apart by the image of P1,
    of P2 (P1 fixed), of P3 (P1, P2 fixed) and by j (all four fixed).  By
    Schreier's lemma the samples of all chunks generate the group.
    """
    N, Q, shifts, tri = ctx.N, ctx.Q, ctx.shifts, ctx.triples
    m, n, W = len(shifts), N - 1, 2 * Q
    others = np.delete(np.arange(N), a)
    k0, k1 = (k.reshape(-1)[tri] for k in
              _keys(ctx.LL, N, Q, a, others[:, None, None], others[:, None], others))
    # candidate (b, c, y) sits at column k0(y) of pair row (b, c)
    rows = len(tri) // (N - 3)
    at = np.int32 if rows * W < 1 << 31 else np.int64
    base = ((np.arange(rows, dtype=at) * W)[:, None] + k0.reshape(-1, N - 3)).reshape(-1)
    k1row = np.full(rows * W, -W, dtype=ctx.LL.dtype)
    yrow = np.zeros(len(k1row), dtype=ctx.LL.dtype)      # index into others
    l = tri % n
    for lift in (0, Q):
        k1row[base + lift] = k1
        yrow[base + lift] = l

    def corners(t):                      # (b, c, y) of triple positions t
        return others[t // (n * n)], others[t // n % n], others[t % n]

    def holds(cand, d0, d1):
        # the slot at k0 + d0 of the candidate's row holds k1 + d1 mod Q
        diff = k1row[base[cand] + d0] - k1[cand]
        return (diff == d1) | (diff == d1 - Q)

    count = [0] * m
    reach = np.zeros((N, N), dtype=bool) if ctx.want_orbits else None
    p0, *base_pts = (int(v) for v in ctx.src_order[:4])
    samples = {}                             # (level, image, j) -> first such hit
    first = None
    for j in range(m):
        d0, d1 = shifts[j]
        # one candidate translation per (b, c, y), y the fourth point's image;
        # prune on the fifth and sixth source points, then check all at once
        alive = (np.flatnonzero(holds(slice(None), d0[0], d1[0])) if len(d0)
                 else np.arange(len(base)))
        if len(d0) > 1:
            alive = alive[holds(alive, d0[1], d1[1])]
        if ctx.early_exit:
            # only the first hit in (b, c, j, y) order counts: check the
            # survivors in doubling blocks
            hits, lo = alive[:0], 0
            while lo < len(alive) and not len(hits):
                block = alive[lo:2 * lo + 64]
                hits, lo = block[holds(block[:, None], d0, d1).all(axis=1)], 2 * lo + 64
            if len(hits) and (first is None or hits[0] // (N - 3) < first[0] // (N - 3)):
                first = (hits[0], j)
            continue
        hits = alive[holds(alive[:, None], d0, d1).all(axis=1)]
        if not len(hits):
            continue
        count[j] += len(hits)
        if reach is None:
            continue
        b, c, y = corners(tri[hits])
        # Stab(P0) is the chunk a = P0 and every other chunk is one of its
        # cosets: record all hits of the first, one hit group of each other
        if a == p0 or not reach.any():
            images = np.column_stack([np.full(len(hits), a), b, c, y,
                                      others[yrow[base[hits, None] + d0]]])
            reach[np.broadcast_to(ctx.src_order, images.shape), images] = True
        if a != p0:
            samples.setdefault((0, a, j), (j, a, int(b[0]), int(c[0]), int(y[0])))
            continue
        rows = np.column_stack([b, c, y, np.full(len(hits), j)])
        for level in range(4):
            on = rows[(rows[:, :level] == base_pts[:level]).all(axis=1)]
            vals, at = np.unique(on[:, level], return_index=True)
            for v, row in zip(vals, on[at]):
                samples.setdefault((level + 1, int(v), j), (j, a, *map(int, row[:3])))
    if first is not None:
        h, j = first
        return 1, reach, [], (j, a, *map(int, corners(tri[h])))
    # first hit per stream in (b, c, y) order; the lowest j wins
    kept = {}
    for (level, v, _), hit in sorted(samples.items()):
        kept.setdefault((level, v), hit)
    return sum(count), reach, list(kept.values()), None


# ----------------------------------------------------------------- public API


@dataclass(frozen=True)
class OrbitDecomposition:
    params: FieldParams
    point_codes: tuple[int, ...]          # H-model codes, input order
    stabilizer_order: int
    orbits: tuple[tuple[int, ...], ...]   # tuples of indices into point_codes
    # sample elements; they generate the group (tested on the catalog, q <= 32)
    generators: tuple[Collineation, ...]

    def orbit_sizes(self) -> list[int]:
        return sorted(len(o) for o in self.orbits)


def stabilizer(params: FieldParams, points, *, threads: int = 1) -> OrbitDecomposition:
    """Exact stabilizer order, orbits and sample elements of a hyperoval."""
    codes = geometry._as_codes(params, points)
    if len(codes) != params.q + 2:
        raise EquivError("a hyperoval has q+2 points")
    res = _search(params, codes, codes, want_orbits=True, threads=threads)
    # reach is the orbit relation: its distinct rows are the orbits
    seen = {}
    for k in range(len(codes)):
        key = res.reach[k].tobytes()
        seen.setdefault(key, []).append(k)
    orbits = tuple(tuple(v) for v in sorted(seen.values()))
    assert sum(len(o) for o in orbits) == len(codes)
    return OrbitDecomposition(params, tuple(codes), res.order, orbits,
                              tuple(res.generators))


def orbits_on_points(params: FieldParams, points, *, threads: int = 1):
    """Point orbits of a hyperoval under its stabilizer (list of code tuples)."""
    dec = stabilizer(params, points, threads=threads)
    return [tuple(dec.point_codes[i] for i in orbit) for orbit in dec.orbits]


def are_equivalent(params: FieldParams, points_a, points_b,
                   marked: tuple | None = None, threads: int = 1) -> Collineation | None:
    """A collineation mapping arc A onto arc B (and marked_a to marked_b),
    or None after exhausting all candidates."""
    codes_a = geometry._as_codes(params, points_a)
    codes_b = geometry._as_codes(params, points_b)
    mk = None
    if marked is not None:
        ma, mb = geometry._as_codes(params, list(marked))
        mk = (ma, mb)
    res = _search(params, codes_a, codes_b, marked=mk, early_exit=True,
                  threads=threads)
    phi = res.witness
    if phi is None:
        return None
    image = {phi.apply_code(c) for c in codes_a}
    if image != set(codes_b):
        raise EquivError("witness verification failed")  # pragma: no cover
    if mk is not None and phi.apply_code(mk[0]) != mk[1]:
        raise EquivError("witness violates marked point")  # pragma: no cover
    return phi


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
    chosen inside each orbit by minimal serialized g-table; classes are
    pairwise-verified inequivalent through the nucleus-marked oval test.
    """
    P = g.params
    if not g.is_zero_free():
        raise EquivError("g has zeros; apply fix_zeros first")
    oval = g.oval_codes_k()
    # hyperoval point k < q+1 is u_k/g(u_k), point q+1 is the nucleus 0
    dec = stabilizer(P, g.hyperoval_codes_h(), threads=threads)

    classes = []
    for orbit in dec.orbits:
        cands = [(None, g) if idx == P.q + 1 else (idx, gfun.g_shift(g, idx))
                 for idx in orbit]
        s_idx, g_rep = min(cands, key=lambda t: t[1].values.tobytes())
        if s_idx is None:
            rep_oval, f_rep = oval, bent_mod.f_univariate(P, oval)
        else:
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
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            w = are_equivalent(P, list(classes[i].oval_h_codes),
                               list(classes[j].oval_h_codes),
                               marked=(origin, origin), threads=threads)
            if w is not None:
                raise EquivError("orbit representatives are equivalent")  # pragma: no cover
    return ClassifyResult(P, g.provenance, dec.stabilizer_order,
                          tuple(dec.orbit_sizes()), tuple(classes))
