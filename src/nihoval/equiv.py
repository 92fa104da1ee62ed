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
  After that the search is integer work only: per triple, an image-index
  table over the keys of T; candidate translations from the image of the
  fourth source point; pruning by gathers from the table.
* Every hit is one group element, so the hit count is the exact stabilizer
  order.  The hits with A = P0 (the stabilizer of P0) and one hit for each
  other A generate the group; table lookups give their point images, and
  the closure of that relation is the orbit partition.  Matrices are built
  only for the witness and the stored sample elements, from the four image
  points of the source quadrangle (P0, P1, P2, P3).
* A zero in the line-log table means three collinear points: the input is
  not an arc and the search raises EquivError.

Chunks run over the first image point A (one chunk when `marked` pins it);
a chunk is cut into pieces when its table would exceed TABLE_BYTES.  Results
are merged in A order, so they do not depend on the piece size or on the
thread count.  are_equivalent runs the same search with an early exit on the
first hit, optionally with a marked point (nucleus -> nucleus for oval
equivalence).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bent as bent_mod
from . import geometry, gfun
from .gf2m import FieldParams

TABLE_BYTES = 1 << 22                    # image-index table bytes per piece of a chunk
SAMPLE_POSITIONS = (0, 1, 2, 4, 8, 16, 32)  # stored hits per (first image, Frobenius) stream
MAX_SAMPLES = 96                         # sample elements kept per search


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
    return P.f_log[dots.reshape(-1)].astype(np.int32)


def _keys(LL: np.ndarray, N: int, Q: int, a, b, c, y):
    """Torus key of points y relative to the triangle (a, b, c), two arrays mod Q."""
    bc = LL[(b * N + c) * N + y]
    return (bc - LL[(a * N + c) * N + y]) % Q, (bc - LL[(a * N + b) * N + y]) % Q


def _rows(n: int) -> tuple[np.ndarray, ...]:
    """(i, k, l, row) over pairwise distinct positions in range(n), in (i, k, l)
    order; row = i*(n-1) + k - (k > i) numbers the pairs (i, k)."""
    p = np.arange(n)
    i, k, l = np.nonzero((p[:, None, None] != p[:, None]) & (p[:, None, None] != p)
                         & (p[:, None] != p))
    return tuple(v.astype(np.int32) for v in (i, k, l, i * (n - 1) + k - (k > i)))


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
    shifts: np.ndarray      # (m, N-4) source key offsets from the fourth point
    src_order: np.ndarray   # source indices: base triangle, fourth point, the rest
    rows: tuple             # _rows(N - 1)
    want_orbits: bool
    early_exit: bool
    store_stride: int | None


def _search(params: FieldParams, src_codes, dst_codes, *,
            marked: tuple[int, int] | None = None,
            early_exit: bool = False,
            want_orbits: bool = False,
            store_stride: int | None = None,
            threads: int = 1) -> _SearchResult:
    """Count/find collineations mapping the src set onto the dst set.

    `marked` = (src_code, dst_code) pins the image of one point.  With
    `early_exit` the first hit is returned as the witness.  With
    `want_orbits` (src must equal dst) `reach` is the orbit relation on the
    points.  Chunks (one per first image point) are merged in order, so
    counts, orbits, the witness and the sample elements do not depend on
    TABLE_BYTES or on the thread count.
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
    # keys of the other source points minus the fourth point's key, times 2^j,
    # as flat offsets into a (2Q)^2 table
    k0, k1 = _keys(LLs, N, Q, order[0], order[1], order[2], np.array(order[3:]))
    d0, d1 = k0[1:] - k0[0], k1[1:] - k1[0]
    shifts = np.array([(d0 * (1 << j)) % Q * (2 * Q) + (d1 * (1 << j)) % Q
                       for j in range(m)], dtype=np.int64).reshape(m, N - 4)
    ctx = _Torus(LLd, N, Q, shifts, np.array(order), _rows(N - 1),
                 want_orbits, early_exit, store_stride)
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
        # the recorded elements generate the group: close the relation
        while True:
            closed = res.reach | res.reach.T | (res.reach @ res.reach)
            if np.array_equal(closed, res.reach):
                break
            res.reach = closed
    first_per_j = {}
    for hit in picks:
        first_per_j.setdefault(hit[0], hit)
    chosen = dict.fromkeys([first_per_j[j] for j in sorted(first_per_j)] + picks)
    res.generators = [build(hit) for hit in list(chosen)[:MAX_SAMPLES]]
    return res


def _process_chunk(ctx: _Torus, a: int):
    """All hits that map the source triangle to (a, b, c) for some b, c.

    Returns (hit count, reach | None, sample hits, first hit | None); a hit is
    (j, a, b, c, y) with y the image of the fourth source point.  The
    triangles (a, b, c) are cut into pieces whose image-index table fits in
    TABLE_BYTES.
    """
    N, Q, LL, shifts = ctx.N, ctx.Q, ctx.LL, ctx.shifts
    m = shifts.shape[0]
    W = 2 * Q
    cells = W * W
    lifts = (0, Q, Q * W, Q * W + Q)
    dtype = np.min_scalar_type(N)            # image index + 1; 0 = no point
    step = max(1, TABLE_BYTES // (cells * dtype.itemsize))
    wanted = (SAMPLE_POSITIONS if ctx.store_stride is None
              else range(0, 256 * ctx.store_stride, ctx.store_stride))
    others = np.delete(np.arange(N), a)
    I, K, L, R = ctx.rows
    count = [0] * m
    reach = np.zeros((N, N), dtype=bool) if ctx.want_orbits else None
    picks = [[] for _ in range(m)]
    for lo in range(0, (N - 1) * (N - 2), step):
        s = slice(lo * (N - 3), (lo + step) * (N - 3))
        b, c, y = others[I[s]], others[K[s]], others[L[s]]
        k0, k1 = _keys(LL, N, Q, a, b, c, y)
        # a key is stored at its four lifts in Z_2Q^2, so key + shift needs no
        # reduction mod Q
        base = (R[s] - lo).astype(np.int64) * cells + k0 * W + k1
        table = np.zeros(min(step, (N - 1) * (N - 2) - lo) * cells, dtype=dtype)
        for off in lifts:
            table[base + off] = y + 1
        first = None
        for j in range(m):
            sh = shifts[j]
            # one candidate translation per (b, c, y), y the fourth point's image;
            # prune on the fifth and sixth source points, then check all at once
            alive = np.flatnonzero(table[base + sh[0]]) if len(sh) else np.arange(len(base))
            if len(sh) > 1:
                alive = alive[table[base[alive] + sh[1]] != 0]
            img = table[base[alive, None] + sh]
            ok = img.all(axis=1)
            hits = alive[ok]
            if not len(hits):
                continue
            if ctx.early_exit:
                # first hit in (b, c, j, y) order, whatever the piece size
                if first is None or hits[0] // (N - 3) < first[0] // (N - 3):
                    first = (hits[0], j)
                continue
            # Stab(P0) is the chunk a = P0 and every other chunk is one of its
            # cosets: record all hits of the first, one hit group of each other
            if reach is not None and (a == ctx.src_order[0] or not reach.any()):
                images = np.column_stack([np.full(len(hits), a), b[hits], c[hits], y[hits],
                                          img[ok].astype(np.int64) - 1])
                reach[np.broadcast_to(ctx.src_order, images.shape), images] = True
            for p in wanted:
                if p >= count[j] + len(hits):
                    break
                if p >= count[j]:
                    h = hits[p - count[j]]
                    picks[j].append((j, a, int(b[h]), int(c[h]), int(y[h])))
            count[j] += len(hits)
        if first is not None:
            h, j = first
            return 1, reach, [], (j, a, int(b[h]), int(c[h]), int(y[h]))
    return sum(count), reach, [h for per_j in picks for h in per_j], None


# ----------------------------------------------------------------- public API


@dataclass(frozen=True)
class OrbitDecomposition:
    params: FieldParams
    point_codes: tuple[int, ...]          # H-model codes, input order
    stabilizer_order: int
    orbits: tuple[tuple[int, ...], ...]   # tuples of indices into point_codes
    generators: tuple[Collineation, ...]  # sample elements (see closure_order)

    def orbit_sizes(self) -> list[int]:
        return sorted(len(o) for o in self.orbits)

    def orbit_of_index(self, idx: int) -> tuple[int, ...]:
        for o in self.orbits:
            if idx in o:
                return o
        raise EquivError("index outside the hyperoval")  # pragma: no cover


def stabilizer(params: FieldParams, points, *, complete_generators: bool = False,
               threads: int = 1) -> OrbitDecomposition:
    """Exact stabilizer order, orbits and sample elements of a hyperoval.

    With complete_generators the sample elements are re-harvested (with an
    increasingly fine stride through the hit stream) until their closure has
    exactly the stabilizer order, and EquivError is raised if stride 1 still
    falls short; intended for q <= 32.
    """
    codes = geometry._as_codes(params, points)
    if len(codes) != params.q + 2:
        raise EquivError("a hyperoval has q+2 points")
    res = _search(params, codes, codes, want_orbits=True, threads=threads)
    if complete_generators:
        gens = list(res.generators)
        stride = None
        while closure_order(gens, limit=res.order) < res.order:
            if stride == 1:
                raise EquivError("the harvested elements do not generate the stabilizer")
            stride = max(1, res.order // 64) if stride is None else max(1, stride // 4)
            extra = _search(params, codes, codes, store_stride=stride,
                            threads=threads)
            keys = {g.key() for g in gens}
            gens += [g for g in extra.generators if g.key() not in keys]
        res.generators = gens
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


def _compose_batch(P: FieldParams, mats, js, gmat, gj):
    """(M, j) -> (M * frob_j(Mg), j + jg) for a batch, canonically scaled."""
    out = np.empty_like(mats)
    outj = (js + gj) % P.m
    for j in np.unique(js):
        rows = np.nonzero(js == j)[0]
        Rg = P.f_frob[int(j)][np.asarray(gmat, dtype=np.uint32)]
        Mr = mats[rows]
        res = np.empty_like(Mr)
        for r in range(3):
            for c in range(3):
                acc = P.fmul_v(Mr[:, 3 * r], np.uint32(int(Rg[c])))
                acc = acc ^ P.fmul_v(Mr[:, 3 * r + 1], np.uint32(int(Rg[3 + c])))
                acc = acc ^ P.fmul_v(Mr[:, 3 * r + 2], np.uint32(int(Rg[6 + c])))
                res[:, 3 * r + c] = acc
        out[rows] = res
    lead_idx = (out != 0).argmax(axis=1)
    lead = out[np.arange(len(out)), lead_idx]
    out = P.fmul_v(out, P.finv_v(lead)[:, None])
    return out, outj


def closure_order(generators, limit: int = 10_000_000) -> int:
    """Order of the group generated by the given collineations (batched BFS)."""
    if not generators:
        return 1
    P = generators[0].params
    gens = [(np.array(g.matrix, dtype=np.uint32), g.frob) for g in generators]
    ident = np.array([1, 0, 0, 0, 1, 0, 0, 0, 1], dtype=np.uint32)
    seen = {ident.tobytes() + bytes([0])}
    frontier_m = ident[None, :]
    frontier_j = np.zeros(1, dtype=np.int64)
    total = 1
    while len(frontier_m):
        new_m, new_j = [], []
        for gmat, gj in gens:
            pm, pj = _compose_batch(P, frontier_m, frontier_j, gmat, gj)
            for row, j in zip(pm, pj):
                key = row.tobytes() + bytes([int(j)])
                if key not in seen:
                    seen.add(key)
                    new_m.append(row)
                    new_j.append(int(j))
                    total += 1
                    if total > limit:
                        raise EquivError("closure exceeded limit")
        frontier_m = (np.array(new_m, dtype=np.uint32) if new_m
                      else np.empty((0, 9), dtype=np.uint32))
        frontier_j = np.array(new_j, dtype=np.int64)
    return total


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


def classify_bent(g: "gfun.GFunction", *, verify_pairwise: bool = True,
                  verify_bent: bool = True, threads: int = 1) -> ClassifyResult:
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
        oval_h = geometry.k_codes_to_h_codes(P, np.append(rep_oval, 0))
        if verify_bent:
            fb = bent_mod.bent_from_g(g_rep)
            if not bent_mod.is_bent(fb):
                raise EquivError("class representative is not bent")  # pragma: no cover
            if fb != f_rep.evaluate():
                raise EquivError("polynomial/table mismatch")  # pragma: no cover
        classes.append(BentClass(s_idx, g_rep, f_rep,
                                 tuple(int(c) for c in oval_h), len(orbit)))

    if verify_pairwise:
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
