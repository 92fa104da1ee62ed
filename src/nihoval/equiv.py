"""Collineations of PG(2,q), hyperoval stabilizers and equivalence classes.

A collineation is x -> M * x^(2^j) with M in PGL(3,q) (canonically scaled)
and j a Frobenius power.  By the fundamental theorem of projective geometry
a projectivity is pinned by the images of four points in general position,
and every 4-subset of a hyperoval is in general position, so the stabilizer
elements of a hyperoval H correspond bijectively to pairs (j, Q) where Q is
an ordered 4-tuple of H mapped from a fixed quadrangle Q0:

    M = N_Q * N_{Q0^(2^j)}^{-1},   keep iff M maps H^(2^j) onto H.

The enumeration is vectorized: for every ordered triple (A,B,C) and fourth
point D the frame solution (alpha,beta,gamma) = adj([A B C]) * D gives
N_Q = [alpha*A | beta*B | gamma*C] up to scale; candidates are pruned by
mapping one probe point of H and testing membership (expected O(1) survivors
per false candidate), then a second probe, then fully verified.  Counting
hits gives the exact stabilizer order; the image rows of the verified hits
give the point orbits directly (the hits are *all* group elements).

are_equivalent reuses the machinery with quadrangles drawn from the target
set, optionally with a marked point (nucleus -> nucleus for oval
equivalence), and early-exits on the first verified witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import bent as bent_mod
from . import geometry, gfun
from .gf2m import FieldParams

CHUNK_CELLS = 3_000_000          # candidate cells (triples x points) per chunk


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


def _matvec(P: FieldParams, M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(3,3) @ (N,3) over GF."""
    out = np.zeros_like(v)
    for r in range(3):
        acc = np.zeros(v.shape[0], dtype=np.uint32)
        for k in range(3):
            acc ^= P.fmul_v(np.uint32(int(M[r, k])), v[:, k])
        out[:, r] = acc
    return out


def _scalar_adjugate(P: FieldParams, M: np.ndarray) -> np.ndarray:
    flat = _adjugate3(P, [int(M[r, c]) for r in range(3) for c in range(3)])
    return np.array(flat, dtype=np.uint32).reshape(3, 3)


def _frame_matrix(P: FieldParams, quad: np.ndarray) -> np.ndarray:
    """3x3 taking the standard frame to the 4 rows of `quad` (up to scale)."""
    A, B, C, D = (quad[k] for k in range(4))
    cols = np.stack([A, B, C], axis=-1)  # 3x3 with columns A,B,C
    adj = _scalar_adjugate(P, cols)
    s = np.zeros(3, dtype=np.uint32)
    for r in range(3):
        acc = 0
        for k in range(3):
            acc ^= P.fmul(int(adj[r, k]), int(D[k]))
        s[r] = acc
    if not all(int(v) for v in s):
        raise EquivError("frame points are not in general position")
    out = np.zeros((3, 3), dtype=np.uint32)
    for r in range(3):
        for c in range(3):
            out[r, c] = P.fmul(int(cols[r, c]), int(s[c]))
    return out


# ----------------------------------------------------------- the enumeration


@dataclass
class _SearchResult:
    order: int = 0
    reach: np.ndarray | None = None
    witness: Collineation | None = None
    generators: list = field(default_factory=list)


def _search(params: FieldParams, src_codes, dst_codes, *,
            marked: tuple[int, int] | None = None,
            early_exit: bool = False,
            want_orbits: bool = False,
            store_stride: int | None = None,
            threads: int = 1) -> _SearchResult:
    """Count/find collineations mapping the src set onto the dst set.

    `marked` = (src_code, dst_code) pins the image of one point.  With
    `early_exit` the first verified witness is returned.  With `want_orbits`
    (src must equal dst) the orbit reach matrix is accumulated.  Chunk
    results are merged in enumeration order, so counts, orbits and stored
    sample elements do not depend on chunk size or thread count.
    """
    if threads < 1:
        raise EquivError(f"threads must be >= 1, got {threads}")
    P = params
    q, m = P.q, P.m
    nsp = q * q + q + 1
    src_codes = [int(c) for c in src_codes]
    dst_codes = [int(c) for c in dst_codes]
    N = len(src_codes)
    if len(dst_codes) != N:
        raise EquivError("point sets differ in size")

    in_dst = np.zeros(nsp, dtype=bool)
    dst_index = np.full(nsp, -1, dtype=np.int32)
    for idx, c in enumerate(dst_codes):
        in_dst[c] = True
        dst_index[c] = idx
    src = _coords_of_codes(P, src_codes)
    dst = _coords_of_codes(P, dst_codes)

    # source quadrangle: marked point first when present
    order_src = list(range(N))
    if marked is not None:
        ms = src_codes.index(marked[0])
        order_src = [ms] + [k for k in range(N) if k != ms]
    q0_idx = order_src[:4]
    probe_idx = order_src[4:6]  # may be empty at q = 2

    # per-Frobenius canonicalized source points V_j = N_{Q0^(2^j)}^{-1} src^(2^j)
    Vs, A_inv = [], []
    for j in range(m):
        srcj = P.f_frob[j][src]
        Aj = _scalar_adjugate(P, _frame_matrix(P, srcj[q0_idx]))
        A_inv.append(Aj)
        Vs.append(_matvec(P, Aj, srcj))

    # candidate pools in the destination
    if marked is not None:
        md = dst_codes.index(marked[1])
        first_pool = [md]
        other_pool = np.array([k for k in range(N) if k != md], dtype=np.int64)
    else:
        first_pool = list(range(N))
        other_pool = np.arange(N, dtype=np.int64)
    trip = []
    for i0 in first_pool:
        for i1 in other_pool:
            if i1 == i0:
                continue
            for i2 in other_pool:
                if i2 != i0 and i2 != i1:
                    trip.append((i0, i1, i2))
    triples = np.array(trip, dtype=np.int64)
    d_pool = other_pool  # the fourth point never equals a marked image

    chunk = max(1, CHUNK_CELLS // max(1, len(d_pool)))
    starts = list(range(0, len(triples), chunk))
    ctx = (P, d_pool, dst, Vs, A_inv, in_dst, dst_index, probe_idx,
           early_exit, want_orbits, store_stride)

    def run(start):
        return _process_chunk(ctx, triples[start:start + chunk])

    if threads > 1 and len(starts) > 1 and not early_exit:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outs = list(pool.map(run, starts))
    else:
        outs = []
        for s in starts:
            out = run(s)
            outs.append(out)
            if early_exit and out[3] is not None:
                break

    res = _SearchResult()
    if want_orbits:
        res.reach = np.eye(N, dtype=bool)
    first_per_j: dict[int, Collineation] = {}
    stored_all: list[Collineation] = []
    for count, reach, stored, witness in outs:
        res.order += count
        if want_orbits and reach is not None:
            res.reach |= reach
        for j, phi in stored:
            if j not in first_per_j:
                first_per_j[j] = phi
            stored_all.append(phi)
        if witness is not None and res.witness is None:
            res.witness = witness
    samples, seen = [], set()
    for phi in [first_per_j[j] for j in sorted(first_per_j)] + stored_all:
        if phi.key() not in seen:
            seen.add(phi.key())
            samples.append(phi)
        if len(samples) >= 96:
            break
    res.generators = samples
    return res


def _process_chunk(ctx, tchunk):
    """Pure chunk worker: returns (hit_count, reach|None, stored, witness)."""
    (P, d_pool, dst, Vs, A_inv, in_dst, dst_index, probe_idx,
     early_exit, want_orbits, store_stride) = ctx
    fm = P.fmul_v
    N = dst.shape[0]
    A = dst[tchunk[:, 0]]
    B = dst[tchunk[:, 1]]
    C = dst[tchunk[:, 2]]
    a0, a1, a2 = A[:, 0], A[:, 1], A[:, 2]
    b0, b1, b2 = B[:, 0], B[:, 1], B[:, 2]
    c0, c1, c2 = C[:, 0], C[:, 1], C[:, 2]
    adj = [
        fm(b1, c2) ^ fm(b2, c1), fm(b0, c2) ^ fm(b2, c0), fm(b0, c1) ^ fm(b1, c0),
        fm(a1, c2) ^ fm(a2, c1), fm(a0, c2) ^ fm(a2, c0), fm(a0, c1) ^ fm(a1, c0),
        fm(a1, b2) ^ fm(a2, b1), fm(a0, b2) ^ fm(a2, b0), fm(a0, b1) ^ fm(a1, b0),
    ]
    Dx = dst[d_pool]
    alpha = fm(adj[0][:, None], Dx[None, :, 0]) ^ fm(adj[1][:, None], Dx[None, :, 1]) \
        ^ fm(adj[2][:, None], Dx[None, :, 2])
    beta = fm(adj[3][:, None], Dx[None, :, 0]) ^ fm(adj[4][:, None], Dx[None, :, 1]) \
        ^ fm(adj[5][:, None], Dx[None, :, 2])
    gamma = fm(adj[6][:, None], Dx[None, :, 0]) ^ fm(adj[7][:, None], Dx[None, :, 1]) \
        ^ fm(adj[8][:, None], Dx[None, :, 2])
    valid = (d_pool[None, :] != tchunk[:, 0][:, None]) \
        & (d_pool[None, :] != tchunk[:, 1][:, None]) \
        & (d_pool[None, :] != tchunk[:, 2][:, None])

    def images(al, be, ga, Arows, Brows, Crows, v):
        out = []
        for r in range(3):
            out.append(fm(al, fm(np.uint32(int(v[0])), Arows[:, r]))
                       ^ fm(be, fm(np.uint32(int(v[1])), Brows[:, r]))
                       ^ fm(ga, fm(np.uint32(int(v[2])), Crows[:, r])))
        return geometry.normalize_codes_v(P, out[0], out[1], out[2])

    count = 0
    reach = np.zeros((N, N), dtype=bool) if want_orbits else None
    stored = []
    for j in range(len(Vs)):
        ti, di = np.nonzero(valid)
        for p in probe_idx:
            if len(ti) == 0:
                break
            codes = images(alpha[ti, di], beta[ti, di], gamma[ti, di],
                           A[ti], B[ti], C[ti], Vs[j][p])
            keep = in_dst[codes]
            ti, di = ti[keep], di[keep]
        if len(ti) == 0:
            continue
        al, be, ga = alpha[ti, di], beta[ti, di], gamma[ti, di]
        At, Bt, Ct = A[ti], B[ti], C[ti]
        V = Vs[j]
        aV = fm(al[:, None], V[None, :, 0])
        bV = fm(be[:, None], V[None, :, 1])
        gV = fm(ga[:, None], V[None, :, 2])
        y0 = fm(aV, At[:, 0][:, None]) ^ fm(bV, Bt[:, 0][:, None]) \
            ^ fm(gV, Ct[:, 0][:, None])
        y1 = fm(aV, At[:, 1][:, None]) ^ fm(bV, Bt[:, 1][:, None]) \
            ^ fm(gV, Ct[:, 1][:, None])
        y2 = fm(aV, At[:, 2][:, None]) ^ fm(bV, Bt[:, 2][:, None]) \
            ^ fm(gV, Ct[:, 2][:, None])
        codes = geometry.normalize_codes_v(P, y0, y1, y2)
        ok = in_dst[codes].all(axis=1)
        hit_rows = np.nonzero(ok)[0]
        if len(hit_rows) == 0:
            continue
        if want_orbits:
            img = dst_index[codes[hit_rows]]
            for k in range(img.shape[1]):
                reach[k, img[:, k]] = True
        # deterministic samples: first few hits of each chunk/Frobenius layer,
        # or a fixed stride through them when harvesting a generating set
        if store_stride is None:
            positions = [p for p in (0, 1, 2, 4, 8, 16, 32) if p < len(hit_rows)]
        else:
            positions = list(range(0, len(hit_rows), store_stride))[:256]
        for pos in positions:
            r = hit_rows[pos]
            phi = _build_collineation(P, j, int(al[r]), int(be[r]), int(ga[r]),
                                      At[r], Bt[r], Ct[r], A_inv[j])
            stored.append((j, phi))
            if early_exit:
                return count + len(hit_rows), reach, stored, phi
        count += len(hit_rows)
    return count, reach, stored, None


def _build_collineation(P, j, al, be, ga, Acol, Bcol, Ccol, Ainv) -> Collineation:
    nq = np.zeros((3, 3), dtype=np.uint32)
    for r in range(3):
        nq[r, 0] = P.fmul(al, int(Acol[r]))
        nq[r, 1] = P.fmul(be, int(Bcol[r]))
        nq[r, 2] = P.fmul(ga, int(Ccol[r]))
    M = np.zeros((3, 3), dtype=np.uint32)
    for r in range(3):
        for c in range(3):
            acc = 0
            for k in range(3):
                acc ^= P.fmul(int(nq[r, k]), int(Ainv[k, c]))
            M[r, c] = acc
    return Collineation.make(P, M.reshape(-1), j)


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


def stabilizer(params: FieldParams, points, *, check: bool = True,
               complete_generators: bool = False,
               threads: int = 1) -> OrbitDecomposition:
    """Exact stabilizer order, orbits and sample elements of a hyperoval.

    With complete_generators the sample elements are re-harvested (with an
    increasingly fine stride through the hit stream) until their closure has
    exactly the stabilizer order; intended for q <= 32.
    """
    codes = geometry._as_codes(params, points)
    if check and not geometry.no_three_collinear(params, codes):
        raise EquivError("input is not a hyperoval")
    if len(codes) != params.q + 2:
        raise EquivError("a hyperoval has q+2 points")
    res = _search(params, codes, codes, want_orbits=True, threads=threads)
    if complete_generators:
        gens = list(res.generators)
        stride = None
        while closure_order(gens, limit=res.order) < res.order:
            stride = max(1, res.order // 64) if stride is None else max(1, stride // 4)
            extra = _search(params, codes, codes, store_stride=stride,
                            threads=threads)
            keys = {g.key() for g in gens}
            gens += [g for g in extra.generators if g.key() not in keys]
            if stride == 1:
                break
        res.generators = gens
    # orbits = unique rows of the reach matrix (hits cover the whole group)
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
    """A collineation mapping set A onto set B (and marked_a to marked_b),
    or None after exhausting all candidate quadrangles."""
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
