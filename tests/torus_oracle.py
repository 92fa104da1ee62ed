"""The index-cube formulation of the torus keys and the point invariant, kept
as oracles for the broadcast kernel `equiv._fan` and `equiv._point_invariant`;
the full fill of the line-log cube, the oracle of the half cube of
`equiv._line_logs`; every hit of a chunk by plain lookups (`Chunk`) with
the streams of samples rebuilt from them (`stream_samples`), and every hit
of a chunk by the kernel's slot tables (`every_hit_count`), the oracles of
`equiv._process_chunk` and `equiv._chain_count`.

LL is the line-log cube of `equiv._line_logs`, read here at the flat index
(a*N + b)*N + l.  The keys are gathered through int64 index cubes and the
compact layout `triples(N - 1)` of the pairwise distinct triples.
"""

import numpy as np

from nihoval import equiv


def keys(LL: np.ndarray, N: int, Q: int, a, b, c, y):
    """Torus key of points y relative to the triangle (a, b, c), two arrays mod Q."""
    LL = LL.reshape(-1)
    bc = LL[(b * N + c) * N + y]
    k0, k1 = bc - LL[(a * N + c) * N + y], bc - LL[(a * N + b) * N + y]
    for k in (k0, k1):            # a difference of two logs in [0, Q) wraps once
        k += (k < 0) * k.dtype.type(Q)
    return k0, k1


def triples(n: int) -> np.ndarray:
    """Flat positions (i*n + k)*n + l in an n^3 cube of the pairwise distinct
    (i, k, l) in range(n), in (i, k, l) order: entry h has pair row h // (n-2)."""
    p = np.arange(n)
    return np.flatnonzero((p[:, None, None] != p[:, None]) & (p[:, None, None] != p)
                          & (p[:, None] != p)).astype(np.int32)


def fan_keys(LL: np.ndarray, N: int, Q: int, a: int, tri: np.ndarray):
    """Keys of the points y relative to every triangle (a, b, c) of distinct
    points: the other points `others` and k0, k1 at the triples(N - 1)
    positions `tri` over (b, c, y) in `others`, N - 3 points y per row (b, c)."""
    others = np.delete(np.arange(N), a)
    k0, k1 = (k.reshape(-1)[tri] for k in
              keys(LL, N, Q, a, others[:, None, None], others[:, None], others))
    return others, k0, k1


def row_counts(LL: np.ndarray, N: int, Q: int, a: int, tri: np.ndarray) -> np.ndarray:
    """The count of pairs of points y with equal v = k1 - 2*k0 in each pair
    row (b, c) of distinct other points, in the order of tri = triples(N - 1)."""
    _, k0, k1 = fan_keys(LL, N, Q, a, tri)
    v = k1 - 2 * k0
    for _ in range(2):                   # from (-2Q, Q) into [0, Q)
        v += (v < 0) * v.dtype.type(Q)
    v = v.reshape(-1, N - 3)
    # one bincount over (row, v) per block of rows keeps the bins few
    step = max(1, (1 << 16) // Q)
    counts = []
    for lo in range(0, len(v), step):
        block = v[lo:lo + step]
        n = np.bincount((np.arange(len(block))[:, None] * Q + block).reshape(-1),
                        minlength=len(block) * Q)
        counts.append((n * (n - 1) // 2).reshape(-1, Q).sum(axis=1))
    return np.concatenate(counts)


def point_invariant(LL: np.ndarray, N: int, Q: int, a: int,
                    tri: np.ndarray) -> tuple[int, ...]:
    """point_invariant of point a, from the line-log table of its point set
    and the positions tri = triples(N - 1)."""
    return tuple(np.bincount(row_counts(LL, N, Q, a, tri)).tolist())


def line_logs(P, pts: np.ndarray) -> np.ndarray:
    """The line-log cube of equiv._line_logs, every (a, b) computed: log of
    (X_a x X_b) . X_l at [a, b, l], with the log of 0 at -2(q - 1)."""
    fm = P.fmul_v
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
    l0 = fm(y[:, None], z[None, :]) ^ fm(z[:, None], y[None, :])
    l1 = fm(z[:, None], x[None, :]) ^ fm(x[:, None], z[None, :])
    l2 = fm(x[:, None], y[None, :]) ^ fm(y[:, None], x[None, :])
    dots = fm(l0[:, :, None], x) ^ fm(l1[:, :, None], y) ^ fm(l2[:, :, None], z)
    log = P.f_log.astype(np.int64)
    log[0] = -2 * (P.q - 1)
    return log[dots]


class Chunk:
    """The hits of one chunk of the torus search, by plain lookups: for each
    pair row (b, c) of `rows` (flat b*N + c) a table of the points y off the
    triangle (a, b, c), holding k1 and y at column k0 (-1 where empty).  A
    candidate (row, y) at Frobenius power j is a hit when every other source
    point X, at offset (d0, d1) = shifts[j][:, X] from the fourth, finds
    k1 + d1 at column k0 + d0 (mod Q) of the row."""

    def __init__(self, LL, N, Q, shifts, src_order, a, rows):
        self.N, self.Q, self.shifts, self.src_order, self.a = N, Q, shifts, src_order, a
        self.b, self.c = np.divmod(np.asarray(rows, dtype=np.int32), N)
        y = np.arange(N)
        b, c = self.b[:, None], self.c[:, None]
        self.k0, self.k1 = (k.astype(np.int64) for k in keys(LL, N, Q, a, b, c, y))
        ok = (y != a) & (y != b) & (y != c) & (b != c) & (b != a) & (c != a)
        # candidates in (row, y) order; int32 keeps every hit of a large chunk small
        self.r, self.y = (v.astype(np.int32) for v in np.nonzero(ok))
        self.table_k1 = np.full((len(rows), Q), -1)
        self.table_y = np.full((len(rows), Q), -1)
        self.table_k1[self.r, self.k0[ok]] = self.k1[ok]
        self.table_y[self.r, self.k0[ok]] = self.y

    def hits(self):
        """Per j, the hits as index arrays into the candidates (row, y)."""
        Q, out = self.Q, []
        k0, k1 = self.k0[self.r, self.y], self.k1[self.r, self.y]
        for d0, d1 in self.shifts.astype(np.int64):
            alive = np.arange(len(self.r), dtype=np.int32)
            for e0, e1 in zip(d0, d1):
                found = self.table_k1[self.r[alive], (k0[alive] + e0) % Q]
                alive = alive[found == (k1[alive] + e1) % Q]
            out.append(alive)
        return out

    def quadrangles(self, h):
        """The images (a, b, c, y) of the source quadrangle of candidates h."""
        r = self.r[h]
        return np.stack([np.full(len(h), self.a, dtype=np.int32), self.b[r], self.c[r],
                         self.y[h]], axis=1)

    def images(self, h, j):
        """images[k, x]: the index of the image of source point x under hit h[k] at power j."""
        r, y = self.r[h], self.y[h]
        out = np.empty((len(h), self.N), dtype=np.int64)
        out[:, self.src_order[:4]] = self.quadrangles(h)
        col = (self.k0[r, y][:, None] + self.shifts[j][0].astype(np.int64)) % self.Q
        out[:, self.src_order[4:]] = self.table_y[r[:, None], col]
        return out


def stream_samples(quads, base):
    """The samples along the base (P1, P2, P3) = `base` from every hit of
    chunk P0: quads[j] holds the images (a, b, c, y) of the hits at power j,
    in (b, c, y) order.  The first hit per image of P1, of P2 among the hits
    fixing P1, of P3 among those fixing P1 and P2, and per j among those
    fixing all three, each at the lowest j with such a hit; as (j, index
    into quads[j]) in (level, image) order."""
    samples = {}
    for j, quad in enumerate(quads):
        on = np.arange(len(quad))
        for level in range(3):
            col = quad[:, level + 1]
            vals, pos = np.unique(col[on], return_index=True)
            for v, h in zip(vals.tolist(), on[pos].tolist()):
                samples.setdefault((level + 1, v, j), h)
            on = on[col[on] == base[level]]
        for h in on.tolist():
            samples.setdefault((4, j, j), h)
    kept = {}
    for (level, v, j), h in sorted(samples.items()):
        kept.setdefault((level, v), (j, h))
    return list(kept.values())


def every_hit_count(ctx, a: int, rows: np.ndarray) -> int:
    """The number of hits of chunk a over the pair rows `rows` (ascending),
    ctx the equiv._Torus of the search: every survivor of the kernel's
    probes checked on every source point, at every j, in slabs of rows."""
    count = 0
    for lo, hi in equiv._slabs(rows, ctx.N, ctx.N * ctx.N):
        slab = equiv._Slab(ctx, a, rows[lo:hi])
        count += sum(len(slab.hits(slab.survivors(j), j)) for j in range(len(ctx.shifts)))
    return count
