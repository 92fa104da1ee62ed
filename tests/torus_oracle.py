"""The index-cube formulation of the torus keys and the point invariant, kept
as oracles for the broadcast kernel `equiv._fan` and `equiv._point_invariant`.

LL is the line-log cube of `equiv._line_logs`, read here at the flat index
(a*N + b)*N + l.  The keys are gathered through int64 index cubes and the
compact layout `triples(N - 1)` of the pairwise distinct triples.
"""

import numpy as np


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
