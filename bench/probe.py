"""Fixed-size probe of the GF(2^m) multiply kernels.

fmul_v and kmul_v are log/exp table gathers.  Per product numpy reads both
operand arrays, writes and reads the two gathered logs and their sum, and
writes the result: 9 array accesses of 4 bytes.  The tables themselves
(q and q^2 entries at m = 5) stay in L1.  The operands, the temporaries and
the result together take about 24 MiB, which fits in a 105 MiB L3, so the
probe reports products per second and computed bytes, not a bandwidth.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

PROBE_M = 5
PROBE_N = 1 << 20
PROBE_REPEATS = 9
BYTES_PER_PROD = 9 * 4


def _rate(fn, a, b) -> float:
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        fn(a, b)
        times.append(time.perf_counter() - t0)
    return PROBE_N / statistics.median(times) / 1e6


def kernel_probe() -> dict[str, float]:
    from nihoval.gf2m import field_create
    P = field_create(PROBE_M)
    rng = np.random.default_rng(0)
    fa, fb = (rng.integers(0, P.q, PROBE_N, dtype=np.uint32) for _ in range(2))
    ka, kb = (rng.integers(0, P.q * P.q, PROBE_N, dtype=np.uint32) for _ in range(2))
    P.kinv_v(np.ones(1, dtype=np.uint32))  # builds the K tables kmul_v gathers from
    return {"gf2m.fmul_v.mprod_per_s": _rate(P.fmul_v, fa, fb),
            "gf2m.kmul_v.mprod_per_s": _rate(P.kmul_v, ka, kb),
            "gf2m.fmul_v.bytes_per_prod": BYTES_PER_PROD}
