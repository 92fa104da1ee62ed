"""The torus-key search against a brute-force oracle, metamorphic properties
and its error paths."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from nihoval import equiv, geometry as geo, gfun
from nihoval.equiv import EquivError, are_equivalent, stabilizer
from nihoval.gf2m import field_create

import point_oracle
import torus_oracle
from test_acceptance import catalog_sweep_cases
from test_equiv import pgammal_order


def hyperoval(P, fam="hyperconic", r=None):
    return gfun.g_catalog(P, fam, r=r).hyperoval_codes_h()


def random_collineation(P, rng):
    while True:
        M = [rng.randrange(P.q) for _ in range(9)]
        if any(M):
            phi = equiv.Collineation.make(P, M, rng.randrange(P.m))
            if phi.det():
                return phi


def orbit_sets(dec):
    return {frozenset(dec.point_codes[i] for i in o) for o in dec.orbits}


# ------------------------------------------------------------ brute force


def pgammal_permutations(P) -> np.ndarray:
    """Every element of PGammaL(3,q) as a row of point-code images, x -> M x^(2^j)."""
    q, nsp = P.q, P.q * P.q + P.q + 1
    vals = np.arange(q, dtype=np.uint32)
    M = np.stack(np.meshgrid(*[vals] * 9, indexing="ij"), axis=-1).reshape(-1, 9)
    fm = P.fmul_v
    a, b, c, d, e, f, g, h, i = (M[:, k] for k in range(9))
    det = fm(a, fm(e, i) ^ fm(f, h)) ^ fm(b, fm(d, i) ^ fm(f, g)) ^ fm(c, fm(d, h) ^ fm(e, g))
    lead = M[np.arange(len(M)), (M != 0).argmax(axis=1)]
    M = M[(det != 0) & (lead == 1)]                 # one matrix per element of PGL(3,q)
    x, y, z = geo.codes_to_coords_v(P, np.arange(nsp))
    img = [fm(M[:, 3 * r, None], x) ^ fm(M[:, 3 * r + 1, None], y) ^ fm(M[:, 3 * r + 2, None], z)
           for r in range(3)]
    linear = geo.normalize_codes_v(P, *img)         # (|PGL|, nsp)
    perms = []
    for j in range(P.m):
        fr = P.f_frob[j]
        frob = geo.normalize_codes_v(P, fr[x], fr[y], fr[z])
        perms.append(linear[:, frob])
    out = np.concatenate(perms)
    assert len(out) == pgammal_order(P)
    return out


@pytest.fixture(scope="module", params=[1, 2])
def oracle(request):
    P = field_create(request.param)
    return P, pgammal_permutations(P)


def oracle_rows(perms, src, dst, marked=None):
    """Indices of the rows of `perms` mapping the set src onto the set dst
    (and marked[0] to marked[1])."""
    in_dst = np.zeros(perms.shape[1], dtype=bool)
    in_dst[dst] = True
    ok = in_dst[perms[:, src]].all(axis=1)
    if marked is not None:
        ok &= perms[:, marked[0]] == marked[1]
    return np.flatnonzero(ok)


def oracle_maps(perms, src, dst, marked=None):
    return perms[oracle_rows(perms, src, dst, marked)]


def test_stabilizer_matches_brute_force(oracle):
    P, perms = oracle
    H = hyperoval(P)
    group = oracle_maps(perms, H, H)
    dec = stabilizer(P, H)
    assert dec.stabilizer_order == len(group)
    want = {frozenset(int(v) for v in group[:, c]) for c in H}
    assert orbit_sets(dec) == want
    # one marked point: the stabilizer of the point inside the stabilizer of H
    for p in H:
        fixing = oracle_maps(perms, H, H, marked=(p, p))
        res = equiv._search(P, H, H, marked=(p, p), want_orbits=True)
        assert res.order == len(fixing)
        got = {frozenset(H[i] for i in np.flatnonzero(res.classes == least))
               for least in res.classes}
        assert got == {frozenset(int(v) for v in fixing[:, c]) for c in H}


def test_are_equivalent_matches_brute_force(oracle):
    # subsets of a hyperoval leave key slots empty.  The witness is the first
    # map in (A, B, C, j, Y) order: the images of the first four source
    # points as indices into dst, and the Frobenius power
    P, perms = oracle
    H = hyperoval(P)
    per_j = len(perms) // P.m
    rng = random.Random(f"oracle:{P.m}")
    for _ in range(40):
        k = rng.randrange(4, len(H) + 1)
        src = rng.sample(H, k)
        image = [int(v) for v in perms[rng.randrange(len(perms)), H]]
        dst = rng.sample(image, k)
        pos = {c: i for i, c in enumerate(dst)}
        marked = (src[0], rng.choice(dst))
        for mk in (None, marked):
            rows = oracle_rows(perms, src, dst, mk)
            assert equiv._search(P, src, dst, marked=mk).order == len(rows)
            w = are_equivalent(P, src, dst, marked=mk)
            assert (w is not None) == (len(rows) > 0)
            if w is not None:
                assert {w.apply_code(c) for c in src} == set(dst)
                assert mk is None or w.apply_code(mk[0]) == mk[1]
                first = min((*(pos[int(perms[r, c])] for c in src[:3]), r // per_j,
                             pos[int(perms[r, src[3]])]) for r in rows)
                assert (*(pos[w.apply_code(c)] for c in src[:3]), w.frob,
                        pos[w.apply_code(src[3])]) == first


# ------------------------------------------------------------ metamorphic


@pytest.mark.parametrize("m,fam,seed", [(4, "hyperconic", 1), (4, "lunelli_sce", 2),
                                        (5, "okeefe_penttila", 3), (5, "segre", 4)])
def test_collineation_image_keeps_stabilizer(m, fam, seed):
    P = field_create(m)
    H = hyperoval(P, fam)
    rng = random.Random(f"image:{m}:{fam}:{seed}")
    phi = random_collineation(P, rng)
    image = [phi.apply_code(c) for c in H]
    rng.shuffle(image)
    a, b = stabilizer(P, H), stabilizer(P, image)
    assert a.stabilizer_order == b.stabilizer_order
    assert a.orbit_sizes() == b.orbit_sizes()
    # phi maps orbits onto orbits
    assert {frozenset(phi.apply_code(c) for c in o) for o in orbit_sets(a)} == orbit_sets(b)
    for mk in (None, (H[-1], phi.apply_code(H[-1]))):
        w = are_equivalent(P, H, image, marked=mk)
        assert w is not None and {w.apply_code(c) for c in H} == set(image)
        assert mk is None or w.apply_code(mk[0]) == mk[1]


@pytest.mark.parametrize("m", [9, 14, 16])
def test_high_frobenius_powers_at_large_m(m):
    # key offsets times 2^j leave 16 bits from m = 9 (j = 7, 8); keys are
    # 32-bit from m = 14, and at m = 16 the logs themselves need it.  Six
    # points of the hyperconic and their image under a collineation with
    # Frobenius power 8
    P = field_create(m)
    t = np.arange(4, dtype=np.uint32)
    xs, ys, zs = (np.append(v, w).astype(np.uint32) for v, w in
                  ((np.ones(4), (0, 0)), (t, (0, 1)), (P.fmul_v(t, t), (1, 0))))
    src = [int(c) for c in geo.normalize_codes_v(P, xs, ys, zs)]
    rng = random.Random(f"frobenius:{m}")
    while True:
        phi = equiv.Collineation.make(P, [rng.randrange(P.q) for _ in range(9)], 8)
        if phi.det():
            break
    image = [phi.apply_code(c) for c in src]
    w = are_equivalent(P, src, image)
    assert w is not None and {w.apply_code(c) for c in src} == set(image)
    assert equiv._search(P, src, image).order == equiv._search(P, src, src).order


@pytest.mark.parametrize("fam,sizes", [
    # order 5, Frobenius only, four fixed points
    ("cherowitzo", [1, 1, 1, 1, 5, 5, 5, 5, 5, 5]),
    # order 10: from a point of the 2-orbit the images need the closure step
    ("subiaco_payne", [1, 1, 2, 10, 10, 10])])
def test_orbits_do_not_depend_on_point_order(P5, fam, sizes):
    # put a point of each orbit first in turn
    H = hyperoval(P5, fam)
    ref = stabilizer(P5, H)
    assert ref.orbit_sizes() == sizes
    for o in ref.orbits:
        first = H[o[-1]]
        dec = stabilizer(P5, [first] + [c for c in H if c != first])
        assert orbit_sets(dec) == orbit_sets(ref)


@pytest.mark.parametrize("m,fam", [(4, "lunelli_sce"), (5, "okeefe_penttila"),
                                   (5, "cherowitzo")])
def test_threads_do_not_change_results(m, fam, monkeypatch):
    P = field_create(m)
    H = hyperoval(P, fam)

    def run(threads):
        chunks, visits = logged_chunks(monkeypatch), logged_invariants(monkeypatch)
        res = equiv._search(P, H, H, want_orbits=True, threads=threads)
        dec = stabilizer(P, H, threads=threads)
        monkeypatch.undo()
        return ((dec.stabilizer_order, dec.orbits, dec.generators,
                 dec.invariants, res.invariants),
                [a for a, *_ in chunks], [a for a, _ in visits])

    (ref, chunks, visits), *more = [run(t) for t in (1, 2, 3)]
    for res, chunks_t, visits_t in more:
        assert res == ref
        assert set(chunks) <= set(chunks_t) and set(visits) <= set(visits_t)
    # two and three threads visit the points of a window at once (invariant,
    # and chunk on a tie) and drop those an earlier commit of the window
    # decided.  At Lunelli-Sce every point ties and P0's orbit is everything:
    # chunks are dropped.  At O'Keefe-Penttila only P0's orbit ties, and the
    # one positive chunk decides the points after it in its window: only
    # invariants are dropped.  At Cherowitzo P0 is fixed and every visited
    # point is refuted in a class of its own, so nothing is dropped
    assert (len(more[0][1]) > len(chunks)) == (fam == "lunelli_sce")
    assert (len(more[0][2]) > len(visits)) == (fam != "cherowitzo")


@pytest.mark.parametrize("m,fam,sample", [(2, "hyperconic", None), (3, "hyperconic", None),
                                          (4, "hyperconic", None), (4, "lunelli_sce", None),
                                          (5, "hyperconic", 300), (5, "cherowitzo", 300)])
def test_keys_form_a_permutation_graph(m, fam, sample):
    # relative to any ordered triangle of an arc, k0 and k1 are each injective
    # on the other points (on a hyperoval both are permutations of Z_(q-1));
    # `bad` marks the triangle's own points
    P = field_create(m)
    H = hyperoval(P, fam)
    N, Q = len(H), P.q - 1
    LL = equiv._line_logs(P, equiv._coords_of_codes(P, H))
    triangles = list(itertools.permutations(range(N), 3))
    if sample:
        triangles = random.Random(m).sample(triangles, sample)
    for a, b, c in triangles:
        k0, k1, bad = (k[0, c] for k in equiv._fan(LL, Q, a, [b]))
        assert np.flatnonzero(bad).tolist() == sorted((a, b, c))
        assert sorted(k0[~bad].tolist()) == sorted(k1[~bad].tolist()) == list(range(Q))


def assert_fan_matches_the_index_cubes(P, codes):
    """At every point a of the arc `codes`: _fan's keys equal the index-cube
    keys at every distinct (b, c, y), `bad` marks every other entry, and the
    slabbed invariant equals the index-cube one."""
    N, Q = len(codes), P.q - 1
    LL = equiv._line_logs(P, equiv._coords_of_codes(P, codes))
    tri = torus_oracle.triples(N - 1)
    for a in range(N):
        _, k0, k1 = torus_oracle.fan_keys(LL, N, Q, a, tri)
        f0, f1, bad = equiv._fan(LL, Q, a)
        assert np.count_nonzero(~bad) == len(tri)
        # entries over the other points, in the compact layout of tri
        f0, f1, bad = (np.delete(np.delete(np.delete(f, a, 0), a, 1), a, 2).reshape(-1)[tri]
                       for f in (f0, f1, bad))
        assert not bad.any()
        assert np.array_equal(f0, k0) and np.array_equal(f1, k1)
        inv, n = equiv._point_invariant(LL, Q, a)
        assert inv == torus_oracle.point_invariant(LL, N, Q, a, tri)
        # the row counts of the pair rows (b, c) of distinct other points, in
        # the order of tri, and -1 in the rows through a and on the diagonal
        n = n.reshape(N, N)
        off = ~np.eye(N - 1, dtype=bool)
        assert np.array_equal(np.delete(np.delete(n, a, 0), a, 1)[off],
                              torus_oracle.row_counts(LL, N, Q, a, tri))
        assert (n[a] == -1).all() and (n[:, a] == -1).all() and (np.diag(n) == -1).all()


@pytest.mark.parametrize("m,fam,r", catalog_sweep_cases())
def test_fan_and_invariant_match_the_index_cubes_on_the_catalog(m, fam, r):
    P = field_create(m)
    g = gfun.g_catalog(P, fam, r=r)
    if not g.is_zero_free():
        g = gfun.fix_zeros(g)
    assert_fan_matches_the_index_cubes(P, g.hyperoval_codes_h())


@pytest.mark.parametrize("m,fam,size", [(2, "hyperconic", 4), (3, "hyperconic", 5),
                                        (4, "lunelli_sce", 9), (5, "cherowitzo", 4),
                                        (5, "payne", 20), (6, "adelaide", 33),
                                        (6, "subiaco", 48), (3, "hyperconic", 4),
                                        (4, "lunelli_sce", 4), (6, "adelaide", 4)])
def test_fan_and_invariant_match_the_index_cubes_on_smaller_arcs(m, fam, size):
    # empty slots and rows shorter than the q - 1 keys of a hyperoval; on a
    # 4-point arc each pair row has a single point off its triangle
    P = field_create(m)
    arc = random.Random(f"{m}:{fam}:{size}").sample(hyperoval(P, fam), size)
    assert_fan_matches_the_index_cubes(P, arc)


@pytest.mark.parametrize("m,fam,r", catalog_sweep_cases())
def test_logs_of_zero_land_in_the_discard_bin(m, fam, r):
    # in every pair row (b, c) of distinct points, the entries of
    # s = 2*A[c, y] - A[b, y] - L[b, c, y] that read the log of 0 (y = a, b, c)
    # map to the discard bin Q; the other N - 3 map below it
    P = field_create(m)
    Q = P.q - 1
    LL = equiv._line_logs(P, equiv._coords_of_codes(P, hyperoval(P, fam, r)))
    N, zero, table = len(LL), equiv._zero_log(Q), equiv._bin_table(Q)
    assert table.shape == (12 * Q + 1,)
    p, L = np.arange(N), LL.astype(np.int64)
    for a in range(N):
        A = L[a]
        s = 2 * A[None] - A[:, None] - L
        reads_zero = (A == zero)[None] | (A == zero)[:, None] | (L == zero)
        distinct = ((p[:, None] != p) & (p[:, None] != a) & (p != a))[:, :, None]
        assert np.abs(s).max() <= 6 * Q
        assert (table[s[distinct & reads_zero]] == Q).all()
        assert (table[s[distinct & ~reads_zero]] < Q).all()
        assert np.count_nonzero(distinct & reads_zero) == 3 * (N - 1) * (N - 2)


@pytest.mark.parametrize("m,fam", [(4, "lunelli_sce"), (5, "cherowitzo"), (6, "adelaide")])
def test_row_counts_under_collineations(m, fam):
    # a collineation phi maps the keys relative to (a, b, c) onto those
    # relative to (phi a, phi b, phi c), so n_{phi a}[phi b, phi c] = n_a[b, c],
    # with and without a Frobenius power; the rows are not all alike, and
    # not symmetric in (b, c)
    P = field_create(m)
    H = hyperoval(P, fam)
    N, Q = len(H), P.q - 1
    LL = equiv._line_logs(P, equiv._coords_of_codes(P, H))
    rng = random.Random(f"rows:{m}:{fam}")
    for frob in (0, rng.randrange(1, m)):
        while not (phi := equiv.Collineation.make(
                P, [rng.randrange(P.q) for _ in range(9)], frob)).det():
            pass
        image = [phi.apply_code(c) for c in H]
        rng.shuffle(image)
        perm = np.array([image.index(phi.apply_code(c)) for c in H])
        LLi = equiv._line_logs(P, equiv._coords_of_codes(P, image))
        for a in rng.sample(range(N), 3):
            n = equiv._point_invariant(LL, Q, a)[1].reshape(N, N)
            ni = equiv._point_invariant(LLi, Q, perm[a])[1].reshape(N, N)
            assert np.array_equal(ni[np.ix_(perm, perm)], n)
            assert len(np.unique(n[n >= 0])) > 1 and not np.array_equal(n, n.T)


def rows_checked_against_every_row(monkeypatch):
    """From now on every chunk runs over its pair rows and again over all N^2,
    and both must give the same count and found (samples, or first hit).
    Returns the list of the shares of rows kept."""
    real, shares = equiv._process_chunk, []

    def result(out):
        return out[0], [(j, images.tolist()) for j, images in out[1]]

    def spy(ctx, a, early_exit, rows):
        out = real(ctx, a, early_exit, rows)
        assert result(out) == result(real(ctx, a, early_exit, np.arange(ctx.N ** 2)))
        shares.append(len(rows) / ctx.N ** 2)
        return out

    monkeypatch.setattr(equiv, "_process_chunk", spy)
    return shares


def unfiltered(LL, Q, a):
    """A constant _point_invariant: every point ties and every row is kept."""
    return (), np.zeros(len(LL) ** 2, dtype=np.int64)


@pytest.mark.parametrize("m,fam,r", catalog_sweep_cases())
def test_pruned_rows_match_every_row(m, fam, r, monkeypatch):
    # P0 in each orbit in turn: chunk P0's count and samples, each early-exit
    # chunk's first hit, the stabilizer and the witness of are_equivalent
    # (onto a seeded collineation image) equal those over all pair rows.  Up
    # to q = 32 the witness also equals the one found with no filter at all,
    # every chunk over all rows (at q = 64 that takes seconds per case)
    P = field_create(m)
    H = hyperoval(P, fam, r)
    ref = stabilizer(P, H)
    rng = random.Random(f"rows:{m}:{fam}:{r}")
    for orbit in ref.orbits:
        rotated = H[orbit[0]:] + H[:orbit[0]]
        phi = random_collineation(P, rng)
        image = [phi.apply_code(c) for c in rotated]
        rng.shuffle(image)
        shares = rows_checked_against_every_row(monkeypatch)
        dec = stabilizer(P, rotated)
        w = are_equivalent(P, rotated, image)
        monkeypatch.undo()
        assert shares and all(0 < s < 1 for s in shares)
        assert (dec.stabilizer_order, orbit_sets(dec)) == (ref.stabilizer_order, orbit_sets(ref))
        assert w is not None and {w.apply_code(c) for c in rotated} == set(image)
        if m <= 5:
            monkeypatch.setattr(equiv, "_point_invariant", unfiltered)
            assert are_equivalent(P, rotated, image) == w
            monkeypatch.undo()


def test_int16_keys_at_m13_match_int32(monkeypatch):
    # m = 13 is the last field whose logs and keys are int16: the searches
    # and invariants there equal those with int32 keys.  The arcs lie on the
    # conic y^2 = xz: (1 : t : t^2) for t in a seeded GF(2)-span, so that
    # the translations t -> t + s give them a non-trivial group
    P = field_create(13)
    assert equiv._key_dtype(P.q - 1) is np.int16
    assert equiv._key_dtype(2 * P.q - 1) is np.int32
    # the invariant's s = 2*A - A - L spans [-6Q, 6Q]: int32 from m = 13 on
    assert equiv._sum_dtype(P.q - 1) is np.int32
    assert equiv._sum_dtype(P.q // 2 - 1) is np.int16
    rng = random.Random(13)
    x, y = rng.sample(range(2, P.q), 2)
    conic = [point_oracle.h_code(P, 1, t, P.fmul(t, t))
             for t in (0, 1, x, x ^ 1, y, y ^ 1, x ^ y, x ^ y ^ 1)]
    nucleus = point_oracle.h_code(P, 0, 1, 0)
    arcs = [conic[:6], conic[:6] + [nucleus], conic]

    def run():
        out = []
        for arc in arcs:
            LL = equiv._line_logs(P, equiv._coords_of_codes(P, arc))
            assert LL.dtype == equiv._key_dtype(P.q - 1)
            res = equiv._search(P, arc, arc, want_orbits=True)
            hit = equiv._search(P, arc, arc[::-1], early_exit=True)
            out.append((res.order, res.classes.tolist(), res.generators, res.invariants,
                        hit.witness, [equiv.point_invariant(P, arc, c) for c in arc]))
        return out

    real, sums = equiv._sum_dtype, []
    monkeypatch.setattr(equiv, "_sum_dtype", lambda Q: sums.append(real(Q)) or sums[-1])
    narrow = run()
    assert [o[0] for o in narrow] == [2, 2, 8]
    assert sums and all(d is np.int32 for d in sums)     # every invariant forms s in int32
    monkeypatch.setattr(equiv, "_key_dtype", lambda Q: np.int32)
    assert run() == narrow


def test_stabilizer_memory_stays_small(P5):
    # the whole-chunk key rows at q = 32 take well under a MiB.  With the
    # nucleus first, chunk P0 counts the whole group (163,680 hits): only its
    # samples get point images, and the survivors are checked in blocks.  At
    # q = 128 Cherowitzo's chunks keep few pair rows and form their keys in
    # slabs of b: the 4.4 MB line-log cube and its slabs set the peak
    H = hyperoval(P5)
    P7 = field_create(7)
    for P, codes, limit in ((P5, hyperoval(P5, "cherowitzo"), 4 << 20),
                            (P5, [H[-1]] + H[:-1], 12 << 20),
                            (P7, hyperoval(P7, "cherowitzo"), 16 << 20)):
        tracemalloc.start()
        try:
            stabilizer(P, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


# ------------------------------------------------------------ orbit-stabilizer


def logged_chunks(monkeypatch):
    """The list of (first image, early exit, hit count, found) of every chunk
    the search runs from now on."""
    log, real = [], equiv._process_chunk

    def spy(ctx, a, early_exit, rows):
        out = real(ctx, a, early_exit, rows)
        log.append((a, early_exit, *out))
        return out

    monkeypatch.setattr(equiv, "_process_chunk", spy)
    return log


def logged_invariants(monkeypatch):
    """The list of (point, invariant) of every _point_invariant call from now on."""
    log, real = [], equiv._point_invariant

    def spy(LL, Q, a):
        out = real(LL, Q, a)
        log.append((a, out[0]))
        return out

    monkeypatch.setattr(equiv, "_point_invariant", spy)
    return log


_FULL = {}


def every_chunk_in_full(P, H, monkeypatch):
    """Order and orbits by the search before orbit-stabilizer: every chunk in
    full, each counting |Stab(P0)| hits or none, the order their sum and the
    orbits the closure of the point images of all chunk samples.  Memoized
    per point set (two tests share it)."""
    key = (P.m, P.modulus, tuple(H))
    if key not in _FULL:
        _FULL[key] = _every_chunk_in_full(P, H, monkeypatch)
    return _FULL[key]


def _every_chunk_in_full(P, H, monkeypatch):
    log = logged_chunks(monkeypatch)
    order = equiv._search(P, H, H).order
    monkeypatch.undo()
    counts = [count for _, _, count, _ in log]
    assert len(counts) == len(H) and set(counts) <= {0, counts[0]} and counts[0]
    reach = np.eye(len(H), dtype=bool)
    for *_, found in log:
        for _, images in found:
            reach[np.arange(len(H)), images] = True
    while not np.array_equal(closed := reach | reach.T | (reach @ reach), reach):
        reach = closed
    return order, {frozenset(H[i] for i in np.flatnonzero(row)) for row in reach}


@pytest.mark.parametrize("m,fam,r", [c for c in catalog_sweep_cases() if c[0] <= 5])
def test_orbit_stabilizer_matches_every_chunk_in_full(m, fam, r, monkeypatch):
    # P0 from each orbit in turn; a chunk runs only for a point outside the
    # classes decided so far, which are unions of Stab(P0)-orbits
    P = field_create(m)
    H = hyperoval(P, fam, r)
    order, orbits = every_chunk_in_full(P, H, monkeypatch)
    for orbit in orbits:
        k = min(H.index(c) for c in orbit)
        rotated = H[k:] + H[:k]
        log = logged_chunks(monkeypatch)
        dec = stabilizer(P, rotated)
        monkeypatch.undo()
        assert dec.stabilizer_order == order and orbit_sets(dec) == orbits
        fixing = equiv._search(P, rotated, rotated, marked=(rotated[0], rotated[0]),
                               want_orbits=True)
        assert fixing.order * len(orbit) == order
        assert len(log) <= len(set(fixing.classes.tolist()))


@pytest.mark.parametrize("m,fam,r", catalog_sweep_cases())
def test_invariant_filter_matches_the_unfiltered_schedule(m, fam, r, monkeypatch):
    # a constant invariant with constant row counts ties every point with P0
    # and keeps every pair row, so every undecided point runs its chunk over
    # all rows, as before the filters.  Every point the filter refutes lies
    # outside P0's orbit of the search that runs every chunk in full, and
    # runs no chunk
    P = field_create(m)
    H = hyperoval(P, fam, r)

    def results(res):
        return res.order, res.classes.tolist(), res.generators

    log = logged_chunks(monkeypatch)
    res = equiv._search(P, H, H, want_orbits=True)
    monkeypatch.undo()
    monkeypatch.setattr(equiv, "_point_invariant", unfiltered)
    assert results(equiv._search(P, H, H, want_orbits=True)) == results(res)
    monkeypatch.undo()
    order, orbits = every_chunk_in_full(P, H, monkeypatch)
    assert res.order == order
    (p0_orbit,) = (o for o in orbits if H[0] in o)
    refuted = {a for a, v in res.invariants.items() if v != res.invariants[0]}
    assert all(H[a] not in p0_orbit for a in refuted)
    assert refuted.isdisjoint(a for a, *_ in log)


def test_hyperconic_with_p0_on_the_conic_refutes_the_nucleus_by_its_invariant(
        P5, monkeypatch):
    # Stab(P0) fixes the nucleus (last) and is transitive on the other conic
    # points: chunk P0 in full and one hit for point 1; the nucleus's
    # invariant differs from P0's, so it runs no chunk
    H = hyperoval(P5)
    log = logged_chunks(monkeypatch)
    res = equiv._search(P5, H, H, want_orbits=True)
    assert [(a, early, count) for a, early, count, _ in log] == [
        (0, False, res.order // 33), (1, True, 1)]
    assert sorted(res.invariants) == [0, 1, 33]
    assert res.invariants[33] != res.invariants[0] == res.invariants[1]


# ------------------------------------------------------------ error paths


def non_arc(P):
    """A hyperoval with one point moved onto the line through two others."""
    H = hyperoval(P)
    line = point_oracle.line_through(P, *H[:2])
    extra = next(c for c in range(P.q * P.q + P.q + 1)
                 if point_oracle.incident(P, c, line) and c not in H)
    return H, H[:-1] + [extra]


def test_non_arc_raises(P3):
    H, bad = non_arc(P3)
    assert len(bad) == P3.q + 2 and not geo.no_three_collinear(P3, bad)
    with pytest.raises(EquivError, match="collinear"):
        stabilizer(P3, bad)
    with pytest.raises(EquivError, match="collinear"):
        are_equivalent(P3, H, bad)
    with pytest.raises(EquivError, match="collinear"):
        are_equivalent(P3, bad, H, marked=(bad[0], H[0]))


@pytest.mark.parametrize("m,fam", [(3, "hyperconic"), (5, "cherowitzo"), (7, "cherowitzo")])
def test_line_logs_in_slabs(monkeypatch, m, fam):
    # the cube is the same in one slab and in slabs of one row of a (q = 8
    # and 32 fill it in one slab, q = 128 in several), and the zero count
    # that rejects a non-arc is summed over all slabs
    P = field_create(m)
    _, bad = non_arc(P)
    H = hyperoval(P, fam)
    assert (len(H) ** 3 <= equiv._LOG_SLAB_CELLS) == (P.q <= 64)
    pts = equiv._coords_of_codes(P, H)
    cubes = []
    for cells in (None, len(H) ** 3, 1):
        if cells is not None:
            monkeypatch.setattr(equiv, "_LOG_SLAB_CELLS", cells)
        cubes.append(equiv._line_logs(P, pts))
        with pytest.raises(EquivError, match="collinear"):
            equiv._line_logs(P, equiv._coords_of_codes(P, bad))
    assert all(np.array_equal(c, cubes[0]) for c in cubes[1:])


def test_line_logs_memory_at_q128():
    # the cube is filled in slabs of a: at q = 128 the uint32 temporaries stay
    # below the 4.4 MB int16 cube, whole they took 25 MiB
    P = field_create(7)
    pts = equiv._coords_of_codes(P, hyperoval(P, "cherowitzo"))
    equiv._line_logs(P, pts)
    tracemalloc.start()
    try:
        equiv._line_logs(P, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("broken", ["p0", "positive"])
def test_broken_chunk_raises_orbit_stabilizer(P5, monkeypatch, broken):
    # chunk P0 must have a hit, and no point whose chunk has none may end up
    # in P0's orbit.  At O'Keefe-Penttila P0 lies in a 3-orbit and Stab(P0)
    # is trivial: a positive chunk reported empty is caught when the chunk of
    # the third point of that orbit joins it to P0
    real, broke = equiv._process_chunk, []

    def patched(ctx, a, early_exit, rows):
        count, found = real(ctx, a, early_exit, rows)
        if count and not broke and early_exit == (broken == "positive"):
            broke.append(a)
            return 0, []
        return count, found

    monkeypatch.setattr(equiv, "_process_chunk", patched)
    with pytest.raises(EquivError, match="orbit-stabilizer"):
        stabilizer(P5, hyperoval(P5, "okeefe_penttila"))
    assert broke


def test_marked_point_outside_set_raises(P3):
    H = hyperoval(P3)
    outside = next(c for c in range(P3.q * P3.q + P3.q + 1) if c not in H)
    with pytest.raises(EquivError):
        are_equivalent(P3, H, H, marked=(outside, H[0]))
