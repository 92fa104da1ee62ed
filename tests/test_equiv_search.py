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


def unfiltered(LL, Q, a):
    """A constant _point_invariant: every point ties and every row is kept."""
    return (), np.zeros(len(LL) ** 2, dtype=np.int64)


def every_hit_chunks(P, src, dst, marked=None):
    """(ctx, a, rows, hit count) of every chunk of the witness search from src
    to dst, each over all N^2 pair rows with every hit counted
    (torus_oracle.every_hit_count): with a constant invariant every first
    image ties and keeps every row, and a chunk that reports no hit lets
    the search visit every first image."""
    log = []

    def count(ctx, a, rows):
        log.append((ctx, a, rows, torus_oracle.every_hit_count(ctx, a, rows)))
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equiv, "_point_invariant", unfiltered)
        mp.setattr(equiv, "_process_chunk", count)
        equiv._search(P, src, dst, marked=marked)
    return log


def all_rows_order(P, src, dst, marked=None):
    """The number of collineations mapping src onto dst (and marked[0] to
    marked[1]) that the kernel finds over every chunk in full."""
    return sum(count for *_, count in every_hit_chunks(P, src, dst, marked))


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
        res = equiv._search(P, H, H, marked=(p, p), orbits=True)
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
            assert all_rows_order(P, src, dst, mk) == len(rows)
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
    assert all_rows_order(P, src, image) == all_rows_order(P, src, src)


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
        k0, k1, bad = (k[0] for k in equiv._fan(LL, Q, a, [b], [c]))
        assert np.flatnonzero(bad).tolist() == sorted((a, b, c))
        assert sorted(k0[~bad].tolist()) == sorted(k1[~bad].tolist()) == list(range(Q))


def assert_fan_matches_the_index_cubes(P, codes):
    """The half-filled line-log cube equals the full fill, and at every point
    a of the arc `codes`: _fan's keys over all pair rows equal the
    index-cube keys at every distinct (b, c, y), `bad` marks every other
    entry, and the slabbed invariant equals the index-cube one."""
    N, Q = len(codes), P.q - 1
    pts = equiv._coords_of_codes(P, codes)
    LL = equiv._line_logs(P, pts)
    assert np.array_equal(LL, torus_oracle.line_logs(P, pts))
    tri = torus_oracle.triples(N - 1)
    b, c = np.divmod(np.arange(N * N), N)
    for a in range(N):
        _, k0, k1 = torus_oracle.fan_keys(LL, N, Q, a, tri)
        f0, f1, bad = (f.reshape(N, N, N) for f in equiv._fan(LL, Q, a, b, c))
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
    assert equiv._bin_table(Q) is table and not table.flags.writeable   # built once per Q
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
    # not symmetric in (b, c).  With l = (L_bc.y, L_ca.y, L_ab.y),
    # v = k1 - 2*k0 = 2 log l1 - log l0 - log l2 is symmetric in l0 and l2,
    # which swapping a and c exchanges: n_a[b, c] = n_c[b, a] at every
    # point, while n_a[b, c] = n_b[a, c] fails
    P = field_create(m)
    H = hyperoval(P, fam)
    N, Q = len(H), P.q - 1
    LL = equiv._line_logs(P, equiv._coords_of_codes(P, H))
    n = np.stack([equiv._point_invariant(LL, Q, a)[1].reshape(N, N) for a in range(N)])
    assert np.array_equal(n, n.transpose(2, 1, 0))
    assert not np.array_equal(n, n.transpose(1, 0, 2))
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
    and both must give the same result: chunk P0's count and samples, or
    another chunk's first hit.  Returns the list of the shares of rows kept."""
    shares = []

    def plain(found):
        return [(j, images.tolist()) for j, images in found]

    def checked(real, result):
        def spy(ctx, a, rows):
            out = real(ctx, a, rows)
            every_row = np.arange(ctx.N ** 2, dtype=rows.dtype)
            assert result(out) == result(real(ctx, a, every_row))
            shares.append(len(rows) / ctx.N ** 2)
            return out
        return spy

    monkeypatch.setattr(equiv, "_process_chunk", checked(equiv._process_chunk, plain))
    monkeypatch.setattr(equiv, "_chain_count", checked(
        equiv._chain_count, lambda out: (out[0], plain(out[1]))))
    return shares


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
            res = equiv._search(P, arc, arc, orbits=True)
            hit = equiv._search(P, arc, arc[::-1])
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
    # nucleus first, chunk P0 is the whole group (163,680 elements), counted
    # along the base with one checked hit per stream.  At q = 128
    # Cherowitzo's chunks keep few pair rows, and the hyperconic with the
    # nucleus first and the translation hyperoval r = 6 (point 0 fixed by
    # the whole group) keep nearly all: every chunk forms its slot tables in
    # slabs of rows, so the 4.4 MB line-log cube and its slabs set the peak.
    # With the nucleus as P1, the torus of order q - 1 fixing two conic
    # points gives q - 1 hits per row and j, so one call of _Slab.hits sees
    # about 2 M cells: its blocks keep that case at 7.7 MiB (17.4 without)
    H = hyperoval(P5)
    P7 = field_create(7)
    H7 = hyperoval(P7)
    for P, codes, limit in ((P5, hyperoval(P5, "cherowitzo"), 4 << 20),
                            (P5, [H[-1]] + H[:-1], 12 << 20),
                            (P7, hyperoval(P7, "cherowitzo"), 16 << 20),
                            (P7, [H7[-1]] + H7[:-1], 16 << 20),
                            (P7, [H7[0], H7[-1]] + H7[1:-1], 16 << 20),
                            (P7, hyperoval(P7, "translation", 6), 16 << 20)):
        tracemalloc.start()
        try:
            stabilizer(P, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit


# ------------------------------------------------------------ orbit-stabilizer


def logged_chunks(monkeypatch):
    """The list of (first image, kernel, hit count) of every chunk the search
    runs from now on: kernel "_chain_count" for chunk P0 of an orbit search,
    with |Stab(P0)|, and "_process_chunk" for a first-hit chunk, with 0 or 1."""
    log = []

    def spy(name, real):
        def run(ctx, a, rows):
            out = real(ctx, a, rows)
            log.append((a, name, out[0] if name == "_chain_count" else len(out)))
            return out
        return run

    for name in ("_chain_count", "_process_chunk"):
        monkeypatch.setattr(equiv, name, spy(name, getattr(equiv, name)))
    return log


_FULL = {}


def every_chunk_in_full(P, H):
    """Order and orbits by the search before orbit-stabilizer: every chunk in
    full (every_hit_chunks), each counting |Stab(P0)| hits or none, and the
    order their sum.  The orbits are the closure of the point images of
    elements that generate the group: the samples along the base that the
    streams of every hit of chunk P0 give (by the plain lookups of
    torus_oracle), and the first hit of every other chunk with hits.
    Memoized per point set (two tests share it)."""
    key = (P.m, P.modulus, tuple(H))
    if key not in _FULL:
        _FULL[key] = _every_chunk_in_full(P, H)
    return _FULL[key]


def oracle_chunk(ctx, a, rows):
    return torus_oracle.Chunk(ctx.LL, ctx.N, ctx.Q, ctx.shifts, ctx.src_order, a, rows)


def _every_chunk_in_full(P, H):
    log = every_hit_chunks(P, H, H)
    counts = [count for *_, count in log]
    order = sum(counts)
    assert len(counts) == len(H) and set(counts) <= {0, counts[0]} and counts[0]
    ctx, a, rows, count = log[0]
    chunk = oracle_chunk(ctx, a, rows)
    hits = chunk.hits()
    assert a == 0 and sum(len(h) for h in hits) == count
    quads = [chunk.quadrangles(h) for h in hits]
    gens = [chunk.images(hits[j][[k]], j)[0]
            for j, k in torus_oracle.stream_samples(quads, ctx.src_order[1:4].tolist())]
    gens += [equiv._process_chunk(ctx, a, rows)[0][1] for ctx, a, rows, count in log[1:]
             if count]
    reach = np.eye(len(H), dtype=bool)
    for images in gens:
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
    order, orbits = every_chunk_in_full(P, H)
    for orbit in orbits:
        k = min(H.index(c) for c in orbit)
        rotated = H[k:] + H[:k]
        log = logged_chunks(monkeypatch)
        dec = stabilizer(P, rotated)
        monkeypatch.undo()
        assert dec.stabilizer_order == order and orbit_sets(dec) == orbits
        fixing = equiv._search(P, rotated, rotated, marked=(rotated[0], rotated[0]),
                               orbits=True)
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
    res = equiv._search(P, H, H, orbits=True)
    monkeypatch.undo()
    monkeypatch.setattr(equiv, "_point_invariant", unfiltered)
    assert results(equiv._search(P, H, H, orbits=True)) == results(res)
    monkeypatch.undo()
    order, orbits = every_chunk_in_full(P, H)
    assert res.order == order
    (p0_orbit,) = (o for o in orbits if H[0] in o)
    refuted = {a for a, v in res.invariants.items() if v != res.invariants[0]}
    assert all(H[a] not in p0_orbit for a in refuted)
    assert refuted.isdisjoint(a for a, *_ in log)


def chain_chunks(monkeypatch):
    """The list of (ctx, a, rows, count, found) of every chunk counted along
    the base from now on."""
    log, real = [], equiv._chain_count

    def spy(ctx, a, rows):
        out = real(ctx, a, rows)
        log.append((ctx, a, rows, *out))
        return out

    monkeypatch.setattr(equiv, "_chain_count", spy)
    return log


@pytest.mark.parametrize("m,fam,r", catalog_sweep_cases())
def test_chain_count_matches_every_hit(m, fam, r, monkeypatch):
    # P0 in each orbit in turn: chunk P0 counted along the base (one checked
    # hit per stream) equals the count of all its hits over the same rows,
    # by the kernel and by plain lookups, and its samples are the first hits
    # per (level, image) that the streams rebuilt from every hit give
    P = field_create(m)
    H = hyperoval(P, fam, r)
    for orbit in stabilizer(P, H).orbits:
        rotated = H[orbit[0]:] + H[:orbit[0]]
        log = chain_chunks(monkeypatch)
        stabilizer(P, rotated)
        monkeypatch.undo()
        ((ctx, a, rows, count, found),) = log
        assert a == 0 and count == torus_oracle.every_hit_count(ctx, a, rows)
        chunk = oracle_chunk(ctx, a, rows)
        hits = chunk.hits()
        assert sum(len(h) for h in hits) == count
        quads = [chunk.quadrangles(h) for h in hits]
        samples = torus_oracle.stream_samples(quads, ctx.src_order[1:4].tolist())
        assert ([(j, images[ctx.src_order[:4]].tolist()) for j, images in found]
                == [(j, quads[j][k].tolist()) for j, k in samples])


@pytest.mark.parametrize("m,first", [(6, "translation"), (7, "translation"), (7, "nucleus")])
def test_groups_fixing_point_0_have_the_conic_order(m, first):
    # translation r = m - 1 is a conic whose point 0 the whole group fixes,
    # and so is the hyperconic with its nucleus first: chunk P0 is all of
    # PGammaL(2, q), of order q(q^2 - 1)m, with orbits 1 and q + 1
    P = field_create(m)
    H = hyperoval(P, "translation", m - 1) if first == "translation" else hyperoval(P)
    if first == "nucleus":
        H = [H[-1]] + H[:-1]
    dec = stabilizer(P, H)
    assert dec.stabilizer_order == P.q * (P.q ** 2 - 1) * m
    assert dec.orbits[0] == (0,) and dec.orbit_sizes() == [1, P.q + 1]


@pytest.mark.parametrize("m,fam,r", [(4, "lunelli_sce", None), (5, "hyperconic", None),
                                     (5, "segre", None), (5, "translation", 2),
                                     (5, "cherowitzo", None), (6, "hyperconic", None)])
def test_slab_sizes_do_not_change_results(m, fam, r, monkeypatch):
    # the first early-exit slab and the cell budget at 1 (slabs of one b,
    # survivors checked one by one) and above N^2 rows (one slab), with P0
    # in each orbit in turn: the stabilizer with chunk P0's samples, and the
    # early-exit witnesses onto a seeded image, marked and unmarked, and
    # onto an inequivalent hyperoval (none), are those of the default slabs
    P = field_create(m)
    H = hyperoval(P, fam, r)
    other = hyperoval(P, "hyperconic" if fam == "lunelli_sce" else "subiaco")
    rng = random.Random(f"slabs:{m}:{fam}:{r}")
    cases = []
    for orbit in stabilizer(P, H).orbits:
        rotated = H[orbit[0]:] + H[:orbit[0]]
        phi = random_collineation(P, rng)
        image = [phi.apply_code(c) for c in rotated]
        rng.shuffle(image)
        cases.append((rotated, image, (rotated[-1], phi.apply_code(rotated[-1]))))

    def run():
        out = []
        for src, image, mk in cases:
            dec = stabilizer(P, src)
            out.append((dec.stabilizer_order, dec.orbits, dec.generators, dec.invariants,
                        [are_equivalent(P, src, dst, marked=k) for dst, k in
                         ((image, None), (image, mk), (other, None))]))
        return out

    ref = run()
    assert all(ws[0] is not None and ws[2] is None for *_, ws in ref)
    N = len(H)
    for first, cells in ((1, 1), (N * N + 1, N ** 3 + 1)):
        monkeypatch.setattr(equiv, "_EXIT_FIRST_ROWS", first)
        monkeypatch.setattr(equiv, "_FAN_SLAB_CELLS", cells)
        assert run() == ref
        monkeypatch.undo()


def test_hyperconic_with_p0_on_the_conic_refutes_the_nucleus_by_its_invariant(
        P5, monkeypatch):
    # Stab(P0) fixes the nucleus (last) and is transitive on the other conic
    # points: chunk P0 counted along the base and one hit for point 1; the
    # nucleus's invariant differs from P0's, so it runs no chunk
    H = hyperoval(P5)
    log = logged_chunks(monkeypatch)
    res = equiv._search(P5, H, H, orbits=True)
    assert log == [(0, "_chain_count", res.order // 33), (1, "_process_chunk", 1)]
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
    # the cube is the same in one slab and in slabs of one pair (a, b), and
    # equals the full fill (q = 8 and 32 fill it in one slab, q = 128 in
    # several); the zero count that rejects a non-arc is summed over all
    # slabs
    P = field_create(m)
    _, bad = non_arc(P)
    H = hyperoval(P, fam)
    assert (len(H) ** 3 <= equiv._LOG_SLAB_CELLS) == (P.q <= 64)
    pts = equiv._coords_of_codes(P, H)
    cubes = [torus_oracle.line_logs(P, pts)]
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
    name, empty = {"p0": ("_chain_count", (0, [])), "positive": ("_process_chunk", [])}[broken]
    real, broke = getattr(equiv, name), []

    def patched(ctx, a, rows):
        out = real(ctx, a, rows)
        found = out[1] if broken == "p0" else out
        if found and not broke:
            broke.append(a)
            return empty
        return out

    monkeypatch.setattr(equiv, name, patched)
    with pytest.raises(EquivError, match="orbit-stabilizer"):
        stabilizer(P5, hyperoval(P5, "okeefe_penttila"))
    assert broke


@pytest.mark.parametrize("m,fam,r", [(5, "hyperconic", None), (5, "segre", None),
                                     (5, "translation", 2), (6, "subiaco", None)])
def test_lost_stream_of_chunk_p0_raises(m, fam, r, monkeypatch):
    # chunk P0 decides each image b of P1 (and c of P2 with P1 fixed) by one
    # hit, so the hits of one stream lost in the kernel would undercount n1
    # or n2 (the q = 32 hyperconic came out 158,565, not 163,680).  The
    # samples still reach the lost image, so the orbits of P1 and P2 under
    # them disagree with n1 and n2.  A stream with no hit loses nothing
    P = field_create(m)
    H = hyperoval(P, fam, r)
    ref, real, raised = stabilizer(P, H).stabilizer_order, equiv._Slab.hits, []
    for level, x in itertools.product((1, 2), range(3, 8)):
        def hits(self, cand, j, first=False):       # P0, P1, P2 are points 0, 1, 2
            out = real(self, cand, j, first)
            b, c = np.divmod(self.rows[self.base[out] // self.W], self.ctx.N)
            lost = b == x if level == 1 else (b == 1) & (c == x)
            return out[~lost] if self.a == 0 else out

        monkeypatch.setattr(equiv._Slab, "hits", hits)
        try:
            assert stabilizer(P, H).stabilizer_order == ref
        except EquivError as exc:
            assert "stream" in str(exc)
            raised.append((level, x))
    assert raised


def test_orbit_search_maps_a_set_to_itself(P3):
    # the orbit search reads dst as src: it refuses another point list (here
    # the same points reordered) and a marked point that moves
    H = hyperoval(P3)
    for dst, mk in ((H[::-1], None), (H, (H[0], H[1]))):
        with pytest.raises(EquivError, match="maps a point set"):
            equiv._search(P3, H, dst, marked=mk, orbits=True)


def test_marked_point_outside_set_raises(P3):
    H = hyperoval(P3)
    outside = next(c for c in range(P3.q * P3.q + P3.q + 1) if c not in H)
    with pytest.raises(EquivError):
        are_equivalent(P3, H, H, marked=(outside, H[0]))
