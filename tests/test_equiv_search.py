"""The torus-key search against a brute-force oracle, metamorphic properties
and its error paths."""

import random

import numpy as np
import pytest

from nihoval import equiv, geometry as geo, gfun
from nihoval.equiv import EquivError, are_equivalent, stabilizer
from nihoval.gf2m import field_create


def hyperoval(P, fam="hyperconic"):
    return gfun.g_catalog(P, fam).hyperoval_codes_h()


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
    assert len(out) == equiv.pgammal_order(P)
    return out


@pytest.fixture(scope="module", params=[1, 2])
def oracle(request):
    P = field_create(request.param)
    return P, pgammal_permutations(P)


def oracle_maps(perms, src, dst, marked=None):
    """Rows of `perms` mapping the set src onto the set dst (and marked[0] to marked[1])."""
    nsp = perms.shape[1]
    in_dst = np.zeros(nsp, dtype=bool)
    in_dst[dst] = True
    ok = in_dst[perms[:, src]].all(axis=1)
    if marked is not None:
        ok &= perms[:, marked[0]] == marked[1]
    return perms[ok]


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
        got = {frozenset(H[i] for i in np.flatnonzero(row)) for row in res.reach}
        assert got == {frozenset(int(v) for v in fixing[:, c]) for c in H}


def test_are_equivalent_matches_brute_force(oracle):
    P, perms = oracle
    H = hyperoval(P)
    rng = random.Random(f"oracle:{P.m}")
    for _ in range(12):
        k = rng.randrange(4, len(H) + 1)
        src = rng.sample(H, k)
        image = [int(v) for v in perms[rng.randrange(len(perms)), H]]
        dst = rng.sample(image, k)
        marked = (src[0], rng.choice(dst))
        for mk in (None, marked):
            maps = oracle_maps(perms, src, dst, mk)
            assert equiv._search(P, src, dst, marked=mk).order == len(maps)
            w = are_equivalent(P, src, dst, marked=mk)
            assert (w is not None) == (len(maps) > 0)
            if w is not None:
                assert {w.apply_code(c) for c in src} == set(dst)
                assert mk is None or w.apply_code(mk[0]) == mk[1]


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


@pytest.mark.parametrize("m,fam,table_bytes", [(4, "lunelli_sce", 1 << 12),
                                               (5, "okeefe_penttila", 1 << 18)])
def test_threads_and_table_budget_do_not_change_results(m, fam, table_bytes, monkeypatch):
    P = field_create(m)
    H = hyperoval(P, fam)
    image = [random_collineation(P, random.Random(m)).apply_code(c) for c in H]

    def run(threads):
        dec = stabilizer(P, H, threads=threads)
        w = are_equivalent(P, H, image, threads=threads)
        wm = are_equivalent(P, H, image, marked=(H[0], w.apply_code(H[0])), threads=threads)
        return (dec.stabilizer_order, dec.orbits, [g.key() for g in dec.generators],
                w.key(), wm.key())

    ref = run(1)
    assert run(2) == ref
    cells = 4 * (P.q - 1) ** 2
    assert table_bytes < (P.q + 1) * P.q * cells       # several pieces per chunk
    monkeypatch.setattr(equiv, "TABLE_BYTES", table_bytes)
    assert run(1) == ref
    assert run(2) == ref


# ------------------------------------------------------------ error paths


def non_arc(P):
    """A hyperoval with one point moved onto the line through two others."""
    H = hyperoval(P)
    p0, p1 = (geo.ProjPointH.from_code(P, c) for c in H[:2])
    line = geo.line_through(p0, p1)
    extra = next(p.code for p in geo.all_points_h(P)
                 if geo.incident_h(p, line) and p.code not in H)
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


def test_complete_generators_raises_when_short(P3, monkeypatch):
    monkeypatch.setattr(equiv, "closure_order", lambda gens, limit=0: 1)
    with pytest.raises(EquivError, match="generate"):
        stabilizer(P3, hyperoval(P3), complete_generators=True)


def test_marked_point_outside_set_raises(P3):
    H = hyperoval(P3)
    outside = next(c for c in range(P3.q * P3.q + P3.q + 1) if c not in H)
    with pytest.raises(EquivError):
        are_equivalent(P3, H, H, marked=(outside, H[0]))
