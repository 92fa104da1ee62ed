import json
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from nihoval import geometry as geo
from nihoval.geometry import (GeometryError, h_codes_to_k, is_hyperoval, is_line_oval,
                              k_codes_to_h_codes, line_oval_points, no_three_collinear)
from nihoval.gf2m import field_create, unit_circle
from point_oracle import coords, h_code, incident, k_point_to_h, line_through


def n_points(P) -> int:
    return P.q * P.q + P.q + 1


def incidence_matrix(P) -> np.ndarray:
    """[line, point] = 1 iff the point lies on the line, over all codes; the
    line with code c is [a : b : c'] for the coordinates (a : b : c') of c."""
    x, y, z = geo.codes_to_coords_v(P, np.arange(n_points(P)))
    fm = P.fmul_v
    dots = fm(x[:, None], x) ^ fm(y[:, None], y) ^ fm(z[:, None], z)
    return (dots == 0).astype(np.int64)


def line_intersection(P, u1, mu1, u2, mu2):
    """Affine meeting point of two nonparallel lines L(u, mu), as a K code: the
    oracle for the vectorized pairwise intersections of the line-oval checks."""
    d = P.bform(u1, u2)
    if d == 0:
        raise GeometryError("parallel lines do not meet in AG(2,q)")
    x = P.kmul(mu2, u1) ^ P.kmul(mu1, u2)
    return P.kmul(x, P.finv(d))


def affine_line(P, u, mu) -> np.ndarray:
    """The K codes x with <u, x> = mu."""
    xs = np.arange(P.q * P.q, dtype=np.uint32)
    return np.flatnonzero(P.bform_v(np.uint32(u), xs) == mu)


def hyperconic_codes(P):
    """The conic {(t : t^2 : 1)} u {(0:1:0)}, then its nucleus (1:0:0)."""
    q = P.q
    return [t * q + P.fmul(t, t) for t in range(q)] + [q * q, q * q + q]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_point_line_counts(m):
    P = field_create(m)
    q = P.q
    inc = incidence_matrix(P)
    assert inc.shape == (q * q + q + 1, q * q + q + 1)
    # q+1 points on every line and q+1 lines through every point
    assert np.all(inc.sum(axis=1) == q + 1) and np.all(inc.sum(axis=0) == q + 1)
    # two distinct points lie on exactly one common line
    common = inc.T @ inc
    assert np.all(common[~np.eye(len(inc), dtype=bool)] == 1)
    # the scalar normalization agrees with the code layout
    assert all(h_code(P, *coords(P, c)) == c for c in range(len(inc)))


def test_incidence_examples(P5):
    q = P5.q
    # (1:0:0) on the line at infinity [0:0:1] (code 0), with every (x:1:0)
    inf = list(range(q * q, q * q + q + 1))
    assert all(incident(P5, p, 0) for p in inf)
    assert [c for c in range(n_points(P5)) if incident(P5, c, 0)] == inf
    # the origin (0:1) of the K model is (0:0:1), code 0, and lies on every
    # line L(u, 0)
    assert k_codes_to_h_codes(P5, [0], 1).tolist() == [0]
    for u in unit_circle(P5).codes.tolist():
        assert 0 in affine_line(P5, u, 0)


def test_affine_line_has_q_points(P3):
    # for each direction u the q^2 points of AG(2,q) fall into q parallel
    # lines L(u, mu) of q points each
    xs = np.arange(P3.q * P3.q, dtype=np.uint32)
    for u in unit_circle(P3).codes[:4].tolist():
        mus = P3.bform_v(np.uint32(u), xs)
        assert np.all(mus < P3.q)
        assert np.bincount(mus, minlength=P3.q).tolist() == [P3.q] * P3.q


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_model_conversion_roundtrip(m):
    # h_codes_to_k and k_codes_to_h_codes are inverse on every point, the
    # points at infinity included, and agree with the scalar conversion
    P = field_create(m)
    codes = np.arange(n_points(P))
    x, z = h_codes_to_k(P, codes)
    assert np.array_equal(k_codes_to_h_codes(P, x, z), codes)
    assert np.array_equal(z == 0, codes >= P.q * P.q)
    assert np.all(np.isin(x[z == 0], unit_circle(P).codes))
    assert [k_point_to_h(P, int(a), int(b)) for a, b in zip(x, z)] == codes.tolist()
    # the K side: every normalized K point maps to H and back
    kx = np.concatenate([np.arange(P.q * P.q), unit_circle(P).codes]).astype(np.uint32)
    kz = np.concatenate([np.ones(P.q * P.q), np.zeros(P.q + 1)]).astype(np.uint32)
    bx, bz = h_codes_to_k(P, k_codes_to_h_codes(P, kx, kz))
    assert np.array_equal(bx, kx) and np.array_equal(bz, kz)


def test_model_conversion_anchors(P4):
    # (0:0:1) <-> 0 and (1:0:1) <-> 1
    x, z = h_codes_to_k(P4, [h_code(P4, 0, 0, 1), h_code(P4, 1, 0, 1)])
    assert x.tolist() == [0, 1] and z.tolist() == [1, 1]
    assert k_codes_to_h_codes(P4, [0, 1], 1).tolist() == [h_code(P4, 0, 0, 1),
                                                           h_code(P4, 1, 0, 1)]


@pytest.mark.parametrize("m", [2, 3])
def test_model_conversion_preserves_incidence(m):
    # affine K-lines L(u, mu) and their direction (u : 0) map to one H-line
    P = field_create(m)
    for u in unit_circle(P).codes[:3].tolist():
        for mu in (0, 1):
            pts = k_codes_to_h_codes(P, affine_line(P, u, mu), 1).tolist()
            pts += k_codes_to_h_codes(P, [u], 0).tolist()
            line = line_through(P, pts[0], pts[1])
            assert all(incident(P, p, line) for p in pts)


def no_three_collinear_triples(P, codes) -> bool:
    """Oracle: no triple of the points has a zero determinant."""
    xs, ys, zs = geo.codes_to_coords_v(P, np.array(codes, dtype=np.int64))
    i, j, k = np.array(list(combinations(range(len(codes)), 3)), dtype=np.int64).T
    a = P.fmul_v(ys[i], zs[j]) ^ P.fmul_v(zs[i], ys[j])
    b = P.fmul_v(zs[i], xs[j]) ^ P.fmul_v(xs[i], zs[j])
    c = P.fmul_v(xs[i], ys[j]) ^ P.fmul_v(ys[i], xs[j])
    det = P.fmul_v(a, xs[k]) ^ P.fmul_v(b, ys[k]) ^ P.fmul_v(c, zs[k])
    return not np.any(det == 0)


def no_three_collinear_cross(P, codes) -> bool:
    """Oracle, the cross-product formulation: through each point, the lines
    to the other points, normalized codes of the cross products, are
    pairwise distinct."""
    if len(set(codes)) != len(codes):
        return False
    x, y, z = (v[:, None] for v in geo.codes_to_coords_v(P, np.array(codes, dtype=np.int64)))
    fm = P.fmul_v
    lines = geo.normalize_codes_v(P, fm(y, z.T) ^ fm(z, y.T), fm(z, x.T) ^ fm(x, z.T),
                                  fm(x, y.T) ^ fm(y, x.T))
    np.fill_diagonal(lines, -1)
    lines.sort(axis=1)
    return not np.any(lines[:, 1:] == lines[:, :-1])


@pytest.mark.parametrize("m", [2, 3, 4])
def test_hyperconic_is_hyperoval(m):
    P = field_create(m)
    codes = hyperconic_codes(P)
    assert is_hyperoval(P, codes)
    assert no_three_collinear(P, codes) == no_three_collinear_triples(P, codes) == True


def test_hyperoval_methods_agree_on_negatives(P4):
    pts = hyperconic_codes(P4)
    bad = [h_code(P4, t, 0, 1) for t in range(3)] + pts[3:-1]
    assert no_three_collinear(P4, bad) == no_three_collinear_triples(P4, bad) == False
    # exactly one collinear triple (h0, h1, c), its points at random positions
    rng = random.Random(4)
    for _ in range(20):
        sub = rng.sample(pts, 8)
        line = line_through(P4, *sub[:2])
        c = next(s for s in range(n_points(P4)) if incident(P4, s, line) and s not in sub
                 and no_three_collinear_triples(P4, sub[1:] + [s])
                 and no_three_collinear_triples(P4, sub[:1] + sub[2:] + [s]))
        codes = sub + [c]
        rng.shuffle(codes)
        assert no_three_collinear(P4, codes) == no_three_collinear_triples(P4, codes) == False
    # a repeated point: the oracle sees a zero determinant, the scan a repeat
    codes = pts[:-1] + [pts[0]]
    assert no_three_collinear(P4, codes) == no_three_collinear_triples(P4, codes) == False


def test_collinear_detection(P3):
    a, b, c, d = (h_code(P3, *p) for p in ((0, 0, 1), (1, 0, 1), (3, 0, 1), (1, 1, 1)))
    assert not no_three_collinear(P3, [a, b, c])
    assert no_three_collinear(P3, [a, b, d])


def test_wrong_cardinality_raises(P3):
    with pytest.raises(GeometryError):
        is_hyperoval(P3, hyperconic_codes(P3)[:5])
    S = unit_circle(P3).codes
    with pytest.raises(GeometryError, match="q\\+1"):
        is_line_oval(P3, S[:-1], np.ones(P3.q, dtype=np.uint32))


def test_nucleus_of_conic(P4):
    # conic {(t : t^2 : 1)} u {(0:1:0)}: its nucleus (1:0:0) is the one point
    # that completes it to a hyperoval
    conic = hyperconic_codes(P4)[:-1]
    assert no_three_collinear(P4, conic)
    completing = [c for c in range(n_points(P4))
                  if c not in conic and no_three_collinear(P4, conic + [c])]
    assert completing == [h_code(P4, 1, 0, 0)]


def test_oval_tangent_secant_counts(P3):
    # q+1 tangents concurrent in the nucleus; q(q+1)/2 secants; q(q-1)/2 exterior
    q = P3.q
    conic = hyperconic_codes(P3)[:-1]
    inc = incidence_matrix(P3)
    k = inc[:, conic].sum(axis=1)
    assert (np.sum(k == 1), np.sum(k == 2), np.sum(k == 0)) == \
        (q + 1, q * (q + 1) // 2, q * (q - 1) // 2)
    assert np.all(inc[k == 1, q * q + q] == 1)


@pytest.mark.parametrize("m", [2, 3])
def test_line_oval_and_covered_points(m):
    P = field_create(m)
    u = unit_circle(P).codes
    mu = np.ones(P.q + 1, dtype=np.uint32)
    assert is_line_oval(P, u, mu)
    E = line_oval_points(P, u, mu)
    assert len(E) == P.q * (P.q + 1) // 2
    # each covered point lies on exactly two lines
    for x in E:
        assert sum(P.bform(int(v), x) == 1 for v in u) == 2
    # complement size q(q-1)/2
    assert P.q ** 2 - len(E) == P.q * (P.q - 1) // 2


def test_line_oval_negative(P3):
    u = unit_circle(P3).codes
    mu = np.zeros(P3.q + 1, dtype=np.uint32)  # all through the origin
    assert not is_line_oval(P3, u, mu)
    with pytest.raises(GeometryError):
        line_oval_points(P3, u, mu)
    # a direction off the unit circle is not a line L(u, mu)
    off = u.copy()
    off[3] = next(x for x in range(P3.q * P3.q) if x not in set(u.tolist()))
    for check in (is_line_oval, line_oval_points):
        with pytest.raises(GeometryError, match="unit circle"):
            check(P3, off, mu + 1)


def test_parallel_lines_do_not_meet(P3):
    u = int(unit_circle(P3).codes[2])
    with pytest.raises(GeometryError):
        line_intersection(P3, u, 0, u, 1)


def test_distinct_directions_meet_once(P3):
    S = unit_circle(P3)
    (u1, mu1), (u2, mu2) = (int(S.codes[1]), 3), (int(S.codes[2]), 5)
    x = line_intersection(P3, u1, mu1, u2, mu2)
    common = np.intersect1d(affine_line(P3, u1, mu1), affine_line(P3, u2, mu2))
    assert common.tolist() == [x]


def test_point_set_serialization(P4):
    codes = hyperconic_codes(P4)
    obj = json.loads(geo.points_to_json(P4, codes, "H"))
    expect = sorted(":".join(P4.f_hex(v) for v in coords(P4, c)) for c in codes)
    assert obj == {"model": "H", "m": 4, "points": expect}
    obj_k = json.loads(geo.points_to_json(P4, codes, "K"))
    back = [k_point_to_h(P4, *(int(v, 16) for v in hx.split(":"))) for hx in obj_k["points"]]
    assert obj_k["model"] == "K" and sorted(back) == sorted(codes)
    with pytest.raises(GeometryError):
        geo.points_to_json(P4, codes, "X")


def test_golden_sec46_point_sets(P3, P4):
    from nihoval import gfun
    from conftest import GOLDEN
    for m, P, fam in ((3, P3, "hyperconic"), (4, P4, "hyperconic"),
                      (4, P4, "lunelli_sce")):
        codes = gfun.g_catalog(P, fam).hyperoval_codes_h()
        for model in ("H", "K"):
            expect = (GOLDEN / f"sec46_{fam}_m{m}_{model}.json").read_text().strip()
            assert geo.points_to_json(P, codes, model) == expect


def test_point_codes_outside_the_plane_raise(P3):
    from nihoval import equiv
    q = P3.q
    H = hyperconic_codes(P3)
    good = [np.int64(c) for c in H]
    assert is_hyperoval(P3, good) and geo._as_codes(P3, good) == H
    # (1:0:0) is code q^2 + q; the codes past it and below 0 name no point
    identity = equiv.Collineation.make(P3, (1, 0, 0, 0, 1, 0, 0, 0, 1), 0)
    for bad in (q * q + q + 1, q * q + q + 7, -3):
        alias = H[:-1] + [bad]
        for call in (lambda: is_hyperoval(P3, alias),
                     lambda: geo.no_three_collinear(P3, alias),
                     lambda: geo.codes_to_coords_v(P3, [bad]),
                     lambda: identity.apply_code(bad),
                     lambda: equiv.stabilizer(P3, alias),
                     lambda: equiv.are_equivalent(P3, H, alias),
                     lambda: equiv.are_equivalent(P3, alias, H),
                     lambda: equiv.are_equivalent(P3, H, H, marked=(H[0], bad)),
                     lambda: equiv.point_invariant(P3, alias, H[0]),
                     lambda: equiv.point_invariant(P3, H, bad),
                     lambda: geo.points_to_json(P3, alias, "K")):
            with pytest.raises(GeometryError, match="not a point code"):
                call()
    for bad in (1.0, "3", (0, 0, 1)):
        with pytest.raises(GeometryError, match="not a point code"):
            is_hyperoval(P3, H[:-1] + [bad])


def pairwise_intersections(P, u, mu) -> np.ndarray:
    """The meeting points of every pair of the lines L(u_k, mu_k), as K codes:
    line_intersection over the upper triangle, vectorized."""
    ii, jj = np.triu_indices(len(u), k=1)
    d = P.bform_v(u[ii], u[jj])
    if np.any(d == 0):
        raise GeometryError("parallel lines in family")
    x = P.kmul_v(mu[jj], u[ii]) ^ P.kmul_v(mu[ii], u[jj])
    return P.kmul_v(x, P.kinv_v(d))


def unique_line_oval(P, u, mu):
    """The np.unique formulation: (is a line oval, its covered points or None)."""
    if len(np.unique(u)) != P.q + 1:
        return False, None
    uniq, counts = np.unique(pairwise_intersections(P, u, mu), return_counts=True)
    ok = len(uniq) == P.q * (P.q + 1) // 2 and not np.any(counts != 1)
    return ok, ([int(v) for v in uniq] if ok else None)


def catalog_cases():
    """Every catalog family at m <= 6: the sweep cases and Glynn I/II at m = 3, 5."""
    from test_acceptance import catalog_sweep_cases
    return catalog_sweep_cases() + [(m, fam, None) for m in (3, 5) for fam in ("glynn1", "glynn2")]


def line_families(P, g, seed):
    """Seeded (u, mu) around the line oval of g: the lines in permuted
    orders, with mu unchanged or changed at one or two lines, and with one
    direction repeated."""
    rng = random.Random(seed)
    out = []
    for changed in (0, 0, 1, 1, 2):
        perm = np.array(rng.sample(range(P.q + 1), P.q + 1))
        mu = g.values.copy()
        for k in rng.sample(range(P.q + 1), changed):
            mu[k] = rng.choice([v for v in range(P.q) if v != mu[k]])
        out.append((g.S.codes[perm], mu[perm]))
    u = g.S.codes.copy()
    u[rng.randrange(1, P.q + 1)] = u[0]
    out.append((u, g.values))
    return out


@pytest.mark.parametrize("m,fam,r", catalog_cases())
def test_line_oval_counts_match_unique(m, fam, r):
    from nihoval import gfun
    P = field_create(m)
    g = gfun.g_catalog(P, fam, r=r)
    u = g.S.codes
    assert unique_line_oval(P, u, g.values) == (True, line_oval_points(P, u, g.values))
    assert is_line_oval(P, u, g.values)
    # the lines in permuted orders, some with changed mu or a repeated direction
    for uu, mu in line_families(P, g, seed=m * 100 + len(fam)):
        ok, points = unique_line_oval(P, uu, mu)
        assert is_line_oval(P, uu, mu) == ok
        if ok:
            assert line_oval_points(P, uu, mu) == points
        else:
            repeated = len(set(uu.tolist())) <= P.q
            with pytest.raises(GeometryError, match="repeated directions" if repeated
                               else "three concurrent"):
                line_oval_points(P, uu, mu)
    if m == 1:
        return  # two lines meet in one point: no third line to make concurrent
    # change g(u_2) so that its line passes through the meeting point of the
    # lines at u_0 and u_1
    values = g.values.copy()
    meet = line_intersection(P, int(u[0]), int(values[0]), int(u[1]), int(values[1]))
    values[2] = P.bform(int(u[2]), meet)
    assert values[2] != g.values[2]
    assert unique_line_oval(P, u, values) == (False, None)
    assert not is_line_oval(P, u, values)
    with pytest.raises(GeometryError, match="concurrent"):
        line_oval_points(P, u, values)


# ------------------------------------------------ pencil counts vs the oracles


def frame_image(P, codes, rng, targets):
    """The image of the points under a collineation sending three seeded
    points of them to the three H codes `targets` (no two of them equal and
    not all on one line)."""
    from nihoval import equiv
    a, b, c = (coords(P, p) for p in rng.sample(codes, 3))
    t1, t2, t3 = (coords(P, p) for p in targets)
    to_frame = equiv.Collineation.make(P, [v for r in range(3) for v in (a[r], b[r], c[r])], 0)
    frame_to = equiv.Collineation.make(P, [v for r in range(3) for v in (t1[r], t2[r], t3[r])], 0)
    return [frame_to.compose(to_frame.inverse()).apply_code(p) for p in codes]


def point_sets(P, H, seed):
    """Seeded point sets around the hyperoval H: collineation images, some
    through (1:0:0) and (0:1:0) or another point at infinity, each with one
    point replaced (never an arc), with one point repeated, and 3-point sets."""
    from nihoval import equiv
    q, rng = P.q, random.Random(seed)
    inf = [q * q + rng.randrange(1, q), q * q + q]    # (x:1:0), x != 0, and (1:0:0)
    images = [H, frame_image(P, H, rng, [q * q + q, q * q, 0]),
              frame_image(P, H, rng, inf + [rng.randrange(q * q)])]
    while len(images) < 5:
        M = [rng.randrange(q) for _ in range(9)]
        if any(M) and (phi := equiv.Collineation.make(P, M, rng.randrange(P.m))).det():
            images.append([phi.apply_code(p) for p in H])
    sets = []
    for image in images:
        rng.shuffle(image)
        k = rng.randrange(len(image))
        other = rng.choice([c for c in range(n_points(P)) if c not in image])
        sets += [(image, True), (image[:k] + [other] + image[k + 1:], False),
                 (image[:k] + [image[(k + 1) % len(image)]] + image[k + 1:], False)]
    sets += [(rng.sample(range(n_points(P)), 3), None) for _ in range(6)]
    sets += [([q * q + q, q * q, rng.randrange(q * q, q * q + q)], False),
             ([0, q * q + q, rng.randrange(1, q) * q], False)]
    return sets


@pytest.mark.parametrize("m,fam,r", catalog_cases())
def test_pencil_codes_match_the_cross_products(m, fam, r):
    from nihoval import gfun
    P = field_create(m)
    H = gfun.g_catalog(P, fam, r=r).hyperoval_codes_h()
    for codes, arc in point_sets(P, H, seed=m * 100 + len(fam)):
        got = no_three_collinear(P, codes)
        assert got == no_three_collinear_cross(P, codes), codes
        if arc is not None:
            assert got == arc, codes
        if m <= 4:
            assert got == no_three_collinear_triples(P, codes), codes


def pencil_answers(cases):
    from nihoval import gfun
    out = []
    for m, fam, r in cases:
        P = field_create(m)
        g = gfun.g_catalog(P, fam, r=r)
        H = g.hyperoval_codes_h()
        out += [no_three_collinear(P, codes) for codes, _ in point_sets(P, H, seed=m)]
        for u, mu in line_families(P, g, seed=m):
            try:
                out.append(line_oval_points(P, u, mu))
            except GeometryError as exc:
                out.append(str(exc))
            out.append(is_line_oval(P, u, mu))
    return out


def test_pencil_counts_do_not_depend_on_the_row_budget(monkeypatch):
    # one row per block gives the same answers as the default budget
    cases = [(3, "hyperconic", None), (4, "lunelli_sce", None), (5, "cherowitzo", None),
             (6, "adelaide", None)]
    default = pencil_answers(cases)
    monkeypatch.setattr(geo, "_PENCIL_CELLS", 1)
    assert pencil_answers(cases) == default


def test_pencil_counts_memory_m10():
    from nihoval import gfun
    P = field_create(10)
    g = gfun.g_catalog(P, "adelaide")
    H = g.hyperoval_codes_h()
    peaks = {}
    for name, run in (("no_three_collinear", lambda: no_three_collinear(P, H)),
                      ("is_line_oval", lambda: is_line_oval(P, g.S.codes, g.values))):
        assert run()  # per-field tables are built once, outside the measurement
        tracemalloc.start()
        try:
            assert run()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    assert peaks["no_three_collinear"] < 4 and peaks["is_line_oval"] < 4, peaks
