import json
import random
from itertools import combinations

import numpy as np
import pytest

from nihoval import gf2m, geometry as geo
from nihoval.geometry import (GeometryError, LineH, LineK, ProjPointH, ProjPointK,
                              collinear, h_to_k, incident_h, incident_k, is_hyperoval,
                              is_line_oval, is_oval, k_to_h, line_oval_points,
                              line_through, nucleus, no_three_collinear)
from nihoval.gf2m import field_create, unit_circle


def all_points_h(P):
    """The q^2 + q + 1 points of PG(2,q), in code order."""
    return [ProjPointH.from_code(P, c) for c in range(P.q * P.q + P.q + 1)]


def line_intersection(l1, l2):
    """Affine meeting point of two nonparallel lines, as a K code: the oracle
    for the vectorized pairwise intersections of the line-oval checks."""
    P = l1.params
    d = P.bform(l1.ucode, l2.ucode)
    if d == 0:
        raise GeometryError("parallel lines do not meet in AG(2,q)")
    x = P.kmul(l2.mu, l1.ucode) ^ P.kmul(l1.mu, l2.ucode)
    return P.kmul(x, P.finv(d))


def hyperconic_points(P):
    pts = [ProjPointH.make(P, t, P.fmul(t, t), 1) for t in range(P.q)]
    return pts + [ProjPointH.make(P, 0, 1, 0), ProjPointH.make(P, 1, 0, 0)]


@pytest.mark.parametrize("m", [1, 2, 3])
def test_point_line_counts(m):
    P = field_create(m)
    q = P.q
    pts = all_points_h(P)
    assert len(pts) == q * q + q + 1
    assert len({p.code for p in pts}) == len(pts)
    for p in pts:
        line = LineH.make(P, p.x, p.y, p.z)
        assert sum(incident_h(r, line) for r in pts) == q + 1


def test_incidence_examples(P5):
    # (1:0:0) on the line at infinity [0:0:1]
    assert incident_h(ProjPointH.make(P5, 1, 0, 0), LineH.make(P5, 0, 0, 1))
    # (0:1) incident with [u:0] for every u in S
    origin = ProjPointK.affine(P5, 0)
    for u in unit_circle(P5).codes.tolist():
        assert incident_k(origin, u, 0)


def test_affine_line_has_q_points(P3):
    S = unit_circle(P3)
    for u in S.codes[:4].tolist():
        for mu in range(P3.q):
            line = LineK(P3, u, mu)
            pts = line.points()
            assert len(pts) == P3.q
            for x in pts:
                assert P3.bform(u, x) == mu


@pytest.mark.parametrize("m", [1, 2, 3])
def test_model_conversion_roundtrip(m):
    P = field_create(m)
    for p in all_points_h(P):
        assert k_to_h(h_to_k(p)) == p


def test_model_conversion_anchors(P4):
    # (0:0:1) <-> 0 and (1:0:1) <-> 1
    assert h_to_k(ProjPointH.make(P4, 0, 0, 1)).xcode == 0
    assert h_to_k(ProjPointH.make(P4, 1, 0, 1)).xcode == 1
    assert k_to_h(ProjPointK.affine(P4, 0)) == ProjPointH.make(P4, 0, 0, 1)


@pytest.mark.parametrize("m", [2, 3])
def test_model_conversion_preserves_incidence(m):
    # affine K-lines L(u, mu) map to H-lines through the converted points
    P = field_create(m)
    S = unit_circle(P)
    for u in S.codes[:3].tolist():
        for mu in (0, 1):
            line = LineK(P, u, mu)
            pts = [k_to_h(ProjPointK.affine(P, x)) for x in line.points()]
            pts.append(k_to_h(ProjPointK.make(P, u, 0)))
            hline = line_through(pts[0], pts[1])
            assert all(incident_h(p, hline) for p in pts)


def no_three_collinear_triples(P, codes) -> bool:
    """Oracle: no triple of the points has a zero determinant."""
    xs, ys, zs = geo.codes_to_coords_v(P, np.array(codes, dtype=np.int64))
    i, j, k = np.array(list(combinations(range(len(codes)), 3)), dtype=np.int64).T
    a = P.fmul_v(ys[i], zs[j]) ^ P.fmul_v(zs[i], ys[j])
    b = P.fmul_v(zs[i], xs[j]) ^ P.fmul_v(xs[i], zs[j])
    c = P.fmul_v(xs[i], ys[j]) ^ P.fmul_v(ys[i], xs[j])
    det = P.fmul_v(a, xs[k]) ^ P.fmul_v(b, ys[k]) ^ P.fmul_v(c, zs[k])
    return not np.any(det == 0)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_hyperconic_is_hyperoval(m):
    P = field_create(m)
    pts = hyperconic_points(P)
    assert is_hyperoval(P, pts)
    codes = [p.code for p in pts]
    assert no_three_collinear(P, codes) == no_three_collinear_triples(P, codes) == True


def test_hyperoval_methods_agree_on_negatives(P4):
    pts = hyperconic_points(P4)
    bad = [ProjPointH.make(P4, t, 0, 1) for t in range(3)] + pts[3:-1]
    codes = [p.code for p in bad]
    assert no_three_collinear(P4, codes) == no_three_collinear_triples(P4, codes) == False
    # exactly one collinear triple (h0, h1, c), its points at random positions
    rng = random.Random(4)
    for _ in range(20):
        sub = rng.sample([p.code for p in pts], 8)
        line = line_through(*(ProjPointH.from_code(P4, c) for c in sub[:2]))
        c = next(s.code for s in all_points_h(P4) if incident_h(s, line) and s.code not in sub
                 and no_three_collinear_triples(P4, sub[1:] + [s.code])
                 and no_three_collinear_triples(P4, sub[:1] + sub[2:] + [s.code]))
        codes = sub + [c]
        rng.shuffle(codes)
        assert no_three_collinear(P4, codes) == no_three_collinear_triples(P4, codes) == False
    # a repeated point: the oracle sees a zero determinant, the scan a repeat
    codes = [p.code for p in pts[:-1]] + [pts[0].code]
    assert no_three_collinear(P4, codes) == no_three_collinear_triples(P4, codes) == False


def test_collinear_detection(P3):
    a = ProjPointH.make(P3, 0, 0, 1)
    b = ProjPointH.make(P3, 1, 0, 1)
    c = ProjPointH.make(P3, 3, 0, 1)
    d = ProjPointH.make(P3, 1, 1, 1)
    assert collinear(a, b, c)
    assert not collinear(a, b, d)


def test_wrong_cardinality_raises(P3):
    with pytest.raises(GeometryError):
        is_hyperoval(P3, hyperconic_points(P3)[:5])
    with pytest.raises(GeometryError):
        is_oval(P3, hyperconic_points(P3))


def test_nucleus_of_conic(P4):
    # conic {(t : t^2 : 1)} u {(0:1:0)} has nucleus (1:0:0)
    oval = [ProjPointH.make(P4, t, P4.fmul(t, t), 1) for t in range(P4.q)]
    oval.append(ProjPointH.make(P4, 0, 1, 0))
    n = nucleus(P4, oval)
    assert (n.x, n.y, n.z) == (1, 0, 0)


def test_oval_tangent_secant_counts(P3):
    # q+1 tangents concurrent in the nucleus; q(q+1)/2 secants; q(q-1)/2 exterior
    oval = [ProjPointH.make(P3, t, P3.fmul(t, t), 1) for t in range(P3.q)]
    oval.append(ProjPointH.make(P3, 0, 1, 0))
    codes = {p.code for p in oval}
    q = P3.q
    sec = tan = ext = 0
    for lc in range(q * q + q + 1):
        lp = ProjPointH.from_code(P3, lc)
        line = LineH.make(P3, lp.x, lp.y, lp.z)
        k = sum(incident_h(p, line) for p in oval)
        sec += k == 2
        tan += k == 1
        ext += k == 0
    assert (tan, sec, ext) == (q + 1, q * (q + 1) // 2, q * (q - 1) // 2)


@pytest.mark.parametrize("m", [2, 3])
def test_line_oval_and_covered_points(m):
    P = field_create(m)
    S = unit_circle(P)
    lines = [LineK(P, int(u), 1) for u in S.codes]
    assert is_line_oval(lines)
    E = line_oval_points(lines)
    assert len(E) == P.q * (P.q + 1) // 2
    # each covered point lies on exactly two lines
    for x in E:
        assert sum(P.bform(l.ucode, x) == l.mu for l in lines) == 2
    # complement size q(q-1)/2
    assert P.q ** 2 - len(E) == P.q * (P.q - 1) // 2


def test_line_oval_negative(P3):
    S = unit_circle(P3)
    lines = [LineK(P3, int(u), 0) for u in S.codes]  # all through the origin
    assert not is_line_oval(lines)
    with pytest.raises(GeometryError):
        line_oval_points(lines)


def test_parallel_lines_do_not_meet(P3):
    u = unit_circle(P3).codes[2]
    with pytest.raises(GeometryError):
        line_intersection(LineK(P3, int(u), 0), LineK(P3, int(u), 1))


def test_distinct_directions_meet_once(P3):
    S = unit_circle(P3)
    l1 = LineK(P3, int(S.codes[1]), 3)
    l2 = LineK(P3, int(S.codes[2]), 5)
    x = line_intersection(l1, l2)
    assert x in l1.points() and x in l2.points()
    assert len(set(l1.points()) & set(l2.points())) == 1


def test_point_set_serialization(P4):
    pts = hyperconic_points(P4)
    obj = json.loads(geo.points_to_json(P4, pts, "H"))
    assert obj == {"model": "H", "m": 4, "points": sorted(p.hex() for p in pts)}
    obj_k = json.loads(geo.points_to_json(P4, [h_to_k(p) for p in pts], "K"))
    back_k = [k_to_h(ProjPointK.make(P4, *(int(v, 16) for v in hx.split(":"))))
              for hx in obj_k["points"]]
    assert obj_k["model"] == "K" and {p.code for p in back_k} == {p.code for p in pts}


def test_golden_sec46_point_sets(P3, P4):
    from nihoval import gfun
    from conftest import GOLDEN
    for m, P, fam in ((3, P3, "hyperconic"), (4, P4, "hyperconic"),
                      (4, P4, "lunelli_sce")):
        g = gfun.g_catalog(P, fam)
        pts = g.hyperoval_points_k()
        for model in ("H", "K"):
            expect = (GOLDEN / f"sec46_{fam}_m{m}_{model}.json").read_text().strip()
            assert geo.points_to_json(P, pts, model) == expect


def test_set_types(P4):
    pts = hyperconic_points(P4)
    H = geo.Hyperoval.make(P4, pts)
    assert len(H.codes) == P4.q + 2 and list(H.codes) == sorted(H.codes)
    assert pts[0] in H
    # structural equality after shuffling the input
    H2 = geo.Hyperoval.make(P4, list(reversed(pts)))
    assert H == H2 and hash(H) == hash(H2)
    with pytest.raises(GeometryError):
        geo.Hyperoval.make(P4, pts[:-1] + [ProjPointH.make(P4, 1, 1, 1)])
    oval_pts = pts[:-1]
    O = geo.Oval.make(P4, oval_pts)
    assert O.nucleus.code == pts[-1].code
    assert O.hyperoval() == H
    from nihoval.gf2m import unit_circle as uc
    lines = [LineK(P4, int(u), 1) for u in uc(P4).codes]
    LO = geo.LineOval.make(P4, lines)
    assert len(line_oval_points(list(LO.lines))) == P4.q * (P4.q + 1) // 2


def unique_line_oval(lines):
    """The np.unique formulation: (is a line oval, its covered points or None)."""
    P = lines[0].params
    if len({l.ucode for l in lines}) != P.q + 1:
        return False, None
    uniq, counts = np.unique(geo._pairwise_intersections(lines), return_counts=True)
    ok = len(uniq) == P.q * (P.q + 1) // 2 and not np.any(counts != 1)
    return ok, ([int(v) for v in uniq] if ok else None)


def catalog_cases():
    """Every catalog family at m <= 6: the sweep cases and Glynn I/II at m = 3, 5."""
    from test_acceptance import catalog_sweep_cases
    return catalog_sweep_cases() + [(m, fam, None) for m in (3, 5) for fam in ("glynn1", "glynn2")]


@pytest.mark.parametrize("m,fam,r", catalog_cases())
def test_line_oval_counts_match_unique(m, fam, r):
    from nihoval import gfun
    P = field_create(m)
    g = gfun.g_catalog(P, fam, r=r)
    lines = g.lines()
    assert unique_line_oval(lines) == (True, line_oval_points(lines))
    assert is_line_oval(lines)
    if m == 1:
        return  # two lines meet in one point: no third line to make concurrent
    # change g(u_2) so that its line passes through the meeting point of the
    # lines at u_0 and u_1
    values = g.values.copy()
    values[2] = P.bform(lines[2].ucode, line_intersection(lines[0], lines[1]))
    assert values[2] != g.values[2]
    bad = gfun.GFunction(P, values).lines()
    assert unique_line_oval(bad) == (False, None)
    assert not is_line_oval(bad)
    with pytest.raises(GeometryError, match="concurrent"):
        line_oval_points(bad)
