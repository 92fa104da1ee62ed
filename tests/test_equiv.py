import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from nihoval import bent, equiv, geometry as geo, gfun, opoly
from nihoval.equiv import (Collineation, EquivError, are_equivalent, classify_bent,
                           collineation_from_k_multiplier, pgammal_order, stabilizer)
from nihoval.gf2m import field_create, unit_circle
from nihoval.reference import SEC46_CASES, SEC46_HYPERCONIC

from test_acceptance import catalog_sweep_cases, stab


def hyperoval_codes(P, fam, r=None):
    g = gfun.g_catalog(P, fam, r=r)
    if not g.is_zero_free():
        g = gfun.fix_zeros(g)
    return g.hyperoval_codes_h()


def test_collineation_algebra(P4):
    rng = np.random.default_rng(0)
    id_ = Collineation.identity(P4)
    for _ in range(20):
        m1 = [int(v) for v in rng.integers(0, 16, 9)]
        phi = None
        try:
            phi = Collineation.make(P4, m1, int(rng.integers(0, 4)))
        except EquivError:
            continue
        if phi.det() == 0:
            continue
        inv = phi.inverse()
        assert phi.compose(inv).key() == id_.key()
        assert inv.compose(phi).key() == id_.key()
    # composition respects point action
    a = Collineation.make(P4, (1, 2, 0, 0, 1, 3, 1, 0, 1), 1)
    b = Collineation.make(P4, (0, 1, 0, 1, 0, 0, 5, 0, 1), 2)
    for code in range(0, P4.q ** 2 + P4.q + 1, 7):
        p = geo.ProjPointH.from_code(P4, code)
        assert a.compose(b).apply(p) == a.apply(b.apply(p))


@pytest.mark.parametrize("m,fam,r,order,sizes", [
    (1, "hyperconic", None, 24, [4]),
    (2, "hyperconic", None, 720, [6]),
    (3, "hyperconic", None, 1512, [1, 9]),
    (4, "hyperconic", None, 16320, [1, 17]),
    (4, "lunelli_sce", None, 144, [18]),
    (4, "translation", 3, 16320, [1, 17]),   # t^8 ~ t^(1/2): a hyperconic again
])
def test_stabilizer_small(m, fam, r, order, sizes):
    P = field_create(m)
    dec = stabilizer(P, hyperoval_codes(P, fam, r))
    assert dec.stabilizer_order == order
    assert dec.orbit_sizes() == sizes
    assert dec.stabilizer_order <= pgammal_order(P)
    assert pgammal_order(P) % dec.stabilizer_order == 0
    for o in dec.orbits:
        assert dec.stabilizer_order % len(o) == 0  # orbit-stabilizer
    # every sample element maps the hyperoval onto itself
    codes = set(dec.point_codes)
    for phi in dec.generators[:6]:
        assert {phi.apply_code(c) for c in codes} == codes


@pytest.mark.parametrize("m,fam,r", [c for c in catalog_sweep_cases() if c[0] <= 5])
def test_generators_generate(m, fam, r):
    # the action on H is faithful (no nontrivial collineation fixes a hyperoval
    # pointwise), so the samples generate the stabilizer iff their permutations
    # of H generate a group of the same order
    dec = stab(m, fam, r)   # shared with the acceptance tests
    codes = dec.point_codes
    index = {c: k for k, c in enumerate(codes)}
    perms = []
    for phi in dec.generators:
        image = [phi.apply_code(c) for c in codes]
        assert set(image) == set(codes)
        perms.append(Permutation([index[c] for c in image]))
    group = PermutationGroup(perms)
    assert group.order() == dec.stabilizer_order
    assert {frozenset(o) for o in group.orbits()} == {frozenset(o) for o in dec.orbits}


def test_stabilizer_rejects_non_hyperoval(P3):
    codes = [geo.ProjPointH.make(P3, t, 0, 1).code for t in range(P3.q)]
    codes += [geo.ProjPointH.make(P3, 0, 1, 0).code, geo.ProjPointH.make(P3, 1, 1, 1).code]
    with pytest.raises(EquivError):
        stabilizer(P3, codes)


def test_threads_do_not_change_results(P4):
    codes = hyperoval_codes(P4, "hyperconic")
    with pytest.raises(EquivError):
        stabilizer(P4, codes, threads=0)
    a = stabilizer(P4, codes, threads=1)
    b = stabilizer(P4, codes, threads=2)
    assert a.stabilizer_order == b.stabilizer_order
    assert a.orbits == b.orbits
    assert [g.key() for g in a.generators] == [g.key() for g in b.generators]


def test_are_equivalent_pi_transforms(P4, P5):
    # D(t^2) ~ D(t^(1/2)) via pi1
    hc = opoly.opoly_table(P4, opoly.OPolyFamily("hyperconic"))
    a = [p.code for p in opoly.dh_points(P4, hc)]
    b = [p.code for p in opoly.dh_points(P4, opoly.transform_pi(1, P4, hc))]
    w = are_equivalent(P4, a, b)
    assert w is not None
    # the witness really maps a onto b
    assert {w.apply_code(c) for c in a} == set(b)
    # E(t^6), E(t^(1/6)), E(t^(1-6)) pairwise equivalent as ovals at m = 5
    seg = opoly.opoly_table(P5, opoly.OPolyFamily("segre"))
    ovals = []
    for k, tab in (("h0", seg), ("h1", opoly.transform_pi(1, P5, seg)),
                   ("h2", opoly.transform_pi(2, P5, seg))):
        pts = [geo.ProjPointH.make(P5, t, int(tab[t]), 1) for t in range(P5.q)]
        pts.append(geo.ProjPointH.make(P5, 0, 1, 0))
        nuc = geo.ProjPointH.make(P5, 1, 0, 0)
        ovals.append(([p.code for p in pts] + [nuc.code], nuc.code))
    for i in range(len(ovals)):
        for j in range(i + 1, len(ovals)):
            (pa, na), (pb, nb) = ovals[i], ovals[j]
            assert are_equivalent(P5, pa, pb, marked=(na, nb)) is not None


def test_are_equivalent_negative(P4):
    a = hyperoval_codes(P4, "hyperconic")
    b = hyperoval_codes(P4, "lunelli_sce")
    assert are_equivalent(P4, a, b) is None


def test_are_equivalent_symmetric_transitive(P5):
    fams = [("segre", None), ("translation", 2), ("subiaco_payne", None)]
    sets = {f: hyperoval_codes(P5, f, r) for f, r in fams}
    # payne-route hyperoval is equivalent to the subiaco row; segre is not
    pay = hyperoval_codes(P5, "payne")
    w_ab = are_equivalent(P5, pay, sets["subiaco_payne"])
    w_ba = are_equivalent(P5, sets["subiaco_payne"], pay)
    assert w_ab is not None and w_ba is not None
    assert are_equivalent(P5, sets["segre"], sets["subiaco_payne"]) is None
    assert are_equivalent(P5, sets["segre"], sets["translation"]) is None


def test_okp_stabilizer_generator(P5):
    # multiplication by omega generates the order-3 stabilizer
    om = unit_circle(P5).omega().code
    phi = collineation_from_k_multiplier(P5, om)
    codes = set(hyperoval_codes(P5, "okeefe_penttila"))
    assert {phi.apply_code(c) for c in codes} == codes
    id_key = Collineation.identity(P5).key()
    assert phi.key() != id_key
    assert phi.compose(phi).compose(phi).key() == id_key
    dec = stabilizer(P5, sorted(codes))
    assert dec.stabilizer_order == 3


def test_frobenius_collineation_on_k_model(P5):
    # x -> x^2 on K fixes every catalog hyperoval built from Galois-stable g
    phi = equiv.frobenius_collineation(P5, 1)
    codes = set(hyperoval_codes(P5, "subiaco_payne"))
    # the K-model Frobenius is conjugate to the H-model one through the i-basis;
    # the hyperoval of a Galois-stable g is fixed by *some* order-m collineation,
    # so here we just check phi is an automorphism of PG fixing the line at inf.
    inf = geo.ProjPointH.make(P5, 1, 0, 0).code
    assert phi.apply_code(inf) == inf


@pytest.mark.parametrize("m,fam,r,classes", [
    (m, "hyperconic", None, n) for m, n in SEC46_HYPERCONIC if m <= 4] + [
    (m, fam, r, n) for m, fam, r, n, _ in SEC46_CASES
    if fam in ("lunelli_sce", "translation", "segre")])
def test_classify_counts(m, fam, r, classes):
    P = field_create(m)
    g = gfun.g_catalog(P, fam, r=r)
    if not g.is_zero_free():
        g = gfun.fix_zeros(g)
    res = classify_bent(g)
    assert res.class_count == classes
    assert sum(res.orbit_sizes) == P.q + 2
    for c in res.classes:
        assert bent.is_bent(bent.bent_from_g(c.g))


def test_classify_requires_zero_free(P5):
    g = gfun.g_catalog(P5, "subiaco")
    with pytest.raises(EquivError):
        classify_bent(g)


def test_classify_reps_are_canonical(P3):
    res = classify_bent(gfun.g_catalog(P3, "hyperconic"))
    # deterministic choice: rerunning yields identical tables
    res2 = classify_bent(gfun.g_catalog(P3, "hyperconic"))
    for a, b in zip(res.classes, res2.classes):
        assert np.array_equal(a.g.values, b.g.values)
        assert a.s_index == b.s_index


def test_same_orbit_shifts_are_equivalent(P3):
    # s, t in one stabilizer orbit <=> the shifted ovals are equivalent
    g = gfun.g_catalog(P3, "hyperconic")
    dec = stabilizer(P3, g.hyperoval_codes_h())
    big = max(dec.orbits, key=len)
    pts = [i for i in big if i != P3.q + 1][:2]  # two shift points, same orbit
    ovals = []
    for sidx in pts:
        o = gfun.shifted_oval_codes(g, sidx) + [0]
        ovals.append(geo.k_codes_to_h_codes(P3, np.array(o, dtype=np.uint32), 1))
    w = are_equivalent(P3, [int(c) for c in ovals[0]], [int(c) for c in ovals[1]],
                       marked=(0, 0))
    assert w is not None


def test_orbits_on_points_wrapper(P3):
    g = gfun.g_catalog(P3, "hyperconic")
    orbits = equiv.orbits_on_points(P3, g.hyperoval_codes_h())
    assert sorted(len(o) for o in orbits) == [1, 9]
    assert sum(len(o) for o in orbits) == P3.q + 2


def test_adelaide_opoly_route_matches_k_model(P4):
    # the trace-expression o-polynomial and the unit-circle form give
    # equivalent hyperovals (at m = 4 both coincide with lunelli-sce)
    tab = opoly.opoly_table(P4, opoly.OPolyFamily("adelaide"))
    a = [p.code for p in opoly.dh_points(P4, tab)]
    b = hyperoval_codes(P4, "adelaide")
    assert are_equivalent(P4, a, b) is not None
    assert are_equivalent(P4, a, hyperoval_codes(P4, "lunelli_sce")) is not None


def test_subiaco_opoly_route_matches_g_form(P5):
    tab = opoly.opoly_table(P5, opoly.OPolyFamily("subiaco"))
    a = [p.code for p in opoly.dh_points(P5, tab)]
    b = hyperoval_codes(P5, "subiaco_payne")
    assert are_equivalent(P5, a, b) is not None
