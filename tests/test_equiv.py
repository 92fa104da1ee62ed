import itertools
import random
import tracemalloc

import numpy as np
import pytest
from sympy.combinatorics import Permutation, PermutationGroup

from nihoval import bent, equiv, geometry as geo, gf2m, gfun, opoly
from nihoval.equiv import (Collineation, EquivError, are_equivalent, classify_bent,
                           stabilizer)
from nihoval.gf2m import field_create, spread_i, unit_circle
from nihoval.reference import SEC46_CASES, SEC46_HYPERCONIC

import point_oracle
from test_acceptance import catalog_sweep_cases, classify, stab


def pgammal_order(P):
    """|PGammaL(3, q)| = q^3 (q^3 - 1)(q^2 - 1) m."""
    q = P.q
    return q ** 3 * (q ** 3 - 1) * (q ** 2 - 1) * P.m


def hyperoval_codes(P, fam, r=None):
    g = gfun.g_catalog(P, fam, r=r)
    if not g.is_zero_free():
        g = gfun.fix_zeros(g)
    return g.hyperoval_codes_h()


def test_collineation_algebra(P4):
    rng = np.random.default_rng(0)
    id_ = Collineation(P4, (1, 0, 0, 0, 1, 0, 0, 0, 1), 0)
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
        assert phi.compose(inv) == id_
        assert inv.compose(phi) == id_
    # composition respects point action
    a = Collineation.make(P4, (1, 2, 0, 0, 1, 3, 1, 0, 1), 1)
    b = Collineation.make(P4, (0, 1, 0, 1, 0, 0, 5, 0, 1), 2)
    for code in range(0, P4.q ** 2 + P4.q + 1, 7):
        assert a.compose(b).apply_code(code) == a.apply_code(b.apply_code(code))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_apply_code_matches_scalar_route(m):
    # every point, seeded collineations with every Frobenius power
    P = field_create(m)
    rng = np.random.default_rng(m)
    codes = range(P.q ** 2 + P.q + 1)
    for frob in range(m):
        made = 0
        while made < 3:
            phi = Collineation.make(P, rng.integers(0, P.q, 9), frob)
            if phi.det() == 0:
                continue
            made += 1
            image = [phi.apply_code(c) for c in codes]
            assert image == [point_oracle.apply(phi, c) for c in codes]
            assert sorted(image) == list(codes)
    # a singular matrix sends its kernel to (0:0:0)
    phi = Collineation.make(P, (1, 0, 0, 1, 0, 0, 1, 0, 0), 0)
    with pytest.raises(EquivError, match="0:0:0"):
        phi.apply_code(0)


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
    # every sample is the permutation that the collineation taking the
    # quadrangle of points 0..3 to its first four images induces, for some
    # Frobenius power j
    codes = dec.point_codes
    index = {c: k for k, c in enumerate(codes)}
    coords = equiv._coords_of_codes(P, codes)
    base = Collineation.make(P, equiv._frame_matrix(P, coords[:4]).reshape(-1), 0).inverse()
    assert dec.generators
    for perm in dec.generators:
        M = equiv._frame_matrix(P, coords[list(perm[:4])]).reshape(-1)
        induced = [tuple(index.get(phi.apply_code(c)) for c in codes)
                   for phi in (Collineation.make(P, M, j).compose(base) for j in range(m))]
        assert perm in induced


@pytest.mark.parametrize("m,fam,r", [c for c in catalog_sweep_cases() if c[0] <= 5])
def test_generators_generate(m, fam, r):
    # the action on H is faithful (no nontrivial collineation fixes a hyperoval
    # pointwise), so the samples generate the stabilizer iff their permutations
    # of H generate a group of the same order
    dec = stab(m, fam, r)   # shared with the acceptance tests
    group = PermutationGroup([Permutation(list(perm)) for perm in dec.generators])
    assert group.order() == dec.stabilizer_order
    assert {frozenset(o) for o in group.orbits()} == {frozenset(o) for o in dec.orbits}


def test_only_the_witness_builds_matrices(P5, monkeypatch):
    # the orbit search keeps its samples as point permutations and builds no
    # matrix; are_equivalent builds the witness from two frames, the source
    # quadrangle and its image
    H = hyperoval_codes(P5, "subiaco_payne")
    phi = seeded_collineation(P5, random.Random("witness"), 2)
    image = [phi.apply_code(c) for c in H]
    ref = stabilizer(P5, H)
    real = equiv._frame_matrix

    def refuse(*args):
        raise AssertionError("the orbit search built a matrix")

    monkeypatch.setattr(equiv, "_frame_matrix", refuse)
    monkeypatch.setattr(Collineation, "make", staticmethod(refuse))
    dec = stabilizer(P5, H)
    assert (dec.stabilizer_order, dec.orbits, dec.generators) == (
        ref.stabilizer_order, ref.orbits, ref.generators)
    monkeypatch.undo()
    frames = []
    monkeypatch.setattr(equiv, "_frame_matrix",
                        lambda P, quad: frames.append(quad) or real(P, quad))
    w = are_equivalent(P5, H, image)
    assert w is not None and {w.apply_code(c) for c in H} == set(image)
    assert len(frames) == 2


def test_stabilizer_rejects_non_hyperoval(P3):
    codes = [point_oracle.h_code(P3, *p) for p in
             [(t, 0, 1) for t in range(P3.q)] + [(0, 1, 0), (1, 1, 1)]]
    with pytest.raises(EquivError):
        stabilizer(P3, codes)


def test_are_equivalent_pi_transforms(P4, P5):
    # D(t^2) ~ D(t^(1/2)) via pi1
    hc = opoly.opoly_table(P4, opoly.OPolyFamily("hyperconic"))
    a = opoly.dh_points(P4, hc)
    b = opoly.dh_points(P4, opoly.transform_pi(1, P4, hc))
    w = are_equivalent(P4, a, b)
    assert w is not None
    # the witness really maps a onto b
    assert {w.apply_code(c) for c in a} == set(b)
    # E(t^6), E(t^(1/6)), E(t^(1-6)) pairwise equivalent as ovals at m = 5
    seg = opoly.opoly_table(P5, opoly.OPolyFamily("segre"))
    ovals = []
    for k, tab in (("h0", seg), ("h1", opoly.transform_pi(1, P5, seg)),
                   ("h2", opoly.transform_pi(2, P5, seg))):
        # D(h) ends with the nucleus (1:0:0) of the oval {(t : h(t) : 1)} u {(0:1:0)}
        pts = opoly.dh_points(P5, tab)
        ovals.append((pts, pts[-1]))
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


def collineation_from_k_multiplier(params, c_code):
    """The projectivity of PG(2,q) induced by x -> c*x on K (c != 0)."""
    i = spread_i(params)
    # columns: images of the basis (1, i) of K in (x, y) = (<i,.>, <1,.>) coords
    c1 = params.kmul(c_code, 1)
    ci = params.kmul(c_code, i)
    m00, m10 = params.bform(i, c1), params.kT(c1)
    m01, m11 = params.bform(i, ci), params.kT(ci)
    return Collineation.make(params, (m00, m01, 0, m10, m11, 0, 0, 0, 1), 0)


def test_okp_stabilizer_generator(P5):
    # multiplication by omega generates the order-3 stabilizer
    om = unit_circle(P5).omega()
    phi = collineation_from_k_multiplier(P5, om)
    codes = set(hyperoval_codes(P5, "okeefe_penttila"))
    assert {phi.apply_code(c) for c in codes} == codes
    id_ = Collineation(P5, (1, 0, 0, 0, 1, 0, 0, 0, 1), 0)
    assert phi != id_
    assert phi.compose(phi).compose(phi) == id_
    dec = stabilizer(P5, sorted(codes))
    assert dec.stabilizer_order == 3


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


def other_modulus_cases():
    """Each catalog sweep case at m = 4 and 5 under every irreducible modulus
    but the default one."""
    return [(m, modulus, fam, r) for m in (4, 5)
            for modulus in range(1 << m, 2 << m)
            if gf2m.is_irreducible(modulus, m) and modulus != gf2m.DEFAULT_MODULI[m]
            for mm, fam, r in catalog_sweep_cases() if mm == m]


@pytest.mark.parametrize("m,modulus,fam,r", other_modulus_cases())
def test_search_under_every_modulus(m, modulus, fam, r):
    # the modulus only relabels the field: the stabilizer order, its orbits
    # and the class count are those under the default modulus
    res = classify_bent(gfun.fix_zeros(gfun.g_catalog(field_create(m, modulus), fam, r=r)))
    ref = classify(m, fam, r)
    assert (res.stabilizer_order, res.orbit_sizes, res.class_count) == \
        (ref.stabilizer_order, ref.orbit_sizes, ref.class_count)


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


def test_adelaide_opoly_route_matches_k_model(P4):
    # the trace-expression o-polynomial and the unit-circle form give
    # equivalent hyperovals (at m = 4 both coincide with lunelli-sce)
    tab = opoly.opoly_table(P4, opoly.OPolyFamily("adelaide"))
    a = opoly.dh_points(P4, tab)
    b = hyperoval_codes(P4, "adelaide")
    assert are_equivalent(P4, a, b) is not None
    assert are_equivalent(P4, a, hyperoval_codes(P4, "lunelli_sce")) is not None


def test_subiaco_opoly_route_matches_g_form(P5):
    tab = opoly.opoly_table(P5, opoly.OPolyFamily("subiaco"))
    a = opoly.dh_points(P5, tab)
    b = hyperoval_codes(P5, "subiaco_payne")
    assert are_equivalent(P5, a, b) is not None


# ------------------------------------------------- inequivalence certificates


def seeded_collineation(P, rng, frob):
    while True:
        M = [rng.randrange(P.q) for _ in range(9)]
        if any(M):
            phi = Collineation.make(P, M, frob)
            if phi.det():
                return phi


@pytest.mark.parametrize("m,fam", [(4, "lunelli_sce"), (5, "cherowitzo"),
                                   (5, "okeefe_penttila"), (6, "adelaide")])
def test_point_invariant_under_collineations(m, fam):
    P = field_create(m)
    H = hyperoval_codes(P, fam)
    rng = random.Random(f"invariant:{m}:{fam}")
    for frob in (0, rng.randrange(1, m)):
        phi = seeded_collineation(P, rng, frob)
        image = [phi.apply_code(c) for c in H]
        rng.shuffle(image)
        for c in rng.sample(H, 3):
            assert (equiv.point_invariant(P, H, c)
                    == equiv.point_invariant(P, image, phi.apply_code(c)))


@pytest.mark.parametrize("fam", gfun.CATALOG_FAMILIES)
def test_point_invariant_of_s_is_the_nucleus_invariant_of_its_class(fam):
    # O_s + {0} is H translated by s/g(s), which takes the point s to 0; and
    # the stabilizer's orbit invariant, which classify_bent groups by, is
    # that of the class's nucleus.  Every case of the family with q <= 64
    cases = [c for c in catalog_sweep_cases() + [(3, "glynn1", None), (5, "glynn1", None),
                                                 (3, "glynn2", None), (5, "glynn2", None)]
             if c[1] == fam]
    assert cases
    for m, _, r in cases:
        res, dec = classify(m, fam, r), stab(m, fam, r)
        P, H = res.params, dec.point_codes
        for c, inv in zip(res.classes, dec.invariants, strict=True):
            s = P.q + 1 if c.s_index is None else c.s_index
            assert (equiv.point_invariant(P, H, H[s])
                    == equiv.point_invariant(P, c.oval_h_codes, 0) == inv)


@pytest.mark.parametrize("m,fam,r", catalog_sweep_cases())
def test_point_invariant_is_constant_on_orbits(m, fam, r):
    # and the stabilizer reports that value for each orbit
    dec = stab(m, fam, r)
    P, N = dec.params, len(dec.point_codes)
    LL = equiv._line_logs(P, equiv._coords_of_codes(P, dec.point_codes))
    assert LL.shape == (N, N, N)
    for orbit, inv in zip(dec.orbits, dec.invariants, strict=True):
        assert {equiv._point_invariant(LL, P.q - 1, a)[0] for a in orbit} == {inv}


@pytest.mark.parametrize("m,fam,r", [c for c in catalog_sweep_cases() if c[0] <= 5])
def test_classes_against_marked_searches(m, fam, r):
    # the exhaustive marked search over all pairs, the path the certificates
    # replace, finds no witness for a pair they separate; and the nucleus of
    # each class is fixed by |G| / orbit size collineations, as the point s
    # it comes from is
    res = classify(m, fam, r)
    P = res.params
    inv = [equiv.point_invariant(P, c.oval_h_codes, 0) for c in res.classes]
    for (a, ia), (b, ib) in itertools.combinations(zip(res.classes, inv), 2):
        if ia != ib:
            assert are_equivalent(P, a.oval_h_codes, b.oval_h_codes, marked=(0, 0)) is None
    for c in res.classes:
        fixing = equiv._search(P, c.oval_h_codes, c.oval_h_codes, marked=(0, 0), orbits=True)
        assert fixing.order * c.orbit_size == res.stabilizer_order


def counting_marked_searches(monkeypatch, result=None):
    """The list of (a, b) of every are_equivalent call from now on, which
    returns `result` if given."""
    calls, real = [], equiv.are_equivalent

    def spy(params, a, b, marked=None):
        calls.append((a, b))
        return real(params, a, b, marked) if result is None else result

    monkeypatch.setattr(equiv, "are_equivalent", spy)
    return calls


@pytest.mark.parametrize("m,fam,r,searches", [
    (5, "subiaco_payne", None, 0), (5, "cherowitzo", None, 0),
    (5, "okeefe_penttila", None, 0), (5, "translation", 2, 1),
    (6, "adelaide", None, 0), (6, "subiaco", None, 0), (6, "subiaco2", None, 0),
    (6, "hyperconic", None, 0)])
def test_classify_searches_only_tied_classes(m, fam, r, searches, monkeypatch):
    P = field_create(m)
    g = gfun.g_catalog(P, fam, r=r)
    if not g.is_zero_free():
        g = gfun.fix_zeros(g)
    calls = counting_marked_searches(monkeypatch)
    classify_bent(g)
    assert len(calls) == searches
    for a, b in calls:
        assert equiv.point_invariant(P, a, 0) == equiv.point_invariant(P, b, 0)


def test_classify_raises_on_a_witness_for_tied_classes(P5, monkeypatch):
    g = gfun.fix_zeros(gfun.g_catalog(P5, "translation", r=2))
    counting_marked_searches(monkeypatch, Collineation(P5, (1, 0, 0, 0, 1, 0, 0, 0, 1), 0))
    with pytest.raises(EquivError, match="equivalent"):
        classify_bent(g)


def test_point_invariant_memory_and_errors(P5):
    # the keys stay int16 and the counts go in blocks of rows: well under
    # the peak of a stabilizer search on the same hyperoval
    H = hyperoval_codes(P5, "cherowitzo")
    peaks = []
    for run in (lambda: equiv.point_invariant(P5, H, H[-1]), lambda: stabilizer(P5, H)):
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] < min(peaks[1], 2 << 20)
    with pytest.raises(EquivError):
        equiv.point_invariant(P5, H, next(c for c in range(P5.q) if c not in H))
    with pytest.raises(EquivError):
        equiv.point_invariant(P5, H[:3], H[0])


@pytest.mark.parametrize("fam", ["cherowitzo", "subiaco"])
def test_point_invariant_memory_at_q128(fam):
    # the keys are formed and counted one slab of b at a time: a warm
    # invariant at q = 128 peaks under the 4.4 MB line-log cube it reads
    P = field_create(7)
    H = hyperoval_codes(P, fam)
    LL = equiv._line_logs(P, equiv._coords_of_codes(P, H))
    equiv._point_invariant(LL, P.q - 1, 0)
    tracemalloc.start()
    try:
        equiv._point_invariant(LL, P.q - 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
