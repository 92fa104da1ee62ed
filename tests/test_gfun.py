import re

import numpy as np
import pytest

from nihoval import bent, geometry as geo, gfun, opoly
from nihoval.gf2m import field_create, spread_i, unit_circle
from nihoval.gfun import (GFunError, GFunction, fix_zeros, g_catalog, g_from_opoly,
                          g_from_oval, g_monomial, g_series, g_shift,
                          linear_shift_difference, validate_g)
from nihoval.reference import TABLE1, TABLE2
from conftest import GOLDEN
import point_oracle
from test_acceptance import catalog_sweep_cases

CATALOG_CASES = [
    (1, "hyperconic", None), (2, "hyperconic", None), (3, "hyperconic", None),
    (3, "translation", 2), (4, "hyperconic", None), (4, "translation", 3),
    (4, "subiaco", None), (4, "lunelli_sce", None), (4, "adelaide", None),
    (5, "hyperconic", None), (5, "translation", 2), (5, "translation", 3),
    (5, "segre", None), (5, "payne", None), (5, "subiaco_payne", None),
    (5, "cherowitzo", None), (5, "okeefe_penttila", None), (5, "subiaco", None),
    (6, "hyperconic", None), (6, "translation", 5), (6, "subiaco", None),
    (6, "subiaco2", None), (6, "adelaide", None),
]


@pytest.mark.parametrize("m,fam,r", CATALOG_CASES)
def test_catalog_is_valid(m, fam, r):
    P = field_create(m)
    g = g_catalog(P, fam, r=r)
    v = validate_g(g)
    assert v.consistent and v.valid


# (family, m, g_catalog keywords, message): every GFunError domain error of g_catalog
CATALOG_ERRORS = [
    ("translation", 5, {}, "translation needs r"),
    ("translation", 5, {"r": 5}, "need 1 <= r < m"),
    ("segre", 3, {}, "segre needs odd m >= 5"),
    ("segre", 4, {}, "segre needs odd m >= 5"),
    ("payne", 3, {}, "payne needs odd m >= 5"),
    ("payne", 4, {}, "payne needs odd m >= 5"),
    ("cherowitzo", 3, {}, "cherowitzo needs odd m >= 5"),
    ("cherowitzo", 4, {}, "cherowitzo needs odd m >= 5"),
    ("subiaco_payne", 7, {}, "the published subiaco/payne table is for m = 5"),
    ("okeefe_penttila", 7, {}, "okeefe_penttila lives at m = 5"),
    ("subiaco", 3, {}, "subiaco needs m >= 4 (lunelli_sce: m = 4)"),
    ("lunelli_sce", 5, {}, "lunelli_sce needs m >= 4 (lunelli_sce: m = 4)"),
    ("subiaco2", 5, {}, "subiaco2 needs m = 2 mod 4"),
    ("adelaide", 5, {}, "adelaide needs even m >= 4"),
    ("glynn1", 4, {}, "glynn1 needs odd m"),
    ("glynn1", 6, {}, "glynn1 needs odd m"),
    ("glynn2", 4, {}, "glynn2 needs odd m"),
    ("glynn2", 6, {}, "glynn2 needs odd m"),
    ("nosuch", 5, {}, "unknown catalog family 'nosuch'"),
]


@pytest.mark.parametrize(
    "family,m,kw,message", CATALOG_ERRORS,
    ids=[f"{family}-m{m}" + "".join(f"-{k}{v}" for k, v in kw.items())
         for family, m, kw, _ in CATALOG_ERRORS])
def test_catalog_rejects_bad_m(family, m, kw, message):
    with pytest.raises(GFunError, match=f"^{re.escape(message)}$"):
        g_catalog(field_create(m), family, **kw)


def test_g_values_stay_in_f(P5):
    g = g_catalog(P5, "segre")
    assert np.all(g.values < P5.q)
    with pytest.raises(GFunError):
        GFunction(P5, np.full(P5.q + 1, P5.q, dtype=np.uint32))


def test_g_from_opoly_examples(P3, P5):
    # g(1) = 1 for every family through the from-o-polynomial route
    for P, fam in ((P3, "hyperconic"), (P5, "segre"), (P5, "payne")):
        h = opoly.opoly_table(P, opoly.OPolyFamily(fam))
        g = g_from_opoly(P, h)
        assert g.values[0] == 1
        assert validate_g(g).valid
    # hyperconic: the route equals <i^(1/2), u> + 1 plus the shift <i, u>
    i = spread_i(P3)
    S = unit_circle(P3).codes
    g = g_from_opoly(P3, opoly.opoly_table(P3, opoly.OPolyFamily("hyperconic")))
    closed = gfun.hyperconic_g_squared_route(P3)
    assert np.array_equal(g.values, closed.values ^ P3.bform_v(np.uint32(i), S))


def test_g_from_opoly_rejects_non_opoly(P4):
    x = np.arange(16, dtype=np.uint32)
    with pytest.raises(GFunError):
        g_from_opoly(P4, P4.fpow_v(x, 3))


def test_monomial_matches_opoly_route_up_to_boundary(P3):
    # s = 2: pointwise equal off u = 1 (g(1): route pins 1, monomial gives 0 + <i,1>)
    g1 = g_monomial(P3, 2)
    g2 = g_from_opoly(P3, opoly.opoly_table(P3, opoly.OPolyFamily("hyperconic")))
    i = spread_i(P3)
    shift = P3.bform_v(np.uint32(i), unit_circle(P3).codes)
    assert np.array_equal(g2.values, g1.values ^ shift)


def test_monomial_closed_forms(P5):
    # Segre class forms: s = 6 and the Dickson branch; all validate
    for k in range(4):
        g = gfun.segre_class_g(P5, k)
        assert validate_g(g).valid
    g0 = gfun.segre_class_g(P5, 0)
    i6 = 26
    S = unit_circle(P5).codes
    om = unit_circle(P5).omega()
    a = P5.bform_v(np.uint32(om), S)
    b = P5.kT_v(S)
    expect = P5.fmul_v(P5.fpow_v(a, i6), P5.fpow_v(b, 5 * i6 % 31))
    assert np.array_equal(g0.values, expect)


# segre_class_g(P, 3) in unit-circle order, computed by evaluating D_{1/5}
# through the functional identity in K or its quadratic extension
SEGRE_CLASS3 = {
    5: [
        0, 23, 19, 15, 7, 8, 26, 29, 10, 9, 6, 1, 18, 20, 19, 11, 28, 14, 17, 22,
        14, 3, 0, 10, 5, 21, 30, 31, 25, 8, 12, 24, 30],
    7: [
        0, 69, 93, 8, 127, 9, 56, 3, 11, 109, 64, 53, 96, 112, 93, 13, 93, 69, 22,
        116, 97, 69, 92, 62, 50, 92, 93, 27, 17, 113, 16, 74, 113, 74, 23, 61, 89,
        24, 96, 95, 120, 119, 105, 1, 85, 57, 32, 107, 62, 62, 69, 51, 42, 120, 11,
        70, 11, 39, 68, 79, 103, 19, 37, 36, 11, 127, 100, 36, 127, 6, 126, 127, 2,
        7, 8, 67, 44, 55, 93, 54, 63, 26, 68, 74, 127, 54, 0, 113, 10, 121, 43, 110,
        36, 18, 112, 113, 66, 55, 75, 81, 10, 55, 55, 126, 11, 120, 72, 15, 101, 96,
        64, 41, 21, 69, 4, 5, 43, 94, 42, 65, 20, 43, 43, 64, 8, 55, 104, 113, 43],
}


@pytest.mark.parametrize("m", [5, 7])
def test_segre_class3_values(m):
    g = gfun.segre_class_g(field_create(m), 3)
    assert g.values.tolist() == SEGRE_CLASS3[m] and validate_g(g).valid


def test_glynn_monomial_forms_m7():
    P = field_create(7)
    for fam in ("glynn1", "glynn2"):
        g = g_catalog(P, fam)
        # validity via the geometric conditions (bentness checked in test_bent)
        assert geo.no_three_collinear(P, g.hyperoval_codes_h())


def test_translation_g_closed_forms(P5):
    # Example tables: g_2 = 1 + u^16 + conj, g_3 = 1 + u^8 + u^9 + u^16 + conj
    assert np.array_equal(gfun.translation_g(P5, 2).values,
                          g_series(P5, 1, [(1, 16)]).values)
    assert np.array_equal(gfun.translation_g(P5, 3).values,
                          g_series(P5, 1, [(1, 8), (1, 9), (1, 16)]).values)
    # g_{m-1} = 1/(u + conj u) + u + conj u
    for m in (3, 4, 5):
        P = field_create(m)
        S = unit_circle(P).codes
        t = P.kT_v(S)
        expect = P.finv_v(t, zero_to_zero=True) ^ t
        expect[0] = 1
        assert np.array_equal(gfun.translation_g(P, m - 1).values, expect)


def test_translation_third_class_series(P5):
    # the monomial form for s = 1-2^r matches the published series for one
    # of the two cube roots, up to a linear shift
    om = unit_circle(P5).omega()
    gm = g_monomial(P5, 1 - 4)
    hits = []
    for c in (om, P5.kconj(om)):
        gp = g_series(P5, 1, [(c, 4), (c, 5), (c, 8), (c, 9), (c, 12), (c, 13)])
        hits.append(linear_shift_difference(gm, gp) is not None)
    assert any(hits)


def test_g_from_oval_roundtrip(P3, P4, P5):
    for P, fam in ((P3, "hyperconic"), (P4, "lunelli_sce"), (P5, "segre"),
                   (P5, "subiaco_payne"), (P5, "okeefe_penttila")):
        g = g_catalog(P, fam)
        if not g.is_zero_free():
            g = fix_zeros(g)
        oval = P.kmul_v(g.S.codes, P.kinv_v(g.values.astype(np.uint32)))
        assert np.array_equal(g.oval_codes_k(), oval)
        back = g_from_oval(P, oval)
        assert np.array_equal(back.values, g.values)


def test_g_from_oval_unit_circle(P4):
    # O = S means g = 1
    S = unit_circle(P4).codes
    g = g_from_oval(P4, S)
    assert np.all(g.values == 1)


def test_g_from_oval_rejects_zero(P3):
    S = unit_circle(P3).codes.copy()
    bad = S.copy()
    bad[3] = 0
    with pytest.raises(GFunError):
        g_from_oval(P3, bad)


_SERIES = {}  # (params, oval bytes) -> table: two tests sum the same shifts


def series_g_from_oval(P, O):
    """The oval -> g series term by term, one kpow_v per exponent: the
    coefficient of u^{i+1} is sum_{v in O} v^{(q-1)i/2-1}."""
    O = np.asarray(O, dtype=np.uint32)
    if len(O) != P.q + 1 or np.any(O == 0):
        raise GFunError("need q+1 nonzero oval points")
    key = (P, O.tobytes())
    if key in _SERIES:
        return _SERIES[key].copy()
    q, order = P.q, P.q ** 2 - 1
    inv2 = pow(2, P.n - 1, order)
    S = unit_circle(P).codes
    acc = np.zeros(q + 1, dtype=np.uint32)
    for i in range(q + 1):
        c = np.bitwise_xor.reduce(P.kpow_v(O, ((q - 1) * i * inv2 - 1) % order))
        acc ^= P.kmul_v(np.uint32(c), P.kpow_v(S, i + 1))
    if np.any(acc >> P.m):
        raise GFunError("power series values left the base field")
    _SERIES[key] = acc
    return acc.copy()


def test_g_from_oval_matches_term_series():
    # every nucleus shift of every catalog case with m <= 6
    shifts = 0
    for m, fam, r in catalog_sweep_cases():
        P = field_create(m)
        g = fix_zeros(g_catalog(P, fam, r=r))
        for sidx in range(P.q + 1):
            oval = gfun.shifted_oval_codes(g, sidx)
            assert np.array_equal(g_from_oval(P, oval).values, series_g_from_oval(P, oval))
            shifts += 1
    assert shifts > 800


def test_g_from_oval_error_paths_match_term_series(P3, P4):
    S = unit_circle(P3).codes
    for bad in (np.append(S[:-1], 0), S[:-1]):  # a zero point, the wrong length
        for route in (g_from_oval, series_g_from_oval):
            with pytest.raises(GFunError):
                route(P3, bad)
    # random point sets (two points on some line through 0) are rejected
    rng = np.random.default_rng(34)
    for P in (P3, P4):
        for _ in range(20):
            O = rng.integers(1, P.q ** 2, P.q + 1).astype(np.uint32)
            assert not geo.no_three_collinear(P, geo.k_codes_to_h_codes(P, O, 1).tolist())
            with pytest.raises(GFunError, match="one on each line"):
                g_from_oval(P, O)


@pytest.mark.parametrize("code", [8 * 8 + 5, -3])
def test_g_from_oval_rejects_codes_outside_k(P3, code):
    # as a list and as an int64 array: no IndexError, no wrap through uint32
    S = unit_circle(P3).codes
    for bad in (S.tolist(), S.astype(np.int64)):
        bad[2] = code
        with pytest.raises(GFunError, match=r"K codes in 0\.\.63"):
            g_from_oval(P3, bad)


def test_g_shift_is_g_from_oval_of_the_shifted_oval(P3, P4, P5):
    # g_s is the g of O_s: it equals the term series on every nucleus shift
    # of every catalog case with m <= 6, and it raises GFunError on a g with
    # zeros, an s off the circle, and a zero-free g that is not valid,
    # exactly where some O_s meets a line through 0 twice (decided point by
    # point, as pointset_g does)
    for m, fam, r in catalog_sweep_cases():
        P = field_create(m)
        g = fix_zeros(g_catalog(P, fam, r=r))
        rows = gfun.g_shift_tables(g, np.arange(P.q + 1))
        for sidx in range(P.q + 1):
            gs = g_shift(g, sidx)
            assert np.array_equal(gs.values,
                                  series_g_from_oval(P, gfun.shifted_oval_codes(g, sidx)))
            assert gs.provenance == f"{g.provenance}|shift(s_index={sidx})"
            assert np.array_equal(rows[sidx], gs.values)
    zeros = g_catalog(P5, "subiaco")
    rng = np.random.default_rng(21)
    for g, sidx in ((zeros, 0), (g_catalog(P4, "hyperconic"), -1),
                    (g_catalog(P4, "hyperconic"), P4.q + 1),
                    (g_catalog(P4, "hyperconic"), 1 << 70)):
        for route in (lambda: g_shift(g, sidx),
                      lambda: g_from_oval(g.params, gfun.shifted_oval_codes(g, sidx))):
            with pytest.raises(GFunError):
                route()
    raised = 0
    for P in (P3, P4):
        for _ in range(10):
            g = GFunction(P, rng.integers(1, P.q, P.q + 1))
            assert not validate_g(g).valid
            for sidx in range(P.q + 1):
                oval = gfun.shifted_oval_codes(g, sidx)
                want = pointset_g(P, oval)
                if want is None:
                    with pytest.raises(GFunError, match="one on each line"):
                        g_shift(g, sidx)
                    raised += 1
                else:
                    assert np.array_equal(g_shift(g, sidx).values, want)
                    assert np.array_equal(want, series_g_from_oval(P, oval))
    assert raised > 100


def pointset_g(P, codes):
    """g(u) = 1/lambda at each nonzero point lambda*u, decomposed one by one;
    None unless the nonzero points lie one on each line through 0."""
    S = unit_circle(P)
    vals = {}
    for c in codes:
        if c:
            lam = P.fsqrt(P.knorm(c))
            idx = S.index(P.kmul(c, P.finv(lam)))
            if idx in vals:  # a second point in this spread direction
                return None
            vals[idx] = P.finv(lam)
    if len(vals) != P.q + 1:
        return None
    return np.array([vals[k] for k in range(P.q + 1)], dtype=np.uint32)


@pytest.mark.parametrize("m", [5, 7, 9])
def test_payne_matches_pointset_decomposition(m):
    P = field_create(m)
    g = g_catalog(P, "payne")
    assert np.array_equal(g.values, pointset_g(P, gfun.payne_pointset_codes(P)))


@pytest.mark.parametrize("fam,m", [("glynn1", 7), ("glynn2", 7), ("cherowitzo", 9),
                                   ("adelaide", 10)])
def test_g_from_oval_roundtrip_at_large_m(fam, m):
    # the read-off at the m of the large constructions, against the scalar
    # decomposition of the same oval
    P = field_create(m)
    g = fix_zeros(g_catalog(P, fam))
    oval = g.oval_codes_k()
    assert g_from_oval(P, oval) == g
    assert np.array_equal(pointset_g(P, oval), g.values)


def test_hyperoval_codes_h_matches_scalar_route():
    with_zeros = 0
    for m, fam, r in catalog_sweep_cases():
        g = g_catalog(field_create(m), fam, r=r)
        with_zeros += not g.is_zero_free()
        for h in (g, fix_zeros(g)):
            assert h.hyperoval_codes_h() == point_oracle.hyperoval_codes(h)
    assert with_zeros >= 4


def test_g_shift_dual_route(P3, P4, P5):
    # defining property: the oval {u/g_s(u)} of g_s is O_s as a set
    for P, fam in ((P3, "hyperconic"), (P4, "hyperconic"), (P4, "lunelli_sce"),
                   (P5, "subiaco_payne")):
        g = g_catalog(P, fam)
        for sidx in range(0, P.q + 1, 3):
            gs = g_shift(g, sidx)
            assert validate_g(gs).valid
            oval = gfun.shifted_oval_codes(g, sidx)
            assert len(set(oval)) == P.q + 1
            assert set(gs.oval_codes_k().tolist()) == set(oval)


def test_g_shift_requires_zero_free(P5):
    g = g_catalog(P5, "subiaco")  # has zeros at m = 5
    assert not g.is_zero_free()
    with pytest.raises(GFunError):
        g_shift(g, 0)
    with pytest.raises(GFunError):
        g.oval_codes_k()
    with pytest.raises(bent.BentError):
        bent.f_shift(g, 0)
    gz = fix_zeros(g)
    assert gz.is_zero_free()
    assert validate_g(gz).valid


def test_fix_zeros_identity_when_clean(P4):
    g = g_catalog(P4, "hyperconic")
    assert fix_zeros(g) is g


def test_fix_zeros_translation_zero_locations(P5):
    # m odd, r even: zeros at w^{+-(q+1)/3}; after + u + conj u they vanish
    S = unit_circle(P5)
    wq13 = {int(S.codes[11]), int(S.codes[22])}
    g2 = gfun.translation_g(P5, 2)
    zeros = {int(S.codes[k]) for k in np.flatnonzero(g2.values == 0)}
    assert zeros == wq13
    fixed = fix_zeros(g2)
    assert fixed.is_zero_free()
    # m odd, r odd: g_r itself is zero-free but g_r + u + conj u has the zeros
    g3 = gfun.translation_g(P5, 3)
    assert g3.is_zero_free()
    shifted = g3.values ^ P5.kT_v(S.codes)
    bad = {int(S.codes[k]) for k in np.flatnonzero(shifted == 0)}
    assert bad == wq13


def first_clearing_shift(g):
    """(values, provenance) for the first c clearing g's zeros, by brute force
    over 0, i*lambda (lambda = 1..q-1), then the rest of K ascending."""
    P = g.params
    i = spread_i(P)
    order = [0] + [P.kmul(i, lam) for lam in range(1, P.q)]
    order += [c for c in range(P.q ** 2) if c not in order]
    for c in order:
        vals = g.values ^ np.array([P.bform(c, int(u)) for u in g.S.codes], dtype=np.uint32)
        if not np.any(vals == 0):
            return vals, g.provenance + (f"|+<{P.k_hex(c)},u>" if c else "")
    return None


@pytest.mark.parametrize("m", [4, 5])
def test_fix_zeros_matches_brute_force(m):
    # every catalog g with zeros, and seeded g + <c,u> of every catalog g
    P = field_create(m)
    rng = np.random.default_rng(m)
    cases = []
    for fam in gfun.CATALOG_FAMILIES:
        for r in (range(1, m) if fam == "translation" else [None]):
            try:
                g = g_catalog(P, fam, r=r)
            except (GFunError, opoly.OPolyError):
                continue
            cases.append(g)
            for c in rng.integers(1, P.q ** 2, 3):
                vals = g.values ^ P.bform_v(np.uint32(c), g.S.codes)
                cases.append(GFunction(P, vals, f"{g.provenance}|seed+<{int(c)}>"))
    with_zeros = [g for g in cases if not g.is_zero_free()]
    assert len(with_zeros) >= 5
    for g in with_zeros:
        fixed = fix_zeros(g)
        vals, prov = first_clearing_shift(g)
        assert np.array_equal(fixed.values, vals)
        assert fixed.provenance == prov


def test_validate_g_negative_and_consistency(P3):
    zero = GFunction(P3, np.zeros(P3.q + 1, dtype=np.uint32))
    v = validate_g(zero)
    assert not v.line_oval and not v.oval_nucleus_origin and not v.bent
    assert v.consistent
    rng = np.random.default_rng(42)
    for _ in range(50):
        g = GFunction(P3, rng.integers(0, P3.q, P3.q + 1, dtype=np.uint32))
        v = validate_g(g)
        assert v.consistent  # the three validity conditions always agree


def test_linear_shift_preserves_validity_and_class(P3):
    g = g_catalog(P3, "hyperconic")
    from nihoval import equiv
    base = g.hyperoval_codes_h()
    for c in (1, 5, 17, 40):
        shifted = GFunction(P3, g.values ^ P3.bform_v(np.uint32(c), g.S.codes))
        assert validate_g(shifted).valid
        other = shifted.hyperoval_codes_h()
        assert equiv.are_equivalent(P3, base, other, marked=(0, 0)) is not None


def test_linear_shift_difference(P4):
    g = g_catalog(P4, "lunelli_sce")
    shifted = GFunction(P4, g.values ^ P4.bform_v(np.uint32(9), g.S.codes))
    assert linear_shift_difference(g, shifted) == 9
    other = GFunction(P4, g.values ^ 1)  # constant shift is not <c, u>
    assert linear_shift_difference(g, other) is None


def scan_shift_difference(g1, g2):
    """The least c with g1 + g2 = <c, u>, by trying every c in K."""
    P = g1.params
    d = g1.values ^ g2.values
    for c in range(P.q ** 2):
        if np.array_equal(P.bform_v(np.uint32(c), g1.S.codes), d):
            return c
    return None


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_linear_shift_difference_matches_scan(m):
    P = field_create(m)
    S = unit_circle(P).codes
    rng = np.random.default_rng(100 + m)
    found = 0
    for n in range(40):
        g1 = GFunction(P, rng.integers(0, P.q, P.q + 1))
        if n % 4 == 0:  # not a linear shift: a random table
            vals = rng.integers(0, P.q, P.q + 1)
        elif n % 4 == 1:  # not a linear shift: a nonzero constant
            vals = g1.values ^ int(rng.integers(1, P.q))
        else:
            vals = g1.values ^ P.bform_v(np.uint32(rng.integers(0, P.q ** 2)), S)
        g2 = GFunction(P, vals)
        c = linear_shift_difference(g1, g2)
        assert c == scan_shift_difference(g1, g2)
        found += c is not None
    assert found >= 20


def test_okp_epsilon(P5):
    eps = gfun.okp_epsilon(P5)
    acc = 1
    total = 0
    for e in (10, 6, 5, 3, 2, 1, 0):
        total ^= P5.kpow(eps, e)
    assert total == 0


def test_serialize_csv_golden(P5, P6):
    for fam, r, _ in TABLE1:
        g = g_catalog(P5, fam, r=r)
        expect = (GOLDEN / f"table1_{fam}.csv").read_text()
        assert g.serialize_csv() == expect
    for fam, _, _ in TABLE2:
        g = g_catalog(P6, fam)
        expect = (GOLDEN / f"table2_{fam}.csv").read_text()
        assert g.serialize_csv() == expect
