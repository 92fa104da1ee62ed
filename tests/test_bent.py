import tracemalloc

import numpy as np
import pytest

from nihoval import bent, gf2m, gfun
from nihoval.bent import (BentError, BooleanFn, bent_from_g, dual,
                          dual_lineoval_check, evaluate_trace_form, f_shift,
                          f_translation, f_translation_forms, f_univariate, is_bent,
                          recover_g_values, walsh_spectrum)
from nihoval.gf2m import exponent_inverse, field_create, polar_grid, spread_i, unit_circle

# (m, e) with e not a Niho exponent (e >= 1 with e = 2^j mod q-1)
NON_NIHO = [(3, 0), (3, 3), (3, 7), (4, 5), (4, 15), (2, 0), (1, 0), (3, -6)]


def scalar_map(P):
    """phi with tr(<b, x>) = parity(phi[b] & x), built bit by bit from the
    Gram rows: phi[b] is the XOR of rows[i] over the bits i of b."""
    rows = P.dot_rows()
    idx = np.arange(P.q ** 2, dtype=np.int32)
    phi = np.zeros_like(idx)
    for i in range(P.n):
        phi ^= np.where((idx >> i) & 1, np.int32(rows[i]), 0)
    return phi


def walsh_naive(f):
    """Walsh values by the direct O(4^n) sum over tr(<b, x>); small m only."""
    P = f.params
    n2 = P.q ** 2
    phi = scalar_map(P)
    idx = np.arange(n2, dtype=np.int64)
    dots = np.bitwise_count(phi[:, None] & idx[None, :]) & 1
    signs = (1 - 2 * f.table.astype(np.int64))[None, :]
    return ((1 - 2 * dots.astype(np.int64)) * signs).sum(axis=1)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_walsh_fast_equals_naive(m):
    P = field_create(m)
    # tr(<b, x>) is the parity of phi[b] & x, and the transform keeps one
    # read-only table per field, the inverse phi^-1
    phi = scalar_map(P)
    for b in range(P.q ** 2):
        for x in range(P.q ** 2):
            assert P.f_tr[P.bform(b, x)] == bin(int(phi[b]) & x).count("1") % 2
    inv = bent._scalar_index_inverse(P)
    assert inv is bent._scalar_index_inverse(P) and not inv.flags.writeable
    assert np.array_equal(inv[phi], np.arange(P.q ** 2))
    rng = np.random.default_rng(m)
    for _ in range(25):
        f = BooleanFn(P, rng.integers(0, 2, P.q ** 2, dtype=np.uint8))
        fast = walsh_spectrum(f)
        assert np.array_equal(fast.values, walsh_naive(f))
        # Parseval: the squares of the Walsh values sum to (2^n)^2
        assert int((fast.values.astype(np.int64) ** 2).sum()) == (P.q ** 2) ** 2


@pytest.mark.parametrize("m", range(1, 9))
def test_scalar_index_map_matches_bitwise_build(m):
    # the cached table is phi^-1: phi^-1[phi[b]] = b for the bitwise phi
    P = field_create(m)
    inv = bent._scalar_index_inverse(P)
    assert inv.dtype == np.int32 and not inv.flags.writeable
    assert inv is bent._scalar_index_inverse(P)
    assert np.array_equal(inv[scalar_map(P)], np.arange(P.q ** 2))


def walsh_radix2(f):
    """The integer radix-2 butterfly, one stage per pass, then the bitwise
    index map b -> phi[b]."""
    v = 1 - 2 * f.table.astype(np.int32)
    h = 1
    while h < len(v):
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        v = v.reshape(-1)
        h *= 2
    return v[scalar_map(f.params)]


@pytest.mark.parametrize("m", range(1, 11))
def test_walsh_blocked_matches_radix2(m):
    P = field_create(m)
    rng = np.random.default_rng(300 + m)
    for table in [rng.integers(0, 2, P.q ** 2, dtype=np.uint8) for _ in range(2)]:
        f = BooleanFn(P, table)
        assert np.array_equal(walsh_spectrum(f).values, walsh_radix2(f))
    # the constant tables reach |W(0)| = 2^(2m), the largest sum there is
    for c in (0, 1):
        f = BooleanFn(P, np.full(P.q ** 2, c, dtype=np.uint8))
        spec = walsh_spectrum(f).values
        assert np.array_equal(spec, walsh_radix2(f))
        assert spec[0] == (1 - 2 * c) * P.q ** 2 and not np.any(spec[1:])
    f = bent_from_g(gfun.g_catalog(P, "hyperconic"))
    spec = walsh_spectrum(f)
    assert np.array_equal(spec.values, walsh_radix2(f)) and spec.is_bent()


def test_walsh_sum_dtype_boundary():
    # float32 holds every integer up to 2^24 exactly, and no further
    assert bent._sum_dtype(24) is np.float32 and bent._sum_dtype(26) is np.float64
    assert int(np.float32(2 ** 24 - 1)) == 2 ** 24 - 1
    assert int(np.float32(2 ** 24 + 1)) != 2 ** 24 + 1


def test_walsh_products_stay_single_threaded(monkeypatch):
    # each matrix product of the m = 10 transform has at most 2^18
    # multiply-adds, the size OpenBLAS runs on one thread
    P = field_create(10)
    f = bent_from_g(gfun.g_catalog(P, "hyperconic"))
    real, sizes = np.matmul, []

    def spy(a, b, **kwargs):
        sizes.append(a.shape[-2] * a.shape[-1] * b.shape[-1])
        return real(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    assert walsh_spectrum(f).is_bent()
    assert len(sizes) == 4 and max(sizes) <= 1 << 18, sizes


def test_boolean_fn_rejects_non_binary_entries(P3):
    table = np.zeros(64, dtype=np.uint8)
    table[5] = 255
    with pytest.raises(BentError):
        BooleanFn(P3, table)
    with pytest.raises(BentError):
        BooleanFn(P3, np.zeros(64, dtype=np.int64))
    table[5] = 1
    assert BooleanFn(P3, table).table[5] == 1


def test_walsh_fast_vs_naive_spot_m4(P4):
    rng = np.random.default_rng(44)
    for _ in range(5):
        f = BooleanFn(P4, rng.integers(0, 2, 256, dtype=np.uint8))
        assert np.array_equal(walsh_spectrum(f).values, walsh_naive(f))


def test_all_zero_function(P3):
    f = BooleanFn(P3, np.zeros(64, dtype=np.uint8))
    s = walsh_spectrum(f)
    assert s.values[0] == 64 and not np.any(s.values[1:])
    assert not s.is_bent()
    with pytest.raises(BentError):
        dual(f)


def test_hyperconic_bent_all_m(P4):
    f = bent_from_g(gfun.g_catalog(P4, "hyperconic"))
    s = walsh_spectrum(f)
    assert np.all(np.abs(s.values) == 16)
    assert s.summary() == {"min": -16, "max": 16, "is_bent": True}


def test_dual_involution(P3, P4, P5):
    for P, fam in ((P3, "hyperconic"), (P4, "lunelli_sce"), (P5, "segre"),
                   (P5, "cherowitzo")):
        f = bent_from_g(gfun.g_catalog(P, fam))
        assert dual(dual(f)) == f


@pytest.mark.parametrize("m,fam", [(2, "hyperconic"), (3, "hyperconic"),
                                   (5, "subiaco_payne")])
def test_dual_zeros_equal_line_oval_points(m, fam):
    P = field_create(m)
    rep = dual_lineoval_check(gfun.g_catalog(P, fam))
    assert rep.ok
    assert rep.expected_count == P.q * (P.q + 1) // 2


def test_spread_linearity(P3, P4):
    # f restricted to each line uF is F2-linear in lambda, all u, all pairs
    for P in (P3, P4):
        g = gfun.g_catalog(P, "hyperconic")
        f = bent_from_g(g)
        assert f.table[0] == 0
        for u in unit_circle(P).codes.tolist():
            for l1 in range(P.q):
                for l2 in range(P.q):
                    x1 = P.kmul(l1, u)
                    x2 = P.kmul(l2, u)
                    x3 = P.kmul(l1 ^ l2, u)
                    assert f.table[x1] ^ f.table[x2] == f.table[x3]


def test_recover_g_roundtrip(P4):
    g = gfun.g_catalog(P4, "lunelli_sce")
    vals = recover_g_values(bent_from_g(g))
    assert vals is not None and np.array_equal(vals, g.values)
    rng = np.random.default_rng(4)
    f = BooleanFn(P4, rng.integers(0, 2, 256, dtype=np.uint8))
    assert recover_g_values(f) is None


def dual_basis_scan(P):
    """d_j with tr(d_j * 2^k) = [j = k], found by scanning F."""
    return [next(c for c in range(P.q)
                 if all(P.f_tr[P.fmul(c, 1 << k)] == (j == k) for k in range(P.m)))
            for j in range(P.m)]


@pytest.mark.parametrize("m,modulus", [(1, None), (3, None), (4, None), (4, 0b11111),
                                       (8, None)])
def test_trace_dual_basis_cached(m, modulus):
    P = field_create(m, modulus)
    inv = bent._trace_coords_inverse(P)
    assert inv is bent._trace_coords_inverse(P) and not inv.flags.writeable
    # inv inverts c -> sum_k tr(c * 2^k) * 2^k, and the dual basis is inv at 2^j
    for c in range(P.q):
        assert inv[sum(int(P.f_tr[P.fmul(c, 1 << k)]) << k for k in range(m))] == c
    assert inv[1 << np.arange(m)].tolist() == dual_basis_scan(P)


def loop_bent_table(g):
    """f(lambda*u) = tr(lambda*g(u)) filled one line u*F* at a time."""
    P = g.params
    table = np.zeros(P.q ** 2, dtype=np.uint8)
    lam = np.arange(1, P.q, dtype=np.uint32)
    for u, gu in zip(g.S.codes, g.values):
        table[P.kmul_v(lam, u)] = P.f_tr[P.fmul_v(lam, gu)]
    return table


def loop_recover_g_values(f):
    """g read off one line u*F* at a time from f on the basis 2^k * u."""
    P = f.params
    if f.table[0]:
        return None
    duals = dual_basis_scan(P)
    vals = np.zeros(P.q + 1, dtype=np.uint32)
    lam = np.arange(1, P.q, dtype=np.uint32)
    for idx, u in enumerate(unit_circle(P).codes):
        c = 0
        for k in range(P.m):
            if f.table[P.kmul(1 << k, int(u))]:
                c ^= duals[k]
        if not np.array_equal(f.table[P.kmul_v(lam, u)], P.f_tr[P.fmul_v(lam, np.uint32(c))]):
            return None
        vals[idx] = c
    return vals


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_polar_tables_match_line_loops(m):
    P = field_create(m)
    rng = np.random.default_rng(200 + m)
    for _ in range(10):
        g = gfun.GFunction(P, rng.integers(0, P.q, P.q + 1))  # any table, zeros too
        f = bent_from_g(g)
        assert np.array_equal(f.table, loop_bent_table(g))
        assert np.array_equal(recover_g_values(f), loop_recover_g_values(f))
        assert np.array_equal(recover_g_values(f), g.values)
        # f(0) = 1, and (for m > 1, where a line has 3 points) a table that
        # is not linear on one line
        for x in [0] if m == 1 else [0, int(rng.integers(1, P.q ** 2))]:
            bad = f.table.copy()
            bad[x] ^= 1
            bad_f = BooleanFn(P, bad)
            assert recover_g_values(bad_f) is None and loop_recover_g_values(bad_f) is None
    if m > 1:
        f = BooleanFn(P, rng.integers(0, 2, P.q ** 2, dtype=np.uint8))
        assert recover_g_values(f) is loop_recover_g_values(f) is None


@pytest.mark.parametrize("m,rs", [(4, (1, 3)), (5, (1, 2, 3, 4)), (6, (1, 5))])
def test_translation_forms_agree(m, rs):
    P = field_create(m)
    for r in rs:
        piecewise, niho = f_translation_forms(P, r)
        assert piecewise == niho
        assert f_translation(P, r) == bent_from_g(gfun.translation_g(P, r))
        assert is_bent(piecewise)


def test_translation_r1_is_quadratic_form(P4):
    # f_1 = Tr(a x^(q+1)) with T(a) = 1
    a = spread_i(P4)
    f = evaluate_trace_form(P4, [(a, P4.q + 1)], mode="abs")
    assert f == f_translation(P4, 1)


def test_f_monomial_closed_form(P3):
    # tr(<i,x>^(1/s) <1,x>^(q-1/s)) equals the table route through g_monomial
    q = P3.q
    x = np.arange(q * q, dtype=np.uint32)
    a = P3.bform_v(np.uint32(spread_i(P3)), x)  # <i, x>
    b = P3.kT_v(x)  # <1, x>
    for s in (2, 4):
        si = exponent_inverse(s, q - 1)
        f = BooleanFn(P3, P3.f_tr[P3.fmul_v(P3.fpow_v(a, si), P3.fpow_v(b, q - si))])
        assert f == bent_from_g(gfun.g_monomial(P3, s))
        assert is_bent(f)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_univariate_polynomial_matches_table(m):
    P = field_create(m)
    g = gfun.g_catalog(P, "hyperconic")
    oval = [int(v) for v in P.kmul_v(g.S.codes, P.kinv_v(g.values.astype(np.uint32)))]
    poly = f_univariate(P, oval)
    assert poly.evaluate() == bent_from_g(g)
    # Niho exponent shape i(q-1) + 2^j
    for e, _ in poly.terms:
        assert any((e - (1 << j)) % (P.q - 1) == 0 for j in range(P.m))


@pytest.mark.parametrize("m", [3, 4])
def test_f_shift_matches_g_shift_exhaustive(m):
    P = field_create(m)
    for fam in ("hyperconic",) if m == 3 else ("hyperconic", "lunelli_sce"):
        g = gfun.g_catalog(P, fam)
        for sidx in range(P.q + 1):
            fs = f_shift(g, sidx)
            assert fs.evaluate() == bent_from_g(gfun.g_shift(g, sidx))


def test_f_shift_sampled_m5(P5):
    for fam in ("subiaco_payne", "segre", "cherowitzo"):
        g = gfun.g_catalog(P5, fam)
        for sidx in (0, 7, 20):
            fs = f_shift(g, sidx)
            assert fs.evaluate() == bent_from_g(gfun.g_shift(g, sidx))


def test_example_translation_third_class_polynomial(P5):
    # published exponent set for m = 5, r = 2, with omega coefficients
    om = unit_circle(P5).omega()
    exps = [528, 466, 962, 404, 900, 342, 838]
    for c in (om, P5.kconj(om)):
        f = evaluate_trace_form(P5, [(c, e) for e in exps], mode="abs")
        assert is_bent(f)
    # Niho shape: 2^j part is 1 for all of them
    assert all((e - 1) % 31 == 0 for e in exps)


def test_sec46_trace_forms_bent(P3, P4):
    a4 = spread_i(P4)
    cases = [
        (P3, [(1, 36)], "rel"),
        (P3, [(1, 36), (1, 22), (1, 50)], "rel"),
        (P4, [(a4, 136)], "abs"),
        (P4, [(a4, 136), (1, 106), (1, 226), (1, 76)], "abs"),
        (P4, [(a4, 136), (1, 226)], "abs"),
    ]
    for P, terms, mode in cases:
        assert is_bent(evaluate_trace_form(P, terms, mode))


def test_trace_form_rel_requires_base_field_values(P3):
    with pytest.raises(BentError, match="base field"):
        evaluate_trace_form(P3, [(1, 1)], mode="rel")  # x itself is not F-valued


@pytest.mark.parametrize("m,e", NON_NIHO)
def test_trace_form_rejects_non_niho_exponents(m, e):
    P = field_create(m)
    for mode in ("abs", "rel"):
        with pytest.raises(BentError, match="Niho exponent"):
            evaluate_trace_form(P, [(1, e)], mode)
        with pytest.raises(BentError, match="Niho exponent"):
            evaluate_trace_form(P, [(1, 1), (1, e)], mode)


def test_linear_shift_twists_spectrum(P3):
    # adding tr(<c, x>) permutes the spectrum by b -> b + c
    g = gfun.g_catalog(P3, "hyperconic")
    f = bent_from_g(g)
    base = walsh_spectrum(f)
    for c in (1, 9, 33):
        x = np.arange(64, dtype=np.uint32)
        l = P3.f_tr[P3.bform_v(np.uint32(c), x)].astype(np.uint8)
        shifted = walsh_spectrum(BooleanFn(P3, f.table ^ l))
        assert np.array_equal(shifted.values, base.values[x ^ c])
        assert shifted.is_bent() == base.is_bent()


def test_bits_and_spectrum_serialization(P3):
    f = bent_from_g(gfun.g_catalog(P3, "hyperconic"))
    raw = f.to_bits()
    assert len(raw) == 64 // 8
    back = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    assert np.array_equal(back[:64], f.table)
    s = walsh_spectrum(f)
    vals = np.frombuffer(s.to_bytes(), dtype="<i4")
    assert np.array_equal(vals, s.values)


def test_niho_polynomial_json(P3):
    g = gfun.g_catalog(P3, "hyperconic")
    oval = [int(v) for v in P3.kmul_v(g.S.codes, P3.kinv_v(g.values.astype(np.uint32)))]
    poly = f_univariate(P3, oval)
    import json
    obj = json.loads(poly.to_json())
    assert all(set(t) == {"exp", "coeff_hex"} for t in obj)


def test_m1_anchor_function():
    # the single m = 1 class is the function tr(x^3) = tr(N(x))
    P = field_create(1)
    f = evaluate_trace_form(P, [(1, 3)], mode="rel")
    assert is_bent(f)
    assert f == bent_from_g(gfun.g_catalog(P, "hyperconic"))


# ------------------------------------------- oracles for the polar fast paths


def eval_termwise(P, terms):
    """sum c*x^e over all of K, one kpow_v over q^2 points per (e, c) term."""
    x = np.arange(P.q ** 2, dtype=np.uint32)
    acc = np.zeros(P.q ** 2, dtype=np.uint32)
    for e, c in terms:
        acc ^= P.kmul_v(np.uint32(c), P.kpow_v(x, e))
    return acc


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_eval_sparse_matches_termwise(m):
    # the m values per line of a Niho sum y fix y on all of K: y(lambda*u)
    # is the XOR of y(e_k*u) over the bits k of lambda on the power basis
    P = field_create(m)
    rng = np.random.default_rng(100 + m)
    bits = (P.f_exp[:P.q - 1, None] >> np.arange(m)) & 1  # lambda_k on e_k = 2^k
    for _ in range(40):
        terms = random_niho_terms(P, rng)
        vals = bent._line_values(P, terms)
        spread = np.bitwise_xor.reduce(np.where(bits[:, :, None] == 1, vals, 0), axis=1)
        acc = eval_termwise(P, terms)
        assert acc[0] == 0 and np.array_equal(acc[polar_grid(P)], spread), terms


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_trace_forms_match_termwise(m):
    P = field_create(m)
    rng = np.random.default_rng(200 + m)
    for _ in range(20):
        terms = random_niho_terms(P, rng)
        acc = eval_termwise(P, terms)
        cterms = [(c, e) for e, c in terms]
        assert np.array_equal(evaluate_trace_form(P, cterms, "abs").table,
                              P.ktr_abs_v(acc))
        # c x^e + conj(c) x^(qe) = T(c x^e) is F-valued, so "rel" accepts it
        rel = cterms + [(P.kconj(c), e * P.q) for c, e in cterms]
        acc_rel = eval_termwise(P, [(e, c) for c, e in rel])
        assert not np.any(acc_rel >> P.m)
        assert np.array_equal(evaluate_trace_form(P, rel, "rel").table, P.f_tr[acc_rel])
        if np.any(acc >> P.m):
            with pytest.raises(BentError, match="base field"):
                evaluate_trace_form(P, cterms, "rel")
    with pytest.raises(BentError, match="mode"):
        evaluate_trace_form(P, [(1, 3)], "both")


def test_niho_evaluate_rejects_non_boolean(P3):
    with pytest.raises(BentError, match="F_2-valued"):
        bent.NihoPolynomial(P3, ((1, 1),)).evaluate()  # x itself


def f_univariate_termwise(P, oval):
    """The coefficient sum of every (i, j) by its own kpow_v over the oval."""
    O = np.asarray(oval, dtype=np.uint32)
    q, order = P.q, P.q ** 2 - 1
    terms = []
    for i in range(q + 1):
        for j in range(P.m):
            e = i * (q - 1) + (1 << j)
            c = int(np.bitwise_xor.reduce(P.kpow_v(O, -e % order)))
            if c:
                terms.append((e, c))
    return tuple(sorted(terms))


@pytest.mark.parametrize("m,fam", [(1, "hyperconic"), (4, "lunelli_sce"),
                                   (5, "cherowitzo"), (6, "subiaco2")])
def test_f_univariate_matches_termwise_on_shifted_ovals(m, fam):
    P = field_create(m)
    g = gfun.fix_zeros(gfun.g_catalog(P, fam))
    for sidx in sorted({0, 1, P.q // 2, P.q}):
        oval = gfun.shifted_oval_codes(g, sidx)
        assert f_univariate(P, oval).terms == f_univariate_termwise(P, oval)


# ----------------------------- Niho polynomials: spread lines vs termwise


def assert_evaluate_matches_termwise(poly):
    """evaluate() raises exactly when sum c*x^e leaves F_2 somewhere, and
    otherwise agrees with the termwise value table."""
    acc = eval_termwise(poly.params, poly.terms)
    if np.any(acc > 1):
        with pytest.raises(BentError, match="F_2-valued"):
            poly.evaluate()
        return False
    assert np.array_equal(poly.evaluate().table, acc.astype(np.uint8))
    return True


def niho_catalog_cases():
    """Every catalog family at m <= 6, and the m = 4 families under the
    non-primitive modulus x^4+x^3+x^2+x+1."""
    from test_geometry import catalog_cases
    cases = [(m, None, fam, r) for m, fam, r in catalog_cases()]
    cases += [(4, 0b11111, fam, r) for fam, r in (("hyperconic", None), ("translation", 1),
                                                  ("translation", 3), ("lunelli_sce", None),
                                                  ("subiaco", None), ("adelaide", None))]
    return cases


@pytest.mark.parametrize("m,modulus,fam,r", niho_catalog_cases())
def test_niho_evaluate_matches_eval_sparse_on_catalog(m, modulus, fam, r):
    P = field_create(m, modulus)
    g = gfun.fix_zeros(gfun.g_catalog(P, fam, r=r))
    oval = P.kmul_v(g.S.codes, P.kinv_v(g.values))
    assert assert_evaluate_matches_termwise(f_univariate(P, oval))
    for sidx in sorted({0, 1, P.q // 2, P.q}):
        assert assert_evaluate_matches_termwise(f_shift(g, sidx))


def random_niho_terms(P, rng):
    """Seeded (e, c) terms with Niho exponents i(q-1) + 2^j (i up to 3(q+1),
    so past q^2-1); half of them made F_2-valued as absolute traces
    Tr(c*x^e) = sum_i c^(2^i) x^(2^i e), and some of those with one
    coefficient changed."""
    q, order = P.q, P.q ** 2 - 1
    terms = []
    for _ in range(int(rng.integers(1, 5))):
        e = int(rng.integers(3 * (q + 1))) * (q - 1) + (1 << int(rng.integers(P.m)))
        c = int(rng.integers(q * q))
        if rng.random() < 0.5:
            terms.append((e, c))
            continue
        for _ in range(2 * P.m):
            terms.append((e % order or order, c))
            e, c = 2 * e, P.kmul(c, c)
    if terms and rng.random() < 0.2:
        k = int(rng.integers(len(terms)))
        terms[k] = (terms[k][0], terms[k][1] ^ int(rng.integers(1, q * q)))
    return tuple(sorted(terms))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_niho_evaluate_matches_eval_sparse_on_random_polynomials(m):
    P = field_create(m)
    rng = np.random.default_rng(400 + m)
    outcomes = [assert_evaluate_matches_termwise(bent.NihoPolynomial(P, random_niho_terms(P, rng)))
                for _ in range(60)]
    assert any(outcomes) and (m == 1 or not all(outcomes))


@pytest.mark.parametrize("m,e", NON_NIHO)
def test_niho_evaluate_rejects_non_niho_exponents(m, e):
    P = field_create(m)
    # x^0 = 1 is F_2-valued, yet evaluate takes only Niho exponents
    with pytest.raises(BentError, match="Niho exponent"):
        bent.NihoPolynomial(P, ((e, 1),)).evaluate()
    with pytest.raises(BentError, match="Niho exponent"):
        bent.NihoPolynomial(P, ((1, 1), (e, 1))).evaluate()


@pytest.mark.parametrize("m", range(2, 11))
def test_line_traces_match_table_arithmetic(m):
    P = field_create(m)
    rng = np.random.default_rng(600 + m)
    k = np.arange(P.q - 1, dtype=np.uint32)[:, None]
    for _ in range(3):
        c = rng.integers(0, P.q, P.q + 1).astype(np.uint32)
        c[rng.integers(P.q + 1, size=2)] = 0
        expect = P.f_tr[P.f_exp[k + P.f_log[c]]]  # the gathers the windows replace
        assert np.array_equal(bent._line_traces(P, c), expect)
    windows = gf2m.trace_windows(P)
    assert windows is gf2m.trace_windows(P) and not windows.flags.writeable
    assert windows.shape == (2 * P.q - 1, P.q - 1) and not windows[P.f_log[0]].any()


def every_modulus_catalog_cases():
    """Each catalog g at m = 4 and 5, under every irreducible modulus."""
    from test_geometry import catalog_cases
    return [(m, modulus, fam, r) for m in (4, 5)
            for modulus in range(1 << m, 2 << m) if gf2m.is_irreducible(modulus, m)
            for mm, fam, r in catalog_cases() if mm == m]


@pytest.mark.parametrize("m,modulus,fam,r", every_modulus_catalog_cases())
def test_catalog_g_under_every_modulus(m, modulus, fam, r):
    P = field_create(m, modulus)
    g = gfun.g_catalog(P, fam, r=r)
    assert gfun.validate_g(g).valid
    gz = gfun.fix_zeros(g)
    assert f_univariate(P, gz.oval_codes_k()).evaluate() == bent_from_g(gz)


def test_construction_kernel_memory_m10():
    P = field_create(10)
    g = gfun.fix_zeros(gfun.g_catalog(P, "subiaco"))
    O = g.oval_codes_k()
    peaks = {}
    f = bent_from_g(g)
    for name, run in (("power_sums", lambda: gf2m.niho_power_sums(P, O)),
                      ("bent_from_g", lambda: bent_from_g(g)),
                      ("walsh_spectrum", lambda: walsh_spectrum(f))):
        run()  # per-field tables are built once, outside the measurement
        tracemalloc.start()
        try:
            run()
            peaks[name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()
    assert peaks["power_sums"] < 10 and peaks["bent_from_g"] < 4, peaks
    # the 1-byte gather, two float32 buffers and the int32 spectrum
    assert peaks["walsh_spectrum"] < 10, peaks
