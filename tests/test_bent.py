import numpy as np
import pytest

from nihoval import bent, gfun
from nihoval.bent import (BentError, BooleanFn, bent_from_g, dual,
                          dual_lineoval_check, evaluate_trace_form, f_monomial,
                          f_shift, f_translation, f_translation_forms,
                          f_univariate, is_bent, recover_g_values, walsh_naive,
                          walsh_spectrum)
from nihoval.gf2m import field_create, spread_i, unit_circle


@pytest.mark.parametrize("m", [1, 2, 3])
def test_walsh_fast_equals_naive(m):
    P = field_create(m)
    rng = np.random.default_rng(m)
    for _ in range(25):
        f = BooleanFn(P, rng.integers(0, 2, P.q ** 2, dtype=np.uint8))
        fast = walsh_spectrum(f)
        slow = walsh_naive(f)
        assert np.array_equal(fast.values, slow.values)
        assert fast.parseval_ok()


def test_walsh_fast_vs_naive_spot_m4(P4):
    rng = np.random.default_rng(44)
    for _ in range(5):
        f = BooleanFn(P4, rng.integers(0, 2, 256, dtype=np.uint8))
        assert np.array_equal(walsh_spectrum(f).values, walsh_naive(f).values)


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
        for u in unit_circle(P):
            for l1 in range(P.q):
                for l2 in range(P.q):
                    x1 = P.kmul(l1, u.code)
                    x2 = P.kmul(l2, u.code)
                    x3 = P.kmul(l1 ^ l2, u.code)
                    assert f.table[x1] ^ f.table[x2] == f.table[x3]


def test_recover_g_roundtrip(P4):
    g = gfun.g_catalog(P4, "lunelli_sce")
    vals = recover_g_values(bent_from_g(g))
    assert vals is not None and np.array_equal(vals, g.values)
    rng = np.random.default_rng(4)
    f = BooleanFn(P4, rng.integers(0, 2, 256, dtype=np.uint8))
    assert recover_g_values(f) is None


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
    a = spread_i(P4).code
    f = evaluate_trace_form(P4, [(a, P4.q + 1)], mode="abs")
    assert f == f_translation(P4, 1)


def test_f_monomial_closed_form(P3):
    # tr(<i,x>^(1/s) <1,x>^(q-1/s)) equals the table route through g_monomial
    for s in (2, 4):
        f = f_monomial(P3, s)
        g = gfun.g_monomial(P3, s)
        assert f == bent_from_g(g)
        assert is_bent(f)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_univariate_polynomial_matches_table(m):
    P = field_create(m)
    g = gfun.g_catalog(P, "hyperconic")
    oval = [int(v) for v in P.kmul_v(g.S.codes, P.kinv_v(g.values.astype(np.uint32)))]
    poly = f_univariate(P, oval)
    assert poly.evaluate() == bent_from_g(g)
    # Niho exponent shape i(q-1) + 2^j
    for e in poly.exponents():
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
    om = unit_circle(P5).omega().code
    exps = [528, 466, 962, 404, 900, 342, 838]
    for c in (om, P5.kconj(om)):
        f = evaluate_trace_form(P5, [(c, e) for e in exps], mode="abs")
        assert is_bent(f)
    # Niho shape: 2^j part is 1 for all of them
    assert all((e - 1) % 31 == 0 for e in exps)


def test_sec46_trace_forms_bent(P3, P4):
    a4 = spread_i(P4).code
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
    with pytest.raises(BentError):
        evaluate_trace_form(P3, [(2, 3)], mode="rel")  # x^3 is not F-valued


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


def random_terms(P, rng):
    """Seeded sparse (e, c) terms: e = 0, multiples of q^2-1, e past q^2-1,
    Niho exponents and arbitrary ones; zero coefficients included."""
    q, order = P.q, P.q ** 2 - 1
    pool = [0, order, 2 * order, order + 1, 3 * order + 7,
            int(rng.integers(q + 1)) * (q - 1) + (1 << int(rng.integers(P.m)))]
    terms = []
    for _ in range(int(rng.integers(0, 9))):
        e = int(rng.choice(pool)) if rng.random() < 0.4 else int(rng.integers(1, 4 * order))
        terms.append((e, int(rng.integers(q * q))))
    return terms


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_eval_sparse_matches_termwise(m):
    P = field_create(m)
    rng = np.random.default_rng(100 + m)
    for _ in range(40):
        terms = random_terms(P, rng)
        assert np.array_equal(bent._eval_sparse(P, terms), eval_termwise(P, terms)), terms


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_trace_forms_match_termwise(m):
    P = field_create(m)
    rng = np.random.default_rng(200 + m)
    for _ in range(20):
        terms = random_terms(P, rng)
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
