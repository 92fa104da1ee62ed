import json
import math
import random

import numpy as np
import pytest

from nihoval import gf2m
from nihoval.gf2m import (FieldError, exponent_inverse, field_create, niho_power_sums,
                          polar_grid, polar_v, spread_i, unit_circle)
from nihoval.opoly import OPolyError, dickson_inverse5_table


def dickson_recurrence(P, k, x):
    """D_k(x) in K by the linear recurrence D_k = x*D_(k-1) + D_(k-2) (small k only)."""
    if k == 0:
        return 0
    prev, cur = 0, x
    for _ in range(k - 1):
        prev, cur = cur, P.kmul(x, cur) ^ prev
    return cur


def dickson_functional(P, k):
    """D_k on F from D_k(y + 1/y) = y^k + y^-k, over every y in K* with
    y + 1/y in F; y^(q^2-1) = 1 lets k be reduced mod q^2 - 1."""
    y = np.arange(1, P.q * P.q, dtype=np.uint32)
    x = y ^ P.kinv_v(y)
    y, x = y[x < P.q], x[x < P.q]
    yk = P.kpow_v(y, k % (P.q * P.q - 1))
    vals = yk ^ P.kinv_v(yk)
    table = np.full(P.q, P.q, dtype=np.uint32)
    table[x] = vals
    assert np.array_equal(table[x], vals) and np.all(table < P.q)  # well defined on all of F
    return table


def test_field_create_defaults():
    P = field_create(3)
    assert P.q == 8 and P.modulus == 0b1011
    assert len(unit_circle(P)) == 9  # |S| = q+1
    P5 = field_create(5, 0b100101)
    assert P5.q == 32


def test_field_create_rejects_reducible():
    with pytest.raises(FieldError):
        field_create(3, 0b1111)  # (x+1)(x^2+x+1)... reducible
    with pytest.raises(FieldError):
        field_create(0)
    with pytest.raises(FieldError):
        field_create(17)


def gf2_product(a, b):
    """Carry-less product of two GF(2)[x] polynomials as bit masks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a, b = a << 1, b >> 1
    return r


def test_is_irreducible_matches_products():
    # the irreducible polynomials of degree m are those that are no product
    # of two polynomials of degree >= 1
    for m in range(1, 13):
        products = {gf2_product(a, b) for d in range(1, m // 2 + 1)
                    for a in range(1 << d, 2 << d) for b in range(1 << (m - d), 2 << (m - d))}
        for modulus in range(1 << m, 2 << m):
            assert gf2m.is_irreducible(modulus, m) == (modulus not in products)
    # x^6+x^4+x+1 = (x+1)(x^2+x+1)(x^3+x+1): every factor degree divides 6,
    # so x^(2^6) = x modulo it, yet x^(2^d) != x for d = 1, 2, 3
    for modulus, m in ((0x53, 6), (0x65, 6), (0x100f, 12)):
        assert not gf2m.is_irreducible(modulus, m)


def test_nonprimitive_irreducible_modulus_works():
    # x^4+x^3+x^2+x+1 is irreducible but x has order 5; tables must still build
    P = field_create(4, 0b11111)
    for a in range(1, 16):
        assert P.fmul(a, P.finv(a)) == 1
    assert sorted(P.f_exp[:15].tolist()) == list(range(1, 16))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
def test_mul_matches_bitwise_reference(m):
    P = field_create(m)
    rng = random.Random(m)
    for _ in range(200):
        a, b = rng.randrange(P.q), rng.randrange(P.q)
        assert P.fmul(a, b) == gf2m._gf2_mulmod(a, b, P.modulus, m)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_sqrt_and_inverse(m):
    P = field_create(m)
    for a in range(P.q):
        s = P.fsqrt(a)
        assert P.fmul(s, s) == a  # squaring is a bijection in char 2
    assert P.finv(1) == 1
    with pytest.raises(FieldError):
        P.finv(0)


def test_inv_error_and_pow_conventions(P5):
    assert P5.fpow(0, 0) == 1
    assert P5.fpow(0, 7) == 0
    assert P5.fpow(0, P5.q - 2) == 0  # the 0 -> 0 inverse convention
    assert P5.kpow(0, 5) == 0 and P5.kpow(0, 0) == 1


def test_traces_and_norm_examples(P5):
    assert P5.kT(spread_i(P5)) == 1  # T(i) = 1
    assert (P5.kT(0), P5.ktr_abs_v(np.uint32(0)), P5.knorm(0)) == (0, 0, 0)
    for a in range(P5.q):  # conjugation fixes F: T = 0, N = a^2
        assert P5.kT(a) == 0 and P5.knorm(a) == P5.fmul(a, a)


def test_trace_norm_against_definitions(P4):
    q = P4.q
    for x in range(q * q):
        xc = P4.kconj(x)
        assert xc == P4.kpow(x, q)
        assert x ^ xc == P4.kT(x)
        assert P4.kmul(x, xc) == P4.knorm(x)
        assert P4.kconj(xc) == x


def test_conjugation_f_semilinear(P3):
    rng = random.Random(3)
    for _ in range(100):
        lam = rng.randrange(P3.q)
        z = rng.randrange(P3.q ** 2)
        assert P3.kconj(P3.kmul(lam, z)) == P3.kmul(lam, P3.kconj(z))


def test_bilinear_form_properties(P3):
    # exhaustive at m = 3: symmetric, alternating, F-linear in the first slot
    K = range(P3.q ** 2)
    for a in K:
        assert P3.bform(a, a) == 0
    rng = random.Random(0)
    for _ in range(500):
        a, b, c = (rng.randrange(P3.q ** 2) for _ in range(3))
        lam = rng.randrange(P3.q)
        assert P3.bform(a, b) == P3.bform(b, a)
        assert P3.bform(P3.kmul(lam, a) ^ c, b) == \
            P3.fmul(lam, P3.bform(a, b)) ^ P3.bform(c, b)


def test_bilinear_form_examples(P5):
    assert P5.bform(spread_i(P5), 1) == 1  # <i, 1> = T(i) = 1
    for u in unit_circle(P5).codes.tolist():
        assert P5.bform(1, u) == u ^ P5.kconj(u)


def test_unit_circle(P5):
    S = unit_circle(P5)
    assert len(S) == 33 and S.codes[0] == 1
    for u in S.codes.tolist():
        assert P5.knorm(u) == 1
    assert P5.kpow(S.w_code, P5.q + 1) == 1
    # m odd: omega = w^((q+1)/3) with omega^2 + omega + 1 = 0
    om = S.omega()
    assert type(om) is int and P5.kmul(om, om) ^ om ^ 1 == 0
    # norm-1 elements are exactly S
    count = sum(1 for x in range(P5.q ** 2) if P5.knorm(x) == 1)
    assert count == P5.q + 1
    for k, code in enumerate(S.codes):
        # numpy integers are codes as well as ints
        assert S.index(code) == S.index(int(code)) == S.index(S.element(k)) == k
    assert S.index(np.uint16(1)) == 0
    off = [x for x in range(P5.q ** 2) if P5.knorm(x) != 1][:3]
    for bad in off + [np.uint32(off[0]), -1, P5.q ** 2, 1 << 40]:
        with pytest.raises(FieldError):
            S.index(bad)
    with pytest.raises(TypeError):
        S.index(1.0)


@pytest.mark.parametrize("m,modulus", [(1, None), (2, None), (3, None), (4, None),
                                       (5, None), (6, None), (4, 0x1f)])
def test_polar_v_matches_scalar_decomposition(m, modulus):
    P = field_create(m, modulus)
    S = unit_circle(P)
    x = np.arange(1, P.q ** 2, dtype=np.uint32)
    k, l = polar_v(P, x)
    for code, kk, ll in zip(x.tolist(), k, l):
        lam = P.fsqrt(P.knorm(code))  # lambda^2 = x^(q+1) = N(x)
        assert P.f_exp[kk] == lam
        assert S.codes[ll] == P.kmul(code, P.finv(lam))
    grid = polar_grid(P)
    assert grid is polar_grid(P) and not grid.flags.writeable  # one shared grid per field
    assert grid.shape == (P.q - 1, P.q + 1)
    assert np.array_equal(np.sort(grid, axis=None), x)  # every nonzero code once
    assert np.array_equal(grid[k, l], x)
    with pytest.raises(FieldError):
        polar_v(P, [1, 0])


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_niho_power_sums_match_kpow(m):
    P = field_create(m)
    q, order = P.q, P.q ** 2 - 1
    rng = np.random.default_rng(m)
    for _ in range(3):
        O = rng.integers(1, q * q, q + 1).astype(np.uint32)
        expect = [np.bitwise_xor.reduce(P.kpow_v(O, -(t * (q - 1) + 1) % order))
                  for t in range(q + 1)]
        assert np.array_equal(niho_power_sums(P, O), expect)


def polar_gather_power_sums(P, O):
    """The (q+1)^2 terms of niho_power_sums as a 2-D int64 gather."""
    q = P.q
    k, l = polar_v(P, O)
    t = np.arange(q + 1)[:, None]
    cols = (2 * t - 1) * l % (q + 1)
    return np.bitwise_xor.reduce(polar_grid(P)[(q - 1 - k) % (q - 1), cols], axis=1)


@pytest.mark.parametrize("m", range(3, 11))
def test_niho_power_sums_match_polar_gather(m):
    from nihoval import gfun
    P = field_create(m)
    q = P.q
    fams = ["hyperconic"] + (["glynn1"] if m % 2 else ["subiaco"] if m >= 4 else [])
    for fam in fams:
        O = gfun.fix_zeros(gfun.g_catalog(P, fam)).oval_codes_k()
        assert np.array_equal(niho_power_sums(P, O), polar_gather_power_sums(P, O))
    rng = np.random.default_rng(500 + m)
    for _ in range(3):
        O = rng.integers(1, q * q, q + 1).astype(np.uint32)
        assert np.array_equal(niho_power_sums(P, O), polar_gather_power_sums(P, O))


@pytest.mark.parametrize("m,modulus", [(m, None) for m in range(1, 11)] + [(4, 0b11111)])
def test_inverse_table(m, modulus):
    P = field_create(m, modulus)
    q = P.q
    a = np.arange(q, dtype=np.uint32)
    assert P.f_inv.dtype == np.uint32 and P.f_inv[0] == 0
    assert np.all(P.fmul_v(a[1:], P.f_inv[1:]) == 1)
    # the index arithmetic the table replaces
    old = P.f_exp[(q - 1 - P.f_log[a].astype(np.int64)) % (q - 1)]
    assert np.array_equal(P.finv_v(a, zero_to_zero=True), np.where(a == 0, 0, old))
    assert [P.finv(int(x)) for x in a[1:]] == P.f_inv[1:].tolist()
    with pytest.raises(FieldError):
        P.finv_v(a)
    with pytest.raises(FieldError):
        P.finv_v(np.uint32(0))


@pytest.mark.parametrize("m,modulus", [(m, None) for m in range(1, 11)] + [(4, 0b11111)])
def test_k_inverse_gather(m, modulus):
    # every code up to m = 6, a seeded vector (zeros included) beyond
    P = field_create(m, modulus)
    order = P.q * P.q - 1
    x = (np.arange(order + 1, dtype=np.uint32) if m <= 6 else
         np.random.default_rng(m).integers(0, order + 1, 1 << 14).astype(np.uint32))
    x[:3] = 0, 1, order
    got = P.kinv_v(x, zero_to_zero=True)
    # the int64 index arithmetic the gather replaces
    old = P.k_exp[(order - P.k_log[x].astype(np.int64)) % order]
    assert got.dtype == np.uint32
    assert np.array_equal(got, np.where(x == 0, 0, old).astype(np.uint32))
    assert np.all(P.kmul_v(x[x != 0], got[x != 0]) == 1)
    with pytest.raises(FieldError):
        P.kinv_v(x)


def test_unit_circle_m2():
    P = field_create(2)
    assert len(unit_circle(P)) == 5


def test_norm_multiplicative(P5):
    rng = random.Random(5)
    for _ in range(300):
        u, v = rng.randrange(P5.q ** 2), rng.randrange(P5.q ** 2)
        assert P5.knorm(P5.kmul(u, v)) == P5.fmul(P5.knorm(u), P5.knorm(v))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_polar_roundtrip_exhaustive(m):
    P = field_create(m)
    S = unit_circle(P)
    x = np.arange(1, P.q ** 2, dtype=np.uint32)
    k, l = polar_v(P, x)
    for code, lam, u in zip(x.tolist(), P.f_exp[k].tolist(), S.codes[l].tolist()):
        assert lam and P.knorm(u) == 1
        assert P.kmul(lam, u) == code
    with pytest.raises(FieldError):
        polar_v(P, 0)


def test_polar_special_cases(P5):
    a = np.arange(1, P5.q, dtype=np.uint32)
    k, l = polar_v(P5, a)
    assert np.array_equal(P5.f_exp[k], a) and np.all(l == 0)  # F* decomposes as (lambda, 1)
    S = unit_circle(P5)
    k, l = polar_v(P5, S.codes)
    assert np.all(P5.f_exp[k] == 1) and np.array_equal(l, np.arange(P5.q + 1))


def test_spread_i_conventions():
    for m in (1, 3, 5, 7):
        P = field_create(m)
        i = spread_i(P)
        assert type(i) is int and P.kT(i) == 1
        assert P.kpow(i, 3) == 1 and i != 1  # omega for odd m
    for m in (2, 4, 6):
        P = field_create(m)
        i = spread_i(P)
        assert type(i) is int and i == 1 << m and P.kT(i) == 1


def test_dickson_d5_identity(P5):
    # D_5(x) = x + x^3 + x^5 on GF(32)
    for a in range(32):
        assert dickson_recurrence(P5, 5, a) == a ^ P5.fpow(a, 3) ^ P5.fpow(a, 5)


def test_dickson_roundtrip_on_base_field(P5):
    # the D_{1/5} table inverts D_5 on F, where it is a permutation
    inv = dickson_inverse5_table(P5)
    for a in range(32):
        assert dickson_recurrence(P5, 5, int(inv[a])) == a
        assert inv[dickson_recurrence(P5, 5, a)] == a


def test_dickson_is_not_a_permutation_of_k(P5):
    # gcd(5, 2^20-1) = 5: D_5 cannot permute K = GF(2^10), so D_{1/5} is a
    # table on F only; for even m, 5 | q^2-1 and D_5 does not permute F either
    assert math.gcd(5, 2 ** 20 - 1) == 5
    x = np.arange(1024, dtype=np.uint32)
    assert len(np.unique(x ^ P5.kpow_v(x, 3) ^ P5.kpow_v(x, 5))) == 614
    for m in (2, 4, 6):
        with pytest.raises(OPolyError, match="not a permutation"):
            dickson_inverse5_table(field_create(m))


def test_dickson_recurrence_matches_functional():
    # D_5 and D_{1/5} on F against the functional identity, 1/5 taken mod q^2-1
    for m in (3, 5, 7, 9):
        P = field_create(m)
        t = np.arange(P.q, dtype=np.uint32)
        d5 = dickson_functional(P, 5)
        assert np.array_equal(d5, t ^ P.fpow_v(t, 3) ^ P.fpow_v(t, 5))
        if m <= 5:
            assert d5.tolist() == [dickson_recurrence(P, 5, a) for a in range(P.q)]
        inv5 = exponent_inverse(5, P.q * P.q - 1)
        assert np.array_equal(dickson_inverse5_table(P), dickson_functional(P, inv5))


def test_exponent_arith():
    assert exponent_inverse(6, 31) == 26 == (5 * 32 - 4) // 6
    assert exponent_inverse(5, 1023) == 614
    # the closed form -(sum_{j<s} 2^{rj}) for (1-2^r)^{-1} mod q-1, s = r^{-1} mod m
    assert exponent_inverse(1 - 4, 31) == (-(1 + 4 + 16)) % 31 == 10
    for m in (5, 7, 9):
        for r in range(1, m):
            if math.gcd(r, m) != 1:
                continue
            q1 = 2 ** m - 1
            s = exponent_inverse(r, m)
            closed = -sum(1 << (r * j % m) for j in range(s)) % q1
            assert closed == exponent_inverse(1 - 2 ** r, q1)
    with pytest.raises(FieldError):
        exponent_inverse(3, 9)


def test_serialization_roundtrip(P5):
    obj = json.loads(P5.to_json())
    assert obj == {"m": 5, "modulus_bits": P5.modulus, "delta_bits": P5.delta}
    P = gf2m.FieldParams(obj["m"], obj["modulus_bits"])
    assert P == P5 and P.delta == obj["delta_bits"]
    assert P5.k_hex(0x137) == "137"
    assert P5.f_hex(5) == "05"


def test_vector_ops_match_scalar(P5):
    rng = np.random.default_rng(1)
    a = rng.integers(0, P5.q, 200, dtype=np.uint32)
    b = rng.integers(0, P5.q, 200, dtype=np.uint32)
    assert all(int(v) == P5.fmul(int(x), int(y))
               for v, x, y in zip(P5.fmul_v(a, b), a, b))
    x = rng.integers(0, P5.q ** 2, 200, dtype=np.uint32)
    y = rng.integers(0, P5.q ** 2, 200, dtype=np.uint32)
    assert all(int(v) == P5.kmul(int(s), int(t))
               for v, s, t in zip(P5.kmul_v(x, y), x, y))
    assert all(int(v) == P5.kpow(int(s), 77) for v, s in zip(P5.kpow_v(x, 77), x))
    assert all(int(v) == P5.bform(int(s), int(t))
               for v, s, t in zip(P5.bform_v(x, y), x, y))


@pytest.mark.parametrize("m", range(1, 7))
def test_pow_v_matches_scalar(m):
    # every x, with e = 0, negative e, multiples of the order and e past it
    P = field_create(m)
    for scalar, vector, size in ((P.fpow, P.fpow_v, P.q), (P.kpow, P.kpow_v, P.q ** 2)):
        order = size - 1
        x = np.arange(size, dtype=np.uint32)
        for e in (0, 3, -3, order, -2 * order, order + 5):
            got = vector(x, e)
            assert got.dtype == np.uint32
            assert got.tolist() == [scalar(v, e) for v in range(size)], e


def test_field_params_golden():
    from conftest import GOLDEN
    for m in range(1, 8):
        expect = (GOLDEN / f"field_m{m}.json").read_text().strip()
        assert field_create(m).to_json() == expect


@pytest.mark.parametrize("m,modulus", [(m, None) for m in range(1, 6)] + [(4, 0b11111)])
def test_k_generator_is_the_least_generator(m, modulus):
    P = field_create(m, modulus)
    order = P.q * P.q - 1

    def multiplicative_order(c):
        x, n = c, 1
        while x != 1:
            x, n = P.kmul(x, c), n + 1
        return n

    assert P.k_generator() == next(c for c in range(1, P.q * P.q)
                                   if multiplicative_order(c) == order)


def k_tables_scalar(P):
    """K exp/log tables by one scalar multiply per power of the generator."""
    order = P.q * P.q - 1
    g = P.k_generator()
    exp = np.zeros(4 * order + 1, dtype=np.uint32)
    log = np.zeros(order + 1, dtype=np.uint32)
    x = 1
    for k in range(order):
        exp[k] = x
        log[x] = k
        x = P.kmul(x, g)
    assert x == 1
    exp[order:2 * order] = exp[:order]
    log[0] = 2 * order
    return exp, log


@pytest.mark.parametrize("m,modulus", [(m, None) for m in range(1, 9)] + [(4, 0b11111)])
def test_k_tables_match_scalar_loop(m, modulus):
    P = gf2m.FieldParams(m, modulus)
    P.kinv_v(np.ones(1, dtype=np.uint32))  # the first K inverse builds the tables
    exp, log = k_tables_scalar(P)
    assert np.array_equal(P.k_exp, exp)
    assert np.array_equal(P.k_log, log)
