import math
import random

import numpy as np
import pytest

from nihoval import gf2m
from nihoval.gf2m import (ExtElement, FieldElement, FieldError, bilinear_form,
                          dickson_eval, dickson_eval_code, dickson_recurrence,
                          exponent_inverse, field_create, one_minus_2r_inverse,
                          polar_decompose, spread_i, unit_circle)


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
    i = spread_i(P5)
    T, tr_abs, N = gf2m.traces_and_norm(i)
    assert T.v == 1  # T(i) = 1
    z = ExtElement(P5, 0)
    assert gf2m.traces_and_norm(z) == (FieldElement(P5, 0), 0, FieldElement(P5, 0))
    for a in range(P5.q):  # conjugation fixes F: T = 0, N = a^2
        fa = FieldElement(P5, a).lift()
        T, _, N = gf2m.traces_and_norm(fa)
        assert T.v == 0 and N.v == P5.fmul(a, a)


def test_trace_norm_against_definitions(P4):
    q = P4.q
    for code in range(q * q):
        x = ExtElement(P4, code)
        assert x.conjugate().code == P4.kpow(code, q)
        assert (x + x.conjugate()).code == x.rel_trace().v
        assert (x * x.conjugate()).code == x.norm().v
        assert x.conjugate().conjugate() == x


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
    i = spread_i(P5)
    one = ExtElement(P5, 1)
    assert bilinear_form(i, one).v == 1  # <i, 1> = T(i) = 1
    for u in unit_circle(P5):
        assert bilinear_form(one, u).v == (u + u.conjugate()).code


def test_unit_circle(P5):
    S = unit_circle(P5)
    assert len(S) == 33 and S.codes[0] == 1
    for u in S:
        assert u.norm().v == 1
    assert (S.w ** (P5.q + 1)).code == 1
    # m odd: omega = w^((q+1)/3) with omega^2 + omega + 1 = 0
    om = S.omega()
    assert (om * om + om + ExtElement(P5, 1)).code == 0
    # norm-1 elements are exactly S
    count = sum(1 for x in range(P5.q ** 2) if P5.knorm(x) == 1)
    assert count == P5.q + 1


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
    for code in range(1, P.q ** 2):
        lam, u = polar_decompose(ExtElement(P, code))
        assert lam.v and P.knorm(u.code) == 1
        assert P.kmul(lam.v, u.code) == code
    with pytest.raises(FieldError):
        polar_decompose(ExtElement(P, 0))


def test_polar_special_cases(P5):
    for a in range(1, P5.q):
        lam, u = polar_decompose(FieldElement(P5, a).lift())
        assert (lam.v, u.code) == (a, 1)  # F* decomposes as (lambda, 1)
    for u in unit_circle(P5):
        lam, uu = polar_decompose(u)
        assert (lam.v, uu.code) == (1, u.code)


def test_spread_i_conventions():
    for m in (1, 3, 5, 7):
        P = field_create(m)
        i = spread_i(P)
        assert P.kT(i.code) == 1
        assert (i ** 3).code == 1 and i.code != 1  # omega for odd m
    for m in (2, 4, 6):
        P = field_create(m)
        i = spread_i(P)
        assert i.code == 1 << m and P.kT(i.code) == 1


def test_dickson_d5_identity(P5):
    # D_5(x) = x + x^3 + x^5 on GF(32)
    for a in range(32):
        fe = FieldElement(P5, a)
        expect = a ^ P5.fpow(a, 3) ^ P5.fpow(a, 5)
        assert dickson_eval(5, fe).v == expect
        assert dickson_recurrence(P5, 5, a) == expect
    assert dickson_eval(1, FieldElement(P5, 7)).v == 7


def test_dickson_roundtrip_on_base_field(P5):
    # the inverse of 5 modulo 2^n-1 inverts D_5 on F, where it is a permutation
    inv5 = exponent_inverse(5, 2 ** 10 - 1)
    assert inv5 == 614 == (3 * 32 ** 2 - 2) // 5
    for a in range(32):
        d = dickson_eval_code(P5, 5, a)
        assert dickson_eval_code(P5, inv5, d) == a


def test_dickson_is_not_a_permutation_of_k(P5):
    # gcd(5, 2^20-1) = 5: D_5 cannot permute K = GF(2^10); the permutation
    # statement with modulus 2^n-1 is about the action on F = GF(2^m)
    assert math.gcd(5, 2 ** 20 - 1) == 5
    vals = {dickson_eval_code(P5, 5, x) for x in range(1024)}
    assert len(vals) < 1024


def test_dickson_k_roundtrip_coprime_exponent(P5):
    # s = 7 is coprime to 2^(2n)-1, so D_7 permutes all of K;
    # this exercises the quadratic-extension branch of the evaluator
    assert math.gcd(7, 2 ** 20 - 1) == 1
    inv7 = exponent_inverse(7, 2 ** 20 - 1)
    for x in range(0, 1024, 3):
        d = dickson_eval_code(P5, 7, x)
        assert dickson_eval_code(P5, inv7, d) == x


@pytest.mark.parametrize("m", [2, 3, 4])
def test_dickson_composition(m):
    P = field_create(m)
    for a in range(1, 6):
        for b in range(1, 6):
            for x in range(P.q ** 2):
                lhs = dickson_eval_code(P, a, dickson_eval_code(P, b, x))
                assert lhs == dickson_eval_code(P, a * b, x)


def test_dickson_recurrence_matches_functional(P4):
    for k in range(9):
        for x in range(P4.q ** 2):
            assert dickson_recurrence(P4, k, x) == dickson_eval_code(P4, k, x)


def test_exponent_arith():
    assert exponent_inverse(6, 31) == 26 == (5 * 32 - 4) // 6
    assert exponent_inverse(5, 1023) == 614
    # the closed form -(sum 2^{rj}) for (1-2^r)^{-1} mod q-1
    assert one_minus_2r_inverse(2, 5) == (-(1 + 4 + 16)) % 31 == 10
    assert (10 * (1 - 4)) % 31 == 1
    for m in (5, 7, 9):
        for r in range(1, m):
            if math.gcd(r, m) != 1:
                continue
            q1 = 2 ** m - 1
            assert one_minus_2r_inverse(r, m) == exponent_inverse(1 - 2 ** r, q1)
    with pytest.raises(FieldError):
        exponent_inverse(3, 9)


def test_serialization_roundtrip(P5):
    P = gf2m.FieldParams.from_json(P5.to_json())
    assert P == P5
    x = ExtElement(P5, 0x137)
    assert x.hex() == "137"
    assert FieldElement(P5, 5).hex() == "05"


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


def test_field_params_golden():
    from conftest import GOLDEN
    for m in range(1, 8):
        expect = (GOLDEN / f"field_m{m}.json").read_text().strip()
        assert field_create(m).to_json() == expect


def test_exponent_reduce():
    from nihoval.gf2m import exponent_reduce
    assert exponent_reduce(-3, 31) == 28
    assert exponent_reduce(1000000, 31) == 1000000 % 31
    assert exponent_reduce(0, 33) == 0


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
