import re

import numpy as np
import pytest

from nihoval import opoly
from nihoval.gf2m import exponent_inverse, field_create
from nihoval.opoly import (OPolyError, OPolyFamily, glynn_sigma_gamma,
                           is_opolynomial, opoly_table, table_inverse,
                           transform_pi)


def tab(P, name, **kw):
    return opoly_table(P, OPolyFamily(name, **kw))


def test_hyperconic_eval(P4):
    t = tab(P4, "hyperconic")
    assert t[0] == 0 and t[1] == 1
    assert all(int(t[x]) == P4.fmul(x, x) for x in range(16))
    assert is_opolynomial(P4, t)


def test_monomial_negatives(P4, P6):
    x = np.arange(16, dtype=np.uint32)
    assert not is_opolynomial(P4, P4.fpow_v(x, 3))  # not even a permutation
    # gcd(r, m) != 1: a permutation but not an o-polynomial
    assert not is_opolynomial(P6, tab(P6, "translation", r=2))
    assert not is_opolynomial(P6, tab(P6, "translation", r=3))


def test_dh_points_are_codes(P4):
    t = tab(P4, "hyperconic")
    q = P4.q
    assert opoly.dh_points(P4, t) == [x * q + P4.fmul(x, x) for x in range(q)] + [q * q, q * q + q]
    # q distinct values that are not all in F: no permutation of F, so no
    # codes t*q + h(t) that would alias points at infinity
    bad = t.copy()
    bad[bad == 15] = 17
    assert not is_opolynomial(P4, bad)
    with pytest.raises(OPolyError):
        table_inverse(bad)


def test_segre(P5):
    assert is_opolynomial(P5, tab(P5, "segre"))


# (family, m, OPolyFamily keywords, message): every domain error of opoly_table
DOMAIN_ERRORS = [
    ("translation", 5, {}, "translation needs 1 <= r <= m-1, got None"),
    ("translation", 5, {"r": 0}, "translation needs 1 <= r <= m-1, got 0"),
    ("translation", 5, {"r": 5}, "translation needs 1 <= r <= m-1, got 5"),
    ("segre", 3, {}, "segre needs odd m >= 5"),
    ("segre", 4, {}, "segre needs odd m >= 5"),
    ("payne", 4, {}, "payne needs odd m >= 5"),
    ("payne", 6, {}, "payne needs odd m >= 5"),
    ("cherowitzo", 4, {}, "cherowitzo needs odd m >= 5"),
    ("cherowitzo", 6, {}, "cherowitzo needs odd m >= 5"),
    ("glynn1", 6, {}, "glynn1 needs odd m >= 7"),
    ("glynn2", 5, {}, "glynn2 needs odd m >= 7"),
    ("glynn2", 8, {}, "glynn2 needs odd m >= 7"),
    ("subiaco", 3, {}, "subiaco needs m >= 4"),
    ("subiaco", 5, {"d": 0}, "subiaco needs 0 < d < q = 0x20, got d = 0x0"),
    ("subiaco", 5, {"d": 32}, "subiaco needs 0 < d < q = 0x20, got d = 0x20"),
    ("subiaco", 5, {"d": 2}, "subiaco needs tr(1/d) = 1"),  # tr(1/2) = 0
    ("subiaco", 6, {"d": 58}, "subiaco with m = 2 mod 4 needs d outside GF(4)"),  # 58^4 = 58
    ("adelaide", 5, {}, "adelaide needs even m >= 4"),
    ("adelaide", 2, {}, "adelaide needs even m >= 4"),
    ("adelaide", 4, {"k": 7}, "adelaide needs k = +-(q-1)/3"),
    ("adelaide", 6, {"k": 5}, "adelaide needs k = +-(q-1)/3"),
    ("nosuch", 5, {}, "unknown family 'nosuch'"),
]


@pytest.mark.parametrize(
    "name,m,kw,message", DOMAIN_ERRORS,
    ids=[f"{name}-m{m}" + "".join(f"-{k}{v}" for k, v in kw.items())
         for name, m, kw, _ in DOMAIN_ERRORS])
def test_domain_errors(name, m, kw, message):
    with pytest.raises(OPolyError, match=f"^{re.escape(message)}$"):
        tab(field_create(m), name, **kw)


@pytest.mark.parametrize("m,r", [(4, 1), (4, 3), (5, 2), (5, 3), (6, 1), (6, 5)])
def test_translation_valid_r(m, r):
    P = field_create(m)
    assert is_opolynomial(P, tab(P, "translation", r=r))


def test_payne_cherowitzo(P5):
    pay = tab(P5, "payne")
    che = tab(P5, "cherowitzo")
    assert is_opolynomial(P5, pay) and is_opolynomial(P5, che)
    assert np.array_equal(opoly.payne_inverse_table(P5), table_inverse(pay))
    P7 = field_create(7)
    assert np.array_equal(opoly.payne_inverse_table(P7), table_inverse(tab(P7, "payne")))
    assert np.array_equal(opoly.cherowitzo_inverse_table(P5), table_inverse(che))
    # Cherowitzo h(t) = t^s + t^(s+2) + t^(3s+4), s = 8, is a permutation
    x = np.arange(32, dtype=np.uint32)
    expect = P5.fpow_v(x, 8) ^ P5.fpow_v(x, 10) ^ P5.fpow_v(x, 28)
    assert np.array_equal(che, expect)


def test_payne_self_dual_under_pi2(P5):
    pay = tab(P5, "payne")
    assert np.array_equal(transform_pi(2, P5, pay), pay)


def test_pi_transforms(P4, P5):
    hc = tab(P4, "hyperconic")
    # pi1(t^2) = t^(1/2)
    assert np.array_equal(transform_pi(1, P4, hc),
                          P4.fpow_v(np.arange(16, dtype=np.uint32), 8))
    # pi2(t^(2^r)) = t^(1-2^r)
    tr2 = tab(P5, "translation", r=2)
    e = (1 - 4) % 31
    assert np.array_equal(transform_pi(2, P5, tr2),
                          P5.fpow_v(np.arange(32, dtype=np.uint32), e))
    # pi3 on Segre: t + (t+1)(t/(t+1))^6, an o-polynomial
    seg = tab(P5, "segre")
    s3 = transform_pi(3, P5, seg)
    t = np.arange(32, dtype=np.uint32)
    t1 = t ^ 1
    frac = P5.fmul_v(t, P5.finv_v(t1, zero_to_zero=True))
    expect = t ^ P5.fmul_v(t1, P5.fpow_v(frac, 6))
    expect[1] = 1
    assert np.array_equal(s3, expect)
    assert is_opolynomial(P5, s3)
    # closed-form inverse of the pi3 image: (D_{1/5}(t+1))^(q^2-2) + 1
    d = opoly.dickson_inverse5_table(P5)[t1]
    assert np.array_equal(P5.fpow_v(d, 32 * 32 - 2) ^ 1, table_inverse(s3))


def test_pi_involutions_preserve_oness(P4, P5):
    cases = [(P4, tab(P4, "hyperconic")), (P5, tab(P5, "segre")),
             (P5, tab(P5, "payne")), (P4, tab(P4, "subiaco"))]
    for P, t in cases:
        for k in (1, 2, 3):
            tt = transform_pi(k, P, t)
            assert is_opolynomial(P, tt)
            assert np.array_equal(transform_pi(k, P, tt), t)


def test_transform_requires_opolynomial(P4):
    x = np.arange(16, dtype=np.uint32)
    with pytest.raises(OPolyError):
        transform_pi(1, P4, P4.fpow_v(x, 3))


def test_glynn_constraints():
    with pytest.raises(OPolyError):
        glynn_sigma_gamma(6)
    for m in (7, 9, 11):
        s, g = glynn_sigma_gamma(m)
        q1 = 2 ** m - 1
        assert pow(s, 2, q1) == 2 and pow(g, 4, q1) == 2
    with pytest.raises(OPolyError, match="glynn1 needs odd m >= 7"):
        opoly_table(field_create(5), OPolyFamily("glynn1"))


def test_glynn_m7_hyperovals():
    P = field_create(7)
    assert is_opolynomial(P, tab(P, "glynn1"))
    assert is_opolynomial(P, tab(P, "glynn2"))


@pytest.mark.parametrize("m", [4, 5, 6])
def test_subiaco(m):
    P = field_create(m)
    t = tab(P, "subiaco")
    assert t[0] == 0 and t[1] == 1
    assert is_opolynomial(P, t)
    d = opoly.subiaco_default_d(P)
    assert P.ftr(P.finv(d)) == 1
    if m % 4 == 2:
        assert P.fpow(d, 4) != d  # d outside GF(4)


@pytest.mark.parametrize("m", [4, 6])
def test_adelaide(m):
    P = field_create(m)
    t = tab(P, "adelaide")
    assert t[0] == 0 and t[1] == 1
    assert is_opolynomial(P, t)


def test_fractional_exponents_via_inverse(P5):
    # payne = t^(1/6) + t^(1/2) + t^(5/6) with exponents reduced mod q-1
    i6 = exponent_inverse(6, 31)
    x = np.arange(32, dtype=np.uint32)
    expect = P5.fpow_v(x, i6) ^ P5.fpow_v(x, 16) ^ P5.fpow_v(x, 5 * i6 % 31)
    assert np.array_equal(tab(P5, "payne"), expect)
