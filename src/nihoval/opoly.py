"""The o-polynomial catalog as evaluable tables over F, with transforms.

A polynomial h over F = GF(q) is an o-polynomial when
D(h) = {(t : h(t) : 1)} u {(0:1:0), (1:0:0)} is a hyperoval.  opoly_table
evaluates the families below and raises OPolyError outside each one's domain,
given on the right:

    hyperconic   t^2
    translation  t^(2^r)                      1 <= r <= m-1; gcd(r, m) = 1 for a hyperoval
    segre        t^6                          m odd, m >= 5
    glynn1       t^(3s+4),   s = 2^((m+1)/2)  m odd, m >= 7
    glynn2       t^(s+g),    g = 2^k (m=4k-1) or 2^(3k+1) (m=4k+1); m >= 7
    payne        t^(1/6) + t^(1/2) + t^(5/6)  m odd, m >= 5
    cherowitzo   t^s + t^(s+2) + t^(3s+4)     m odd, m >= 5
    subiaco      rational in t plus t^(1/2),  m >= 4, 0 < d < q, tr(1/d) = 1,
                 parameter d                  d outside GF(4) if m = 2 mod 4
    adelaide     trace expression in b on the unit circle, k = +-(q-1)/3,
                 m even, m >= 4

Fractional and negative exponents are reduced modulo q-1 before evaluation
(0 maps to 0).  The fundamental-quadrangle maps act on tables as

    pi1: h -> h^{-1}        pi2: h -> t*h(1/t), 0 at 0
    pi3: h -> t + (t+1)*h(t/(t+1)), 1 at 1

and each is an involution carrying o-polynomials to o-polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .gf2m import FieldParams, exponent_inverse, unit_circle


class OPolyError(ValueError):
    pass


def glynn_sigma_gamma(m: int) -> tuple[int, int]:
    """(sigma, gamma) with gamma^4 = sigma^2 = 2 mod q-1; m odd >= 7."""
    if m % 2 == 0:
        raise OPolyError("Glynn exponents need odd m")
    sigma = 1 << ((m + 1) // 2)
    if m % 4 == 3:
        gamma = 1 << ((m + 1) // 4)
    else:
        gamma = 1 << ((3 * (m - 1) // 4) + 1)
    q1 = (1 << m) - 1
    assert pow(sigma, 2, q1) == 2 % q1 and pow(gamma, 4, q1) == 2 % q1
    return sigma, gamma


@dataclass(frozen=True)
class OPolyFamily:
    """A named o-polynomial family with its parameters."""

    name: str
    r: int | None = None        # translation exponent
    d: int | None = None        # subiaco parameter (F code)
    k: int | None = None        # adelaide exponent, +-(q-1)/3

    def label(self) -> str:
        extra = {k: v for k, v in (("r", self.r), ("d", self.d), ("k", self.k))
                 if v is not None}
        return self.name if not extra else f"{self.name}({extra})"


def subiaco_default_d(params: FieldParams) -> int:
    """Least d with tr(1/d) = 1 (and d outside GF(4) when m = 2 mod 4)."""
    exclude = set()
    if params.m % 4 == 2:
        exclude = {d for d in range(params.q) if params.fpow(d, 4) == d}
    for d in range(1, params.q):
        if d in exclude:
            continue
        if params.ftr(params.finv(d)) == 1:
            return d
    raise OPolyError("no valid subiaco parameter")  # pragma: no cover


def adelaide_default_b(params: FieldParams) -> int:
    """First unit-circle power b != 1 with tr(1/T(b)) = 1 (nonzero shifts)."""
    S = unit_circle(params)
    for idx in range(1, params.q + 1):
        b = int(S.codes[idx])
        tb = params.kT(b)
        if tb and params.ftr(params.finv(tb)) == 1:
            return b
    raise OPolyError("no valid adelaide parameter")  # pragma: no cover


def opoly_table(params: FieldParams, fam: OPolyFamily) -> np.ndarray:
    """Evaluate the family on all of F: an array h with h[t] = h(t).

    Raises OPolyError when m or the parameters lie outside the family's domain.
    """
    q, m = params.q, params.m
    t = np.arange(q, dtype=np.uint32)
    name = fam.name
    if name == "hyperconic":
        return params.fmul_v(t, t)
    if name == "translation":
        if fam.r is None or not 1 <= fam.r <= m - 1:
            raise OPolyError(f"translation needs 1 <= r <= m-1, got {fam.r}")
        return params.fpow_v(t, 1 << fam.r)
    if name in ("segre", "payne", "cherowitzo"):
        if m < 5 or m % 2 == 0:
            raise OPolyError(f"{name} needs odd m >= 5")
        if name == "segre":
            return params.fpow_v(t, 6)
        if name == "payne":
            i6 = exponent_inverse(6, q - 1)
            half = 1 << (m - 1)
            return (params.fpow_v(t, i6) ^ params.fpow_v(t, half)
                    ^ params.fpow_v(t, 5 * i6 % (q - 1)))
        s = 1 << ((m + 1) // 2)
        return params.fpow_v(t, s) ^ params.fpow_v(t, s + 2) ^ params.fpow_v(t, 3 * s + 4)
    if name in ("glynn1", "glynn2"):
        if m < 7 or m % 2 == 0:
            raise OPolyError(f"{name} needs odd m >= 7")
        s, g = glynn_sigma_gamma(m)
        if name == "glynn1":
            return params.fpow_v(t, 3 * s + 4)
        return params.fpow_v(t, s + g)
    if name == "subiaco":
        if m < 4:
            raise OPolyError("subiaco needs m >= 4")
        d = fam.d if fam.d is not None else subiaco_default_d(params)
        if not 1 <= d <= q - 1:
            raise OPolyError(f"subiaco needs 0 < d < q = {q:#x}, got d = {d:#x}")
        if params.ftr(params.finv(d)) != 1:
            raise OPolyError("subiaco needs tr(1/d) = 1")
        if m % 4 == 2 and params.fpow(d, 4) == d:
            raise OPolyError("subiaco with m = 2 mod 4 needs d outside GF(4)")
        d2 = params.fmul(d, d)
        c = 1 ^ d ^ d2  # 1 + d + d^2
        t2 = params.fmul_v(t, t)
        t3 = params.fmul_v(t2, t)
        t4 = params.fmul_v(t2, t2)
        num = params.fmul_v(np.uint32(d2), t4 ^ params.fmul_v(np.uint32(c), t3 ^ t2) ^ t)
        den = t2 ^ params.fmul_v(np.uint32(d), t) ^ 1
        den2 = params.fmul_v(den, den)
        return params.fmul_v(num, params.finv_v(den2)) ^ params.fpow_v(t, 1 << (m - 1))
    if name == "adelaide":
        if m % 2 or m < 4:
            raise OPolyError("adelaide needs even m >= 4")
        k = fam.k if fam.k is not None else (q - 1) // 3
        if k % (q - 1) not in ((q - 1) // 3, (q - 1) - (q - 1) // 3):
            raise OPolyError("adelaide needs k = +-(q-1)/3")
        b = adelaide_default_b(params)
        tb = params.kT(b)
        tbk = params.kT(params.kpow(b, k))
        itb = params.finv(tb)
        # T((b*t + conj b)^k) with t ranging over F (F sits inside K as b = 0 codes)
        bt = params.kmul_v(np.uint32(b), t) ^ np.uint32(params.kconj(b))
        tr_btk = params.kT_v(params.kpow_v(bt, k))
        root = params.fpow_v(t, 1 << (m - 1))
        base = t ^ params.fmul_v(np.uint32(tb), root) ^ 1
        return (params.fmul_v(np.uint32(params.fmul(tbk, itb)), t ^ 1)
                ^ params.fmul_v(params.fmul_v(tr_btk, np.uint32(itb)),
                                params.fpow_v(base, (1 - k) % (q - 1)))
                ^ root)
    raise OPolyError(f"unknown family {name!r}")


def is_permutation(table: np.ndarray) -> bool:
    """True iff the table holds each of 0..len(table)-1 once."""
    return np.array_equal(np.sort(table), np.arange(len(table)))


def table_inverse(table: np.ndarray) -> np.ndarray:
    if not is_permutation(table):
        raise OPolyError("table is not a permutation of F")
    inv = np.zeros_like(table)
    inv[table] = np.arange(len(table), dtype=table.dtype)
    return inv


def dh_points(params: FieldParams, table: np.ndarray) -> list[int]:
    """The H codes of the q+2 points of D(h): (t : h(t) : 1), (0 : 1 : 0), (1 : 0 : 0)."""
    q = params.q
    return (np.arange(q, dtype=np.int64) * q + table).tolist() + [q * q, q * q + q]


def is_opolynomial(params: FieldParams, table: np.ndarray) -> bool:
    """True iff D(h) is a hyperoval."""
    if len(table) != params.q:
        raise OPolyError("table must have q entries")
    if not is_permutation(table):
        return False
    return geometry.is_hyperoval(params, dh_points(params, table))


def transform_pi(k: int, params: FieldParams, table: np.ndarray) -> np.ndarray:
    """Apply pi_1, pi_2 or pi_3 to an o-polynomial table."""
    if not is_opolynomial(params, table):
        raise OPolyError("pi transforms need an o-polynomial input")
    q = params.q
    t = np.arange(q, dtype=np.uint32)
    if k == 1:
        return table_inverse(table)
    if k == 2:
        out = params.fmul_v(t, table[params.finv_v(t, zero_to_zero=True)])
        out[0] = 0
        return out
    if k == 3:
        t1 = t ^ 1
        arg = params.fmul_v(t, params.finv_v(t1, zero_to_zero=True))
        out = t ^ params.fmul_v(t1, table[arg])
        out[1] = 1
        return out
    raise OPolyError("k must be 1, 2 or 3")


# ------------------------------------------------------- closed-form inverses


def dickson_inverse5_table(params: FieldParams) -> np.ndarray:
    """D_{1/5} on F: the inverse of the table of D_5(t) = t + t^3 + t^5.

    D_5 permutes F exactly when gcd(5, q^2-1) = 1, i.e. for odd m; for even m
    its table is no permutation and OPolyError is raised.
    """
    t = np.arange(params.q, dtype=np.uint32)
    return table_inverse(t ^ params.fpow_v(t, 3) ^ params.fpow_v(t, 5))


def payne_inverse_table(params: FieldParams) -> np.ndarray:
    """h^{-1}(t) = (D_{1/5}(t))^6 for the Payne o-polynomial (odd m)."""
    return params.fpow_v(dickson_inverse5_table(params), 6)


def cherowitzo_inverse_table(params: FieldParams) -> np.ndarray:
    """h^{-1}(t) = t*(t^(s+1) + t^3 + t)^(s/2 - 1) for the Cherowitzo family."""
    q, m = params.q, params.m
    s = 1 << ((m + 1) // 2)
    t = np.arange(q, dtype=np.uint32)
    inner = params.fpow_v(t, s + 1) ^ params.fpow_v(t, 3) ^ t
    return params.fmul_v(t, params.fpow_v(inner, s // 2 - 1))

