"""g-functions S -> F: the unit-circle avatars of o-polynomials.

A function g on the unit circle is valid when the equivalent conditions hold:
f(lambda*u) = tr(lambda*g(u)) is bent, {L(u, g(u))} is a line oval, and
{u/g(u)} is an oval of PG(2,q) with nucleus at the origin (points with
g(u) = 0 are read as the point at infinity in direction u).

Constructions:

  * from an o-polynomial h:  g(u) = h^{-1}(<i,u>/<1,u>) <1,u> + <i,u>, g(1)=1
  * for a monomial t^s:      g(u) = <i,u>^{1/s} <1,u>^{q-1/s}   (g(1) = 0)
  * from an oval O in K:     g(u) = sum_i (sum_{v in O} v^{(q-1)i/2-1}) u^{i+1}
  * nucleus shift at s:      g_s = g_from_oval(O_s) for the oval with nucleus 0
                             O_s = {v/g(v) + s/g(s): v != s} u {s/g(s)}

Division by 2 in exponents is multiplication by 2^{n-1} mod q^2-1.  g and
g + <c,u> describe equivalent ovals; fix_zeros uses this to clear zeros, and
table comparisons are offered both pointwise and up to such a linear shift.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np

from . import bent, geometry, opoly
from .gf2m import (ExtElement, FieldParams, exponent_inverse, spread_i,
                   unit_circle)


class GFunError(ValueError):
    pass


class GFunction:
    """A table S -> F in unit-circle order, with a provenance tag."""

    def __init__(self, params: FieldParams, values, provenance: str = ""):
        self.params = params
        self.S = unit_circle(params)
        vals = np.asarray(values, dtype=np.uint32)
        if vals.shape != (params.q + 1,):
            raise GFunError(f"need q+1 = {params.q + 1} values")
        if np.any(vals >= params.q):
            raise GFunError("g-values must lie in the base field")
        self.values = vals
        self.provenance = provenance

    def __call__(self, u: ExtElement) -> int:
        return int(self.values[self.S.index(u)])

    def __eq__(self, other) -> bool:
        return (isinstance(other, GFunction) and self.params == other.params
                and np.array_equal(self.values, other.values))

    def __repr__(self) -> str:
        return f"GFunction(m={self.params.m}, {self.provenance or 'anonymous'})"

    def is_zero_free(self) -> bool:
        return not np.any(self.values == 0)

    def lines(self) -> list[geometry.LineK]:
        return [geometry.LineK(self.params, int(u), int(v))
                for u, v in zip(self.S.codes, self.values)]

    def oval_points_k(self) -> list[geometry.ProjPointK]:
        """{(u : g(u))}: affine u/g(u), or the direction point when g(u) = 0."""
        return [geometry.ProjPointK.make(self.params, int(u), int(v))
                for u, v in zip(self.S.codes, self.values)]

    def hyperoval_points_k(self) -> list[geometry.ProjPointK]:
        return self.oval_points_k() + [geometry.ProjPointK.affine(self.params, 0)]

    def hyperoval_codes_h(self) -> list[int]:
        return [geometry.k_to_h(p).code for p in self.hyperoval_points_k()]

    def oval_codes_k(self) -> np.ndarray:
        """The affine oval {u/g(u)} as K codes in unit-circle order; g zero-free."""
        if not self.is_zero_free():
            raise GFunError("g must be nowhere zero (apply fix_zeros first)")
        P = self.params
        return P.kmul_v(self.S.codes, P.kinv_v(self.values))

    def serialize_csv(self) -> str:
        header = {"field": json.loads(self.params.to_json()),
                  "provenance": self.provenance}
        lines = ["# " + json.dumps(header, sort_keys=True), "u_index,u_hex,g_hex"]
        for k in range(self.params.q + 1):
            lines.append(f"{k},{self.params.k_hex(int(self.S.codes[k]))},"
                         f"{self.params.f_hex(int(self.values[k]))}")
        return "\n".join(lines) + "\n"


def g_series(params: FieldParams, const: int, terms, provenance: str = "") -> GFunction:
    """g(u) = const + sum (c u^e + conj(c) conj(u)^e) = const + sum T(c u^e)."""
    S = unit_circle(params)
    vals = np.full(params.q + 1, const, dtype=np.uint32)
    for c, e in terms:
        vals ^= params.kT_v(params.kmul_v(np.uint32(c), params.kpow_v(S.codes, e)))
    return GFunction(params, vals, provenance)


def linear_shift_difference(g1: GFunction, g2: GFunction) -> int | None:
    """c with g1 + g2 = <c, u>, or None; equality up to linear shift."""
    P = g1.params
    d = g1.values ^ g2.values
    S = g1.S.codes
    for c in range(P.q ** 2):
        if np.array_equal(P.bform_v(np.uint32(c), S), d):
            return c
    return None


# ------------------------------------------------------------- constructions


def g_from_opoly(params: FieldParams, h_table, provenance: str = "") -> GFunction:
    """g(u) = h^{-1}(<i,u>/<1,u>) <1,u> + <i,u> for u != 1; g(1) = 1."""
    h_table = np.asarray(h_table, dtype=np.uint32)
    if not opoly.is_opolynomial(params, h_table):
        raise GFunError("input table is not an o-polynomial")
    hinv = opoly.table_inverse(h_table)
    S = unit_circle(params).codes
    i = spread_i(params).code
    a = params.bform_v(np.uint32(i), S)   # <i, u>
    b = params.kT_v(S)                    # <1, u>
    t = params.fmul_v(a, params.finv_v(b, zero_to_zero=True))
    vals = params.fmul_v(hinv[t], b) ^ a
    vals[0] = 1  # u = 1 sits at index 0 of the unit circle
    return GFunction(params, vals, provenance or "from-opoly")


def g_monomial(params: FieldParams, s: int) -> GFunction:
    """Closed form for h = t^s: g(u) = <i,u>^{1/s} <1,u>^{q-1/s} (g(1) = 0)."""
    q = params.q
    si = exponent_inverse(s, q - 1)
    S = unit_circle(params).codes
    i = spread_i(params).code
    a = params.bform_v(np.uint32(i), S)
    b = params.kT_v(S)
    vals = params.fmul_v(params.fpow_v(a, si), params.fpow_v(b, q - si))
    return GFunction(params, vals, f"monomial(s={s})")


def _half_exponents(params: FieldParams) -> list[int]:
    """e_i = (q-1)*i/2 - 1 mod q^2-1 for i = 0..q (division by 2 = sqrt power)."""
    q = params.q
    order = q * q - 1
    inv2 = pow(2, params.n - 1, order)
    return [((q - 1) * i * inv2 - 1) % order for i in range(q + 1)]


def _eval_power_series(params: FieldParams, coeffs) -> np.ndarray:
    """sum_i coeffs[i] * u^{i+1} over all u in S; result must lie in F."""
    S = unit_circle(params).codes
    acc = np.zeros(params.q + 1, dtype=np.uint32)
    upow = S.copy()  # u^1
    for i in range(params.q + 1):
        acc ^= params.kmul_v(np.uint32(int(coeffs[i])), upow)
        upow = params.kmul_v(upow, S)
    if np.any(acc >> params.m):
        raise GFunError("power series values left the base field")
    return acc


def g_from_oval(params: FieldParams, oval_codes, provenance: str = "") -> GFunction:
    """The unique g with {u/g(u)} = O, for an oval O in K with nucleus 0."""
    O = np.asarray(oval_codes, dtype=np.uint32)
    if len(O) != params.q + 1:
        raise GFunError("need q+1 oval points")
    if np.any(O == 0):
        raise GFunError("0 cannot lie on an oval with nucleus at the origin")
    exps = _half_exponents(params)
    coeffs = [int(np.bitwise_xor.reduce(params.kpow_v(O, e))) for e in exps]
    vals = _eval_power_series(params, coeffs)
    return GFunction(params, vals, provenance or "from-oval")


def g_shift(g: GFunction, s_index: int) -> GFunction:
    """g_s: the g-function of the shifted oval O_s (see shifted_oval_codes)."""
    return g_from_oval(g.params, shifted_oval_codes(g, s_index),
                       f"{g.provenance}|shift(s_index={s_index})")


def shifted_oval_codes(g: GFunction, s_index: int) -> list[int]:
    """O_s = {v/g(v) + s/g(s) : v != s} u {s/g(s)} as K codes.

    Dropping s/g(s) from the hyperoval {u/g(u)} u {0} leaves an oval with
    nucleus s/g(s); the translation x -> x + s/g(s) moves that nucleus to 0.
    """
    if not 0 <= s_index <= g.params.q:
        raise GFunError(f"s_index must lie in 0..{g.params.q}, got {s_index}")
    pts = g.oval_codes_k()
    c = pts[s_index]
    out = pts ^ c
    out[s_index] = c
    return out.tolist()


def g_from_pointset(params: FieldParams, hyperoval_codes, provenance: str = "") -> GFunction:
    """Recover g from a hyperoval given as K codes containing 0.

    The nonzero points must hit every spread direction exactly once; then
    g(u) = 1/lambda for the point lambda*u.
    """
    codes = sorted(set(int(c) for c in hyperoval_codes))
    if len(codes) != params.q + 2 or 0 not in codes:
        raise GFunError("need q+2 distinct points including 0")
    S = unit_circle(params)
    vals = np.zeros(params.q + 1, dtype=np.uint32)
    seen = set()
    for c in codes:
        if c == 0:
            continue
        lam = params.fsqrt(params.knorm(c))
        u = params.kmul(c, params.finv(lam))
        idx = S.index(u)
        if idx in seen:
            raise GFunError("two points share a spread direction")
        seen.add(idx)
        vals[idx] = params.finv(lam)
    return GFunction(params, vals, provenance or "from-pointset")


def fix_zeros(g: GFunction) -> GFunction:
    """Replace g by g + <c,u> with the first c clearing zeros.

    Candidates in order: c = 0, then i*lambda for lambda = 1..q-1, then every
    other nonzero c in ascending code order.
    """
    P = g.params
    if g.is_zero_free():
        return g
    i = spread_i(P).code
    first = [P.kmul(i, lam) for lam in range(1, P.q)]
    skip = set(first) | {0}
    rest = (c for c in range(1, P.q ** 2) if c not in skip)
    S = g.S.codes
    for c in itertools.chain(first, rest):
        vals = g.values ^ P.bform_v(np.uint32(c), S)
        if not np.any(vals == 0):
            return GFunction(P, vals, f"{g.provenance}|+<{P.k_hex(c)},u>")
    raise GFunError("no linear shift clears the zeros; g is not valid")


# ------------------------------------------------------------------ catalog


def okp_epsilon(params: FieldParams) -> int:
    """Least root in K of e^10 + e^6 + e^5 + e^3 + e^2 + e + 1."""
    x = np.arange(params.q ** 2, dtype=np.uint32)
    acc = params.kpow_v(x, 10) ^ params.kpow_v(x, 6) ^ params.kpow_v(x, 5)
    acc ^= params.kpow_v(x, 3) ^ params.kmul_v(x, x) ^ x ^ 1
    roots = np.flatnonzero(acc == 0)
    if len(roots) == 0:
        raise GFunError("minimal polynomial has no root in K")  # pragma: no cover
    return int(roots[0])


def translation_g(params: FieldParams, r: int) -> GFunction:
    """g_r(u) = T(u^{1+2^{m-r}}) / T(u^{2^{m-r}}), g_r(1) = 1 (g_1 = 1)."""
    m = params.m
    if not 1 <= r < m:
        raise GFunError("need 1 <= r < m")
    if r == 1:
        return GFunction(params, np.ones(params.q + 1, dtype=np.uint32), "translation(r=1)")
    S = unit_circle(params).codes
    e = 1 << (m - r)
    num = params.kT_v(params.kpow_v(S, 1 + e))
    den = params.kT_v(params.kpow_v(S, e))
    vals = params.fmul_v(num, params.finv_v(den, zero_to_zero=True))
    vals[0] = 1
    return GFunction(params, vals, f"translation(r={r})")


def hyperconic_g_squared_route(params: FieldParams) -> GFunction:
    """<i^{1/2}, u> + 1: the from-opoly form for h = t^2."""
    ih = params.ksqrt(spread_i(params).code)
    S = unit_circle(params).codes
    vals = params.bform_v(np.uint32(ih), S) ^ 1
    return GFunction(params, vals, "hyperconic-t2-closed")


def hyperconic_g_root_route(params: FieldParams) -> GFunction:
    """1/(u + conj u) + <i^2, u> for u != 1: the h = t^{1/2} class form.

    Boundary pinned to the monomial normalization (value 0 at u = 1), so the
    table coincides with g_monomial(2^{m-1}) pointwise.
    """
    i2 = params.ksq(spread_i(params).code)
    S = unit_circle(params).codes
    t = params.kT_v(S)
    vals = params.finv_v(t, zero_to_zero=True) ^ params.bform_v(np.uint32(i2), S)
    vals[0] = 0
    return GFunction(params, vals, "hyperconic-t12-closed")


def segre_class_g(params: FieldParams, which: int) -> GFunction:
    """The four Segre class forms (0..3) for odd m >= 5.

    Classes 0..2 are the monomial closed forms for s = 6, 1/6 and 1-6; class 3
    is the branch through the Dickson inverse of t + (t+1)(t/(t+1))^6.
    """
    q = params.q
    if which in (0, 1, 2):
        s = (6, exponent_inverse(6, q - 1), 1 - 6)[which]
        g = g_monomial(params, s)
        return GFunction(params, g.values, f"segre-class{which}")
    if which == 3:
        inv5 = exponent_inverse(5, q * q - 1)
        om = unit_circle(params).omega().code
        S = unit_circle(params).codes
        b = params.kT_v(S)
        abar = params.bform_v(np.uint32(params.kconj(om)), S)  # omega u + conj(omega u)
        arg = params.fmul_v(abar, params.fpow_v(b, q - 2))
        from .gf2m import dickson_eval_code
        d = np.array([dickson_eval_code(params, inv5, int(t)) for t in arg],
                     dtype=np.uint32)
        vals = params.fmul_v(params.fpow_v(d, q * q - 2), b)
        return GFunction(params, vals, "segre-class3")
    raise GFunError("which must be 0..3")


def payne_pointset_codes(params: FieldParams) -> list[int]:
    """{u + u^3 + u^{-3} : u in S} u {0}: the Payne hyperoval inside K."""
    S = unit_circle(params).codes
    pts = S ^ params.kpow_v(S, 3) ^ params.kpow_v(S, params.q + 1 - 3)
    out = sorted({int(p) for p in pts} | {0})
    if len(out) != params.q + 2:
        raise GFunError("pointset is not a hyperoval candidate")  # pragma: no cover
    return out


def g_catalog(params: FieldParams, family: str, r: int | None = None) -> GFunction:
    """Named g-functions: reference tables where published, constructions else."""
    m, q = params.m, params.q
    w = unit_circle(params).w_code
    if family == "hyperconic":
        return GFunction(params, np.ones(q + 1, dtype=np.uint32), "hyperconic")
    if family == "translation":
        if r is None:
            raise GFunError("translation needs r")
        return translation_g(params, r)
    if family == "segre":
        if m % 2 == 0 or m < 5:
            raise GFunError("segre needs odd m >= 5")
        if m == 5:
            om = unit_circle(params).omega().code
            return g_series(params, 1, [(om, 9), (params.kconj(om), 12)], "segre")
        return segre_class_g(params, 0)
    if family == "payne":
        if m % 2 == 0 or m < 5:
            raise GFunError("payne needs odd m >= 5")
        return g_from_pointset(params, payne_pointset_codes(params), "payne")
    if family == "subiaco_payne":
        if m != 5:
            raise GFunError("the published subiaco/payne table is for m = 5")
        return g_series(params, 1, [(1, 5), (1, 1)], "subiaco_payne")
    if family == "cherowitzo":
        if m % 2 == 0 or m < 5:
            raise GFunError("cherowitzo needs odd m >= 5")
        if m == 5:
            om = unit_circle(params).omega().code
            return g_series(params, 0, [(1, 5), (1, 8), (1, 9), (om, 12), (om, 13),
                                        (om, 16)], "cherowitzo")
        return g_from_opoly(params, opoly.opoly_table(params, opoly.OPolyFamily("cherowitzo")),
                            "cherowitzo-from-opoly")
    if family == "okeefe_penttila":
        if m != 5:
            raise GFunError("okeefe_penttila lives at m = 5")
        eps = okp_epsilon(params)
        return g_series(params, 1, [(params.kpow(eps, 123), 9), (1, 12)],
                        "okeefe_penttila")
    if family in ("subiaco", "lunelli_sce"):
        if m < 4 or (family == "lunelli_sce" and m != 4):
            raise GFunError(f"{family} needs m >= 4 (lunelli_sce: m = 4)")
        return g_series(params, 1, [(1, 5)], family)
    if family == "subiaco2":
        if m % 4 != 2:
            raise GFunError("subiaco2 needs m = 2 mod 4")
        return g_series(params, 1, [(w, 5)], "subiaco2")
    if family == "adelaide":
        if m % 2 or m < 4:
            raise GFunError("adelaide needs even m >= 4")
        return g_series(params, 1, [(1, (q - 1) // 3)], "adelaide")
    if family == "glynn1":
        s, _ = opoly.glynn_sigma_gamma(m)
        return g_monomial(params, 3 * s + 4)
    if family == "glynn2":
        s, gpar = opoly.glynn_sigma_gamma(m)
        return g_monomial(params, s + gpar)
    raise GFunError(f"unknown catalog family {family!r}")


CATALOG_FAMILIES = ("hyperconic", "translation", "segre", "payne", "subiaco_payne",
                    "cherowitzo", "okeefe_penttila", "subiaco", "subiaco2",
                    "lunelli_sce", "adelaide", "glynn1", "glynn2")


# --------------------------------------------------------------- validation


@dataclass(frozen=True)
class GValidation:
    line_oval: bool
    oval_nucleus_origin: bool
    bent: bool

    @property
    def consistent(self) -> bool:
        return self.line_oval == self.oval_nucleus_origin == self.bent

    @property
    def valid(self) -> bool:
        return self.consistent and self.bent


def validate_g(g: GFunction) -> GValidation:
    """Check the three equivalent validity conditions independently."""
    P = g.params
    lo = geometry.is_line_oval(g.lines())
    ov = geometry.no_three_collinear(P, g.hyperoval_codes_h())
    bt = bent.is_bent(bent.bent_from_g(g))
    return GValidation(lo, ov, bt)
