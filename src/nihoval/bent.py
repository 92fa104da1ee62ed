"""Niho bent functions: truth tables, Walsh spectra, duals, polynomial forms.

A function g on the unit circle S determines f(lambda*u) = tr(lambda*g(u)),
f(0) = 0, a Boolean function on K that is F_2-linear on every line u*F of the
Desarguesian spread.  Walsh transforms use the scalar product
a . b = tr(<a, b>); the fast butterfly works in standard coordinates and the
change of basis is the Gram-matrix index permutation b -> G*b, computed once
per field.  f is bent iff every Walsh value is +-2^m, and then the dual f~ is
read off the signs; the zero set of the dual of a Niho bent function is
exactly E(O) for the line oval O = {L(u, g(u))}.

Univariate forms use Niho exponents i(q-1) + 2^j: from an oval with nucleus
at the origin the bent function is

    f(x) = sum_j sum_i ( sum_{v in O} v^{-(i(q-1)+2^j)} ) x^{i(q-1)+2^j}

and the nucleus shift at s is this polynomial for the shifted oval O_s
(gfun.shifted_oval_codes).  Only the q+1 sums for 2^j = 1 are formed; the
others are their Frobenius images.

Sparse polynomials (Niho polynomials and trace forms) are evaluated in
polar form: for x = lambda*u, x^e = lambda^(e mod q-1) * u^(e mod q+1), so
the terms are summed on the q+1 points of S, one sum per residue of e mod
q-1 (at most m for Niho exponents), and each sum is spread over the lines
u*F* with F-multiplies.  The cost is terms*(q+1) + residues*q^2 instead of
terms*q^2.
Truth-table index order is the K code (a-bits low, b-bits high).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import geometry
from .gf2m import FieldParams, spread_i, unit_circle


class BentError(ValueError):
    pass


# ------------------------------------------------------------- truth tables


@dataclass(frozen=True)
class BooleanFn:
    """Truth table of f: K -> F_2, indexed by K code."""

    params: FieldParams
    table: np.ndarray  # uint8, length 2^n

    def __post_init__(self):
        if len(self.table) != self.params.q ** 2:
            raise BentError("truth table must have 2^(2m) entries")

    def __eq__(self, other) -> bool:
        return (isinstance(other, BooleanFn) and self.params == other.params
                and np.array_equal(self.table, other.table))

    def weight(self) -> int:
        return int(self.table.sum())

    def __add__(self, other: "BooleanFn") -> "BooleanFn":
        return BooleanFn(self.params, self.table ^ other.table)

    def to_bits(self) -> bytes:
        return np.packbits(self.table, bitorder="little").tobytes()


def bent_from_g(g) -> BooleanFn:
    """Truth table of f(lambda*u) = tr(lambda*g(u)), f(0) = 0."""
    P = g.params
    q = P.q
    S = g.S.codes
    table = np.zeros(q * q, dtype=np.uint8)
    lam = np.arange(1, q, dtype=np.uint32)
    for idx in range(q + 1):
        gu = int(g.values[idx])
        x = P.kmul_v(lam, np.uint32(S[idx]))
        table[x] = P.f_tr[P.fmul_v(lam, np.uint32(gu))]
    return BooleanFn(P, table)


def _eval_sparse(P: FieldParams, terms) -> np.ndarray:
    """sum c*x^e at every x in K, as K codes in code order; terms are (e, c).

    Polar form: x = lambda*u with lambda = f_exp[k] in F* and u = w^l in S
    (unit_circle order), so x^e = lambda^(e mod q-1) * u^(e mod q+1).
    Terms with equal r = e mod (q-1) are summed on S first, c_r(u) =
    sum c*u^e by index gathers into the unit circle; then sum_r lambda^r *
    c_r(u) is formed on the (q-1) x (q+1) grid, two F products per entry and
    residue, and scattered to the codes x = lambda*u.  The value at x = 0 uses
    the polynomial convention 0^0 = 1, 0^e = 0 for e != 0.
    """
    q, m = P.q, P.m
    qm1 = q - 1
    S = unit_circle(P).codes
    ls = np.arange(q + 1, dtype=np.int64)
    groups: dict[int, list] = {}
    at_zero = 0
    for e, c in terms:
        if e == 0:
            at_zero ^= int(c)
        groups.setdefault(e % qm1, []).append((e % (q + 1), c))
    log_a = P.f_log[S & np.uint32(qm1)]
    log_b = P.f_log[S >> np.uint32(m)]
    k = np.arange(qm1, dtype=np.int64)[:, None]
    lo = np.zeros((qm1, q + 1), dtype=np.uint32)
    hi = np.zeros((qm1, q + 1), dtype=np.uint32)
    for r, group in groups.items():
        es = np.array([eu for eu, _ in group], dtype=np.int64)
        cs = np.array([c for _, c in group], dtype=np.uint32)
        cu = np.bitwise_xor.reduce(P.kmul_v(cs[:, None], S[es[:, None] * ls % (q + 1)]),
                                   axis=0)
        rk = r * k % qm1
        lo ^= P.f_exp[rk + P.f_log[cu & np.uint32(qm1)]]
        hi ^= P.f_exp[rk + P.f_log[cu >> np.uint32(m)]]
    acc = np.empty(q * q, dtype=np.uint32)
    acc[P.f_exp[k + log_a] | (P.f_exp[k + log_b] << np.uint32(m))] = lo | (hi << np.uint32(m))
    acc[0] = at_zero
    return acc


def evaluate_trace_form(params: FieldParams, terms, mode: str = "abs") -> BooleanFn:
    """Truth table of x -> Tr(sum c*x^e) ("abs") or tr(sum c*x^e) ("rel").

    `terms` is a list of (coeff K code, exponent).  In "rel" mode every sum
    must land in the base field F.
    """
    if mode not in ("abs", "rel"):
        raise BentError("mode must be 'abs' or 'rel'")
    acc = _eval_sparse(params, [(e, c) for c, e in terms])
    if mode == "abs":
        return BooleanFn(params, params.ktr_abs_v(acc).astype(np.uint8))
    if np.any(acc >> params.m):
        raise BentError("trace-form values left the base field")
    return BooleanFn(params, params.f_tr[acc].astype(np.uint8))


# ------------------------------------------------------------------- Walsh


@dataclass(frozen=True)
class WalshSpectrum:
    params: FieldParams
    values: np.ndarray  # int32, length 2^n, indexed by b code

    def is_bent(self) -> bool:
        return bool(np.all(np.abs(self.values) == self.params.q))

    def parseval_ok(self) -> bool:
        total = int((self.values.astype(np.int64) ** 2).sum())
        return total == (self.params.q ** 2) ** 2

    def summary(self) -> dict:
        return {"min": int(self.values.min()), "max": int(self.values.max()),
                "is_bent": self.is_bent()}

    def to_bytes(self) -> bytes:
        return self.values.astype("<i4").tobytes()


def _scalar_index_map(params: FieldParams) -> np.ndarray:
    """phi with tr(<b, x>) = standard_dot(phi[b], x); phi[b] = Gram * b."""
    n = params.n
    rows = params.dot_rows()
    idx = np.arange(params.q ** 2, dtype=np.int64)
    phi = np.zeros_like(idx)
    for i in range(n):
        phi ^= np.where((idx >> i) & 1, np.int64(rows[i]), 0)
    return phi


def walsh_spectrum(f: BooleanFn) -> WalshSpectrum:
    """Exact Walsh transform under the scalar product tr(<a, b>)."""
    v = (1 - 2 * f.table.astype(np.int32))
    h = 1
    n2 = len(v)
    while h < n2:
        v = v.reshape(-1, 2 * h)
        left = v[:, :h].copy()
        right = v[:, h:].copy()
        v[:, :h] = left + right
        v[:, h:] = left - right
        v = v.reshape(-1)
        h *= 2
    phi = _scalar_index_map(f.params)
    return WalshSpectrum(f.params, v[phi])


def walsh_naive(f: BooleanFn) -> WalshSpectrum:
    """Direct O(4^n) transform; cross-check for small m."""
    P = f.params
    n2 = P.q ** 2
    if n2 > 1 << 12:
        raise BentError("naive transform reserved for small fields")
    phi = _scalar_index_map(P)
    idx = np.arange(n2, dtype=np.int64)
    dots = np.bitwise_count(phi[:, None] & idx[None, :]) & 1
    signs = (1 - 2 * f.table.astype(np.int64))[None, :]
    vals = ((1 - 2 * dots.astype(np.int64)) * signs).sum(axis=1)
    return WalshSpectrum(P, vals.astype(np.int64))


def is_bent(f: BooleanFn) -> bool:
    return walsh_spectrum(f).is_bent()


def dual(f: BooleanFn) -> BooleanFn:
    """f~ with (-1)^{f~(x)} 2^{n/2} = W_f(x); requires f bent."""
    spec = walsh_spectrum(f)
    if not spec.is_bent():
        raise BentError("dual of a non-bent function")
    return BooleanFn(f.params, (spec.values < 0).astype(np.uint8))


@dataclass(frozen=True)
class DualLineOvalReport:
    zero_count: int
    expected_count: int
    sets_equal: bool

    @property
    def ok(self) -> bool:
        return self.sets_equal and self.zero_count == self.expected_count


def dual_lineoval_check(g) -> DualLineOvalReport:
    """Zeros of the dual equal E(O) for the line oval O = {L(u, g(u))}."""
    P = g.params
    f = bent_from_g(g)
    d = dual(f)
    zeros = set(np.flatnonzero(d.table == 0).tolist())
    covered = set(geometry.line_oval_points(g.lines()))
    return DualLineOvalReport(len(zeros), P.q * (P.q + 1) // 2, zeros == covered)


# ------------------------------------------------------ spread linearity


def _trace_dual_basis(params: FieldParams) -> list[int]:
    """d_0..d_{m-1} with tr(d_j * 2^k) = delta_jk; recovers c from tr(c*e_k)."""
    m = params.m
    # rows of A: A[j] has bit k = tr(e_j e_k)
    rows = []
    for j in range(m):
        mask = 0
        for k in range(m):
            if params.ftr(params.fmul(1 << j, 1 << k)):
                mask |= 1 << k
        rows.append(mask)
    # invert A over F_2 (columns of inverse give the dual basis coordinates)
    aug = [(rows[j], 1 << j) for j in range(m)]
    for col in range(m):
        piv = next(r for r in range(col, m) if aug[r][0] >> col & 1)
        aug[col], aug[piv] = aug[piv], aug[col]
        for r in range(m):
            if r != col and aug[r][0] >> col & 1:
                aug[r] = (aug[r][0] ^ aug[col][0], aug[r][1] ^ aug[col][1])
    inv_rows = [a[1] for a in aug]  # row j of A^{-1}
    dual_basis = []
    for j in range(m):
        d = 0
        for k in range(m):
            if inv_rows[k] >> j & 1:
                d ^= 1 << k
        dual_basis.append(d)
    # dual basis d_j satisfies tr(d_j e_k) = delta_jk
    for j in range(m):
        assert all(params.ftr(params.fmul(dual_basis[j], 1 << k)) == (j == k)
                   for k in range(m))
    return dual_basis


def recover_g_values(f: BooleanFn) -> np.ndarray | None:
    """g with f(lambda*u) = tr(lambda*g(u)) if f is linear on the spread.

    Returns the value table in unit-circle order, or None when some
    restriction of f to a spread line is not F_2-linear (or f(0) != 0).
    """
    P = f.params
    if f.table[0]:
        return None
    S = unit_circle(P)
    duals = _trace_dual_basis(P)
    vals = np.zeros(P.q + 1, dtype=np.uint32)
    lam = np.arange(1, P.q, dtype=np.uint32)
    for idx in range(P.q + 1):
        u = np.uint32(S.codes[idx])
        c = 0
        for k in range(P.m):
            if f.table[P.kmul(1 << k, int(u))]:
                c ^= duals[k]
        # verify linearity on the whole line
        if not np.array_equal(f.table[P.kmul_v(lam, u)],
                              P.f_tr[P.fmul_v(lam, np.uint32(c))]):
            return None
        vals[idx] = c
    return vals


# --------------------------------------------------------- univariate forms


@dataclass(frozen=True)
class NihoPolynomial:
    """Sparse polynomial over K whose evaluation is F_2-valued."""

    params: FieldParams
    terms: tuple[tuple[int, int], ...]  # (exponent, coeff K code), sorted

    def evaluate(self) -> BooleanFn:
        acc = _eval_sparse(self.params, self.terms)
        if np.any(acc > 1):
            raise BentError("polynomial is not F_2-valued")
        return BooleanFn(self.params, acc.astype(np.uint8))

    def exponents(self) -> list[int]:
        return [e for e, _ in self.terms]

    def to_json(self) -> str:
        return json.dumps([{"exp": e, "coeff_hex": self.params.k_hex(c)}
                           for e, c in self.terms])


def f_univariate(params: FieldParams, oval_codes) -> NihoPolynomial:
    """Niho polynomial of the bent function of an oval with nucleus 0.

    Coefficient of x^{i(q-1)+2^j} is sum_{v in O} v^{-(i(q-1)+2^j)}.  Only
    the q+1 sums b_i = sum_{v in O} v^{-(i(q-1)+1)} are formed: since
    2^j (i'(q-1)+1) = i(q-1)+2^j mod q^2-1 for i' = i*2^{-j} mod q+1, the
    coefficient is the Frobenius image b_{i'}^{2^j}.
    """
    O = np.asarray(oval_codes, dtype=np.uint32)
    q = params.q
    if len(O) != q + 1 or np.any(O == 0):
        raise BentError("need q+1 nonzero oval points")
    order = q * q - 1
    b = np.array([np.bitwise_xor.reduce(params.kpow_v(O, -(i * (q - 1) + 1) % order))
                  for i in range(q + 1)], dtype=np.uint32)
    i = np.arange(q + 1)
    terms = []
    for j in range(params.m):
        coeff = b[i * pow(2, -j, q + 1) % (q + 1)]   # b_{i'}^{2^j}
        terms += [(int(t) * (q - 1) + (1 << j), int(coeff[t])) for t in np.flatnonzero(coeff)]
        b = params.kmul_v(b, b)
    return NihoPolynomial(params, tuple(sorted(terms)))


def f_shift(g, s_index: int) -> NihoPolynomial:
    """Niho polynomial of the nucleus shift at s: f_univariate of the oval O_s."""
    from .gfun import shifted_oval_codes
    if not g.is_zero_free():
        raise BentError("g must be nowhere zero (apply fix_zeros first)")
    return f_univariate(g.params, shifted_oval_codes(g, s_index))


def f_monomial(params: FieldParams, s: int) -> BooleanFn:
    """tr(<i,x>^{1/s} <1,x>^{q-1/s}) for the o-monomial t^s (closed form)."""
    from .gf2m import exponent_inverse
    q = params.q
    si = exponent_inverse(s, q - 1)
    i = spread_i(params).code
    x = np.arange(q * q, dtype=np.uint32)
    a = params.bform_v(np.uint32(i), x)
    b = params.kT_v(x)  # <1, x>
    vals = params.fmul_v(params.fpow_v(a, si), params.fpow_v(b, q - si))
    return BooleanFn(params, params.f_tr[vals].astype(np.uint8))


def f_translation_forms(params: FieldParams, r: int, a_code: int | None = None
                        ) -> tuple[BooleanFn, BooleanFn]:
    """(piecewise form, Niho-exponent form) of the translation bent function.

    Piecewise: tr(sqrt(x conj x)) on F, tr(T(x^{1+2^{m-r}})/T(x^{2^{m-r}}))
    off F.  Niho form: Tr(a x^{q+1} + sum x^{d_i}) with 2^r d_i = (q-1)i + 2^r
    and T(a) = 1 (default a = i).
    """
    q, m, n = params.q, params.m, params.n
    if not 1 <= r < m:
        raise BentError("need 1 <= r < m")
    x = np.arange(q * q, dtype=np.uint32)
    e = 1 << ((m - r) % m)
    num = params.kT_v(params.kpow_v(x, 1 + e))
    den = params.kT_v(params.kpow_v(x, e))
    off_f = params.f_tr[params.fmul_v(num, params.finv_v(den, zero_to_zero=True))]
    lam = params.f_tr[np.array([params.fsqrt(params.knorm(int(c))) for c in range(q * q)],
                               dtype=np.uint32)]
    piecewise = BooleanFn(params, np.where(den == 0, lam, off_f).astype(np.uint8))

    if a_code is None:
        a_code = spread_i(params).code
    if params.kT(a_code) != 1:
        raise BentError("Niho form needs T(a) = 1")
    order = q * q - 1
    terms = [(a_code, q + 1)]
    for i in range(1, (1 << (r - 1))):
        d = ((q - 1) * i + (1 << r)) * pow(2, n - r, order) % order
        terms.append((1, d))
    niho = evaluate_trace_form(params, terms, mode="abs")
    return piecewise, niho


def f_translation(params: FieldParams, r: int) -> BooleanFn:
    """Translation-family bent function; both closed forms must agree."""
    piecewise, niho = f_translation_forms(params, r)
    if piecewise != niho:
        raise BentError("piecewise and Niho forms disagree")  # pragma: no cover
    return piecewise
