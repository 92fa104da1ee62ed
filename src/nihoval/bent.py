"""Niho bent functions: truth tables, Walsh spectra, duals, polynomial forms.

A function g on the unit circle S determines f(lambda*u) = tr(lambda*g(u)),
f(0) = 0, a Boolean function on K that is F_2-linear on every line u*F of the
Desarguesian spread.  Walsh transforms use the scalar product
a . b = tr(<a, b>) = standard_dot(G*a, b), G the symmetric Gram matrix, so
W_f is the standard Walsh-Hadamard transform of f o G^-1: the truth table is
gathered through the index permutation x -> G^-1*x (one table per field),
and the transform is a product of +-1 Hadamard blocks H_32 in float32, exact
because every partial sum is an integer of magnitude at most 2^(2m) <= 2^24
for m <= 12 (float64 past that).  f is bent iff every Walsh value is +-2^m, and then the dual f~ is
read off the signs; the zero set of the dual of a Niho bent function is
exactly E(O) for the line oval O = {L(u, g(u))}.

Univariate forms use Niho exponents i(q-1) + 2^j: from an oval with nucleus
at the origin the bent function is

    f(x) = sum_j sum_i ( sum_{v in O} v^{-(i(q-1)+2^j)} ) x^{i(q-1)+2^j}

and the nucleus shift at s is this polynomial for the shifted oval O_s
(gfun.shifted_oval_codes).  Only the q+1 sums for 2^j = 1 are formed
(gf2m.niho_power_sums); the others are their Frobenius images.

Every table on K is written in polar form x = lambda*u: f from g, g back
from f, and sparse polynomials.  The line traces tr(lambda_k * c_l) are read
from the trace m-sequence s_i = tr(f_exp[i]): since tr(lambda_k * c) =
s_(k + log c), a line is one window of s (gf2m.trace_windows), so f from g
is one row gather of the q+1 line windows and the zero window, and one
gather of those rows through gf2m.polar_index (the position of each K code
on the grid, built once per field).  The Niho power sums are gathered from
gf2m.polar_grid in row blocks, and F inverses are one gather from the
inverse table.  For x^e = lambda^(e mod q-1) * u^(e mod q+1) the terms are
summed on the q+1 points of S, one sum per residue of e mod q-1.  A Niho
polynomial is additive on every line u*F (each residue is a power 2^j), so
it is fixed by its m values f(2^k * u) per line: those are m*(q+1) K
products per residue, and f(lambda*u) = tr(lambda*gamma(u)) is spread over
the grid once, as f from g is.  The cost is terms*(q+1) + residues*m*(q+1)
+ q^2 instead of terms*q^2.  Trace forms take Niho exponents too: Tr(y)
and tr(y) of such a sum y are F_2-linear on every line, so they share the
m values per line (_line_values) and the spread.
Truth-table index order is the K code (a-bits low, b-bits high).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import geometry
from .gf2m import (FieldParams, gather, niho_power_sums, polar_grid, polar_index, spread_i,
                   trace_windows, unit_circle)
from .opoly import table_inverse


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
        if self.table.dtype != np.uint8 or self.table.max() > 1:
            raise BentError("truth table entries must be uint8 0s and 1s")

    def __eq__(self, other) -> bool:
        return (isinstance(other, BooleanFn) and self.params == other.params
                and np.array_equal(self.table, other.table))

    def __add__(self, other: "BooleanFn") -> "BooleanFn":
        return BooleanFn(self.params, self.table ^ other.table)

    def to_bits(self) -> bytes:
        return np.packbits(self.table, bitorder="little").tobytes()


def _spread_table(P: FieldParams, c) -> np.ndarray:
    """Truth table of f(lambda*u_l) = tr(lambda*c_l), f(0) = 0, for F values
    c_l indexed like S.

    Row l of the (q+2) x (q-1) rows is the window of the trace m-sequence
    at f_log[c_l] (gf2m.trace_windows), and the last row the zero window at
    f_log[0]; the table reads them through gf2m.polar_index by one gather.
    """
    rows = trace_windows(P)[P.f_log[np.append(c, 0)]]
    return gather(rows.reshape(-1), polar_index(P))


def bent_from_g(g) -> BooleanFn:
    """Truth table of f(lambda*u) = tr(lambda*g(u)), f(0) = 0."""
    return BooleanFn(g.params, _spread_table(g.params, g.values))


def _residue_sums(P: FieldParams, terms) -> dict[int, np.ndarray]:
    """{r: c_r} with c_r(u) = sum c*u^e over the terms (e, c) with e = r mod q-1.

    In polar form x = lambda*u (lambda in F*, u in S) a term is
    c*x^e = lambda^(e mod q-1) * c*u^(e mod q+1), so c_r is a K value per
    point of S (unit_circle order), formed by index gathers into the circle.
    """
    q = P.q
    S = unit_circle(P).codes
    ls = np.arange(q + 1, dtype=np.int64)
    groups: dict[int, list] = {}
    for e, c in terms:
        groups.setdefault(e % (q - 1), []).append((e % (q + 1), c))
    sums = {}
    for r, group in groups.items():
        es = np.array([eu for eu, _ in group], dtype=np.int64)
        cs = np.array([c for _, c in group], dtype=np.uint32)
        sums[r] = np.bitwise_xor.reduce(P.kmul_v(cs[:, None], S[es[:, None] * ls % (q + 1)]),
                                        axis=0)
    return sums


def _line_values(P: FieldParams, terms) -> np.ndarray:
    """The (m, q+1) K values y(e_k * u_l), e_k = 2^k, of y(x) = sum c*x^e
    over the (e, c) terms, u_l in unit_circle order.

    Every exponent must be a Niho exponent, e >= 1 with e = 2^j mod q-1,
    so that x^e at x = lambda*u is lambda^(2^j) * u^e and y(lambda*u) is
    F_2-linear in lambda: the m values per line fix y on the whole line.
    They are m*(q+1) K products per residue sum (_residue_sums).
    """
    residues = {(1 << j) % (P.q - 1) for j in range(P.m)}
    for e, _ in terms:
        if e < 1 or e % (P.q - 1) not in residues:
            raise BentError(f"exponent {e} is not a Niho exponent")
    e_k = np.uint32(1) << np.arange(P.m, dtype=np.uint32)
    vals = np.zeros((P.m, P.q + 1), dtype=np.uint32)
    for r, c_r in _residue_sums(P, terms).items():
        vals ^= P.kmul_v(P.fpow_v(e_k, r)[:, None], c_r)
    return vals


def evaluate_trace_form(params: FieldParams, terms, mode: str = "abs") -> BooleanFn:
    """Truth table of x -> Tr(sum c*x^e) ("abs") or tr(sum c*x^e) ("rel").

    `terms` is a list of (coeff K code, exponent), every exponent a Niho
    exponent.  y(lambda*u) is F_2-linear in lambda, so either trace is fixed
    by its m values per line (_line_values) and spread as in
    NihoPolynomial.evaluate.  In "rel" mode every sum must land in the base
    field F, and a line maps into F exactly when its m basis values do.
    """
    if mode not in ("abs", "rel"):
        raise BentError("mode must be 'abs' or 'rel'")
    P = params
    vals = _line_values(P, [(e, c) for c, e in terms])
    if mode == "abs":
        bits = P.ktr_abs_v(vals)
    elif np.any(vals >> P.m):
        raise BentError("trace-form values left the base field")
    else:
        bits = P.f_tr[vals]
    return BooleanFn(P, _spread_table(P, _from_basis_traces(P, bits)))


# ------------------------------------------------------------------- Walsh


@dataclass(frozen=True)
class WalshSpectrum:
    params: FieldParams
    values: np.ndarray  # int32, length 2^n, indexed by b code

    def is_bent(self) -> bool:
        return bool(np.all(np.abs(self.values) == self.params.q))

    def summary(self) -> dict:
        return {"min": int(self.values.min()), "max": int(self.values.max()),
                "is_bent": self.is_bent()}

    def to_bytes(self) -> bytes:
        return self.values.astype("<i4").tobytes()


@lru_cache(maxsize=None)
def _scalar_index_inverse(params: FieldParams) -> np.ndarray:
    """phi^-1 for phi[b] = Gram * b, the map with tr(<b, x>) =
    standard_dot(phi[b], x).

    phi is filled by doubling from the Gram row masks, phi[2^j : 2^(j+1)] =
    phi[:2^j] ^ rows[j], and inverted by one scatter: it is a permutation
    since the scalar product is nondegenerate.  Built once per field and
    shared, so the int32 array is read-only.
    """
    phi = np.zeros(params.q ** 2, dtype=np.int32)
    for j, row in enumerate(params.dot_rows()):
        h = 1 << j
        np.bitwise_xor(phi[:h], np.int32(row), out=phi[h:2 * h])
    inv = np.empty_like(phi)
    inv[phi] = np.arange(len(phi), dtype=np.int32)
    inv.flags.writeable = False
    return inv


# multiply-adds per matrix product: OpenBLAS runs a product of this size or
# less on the calling thread and allocates no thread buffers for it
_MAX_PRODUCT = 1 << 18


def _sum_dtype(n: int):
    """Float dtype of the Walsh sums of a +-1 vector of length 2^n.  Every
    partial sum is an integer of magnitude at most 2^n, and float32 holds
    every integer up to 2^24 exactly: float32 while n <= 24."""
    return np.float32 if n <= 24 else np.float64


@lru_cache(maxsize=None)
def _hadamard(k: int, dtype) -> np.ndarray:
    """The Sylvester matrix H_(2^k), entries +-1; shared, so read-only."""
    h = np.ones((1, 1), dtype=dtype)
    for _ in range(k):
        h = np.block([[h, h], [h, -h]])
    h.flags.writeable = False
    return h


def _bit_groups(n: int) -> list[int]:
    """n index bits in groups of at most 5, as equal as possible, low first."""
    g = -(-n // 5)
    return [n // g + (i < n % g) for i in range(g)]


def _hadamard_transform(v: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform of a float vector of length 2^n.

    H_(2^n) is the Kronecker product of one H_(2^k) per bit group, so the
    transform multiplies along each group in turn: the lowest group as
    (rows, d) @ H blocks of the vector, each later group as H @ (d, cols)
    blocks of its (high, d, low) view, d = 2^k.  Every product has at most
    _MAX_PRODUCT multiply-adds, and the passes ping-pong between v (which
    is overwritten) and one buffer.
    """
    out = np.empty_like(v)
    low = 1
    for k in _bit_groups(len(v).bit_length() - 1):
        d = 1 << k
        H = _hadamard(k, v.dtype)
        block = _MAX_PRODUCT >> 2 * k  # rows or columns per product
        if low == 1:
            rows = min(block, len(v) >> k)
            np.matmul(v.reshape(-1, rows, d), H, out=out.reshape(-1, rows, d))
        else:
            cols = min(block, low)
            x, y = (a.reshape(-1, d, low // cols, cols).transpose(0, 2, 1, 3) for a in (v, out))
            np.matmul(H, x, out=y)
        v, out = out, v
        low <<= k
    return v


def walsh_spectrum(f: BooleanFn) -> WalshSpectrum:
    """Exact Walsh transform under the scalar product tr(<a, b>).

    tr(<b, x>) = standard_dot(b, phi(x)) since the Gram matrix is symmetric,
    so W(b) is the standard transform of f o phi^-1 at b: the 1-byte table
    is gathered through phi^-1, and the spectrum comes out in b order.
    """
    P = f.params
    v = gather(f.table, _scalar_index_inverse(P)).astype(_sum_dtype(P.n))
    v *= -2
    v += 1
    return WalshSpectrum(P, _hadamard_transform(v).astype(np.int32))


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
    covered = set(geometry.line_oval_points(P, g.S.codes, g.values))
    return DualLineOvalReport(len(zeros), P.q * (P.q + 1) // 2, zeros == covered)


# ------------------------------------------------------ spread linearity


@lru_cache(maxsize=None)
def _trace_coords_inverse(params: FieldParams) -> np.ndarray:
    """The inverse of sig(c) = sum_k tr(c * 2^k) * 2^k, the trace coordinates
    of c on the power basis e_k = 2^k.

    sig is a permutation of F since the trace form is nondegenerate, so the
    trace dual basis is d_j = sig^-1[2^j].  Built once per field and shared,
    so the table is read-only.
    """
    P = params
    c = np.arange(P.q, dtype=np.uint32)
    sig = np.zeros(P.q, dtype=np.uint32)
    for k in range(P.m):
        sig |= P.f_tr[P.fmul_v(c, np.uint32(1 << k))].astype(np.uint32) << np.uint32(k)
    inv = table_inverse(sig)
    inv.flags.writeable = False
    return inv


def _from_basis_traces(P: FieldParams, bits) -> np.ndarray:
    """c_l = sig^-1[sum_k bits[k, l] * 2^k]: the F values with tr(e_k * c_l) =
    bits[k, l] on the power basis e_k = 2^k, for an (m, n) array of 0/1."""
    return _trace_coords_inverse(P)[(1 << np.arange(P.m)) @ bits]


def recover_g_values(f: BooleanFn) -> np.ndarray | None:
    """g with f(lambda*u) = tr(lambda*g(u)) if f is linear on the spread.

    Returns the value table in unit-circle order, or None when some
    restriction of f to a spread line is not F_2-linear (or f(0) != 0).
    g(u) is the element whose trace coordinates on the power basis are the
    values f(2^j * u), one gather from the inverse trace-coordinate table;
    only those m rows of the grid are read.  f is linear on every line with
    f(0) = 0 exactly when it is the spread of that g.
    """
    P = f.params
    basis = f.table[polar_grid(P)[P.f_log[1 << np.arange(P.m)]]]  # f(e_j * u_l)
    vals = _from_basis_traces(P, basis)
    return vals if np.array_equal(f.table, _spread_table(P, vals)) else None


# --------------------------------------------------------- univariate forms


@dataclass(frozen=True)
class NihoPolynomial:
    """Sparse polynomial over K whose evaluation is F_2-valued."""

    params: FieldParams
    terms: tuple[tuple[int, int], ...]  # (exponent, coeff K code), sorted

    def evaluate(self) -> BooleanFn:
        """Truth table from the m values f(e_k*u) on the F basis of each line.

        Every exponent must be a Niho exponent (_line_values).  The values
        f(e_k*u), e_k = 2^k, must lie in F_2; then f(lambda*u) =
        tr(lambda*gamma(u)), gamma(u) the element whose trace coordinates on
        the power basis are the f(e_k*u), read from the inverse table of the
        trace-coordinate map as in recover_g_values.
        """
        P = self.params
        basis = _line_values(P, self.terms)  # f(e_k * u_l)
        if np.any(basis > 1):
            raise BentError("polynomial is not F_2-valued")
        return BooleanFn(P, _spread_table(P, _from_basis_traces(P, basis)))

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
    b = niho_power_sums(params, O)
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


def f_translation_forms(params: FieldParams, r: int) -> tuple[BooleanFn, BooleanFn]:
    """(piecewise form, Niho-exponent form) of the translation bent function.

    Piecewise: tr(sqrt(x conj x)) on F, tr(T(x^{1+2^{m-r}})/T(x^{2^{m-r}}))
    off F.  Niho form: Tr(a x^{q+1} + sum x^{d_i}) with 2^r d_i = (q-1)i + 2^r
    and a = i, so T(a) = 1.
    """
    q, m, n = params.q, params.m, params.n
    if not 1 <= r < m:
        raise BentError("need 1 <= r < m")
    x = np.arange(q * q, dtype=np.uint32)
    e = 1 << ((m - r) % m)
    num = params.kT_v(params.kpow_v(x, 1 + e))
    den = params.kT_v(params.kpow_v(x, e))
    off_f = params.f_tr[params.fmul_v(num, params.finv_v(den, zero_to_zero=True))]
    lam = _spread_table(params, np.ones(q + 1, np.uint32))  # tr(lambda) at x = lambda*u
    piecewise = BooleanFn(params, np.where(den == 0, lam, off_f).astype(np.uint8))

    order = q * q - 1
    terms = [(spread_i(params), q + 1)]
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
