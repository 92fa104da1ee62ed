"""Exact arithmetic for F = GF(2^m) and its quadratic extension K = GF(2^{2m}).

Elements of F are m-bit integers (coefficient vectors in the power basis of a
fixed irreducible modulus).  K is represented as F[z]/(z^2 + z + delta) with
tr(delta) = 1, so an element of K is a code  a | (b << m)  meaning a + b*z.
In this basis the structure maps are one-liners:

    conj(a + b*z) = (a + b) + b*z          (conjugation x -> x^q)
    T(a + b*z)    = b                      (trace K -> F)
    N(a + b*z)    = a^2 + a*b + delta*b^2  (norm  K -> F)
    <x, y>        = T(x * conj(y))         (alternating bilinear form)

The unit circle S = {u : u * conj(u) = 1} is the group of (q+1)st roots of
unity; every nonzero x in K factors uniquely as x = lambda * u with lambda in
F* and u in S.  This polar map is kept in one place: polar_grid lists the
codes lambda_k * u_l, polar_v inverts it on the F tables (the oval -> g
read-off of gfun), and niho_power_sums forms the power sums over an oval that
the Niho coefficients are made of, as one flat int32 gather from the grid.
trace_windows holds the trace m-sequence s_i = tr(f_exp[i]), so
tr(lambda_k * c) for all k is one window of it, at f_log[c].

Multiplication uses exp/log tables (built on the least generator of F*, so
any irreducible modulus works), and inversion an inverse table, so finv_v
is one gather.  Field elements are plain int codes throughout, with no
element class: scalar operations take and return ints, and the *_v methods
operate on numpy arrays of codes and back all bulk computation in the other
modules.  Tables for K are built lazily and are kept for m <= 10; scalar K
arithmetic works for any m <= 16.  The K exp table is filled by doubling,
exp[n:2n] = exp[:n] * g^n with the products taken on the F tables, so it
costs about log2(q^2) vectorized multiplies instead of q^2 scalar ones; the
log table is its inverse permutation.  No Frobenius table is kept for K
(F keeps one per power, m arrays of q entries).
"""

from __future__ import annotations

import json
import operator
from functools import lru_cache

import numpy as np

# Least primitive polynomial of each degree, bit i = coefficient of x^i.
DEFAULT_MODULI = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011101,
    9: 0b1000010001,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000001010011,
    13: 0b10000000011011,
    14: 0b100000000101011,
    15: 0b1000000000000011,
    16: 0b10000000000101101,
}

MAX_M = 16
# K exp/log tables need q^2 entries; past this they stop being worth it.
K_TABLE_MAX_M = 10


class FieldError(ValueError):
    """Invalid field construction or arithmetic request."""


def _gf2_mulmod(a: int, b: int, modulus: int, m: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if (a >> m) & 1:
            a ^= modulus
    return r


def _gf2_mod(a: int, b: int) -> int:
    """a mod b for GF(2)[x] polynomials as bit masks."""
    db = b.bit_length()
    while a.bit_length() >= db:
        a ^= b << (a.bit_length() - db)
    return a


def is_irreducible(modulus: int, m: int) -> bool:
    """Check irreducibility of a degree-m polynomial over GF(2).

    A reducible polynomial of degree m has a factor of degree at most m/2, so
    trial division by every such polynomial decides it (at most 2^(m/2+1)
    divisors).
    """
    if modulus >> m != 1:
        return False
    return all(_gf2_mod(modulus, d) for d in range(2, 2 << (m // 2)))


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def exponent_inverse(e: int, modulus: int) -> int:
    """Inverse of e modulo `modulus` as the canonical residue in [0, modulus).

    Raises FieldError when gcd(e, modulus) != 1.
    """
    e %= modulus
    try:
        return pow(e, -1, modulus)
    except ValueError as exc:
        raise FieldError(f"{e} is not invertible modulo {modulus}") from exc


def _pow_v(exp: np.ndarray, log: np.ndarray, order: int, x, e: int):
    """x^e on the exp/log tables of a cyclic group of the given order, with
    0^0 = 1 and 0^e = 0 for e != 0; e may be negative.

    The log product is formed in int64: the log of 0 is 2*order, so
    log * (e mod order) passes 2^31 once the order passes 2^15.
    """
    if e == 0:
        return np.ones_like(np.asarray(x), dtype=np.uint32)
    vals = exp[log[x].astype(np.int64) * (e % order) % order]
    return np.where(np.asarray(x) == 0, 0, vals)


class FieldParams:
    """Parameters and lookup tables for F = GF(2^m) and K = GF(2^{2m}).

    Scalar arithmetic methods take/return plain int codes.  The *_v variants
    take numpy integer arrays of codes (any shape) and are fully vectorized.
    """

    def __init__(self, m: int, modulus: int | None = None):
        if not 1 <= m <= MAX_M:
            raise FieldError(f"m must be in [1, {MAX_M}], got {m}")
        if modulus is None:
            modulus = DEFAULT_MODULI[m]
        if not is_irreducible(modulus, m):
            raise FieldError(f"modulus {modulus:#x} is not irreducible of degree {m}")
        self.m = m
        self.n = 2 * m
        self.q = 1 << m
        self.modulus = modulus
        self._build_f_tables()

        # delta: least element with absolute trace 1 (z^2 + z + delta irreducible).
        self.delta = int(np.flatnonzero(self.f_tr)[0])
        assert self.f_tr[self.delta] == 1

        # K tables are lazy; scalar K ops only need the F tables.
        self._k_built = False
        self._gen_k: int | None = None
        self._bform_rows: np.ndarray | None = None

    # ------------------------------------------------------------------ F

    def _build_f_tables(self) -> None:
        q, m = self.q, self.m
        qm1 = q - 1

        def raw_pow(a: int, e: int) -> int:
            r = 1
            while e:
                if e & 1:
                    r = _gf2_mulmod(r, a, self.modulus, m)
                a = _gf2_mulmod(a, a, self.modulus, m)
                e >>= 1
            return r

        primes = factorize(qm1) if qm1 > 1 else []
        gen = 1
        for cand in range(2, q):
            if all(raw_pow(cand, qm1 // p) != 1 for p in primes):
                gen = cand
                break
        self.f_generator = gen

        exp = np.zeros(4 * qm1 + 1, dtype=np.uint32)
        log = np.zeros(q, dtype=np.uint32)
        x = 1
        for k in range(qm1):
            exp[k] = x
            log[x] = k
            x = _gf2_mulmod(x, gen, self.modulus, m)
        if x != 1 or len(set(exp[:qm1].tolist())) != qm1:
            raise FieldError("exp/log table construction failed")  # pragma: no cover
        exp[qm1:2 * qm1] = exp[:qm1]
        # log[0] points past the duplicated cycle so that any product with a
        # zero factor lands in the zero-filled tail: branch-free multiply.
        log[0] = 2 * qm1
        self.f_exp = exp
        self.f_log = log
        inv = np.zeros(q, dtype=np.uint32)
        inv[1:] = exp[qm1 - log[1:]]
        self.f_inv = inv
        # Frobenius tables frob[j][a] = a^(2^j), j in [0, m).
        sq = np.array([self.fmul(a, a) for a in range(q)], dtype=np.uint32)
        frob = [np.arange(q, dtype=np.uint32)]
        for _ in range(1, m):
            frob.append(sq[frob[-1]])
        self.f_frob = frob
        tr = np.zeros(q, dtype=np.uint8)
        acc = np.arange(q, dtype=np.uint32)
        t = np.arange(q, dtype=np.uint32)
        for _ in range(m - 1):
            t = sq[t]
            acc = acc ^ t
        if not np.all((acc == 0) | (acc == 1)):
            raise FieldError("trace computation failed (bad modulus?)")
        tr[:] = acc
        self.f_tr = tr

    def fmul(self, a: int, b: int) -> int:
        return int(self.f_exp[self.f_log[a] + self.f_log[b]])

    def finv(self, a: int) -> int:
        if a == 0:
            raise FieldError("inverse of 0")
        return int(self.f_inv[a])

    def fpow(self, a: int, e: int) -> int:
        """a^e with the polynomial convention 0^0 = 1, 0^e = 0 for e != 0."""
        if a == 0:
            return 1 if e == 0 else 0
        r = e % (self.q - 1)
        return int(self.f_exp[int(self.f_log[a]) * r % (self.q - 1)])

    def fsqrt(self, a: int) -> int:
        return self.fpow(a, 1 << (self.m - 1)) if a else 0

    def ftr(self, a: int) -> int:
        return int(self.f_tr[a])

    def fmul_v(self, a, b):
        return self.f_exp[self.f_log[a] + self.f_log[b]]

    def finv_v(self, a, zero_to_zero: bool = False):
        if not zero_to_zero and np.any(a == 0):
            raise FieldError("inverse of 0")
        return self.f_inv[a]

    def fpow_v(self, a, e: int):
        """Vectorized a^e (0 maps to 0 for e != 0, to 1 for e = 0)."""
        return _pow_v(self.f_exp, self.f_log, self.q - 1, a, e)

    # ------------------------------------------------------------------ K

    def ksplit(self, x: int) -> tuple[int, int]:
        return x & (self.q - 1), x >> self.m

    def kconj(self, x: int) -> int:
        return x ^ (x >> self.m)

    def kT(self, x: int) -> int:
        """Relative trace T(x) = x + conj(x), an element of F."""
        return x >> self.m

    def knorm(self, x: int) -> int:
        a, b = self.ksplit(x)
        return self.fmul(a, a) ^ self.fmul(a, b) ^ self.fmul(self.delta, self.fmul(b, b))

    def kmul(self, x: int, y: int) -> int:
        a, b = self.ksplit(x)
        c, d = self.ksplit(y)
        bd = self.fmul(b, d)
        lo = self.fmul(a, c) ^ self.fmul(self.delta, bd)
        hi = self.fmul(a, d) ^ self.fmul(b, c) ^ bd
        return lo | (hi << self.m)

    def ksq(self, x: int) -> int:
        a, b = self.ksplit(x)
        b2 = self.fmul(b, b)
        return (self.fmul(a, a) ^ self.fmul(self.delta, b2)) | (b2 << self.m)

    def kpow(self, x: int, e: int) -> int:
        """x^e in K with 0^0 = 1, 0^e = 0; e reduced mod q^2 - 1."""
        if x == 0:
            return 1 if e == 0 else 0
        e %= (self.q * self.q - 1)
        r = 1
        base = x
        while e:
            if e & 1:
                r = self.kmul(r, base)
            base = self.ksq(base)
            e >>= 1
        return r

    def ksqrt(self, x: int) -> int:
        a, b = self.ksplit(x)
        # sqrt is the inverse of squaring: solve a = s^2 + delta t^2, b = t^2.
        t = self.fsqrt(b)
        s = self.fsqrt(a ^ self.fmul(self.delta, b))
        return s | (t << self.m)

    def bform(self, x: int, y: int) -> int:
        """<x, y> = T(x * conj(y)), an element of F."""
        return self.kT(self.kmul(x, self.kconj(y)))

    def _ensure_k_tables(self) -> None:
        if self._k_built:
            return
        if self.m > K_TABLE_MAX_M:
            raise FieldError(f"K exp/log tables unavailable for m > {K_TABLE_MAX_M}")
        q2 = self.q * self.q
        order = q2 - 1
        g = self.k_generator()
        exp = np.zeros(4 * order + 1, dtype=np.uint32)
        log = np.zeros(q2, dtype=np.uint32)
        # Doubling: exp[n:2n] = exp[:n] * g^n, multiplied on the F tables
        # (kmul_v falls back to them until _k_built is set).
        exp[0] = 1
        n = 1
        while n < order:
            step = min(n, order - n)
            exp[n:n + step] = self.kmul_v(exp[:step], np.uint32(self.kmul(int(exp[n - 1]), g)))
            n += step
        assert self.kmul(int(exp[order - 1]), g) == 1
        exp[order:2 * order] = exp[:order]
        log[exp[:order]] = np.arange(order, dtype=np.uint32)
        log[0] = 2 * order
        self.k_exp = exp
        self.k_log = log
        self._k_built = True

    def k_generator(self) -> int:
        """Least code generating the multiplicative group of K.

        The search starts at q: the codes below it are F, whose elements
        have orders dividing q-1.
        """
        if self._gen_k is not None:
            return self._gen_k
        order = self.q * self.q - 1
        primes = factorize(order)
        for cand in range(self.q, order + 1):
            if all(self.kpow(cand, order // p) != 1 for p in primes):
                self._gen_k = cand
                return cand
        raise FieldError("no generator found")  # pragma: no cover

    def kmul_v(self, x, y):
        if self._k_built:
            return self.k_exp[self.k_log[x] + self.k_log[y]]
        a, b = x & (self.q - 1), x >> self.m
        c, d = y & (self.q - 1), y >> self.m
        bd = self.fmul_v(b, d)
        lo = self.fmul_v(a, c) ^ self.fmul_v(np.uint32(self.delta), bd)
        hi = self.fmul_v(a, d) ^ self.fmul_v(b, c) ^ bd
        return lo | (hi << np.uint32(self.m))

    def kinv_v(self, x, zero_to_zero: bool = False):
        self._ensure_k_tables()
        if not zero_to_zero and np.any(x == 0):
            raise FieldError("inverse of 0")
        # g^(order - log x) lies in the doubled cycle; the log of 0, 2*order,
        # reads index -order, in the zero-filled tail: no reduction, no mask
        return self.k_exp[np.subtract(self.q * self.q - 1, self.k_log[x], dtype=np.intp)]

    def kpow_v(self, x, e: int):
        """Vectorized x^e (0 maps to 0 for e != 0, to 1 for e = 0)."""
        if e == 0:
            return np.ones_like(np.asarray(x), dtype=np.uint32)
        self._ensure_k_tables()
        return _pow_v(self.k_exp, self.k_log, self.q * self.q - 1, x, e)

    def kconj_v(self, x):
        return x ^ (x >> np.uint32(self.m))

    def kT_v(self, x):
        return x >> np.uint32(self.m)

    def bform_v(self, x, y):
        return self.kT_v(self.kmul_v(x, self.kconj_v(y)))

    def ktr_abs_v(self, x):
        """Absolute trace Tr(x) = tr(T(x))."""
        return self.f_tr[x >> np.uint32(self.m)]

    # --------------------------------------------------------- scalar prod

    def dot_rows(self) -> np.ndarray:
        """Row masks of the Gram matrix of (x, y) -> tr(<x, y>) on F_2^n.

        rows[i] has bit j set iff tr(<e_i, e_j>) = 1 for the code basis
        e_k = 1 << k; then tr(<b, x>) = parity(popcount(rows_combined(b) & x)).
        """
        if self._bform_rows is None:
            n = self.n
            rows = np.zeros(n, dtype=np.uint32)
            for i in range(n):
                mask = 0
                for j in range(n):
                    if self.f_tr[self.bform(1 << i, 1 << j)]:
                        mask |= 1 << j
                rows[i] = mask
            self._bform_rows = rows
        return self._bform_rows

    # -------------------------------------------------------------- misc

    def f_hex(self, a: int) -> str:
        return format(a, f"0{(self.m + 3) // 4}x")

    def k_hex(self, x: int) -> str:
        return format(x, f"0{(self.n + 3) // 4}x")

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "modulus_bits": self.modulus,
                           "delta_bits": self.delta}, sort_keys=True)

    def __repr__(self) -> str:
        return f"FieldParams(m={self.m}, modulus={self.modulus:#x})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldParams)
                and (self.m, self.modulus) == (other.m, other.modulus))

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))


@lru_cache(maxsize=None)
def field_create(m: int, modulus: int | None = None) -> FieldParams:
    """Create (and cache) field parameters for GF(2^m) / GF(2^{2m})."""
    return FieldParams(m, modulus)


class UnitCircle:
    """The group S of (q+1)st roots of unity, enumerated as powers of w.

    w = v^(q-1) for the least generator v of K*, so the ordering (and with it
    every serialized g-function table) is deterministic.
    """

    def __init__(self, params: FieldParams):
        self.params = params
        q = params.q
        w = params.kpow(params.k_generator(), q - 1)
        self.w_code = w
        codes = np.zeros(q + 1, dtype=np.uint32)
        x = 1
        for k in range(q + 1):
            codes[k] = x
            x = params.kmul(x, w)
        if x != 1 or len(set(codes.tolist())) != q + 1:
            raise FieldError("unit circle enumeration failed")
        self.codes = codes
        self._order = np.argsort(codes)

    def __len__(self) -> int:
        return self.params.q + 1

    def element(self, k: int) -> int:
        return int(self.codes[k % len(self)])

    def _positions(self, codes) -> np.ndarray:
        """Index k with codes[k] nearest above each code; exact for codes on S."""
        pos = np.searchsorted(self.codes, codes, sorter=self._order)
        return self._order[np.minimum(pos, self.params.q)]

    def index(self, u) -> int:
        """Position of u on S; u is any int-like K code."""
        code = operator.index(u)
        if 0 <= code < self.params.q ** 2:
            k = int(self._positions(code))
            if self.codes[k] == code:
                return k
        raise FieldError(f"element {code} is not on the unit circle")

    def omega(self) -> int:
        """A primitive cube root of unity w^((q+1)/3); needs 3 | q+1 (m odd)."""
        if (self.params.q + 1) % 3:
            raise FieldError("q+1 not divisible by 3 (m must be odd)")
        return self.element((self.params.q + 1) // 3)


@lru_cache(maxsize=None)
def unit_circle(params: FieldParams) -> UnitCircle:
    return UnitCircle(params)


@lru_cache(maxsize=None)
def polar_grid(params: FieldParams) -> np.ndarray:
    """Codes of lambda_k * u_l on the (q-1) x (q+1) grid, lambda_k = f_exp[k]
    and u_l = unit_circle(params).codes[l]; each nonzero code appears once.

    Built once per field and shared, so the uint32 array is read-only.
    """
    P = params
    S = unit_circle(P).codes
    k = np.arange(P.q - 1, dtype=np.uint32)[:, None]
    grid = P.f_exp[k + P.f_log[S >> np.uint32(P.m)]]
    grid <<= np.uint32(P.m)
    grid |= P.f_exp[k + P.f_log[S & np.uint32(P.q - 1)]]
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=None)
def trace_windows(params: FieldParams) -> np.ndarray:
    """Sliding windows of s||s||0, s_i = tr(f_exp[i]) the trace m-sequence.

    Row j holds the q-1 values s_j..s_{j+q-2}, so row f_log[c] holds
    tr(lambda_k * c) for k = 0..q-2: s has period q-1, and f_log[0] = 2(q-1)
    selects the zero window.  The 3(q-1) bytes are built once per field and
    shared, so the view is read-only.
    """
    qm1 = params.q - 1
    s = params.f_tr[params.f_exp[:qm1]]
    seq = np.concatenate([s, s, np.zeros(qm1, dtype=np.uint8)])
    return np.lib.stride_tricks.sliding_window_view(seq, qm1)


def polar_v(params: FieldParams, x) -> tuple[np.ndarray, np.ndarray]:
    """(k, l) with x = f_exp[k] * unit_circle(params).codes[l] for nonzero K codes.

    lambda = sqrt(N(x)) and u = x/lambda are formed on the F tables (halving
    a log is multiplying it by 2^(m-1) mod q-1); u is found on S by binary
    search.  Works elementwise on arrays of any shape.
    """
    P = params
    qm1 = P.q - 1
    x = np.asarray(x, dtype=np.uint32)
    if np.any(x == 0):
        raise FieldError("polar decomposition of 0")
    a, b = x & np.uint32(qm1), x >> np.uint32(P.m)
    norm = P.fmul_v(a, a ^ b) ^ P.fmul_v(np.uint32(P.delta), P.fmul_v(b, b))
    k = P.f_log[norm].astype(np.int64) * (1 << (P.m - 1)) % qm1
    inv = P.f_exp[qm1 - k]
    u = P.fmul_v(a, inv) | (P.fmul_v(b, inv) << np.uint32(P.m))
    return k, unit_circle(P)._positions(u)


def niho_power_sums(params: FieldParams, oval_codes) -> np.ndarray:
    """b_t = sum_{v in O} v^-(t(q-1)+1) = sum_v lambda_v^-1 u_v^(2t-1), t = 0..q.

    With v = lambda_v * u_v every term is a point of the polar grid, at row
    -k_v and column (2t-1)*l_v mod q+1, so the (q+1)^2 terms are one gather
    from the flattened grid.  Its flat indices are built in place, in int32
    while every intermediate stays below 2^31 (m <= 14), in int64 past that.
    """
    q = params.q
    k, l = polar_v(params, oval_codes)
    dtype = np.int32 if (2 * q + 1) * (q + 1) < 1 << 31 else np.int64
    idx = np.arange(-1, 2 * q, 2, dtype=dtype)[:, None] * l.astype(dtype)
    idx %= q + 1
    idx += ((q - 1 - k) % (q - 1) * (q + 1)).astype(dtype)
    terms = polar_grid(params).reshape(-1)[idx]
    return np.bitwise_xor.reduce(terms, axis=1)


def spread_i(params: FieldParams) -> int:
    """The distinguished element i with T(i) = 1 used by all formulas.

    For odd m this is omega = w^((q+1)/3) (a cube root of unity); for even m
    it is the basis element z of the quadratic representation.
    """
    if params.m % 2:
        i = unit_circle(params).omega()
    else:
        i = 1 << params.m
    assert params.kT(i) == 1
    return i
