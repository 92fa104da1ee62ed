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
F* and u in S (polar decomposition).

Multiplication uses exp/log tables (built on a primitive modulus so that x
itself generates F*).  Scalar operations work on plain ints; the *_v methods
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
from dataclasses import dataclass
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


def is_irreducible(modulus: int, m: int) -> bool:
    """Check irreducibility of a degree-m polynomial over GF(2).

    Uses x^(2^m) == x (mod p) together with x^(2^d) != x for every proper
    divisor d of m; for degree-m polynomials this is exactly irreducibility.
    """
    if modulus >> m != 1:
        return False
    if m == 1:
        return True
    if not modulus & 1:  # divisible by x
        return False
    x = 2
    t = x
    powers = {}
    for k in range(1, m + 1):
        t = _gf2_mulmod(t, t, modulus, m)
        powers[k] = t
    if powers[m] != x:
        return False
    for d in range(1, m):
        if m % d == 0 and powers[d] == x:
            return False
    return True


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


def exponent_reduce(e: int, modulus: int) -> int:
    """Canonical non-negative residue of a (possibly huge/negative) exponent."""
    return e % modulus


def one_minus_2r_inverse(r: int, m: int) -> int:
    """(1 - 2^r)^{-1} mod 2^m - 1 via the closed form -sum_{j<s} 2^{rj}.

    Here s is the inverse of r modulo m.  Requires gcd(r, m) = 1.
    """
    q1 = (1 << m) - 1
    s = exponent_inverse(r, m)
    total = -sum(1 << (r * j % m) for j in range(s))  # 2^{rj} mod 2^m-1 = 2^{rj mod m}
    return total % q1


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
        self._artin_f: dict[int, int] | None = None
        self._artin_k: dict[int, int] | None = None
        self._gen_k: int | None = None
        self._ext_eta: int | None = None
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
        return int(self.f_exp[self.q - 1 - self.f_log[a]])

    def fdiv(self, a: int, b: int) -> int:
        return self.fmul(a, self.finv(b))

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
        r = self.f_exp[(self.q - 1 - self.f_log[a].astype(np.int64)) % (self.q - 1)]
        return np.where(a == 0, 0, r).astype(np.uint32)

    def fpow_v(self, a, e: int):
        """Vectorized a^e (0 maps to 0 for e > 0, to 1 for e = 0)."""
        if e == 0:
            return np.ones_like(np.asarray(a), dtype=np.uint32)
        r = e % (self.q - 1)
        vals = self.f_exp[self.f_log[a].astype(np.int64) * r % (self.q - 1)]
        return np.where(np.asarray(a) == 0, 0, vals).astype(np.uint32)

    def ffrob_v(self, a, j: int):
        return self.f_frob[j % self.m][a]

    # ------------------------------------------------------------------ K

    def kcode(self, a: int, b: int) -> int:
        return a | (b << self.m)

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

    def ktr_abs(self, x: int) -> int:
        """Absolute trace Tr(x) = tr(T(x))."""
        return int(self.f_tr[x >> self.m])

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

    def kinv(self, x: int) -> int:
        if x == 0:
            raise FieldError("inverse of 0")
        # 1/x = conj(x) / N(x)
        nx = self.finv(self.knorm(x))
        a, b = self.ksplit(self.kconj(x))
        return self.fmul(a, nx) | (self.fmul(b, nx) << self.m)

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

    def kfrob(self, x: int, j: int) -> int:
        for _ in range(j % self.n):
            x = self.ksq(x)
        return x

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
        """Least code generating the multiplicative group of K."""
        if self._gen_k is not None:
            return self._gen_k
        order = self.q * self.q - 1
        primes = factorize(order)
        for cand in range(2, order + 2):
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
        order = self.q * self.q - 1
        r = self.k_exp[(order - self.k_log[x].astype(np.int64)) % order]
        return np.where(x == 0, 0, r).astype(np.uint32)

    def kpow_v(self, x, e: int):
        if e == 0:
            return np.ones_like(np.asarray(x), dtype=np.uint32)
        self._ensure_k_tables()
        order = self.q * self.q - 1
        r = e % order
        vals = self.k_exp[self.k_log[x].astype(np.int64) * r % order]
        return np.where(np.asarray(x) == 0, 0, vals).astype(np.uint32)

    def kconj_v(self, x):
        return x ^ (x >> np.uint32(self.m))

    def kT_v(self, x):
        return x >> np.uint32(self.m)

    def bform_v(self, x, y):
        return self.kT_v(self.kmul_v(x, self.kconj_v(y)))

    def ktr_abs_v(self, x):
        return self.f_tr[x >> np.uint32(self.m)]

    # --------------------------------------------------- quadratic solving

    def artin_solve_f(self, c: int) -> int | None:
        """Some z in F with z^2 + z = c, or None when tr(c) = 1."""
        if self._artin_f is None:
            table: dict[int, int] = {}
            for z in range(self.q):
                key = self.fmul(z, z) ^ z
                table.setdefault(key, z)
            self._artin_f = table
        return self._artin_f.get(c)

    def artin_solve_k(self, c: int) -> int | None:
        """Some z in K with z^2 + z = c, or None when Tr(c) = 1."""
        if self.m > K_TABLE_MAX_M:
            raise FieldError("Artin-Schreier table unavailable for large m")
        if self._artin_k is None:
            q2 = self.q * self.q
            codes = np.arange(q2, dtype=np.uint32)
            vals = self.kmul_v(codes, codes) ^ codes
            table = {}
            for z in range(q2):
                table.setdefault(int(vals[z]), z)
            self._artin_k = table
        return self._artin_k.get(c)

    def ext_eta(self) -> int:
        """Least K-element with absolute trace 1 (defines L = K[zeta])."""
        if self._ext_eta is None:
            for c in range(self.q * self.q):
                if self.ktr_abs(c) == 1:
                    self._ext_eta = c
                    break
        return self._ext_eta

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

    @classmethod
    def from_json(cls, text: str) -> "FieldParams":
        obj = json.loads(text)
        params = cls(obj["m"], obj["modulus_bits"])
        if params.delta != obj["delta_bits"]:
            raise FieldError("delta mismatch in serialized FieldParams")
        return params

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


@dataclass(frozen=True, slots=True)
class FieldElement:
    """An element of F = GF(2^m), stored as its m-bit code."""

    params: FieldParams
    v: int

    def __post_init__(self):
        if not 0 <= self.v < self.params.q:
            raise FieldError(f"F code out of range: {self.v}")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.params, self.v ^ other.v)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.params, self.params.fmul(self.v, other.v))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return FieldElement(self.params, self.params.fdiv(self.v, other.v))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.params, self.params.fpow(self.v, e))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.params, self.params.finv(self.v))

    def sqrt(self) -> "FieldElement":
        return FieldElement(self.params, self.params.fsqrt(self.v))

    def trace(self) -> int:
        return self.params.ftr(self.v)

    def hex(self) -> str:
        return self.params.f_hex(self.v)

    def lift(self) -> "ExtElement":
        return ExtElement(self.params, self.v)

    def __bool__(self) -> bool:
        return self.v != 0

    def __repr__(self) -> str:
        return f"F({self.hex()})"


@dataclass(frozen=True, slots=True)
class ExtElement:
    """An element of K = GF(2^{2m}), code a | (b << m) meaning a + b*z."""

    params: FieldParams
    code: int

    def __post_init__(self):
        if not 0 <= self.code < self.params.q * self.params.q:
            raise FieldError(f"K code out of range: {self.code}")

    @property
    def a(self) -> FieldElement:
        return FieldElement(self.params, self.code & (self.params.q - 1))

    @property
    def b(self) -> FieldElement:
        return FieldElement(self.params, self.code >> self.params.m)

    def __add__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.params, self.code ^ other.code)

    __sub__ = __add__

    def __mul__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.params, self.params.kmul(self.code, other.code))

    def __truediv__(self, other: "ExtElement") -> "ExtElement":
        return ExtElement(self.params, self.params.kmul(self.code, self.params.kinv(other.code)))

    def __pow__(self, e: int) -> "ExtElement":
        return ExtElement(self.params, self.params.kpow(self.code, e))

    def inverse(self) -> "ExtElement":
        return ExtElement(self.params, self.params.kinv(self.code))

    def sqrt(self) -> "ExtElement":
        return ExtElement(self.params, self.params.ksqrt(self.code))

    def conjugate(self) -> "ExtElement":
        return ExtElement(self.params, self.params.kconj(self.code))

    def rel_trace(self) -> FieldElement:
        return FieldElement(self.params, self.params.kT(self.code))

    def norm(self) -> FieldElement:
        return FieldElement(self.params, self.params.knorm(self.code))

    def trace(self) -> int:
        return self.params.ktr_abs(self.code)

    def in_f(self) -> bool:
        return self.code >> self.params.m == 0

    def as_f(self) -> FieldElement:
        if not self.in_f():
            raise FieldError(f"{self!r} is not in the base field")
        return FieldElement(self.params, self.code)

    def hex(self) -> str:
        return self.params.k_hex(self.code)

    def __bool__(self) -> bool:
        return self.code != 0

    def __repr__(self) -> str:
        return f"K({self.hex()})"


def traces_and_norm(x: ExtElement) -> tuple[FieldElement, int, FieldElement]:
    """(T(x), Tr(x), N(x)) for x in K."""
    return x.rel_trace(), x.trace(), x.norm()


def bilinear_form(x: ExtElement, y: ExtElement) -> FieldElement:
    """<x, y> = x*conj(y) + conj(x)*y, an element of F."""
    return FieldElement(x.params, x.params.bform(x.code, y.code))


def polar_decompose(x: ExtElement) -> tuple[FieldElement, ExtElement]:
    """Unique (lambda, u) with x = lambda*u, lambda in F*, u in S."""
    if not x:
        raise FieldError("polar decomposition of 0")
    params = x.params
    lam = params.fsqrt(params.knorm(x.code))
    u = params.kmul(x.code, params.kinv(lam))
    return FieldElement(params, lam), ExtElement(params, u)


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
        self._index = {int(c): k for k, c in enumerate(codes)}

    @property
    def w(self) -> ExtElement:
        return ExtElement(self.params, self.w_code)

    def __len__(self) -> int:
        return self.params.q + 1

    def __iter__(self):
        return (ExtElement(self.params, int(c)) for c in self.codes)

    def element(self, k: int) -> ExtElement:
        return ExtElement(self.params, int(self.codes[k % len(self)]))

    def index(self, u: ExtElement | int) -> int:
        code = u if isinstance(u, int) else u.code
        try:
            return self._index[code]
        except KeyError:
            raise FieldError(f"element {code} is not on the unit circle") from None

    def omega(self) -> ExtElement:
        """A primitive cube root of unity w^((q+1)/3); needs 3 | q+1 (m odd)."""
        if (self.params.q + 1) % 3:
            raise FieldError("q+1 not divisible by 3 (m must be odd)")
        return self.element((self.params.q + 1) // 3)


@lru_cache(maxsize=None)
def unit_circle(params: FieldParams) -> UnitCircle:
    return UnitCircle(params)


def spread_i(params: FieldParams) -> ExtElement:
    """The distinguished element i with T(i) = 1 used by all formulas.

    For odd m this is omega = w^((q+1)/3) (a cube root of unity); for even m
    it is the basis element z of the quadratic representation.
    """
    if params.m % 2:
        i = unit_circle(params).omega()
    else:
        i = ExtElement(params, 1 << params.m)
    assert params.kT(i.code) == 1
    return i


# ------------------------------------------------------------------ Dickson


def dickson_recurrence(params: FieldParams, k: int, x: int) -> int:
    """D_k(x) in K by the linear recurrence (small k only)."""
    if k == 0:
        return 0
    prev, cur = 0, x
    for _ in range(k - 1):
        prev, cur = cur, params.kmul(x, cur) ^ prev
    return cur


def dickson_eval_code(params: FieldParams, k: int, x: int) -> int:
    """D_k(x) for x in K via the functional identity D_k(y + 1/y) = y^k + y^-k.

    y solves y^2 + x*y + 1 = 0 in K when Tr(1/x^2) = 0, otherwise in the
    quadratic extension L = K[zeta]; in the latter case y^(q^2+1) = 1 so the
    (possibly huge) index k is reduced mod q^2+1, in the former mod q^2-1.
    """
    if x == 0:
        return 0
    q2 = params.q * params.q
    c = params.ksq(params.kinv(x))  # 1/x^2
    t = params.artin_solve_k(c)
    if t is not None:
        # y = x*t solves y^2 + x*y + 1 = 0 inside K (t != 0 since c != 0)
        y = params.kmul(x, t)
        yk = params.kpow(y, k % (q2 - 1))
        return yk ^ params.kinv(yk)
    # roots live in L = K[zeta], zeta^2 = zeta + eta with Tr(eta) = 1
    eta = params.ext_eta()
    p = params.artin_solve_k(c ^ eta)
    assert p is not None
    # y = x*(p + zeta) in L has y^(q^2+1) = 1, and then
    # y^k + y^-k = Tr_{L/K}(y^k), i.e. the zeta-coefficient of y^k.
    def lmul(u, v):
        (ua, ub), (va, vb) = u, v
        bd = params.kmul(ub, vb)
        return (params.kmul(ua, va) ^ params.kmul(eta, bd),
                params.kmul(ua, vb) ^ params.kmul(ub, va) ^ bd)

    e = k % (q2 + 1)
    r = (1, 0)
    base = (params.kmul(x, p), x)
    while e:
        if e & 1:
            r = lmul(r, base)
        base = lmul(base, base)
        e >>= 1
    return r[1]


def dickson_eval(k: int, x: FieldElement | ExtElement):
    """Dickson polynomial D_k evaluated at x (F input gives F output)."""
    if isinstance(x, FieldElement):
        r = dickson_eval_code(x.params, k, x.v)
        if r >> x.params.m:
            raise FieldError("Dickson value left the base field")  # pragma: no cover
        return FieldElement(x.params, r)
    return ExtElement(x.params, dickson_eval_code(x.params, k, x.code))
