"""Seeded inputs, operations and reference checks for the four workloads.

Every transform applied to an input provably keeps its reference answer:
  * a collineation x -> M x^(2^j) with M nonsingular maps a hyperoval onto a
    hyperoval with a conjugate stabilizer, so the order and the orbit sizes
    are unchanged, and a shuffled point order only relabels the orbits;
  * for g on the unit circle, the rotation g(su) (s in S), the scalar
    lambda*g (lambda in F*) and the linear shift g + <c,u> all give a
    hyperoval equivalent to the one of g: the first two through x -> x/s and
    x -> x/lambda, the third as noted in nihoval.gfun.  Rotation and scalar
    also keep the number of zeros of g.
Set-up re-checks these claims on every run (check_image, check_variant).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from nihoval import bent, equiv, geometry, gfun
from nihoval.cli import TABLE1, TABLE2
from nihoval.gf2m import field_create, unit_circle

# Reference answers the package does not expose: point-orbit sizes of the
# q = 32 Table 1 hyperovals under their stabilizers.  At m = 5 each orbit is
# one bent class, so these also give the class counts of classify.
Q32_ORBITS = {
    "hyperconic": (1, 33),
    "translation": (1, 1, 32),
    "segre": (3, 31),
    "subiaco_payne": (1, 1, 2, 10, 10, 10),
    "cherowitzo": (1, 1, 1, 1, 5, 5, 5, 5, 5, 5),
    "okeefe_penttila": (1,) + (3,) * 11,
}
CLASSIFY_FAMILIES = ("subiaco_payne", "cherowitzo", "okeefe_penttila")
# (m, family) built at large m, and the small-m relative the seeded transform
# is self-tested on with validate_g.
CONSTRUCT_CASES = ((7, "glynn1", 5), (7, "glynn2", 5), (9, "cherowitzo", 5),
                   (10, "adelaide", 6))
STAB_Q64_FAMILY = "subiaco2"
STAB_Q64_THREADS = 2


class GeneratorError(RuntimeError):
    """A seeded input failed its self-test."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]   # mismatch description, or None


@dataclass
class Inputs:
    ops: list[Op]          # one round, run in this order
    field_s: float         # time spent creating fields and their tables


def make_fields(ms) -> tuple[dict, float]:
    """Fields with their F, K and unit-circle tables built."""
    t0 = time.perf_counter()
    out = {}
    for m in ms:
        P = field_create(m)
        unit_circle(P)
        P.kinv_v(np.ones(1, dtype=np.uint32))  # first K inverse builds the K tables
        out[m] = P
    return out, time.perf_counter() - t0


# ------------------------------------------------------------ transforms


def random_collineation(P, rng: random.Random) -> equiv.Collineation:
    while True:
        M = [rng.randrange(P.q) for _ in range(9)]
        if any(M):
            phi = equiv.Collineation.make(P, M, rng.randrange(P.m))
            if phi.det():
                return phi


def hyperoval_image(P, codes, rng: random.Random) -> list[int]:
    phi = random_collineation(P, rng)
    image = [phi.apply_code(c) for c in codes]
    rng.shuffle(image)
    return image


def transform_g(g, rng: random.Random, shift: bool):
    """lambda * g(s u) [+ <c,u>] for seeded s in S, lambda in F*, c in K."""
    P = g.params
    t = rng.randrange(P.q + 1)
    lam = rng.randrange(1, P.q)
    vals = P.fmul_v(np.uint32(lam), np.roll(g.values, -t))   # S is enumerated as w^k
    tag = f"rot{t}*{lam}"
    if shift:
        c = rng.randrange(P.q * P.q)
        vals = vals ^ P.bform_v(np.uint32(c), g.S.codes)
        tag += f"+<{c},u>"
    return gfun.GFunction(P, vals, f"{g.provenance}|{tag}")


def check_image(P, codes, image) -> None:
    if len(set(image)) != len(codes) or not geometry.no_three_collinear(P, image):
        raise GeneratorError("collineation image is not a hyperoval")


def check_variant(g, variant, *, keeps_zeros: bool, validate: bool = True) -> None:
    if keeps_zeros and int(np.sum(variant.values == 0)) != int(np.sum(g.values == 0)):
        raise GeneratorError(f"{variant.provenance}: zero count changed")
    if validate and not gfun.validate_g(variant).valid:
        raise GeneratorError(f"{variant.provenance}: transformed g is not valid")


# ------------------------------------------------------------- workloads


def _stab_op(P, family, image, order, orbits, threads):
    def run():
        return equiv.stabilizer(P, image, threads=threads)

    def check(dec):
        got = (dec.stabilizer_order, tuple(dec.orbit_sizes()))
        want = (order, tuple(orbits))
        return None if got == want else f"{family}: got {got}, want {want}"

    return Op(family, run, check)


def stab_q32(rng: random.Random) -> Inputs:
    fields, field_s = make_fields([5])
    P = fields[5]
    ops = []
    for family, r, order in TABLE1:
        codes = gfun.g_catalog(P, family, r=r).hyperoval_codes_h()
        image = hyperoval_image(P, codes, rng)
        check_image(P, codes, image)
        ops.append(_stab_op(P, family, image, order, Q32_ORBITS[family], 1))
    return Inputs(ops, field_s)


def stab_q64(rng: random.Random) -> Inputs:
    fields, field_s = make_fields([6])
    P = fields[6]
    ((order, orbits),) = [(o, orb) for fam, o, orb in TABLE2 if fam == STAB_Q64_FAMILY]
    codes = gfun.g_catalog(P, STAB_Q64_FAMILY).hyperoval_codes_h()
    image = hyperoval_image(P, codes, rng)
    check_image(P, codes, image)
    return Inputs([_stab_op(P, STAB_Q64_FAMILY, image, order, orbits, STAB_Q64_THREADS)],
                  field_s)


def classify_q32(rng: random.Random) -> Inputs:
    fields, field_s = make_fields([5])
    P = fields[5]
    orders = {fam: order for fam, _, order in TABLE1}
    ops = []
    for family in CLASSIFY_FAMILIES:
        g = gfun.g_catalog(P, family)
        variant = transform_g(g, rng, shift=True)
        check_variant(g, variant, keeps_zeros=False)
        phi = random_collineation(P, rng)
        perm = list(range(P.q + 2))
        rng.shuffle(perm)
        marked = rng.randrange(P.q + 2)
        ops.append(_classify_op(P, family, variant, phi, perm, marked, orders[family]))
    return Inputs(ops, field_s)


def _classify_op(P, family, variant, phi, perm, marked, order):
    def run():
        gz = gfun.fix_zeros(variant)
        res = equiv.classify_bent(gz)
        hyper = gz.hyperoval_codes_h()
        image = [phi.apply_code(hyper[k]) for k in perm]
        mark = (hyper[marked], phi.apply_code(hyper[marked]))
        witness = equiv.are_equivalent(P, hyper, image, marked=mark)
        return res, hyper, image, mark, witness

    def check(out):
        res, hyper, image, mark, witness = out
        want = Q32_ORBITS[family]
        got = (res.stabilizer_order, res.class_count, tuple(res.orbit_sizes))
        if got != (order, len(want), want):
            return f"{family}: got {got}, want {(order, len(want), want)}"
        if witness is None:
            return f"{family}: no witness for a seeded collineation image"
        if {witness.apply_code(c) for c in hyper} != set(image):
            return f"{family}: witness does not map the hyperoval onto its image"
        if witness.apply_code(mark[0]) != mark[1]:
            return f"{family}: witness moves the marked point"
        return None

    return Op(family, run, check)


def construct_large(rng: random.Random) -> Inputs:
    fields, field_s = make_fields(sorted({m for m, _, _ in CONSTRUCT_CASES}
                                         | {s for _, _, s in CONSTRUCT_CASES}))
    ops = []
    for m, family, small_m in CONSTRUCT_CASES:
        small = gfun.g_catalog(fields[small_m], family)
        check_variant(small, transform_g(small, rng, shift=False), keeps_zeros=True)
        g = gfun.g_catalog(fields[m], family)
        variant = transform_g(g, rng, shift=False)
        check_variant(g, variant, keeps_zeros=True, validate=False)  # validate_g runs inside the op
        ops.append(_construct_op(fields[m], f"{family}-m{m}", variant))
    return Inputs(ops, field_s)


def _construct_op(P, label, g):
    def run():
        valid = gfun.validate_g(g).valid if P.m <= 9 else True
        spectrum = bent.walsh_spectrum(bent.bent_from_g(g))
        gz = gfun.fix_zeros(g)
        oval = P.kmul_v(gz.S.codes, P.kinv_v(gz.values))
        table = bent.f_univariate(P, oval).evaluate()
        return valid, spectrum, gz, table, bent.bent_from_g(gz)

    def check(out):
        valid, spectrum, gz, table, truth = out
        if not valid:
            return f"{label}: validate_g rejects the input"
        if not spectrum.is_bent():
            return f"{label}: Walsh spectrum is not flat"
        if not gz.is_zero_free():
            return f"{label}: fix_zeros left a zero"
        if table != truth:
            return f"{label}: Niho polynomial differs from the truth table"
        return None

    return Op(label, run, check)


WORKLOADS = {
    "stab-q32": stab_q32,
    "classify-q32": classify_q32,
    "construct-large": construct_large,
    "stab-q64": stab_q64,
}

# Boundaries whose metrics each workload is expected to move; the traced run
# fails its coverage check when one of them records no call.
COVERAGE = {
    "stab-q32": ("gf2m.fmul_v", "gf2m.finv_v", "geometry.normalize_codes_v",
                 "geometry.no_three_collinear", "equiv.stabilizer", "gfun.g_catalog"),
    "stab-q64": ("gf2m.fmul_v", "gf2m.finv_v", "geometry.normalize_codes_v",
                 "geometry.no_three_collinear", "equiv.stabilizer", "gfun.g_catalog"),
    "classify-q32": ("gf2m.fmul_v", "gf2m.kmul_v", "gf2m.kpow_v",
                     "geometry.normalize_codes_v", "equiv.stabilizer",
                     "equiv.are_equivalent", "equiv.classify_bent", "gfun.fix_zeros",
                     "gfun.g_shift", "gfun.validate_g", "bent.bent_from_g",
                     "bent.walsh_spectrum", "bent.f_shift", "bent.niho_evaluate"),
    "construct-large": ("gf2m.kmul_v", "gf2m.kpow_v", "gf2m.bform_v",
                        "geometry.no_three_collinear", "geometry.is_line_oval",
                        "opoly.opoly_table", "opoly.is_opolynomial", "gfun.g_catalog",
                        "gfun.fix_zeros", "gfun.validate_g", "bent.bent_from_g",
                        "bent.walsh_spectrum", "bent.f_univariate", "bent.niho_evaluate"),
}
