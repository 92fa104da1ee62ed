"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints one [PASS]/[FAIL] line (run pytest with -s to see them all).
Heavy stabilizer computations are memoized across criteria in _STAB.
"""

import math
import time

import numpy as np
import pytest

from nihoval import bent, equiv, geometry as geo, gfun, opoly
from nihoval.gf2m import field_create, spread_i, unit_circle
from nihoval.reference import SEC46_CASES, SEC46_HYPERCONIC, TABLE1, TABLE1_ORBITS, TABLE2


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f": {detail}" if detail else ""))
    assert ok, f"{criterion} failed: {detail}"


_STAB = {}


def stab(m, fam, r=None):
    key = (m, fam, r)
    if key not in _STAB:
        P = field_create(m)
        g = gfun.g_catalog(P, fam, r=r)
        if not g.is_zero_free():
            g = gfun.fix_zeros(g)
        _STAB[key] = equiv.stabilizer(P, g.hyperoval_codes_h())
    return _STAB[key]


_CLASSIFY = {}


def classify(m, fam, r=None):
    key = (m, fam, r)
    if key not in _CLASSIFY:
        P = field_create(m)
        g = gfun.g_catalog(P, fam, r=r)
        if not g.is_zero_free():
            g = gfun.fix_zeros(g)
        _CLASSIFY[key] = equiv.classify_bent(g)
    return _CLASSIFY[key]


def catalog_sweep_cases():
    cases = []
    for m in range(1, 7):
        cases.append((m, "hyperconic", None))
        for r in range(1, m):
            if math.gcd(r, m) == 1:
                cases.append((m, "translation", r))
    cases += [(5, "segre", None), (5, "payne", None), (5, "subiaco_payne", None),
              (5, "cherowitzo", None), (5, "okeefe_penttila", None),
              (4, "lunelli_sce", None), (4, "subiaco", None), (5, "subiaco", None),
              (6, "subiaco", None), (6, "subiaco2", None), (4, "adelaide", None),
              (6, "adelaide", None)]
    return cases


def test_criterion_1_bentness_sweep():
    t0 = time.time()
    checked = 0
    for m, fam, r in catalog_sweep_cases():
        P = field_create(m)
        g = gfun.g_catalog(P, fam, r=r)
        spec = bent.walsh_spectrum(bent.bent_from_g(g))
        if not np.all(np.abs(spec.values) == P.q):
            report("criterion 1 (bentness sweep)", False, f"{fam} m={m} r={r}")
        checked += 1
    elapsed = time.time() - t0
    report("criterion 1 (bentness sweep)", elapsed < 10.0,
           f"{checked} catalog functions, all spectra = +-2^m, {elapsed:.2f}s (< 10 s)")


def test_criterion_2_table1():
    t0 = time.time()
    P = field_create(5)
    for fam, r, expect in TABLE1:
        g = gfun.g_catalog(P, fam, r=r)
        if not geo.no_three_collinear(P, g.hyperoval_codes_h()):
            report("criterion 2 (table 1)", False, f"{fam}: not a hyperoval")
        dec = stab(5, fam, r)
        if dec.stabilizer_order != expect:
            report("criterion 2 (table 1)", False,
                   f"{fam}: |Aut| = {dec.stabilizer_order}, expected {expect}")
    elapsed = time.time() - t0
    report("criterion 2 (table 1)", elapsed < 120.0,
           f"orders {tuple(a for _, _, a in TABLE1)} reproduced, {elapsed:.1f}s (< 2 min)")


def test_criterion_3_table2():
    t0 = time.time()
    for fam, expect, _ in TABLE2:
        dec = stab(6, fam)
        if dec.stabilizer_order != expect:
            report("criterion 3 (table 2)", False,
                   f"{fam}: |Aut| = {dec.stabilizer_order}, expected {expect}")
    elapsed = time.time() - t0
    report("criterion 3 (table 2)", elapsed < 1800.0,
           f"orders {tuple(a for _, a, _ in TABLE2)} reproduced, {elapsed:.1f}s (< 30 min)")


def test_criterion_4_class_counts():
    for m, expect in SEC46_HYPERCONIC:
        res = classify(m, "hyperconic")
        if res.class_count != expect:
            report("criterion 4 (class counts)", False,
                   f"hyperconic m={m}: {res.class_count} != {expect}")
    counts = {(m, fam): n for m, fam, _, n, _ in SEC46_CASES}
    res = classify(5, "translation", 2)
    if res.class_count != counts[5, "translation"]:
        report("criterion 4 (class counts)", False, "translation m=5")
    # the three published m=5 tables match the construction routes up to a
    # linear shift (the series instantiates with one of the two cube roots)
    P5 = field_create(5)
    om = unit_circle(P5).omega()
    g2 = gfun.translation_g(P5, 2)
    g3 = gfun.translation_g(P5, 3)
    gm = gfun.g_monomial(P5, 1 - 4)
    ok = np.array_equal(g2.values, gfun.g_series(P5, 1, [(1, 16)]).values)
    ok &= np.array_equal(g3.values,
                         gfun.g_series(P5, 1, [(1, 8), (1, 9), (1, 16)]).values)
    ok &= any(gfun.linear_shift_difference(
        gm, gfun.g_series(P5, 1, [(c, 4), (c, 5), (c, 8), (c, 9), (c, 12), (c, 13)]))
        is not None for c in (om, P5.kconj(om)))
    if not ok:
        report("criterion 4 (class counts)", False, "example tables do not match")
    # ... and the three routes hit three distinct classes (ovals, nucleus marked)
    routes = [gfun.fix_zeros(g2), g3, gfun.fix_zeros(gm) if not gm.is_zero_free() else gm]
    class_ovals = [list(c.oval_h_codes) for c in res.classes]
    assignment = []
    for grt in routes:
        o = grt.hyperoval_codes_h()
        hits = [k for k, oc in enumerate(class_ovals)
                if equiv.are_equivalent(P5, o, oc, marked=(0, 0)) is not None]
        assignment.append(tuple(hits))
    if sorted(h for hh in assignment for h in hh) != [0, 1, 2]:
        report("criterion 4 (class counts)", False, f"assignment {assignment}")
    for m, fam in ((5, "segre"), (5, "okeefe_penttila"), (4, "lunelli_sce")):
        res = classify(m, fam)
        expect = counts[m, fam]
        if res.class_count != expect:
            report("criterion 4 (class counts)", False,
                   f"{fam} m={m}: {res.class_count} != {expect}")
    report("criterion 4 (class counts)", True,
           "hyperconic 1/1/2/2/2/2, translation 3 (tables matched), "
           "segre 2, okeefe-penttila 12, lunelli-sce 1")


def test_criterion_5_orbit_structures():
    cases = [(5, fam, r, TABLE1_ORBITS[fam]) for fam, r, _ in TABLE1]
    cases += [(6, fam, None, o) for fam, _, o in TABLE2]
    for m, fam, r, sizes in cases:
        dec = stab(m, fam, r)
        if dec.orbit_sizes() != list(sizes):
            report("criterion 5 (orbit structures)", False,
                   f"{fam} m={m}: {dec.orbit_sizes()} != {list(sizes)}")
    # section 4.6 reads its m = 5 orbit sizes off the classes of classify_bent
    for m, fam, r, _, sizes in SEC46_CASES:
        if sizes is not None and classify(m, fam, r).orbit_sizes != sizes:
            report("criterion 5 (orbit structures)", False,
                   f"{fam} m={m}: classes {classify(m, fam, r).orbit_sizes} != {sizes}")
    report("criterion 5 (orbit structures)", True,
           "Table 1 and Table 2 orbit multisets exact, and the m = 5 class orbits")


def _oval_from_trace_form(P, terms, mode):
    f = bent.evaluate_trace_form(P, terms, mode)
    assert bent.is_bent(f)
    vals = bent.recover_g_values(f)
    assert vals is not None
    g = gfun.GFunction(P, vals, "recovered")
    return g.hyperoval_codes_h()


def test_criterion_6_explicit_functions():
    P3, P4, P5 = field_create(3), field_create(4), field_create(5)
    a4 = spread_i(P4)
    om = unit_circle(P5).omega()
    groups = [
        (3, "hyperconic", None, [
            ("tr(x^36)", P3, [(1, 36)], "rel"),
            ("tr(x^36+x^22+x^50)", P3, [(1, 36), (1, 22), (1, 50)], "rel")]),
        (4, "hyperconic", None, [
            ("Tr(a x^136)", P4, [(a4, 136)], "abs"),
            ("Tr(a x^136 + x^106 + x^226 + x^76)", P4,
             [(a4, 136), (1, 106), (1, 226), (1, 76)], "abs")]),
        (4, "lunelli_sce", None, [
            ("Tr(a x^136 + x^226)", P4, [(a4, 136), (1, 226)], "abs")]),
        (5, "translation", 2, [
            ("third-class exponent set", P5,
             [(om, e) for e in (528, 466, 962, 404, 900, 342, 838)], "abs")]),
    ]
    for m, fam, r, forms in groups:
        res = classify(m, fam, r)
        class_ovals = [list(c.oval_h_codes) for c in res.classes]
        hit_classes = []
        for name, P, terms, mode in forms:
            o = _oval_from_trace_form(P, terms, mode)
            hits = [k for k, oc in enumerate(class_ovals)
                    if equiv.are_equivalent(P, o, oc, marked=(0, 0)) is not None]
            if len(hits) != 1:
                report("criterion 6 (explicit functions)", False,
                       f"{name}: matched classes {hits}")
            hit_classes.append(hits[0])
        if len(set(hit_classes)) != len(forms):
            report("criterion 6 (explicit functions)", False,
                   f"{fam} m={m}: duplicate assignment {hit_classes}")
    report("criterion 6 (explicit functions)", True,
           "m=3, m=4 and the m=5 exponent set all land in distinct classes")


def test_criterion_7_cross_construction():
    detail = []
    # from-o-polynomial route vs closed forms, up to linear shift
    for m in (3, 4, 5):
        P = field_create(m)
        t2 = opoly.opoly_table(P, opoly.OPolyFamily("hyperconic"))
        pairs = [
            (gfun.g_from_opoly(P, t2), gfun.g_catalog(P, "hyperconic")),
            (gfun.g_from_opoly(P, opoly.transform_pi(1, P, t2)),
             gfun.translation_g(P, m - 1)),
        ]
        if m == 5:
            seg = opoly.opoly_table(P, opoly.OPolyFamily("segre"))
            pairs.append((gfun.g_from_opoly(P, seg), gfun.segre_class_g(P, 0)))
            tr = opoly.opoly_table(P, opoly.OPolyFamily("translation", r=2))
            pairs.append((gfun.g_from_opoly(P, tr), gfun.translation_g(P, 2)))
        for a, b in pairs:
            if gfun.linear_shift_difference(a, b) is None:
                report("criterion 7 (cross-construction)", False,
                       f"m={m}: {a.provenance} vs {b.provenance}")
    detail.append("from-opoly routes == closed forms up to <c,u>")
    # oval -> g roundtrip on the catalog at m = 3..5
    for m in (3, 4, 5):
        P = field_create(m)
        fams = ["hyperconic"] + (["lunelli_sce"] if m == 4 else []) + \
            (["segre", "subiaco_payne", "cherowitzo", "okeefe_penttila"] if m == 5 else [])
        for fam in fams:
            g = gfun.g_catalog(P, fam)
            if not g.is_zero_free():
                g = gfun.fix_zeros(g)
            oval = P.kmul_v(g.S.codes, P.kinv_v(g.values.astype(np.uint32)))
            if not np.array_equal(gfun.g_from_oval(P, oval).values, g.values):
                report("criterion 7 (cross-construction)", False,
                       f"roundtrip {fam} m={m}")
    detail.append("oval->g roundtrips")
    # univariate polynomial vs table: exhaustive shifts at m <= 4
    for m in (2, 3, 4):
        P = field_create(m)
        for fam in ("hyperconic",) + (("lunelli_sce",) if m == 4 else ()):
            g = gfun.g_catalog(P, fam)
            oval = [int(v) for v in
                    P.kmul_v(g.S.codes, P.kinv_v(g.values.astype(np.uint32)))]
            if bent.f_univariate(P, oval).evaluate() != bent.bent_from_g(g):
                report("criterion 7 (cross-construction)", False,
                       f"univariate {fam} m={m}")
            for sidx in range(P.q + 1):
                fs = bent.f_shift(g, sidx)
                if fs.evaluate() != bent.bent_from_g(gfun.g_shift(g, sidx)):
                    report("criterion 7 (cross-construction)", False,
                           f"shift {fam} m={m} s={sidx}")
    # ... and three sampled shifts per family at m = 5
    P5 = field_create(5)
    for fam in ("segre", "subiaco_payne", "cherowitzo", "okeefe_penttila"):
        g = gfun.g_catalog(P5, fam)
        for sidx in (0, 11, 29):
            fs = bent.f_shift(g, sidx)
            if fs.evaluate() != bent.bent_from_g(gfun.g_shift(g, sidx)):
                report("criterion 7 (cross-construction)", False,
                       f"shift {fam} m=5 s={sidx}")
    detail.append("polynomial == table (exhaustive m<=4, sampled m=5)")
    # three-way agreement of the validity conditions, 1000 random g per m <= 4
    for m in (1, 2, 3, 4):
        P = field_create(m)
        rng = np.random.default_rng(100 + m)
        for _ in range(1000):
            g = gfun.GFunction(P, rng.integers(0, P.q, P.q + 1, dtype=np.uint32))
            if not gfun.validate_g(g).consistent:
                report("criterion 7 (cross-construction)", False,
                       f"three-way disagreement at m={m}")
    detail.append("3-way agreement on 4x1000 random g")
    report("criterion 7 (cross-construction)", True, "; ".join(detail))


def test_criterion_8_gcd_identities():
    for m in range(2, 10):
        for r in range(1, m):
            if math.gcd(m, r) != 1:
                continue
            gp = math.gcd(2 ** m + 1, 2 ** r + 1)
            gm_ = math.gcd(2 ** m + 1, 2 ** r - 1)
            ok = gp in (1, 3) and gm_ in (1, 3)
            ok &= (gp == 3) == (m % 2 == 1 and r % 2 == 1)
            ok &= (gm_ == 3) == (m % 2 == 1 and r % 2 == 0)
            if not ok:
                report("criterion 8 (gcd identities)", False, f"m={m} r={r}")
    for m in (5, 7):
        P = field_create(m)
        S = unit_circle(P)
        q = P.q
        w13 = {int(S.codes[(q + 1) // 3]), int(S.codes[2 * (q + 1) // 3])}
        for r in range(2, m - 1):
            if math.gcd(r, m) != 1:
                continue
            gr = gfun.translation_g(P, r)
            zero_here = {int(S.codes[k]) for k in np.flatnonzero(gr.values == 0)}
            shifted = gr.values ^ P.kT_v(S.codes)
            zero_shift = {int(S.codes[k]) for k in np.flatnonzero(shifted == 0)}
            want = w13 if (m % 2 and r % 2 == 0) else set()
            want_shift = w13 if (m % 2 and r % 2 == 1) else set()
            if zero_here != want or zero_shift != want_shift:
                report("criterion 8 (gcd identities)", False, f"zeros m={m} r={r}")
    report("criterion 8 (gcd identities)", True,
           "gcd(2^m+1, 2^r+-1) parity laws (m<=9) and zero locations (m=5,7)")


def test_criterion_9_glynn_m7():
    P = field_create(7)
    for fam in ("glynn1", "glynn2"):
        g = gfun.g_catalog(P, fam)
        codes = g.hyperoval_codes_h()
        if not geo.no_three_collinear(P, [int(c) for c in codes]):
            report("criterion 9 (glynn m=7)", False, f"{fam}: not a hyperoval")
        if not bent.is_bent(bent.bent_from_g(g)):
            report("criterion 9 (glynn m=7)", False, f"{fam}: not bent")
        # the q = 128 classification: the orbits partition the hyperoval,
        # each orbit size divides |Aut| and each orbit gives one class
        res = classify(7, fam)
        sizes = list(res.orbit_sizes)
        if (sum(sizes) != P.q + 2 or any(res.stabilizer_order % n for n in sizes)
                or sorted(c.orbit_size for c in res.classes) != sizes):
            report("criterion 9 (glynn m=7)", False,
                   f"{fam}: |Aut| = {res.stabilizer_order}, orbits {sizes}, "
                   f"{res.class_count} classes")
    # the regular hyperoval gives two classes for every m >= 3 (section 4.6)
    res = classify(7, "hyperconic")
    if res.class_count != 2:
        report("criterion 9 (glynn m=7)", False,
               f"hyperconic m=7: {res.class_count} classes, expected 2")
    report("criterion 9 (glynn m=7)", True,
           "both families construct + verify bent and classify one class per orbit; "
           "hyperconic has 2 classes")
