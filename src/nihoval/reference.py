"""Reference numbers from the paper, read by the CLI, the tests and the scripts.

TABLE1         q = 32: (family, r, |Aut| of the hyperoval)
TABLE1_ORBITS  q = 32: family -> point-orbit sizes under Aut
TABLE2         q = 64: (family, |Aut|, point-orbit sizes under Aut)
SEC46_*        section 4.6: number of inequivalent Niho bent functions per
               hyperoval, i.e. stabilizer orbits on its q+2 points, and the
               explicit trace forms with the hyperoval whose classes they land in.
"""

from .gf2m import FieldParams, spread_i, unit_circle

TABLE1 = (("hyperconic", None, 163680), ("translation", 2, 4960), ("segre", None, 465),
          ("subiaco_payne", None, 10), ("cherowitzo", None, 5),
          ("okeefe_penttila", None, 3))
TABLE1_ORBITS = {
    "hyperconic": (1, 33),
    "translation": (1, 1, 32),
    "segre": (3, 31),
    "subiaco_payne": (1, 1, 2, 10, 10, 10),
    "cherowitzo": (1, 1, 1, 1, 5, 5, 5, 5, 5, 5),
    "okeefe_penttila": (1,) + (3,) * 11,
}
TABLE2 = (("hyperconic", 1572480, (1, 65)), ("subiaco", 60, (1, 5, 60)),
          ("subiaco2", 15, (1, 5, 15, 15, 15, 15)),
          ("adelaide", 12, (1, 1, 4, 12, 12, 12, 12, 12)))

# (m, classes) of the regular hyperoval; `reproduce sec4.6` checks these
SEC46_HYPERCONIC = ((1, 1), (2, 1), (3, 2), (4, 2), (5, 2), (6, 2))
# (m, family, r, classes, orbit sizes or None); at m = 5 the hyperovals are
# those of Table 1 and each orbit is one class
SEC46_CASES = ((4, "lunelli_sce", None, 1, None),
               (5, "translation", 2, 3, TABLE1_ORBITS["translation"]),
               (5, "segre", None, 2, TABLE1_ORBITS["segre"]),
               (5, "subiaco_payne", None, 6, TABLE1_ORBITS["subiaco_payne"]),
               (5, "cherowitzo", None, 10, TABLE1_ORBITS["cherowitzo"]),
               (5, "okeefe_penttila", None, 12, TABLE1_ORBITS["okeefe_penttila"]))
# (name, m, family, r, mode, terms): the explicit Niho bent functions of
# section 4.6, x -> Tr(sum c*x^e) ("abs") or tr(sum c*x^e) ("rel") over the
# (c, e) terms, each in its own class of the family's hyperoval at m.  A
# coefficient is named: 1, "i" (spread_i, T(i) = 1) or "omega" (a primitive
# cube root of unity); form_terms gives their codes in a field.
SEC46_FORMS = (
    ("x36_m3", 3, "hyperconic", None, "rel", ((1, 36),)),
    ("x36_x22_x50_m3", 3, "hyperconic", None, "rel", ((1, 36), (1, 22), (1, 50))),
    ("ax136_m4", 4, "hyperconic", None, "abs", (("i", 136),)),
    ("ax136_x106_x226_x76_m4", 4, "hyperconic", None, "abs",
     (("i", 136), (1, 106), (1, 226), (1, 76))),
    ("ax136_x226_m4", 4, "lunelli_sce", None, "abs", (("i", 136), (1, 226))),
    ("translation_exponents_m5", 5, "translation", 2, "abs",
     tuple(("omega", e) for e in (528, 466, 962, 404, 900, 342, 838))),
)


def form_terms(P: FieldParams, terms) -> list[tuple[int, int]]:
    """The (coeff K code, exponent) terms of a SEC46_FORMS entry in the field P."""
    named = {"i": spread_i, "omega": lambda P: unit_circle(P).omega()}
    return [(named[c](P) if c in named else c, e) for c, e in terms]
