"""Reference numbers from the paper, read by the CLI, the tests and the scripts.

TABLE1         q = 32: (family, r, |Aut| of the hyperoval)
TABLE1_ORBITS  q = 32: family -> point-orbit sizes under Aut
TABLE2         q = 64: (family, |Aut|, point-orbit sizes under Aut)
SEC46_*        section 4.6: number of inequivalent Niho bent functions per
               hyperoval, i.e. stabilizer orbits on its q+2 points.
"""

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
