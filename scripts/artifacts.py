"""Write every deterministic artifact of nihoval into one directory.

    PYTHONPATH=src python scripts/artifacts.py DIR

DIR/golden/ receives the files scripts/make_golden.py writes, DIR/reproduce_*.json
the reports of `nihoval reproduce table1|table2|sec4.6|theorems`, and
DIR/classify_*.json the `classify` reports of the catalog cases below, and
DIR/gfun_*.csv and DIR/bent_*.{json,bin,txt} the `gfun` table, the `bent` Niho
polynomial (plain and with `--s-index 1`), the `bent --check` report, the
`--spectrum` binary and the `--format bits` truth table of every catalog family
at its smallest valid m, and of Payne at m = 7 and 9.  DIR/opoly_*.{csv,json}
hold the `opoly` table in both formats of each o-polynomial family at its
smallest valid m, of Subiaco at m = 6 and with an explicit d, and of Adelaide
at m = 6.
DIR/trace_{name}.bin hold the truth tables (BooleanFn.to_bits) of the section
4.6 explicit forms (reference.SEC46_FORMS, one file per name), and
DIR/trace_translation_m{m}_r{r}.bin those of the translation bent functions
for r = 1..m-1 at m = 5 and 6.  Two source trees produce the same artifacts iff
`diff -r DIR1 DIR2` is empty.
"""

import pathlib
import sys

from make_golden import write_golden
from nihoval import bent, cli
from nihoval.gf2m import field_create
from nihoval.reference import SEC46_FORMS, form_terms

REPRODUCE = ("table1", "table2", "sec4.6", "theorems")
CLASSIFY = (("cherowitzo", 5), ("subiaco_payne", 5), ("okeefe_penttila", 5),
            ("subiaco2", 6), ("adelaide", 6))
# (family, m, r): each catalog family at its smallest valid m, plus Payne at m = 7 and 9,
# the one family that g_from_oval builds.
CATALOG = (("hyperconic", 1, None), ("translation", 2, 1), ("translation", 3, 2),
           ("subiaco2", 2, None), ("glynn1", 3, None), ("glynn2", 3, None),
           ("subiaco", 4, None), ("lunelli_sce", 4, None), ("adelaide", 4, None),
           ("segre", 5, None), ("payne", 5, None), ("subiaco_payne", 5, None),
           ("cherowitzo", 5, None), ("okeefe_penttila", 5, None), ("payne", 7, None),
           ("payne", 9, None))
# (family, m, options): each o-polynomial family at its smallest valid m, plus
# Subiaco at m = 6 (d outside GF(4)) and with an explicit d, and Adelaide at m = 6.
OPOLY = (("hyperconic", 1, ()), ("translation", 2, ("--r", "1")), ("subiaco", 4, ()),
         ("adelaide", 4, ()), ("segre", 5, ()), ("payne", 5, ()), ("cherowitzo", 5, ()),
         ("subiaco", 5, ("--d-hex", "5")), ("subiaco", 6, ()), ("adelaide", 6, ()),
         ("glynn1", 7, ()), ("glynn2", 7, ()))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = pathlib.Path(args[0])
    write_golden(out / "golden")
    for target in REPRODUCE:
        rc = cli.main(["reproduce", target, "--quiet",
                       "--out", str(out / f"reproduce_{target}.json")])
        if rc:
            return rc
    for fam, m in CLASSIFY:
        rc = cli.main(["classify", "--family", fam, "--m", str(m),
                       "--out", str(out / f"classify_{fam}_m{m}.json")])
        if rc:
            return rc
    for fam, m, r in CATALOG:
        case = ["--family", fam, "--m", str(m)] + ([] if r is None else ["--r", str(r)])
        name = f"{fam}_m{m}" + ("" if r is None else f"_r{r}")
        runs = (("gfun", [], f"gfun_{name}.csv"), ("bent", [], f"bent_{name}.json"),
                ("bent", ["--s-index", "1"], f"bent_{name}_s1.json"),
                ("bent", ["--check"], f"bent_{name}_check.json"),
                ("bent", ["--spectrum"], f"bent_{name}_spectrum.bin"),
                ("bent", ["--format", "bits"], f"bent_{name}_bits.txt"))
        for cmd, extra, fname in runs:
            rc = cli.main([cmd, *case, *extra, "--out", str(out / fname)])
            if rc:
                return rc
    for fam, m, opts in OPOLY:
        name = "_".join([f"opoly_{fam}_m{m}", *(o.lstrip("-") for o in opts)])
        for fmt in ("csv", "json"):
            rc = cli.main(["opoly", "--family", fam, "--m", str(m), *opts,
                           "--format", fmt, "--out", str(out / f"{name}.{fmt}")])
            if rc:
                return rc
    for name, m, _, _, mode, terms in SEC46_FORMS:
        P = field_create(m)
        f = bent.evaluate_trace_form(P, form_terms(P, terms), mode)
        (out / f"trace_{name}.bin").write_bytes(f.to_bits())
    for m in (5, 6):
        P = field_create(m)
        for r in range(1, m):
            (out / f"trace_translation_m{m}_r{r}.bin").write_bytes(bent.f_translation(P, r).to_bits())
    print("artifacts written to", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
