"""Write every deterministic artifact of nihoval into one directory.

    PYTHONPATH=src python scripts/artifacts.py DIR

DIR/golden/ receives the files scripts/make_golden.py writes, DIR/reproduce_*.json
the reports of `nihoval reproduce table1|table2|sec4.6|theorems`, and
DIR/classify_*.json the `classify` reports of the catalog cases below, and
DIR/gfun_*.csv and DIR/bent_*.json the `gfun` table and the `bent` Niho
polynomial (plain and with `--s-index 1`) of every catalog family at its
smallest valid m, and of Payne at m = 7.  Two source trees produce the same
artifacts iff `diff -r DIR1 DIR2` is empty.
"""

import pathlib
import sys

from make_golden import write_golden
from nihoval import cli

REPRODUCE = ("table1", "table2", "sec4.6", "theorems")
CLASSIFY = (("cherowitzo", 5), ("subiaco_payne", 5), ("okeefe_penttila", 5),
            ("subiaco2", 6), ("adelaide", 6))
# (family, m, r): each catalog family at its smallest valid m, plus Payne at m = 7.
CATALOG = (("hyperconic", 1, None), ("translation", 2, 1), ("translation", 3, 2),
           ("subiaco2", 2, None), ("glynn1", 3, None), ("glynn2", 3, None),
           ("subiaco", 4, None), ("lunelli_sce", 4, None), ("adelaide", 4, None),
           ("segre", 5, None), ("payne", 5, None), ("subiaco_payne", 5, None),
           ("cherowitzo", 5, None), ("okeefe_penttila", 5, None), ("payne", 7, None))


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
                ("bent", ["--s-index", "1"], f"bent_{name}_s1.json"))
        for cmd, extra, fname in runs:
            rc = cli.main([cmd, *case, *extra, "--out", str(out / fname)])
            if rc:
                return rc
    print("artifacts written to", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
