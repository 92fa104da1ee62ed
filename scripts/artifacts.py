"""Write every deterministic artifact of nihoval into one directory.

    PYTHONPATH=src python scripts/artifacts.py DIR

DIR/golden/ receives the files scripts/make_golden.py writes, DIR/reproduce_*.json
the reports of `nihoval reproduce table1|table2|sec4.6|theorems`, and
DIR/classify_*.json the `classify` reports of the catalog cases below.  Two
source trees produce the same artifacts iff `diff -r DIR1 DIR2` is empty.
"""

import pathlib
import sys

from make_golden import write_golden
from nihoval import cli

REPRODUCE = ("table1", "table2", "sec4.6", "theorems")
CLASSIFY = (("cherowitzo", 5), ("subiaco_payne", 5), ("okeefe_penttila", 5),
            ("subiaco2", 6), ("adelaide", 6))


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
    print("artifacts written to", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
