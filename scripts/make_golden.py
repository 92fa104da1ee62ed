"""Regenerate the golden reference files under tests/golden/.

    PYTHONPATH=src python scripts/make_golden.py
"""

import pathlib

from nihoval import cli, gf2m, geometry, gfun
from nihoval.reference import TABLE1, TABLE2

GOLDEN = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden"

# classify reports with origin and nucleus-shifted class representatives
CLASSIFY = (("classify_hyperconic_m4.json", ["--family", "hyperconic", "--m", "4"]),
            ("classify_lunelli_sce_m4.json", ["--family", "lunelli_sce", "--m", "4"]),
            ("classify_translation_r2_m5.json",
             ["--family", "translation", "--r", "2", "--m", "5"]))


def write_golden(target: pathlib.Path) -> None:
    """Write the golden files into `target` (created if missing)."""
    target.mkdir(parents=True, exist_ok=True)
    for m in range(1, 8):
        P = gf2m.field_create(m)
        (target / f"field_m{m}.json").write_text(P.to_json() + "\n")
    P5 = gf2m.field_create(5)
    for fam, r, _ in TABLE1:
        g = gfun.g_catalog(P5, fam, r=r)
        (target / f"table1_{fam}.csv").write_text(g.serialize_csv())
    P6 = gf2m.field_create(6)
    for fam, _, _ in TABLE2:
        g = gfun.g_catalog(P6, fam)
        (target / f"table2_{fam}.csv").write_text(g.serialize_csv())
    # section-4.6 hyperoval point sets in both models
    for m, fam in ((3, "hyperconic"), (4, "hyperconic"), (4, "lunelli_sce")):
        P = gf2m.field_create(m)
        g = gfun.g_catalog(P, fam)
        pts = g.hyperoval_codes_h()
        (target / f"sec46_{fam}_m{m}_K.json").write_text(
            geometry.points_to_json(P, pts, "K") + "\n")
        (target / f"sec46_{fam}_m{m}_H.json").write_text(
            geometry.points_to_json(P, pts, "H") + "\n")
    for name, argv in CLASSIFY:
        cli.main(["classify", *argv, "--out", str(target / name)])


def main():
    write_golden(GOLDEN)
    print("golden files written to", GOLDEN)


if __name__ == "__main__":
    main()
