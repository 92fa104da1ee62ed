"""Command line driver: construct, verify, classify, reproduce.

Subcommands
    field      field parameters as JSON
    opoly      o-polynomial evaluation table (CSV) + metadata (JSON)
    gfun       g-function table (CSV with JSON header line)
    bent       truth table / Walsh spectrum / Niho polynomial of a catalog g
    classify   stabilizer, orbits and one bent class per orbit (JSON report)
    reproduce  check a reference target (table1, table2, sec4.6, theorems)

Exit codes: 0 success, 2 validation error, 3 reproduction mismatch.
Outputs are deterministic: the same configuration writes byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import bent, equiv, geometry, gfun, opoly
from .gf2m import FieldError, field_create
from .reference import SEC46_CASES, SEC46_HYPERCONIC, TABLE1, TABLE1_ORBITS, TABLE2


class CliError(Exception):
    pass


def _params(args):
    return field_create(args.m, args.modulus_hex)


def _write(path, data: str | bytes):
    mode = "wb" if isinstance(data, bytes) else "w"
    if path in (None, "-"):
        out = sys.stdout.buffer if isinstance(data, bytes) else sys.stdout
        out.write(data)
        if isinstance(data, str) and not data.endswith("\n"):
            out.write("\n")
    else:
        with open(path, mode) as fh:
            fh.write(data)


def _only_for(args, option: str, family: str):
    if getattr(args, option) is not None and args.family != family:
        raise CliError(f"--{option.replace('_', '-')} applies only to --family {family}")


def _opoly_family(args) -> opoly.OPolyFamily:
    _only_for(args, "r", "translation")
    _only_for(args, "d_hex", "subiaco")
    if args.family == "translation" and args.r is None:
        raise CliError("translation needs --r")
    return opoly.OPolyFamily(args.family, r=args.r, d=args.d_hex)


def _catalog_g(params, args):
    _only_for(args, "r", "translation")
    return gfun.g_catalog(params, args.family, r=args.r)


def cmd_field(args) -> int:
    _write(args.out, _params(args).to_json())
    return 0


def cmd_opoly(args) -> int:
    P = _params(args)
    fam = _opoly_family(args)
    table = opoly.opoly_table(P, fam)
    meta = {"family": fam.label(), "m": P.m, "is_opolynomial":
            bool(opoly.is_opolynomial(P, table))}
    lines = ["t_hex,h_hex"]
    lines += [f"{P.f_hex(t)},{P.f_hex(int(table[t]))}" for t in range(P.q)]
    if args.format == "json":
        _write(args.out, json.dumps({**meta, "table": [int(v) for v in table]},
                                    sort_keys=True))
    else:
        _write(args.out, "\n".join(["# " + json.dumps(meta, sort_keys=True)] + lines) + "\n")
    return 0


def cmd_gfun(args) -> int:
    P = _params(args)
    g = _catalog_g(P, args)
    _write(args.out, g.serialize_csv())
    return 0


def cmd_bent(args) -> int:
    picked = [opt for opt, on in (("--check", args.check), ("--spectrum", args.spectrum),
                                  ("--format bits", args.format == "bits"),
                                  ("--s-index", args.s_index is not None)) if on]
    if len(picked) > 1:
        raise CliError(f"{picked[0]} and {picked[1]} select different outputs")
    P = _params(args)
    g = _catalog_g(P, args)
    f = bent.bent_from_g(g)
    spec = bent.walsh_spectrum(f)
    if args.check:
        v = gfun.validate_g(g)
        report = {"family": g.provenance, "m": P.m, "spectrum": spec.summary(),
                  "validation": {"line_oval": v.line_oval, "oval": v.oval_nucleus_origin,
                                 "bent": v.bent, "consistent": v.consistent}}
        _write(args.out, json.dumps(report, sort_keys=True))
        return 0 if v.valid else 3
    if args.format == "bits":
        _write(args.out, f.to_bits())
    elif args.spectrum:
        _write(args.out, spec.to_bytes())
    else:
        gz = gfun.fix_zeros(g)
        if args.s_index is None:
            poly = bent.f_univariate(P, gz.oval_codes_k())
        else:
            poly = bent.f_shift(gz, args.s_index)
        _write(args.out, poly.to_json())
    return 0


def cmd_classify(args) -> int:
    P = _params(args)
    g = gfun.fix_zeros(_catalog_g(P, args))
    res = equiv.classify_bent(g)
    report = {
        "family": args.family,
        "m": P.m,
        "stabilizer_order": res.stabilizer_order,
        "orbit_sizes": list(res.orbit_sizes),
        "classes": [
            {
                "rep_s": None if c.s_index is None else P.k_hex(int(g.S.codes[c.s_index])),
                "orbit_size": c.orbit_size,
                "g_table": [P.f_hex(int(v)) for v in c.g.values],
                "niho_poly": json.loads(c.f.to_json()),
                "bent_check": True,
            }
            for c in res.classes
        ],
    }
    _write(args.out, json.dumps(report, sort_keys=True))
    return 0


def _reproduce_table1():
    P = field_create(5)
    rows = []
    for fam, r, expect in TABLE1:
        g = gfun.g_catalog(P, fam, r=r)
        codes = g.hyperoval_codes_h()
        hyper = geometry.no_three_collinear(P, codes)
        dec = equiv.stabilizer(P, codes)
        orbits = list(TABLE1_ORBITS[fam])
        rows.append({"family": fam, "expected_aut": expect,
                     "computed_aut": dec.stabilizer_order,
                     "expected_orbits": orbits,
                     "computed_orbits": dec.orbit_sizes(),
                     "g_is_hyperoval": bool(hyper),
                     "ok": bool(hyper) and dec.stabilizer_order == expect
                           and dec.orbit_sizes() == orbits})
    return rows


def _reproduce_table2():
    P = field_create(6)
    rows = []
    for fam, expect, orbits in TABLE2:
        g = gfun.g_catalog(P, fam)
        dec = equiv.stabilizer(P, g.hyperoval_codes_h())
        rows.append({"family": fam, "expected_aut": expect,
                     "computed_aut": dec.stabilizer_order,
                     "expected_orbits": list(orbits),
                     "computed_orbits": dec.orbit_sizes(),
                     "ok": dec.stabilizer_order == expect
                           and dec.orbit_sizes() == list(orbits)})
    return rows


def _reproduce_sec46():
    rows = []

    def classify(m, fam, r=None):
        P = field_create(m)
        g = gfun.fix_zeros(gfun.g_catalog(P, fam, r=r))
        return equiv.classify_bent(g)

    for m, expect in SEC46_HYPERCONIC:
        res = classify(m, "hyperconic")
        rows.append({"family": "hyperconic", "m": m, "expected_classes": expect,
                     "computed_classes": res.class_count,
                     "ok": res.class_count == expect})
    for m, fam, r, expect, orbits in SEC46_CASES:
        res = classify(m, fam, r)
        ok = res.class_count == expect and (orbits is None or res.orbit_sizes == orbits)
        row = {"family": fam, "m": m, "expected_classes": expect,
               "computed_classes": res.class_count, "ok": ok}
        if orbits is not None:
            row["expected_orbits"] = list(orbits)
            row["computed_orbits"] = list(res.orbit_sizes)
        rows.append(row)
    return rows


def _reproduce_theorems():
    rows = []

    def add(name, ok):
        rows.append({"check": name, "ok": bool(ok)})

    for m in (3, 4, 5):
        P = field_create(m)
        gm2 = gfun.g_monomial(P, 2)
        add(f"m={m} conic closed form == monomial",
            np.array_equal(gm2.values, gfun.hyperconic_g_squared_route(P).values))
        t2 = opoly.opoly_table(P, opoly.OPolyFamily("hyperconic"))
        ga = gfun.g_from_opoly(P, t2)
        add(f"m={m} opoly route == monomial + <i,u>",
            gfun.linear_shift_difference(ga, gm2) is not None)
        for k in (1, 2, 3):
            tt = opoly.transform_pi(k, P, t2)
            add(f"m={m} pi{k} involution",
                np.array_equal(opoly.transform_pi(k, P, tt), t2))
    P5 = field_create(5)
    pay = opoly.opoly_table(P5, opoly.OPolyFamily("payne"))
    add("payne inverse closed form",
        np.array_equal(opoly.payne_inverse_table(P5), opoly.table_inverse(pay)))
    che = opoly.opoly_table(P5, opoly.OPolyFamily("cherowitzo"))
    add("cherowitzo inverse closed form",
        np.array_equal(opoly.cherowitzo_inverse_table(P5), opoly.table_inverse(che)))
    add("payne pi2 self-dual", np.array_equal(opoly.transform_pi(2, P5, pay), pay))
    g2 = gfun.translation_g(P5, 2)
    add("example g2 table", np.array_equal(g2.values, gfun.g_series(P5, 1, [(1, 16)]).values))
    for m in (3, 4):
        P = field_create(m)
        g = gfun.g_catalog(P, "hyperconic")
        oval = g.oval_codes_k()
        add(f"m={m} oval->g roundtrip",
            np.array_equal(gfun.g_from_oval(P, oval).values, g.values))
        poly = bent.f_univariate(P, oval)
        add(f"m={m} univariate == table route", poly.evaluate() == bent.bent_from_g(g))
    return rows


def cmd_reproduce(args) -> int:
    target = args.target
    rows = {"table1": _reproduce_table1, "table2": _reproduce_table2,
            "sec4.6": _reproduce_sec46, "theorems": _reproduce_theorems}[target]()
    ok = all(r["ok"] for r in rows)
    report = {"target": target, "ok": ok, "rows": rows}
    _write(args.out, json.dumps(report, sort_keys=True, indent=1))
    if not args.quiet:
        for r in rows:
            label = r.get("check") or r["family"] + (f" m={r['m']}" if "m" in r else "")
            print(f"[{'PASS' if r['ok'] else 'FAIL'}] {target}: {label}", file=sys.stderr)
    return 0 if ok else 3


def hex_int(text: str) -> int:
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a hexadecimal number: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="nihoval",
                                 description="Niho bent functions from hyperovals")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, family=True):
        p.add_argument("--m", type=int, default=5)
        p.add_argument("--modulus-hex", type=hex_int, default=None)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        if family:
            p.add_argument("--family", default="hyperconic",
                           choices=sorted(gfun.CATALOG_FAMILIES))
            p.add_argument("--r", type=int, default=None)

    p = sub.add_parser("field", help="emit field parameters")
    common(p, family=False)
    p.set_defaults(func=cmd_field)

    p = sub.add_parser("opoly", help="o-polynomial table")
    common(p)
    p.add_argument("--d-hex", type=hex_int, default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_opoly)

    p = sub.add_parser("gfun", help="g-function table")
    common(p)
    p.set_defaults(func=cmd_gfun)

    p = sub.add_parser("bent", help="bent function artifacts")
    common(p)
    p.add_argument("--format", choices=("json", "bits"), default="json")
    p.add_argument("--s-index", type=int, default=None)
    p.add_argument("--check", action="store_true", help="validate and summarize")
    p.add_argument("--spectrum", action="store_true", help="emit spectrum binary")
    p.set_defaults(func=cmd_bent)

    p = sub.add_parser("classify", help="equivalence classes for a hyperoval")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reproduce", help="check a reference target")
    p.add_argument("target", choices=("table1", "table2", "sec4.6", "theorems"))
    p.add_argument("--out", default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_reproduce)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, FieldError, gfun.GFunError, opoly.OPolyError,
            geometry.GeometryError, equiv.EquivError, bent.BentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
