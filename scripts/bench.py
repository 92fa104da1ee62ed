"""Time nihoval end to end in fresh processes, for one or more source trees.

    python scripts/bench.py --tree parent=DIR --tree change=. [--repeats 3]
        [--workloads stab-q32,classify-q32 --seeds 44-53] [--out FILE]

The commands are `nihoval reproduce table1|table2|sec4.6|theorems`,
`nihoval classify --m 5` and `--m 6` (the default family, the hyperconic),
`classify --family cherowitzo --m 7` and `--family payne --m 7`, one
stabilizer of the Adelaide hyperoval at q = 256, and the Tier-1 test suite.
In three stabilizers the whole group PGammaL(2, q), of order q(q^2 - 1)m,
fixes point 0: `translation r=6 q=128`, `hyperconic q=128 nucleus first` and
`translation r=7 q=256`; each checks that order and the orbits 1 and q + 1.
The q = 256 stabilizers have a peak RSS limit of 256 MiB; the record says
for each tree whether its runs stayed under it.  Every stabilizer command
also reports the time of the `equiv.stabilizer` call alone, after import and
field set-up.  Four layer commands time every call of the point invariant
`equiv._point_invariant` and count the minor page faults it takes (getrusage
around each call): `invariants cherowitzo q=32` and `q=128` build one
line-log cube and take the invariant of every point, again and again;
`invariants in stab-q32` and `in classify-q32` run rounds of those bench/
workloads at seed 44.  Each checks every histogram.  Two more, `walsh m=9`
and `walsh m=10`, time and count the same way every call of
`bent.walsh_spectrum` on one catalog bent function (Cherowitzo at m = 9,
Adelaide at m = 10), and check each spectrum: flat at +-q, and Parseval.
`validate m=9` does the same for every call of the two geometric checks of
`gfun.validate_g`, `geometry.no_three_collinear` and `is_line_oval`, on the
Cherowitzo g at m = 9, and checks that each returns True; it reports each
check on its own.
These commands print one JSON line, which the record keeps under
"reported": the calls, the first pass (or round, or call), and the warm
calls after it; or the stabilizer time.  Each runs
--repeats times in a fresh interpreter, with the tree as working directory
and TREE/src on PYTHONPATH.  Within a repeat every command runs once per
tree, and the tree that runs first alternates between repeats, so the runs
of the trees interleave.  The record
keeps each wall time and the child's peak RSS, their medians, and the
machine (bench/baseline.py).

With --workloads, TREE/bench/run.py also runs once per workload, seed and
tree (interleaved the same way, seeds in place of repeats, for the run time
BENCHMARK.json sets), and the record keeps its end-to-end
metrics.  For each metric it counts the seeds on which the last tree beats
the first, and gives the interquartile range of the first tree's values.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
from baseline import machine, parse_seeds  # noqa: E402

# runs equiv.stabilizer(P, H) alone under the clock and prints its time
_TIMED_STABILIZER = ("import json, time\n"
                     "t0 = time.perf_counter()\n"
                     "d = equiv.stabilizer(P, H)\n"
                     "print(json.dumps({'stabilizer_s': time.perf_counter() - t0}))\n"
                     "got = (d.stabilizer_order, d.orbit_sizes())\n")

COMMANDS = {
    "reproduce table1": ["-m", "nihoval.cli", "reproduce", "table1", "--quiet"],
    "reproduce table2": ["-m", "nihoval.cli", "reproduce", "table2", "--quiet"],
    "reproduce sec4.6": ["-m", "nihoval.cli", "reproduce", "sec4.6", "--quiet"],
    "reproduce theorems": ["-m", "nihoval.cli", "reproduce", "theorems", "--quiet"],
    "classify --m 5": ["-m", "nihoval.cli", "classify", "--m", "5"],
    "classify --m 6": ["-m", "nihoval.cli", "classify", "--m", "6"],
    "classify --family cherowitzo --m 7": ["-m", "nihoval.cli", "classify",
                                           "--family", "cherowitzo", "--m", "7"],
    "classify --family payne --m 7": ["-m", "nihoval.cli", "classify",
                                      "--family", "payne", "--m", "7"],
    # Adelaide at q = 256: order 2h = 16, orbits 1, 1 and 16 x 16
    "stabilizer adelaide q=256": ["-c", "from nihoval import equiv, gfun\n"
                                  "from nihoval.gf2m import field_create\n"
                                  "P = field_create(8)\n"
                                  "H = gfun.g_catalog(P, 'adelaide').hyperoval_codes_h()\n"
                                  + _TIMED_STABILIZER +
                                  "if got != (16, [1, 1] + [16] * 16):\n"
                                  "    raise SystemExit(f'got {got}')\n"],
    "tier-1": ["-m", "pytest", "-q", "--continue-on-collection-errors",
               "-p", "no:cacheprovider"],
}
RSS_LIMIT_MIB = {"stabilizer adelaide q=256": 256, "stabilizer translation r=7 q=256": 256}


def conic_stabilizer(m: int, first: str) -> list[str]:
    """The stabilizer of a conic whose group fixes point 0: translation
    r = m - 1, or the hyperconic with its nucleus moved first."""
    family = ("'translation', r=m - 1" if first == "translation" else "'hyperconic'")
    return ["-c", "from nihoval import equiv, gfun\n"
                  "from nihoval.gf2m import field_create\n"
                  f"m = {m}\n"
                  "P = field_create(m)\n"
                  f"H = gfun.g_catalog(P, {family}).hyperoval_codes_h()\n"
                  + ("H = [H[-1]] + H[:-1]\n" if first == "nucleus" else "")
                  + _TIMED_STABILIZER +
                  "if got != (P.q * (P.q ** 2 - 1) * m, [1, P.q + 1]):\n"
                  "    raise SystemExit(f'got {got}')\n"]

# timed_call(calls, run) appends (seconds, minor faults) of one call of run;
# summary(calls, first) gives, for such a list, the calls, the time of the
# first `first` and the warm calls after them; report(calls, first) prints it
_REPORT = """
import json, resource, statistics, sys, time

def summary(calls, first):
    warm = calls[first:]
    return {'calls': len(calls), 'first_s': sum(t for t, _ in calls[:first]),
            'warm_min_s': min(t for t, _ in warm),
            'warm_median_s': statistics.median(t for t, _ in warm),
            'warm_faults_per_call': sum(f for _, f in warm) / len(warm)}

def report(calls, first):
    print(json.dumps(summary(calls, first)))

def timed_call(calls, run):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    out = run()
    t = time.perf_counter() - t0
    calls.append((t, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0))
    return out
"""

# wraps equiv._point_invariant: times each call, counts its minor faults and
# checks that the histogram counts all (N-1)(N-2) pair rows of distinct points
_INVARIANT_SPY = _REPORT + """
from nihoval import equiv
real, calls = equiv._point_invariant, []

def timed(LL, Q, a):
    out = timed_call(calls, lambda: real(LL, Q, a))
    if sum(out[0]) != (len(LL) - 1) * (len(LL) - 2):
        raise SystemExit(f'point {a}: the histogram sums to {sum(out[0])}')
    return out

equiv._point_invariant = timed
"""


def invariants_of_every_point(m: int, passes: int) -> list[str]:
    """The Cherowitzo hyperoval at q = 2^m: one cube, every point `passes` times."""
    return ["-c", _INVARIANT_SPY + (
        "from nihoval import gfun\n"
        "from nihoval.gf2m import field_create\n"
        f"P = field_create({m})\n"
        "H = gfun.g_catalog(P, 'cherowitzo').hyperoval_codes_h()\n"
        "LL = equiv._line_logs(P, equiv._coords_of_codes(P, H))\n"
        f"for _ in range({passes}):\n"
        "    for a in range(len(H)):\n"
        "        equiv._point_invariant(LL, P.q - 1, a)\n"
        "report(calls, len(H))\n")]


def invariants_in_rounds(workload: str, rounds: int) -> list[str]:
    """`rounds` rounds of a bench/ workload at seed 44, each result checked."""
    return ["-c", _INVARIANT_SPY + (
        "import random\n"
        "sys.path.insert(0, 'bench')\n"
        "from workloads import WORKLOADS\n"
        f"ops = WORKLOADS['{workload}'](random.Random('{workload}:44')).ops\n"
        f"for r in range({rounds}):\n"
        "    for op in ops:\n"
        "        if (bad := op.check(op.run())) is not None:\n"
        "            raise SystemExit(bad)\n"
        "    if r == 0:\n"
        "        first = len(calls)\n"
        "report(calls, first)\n")]


def walsh_calls(m: int, family: str, calls: int) -> list[str]:
    """`calls` Walsh transforms of the bent function of one catalog g at
    q = 2^m, each timed with its minor faults and its spectrum checked."""
    return ["-c", _REPORT + (
        "import numpy as np\n"
        "from nihoval import bent, gfun\n"
        "from nihoval.gf2m import field_create\n"
        f"P = field_create({m})\n"
        f"f = bent.bent_from_g(gfun.g_catalog(P, '{family}'))\n"
        "calls = []\n"
        f"for _ in range({calls}):\n"
        "    w = timed_call(calls, lambda: bent.walsh_spectrum(f).values)\n"
        "    if not np.all(np.abs(w) == P.q):\n"
        "        raise SystemExit('the spectrum is not flat at +-q')\n"
        "    if int((w.astype(np.int64) ** 2).sum()) != P.q ** 4:\n"
        "        raise SystemExit('the spectrum fails Parseval')\n"
        "report(calls, 1)\n")]


def validate_calls(m: int, family: str, calls: int) -> list[str]:
    """`calls` rounds of the two geometric checks of validate_g on one
    catalog g at q = 2^m: every no_three_collinear and is_line_oval call
    timed with its minor faults, each checked to return True."""
    return ["-c", _REPORT + (
        "from nihoval import geometry, gfun\n"
        "from nihoval.gf2m import field_create\n"
        f"P = field_create({m})\n"
        f"g = gfun.g_catalog(P, '{family}')\n"
        "H = g.hyperoval_codes_h()\n"
        "checks = {'no_three_collinear': lambda: geometry.no_three_collinear(P, H),\n"
        "          'is_line_oval': lambda: geometry.is_line_oval(P, g.S.codes, g.values)}\n"
        "calls = {name: [] for name in checks}\n"
        f"for _ in range({calls}):\n"
        "    for name, run in checks.items():\n"
        "        if not timed_call(calls[name], run):\n"
        "            raise SystemExit(f'{name} is False')\n"
        "print(json.dumps({name: summary(c, 1) for name, c in calls.items()}))\n")]


COMMANDS.update({"stabilizer translation r=6 q=128": conic_stabilizer(7, "translation"),
                 "stabilizer hyperconic q=128 nucleus first": conic_stabilizer(7, "nucleus"),
                 "stabilizer translation r=7 q=256": conic_stabilizer(8, "translation")})
COMMANDS.update({"invariants cherowitzo q=32": invariants_of_every_point(5, 30),
                 "invariants cherowitzo q=128": invariants_of_every_point(7, 3),
                 "invariants in stab-q32": invariants_in_rounds("stab-q32", 20),
                 "invariants in classify-q32": invariants_in_rounds("classify-q32", 10)})
COMMANDS.update({"walsh m=9": walsh_calls(9, "cherowitzo", 200),
                 "walsh m=10": walsh_calls(10, "adelaide", 50),
                 "validate m=9": validate_calls(9, "cherowitzo", 100)})
REPORTING = ("stabilizer ", "invariants ", "walsh ", "validate ")


def run_child(tree: Path, args: list[str]) -> tuple[float, float, str]:
    """(wall seconds, peak RSS in MiB, stdout) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    with tempfile.TemporaryFile() as out:
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, *args], cwd=tree, env=env,
                                 stdout=out, stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read().decode()
    if child.returncode:
        raise RuntimeError(f"{' '.join(args)} in {tree} exited with {child.returncode}")
    return wall, usage.ru_maxrss / 1024, text


def iqr(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def interleaved(trees: dict[str, Path], i: int) -> list[tuple[str, Path]]:
    """The trees in the order of run i: reversed on every other run."""
    items = list(trees.items())
    return items[::-1] if i % 2 else items


def time_commands(trees: dict[str, Path], repeats: int) -> dict:
    runs = {label: {name: {"s": [], "peak_rss_mib": []} for name in COMMANDS}
            for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(repeats):
            for name, args in COMMANDS.items():
                if args[:2] == ["-m", "nihoval.cli"]:
                    args = args + ["--out", str(Path(tmp) / "report.json")]
                for label, tree in interleaved(trees, i):
                    wall, rss, out = run_child(tree, args)
                    runs[label][name]["s"].append(round(wall, 3))
                    runs[label][name]["peak_rss_mib"].append(round(rss, 1))
                    note = ""
                    if name.startswith(REPORTING):
                        rep = json.loads(out.strip().splitlines()[-1])
                        runs[label][name].setdefault("reported", []).append(rep)
                        if "stabilizer_s" in rep:
                            note = f" (stabilizer {rep['stabilizer_s']:.2f} s)"
                    print(f"{label:10s} {name:20s} {wall:8.2f} s {rss:7.1f} MiB{note}",
                          flush=True)
    for per_tree in runs.values():
        for name, rec in per_tree.items():
            rec["median_s"] = statistics.median(rec["s"])
            rec["median_peak_rss_mib"] = statistics.median(rec["peak_rss_mib"])
            if name in RSS_LIMIT_MIB:
                rec["rss_limit_mib"] = RSS_LIMIT_MIB[name]
                rec["under_rss_limit"] = max(rec["peak_rss_mib"]) < RSS_LIMIT_MIB[name]
    return runs


def run_workloads(trees: dict[str, Path], workloads: list[str], seeds: list[int]) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    first, last = list(trees)[0], list(trees)[-1]
    report = {}
    for name in workloads:
        values = {label: {} for label in trees}
        for i, seed in enumerate(seeds):
            for label, tree in interleaved(trees, i):
                args = ["bench/run.py", "--workload", name, "--seed", str(seed),
                        "--seconds", str(spec["run_seconds"]), "--trace", "0"]
                _, _, out = run_child(tree, args)
                res = json.loads(out.strip().splitlines()[-1])
                if not res["correct"] or res["failed"]:
                    raise RuntimeError(f"{name} seed {seed} in {tree}: {res}")
                for metric, v in res["metrics"].items():
                    values[label].setdefault(metric, []).append(v["value"])
                print(f"{label:10s} {name} seed {seed}: " + ", ".join(
                    f"{k} {v[-1]:.4g}" for k, v in values[label].items()), flush=True)
        summary = {}
        for metric, sign in better.items():
            a, b = values[first][metric], values[last][metric]
            wins = sum((y > x) if sign == "higher" else (y < x) for x, y in zip(a, b))
            summary[metric] = {"median": {label: statistics.median(values[label][metric])
                                          for label in trees},
                               f"{first}_iqr": iqr(a) if len(a) > 1 else None,
                               f"{last}_wins": wins, "pairs": len(a)}
        report[name] = {"seeds": seeds, "values": values, "summary": summary}
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", required=True,
                    help="LABEL=DIR, a source tree to time (repeatable)")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--workloads", default="", help="comma list of BENCHMARK.json workloads")
    ap.add_argument("--seeds", default="44-53")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    trees = {}
    for item in args.tree:
        label, _, path = item.partition("=")
        trees[label] = Path(path).resolve()
    record = {"machine": machine(), "trees": list(trees), "repeats": args.repeats}
    if args.repeats:
        record["commands"] = time_commands(trees, args.repeats)
    if args.workloads:
        record["workloads"] = run_workloads(trees, args.workloads.split(","),
                                            parse_seeds(args.seeds))
    text = json.dumps(record, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text if not args.out else f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
