"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py --seeds 1-10 [--workloads stab-q32,...] [--out FILE]

For each workload it makes one untraced run per seed, then one traced run on
the first seed.  For every end-to-end metric it reports the median and the
quartile spread (Q3 - Q1, from statistics.quantiles(n=4), as a share of the
median) next to the metric's bound in BENCHMARK.json, and it records the
machine the numbers come from.  The summary is printed and, with --out,
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine() -> dict:
    info = {"nproc": os.cpu_count(), "python": platform.python_version()}
    try:
        import numpy
        info["numpy"] = numpy.__version__
    except ImportError:
        info["numpy"] = None
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    info["caches_per_instance"] = caches
    return info


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise RuntimeError(f"{' '.join(cmd)} exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    seeds = parse_seeds(args.seeds)
    report = {"machine": machine(), "run_seconds": spec["run_seconds"],
              "seeds": seeds, "workloads": {}}
    for name in names:
        runs = [run_once(spec, name, seed, 0) for seed in seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "metrics": {}}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            entry["metrics"][m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else None,
                "bound": m["bound"], "values": values}
            s = entry["metrics"][m["name"]]["spread"]
            print(f"{name:16s} {m['name']:12s} median {statistics.median(values):10.4f} "
                  f"{m['unit']:4s} spread {s if s is None else round(s, 4)} "
                  f"bound {m['bound']}", flush=True)
        traced = run_once(spec, name, seeds[0], 1)
        entry["traced"] = {"seed": seeds[0], "correct": traced["correct"],
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][name] = entry
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text if not args.out else f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
