"""Benchmark for nihoval: one closed-loop client driving the library API.

    python3 bench/run.py --workload stab-q32 --seed 1 --seconds 20 --trace 0

Run from the repository root (the package is imported from ./src).  A run
builds its seeded inputs, then repeats whole rounds of the workload's
operations (one at a time, each starting when the previous one ends) while
another round still fits in --seconds; at least one round always runs.
Every result is checked against its reference answer.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics, where
metrics holds exactly the metrics BENCHMARK.json declares, with its units.

--trace 0 reports the end-to-end metrics: ops_per_s, op_s.p50, setup_s
(median of SETUP_SAMPLES fresh processes, this one included) and
peak_rss_mb.  --trace 1 reports the per-layer metrics from spans recorded
around the package's public functions, writes the spans and the layer table
to .bench_out/, and measures the tracing overhead against one untraced round.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before numpy or nihoval load

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import nihoval
    if src.resolve() not in Path(nihoval.__file__).resolve().parents:
        raise ImportError(f"nihoval was imported from {nihoval.__file__}, not from {src}")


def child_setup_seconds(args) -> float:
    """Set-up time of a fresh interpreter building the same inputs."""
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", "0", "--setup-only"],
                         capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                         check=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_rounds(ops, seconds, tracer=None, max_rounds=None):
    """Whole rounds of ops; returns (per-op seconds, failed count)."""
    durations, failed = [], 0
    start = time.perf_counter()
    rounds = 0
    while True:
        r0 = time.perf_counter()
        for op in ops:
            if tracer is not None:
                tracer.op = f"{op.label}#{len(durations)}"
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception:
                out, problem = None, traceback.format_exc()
            else:
                problem = None
            durations.append(time.perf_counter() - t0)
            if problem is None:
                try:
                    problem = op.check(out)
                except Exception:
                    problem = traceback.format_exc()
            if problem:
                failed += 1
                print(f"FAIL {op.label}: {problem}", file=sys.stderr)
        rounds += 1
        now = time.perf_counter()
        if rounds == max_rounds or now - start + (now - r0) > seconds:
            return durations, failed


def ops_per_s(durations, failed) -> float:
    return (len(durations) - failed) / sum(durations)


def report(values: dict, declared: list) -> dict:
    """The declared metrics, with the units BENCHMARK.json gives them."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        import_package()
        from workloads import COVERAGE, WORKLOADS
    except ImportError as exc:
        print(f"error: cannot import the nihoval package: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = WORKLOADS[args.workload](random.Random(f"{args.workload}:{args.seed}"))
    setup_s = time.perf_counter() - _T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if tracer is None:
        samples = [setup_s] + [child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        durations, failed = run_rounds(inputs.ops, args.seconds)
        metrics = report({
            "ops_per_s": ops_per_s(durations, failed),
            "op_s.p50": statistics.median(durations),
            "setup_s": statistics.median(samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }, spec["end_to_end"])
        print(f"{args.workload}: {len(durations)} ops, op seconds "
              f"{[round(d, 3) for d in durations]}, set-up samples "
              f"{[round(s, 3) for s in samples]}", file=sys.stderr)
        correct = failed == 0
    else:
        from probe import kernel_probe
        from spans import layer_metrics, uncovered
        tracer.remove()
        plain, failed_plain = run_rounds(inputs.ops, args.seconds, max_rounds=1)
        tracer.install()
        durations, failed = run_rounds(inputs.ops, args.seconds, tracer=tracer)
        tracer.remove()
        layers = layer_metrics(tracer)
        layers.update(kernel_probe())
        layers["gf2m.setup_s"] = inputs.field_s
        layers["trace.overhead_frac"] = (ops_per_s(plain, failed_plain)
                                         / ops_per_s(durations, failed) - 1)
        missing = uncovered(tracer, COVERAGE[args.workload])
        OUT_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}"
        tracer.dump(OUT_DIR / f"spans-{stem}.jsonl")
        (OUT_DIR / f"layers-{stem}.json").write_text(json.dumps(
            {"layers": layers, "absent": tracer.absent, "uncovered": missing}, indent=1))
        metrics = report(layers, spec["per_layer"])
        print(f"{args.workload}: untraced op seconds {[round(d, 3) for d in plain]}, "
              f"traced {[round(d, 3) for d in durations]}", file=sys.stderr)
        durations += plain
        failed += failed_plain
        correct = failed == 0 and not missing

    print(json.dumps({"correct": correct, "attempted": len(durations),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
