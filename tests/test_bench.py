"""The benchmark under bench/ against the package: its reference answers and
the boundaries its traced runs must reach.

The bench/ modules are loaded from their files under the names bench_*, so
bench/ is not put on sys.path.
"""

import importlib.util
import json
import pathlib
import random
import sys

import pytest

from nihoval.reference import TABLE1_ORBITS

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = load_bench("workloads")
spans = load_bench("spans")


def test_q32_orbits_match_reference():
    assert workloads.Q32_ORBITS == TABLE1_ORBITS


@pytest.mark.parametrize("name", [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]])
def test_traced_round_covers_its_boundaries(name):
    # one traced round as `bench/run.py --trace 1` runs it: set-up under the
    # tracer, then every op run and checked
    tracer = spans.Tracer()
    tracer.install()
    try:
        inputs = workloads.WORKLOADS[name](random.Random(f"{name}:44"))
        failures = []
        for op in inputs.ops:
            tracer.op = op.label
            problem = op.check(op.run())
            if problem:
                failures.append(problem)
    finally:
        tracer.remove()
    assert failures == []
    assert spans.uncovered(tracer, workloads.COVERAGE[name]) == []
