"""Every benchmark variant writes an output that the benchmark's own check accepts.

The benchmark (bench/run.py) runs each workload of bench/workloads.py at one
of its VARIANTS parameter sets and rejects a run whose output fails
Workload.check: a recorded sha256 for the deterministic commands, the
statistics of the Monte Carlo report for ``simulate``. This runs all of them
in-process, so a change that alters a benchmark output fails here first.

``--trace 1`` wraps the package functions that bench/tracer.py names and
reads counters off their results, so a renamed or reshaped function drops
per-layer metrics. One traced run per workload checks that contract too.
"""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cavity_bell.cli import main

_ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", _ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up while it is built
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_variant_passes_the_benchmark_check(tmp_path, name):
    for seed in range(workloads.VARIANTS):
        work = workloads.workload(name, seed)
        out = tmp_path / f"{seed}-{work.output}"
        assert main([*work.argv, "--out", str(out)]) == 0, work.argv
        assert work.check(out) == [], work.argv


@pytest.mark.parametrize("name", workloads.NAMES)
def test_traced_run_reports_every_per_layer_metric(tmp_path, name):
    # the tracer patches only modules already imported, as after the warm-up
    # run of bench/run.py
    for module in tracer.LAYERS:
        importlib.import_module(f"cavity_bell.{module}")
    spec = json.loads((_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    # bench/run.py adds trace.overhead_s itself, from untraced runs
    want = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    work = workloads.workload(name, 1)
    out = tmp_path / work.output
    traced = tracer.Tracer()
    traced.install()
    try:
        code = traced.run(main, [*work.argv, "--out", str(out)])
    finally:
        traced.uninstall()
    assert code == 0, work.argv
    assert traced.missing == []
    written = sum(path.stat().st_size for path in tmp_path.iterdir())
    assert want <= set(traced.metrics(work.rows, written))
    assert work.check(out) == []
