"""Every benchmark variant writes an output that the benchmark's own check accepts.

The benchmark (bench/run.py) runs each workload of bench/workloads.py at one
of its VARIANTS parameter sets and rejects a run whose output fails
Workload.check: a recorded sha256 for the deterministic commands, the
statistics of the Monte Carlo report for ``simulate``. This runs all of them
in-process, so a change that alters a benchmark output fails here first.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from cavity_bell.cli import main

_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_SPEC = importlib.util.spec_from_file_location("bench_workloads", _PATH)
workloads = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = workloads  # its dataclass looks the module up while it is built
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_every_variant_passes_the_benchmark_check(tmp_path, name):
    for seed in range(workloads.VARIANTS):
        work = workloads.workload(name, seed)
        out = tmp_path / f"{seed}-{work.output}"
        assert main([*work.argv, "--out", str(out)]) == 0, work.argv
        assert work.check(out) == [], work.argv
