"""Benchmark of the cavity-bell command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src/`` and needs nothing installed beyond numpy. The seed picks the
workload's inputs (see workloads.py).

With ``--trace 0`` every sample is a fresh ``python -m cavity_bell.cli``
process, started with single-threaded BLAS. Each loop turn times one
start-up (``--help``: interpreter, import and parser), one workload
command, whose output is then checked, and one run of the fixed program
reference.py, until ``--seconds`` have passed. Peak memory comes from each
child's own ``wait4`` rusage; it and ``setup_s`` are medians over the
samples.

A shared host runs up to 1.8 times slower while it is busy, in spells of
a second to minutes, so the median wall time of one run does not repeat in
the next. The command's time is therefore reported as ``wall_ref``: the
mean wall time of the command over the mean wall time of the reference
runs, each right after a command, so that both see the same spells.
Medians and quartiles of the absolute times are printed for reading, not
reported.

With ``--trace 1`` the command runs in this process through
``cavity_bell.cli.main``, alternately untraced and traced (see tracer.py),
and the per-layer metrics of the traced runs are reported; their wall-time
difference is ``trace.overhead_s``.

Human-readable lines come first; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().with_name("reference.py")
CLI = ("-m", "cavity_bell.cli")
WORK = Path(".bench_out")  # relative to ROOT, so manifests do not name the checkout
# Every child is killed once the run has lasted this long; the benchmark
# must end within 180 s.
TIME_LIMIT_S = 150.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    walls: list[float] = field(default_factory=list)

    def record(self, what: str, problems: list[str], wall: float) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: " + "; ".join(problems), file=sys.stderr)
            return False
        self.walls.append(wall)
        return True


def environment() -> str:
    return (f"python={platform.python_version()} numpy={metadata.version('numpy')}"
            f" platform={platform.platform()} nproc={len(os.sched_getaffinity(0))}")


def describe(name: str, values: list[float], unit: str) -> str:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return (f"{name:<14} {statistics.median(values):12.6g} {unit:<6} median of {len(values)};"
            f" quartiles {q1:.6g}..{q3:.6g}; range {min(values):.6g}..{max(values):.6g}")


def clear(directory: Path) -> None:
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)


def run_child(args: tuple[str, ...], deadline: float, stderr_path: Path):
    """Run ``python *args``; return (problems, wall s, peak RSS MiB)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with stderr_path.open("wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    problems = []
    if proc.returncode != 0:
        tail = stderr_path.read_text(encoding="utf-8", errors="replace").strip()[-400:]
        problems.append(f"exit code {proc.returncode}: {tail}")
    return problems, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def measure_processes(load: workloads.Workload, seconds: float, units: dict) -> tuple[dict, Tally]:
    deadline = time.monotonic() + TIME_LIMIT_S
    out_dir = WORK / load.name
    clear(ROOT / out_dir)
    command = (*CLI, *load.argv, "--out", str(out_dir / load.output))
    stderr_path = ROOT / out_dir / "stderr.txt"
    setup, runs, reference = Tally(), Tally(), Tally()
    rss: list[float] = []
    pairs: list[tuple[float, float]] = []  # (command, reference) wall times of one turn

    def sample_setup() -> None:
        problems, wall, _ = run_child((*CLI, "--help"), deadline, stderr_path)
        setup.record("setup", problems, wall)

    def sample_command() -> bool:
        (ROOT / out_dir / load.output).unlink(missing_ok=True)
        problems, wall, peak = run_child(command, deadline, stderr_path)
        problems = problems or load.check(ROOT / out_dir / load.output)
        if runs.record(load.name, problems, wall):
            rss.append(peak)
            return True
        return False

    def sample_reference() -> bool:
        problems, wall, _ = run_child((str(REFERENCE), load.reference), deadline, stderr_path)
        return reference.record("reference", problems, wall)

    # Untimed warm-up: it fills the bytecode and file caches, which users do
    # not pay on every run. Its output is checked all the same.
    sample_setup()
    sample_command()
    sample_reference()
    for tally in (setup, runs, reference):
        tally.walls.clear()
    rss.clear()
    start = time.monotonic()
    while time.monotonic() - start < seconds and time.monotonic() < deadline:
        sample_setup()
        ran = sample_command()
        if sample_reference() and ran:
            pairs.append((runs.walls[-1], reference.walls[-1]))
    shutil.rmtree(ROOT / out_dir, ignore_errors=True)

    tally = Tally(setup.attempted + runs.attempted + reference.attempted,
                  setup.failed + runs.failed + reference.failed)
    if not pairs or not setup.walls:
        return {}, tally
    wall_ref = sum(c for c, _ in pairs) / sum(r for _, r in pairs)
    print(describe("wall_s", runs.walls, "s"))
    print(describe("reference_s", reference.walls, "s") + f"; {load.reference} reference")
    print(f"{'wall_ref':<14} {wall_ref:12.6g} {units['wall_ref']:<6}"
          f" mean wall_s / mean reference_s over {len(pairs)} turns")
    print(describe("setup_s", setup.walls, "s"))
    print(describe("peak_rss_mb", rss, units["peak_rss_mb"]))
    print(f"{'work_per_s':<14} {load.units / statistics.median(runs.walls):12.6g} units/s"
          f" {load.units} units / median wall_s")
    print(f"{'work_per_ref':<14} {load.units / wall_ref:12.6g} {units['work_per_ref']:<6}"
          f" {load.units} units / wall_ref")
    metrics = {
        "wall_ref": wall_ref,
        "work_per_ref": load.units / wall_ref,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup.walls),
    }
    return metrics, tally


def measure_in_process(load: workloads.Workload, seconds: float, units: dict) -> tuple[dict, Tally]:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    from cavity_bell import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: cavity_bell was imported from {cli.__file__}, not {SRC}")
    out_dir = WORK / load.name
    argv = [*load.argv, "--out", str(out_dir / load.output)]
    tally = Tally()

    def call(tracer: Tracer | None) -> bool:
        clear(out_dir)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = tracer.run(cli.main, argv) if tracer else cli.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = "an exception"
        wall = time.perf_counter() - start
        problems = [f"cli.main returned {code}"] if code != 0 else load.check(out_dir / load.output)
        return tally.record(load.name, problems, wall)

    call(None)  # warm-up: lazy imports and first-call costs
    untraced: list[float] = []
    traced: list[float] = []
    reps: list[dict] = []
    tracer = None
    start = time.monotonic()
    while time.monotonic() - start < seconds or not reps:
        if call(None):
            untraced.append(tally.walls[-1])
        tracer = Tracer()
        tracer.install()
        try:
            ok = call(tracer)
        finally:
            tracer.uninstall()
        if ok:
            traced.append(tally.walls[-1])
            written = sum(p.stat().st_size for p in out_dir.iterdir())
            reps.append(tracer.metrics(load.rows, written))
        if tally.failed and not reps:
            break
    shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        WORK.mkdir(exist_ok=True)
        tracer.write_spans(WORK / f"spans-{load.name}.csv")
        for name in tracer.missing:
            print(f"missing: {name} is not defined, so its spans and counters are absent",
                  file=sys.stderr)
    if not reps or not untraced:
        return {}, tally

    metrics: dict[str, float] = {}
    for name, unit in units.items():
        values = [rep[name] for rep in reps if name in rep]
        if name == "trace.overhead_s":
            metrics[name] = statistics.median(traced) - statistics.median(untraced)
        elif not values:
            print(f"missing: per-layer metric {name}", file=sys.stderr)
        elif unit == "s":
            metrics[name] = statistics.median(values)
        else:
            if len(set(values)) > 1:
                print(f"warning: {name} differs between traced runs: {values}", file=sys.stderr)
            metrics[name] = values[0]
    layers = tracer.layer_self_s()
    total = sum(layers.values()) or 1.0
    print(f"{len(reps)} traced and {len(untraced)} untraced runs;"
          f" traced median {statistics.median(traced):.4g} s,"
          f" untraced median {statistics.median(untraced):.4g} s")
    print("self time by layer (last traced run): " + ", ".join(
        f"{layer} {100 * layers[layer] / total:.1f}%" for layer in LAYERS))
    print(f"dominant layer: {max(layers, key=layers.get)}")
    for name, value in metrics.items():
        print(f"{name:<38} {value:14.6g} {units[name]}")
    return metrics, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cavity_bell" / "cli.py").is_file():
        print(f"error: no cavity_bell sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Children inherit this; traced runs import numpy only after it is set.
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in section}

    load = workloads.workload(args.workload, args.seed)
    print(f"workload {load.name}, seed {args.seed}, variant {load.variant}:"
          f" cavity-bell {' '.join(load.argv)}")
    print(f"env: {environment()}")
    measure = measure_in_process if args.trace else measure_processes
    values, tally = measure(load, args.seconds, units)
    print(f"error_rate = {tally.failed / max(tally.attempted, 1):.6g}"
          f" ({tally.failed} failed of {tally.attempted} attempted)")
    if not values:
        print("error: no run succeeded, so there is nothing to report", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
