"""The benchmark workloads: one ``cavity-bell`` command each.

The benchmark seed picks one of ``VARIANTS`` parameter sets of equal cost,
so every seed gives the same amount of work while the inputs still come
from the seed. The deterministic commands must keep their outputs byte for
byte, so ``spec.json`` records the sha256 of each variant's output; the
Monte Carlo command is checked statistically instead, because its random
stream may change.

Invocations avoid ``--format``, ``--seed`` on deterministic commands and
``p != 1/2`` simulations: the first two are due to be removed from the CLI,
and the last prints a warning.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

VARIANTS = 8
ETAS = ("1", "0.9", "0.8", "0.7", "0.6", "0.5", "0.4", "0.3")

SCAN_STEP = 4e-4  # 2500 G points from an offset in [0, SCAN_STEP)
PSCAN_STEP = "2.5e-5"  # 40001 p points
SWEEP_EPSILONS = "-0.4:0.4:8e-4"  # 1001 timing errors
SHOTS = 2_000_000  # per setting
ALPHA = 0.9

# Largest |s_b_analytic - s_b_operator| a correct scan CSV may show; the
# CSV keeps twelve significant digits, so it reads about 1e-11.
ORACLE_TOL = 1e-10
# Allowed distance of a Monte Carlo estimate from its expectation, in
# standard errors.
SIGMAS = 5.0

SPEC = json.loads((Path(__file__).with_name("spec.json")).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # the command line after ``cavity-bell``, without --out
    output: str  # output file name
    rows: int  # data rows the command writes, 0 for a key-value report
    units: int  # work units per run: rows, or shots summed over settings
    deterministic: bool
    variant: int  # index of the parameter set the seed picked
    reference: str  # kind of reference.py program its wall time is divided by

    def check(self, path: Path) -> list[str]:
        """Problems with the output file at ``path``; empty if it is correct."""
        if not path.is_file():
            return [f"{path.name} was not written"]
        problems = []
        if self.deterministic:
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            expected = SPEC["digests"][self.name][self.variant]
            if digest != expected:
                problems.append(f"sha256 {digest} differs from the recorded {expected}")
            rows = data_rows(path)
            if rows != self.rows:
                problems.append(f"{rows} rows written, {self.rows} expected")
        if self.name == "scan-oracle":
            problems += _check_scan(path)
        if self.name == "mc-lossy":
            problems += _check_simulate(path)
        return problems


def workload(name: str, seed: int) -> Workload:
    """The workload ``name`` with its inputs for ``seed``."""
    variant = seed % VARIANTS
    eta = ETAS[variant]
    if name == "scan-oracle":
        start = variant * SCAN_STEP / VARIANTS
        grid = f"{start:.5f}:{start + 2499 * SCAN_STEP:.5f}:{SCAN_STEP:g}"
        theta = f"{variant / VARIANTS:g}pi"
        return Workload(name, ("scan", "maximal", "--grid", grid, "--theta", theta),
                        "scan.csv", 2500, 2500, True, variant, "small")
    if name == "pscan-closed":
        return Workload(name, ("pscan", "maximal", "--step", PSCAN_STEP, "--eta", eta),
                        "pscan.csv", 40001, 40001, True, variant, "small")
    if name == "mc-lossy":
        argv = ("simulate", "maximal", "--alpha", str(ALPHA), "--shots", str(SHOTS),
                "--seed", str(seed))
        return Workload(name, argv, "simulate.txt", 0, 4 * SHOTS, False, variant, "bulk")
    if name == "timing-sweep":
        argv = ("sensitivity", "maximal", "--eta", eta, f"--epsilons={SWEEP_EPSILONS}")
        return Workload(name, argv, "sensitivity.csv", 1001, 1001, True, variant, "small")
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("scan-oracle", "pscan-closed", "mc-lossy", "timing-sweep")


def data_rows(path: Path) -> int:
    """Lines after the header of a CSV file."""
    with path.open(encoding="utf-8") as handle:
        return max(sum(1 for _ in handle) - 1, 0)


def _check_scan(path: Path) -> list[str]:
    try:
        with path.open(encoding="utf-8", newline="") as handle:
            worst = max(
                (abs(float(r["s_b_analytic"]) - float(r["s_b_operator"]))
                 for r in csv.DictReader(handle)),
                default=math.inf,
            )
    except (KeyError, ValueError) as exc:
        return [f"scan CSV is malformed: {exc!r}"]
    if not worst <= ORACLE_TOL:
        return [f"max |s_b_analytic - s_b_operator| = {worst:.3g} exceeds {ORACLE_TOL:g}"]
    return []


def _check_simulate(path: Path) -> list[str]:
    report = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            report[key] = value
    try:
        shots = int(report["shots"])
        s_b_hat = float(report["s_b_hat"])
        s_b = float(report["s_b_analytic"])
        std_error = float(report["std_error"])
        retained = [int(report[f"setting.{k}.retained"]) for k in range(1, 5)]
        discarded = int(report["discarded_shots"])
    except (KeyError, ValueError) as exc:
        return [f"simulate report is incomplete: {exc!r}"]
    problems = []
    if shots != SHOTS:
        problems.append(f"report has {shots} shots per setting, {SHOTS} expected")
    if not abs(s_b_hat - s_b) <= SIGMAS * std_error:
        problems.append(f"s_b_hat {s_b_hat} is more than {SIGMAS:g} standard errors"
                        f" ({std_error}) from s_b_analytic {s_b}")
    # Each atom is detected with probability alpha, so a shot is kept with
    # probability alpha^2.
    kept = ALPHA**2
    spread = SIGMAS * math.sqrt(kept * (1.0 - kept) / shots)
    for index, count in enumerate(retained, start=1):
        if not abs(count / shots - kept) <= spread:
            problems.append(f"setting {index} kept {count} of {shots} shots,"
                            f" not alpha^2 = {kept:g} within {spread:.2g}")
    if discarded != 4 * shots - sum(retained):
        problems.append(f"discarded_shots {discarded} != {4 * shots - sum(retained)}")
    return problems
