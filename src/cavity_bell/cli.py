"""Command-line front end.

Subcommands produce the data files behind the usual plots and reports:

    scan         S_B versus degree of entanglement G for a preset (CSV)
    pscan        S_B versus p with the argmax reported (CSV)
    covariance   field expectation / correlation / covariance report
    simulate     seeded Monte Carlo Bell experiment report
    generate     fidelity report for the state-generation protocol
    sensitivity  pulse-timing error sweep (CSV)

Every command writes its output file plus a flat key-value manifest at
<out>.manifest recording the command and resolved parameters, plus the seed
for simulate, the one command that draws random numbers, so a run can be
reproduced byte-identically. Handlers only compute; ``main`` writes each
run's output, then its manifest, then its stdout lines. Both files are
written beside their paths and moved in, output first, once both are
complete, so a failed run leaves no file and an older one as it was; if the
manifest cannot be moved in, the output just moved in is removed. The CSV
commands make, compute and write their grid one block of points at a time,
so memory does not grow with the grid. Angles accept plain radians or
multiples of pi such as "0.25pi". CSV output uses '.' decimals, twelve
significant digits, LF line endings and a header row. Negative option
values need the = form, e.g. --theta2=-0.3pi.

This module imports only the standard library and ``constants``, so
``--help``, ``<command> --help`` and usage errors never load numpy or the
physics layer. ``main`` loads that layer once the arguments parse, all five
modules for every command, and each handler imports the names it calls
from their defining modules.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import math
import os
import sys

from . import __version__
from .constants import DEFAULT_N_MAX, MAX_GRID_POINTS, PRESETS


def parse_angle(text: str) -> float:
    """Parse an angle in radians, accepting multiples of pi like "0.25pi"."""
    t = text.strip().lower()
    if t.endswith("pi"):
        head = t[:-2].strip()
        if head.endswith("*"):
            head = head[:-1].strip()
        if head in ("", "+"):
            factor = 1.0
        elif head == "-":
            factor = -1.0
        else:
            factor = float(head)
        return factor * math.pi
    return float(t)


def _grid_spec(name: str, text: str) -> tuple[float, float, int]:
    """Check option ``name``'s "start:stop:step"; return start, step and the point count."""
    try:
        start, stop, step = map(float, text.split(":"))
    except ValueError:  # not three parts, or one that is not a number
        raise ValueError(f"{name} spec must be start:stop:step, got {text!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"{name} spec must be finite, got {text!r}")
    if step <= 0.0:
        raise ValueError(f"{name} step must be positive")
    if stop < start:
        raise ValueError(f"{name} stop must not be below start")
    if not (stop - start) / step + 1.0 <= MAX_GRID_POINTS:
        raise ValueError(f"{name} {text!r} has more than {MAX_GRID_POINTS} points")
    return start, step, int(math.floor((stop - start) / step + 1e-9)) + 1


def parse_value_list(text: str):
    """Parse --epsilons, a grid spec or a comma list of floats, into blocks of values.

    A grid yields its inclusive points per block of bell.grid_blocks.
    """
    if ":" in text:
        from .bell import grid_blocks

        return grid_blocks(*_grid_spec("epsilons", text))
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"epsilons must be numbers, got {text!r}") from None
    if not values:
        raise ValueError(f"epsilons has no values in {text!r}")
    return [values]  # one block: the list is no longer than its text


def fmt(value: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so a zero never prints with a sign
    return "%.12g" % (float(value) + 0.0)


@contextlib.contextmanager
def _named(path: str):
    # an OSError on path's file as the one-line refusal of --out
    try:
        yield
    except OSError as exc:  # a temporary file's name is ours, not the user's
        raise ValueError(f"out: cannot write {path}: {exc.strerror}") from None


@contextlib.contextmanager
def _output():
    """Yield ``create(path)``, which opens a temporary file beside path; move
    each onto its path in turn once the block ends. On any failure remove
    every file made, a path already moved onto too.
    """
    made = []  # [file on disk, its path] of each file made

    def create(path: str):
        with _named(path):
            handle = open(f"{path}.{os.getpid()}.tmp", "x", encoding="utf-8", newline="\n")
        made.append([handle.name, path])
        return handle

    try:
        yield create
        for entry in made:
            with _named(entry[1]):
                os.replace(*entry)
            entry[0] = entry[1]
    except BaseException:
        for name, _ in made:
            os.remove(name)
        raise


def _write_csv(handle, header: str, chunks) -> int:
    """Write CSV rows with the precision of ``fmt``; return the number of rows.

    ``chunks`` yields a tuple of equal-length columns per block of the grid,
    so no column is held whole; rows are formatted with one ``%`` per block
    of text. A cell in flight takes about 75 bytes (two array slots, a float,
    a list and a tuple slot and its text); it counts as eight 16-byte
    amplitudes in bell.blocks, so a block of text is at most about half of a
    kernel block.
    """
    import numpy as np

    from .bell import blocks

    row = ",".join(["%.12g"] * (header.count(",") + 1)) + "\n"
    rows = 0
    handle.write(header + "\n")
    for columns in chunks:
        rows += len(columns[0])
        for block in blocks(len(columns[0]), 8 * len(columns)):
            cells = np.column_stack([column[block] for column in columns]) + 0.0  # as in fmt
            handle.write((row * len(cells)) % tuple(cells.ravel().tolist()))
    return rows


def _write_keyvalue(handle, items) -> None:
    for key, value in items:
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = fmt(value)
        handle.write(f"{key} = {value}\n")


#: Parsed options that are not ``param.*`` manifest lines: the subcommand and
#: its handler, and the two options the manifest records on lines of their own.
_NOT_PARAMS = frozenset({"command", "handler", "out", "seed"})


def write_manifest(handle, args, results: dict) -> None:
    """Write the run manifest of ``args`` and its ``result.*`` values.

    Every parsed option of the command except _NOT_PARAMS is one param.* line.
    The n_max line records the fixed Fock cutoff every command runs at.
    """
    params = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMS}
    items = [("command", args.command), ("version", __version__)]
    if "seed" in args:
        items.append(("seed", args.seed))
    items.append(("n_max", DEFAULT_N_MAX))
    items += [(f"param.{key}", params[key]) for key in sorted(params)]
    items.append(("output", args.out))
    items += [(f"result.{key}", value) for key, value in sorted(results.items())]
    _write_keyvalue(handle, items)


class _Run:
    """A command's run: a CSV ``header`` and the column blocks ``body`` yields,
    or no header and key-value items; ``results`` (result.* values) and
    ``lines`` (stdout), which ``main`` calls after writing the body.
    """

    def __init__(self, header, body, results=dict, lines=list):
        self.header, self.body, self.results, self.lines = header, body, results, lines


#: Options of the two-cavity state, in EntangledGbsParams field order.
STATE_OPTIONS = ("p1", "p2", "theta1", "theta2", "eta")
#: Options of a Bell run at a preset, in preset_config order.
BELL_RUN_OPTIONS = ("preset", "eta", "p", "theta")


def _echo(args, names) -> list:
    """Report lines that repeat the options ``names`` of the run."""
    return [(name, getattr(args, name)) for name in names]


def _state_params(args):
    from .fields import EntangledGbsParams

    return EntangledGbsParams(**dict(_echo(args, STATE_OPTIONS)))


def _bell_config(args):
    from .bell import preset_config

    return preset_config(args.preset, args.eta, p=args.p, theta=args.theta)


def cmd_scan(args) -> _Run:
    import numpy as np

    from .bell import (analytic_s_b, angle_preset, bell_function_operator_vs_eta, eta_for_degree,
                       grid_blocks)

    start, step, count = _grid_spec("grid", args.grid)
    if start < -1e-9 or (count - 1) * step + start > 1.0 + 1e-9:  # the first and last points
        bad = next(x for g in grid_blocks(start, step, count)
                   for x in g[(g < -1e-9) | (g > 1.0 + 1e-9)].tolist())
        raise ValueError(f"grid must lie within [0, 1], got {bad!r}")
    angles = angle_preset(args.preset, args.theta)  # eta >= 0 all along a G scan
    grid = (np.clip(g, 0.0, 1.0, out=g) for g in grid_blocks(start, step, count))
    return _Run("G,s_b_analytic,s_b_operator",
                ((g, analytic_s_b(args.preset, g),
                  bell_function_operator_vs_eta(args.theta, eta_for_degree(g), angles, 0.5))
                 for g in grid))


def cmd_pscan(args) -> _Run:
    from .bell import PArgmax, angle_preset, bell_function_vs_p, p_grid

    angles = angle_preset(args.preset, args.theta, args.eta)
    best = PArgmax()
    chunks = ((ps, best.add(ps, bell_function_vs_p(args.theta, args.eta, angles, ps)))
              for ps in p_grid(args.step))  # p_grid checks the step here, before any block
    return _Run("p,s_b", chunks, lambda: {"p_star": best.p}, lambda: [f"p_star = {fmt(best.p)}"])


def cmd_covariance(args) -> _Run:
    from .fields import FieldStats, field_covariance, field_covariance_operator

    params = _state_params(args)
    routes = {"analytic": field_covariance(params), "operator": field_covariance_operator(params)}
    items = _echo(args, STATE_OPTIONS) + [(f"{name}_{route}", getattr(stats, name))
                                          for name in FieldStats._fields
                                          for route, stats in routes.items()]
    return _Run(None, items, lines=lambda: [f"covariance = {fmt(routes['analytic'].covariance)}"])


def cmd_simulate(args) -> _Run:
    from .bell import bell_function, violation_threshold
    from .dynamics import ExperimentConfig, detection_threshold_check, run_bell_experiment

    if args.shots < 100:
        raise ValueError(f"shots must be at least 100, got {args.shots}")
    report = detection_threshold_check(args.alpha)
    config = _bell_config(args)
    estimate = run_bell_experiment(ExperimentConfig(config, args.shots, args.seed, args.alpha))
    analytic = bell_function(config)
    items = _echo(args, COMMANDS["simulate"][1]) + [
        ("alpha_threshold", report.alpha_threshold),
        ("alpha_above_threshold", report.violable),
        ("s_b_analytic", analytic),
        ("s_b_hat", estimate.s_b_hat),
        ("std_error", estimate.std_error),
        ("violation_threshold", violation_threshold(args.preset)),
        ("discarded_shots", estimate.discarded_shots),
    ]
    items += [(f"note.{key}", text) for key, text in estimate.notes]
    items += [(f"setting.{index}.{key}", getattr(setting, key))
              for index, setting in enumerate(estimate.settings, start=1)
              for key in ("phi_a", "phi_b", "correlation", "std_error", "retained")]
    return _Run(None, items, lambda: {"s_b_hat": estimate.s_b_hat, "std_error": estimate.std_error},
                lambda: [f"s_b_hat = {fmt(estimate.s_b_hat)} +/- {fmt(estimate.std_error)}"
                         f" (analytic {fmt(analytic)})"])


def cmd_generate(args) -> _Run:
    from .dynamics import InitialAtomPair, generate_entangled_gbs
    from .fields import entangled_gbs_state
    from .fock import fidelity

    params = _state_params(args)
    result = generate_entangled_gbs(InitialAtomPair(params.eta), params.p1, params.theta1,
                                    params.p2, params.theta2)
    fid = fidelity(result.field, entangled_gbs_state(params))
    probs = result.atom_probabilities  # [atom 1, atom 2], each down or up
    items = _echo(args, STATE_OPTIONS) + [("fidelity", fid)] + [
        (f"prob_{a}_{b}", probs[i, j])
        for i, a in enumerate(("down", "up")) for j, b in enumerate(("down", "up"))]
    return _Run(None, items, lambda: {"fidelity": fid}, lambda: [f"fidelity = {fmt(fid)}"])


def cmd_sensitivity(args) -> _Run:
    from .dynamics import ExperimentConfig, timing_sensitivity

    errors = parse_value_list(args.epsilons)
    # The sweep draws no random numbers; shots and seed only fill the config.
    experiment = ExperimentConfig(bell=_bell_config(args), shots=1, seed=0)
    sweep = (timing_sensitivity(experiment, block) for block in errors)
    return _Run("epsilon,fidelity,s_b", ((b.epsilon, b.fidelity, b.s_b) for b in sweep))


#: Every option of the commands, by name: its argparse keywords. "preset"
#: is positional; every other name is a --flag.
OPTIONS = {
    "out": dict(required=True, help="output file path"),
    "preset": dict(choices=PRESETS),
    "p1": dict(type=float, default=0.5),
    "p2": dict(type=float, default=0.5),
    "theta1": dict(type=parse_angle, default=0.0),
    "theta2": dict(type=parse_angle, default=0.0),
    "eta": dict(type=float, default=1.0),
    "p": dict(type=float, default=0.5),
    "theta": dict(type=parse_angle, default=0.0, help="state phase"),
    "grid": dict(default="0:1:0.05", help="G grid as start:stop:step"),
    "step": dict(type=float, default=0.005, help="p grid step"),
    "shots": dict(type=int, default=10000, help="shots per setting (min 100)"),
    "seed": dict(type=int, default=12345, help="random seed (default 12345)"),
    "alpha": dict(type=float, default=1.0, help="detector efficiency in [0, 1]"),
    "epsilons": dict(default="-0.05,-0.02,-0.01,0,0.01,0.02,0.05",
                     help="relative timing errors: comma list or start:stop:step"),
}

#: Each command, run by cmd_<name>: its help and the options it takes after --out.
COMMANDS = {
    "scan": ("S_B vs degree of entanglement G (CSV)", ("preset", "grid", "theta")),
    "pscan": ("S_B vs p with argmax (CSV)", ("preset", "eta", "theta", "step")),
    "covariance": ("field statistics report (key-value)", STATE_OPTIONS),
    "simulate": ("Monte Carlo Bell experiment (key-value)",
                 BELL_RUN_OPTIONS + ("shots", "seed", "alpha")),
    "generate": ("generation-protocol fidelity (key-value)", STATE_OPTIONS),
    "sensitivity": ("pulse-timing error sweep (CSV)", BELL_RUN_OPTIONS + ("epsilons",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity-bell",
        description="Entangled two-cavity Bernoulli states: Bell scans and protocol simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, names) in COMMANDS.items():
        command_parser = sub.add_parser(command, help=text)
        for name in ("out", *names):
            command_parser.add_argument(name if name == "preset" else f"--{name}", **OPTIONS[name])
        command_parser.set_defaults(handler=globals()[f"cmd_{command}"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Every command loads the whole physics layer, so whichever command runs,
    # the same modules are loaded for a tracer to patch and the same memory
    # is taken.
    from . import bell, binomial, dynamics, fields, fock  # noqa: F401

    try:
        run = args.handler(args)
        with _output() as create:
            with create(args.out) as out:
                rows = (_write_csv(out, run.header, run.body) if run.header
                        else _write_keyvalue(out, run.body))
            with create(args.out + ".manifest") as manifest:
                write_manifest(manifest, args, run.results())
        for line in run.lines():
            print(line)
        if run.header:
            print(f"wrote {args.out} ({rows} rows)")
        return 0
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
