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
reproduced byte-identically. Angles accept plain radians or
multiples of pi such as "0.25pi". CSV output uses '.' decimals, twelve
significant digits, LF line endings and a header row. Negative values of
option arguments need the = form, e.g. --theta2=-0.3pi.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import __version__
from .bell import (
    MAX_GRID_POINTS,
    PRESETS,
    analytic_s_b,
    angle_preset,
    bell_function,
    bell_function_operator_vs_eta,
    bell_function_vs_p,
    eta_for_degree,
    p_argmax,
    p_grid,
    preset_config,
    violation_threshold,
)
from .dynamics import (
    ExperimentConfig,
    InitialAtomPair,
    detection_threshold_check,
    generate_entangled_gbs,
    run_bell_experiment,
    timing_sensitivity,
)
from .fields import (
    EntangledGbsParams,
    entangled_gbs_state,
    field_correlation_operator,
    field_covariance,
    field_expectation_operator,
)
from .fock import DEFAULT_N_MAX, fidelity


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


def parse_grid(text: str) -> list[float]:
    """Parse "start:stop:step" into the inclusive list of grid points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid spec must be start:stop:step, got {text!r}")
    start, stop, step = (float(part) for part in parts)
    if not all(map(math.isfinite, (start, stop, step))):
        raise ValueError(f"grid spec must be finite, got {text!r}")
    if step <= 0.0:
        raise ValueError("grid step must be positive")
    if stop < start:
        raise ValueError("grid stop must not be below start")
    if not (stop - start) / step + 1.0 <= MAX_GRID_POINTS:
        raise ValueError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
    count = int(math.floor((stop - start) / step + 1e-9))
    return [start + i * step for i in range(count + 1)]


def parse_value_list(text: str) -> list[float]:
    if ":" in text:
        return parse_grid(text)
    values = [float(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"no values in {text!r}")
    return values


def fmt(value: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so a zero never prints with a sign
    return "%.12g" % (float(value) + 0.0)


def _format_param(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def _write_csv(path: str, header: str, columns) -> None:
    """Write equal-length columns as CSV rows with the precision of ``fmt``."""
    columns = [np.asarray(column, dtype=float) + 0.0 for column in columns]  # as in fmt
    row = ",".join(["%.12g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(header + "\n")
        for values in zip(*columns):
            handle.write(row % values)


def _write_keyvalue(path: str, items) -> None:
    lines = [f"{key} = {_format_param(value)}\n" for key, value in items]
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.writelines(lines)


#: Parsed options that are not ``param.*`` manifest lines: the subcommand and
#: its handler, and the three options the manifest records on lines of their own.
_NOT_PARAMS = frozenset({"command", "handler", "n_max", "out", "seed"})


def write_manifest(args, results: dict | None = None) -> None:
    """Write the run manifest next to the output file.

    Every parsed option of the command except _NOT_PARAMS is one param.* line.
    """
    params = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMS}
    items = [("command", args.command), ("version", __version__)]
    if "seed" in args:
        items.append(("seed", args.seed))
    items.append(("n_max", args.n_max))
    items += [(f"param.{key}", params[key]) for key in sorted(params)]
    items.append(("output", args.out))
    items += [(f"result.{key}", value) for key, value in sorted((results or {}).items())]
    _write_keyvalue(args.out + ".manifest", items)


#: Options of the two-cavity state, in EntangledGbsParams field order.
STATE_OPTIONS = tuple(field.name for field in dataclasses.fields(EntangledGbsParams))
#: Options of a Bell run at a preset, in preset_config order.
BELL_RUN_OPTIONS = ("preset", "eta", "p", "theta")


def _echo(args, names) -> list:
    """Report lines that repeat the options ``names`` of the run."""
    return [(name, getattr(args, name)) for name in names]


def _state_params(args) -> EntangledGbsParams:
    return EntangledGbsParams(**dict(_echo(args, STATE_OPTIONS)))


def _bell_config(args):
    return preset_config(args.preset, args.eta, p=args.p, theta=args.theta)


def cmd_scan(args) -> int:
    grid = parse_grid(args.grid)
    if grid[0] < -1e-9 or grid[-1] > 1.0 + 1e-9:
        raise ValueError("G grid must lie within [0, 1]")
    degrees = np.clip(grid, 0.0, 1.0)
    angles = angle_preset(args.preset, args.theta)  # eta >= 0 all along a G scan
    s_b_operator = bell_function_operator_vs_eta(
        0.5, args.theta, angles, eta_for_degree(degrees), args.n_max
    )
    columns = (degrees, analytic_s_b(args.preset, degrees), s_b_operator)
    _write_csv(args.out, "G,s_b_analytic,s_b_operator", columns)
    write_manifest(args)
    print(f"wrote {args.out} ({len(grid)} rows)")
    return 0


def cmd_pscan(args) -> int:
    angles = angle_preset(args.preset, args.theta, eta_sign=1.0 if args.eta >= 0 else -1.0)
    ps = p_grid(args.step)
    values = bell_function_vs_p(args.theta, args.eta, angles, ps)
    p_star = p_argmax(ps, values)
    _write_csv(args.out, "p,s_b", (ps, values))
    write_manifest(args, {"p_star": p_star})
    print(f"p_star = {fmt(p_star)}")
    print(f"wrote {args.out} ({len(ps)} rows)")
    return 0


def cmd_covariance(args) -> int:
    params = _state_params(args)
    stats = field_covariance(params)
    e1_op = field_expectation_operator(params, 1, args.n_max)
    e2_op = field_expectation_operator(params, 2, args.n_max)
    e1e2_op = field_correlation_operator(params, args.n_max)
    items = _echo(args, STATE_OPTIONS) + [
        ("e1_analytic", stats.e1),
        ("e1_operator", e1_op),
        ("e2_analytic", stats.e2),
        ("e2_operator", e2_op),
        ("e1e2_analytic", stats.e1e2),
        ("e1e2_operator", e1e2_op),
        ("covariance_analytic", stats.covariance),
        ("covariance_operator", e1e2_op - e1_op * e2_op),
    ]
    _write_keyvalue(args.out, items)
    write_manifest(args)
    print(f"covariance = {fmt(stats.covariance)}")
    return 0


def cmd_simulate(args) -> int:
    if args.shots < 100:
        raise ValueError("shots must be at least 100")
    config = _bell_config(args)
    experiment = ExperimentConfig(
        bell=config,
        shots=args.shots,
        seed=args.seed,
        detector_efficiency=args.alpha,
        n_max=args.n_max,
    )
    estimate = run_bell_experiment(experiment)
    analytic = bell_function(config)
    report = detection_threshold_check(args.alpha)
    items = _echo(args, BELL_RUN_OPTIONS + ("shots", "seed", "alpha")) + [
        ("alpha_threshold", report.alpha_threshold),
        ("alpha_above_threshold", report.violable),
        ("s_b_analytic", analytic),
        ("s_b_hat", estimate.s_b_hat),
        ("std_error", estimate.std_error),
        ("violation_threshold", violation_threshold(args.preset)),
        ("discarded_shots", estimate.discarded_shots),
    ]
    for index, setting in enumerate(estimate.settings, start=1):
        prefix = f"setting.{index}"
        items.extend(
            [
                (f"{prefix}.phi_a", setting.phi_a),
                (f"{prefix}.phi_b", setting.phi_b),
                (f"{prefix}.correlation", setting.correlation),
                (f"{prefix}.std_error", setting.std_error),
                (f"{prefix}.retained", setting.retained),
            ]
        )
    _write_keyvalue(args.out, items)
    write_manifest(args, {"s_b_hat": estimate.s_b_hat, "std_error": estimate.std_error})
    print(f"s_b_hat = {fmt(estimate.s_b_hat)} +/- {fmt(estimate.std_error)}"
          f" (analytic {fmt(analytic)})")
    return 0


def cmd_generate(args) -> int:
    params = _state_params(args)
    result = generate_entangled_gbs(
        InitialAtomPair(params.eta),
        params.p1,
        params.theta1,
        params.p2,
        params.theta2,
        n_max=args.n_max,
    )
    fid = fidelity(result.field, entangled_gbs_state(params, args.n_max))
    probs = result.atom_probabilities
    items = _echo(args, STATE_OPTIONS) + [
        ("fidelity", fid),
        ("prob_down_down", float(probs[0, 0])),
        ("prob_down_up", float(probs[0, 1])),
        ("prob_up_down", float(probs[1, 0])),
        ("prob_up_up", float(probs[1, 1])),
    ]
    _write_keyvalue(args.out, items)
    write_manifest(args, {"fidelity": fid})
    print(f"fidelity = {fmt(fid)}")
    return 0


def cmd_sensitivity(args) -> int:
    epsilons = parse_value_list(args.epsilons)
    # The sweep draws no random numbers; shots and seed only fill the config.
    experiment = ExperimentConfig(bell=_bell_config(args), shots=1, seed=0, n_max=args.n_max)
    rows = timing_sensitivity(experiment, epsilons)
    columns = [[getattr(row, name) for row in rows] for name in ("epsilon", "fidelity", "s_b")]
    _write_csv(args.out, "epsilon,fidelity,s_b", columns)
    write_manifest(args)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavity-bell",
        description="Entangled two-cavity Bernoulli states: Bell scans and protocol simulation.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--n-max",
        type=int,
        default=DEFAULT_N_MAX,
        dest="n_max",
        help=f"Fock-space cutoff (default {DEFAULT_N_MAX})",
    )
    common.add_argument("--out", required=True, help="output file path")
    state = argparse.ArgumentParser(add_help=False)  # STATE_OPTIONS
    state.add_argument("--p1", type=float, default=0.5)
    state.add_argument("--p2", type=float, default=0.5)
    state.add_argument("--theta1", type=parse_angle, default=0.0)
    state.add_argument("--theta2", type=parse_angle, default=0.0)
    state.add_argument("--eta", type=float, default=1.0)
    bell_run = argparse.ArgumentParser(add_help=False)  # BELL_RUN_OPTIONS
    bell_run.add_argument("preset", choices=PRESETS)
    bell_run.add_argument("--eta", type=float, default=1.0)
    bell_run.add_argument("--p", type=float, default=0.5)
    bell_run.add_argument("--theta", type=parse_angle, default=0.0)
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser(
        "scan", parents=[common], help="S_B vs degree of entanglement G (CSV)"
    )
    scan.add_argument("preset", choices=PRESETS)
    scan.add_argument("--grid", default="0:1:0.05", help="G grid as start:stop:step")
    scan.add_argument("--theta", type=parse_angle, default=0.0, help="state phase")
    scan.set_defaults(handler=cmd_scan)

    pscan = sub.add_parser("pscan", parents=[common], help="S_B vs p with argmax (CSV)")
    pscan.add_argument("preset", choices=PRESETS)
    pscan.add_argument("--eta", type=float, default=1.0)
    pscan.add_argument("--theta", type=parse_angle, default=0.0)
    pscan.add_argument("--step", type=float, default=0.005, help="p grid step")
    pscan.set_defaults(handler=cmd_pscan)

    covariance = sub.add_parser(
        "covariance", parents=[common, state], help="field statistics report (key-value)"
    )
    covariance.set_defaults(handler=cmd_covariance)

    simulate = sub.add_parser(
        "simulate", parents=[common, bell_run], help="Monte Carlo Bell experiment (key-value)"
    )
    simulate.add_argument("--shots", type=int, default=10000, help="shots per setting (min 100)")
    simulate.add_argument("--seed", type=int, default=12345, help="random seed (default 12345)")
    simulate.add_argument(
        "--alpha", type=float, default=1.0, help="detector efficiency in [0, 1]"
    )
    simulate.set_defaults(handler=cmd_simulate)

    generate = sub.add_parser(
        "generate", parents=[common, state], help="generation-protocol fidelity (key-value)"
    )
    generate.set_defaults(handler=cmd_generate)

    sensitivity = sub.add_parser(
        "sensitivity", parents=[common, bell_run], help="pulse-timing error sweep (CSV)"
    )
    sensitivity.add_argument(
        "--epsilons",
        default="-0.05,-0.02,-0.01,0,0.01,0.02,0.05",
        help="relative timing errors: comma list or start:stop:step",
    )
    sensitivity.set_defaults(handler=cmd_sensitivity)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, RuntimeError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
