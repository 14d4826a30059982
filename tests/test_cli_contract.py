"""The error contract, as one property over the parser's options and one over the library.

Every command line ends in exactly one of three ways: exit 0 with a finite
output, its manifest and the same bytes on a rerun; exit 1 with one
``error:`` line that starts with the name of one of the command's options,
and no file; or exit 2 with a usage message and no file. No
temporary file is left behind. The options and presets are drawn from
``build_parser()``, so a new one is covered without editing this test; a
new option type needs a pool in POOLS.

Every call of a public value type or scalar function on the same edge
values, read as numbers, returns or raises one ``ValueError`` that starts
with the name of one of its fields.
"""

import argparse
import contextlib
import io
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cavity_bell.bell import BellConfig
from cavity_bell.binomial import BinomialParams, GbsParams, binomial_overlap, binomial_state
from cavity_bell.cli import build_parser, main, parse_angle
from cavity_bell.dynamics import ExperimentConfig, InitialAtomPair
from cavity_bell.fields import EntangledGbsParams

#: Edge values of a number option: non-finite, past the square's range,
#: subnormal, one ulp off a round value, and text that is no number.
NUMBERS = (
    "nan", "inf", "-inf", "1e308", "-1e308", "5e-324", "1e154", "1e155", "-1e155",
    "0", "-0.0", "0.25", "0.5", "1", "1.0000000000000002", "-0.6", "2", "x",
)
ANGLES = NUMBERS + ("0.25pi", "-0.3pi", "1e308pi", "pi", "-pi")
#: Shot counts and seeds at the int64 and uint64 edges.
INTEGERS = (
    "-1", "0", "99", "100", "1000", str(2**63 - 1), str(2**63), str(2**64 - 1), str(2**64),
    "1e3",
)
#: Grid specs and value lists, the text options' values.
SPECS = (
    "0:1:0.1", "0:1:0.5", "0.2:0.2:0.1", "1:0:0.1", "0:1:0", "0:1:-0.1", "0:1", "0:1:1e-12",
    "0:1:5e-324", "0:inf:0.1", "nan:1:0.1", "-0.4:0.4:0.1", "-0.5:0.5:0.1", "0,0.01,-0.49",
    "0.5", "nan", ",", "",
)
#: The pool of each option type; None is argparse's plain text.
POOLS = {float: NUMBERS, parse_angle: ANGLES, int: INTEGERS, None: SPECS}


def subcommands() -> dict:
    """The subparser of each command name."""
    parser = build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


COMMANDS = subcommands()
#: The option names of each command, as an exit-1 line starts with them.
OPTION_NAMES = {name: {action.dest for action in parser._actions
                       if not isinstance(action, argparse._HelpAction)}
                for name, parser in COMMANDS.items()}


@st.composite
def command_lines(draw):
    """A command, its positional arguments and up to two of its options, each from its pool."""
    name = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [action for action in COMMANDS[name]._actions
               if not isinstance(action, argparse._HelpAction) and action.dest != "out"]
    options = [action for action in actions if action.option_strings]
    chosen = draw(st.lists(st.sampled_from(options), max_size=2, unique=True))
    argv = [name]
    for action in [action for action in actions if not action.option_strings] + chosen:
        if action.choices is not None:
            pool = (*action.choices, "unknown")
        else:
            pool = POOLS[action.type]
        value = draw(st.sampled_from(pool))
        argv.append(f"{action.option_strings[0]}={value}" if action.option_strings else value)
    return argv


def run(argv) -> tuple:
    """Exit code and stderr of one main() call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


def numbers(text: str) -> list:
    """Every CSV cell or key-value value of ``text`` that reads as a float."""
    found = []
    for line in text.splitlines():
        for cell in line.split(" = ", 1)[-1].split(","):
            try:
                found.append(float(cell))
            except ValueError:
                pass
    return found


@settings(derandomize=True, max_examples=250, deadline=None)
@given(command_lines())
@example(["simulate", "maximal", "--alpha=0"])  # no shot retained: the line names shots
@example(["simulate", "maximal", "--eta=5e-324", "--alpha=5e-324"])  # subnormal cell probabilities
def test_every_command_line_keeps_the_error_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = argv + [f"--out={out}"]
        code, err = run(argv)
        files = sorted(path.name for path in Path(tmp).iterdir())
        event(f"{argv[0]} exit {code}")
        if code == 0:
            assert err == "" and files == ["out", "out.manifest"], (err, files)
            written = [(Path(tmp) / name).read_bytes() for name in files]
            for data in written:
                assert all(map(math.isfinite, numbers(data.decode()))), data
            assert run(argv) == (0, "")
            assert [(Path(tmp) / name).read_bytes() for name in files] == written
        elif code == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            head = err[len("error: "):]
            assert any(head.startswith((f"{name} ", f"{name}:"))
                       for name in OPTION_NAMES[argv[0]]), err
            assert files == [], files
        else:
            assert code == 2 and "usage: " in err, (code, err)
            assert files == [], files


#: Edge values of a library field: the number and count pools read as
#: numbers, an int past the float range, bools and numpy scalars.
VALUES = (
    *(float(text) for text in NUMBERS if text != "x"),
    *(int(text) for text in INTEGERS if text != "1e3"),
    10**400, -10**400, True, False,
    np.float64("nan"), np.float64("-inf"), np.float64(5e-324), np.float64(1e155), np.float32(0.5),
    np.int64(2), np.int64(-1), np.int64(2**63 - 1), np.uint64(2**64 - 1), np.bool_(True),
)

BINOMIAL = {"n": 2, "p": 0.4, "phi": 0.3}
BELL = {"p": 0.5, "theta": 0.3, "eta": 0.7, "phi1": 0.0, "phi2": 0.8, "phi1_prime": 1.6,
        "phi2_prime": 2.4}
#: Each call under the contract: a function of field dicts, and the good
#: value of each field of each dict it takes.
CALLS = {
    "BinomialParams": (lambda a: BinomialParams(**a), [BINOMIAL]),
    "GbsParams": (lambda a: GbsParams(**a), [{"p": 0.4, "phi": 0.3}]),
    "EntangledGbsParams": (lambda a: EntangledGbsParams(**a),
                           [{"p1": 0.3, "p2": 0.8, "theta1": 0.8, "theta2": -0.9, "eta": -0.7}]),
    "BellConfig": (lambda a: BellConfig(**a), [BELL]),
    "InitialAtomPair": (lambda a: InitialAtomPair(**a), [{"eta": 0.7}]),
    "ExperimentConfig": (lambda bell, a: ExperimentConfig(BellConfig(**bell), **a),
                         [BELL, {"shots": 10, "seed": 3, "detector_efficiency": 0.9}]),
    "binomial_state": (lambda state, a: binomial_state(BinomialParams(**state), **a),
                       [BINOMIAL, {"n_max": 3}]),
    "binomial_overlap": (lambda a, b: binomial_overlap(BinomialParams(**a), BinomialParams(**b)),
                         [BINOMIAL, BINOMIAL]),
}


def edge_fields(good: dict):
    """The fields of ``good``, each its good value or an edge value."""
    return st.fixed_dictionaries(
        {name: st.one_of(st.just(value), st.sampled_from(VALUES)) for name, value in good.items()})


@st.composite
def library_calls(draw):
    """A call's name and its field dicts, drawn field by field."""
    call = draw(st.sampled_from(sorted(CALLS)))
    return call, [draw(edge_fields(good)) for good in CALLS[call][1]]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(library_calls())
@example(("binomial_overlap", [{"n": 10**400, "p": 0.5, "phi": 0.0}] * 2))  # past the float range
def test_every_library_call_keeps_the_error_contract(case):
    call, groups = case
    event(call)
    try:
        CALLS[call][0](*groups)
    except ValueError as exc:
        names = {name for group in groups for name in group}
        assert str(exc).startswith(tuple(f"{name} " for name in names)), exc
