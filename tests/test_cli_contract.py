"""The command-line error contract, as one property over the parser's options.

Every command line ends in exactly one of three ways: exit 0 with a finite
output, its manifest and the same bytes on a rerun; exit 1 with one
``error:`` line that starts with the name of one of the command's options,
and no file; or exit 2 with a usage message and no file. No
temporary file is left behind. The options and presets are drawn from
``build_parser()``, so a new one is covered without editing this test; a
new option type needs a pool in POOLS.
"""

import argparse
import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from cavity_bell.cli import build_parser, main, parse_angle

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
