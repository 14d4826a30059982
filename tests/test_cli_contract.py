"""The error contract, as one property over the parser's options and one over the library.

Every command line ends in exactly one of three ways: exit 0 with a finite
output, its manifest and the same bytes on a rerun; exit 1 with one
``error:`` line that starts with the name of one of the command's options,
and no file; or exit 2 with a usage message and no file. No
temporary file is left behind. The options and presets are drawn from
``build_parser()``, so a new one is covered without editing this test; a
new option type needs a pool in POOLS.

Every call of a public value type, scalar function or state and operator
constructor on the same edge values, read as numbers, raises one
``ValueError`` that starts with the name of one of its fields, and does so
whenever ``check_fields`` refuses a field by its name. Otherwise it returns a value whose every number is
finite and whose input fields are kept as plain floats and ints. The
refused command lines that must exit 1 are listed once, in
tests/refusals.txt.
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

from cavity_bell.bell import (BellConfig, analytic_s_b, angle_preset, bell_correlation,
                              bell_function, bell_function_operator, degree_of_entanglement,
                              dichotomic_eigenstates, dichotomic_gbs_matrix, dichotomic_operator,
                              eta_for_degree, optimal_p_scan, preset_config)
from cavity_bell.binomial import (BinomialParams, GbsParams, binomial_overlap, binomial_state,
                                  check_fields, gbs_state, orthogonal_partner, wrap_angle)
from cavity_bell.cli import build_parser, main, parse_angle
from cavity_bell.dynamics import (ExperimentConfig, InitialAtomPair, detection_threshold_check,
                                  generate_entangled_gbs, probe_measure, run_bell_experiment,
                                  timing_sensitivity)
from cavity_bell.fields import (EntangledGbsParams, entangled_gbs_state, field_covariance,
                                field_covariance_operator, field_expectation_operator)
from cavity_bell.fock import (FieldOperator, Frozen, RandomStream, StateVector, TwoCavityState,
                              quadrature)

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
GBS = {"p": 0.4, "phi": 0.3}
STATE = {"p1": 0.3, "p2": 0.8, "theta1": 0.8, "theta2": -0.9, "eta": -0.7}
ANGLES = {"phi1": 0.0, "phi2": 0.8, "phi1_prime": 1.6, "phi2_prime": 2.4}
BELL = {"p": 0.5, "theta": 0.3, "eta": 0.7, **ANGLES}
RUN = {"shots": 10, "seed": 3, "detector_efficiency": 0.9}
CUTOFF = {"n_max": 3}
DEGREE = {"degree of entanglement": 0.6}
#: Each call under the contract: a function of field dicts, and the good
#: value of each field of each dict it takes.
CALLS = {
    "BinomialParams": (lambda a: BinomialParams(**a), [BINOMIAL]),
    "GbsParams": (lambda a: GbsParams(**a), [GBS]),
    "EntangledGbsParams": (lambda a: EntangledGbsParams(**a), [STATE]),
    "BellConfig": (lambda a: BellConfig(**a), [BELL]),
    "InitialAtomPair": (lambda a: InitialAtomPair(**a), [{"eta": 0.7}]),
    "ExperimentConfig": (lambda bell, a: ExperimentConfig(BellConfig(**bell), **a), [BELL, RUN]),
    "binomial_state": (lambda state, a: binomial_state(BinomialParams(**state), **a),
                       [BINOMIAL, CUTOFF]),
    "binomial_overlap": (lambda a, b: binomial_overlap(BinomialParams(**a), BinomialParams(**b)),
                         [BINOMIAL, BINOMIAL]),
    "degree_of_entanglement": (lambda a: degree_of_entanglement(**a), [{"eta": 0.7}]),
    "eta_for_degree": (lambda a: eta_for_degree(*a.values()), [DEGREE]),
    "analytic_s_b": (lambda a: analytic_s_b("wide", *a.values()), [DEGREE]),
    "angle_preset": (lambda a: angle_preset("wide", **a), [{"theta": 0.3, "eta_sign": -1.0}]),
    "preset_config": (lambda a: preset_config("maximal", **a),
                      [{"eta": 0.7, "p": 0.4, "theta": 0.3}]),
    # phi_a and phi_b are refused by BellConfig's names for them, phi1 and phi2
    "bell_correlation": (lambda bell, a: bell_correlation(BellConfig(**bell), **a),
                         [BELL, {"phi_a": 0.2, "phi_b": -1.1}]),
    "dichotomic_gbs_matrix": (lambda a: dichotomic_gbs_matrix(**a),
                              [{"p": 0.4, "phi": 0.3, "phi_prime": 1.2}]),
    "dichotomic_eigenstates": (lambda a: dichotomic_eigenstates(**a),
                               [{"p": 0.4, "phi": 0.3, "phi_prime": 1.2, **CUTOFF}]),
    "dichotomic_operator": (lambda d, a: dichotomic_operator(GbsParams(**d), **a), [GBS, CUTOFF]),
    "quadrature": (lambda a: quadrature(**a), [CUTOFF]),
    "field_covariance_operator": (
        lambda state, a: field_covariance_operator(EntangledGbsParams(**state), **a),
        [STATE, CUTOFF]),
    "field_expectation_operator": (
        lambda state, a: field_expectation_operator(EntangledGbsParams(**state), **a),
        [STATE, {"cavity": 2, **CUTOFF}]),
    "generate_entangled_gbs": (
        lambda pair, a: generate_entangled_gbs(InitialAtomPair(**pair), **a),
        [{"eta": 0.7}, {"p1": 0.3, "theta1": 0.8, "p2": 0.8, "theta2": -0.9, **CUTOFF}]),
    "detection_threshold_check": (lambda a: detection_threshold_check(**a), [{"alpha": 0.9}]),
    "timing_sensitivity": (
        lambda bell, run, a: timing_sensitivity(ExperimentConfig(BellConfig(**bell), **run),
                                                [a["epsilons"], 0.0]),
        [BELL, RUN, {"epsilons": 0.02}]),
    "optimal_p_scan": (
        lambda a, angles: optimal_p_scan(a["theta"], a["eta"], [angles[name] for name in ANGLES],
                                         a["step"]),
        [{"theta": 0.3, "eta": 0.7, "step": 0.1}, ANGLES]),
    "bell_function": (lambda a: bell_function(BellConfig(**a)), [BELL]),
    # at the default cutoff: the oracle's cost grows as n_max**3
    "bell_function_operator": (lambda a: bell_function_operator(BellConfig(**a)), [BELL]),
    "field_covariance": (lambda a: field_covariance(EntangledGbsParams(**a)), [STATE]),
    "entangled_gbs_state": (lambda state, a: entangled_gbs_state(EntangledGbsParams(**state), **a),
                            [STATE, CUTOFF]),
    "gbs_state": (lambda g, a: gbs_state(GbsParams(**g), **a), [GBS, CUTOFF]),
    "orthogonal_partner": (lambda a: orthogonal_partner(GbsParams(**a)), [GBS]),
    "wrap_angle": (lambda a: wrap_angle(*a.values()), [{"angle": 0.3}]),
    "run_bell_experiment": (
        lambda bell, a: run_bell_experiment(ExperimentConfig(BellConfig(**bell), **a)), [BELL, RUN]),
    # the field of the first two dicts, measured in the basis of the third
    "probe_measure": (lambda field, a, d: probe_measure(gbs_state(GbsParams(**field), **a),
                                                        GbsParams(**d), RandomStream(3)),
                      [GBS, CUTOFF, {"p": 0.6, "phi": -1.2}]),
    # a state's or operator's first entry; the rest makes a unit state or the identity
    "StateVector": (lambda a: StateVector([a["amplitudes"], 0.0]).amplitudes,
                    [{"amplitudes": 1.0}]),
    "TwoCavityState": (lambda a: TwoCavityState([[a["amplitudes"], 0.0], [0.0, 0.0]]).amplitudes,
                       [{"amplitudes": 1.0}]),
    "FieldOperator": (lambda a: FieldOperator([[a["matrix"], 0.0], [0.0, 1.0]]).matrix,
                      [{"matrix": 1.0}]),
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


def edge(call: str, fields: dict) -> tuple:
    """A case of ``call`` at its good fields but ``fields``."""
    return call, [{name: fields.get(name, value) for name, value in good.items()}
                  for good in CALLS[call][1]]


#: Fields that take any number: a sign, NaN included (bell.angle_preset).
ANY_NUMBER = {"eta_sign"}


def refused(name: str, value) -> bool:
    """Whether check_fields refuses ``value`` as input ``name``."""
    try:
        check_fields(((name, value),))
    except ValueError:
        return True
    return False


def finite(value) -> bool:
    """Whether every number in ``value`` is finite: its fields, items, records and elements."""
    if isinstance(value, Frozen):
        value = list(vars(value).values())
    elif isinstance(value, np.ndarray) and value.dtype.names:
        value = [value[name] for name in value.dtype.names]
    if isinstance(value, str):  # a note's text holds no number
        return True
    if isinstance(value, (tuple, list)):
        return all(map(finite, value))
    return bool(np.all(np.isfinite(value)))


@settings(derandomize=True, max_examples=600, deadline=None)
@given(library_calls())
@example(edge("binomial_overlap", {"n": 10**400}))  # past the float range
# the calls that broke the contract before they checked their inputs
@example(edge("degree_of_entanglement", {"eta": math.nan}))
@example(edge("degree_of_entanglement", {"eta": math.inf}))
@example(edge("degree_of_entanglement", {"eta": 1e200}))
@example(edge("degree_of_entanglement", {"eta": 10**400}))
@example(edge("eta_for_degree", {"degree of entanglement": 10**400}))
@example(edge("timing_sensitivity", {"epsilons": 10**400}))
@example(edge("optimal_p_scan", {"step": 10**400}))
@example(edge("generate_entangled_gbs", {"n_max": 2.0}))
@example(edge("generate_entangled_gbs", {"n_max": 0}))
@example(edge("field_covariance_operator", {"n_max": 2.0}))
@example(edge("quadrature", {"n_max": -1.0}))
@example(edge("quadrature", {"n_max": 0}))
@example(edge("quadrature", {"n_max": 5000}))
@example(edge("probe_measure", {"n_max": 1024}))  # the largest cutoff
@example(edge("detection_threshold_check", {"alpha": True}))
# found by this test: a bool or numpy scalar kept as it came, numpy scalar
# arithmetic that overflows or rounds in float32, and a difference of two
# finite angles that is not finite
@example(edge("ExperimentConfig", {"detector_efficiency": True}))
@example(edge("degree_of_entanglement", {"eta": np.int64(2**63 - 1)}))
@example(edge("optimal_p_scan", {"step": np.float64(5e-324)}))
@example(edge("dichotomic_gbs_matrix", {"p": np.float32(0.5), "phi": np.float32(0.5)}))
@example(edge("dichotomic_gbs_matrix", {"phi": -1e308, "phi_prime": 1e308}))
# refused in other words, unnamed or not at all before the p step, the angle
# rule and the fock types went through check_fields; and a run that kept no
# shot, which raised a RuntimeError
@example(edge("optimal_p_scan", {"step": 0.3}))
@example(edge("wrap_angle", {"angle": math.nan}))
@example(edge("wrap_angle", {"angle": math.inf}))
@example(edge("wrap_angle", {"angle": 10**400}))
@example(edge("StateVector", {"amplitudes": 10**400}))
@example(edge("TwoCavityState", {"amplitudes": -10**400}))
@example(edge("FieldOperator", {"matrix": 10**400}))
@example(edge("FieldOperator", {"matrix": math.nan}))
@example(edge("run_bell_experiment", {"detector_efficiency": 0.0}))
@example(edge("run_bell_experiment", {"p": 0.25}))  # a note's text among the numbers
def test_every_library_call_keeps_the_error_contract(case):
    call, groups = case
    event(call)
    names = {name for group in groups for name in group}
    try:
        value = CALLS[call][0](*groups)
    except ValueError as exc:
        assert str(exc).startswith(tuple(f"{name} " for name in names)), exc
        return
    assert not [(name, field) for group in groups for name, field in group.items()
                if name not in ANY_NUMBER and refused(name, field)], value
    assert finite(value), value
    if isinstance(value, Frozen):  # the inputs it keeps are stored as Checked stores them
        assert all(type(kept) in (float, int) for name, kept in vars(value).items()
                   if name in names), value
