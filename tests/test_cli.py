"""Command-line interface: parsing, file formats, manifests, exit codes."""

import argparse
import ast
import collections
import gc
import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cavity_bell import cli
from cavity_bell.cli import fmt, main, parse_angle, parse_value_list
from cavity_bell.fields import EntangledGbsParams


def read(path):
    return path.read_text(encoding="utf-8")


def keyvalues(text):
    out = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition(" = ")
        out[key] = value
    return out


def test_parse_angle():
    assert parse_angle("1.25") == 1.25
    assert parse_angle("pi") == math.pi
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("+pi") == math.pi
    assert parse_angle("0.25pi") == 0.25 * math.pi
    assert parse_angle("0.5 pi") == 0.5 * math.pi
    assert parse_angle("2*pi") == 2 * math.pi
    assert parse_angle("-0.3pi") == -0.3 * math.pi
    with pytest.raises(ValueError):
        parse_angle("abc")


def parse_grid(text):
    """The values of a grid spec or list as one vector, from its blocks."""
    return np.concatenate([np.asarray(block, dtype=float) for block in parse_value_list(text)])


def test_parse_grid():
    assert parse_grid("0:1:0.5").tolist() == [0.0, 0.5, 1.0]
    assert len(parse_grid("0:1:0.05")) == 21
    with pytest.raises(ValueError):
        parse_grid("0:1")
    with pytest.raises(ValueError):
        parse_grid("0:1:-0.5")
    with pytest.raises(ValueError):
        parse_grid("1:0:0.5")
    # the points of a grid that spans several blocks, as one vector computes them
    assert np.array_equal(parse_grid("-0.4:0.4:8e-5"), np.arange(10001.0) * 8e-5 + -0.4)


def test_parse_value_list_yields_blocks_of_values():
    from cavity_bell import bell

    for text, want in (
        ("-0.01,0,0.01", [-0.01, 0.0, 0.01]),
        ("-0.02:0.02:0.02", [-0.02, 0.0, 0.02]),
        ("-0.4:0.4:8e-5", (np.arange(10001.0) * 8e-5 + -0.4).tolist()),
    ):
        assert parse_grid(text).tolist() == want, text
    # a grid comes in blocks of bell.blocks(count, 1) points, a comma list whole
    sizes = [len(block) for block in parse_value_list("-0.4:0.4:8e-5")]
    assert sizes == [bell.BLOCK_AMPLITUDES] * 2 + [10001 - 2 * bell.BLOCK_AMPLITUDES]
    assert [len(block) for block in parse_value_list("1,2,3,4")] == [4]
    with pytest.raises(ValueError, match="no values"):
        parse_value_list(" , ")


def test_fmt_normalizes_zero():
    assert fmt(-0.0) == "0"
    assert fmt(1 / 3) == "0.333333333333"


def test_scan_rows_and_manifest(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "maximal", "--grid", "0:1:0.25", "--out", str(out)])
    assert rc == 0
    lines = read(out).splitlines()
    assert lines[0] == "G,s_b_analytic,s_b_operator"
    values = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    want = [math.sqrt(2), 1.7678, 2.1213, 2.4749, 2.8284]
    assert len(values) == 5
    for row, target in zip(values, want):
        assert abs(row[1] - target) < 5e-4
        assert abs(row[1] - row[2]) < 1e-9
    manifest = keyvalues(read(tmp_path / "scan.csv.manifest"))
    assert manifest["command"] == "scan"
    assert manifest["param.preset"] == "maximal"
    assert "seed" not in manifest  # scan draws no random numbers
    assert manifest["output"] == str(out)


def test_scan_wide_endpoint(tmp_path):
    out = tmp_path / "wide.csv"
    assert main(["scan", "wide", "--grid", "1:1:1", "--out", str(out)]) == 0
    row = read(out).splitlines()[1].split(",")
    assert abs(float(row[1]) - 2.5) < 1e-12
    assert abs(float(row[2]) - 2.5) < 1e-9


def test_scan_threshold_row(tmp_path):
    out = tmp_path / "thr.csv"
    g = math.sqrt(2) - 1
    assert main(["scan", "maximal", "--grid", f"{g}:{g}:1", "--out", str(out)]) == 0
    row = read(out).splitlines()[1].split(",")
    assert abs(float(row[1]) - 2.0) < 1e-9
    assert abs(float(row[2]) - 2.0) < 1e-9


def test_pscan_argmax(tmp_path):
    out = tmp_path / "pscan.csv"
    rc = main(["pscan", "maximal", "--eta", "1", "--step", "0.01", "--out", str(out)])
    assert rc == 0
    manifest = keyvalues(read(tmp_path / "pscan.csv.manifest"))
    assert manifest["result.p_star"] == "0.5"
    lines = read(out).splitlines()
    assert lines[0] == "p,s_b"
    assert len(lines) == 102
    # scan values are symmetric about p = 1/2
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert max(abs(a - b) for a, b in zip(values, reversed(values))) < 1e-9


def test_covariance_report(tmp_path):
    out = tmp_path / "cov.txt"
    rc = main(
        ["covariance", "--p1", "0.5", "--p2", "0.5", "--theta1", "0", "--theta2", "0",
         "--eta", "1", "--out", str(out)]
    )
    assert rc == 0
    report = keyvalues(read(out))
    assert float(report["covariance_analytic"]) == pytest.approx(-1.0, abs=1e-12)
    assert float(report["covariance_operator"]) == pytest.approx(-1.0, abs=1e-12)
    assert float(report["e1_analytic"]) == 0.0


def test_covariance_vanishes_without_entanglement(tmp_path):
    out = tmp_path / "cov0.txt"
    assert main(["covariance", "--eta", "0", "--p1", "0.4", "--p2", "0.7",
                 "--theta1", "0.3", "--theta2", "1.1", "--out", str(out)]) == 0
    report = keyvalues(read(out))
    assert abs(float(report["covariance_analytic"])) < 1e-12


def test_covariance_one_photon_pair(tmp_path):
    out = tmp_path / "cov1.txt"
    assert main(["covariance", "--eta", "1", "--p1", "1", "--p2", "1",
                 "--theta1", "0", "--theta2", "0", "--out", str(out)]) == 0
    report = keyvalues(read(out))
    assert float(report["covariance_analytic"]) == pytest.approx(1.0, abs=1e-12)


def test_covariance_builds_one_state_and_one_quadrature(tmp_path, monkeypatch):
    # the three operator moments share one state and one a + a-dagger
    from cavity_bell import fields

    calls = {"entangled_gbs_state": 0, "quadrature": 0}

    def counted(name):
        original = getattr(fields, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(fields, name, counted(name))
    assert main(["covariance", "--out", str(tmp_path / "cov.txt")]) == 0
    assert calls == {"entangled_gbs_state": 1, "quadrature": 1}


def test_generate_report(tmp_path):
    out = tmp_path / "gen.txt"
    rc = main(["generate", "--eta", "1", "--p1", "0.5", "--p2", "0.5",
               "--theta1", "0", "--theta2", "0", "--out", str(out)])
    assert rc == 0
    report = keyvalues(read(out))
    assert report["fidelity"] == "1"
    assert report["prob_down_down"] == "1"


def test_generate_with_pi_angles(tmp_path):
    out = tmp_path / "gen2.txt"
    rc = main(["generate", "--eta", "0.7", "--p1", "0.3", "--p2", "0.8",
               "--theta1", "0.25pi", "--theta2=-0.3pi", "--out", str(out)])
    assert rc == 0
    report = keyvalues(read(out))
    assert float(report["fidelity"]) == pytest.approx(1.0, abs=1e-12)
    assert float(report["theta2"]) == pytest.approx(-0.3 * math.pi, abs=1e-12)


def test_simulate_report_and_reproducibility(tmp_path):
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    args = ["simulate", "maximal", "--eta", "1", "--shots", "2000", "--seed", "42"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert read(out_a) == read(out_b)
    report = keyvalues(read(out_a))
    s_b_hat = float(report["s_b_hat"])
    std_error = float(report["std_error"])
    assert abs(s_b_hat - 2 * math.sqrt(2)) < 4 * std_error
    assert report["discarded_shots"] == "0"
    assert float(report["setting.1.correlation"]) < 0
    assert report["setting.4.retained"] == "2000"
    manifest = keyvalues(read(tmp_path / "a.txt.manifest"))
    assert manifest["seed"] == "42"
    assert manifest["result.s_b_hat"] == report["s_b_hat"]
    params = {key[len("param."):] for key in manifest if key.startswith("param.")}
    assert params == {"alpha", "eta", "p", "preset", "shots", "theta"}


def test_simulate_refuses_a_seed_outside_64_bits(tmp_path, capsys):
    # the random stream keys on 64 bits, where -1 would run seed 2**64 - 1
    out = tmp_path / "seed.txt"
    for seed in ("-1", str(2**64)):
        assert main(["simulate", "maximal", f"--seed={seed}", "--shots", "1000",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: seed must be an integer in [0, 2**64), got {seed}\n"
    assert not out.exists()
    assert main(["simulate", "maximal", f"--seed={2**64 - 1}", "--shots", "1000",
                 "--out", str(out)]) == 0


def test_simulate_with_losses(tmp_path):
    out = tmp_path / "lossy.txt"
    rc = main(["simulate", "maximal", "--shots", "4000", "--alpha", "0.8",
               "--seed", "7", "--out", str(out)])
    assert rc == 0
    report = keyvalues(read(out))
    assert int(report["discarded_shots"]) > 0
    assert report["alpha_above_threshold"] == "false"
    retained = int(report["setting.1.retained"])
    assert abs(retained - 4000 * 0.64) < 4 * math.sqrt(4000 * 0.64 * 0.36)


def test_simulate_away_from_half_notes_it(tmp_path, capsys):
    out = tmp_path / "p03.txt"
    assert main(["simulate", "wide", "--p", "0.3", "--shots", "500", "--out", str(out)]) == 0
    report = keyvalues(read(out))
    assert report["note.p"] == "p is not 1/2, where the Bell violation is maximal"
    assert capsys.readouterr().err == ""
    assert main(["simulate", "wide", "--shots", "500", "--out", str(out)]) == 0
    assert not any(key.startswith("note.") for key in keyvalues(read(out)))


def test_sensitivity_table(tmp_path):
    out = tmp_path / "sens.csv"
    rc = main(["sensitivity", "maximal", "--eta", "1",
               "--epsilons=-0.01,0,0.01", "--out", str(out)])
    assert rc == 0
    lines = read(out).splitlines()
    assert lines[0] == "epsilon,fidelity,s_b"
    rows = [line.split(",") for line in lines[1:]]
    assert float(rows[1][1]) == 1.0
    # the file carries 12 significant digits
    assert float(rows[1][2]) == pytest.approx(2 * math.sqrt(2), abs=1e-10)
    assert rows[0][1] == rows[2][1]
    assert rows[0][2] == rows[2][2]


#: The smallest valid command line of each command, without --out.
COMMANDS = (
    ["scan", "maximal"],
    ["pscan", "maximal"],
    ["covariance"],
    ["simulate", "maximal"],
    ["generate"],
    ["sensitivity", "maximal"],
)


def refusals():
    """The rows of tests/refusals.txt: the option each names, and its command line.

    A row is split into words as CI's ``read -r`` splits it; lines that start
    with ``#`` and blank lines are skipped.
    """
    rows = []
    for line in read(Path(__file__).with_name("refusals.txt")).splitlines():
        words = line.split()
        if words and not words[0].startswith("#"):
            rows.append((words[0], words[1:]))
    return rows


REFUSALS = refusals()


def test_refusals_table_names_real_options():
    assert len(REFUSALS) >= 47  # the rows the table was written with: none is dropped
    for field, argv in REFUSALS:
        assert argv[0] in cli.COMMANDS, argv
        assert field in cli.COMMANDS[argv[0]][1], (field, argv)
    lines = [(field, *argv) for field, argv in REFUSALS]
    assert len(set(lines)) == len(lines), [line for line in lines if lines.count(line) > 1]
    assert {argv[0] for _, argv in REFUSALS} == set(cli.COMMANDS)


@pytest.mark.parametrize(("field", "argv"), REFUSALS, ids=[" ".join(argv) for _, argv in REFUSALS])
def test_refused_input_names_its_option(tmp_path, capsys, field, argv):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith((f"error: {field} ", f"error: {field}:")) and err.count("\n") == 1, err
    assert list(tmp_path.iterdir()) == []  # no output, manifest or temporary file


def test_error_exit_codes(tmp_path):
    # refused values exit 1 (tests/refusals.txt); usage errors exit 2
    out = tmp_path / "x"
    usage_errors = [
        ["scan", "unknown-preset", "--out", str(out)],
        ["scan", "maximal"],  # --out is required
        ["scan", "maximal", "--seed", "1", "--out", str(out)],  # seed is simulate-only
        # the Fock cutoff is fixed (tests/test_properties.py::test_fock_cutoff_is_inert)
        *(command + ["--n-max", "2", "--out", str(out)] for command in COMMANDS),
    ]
    for argv in usage_errors:
        with pytest.raises(SystemExit) as usage:
            main(argv)
        assert usage.value.code == 2, argv
    assert not out.exists()


def readme_command_lines():
    """The cavity-bell lines of README's "Command line" block, as argv lists."""
    text = read(Path(__file__).parents[1] / "README.md")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("cavity-bell ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    lines = readme_command_lines()
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv) == 0, argv
        out = tmp_path / argv[argv.index("--out") + 1]
        assert out.stat().st_size > 0 and (tmp_path / f"{out.name}.manifest").is_file()
    assert capsys.readouterr().err == ""


def test_help_offers_no_cutoff(capsys):
    for command in COMMANDS:
        with pytest.raises(SystemExit) as done:
            main(command[:1] + ["--help"])
        assert done.value.code == 0
        assert "--n-max" not in capsys.readouterr().out


def test_settings_are_numbered_from_one(tmp_path, capsys):
    # as the report keys setting.1 ... setting.4
    assert main(["simulate", "maximal", "--alpha", "0", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == (
        "error: shots must retain a coincidence at every setting, got 10000 with none at setting 1\n")


def test_state_options_follow_the_state_fields():
    assert cli.STATE_OPTIONS == EntangledGbsParams._fields


PRESET = ("preset", None, None, ("maximal", "wide"), True)
OUT = ("out", None, None, None, True)
STATE = [("p1", float, 0.5, None, False), ("p2", float, 0.5, None, False),
         ("theta1", parse_angle, 0.0, None, False), ("theta2", parse_angle, 0.0, None, False),
         ("eta", float, 1.0, None, False)]
BELL_RUN = [PRESET, ("eta", float, 1.0, None, False), ("p", float, 0.5, None, False),
            ("theta", parse_angle, 0.0, None, False)]
#: Each command's options, in order, as (dest, type, default, choices, required).
PARSED_OPTIONS = {
    "scan": [OUT, PRESET, ("grid", None, "0:1:0.05", None, False),
             ("theta", parse_angle, 0.0, None, False)],
    "pscan": [OUT, PRESET, ("eta", float, 1.0, None, False), ("theta", parse_angle, 0.0, None, False),
              ("step", float, 0.005, None, False)],
    "covariance": [OUT, *STATE],
    "simulate": [OUT, *BELL_RUN, ("shots", int, 10000, None, False),
                 ("seed", int, 12345, None, False), ("alpha", float, 1.0, None, False)],
    "generate": [OUT, *STATE],
    "sensitivity": [OUT, *BELL_RUN,
                    ("epsilons", None, "-0.05,-0.02,-0.01,0,0.01,0.02,0.05", None, False)],
}


def test_each_command_keeps_its_options():
    (sub,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [(a.dest, a.type, a.default, a.choices, a.required) for a in parser._actions
                      if not isinstance(a, argparse._HelpAction)]
               for name, parser in sub.choices.items()}
    assert options == PARSED_OPTIONS


PHYSICS = ("fock", "binomial", "fields", "bell", "dynamics")

# Runs the command line as ``python -m cavity_bell.cli`` does, then prints
# the exit code, the number of frozen objects and the loaded modules.
RUN_CLI = """
import gc, runpy, sys
sys.argv = ["cavity-bell", *sys.argv[1:]]
try:
    runpy.run_module("cavity_bell.cli", run_name="__main__")
except SystemExit as exc:
    print(exc.code, gc.get_freeze_count())
print(" ".join(sorted(sys.modules)))
"""


def child_env():
    """The environment of a fresh interpreter that imports the package under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(tmp_path, *argv):
    """Exit code of a fresh ``cavity-bell argv`` process, its frozen objects and its modules."""
    run = subprocess.run(
        [sys.executable, "-c", RUN_CLI, *argv],
        cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=60, check=True,
    )
    exit_line, modules = run.stdout.splitlines()[-2:]
    code, frozen = exit_line.split()
    return int(code), int(frozen), set(modules.split())


def loaded_modules(tmp_path, *argv):
    """Exit code of a fresh ``cavity-bell argv`` process and the modules it loaded."""
    code, _, modules = run_cli(tmp_path, *argv)
    return code, modules


def test_the_process_entry_freezes_the_heap(tmp_path):
    # run() freezes what import made, so the shutdown collections skip it,
    # also when main fails or argparse exits
    for argv, code in ((["pscan", "maximal", "--out", "p.csv"], 0),
                       (["pscan", "maximal", "--step", "0.3", "--out", "p.csv"], 1),
                       (["scan", "maximal"], 2)):
        got, frozen, _ = run_cli(tmp_path, *argv)
        assert got == code and frozen > 10_000, (argv, got, frozen)


def test_main_leaves_the_collector_alone(tmp_path):
    # tests and the traced benchmark call main in their own process
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["pscan", "maximal", "--out", str(tmp_path / "p.csv")]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


def test_parser_loads_no_physics(tmp_path):
    for argv, code in ((["--help"], 0), (["scan", "--help"], 0), (["scan", "maximal"], 2)):
        got, modules = loaded_modules(tmp_path, *argv)
        assert got == code, argv
        assert "numpy" not in modules and "cavity_bell.bell" not in modules, argv


def test_every_command_loads_the_physics_layer(tmp_path):
    code, modules = loaded_modules(tmp_path, "pscan", "maximal", "--out", "p.csv")
    assert code == 0
    assert {f"cavity_bell.{name}" for name in PHYSICS} <= modules


def test_commands_load_no_dataclasses(tmp_path):
    # the value types generate no code at import, so nothing loads dataclasses
    for command in ("pscan", "sensitivity"):
        argv = [command, "maximal", "--out", f"{command}.csv"]
        code, modules = loaded_modules(tmp_path, *argv)
        assert code == 0, argv
        assert "cavity_bell.dynamics" in modules and "dataclasses" not in modules, argv


def test_simulate_loads_no_numpy_random(tmp_path):
    # the counts come from the standard library's generator; numpy.random
    # would also pull in secrets, hmac and OpenSSL's _hashlib
    argv = ["simulate", "maximal", "--alpha", "0.9", "--shots", "2000000", "--out", "sim.txt"]
    code, modules = loaded_modules(tmp_path, *argv)
    assert code == 0
    assert "cavity_bell.dynamics" in modules
    assert not modules & {"numpy.random", "secrets", "hmac", "_hashlib"}


@pytest.mark.parametrize("command", COMMANDS, ids=[command[0] for command in COMMANDS])
def test_a_handler_returns_its_run_and_writes_nothing(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    args = cli.build_parser().parse_args(command + ["--out", "out"])
    run = args.handler(args)
    assert isinstance(run, cli._Run)
    # a CSV's blocks stay a stream, which only the writer consumes
    assert run.header is None or iter(run.body) is run.body
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr() == ("", "")


def test_main_is_the_one_writer():
    # only main writes the output and the manifest and prints; write_manifest
    # writes its items through _write_keyvalue
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    callers = collections.defaultdict(set)
    for function in tree.body:
        if isinstance(function, ast.FunctionDef):
            for node in ast.walk(function):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                    callers[node.func.id].add(function.name)
    writers = ("_write_csv", "_write_keyvalue", "write_manifest", "print")
    assert {name: callers[name] for name in writers} == {
        "_write_csv": {"main"}, "_write_keyvalue": {"main", "write_manifest"},
        "write_manifest": {"main"}, "print": {"main"}}


def test_memory_error_is_reported(tmp_path, monkeypatch, capsys):
    def exhausted(args):
        raise MemoryError("Unable to allocate 385. GiB")

    monkeypatch.setattr(cli, "cmd_scan", exhausted)
    assert main(["scan", "maximal", "--out", str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: out of memory: Unable to allocate 385. GiB\n"


# sha256 of small deterministic runs. The deterministic commands promise
# byte-identical output, so a refactor must leave these digests unchanged.
# command line: sha256 of the output and of its manifest without the output = line
GOLDEN = {
    "scan": (["scan", "wide", "--grid", "0:1:0.1", "--theta", "0.3pi"],
             "f6879d07c0af6e47b6475e941c88ad2c2c22bf49aef7f12dcb949553d927bed9",
             "856d297f3ca6e04ed1dc03ed169b2d6093798aaf8af70d75287e55633799452b"),
    "pscan": (["pscan", "maximal", "--eta", "0.7", "--theta", "0.4", "--step", "0.01"],
              "eb907adae2a4529c18ef9afd3491bca9ef732dd259d46f28caa39b636ea1edf7",
              "6885c6d3e33edc022fface95b84a33459c8788e975b458611a438e84b1291c09"),
    # the only path that reads eta's sign: wide mirrors phi2' for eta < 0
    "pscan-wide-mirrored": (["pscan", "wide", "--eta=-0.6", "--step", "0.01"],
                            "50293d47a916347dad76823bf84baace33cbaf1065aaea1e0453455247fe17e0",
                            "f025add05cd5d3a80dab4dcf6517c2ca6eb298930a14a283403da1ed5ceeeeca"),
    "covariance": (["covariance", "--p1", "0.3", "--p2", "0.8", "--theta1", "0.25pi",
                    "--theta2=-0.3pi", "--eta=-0.7"],
                   "0de31a34bf78ac8a8151c98c8178af5a6e9721b97d9caf90c24e5d9caa86e102",
                   "48425518459a4b31c15f5a051b85955546dcf7c80db8d1b5a8643fa228ae8d98"),
    # the operator values print -3.46944695195e-17 and 8.32667268469e-17 here
    # where the closed forms are 0; the summation order shows in those bytes
    "covariance-eta1": (["covariance", "--p1", "0.3", "--p2", "0.8", "--theta1", "0.25pi",
                         "--theta2=-0.3pi", "--eta=-1"],
                        "f1fee1334f17a1d0f381d70f6d04443bd3d7d63b102a5c249ddf70d3d0fa7e96",
                        "2aebec10b88d67b6a6fece5457e2978120a169f4c093b57084629b0d4ef54515"),
    "generate": (["generate", "--eta=-1.5", "--p1", "0.3", "--p2", "0.8", "--theta1", "0.25pi",
                  "--theta2=-0.3pi"],
                 "08e67cfb30cfc79ded90d1a6340a51043863beab95ee667f2f3ca1c364f4bea0",
                 "dd1cb9a904131dcd5c014b0cf92d34d3dad232ababc45e62b5f46f3b68ae0338"),
    "sensitivity": (["sensitivity", "maximal", "--eta", "0.8", "--epsilons=-0.05:0.05:0.01"],
                    "cdba17be88c45285b1aef2d496b5a4da1b56197b4dc590c9b55343b79c639667",
                    "0e422082cb6b3964d141697fcfe39b1ad3f7fe1da5333059467c7c47c9250125"),
    # 801 rows in 29 blocks; the probe stage's summation order shows
    # in the twelfth digit here when it drifts from the per-row contraction
    "sensitivity-eta0": (["sensitivity", "maximal", "--eta", "0", "--epsilons=-0.4:0.4:1e-3"],
                         "d7887464c88a527bbd8a3c8498cff232cbd35f5d1745bf71ab6a9f71ac141968",
                         "e5762a1a413b0e909e596a9ebd576048f467b9c4b3c90bdc4d82b661e1425b74"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_deterministic_outputs_are_golden(tmp_path, command):
    argv, digest, manifest_digest = GOLDEN[command]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    lines = read(tmp_path / "out.manifest").splitlines(keepends=True)
    manifest = "".join(line for line in lines if not line.startswith("output = "))
    assert hashlib.sha256(manifest.encode()).hexdigest() == manifest_digest


def test_manifest_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "m1.csv"
    out_b = tmp_path / "m2.csv"
    argv = ["scan", "maximal", "--grid", "0:1:0.1", "--theta", "0.3"]
    assert main(argv + ["--out", str(out_a)]) == 0
    assert main(argv + ["--out", str(out_b)]) == 0
    assert read(out_a) == read(out_b)
    # manifests differ only in the output path line
    m_a = [l for l in read(tmp_path / "m1.csv.manifest").splitlines() if "output" not in l]
    m_b = [l for l in read(tmp_path / "m2.csv.manifest").splitlines() if "output" not in l]
    assert m_a == m_b


# One command line per grid command; the sensitivity lines cover p = 1/2 and
# p != 1/2, and the probe stage with a vanishing weight.
GRID_RUNS = {
    "scan": ["scan", "wide", "--grid", "0:1:0.01", "--theta", "0.3pi"],
    "pscan": ["pscan", "maximal", "--eta", "0.7", "--theta", "0.4", "--step", "0.005"],
    "sensitivity-eta0": ["sensitivity", "maximal", "--eta", "0", "--epsilons=-0.4:0.4:0.01"],
    "sensitivity-wide": ["sensitivity", "wide", "--p", "0.3", "--epsilons=-0.4:0.4:0.01"],
}


@pytest.mark.parametrize("command", sorted(GRID_RUNS))
def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, command):
    from cavity_bell import bell

    digests = set()
    for size in (1, 16, 256, bell.BLOCK_AMPLITUDES):
        monkeypatch.setattr(bell, "BLOCK_AMPLITUDES", size)
        out = tmp_path / f"out{size}"
        assert main(GRID_RUNS[command] + ["--out", str(out)]) == 0
        digests.add(hashlib.sha256(out.read_bytes()).hexdigest())
    assert len(digests) == 1


# Prints the traced peak and the row count of one command run in a fresh
# interpreter, after an untraced warm-up run (the first argument, a JSON
# argv) has loaded the physics layer and filled Python's free lists.
TRACED_RUN = """
import json, sys, tracemalloc
from cavity_bell.cli import main
warm_up, argv, out = json.loads(sys.argv[1]), sys.argv[2:], "out.csv"
assert main(warm_up + ["--out", out]) == 0
tracemalloc.start()
assert main(argv + ["--out", out]) == 0
print(tracemalloc.get_traced_memory()[1])
print(sum(1 for _ in open(out)) - 1)
"""


def fresh_traced_peaks(tmp_path, warm_up, runs):
    """Traced peak and row count of each argv of ``runs``, each in a fresh interpreter.

    The interpreters run side by side, each in a directory of its own.
    """
    env = child_env()
    children = []
    for index, argv in enumerate(runs):
        cwd = tmp_path / str(index)
        cwd.mkdir()
        children.append(subprocess.Popen(
            [sys.executable, "-c", TRACED_RUN, json.dumps(warm_up), *argv],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True))
    out = []
    try:
        for child in children:
            stdout, stderr = child.communicate(timeout=120)
            assert child.returncode == 0, stderr
            out.append(tuple(map(int, stdout.splitlines()[-2:])))
    finally:
        for child in children:
            if child.poll() is None:
                child.kill()
                child.wait()
    return out


@pytest.mark.parametrize(
    "argv, rows, bytes_per_row",
    [
        # one 8-byte vector per CSV column, p and s_b
        (["pscan", "maximal", "--step", "2e-5"], 50001, 16),
        # G, s_b_analytic and s_b_operator
        (["scan", "maximal", "--grid", "0:1:2e-5"], 50001, 24),
        # epsilon, fidelity and s_b; the parsed errors are the epsilon field
        (["sensitivity", "maximal", "--eta", "0.7", "--epsilons=-0.4:0.4:8e-5"], 10001, 24),
        (["sensitivity", "maximal", "--eta", "0.7", "--epsilons=-0.4:0.4:1.6e-5"], 50001, 24),
    ],
    ids=["pscan", "scan", "sensitivity", "sensitivity-50001"],
)
def test_grid_memory_is_one_vector_per_column(tmp_path, argv, rows, bytes_per_row):
    # In a fresh interpreter, so no earlier test decides the verdict; a run
    # on the default grid loads the physics layer before tracing starts.
    ((peak, traced_rows),) = fresh_traced_peaks(tmp_path, argv[:2], [argv])
    assert traced_rows == rows
    assert peak <= 2**20 + bytes_per_row * rows, peak


def traced_peak(argv, out):
    """Traced peak bytes of one command run."""
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sensitivity_memory_grows_by_its_three_columns(tmp_path):
    # From 10001 to 20001 rows the peak grows by the epsilon, fidelity and
    # s_b fields alone, because the errors are parsed into the epsilon field.
    # The first large run fills Python's free lists, which later runs reuse,
    # so it runs untraced.
    argv = ["sensitivity", "maximal", "--eta", "0.7"]
    out = tmp_path / "out.csv"
    assert main(argv + ["--epsilons=-0.4:0.4:4e-5", "--out", str(out)]) == 0
    small = traced_peak(argv + ["--epsilons=-0.4:0.4:8e-5"], out)
    large = traced_peak(argv + ["--epsilons=-0.4:0.4:4e-5"], out)
    assert large - small <= 24 * 10000 + 2**15, (small, large)


@pytest.mark.parametrize(
    "argv, small, large, columns",
    [
        (["pscan", "maximal"], ["--step", "1e-4"], ["--step", "5e-5"], 2),  # p and s_b
        (["scan", "maximal"], ["--grid", "0:1:1e-4"], ["--grid", "0:1:5e-5"], 3),
    ],
    ids=["pscan", "scan"],
)
def test_grid_memory_grows_by_its_columns(tmp_path, argv, small, large, columns):
    # From 10001 to 20001 rows the peak grows by one 8-byte vector per CSV
    # column; the untraced warm-up fills the free lists, as for sensitivity.
    out = tmp_path / "out.csv"
    assert main(argv + large + ["--out", str(out)]) == 0
    small_peak = traced_peak(argv + small, out)
    large_peak = traced_peak(argv + large, out)
    assert len(read(out).splitlines()) - 1 == 20001
    assert large_peak - small_peak <= 8 * columns * 10000 + 2**15, (small_peak, large_peak)


# One grid command per kernel it calls once per block of the grid: the
# module that defines the kernel, its name and a command line of a few blocks
# at a block size of 16 amplitudes.
STREAMED = {
    "pscan": ("bell", "bell_function_vs_p", ["pscan", "maximal", "--step", "0.02"]),
    "scan": ("bell", "bell_function_operator_vs_eta", ["scan", "maximal", "--grid", "0:1:0.02"]),
    "sensitivity": ("dynamics", "timing_sensitivity",
                    ["sensitivity", "maximal", "--epsilons=-0.2:0.2:0.01"]),
}


@pytest.mark.parametrize("command", sorted(STREAMED))
@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_failed_grid_run_leaves_no_file(tmp_path, monkeypatch, capsys, command, existing):
    import importlib

    from cavity_bell import bell

    module_name, kernel_name, argv = STREAMED[command]
    module = importlib.import_module(f"cavity_bell.{module_name}")
    kernel = getattr(module, kernel_name)
    calls = []

    def second_block_fails(*args, **kwargs):
        calls.append(sorted(path.name for path in tmp_path.iterdir()))
        if len(calls) == 2:
            raise RuntimeError("kernel failed")
        return kernel(*args, **kwargs)

    monkeypatch.setattr(bell, "BLOCK_AMPLITUDES", 16)
    monkeypatch.setattr(module, kernel_name, second_block_fails)
    out = tmp_path / "out.csv"
    if existing:
        out.write_text("kept\n", encoding="utf-8")
    assert main(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: kernel failed\n"
    assert len(calls) == 2
    # the second block fails while the rows of the first stand in a temporary file
    assert len(calls[1]) == 1 + existing and calls[1][-1].endswith(".tmp"), calls
    assert [path.name for path in tmp_path.iterdir()] == (["out.csv"] if existing else [])
    if existing:
        assert read(out) == "kept\n"


#: An --out that cannot be written: the command, a directory made first, the
#: --out, the path the error names and why it cannot be written.
UNWRITABLE = {
    "report": (["covariance"], None, "missing/x", "missing/x", "No such file or directory"),
    "csv": (["scan", "maximal"], None, "missing/x", "missing/x", "No such file or directory"),
    # the whole grid is written, then cannot be moved onto the directory
    "csv-onto-a-directory": (["scan", "maximal"], "x", "x", "x", "Is a directory"),
    # the output is moved in, then the manifest cannot be, so the output goes too
    "report-manifest-onto-a-directory": (["covariance"], "x.manifest", "x", "x.manifest",
                                         "Is a directory"),
}


@pytest.mark.parametrize("command, made, out, named, reason", list(UNWRITABLE.values()),
                         ids=list(UNWRITABLE))
def test_an_out_in_a_missing_directory_is_one_error_line(tmp_path, capsys, command, made, out,
                                                         named, reason):
    if made:
        (tmp_path / made).mkdir()
    assert main(command + ["--out", str(tmp_path / out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: out: cannot write {tmp_path / named}: {reason}\n"
    # no output and no temporary file is left; a directory made stays, empty
    assert [path.name for path in tmp_path.iterdir()] == ([made] if made else [])
    assert not made or list((tmp_path / made).iterdir()) == []


@pytest.mark.parametrize(
    "argv, small, large",
    [
        (["pscan", "maximal"], ["--step", "1e-4"], ["--step", "2e-5"]),
        (["scan", "maximal"], ["--grid", "0:1:1e-4"], ["--grid", "0:1:2e-5"]),
        (["sensitivity", "maximal", "--eta", "0.7"], ["--epsilons=-0.4:0.4:8e-5"],
         ["--epsilons=-0.4:0.4:1.6e-5"]),
    ],
    ids=["pscan", "scan", "sensitivity"],
)
def test_grid_memory_is_flat_in_the_grid_length(tmp_path, argv, small, large):
    # The grid is made, computed and written a block at a time, so from
    # 10001 to 50001 rows the traced peak stays where it was. Each run has a
    # fresh interpreter, so no earlier test decides the verdict; both warm
    # up on the large grid untraced, because a first run fills Python's free
    # lists by up to about 0.1 MB (sensitivity) before they level off.
    (small_peak, small_rows), (large_peak, large_rows) = fresh_traced_peaks(
        tmp_path, argv + large, [argv + small, argv + large])
    assert (small_rows, large_rows) == (10001, 50001)
    assert large_peak - small_peak <= 2**15, (small_peak, large_peak)
