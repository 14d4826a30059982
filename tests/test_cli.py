"""Command-line interface: parsing, file formats, manifests, exit codes."""

import hashlib
import math

import pytest

from cavity_bell import cli
from cavity_bell.cli import fmt, main, parse_angle, parse_grid, parse_value_list


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


def test_parse_grid():
    assert parse_grid("0:1:0.5") == [0.0, 0.5, 1.0]
    assert len(parse_grid("0:1:0.05")) == 21
    with pytest.raises(ValueError):
        parse_grid("0:1")
    with pytest.raises(ValueError):
        parse_grid("0:1:-0.5")
    with pytest.raises(ValueError):
        parse_grid("1:0:0.5")
    assert parse_value_list("-0.01,0,0.01") == [-0.01, 0.0, 0.01]
    assert parse_value_list("-0.02:0.02:0.02") == [-0.02, 0.0, 0.02]


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


def test_error_exit_codes(tmp_path, capsys):
    out = tmp_path / "x"
    failing = [
        ["simulate", "maximal", "--shots", "50"],
        ["simulate", "maximal", "--n-max", "0"],
        ["scan", "maximal", "--grid", "0:2:0.5"],
        ["pscan", "maximal", "--step", "0.3"],
        # non-finite inputs must fail instead of writing NaN or made-up rows
        ["simulate", "maximal", "--theta", "nan"],
        ["simulate", "maximal", "--eta", "inf"],
        ["scan", "maximal", "--theta", "nan"],
        ["sensitivity", "maximal", "--epsilons", "nan"],
        ["generate", "--theta1", "nan"],
        ["pscan", "maximal", "--eta", "nan"],
        ["pscan", "maximal", "--step", "inf"],
        ["scan", "maximal", "--grid", "0:inf:0.1"],
        ["sensitivity", "maximal", "--epsilons=0:inf:0.1"],
        # grids past MAX_GRID_POINTS are refused before anything is allocated
        ["scan", "maximal", "--grid", "0:1:1e-12"],
        ["pscan", "maximal", "--step", "1e-9"],
        ["scan", "maximal", "--grid", "0:1:5e-324"],
        ["pscan", "maximal", "--step", "5e-324"],
        # eta**2 overflows: an error line, not a traceback
        ["covariance", "--eta", "1e200"],
        ["covariance", "--eta=-1e155"],
        ["simulate", "maximal", "--eta", "1e300", "--shots", "100"],
        ["generate", "--eta", "1e300"],
        ["pscan", "maximal", "--eta", "1e200"],
        ["sensitivity", "maximal", "--eta", "1e200"],
    ]
    for argv in failing:
        assert main(argv + ["--out", str(out)]) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()
    with pytest.raises(SystemExit):
        main(["scan", "unknown-preset", "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["scan", "maximal"])  # --out is required
    with pytest.raises(SystemExit):
        main(["scan", "maximal", "--seed", "1", "--out", str(out)])  # seed is simulate-only


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


def test_scan_oracle_at_large_cutoff(tmp_path):
    # the joint operator would take 16 * 201^4 bytes (26 GB) at this cutoff
    out = tmp_path / "big.csv"
    assert main(["scan", "maximal", "--n-max", "200", "--grid", "0:1:0.5", "--out", str(out)]) == 0
    rows = [line.split(",") for line in read(out).splitlines()[1:]]
    assert len(rows) == 3
    assert max(abs(float(row[1]) - float(row[2])) for row in rows) <= 1e-10


def test_covariance_at_large_cutoff(tmp_path):
    # each joint operator would take 16 * 201^4 bytes (26 GB) at this cutoff
    out = tmp_path / "big.txt"
    argv = ["covariance", "--p1", "0.3", "--p2", "0.8", "--theta1", "0.25pi",
            "--theta2=-0.3pi", "--eta=-0.7", "--n-max", "200", "--out", str(out)]
    assert main(argv) == 0
    report = keyvalues(read(out))
    for name in ("e1", "e2", "e1e2", "covariance"):
        analytic = float(report[f"{name}_analytic"])
        assert abs(float(report[f"{name}_operator"]) - analytic) <= 1e-12, name


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
