"""Pulse unitaries, probe readout, state generation, Monte Carlo runs."""

import cmath
import math
import re
import statistics
import time
import tracemalloc

import numpy as np
import pytest

from cavity_bell.bell import (
    BellConfig,
    DichotomicParams,
    bell_correlation,
    bell_function,
    chsh,
    preset_config,
)
from cavity_bell.binomial import GbsParams, gbs_state, orthogonal_partner
from cavity_bell.dynamics import (
    ALPHA_THRESHOLD,
    ATOM_DOWN,
    ATOM_UP,
    ExperimentConfig,
    InitialAtomPair,
    detection_threshold_check,
    generate_entangled_gbs,
    probe_measure,
    run_bell_experiment,
    timing_sensitivity,
)
from cavity_bell.dynamics import (
    PROBE_PULSE_AREA,
    _apply,
    _basis_rotation,
    _bell_protocol,
    _correlation_from_probs,
    _jc_stack,
    _ramsey_matrix,
)
from cavity_bell.fields import EntangledGbsParams, entangled_gbs_state, norm_const
from cavity_bell.fock import RandomStream, StateVector, braket, fidelity, inner


def test_jc_matrix_unitary():
    for gt in (0.0, 0.5, math.pi / 2, 1.9):
        for n_max in (1, 2, 4):
            dim = 2 * (n_max + 1)
            u = _jc_stack(np.array([gt]), n_max)[0].reshape(dim, dim)
            assert np.allclose(u.conj().T @ u, np.eye(dim), atol=1e-14)


def test_jc_ground_vacuum_is_stationary():
    # column (down, 0) of the unitary is the image of |down, 0>
    out = _jc_stack(np.array([1.3]), 2)[0][:, :, ATOM_DOWN, 0]
    want = np.zeros((2, 3))
    want[ATOM_DOWN, 0] = 1.0
    assert np.allclose(out, want, atol=1e-14)


def test_jc_half_cycle_swaps_qubit_into_vacuum():
    # |down, 1> -> |up, 0> and |up, 0> -> -|down, 1> at gt = pi/2
    u = _jc_stack(np.array([math.pi / 2]), 2)[0]
    assert abs(u[ATOM_UP, 0, ATOM_DOWN, 1] - 1.0) < 1e-14
    assert abs(u[ATOM_DOWN, 1, ATOM_UP, 0] + 1.0) < 1e-14


def test_jc_rabi_frequency_scales_with_sqrt_n():
    # |down, 2> splits as cos/sin of gt*sqrt(2) between |down, 2> and |up, 1>
    gt = 0.4
    u = _jc_stack(np.array([gt]), 3)[0]
    assert abs(u[ATOM_DOWN, 2, ATOM_DOWN, 2] - math.cos(gt * math.sqrt(2))) < 1e-14
    assert abs(u[ATOM_UP, 1, ATOM_DOWN, 2] - math.sin(gt * math.sqrt(2))) < 1e-14


def test_ramsey_rotation_matrix():
    theta, phi = 1.1, -0.7
    r = _ramsey_matrix(theta, phi)
    # |up> -> cos(theta/2)|up> - exp(+i phi) sin(theta/2)|down>
    assert abs(r[ATOM_UP, ATOM_UP] - math.cos(theta / 2)) < 1e-14
    assert abs(r[ATOM_DOWN, ATOM_UP] + np.exp(1j * phi) * math.sin(theta / 2)) < 1e-14
    # |down> -> exp(-i phi) sin(theta/2)|up> + cos(theta/2)|down>
    assert abs(r[ATOM_DOWN, ATOM_DOWN] - math.cos(theta / 2)) < 1e-14
    assert abs(r[ATOM_UP, ATOM_DOWN] - np.exp(-1j * phi) * math.sin(theta / 2)) < 1e-14


def test_ramsey_preserves_field():
    field = StateVector.normalized(np.array([0.6, 0.8]))
    state = np.zeros((2, 2), dtype=complex)  # (atom, photon)
    state[ATOM_DOWN] = field.amplitudes
    out = _apply(state[None], _ramsey_matrix(math.pi / 2, 0.3), (0,))[0]
    marginal = np.sum(np.abs(out) ** 2, axis=0)
    assert np.allclose(marginal, np.abs(field.amplitudes) ** 2, atol=1e-14)


def test_probe_deterministic_on_eigenstates():
    p, phi = 0.37, 1.1
    d = DichotomicParams(p, phi)
    plus = gbs_state(GbsParams(p, phi), 2)
    minus = gbs_state(orthogonal_partner(GbsParams(p, phi)), 2)
    rng = RandomStream(99)
    for i in range(40):
        out_p, post_p = probe_measure(plus, d, rng.substream(i))
        out_m, post_m = probe_measure(minus, d, rng.substream(1000 + i))
        assert out_p == 1
        assert out_m == -1
        # the cavity is always left in the vacuum
        assert abs(abs(post_p.amplitudes[0]) - 1.0) < 1e-12
        assert abs(abs(post_m.amplitudes[0]) - 1.0) < 1e-12
        assert np.linalg.norm(post_p.amplitudes[1:]) < 1e-12
        assert np.linalg.norm(post_m.amplitudes[1:]) < 1e-12


class _FixedUniforms:
    """A stand-in for RandomStream whose uniform() returns the given values in turn."""

    def __init__(self, *values):
        self._values = iter(values)

    def uniform(self):
        return next(self._values)


def test_probe_outcome_distribution_matches_spectrum():
    # probe_measure reports +1 when its uniform draw lies below P(up). A draw
    # just below the weight on |p, phi> must give +1 and one just above it
    # -1, which pins P(up) to that weight within 1e-9.
    rng_params = np.random.default_rng(23)
    stream = RandomStream(8)
    for trial in range(8):
        p = float(rng_params.uniform(0.1, 0.9))
        phi = float(rng_params.uniform(-math.pi, math.pi))
        d = DichotomicParams(p, phi)
        raw = rng_params.normal(size=2) + 1j * rng_params.normal(size=2)
        field = StateVector.normalized(np.concatenate([raw, [0.0]]))
        weight = abs(inner(gbs_state(GbsParams(p, phi), 2), field)) ** 2
        bracket = _FixedUniforms(weight - 1e-9, weight + 1e-9)
        assert probe_measure(field, d, bracket)[0] == 1
        assert probe_measure(field, d, bracket)[0] == -1
        if trial == 0:  # and the draws of a real stream reach the same frequency
            shots = 4000
            sub = stream.substream(trial)
            hits = sum(
                1 for i in range(shots) if probe_measure(field, d, sub.substream(i))[0] == 1
            )
            se = math.sqrt(max(weight * (1 - weight), 1e-12) / shots)
            assert abs(hits / shots - weight) < 4 * se + 1e-9


def test_probe_rejects_bright_fields():
    field = StateVector.normalized(np.array([0.0, 0.6, 0.8]))
    with pytest.raises(ValueError):
        probe_measure(field, DichotomicParams(0.5, 0.0), RandomStream(0))


def test_generation_hits_target_state():
    rng = np.random.default_rng(31)
    for _ in range(25):
        eta = float(rng.uniform(-2.0, 2.0))
        p1, p2 = rng.uniform(0.0, 1.0, 2)
        t1, t2 = rng.uniform(-math.pi, math.pi, 2)
        result = generate_entangled_gbs(InitialAtomPair(eta), p1, t1, p2, t2)
        target = entangled_gbs_state(
            EntangledGbsParams(p1=p1, p2=p2, theta1=t1, theta2=t2, eta=eta)
        )
        assert abs(fidelity(result.field, target) - 1.0) < 1e-12
        assert abs(result.atom_probabilities[ATOM_DOWN, ATOM_DOWN] - 1.0) < 1e-12


def test_generation_at_the_largest_cutoff_stays_small():
    # The pulses act on one photon per cavity, so the largest cutoff costs
    # only the 16 MiB joint state and its copy, not a (2d) x (2d) pulse.
    tracemalloc.start()
    try:
        result = generate_entangled_gbs(InitialAtomPair(0.7), 0.3, 0.8, 0.8, -0.9, n_max=1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak
    target = entangled_gbs_state(
        EntangledGbsParams(p1=0.3, p2=0.8, theta1=0.8, theta2=-0.9, eta=0.7), n_max=1024
    )
    assert abs(fidelity(result.field, target) - 1.0) < 1e-12


@pytest.mark.parametrize("theta", (1e13, 1e17, -3e16))
def test_protocol_is_exact_at_large_phase(theta):
    # the Ramsey phases, the target state and the probe settings all use
    # the phase wrapped to (-pi, pi]
    result = generate_entangled_gbs(InitialAtomPair(0.7), 0.3, theta, 0.8, -0.4)
    target = entangled_gbs_state(
        EntangledGbsParams(p1=0.3, p2=0.8, theta1=theta, theta2=-0.4, eta=0.7)
    )
    assert abs(fidelity(result.field, target) - 1.0) < 1e-12
    for kind in ("maximal", "wide"):
        bell = preset_config(kind, 0.8, theta=theta)
        (row,) = timing_sensitivity(ExperimentConfig(bell=bell, shots=1, seed=0), [0.0])
        assert abs(row.fidelity - 1.0) < 1e-12
        assert abs(row.s_b - bell_function(bell)) < 1e-12


@pytest.mark.parametrize(
    "p1, p2, eta, field",
    [
        (1.5, 0.5, 1.0, "p1"),
        (0.5, -0.2, 1.0, "p2"),
        (0.5, 0.5, math.nan, "eta"),
        (0.5, 0.5, -1e155, "eta"),  # eta**2 overflows
    ],
)
def test_generation_refuses_bad_parameters(p1, p2, eta, field):
    # out-of-range p used to be clamped into a made-up state
    with pytest.raises(ValueError, match=f"^{field} must"):
        generate_entangled_gbs(InitialAtomPair(eta), p1, 0.0, p2, 0.0)


def test_experiment_determinism():
    cfg = ExperimentConfig(bell=preset_config("maximal", 1.0), shots=2000, seed=314)
    first = run_bell_experiment(cfg)
    second = run_bell_experiment(cfg)
    assert first == second
    shifted = run_bell_experiment(
        ExperimentConfig(bell=preset_config("maximal", 1.0), shots=2000, seed=315)
    )
    assert first != shifted


def test_experiment_tracks_closed_form():
    for eta in (0.0, 0.5, 1.0):
        cfg = preset_config("maximal", eta)
        est = run_bell_experiment(ExperimentConfig(bell=cfg, shots=20000, seed=777))
        target = bell_function(cfg)
        assert abs(est.s_b_hat - target) <= 3.5 * est.std_error
        assert est.discarded_shots == 0
        for setting in est.settings:
            assert setting.retained == 20000


def test_experiment_fair_sampling_losses():
    cfg = ExperimentConfig(
        bell=preset_config("maximal", 1.0),
        shots=40000,
        seed=11,
        detector_efficiency=0.5,
    )
    est = run_bell_experiment(cfg)
    # coincidences survive with probability alpha^2
    for setting in est.settings:
        expected = 40000 * 0.25
        assert abs(setting.retained - expected) < 4 * math.sqrt(40000 * 0.25 * 0.75)
    assert abs(est.s_b_hat - 2 * math.sqrt(2)) <= 3.5 * est.std_error
    assert est.discarded_shots == 4 * 40000 - sum(s.retained for s in est.settings)


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_experiment_settings_track_closed_form(alpha):
    cfg = preset_config("maximal", 1.0)
    shots = 40000
    est = run_bell_experiment(
        ExperimentConfig(bell=cfg, shots=shots, seed=2718, detector_efficiency=alpha)
    )
    kept = alpha**2
    for setting in est.settings:
        # each atom is detected with probability alpha
        assert abs(setting.retained / shots - kept) <= 4 * math.sqrt(kept * (1 - kept) / shots)
        want = bell_correlation(cfg, setting.phi_a, setting.phi_b)
        assert abs(setting.correlation - want) <= 4 * setting.std_error
    assert est.discarded_shots == 4 * shots - sum(s.retained for s in est.settings)
    if alpha == 1.0:
        assert est.discarded_shots == 0


def test_experiment_cost_is_independent_of_shots():
    cfg = ExperimentConfig(
        bell=preset_config("maximal", 1.0), shots=10**12, seed=5, detector_efficiency=0.9
    )
    tracemalloc.start()
    try:
        start = time.perf_counter()
        est = run_bell_experiment(cfg)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 5.0
    assert peak < 2**20
    assert est.discarded_shots == 4 * 10**12 - sum(s.retained for s in est.settings)
    assert abs(est.s_b_hat - 2 * math.sqrt(2)) <= 5 * est.std_error


# Seeds of the error-bar ensemble, picked once. Never re-pick them to make
# the test pass: a failure here is a miscalibrated error bar.
ENSEMBLE_SEEDS = range(5000, 6000)


@pytest.mark.parametrize(
    "preset, eta, alpha, shots",
    [("maximal", 1.0, 1.0, 1000), ("maximal", 0.5, 0.7, 400), ("wide", 1.0, 0.9, 200)],
    ids=["maximal-lossless", "maximal-lossy", "wide-few-shots"],
)
def test_error_bars_are_calibrated(preset, eta, alpha, shots):
    # z = (s_b_hat - S_B) / std_error over a fixed ensemble of seeds. If the
    # reported +- is one standard deviation, z has mean 0 and spread 1, and
    # |z| <= 2 in 95.45% of runs. Each band is 4 standard errors of its
    # statistic over N normal draws, set by N alone.
    bell = preset_config(preset, eta)
    target = bell_function(bell)
    z = []
    for seed in ENSEMBLE_SEEDS:
        est = run_bell_experiment(ExperimentConfig(bell, shots, seed, alpha))
        z.append((est.s_b_hat - target) / est.std_error)
    n = len(z)
    assert abs(statistics.fmean(z)) <= 4 / math.sqrt(n)
    assert abs(statistics.stdev(z) - 1.0) <= 4 / math.sqrt(2 * (n - 1))
    inside = 2 * statistics.NormalDist().cdf(2.0) - 1
    share = sum(abs(value) <= 2.0 for value in z) / n
    assert abs(share - inside) <= 4 * math.sqrt(inside * (1 - inside) / n)


# The random-stream contract of simulate, pinned: the 16 cell counts of each
# setting, in the cell order (q_a, q_b, d_a, d_b), for fixed runs of
# (preset, eta, alpha, shots, seed). Between them the runs take both
# branches of the binomial draw. A deliberate change of the stream updates
# these counts and says so in CHANGES.md.
PINNED_COUNTS = {
    ("maximal", 1.0, 1.0, 10**4, 11): [
        [0, 0, 0, 708, 0, 0, 0, 4330, 0, 0, 0, 4221, 0, 0, 0, 741],
        [0, 0, 0, 4318, 0, 0, 0, 759, 0, 0, 0, 766, 0, 0, 0, 4157],
        [0, 0, 0, 4277, 0, 0, 0, 730, 0, 0, 0, 731, 0, 0, 0, 4262],
        [0, 0, 0, 4234, 0, 0, 0, 742, 0, 0, 0, 788, 0, 0, 0, 4236],
    ],
    ("maximal", 0.5, 0.7, 400, 12): [
        [0, 1, 2, 4, 5, 8, 13, 35, 20, 48, 66, 145, 5, 13, 13, 22],
        [8, 17, 18, 31, 3, 3, 2, 6, 7, 8, 10, 19, 28, 59, 53, 128],
        [17, 27, 39, 115, 1, 1, 1, 0, 8, 16, 17, 50, 10, 23, 17, 58],
        [5, 28, 19, 56, 6, 13, 21, 46, 0, 0, 0, 1, 16, 48, 47, 94],
    ],
    ("wide", 0.8, 0.95, 10**12, 13): [
        [0, 0, 0, 0, 975624132, 18536458469, 18536639978, 352195450795,
         1524353651, 28963407458, 28963263979, 550304801538, 0, 0, 0, 0],
        [731736040, 13902372336, 13902418024, 264146216744, 243888843, 4634099282,
         4634133231, 88049168988, 381069328, 7240899046, 7240738904, 137576508486,
         1143257055, 21722618087, 21722610991, 412728264615],
        [381105443, 7240805749, 7240876370, 137576321446, 731708812, 13902508672,
         13902525788, 264146082601, 1143259011, 21722484979, 21722568762, 412728930584,
         243927639, 4634142091, 4634165537, 88048586516],
        [186750273, 3548091936, 3548009369, 67412629127, 926060837, 17595314939,
         17595009543, 334309708567, 926092709, 17595342233, 17595102412, 334310876490,
         461123068, 8761456952, 8761507012, 166466924533],
    ],
}


def test_simulate_stream_is_pinned(monkeypatch):
    from cavity_bell import fock

    multinomial, binomial = RandomStream.multinomial, fock._binomial
    counts, branches = [], set()

    def recorded_multinomial(self, count, probabilities):
        out = multinomial(self, count, probabilities)
        counts.append(out.tolist())
        return out

    def recorded_binomial(draw, n, p):
        if n > 1 and 0.0 < p < 1.0:  # the branch _binomial takes, after reflecting p > 1/2
            branches.add("geometric" if n * min(p, 1.0 - p) < 10.0 else "btrs")
        return binomial(draw, n, p)

    monkeypatch.setattr(RandomStream, "multinomial", recorded_multinomial)
    monkeypatch.setattr(fock, "_binomial", recorded_binomial)
    for (preset, eta, alpha, shots, seed), want in PINNED_COUNTS.items():
        counts.clear()
        cfg = ExperimentConfig(bell=preset_config(preset, eta), shots=shots, seed=seed,
                               detector_efficiency=alpha)
        est = run_bell_experiment(cfg)
        assert counts == want, (preset, eta, alpha, shots, seed)
        assert [s.retained for s in est.settings] == [sum(c[3::4]) for c in want]
    assert branches == {"geometric", "btrs"}


def test_experiment_warns_away_from_half():
    # the warning is a note of the estimate, which simulate prints as note.p
    cfg = preset_config("maximal", 1.0, p=0.3)
    est = run_bell_experiment(ExperimentConfig(bell=cfg, shots=500, seed=1))
    assert est.notes == (("p", "p is not 1/2, where the Bell violation is maximal"),)
    cfg = preset_config("maximal", 1.0)
    assert run_bell_experiment(ExperimentConfig(bell=cfg, shots=500, seed=1)).notes == ()


def test_experiment_config_validation():
    bell = preset_config("maximal", 1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(bell=bell, shots=0, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(bell=bell, shots=100, seed=1, detector_efficiency=1.2)
    # the sampler counts shots in int64
    ExperimentConfig(bell=bell, shots=2**63 - 1, seed=1)
    with pytest.raises(ValueError, match="^shots must"):
        ExperimentConfig(bell=bell, shots=2**63, seed=1)
    # whole shots are drawn, so a fractional count would be misreported, and
    # a fractional seed would select the stream of its integer part
    for shots, seed, message in (
        (1000.7, 1, "shots must be an integer in [1, 2**63 - 1], got 1000.7"),
        (True, 1, "shots must be an integer in [1, 2**63 - 1], got True"),
        (100, 1.9, "seed must be an integer in [0, 2**64), got 1.9"),
        # the stream keys on 64 bits, so these would alias 2**64 - 1 and 0
        (100, -1, "seed must be an integer in [0, 2**64), got -1"),
        (100, 2**64, "seed must be an integer in [0, 2**64), got 18446744073709551616"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ExperimentConfig(bell=bell, shots=shots, seed=seed)
    assert ExperimentConfig(bell=bell, shots=np.int64(100), seed=np.uint64(1)).shots == 100
    assert ExperimentConfig(bell=bell, shots=1, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    assert ExperimentConfig(bell=bell, shots=1, seed=2**64 - 1).seed == 2**64 - 1


def test_detection_threshold():
    report = detection_threshold_check(0.9)
    assert math.isclose(report.alpha_threshold, 2.0 / (math.sqrt(2.0) + 1.0), abs_tol=1e-15)
    assert round(report.alpha_threshold, 4) == 0.8284
    assert report.violable
    assert not detection_threshold_check(0.5).violable
    # the threshold itself is not enough; the inequality is strict
    assert not detection_threshold_check(ALPHA_THRESHOLD).violable
    assert detection_threshold_check(0.829).violable
    with pytest.raises(ValueError):
        detection_threshold_check(1.0001)


def test_timing_sensitivity_sweep():
    cfg = ExperimentConfig(bell=preset_config("maximal", 1.0), shots=1, seed=1)
    eps = [-0.02, -0.01, 0.0, 0.01, 0.02]
    rows = timing_sensitivity(cfg, eps)
    by_eps = {row.epsilon: row for row in rows}
    assert by_eps[0.0].fidelity == pytest.approx(1.0, abs=1e-12)
    assert by_eps[0.0].s_b == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    for e in (0.01, 0.02):
        assert abs(by_eps[e].fidelity - by_eps[-e].fidelity) < 1e-10
        assert abs(by_eps[e].s_b - by_eps[-e].s_b) < 1e-10
        assert by_eps[e].fidelity < 1.0
        assert by_eps[e].s_b < 2 * math.sqrt(2)
    with pytest.raises(ValueError):
        timing_sensitivity(cfg, [0.6])


@pytest.mark.parametrize(
    "epsilons, message",
    (
        ([0.0, math.nan], "epsilons must be finite, got nan"),
        ([0.1, -math.inf, 0.7], "epsilons must be finite, got -inf"),
        ([0.1, 0.5, math.nan], "epsilons must lie in (-0.5, 0.5), got 0.5"),
        (0.7, "epsilons must lie in (-0.5, 0.5), got 0.7"),
    ),
)
def test_timing_sensitivity_names_the_first_bad_epsilon(epsilons, message):
    # the scalar rule of check_fields, at the first failing point
    cfg = ExperimentConfig(bell=preset_config("maximal", 1.0), shots=1, seed=1)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        timing_sensitivity(cfg, epsilons)


@pytest.mark.parametrize("kind", ("maximal", "wide"))
def test_timing_sensitivity_closed_form(kind):
    # Each pulse of area (pi/2)(1 + eps) moves a photon with amplitude
    # s = cos(pi eps/2), so the ground-ground branch overlaps the target with
    # sum w_mn s^(m+n), w_mn = |psi_mn|^2. At p = 1/2, S_B scales as s^4.
    epsilons = np.linspace(-0.49, 0.49, 99)
    s = np.cos(0.5 * math.pi * epsilons)
    for p in (0.3, 0.5, 0.9):
        for eta in (-0.4, 0.0, 0.7, 1.0, 2.5):
            bell = preset_config(kind, eta, p=p, theta=0.4)
            w = np.abs(entangled_gbs_state(bell.state_params).amplitudes) ** 2
            rows = timing_sensitivity(ExperimentConfig(bell=bell, shots=1, seed=0), epsilons)
            fidelity = np.array([row.fidelity for row in rows])
            want = (w[0, 0] + (w[0, 1] + w[1, 0]) * s + w[1, 1] * s**2) ** 2
            assert np.max(np.abs(fidelity - want)) <= 1e-12, (p, eta)
            if p == 0.5:
                s_b = np.array([row.s_b for row in rows])
                assert np.max(np.abs(s_b - bell_function(bell) * s**4)) <= 1e-12, eta


def test_outcome_distribution_is_checked_before_sampling(tmp_path, monkeypatch, capsys):
    from cavity_bell import dynamics
    from cavity_bell.cli import main

    cfg = ExperimentConfig(bell=preset_config("maximal", 1.0), shots=100, seed=3)
    bad = {
        "nan": [0.25, 0.25, 0.25, float("nan")],
        "negative": [0.5, 0.5, 0.1, -0.1],
        "unnormalised": [0.25, 0.25, 0.25, 0.26],
    }
    for name, values in bad.items():
        probs = np.tile(np.reshape(values, (2, 2)), (1, 4, 1, 1))
        monkeypatch.setattr(dynamics, "_probe_outcome_probabilities", lambda *a, p=probs: p)
        with pytest.raises(RuntimeError, match="not a probability distribution"):
            run_bell_experiment(cfg)
        out = tmp_path / name
        assert main(["simulate", "maximal", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()


def test_timing_sensitivity_regression_values():
    # frozen from this simulator: nothing in the source fixes these numbers
    # directly, so they guard the whole generation + probing pipeline
    cfg = ExperimentConfig(bell=preset_config("maximal", 1.0), shots=1, seed=1)
    row = timing_sensitivity(cfg, [0.01])[0]
    assert row.fidelity == pytest.approx(0.999753295400533, abs=1e-12)
    assert row.s_b == pytest.approx(2.82703163886845, abs=1e-11)



def _reference_protocol(bell, gts):
    """The protocol stage by stage at the commands' cutoff of two photons.

    One _apply per Ramsey zone and per pulse, and one readout per setting
    summed in one np.sum: the route the one-photon kernel replaced.
    Returns the joint amplitudes (k, atom1, atom2, field1, field2) and the
    outcome probabilities (k, setting, q1, q2).
    """
    d = 3
    pulses = _jc_stack(gts, d - 1)
    params = bell.state_params
    state = np.zeros((1, 2, 2, d, d), dtype=complex)
    norm = norm_const(params.eta)
    state[0, ATOM_UP, ATOM_DOWN, 0, 0] = norm
    state[0, ATOM_DOWN, ATOM_UP, 0, 0] = (
        norm * params.eta * cmath.exp(1j * (params.theta2 - params.theta1))
    )
    state = _apply(state, _basis_rotation(params.p1, params.theta1), (0,))
    state = _apply(state, _basis_rotation(params.p2, params.theta2), (1,))
    state = _apply(state, pulses, (0, 2))
    joint = _apply(state, pulses, (1, 3))
    full = np.zeros((len(joint), 2, 2, 2, 2, d, d), dtype=complex)
    full[:, :, :, ATOM_DOWN, ATOM_DOWN] = joint
    full = _apply(full, pulses, (2, 4))
    full = _apply(full, pulses, (3, 5))
    probs = np.empty((len(joint), len(bell.settings), 2, 2))
    for index, (phi_a, phi_b) in enumerate(bell.settings):
        rotated = _apply(full, _basis_rotation(bell.p, phi_a), (2,))
        out = _apply(rotated, _basis_rotation(bell.p, phi_b), (3,))
        probs[:, index] = np.sum(np.abs(out) ** 2, axis=(1, 2, 5, 6))
    return joint, probs


def _protocol_cases():
    """(BellConfig, errors) cases of the protocol.

    Presets at random points and at the edges of each axis, then random
    settings with phi1 = phi1', phi2 = phi2' or both, which no preset has.
    """
    rng = np.random.default_rng(19)
    edges = np.array([0.0, 0.49, -0.49, 1e-9])
    for kind in ("maximal", "wide"):
        for eta in (0.0, -0.7, 1.0, -2.5):
            for p in (0.0, 0.5, 1.0):
                yield preset_config(kind, eta, p=p, theta=0.3), edges
    for _ in range(120):
        errors = np.concatenate([edges, rng.uniform(-0.499, 0.499, int(rng.integers(1, 70)))])
        yield preset_config(
            str(rng.choice(["maximal", "wide"])),
            float(rng.uniform(-3.0, 3.0)),
            p=float(rng.uniform(0.0, 1.0)),
            theta=float(rng.uniform(-math.pi, math.pi)),
        ), errors
    for index in range(90):
        errors = np.concatenate([edges, rng.uniform(-0.499, 0.499, int(rng.integers(1, 20)))])
        p = (0.0, 0.5, 1.0)[index] if index < 3 else float(rng.uniform(0.0, 1.0))
        eta, theta, phi1, phi2, phi1_prime, phi2_prime = rng.uniform(-math.pi, math.pi, 6)
        if index % 3 != 1:
            phi1_prime = phi1
        if index % 3 != 0:
            phi2_prime = phi2
        yield BellConfig(p, theta, eta, phi1, phi2, phi1_prime, phi2_prime), errors


def test_one_photon_protocol_is_the_cutoff_2_route_bit_for_bit():
    for bell, errors in _protocol_cases():
        joint_ref, probs_ref = _reference_protocol(bell, PROBE_PULSE_AREA * (1.0 + errors))
        assert not np.any(joint_ref[..., 2:, :]) and not np.any(joint_ref[..., 2:]), bell
        stages = list(_bell_protocol(bell, errors))
        assert np.array_equal(np.concatenate([joint for _, joint, _ in stages]),
                              joint_ref[..., :2, :2]), bell
        assert np.array_equal(np.concatenate([probs for *_, probs in stages]), probs_ref), bell
        # the sweep's two columns, from the reference amplitudes
        overlap = braket(entangled_gbs_state(bell.state_params).amplitudes,
                         joint_ref[:, ATOM_DOWN, ATOM_DOWN])
        rows = timing_sensitivity(ExperimentConfig(bell=bell, shots=1, seed=0), errors)
        assert np.array_equal(rows.epsilon, errors), bell
        assert np.array_equal(rows.fidelity, np.hypot(overlap.real, overlap.imag) ** 2), bell
        assert np.array_equal(rows.s_b, chsh(*_correlation_from_probs(probs_ref).T)), bell
        # simulate's pulse is exactly pi/2
        ((_, _, probs),) = _bell_protocol(bell, np.zeros(1))
        assert np.array_equal(probs, _reference_protocol(bell, np.array([math.pi / 2]))[1]), bell
