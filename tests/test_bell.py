"""Dichotomic observable, CHSH closed forms, presets and the p-scan."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from cavity_bell.bell import (
    BellConfig,
    DichotomicParams,
    analytic_s_b,
    angle_preset,
    bell_correlation,
    bell_correlation_operator,
    bell_function,
    bell_function_at_half,
    bell_function_operator,
    bell_function_operator_vs_eta,
    bell_function_vs_p,
    degree_of_entanglement,
    dichotomic_eigenstates,
    dichotomic_gbs_matrix,
    dichotomic_operator,
    eta_for_degree,
    optimal_p_scan,
    preset_config,
    violation_threshold,
)
from cavity_bell.binomial import GbsParams, gbs_state, orthogonal_partner
from cavity_bell.fock import StateVector, inner


def test_dichotomic_operator_spectral_action():
    for p in (0.1, 0.5, 0.85):
        for phi in (0.0, 1.1, -2.0):
            op = dichotomic_operator(DichotomicParams(p, phi), n_max=3)
            plus = gbs_state(GbsParams(p, phi), 3)
            minus = gbs_state(orthogonal_partner(GbsParams(p, phi)), 3)
            assert np.linalg.norm(op.matrix @ plus.amplitudes - plus.amplitudes) < 1e-12
            assert np.linalg.norm(op.matrix @ minus.amplitudes + minus.amplitudes) < 1e-12


def test_dichotomic_operator_spectrum():
    # eigenvalues are {+1, -1} on the qubit block, 0 on the padding levels
    op = dichotomic_operator(DichotomicParams(0.3, 0.9), n_max=4)
    eigs = np.sort(np.linalg.eigvalsh(op.matrix))
    want = np.array([-1.0, 0.0, 0.0, 0.0, 1.0])
    assert np.allclose(eigs, want, atol=1e-12)


def test_dichotomic_operator_half_is_flip():
    op = dichotomic_operator(DichotomicParams(0.5, 0.0), n_max=1)
    assert np.allclose(op.matrix, np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-14)


def test_gbs_matrix_against_projections():
    rng = np.random.default_rng(8)
    for _ in range(40):
        p = float(rng.uniform(0.02, 0.98))
        phi, phip = rng.uniform(-math.pi, math.pi, 2)
        m = dichotomic_gbs_matrix(p, phi, phip)
        op = dichotomic_operator(DichotomicParams(p, phip), n_max=2)
        e1 = gbs_state(GbsParams(p, phi), 2)
        e2 = gbs_state(orthogonal_partner(GbsParams(p, phi)), 2)
        f11 = np.vdot(e1.amplitudes, op.matrix @ e1.amplitudes)
        f12 = np.vdot(e1.amplitudes, op.matrix @ e2.amplitudes)
        assert abs(m.f11 - f11) < 1e-12
        assert abs(m.f12 - f12) < 1e-12
        assert abs(m.f11**2 + abs(m.f12) ** 2 - 1.0) < 1e-12


def test_gbs_matrix_examples():
    m = dichotomic_gbs_matrix(0.3, 0.7, 0.7)
    assert math.isclose(m.f11, 1.0, abs_tol=1e-14)
    assert abs(m.f12) < 1e-14
    m = dichotomic_gbs_matrix(0.5, 0.0, math.pi / 2)
    assert abs(m.f11) < 1e-14
    assert abs(m.f12 - 1j) < 1e-14
    # a NaN phase would slip through the block's defect check, and an
    # infinite one would reach math.sin
    with pytest.raises(ValueError, match="^phi must be finite, got nan$"):
        dichotomic_gbs_matrix(0.5, math.nan, 0.0)
    with pytest.raises(ValueError, match="^phi_prime must be finite, got inf$"):
        dichotomic_gbs_matrix(0.5, 0.0, math.inf)


def test_eigenstates_of_rotated_operator():
    rng = np.random.default_rng(9)
    for _ in range(40):
        p = float(rng.uniform(0.02, 0.98))
        phi, phip = rng.uniform(-math.pi, math.pi, 2)
        op = dichotomic_operator(DichotomicParams(p, phip), n_max=2)
        plus, minus = dichotomic_eigenstates(p, phi, phip, n_max=2)
        assert np.linalg.norm(op.matrix @ plus.amplitudes - plus.amplitudes) < 1e-10
        assert np.linalg.norm(op.matrix @ minus.amplitudes + minus.amplitudes) < 1e-10
        assert abs(inner(plus, minus)) < 1e-12
        # plus is the rotated basis state up to a global phase
        target = gbs_state(GbsParams(p, phip), 2)
        assert abs(abs(inner(plus, target)) - 1.0) < 1e-10


def test_eigenstates_degenerate_case():
    plus, minus = dichotomic_eigenstates(0.3, 0.5, 0.5, n_max=2)
    assert abs(inner(plus, gbs_state(GbsParams(0.3, 0.5), 2)) - 1.0) < 1e-14
    assert abs(inner(minus, gbs_state(orthogonal_partner(GbsParams(0.3, 0.5)), 2)) - 1.0) < 1e-14


def test_eigenstates_quarter_turn_example():
    # p=1/2, basis phase 0, operator phase pi/2: plus = (e1 - i e2)/sqrt(2)
    plus, _ = dichotomic_eigenstates(0.5, 0.0, math.pi / 2, n_max=2)
    e1 = gbs_state(GbsParams(0.5, 0.0), 2)
    e2 = gbs_state(GbsParams(0.5, math.pi), 2)
    want = StateVector.normalized(e1.amplitudes - 1j * e2.amplitudes)
    assert abs(abs(inner(plus, want)) - 1.0) < 1e-12


def test_degree_of_entanglement():
    assert degree_of_entanglement(1.0) == 1.0
    assert degree_of_entanglement(0.0) == 0.0
    assert math.isclose(degree_of_entanglement(2.0), 0.8, abs_tol=1e-14)
    assert math.isclose(degree_of_entanglement(0.5), 0.8, abs_tol=1e-14)
    assert math.isclose(degree_of_entanglement(-1.0), 1.0, abs_tol=1e-14)


def test_eta_degree_roundtrip():
    for g in np.linspace(0.0, 1.0, 21):
        eta = eta_for_degree(float(g))
        assert 0.0 <= eta <= 1.0
        assert math.isclose(degree_of_entanglement(eta), g, abs_tol=1e-12)
    with pytest.raises(ValueError):
        eta_for_degree(1.1)


def test_correlation_closed_form_vs_operator_grid():
    # five-parameter grid with 3 points per axis, tolerance 1e-12
    ps = (0.2, 0.5, 0.8)
    thetas = (0.0, 0.9, -1.7)
    etas = (0.0, 0.7, -1.3)
    phias = (0.0, 1.3, -0.4)
    phibs = (0.5, -2.0, 2.8)
    for p, theta, eta, pa, pb in itertools.product(ps, thetas, etas, phias, phibs):
        cfg = BellConfig(
            p=p, theta=theta, eta=eta, phi1=pa, phi2=pb, phi1_prime=0.0, phi2_prime=0.0
        )
        closed = bell_correlation(cfg, pa, pb)
        direct = bell_correlation_operator(cfg, pa, pb)
        assert abs(closed - direct) < 1e-12


def test_correlation_examples_at_half():
    cfg = preset_config("maximal", 1.0)
    assert math.isclose(
        bell_correlation(cfg, 0.0, math.pi / 4), -math.cos(math.pi / 4), abs_tol=1e-12
    )
    cfg0 = preset_config("maximal", 0.0)
    for pa, pb in ((0.3, 1.1), (0.0, 2.0), (-0.7, 0.4)):
        assert math.isclose(
            bell_correlation(cfg0, pa, pb), -math.cos(pa) * math.cos(pb), abs_tol=1e-12
        )


def test_correlation_common_shift_invariance():
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = float(rng.uniform(0.05, 0.95))
        theta, pa, pb, shift = rng.uniform(-math.pi, math.pi, 4)
        eta = float(rng.uniform(-2, 2))
        base = BellConfig(
            p=p, theta=theta, eta=eta, phi1=0, phi2=0, phi1_prime=0, phi2_prime=0
        )
        moved = BellConfig(
            p=p, theta=theta + shift, eta=eta, phi1=0, phi2=0, phi1_prime=0, phi2_prime=0
        )
        assert abs(
            bell_correlation(base, pa, pb) - bell_correlation(moved, pa + shift, pb + shift)
        ) < 1e-12


def test_bell_function_shift_invariance():
    rng = np.random.default_rng(12)
    for _ in range(10):
        eta = float(rng.uniform(-1.5, 1.5))
        theta = float(rng.uniform(-math.pi, math.pi))
        shift = float(rng.uniform(-math.pi, math.pi))
        a = bell_function(preset_config("maximal", eta, theta=theta))
        b = bell_function(preset_config("maximal", eta, theta=theta + shift))
        assert abs(a - b) < 1e-12


def test_bell_function_matches_operator():
    rng = np.random.default_rng(13)
    for _ in range(25):
        cfg = BellConfig(
            p=float(rng.uniform(0.02, 0.98)),
            theta=float(rng.uniform(-math.pi, math.pi)),
            eta=float(rng.uniform(-2, 2)),
            phi1=float(rng.uniform(-math.pi, math.pi)),
            phi2=float(rng.uniform(-math.pi, math.pi)),
            phi1_prime=float(rng.uniform(-math.pi, math.pi)),
            phi2_prime=float(rng.uniform(-math.pi, math.pi)),
        )
        assert abs(bell_function(cfg) - bell_function_operator(cfg)) < 1e-12


def test_half_occupation_closed_form():
    rng = np.random.default_rng(14)
    for _ in range(25):
        cfg = BellConfig(
            p=0.5,
            theta=float(rng.uniform(-math.pi, math.pi)),
            eta=float(rng.uniform(-2, 2)),
            phi1=float(rng.uniform(-math.pi, math.pi)),
            phi2=float(rng.uniform(-math.pi, math.pi)),
            phi1_prime=float(rng.uniform(-math.pi, math.pi)),
            phi2_prime=float(rng.uniform(-math.pi, math.pi)),
        )
        assert abs(bell_function_at_half(cfg) - bell_function(cfg)) < 1e-12
    with pytest.raises(ValueError):
        bell_function_at_half(
            BellConfig(p=0.4, theta=0, eta=1, phi1=0, phi2=0, phi1_prime=0, phi2_prime=0)
        )


def test_preset_values():
    assert math.isclose(bell_function(preset_config("maximal", 1.0)), 2 * math.sqrt(2), abs_tol=1e-12)
    assert math.isclose(bell_function(preset_config("wide", 1.0)), 2.5, abs_tol=1e-12)
    eta_g = eta_for_degree(math.sqrt(2) - 1)
    assert math.isclose(bell_function(preset_config("maximal", eta_g)), 2.0, abs_tol=1e-9)
    eta_w = eta_for_degree(1.0 / 3.0)
    assert math.isclose(bell_function(preset_config("wide", eta_w)), 2.0, abs_tol=1e-9)


def test_presets_track_analytic_form_for_both_eta_signs():
    for eta in (1.0, 0.6, 0.25, -0.25, -0.6, -1.0):
        g = degree_of_entanglement(eta)
        for kind in ("maximal", "wide"):
            cfg = preset_config(kind, eta, theta=0.37)
            assert abs(bell_function(cfg) - analytic_s_b(kind, g)) < 1e-12
            assert abs(bell_function_operator(cfg) - analytic_s_b(kind, g)) < 1e-12


@pytest.mark.parametrize("theta", (1e13, 1e17, -3e16))
def test_closed_forms_match_operator_at_large_phase(theta):
    # the preset ladder and the state phase both start from the wrapped theta
    for kind in ("maximal", "wide"):
        for eta in (1.0, 0.6, -0.6):
            cfg = preset_config(kind, eta, p=0.3, theta=theta)
            assert abs(cfg.theta) <= math.pi
            assert abs(bell_function(cfg) - bell_function_operator(cfg)) < 1e-12
            for phi_a, phi_b in cfg.settings:
                operator = bell_correlation_operator(cfg, phi_a, phi_b)
                assert abs(bell_correlation(cfg, phi_a, phi_b) - operator) < 1e-12
            # the pscan closed form at the same point
            angles = angle_preset(kind, theta, eta_sign=1.0 if eta >= 0 else -1.0)
            (s_b,) = bell_function_vs_p(theta, eta, angles, [0.3])
            assert abs(s_b - bell_function_operator(cfg)) < 1e-12
        # the scan: analytic S_B(G) against the oracle at the preset angles
        degrees = np.array([0.0, 0.5, 1.0])
        s_b_operator = bell_function_operator_vs_eta(
            0.5, theta, angle_preset(kind, theta), eta_for_degree(degrees)
        )
        assert np.max(np.abs(s_b_operator - analytic_s_b(kind, degrees))) < 1e-12
    # settings given next to theta, far from zero, keep their offsets
    for offsets in ((0.0, 0.0, 0.0, 0.0), (0.1, math.pi / 4, -2.0, 3 * math.pi / 4)):
        cfg = BellConfig(0.4, theta, 0.8, *(theta + offset for offset in offsets))
        assert abs(bell_function(cfg) - bell_function_operator(cfg)) < 1e-12


def test_scan_oracle_at_large_cutoff():
    # the joint operator would take 16 * 201^4 bytes (26 GB) at this cutoff
    degrees = np.array([0.0, 0.5, 1.0])
    tracemalloc.start()
    try:
        s_b = bell_function_operator_vs_eta(
            0.5, 0.0, angle_preset("maximal"), eta_for_degree(degrees), n_max=200
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(s_b - analytic_s_b("maximal", degrees))) <= 1e-12
    assert peak <= 2**26, peak


@pytest.mark.parametrize("eta", (math.nan, math.inf, 1e200, -1e155))
def test_scan_oracle_refuses_bad_eta(eta):
    # 1e200 and -1e155 are finite but their squares overflow; the refusal
    # must come before norm_const squares them, so no warning is raised
    with pytest.raises(ValueError, match="^eta must"):
        bell_function_operator_vs_eta(0.5, 0.0, angle_preset("maximal"), [0.5, eta])


def test_analytic_s_b_values_and_thresholds():
    assert math.isclose(analytic_s_b("maximal", 1.0), 2 * math.sqrt(2), abs_tol=1e-15)
    assert math.isclose(analytic_s_b("maximal", 0.0), math.sqrt(2), abs_tol=1e-15)
    assert math.isclose(analytic_s_b("wide", 1.0), 2.5, abs_tol=1e-15)
    assert math.isclose(analytic_s_b("maximal", violation_threshold("maximal")), 2.0, abs_tol=1e-12)
    assert math.isclose(analytic_s_b("wide", violation_threshold("wide")), 2.0, abs_tol=1e-15)
    assert math.isclose(violation_threshold("maximal"), math.sqrt(2) - 1, abs_tol=1e-15)
    assert math.isclose(violation_threshold("wide"), 1.0 / 3.0, abs_tol=1e-15)
    with pytest.raises(ValueError):
        analytic_s_b("maximal", 1.5)
    with pytest.raises(ValueError):
        analytic_s_b("nope", 0.5)


def test_angle_preset_layout():
    phi1, phi2, phi1p, phi2p = angle_preset("maximal", 0.0)
    assert (phi1, phi2, phi1p, phi2p) == (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
    shifted = angle_preset("maximal", 0.3)
    assert np.allclose(np.array(shifted) - np.array((phi1, phi2, phi1p, phi2p)), 0.3)
    w_pos = angle_preset("wide", 0.0, eta_sign=1.0)
    assert w_pos == (0.0, 0.0, math.pi / 3, -2 * math.pi / 3)
    w_neg = angle_preset("wide", 0.0, eta_sign=-1.0)
    assert w_neg == (0.0, 0.0, math.pi / 3, 2 * math.pi / 3)


def test_tsirelson_bound():
    rng = np.random.default_rng(15)
    for _ in range(200):
        cfg = BellConfig(
            p=float(rng.uniform(0, 1)),
            theta=float(rng.uniform(-math.pi, math.pi)),
            eta=float(rng.uniform(-3, 3)),
            phi1=float(rng.uniform(-math.pi, math.pi)),
            phi2=float(rng.uniform(-math.pi, math.pi)),
            phi1_prime=float(rng.uniform(-math.pi, math.pi)),
            phi2_prime=float(rng.uniform(-math.pi, math.pi)),
        )
        assert bell_function(cfg) <= 2 * math.sqrt(2) + 1e-9


def test_reciprocal_eta_gives_same_bell_value():
    for eta in (2.0, 3.5, 0.8):
        a = bell_function(preset_config("maximal", eta))
        b = bell_function(preset_config("maximal", 1.0 / eta))
        assert abs(a - b) < 1e-12


def test_p_scan_optimum_and_symmetry():
    for kind in ("maximal", "wide"):
        for eta in (0.5, 1.0):
            angles = angle_preset(kind, 0.0, eta_sign=1.0)
            assert optimal_p_scan(0.0, eta, angles, step=0.01) == 0.5
    angles = angle_preset("maximal", 0.0)
    grid = np.linspace(0.0, 1.0, 101)
    values = bell_function_vs_p(0.0, 0.8, angles, grid)
    assert np.max(np.abs(values - values[::-1])) < 1e-9


def test_p_scan_step_validation():
    angles = angle_preset("maximal", 0.0)
    with pytest.raises(ValueError):
        optimal_p_scan(0.0, 1.0, angles, step=0.3)
    with pytest.raises(ValueError):
        optimal_p_scan(0.0, 1.0, angles, step=-0.1)
