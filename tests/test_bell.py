"""Dichotomic observable, CHSH closed forms, presets and the p-scan."""

import itertools
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cavity_bell.bell import (
    PRESET_TABLE,
    BellConfig,
    DichotomicParams,
    PArgmax,
    analytic_s_b,
    angle_preset,
    bell_correlation,
    bell_function,
    bell_function_operator,
    bell_function_operator_vs_eta,
    bell_function_vs_p,
    chsh,
    degree_of_entanglement,
    dichotomic_eigenstates,
    dichotomic_gbs_matrix,
    dichotomic_operator,
    dichotomic_pair_expectation,
    eta_for_degree,
    optimal_p_scan,
    p_grid,
    preset_config,
    violation_threshold,
)
from cavity_bell.binomial import (BinomialParams, GbsParams, binomial_state, gbs_state,
                                  orthogonal_partner)
from cavity_bell.constants import PRESETS
from cavity_bell.dynamics import (ALPHA_THRESHOLD, ExperimentConfig, InitialAtomPair,
                                  detection_threshold_check)
from cavity_bell.fields import EntangledGbsParams, entangled_gbs_state, field_expectation_operator
from cavity_bell.fock import StateVector, expectation, inner, joint


def dense_correlation(cfg, phi_a, phi_b):
    """<F_p(phi_a) x F_p(phi_b)> through the d^2 x d^2 joint operator."""
    ops = (dichotomic_operator(GbsParams(cfg.p, phi)) for phi in (phi_a, phi_b))
    return expectation(joint(*ops), entangled_gbs_state(cfg.state_params)).real


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


@pytest.mark.parametrize("n_max", (0, -1))
def test_dichotomic_operator_refuses_a_cutoff_below_one_photon(n_max):
    rule = r"must be an integer in \[1, 1024\]"
    with pytest.raises(ValueError, match=rf"^n_max {rule}, got {n_max}$"):
        dichotomic_operator(DichotomicParams(0.3, 0.9), n_max=n_max)


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


def test_eigenstates_are_the_defining_pair():
    # F_p(phi') assigns +1 to |p, phi'> and -1 to its partner, whatever the
    # basis phase phi the question is put in
    for p, phi, phip in ((0.3, 0.5, 0.5), (0.7, -1.1, 2.4), (0.5, 0.0, math.pi / 2)):
        plus, minus = dichotomic_eigenstates(p, phi, phip, n_max=2)
        base = GbsParams(p, phip)
        assert np.array_equal(plus.amplitudes, gbs_state(base, 2).amplitudes)
        assert np.array_equal(minus.amplitudes, gbs_state(orthogonal_partner(base), 2).amplitudes)
    with pytest.raises(ValueError, match="^phi must be finite, got nan$"):
        dichotomic_eigenstates(0.5, math.nan, 0.0)


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
    assert degree_of_entanglement(1e-160) == 2e-160
    # eta is checked as the state's eta: its square must be finite
    assert math.isclose(degree_of_entanglement(-1e154), 2e-154, rel_tol=1e-14)
    for eta in (1e160, 1e308, -1.7e308):
        with pytest.raises(ValueError) as info:
            degree_of_entanglement(eta)
        assert str(info.value) == f"eta must have a finite square, got {eta!r}"


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
        direct = dense_correlation(cfg, pa, pb)
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
        # each correlation collapses to g sin a1 sin a2 - cos a1 cos a2 with
        # the signed weight g = 2 eta/(1+eta^2), which covers both eta signs
        g = 2.0 * cfg.eta / (1.0 + cfg.eta**2)
        at_half = chsh(
            *(
                g * math.sin(phi_a - cfg.theta) * math.sin(phi_b - cfg.theta)
                - math.cos(phi_a - cfg.theta) * math.cos(phi_b - cfg.theta)
                for phi_a, phi_b in cfg.settings
            )
        )
        assert abs(at_half - bell_function(cfg)) < 1e-12


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
                operator = dense_correlation(cfg, phi_a, phi_b)
                assert abs(bell_correlation(cfg, phi_a, phi_b) - operator) < 1e-12
            # the pscan closed form at the same point
            angles = angle_preset(kind, theta, eta_sign=1.0 if eta >= 0 else -1.0)
            (s_b,) = bell_function_vs_p(theta, eta, angles, [0.3])
            assert abs(s_b - bell_function_operator(cfg)) < 1e-12
        # the scan: analytic S_B(G) against the oracle at the preset angles
        degrees = np.array([0.0, 0.5, 1.0])
        s_b_operator = bell_function_operator_vs_eta(
            theta, eta_for_degree(degrees), angle_preset(kind, theta), 0.5
        )
        assert np.max(np.abs(s_b_operator - analytic_s_b(kind, degrees))) < 1e-12
    # settings given next to theta, far from zero, keep their offsets
    for offsets in ((0.0, 0.0, 0.0, 0.0), (0.1, math.pi / 4, -2.0, 3 * math.pi / 4)):
        raw = [theta + offset for offset in offsets]
        cfg = BellConfig(0.4, theta, 0.8, *raw)
        assert abs(bell_function(cfg) - bell_function_operator(cfg)) < 1e-12
        # bell_correlation reduces raw angles as BellConfig does
        for phi_a, phi_b in itertools.product(raw[::2], raw[1::2]):
            operator = dense_correlation(cfg, phi_a, phi_b)
            assert abs(bell_correlation(cfg, phi_a, phi_b) - operator) < 1e-12


def test_bell_correlation_refuses_a_bad_angle():
    cfg = preset_config("maximal", 0.7, p=0.3, theta=0.4)
    with pytest.raises(ValueError, match="^phi1 must be finite, got nan$"):
        bell_correlation(cfg, math.nan, 0.3)
    with pytest.raises(ValueError, match="^phi2 must be finite, got -inf$"):
        bell_correlation(cfg, 0.3, -math.inf)


def test_point_equals_grid_value():
    # bell_function and bell_function_vs_p share one closed form, so a point
    # and its grid value agree to the bit; these three rounded apart when the
    # point squared (1-2p) with libm pow
    for kind, eta, p in (
        ("wide", 1.0, 0.40244729137474977),
        ("wide", 0.5, 0.18660241067064376),
        ("maximal", 0.5, 0.18160544449105476),
    ):
        (s_b,) = bell_function_vs_p(0.0, eta, angle_preset(kind), p)
        assert bell_function(preset_config(kind, eta, p=p)) == float(s_b)
    rng = np.random.default_rng(18)
    for _ in range(2000):
        kind = ("maximal", "wide")[int(rng.integers(2))]
        eta, p = float(rng.uniform(-2.0, 2.0)), float(rng.uniform())
        theta = float(rng.uniform(-4.0, 4.0))
        angles = angle_preset(kind, theta, eta_sign=1.0 if eta >= 0 else -1.0)
        (s_b,) = bell_function_vs_p(theta, eta, angles, p)
        assert bell_function(preset_config(kind, eta, p=p, theta=theta)) == float(s_b)


def test_scan_oracle_at_large_cutoff():
    # the joint operator would take 16 * 201^4 bytes (26 GB) at this cutoff
    degrees = np.array([0.0, 0.5, 1.0])
    tracemalloc.start()
    try:
        s_b = bell_function_operator_vs_eta(
            0.0, eta_for_degree(degrees), angle_preset("maximal"), 0.5, n_max=200
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.max(np.abs(s_b - analytic_s_b("maximal", degrees))) <= 1e-12
    assert peak <= 2**26, peak
    # a cutoff below one photon cannot hold the Bernoulli states
    with pytest.raises(ValueError, match=r"^n_max must be an integer in \[1, 1024\], got 0$"):
        bell_function_operator(preset_config("maximal", 0.5), 0)


@pytest.mark.parametrize("eta", (math.nan, math.inf, 1e200, -1e155))
def test_scan_oracle_refuses_bad_eta(eta):
    # 1e200 and -1e155 are finite but their squares overflow; the refusal
    # must come before norm_const squares them, so no warning is raised.
    # Both routes name the bad weight, as BellConfig does: the oracle in its
    # eta vector, the closed form as its one eta.
    rule = "be finite" if not math.isfinite(eta) else "have a finite square"
    message = f"^eta must {rule}, got {re.escape(repr(eta))}$"
    with pytest.raises(ValueError, match=message):
        bell_function_operator_vs_eta(0.0, [0.5, eta], angle_preset("maximal"), 0.5)
    with pytest.raises(ValueError, match=message):
        bell_function_vs_p(0.0, eta, angle_preset("maximal"), [0.5, 0.5])


@pytest.mark.parametrize(
    "ps, message",
    (
        ([0.5, 1.5, math.nan], "p must lie in [0, 1], got 1.5"),
        ([0.2, math.nan, -0.1], "p must be finite, got nan"),
        (-0.1, "p must lie in [0, 1], got -0.1"),
    ),
)
def test_p_scan_names_the_first_bad_p(ps, message):
    # check_fields names the first bad point of the vector with BellConfig's message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        bell_function_vs_p(0.0, 0.5, angle_preset("maximal"), ps)


def test_scan_oracle_names_the_first_bad_eta_before_any_block(monkeypatch):
    # the whole eta vector is checked before superpose squares any of it,
    # even where the bad point lies blocks after the first
    from cavity_bell import bell

    calls, superpose = [], bell.superpose

    def counted(*args):
        calls.append(args)
        return superpose(*args)

    monkeypatch.setattr(bell, "superpose", counted)
    angles = angle_preset("maximal")
    with pytest.raises(ValueError, match=r"^eta must have a finite square, got 1e\+200$"):
        bell_function_operator_vs_eta(0.0, [0.5, 1e200, math.nan], angles, 0.5)
    with pytest.raises(ValueError, match="^eta must be finite, got nan$"):
        bell_function_operator_vs_eta(0.0, [0.5] * 1000 + [math.nan], angles, 0.5)
    assert calls == []
    bell_function_operator_vs_eta(0.0, [0.5] * 1000, angles, 0.5)
    assert len(calls) == 3  # blocks of 455 points at the default cutoff


@pytest.mark.parametrize("cutoff", (1, 2, 3, 4))
def test_one_p_oracle_row_is_independent_of_stack_size(cutoff):
    # one F pair for the whole stack, in row-stacked products: a matrix's
    # correlation is the same to the bit in a stack of any size
    rng = np.random.default_rng(40 + cutoff)
    d = cutoff + 1
    for size in (1, 2, 7, 455, 1000):
        stack = rng.normal(size=(size, d, d)) + 1j * rng.normal(size=(size, d, d))
        p, phi_a, phi_b = float(rng.uniform()), *rng.uniform(-math.pi, math.pi, 2)
        values = dichotomic_pair_expectation(stack, p, phi_a, phi_b)
        for i in range(size):
            assert values[i] == dichotomic_pair_expectation(stack[i : i + 1], p, phi_a, phi_b)[0]


def test_oracle_matches_closed_form_at_every_cutoff():
    # cutoffs above one photon only add zero terms to the contractions
    rng = np.random.default_rng(41)
    etas = np.linspace(-2.0, 2.0, 301)
    for cutoff in (1, 2, 5, 20):
        for _ in range(5):
            p, theta = float(rng.uniform()), float(rng.uniform(-4.0, 4.0))
            angles = tuple(rng.uniform(-math.pi, math.pi, 4))
            oracle = bell_function_operator_vs_eta(theta, etas, angles, p, cutoff)
            closed = np.concatenate([bell_function_vs_p(theta, eta, angles, p) for eta in etas])
            assert np.max(np.abs(oracle - closed)) <= 1e-12


@pytest.mark.parametrize("kind", ("maximal", "wide"))
@pytest.mark.parametrize("theta", (0.0, 0.3, 2.0))
def test_scan_oracle_states_are_entangled_gbs_states(kind, theta):
    # each S_B of a block equals the same contractions on the one state
    # builder's amplitudes, point by point, to the bit
    etas = eta_for_degree(np.linspace(0.0, 1.0, 201))
    angles = angle_preset(kind, theta)
    scan = bell_function_operator_vs_eta(theta, etas, angles, 0.5)
    for eta, s_b in zip(etas, scan):
        cfg = BellConfig(0.5, theta, float(eta), *angles)
        amplitudes = entangled_gbs_state(cfg.state_params).amplitudes
        assert s_b == chsh(*(dichotomic_pair_expectation(amplitudes, 0.5, a, b)
                             for a, b in cfg.settings))


@pytest.mark.parametrize("kind", ("maximal", "wide"))
def test_p_scan_oracle_matches_closed_form(kind):
    # the pscan values against the operator oracle, on the p grid of pscan
    # and on a joint (p, eta) grid with weights of both signs; the oracle
    # takes one p a call, and all the weights of one sign share its angles
    ps = np.linspace(0.0, 1.0, 201)
    for theta in (0.0, 0.4, -2.5, 1e13):
        for etas in ((0.7, 0.35, 3.7), (-0.6, -1.0)):
            angles = angle_preset(kind, theta, etas[0])
            closed = np.array([bell_function_vs_p(theta, eta, angles, ps) for eta in etas])
            oracle = np.array([bell_function_operator_vs_eta(theta, etas, angles, p) for p in ps])
            assert np.max(np.abs(closed - oracle.T)) < 1e-12
        etas = np.linspace(-2.0, 2.0, len(ps))
        closed = [bell_function_vs_p(theta, eta, angles, p) for p, eta in zip(ps, etas)]
        oracle = [bell_function_operator_vs_eta(theta, eta, angles, p) for p, eta in zip(ps, etas)]
        assert np.max(np.abs(np.concatenate(closed) - np.concatenate(oracle))) < 1e-12


@pytest.mark.parametrize("g", (0.1, 0.2, 0.3, 1.0 / 3.0, 0.8, 1.0))
def test_violation_thresholds_belong_to_the_presets(g):
    # At p = 1/2 the phases (theta, theta+b, theta+pi/2, theta+b') with
    # beta = atan2(1, G) reach S_B = 2 sqrt(1+G^2), past 2 for every G > 0,
    # so G > sqrt(2)-1 and G > 1/3 are limits of the presets, not of the state.
    theta = 0.4
    beta = math.atan2(1.0, g)
    b = math.atan2(math.cos(beta), -math.sin(beta))
    b_prime = math.atan2(math.cos(beta), math.sin(beta))
    angles = (theta, theta + b, theta + math.pi / 2, theta + b_prime)
    cfg = BellConfig(0.5, theta, eta_for_degree(g), *angles)
    want = 2.0 * math.sqrt(1.0 + g * g)
    assert abs(bell_function(cfg) - want) < 1e-12
    assert abs(bell_function_operator(cfg) - want) < 1e-12
    assert want > 2.0
    for kind in ("maximal", "wide"):
        if g < violation_threshold(kind):
            assert analytic_s_b(kind, g) < 2.0


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


#: The closed forms README states, as it writes them, next to the code each names.
README_CLOSED_FORMS = (
    ("`S_B = sqrt(2)(1 + G)`", lambda g: analytic_s_b("maximal", g)),
    ("`G > sqrt(2) - 1`", lambda g: violation_threshold("maximal")),
    ("`S_B = 7/4 + 3G/4`", lambda g: analytic_s_b("wide", g)),
    ("`G > 1/3`", lambda g: violation_threshold("wide")),
    ("`2/(sqrt(2)+1)`", lambda g: ALPHA_THRESHOLD),
)
#: README's bound on S_B at degree of entanglement G, which no setting passes.
README_BOUND = "`S_B = 2 sqrt(1 + G^2)`"


def readme_formula(text: str, g: float) -> float:
    """The right-hand side of a README formula at G = g, read as Python."""
    right = text.strip("`").split(" = ")[-1].split(" > ")[-1].replace("^", "**")
    right = re.sub(r"(?<=[\dG)])\s*(?=[A-Za-z(])", "*", right)  # 3G -> 3*G, 2 sqrt -> 2*sqrt
    return eval(right, {"__builtins__": {}}, {"sqrt": math.sqrt, "G": g})


@pytest.mark.parametrize("g", (0.0, 0.3, 1.0 / 3.0, math.sqrt(2.0) - 1.0, 1.0))
def test_readme_closed_forms_are_the_code(g):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    for text in [text for text, _ in README_CLOSED_FORMS] + [README_BOUND]:
        assert text in readme, text
    for text, code in README_CLOSED_FORMS:
        assert abs(code(g) - readme_formula(text, g)) <= 1e-12, text
    for kind in PRESETS:
        assert bell_function(preset_config(kind, eta_for_degree(g))) <= (
            readme_formula(README_BOUND, g) + 1e-12
        )


@pytest.mark.parametrize(
    "bad, message",
    (
        ((1.5, math.nan), "degree of entanglement must lie in [0, 1], got 1.5"),
        ((math.nan, -0.5), "degree of entanglement must be finite, got nan"),
        ((-math.inf, 2.0), "degree of entanglement must be finite, got -inf"),
    ),
)
def test_degree_refusal_names_the_first_bad_point(bad, message):
    # one line with the first bad G, not the repr of the whole block
    degrees = np.linspace(0.0, 1.0, 4096)
    degrees[[1000, 3000]] = bad
    for call in (lambda g: analytic_s_b("maximal", g), eta_for_degree):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(degrees)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(bad[0])


def test_preset_table_holds_the_parsers_choices():
    assert tuple(PRESET_TABLE) == PRESETS
    calls = (
        lambda: angle_preset("nope"),
        lambda: analytic_s_b("nope", 0.5),
        lambda: violation_threshold("nope"),
        lambda: preset_config("nope", 0.5),
    )
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "preset must be one of ('maximal', 'wide'), got 'nope'"


BELL_FIELDS = {
    "p": 0.4, "theta": 0.1, "eta": 0.7, "phi1": 0.2, "phi2": 0.3, "phi1_prime": 1.4, "phi2_prime": 2.5,
}
STATE_FIELDS = {"p1": 0.3, "p2": 0.6, "theta1": 0.1, "theta2": 0.2, "eta": -0.7}
BASIS_FIELDS = {"p": 0.4, "phi": 0.3, "phi_prime": 1.2}
#: Every value type and function that refuses a scalar through check_fields,
#: with good arguments; each float and each count among them is one field to fault.
CHECKED = (
    (BellConfig, BELL_FIELDS),
    (EntangledGbsParams, STATE_FIELDS),
    (GbsParams, {"p": 0.4, "phi": 0.3}),
    (BinomialParams, {"n": 2, "p": 0.4, "phi": 0.3}),
    (InitialAtomPair, {"eta": 0.7}),
    (dichotomic_gbs_matrix, BASIS_FIELDS),
    (dichotomic_eigenstates, BASIS_FIELDS),
    (angle_preset, {"kind": "maximal", "theta": 0.3}),
    (detection_threshold_check, {"alpha": 0.9}),
    (ExperimentConfig, {"bell": preset_config("maximal", 1.0), "shots": 10, "seed": 3,
                        "detector_efficiency": 0.9}),
    (binomial_state, {"params": BinomialParams(1, 0.4, 0.3), "n_max": 3}),
    (dichotomic_operator, {"d": GbsParams(0.4, 0.3), "n_max": 3}),
    (field_expectation_operator, {"params": EntangledGbsParams(**STATE_FIELDS), "cavity": 1}),
)
#: The bad values of each count, and the words of its rule.
COUNT_FAULTS = {
    "shots": ((0, 2**63, 1000.7, True), "must be an integer in [1, 2**63 - 1]"),
    "seed": ((-1, 2**64, 1.9), "must be an integer in [0, 2**64)"),
    "n": ((-1, 1.5, 65, 10**400), "must be an integer in [0, 64]"),
    "n_max": ((0, 1025, 2**63 - 1), "must be an integer in [1, 1024]"),
    "cavity": ((3,), "must be 1 or 2"),
}


def one_fault_cases():
    for cls, fields in CHECKED:
        for name, good in fields.items():
            if name in COUNT_FAULTS:
                bads, rule = COUNT_FAULTS[name]
                faults = [("10**400" if bad == 10**400 else repr(bad), bad, rule) for bad in bads]
            elif isinstance(good, float):
                # an int beyond the float range is no finite float either
                faults = [(bad, float(bad), "must be finite") for bad in ("nan", "inf", "-inf")]
                faults.append(("10**400", 10**400, "must be finite"))
                if name == "eta":
                    faults += [(bad, float(bad), "must have a finite square")
                               for bad in ("1e+155", "-1e+200")]
                    faults.append(("10**200", 10**200, "must have a finite square"))
                if name in ("p", "p1", "p2", "alpha", "detector_efficiency"):
                    faults += [(bad, float(bad), "must lie in [0, 1]")
                               for bad in ("-0.1", "1.5", "1.0000000000000002")]
            else:
                continue
            for text, bad, rule in faults:
                yield pytest.param(cls, fields, name, bad, f"{name} {rule}, got {bad!r}",
                                   id=f"{cls.__name__}-{name}={text}")


@pytest.mark.parametrize("cls, fields, name, bad, message", one_fault_cases())
def test_one_fault_names_its_field(cls, fields, name, bad, message):
    # the message must quote the bad value back as repr shows it
    with pytest.raises(ValueError) as info:
        cls(**{**fields, name: bad})
    assert str(info.value) == message


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


def test_p_grid_blocks_are_linspace_bit_for_bit():
    # at 49 and 5010 intervals, i * (1 / n) misses 1 at i = n, so linspace
    # sets its last point; the grid must too
    cases = ((0.5, 3), (0.005, 201), (2.5e-5, 40001), (1e-6, 1000001), (1 / 49, 50),
             (1 / 5010, 5011))
    for step, count in cases:
        blocks = list(p_grid(step))
        assert max(map(len, blocks)) <= 2**12, step
        grid = np.concatenate(blocks)
        assert grid.tobytes() == np.linspace(0.0, 1.0, count).tobytes(), step


def whole_vector_argmax(ps, values):
    """The p_argmax rule over the whole grid at once, as pscan took it before it streamed."""
    values = np.asarray(values)
    candidates = np.asarray(ps)[values >= np.max(values) - 1e-12]
    return min(map(float, candidates), key=lambda p: (abs(p - 0.5), p))


def running_argmax(ps, values, size):
    best = PArgmax()
    for start in range(0, len(ps), size):
        block = values[start:start + size]
        assert best.add(ps[start:start + size], block) is block  # passed on to the writer
    return best.p


@pytest.mark.parametrize(
    "ps, values",
    [
        # ties within 1e-12 on either side of p = 1/2: the nearer point wins,
        # then the smaller p
        ([0.3, 0.45, 0.5 + 2**-40, 0.55, 0.7], [1.0, 2.0, 2.0 - 9e-13, 2.0 + 5e-13, 1.0]),
        ([0.3, 0.5 - 2**-40, 0.5 + 2**-40, 0.7], [1.0, 2.0, 2.0 + 9e-13, 1.0]),
        ([0.3, 0.45, 0.55, 0.7], [1.0, 2.0 + 9e-13, 2.0, 1.0]),
        ([0.3, 0.45, 0.55, 0.7], [1.0, 2.0, 2.0 + 2e-12, 1.0]),
        # a maximum that rises after points near 1/2 were kept
        ([0.5, 0.49, 0.51, 0.2, 0.1, 0.9], [2.0, 2.0, 2.0 - 1e-13, 2.0 + 3e-12, 1.0, 2.0 + 2.5e-12]),
        ([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [1.0, 1.5, 1.5 + 1e-12, 1.5 + 2e-12, 1.5 + 3e-12, 1.5]),
        # a run of equal values
        (list(np.linspace(0.0, 1.0, 11)), [2.0] * 11),
        ([0.0, 0.1, 0.2, 0.3], [2.0] * 4),
    ],
    ids=["tie-below", "tie-straddles", "tie-within", "tie-beyond", "rises", "creeps",
         "flat", "flat-one-side"],
)
def test_running_argmax_is_the_whole_vector_rule(ps, values):
    ps, values = np.asarray(ps, dtype=float), np.asarray(values, dtype=float)
    want = whole_vector_argmax(ps, values)
    for size in range(1, len(ps) + 1):
        assert running_argmax(ps, values, size) == want, size


def test_running_argmax_on_grids_with_near_ties():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        count = int(rng.integers(1, 60))
        ps = np.sort(rng.choice(np.linspace(0.0, 1.0, 201), count, replace=False))
        values = 2.0 + rng.integers(-3, 4, count) * 4e-13 + rng.integers(0, 2, count)
        want = whole_vector_argmax(ps, values)
        for size in (1, 2, 3, 7, count):
            assert running_argmax(ps, values, size) == want


def test_p_scan_step_validation():
    angles = angle_preset("maximal", 0.0)
    with pytest.raises(ValueError):
        optimal_p_scan(0.0, 1.0, angles, step=0.3)
    with pytest.raises(ValueError):
        optimal_p_scan(0.0, 1.0, angles, step=-0.1)
