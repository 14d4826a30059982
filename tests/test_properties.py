"""Physical invariants and batched-kernel identities, checked with Hypothesis.

The batched kernels must agree with their references: the operator oracle
with the closed form and with the joint (kron) operator, and every row of a
batch with the same call made for that row alone.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cavity_bell.bell import (
    BellConfig,
    bell_correlation,
    bell_function,
    bell_function_operator,
    bell_function_operator_vs_eta,
    bell_function_vs_p,
    degree_of_entanglement,
    dichotomic_operator,
)
from cavity_bell.binomial import GbsParams
from cavity_bell.dynamics import (
    ExperimentConfig,
    InitialAtomPair,
    generate_entangled_gbs,
    timing_sensitivity,
)
from cavity_bell.fields import EntangledGbsParams, entangled_gbs_state
from cavity_bell.fock import (
    TwoCavityState,
    expectation,
    identity,
    joint,
    pair_expectation,
    quadrature,
)

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

probability = st.floats(0.0, 1.0)
angle = st.floats(-math.pi, math.pi)
weight = st.floats(-3.0, 3.0)
n_max = st.integers(1, 4)
angles = st.tuples(angle, angle, angle, angle)


def config(p, theta, eta, phis):
    return BellConfig(p, theta, eta, *phis)


@SETTINGS
@given(probability, angle, st.lists(weight, min_size=1, max_size=6), angles, n_max)
def test_batched_oracle_matches_closed_form_and_single_rows(p, theta, etas, phis, cutoff):
    batched = bell_function_operator_vs_eta(p, theta, phis, etas, cutoff)
    for eta, value in zip(etas, batched):
        cfg = config(p, theta, eta, phis)
        assert abs(value - bell_function(cfg)) <= 1e-12
        assert value == bell_function_operator(cfg, cutoff)


@SETTINGS
@given(probability, angle, weight, angles)
def test_correlations_and_tsirelson_bound(p, theta, eta, phis):
    cfg = config(p, theta, eta, phis)
    for phi_a, phi_b in cfg.settings:
        assert abs(bell_correlation(cfg, phi_a, phi_b)) <= 1.0 + 1e-12
    assert bell_function(cfg) <= 2.0 * math.sqrt(2.0) + 1e-12
    assert bell_function_operator(cfg) <= 2.0 * math.sqrt(2.0) + 1e-12


@SETTINGS
@given(angle, weight, angles, st.lists(probability, min_size=1, max_size=8))
def test_p_scan_rows_equal_single_evaluations(theta, eta, phis, ps):
    values = bell_function_vs_p(theta, eta, phis, ps)
    for p, value in zip(ps, values):
        assert value == bell_function(config(p, theta, eta, phis))


@SETTINGS
@given(st.floats(1e-3, 1e3))
def test_degree_of_entanglement_is_reciprocal_invariant(eta):
    assert abs(degree_of_entanglement(eta) - degree_of_entanglement(1.0 / eta)) <= 1e-12


@SETTINGS
@given(probability, probability, angle, angle, weight, n_max)
def test_states_stay_normalized(p1, p2, t1, t2, eta, cutoff):
    params = EntangledGbsParams(p1=p1, p2=p2, theta1=t1, theta2=t2, eta=eta)
    state = entangled_gbs_state(params, cutoff)
    assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-12
    result = generate_entangled_gbs(InitialAtomPair(eta), p1, t1, p2, t2, n_max=cutoff)
    assert abs(np.sum(result.atom_probabilities) - 1.0) <= 1e-12
    assert abs(np.sum(np.abs(result.field.amplitudes) ** 2) - 1.0) <= 1e-12


@SETTINGS
@given(
    probability, angle, probability, angle, n_max,
    hnp.arrays(np.float64, (2, 3, 5, 5), elements=st.floats(-1.0, 1.0)),
)
def test_pair_expectation_matches_joint_operator(p1, phi1, p2, phi2, cutoff, parts):
    d = cutoff + 1
    op1 = dichotomic_operator(GbsParams(p1, phi1), cutoff)
    op2 = dichotomic_operator(GbsParams(p2, phi2), cutoff)
    stack = parts[0, :, :d, :d] + 1j * parts[1, :, :d, :d]
    stack[:, 0, 0] += 2.0  # keeps every state away from zero
    stack /= np.sqrt(np.sum(np.abs(stack) ** 2, axis=(1, 2)))[:, None, None]
    got = pair_expectation(op1, op2, stack)
    reference = joint(op1, op2)
    for row, value in zip(stack, got):
        assert abs(value - expectation(reference, TwoCavityState(row))) <= 1e-12


@SETTINGS
@given(probability, probability, angle, angle, weight, n_max)
def test_field_moments_equal_joint_operator_exactly(p1, p2, t1, t2, eta, cutoff):
    # covariance prints its operator values to 12 digits, tiny nonzero
    # residues included, so the contraction must reproduce the kron bytes
    state = entangled_gbs_state(EntangledGbsParams(p1, p2, t1, t2, eta), cutoff)
    field, one = quadrature(cutoff), identity(cutoff)
    for op1, op2 in ((field, one), (one, field), (field, field)):
        want = expectation(joint(op1, op2), state)
        assert pair_expectation(op1, op2, state.amplitudes) == want


@settings(derandomize=True, max_examples=10, deadline=None)
@given(
    probability, angle, weight, angles, st.lists(st.floats(-0.49, 0.49), min_size=1, max_size=5)
)
def test_sensitivity_rows_equal_single_epsilon_calls(p, theta, eta, phis, epsilons):
    cfg = ExperimentConfig(bell=config(p, theta, eta, phis), shots=1, seed=0)
    rows = timing_sensitivity(cfg, epsilons)
    for eps, row in zip(epsilons, rows):
        (single,) = timing_sensitivity(cfg, [eps])
        assert row == single
        assert 0.0 <= row.fidelity <= 1.0 + 1e-12
        assert row.s_b <= 2.0 * math.sqrt(2.0) + 1e-12


def test_rows_across_blocks_equal_single_calls():
    # 100 rows span many blocks: 9 rows each for the oracle at n_max = 20,
    # 16 rows each for the sweep at n_max = 3
    phis = (0.1, 0.9, 1.7, 2.6)
    etas = np.linspace(-2.0, 2.0, 100)
    batched = bell_function_operator_vs_eta(0.4, 0.3, phis, etas, 20)
    assert all(
        value == bell_function_operator(config(0.4, 0.3, eta, phis), 20)
        for eta, value in zip(etas, batched)
    )
    cfg = ExperimentConfig(bell=config(0.4, 0.3, 0.7, phis), shots=1, seed=0, n_max=3)
    epsilons = np.linspace(-0.3, 0.3, 100)
    rows = timing_sensitivity(cfg, epsilons)
    assert rows == [timing_sensitivity(cfg, [eps])[0] for eps in epsilons]
