"""Physical invariants and batched-kernel identities, checked with Hypothesis.

The batched kernels must agree with their references: the operator oracle
with the closed form and with the joint (kron) operator, and every row of a
batch with the same call made for that row alone.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from cavity_bell import bell as bell_module
from cavity_bell.bell import (
    BellConfig,
    analytic_s_b,
    bell_correlation,
    bell_function,
    bell_function_operator,
    bell_function_operator_vs_eta,
    bell_function_vs_p,
    degree_of_entanglement,
    dichotomic_operator,
    dichotomic_pair_expectation,
    eta_for_degree,
)
from cavity_bell.binomial import GbsParams
from cavity_bell.dynamics import (
    ATOM_UP,
    PROBE_PULSE_AREA,
    ExperimentConfig,
    InitialAtomPair,
    generate_entangled_gbs,
    timing_sensitivity,
)
from cavity_bell.dynamics import _bell_protocol, _correlation_from_probs, _jc_stack, _probe_pulses
from cavity_bell.fields import (
    EntangledGbsParams,
    FieldStats,
    entangled_gbs_state,
    field_covariance_operator,
)
from cavity_bell.fock import (
    FieldOperator,
    TwoCavityState,
    expectation,
    fidelity,
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
# nonzero, so that 1/eta is a weight too
invertible_weight = st.one_of(st.floats(-10.0, -0.1), st.floats(0.1, 10.0))
timing_errors = st.lists(
    st.one_of(st.floats(-0.45, -0.01), st.floats(0.01, 0.45)), min_size=1, max_size=3
)


def config(p, theta, eta, phis):
    return BellConfig(p, theta, eta, *phis)


def setting_correlations(p, theta, eta, phis, epsilons):
    """The four per-setting correlations by each route, one row per route.

    Rows: the closed form, the operator oracle, then the protocol at each
    timing error.
    """
    cfg = config(p, theta, eta, phis)
    amplitudes = entangled_gbs_state(cfg.state_params).amplitudes
    closed = [bell_correlation(cfg, a, b) for a, b in cfg.settings]
    oracle = [dichotomic_pair_expectation(amplitudes, cfg.p, a, b) for a, b in cfg.settings]
    stages = _bell_protocol(cfg, np.asarray(epsilons))
    protocol = [_correlation_from_probs(probs) for *_, probs in stages]
    return np.vstack([closed, oracle, *protocol])


@SETTINGS
@given(probability, angle, weight, angles, angle, timing_errors)
def test_correlations_are_invariant_under_a_global_phase(p, theta, eta, phis, delta, epsilons):
    shifted = [phi + delta for phi in phis]
    got = setting_correlations(p, theta + delta, eta, shifted, epsilons)
    assert np.max(np.abs(got - setting_correlations(p, theta, eta, phis, epsilons))) <= 1e-12


@SETTINGS
@given(probability, angle, invertible_weight, angles, timing_errors)
def test_cavity_swap_exchanges_the_mixed_settings(p, theta, eta, phis, epsilons):
    # (phi1, phi2, phi1', phi2') -> (phi2, phi1, phi2', phi1') with eta -> 1/eta:
    # settings (phi1, phi2') and (phi1', phi2) trade places
    phi1, phi2, phi1p, phi2p = phis
    got = setting_correlations(p, theta, 1.0 / eta, (phi2, phi1, phi2p, phi1p), epsilons)
    want = setting_correlations(p, theta, eta, phis, epsilons)
    assert np.max(np.abs(got[:, [0, 2, 1, 3]] - want)) <= 1e-12


@SETTINGS
@given(probability, angle, invertible_weight, angles, timing_errors)
def test_partner_relabel_leaves_the_correlations(p, theta, eta, phis, epsilons):
    # |p, t> and its partner |1-p, t+pi> trade roles: F_p(phi) -> -F_p(phi)
    # in each cavity, and the state's branches swap, so eta -> 1/eta
    relabelled = [phi + math.pi for phi in phis]
    got = setting_correlations(1.0 - p, theta + math.pi, 1.0 / eta, relabelled, epsilons)
    assert np.max(np.abs(got - setting_correlations(p, theta, eta, phis, epsilons))) <= 1e-12


@SETTINGS
@given(probability, angle, st.lists(weight, min_size=1, max_size=6), angles, n_max)
def test_batched_oracle_matches_closed_form_and_single_rows(p, theta, etas, phis, cutoff):
    batched = bell_function_operator_vs_eta(theta, etas, phis, p, cutoff)
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
    # Horodecki: a pure state of concurrence G reaches at most 2 sqrt(1 + G^2)
    horodecki = 2.0 * math.sqrt(1.0 + degree_of_entanglement(eta) ** 2) + 1e-12
    assert max(bell_function(cfg), bell_function_operator(cfg)) <= horodecki


@SETTINGS
@given(angle, weight, angles, st.lists(probability, min_size=1, max_size=8))
# a weight whose square glibc's pow rounds an ulp away from eta * eta
@example(0.3, -2.50703049513511, (0.1, 0.9, 1.7, 2.6), [0.4])
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
    got = pair_expectation(op1.matrix, op2.matrix, stack)
    reference = joint(op1, op2)
    for row, value in zip(stack, got):
        assert abs(value - expectation(reference, TwoCavityState(row))) <= 1e-12


@SETTINGS
@given(probability, probability, angle, angle, weight, n_max)
def test_field_moments_equal_joint_operator_exactly(p1, p2, t1, t2, eta, cutoff):
    # covariance prints its operator values to 12 digits, tiny nonzero
    # residues included, so the contraction must reproduce the kron bytes
    params = EntangledGbsParams(p1, p2, t1, t2, eta)
    state = entangled_gbs_state(params, cutoff)
    field, one = quadrature(cutoff), FieldOperator(np.eye(cutoff + 1))
    e1, e2, e1e2 = (expectation(joint(op1, op2), state).real
                    for op1, op2 in ((field, one), (one, field), (field, field)))
    assert field_covariance_operator(params, cutoff) == FieldStats(e1, e2, e1e2, e1e2 - e1 * e2)


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
    # 28 rows each for the sweep at the default cutoff, so 4 blocks.
    phis = (0.1, 0.9, 1.7, 2.6)
    etas = np.linspace(-2.0, 2.0, 100)
    batched = bell_function_operator_vs_eta(0.3, etas, phis, 0.4, 20)
    assert len(batched) == 100
    assert all(
        value == bell_function_operator(config(0.4, 0.3, eta, phis), 20)
        for eta, value in zip(etas, batched)
    )
    cfg = ExperimentConfig(bell=config(0.4, 0.3, 0.7, phis), shots=1, seed=0)
    epsilons = np.linspace(-0.3, 0.3, 100)
    rows = timing_sensitivity(cfg, epsilons)
    assert np.array_equal(rows, [timing_sensitivity(cfg, [eps])[0] for eps in epsilons])


@SETTINGS
@given(
    probability, probability, angle, angle, weight, angles,
    st.lists(st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True), min_size=1, max_size=4),
)
def test_fock_cutoff_is_inert(p1, p2, t1, t2, eta, phis, epsilons):
    # Bernoulli fields made in empty cavities and read by ground-state probes
    # never leave the span of |0> and |1>, at any pulse area, so the protocol
    # holds those two levels alone. Its sentinel is |up, 1>, the one level
    # whose pulse partner |down, 2> lies outside the span: it must hold
    # exactly 0 in both cavities. Cutoffs only add zero terms to the oracle,
    # the field moments and generation, which can move a sum's rounding by a
    # few ulp.
    params = EntangledGbsParams(p1, p2, t1, t2, eta)
    bell = config(p1, t1, eta, phis)
    epsilons = np.asarray(epsilons)
    for part, joint, _ in _bell_protocol(bell, epsilons):  # one or more blocks
        probed = _probe_pulses(joint, _jc_stack(PROBE_PULSE_AREA * (1.0 + epsilons[part])))
        # (row, atom1, atom2, field1, field2), then (row, ..., probe1, probe2, field1, field2)
        assert not np.any(joint[:, ATOM_UP, :, 1]) and not np.any(joint[:, :, ATOM_UP, :, 1])
        assert not np.any(probed[..., ATOM_UP, :, 1, :]) and not np.any(probed[..., ATOM_UP, :, 1])
    results = []
    for cutoff in (1, 2, 5):
        generated = generate_entangled_gbs(InitialAtomPair(eta), p1, t1, p2, t2, n_max=cutoff)
        stats = field_covariance_operator(params, cutoff)
        results.append(
            np.concatenate(
                [
                    bell_function_operator_vs_eta(t1, eta, phis, p1, cutoff),
                    [getattr(stats, name) for name in FieldStats._fields],
                    [fidelity(generated.field, entangled_gbs_state(params, cutoff))],
                ]
            )
        )
    for result in results[1:]:
        assert np.max(np.abs(result - results[0])) <= 1e-14


def outside(low, high, closed=False):
    """NaN, the infinities and finite floats below low or above high.

    The ends themselves are outside too when closed is set.
    """
    return st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.floats(max_value=low, exclude_max=not closed, allow_infinity=False),
        st.floats(min_value=high, exclude_min=not closed, allow_infinity=False),
    )


PHIS = (0.1, 0.9, 1.7, 2.6)
SWEEP = ExperimentConfig(bell=config(0.4, 0.3, 0.7, PHIS), shots=1, seed=0)
#: Each vector kernel: the call, its good points and its bad ones.
PLANTED = {
    "bell_function_vs_p": (
        lambda ps: bell_function_vs_p(0.3, 0.7, PHIS, ps), probability, outside(0.0, 1.0)
    ),
    "bell_function_operator_vs_eta": (  # an eta past 1.35e154 has no finite square
        lambda etas: bell_function_operator_vs_eta(0.3, etas, PHIS, 0.4), weight,
        outside(-1.35e154, 1.35e154, closed=True),
    ),
    "timing_sensitivity": (
        lambda epsilons: timing_sensitivity(SWEEP, epsilons), st.floats(-0.45, 0.45),
        outside(-0.5, 0.5, closed=True),
    ),
    "analytic_s_b": (lambda gs: analytic_s_b("maximal", gs), probability, outside(0.0, 1.0)),
    "eta_for_degree": (eta_for_degree, probability, outside(0.0, 1.0)),
}


@pytest.mark.parametrize("kernel", sorted(PLANTED))
@SETTINGS
@given(data=st.data())
def test_a_planted_bad_point_is_named_on_one_line(kernel, data):
    # one bad point anywhere in a vector of at least two blocks of 16 is
    # named by its repr in a one-line refusal
    call, good, bad = PLANTED[kernel]
    values = data.draw(st.lists(good, min_size=17, max_size=64))
    value = data.draw(bad)
    values[data.draw(st.integers(0, len(values) - 1))] = value
    with mock.patch.object(bell_module, "BLOCK_AMPLITUDES", 16):
        with pytest.raises(ValueError) as info:
            call(np.array(values))
    message = str(info.value)
    assert "\n" not in message and message.endswith(f", got {value!r}"), message
