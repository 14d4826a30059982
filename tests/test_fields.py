"""Field statistics of the entangled two-cavity state vs operator oracles."""

import math
import tracemalloc

import numpy as np
import pytest

from cavity_bell.binomial import GbsParams
from cavity_bell.fields import (
    EntangledGbsParams,
    FieldStats,
    entangled_gbs_state,
    field_correlation,
    field_correlation_operator,
    field_covariance,
    field_expectation,
    field_expectation_operator,
)


def _random_params(rng):
    p1, p2 = rng.uniform(0.0, 1.0, 2)
    t1, t2 = rng.uniform(-math.pi, math.pi, 2)
    eta = rng.uniform(-2.5, 2.5)
    return EntangledGbsParams(p1=p1, p2=p2, theta1=t1, theta2=t2, eta=eta)


def test_entangled_state_normalized():
    rng = np.random.default_rng(1)
    for _ in range(20):
        state = entangled_gbs_state(_random_params(rng))
        assert math.isclose(np.linalg.norm(state.amplitudes), 1.0, abs_tol=1e-12)


def test_single_cavity_expectations_match_operator():
    rng = np.random.default_rng(3)
    for _ in range(60):
        params = _random_params(rng)
        for cavity in (1, 2):
            analytic = field_expectation(params, cavity)
            direct = field_expectation_operator(params, cavity)
            assert abs(analytic - direct) < 1e-12


def test_correlation_and_covariance_match_operator():
    rng = np.random.default_rng(4)
    for _ in range(60):
        params = _random_params(rng)
        stats = field_covariance(params)
        e1 = field_expectation_operator(params, 1)
        e2 = field_expectation_operator(params, 2)
        e12 = field_correlation_operator(params)
        assert abs(stats.e1 - e1) < 1e-12
        assert abs(stats.e2 - e2) < 1e-12
        assert abs(stats.e1e2 - e12) < 1e-12
        assert abs(stats.covariance - (e12 - e1 * e2)) < 1e-12
        assert abs(field_correlation(params) - e12) < 1e-12


# angles whose float value is far from its remainder mod 2 pi: the closed
# forms and the states must reduce them the same way
@pytest.mark.parametrize("theta", (1e13, 1e17, -3e16))
def test_closed_forms_match_operator_at_large_phase(theta):
    for theta1, theta2 in ((theta, 0.4), (-1.1, theta), (theta, 2.0 * theta)):
        params = EntangledGbsParams(p1=0.3, p2=0.8, theta1=theta1, theta2=theta2, eta=0.7)
        assert abs(params.theta1) <= math.pi and abs(params.theta2) <= math.pi
        stats = field_covariance(params)
        e1 = field_expectation_operator(params, 1)
        e2 = field_expectation_operator(params, 2)
        e12 = field_correlation_operator(params)
        assert abs(stats.e1 - e1) < 1e-12
        assert abs(stats.e2 - e2) < 1e-12
        assert abs(stats.e1e2 - e12) < 1e-12
        assert abs(stats.covariance - (e12 - e1 * e2)) < 1e-12


def test_covariance_at_large_cutoff():
    # each joint operator would take 16 * 201^4 bytes (26 GB) at this cutoff
    params = EntangledGbsParams(0.3, 0.8, 0.25 * math.pi, -0.3 * math.pi, -0.7)
    tracemalloc.start()
    try:
        e1 = field_expectation_operator(params, 1, 200)
        e2 = field_expectation_operator(params, 2, 200)
        e12 = field_correlation_operator(params, 200)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    stats = field_covariance(params)
    assert abs(stats.e1 - e1) <= 1e-12
    assert abs(stats.e2 - e2) <= 1e-12
    assert abs(stats.e1e2 - e12) <= 1e-12
    assert abs(stats.covariance - (e12 - e1 * e2)) <= 1e-12
    assert peak <= 2**26, peak


def test_expectations_vanish_for_maximal_and_zero_entanglement():
    # the (1 - eta^2)/(1 + eta^2) damping kills <E_j> at |eta| = 1
    for eta in (1.0, -1.0):
        params = EntangledGbsParams(p1=0.3, p2=0.8, theta1=0.5, theta2=-0.2, eta=eta)
        assert abs(field_expectation(params, 1)) < 1e-14
        assert abs(field_expectation(params, 2)) < 1e-14
    # and the covariance dies with the entanglement
    params = EntangledGbsParams(p1=0.3, p2=0.8, theta1=0.5, theta2=-0.2, eta=0.0)
    assert abs(field_covariance(params).covariance) < 1e-14


def test_covariance_special_values():
    params = EntangledGbsParams(p1=0.5, p2=0.5, theta1=0.0, theta2=0.0, eta=1.0)
    assert math.isclose(field_covariance(params).covariance, -1.0, abs_tol=1e-12)
    # one-photon states in both cavities: covariance = +-cos(theta1 - theta2)
    for eta, sign in ((1.0, 1.0), (-1.0, -1.0)):
        params = EntangledGbsParams(p1=1.0, p2=1.0, theta1=0.7, theta2=0.2, eta=eta)
        want = sign * math.cos(0.5)
        assert math.isclose(field_covariance(params).covariance, want, abs_tol=1e-12)
    # opposite occupations: covariance = -+cos(theta1 + theta2)
    for eta, sign in ((1.0, -1.0), (-1.0, 1.0)):
        params = EntangledGbsParams(p1=1.0, p2=0.0, theta1=0.7, theta2=0.2, eta=eta)
        want = sign * math.cos(0.9)
        assert math.isclose(field_covariance(params).covariance, want, abs_tol=1e-12)


def test_eta_symmetry_of_correlation():
    # <E1 E2> depends on eta only through eta/(1 + eta^2), so eta and 1/eta match
    params_a = EntangledGbsParams(p1=0.4, p2=0.7, theta1=0.3, theta2=-1.0, eta=2.0)
    params_b = EntangledGbsParams(p1=0.4, p2=0.7, theta1=0.3, theta2=-1.0, eta=0.5)
    assert math.isclose(
        field_correlation(params_a), field_correlation(params_b), abs_tol=1e-14
    )


def test_field_stats_consistency_guard():
    with pytest.raises(ValueError):
        FieldStats(e1=0.0, e2=0.0, e1e2=0.5, covariance=0.1)


def test_param_validation():
    with pytest.raises(ValueError):
        EntangledGbsParams(p1=1.2, p2=0.5, theta1=0.0, theta2=0.0, eta=1.0)
    with pytest.raises(ValueError):
        EntangledGbsParams(p1=0.5, p2=-0.1, theta1=0.0, theta2=0.0, eta=1.0)


def test_branches_of_entangled_state():
    # eta = 0 leaves only the first branch
    params = EntangledGbsParams(p1=0.3, p2=0.6, theta1=0.4, theta2=1.0, eta=0.0)
    state = entangled_gbs_state(params)
    from cavity_bell.binomial import gbs_state, orthogonal_partner
    from cavity_bell.fock import fidelity, tensor

    branch = tensor(
        gbs_state(GbsParams(0.3, 0.4)), gbs_state(orthogonal_partner(GbsParams(0.6, 1.0)))
    )
    assert math.isclose(fidelity(state, branch), 1.0, abs_tol=1e-12)
