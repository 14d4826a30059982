"""Binomial and Bernoulli state construction, overlaps, orthogonality."""

import math

import numpy as np
import pytest

from cavity_bell.bell import (
    BellConfig,
    angle_preset,
    bell_function,
    bell_function_operator,
    preset_config,
)
from cavity_bell.binomial import (
    BinomialParams,
    GbsParams,
    binomial_overlap,
    binomial_state,
    check_fields,
    gbs_state,
    orthogonal_partner,
    wrap_angle,
)
from cavity_bell.constants import PRESETS
from cavity_bell.fields import (
    EntangledGbsParams,
    FieldStats,
    field_covariance,
    field_covariance_operator,
)
from cavity_bell.fock import inner


def test_wrap_angle_range():
    for x in np.linspace(-12.0, 12.0, 97):
        w = wrap_angle(float(x))
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(x), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(x), abs_tol=1e-12)
    assert wrap_angle(math.pi) == math.pi
    assert wrap_angle(-math.pi) == math.pi
    assert wrap_angle(3 * math.pi) == math.pi


def test_every_stored_angle_is_wrapped():
    # one rule for every angle the package keeps, within a turn and beyond it
    for x in (-2 * math.pi, -math.pi, 0.0, 0.7, 1.75 * math.pi, 2 * math.pi,
              2 * math.pi + 1e-9, -7.0, 4.0, 9.5, -20.0, 1e13, 1e17, -3e16):
        w = wrap_angle(x)
        config = BellConfig(0.5, x, 1.0, x, x, x, x)
        stored = (config.theta, config.phi1, config.phi2, config.phi1_prime, config.phi2_prime)
        assert stored == (w,) * 5
        state = EntangledGbsParams(p1=0.3, p2=0.8, theta1=x, theta2=x, eta=0.7)
        assert (state.theta1, state.theta2) == (w, w)
        for kind in PRESETS:
            angles = angle_preset(kind, x, -1.0)
            assert angles[0] == w and angles == angle_preset(kind, w, -1.0)
    # in (pi, 2 pi] and its mirror the wrap moves an angle by a turn; the routes agree there
    for theta in (1.5 * math.pi, 1.75 * math.pi, -1.5 * math.pi, 4.0):
        for kind in PRESETS:
            for p, eta in ((0.5, 1.0), (0.3, -0.7)):
                config = preset_config(kind, eta, p=p, theta=theta)
                assert abs(bell_function(config) - bell_function_operator(config)) <= 1e-12
        for theta1, theta2 in ((theta, 0.4), (-1.1, theta), (theta, theta)):
            params = EntangledGbsParams(p1=0.3, p2=0.8, theta1=theta1, theta2=theta2, eta=0.7)
            stats, operator = field_covariance(params), field_covariance_operator(params)
            for name in FieldStats._fields:
                assert abs(getattr(stats, name) - getattr(operator, name)) <= 1e-12, name


def test_binomial_amplitudes_match_definition():
    params = BinomialParams(4, 0.35, 0.8)
    state = binomial_state(params, n_max=6)
    for n in range(5):
        want = math.sqrt(math.comb(4, n) * 0.35**n * 0.65 ** (4 - n)) * np.exp(1j * n * 0.8)
        assert abs(state.amplitudes[n] - want) < 1e-14
    assert np.all(state.amplitudes[5:] == 0)
    assert math.isclose(np.linalg.norm(state.amplitudes), 1.0, abs_tol=1e-14)


def test_binomial_endpoints_are_fock_states():
    lo = binomial_state(BinomialParams(3, 0.0, 0.4), n_max=4)
    hi = binomial_state(BinomialParams(3, 1.0, 0.4), n_max=4)
    assert abs(abs(lo.amplitudes[0]) - 1.0) < 1e-14
    assert abs(abs(hi.amplitudes[3]) - 1.0) < 1e-14


def test_bernoulli_state_two_levels():
    g = GbsParams(0.3, 1.2)
    s = gbs_state(g, n_max=2)
    assert abs(s.amplitudes[0] - math.sqrt(0.7)) < 1e-14
    assert abs(s.amplitudes[1] - math.sqrt(0.3) * np.exp(1.2j)) < 1e-14
    assert s.amplitudes[2] == 0


def test_overlap_closed_form_matches_inner_product():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        pa, pb = rng.uniform(0.0, 1.0, 2)
        fa, fb = rng.uniform(-math.pi, math.pi, 2)
        a = BinomialParams(n, pa, fa)
        b = BinomialParams(n, pb, fb)
        closed = binomial_overlap(a, b)
        direct = inner(binomial_state(a, n + 1), binomial_state(b, n + 1))
        assert abs(closed - direct) < 1e-12


def test_overlap_requires_equal_photon_budget():
    with pytest.raises(ValueError):
        binomial_overlap(BinomialParams(2, 0.5, 0.0), BinomialParams(3, 0.5, 0.0))


def test_partner_is_orthogonal():
    for p in (0.05, 0.3, 0.5, 0.9):
        for phi in (0.0, math.pi / 3, -2.0):
            g = GbsParams(p, phi)
            h = orthogonal_partner(g)
            assert abs(inner(gbs_state(g), gbs_state(h))) < 1e-12
            assert math.isclose(h.p, 1.0 - p, abs_tol=1e-14)


def test_orthogonality_needs_both_conditions():
    # flipping only the probability or only the phase leaves an overlap
    g = GbsParams(0.3, 0.4)
    only_p = GbsParams(0.7, 0.4)
    only_phi = GbsParams(0.3, 0.4 + math.pi)
    assert abs(inner(gbs_state(g), gbs_state(only_p))) > 1e-3
    assert abs(inner(gbs_state(g), gbs_state(only_phi))) > 1e-3


def test_endpoint_orthogonality_ignores_phase():
    # p = 0 against p' = 1 are distinct Fock states for any phases
    a = BinomialParams(5, 0.0, 0.1)
    b = BinomialParams(5, 1.0, 2.2)
    assert abs(binomial_overlap(a, b)) < 1e-14


def test_parameter_validation():
    with pytest.raises(ValueError):
        BinomialParams(-1, 0.5, 0.0)
    with pytest.raises(ValueError):
        BinomialParams(2, 1.5, 0.0)
    with pytest.raises(ValueError):
        BinomialParams(2, -0.1, 0.0)
    for phi in (math.nan, math.inf):
        with pytest.raises(ValueError, match="phi must be finite"):
            BinomialParams(1, 0.5, phi)
    with pytest.raises(ValueError):
        binomial_state(BinomialParams(70, 0.5, 0.0), n_max=71)
    with pytest.raises(ValueError):
        binomial_state(BinomialParams(3, 0.5, 0.0), n_max=2)


@pytest.mark.parametrize(
    "name, values, bad, rule",
    (
        ("p", [0.2, 1.5, math.nan], 1.5, "must lie in [0, 1]"),
        ("p", [[0.2, 0.3], [math.nan, -0.1]], math.nan, "must be finite"),
        ("eta", [0.5, -3.0, 1e200, math.nan], 1e200, "must have a finite square"),
        ("eta", [0.5, math.inf, 1e200], math.inf, "must be finite"),
        ("theta", [1e300, -math.inf], -math.inf, "must be finite"),
        ("degree of entanglement", [0.0, 1.0000000000000002], 1.0000000000000002,
         "must lie in [0, 1]"),
        ("epsilons", [0.49, -0.5], -0.5, "must lie in (-0.5, 0.5)"),
        ("epsilons", [0.0, math.nan], math.nan, "must be finite"),
    ),
)
def test_a_vector_names_its_first_failing_point(name, values, bad, rule):
    # the vector is refused with the message of its first failing point as a scalar
    for value in (np.array(values), bad):
        with pytest.raises(ValueError) as info:
            check_fields((("ok", 0.5), (name, value), ("later", math.nan)))
        assert str(info.value) == f"{name} {rule}, got {bad!r}"


def test_good_vectors_pass():
    check_fields((("p", np.linspace(0.0, 1.0, 11)), ("eta", np.array([1e154, -1e-300])),
                  ("epsilons", np.array([-0.4999, 0.4999])), ("theta", np.array([]))))


def test_phase_is_wrapped():
    g = GbsParams(0.5, 2 * math.pi + 0.3)
    assert math.isclose(g.phi, 0.3, abs_tol=1e-12)
