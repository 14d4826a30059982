"""Kernel checks: states, operators, seeded streams."""

import math
import warnings

import numpy as np
import pytest

from cavity_bell.bell import BellConfig, preset_config
from cavity_bell.binomial import GbsParams, wrap_angle
from cavity_bell.dynamics import DetectionReport, ExperimentConfig, InitialAtomPair
from cavity_bell.fock import (
    FieldOperator,
    RandomStream,
    StateVector,
    TwoCavityState,
    annihilation,
    creation,
    expectation,
    fidelity,
    identity,
    inner,
    joint,
    number_operator,
    quadrature,
    tensor,
)


def test_fock_basis_states():
    s = StateVector.fock(1, n_max=3)
    assert s.n_max == 3
    assert s.amplitudes[1] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_state_requires_normalization():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))
    s = StateVector.normalized(np.array([1.0, 1.0]))
    assert math.isclose(np.linalg.norm(s.amplitudes), 1.0, abs_tol=1e-14)


def test_state_is_immutable():
    s = StateVector.fock(0, n_max=2)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.5


def test_value_types_refuse_assignment_and_deletion():
    cfg = preset_config("maximal", 0.5)
    values = (StateVector.fock(0), cfg, ExperimentConfig(cfg, shots=10, seed=1), GbsParams(0.3, 1.0))
    for value in values:
        name = type(value)._fields[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field {name!r}"):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field {name!r}"):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.not_a_field = 1
        assert getattr(value, name) is before


def test_value_types_compare_and_hash_by_fields():
    cfg = ExperimentConfig(preset_config("wide", -0.4, p=0.3), shots=100, seed=7)
    same = ExperimentConfig(preset_config("wide", -0.4, p=0.3), shots=100, seed=7)
    assert cfg == same and cfg is not same
    assert hash(cfg) == hash(same)
    assert cfg != ExperimentConfig(cfg.bell, shots=100, seed=8)
    assert GbsParams(0.3, 1.0) == GbsParams(phi=1.0, p=0.3)
    assert hash(GbsParams(0.3, 1.0)) == hash(GbsParams(0.3, 1.0))
    assert GbsParams(0.3, 1.0) != GbsParams(0.3, 1.0).as_binomial()  # another type
    assert len({GbsParams(0.3, 1.0), GbsParams(0.3, 1.0), GbsParams(0.3, 2.0)}) == 2


def test_value_types_repr_names_the_fields():
    assert repr(GbsParams(0.25, 0.5)) == "GbsParams(p=0.25, phi=0.5)"
    assert repr(InitialAtomPair(-0.5)) == "InitialAtomPair(eta=-0.5)"
    assert repr(DetectionReport(0.9, 0.8, True)) == (
        "DetectionReport(alpha=0.9, alpha_threshold=0.8, violable=True)"
    )
    cfg = preset_config("maximal", 1.0)
    assert repr(ExperimentConfig(cfg, 10, 3)) == (
        f"ExperimentConfig(bell={cfg!r}, shots=10, seed=3, detector_efficiency=1.0)"
    )


def test_value_types_bind_arguments_like_a_dataclass():
    cfg = preset_config("maximal", 1.0)
    assert ExperimentConfig(cfg, 10, 3).detector_efficiency == 1.0
    assert ExperimentConfig(cfg, 10, 3, 0.5).detector_efficiency == 0.5
    assert ExperimentConfig(seed=3, bell=cfg, shots=10, detector_efficiency=0.25) == (
        ExperimentConfig(cfg, 10, 3, 0.25)
    )
    with pytest.raises(ValueError, match="detector efficiency"):
        ExperimentConfig(cfg, 10, 3, detector_efficiency=1.5)
    with pytest.raises(TypeError, match="^ExperimentConfig is missing argument 'seed'$"):
        ExperimentConfig(cfg, 10)
    with pytest.raises(TypeError, match="^GbsParams got an unknown argument 'theta'$"):
        GbsParams(0.3, 1.0, theta=2.0)
    with pytest.raises(TypeError, match="^GbsParams got a second value for 'p'$"):
        GbsParams(0.3, 1.0, p=0.3)
    with pytest.raises(TypeError, match="^GbsParams takes 2 arguments, got 3$"):
        GbsParams(0.3, 1.0, 2.0)


def test_bell_config_still_wraps_its_angles():
    big = 1e13
    cfg = BellConfig(0.5, big, 1.0, big, -big, 7.0, 0.5)
    assert (cfg.theta, cfg.phi1, cfg.phi2) == (wrap_angle(big), wrap_angle(big), wrap_angle(-big))
    assert cfg.phi1_prime == wrap_angle(7.0) and cfg.phi2_prime == 0.5
    assert BellConfig(
        p=0.5, theta=big, eta=1.0, phi1=big, phi2=-big, phi1_prime=7.0, phi2_prime=0.5
    ) == cfg
    assert GbsParams(0.3, 3 * math.pi).phi == wrap_angle(3 * math.pi)


def test_zero_vector_rejected():
    with pytest.raises(ValueError):
        StateVector.normalized(np.zeros(3))


def test_ladder_operators():
    a = annihilation(3).matrix
    adag = creation(3).matrix
    assert np.allclose(adag, a.conj().T)
    # a|n> = sqrt(n)|n-1>
    for n in range(1, 4):
        vec = np.zeros(4)
        vec[n] = 1.0
        out = a @ vec
        assert math.isclose(out[n - 1].real, math.sqrt(n), abs_tol=1e-14)
    # number operator from the ladder pair, up to the truncation corner
    num = number_operator(3).matrix
    assert np.allclose(adag @ a, num)


def test_quadrature_hermitian():
    e = quadrature(4)
    assert e.is_hermitian()
    assert np.allclose(e.matrix, annihilation(4).matrix + creation(4).matrix)


def test_expectation_vacuum_quadrature():
    vac = StateVector.fock(0, n_max=2)
    assert abs(expectation(quadrature(2), vac)) < 1e-14
    # <0|E^2|0> = 1 for E = a + a^dag
    e = quadrature(2).matrix
    sq = FieldOperator(e @ e)
    assert math.isclose(expectation(sq, vac).real, 1.0, abs_tol=1e-14)


def test_tensor_and_joint_consistency():
    sa = StateVector.normalized(np.array([0.6, 0.8, 0.0]))
    sb = StateVector.normalized(np.array([0.0, 1.0j, 0.0]))
    two = tensor(sa, sb)
    assert isinstance(two, TwoCavityState)
    op = joint(quadrature(2), identity(2))
    want = expectation(quadrature(2), sa)
    got = expectation(op, two)
    assert abs(got - want) < 1e-14


def test_tensor_rejects_mismatched_cutoffs():
    with pytest.raises(ValueError):
        tensor(StateVector.fock(0, 2), StateVector.fock(0, 3))


def test_inner_and_fidelity():
    sa = StateVector.normalized(np.array([1.0, 1.0j]) / math.sqrt(2))
    sb = StateVector.fock(0, n_max=1)
    assert abs(inner(sa, sb) - (1 / math.sqrt(2))) < 1e-14
    assert math.isclose(fidelity(sa, sb), 0.5, abs_tol=1e-14)
    with pytest.raises(TypeError):
        inner(sa, tensor(sb, sb))


def test_random_stream_reproducible():
    a = RandomStream(123).uniforms(64)
    b = RandomStream(123).uniforms(64)
    assert np.array_equal(a, b)
    c = RandomStream(124).uniforms(64)
    assert not np.array_equal(a, c)
    assert np.all((a >= 0.0) & (a < 1.0))


def test_random_stream_keys_keep_all_64_bits():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NumPy warns when it casts a large key through float64
        a = RandomStream(2**64 - 1).uniforms(8)
        b = RandomStream(2**64 - 2).uniforms(8)
        assert not np.array_equal(a, b)
        assert RandomStream(-1).seed == 2**64 - 1
        assert np.array_equal(RandomStream(-1).uniforms(8), a)
        sub = RandomStream(7).substream(1)
    assert sub._salt == 0xCD73FE3DE975AC26  # at or above 2^63
    key = sub._gen.bit_generator.state["state"]["key"]
    assert [int(k) for k in key] == [7, sub._salt]


def test_random_stream_multinomial():
    cells = [0.1, 0.0, 0.6, 0.3]
    a = RandomStream(21).multinomial(10**6, cells)
    assert np.array_equal(a, RandomStream(21).multinomial(10**6, cells))
    assert not np.array_equal(a, RandomStream(22).multinomial(10**6, cells))
    assert a.sum() == 10**6 and a[1] == 0
    # the cost does not depend on the count, up to the int64 limit
    assert RandomStream(21).multinomial(2**63 - 1, cells).sum() == 2**63 - 1


def test_substreams_are_independent_of_consumption():
    # drawing from the parent must not shift what a substream produces
    r1 = RandomStream(9)
    r1.uniforms(17)
    r1.multinomial(1000, [0.5, 0.5])
    sub_after = r1.substream(3).uniforms(8)
    sub_fresh = RandomStream(9).substream(3).uniforms(8)
    assert np.array_equal(sub_after, sub_fresh)
    counts_after = r1.substream(3).multinomial(1000, [0.2, 0.3, 0.5])
    counts_fresh = RandomStream(9).substream(3).multinomial(1000, [0.2, 0.3, 0.5])
    assert np.array_equal(counts_after, counts_fresh)
    # distinct indices give distinct streams
    other = RandomStream(9).substream(4).uniforms(8)
    assert not np.array_equal(sub_fresh, other)


def test_nested_substreams_distinct():
    base = RandomStream(5)
    seen = set()
    for i in range(6):
        for j in range(6):
            seen.add(tuple(base.substream(i).substream(j).uniforms(2)))
    assert len(seen) == 36
