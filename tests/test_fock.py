"""Kernel checks: states, operators, seeded streams."""

import math
import warnings

import numpy as np
import pytest

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


def test_substreams_are_independent_of_consumption():
    # drawing from the parent must not shift what a substream produces
    r1 = RandomStream(9)
    r1.uniforms(17)
    sub_after = r1.substream(3).uniforms(8)
    sub_fresh = RandomStream(9).substream(3).uniforms(8)
    assert np.array_equal(sub_after, sub_fresh)
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
