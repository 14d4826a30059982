"""Kernel checks: states, operators, seeded streams."""

import itertools
import math
import random

import numpy as np
import pytest

from cavity_bell import fock
from cavity_bell.bell import BellConfig, preset_config
from cavity_bell.binomial import BinomialParams, GbsParams, wrap_angle
from cavity_bell.dynamics import DetectionReport, ExperimentConfig, InitialAtomPair
from cavity_bell.fock import (
    FieldOperator,
    RandomStream,
    StateVector,
    TwoCavityState,
    expectation,
    fidelity,
    inner,
    joint,
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
    assert GbsParams(0.3, 1.0) != BinomialParams(1, 0.3, 1.0)  # another type
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
    with pytest.raises(ValueError, match=r"^detector_efficiency must lie in \[0, 1\], got 1.5$"):
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


def test_quadrature_hermitian():
    e = quadrature(4)
    assert np.max(np.abs(e.matrix - e.matrix.conj().T)) <= 1e-12
    # zero diagonal, sqrt(n) on both off-diagonals, zero elsewhere
    root = np.sqrt(np.arange(1.0, 5.0))
    assert np.array_equal(e.matrix, np.diag(root, k=1) + np.diag(root, k=-1))


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
    op = joint(quadrature(2), FieldOperator(np.eye(3)))
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
    a = RandomStream(2**64 - 1).uniforms(8)
    b = RandomStream(2**64 - 2).uniforms(8)
    assert not np.array_equal(a, b)
    assert RandomStream(-1).seed == 2**64 - 1
    assert np.array_equal(RandomStream(-1).uniforms(8), a)
    sub = RandomStream(7).substream(1)
    assert sub._salt == 0xCD73FE3DE975AC26  # at or above 2^63
    # the generator is seeded with the whole 128-bit key (salt << 64) | seed
    assert sub._gen.getstate() == random.Random((sub._salt << 64) | 7).getstate()
    flipped = RandomStream(7, _salt=sub._salt ^ 2**63)
    assert not np.array_equal(flipped.uniforms(8), RandomStream(7).substream(1).uniforms(8))


def test_random_stream_multinomial():
    cells = [0.1, 0.0, 0.6, 0.3]
    a = RandomStream(21).multinomial(10**6, cells)
    assert np.array_equal(a, RandomStream(21).multinomial(10**6, cells))
    assert not np.array_equal(a, RandomStream(22).multinomial(10**6, cells))
    assert a.sum() == 10**6 and a[1] == 0
    # the cost does not depend on the count, up to the int64 limit
    assert RandomStream(21).multinomial(2**63 - 1, cells).sum() == 2**63 - 1
    for count in (0, 1, 10**6, 2**63 - 1):
        zero_last = RandomStream(23).multinomial(count, [0.25, 0.0, 0.75, 0.0])
        assert zero_last.sum() == count and zero_last[1] == zero_last[3] == 0, count


def test_multinomial_draws_conditional_binomials(monkeypatch):
    # cell i draws from what is left with q_i / (q_i + ... + q_last), and a
    # cell with nothing after it but zeros takes all that is left
    calls = []

    def mean(draw, n, p):
        calls.append((n, p))
        return round(n * p)

    monkeypatch.setattr(fock, "_binomial", mean)
    counts = RandomStream(1).multinomial(1000, [0.5, 0.0, 0.25, 0.25, 0.0])
    assert calls == [(1000, 0.5), (500, 0.0), (500, 0.5), (250, 1.0), (0, 0.0)]
    assert counts.tolist() == [500, 0, 250, 250, 0]


def chi_square_bound(dof: int, z: float = 5.0) -> float:
    """Upper z-sigma quantile of chi-square with ``dof`` degrees (Wilson-Hilferty)."""
    t = 2.0 / (9.0 * dof)
    return dof * (1.0 - t + z * math.sqrt(t)) ** 3


@pytest.mark.parametrize(
    "n, p, seed",
    [(30, 0.2, 101), (200, 0.3, 102), (200, 0.8, 103), (30, 0.9, 104), (10**6, 0.4, 105)],
    ids=["geometric", "btrs", "btrs-reflected", "geometric-reflected", "btrs-large"],
)
def test_binomial_matches_its_pmf(n, p, seed):
    # n p < 10 takes the geometric method, larger n p takes BTRS, and p > 1/2
    # reflects to 1 - p first; 20000 draws against the exact pmf, with the
    # cells of expectation below 5 merged into their neighbours. The seeds
    # were picked once; never re-pick them to make the test pass.
    draws = 20000
    draw = random.Random(seed).random
    observed = {}
    for _ in range(draws):
        k = fock._binomial(draw, n, p)
        assert 0 <= k <= n
        observed[k] = observed.get(k, 0) + 1
    mean = n * p
    spread = 8 * math.sqrt(n * p * (1 - p))
    support = range(max(0, math.floor(mean - spread)), min(n, math.ceil(mean + spread)) + 1)
    assert set(observed) <= set(support)  # nothing 8 sigma out
    log_q = math.log(p), math.log1p(-p)
    cells = []  # (expected, observed), merged until the expectation reaches 5
    expected = seen = 0.0
    for k in support:
        log_pmf = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        expected += draws * math.exp(log_pmf + k * log_q[0] + (n - k) * log_q[1])
        seen += observed.get(k, 0)
        if expected >= 5.0:
            cells.append((expected, seen))
            expected = seen = 0.0
    last_expected, last_seen = cells.pop()
    cells.append((last_expected + expected, last_seen + seen))
    statistic = sum((o - e) ** 2 / e for e, o in cells)
    assert len(cells) >= 8
    assert statistic <= chi_square_bound(len(cells) - 1), (statistic, len(cells))


def test_binomial_edges_draw_nothing():
    def never():
        raise AssertionError("drew a uniform")

    assert fock._binomial(never, 0, 0.3) == 0
    assert fock._binomial(never, 10**6, 0.0) == 0
    assert fock._binomial(never, 10**6, 1.0) == 10**6
    assert fock._binomial(never, 2**63 - 1, 1.0) == 2**63 - 1
    # one trial is one comparison with one uniform
    assert fock._binomial(iter([0.2999]).__next__, 1, 0.3) == 1
    assert fock._binomial(iter([0.3]).__next__, 1, 0.3) == 0
    assert fock._binomial(iter([0.5]).__next__, 1, 0.7) == 1


def test_binomial_geometric_branch_takes_a_zero_uniform():
    # random() can return 0.0; each 0.0 is the shortest gap, one trial
    zeros = itertools.repeat(0.0).__next__
    assert fock._binomial(zeros, 5, 0.1) == 5
    assert fock._binomial(zeros, 5, 0.9) == 0  # reflected: 5 - 5
    # a p below 2**-53 still has a nonzero gap scale
    assert fock._binomial(zeros, 8, 1e-17) == 8


def test_binomial_btrs_is_cpython_312_draw_for_draw():
    # Random(seed).binomialvariate(n, p), four calls each, on CPython 3.12.1
    recorded = {
        (20, 1000, 0.3): [323, 289, 303, 278],
        (21, 2_000_000, 0.81): [1620612, 1619785, 1620490, 1619456],
        (22, 10**12, 0.0123): [12300279429, 12299888249, 12300048234, 12300157413],
    }
    for (seed, n, p), values in recorded.items():
        draw = random.Random(seed).random
        assert [fock._binomial(draw, n, p) for _ in values] == values


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
