"""Generalized binomial states of a single cavity mode.

A generalized binomial state |N, p, phi> distributes one excitation budget N
binomially over the Fock levels:

    c_n = sqrt(C(N, n) p^n (1-p)^(N-n)) * exp(i n phi),  n = 0..N

For N = 1 this is the generalized Bernoulli state, the photonic qubit
sqrt(1-p)|0> + exp(i phi) sqrt(p)|1> that all protocols in this package are
built from. Two states with the same N are orthogonal exactly when the
second has p' = 1 - p and phase phi' = phi + pi (mod 2 pi), which is what
makes the pair usable as a measurement basis.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .constants import MAX_GRID_POINTS
from .fock import DEFAULT_N_MAX, Frozen, StateVector

def wrap_angle(x: float) -> float:
    """Reduce a finite angle to the canonical interval (-pi, pi]; refuse others as "angle".

    The package's one angle rule: every value type stores its angles through
    it, so the closed forms and the states see one float angle.
    """
    check_fields((("angle", x),))
    w = math.remainder(float(x), math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


def _count(low, high):
    # the test of a count: an int or numpy integer, not a bool, in [low, high]
    return lambda x: (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                      and low <= x <= high)


#: The inputs that are counts, by name: the test of their value, and its words.
_COUNTS = {
    # weights are built in floating point; past ~64 trials the smallest terms
    # underflow long before the largest, so refuse instead of degrading quietly
    "n": (_count(0, 64), "be an integer in [0, 64]"),
    # a two-cavity state on levels 0..n_max holds at most about 2**20 amplitudes
    "n_max": (_count(1, 2**10), "be an integer in [1, 1024]"),
    "cavity": (_count(1, 2), "be 1 or 2"),
    "shots": (_count(1, 2**63 - 1), "be an integer in [1, 2**63 - 1]"),  # the counts are int64
    "seed": (_count(0, 2**64 - 1), "be an integer in [0, 2**64)"),  # RandomStream keys on 64 bits
}
#: What an input must do, by name: a test of its value, and its words. Any
#: value but a count must also be finite, and its test sees it as a float.
_RULES = {
    **dict.fromkeys(("p", "p1", "p2", "alpha", "detector_efficiency", "degree of entanglement"),
                    (lambda x: 0.0 <= x <= 1.0, "lie in [0, 1]")),
    "epsilons": (lambda x: -0.5 < x < 0.5, "lie in (-0.5, 0.5)"),
    "eta": (lambda x: math.isfinite(x * x), "have a finite square"),
    # bell.p_grid's step; round() takes 1 / x only once it is bounded
    "step": (lambda x: x > 0.0 and 1.0 / x + 1.0 <= MAX_GRID_POINTS
             and abs(round(1.0 / x) * x - 1.0) <= 1e-9,
             f"split [0, 1] evenly into at most {MAX_GRID_POINTS} grid points"),
    **_COUNTS,
}


def _fault(name: str, value):
    # what the value fails to do as input name, or None
    test, rule = _RULES.get(name, (None, None))
    if name not in _COUNTS:
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            finite = False
        if not finite:
            return "be finite"
        value = float(value)
    return rule if test and not test(value) else None


def check_fields(fields) -> None:
    """Refuse the first (name, value) pair of ``fields`` that breaks its input's rule.

    The name gives the rule: each value must pass its test in _RULES, if
    any, and be finite unless it is a count. A numpy vector passes if its
    least and greatest points do (a NaN is both), else is refused at its
    first failing point as a scalar.
    """
    for name, value in fields:
        if isinstance(value, np.ndarray):
            if not value.size or not any(_fault(name, float(end)) for end in (value.min(), value.max())):
                continue
            value = next(x for x in map(float, value.ravel()) if _fault(name, x))
        rule = _fault(name, value)
        if rule:
            raise ValueError(f"{name} must {rule}, got {value!r}")


def check_floats(name: str, values) -> np.ndarray:
    """``values`` as a float array, each point checked as input ``name`` (check_fields)."""
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:  # an int past the float range, which numpy cannot convert
        check_fields((name, x) for x in np.ravel(np.asarray(values, dtype=object)))
        raise
    check_fields(((name, array),))
    return array


class Checked(Frozen):
    """A value type of inputs, each field checked by its name (check_fields).

    Fields are stored as floats, counts as ints and angles (named theta...,
    phi...) through wrap_angle. A field that holds a Checked value (the bell
    of dynamics.ExperimentConfig) was checked when that value was made.
    """

    def __post_init__(self):
        values = self.__dict__
        inputs = [(name, value) for name, value in values.items() if not isinstance(value, Checked)]
        check_fields(inputs)
        for name, value in inputs:
            values[name] = (wrap_angle(value) if name.startswith(("theta", "phi"))
                            else int(value) if name in _COUNTS else float(value))


class BinomialParams(Checked):
    """Parameters (N, p, phi) of a generalized binomial state.

    n is the maximum photon number N, p the single-trial excitation
    probability, phi the phase step between consecutive Fock levels.
    The phase is stored wrapped to (-pi, pi].
    """

    n: int
    p: float
    phi: float


class GbsParams(Checked):
    """Parameters (p, phi) of a generalized Bernoulli state (N = 1).

    The same pair selects the basis of the dichotomic field observable.
    """

    p: float
    phi: float


def binomial_state(params: BinomialParams, n_max: int) -> StateVector:
    """Amplitude vector of |N, p, phi> on Fock levels 0..n_max."""
    check_fields((("n_max", n_max),))
    if n_max < params.n:
        raise ValueError(f"n_max = {n_max} cannot hold a state with N = {params.n}")
    amps = np.zeros(n_max + 1, dtype=complex)
    n, p, phi = params.n, params.p, params.phi
    for k in range(n + 1):
        weight = math.comb(n, k) * p**k * (1.0 - p) ** (n - k)
        amps[k] = math.sqrt(weight) * cmath.exp(1j * k * phi)
    return StateVector.normalized(amps)


def gbs_state(params: GbsParams, n_max: int = DEFAULT_N_MAX) -> StateVector:
    """Generalized Bernoulli state sqrt(1-p)|0> + exp(i phi) sqrt(p)|1>."""
    return binomial_state(BinomialParams(1, params.p, params.phi), n_max)


def binomial_overlap(a: BinomialParams, b: BinomialParams) -> complex:
    """Closed-form overlap <a|b> of two same-N binomial states.

    Equals (exp(i(phi_b - phi_a)) sqrt(p_a p_b) + sqrt((1-p_a)(1-p_b)))^N,
    which the binomial theorem gives directly from the amplitude sums.
    """
    if a.n != b.n:
        raise ValueError(f"n must be equal in a and b, got {a.n} and {b.n}")
    base = cmath.exp(1j * (b.phi - a.phi)) * math.sqrt(a.p * b.p) + math.sqrt(
        (1.0 - a.p) * (1.0 - b.p)
    )
    return base**a.n


def orthogonal_partner(g: GbsParams) -> GbsParams:
    """The unique Bernoulli state orthogonal to ``g``: (1 - p, phi + pi)."""
    return GbsParams(1.0 - g.p, wrap_angle(g.phi + math.pi))
