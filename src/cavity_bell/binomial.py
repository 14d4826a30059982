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

from .fock import DEFAULT_N_MAX, Frozen, StateVector

# Weights are built in floating point; past ~64 trials the smallest terms
# underflow long before the largest, so refuse instead of degrading quietly.
_MAX_TRIALS = 64


def wrap_angle(x: float) -> float:
    """Reduce an angle to the canonical interval (-pi, pi].

    The package's one angle rule: every value type stores its angles through
    it, so the closed forms and the states see one float angle.
    """
    w = math.remainder(float(x), math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


def check_fields(fields, probabilities: tuple[str, ...] = ()) -> None:
    """Refuse the first (name, value) pair of ``fields`` that breaks the one scalar rule.

    Each value must be finite, eta have a finite square and each value named
    in probabilities lie in [0, 1]. The message names the pair, as in
    "p must lie in [0, 1], got 1.5"; every value type and kernel refuses a
    scalar through this function.
    """
    for name, value in fields:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if name == "eta" and not math.isfinite(value * value):
            raise ValueError(f"eta must have a finite square, got {value!r}")
        if name in probabilities and not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {value!r}")


class BinomialParams(Frozen):
    """Parameters (N, p, phi) of a generalized binomial state.

    n is the maximum photon number N, p the single-trial excitation
    probability, phi the phase step between consecutive Fock levels.
    The phase is stored wrapped to (-pi, pi].
    """

    n: int
    p: float
    phi: float

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 0:
            raise ValueError(f"n must be a non-negative integer, got {self.n!r}")
        GbsParams.__post_init__(self)  # p and phi are checked and stored as GbsParams' own
        object.__setattr__(self, "n", int(self.n))


class GbsParams(Frozen):
    """Parameters (p, phi) of a generalized Bernoulli state (N = 1).

    The same pair selects the basis of the dichotomic field observable.
    """

    p: float
    phi: float

    def __post_init__(self):
        check_fields((("p", self.p), ("phi", self.phi)), ("p",))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "phi", wrap_angle(self.phi))


def binomial_state(params: BinomialParams, n_max: int) -> StateVector:
    """Amplitude vector of |N, p, phi> on Fock levels 0..n_max."""
    if params.n > _MAX_TRIALS:
        raise ValueError(f"N = {params.n} exceeds the supported maximum {_MAX_TRIALS}")
    if n_max < max(params.n, 1):
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
        raise ValueError(f"overlap needs equal N, got {a.n} and {b.n}")
    base = cmath.exp(1j * (b.phi - a.phi)) * math.sqrt(a.p * b.p) + math.sqrt(
        (1.0 - a.p) * (1.0 - b.p)
    )
    return base**a.n


def orthogonal_partner(g: GbsParams) -> GbsParams:
    """The unique Bernoulli state orthogonal to ``g``: (1 - p, phi + pi)."""
    return GbsParams(1.0 - g.p, wrap_angle(g.phi + math.pi))
