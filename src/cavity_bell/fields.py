"""Electric-field statistics of the entangled two-cavity Bernoulli state.

The state under study superposes a Bernoulli state in each cavity with its
orthogonal partner in the other,

    |Psi> = (|p1, t1>|1-p2, pi+t2> + eta |1-p1, pi+t1>|p2, t2>) / sqrt(1+eta^2)

with a real entanglement weight eta. This module evaluates the mean field in
each cavity, the two-cavity field correlation and the covariance, both from
closed forms and from direct operator expectations, so each route checks the
other. Units: field operator a + a-dagger per cavity, i.e. the prefactor
sqrt(4 pi hbar omega / V) is set to 1 and the mode function to 1, which puts
the number-state covariance limits at exactly +-1.
"""

from __future__ import annotations

import math

import numpy as np

from .binomial import GbsParams, check_fields, gbs_state, orthogonal_partner, wrap_angle
from .fock import DEFAULT_N_MAX, Frozen, TwoCavityState, pair_expectation, quadrature, tensor


class EntangledGbsParams(Frozen):
    """Parameters (p1, p2, theta1, theta2, eta) of the two-cavity state.

    eta is any real number with a finite square, including negative
    values; only eta^2 enters the normalization. theta1 and theta2 are
    stored wrapped to (-pi, pi] (wrap_angle), so the closed forms and the
    states see one phase however large the input.
    """

    p1: float
    p2: float
    theta1: float
    theta2: float
    eta: float

    def __post_init__(self):
        check_fields(zip(self._fields, self._values()), ("p1", "p2"))
        for name in ("theta1", "theta2"):
            object.__setattr__(self, name, wrap_angle(getattr(self, name)))


def norm_const(eta):
    """1/sqrt(1 + eta^2), the norm of a two-branch superposition with weight eta.

    eta may be a float or an array of weights.
    """
    return 1.0 / np.sqrt(1.0 + eta * eta)


def cross_weight(eta):
    """eta/(1+eta^2), the weight of the two branches' cross terms.

    eta may be a float or an array; eta * eta rounds the same for both,
    where a float's eta**2 (libm pow) can be an ulp off.
    """
    return eta / (1.0 + eta * eta)


def entangled_branches(g1: GbsParams, g2: GbsParams, n_max: int) -> tuple:
    """The amplitude matrices of |g1>|partner of g2> and |partner of g1>|g2>."""
    branch1 = tensor(gbs_state(g1, n_max), gbs_state(orthogonal_partner(g2), n_max))
    branch2 = tensor(gbs_state(orthogonal_partner(g1), n_max), gbs_state(g2, n_max))
    return branch1.amplitudes, branch2.amplitudes


def superpose(branches: tuple, eta) -> np.ndarray:
    """norm_const(eta) (b1 + eta b2) of the two branches of entangled_branches.

    A float eta gives one (d, d) matrix, a vector of them a (len(eta), d, d)
    stack, each matrix rounded as for its eta alone.
    """
    branch1, branch2 = branches
    if np.ndim(eta):
        eta = np.asarray(eta)[:, None, None]
    return norm_const(eta) * (branch1 + eta * branch2)


def entangled_gbs_state(params: EntangledGbsParams, n_max: int = DEFAULT_N_MAX) -> TwoCavityState:
    """Construct |Psi> as an explicit joint amplitude matrix."""
    g1 = GbsParams(params.p1, params.theta1)
    g2 = GbsParams(params.p2, params.theta2)
    return TwoCavityState(superpose(entangled_branches(g1, g2, n_max), params.eta))


class FieldStats(Frozen):
    """Field means, correlation and covariance for one parameter point."""

    e1: float
    e2: float
    e1e2: float
    covariance: float

    def __post_init__(self):
        # The four numbers must be mutually consistent; anything else means
        # a closed form went wrong upstream.
        if abs(self.covariance - (self.e1e2 - self.e1 * self.e2)) > 1e-12:
            raise ValueError("covariance is inconsistent with the moments")


def field_covariance(params: EntangledGbsParams) -> FieldStats:
    """Field means, correlation and covariance from their closed forms.

    With f = (2 p1 - 1)(2 p2 - 1), h = 2 sqrt(p1 p2 (1-p1)(1-p2)),
    c_j = cos(theta_j), s_j = sin(theta_j), w = eta/(1+eta^2) and the
    damping D = (1-eta^2)/(1+eta^2):

        <E_1> =  2 sqrt(p1(1-p1)) D c1
        <E_2> = -2 sqrt(p2(1-p2)) D c2
        <E_1 E_2> = 2 (w (f c1 c2 + s1 s2) - h c1 c2)
        <E_1 E_2> - <E_1><E_2> = 2 (w (f c1 c2 + s1 s2) - (1 - D^2) h c1 c2)

    The two branches carry opposite single-cavity means, hence the damping
    and the opposite sign in cavity 2, where the partner states swap roles.
    At |eta| = 1 the means vanish and the covariance equals the correlation;
    for eta = +1, p1 = p2 = 1/2 it reduces to -cos(theta1 + theta2), for
    eta = -1 to -cos(theta1 - theta2). The sign pairing was fixed against
    the operator oracle. The covariance keeps its own closed form, so the
    FieldStats consistency check tests the moments against it.
    """
    p1, p2, eta = params.p1, params.p2, params.eta
    f = (2.0 * p1 - 1.0) * (2.0 * p2 - 1.0)
    h = 2.0 * math.sqrt(p1 * p2 * (1.0 - p1) * (1.0 - p2))
    c1, c2 = math.cos(params.theta1), math.cos(params.theta2)
    s1, s2 = math.sin(params.theta1), math.sin(params.theta2)
    square = eta * eta
    mixed = cross_weight(eta) * (f * c1 * c2 + s1 * s2)
    damping = (1.0 - square) / (1.0 + square)
    return FieldStats(
        e1=2.0 * math.sqrt(p1 * (1.0 - p1)) * damping * c1,
        e2=-2.0 * math.sqrt(p2 * (1.0 - p2)) * damping * c2,
        e1e2=2.0 * (mixed - h * c1 * c2),
        covariance=2.0 * (mixed - (1.0 - damping**2) * h * c1 * c2),
    )


def field_expectation_operator(
    params: EntangledGbsParams, cavity: int, n_max: int = DEFAULT_N_MAX
) -> float:
    """Operator-oracle value of <E_j>: build the state, apply a + a-dagger."""
    if cavity not in (1, 2):
        raise ValueError(f"cavity must be 1 or 2, got {cavity!r}")
    field, one = quadrature(n_max).matrix, np.eye(n_max + 1, dtype=complex)
    ops = (field, one) if cavity == 1 else (one, field)
    state = entangled_gbs_state(params, n_max)
    return float(pair_expectation(*ops, state.amplitudes).real)


def field_correlation_operator(params: EntangledGbsParams, n_max: int = DEFAULT_N_MAX) -> float:
    """Operator-oracle value of <E_1 E_2>."""
    field = quadrature(n_max).matrix
    state = entangled_gbs_state(params, n_max)
    return float(pair_expectation(field, field, state.amplitudes).real)
