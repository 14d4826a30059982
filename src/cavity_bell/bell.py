"""Dichotomic field observable and the CHSH Bell function.

The observable F_p(phi) = |p,phi><p,phi| - |1-p,pi+phi><1-p,pi+phi| assigns
+1 to a Bernoulli state and -1 to its orthogonal partner. Measuring it in
both cavities of the entangled state at four phase settings gives a CHSH
combination

    S_B = |C(phi1, phi2) - C(phi1, phi2')| + |C(phi1', phi2) + C(phi1', phi2')|

bounded by 2 classically and by 2 sqrt(2) quantum mechanically. The degree
of entanglement G = 2|eta|/(1+eta^2) controls how far the bound is broken.

Sign conventions, fixed against the operator oracle: the correlation at
p = 1/2 is 2 eta/(1+eta^2) sin(phi1-theta) sin(phi2-theta)
- cos(phi1-theta) cos(phi2-theta), with the signed weight, so negative eta
flips the sin-product term. The closed Bell forms below carry eta's sign
through that weight rather than through a separate branch choice.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .binomial import GbsParams, gbs_state, orthogonal_partner, reduce_angle
from .constants import MAX_GRID_POINTS, PRESETS
from .fields import EntangledGbsParams, entangled_branches, entangled_gbs_state, norm_const
from .fock import DEFAULT_N_MAX, NORM_TOL, FieldOperator, StateVector, pair_expectation

# Violation thresholds on G: below these the preset cannot push S_B past 2.
G_MIN_MAXIMAL = math.sqrt(2.0) - 1.0
G_MIN_WIDE = 1.0 / 3.0

_DEGENERATE_TOL = 1e-12

#: Complex amplitudes per block of a batched evaluation (64 KiB). A block
#: takes as many grid points as fit, and at least one, so the working arrays
#: stay this small for any grid length and cutoff.
BLOCK_AMPLITUDES = 2**12


#: A measurement setting (p, phi) selects the Bernoulli basis pair, so it is
#: the same parameter pair as the state |p, phi>.
DichotomicParams = GbsParams


@dataclass(frozen=True)
class GbsBasisMatrix:
    """Matrix of F_p(phi') in the basis {|p,phi>, |1-p,pi+phi>}.

    The observable squares to one on this block, so f11^2 + |f12|^2 = 1 and
    the diagonal is (f11, -f11).
    """

    f11: float
    f12: complex

    def __post_init__(self):
        defect = abs(self.f11**2 + abs(self.f12) ** 2 - 1.0)
        if not defect <= 1e-12:
            raise ValueError(f"block is not unitary-involutive, defect {defect:.3e}")


@dataclass(frozen=True)
class BellConfig:
    """Full configuration of one Bell evaluation.

    p and theta select the measured basis family and the state phase, eta
    the entanglement weight, and the four angles are the two settings per
    cavity entering the CHSH combination. All five angles are stored
    through reduce_angle, like the state phases of EntangledGbsParams.
    """

    p: float
    theta: float
    eta: float
    phi1: float
    phi2: float
    phi1_prime: float
    phi2_prime: float

    def __post_init__(self):
        for name in ("p", "theta", "eta", "phi1", "phi2", "phi1_prime", "phi2_prime"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if name == "eta" and not math.isfinite(value * value):
                raise ValueError(f"eta must have a finite square, got {value!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {self.p!r}")
        for name in ("theta", "phi1", "phi2", "phi1_prime", "phi2_prime"):
            object.__setattr__(self, name, reduce_angle(getattr(self, name)))

    @property
    def settings(self) -> tuple[tuple[float, float], ...]:
        """The four (phi_a, phi_b) pairs in the order chsh() takes them."""
        return (
            (self.phi1, self.phi2),
            (self.phi1, self.phi2_prime),
            (self.phi1_prime, self.phi2),
            (self.phi1_prime, self.phi2_prime),
        )

    @property
    def state_params(self) -> EntangledGbsParams:
        """The symmetric state p1 = p2 = p, theta1 = theta2 = theta."""
        return EntangledGbsParams(
            p1=self.p, p2=self.p, theta1=self.theta, theta2=self.theta, eta=self.eta
        )


def blocks(count: int, row_size: int):
    """Slices that cover range(count) in blocks of about BLOCK_AMPLITUDES.

    row_size is the number of amplitudes one grid point needs.
    """
    rows = max(1, BLOCK_AMPLITUDES // row_size)
    return (slice(start, start + rows) for start in range(0, count, rows))


def chsh(c11: float, c12: float, c21: float, c22: float) -> float:
    """CHSH combination |C11 - C12| + |C21 + C22| of the four correlations."""
    return abs(c11 - c12) + abs(c21 + c22)


def dichotomic_operator(d: GbsParams, n_max: int = DEFAULT_N_MAX) -> FieldOperator:
    """F_p(phi) as a dense Fock-space matrix.

    On the {|0>, |1>} block it reads (2p-1)(|1><1| - |0><0|)
    + 2 sqrt(p(1-p)) (exp(i phi)|1><0| + h.c.); levels above one photon are
    outside both basis states and carry zeros.
    """
    mat = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    diag = 2.0 * d.p - 1.0
    off = 2.0 * math.sqrt(d.p * (1.0 - d.p))
    mat[0, 0] = -diag
    mat[1, 1] = diag
    mat[1, 0] = off * cmath.exp(1j * d.phi)
    mat[0, 1] = off * cmath.exp(-1j * d.phi)
    return FieldOperator(mat)


def dichotomic_gbs_matrix(p: float, phi: float, phi_prime: float) -> GbsBasisMatrix:
    """Matrix elements of F_p(phi') in the basis pair defined at phase phi."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    for name, value in (("phi", phi), ("phi_prime", phi_prime)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    delta = phi_prime - phi
    half = math.sin(0.5 * delta) ** 2
    f11 = 1.0 - 8.0 * p * (1.0 - p) * half
    f12 = 2.0 * math.sqrt(p * (1.0 - p)) * (
        2.0 * (1.0 - 2.0 * p) * half + 1j * math.sin(delta)
    )
    return GbsBasisMatrix(f11=f11, f12=f12)


def dichotomic_eigenstates(
    p: float, phi: float, phi_prime: float, n_max: int = DEFAULT_N_MAX
) -> tuple[StateVector, StateVector]:
    """Eigenstates of F_p(phi') expressed through the basis pair at phase phi.

    Returns (plus, minus) for eigenvalues +1 and -1. The +1 eigenstate is
    |p, phi'> up to a global phase. When the off-diagonal element vanishes
    (for instance phi' = phi) the rotated basis pair is returned directly.
    """
    block = dichotomic_gbs_matrix(p, phi, phi_prime)
    if abs(block.f12) < _DEGENERATE_TOL:
        base = GbsParams(p, phi_prime)
        return gbs_state(base, n_max), gbs_state(orthogonal_partner(base), n_max)
    e1 = gbs_state(GbsParams(p, phi), n_max).amplitudes
    e2 = gbs_state(orthogonal_partner(GbsParams(p, phi)), n_max).amplitudes
    mod = abs(block.f12)
    norm = math.hypot(mod, 1.0 - block.f11)
    phase = mod / block.f12  # exp(-i arg f12)
    plus = (mod * e1 + (1.0 - block.f11) * phase * e2) / norm
    minus = ((block.f11 - 1.0) * np.conj(phase) * e1 + mod * e2) / norm
    return StateVector(plus), StateVector(minus)


def degree_of_entanglement(eta: float) -> float:
    """G = 2|eta| / (1 + eta^2), from 0 (product) to 1 (maximally entangled)."""
    return 2.0 * abs(eta) / (1.0 + eta**2)


def _require_degree(g) -> None:
    degrees = np.asarray(g)
    if not np.all((degrees >= 0.0) & (degrees <= 1.0)):  # also refuses NaN
        raise ValueError(f"degree of entanglement must lie in [0, 1], got {g!r}")


def eta_for_degree(g):
    """The weight eta in [0, 1] realizing a given degree of entanglement.

    Inverts G = 2 eta/(1+eta^2) choosing the root with |eta| <= 1; the
    other root is its reciprocal and describes the same amount of
    entanglement. g may be a float or an array; G = 0 gives eta = 0.
    """
    _require_degree(g)
    degrees = np.asarray(g, dtype=float)
    eta = (1.0 - np.sqrt(1.0 - degrees * degrees)) / np.where(degrees == 0.0, 1.0, degrees)
    return eta if eta.ndim else float(eta)


def bell_correlation(config: BellConfig, phi_a: float, phi_b: float) -> float:
    """Closed-form correlation <F^1_p(phi_a) F^2_p(phi_b)> on the symmetric state.

    Valid for the state with p1 = p2 = p and theta1 = theta2 = theta:

        -1 + 8p(1-p) [ s1^2 + s2^2 - 8p(1-p) s1^2 s2^2
                       + eta/(1+eta^2) (4(1-2p)^2 s1^2 s2^2 + sin a1 sin a2) ]

    with a_j the angle relative to theta and s_j = sin(a_j / 2).
    """
    return _correlation(config.p, config.theta, config.eta, phi_a, phi_b)


def _correlation(p, theta: float, eta: float, phi_a: float, phi_b: float):
    # The closed form of bell_correlation; p may be an array of values,
    # everything else is a float.
    a1 = phi_a - theta
    a2 = phi_b - theta
    s1 = math.sin(0.5 * a1) ** 2
    s2 = math.sin(0.5 * a2) ** 2
    k = 8.0 * p * (1.0 - p)
    weight = eta / (1.0 + eta**2)
    bracket = (
        s1
        + s2
        - k * s1 * s2
        + weight * (4.0 * (1.0 - 2.0 * p) ** 2 * s1 * s2 + math.sin(a1) * math.sin(a2))
    )
    return -1.0 + k * bracket


def dichotomic_pair_expectation(amplitudes, d1: GbsParams, d2: GbsParams) -> np.ndarray:
    """Operator-oracle correlation of F_{d1} x F_{d2} on arbitrary joint states.

    ``amplitudes`` is one joint amplitude matrix or a stack (..., d, d) of
    them; the result holds one real correlation per matrix.
    """
    n_max = np.shape(amplitudes)[-1] - 1
    ops = dichotomic_operator(d1, n_max), dichotomic_operator(d2, n_max)
    return pair_expectation(*ops, amplitudes).real


def bell_correlation_operator(
    config: BellConfig, phi_a: float, phi_b: float, n_max: int = DEFAULT_N_MAX
) -> float:
    """Correlation computed by building the state and applying both observables."""
    state = entangled_gbs_state(config.state_params, n_max)
    return float(
        dichotomic_pair_expectation(
            state.amplitudes, GbsParams(config.p, phi_a), GbsParams(config.p, phi_b)
        )
    )


def bell_function(config: BellConfig) -> float:
    """CHSH combination S_B from closed-form correlations."""
    return chsh(*(bell_correlation(config, phi_a, phi_b) for phi_a, phi_b in config.settings))


def bell_function_operator(config: BellConfig, n_max: int = DEFAULT_N_MAX) -> float:
    """S_B with every correlation taken from the operator oracle."""
    angles = (config.phi1, config.phi2, config.phi1_prime, config.phi2_prime)
    (s_b,) = bell_function_operator_vs_eta(config.p, config.theta, angles, [config.eta], n_max)
    return float(s_b)


def bell_function_operator_vs_eta(
    p: float,
    theta: float,
    angles: tuple[float, float, float, float],
    etas,
    n_max: int = DEFAULT_N_MAX,
) -> np.ndarray:
    """Operator-oracle S_B over a vector of weights eta at fixed p, theta and angles.

    Only eta varies along the vector, so the two branch products are built
    once and each block of weights becomes one (block, d, d) amplitude
    stack. Every correlation of a block is then one stacked contraction
    with the two single-cavity observables; the d^2 x d^2 joint operator
    is never formed.
    """
    etas = np.asarray(etas, dtype=float)
    config = BellConfig(p, theta, 0.0, *angles)  # checks p, theta and the angles
    branch1, branch2 = entangled_branches(config.state_params, n_max)
    out = np.empty(etas.size)
    for block in blocks(etas.size, branch1.size):
        eta = etas[block, None, None]
        if not np.all(np.isfinite(eta)):
            raise ValueError("eta must be finite")
        with np.errstate(over="ignore"):
            overflow = ~np.isfinite(eta * eta)
        if np.any(overflow):
            raise ValueError(f"eta must have a finite square, got {float(eta[overflow][0])!r}")
        amplitudes = norm_const(eta) * (branch1 + eta * branch2)
        norms = np.sum(np.abs(amplitudes) ** 2, axis=(1, 2))
        if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
            raise ValueError("entangled state is not normalized")
        out[block] = chsh(
            *(
                dichotomic_pair_expectation(amplitudes, GbsParams(p, phi_a), GbsParams(p, phi_b))
                for phi_a, phi_b in config.settings
            )
        )
    return out


def bell_function_at_half(config: BellConfig) -> float:
    """Closed form of S_B at p = 1/2.

    Each correlation collapses to g sin a1 sin a2 - cos a1 cos a2 with the
    signed weight g = 2 eta/(1+eta^2); the two eta signs that are sometimes
    written as a +- branch are both covered by keeping g signed.
    """
    if abs(config.p - 0.5) > 1e-12:
        raise ValueError("closed form requires p = 1/2")
    g = 2.0 * config.eta / (1.0 + config.eta**2)
    theta = config.theta
    return chsh(
        *(
            g * math.sin(phi_a - theta) * math.sin(phi_b - theta)
            - math.cos(phi_a - theta) * math.cos(phi_b - theta)
            for phi_a, phi_b in config.settings
        )
    )


def angle_preset(kind: str, theta: float = 0.0, eta_sign: float = 1.0) -> tuple[float, float, float, float]:
    """Standard angle choices (phi1, phi2, phi1', phi2') for the Bell test.

    "maximal": quarter-pi ladder theta, theta+pi/4, theta+pi/2, theta+3pi/4,
    reaching S_B = sqrt(2)(1+G) with violation for G > sqrt(2)-1.
    "wide": phi1 = phi2 = theta, phi1' = theta+pi/3 and phi2' = theta-(2pi/3)
    for non-negative eta (mirrored for negative eta), reaching
    S_B = 7/4 + 3G/4 with the widest violation interval, G > 1/3.
    The ladder starts at reduce_angle(theta), the phase BellConfig keeps,
    so no offset is lost to rounding at large |theta|.
    """
    theta = reduce_angle(theta)
    if kind == "maximal":
        return (theta, theta + math.pi / 4.0, theta + math.pi / 2.0, theta + 3.0 * math.pi / 4.0)
    if kind == "wide":
        sign = -1.0 if eta_sign < 0.0 else 1.0
        return (theta, theta, theta + math.pi / 3.0, theta - sign * 2.0 * math.pi / 3.0)
    raise ValueError(f"unknown preset {kind!r}; choose from {PRESETS}")


def analytic_s_b(kind: str, g):
    """Preset Bell value as a function of the degree of entanglement (a float or an array)."""
    _require_degree(g)
    if kind == "maximal":
        return math.sqrt(2.0) * (1.0 + g)
    if kind == "wide":
        return 7.0 / 4.0 + 0.75 * g
    raise ValueError(f"unknown preset {kind!r}; choose from {PRESETS}")


def violation_threshold(kind: str) -> float:
    """Smallest degree of entanglement at which the preset reaches S_B = 2."""
    if kind == "maximal":
        return G_MIN_MAXIMAL
    if kind == "wide":
        return G_MIN_WIDE
    raise ValueError(f"unknown preset {kind!r}; choose from {PRESETS}")


def preset_config(kind: str, eta: float, p: float = 0.5, theta: float = 0.0) -> BellConfig:
    """BellConfig with preset angles at the given state parameters."""
    phi1, phi2, phi1p, phi2p = angle_preset(kind, theta, eta_sign=1.0 if eta >= 0 else -1.0)
    return BellConfig(
        p=p, theta=theta, eta=eta, phi1=phi1, phi2=phi2, phi1_prime=phi1p, phi2_prime=phi2p
    )


def bell_function_vs_p(
    theta: float, eta: float, angles: tuple[float, float, float, float], p_values
) -> np.ndarray:
    """S_B evaluated over a vector of p values at fixed angles.

    The closed form of bell_correlation runs once per setting on each block
    of p values (see blocks) and fills one output vector, so the working
    arrays do not grow with the grid; the angle terms do not depend on p
    and stay scalars.
    """
    ps = np.asarray(p_values, dtype=float)
    config = BellConfig(0.5, theta, eta, *angles)  # checks theta, eta and the angles
    out = np.empty(ps.size)
    for block in blocks(ps.size, 1):
        p = ps[block]
        if not np.all((p >= 0.0) & (p <= 1.0)):  # also refuses NaN
            raise ValueError("p must lie in [0, 1] at every grid point")
        out[block] = chsh(
            *(_correlation(p, config.theta, eta, phi_a, phi_b) for phi_a, phi_b in config.settings)
        )
    return out


def p_grid(step: float) -> np.ndarray:
    """The grid 0, step, ..., 1 over p; the step must divide the unit interval."""
    if not step > 0.0:
        raise ValueError("step must be positive")
    if not 1.0 / step + 1.0 <= MAX_GRID_POINTS:
        raise ValueError(f"step {step!r} gives more than {MAX_GRID_POINTS} grid points")
    count = round(1.0 / step)
    if not abs(count * step - 1.0) <= 1e-9:  # also refuses an infinite step
        raise ValueError(f"step {step!r} does not divide [0, 1]")
    return np.linspace(0.0, 1.0, count + 1)


def p_argmax(ps, values) -> float:
    """The p of the largest S_B on a grid.

    Ties within 1e-12 of the maximum are broken towards p = 0.5; the scan is
    symmetric about that point, so this picks the physically distinguished
    optimum.
    """
    values = np.asarray(values)
    candidates = np.asarray(ps)[values >= np.max(values) - 1e-12]
    return min(map(float, candidates), key=lambda p: (abs(p - 0.5), p))


def optimal_p_scan(
    theta: float, eta: float, angles: tuple[float, float, float, float], step: float = 0.005
) -> float:
    """Grid-scan p in [0, 1] for the maximum of S_B."""
    ps = p_grid(step)
    return p_argmax(ps, bell_function_vs_p(theta, eta, angles, ps))
