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

import numpy as np

from .binomial import GbsParams, gbs_state, orthogonal_partner, reduce_angle, set_state_fields
from .constants import MAX_GRID_POINTS, PRESETS
from .fields import EntangledGbsParams, cross_weight, entangled_branches, superpose
from .fock import DEFAULT_N_MAX, NORM_TOL, FieldOperator, Frozen, StateVector, pair_expectation

#: Complex amplitudes per block of a batched evaluation (64 KiB). A block
#: takes as many grid points as fit, and at least one, so the working arrays
#: stay this small for any grid length and cutoff.
BLOCK_AMPLITUDES = 2**12


#: A measurement setting (p, phi) selects the Bernoulli basis pair, so it is
#: the same parameter pair as the state |p, phi>.
DichotomicParams = GbsParams


class GbsBasisMatrix(Frozen):
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


class BellConfig(Frozen):
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
        set_state_fields(self, ("p",), ("theta", "phi1", "phi2", "phi1_prime", "phi2_prime"))

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


def _dichotomic_matrix(p: float, phi: float, n_max: int) -> np.ndarray:
    # F_p(phi) on levels 0..n_max
    if n_max < 1:
        raise ValueError(f"n_max = {n_max} cannot hold a state with N = 1")
    diag = 2.0 * p - 1.0
    off = 2.0 * math.sqrt(p * (1.0 - p))
    mat = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    mat[0, 0] = -diag
    mat[1, 1] = diag
    mat[1, 0] = off * cmath.exp(1j * phi)
    mat[0, 1] = off * cmath.exp(-1j * phi)
    return mat


def dichotomic_operator(d: GbsParams, n_max: int = DEFAULT_N_MAX) -> FieldOperator:
    """F_p(phi) as a dense Fock-space matrix.

    On the {|0>, |1>} block it reads (2p-1)(|1><1| - |0><0|)
    + 2 sqrt(p(1-p)) (exp(i phi)|1><0| + h.c.); levels above one photon are
    outside both basis states and carry zeros.
    """
    return FieldOperator(_dichotomic_matrix(d.p, d.phi, n_max))


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
    """Eigenstates (plus, minus) of F_p(phi') for eigenvalues +1 and -1.

    F_p(phi') is built to assign +1 to |p, phi'> and -1 to its orthogonal
    partner, so those are the pair, whatever the basis phase phi. phi is
    checked as dichotomic_gbs_matrix, which writes F_p(phi') in that basis,
    checks it.
    """
    dichotomic_gbs_matrix(p, phi, phi_prime)
    base = GbsParams(p, phi_prime)
    return gbs_state(base, n_max), gbs_state(orthogonal_partner(base), n_max)


def degree_of_entanglement(eta: float) -> float:
    """G = 2|eta| / (1 + eta^2), from 0 (product) to 1 (maximally entangled)."""
    return 2.0 * abs(cross_weight(eta))


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

    with a_j the angle relative to theta and s_j = sin(a_j / 2). phi_a and
    phi_b are checked and reduced as BellConfig's phi1 and phi2.
    """
    point = BellConfig(config.p, config.theta, config.eta, phi_a, phi_b, phi_a, phi_b)
    return _correlations(point.p, point.theta, cross_weight(point.eta), point.settings[:1])[0]


def _correlations(p, theta: float, weight, settings) -> list:
    # The closed form of bell_correlation at each (phi_a, phi_b) of settings,
    # with weight = cross_weight(eta). p and the weight may be floats or
    # arrays of one length, theta and the angles are floats. The p terms are
    # taken once, and squared as d * d like cross_weight, so a point and a
    # grid round alike.
    k = 8.0 * p * (1.0 - p)
    d = 1.0 - 2.0 * p
    q = 4.0 * (d * d)
    out = []
    for phi_a, phi_b in settings:
        a1 = phi_a - theta
        a2 = phi_b - theta
        s1 = math.sin(0.5 * a1) ** 2
        s2 = math.sin(0.5 * a2) ** 2
        bracket = s1 + s2 - k * s1 * s2 + weight * (q * s1 * s2 + math.sin(a1) * math.sin(a2))
        out.append(-1.0 + k * bracket)
    return out


def dichotomic_pair_expectation(amplitudes, p: float, phi_a: float, phi_b: float) -> np.ndarray:
    """Operator-oracle correlation <F_p(phi_a) x F_p(phi_b)> on joint states.

    ``amplitudes`` is one joint amplitude matrix or a stack (..., d, d) of
    them, and the result holds one real correlation per matrix, from
    fock.pair_expectation with one (F_a, F_b) pair for the whole stack.
    """
    psi = np.asarray(amplitudes)
    n_max = psi.shape[-1] - 1
    f_a, f_b = (_dichotomic_matrix(p, phi, n_max) for phi in (phi_a, phi_b))
    return pair_expectation(f_a, f_b, psi).real


def bell_function(config: BellConfig) -> float:
    """CHSH combination S_B from closed-form correlations.

    The same code as bell_function_vs_p, so a point equals its grid value.
    """
    return chsh(*_correlations(config.p, config.theta, cross_weight(config.eta), config.settings))


def bell_function_operator(config: BellConfig, n_max: int = DEFAULT_N_MAX) -> float:
    """S_B with every correlation taken from the operator oracle."""
    angles = (config.phi1, config.phi2, config.phi1_prime, config.phi2_prime)
    (s_b,) = bell_function_operator_vs_eta(config.theta, config.eta, angles, config.p, n_max)
    return float(s_b)


def bell_function_vs_p(
    theta: float, eta: float, angles: tuple[float, float, float, float], p_values
) -> np.ndarray:
    """Closed-form S_B over a vector of p at one theta, eta and set of angles.

    BellConfig checks theta, eta and the angles, and names the first p
    outside [0, 1] as its own p. The closed form of bell_function then runs
    on the whole vector: the p terms are vectors, and the weight
    eta/(1+eta^2) and the angle terms stay floats. Callers pass one block of
    p_grid at a time, so the vector stays small.
    """
    config = BellConfig(0.5, theta, eta, *angles)  # checks theta, eta and the angles
    ps = np.atleast_1d(np.asarray(p_values, dtype=float))
    bad = ~((ps >= 0.0) & (ps <= 1.0))  # also catches NaN
    if np.any(bad):
        BellConfig(float(ps[bad][0]), theta, eta, *angles)
    return chsh(*_correlations(ps, config.theta, cross_weight(config.eta), config.settings))


def bell_function_operator_vs_eta(
    theta: float, eta, angles: tuple[float, float, float, float], p: float,
    n_max: int = DEFAULT_N_MAX,
) -> np.ndarray:
    """Operator-oracle S_B over a vector of eta at one p, theta and set of angles.

    BellConfig checks p, theta and the angles, and names the first eta that
    is not finite or has no finite square as its own eta, before any eta is
    squared. The state's two branches come from fields.entangled_branches
    once per call; each block of blocks(count, d^2) superposes them into one
    (block, d, d) stack (fields.superpose), so a point's state has the bits
    of entangled_gbs_state. Every correlation of a block is then one
    dichotomic_pair_expectation call, one F pair for the whole block; the
    d^2 x d^2 joint operator is never formed. At the default cutoff 2500
    points take 2-4 ms (in-process, 2-vCPU VM).
    """
    config = BellConfig(p, theta, 0.0, *angles)  # checks p, theta and the angles
    etas = np.atleast_1d(np.asarray(eta, dtype=float))
    with np.errstate(over="ignore"):
        bad = ~np.isfinite(etas * etas)  # NaN, infinite or an overflowing square
    if np.any(bad):
        BellConfig(p, theta, float(etas[bad][0]), *angles)
    p, settings = config.p, config.settings
    state = GbsParams(p, config.theta)
    branches = entangled_branches(state, state, n_max)
    out = np.empty(len(etas))
    for block in blocks(len(etas), (n_max + 1) ** 2):
        amplitudes = superpose(branches, etas[block])
        norms = np.sum(np.abs(amplitudes) ** 2, axis=(1, 2))
        if not np.all(np.abs(norms - 1.0) <= NORM_TOL):
            raise ValueError("entangled state is not normalized")
        out[block] = chsh(*(dichotomic_pair_expectation(amplitudes, p, a, b) for a, b in settings))
    return out


#: The Bell-test angle presets by name (constants.PRESETS): the angles
#: (phi1, phi2, phi1', phi2') from theta and the sign of eta, the S_B(G) they
#: reach (G a float or an array) and the least G at which S_B reaches 2.
#: The thresholds are limits of the presets, not of the states: at p = 1/2
#: other phases reach S_B = 2 sqrt(1+G^2), past 2 for every G > 0.
PRESET_TABLE = {
    "maximal": {
        "angles": lambda t, sign: (t, t + math.pi / 4.0, t + math.pi / 2.0, t + 3.0 * math.pi / 4.0),
        "s_b": lambda g: math.sqrt(2.0) * (1.0 + g),
        "g_min": math.sqrt(2.0) - 1.0,
    },
    "wide": {
        "angles": lambda t, sign: (t, t, t + math.pi / 3.0, t - sign * 2.0 * math.pi / 3.0),
        "s_b": lambda g: 7.0 / 4.0 + 0.75 * g,
        "g_min": 1.0 / 3.0,
    },
}


def _preset(kind: str) -> dict:
    if kind not in PRESET_TABLE:
        raise ValueError(f"unknown preset {kind!r}; choose from {PRESETS}")
    return PRESET_TABLE[kind]


def angle_preset(kind: str, theta: float = 0.0, eta_sign: float = 1.0) -> tuple[float, float, float, float]:
    """Preset angles (phi1, phi2, phi1', phi2') for the Bell test (see PRESET_TABLE).

    The angles start at reduce_angle(theta), the phase BellConfig keeps,
    so no offset is lost to rounding at large |theta|. eta_sign is eta
    itself, or any number of its sign: this is the one place where eta
    becomes the sign a table row takes, -1 below zero and +1 otherwise
    (-0.0 and NaN included).
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    return _preset(kind)["angles"](reduce_angle(theta), -1.0 if eta_sign < 0.0 else 1.0)


def analytic_s_b(kind: str, g):
    """Preset Bell value as a function of the degree of entanglement (a float or an array)."""
    _require_degree(g)
    return _preset(kind)["s_b"](g)


def violation_threshold(kind: str) -> float:
    """Smallest degree of entanglement at which the preset reaches S_B = 2."""
    return _preset(kind)["g_min"]


def preset_config(kind: str, eta: float, p: float = 0.5, theta: float = 0.0) -> BellConfig:
    """BellConfig with preset angles at the given state parameters."""
    return BellConfig(p, theta, eta, *angle_preset(kind, theta, eta))


def grid_blocks(start: float, step: float, count: int, last=None):
    """Points start + i * step, i < count, per blocks(count, 1); ``last`` ends them, if given."""
    for block in blocks(count, 1):
        points = np.arange(block.start, min(block.stop, count), dtype=float) * step + start
        if last is not None and block.stop >= count:
            points[-1] = last
        yield points


def p_grid(step: float):
    """The blocks of np.linspace's grid 0, step, ..., 1; the step must divide [0, 1]."""
    if not step > 0.0:
        raise ValueError("step must be positive")
    if not 1.0 / step + 1.0 <= MAX_GRID_POINTS:
        raise ValueError(f"step {step!r} gives more than {MAX_GRID_POINTS} grid points")
    count = round(1.0 / step)
    if not abs(count * step - 1.0) <= 1e-9:  # also refuses an infinite step
        raise ValueError(f"step {step!r} does not divide [0, 1]")
    return grid_blocks(0.0, 1.0 / count, count + 1, last=1.0)


class PArgmax:
    """The p of the largest S_B on a grid, taken one block at a time.

    Ties within 1e-12 of the maximum are broken towards p = 0.5; the scan is
    symmetric about that point, so this picks the physically distinguished
    optimum. ``add`` keeps a block's points within 1e-12 of the running
    maximum, prunes the kept ones when it rises and returns the block's
    values; at the end the kept points are those of the whole grid.
    """

    top, kept = -math.inf, ()  # the running maximum, and (p, s_b) within 1e-12 of it

    def add(self, ps, values):
        self.top = max(self.top, float(np.max(values)))
        floor = self.top - 1e-12
        keep = values >= floor
        self.kept = [(p, s_b) for p, s_b in self.kept if s_b >= floor]
        self.kept += zip(ps[keep].tolist(), values[keep].tolist())
        return values

    @property
    def p(self) -> float:
        return min((p for p, _ in self.kept), key=lambda p: (abs(p - 0.5), p))


def optimal_p_scan(
    theta: float, eta: float, angles: tuple[float, float, float, float], step: float = 0.005
) -> float:
    """Grid-scan p in [0, 1] for the maximum of S_B."""
    best = PArgmax()
    for ps in p_grid(step):
        best.add(ps, bell_function_vs_p(theta, eta, angles, ps))
    return best.p
