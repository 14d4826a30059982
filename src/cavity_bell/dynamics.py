"""Atom-cavity protocol simulation.

Resonant Jaynes-Cummings pulses and classical Ramsey rotations are the only
two primitives. Out of them this module builds the probe-atom readout of the
dichotomic field observable, the generation of the entangled two-cavity
state from an entangled atom pair, seeded Monte Carlo Bell runs, the
detector-efficiency threshold and a timing-error sensitivity sweep.

Conventions: atom index 0 is the ground state |down>, index 1 the excited
state |up>. All pulses are written in the interaction picture with the
dimensionless area gt; free-evolution phases are never tracked. A resonant
pulse of area gt maps

    |up, n>   ->  cos(gt sqrt(n+1)) |up, n>   - sin(gt sqrt(n+1)) |down, n+1>
    |down, n> ->  cos(gt sqrt(n))   |down, n> + sin(gt sqrt(n))   |up, n-1>

and a Ramsey zone with angle theta and phase phi maps

    |up>   ->  cos(theta/2) |up>  - exp(+i phi) sin(theta/2) |down>
    |down> ->  exp(-i phi) sin(theta/2) |up> + cos(theta/2) |down>.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .bell import BellConfig, blocks, chsh
from .binomial import GbsParams
from .fields import EntangledGbsParams, entangled_gbs_state, norm_const
from .fock import DEFAULT_N_MAX, RandomStream, StateVector, TwoCavityState, braket

ATOM_DOWN = 0
ATOM_UP = 1

#: Pulse area of a half Rabi cycle on the one-photon transition; transfers
#: |up, 0> fully to |down, 1> and back.
PROBE_PULSE_AREA = math.pi / 2.0

#: Detector efficiency above which the Bell violation survives without the
#: fair-sampling assumption, for maximally entangled states: 2/(sqrt(2)+1).
ALPHA_THRESHOLD = 2.0 / (math.sqrt(2.0) + 1.0)

#: Largest shot count per setting: the multinomial counts are int64.
MAX_SHOTS = 2**63 - 1


def _jc_stack(gts: np.ndarray, n_max: int) -> np.ndarray:
    """Unitaries of resonant pulses as u[k, atom_out, n_out, atom_in, n_in], one per area gts[k].

    The uppermost excited level |up, n_max> has no partner inside the
    cutoff and is left unchanged. No caller populates it: generation starts
    from the vacuum and probe_measure refuses fields above one photon.
    """
    d = n_max + 1
    u = np.zeros((len(gts), 2, d, 2, d), dtype=complex)
    for n in range(d):
        angle = gts * math.sqrt(n)
        u[:, ATOM_DOWN, n, ATOM_DOWN, n] = np.cos(angle)
        if n >= 1:
            u[:, ATOM_UP, n - 1, ATOM_DOWN, n] = np.sin(angle)
        if n < n_max:
            angle = gts * math.sqrt(n + 1)
            u[:, ATOM_UP, n, ATOM_UP, n] = np.cos(angle)
            u[:, ATOM_DOWN, n + 1, ATOM_UP, n] = -np.sin(angle)
        else:
            u[:, ATOM_UP, n, ATOM_UP, n] = 1.0
    return u


def _ramsey_matrix(theta: float, phi: float) -> np.ndarray:
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    return np.array(
        [[c, -cmath.exp(1j * phi) * s], [cmath.exp(-1j * phi) * s, c]], dtype=complex
    )


def _basis_rotation(p: float, phi: float) -> np.ndarray:
    """The Ramsey zone that takes |p, phi> to |up> and its partner to |down>.

    Its angle theta has cos(theta/2) = sqrt(p) and its phase is -phi.
    """
    return _ramsey_matrix(2.0 * math.acos(math.sqrt(p)), -phi)


def probe_measure(field: StateVector, d: GbsParams, rng: RandomStream):
    """Measure the dichotomic observable F_p(phi) with a probe atom.

    A ground-state atom crosses the cavity for a half Rabi cycle, which
    swaps the field qubit onto the atom and leaves the cavity in vacuum.
    A Ramsey zone with cos(theta/2) = sqrt(p) and phase -phi then rotates
    the atomic state so that detecting |up> corresponds to the +1 outcome
    (field was in |p, phi>) and |down> to -1. Returns (outcome, post_field);
    the collapsed cavity state is the vacuum in both branches, up to the
    branch's global phase.
    """
    tail = float(np.linalg.norm(field.amplitudes[2:]))
    if tail > 1e-10:
        raise ValueError(f"field has weight {tail**2:.3e} above one photon")
    state = np.zeros((1, 2, field.n_max + 1), dtype=complex)  # (batch, atom, photon)
    state[0, ATOM_DOWN] = field.amplitudes
    state = _apply(state, _jc_stack(np.array([PROBE_PULSE_AREA]), field.n_max), (0, 1))
    state = _apply(state, _basis_rotation(d.p, d.phi), (0,))[0]
    p_up = float(np.sum(np.abs(state[ATOM_UP]) ** 2))
    got_up = rng.uniform() < p_up
    post_field = StateVector.normalized(state[ATOM_UP if got_up else ATOM_DOWN])
    return (1 if got_up else -1), post_field


@dataclass(frozen=True)
class InitialAtomPair:
    """Entangled atom pair (|up down> + eta |down up>) / sqrt(1 + eta^2)."""

    eta: float


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of the state-generation protocol.

    field is the two-cavity state conditioned on both atoms ending in the
    ground state; atom_probabilities[a1, a2] are the final atomic
    populations (all weight sits at (down, down) for an exact half cycle).
    """

    field: TwoCavityState
    atom_probabilities: np.ndarray


def _apply(state: np.ndarray, op: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply an operator to some axes of every state in a batch.

    ``state`` has a leading batch axis, and ``axes`` count the axes after
    it. ``op`` acts on those axes taken together: one operator with an
    output and an input index per axis, or a stack of them with one per
    state. Each state is laid out and multiplied as ``np.tensordot(op,
    state, ...)`` would do for that state alone, so a batch reproduces the
    single-state numbers bit for bit.
    """
    moved = [axis + 1 for axis in axes]
    kept = [axis for axis in range(1, state.ndim) if axis not in moved]
    size = math.prod(state.shape[axis] for axis in moved)
    flat = state.transpose([0, *moved, *kept]).reshape(state.shape[0], size, -1)
    out = np.matmul(op.reshape(op.shape[: op.ndim - 2 * len(axes)] + (size, size)), flat)
    out = out.reshape(out.shape[:1] + tuple(state.shape[axis] for axis in moved + kept))
    return np.moveaxis(out, range(1, len(moved) + 1), moved)


def _generation_joint(params: EntangledGbsParams, pulses: np.ndarray) -> np.ndarray:
    """Joint amplitudes (batch, atom1, atom2, field1, field2) after the protocol.

    The atom pair starts in (|up down> + eta |down up>) / sqrt(1 + eta^2)
    with the eta of ``params``. Row k uses the pulse unitary pulses[k] (see
    _jc_stack) for both cavities.

    Each atom crosses its Ramsey zone, _basis_rotation(p_j, theta_j), then
    its cavity. The relative phase of the initial atomic superposition is
    locked to the two field phases, exp(i (theta2 - theta1)); the pulse
    applied to an excited atom imprints a phase exp(-i theta_j) on its
    branch, so this referencing is what makes the two branches interfere
    with the plain real weight eta. With equal field phases it is the
    identity.
    """
    d = pulses.shape[-1]
    state = np.zeros((1, 2, 2, d, d), dtype=complex)
    rel = cmath.exp(1j * (params.theta2 - params.theta1))
    norm = norm_const(params.eta)
    state[0, ATOM_UP, ATOM_DOWN, 0, 0] = norm
    state[0, ATOM_DOWN, ATOM_UP, 0, 0] = norm * params.eta * rel
    state = _apply(state, _basis_rotation(params.p1, params.theta1), (0,))
    state = _apply(state, _basis_rotation(params.p2, params.theta2), (1,))
    state = _apply(state, pulses, (0, 2))
    return _apply(state, pulses, (1, 3))


def generate_entangled_gbs(
    pair: InitialAtomPair,
    p1: float,
    theta1: float,
    p2: float,
    theta2: float,
    n_max: int = DEFAULT_N_MAX,
) -> GenerationResult:
    """Run the generation protocol and return the conditioned field state.

    Every pulse is a half Rabi cycle, so both atoms end in the ground state
    with probability one and the cavities carry the entangled two-cavity
    Bernoulli state with parameters (p1, theta1, p2, theta2) and weight
    eta, up to a global phase. Raises ValueError, naming the field, unless
    both p lie in [0, 1] and all five parameters are finite.
    """
    params = EntangledGbsParams(p1=p1, p2=p2, theta1=theta1, theta2=theta2, eta=pair.eta)
    joint = _generation_joint(params, _jc_stack(np.array([PROBE_PULSE_AREA]), n_max))[0]
    probs = np.sum(np.abs(joint) ** 2, axis=(2, 3))
    ground = joint[ATOM_DOWN, ATOM_DOWN]
    weight = float(np.linalg.norm(ground))
    probs.setflags(write=False)
    return GenerationResult(field=TwoCavityState(ground / weight), atom_probabilities=probs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Seeded Monte Carlo Bell run: state, settings, shot budget, detectors."""

    bell: BellConfig
    shots: int
    seed: int
    detector_efficiency: float = 1.0

    def __post_init__(self):
        for name in ("shots", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.shots < 1:
            raise ValueError("shots must be at least 1")
        if self.shots > MAX_SHOTS:
            raise ValueError(f"shots must be at most 2**63 - 1, got {self.shots!r}")
        if not 0.0 <= self.detector_efficiency <= 1.0:
            raise ValueError("detector efficiency must lie in [0, 1]")


@dataclass(frozen=True)
class SettingEstimate:
    """Correlation estimate at one pair of measurement angles."""

    phi_a: float
    phi_b: float
    correlation: float
    std_error: float
    shots: int
    retained: int


@dataclass(frozen=True)
class BellEstimate:
    """Monte Carlo estimate of the Bell function with its standard error.

    notes holds (key, text) pairs that qualify the run; a report prints
    each as note.<key>.
    """

    s_b_hat: float
    std_error: float
    settings: tuple[SettingEstimate, ...]
    discarded_shots: int
    notes: tuple[tuple[str, str], ...] = ()


def _probe_pulses(joint: np.ndarray, pulses: np.ndarray) -> np.ndarray:
    """Amplitudes (batch, atom1, atom2, probe1, probe2, field1, field2) after probing.

    ``joint`` holds (batch, atom1, atom2, field1, field2) amplitudes
    straight from the generation stage. Fresh ground-state probes cross the
    cavities with the pulse unitaries ``pulses`` (one per row).
    """
    d = joint.shape[-1]
    full = np.zeros((len(joint), 2, 2, 2, 2, d, d), dtype=complex)
    full[:, :, :, ATOM_DOWN, ATOM_DOWN] = joint
    full = _apply(full, pulses, (2, 4))
    return _apply(full, pulses, (3, 5))


def _probe_outcome_probabilities(
    joint: np.ndarray, pulses: np.ndarray, p: float, settings
) -> np.ndarray:
    """Joint probe-atom outcome probabilities for each pair of settings.

    The probes cross the cavities as in _probe_pulses, then their Ramsey
    zones exactly as in probe_measure. The generation atoms are kept in
    the sum, which is the same as tracing them out, so no conditioning on
    their state is assumed. Returns probs[k, s, q1, q2] for row k and
    setting s over the probe indices (0 = down = outcome -1, 1 = up =
    outcome +1). Settings that share phi_a in a row, as the four CHSH
    settings do, share its rotation of the first probe.
    """
    full = _probe_pulses(joint, pulses)
    probs = np.empty((len(joint), len(settings), 2, 2))
    rotated_phi = None
    for index, (phi_a, phi_b) in enumerate(settings):
        if phi_a != rotated_phi:
            rotated = _apply(full, _basis_rotation(p, phi_a), (2,))
            rotated_phi = phi_a
        out = _apply(rotated, _basis_rotation(p, phi_b), (3,))
        probs[:, index] = np.sum(np.abs(out) ** 2, axis=(1, 2, 5, 6))
        del out  # so that the next output is made beside one rotated stack only
    return probs


def _bell_protocol(bell: BellConfig, gts: np.ndarray, n_max: int = DEFAULT_N_MAX):
    """Generate the symmetric state and probe it at the four settings.

    Every pulse of row k has area gts[k]. Returns the generated joint
    amplitudes (k, atom1, atom2, field1, field2) and the probe outcome
    probabilities (k, setting, q1, q2).
    """
    pulses = _jc_stack(gts, n_max)
    joint = _generation_joint(bell.state_params, pulses)
    return joint, _probe_outcome_probabilities(joint, pulses, bell.p, bell.settings)


def _correlation_from_probs(probs: np.ndarray) -> np.ndarray:
    return probs[..., 1, 1] + probs[..., 0, 0] - probs[..., 0, 1] - probs[..., 1, 0]


def run_bell_experiment(cfg: ExperimentConfig) -> BellEstimate:
    """Simulate the full Bell test and estimate S_B.

    For each of the four angle settings the entangled state is generated,
    both cavities are probed, and the +-1 outcome product is recorded over
    cfg.shots shots. The outcome distribution per setting is fixed by the
    protocol unitaries. With detector efficiency alpha, each atom is
    detected independently with probability alpha and only coincidences
    are kept (fair sampling).

    The estimates depend only on how many shots fall in each cell
    (q_a, q_b, d_a, d_b): probe outcomes q (0 = down = -1, 1 = up = +1)
    and detections d (1 = detected). Setting s therefore makes one
    multinomial draw of cfg.shots over these 16 cells, in C order of
    (q_a, q_b, d_a, d_b) (cell 8 q_a + 4 q_b + 2 d_a + d_b), with
    probabilities P(q_a, q_b) a(d_a) a(d_b), a(1) = alpha and
    a(0) = 1 - alpha, from the stream substream(seed -> s). Results are
    reproducible, independent of evaluation order, and take time and
    memory independent of cfg.shots. Runs at different alpha share no
    draws, so their results are not nested. A run at p != 1/2 carries the
    note "p".
    """
    bell_cfg = cfg.bell
    notes = ()
    if abs(bell_cfg.p - 0.5) > 1e-12:
        notes = (("p", "p is not 1/2, where the Bell violation is maximal"),)
    _, probs = _bell_protocol(bell_cfg, np.array([PROBE_PULSE_AREA]))
    alpha = cfg.detector_efficiency
    detection = np.array([1.0 - alpha, alpha])
    detection_cells = np.outer(detection, detection).ravel()  # (d_a, d_b)
    master = RandomStream(cfg.seed)
    estimates = []
    discarded = 0
    for index, (phi_a, phi_b) in enumerate(bell_cfg.settings):
        number = index + 1  # settings are numbered from 1, as in the report keys
        flat = probs[0, index].ravel()
        total = flat.sum()
        if not (np.all(np.isfinite(flat)) and flat.min() >= -1e-12 and abs(total - 1.0) <= 1e-12):
            raise RuntimeError(
                f"outcome distribution at setting {number} is not a probability"
                f" distribution: {flat.tolist()}"
            )
        outcome_probs = np.maximum(flat, 0.0)  # entries down to -1e-12 are rounding
        cells = np.outer(outcome_probs / outcome_probs.sum(), detection_cells)  # (q_a q_b, d_a d_b)
        counts = master.substream(index).multinomial(cfg.shots, cells.ravel()).reshape(4, 4)
        kept = counts[:, 3]  # d_a = d_b = 1
        retained = int(kept.sum())
        discarded += cfg.shots - retained
        if retained == 0:
            raise RuntimeError(f"zero retained shots at setting {number}; cannot estimate")
        correlation = float(
            _correlation_from_probs(kept.reshape(2, 2).astype(float)) / retained
        )
        std_error = math.sqrt(max(1.0 - correlation**2, 0.0) / retained)
        estimates.append(
            SettingEstimate(
                phi_a=phi_a,
                phi_b=phi_b,
                correlation=correlation,
                std_error=std_error,
                shots=cfg.shots,
                retained=retained,
            )
        )
    s_b_hat = chsh(*(e.correlation for e in estimates))
    std_error = math.sqrt(sum(e.std_error**2 for e in estimates))
    return BellEstimate(
        s_b_hat=s_b_hat,
        std_error=std_error,
        settings=tuple(estimates),
        discarded_shots=discarded,
        notes=notes,
    )


@dataclass(frozen=True)
class DetectionReport:
    """Detector-efficiency verdict for a loophole-free violation."""

    alpha: float
    alpha_threshold: float
    violable: bool


def detection_threshold_check(alpha: float) -> DetectionReport:
    """Compare a detector efficiency with the no-fair-sampling threshold.

    For maximally entangled states the Bell violation survives without the
    fair-sampling assumption only for alpha strictly above 2/(sqrt(2)+1),
    about 0.8284. Below that, discarded non-coincidences could in principle
    hide a local model.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return DetectionReport(
        alpha=alpha,
        alpha_threshold=ALPHA_THRESHOLD,
        violable=alpha > ALPHA_THRESHOLD,
    )


def timing_sensitivity(cfg: ExperimentConfig, relative_errors) -> np.recarray:
    """Propagate a pulse-timing error through generation and probing.

    Every pulse area becomes (pi/2)(1 + epsilon), modeling a velocity or
    timing offset of the atoms. For each epsilon the row reports the
    fidelity of the generated state against the ideal one (including the
    requirement that the atoms end in the ground state) and the
    operator-exact Bell value of the perturbed protocol at the configured
    angles. No sampling is involved. The sweep is symmetric under
    epsilon -> -epsilon. Each block of errors (see bell.blocks) runs through
    generation and probing as one batch. Returns one record per error, with
    the fields epsilon, fidelity and s_b, which are also the three columns.
    """
    epsilons = np.asarray(relative_errors, dtype=float)
    outside = epsilons[~(np.abs(epsilons) < 0.5)]
    if outside.size:
        raise ValueError(f"relative timing error {float(outside[0])!r} outside (-0.5, 0.5)")
    bell_cfg = cfg.bell
    target = entangled_gbs_state(bell_cfg.state_params)
    rows = np.recarray(epsilons.size, [("epsilon", float), ("fidelity", float), ("s_b", float)])
    rows.epsilon = epsilons
    # the probe stage holds 16 amplitudes (atom1, atom2, probe1, probe2) per field entry
    for part in blocks(epsilons.size, 16 * target.amplitudes.size):
        joint, probs = _bell_protocol(bell_cfg, PROBE_PULSE_AREA * (1.0 + epsilons[part]))
        overlap = braket(target.amplitudes, joint[:, ATOM_DOWN, ATOM_DOWN])
        # hypot, not np.abs: it rounds like abs() on a single complex number.
        rows.fidelity[part] = np.hypot(overlap.real, overlap.imag) ** 2
        rows.s_b[part] = chsh(*_correlation_from_probs(probs).T)
    return rows
