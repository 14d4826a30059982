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

import numpy as np

from .bell import BellConfig, blocks, chsh
from .binomial import Checked, GbsParams, check_fields, check_floats
from .fields import EntangledGbsParams, entangled_gbs_state, norm_const
from .fock import DEFAULT_N_MAX, Frozen, RandomStream, StateVector, TwoCavityState, braket

ATOM_DOWN = 0
ATOM_UP = 1

#: Pulse area of a half Rabi cycle on the one-photon transition; transfers
#: |up, 0> fully to |down, 1> and back.
PROBE_PULSE_AREA = math.pi / 2.0

#: Detector efficiency above which the Bell violation survives without the
#: fair-sampling assumption, for maximally entangled states: 2/(sqrt(2)+1).
ALPHA_THRESHOLD = 2.0 / (math.sqrt(2.0) + 1.0)


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


class InitialAtomPair(Checked):
    """Entangled atom pair (|up down> + eta |down up>) / sqrt(1 + eta^2)."""

    eta: float


class GenerationResult(Frozen):
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

    Each output amplitude is one matmul sum over the operator's input
    index, taken in index order. A larger Fock cutoff only inserts exact
    zero terms into that sum, which leave every partial sum as it was, so
    the protocol gives the same bits at a cutoff of 1 as at 2 (see
    _bell_protocol). The probe readout applies its 2 x 2 Ramsey rotations
    to all rows as one matrix, which forms each amplitude from the same two
    terms. Sums grouped otherwise do round differently: a 4-term np.vdot
    against a 9-term one, or one 16-term reduction against two 4-term ones.
    """
    moved = [axis + 1 for axis in axes]
    order = [0, *moved, *(axis for axis in range(1, state.ndim) if axis not in moved)]
    size = math.prod(state.shape[axis] for axis in moved)
    flat = state.transpose(order).reshape(state.shape[0], size, -1)
    out = np.matmul(op.reshape(op.shape[: op.ndim - 2 * len(axes)] + (size, size)), flat)
    out = out.reshape(out.shape[:1] + tuple(state.shape[axis] for axis in order[1:]))
    return out.transpose(sorted(range(state.ndim), key=order.__getitem__))  # order's inverse


def _rotated_pair(params: EntangledGbsParams, d: int) -> np.ndarray:
    """Amplitudes (1, atom1, atom2, field1, field2) of the atom pair after its Ramsey zones.

    The pair starts in (|up down> + eta |down up>) / sqrt(1 + eta^2) with
    the eta of ``params``, and the cavities hold d levels each, both empty.
    Each atom crosses its Ramsey zone, _basis_rotation(p_j, theta_j). The
    relative phase of the initial atomic superposition is locked to the two
    field phases, exp(i (theta2 - theta1)); the pulse applied to an excited
    atom imprints a phase exp(-i theta_j) on its branch, so this referencing
    is what makes the two branches interfere with the plain real weight
    eta. With equal field phases it is the identity.
    """
    state = np.zeros((1, 2, 2, d, d), dtype=complex)
    rel = cmath.exp(1j * (params.theta2 - params.theta1))
    norm = norm_const(params.eta)
    state[0, ATOM_UP, ATOM_DOWN, 0, 0] = norm
    state[0, ATOM_DOWN, ATOM_UP, 0, 0] = norm * params.eta * rel
    state = _apply(state, _basis_rotation(params.p1, params.theta1), (0,))
    return _apply(state, _basis_rotation(params.p2, params.theta2), (1,))


def _generation_joint(pair: np.ndarray, pulses: np.ndarray) -> np.ndarray:
    """Joint amplitudes (batch, atom1, atom2, field1, field2) after the protocol.

    ``pair`` comes from _rotated_pair. Each atom then crosses its cavity;
    row k uses the pulse unitary pulses[k] (see _jc_stack) for both.
    """
    state = _apply(pair, pulses, (0, 2))
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
    both p lie in [0, 1], all five parameters are finite and n_max is an
    integer in [1, 1024].
    """
    params = EntangledGbsParams(p1=p1, p2=p2, theta1=theta1, theta2=theta2, eta=pair.eta)
    check_fields((("n_max", n_max),))
    # One photon per cavity, as in _bell_protocol. The ground block is padded
    # to n_max before it is normalised, because a shorter sum rounds differently.
    pulses = _jc_stack(np.array([PROBE_PULSE_AREA]), 1)
    joint = _generation_joint(_rotated_pair(params, 2), pulses)[0]
    probs = np.sum(np.abs(joint) ** 2, axis=(2, 3))
    ground = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    ground[:2, :2] = joint[ATOM_DOWN, ATOM_DOWN]
    ground /= float(np.linalg.norm(ground))
    probs.setflags(write=False)
    return GenerationResult(field=TwoCavityState(ground), atom_probabilities=probs)


class ExperimentConfig(Checked):
    """Seeded Monte Carlo Bell run: state, settings, shot budget, detectors."""

    bell: BellConfig
    shots: int
    seed: int
    detector_efficiency: float = 1.0


class SettingEstimate(Frozen):
    """Correlation estimate at one pair of measurement angles."""

    phi_a: float
    phi_b: float
    correlation: float
    std_error: float
    shots: int
    retained: int


class BellEstimate(Frozen):
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
    cavities with the pulse unitaries ``pulses`` (one per row). A probe
    enters in |down>, so each pulse acts through its |down> input columns
    alone, one matmul sum over the field level as in _apply; the |up>
    columns would only add exact zero terms to every sum.
    """
    rows, d = len(joint), joint.shape[-1]
    fresh = pulses[:, :, :, ATOM_DOWN].reshape(rows, 2 * d, d)
    # (row, field1, atom1 atom2 field2) -> (row, probe1 field1, atom1 atom2 field2)
    state = fresh @ joint.transpose(0, 3, 1, 2, 4).reshape(rows, d, -1)
    # (row, field2, probe1 field1 atom1 atom2) -> (row, probe2 field2, probe1 field1 atom1 atom2)
    state = fresh @ state.reshape(rows, -1, d).transpose(0, 2, 1).reshape(rows, d, -1)
    return state.reshape(rows, 2, d, 2, d, 2, 2).transpose(0, 5, 6, 3, 1, 4, 2)


def _probe_outcome_probabilities(
    joint: np.ndarray, pulses: np.ndarray, first, second
) -> np.ndarray:
    """Joint probe-atom outcome probabilities at the four CHSH settings.

    The probes cross the cavities as in _probe_pulses, then their Ramsey
    zones exactly as in probe_measure: ``first`` holds the first probe's
    rotations for (phi1, phi1'), ``second`` the stack of the second probe's
    for (phi2, phi2'). The generation atoms are kept in the sum, which is
    the same as tracing them out, so no conditioning on their state is
    assumed. Returns probs[k, s, q1, q2] for row k and setting
    s = 2 i + j, first[i] with second[j] (the order of BellConfig.settings),
    over the probe indices (0 = down = outcome -1, 1 = up = outcome +1).

    Each first[i] rotates the first probe of every row in one matrix
    product, and both of second rotate the second probe in one more.
    |amplitude|^2 is summed over (field1, field2) first and then over
    (atom1, atom2), the order in which the per-setting
    np.sum(..., axis=(1, 2, 5, 6)) of the stage-by-stage route sums.
    """
    full = _probe_pulses(joint, pulses)
    rows = len(joint)
    probs = np.empty((rows, 4, 2, 2))
    # (probe1, probe2 atom1 atom2 row field1 field2), probe 1 leading
    flat = full.transpose(3, 4, 1, 2, 0, 5, 6).reshape(2, -1)
    for i, rotation_a in enumerate(first):
        # (probe2, probe1 atom1 atom2 row field1 field2), probe 2 leading
        rotated = (rotation_a @ flat).reshape(2, 2, -1).transpose(1, 0, 2).reshape(2, -1)
        weights = np.abs(second.reshape(-1, 2) @ rotated) ** 2
        # (phi_b, probe2, probe1, atom1 atom2, row, field1 field2)
        weights = weights.reshape(2, 2, 2, 4, rows, -1).sum(axis=5).sum(axis=3)
        probs[:, 2 * i : 2 * i + 2] = weights.transpose(3, 0, 2, 1)  # (row, setting, q1, q2)
    return probs


def _bell_protocol(bell: BellConfig, relative_errors: np.ndarray, n_max: int = 1):
    """Generate the symmetric state and probe it at the four settings.

    Every pulse of row k has area (pi/2)(1 + relative_errors[k]). Yields,
    for each block of rows (see bell.blocks), its slice, the generated
    joint amplitudes (k, atom1, atom2, field1, field2) and the probe
    outcome probabilities (k, setting, q1, q2). The Ramsey-rotated atom
    pair and the four readout rotations are made once, before the first
    block.

    A cavity written by one excited atom and read by one ground-state
    probe never holds more than one photon, so the default cutoff is 1.
    The commands' cutoff of 2 only adds exact zeros, in places that leave
    every product and sum as it was (see _apply), so the amplitudes and
    probabilities are the bits of the stage-by-stage route at cutoff 2;
    tests/test_dynamics.py holds the two routes equal. Higher cutoffs can
    regroup the field sums and move the last bit
    (tests/test_properties.py::test_fock_cutoff_is_inert).
    """
    pair = _rotated_pair(bell.state_params, n_max + 1)
    first = [_basis_rotation(bell.p, phi) for phi in (bell.phi1, bell.phi1_prime)]
    second = np.stack([_basis_rotation(bell.p, phi) for phi in (bell.phi2, bell.phi2_prime)])
    # the largest stack is one phi_a's readout: two phi_b times the
    # (atom1, atom2, probe1, probe2, field1, field2) amplitudes of a row
    row_size = 2 * pair.size * 4
    for part in blocks(len(relative_errors), row_size):
        pulses = _jc_stack(PROBE_PULSE_AREA * (1.0 + relative_errors[part]), n_max)
        joint = _generation_joint(pair, pulses)
        yield part, joint, _probe_outcome_probabilities(joint, pulses, first, second)


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
    a(0) = 1 - alpha, from the stream RandomStream(seed).substream(s - 1).
    That stream is the standard library's Mersenne Twister seeded with
    (salt << 64) | seed, and the draw is a chain of conditional binomial
    draws, cell by cell in that order (see RandomStream.multinomial); the
    package's own sampler, so no Python version draws differently.
    Results are reproducible, independent of evaluation order, and take
    time and memory independent of cfg.shots. Runs at different alpha
    share no draws, so their results are not nested. A run at p != 1/2
    carries the note "p".
    """
    bell_cfg = cfg.bell
    notes = ()
    if abs(bell_cfg.p - 0.5) > 1e-12:
        notes = (("p", "p is not 1/2, where the Bell violation is maximal"),)
    ((_, _, probs),) = _bell_protocol(bell_cfg, np.zeros(1))
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
            raise ValueError(f"shots must retain a coincidence at every setting,"
                             f" got {cfg.shots} with none at setting {number}")
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


class DetectionReport(Frozen):
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
    check_fields((("alpha", alpha),))
    alpha = float(alpha)  # stored as Checked stores it
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
    generation and probing as one batch (see _bell_protocol). Returns one
    record per error, with the fields epsilon, fidelity and s_b, which are
    also the three columns of the sensitivity CSV.
    """
    epsilons = check_floats("epsilons", relative_errors)
    rows = np.recarray(epsilons.size, [("epsilon", float), ("fidelity", float), ("s_b", float)])
    rows.epsilon = epsilons
    # field views taken once: each recarray attribute lookup builds a new view
    epsilons, fidelity, s_b = rows.epsilon, rows.fidelity, rows.s_b
    bell_cfg = cfg.bell
    target = entangled_gbs_state(bell_cfg.state_params).amplitudes
    for part, joint, probs in _bell_protocol(bell_cfg, epsilons):
        # The protocol runs at a cutoff of one photon. The overlap still sums
        # over the target's levels, with the rest of the block zero, because
        # a shorter sum rounds differently.
        d = joint.shape[-1]
        ground = np.zeros((len(joint),) + target.shape, dtype=complex)
        ground[:, :d, :d] = joint[:, ATOM_DOWN, ATOM_DOWN]
        overlap = braket(target, ground)
        # hypot, not np.abs: it rounds like abs() on a single complex number.
        fidelity[part] = np.hypot(overlap.real, overlap.imag) ** 2
        s_b[part] = chsh(*_correlation_from_probs(probs).T)
    return rows

