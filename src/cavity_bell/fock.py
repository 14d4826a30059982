"""Truncated Fock-space kernel for two-cavity field simulations.

Small dense complex linear algebra: single-mode state vectors, joint states
of two cavities, field operators, expectation values and a counter-based
random stream for reproducible Monte Carlo. All states and operators are
immutable after construction, so everything here behaves as a pure
function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Default Fock cutoff. Every state the protocols need lives in the span of
# |0> and |1>; one spare level is kept so photon-number leakage surfaces as
# a norm defect instead of wrapping around silently.
DEFAULT_N_MAX = 2

NORM_TOL = 1e-12   # analytic identities (norms, hermiticity)


def _unit_amplitudes(values, ndim: int) -> np.ndarray:
    amps = np.array(values, dtype=complex)
    if amps.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional amplitude array")
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(norm2 - 1.0) <= NORM_TOL:  # also refuses NaN amplitudes
        raise ValueError(f"amplitudes are not normalized: |psi|^2 = {norm2!r}")
    amps.setflags(write=False)
    return amps


@dataclass(frozen=True)
class StateVector:
    """State of a single cavity mode, indexed by photon number 0..n_max."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _unit_amplitudes(self.amplitudes, 1)
        if amps.size < 2:
            raise ValueError("n_max must be at least 1")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_max(self) -> int:
        return self.amplitudes.size - 1

    @classmethod
    def normalized(cls, amplitudes) -> "StateVector":
        """Build a state from unnormalized amplitudes."""
        amps = np.asarray(amplitudes, dtype=complex)
        norm = float(np.linalg.norm(amps))
        if norm == 0.0:
            raise ValueError("cannot normalize a zero vector")
        return cls(amps / norm)

    @classmethod
    def fock(cls, n: int, n_max: int = DEFAULT_N_MAX) -> "StateVector":
        """Photon-number eigenstate |n>."""
        if not 0 <= n <= n_max:
            raise ValueError(f"photon number {n} outside 0..{n_max}")
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[n] = 1.0
        return cls(amps)


@dataclass(frozen=True)
class TwoCavityState:
    """Joint pure state of two cavity modes with a common cutoff.

    amplitudes[m, n] is the coefficient of |m> in cavity 1 and |n> in
    cavity 2. Flattening in C order matches ``joint`` operator indexing.
    """

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _unit_amplitudes(self.amplitudes, 2)
        if amps.shape[0] != amps.shape[1] or amps.shape[0] < 2:
            raise ValueError("both cavities must share one cutoff with n_max >= 1")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1


@dataclass(frozen=True)
class FieldOperator:
    """Dense operator on one cavity mode, or on a flattened joint space."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("operator matrix must be square")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def is_hermitian(self, tol: float = NORM_TOL) -> bool:
        return bool(np.max(np.abs(self.matrix - self.matrix.conj().T)) <= tol)


def annihilation(n_max: int = DEFAULT_N_MAX) -> FieldOperator:
    """Photon annihilation operator a on levels 0..n_max."""
    return FieldOperator(np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1))


def creation(n_max: int = DEFAULT_N_MAX) -> FieldOperator:
    """Photon creation operator a-dagger on levels 0..n_max."""
    return FieldOperator(np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=-1))


def number_operator(n_max: int = DEFAULT_N_MAX) -> FieldOperator:
    return FieldOperator(np.diag(np.arange(n_max + 1, dtype=float)))


def quadrature(n_max: int = DEFAULT_N_MAX) -> FieldOperator:
    """a + a-dagger.

    Equals the single-mode electric field at the cavity center in units
    where sqrt(4 pi hbar omega / V) = 1 and the mode function is 1.
    """
    return FieldOperator(annihilation(n_max).matrix + creation(n_max).matrix)


def identity(n_max: int = DEFAULT_N_MAX) -> FieldOperator:
    return FieldOperator(np.eye(n_max + 1))


def joint(op1: FieldOperator, op2: FieldOperator) -> FieldOperator:
    """Tensor product op1 (cavity 1) x op2 (cavity 2) on the joint space.

    O(d^4) memory: the commands contract with ``pair_expectation`` instead,
    and the tests keep this product as its reference.
    """
    return FieldOperator(np.kron(op1.matrix, op2.matrix))


def tensor(a: StateVector, b: StateVector) -> TwoCavityState:
    """Product state of cavity 1 in ``a`` and cavity 2 in ``b``."""
    if a.n_max != b.n_max:
        raise ValueError(f"cavity cutoffs differ: {a.n_max} vs {b.n_max}")
    return TwoCavityState(np.outer(a.amplitudes, b.amplitudes))


def inner(a, b) -> complex:
    """Inner product <a|b>, conjugating the left argument."""
    if type(a) is not type(b):
        raise TypeError("inner product needs two states of the same kind")
    fa = np.ravel(a.amplitudes)
    fb = np.ravel(b.amplitudes)
    if fa.size != fb.size:
        raise ValueError("state dimensions differ")
    return complex(np.vdot(fa, fb))


def fidelity(a, b) -> float:
    """|<a|b>|^2, insensitive to global phases."""
    return abs(inner(a, b)) ** 2


def expectation(op: FieldOperator, state) -> complex:
    """<state|op|state>.

    ``state`` may be a StateVector or a TwoCavityState; in the latter case
    ``op`` must act on the flattened joint space (build it with ``joint``).
    The value is returned as a complex number; for Hermitian operators the
    imaginary part is numerical noise.
    """
    flat = np.ravel(state.amplitudes)
    if op.dim != flat.size:
        raise ValueError(f"operator dimension {op.dim} does not match state dimension {flat.size}")
    return complex(np.vdot(flat, op.matrix @ flat))


def braket(bra: np.ndarray, ket: np.ndarray) -> np.ndarray:
    """np.vdot(bra, ket) for every pair of joint amplitude matrices in two stacks.

    Both stacks end in (d, d) and broadcast over their leading axes. Each
    value is one matmul of the flattened conj(bra) row with the flattened ket
    column, which sums in np.vdot's order and so returns its exact numbers.
    """
    size = bra.shape[-2] * bra.shape[-1]
    rows = np.conj(bra).reshape(bra.shape[:-2] + (1, size))
    return np.matmul(rows, ket.reshape(ket.shape[:-2] + (size, 1)))[..., 0, 0]


def pair_expectation(op1: FieldOperator, op2: FieldOperator, amplitudes) -> np.ndarray:
    """<psi| op1 x op2 |psi> for every joint amplitude matrix psi[..., m, n].

    Takes one (d, d) matrix or a stack (..., d, d) and returns one complex
    value per matrix: braket(psi, op1 @ psi @ op2^T), O(d^3) time and O(d^2)
    memory per state, where the joint operator of ``expectation(joint(op1,
    op2), state)`` needs O(d^4). For the quadrature moments of the package's
    field states the two agree bit for bit; dense operators may round
    differently in the last bit.
    """
    psi = np.asarray(amplitudes)
    return braket(psi, op1.matrix @ psi @ op2.matrix.T)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    # SplitMix64 finalizer, used only to derive substream keys.
    x &= _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class RandomStream:
    """Reproducible uniform stream keyed by (seed, substream lineage).

    Counter-based Philox underneath: the draw sequence depends only on the
    seed and the chain of substream indices, never on what other streams
    have consumed, so Monte Carlo work can be split across shots or settings
    in any order and still produce identical numbers.
    """

    __slots__ = ("seed", "_salt", "_gen")

    def __init__(self, seed: int, _salt: int = 0):
        self.seed = int(seed) & _MASK64
        self._salt = int(_salt) & _MASK64
        key = np.array([self.seed, self._salt], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        return float(self._gen.random())

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` uniform draws as a vector."""
        return self._gen.random(int(count))

    def substream(self, index: int) -> "RandomStream":
        """Independent stream for branch ``index`` of this stream."""
        salt = _mix64(self._salt ^ _mix64((int(index) + 1) * _GOLDEN))
        return RandomStream(self.seed, _salt=salt)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, salt={self._salt:#x})"
