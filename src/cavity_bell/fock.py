"""Truncated Fock-space kernel for two-cavity field simulations.

Small dense complex linear algebra: single-mode state vectors, joint states
of two cavities, dense operators (the one built here is the field
a + a-dagger, ``quadrature``), expectation values and a seeded random
stream for reproducible Monte Carlo. All states and operators are
immutable after construction (see ``Frozen``, whose subclasses refuse
assignment and hold read-only arrays), so everything here behaves as a pure
function.
"""

from __future__ import annotations

import itertools
import math
import random

import numpy as np

from .constants import DEFAULT_N_MAX

NORM_TOL = 1e-12   # analytic identities (norms)


class Frozen:
    """Immutable value type over the fields its subclass annotates.

    A subclass lists its fields as annotations, in order, after those of a
    Frozen parent; a class attribute of the same name is that field's
    default. The constructor binds
    positional and keyword arguments to the fields, then calls
    ``__post_init__``, which may normalize a field with
    ``object.__setattr__``. Afterwards assignment and deletion raise
    AttributeError. Equality, hashing and repr go over the field values, as
    for a frozen dataclass, but no code is generated per class, so defining
    one costs no more than any class statement.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(cls.__annotations__)  # the parent's come first

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} arguments, got {len(args)}")
        values = self.__dict__
        values.update(zip(fields, args))
        for name in fields[len(args):]:
            if name in kwargs:
                values[name] = kwargs.pop(name)
            elif hasattr(cls, name):
                values[name] = getattr(cls, name)
            else:
                raise TypeError(f"{cls.__name__} is missing argument {name!r}")
        for name in kwargs:
            which = "a second value for" if name in fields else "an unknown argument"
            raise TypeError(f"{cls.__name__} got {which} {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"


def _unit_amplitudes(values, ndim: int) -> np.ndarray:
    amps = np.array(values, dtype=complex)
    if amps.ndim != ndim:
        raise ValueError(f"expected a {ndim}-dimensional amplitude array")
    norm2 = float(np.vdot(amps, amps).real)
    if not abs(norm2 - 1.0) <= NORM_TOL:  # also refuses NaN amplitudes
        raise ValueError(f"amplitudes are not normalized: |psi|^2 = {norm2!r}")
    amps.setflags(write=False)
    return amps


class StateVector(Frozen):
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


class TwoCavityState(Frozen):
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


class FieldOperator(Frozen):
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


def quadrature(n_max: int = DEFAULT_N_MAX) -> FieldOperator:
    """a + a-dagger, with sqrt(n) on both off-diagonals.

    Equals the single-mode electric field at the cavity center in units
    where sqrt(4 pi hbar omega / V) = 1 and the mode function is 1.
    """
    ladder = np.diag(np.sqrt(np.arange(1.0, n_max + 1)), k=1)
    return FieldOperator(ladder + ladder.T)


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


def pair_expectation(a: np.ndarray, b: np.ndarray, amplitudes) -> np.ndarray:
    """<psi| a x b |psi> for every joint amplitude matrix psi[..., m, n].

    a and b are (d, d) operator matrices, and psi is one (d, d) matrix or a
    stack (..., d, d). Returns one complex value per matrix: braket(psi,
    a psi b^T), O(d^3) time and O(d^2) memory per state, where the joint
    operator of ``expectation(joint(a, b), state)`` needs O(d^4). The pair
    serves the whole stack in two row-stacked (n d, d) @ (d, d) products:
    the first gives (a psi)^T, the second a psi b^T. Each output row depends
    on its input row alone, so a matrix's value is the same to the bit in a
    stack of any size; the column-stacked a @ (d, n d) form is not, as BLAS
    blocks its columns by n. For the quadrature moments of the package's
    field states this route and the joint operator agree bit for bit; dense
    operators may round differently in the last bit.
    """
    psi = np.asarray(amplitudes)
    d = psi.shape[-1]
    left = (np.swapaxes(psi, -1, -2).reshape(-1, d) @ a.T).reshape(psi.shape)
    sandwich = (np.swapaxes(left, -1, -2).reshape(-1, d) @ b.T).reshape(psi.shape)
    return braket(psi, sandwich)


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


def _binomial(draw, n: int, p: float) -> int:
    """One binomial(n, p) variate made from the uniforms ``draw()`` in [0, 1).

    A port of CPython 3.12's ``Random.binomialvariate``, which Python 3.10
    and 3.11 lack. n * p < 10 takes Devroye's geometric method, O(n p)
    draws; otherwise Hormann's BTRS (transformed rejection with squeeze,
    1993) takes O(1) expected draws, so the cost does not grow with n.
    BTRS is CPython's, draw for draw. The geometric method counts
    geometric gaps log(1 - u) / log(1 - p), where CPython takes
    log2(u) / log2(1 - p): a uniform may be 0.0, and log1p(-p) stays
    nonzero for a p below 2**-53, where CPython returns 0.

    Everything is float64, as numpy's sampler was. BTRS accepts the draws
    its squeeze does not settle (about a fifth) by comparing differences
    of lgamma values of size n ln n, whose spacing is 0.004 at n = 1e12,
    0.5 at n = 1e14 and 65536 at n = 2**63. Above about 1e13 that test is
    limited by rounding; the draw still lies in [0, n].
    """
    if n == 0 or p <= 0.0:
        return 0
    if p >= 1.0:
        return n
    if n == 1:
        return int(draw() < p)
    if p > 0.5:
        return n - _binomial(draw, n, 1.0 - p)

    if n * p < 10.0:
        x = y = 0
        c = math.log1p(-p)
        while True:
            y += math.floor(math.log1p(-draw()) / c) + 1
            if y > n:
                return x
            x += 1

    spq = math.sqrt(n * p * (1.0 - p))  # standard deviation
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * p
    c = n * p + 0.5
    vr = 0.92 - 4.2 / b
    setup_complete = False
    while True:
        u = draw() - 0.5
        us = 0.5 - math.fabs(u)
        k = math.floor((2.0 * a / us + b) * u + c)
        if k < 0 or k > n:
            continue
        v = draw()
        if us >= 0.07 and v <= vr:  # the squeeze
            return k
        if not setup_complete:
            alpha = (2.83 + 5.1 / b) * spq
            lpq = math.log(p / (1.0 - p))
            m = math.floor((n + 1) * p)  # the mode
            h = math.lgamma(m + 1) + math.lgamma(n - m + 1)
            setup_complete = True
        v *= alpha / (a / (us * us) + b)
        if math.log(v) <= h - math.lgamma(k + 1) - math.lgamma(n - k + 1) + (k - m) * lpq:
            return k


class RandomStream:
    """Reproducible random stream keyed by (seed, substream lineage).

    The standard library's Mersenne Twister (``random.Random``) underneath,
    seeded with the 128-bit integer (salt << 64) | seed, where the salt
    encodes the chain of substream indices. So the draw sequence depends
    only on the seed and that chain, never on what other streams have
    consumed, and Monte Carlo work can be split across shots or settings in
    any order and still produce identical numbers. Integer seeding and
    ``random()`` are the same on every Python the package supports, and so
    is the binomial sampler (``_binomial``), which is the package's own.
    """

    __slots__ = ("seed", "_salt", "_gen")

    def __init__(self, seed: int, _salt: int = 0):
        self.seed = int(seed) & _MASK64
        self._salt = int(_salt) & _MASK64
        self._gen = random.Random((self._salt << 64) | self.seed)

    def uniform(self) -> float:
        """Next uniform draw in [0, 1)."""
        return self._gen.random()

    def uniforms(self, count: int) -> np.ndarray:
        """Next ``count`` uniform draws as a vector: ``count`` calls of uniform()."""
        draw = self._gen.random
        return np.array([draw() for _ in range(int(count))], dtype=float)

    def multinomial(self, count: int, probabilities) -> np.ndarray:
        """Counts of ``count`` independent draws over the given cells.

        Cell i takes a binomial draw (see _binomial) of the draws left, with
        probability q_i / (q_i + ... + q_last) clipped to [0, 1]. So a cell
        of probability 0 counts 0, the last nonzero cell takes every draw
        left, and the counts sum to ``count`` exactly. The cost does not
        depend on ``count``, which must fit in int64. ``probabilities``
        must be non-negative and sum to 1.
        """
        cells = [float(q) for q in probabilities]
        tails = list(itertools.accumulate(reversed(cells)))[::-1]
        left = int(count)
        counts = []
        for q, tail in zip(cells, tails):
            share = min(max(q / tail, 0.0), 1.0) if tail > 0.0 else 0.0
            drawn = _binomial(self._gen.random, left, share)
            counts.append(drawn)
            left -= drawn
        return np.array(counts, dtype=np.int64)

    def substream(self, index: int) -> "RandomStream":
        """Independent stream for branch ``index`` of this stream."""
        salt = _mix64(self._salt ^ _mix64((int(index) + 1) * _GOLDEN))
        return RandomStream(self.seed, _salt=salt)

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, salt={self._salt:#x})"
