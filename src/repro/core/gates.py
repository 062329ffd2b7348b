"""Standard-gate database and gate-action classification.

This module implements the paper's Table I (the standard OpenQASM gate set
supported by qTask) plus the composite gates the paper mentions (CZ, CCX,
SWAP, controlled rotations, ...), and the *classification* that drives the
task-decomposition strategy of §III.C:

* **diagonal** actions (Z, S, T, RZ, CZ, phase gates, ...) scale a subset of
  amplitudes in place,
* **monomial** (generalized-permutation) actions (X, Y, CNOT, SWAP, RX(pi),
  ...) permute amplitudes in place, possibly with phase factors,
* everything else creates **superposition** and falls back to the state
  transformation (matrix--vector) path.

The classification is computed from the unitary matrix itself, so
parameterised gates are classified per-instance: ``RZ(theta)`` is always
diagonal, ``RX(pi)`` is monomial, ``RX(pi/2)`` is a superposition gate --
exactly the behaviour described in the paper.

Qubit-ordering convention
-------------------------
For a gate acting on qubits ``(q0, q1, ..., qk-1)``, local basis index bit
``j`` corresponds to ``qj`` (i.e. ``qubits[0]`` is the least-significant bit
of the *local* index).  Global state indices use qubit 0 as the least
significant bit of the state index, matching OpenQASM's ``q[0]`` ordering.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Callable, ClassVar, Dict, Iterable, Mapping, Sequence, Tuple,
)

import numpy as np

from .exceptions import GateArityError, UnknownGateError

__all__ = [
    "Action",
    "DiagonalAction",
    "MonomialAction",
    "MatVecAction",
    "GateSpec",
    "Gate",
    "GATE_REGISTRY",
    "STANDARD_GATE_NAMES",
    "gate_matrix",
    "classify_matrix",
    "classify_gate",
    "register_gate",
    "get_spec",
    "is_superposition_gate",
    "controlled_matrix",
    "embed_gate_matrix",
    "extract_local",
    "replace_local",
]

_ATOL = 1e-12


# ---------------------------------------------------------------------------
# Bit manipulation helpers (vectorised; shared with the kernels)
# ---------------------------------------------------------------------------


def extract_local(indices: np.ndarray, qubits: Sequence[int]) -> np.ndarray:
    """Local gate index of each global index (``qubits[0]`` = local bit 0)."""
    idx = np.asarray(indices, dtype=np.int64)
    local = np.zeros_like(idx)
    for j, q in enumerate(qubits):
        local |= ((idx >> q) & 1) << j
    return local


def replace_local(
    indices: np.ndarray, qubits: Sequence[int], local_values: np.ndarray
) -> np.ndarray:
    """Replace the gate-qubit bits of each global index with ``local_values``."""
    idx = np.asarray(indices, dtype=np.int64)
    loc = np.asarray(local_values, dtype=np.int64)
    clear_mask = 0
    for q in qubits:
        clear_mask |= 1 << q
    out = idx & ~np.int64(clear_mask)
    for j, q in enumerate(qubits):
        out |= ((loc >> j) & 1) << q
    return out


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class Action:
    """Base class describing how a gate acts on the state vector.

    A composite (:func:`compose_run`, :func:`scale_action`) is *array-backed*:
    built from its arrays, it derives a tuple field from them on first read.
    """

    num_qubits: int

    #: tuple field -> the array field an array-backed action derives it from
    _derived: ClassVar[Mapping[str, str]] = {}

    def __getattr__(self, name: str):
        # reached only for an attribute the instance has not set
        source = self._derived.get(name)
        array = self.__dict__.get(source) if source is not None else None
        if array is None:
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        value = self.__dict__[name] = tuple(array.tolist())
        return value

    @property
    def creates_superposition(self) -> bool:
        raise NotImplementedError


def _array_backed(cls, num_qubits: int, **fields) -> Action:
    """An array-backed ``cls``: ``fields`` set as they are, the tuple fields
    left to :meth:`Action.__getattr__`."""
    action = object.__new__(cls)
    action.__dict__.update(num_qubits=num_qubits, **fields)
    return action


@dataclass(frozen=True)
class DiagonalAction(Action):
    """A diagonal unitary on the gate's local subspace.

    ``phases[l]`` is the multiplicative factor applied to every global
    amplitude whose local index (restricted to the gate qubits) equals ``l``.
    Entries equal to 1 are *untouched* and never generate work.
    """

    phases: Tuple[complex, ...]

    _derived: ClassVar[Mapping[str, str]] = {"phases": "phase_array"}

    @property
    def creates_superposition(self) -> bool:
        return False

    @cached_property
    def phase_array(self) -> np.ndarray:
        """:attr:`phases` as a read-only ``complex128`` array, built once."""
        return _frozen(np.asarray(self.phases, dtype=complex))

    @cached_property
    def unit(self) -> bool:
        """Every phase is exactly 1: composing it multiplies nothing."""
        return bool((self.phase_array == 1).all())

    def touched_locals(self) -> Tuple[int, ...]:
        """Local indices whose amplitude actually changes."""
        return tuple(
            l for l, p in enumerate(self.phases) if abs(p - 1.0) > _ATOL
        )


@dataclass(frozen=True)
class MonomialAction(Action):
    """A generalized permutation (monomial matrix) on the local subspace.

    ``perm[l]`` is the local index the amplitude at local index ``l`` is
    moved *to*, and ``factors[l]`` the factor applied on the way.  Fixed
    points with factor 1 are untouched.
    """

    perm: Tuple[int, ...]
    factors: Tuple[complex, ...]

    _derived: ClassVar[Mapping[str, str]] = {"factors": "factor_array"}

    @property
    def creates_superposition(self) -> bool:
        return False

    @cached_property
    def factor_array(self) -> np.ndarray:
        """:attr:`factors` as a read-only ``complex128`` array, built once."""
        return _frozen(np.asarray(self.factors, dtype=complex))

    @cached_property
    def perm_array(self) -> np.ndarray:
        """:attr:`perm` as a read-only ``int64`` array, built once."""
        return _frozen(np.asarray(self.perm, dtype=np.int64))

    @cached_property
    def unit(self) -> bool:
        """Every factor is exactly 1: composing it multiplies nothing."""
        return bool((self.factor_array == 1).all())

    def touched_locals(self) -> Tuple[int, ...]:
        out = []
        for l, (p, f) in enumerate(zip(self.perm, self.factors)):
            if p != l or abs(f - 1.0) > _ATOL:
                out.append(l)
        return tuple(out)

    def orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """Cycles of the local permutation restricted to touched indices.

        For all standard gates these cycles have length 1 (phase flips on a
        moved-to-itself index never happen for monomial non-diagonal parts)
        or 2 (swaps), but arbitrary cycle lengths are supported so composite
        user gates classify correctly.
        """
        seen = set()
        cycles = []
        touched = set(self.touched_locals())
        for start in sorted(touched):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.perm[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.perm[nxt]
            cycles.append(tuple(cyc))
        return tuple(cycles)


@dataclass(frozen=True)
class MatVecAction(Action):
    """Fallback: a dense unitary applied by matrix--vector multiplication."""

    matrix: np.ndarray = field(default_factory=lambda: np.eye(2, dtype=complex))

    def __post_init__(self) -> None:  # pragma: no cover - defensive
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))

    @property
    def creates_superposition(self) -> bool:
        return True


def classify_matrix(matrix: np.ndarray, *, atol: float = _ATOL) -> Action:
    """Classify a unitary into diagonal / monomial / matvec action.

    The classification inspects the sparsity structure only; it is what lets
    qTask treat ``RX(pi)`` as a permutation but ``RX(pi/2)`` as a
    superposition gate (§III.C).
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"gate matrix must be square, got shape {m.shape}")
    dim = m.shape[0]
    k = int(round(math.log2(dim)))
    if 2**k != dim:
        raise ValueError(f"gate matrix dimension {dim} is not a power of two")

    nonzero = np.abs(m) > atol
    # Diagonal?
    if not np.any(nonzero & ~np.eye(dim, dtype=bool)):
        return DiagonalAction(num_qubits=k, phases=tuple(np.diag(m)))
    # Monomial (exactly one nonzero per row and per column)?
    if np.all(nonzero.sum(axis=0) == 1) and np.all(nonzero.sum(axis=1) == 1):
        perm = [0] * dim
        factors = [1.0 + 0.0j] * dim
        rows, cols = np.nonzero(nonzero)
        for r, c in zip(rows, cols):
            # column c (input local index) maps to row r (output local index)
            perm[c] = int(r)
            factors[c] = complex(m[r, c])
        return MonomialAction(num_qubits=k, perm=tuple(perm), factors=tuple(factors))
    return MatVecAction(num_qubits=k, matrix=m)


# ---------------------------------------------------------------------------
# Matrix builders
# ---------------------------------------------------------------------------


def _mat(rows: Sequence[Sequence[complex]]) -> np.ndarray:
    return np.array(rows, dtype=complex)


_I2 = _mat([[1, 0], [0, 1]])
_X = _mat([[0, 1], [1, 0]])
_Y = _mat([[0, -1j], [1j, 0]])
_Z = _mat([[1, 0], [0, -1]])
_H = _mat([[1, 1], [1, -1]]) / math.sqrt(2.0)
_S = _mat([[1, 0], [0, 1j]])
_SDG = _mat([[1, 0], [0, -1j]])
_T = _mat([[1, 0], [0, cmath.exp(1j * math.pi / 4)]])
_TDG = _mat([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]])
_SX = 0.5 * _mat([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])


def _rx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -1j * s], [-1j * s, c]])


def _ry(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat([[c, -s], [s, c]])


def _rz(theta: float) -> np.ndarray:
    return _mat([[cmath.exp(-1j * theta / 2), 0], [0, cmath.exp(1j * theta / 2)]])


def _p(lam: float) -> np.ndarray:
    return _mat([[1, 0], [0, cmath.exp(1j * lam)]])


def _u2(phi: float, lam: float) -> np.ndarray:
    return _u3(math.pi / 2, phi, lam)


def _u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return _mat(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ]
    )


def _local_index(bits: Sequence[int]) -> int:
    """local index from per-qubit bit values (qubit j is local bit j)."""
    idx = 0
    for j, b in enumerate(bits):
        idx |= (b & 1) << j
    return idx


def _matrix_from_map(
    num_qubits: int,
    mapping: Callable[[Tuple[int, ...]], Iterable[Tuple[Tuple[int, ...], complex]]],
) -> np.ndarray:
    """Build a local matrix from a function input-bits -> [(output-bits, amp)]."""
    dim = 2**num_qubits
    m = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        bits = tuple((i >> j) & 1 for j in range(num_qubits))
        for out_bits, amp in mapping(bits):
            m[_local_index(out_bits), i] += amp
    return m


def controlled_matrix(base: np.ndarray, num_controls: int = 1) -> np.ndarray:
    """Return the controlled version of ``base``.

    Convention: controls occupy the *low* local bits, the base gate's qubits
    the high local bits, matching the ``(control..., target...)`` qubit-tuple
    order used throughout the circuit API.
    """
    base = np.asarray(base, dtype=complex)
    k = int(round(math.log2(base.shape[0])))
    dim = 2 ** (k + num_controls)
    m = np.eye(dim, dtype=complex)
    ctrl_mask = (1 << num_controls) - 1
    sel = [i for i in range(dim) if (i & ctrl_mask) == ctrl_mask]
    for ia in sel:
        for ib in sel:
            m[ia, ib] = base[ia >> num_controls, ib >> num_controls]
    return m


def _swap_matrix() -> np.ndarray:
    def f(bits):
        return [((bits[1], bits[0]), 1.0)]

    return _matrix_from_map(2, f)


def _rzz(theta: float) -> np.ndarray:
    d = np.ones(4, dtype=complex)
    for i in range(4):
        parity = ((i & 1) ^ ((i >> 1) & 1))
        d[i] = cmath.exp(1j * theta / 2) if parity else cmath.exp(-1j * theta / 2)
    return np.diag(d)


def _rxx(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    m = np.eye(4, dtype=complex) * c
    anti = -1j * s
    for i in range(4):
        m[i ^ 3, i] = anti
        m[i, i] = c
    return m


# ---------------------------------------------------------------------------
# Gate registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type."""

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Callable[..., np.ndarray]
    description: str = ""
    aliases: Tuple[str, ...] = ()

    def matrix(self, *params: float) -> np.ndarray:
        if len(params) != self.num_params:
            raise GateArityError(
                f"gate '{self.name}' takes {self.num_params} parameter(s), "
                f"got {len(params)}"
            )
        return self.matrix_fn(*params)


GATE_REGISTRY: Dict[str, GateSpec] = {}


def register_gate(spec: GateSpec) -> GateSpec:
    """Add a gate spec (and its aliases) to the global registry."""
    GATE_REGISTRY[spec.name] = spec
    for alias in spec.aliases:
        GATE_REGISTRY[alias] = spec
    return spec


def _reg(name, nq, np_, fn, desc, aliases=()):
    return register_gate(
        GateSpec(
            name=name,
            num_qubits=nq,
            num_params=np_,
            matrix_fn=fn,
            description=desc,
            aliases=tuple(aliases),
        )
    )


# Table I -- standard gates supported by qTask (OpenQASM specification).
_reg("id", 1, 0, lambda: _I2, "Identity gate")
_reg("x", 1, 0, lambda: _X, "Pauli-X gate", aliases=("not",))
_reg("y", 1, 0, lambda: _Y, "Pauli-Y gate")
_reg("z", 1, 0, lambda: _Z, "Pauli-Z gate")
_reg("h", 1, 0, lambda: _H, "Hadamard gate")
_reg("s", 1, 0, lambda: _S, "sqrt(Z) phase")
_reg("sdg", 1, 0, lambda: _SDG, "Conjugate of sqrt(Z)")
_reg("t", 1, 0, lambda: _T, "sqrt(S) phase")
_reg("tdg", 1, 0, lambda: _TDG, "Conjugate of sqrt(S)")
_reg("sx", 1, 0, lambda: _SX, "sqrt(X) gate")
_reg("rx", 1, 1, _rx, "X-axis rotation")
_reg("ry", 1, 1, _ry, "Y-axis rotation")
_reg("rz", 1, 1, _rz, "Z-axis rotation")
_reg("p", 1, 1, _p, "Phase gate", aliases=("u1", "phase"))
_reg("u2", 1, 2, _u2, "Single-qubit u2 gate")
_reg("u3", 1, 3, _u3, "Generic single-qubit rotation", aliases=("u",))
_reg("cx", 2, 0, lambda: controlled_matrix(_X), "Controlled-NOT", aliases=("cnot",))
_reg("cy", 2, 0, lambda: controlled_matrix(_Y), "Controlled-Y")
_reg("cz", 2, 0, lambda: controlled_matrix(_Z), "Controlled-Z")
_reg("ch", 2, 0, lambda: controlled_matrix(_H), "Controlled-Hadamard")
_reg("swap", 2, 0, _swap_matrix, "SWAP gate")
_reg("crx", 2, 1, lambda t: controlled_matrix(_rx(t)), "Controlled RX")
_reg("cry", 2, 1, lambda t: controlled_matrix(_ry(t)), "Controlled RY")
_reg("crz", 2, 1, lambda t: controlled_matrix(_rz(t)), "Controlled RZ")
_reg("cp", 2, 1, lambda t: controlled_matrix(_p(t)), "Controlled phase", aliases=("cu1",))
_reg("rzz", 2, 1, _rzz, "ZZ interaction rotation")
_reg("rxx", 2, 1, _rxx, "XX interaction rotation")
_reg("ccx", 3, 0, lambda: controlled_matrix(_X, 2), "Toffoli gate", aliases=("toffoli",))
_reg("ccz", 3, 0, lambda: controlled_matrix(_Z, 2), "Doubly-controlled Z")
_reg("cswap", 3, 0, lambda: controlled_matrix(_swap_matrix(), 1), "Fredkin gate", aliases=("fredkin",))

#: The 12 gate names of the paper's Table I.
STANDARD_GATE_NAMES: Tuple[str, ...] = (
    "cnot",
    "x",
    "y",
    "z",
    "h",
    "s",
    "sdg",
    "t",
    "tdg",
    "rx",
    "ry",
    "rz",
)


def get_spec(name: str) -> GateSpec:
    """Look up a gate spec by (case-insensitive) name."""
    key = name.lower()
    try:
        return GATE_REGISTRY[key]
    except KeyError:
        raise UnknownGateError(f"unknown gate '{name}'") from None


def gate_matrix(name: str, *params: float) -> np.ndarray:
    """Return the unitary matrix of gate ``name`` with the given parameters."""
    return get_spec(name).matrix(*params)


# ---------------------------------------------------------------------------
# Gate instances
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """A gate instance: a named unitary applied to specific qubits.

    ``Gate`` objects are immutable value types; the circuit wraps them in
    handles (:class:`repro.core.circuit.GateHandle`) that track identity and
    membership.
    """

    name: str
    qubits: Tuple[int, ...]
    params: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        spec = get_spec(self.name)
        object.__setattr__(self, "name", spec.name)
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if len(self.qubits) != spec.num_qubits:
            raise GateArityError(
                f"gate '{spec.name}' acts on {spec.num_qubits} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise GateArityError(
                f"gate '{spec.name}' applied to duplicate qubits {self.qubits}"
            )
        if len(self.params) != spec.num_params:
            raise GateArityError(
                f"gate '{spec.name}' takes {spec.num_params} parameter(s), "
                f"got {len(self.params)}"
            )

    @property
    def spec(self) -> GateSpec:
        return get_spec(self.name)

    def matrix(self) -> np.ndarray:
        """The local unitary (qubits[0] = least-significant local bit)."""
        return self.spec.matrix(*self.params)

    def action(self) -> Action:
        """Classified action used by the partitioning engine."""
        return classify_matrix(self.matrix())

    @property
    def num_qubits(self) -> int:
        return len(self.qubits)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        p = ", ".join(f"{x:g}" for x in self.params)
        q = ", ".join(f"q{q}" for q in self.qubits)
        return f"{self.name}({p})[{q}]" if p else f"{self.name}[{q}]"


def classify_gate(gate: Gate) -> Action:
    """Classify a gate instance (see :func:`classify_matrix`)."""
    return gate.action()




def is_superposition_gate(gate: Gate) -> bool:
    """True when the gate requires the matrix--vector fallback path."""
    return gate.action().creates_superposition


# ---------------------------------------------------------------------------
# Embedding helper (used by the baselines and the reference simulator)
# ---------------------------------------------------------------------------


def embed_gate_matrix(gate: Gate, num_qubits: int) -> np.ndarray:
    """Return the full ``2^n x 2^n`` operator of ``gate`` on ``num_qubits``.

    This is intentionally simple (index-loop construction) so it serves as an
    independent ground truth for tests; it is exponential and should only be
    used for small ``num_qubits``.
    """
    dim = 1 << num_qubits
    local = gate.matrix()
    k = gate.num_qubits
    qubits = gate.qubits
    m = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        lin = 0
        for j, q in enumerate(qubits):
            lin |= ((col >> q) & 1) << j
        rest = col
        for q in qubits:
            rest &= ~(1 << q)
        for lout in range(1 << k):
            amp = local[lout, lin]
            if amp == 0:
                continue
            row = rest
            for j, q in enumerate(qubits):
                row |= ((lout >> j) & 1) << q
            m[row, col] += amp
    return m
