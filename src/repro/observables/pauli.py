"""Pauli-string observables: the measurement vocabulary of the engine.

A :class:`PauliString` is a tensor product of single-qubit Pauli operators
(X, Y, Z) on a sparse set of qubits, times a scalar coefficient; a
:class:`PauliSum` is a linear combination of Pauli strings (a Hamiltonian).
Both are immutable value types.

The crucial design point: every Pauli string is a *non-superposition*
operator in the paper's gate classification -- a Z-only string is diagonal
(signs on the diagonal) and any string containing X or Y is monomial (a
bit-flip permutation, :meth:`PauliString.flip_mask`, with ±1/±i factors).
The block-wise engine uses that the factors are a product of single-bit
functions (:func:`pauli_phases`); the dense evaluation
(``dense_expectation``) is index arithmetic over the whole vector.  Neither
materialises the 2^n operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "PauliString",
    "PauliSum",
    "as_pauli_sum",
    "pauli_phases",
    "maxcut_hamiltonian",
    "ising_hamiltonian",
]

_LETTERS = ("X", "Y", "Z")

PauliLike = Union["PauliString", "PauliSum", str]


def pauli_phases(
    letters: Iterable[Tuple[int, str]], size: int, flip: int = 0
) -> np.ndarray:
    """The ±1/±i factor a Pauli product picks up on each basis state.

    ``letters`` pairs a *bit position* with a Pauli letter.  Acting on
    ``|k>``, Z contributes ``(-1)^bit``, Y contributes ``i (-1)^bit`` and X
    contributes 1 (X and Y also flip the bit, which is the caller's
    business).  Entry ``x`` of the result is that product evaluated at
    ``k = x ^ flip`` -- with ``flip`` the string's X/Y mask this is the
    factor of the *source* amplitude that lands on ``x``.  The product of
    single-bit functions is why it splits into a table over the low bits
    times a table over the high bits, which is what the expectation engine
    exploits.  This is the one definition of the convention.
    """
    source = np.arange(size, dtype=np.int64) ^ flip
    factors = np.ones(size, dtype=complex)
    for bit, letter in letters:
        if letter == "Z":
            factors *= 1.0 - 2.0 * ((source >> bit) & 1)
        elif letter == "Y":
            factors *= 1j * (1.0 - 2.0 * ((source >> bit) & 1))
    return factors


def _normalise_paulis(
    paulis: Union[Mapping[int, str], Iterable[Tuple[int, str]]],
) -> Tuple[Tuple[int, str], ...]:
    items = paulis.items() if isinstance(paulis, Mapping) else paulis
    out: Dict[int, str] = {}
    for qubit, letter in items:
        q = int(qubit)
        l = str(letter).upper()
        if l == "I":
            continue
        if l not in _LETTERS:
            raise ValueError(f"unknown Pauli letter {letter!r} (expected I/X/Y/Z)")
        if q < 0:
            raise ValueError(f"negative qubit index {q} in Pauli string")
        if q in out:
            raise ValueError(f"qubit {q} appears twice in Pauli string")
        out[q] = l
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class PauliString:
    """A weighted tensor product of single-qubit Paulis.

    ``paulis`` maps qubit index to letter; identity factors are implicit
    (and an empty string *is* the identity operator).  Construct from a
    mapping/pair list, or from a label with :meth:`from_label`::

        PauliString({0: "Z", 3: "X"}, coefficient=0.5)
        PauliString.from_label("XIIZ")       # == the string above, coeff 1
    """

    paulis: Tuple[Tuple[int, str], ...] = ()
    coefficient: complex = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "paulis", _normalise_paulis(self.paulis))
        object.__setattr__(self, "coefficient", complex(self.coefficient))

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_label(cls, label: str, *, coefficient: complex = 1.0) -> "PauliString":
        """Parse a dense label, leftmost character = highest qubit.

        ``PauliString.from_label("ZIX")`` is Z on qubit 2 and X on qubit 0.
        """
        n = len(label)
        pairs = [(n - 1 - i, c) for i, c in enumerate(label)]
        return cls(pairs, coefficient=coefficient)

    # -- structure ----------------------------------------------------------

    @property
    def key(self) -> Tuple[Tuple[int, str], ...]:
        """Coefficient-free identity of the operator (cache/grouping key)."""
        return self.paulis

    @property
    def support(self) -> Tuple[int, ...]:
        """Qubits acted on non-trivially, ascending (local bit order)."""
        return tuple(q for q, _ in self.paulis)

    @property
    def weight(self) -> int:
        return len(self.paulis)

    @property
    def is_identity(self) -> bool:
        return not self.paulis

    @property
    def is_diagonal(self) -> bool:
        """True when the string contains only Z factors (and identities)."""
        return all(l == "Z" for _, l in self.paulis)

    def z_mask(self) -> int:
        """Bit mask over global qubit indices of the Z factors."""
        mask = 0
        for q, l in self.paulis:
            if l == "Z":
                mask |= 1 << q
        return mask

    def flip_mask(self) -> int:
        """Bit mask over global qubit indices of the X/Y (bit-flip) factors."""
        mask = 0
        for q, l in self.paulis:
            if l != "Z":
                mask |= 1 << q
        return mask

    def to_label(self, num_qubits: int) -> str:
        """Dense label over ``num_qubits`` qubits (leftmost = highest)."""
        letters = dict(self.paulis)
        if letters and max(letters) >= num_qubits:
            raise ValueError(
                f"Pauli string acts on qubit {max(letters)}; "
                f"label of {num_qubits} qubits is too short"
            )
        return "".join(letters.get(q, "I") for q in range(num_qubits - 1, -1, -1))

    # -- algebra ------------------------------------------------------------

    def __mul__(self, scalar: complex) -> "PauliString":
        return PauliString(self.paulis, coefficient=self.coefficient * scalar)

    __rmul__ = __mul__

    def __neg__(self) -> "PauliString":
        return self * -1.0

    def __add__(self, other: Union["PauliString", "PauliSum"]) -> "PauliSum":
        return PauliSum([self]) + other

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        body = "*".join(f"{l}{q}" for q, l in self.paulis) or "I"
        c = self.coefficient
        if c == 1:
            return body
        return f"({c.real:g}{c.imag:+g}j)*{body}" if c.imag else f"{c.real:g}*{body}"


class PauliSum:
    """A linear combination of Pauli strings (an observable/Hamiltonian).

    Like terms (same :attr:`PauliString.key`) are combined on construction
    and exact-zero coefficients dropped, so the per-term expectation cache in
    the engine never sees duplicate keys.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[PauliString] = ()) -> None:
        combined: Dict[Tuple[Tuple[int, str], ...], complex] = {}
        order: list = []
        for t in terms:
            if not isinstance(t, PauliString):
                raise TypeError(f"PauliSum terms must be PauliString, got {type(t)!r}")
            if t.key not in combined:
                combined[t.key] = 0.0
                order.append(t.key)
            combined[t.key] += t.coefficient
        self.terms: Tuple[PauliString, ...] = tuple(
            PauliString(key, coefficient=combined[key])
            for key in order
            if combined[key] != 0
        )

    @classmethod
    def from_labels(
        cls, labelled: Mapping[str, complex]
    ) -> "PauliSum":
        """Build from ``{label: coefficient}`` (labels as in ``from_label``)."""
        return cls(
            PauliString.from_label(lbl, coefficient=c) for lbl, c in labelled.items()
        )

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def support(self) -> Tuple[int, ...]:
        qubits = sorted({q for t in self.terms for q in t.support})
        return tuple(qubits)

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __add__(self, other: Union[PauliString, "PauliSum"]) -> "PauliSum":
        if isinstance(other, PauliString):
            other = PauliSum([other])
        if not isinstance(other, PauliSum):
            return NotImplemented
        return PauliSum(self.terms + other.terms)

    __radd__ = __add__

    def __sub__(self, other: Union[PauliString, "PauliSum"]) -> "PauliSum":
        if isinstance(other, PauliString):
            other = PauliSum([other])
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        return PauliSum(t * scalar for t in self.terms)

    __rmul__ = __mul__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return " + ".join(str(t) for t in self.terms) or "0"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PauliSum({self.num_terms} terms)"


def as_pauli_sum(observable: PauliLike) -> PauliSum:
    """Coerce a string label / PauliString / PauliSum into a PauliSum."""
    if isinstance(observable, PauliSum):
        return observable
    if isinstance(observable, PauliString):
        return PauliSum([observable])
    if isinstance(observable, str):
        return PauliSum([PauliString.from_label(observable)])
    raise TypeError(
        f"expected PauliSum, PauliString or label string, got {type(observable)!r}"
    )


# ---------------------------------------------------------------------------
# Standard variational Hamiltonians
# ---------------------------------------------------------------------------


def maxcut_hamiltonian(edges: Sequence[Tuple[int, int]]) -> PauliSum:
    """The MaxCut cost observable ``sum_(a,b) (1 - Z_a Z_b) / 2``.

    Its expectation on a computational basis state is the number of cut
    edges, which is exactly the objective a QAOA angle sweep maximises.
    """
    terms = [PauliString((), coefficient=0.5 * len(edges))]
    for a, b in edges:
        terms.append(PauliString({a: "Z", b: "Z"}, coefficient=-0.5))
    return PauliSum(terms)


def ising_hamiltonian(
    num_qubits: int, *, coupling: float = 1.0, field: float = 0.0
) -> PauliSum:
    """Transverse-field Ising chain ``-J sum Z_q Z_q+1 - h sum X_q``."""
    terms = [
        PauliString({q: "Z", q + 1: "Z"}, coefficient=-coupling)
        for q in range(num_qubits - 1)
    ]
    if field:
        terms.extend(
            PauliString({q: "X"}, coefficient=-field) for q in range(num_qubits)
        )
    return PauliSum(terms)
