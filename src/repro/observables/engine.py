"""Incremental observables: expectations, marginals and shot sampling.

:class:`ObservablesEngine` answers measurement queries about a simulator's
*current* state (the one produced by the last ``update_state``), reading
only the blocks whose cached results are missing, each query in one gather:

* ``expectation(obs)`` evaluates ``<psi|H|psi>`` from per-(term, block)
  partials.  The ±1/±i factor of a Pauli string splits into a within-block
  table times a block-id table, so one query gathers the blocks some term
  misses (plus their X/Y flip partners) with a single ``read_blocks`` and
  computes every missing partial of every term sharing a flip mask with one
  matmul (see :meth:`ObservablesEngine.expectation_value`).
* ``sample(shots)`` / ``counts(shots)`` draw measurement shots from the
  per-block probability masses -- the identity term's partials -- with one
  ``searchsorted`` over their cumulative sum for the block and one over the
  hit block's cumulative probabilities for the index.
* ``marginal_probabilities(qubits)`` folds the gathered probabilities onto
  a qubit subset with one bincount.

The per-block results -- one partial array plus validity bitmap per term,
the identity term's being the block masses -- are the engine's one cache,
and it is invalidated by exactly the dirty frontier the incremental update
already computes: the simulator hands :meth:`ObservablesEngine.mark_blocks_dirty`
every block (re)written by an update or orphaned by a stage removal, and
only those entries are recomputed on the next query.  A parameter-retune
sweep that touches the tail of a circuit therefore re-evaluates only the
partials its dirty blocks invalidated.

``dense_expectation`` / ``statevector_counts`` at the bottom are the dense
baselines' path and the tests' oracle; they share no code with the engine
(each term is index arithmetic over the whole vector, no reader).
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import QubitIndexError
from ..core.gates import extract_local
from ..core.kernels import StateReader
from ..telemetry.tracing import NULL_SPAN
from .pauli import PauliLike, PauliString, PauliSum, as_pauli_sum, pauli_phases

__all__ = ["ObservablesEngine", "dense_expectation", "statevector_counts"]

_TermKey = Tuple[Tuple[int, str], ...]

#: the term whose per-block partials are the block probability masses
_IDENTITY = PauliString()


@lru_cache(maxsize=256)
def _phase_table(
    letters: Tuple[Tuple[int, str], ...], size: int, flip: int
) -> np.ndarray:
    """:func:`~repro.observables.pauli.pauli_phases`, value-keyed and shared.

    Like ``kernels._slab_table`` the key is the table's content -- bit
    positions, letters, length, flip -- so every term, engine and fork that
    needs the same factor reads one read-only array.  An entry is 16 bytes
    per amplitude of a block (the within-block table ``L``) or per block of
    the state (the block-id table ``H``).
    """
    table = pauli_phases(letters, size, flip)
    table.setflags(write=False)
    return table


class _TermCache(NamedTuple):
    """Per-block partials of one unit-coefficient Pauli string.

    ``partials[b]`` is ``sum_j conj(psi[b, j]) (P psi)[b, j]`` wherever
    ``valid[b]``; ``low`` / ``high`` are the ``L`` / ``H`` phase tables and
    ``flip_low`` / ``flip_high`` the X/Y mask split at the block boundary.
    """

    flip_low: int
    flip_high: int
    low: np.ndarray
    high: np.ndarray
    partials: np.ndarray
    valid: np.ndarray

    def copy(self) -> "_TermCache":
        """Own partials and validity, shared (read-only) phase tables."""
        return self._replace(
            partials=self.partials.copy(), valid=self.valid.copy()
        )


class ObservablesEngine:
    """Measurement queries over one simulator's COW-resolved state.

    Created lazily by :attr:`repro.core.simulator.QTaskSimulator.observables`
    (one engine per simulator); direct construction is useful in tests.
    :meth:`invalidate` drops every cached result, so the next query
    recomputes from the block stores.

    Every query holds the engine's lock while it reads or fills the caches,
    so concurrent readers of one settled session (the service reads a warm
    base from several dispatcher threads, and ``run_shots`` forks clone its
    caches) never see a half-filled partial.
    """

    def __init__(self, simulator) -> None:
        self.simulator = simulator
        self.dim = simulator.dim
        self.block_size = simulator.block_size
        self.n_blocks = simulator.n_blocks
        self.num_qubits = self.dim.bit_length() - 1
        #: amplitudes per block, and the qubit index of block-id bit 0
        self._block_len = min(self.dim, self.block_size)
        self._block_bits = self._block_len.bit_length() - 1
        self._cols = np.arange(self._block_len)
        #: term key -> array-backed partials of the unit-coefficient term
        #: (the identity's are the block probability masses)
        self._terms: Dict[_TermKey, _TermCache] = {}
        #: guards ``_terms``
        self._lock = threading.Lock()
        metrics = simulator.telemetry.metrics
        self._partials_computed = metrics.counter(
            "observe.partials_computed",
            help="(term, block) expectation partials evaluated",
        )
        self._blocks_gathered = metrics.counter(
            "observe.blocks_gathered",
            help="state blocks read by observable queries",
        )

    # -- invalidation (driven by the simulator's dirty frontier) -----------

    def mark_blocks_dirty(self, blocks: Iterable[int]) -> None:
        """Drop every cached per-block result for ``blocks``.

        The simulator calls this with the union of block ranges (re)written
        by an incremental update plus the blocks orphaned by stage removals;
        everything else stays cached.
        """
        idx = (
            blocks
            if isinstance(blocks, np.ndarray)
            else np.fromiter(blocks, dtype=np.intp)
        )
        if not idx.size:
            return
        with self._lock:
            for entry in self._terms.values():
                # An X/Y term's partial for block b is computed from
                # amplitudes in the flip-partner block b ^ flip_high, so a
                # dirty block also invalidates its partner's partial
                # (flip_high is 0 for terms whose X/Y factors all sit below
                # the block boundary).
                entry.valid[idx] = False
                entry.valid[idx ^ entry.flip_high] = False

    def invalidate(self) -> None:
        """Drop every cached result."""
        with self._lock:
            self._terms.clear()

    def clone_for(self, simulator) -> "ObservablesEngine":
        """A new engine for ``simulator`` seeded with this engine's caches.

        Used by session forking: at fork time the child's state is identical
        to the parent's, so every cached (term, block) partial is valid
        verbatim.  The clone is fully independent afterwards: ``simulator``
        hands its dirty blocks to the clone alone, and each side's edits
        invalidate only its own cache.
        """
        clone = ObservablesEngine(simulator)
        with self._lock:
            clone._terms = {key: e.copy() for key, e in self._terms.items()}
        return clone

    @property
    def cached_partials(self) -> int:
        """Number of live (term, block) cache entries (for statistics)."""
        with self._lock:
            return sum(
                int(np.count_nonzero(e.valid)) for e in self._terms.values()
            )

    # -- the one read path ---------------------------------------------------

    def _observe(self, query: str, terms: int = 0):
        """The ``observe`` span of one query (the null span when not tracing)."""
        tracer = self.simulator.telemetry.tracer
        if not tracer.enabled:
            return NULL_SPAN
        return tracer.span(
            "observe",
            {"query": query, "terms": terms, "blocks_missing": 0, "blocks_gathered": 0},
        )

    def _gather(self, reader: StateReader, ids: np.ndarray, span) -> np.ndarray:
        """Blocks ``ids`` as the rows of one freshly read slab."""
        self._blocks_gathered.inc(int(ids.size))
        if span is not NULL_SPAN:
            span.attrs["blocks_gathered"] += int(ids.size)
        return reader.read_blocks(ids.tolist()).reshape(ids.size, self._block_len)

    def _probability_rows(
        self, reader: StateReader, ids: np.ndarray, span
    ) -> np.ndarray:
        amps = self._gather(reader, ids, span)
        return (amps.conj() * amps).real

    # -- expectation values -------------------------------------------------

    def _check_support(self, obs: PauliSum) -> None:
        for term in obs.terms:
            # paulis are sorted by qubit: the last one is the highest
            if term.paulis and term.paulis[-1][0] >= self.num_qubits:
                raise QubitIndexError(
                    f"Pauli string {term} acts on qubit {term.paulis[-1][0]}, "
                    f"outside [0, {self.num_qubits})"
                )

    def _term_entry(self, term: PauliString) -> _TermCache:
        entry = self._terms.get(term.key)
        if entry is None:
            bits = self._block_bits
            flip = term.flip_mask()
            flip_low, flip_high = flip & (self._block_len - 1), flip >> bits
            entry = self._terms[term.key] = _TermCache(
                flip_low,
                flip_high,
                _phase_table(
                    tuple((q, l) for q, l in term.paulis if q < bits),
                    self._block_len, flip_low,
                ),
                _phase_table(
                    tuple((q - bits, l) for q, l in term.paulis if q >= bits),
                    self.n_blocks, flip_high,
                ),
                np.zeros(self.n_blocks, dtype=np.complex128),
                np.zeros(self.n_blocks, dtype=bool),
            )
        return entry

    def _fill_partials(
        self, reader: StateReader, entries: Sequence[_TermCache], span
    ) -> None:
        """Compute every partial ``entries`` miss: one gather, one matmul per
        flip mask (see :meth:`expectation_value`)."""
        groups: Dict[Tuple[int, int], List[_TermCache]] = {}
        for entry in entries:
            groups.setdefault((entry.flip_low, entry.flip_high), []).append(entry)
        work = []
        missed = np.zeros(self.n_blocks, dtype=bool)
        partners = np.zeros(self.n_blocks, dtype=bool)
        for (flip_low, flip_high), members in groups.items():
            missing = np.flatnonzero(
                ~np.logical_and.reduce([e.valid for e in members])
            )
            if missing.size:
                work.append((flip_low, flip_high, members, missing))
                missed[missing] = True
                partners[missing ^ flip_high] = True
        if not work:
            return
        ids = np.flatnonzero(missed | partners)
        span.set("blocks_missing", int(np.count_nonzero(missed)))
        rows = self._gather(reader, ids, span)
        position = np.empty(self.n_blocks, dtype=np.intp)
        position[ids] = np.arange(ids.size)
        for flip_low, flip_high, members, missing in work:
            own = rows if missing.size == ids.size else rows[position[missing]]
            source = own
            if flip_low or flip_high:
                source = rows[
                    position[missing ^ flip_high][:, None], self._cols ^ flip_low
                ]
            low = np.stack([e.low for e in members])
            high = np.stack([e.high[missing] for e in members])
            values = high * ((own.conj() * source) @ low.T).T
            for entry, row in zip(members, values):
                entry.partials[missing] = row
                entry.valid[missing] = True
            self._partials_computed.inc(len(members) * int(missing.size))

    def expectation_value(self, observable: PauliLike) -> complex:
        """``<psi|H|psi>`` as a complex number (complex coefficients allowed).

        A Pauli string ``P`` with X/Y flip mask ``f`` maps ``|k>`` to
        ``phase(k) |k ^ f>``, and ``phase`` is a product of single-bit
        factors, so with ``f`` split at the block boundary into
        ``(f_low, f_high)`` the partial of block ``b`` is::

            H(b) * sum_j conj(psi[b, j]) * L(j) * psi[b ^ f_high, j ^ f_low]

        ``L`` (bits inside a block) is the same for every block and ``H``
        depends on the block id alone.  One query therefore gathers the
        blocks some term misses, plus their flip partners, with a single
        ``read_blocks``; per flip mask it forms one product slab and one
        matmul against the stacked ``L`` tables, which yields every missing
        partial of every term sharing the mask; then it sums the per-term
        arrays.  Z-only strings (and the identity) are the mask 0, whose
        product slab is the probability slab.
        """
        obs = as_pauli_sum(observable)
        self._check_support(obs)
        reader = self.simulator.state_reader()
        with self._lock:
            entries = [self._term_entry(term) for term in obs.terms]
            with self._observe("expectation", len(entries)) as span:
                self._fill_partials(reader, entries, span)
                total = 0.0 + 0.0j
                for term, entry in zip(obs.terms, entries):
                    total += term.coefficient * entry.partials.sum()
        return complex(total)

    def expectation(self, observable: PauliLike) -> float:
        """``<psi|H|psi>`` for a Hermitian observable (the real part).

        Per-(term, block) partials are cached across calls and invalidated
        by the incremental update's dirty frontier, so re-evaluating the same
        Hamiltonian after a localised circuit edit only recomputes the blocks
        that actually changed.
        """
        return float(self.expectation_value(observable).real)

    # -- probabilities ------------------------------------------------------

    def _masses(self, reader: StateReader, span) -> np.ndarray:
        """The per-block probability masses: the identity term's partials,
        filling the missing ones (lock held)."""
        entry = self._term_entry(_IDENTITY)
        self._fill_partials(reader, [entry], span)
        return entry.partials.real

    def block_probability(self, block: int) -> float:
        """Total probability mass inside one data block."""
        if not 0 <= block < self.n_blocks:
            raise IndexError(f"block {block} out of range [0, {self.n_blocks})")
        reader = self.simulator.state_reader()
        with self._lock, self._observe("block_probability") as span:
            return float(self._masses(reader, span)[block])

    def total_probability(self) -> float:
        """``sum_i |psi_i|^2`` accumulated block-wise (the squared norm)."""
        reader = self.simulator.state_reader()
        with self._lock, self._observe("total_probability") as span:
            return float(self._masses(reader, span).sum())

    def marginal_probabilities(self, qubits: Sequence[int]) -> np.ndarray:
        """Outcome distribution of measuring ``qubits`` (qubits[0] = bit 0).

        Returns an array of length ``2^k``; entry ``m`` is the probability
        that qubit ``qubits[j]`` reads bit ``j`` of ``m``.  Accumulated with
        one weighted bincount over the gathered state.
        """
        qs = tuple(int(q) for q in qubits)
        if len(set(qs)) != len(qs):
            raise ValueError(f"duplicate qubits in marginal: {qubits}")
        for q in qs:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"qubit {q} out of range for {self.num_qubits} qubits"
                )
        reader = self.simulator.state_reader()
        with self._observe("marginal_probabilities") as span:
            span.set("blocks_missing", self.n_blocks)
            probs = self._probability_rows(reader, np.arange(self.n_blocks), span)
            local = extract_local(np.arange(self.dim, dtype=np.int64), qs)
            return np.bincount(
                local, weights=probs.reshape(-1), minlength=1 << len(qs)
            )

    # -- shot sampling ------------------------------------------------------

    def sample(self, shots: int, *, seed: Optional[int] = None) -> np.ndarray:
        """Draw ``shots`` basis-state indices from ``|psi|^2``.

        Each draw finds its block by a ``searchsorted`` over the cumulative
        block masses and then its index by one over the hit block's
        cumulative probabilities, so beyond the masses only the blocks
        actually hit by draws are materialised (in one gather).
        """
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        rng = np.random.default_rng(seed)
        reader = self.simulator.state_reader()
        with self._lock, self._observe("sample") as span:
            prefix = np.concatenate(([0.0], np.cumsum(self._masses(reader, span))))
            total = prefix[-1]
            if total <= 0.0:
                raise ValueError("cannot sample from a zero-norm state")
            if not shots:
                return np.empty(0, dtype=np.int64)
            draws = rng.random(shots) * total
            # a draw at or beyond the total (rounding) lands in the last block
            blocks = np.minimum(
                np.searchsorted(prefix[1:], draws, side="right"), self.n_blocks - 1
            )
            residuals = draws - prefix[blocks]
            out = np.empty(shots, dtype=np.int64)
            order = np.argsort(blocks, kind="stable")
            sorted_blocks = blocks[order]
            boundaries = np.flatnonzero(np.diff(sorted_blocks)) + 1
            starts = np.concatenate(([0], boundaries))
            ends = np.concatenate((boundaries, [shots]))
            hit = sorted_blocks[starts]
            probs = self._probability_rows(reader, hit, span)
            for b, row, s, e in zip(hit.tolist(), probs, starts, ends):
                cum = np.cumsum(row)
                sel = order[s:e]
                local = np.searchsorted(cum, residuals[sel], side="right")
                local = np.minimum(local, cum.shape[0] - 1)
                out[sel] = b * self.block_size + local
            return out

    def counts(
        self, shots: int, *, seed: Optional[int] = None
    ) -> Dict[str, int]:
        """Measurement histogram ``{bitstring: count}`` over ``shots`` draws.

        Bitstrings follow the usual convention: leftmost character is the
        highest qubit.
        """
        n = self.num_qubits
        samples = self.sample(shots, seed=seed)
        values, freqs = np.unique(samples, return_counts=True)
        return {
            format(int(v), f"0{n}b"): int(c) for v, c in zip(values, freqs)
        }


# ---------------------------------------------------------------------------
# Dense helpers (baselines and ground-truth checks)
# ---------------------------------------------------------------------------


def dense_expectation(state: np.ndarray, observable: PauliLike) -> float:
    """``<psi|H|psi>`` of a dense state vector (baseline/ground-truth path).

    Each term over the whole vector at once, from index arithmetic alone
    (independent of :func:`~repro.observables.pauli.pauli_phases`, which the
    engine is built on): a Z-only term is ``probs . (1 - 2 parity)``; one
    with X / Y flipping ``f`` is ``i^{nY} vdot(psi[idx ^ f], signs psi)``,
    ``signs`` the parities over its Z and Y qubits.
    """
    obs = as_pauli_sum(observable)
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    idx = np.arange(psi.shape[0], dtype=np.int64)
    total = 0.0 + 0.0j
    for term in obs.terms:
        parity = np.zeros(idx.shape[0], dtype=np.int64)
        for q, letter in term.paulis:
            if letter != "X":
                parity ^= (idx >> q) & 1
        if term.is_diagonal:
            # per term, as the dense side has always paid: its cost is the
            # base of every vs-dense ratio
            probs = (psi.conj() * psi).real
            if term.is_identity:
                value = complex(probs.sum())
            else:
                value = complex(np.dot(probs, 1.0 - 2.0 * parity))
        else:
            n_y = sum(letter == "Y" for _, letter in term.paulis)
            flipped = psi[idx ^ term.flip_mask()]
            value = 1j**n_y * np.vdot(flipped, (1.0 - 2.0 * parity) * psi)
        total += term.coefficient * value
    return float(total.real)


def statevector_counts(
    state: np.ndarray, shots: int, *, seed: Optional[int] = None
) -> Dict[str, int]:
    """Measurement histogram of a dense state vector (baseline path)."""
    psi = np.asarray(state, dtype=np.complex128).reshape(-1)
    probs = (psi.conj() * psi).real
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    n = psi.shape[0].bit_length() - 1
    samples = rng.choice(psi.shape[0], size=shots, p=probs)
    values, freqs = np.unique(samples, return_counts=True)
    return {format(int(v), f"0{n}b"): int(c) for v, c in zip(values, freqs)}
