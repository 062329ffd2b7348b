"""Durable session checkpoints: serialize a session, resume after a crash.

A checkpoint captures everything a :class:`~repro.qtask.QTask` session needs
to resume *without re-simulating*: the circuit (nets, gates, dynamic ops
with their program-order ``op_index``, classical registers), the simulator's
configuration knobs, the global stage order with each stage's kind and
member gates, every materialised copy-on-write block (with a per-block CRC),
the coalesced runs on record (which stage holds a block inside a run is
only right next to them), and the trajectory's classical state (seed, bits,
recorded outcomes, and each collapse's masses and outcome, so a restored
session's ``collapse_path()`` is the saved one's).

Restoration deliberately does **not** replay circuit modifiers through the
observer protocol: the original session's stage layout is a product of its
full edit history (within-net heuristics, retunes), which
the final circuit alone cannot reproduce.  Instead the session's
:class:`~repro.core.stage_table.StageTable` builds each recorded stage with
its one stage factory and files it in the checkpointed global order
(:meth:`~repro.core.stage_table.StageTable.load`), the filing a fork's
mirror takes too -- so the loaded blocks land in stores at the sequence
positions the rebuilt covers resolve them through.  The classical state is
the :class:`~repro.core.classical.OutcomeRecord`'s own export
(``export_state`` / ``import_state``), seed kept as it is.

File format (version 1)::

    8 bytes   magic  b"QTCKPT01"
    8 bytes   header length H (little-endian uint64)
    H bytes   JSON header (utf-8)
    N bytes   concatenated raw block payloads, complex128 little-endian,
              in header order (stage order, then ascending block id)

Every block carries a ``zlib.crc32`` in the header; a truncated or
bit-flipped file raises :class:`~repro.core.exceptions.CheckpointError`
instead of silently resuming from garbage.  Writes are atomic (tmp file +
``os.replace``) so a crash *during* checkpointing never clobbers the
previous good checkpoint.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from typing import Dict, List, Optional, Tuple

import numpy as np

from .circuit import Circuit, GateHandle
from .exceptions import CheckpointError, CircuitError
from .gates import Gate
from .ops import CGate, MeasureOp, ResetOp
from .simulator import DURABLE_KNOBS, QTaskSimulator
from .stage import MeasureStage, ResetStage

__all__ = [
    "CHECKPOINT_MAGIC",
    "save_checkpoint",
    "restore_simulator",
    "encode_block",
    "decode_block",
]

CHECKPOINT_MAGIC = b"QTCKPT01"
_VERSION = 1
_DTYPE = np.complex128
_LEN_STRUCT = struct.Struct("<Q")


def encode_block(arr: np.ndarray) -> Tuple[bytes, int]:
    """One block's payload: ``(raw little-endian complex128 bytes, crc32)``."""
    raw = np.ascontiguousarray(arr, dtype=_DTYPE).tobytes()
    return raw, zlib.crc32(raw) & 0xFFFFFFFF


def decode_block(raw: bytes, crc: int, expect_len: Optional[int] = None) -> np.ndarray:
    """A read-only array viewing ``raw``, after checking its CRC and length.

    Raises :class:`CheckpointError` on a mismatch.
    """
    if zlib.crc32(raw) & 0xFFFFFFFF != int(crc):
        raise CheckpointError("block payload failed CRC verification")
    arr = np.frombuffer(raw, dtype=_DTYPE)
    if expect_len is not None and arr.shape[0] != expect_len:
        raise CheckpointError(
            f"block payload holds {arr.shape[0]} amplitudes, expected {expect_len}"
        )
    return arr


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _encode_op(gate) -> Dict[str, object]:
    """One circuit operation as a JSON-safe dict (kind tag + payload)."""
    if isinstance(gate, MeasureOp):
        return {"t": "m", "q": gate.qubit, "c": gate.clbit, "i": gate.op_index}
    if isinstance(gate, ResetOp):
        return {"t": "r", "q": gate.qubit, "i": gate.op_index}
    if isinstance(gate, CGate):
        return {
            "t": "c",
            "n": gate.gate.name,
            "q": list(gate.gate.qubits),
            "p": list(gate.gate.params),
            "b": list(gate.condition_bits),
            "v": gate.condition_value,
            "i": gate.op_index,
        }
    return {"t": "g", "n": gate.name, "q": list(gate.qubits), "p": list(gate.params)}


def _build_header(sim: QTaskSimulator) -> Tuple[Dict[str, object], List[np.ndarray]]:
    """The JSON header plus the block arrays, in payload order."""
    circuit = sim.circuit

    nets_json: List[List[Dict[str, object]]] = []
    flat_index: Dict[int, int] = {}
    for net in circuit.nets():
        entries = []
        for handle in net.gates:
            flat_index[handle.uid] = len(flat_index)
            entries.append(_encode_op(handle.gate))
        nets_json.append(entries)

    block_len = min(sim.dim, sim.block_size)
    stages_json: List[Dict[str, object]] = []
    payload: List[np.ndarray] = []
    for stage in sim.graph.stages:
        members = sim.stages.members(stage)
        blocks_json: List[List[int]] = []
        store = stage.store
        for b in store.stored_blocks():
            arr = store.get_block(b)
            arr = np.ascontiguousarray(arr, dtype=_DTYPE)
            if arr.shape != (block_len,):  # pragma: no cover - defensive
                raise CheckpointError(
                    f"stage {stage!r} block {b} has shape {arr.shape}, "
                    f"expected ({block_len},)"
                )
            # the CRC over the array's own buffer, which is what is written
            blocks_json.append([int(b), zlib.crc32(arr)])
            payload.append(arr)
        entry: Dict[str, object] = {
            "kind": stage.kind,
            "gates": [flat_index[h.uid] for h in members],
            "blocks": blocks_json,
        }
        if isinstance(stage, (MeasureStage, ResetStage)) and stage.masses is not None:
            # what collapse_path() reports; the scale follows from them
            entry["masses"] = list(stage.masses)
            entry["outcome"] = stage.outcome
        stages_json.append(entry)

    registers = [
        {"name": r.name, "offset": r.offset, "size": r.size}
        for r in circuit.classical_registers()
    ]
    anon_clbits = circuit.num_clbits - sum(r["size"] for r in registers)

    header: Dict[str, object] = {
        "version": _VERSION,
        "num_qubits": circuit.num_qubits,
        "anon_clbits": anon_clbits,
        "registers": registers,
        "allow_net_dependencies": circuit.allow_net_dependencies,
        "knobs": {name: getattr(sim, name) for name in DURABLE_KNOBS},
        "num_updates": sim.num_updates,
        "nets": nets_json,
        "stages": stages_json,
        # coalesced runs as (first stage position, member count)
        "runs": [
            [run.members[0].seq, len(run.members)] for run in sim.graph.runs()
        ],
        "outcomes": sim.outcomes.export_state(),
    }
    return header, payload


def save_checkpoint(sim: QTaskSimulator, path: str) -> str:
    """Serialize ``sim`` to ``path`` (atomically) and return the path.

    Pending circuit modifiers are flushed first (``update_state``) so the
    checkpoint always describes a fully computed state -- the same contract
    session forking uses.
    """
    sim.flush()
    with sim.telemetry.tracer.span("checkpoint.save") as span:
        header, payload = _build_header(sim)
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        tmp = f"{path}.tmp.{os.getpid()}"
        written = 0
        try:
            with open(tmp, "wb") as fh:
                fh.write(CHECKPOINT_MAGIC)
                fh.write(_LEN_STRUCT.pack(len(header_bytes)))
                fh.write(header_bytes)
                written = len(CHECKPOINT_MAGIC) + _LEN_STRUCT.size + len(
                    header_bytes
                )
                for arr in payload:
                    fh.write(arr)
                    written += arr.nbytes
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        span.set("path", path)
        span.set("bytes", written)
    sim.telemetry.events.emit(
        "checkpoint.save", path=path, bytes=written, blocks=len(payload)
    )
    return path


# ---------------------------------------------------------------------------
# restoration
# ---------------------------------------------------------------------------


def _read_file(path: str) -> Tuple[Dict[str, object], bytes]:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from exc
    prefix = len(CHECKPOINT_MAGIC) + _LEN_STRUCT.size
    if len(raw) < prefix or raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path!r} is not a qTask checkpoint (bad magic)")
    (header_len,) = _LEN_STRUCT.unpack(
        raw[len(CHECKPOINT_MAGIC) : prefix]
    )
    if len(raw) < prefix + header_len:
        raise CheckpointError(f"checkpoint {path!r} is truncated (header)")
    try:
        header = json.loads(raw[prefix : prefix + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} has a corrupt header: {exc}"
        ) from exc
    if header.get("version") != _VERSION:
        raise CheckpointError(
            f"checkpoint {path!r} has unsupported version "
            f"{header.get('version')!r} (expected {_VERSION})"
        )
    return header, raw[prefix + header_len :]


def _rebuild_circuit(header: Dict[str, object]) -> Tuple[Circuit, List[GateHandle]]:
    circuit = Circuit(
        int(header["num_qubits"]),
        num_clbits=int(header["anon_clbits"]),
        allow_net_dependencies=bool(header["allow_net_dependencies"]),
    )
    for reg in header["registers"]:
        created = circuit.add_classical_register(reg["name"], int(reg["size"]))
        if created.offset != int(reg["offset"]):  # pragma: no cover - defensive
            raise CheckpointError(
                f"classical register {reg['name']!r} landed at offset "
                f"{created.offset}, checkpoint says {reg['offset']}"
            )
    handles: List[GateHandle] = []
    for net_entries in header["nets"]:
        net = circuit.insert_net()
        for e in net_entries:
            kind = e["t"]
            if kind == "g":
                op = Gate(e["n"], tuple(e["q"]), tuple(e["p"]))
            elif kind == "m":
                op = MeasureOp(e["q"], e["c"])
                op.op_index = int(e["i"])
            elif kind == "r":
                op = ResetOp(e["q"])
                op.op_index = int(e["i"])
            elif kind == "c":
                op = CGate(
                    Gate(e["n"], tuple(e["q"]), tuple(e["p"])),
                    tuple(e["b"]),
                    int(e["v"]),
                )
                op.op_index = int(e["i"])
            else:
                raise CheckpointError(f"unknown operation kind {kind!r}")
            handles.append(circuit.insert_operation(op, net))
    return circuit, handles


def restore_simulator(
    path: str,
    *,
    num_workers: Optional[int] = None,
) -> QTaskSimulator:
    """Reconstruct a :class:`QTaskSimulator` from a checkpoint file.

    The restored session holds the checkpointed computed state (no
    re-simulation happens, except for an older file with ``"fused"`` stage
    entries) and is immediately editable: subsequent circuit
    modifiers re-simulate incrementally from the loaded blocks, exactly as
    they would have in the original session.  The worker count is not part
    of the durable state -- pass ``num_workers`` as to a new session.

    Trajectory randomness follows fork semantics: recorded outcomes and
    classical bits are restored verbatim, but the keyed per-op random
    streams are not serialized (matching :meth:`OutcomeRecord.clone`), so
    an edit that re-collapses a measurement draws from the start of its
    keyed stream -- a restored session and a fork taken at checkpoint time
    evolve identically under identical edits.
    """
    t0 = time.perf_counter()
    header, payload = _read_file(path)
    circuit, handles = _rebuild_circuit(header)
    # The durable knobs come from the header; whatever else an older file
    # lists there (knobs since deleted, whose settings read bit-identically)
    # is ignored, the kernel backend and store transport names older files
    # carry included.
    saved = header["knobs"]
    knobs = {name: saved[name] for name in DURABLE_KNOBS}
    knobs["num_workers"] = num_workers
    sim = QTaskSimulator.__new__(QTaskSimulator)
    sim.assemble(circuit, knobs)
    try:
        loaded = _load_state(sim, path, header, payload, handles)
    except BaseException:
        sim.close()  # a rejected file must not keep the pool running
        raise
    duration = time.perf_counter() - t0
    if sim.telemetry.tracer.enabled:
        sim.telemetry.tracer.adopt(
            "checkpoint.restore", t0, duration,
            parent_id=None, pid=os.getpid(),
            thread_id=0, thread_name="main",
            attrs={"path": path},
        )
    sim.telemetry.events.emit(
        "checkpoint.restore",
        path=path,
        bytes=loaded,
        seconds=duration,
    )
    return sim


def _load_state(sim, path, header, payload, handles) -> int:
    """Fill an assembled simulator with a checkpoint's stages and blocks;
    returns the payload bytes loaded."""
    sim.outcomes.import_state(header["outcomes"])

    # Rebuild the stage table in the checkpointed global order, through the
    # table's stage factory: one insert_stages batch records the layouts
    # (there is no source graph to mirror), and the graph's insertion hook
    # binds dynamic records.
    entries, runs = header["stages"], header.get("runs", ())
    for entry in entries:
        gates = entry["gates"]
        if not gates or not all(0 <= g < len(handles) for g in gates):
            raise CheckpointError(
                f"checkpoint {path!r} has a {entry['kind']!r} stage naming "
                f"gates {gates!r} of {len(handles)}"
            )
    # Versions up to PR 21 could compose adjacent gates at insert time into
    # one "fused" stage, filed under the net of its last member -- a slot
    # single stages cannot keep (a member of an earlier net may not stay
    # behind a later net's stages).  Such a table, and the blocks and runs
    # filed by it, are of no use: the stages are placed as for a new session
    # and simulated once, here, on the recorded trajectory (collapses replay
    # their outcomes instead of redrawing).
    if any(entry["kind"] == "fused" for entry in entries):
        entries, runs, payload = [], (), b""
        sim.stages.insert_all()
        forced = sim.outcomes.replace_forced(sim.outcomes.recorded_outcomes())
        sim.update_state()
        sim.outcomes.replace_forced(forced)
    try:
        stages = sim.stages.load(
            (entry["kind"], [handles[g] for g in entry["gates"]]) for entry in entries
        )
        for entry, stage in zip(entries, stages):
            if "masses" in entry and isinstance(stage, (MeasureStage, ResetStage)):
                stage.adopt_collapse(tuple(entry["masses"]), int(entry["outcome"]))
    except (CircuitError, ValueError, IndexError, KeyError, TypeError,
            ZeroDivisionError) as exc:
        raise CheckpointError(
            f"cannot reconstruct the stage table of checkpoint {path!r}: {exc}"
        ) from exc

    # Load the block payloads (stage order, ascending block id), verifying
    # each CRC.
    block_len = min(sim.dim, sim.block_size)
    block_bytes = block_len * np.dtype(_DTYPE).itemsize
    offset = 0
    for entry, stage in zip(entries, stages):
        ids, rows = [], []
        for b, crc in entry["blocks"]:
            chunk = payload[offset : offset + block_bytes]
            if len(chunk) != block_bytes:
                raise CheckpointError(
                    f"checkpoint {path!r} is truncated (block {b} of "
                    f"stage {stage!r})"
                )
            try:
                arr = decode_block(chunk, crc, block_len)
            except CheckpointError as exc:
                raise CheckpointError(
                    f"checksum mismatch on block {b} of stage {stage!r}; "
                    f"checkpoint {path!r} is corrupt"
                ) from exc
            ids.append(int(b))
            rows.append(arr)
            offset += block_bytes
        try:
            stage.store.write_blocks(ids, rows)
        except ValueError as exc:  # a block id the geometry has no room for
            raise CheckpointError(
                f"checkpoint {path!r} lists a block of stage {stage!r} "
                f"the session cannot hold: {exc}"
            ) from exc
    if offset != len(payload):
        raise CheckpointError(
            f"checkpoint {path!r} has {len(payload) - offset} trailing "
            "payload bytes"
        )
    # A stage holds only blocks it declares.  A file written by the deleted
    # dense storage mode lists every block of every stage; the undeclared
    # ones are never read, so they are dropped here.
    for stage in stages:
        stage.store.keep_only(stage.partition_layout().cover)

    # Every inserted stage marked itself dirty; the checkpointed state is
    # computed, so there is no pending work.  The runs on record explain why
    # some declarers hold nothing; a file from before there were runs lists
    # none, and its stages hold every block they declare.
    graph = sim.graph
    graph.clear_pending()
    try:
        graph.adopt_runs(runs)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(
            f"checkpoint {path!r} has a corrupt run table: {exc}"
        ) from exc
    sim.num_updates = max(1, int(header["num_updates"]))
    return offset
