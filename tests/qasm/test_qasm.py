"""Tests for the OpenQASM parser, expression evaluator, levelizer and writer."""

import math

import numpy as np
import pytest

from repro.core.exceptions import QasmSyntaxError
from repro.core.gates import Gate
from repro.qasm import levelize, levels_to_circuit, parse_qasm, to_qasm
from repro.qasm.expressions import evaluate_expression
from repro.qasm.levelize import program_to_circuit
from repro.qasm.parser import parse_qasm_file

from ..conftest import assert_states_close, dense_state, reference_state


# ---------------------------------------------------------------------------
# expression evaluation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1.5", 1.5),
        ("pi", math.pi),
        ("pi/2", math.pi / 2),
        ("-pi/4", -math.pi / 4),
        ("2*pi/3", 2 * math.pi / 3),
        ("1+2*3", 7.0),
        ("(1+2)*3", 9.0),
        ("2^3", 8.0),
        ("sin(0)", 0.0),
        ("cos(0)", 1.0),
        ("sqrt(4)", 2.0),
    ],
)
def test_expression_values(text, expected):
    assert evaluate_expression(text) == pytest.approx(expected)


def test_expression_with_variables():
    assert evaluate_expression("theta/2", {"theta": 1.0}) == pytest.approx(0.5)


@pytest.mark.parametrize("text", ["", "import os", "foo", "__import__('os')", "1;2", "f(1)"])
def test_expression_rejects_invalid(text):
    with pytest.raises(QasmSyntaxError):
        evaluate_expression(text)


def test_expression_keyword_parameter_names():
    """Python-keyword formals (``lambda`` is ubiquitous in qelib1.inc) work."""
    assert evaluate_expression("lambda/2", {"lambda": 3.0}) == pytest.approx(1.5)
    assert evaluate_expression(
        "lambda + 2*lambda", {"lambda": 0.5}
    ) == pytest.approx(1.5)
    # substitution is whole-word: 'lambda2' is a different (unknown) name
    with pytest.raises(QasmSyntaxError, match="unknown identifier"):
        evaluate_expression("lambda2", {"lambda": 1.0})
    # other keywords too, and mixed with ordinary names
    assert evaluate_expression(
        "if*2 + theta", {"if": 2.0, "theta": 1.0}
    ) == pytest.approx(5.0)


def test_expression_unbound_keyword_is_an_error():
    with pytest.raises(QasmSyntaxError):
        evaluate_expression("lambda/2")


def test_expression_constants_are_case_exact():
    """OpenQASM identifiers are case-sensitive: unbound ``PI`` must raise."""
    for bad in ("PI", "Pi", "E", "TAU", "Tau"):
        with pytest.raises(QasmSyntaxError, match="unknown identifier"):
            evaluate_expression(bad)
    # exact-case constants still resolve, and variables shadow nothing
    assert evaluate_expression("tau") == pytest.approx(2 * math.pi)
    assert evaluate_expression("e") == pytest.approx(math.e)
    # an explicitly *bound* upper-case name is a variable, not a constant
    assert evaluate_expression("PI", {"PI": 3.0}) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

BASIC = """
OPENQASM 2.0;
include "qelib1.inc";
// a comment
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[2];
rz(pi/4) q[1];
barrier q;
x q[1];
measure q -> c;
"""


def test_parse_basic_program():
    prog = parse_qasm(BASIC)
    assert prog.num_qubits == 3
    assert prog.num_classical_bits == 3
    assert prog.cregisters == {"c": (0, 3)}
    names = [g.name for g in prog.gates]
    # `measure q -> c;` broadcasts into one MeasureOp per register bit
    assert names == ["h", "cx", "rz", "x", "measure", "measure", "measure"]
    assert prog.gates[1].qubits == (0, 2)
    assert prog.gates[2].params[0] == pytest.approx(math.pi / 4)
    assert [(m.qubit, m.clbit) for m in prog.gates[4:]] == [(0, 0), (1, 1), (2, 2)]
    assert prog.barriers == [3]


def test_parse_register_broadcast():
    prog = parse_qasm("qreg q[4]; h q;")
    assert [g.qubits for g in prog.gates] == [(0,), (1,), (2,), (3,)]


def test_parse_multiple_registers_flattened():
    prog = parse_qasm("qreg a[2]; qreg b[2]; cx a[1],b[0];")
    assert prog.num_qubits == 4
    assert prog.gates[0].qubits == (1, 2)


def test_parse_block_comments_stripped():
    prog = parse_qasm("/* header\nspanning lines */ qreg q[1]; x q[0];")
    assert prog.num_gates == 1


def test_parse_user_gate_definition_expands():
    src = """
    qreg q[2];
    gate mygate(theta) a, b { rz(theta/2) a; cx a,b; rz(-theta/2) b; }
    mygate(pi) q[0], q[1];
    """
    prog = parse_qasm(src)
    assert [g.name for g in prog.gates] == ["rz", "cx", "rz"]
    assert prog.gates[0].params[0] == pytest.approx(math.pi / 2)
    assert prog.gates[1].qubits == (0, 1)


def test_parse_user_gate_with_lambda_formal_roundtrips():
    """A user gate whose formal is the Python keyword ``lambda`` must work."""
    src = """
    qreg q[2];
    gate twist(lambda, theta) a, b { rz(lambda) a; cx a,b; rx(theta+lambda) b; }
    twist(pi/2, 0.25) q[0], q[1];
    """
    prog = parse_qasm(src)
    assert [g.name for g in prog.gates] == ["rz", "cx", "rx"]
    assert prog.gates[0].params[0] == pytest.approx(math.pi / 2)
    assert prog.gates[2].params[0] == pytest.approx(0.25 + math.pi / 2)
    # full round-trip: write the expanded program back out and re-parse it
    levels = levelize(prog.gates)
    text = to_qasm(levels, num_qubits=prog.num_qubits)
    reparsed = parse_qasm(text)
    assert_states_close(
        reference_state(2, levelize(reparsed.gates)),
        reference_state(2, levels),
        atol=1e-12,
    )


def test_parse_builtin_macro_cu3_matches_unitary():
    """The cu3 macro expansion must implement a controlled-U3 (up to phase)."""
    theta, phi, lam = 0.3, 0.7, 1.1
    src = f"qreg q[2]; cu3({theta},{phi},{lam}) q[0], q[1];"
    prog = parse_qasm(src)
    levels = levelize(prog.gates)
    state_in = [[Gate("h", (0,)), Gate("h", (1,))]]  # non-trivial input
    expected_ctrl = Gate("cu3", (0, 1), (theta, phi, lam)) if False else None
    # Build the expected controlled-U3 operator explicitly.
    from repro.core.gates import controlled_matrix, gate_matrix, classify_matrix
    cu3 = controlled_matrix(gate_matrix("u3", theta, phi, lam))
    psi = reference_state(2, state_in)
    expected = cu3 @ psi
    got = reference_state(2, state_in + levels)
    # allow a global phase difference
    k = np.argmax(np.abs(expected))
    phase = got[k] / expected[k]
    assert_states_close(got, expected * phase, atol=1e-9)


def test_parse_errors():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("x q[0];")                       # no qreg
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; frob q[0];")         # unknown gate
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; x q[5];")            # index out of range
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; x r[0];")            # unknown register
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[2]; if (c==0) x q[0];")  # classical control
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[2]; opaque magic a;")    # opaque


def test_parse_qasm_file(tmp_path):
    path = tmp_path / "c.qasm"
    path.write_text(BASIC)
    prog = parse_qasm_file(str(path))
    assert prog.num_gates == 7  # 4 unitaries + 3 broadcast measures


# ---------------------------------------------------------------------------
# levelizer
# ---------------------------------------------------------------------------


def test_levelize_asap_structure():
    gates = [Gate("h", (0,)), Gate("h", (1,)), Gate("cx", (0, 1)), Gate("x", (2,))]
    levels = levelize(gates)
    assert [[g.name for g in lvl] for lvl in levels] == [["h", "h", "x"], ["cx"]]


def test_levelize_respects_barriers():
    gates = [Gate("h", (0,)), Gate("x", (1,))]
    levels = levelize(gates, barriers=[1])
    assert len(levels) == 2


def test_levelize_net_invariant_holds(rng):
    from ..conftest import random_gate
    gates = []
    for _ in range(40):
        gates.append(random_gate(rng, range(6)))
    levels = levelize(gates)
    for lvl in levels:
        used = [q for g in lvl for q in g.qubits]
        assert len(used) == len(set(used))
    # level count never exceeds gate count, and all gates preserved
    assert sum(len(l) for l in levels) == 40


def test_levels_to_circuit_roundtrip():
    levels = [[Gate("h", (0,))], [Gate("cx", (0, 1))]]
    ckt = levels_to_circuit(2, levels)
    assert ckt.num_gates == 2 and ckt.num_nets == 2


def test_program_to_circuit_simulates_correctly():
    prog = parse_qasm("qreg q[2]; h q[0]; cx q[0],q[1];")
    ckt = program_to_circuit(prog)
    from repro.core.simulator import QTaskSimulator
    sim = QTaskSimulator(ckt, block_size=2, num_workers=1)
    sim.update_state()
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / np.sqrt(2)
    assert_states_close(sim.state(), expected)
    sim.close()


# ---------------------------------------------------------------------------
# writer round trip
# ---------------------------------------------------------------------------


def test_writer_roundtrip_preserves_levels_and_semantics():
    levels = [
        [Gate("h", (0,)), Gate("x", (2,))],
        [Gate("cx", (0, 1))],
        [Gate("rz", (1,), (0.25,)), Gate("swap", (0, 2))],
    ]
    text = to_qasm(levels, num_qubits=3)
    prog = parse_qasm(text)
    round_levels = levelize(prog.gates, barriers=prog.barriers)
    assert [[g.name for g in l] for l in round_levels] == [
        [g.name for g in l] for l in levels
    ]
    assert_states_close(reference_state(3, round_levels), reference_state(3, levels))


def test_writer_accepts_circuit_object():
    ckt = levels_to_circuit(2, [[Gate("h", (1,))]])
    text = to_qasm(ckt)
    assert "qreg q[2];" in text and "h q[1];" in text


def test_writer_requires_qubit_count_for_raw_levels():
    with pytest.raises(ValueError):
        to_qasm([[Gate("h", (0,))]])


# ---------------------------------------------------------------------------
# dynamic circuits: parse / write / simulate
# ---------------------------------------------------------------------------

DYNAMIC = """
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
if (c==1) x q[2];
reset q[0];
measure q[2] -> c[1];
"""


def test_parse_dynamic_ops():
    from repro.core.ops import CGate, MeasureOp, ResetOp

    prog = parse_qasm(DYNAMIC)
    kinds = [type(g).__name__ for g in prog.gates]
    assert kinds == ["Gate", "Gate", "MeasureOp", "CGate", "ResetOp", "MeasureOp"]
    assert prog.has_dynamic_ops
    measure = prog.gates[2]
    assert (measure.qubit, measure.clbit) == (0, 0)
    cond = prog.gates[3]
    assert cond.gate.name == "x"
    assert cond.condition_bits == (0, 1)
    assert cond.condition_value == 1
    assert isinstance(prog.gates[4], ResetOp)
    assert prog.cregisters == {"c": (0, 2)}


def test_parse_measure_broadcast_and_errors():
    prog = parse_qasm("qreg q[2]; creg c[2]; measure q -> c;")
    assert [(m.qubit, m.clbit) for m in prog.gates] == [(0, 0), (1, 1)]
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[2]; creg c[1]; measure q -> c;")   # size mismatch
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; creg c[1]; measure q[0] -> d[0];")  # unknown creg
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; creg c[1]; measure q[0];")     # missing target


def test_parse_conditional_errors():
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; creg c[1]; if (c==2) x q[0];")  # value too wide
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; creg c[1]; if (c==0) measure q[0] -> c[0];")
    with pytest.raises(QasmSyntaxError):
        parse_qasm("qreg q[1]; if (d==0) x q[0];")             # unknown creg


def test_parse_conditional_macro_distributes():
    # a conditioned user-gate expands to one CGate per body gate
    from repro.core.ops import CGate

    prog = parse_qasm(
        "gate pair a,b { x a; z b; } "
        "qreg q[2]; creg c[1]; if (c==1) pair q[0],q[1];"
    )
    assert all(isinstance(g, CGate) for g in prog.gates)
    assert [g.gate.name for g in prog.gates] == ["x", "z"]


def test_dynamic_roundtrip_through_writer():
    prog = parse_qasm(DYNAMIC)
    ckt = program_to_circuit(prog)
    text = to_qasm(ckt)
    prog2 = parse_qasm(text)
    assert [str(g) for g in prog2.gates] == [str(g) for g in prog.gates]
    assert prog2.cregisters == prog.cregisters


def test_writer_emits_registers_and_conditions():
    from repro.core.circuit import Circuit

    ckt = Circuit(2)
    reg = ckt.add_classical_register("syndrome", 2)
    n1, n2 = ckt.insert_net(), ckt.insert_net()
    ckt.insert_measure(n1, 0, reg[0])
    ckt.insert_cgate("x", n2, 1, condition=(reg, 3))
    text = to_qasm(ckt)
    assert "creg syndrome[2];" in text
    assert "measure q[0] -> syndrome[0];" in text
    assert "if(syndrome==3) x q[1];" in text


def test_writer_rejects_bit_subset_condition():
    from repro.core.circuit import Circuit

    ckt = Circuit(2)
    ckt.add_classical_register("c", 2)
    net = ckt.insert_net()
    # condition over one bit of a two-bit register: not expressible in QASM2
    ckt.insert_cgate("x", net, 1, condition=((0,), 1))
    with pytest.raises(QasmSyntaxError):
        to_qasm(ckt)


def test_parsed_dynamic_circuit_simulates_like_dense():
    import numpy as np

    from repro.core.simulator import QTaskSimulator

    prog = parse_qasm(DYNAMIC)
    ckt = program_to_circuit(prog)
    with QTaskSimulator(ckt, block_size=4, seed=13) as sim:
        sim.update_state()
        np.testing.assert_allclose(sim.state(), dense_state(sim), atol=1e-10)


def test_writer_condition_over_anonymous_register():
    from repro.core.circuit import Circuit

    # a condition covering exactly the anonymous fallback register serialises
    ckt = Circuit(2, num_clbits=1)
    n1, n2 = ckt.insert_net(), ckt.insert_net()
    ckt.insert_measure(n1, 0, 0)
    ckt.insert_cgate("x", n2, 1, condition=((0,), 1))
    text = to_qasm(ckt)
    assert "creg c[1];" in text and "if(c==1) x q[1];" in text
    reparsed = parse_qasm(text)
    assert [str(g) for g in reparsed.gates] == [
        str(h.gate) for net in ckt.nets() for h in net.gates
    ]
