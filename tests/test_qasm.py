import math
import re
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorch.circuit import Barrier, Circuit, Gate, Measure, Reset, ValidationError, split_circuit
from qorch.gates import GateKind
from qorch.qasm import (
    QasmError,
    QasmSyntaxError,
    UnsupportedFeature,
    _tokenize,
    _Parser,
    parse_qasm,
    serialize_qasm,
)

BELL = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q -> c;
"""


def test_parse_bell():
    c = parse_qasm(BELL)
    assert c.num_qubits == 2
    assert c.cregs == (("c", 2),)
    assert c.instructions == (
        Gate(GateKind.H, (), (0,), None),
        Gate(GateKind.CX, (), (0, 1), None),
        Measure(0, "c", 0),
        Measure(1, "c", 1),
    )


def test_parse_conditional():
    src = 'OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif(c==1) x q[0];\n'
    c = parse_qasm(src)
    assert c.instructions == (Gate(GateKind.X, (), (0,), ("c", 1)),)


def test_missing_header_is_positioned_syntax_error():
    with pytest.raises(QasmSyntaxError) as err:
        parse_qasm("qreg q[1];\n")
    assert err.value.line == 1


def test_wrong_version_unsupported():
    with pytest.raises(UnsupportedFeature):
        parse_qasm("OPENQASM 3.0;\n")


def test_bad_include_rejected():
    with pytest.raises(UnsupportedFeature):
        parse_qasm('OPENQASM 2.0;\ninclude "other.inc";\n')


def test_gate_definition_unsupported():
    src = "OPENQASM 2.0;\ngate foo a { h a; }\n"
    with pytest.raises(UnsupportedFeature) as err:
        parse_qasm(src)
    assert err.value.line == 2


def test_unknown_gate_unsupported():
    with pytest.raises(UnsupportedFeature):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nfoo q[0];\n")


def test_qelib_gate_outside_subset_unsupported():
    with pytest.raises(UnsupportedFeature):
        parse_qasm("OPENQASM 2.0;\nqreg q[3];\nccx q[0],q[1],q[2];\n")


def test_parameter_expression_unsupported():
    with pytest.raises(UnsupportedFeature):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\nrx(sin(1.0)) q[0];\n")


def test_bad_index_validation_error():
    with pytest.raises(ValidationError) as err:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[5];\n")
    assert "line 3" in str(err.value)


def test_duplicate_register_name_rejected():
    with pytest.raises(ValidationError):
        parse_qasm("OPENQASM 2.0;\nqreg q[1];\ncreg q[1];\n")


def test_pi_fraction_params():
    src = (
        "OPENQASM 2.0;\nqreg q[1];\n"
        "rx(pi/2) q[0];\nrz(-pi) q[0];\nry(3*pi/4) q[0];\nrx(2*pi) q[0];\n"
        "u(pi/2,0,pi) q[0];\n"
    )
    c = parse_qasm(src)
    angles = [i.params for i in c.instructions]
    assert angles[0] == (math.pi / 2,)
    assert angles[1] == (-math.pi,)
    assert angles[2] == (3 * math.pi / 4,)
    assert angles[3] == (2 * math.pi,)
    assert angles[4] == (math.pi / 2, 0.0, math.pi)


def test_register_broadcast_single_qubit_gate():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[3];\nh q;\n")
    assert [i.qubits for i in c.instructions] == [(0,), (1,), (2,)]


def test_register_broadcast_two_qubit_gate():
    c = parse_qasm("OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a,b;\n")
    assert [i.qubits for i in c.instructions] == [(0, 2), (1, 3)]


def test_two_qregs_flatten_in_order():
    c = parse_qasm("OPENQASM 2.0;\nqreg a[2];\nqreg b[1];\nx b[0];\n")
    assert c.num_qubits == 3
    assert c.instructions[0].qubits == (2,)


def test_reset_and_barrier():
    c = parse_qasm("OPENQASM 2.0;\nqreg q[2];\nreset q[0];\nbarrier q;\n")
    assert c.instructions == (Reset(0), Barrier((0, 1)))


def test_conditioned_measure_unsupported():
    with pytest.raises(UnsupportedFeature):
        parse_qasm(
            "OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nif(c==1) measure q[0] -> c[0];\n"
        )


def test_crlf_accepted():
    c = parse_qasm("OPENQASM 2.0;\r\nqreg q[1];\r\nh q[0];\r\n")
    assert c.num_qubits == 1


def test_comments_skipped():
    c = parse_qasm("OPENQASM 2.0;\n// a comment\nqreg q[1]; // trailing\nh q[0];\n")
    assert len(c.instructions) == 1


# -- serialization --------------------------------------------------------


def test_serialize_empty_circuit():
    text = serialize_qasm(Circuit(1))
    assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[1];\n'


def test_bell_round_trip():
    c = parse_qasm(BELL)
    assert parse_qasm(serialize_qasm(c)) == c


def test_angle_round_trip_bit_exact():
    c = Circuit(1, (), (Gate(GateKind.RX, (math.pi / 2,), (0,), None),))
    again = parse_qasm(serialize_qasm(c))
    assert again.instructions[0].params[0] == math.pi / 2


def test_conditional_round_trip():
    src = 'OPENQASM 2.0;\nqreg q[1];\ncreg c[2];\nmeasure q[0] -> c[1];\nif(c==2) z q[0];\n'
    c = parse_qasm(src)
    assert parse_qasm(serialize_qasm(c)) == c


# -- the language, pinned -----------------------------------------------------

CORPUS = Path(__file__).parent / "corpus"
_POSITION = re.compile(r"^line (\d+), column (\d+): ")

# Exception class, line and column of each invalid corpus program.
INVALID = {
    "arity_mismatch.qasm": (ValidationError, 4, 1),
    "bad_include.qasm": (UnsupportedFeature, 2, 9),
    "ccx_unsupported.qasm": (UnsupportedFeature, 4, 1),
    "conditioned_measure.qasm": (UnsupportedFeature, 4, 10),
    "creg_out_of_range.qasm": (ValidationError, 4, 17),
    "custom_gate.qasm": (UnsupportedFeature, 2, 1),
    "duplicate_name.qasm": (ValidationError, 3, 6),
    "exponent_without_digits.qasm": (QasmSyntaxError, 4, 4),
    "measure_size_mismatch.qasm": (ValidationError, 4, 1),
    "missing_header.qasm": (QasmSyntaxError, 1, 1),
    "non_ascii_digit.qasm": (QasmSyntaxError, 2, 8),
    "nonfinite_angle.qasm": (QasmSyntaxError, 4, 4),
    "opaque_gate.qasm": (UnsupportedFeature, 2, 1),
    "param_expression.qasm": (UnsupportedFeature, 4, 5),
    "qubit_out_of_range.qasm": (ValidationError, 3, 3),
    "same_qubit_twice.qasm": (ValidationError, 4, 1),
    "stray_character.qasm": (QasmSyntaxError, 3, 8),
    "unknown_gate.qasm": (UnsupportedFeature, 3, 1),
    "wrong_version.qasm": (UnsupportedFeature, 1, 10),
    "zero_denominator.qasm": (QasmSyntaxError, 4, 7),
}


def _position(exc):
    """(line, column) of a parse error; ValidationError carries it in its text."""
    match = _POSITION.match(str(exc))
    assert match, f"no position in {exc}"
    line, col = int(match[1]), int(match[2])
    if isinstance(exc, QasmError):
        assert (exc.line, exc.column) == (line, col)
    return line, col


def test_invalid_table_covers_the_corpus():
    assert sorted(p.name for p in (CORPUS / "invalid").glob("*.qasm")) == sorted(INVALID)


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_corpus_error_class_and_position(name):
    cls, line, col = INVALID[name]
    with pytest.raises((QasmError, ValidationError)) as err:
        parse_qasm((CORPUS / "invalid" / name).read_text("utf-8"))
    assert type(err.value) is cls
    assert _position(err.value) == (line, col)


_CREGS = (("c0", 1), ("c1", 3), ("flag", 2))
_ANGLES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1.7976931348623157e308, math.pi, -math.pi / 3]
)


@st.composite
def _circuits(draw):
    n = draw(st.integers(0, 4))
    cregs = tuple(draw(st.lists(st.sampled_from(_CREGS), unique=True, max_size=3)))
    kinds = [k for k in GateKind if k.num_qubits <= n]
    instrs = []
    for _ in range(draw(st.integers(0, 12)) if n else 0):
        op = draw(st.sampled_from(("gate", "measure", "reset", "barrier")))
        if op == "gate" or (op == "measure" and not cregs):
            kind = draw(st.sampled_from(kinds))
            qubits = tuple(draw(st.permutations(range(n)))[: kind.num_qubits])
            params = tuple(draw(_ANGLES) for _ in range(kind.num_params))
            condition = None
            if cregs and draw(st.booleans()):
                name, size = draw(st.sampled_from(cregs))
                condition = (name, draw(st.integers(0, 2**size - 1)))
            instrs.append(Gate(kind, params, qubits, condition))
        elif op == "measure":
            name, size = draw(st.sampled_from(cregs))
            instrs.append(Measure(draw(st.integers(0, n - 1)), name, draw(st.integers(0, size - 1))))
        elif op == "reset":
            instrs.append(Reset(draw(st.integers(0, n - 1))))
        else:
            perm = draw(st.permutations(range(n)))
            instrs.append(Barrier(tuple(perm[: draw(st.integers(1, n))])))
    return Circuit(n, cregs, tuple(instrs))


@settings(max_examples=200, deadline=None)
@given(_circuits())
def test_serialize_parse_round_trip(circuit):
    again = parse_qasm(serialize_qasm(circuit))
    assert again == circuit
    assert repr(again) == repr(circuit)  # angles bit-exact, -0.0 included


@settings(max_examples=200, deadline=None)
@given(_circuits())
def test_trusted_constructor_equals_validating_one(circuit):
    # parse_qasm and split_circuit build circuits without validating again,
    # so what they build must pass validation and equal a validated circuit
    parts = (circuit.num_qubits, circuit.cregs, circuit.instructions)
    trusted = Circuit._trusted(*parts)
    assert trusted == circuit and hash(trusted) == hash(circuit)
    assert repr(trusted) == repr(circuit)
    parsed = parse_qasm(serialize_qasm(circuit))
    for built in [parsed] + split_circuit(circuit):
        assert Circuit(built.num_qubits, built.cregs, built.instructions) == built


_VALID = sorted((CORPUS / "valid").glob("*.qasm"))


@pytest.mark.parametrize("path", _VALID, ids=lambda path: path.stem)
def test_parsed_corpus_passes_validation(path):
    parsed = parse_qasm(path.read_text(encoding="utf-8"))
    assert Circuit(parsed.num_qubits, parsed.cregs, parsed.instructions) == parsed
# Single characters of the language and around it, plus the short fragments
# that reach the number and angle rules: exponents, zero denominators,
# overflowing literals and digits that are not ASCII.
_EDITS = ("",) + tuple("q[]();,->=*/+.0123456789eEpi \t\n\"_@xc") + (
    "²", "٣", "½", "é", "/0", "e", "e+", "1e999", "*pi", "pi*", "/1e-999",
)
# Edits land where numbers and angles start or continue.
_SPOTS = re.compile(r"[0-9(\[/]")


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_VALID), st.randoms(use_true_random=False))
def test_edited_programs_raise_only_typed_errors(path, rng):
    text = path.read_text("utf-8")
    for _ in range(rng.randint(1, 3)):
        at = rng.choice([m.end() for m in _SPOTS.finditer(text)] or [0])
        text = text[:at] + rng.choice(_EDITS) + text[at + rng.randint(0, 2) :]
    try:
        parse_qasm(text)
    except (QasmError, ValidationError) as exc:
        _position(exc)


# -- the statement reader, held to the token grammar ---------------------------

class _TokenOnly(_Parser):
    """The token grammar alone: a statement reader that takes nothing."""

    def read_statements(self) -> int:
        return 0


def _outcome(parse, text):
    """The circuit's repr, or the error's class, line, column and message."""
    try:
        return repr(parse(text))
    except (QasmError, ValidationError) as exc:
        return type(exc), _position(exc), str(exc)


def _same_as_token_grammar(text):
    """parse_qasm's outcome on ``text``, held equal to the token grammar's."""
    outcome = _outcome(parse_qasm, text)
    assert outcome == _outcome(lambda t: _TokenOnly(t).parse(), text)
    return outcome


def _stop(text):
    """Where the statement reader stops in ``text``, and the parser it leaves."""
    parser = _Parser(text)
    return parser.read_statements(), parser


# Valid corpus programs where the statement reader stops before the end, so
# the token grammar reads the rest: broadcast operands, pi forms, barriers,
# comments.
DECLINED = {
    "all_gates.qasm", "barrier_reset.qasm", "bell.qasm", "broadcast_cx.qasm",
    "broadcast_h.qasm", "comments.qasm", "crlf.qasm", "disconnected.qasm", "ghz5.qasm",
    "negative_angles.qasm", "pi_fractions.qasm", "register_measure_single.qasm",
    "reset_broadcast.qasm", "swap_network.qasm", "uppercase_builtins.qasm",
}


def test_statement_path_declines_only_the_named_corpus_files():
    declined = set()
    for path in _VALID:
        text = path.read_text("utf-8")
        if _stop(text)[0] < len(text):
            declined.add(path.name)
        assert isinstance(_same_as_token_grammar(text), str), path.name
    assert declined == DECLINED


_HEAD = 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg a[1];\nqreg q[2];\ncreg c[2];\n'


@pytest.mark.parametrize("body, valid", [
    ("h q[0]; // comment\n", True),
    ("h q;\n", True),
    ("rx(pi/2) q[0];\n", True),
    ("barrier q[0];\n", True),
    ("qreg é[1];\n", True),
    ("h r[0];\n", False),
    ("h a[1];\n", False),  # a[1] would be q[0] in the flat index space
    ("measure a[1] -> c[0];\n", False),
    ("reset a[1];\n", False),
    ("measure q[0] -> c[2];\n", False),
    ("measure q[0] -> q[0];\n", False),
    ("cx q[0],q[0];\n", False),
    ("cx q[0];\n", False),
    ("h q[0],q[1];\n", False),
    ("rx(1e999) q[0];\n", False),
    ("rx(1,2) q[0];\n", False),
    ("h() q[0];\n", True),
    ("if(d==1) x q[0];\n", False),
    ("if(d==1) x q[0];\ncreg d[1];\n", False),  # a creg declared after its use
    ("measure q[0] -> d[0];\ncreg d[1];\n", False),
    ("hq[0];\n", False),
    ("H q[0];\n", False),
    ("creg if[1];\n", False),
    ("qreg b[0];\n", False),
    ("creg a[1];\n", False),
    ("qreg c[1];\n", False),
    ("h q[0]\n", False),
    ("measure q[0] - > c[0];\n", False),
])
def test_statement_path_declines(body, valid):
    text = _HEAD + body
    stop, parser = _stop(text)
    assert stop == len(_HEAD) + max(body.find("//"), 0)  # at the body, or at its comment
    # what the reader leaves is the token grammar's reading up to the stop
    done = _TokenOnly(text[:stop])
    done.parse()
    assert (parser.qregs, parser.cregs, parser.instructions) == (done.qregs, done.cregs, done.instructions)
    assert isinstance(_same_as_token_grammar(text), str) == valid


# Headers it does not take, and an index past int()'s digit limit, which the
# token grammar meets as a ValueError.
@pytest.mark.parametrize("text", [
    "OPENQASM 2.1;\n", "OPENQASM 2.00;\n", "OPENQASM2.0;\n", "qreg q[1];\n", "",
    _HEAD + "h q[" + "1" * 5000 + "];\n",
])
def test_statement_path_declines_without_raising(text):
    assert _stop(text)[0] == (len(_HEAD) if text.startswith(_HEAD) else 0)


def test_statement_path_takes_whitespace_between_tokens():
    text = (" \r\nOPENQASM\t2.0 ;include\"qelib1.inc\";qreg\nq [ 2 ] ;creg c[02];\n"
            "if ( c == 1 )u ( -0 , +.5 ,5.e-1 )q[1];cx q[0] , q [1];\n"
            "measure q[1]->c[0];reset\tq[0] ;\n\n")
    assert _stop(text)[0] == len(text)
    assert isinstance(_same_as_token_grammar(text), str)


@pytest.mark.parametrize("name", sorted(INVALID))
def test_statement_path_declines_invalid_corpus(name):
    text = (CORPUS / "invalid" / name).read_text("utf-8")
    assert _stop(text)[0] < len(text)
    assert not isinstance(_same_as_token_grammar(text), str)


@settings(max_examples=200, deadline=None)
@given(_circuits())
def test_statement_path_reads_serialized_circuits(circuit):
    text = serialize_qasm(circuit)
    barrier = any(isinstance(instr, Barrier) for instr in circuit.instructions)
    assert (_stop(text)[0] < len(text)) == barrier
    assert _same_as_token_grammar(text) == repr(circuit)


# The corpus, and each valid program as serialize_qasm prints it, which the
# statement reader reads to the end unless it holds a barrier.
_EDIT_BASES = [p.read_text("utf-8") for p in _VALID] + [
    serialize_qasm(parse_qasm(p.read_text("utf-8"))) for p in _VALID
]


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_EDIT_BASES), st.randoms(use_true_random=False))
def test_statement_path_agrees_with_token_parser_on_edited_programs(text, rng):
    for _ in range(rng.randint(1, 3)):
        at = rng.choice([m.end() for m in _SPOTS.finditer(text)] or [0])
        text = text[:at] + rng.choice(_EDITS) + text[at + rng.randint(0, 2) :]
    _same_as_token_grammar(text)


# Statements in another order: a register used before its declaration is
# an error the token grammar raises at the use, so the statement reader
# stops there.
@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_EDIT_BASES[len(_VALID):]), st.randoms(use_true_random=False))
def test_statement_path_agrees_with_token_parser_on_reordered_statements(text, rng):
    header, *body = text.splitlines()
    rng.shuffle(body)
    text = "\n".join([header, *body]) + "\n"
    _same_as_token_grammar(text)


# Statements the reader does not take, valid or not, put between the
# statements of serialized programs: the token grammar reads from the first
# of them on, with the registers and instructions the reader left.
_INSERTS = (
    "h q;", "barrier q[0];", "rx(pi/2) q[0];", "// comment", "h q[0]; // c", "reset q;",
    "measure q -> c0;", "u(pi,0,pi) q[0];", "qreg é[1];", "h() q[0];", "rx(--1) q[0];",
    "h r[0];", "cx q[0],q[0];", "cx q[0];", "h q[0],q[1];", "rx(1e999) q[0];",
    "rx(1,2) q[0];", "if(d==1) x q[0];", "hq[0];", "H q[0];", "creg if[1];", "qreg b[0];",
    "qreg q[1];", "h q[0]", "measure q[0] - > c[0];", "@", "ccx q[0],q[1],q[2];",
    "h q[99];", "measure q[0] -> c1[7];", "rx(1e) q[0];", 'include "other.inc";',
    "OPENQASM 2.0;", "x q[1234567890];", '"abc', "rx(2*3) q[0];", "swap q[1],q[1];",
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(_EDIT_BASES[len(_VALID):]), st.randoms(use_true_random=False))
def test_statement_path_agrees_with_token_parser_on_mixed_texts(text, rng):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 4)):
        lines.insert(rng.randint(1, len(lines)), rng.choice(_INSERTS))
    _same_as_token_grammar(rng.choice(["\n", "\r\n", " "]).join(lines) + "\n")


def test_declined_text_is_tokenized_from_its_first_declined_statement(monkeypatch):
    calls = []

    def tokenize(text, *start):
        calls.append(tokens := _tokenize(text, *start))
        return tokens

    monkeypatch.setattr("qorch.qasm._tokenize", tokenize)
    circuit = parse_qasm(_HEAD + "h q[0];\nh q;  // broadcast\ncx q[0],q[1];\n")
    assert len(circuit.instructions) == 4
    [tokens] = calls
    assert tokens[0] == ("ID", "h", 7, 1)
    assert tokens[-1] == ("EOF", "", 9, 1)


# An integer past int()'s digit limit (4300 by default) is a positioned
# syntax error at each place the token parser reads one.
_LONG = "1" * 5000


@pytest.mark.parametrize("text, line, col", [
    (f"OPENQASM 2.0;\nqreg q[{_LONG}];\n", 2, 8),
    (f"OPENQASM 2.0;\nqreg q[2];\nh q[{_LONG}];\n", 3, 5),
    (f"OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nif(c=={_LONG}) x q[0];\n", 4, 7),
], ids=["register_decl", "argument", "if_statement"])
def test_integer_past_digit_limit_is_syntax_error(text, line, col):
    with pytest.raises(QasmSyntaxError, match="integer of 5000 digits is too long") as err:
        parse_qasm(text)
    assert (err.value.line, err.value.column) == (line, col)


def test_large_creg_declaration_stores_its_size():
    # the comment sends the text to the token parser
    tracemalloc.start()
    try:
        circuit = parse_qasm("OPENQASM 2.0;\n// x\ncreg c[2000000];\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert circuit.cregs == (("c", 2000000),)
    assert peak < 2**20
