"""OpenQASM 2.0 subset parser and serializer.

Accepted programs start with ``OPENQASM 2.0;`` and may use the built-in gate
vocabulary (see gates.GateKind), register declarations, measure, reset,
barrier, and ``if (creg == n)`` conditioned gates.  Register operands
broadcast per the language rules.

Numbers use ASCII digits: integers (``12``) and reals (``0.5``, ``.5``,
``5.``, ``1e-3``, ``2.5E+2``; an exponent needs at least one digit).  A gate
parameter is ``[±]NUM``, ``[±]pi``, ``[±]NUM*pi`` or ``[±]pi*NUM``, and each
pi form may end in ``/NUM``.  Other parameter expressions (``2*3``, ``1/2``,
``pi*pi``, ``sin(1)``) are rejected, and so are a zero denominator and an
angle that is not finite (``1e999``).

Custom gate definitions, opaque declarations and includes other than
``qelib1.inc`` raise UnsupportedFeature; malformed text raises
QasmSyntaxError; bad register sizes, names, indices and operand counts raise
circuit.ValidationError.  All errors carry a 1-based line and column.

``parse_qasm`` reads a text in one pass of ``_Parser``, with one set of
registers and one instruction list.  Its statement reader goes first, one
match of ``_STATEMENT`` per statement, over the plain form that
``serialize_qasm`` prints (indexed operands, numeric parameters, no
comments, barriers or pi forms).  It stops at the first statement it does
not match or that the token grammar would reject, and the token grammar
tokenizes the text from there and reads the rest.  So the token grammar
raises every error, with its class, position and message.  A text the
reader takes whole is never tokenized.
"""
from __future__ import annotations

import math
import re
from typing import NoReturn

from .circuit import Barrier, Circuit, Gate, Instruction, Measure, Reset, ValidationError
from .gates import GateKind


class QasmError(Exception):
    """Base for positioned QASM errors."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
        self.message = message


class QasmSyntaxError(QasmError):
    pass


class UnsupportedFeature(QasmError):
    pass


_KEYWORDS = {"OPENQASM", "include", "qreg", "creg", "measure", "reset", "barrier", "if", "gate", "opaque"}

# One alternative per token kind, tried in order.  An ID starts with a
# letter or "_" (checked in _tokenize: "[^\W\d]" also admits numerals such
# as "²"); BAD catches any other character.  A REAL may end in a bare
# exponent ("1e", "2.5e-") so that it stays one token; number() rejects it.
_TOKEN = re.compile(
    r"""
    (?P<NL>\n)
    | (?P<SKIP>[ \t\r]+)
    | (?P<COMMENT>//[^\n]*)
    | (?P<STR>"[^"\n]*")
    | (?P<REAL>(?:[0-9]+\.[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]*)?|[0-9]+[eE][+-]?[0-9]*)
    | (?P<INT>[0-9]+)
    | (?P<ID>[^\W\d]\w*)
    | (?P<SYM>->|==|[;,()\[\]+\-*/{}])
    | (?P<BAD>.)
    """,
    re.VERBOSE,
)

Token = tuple[str, str, int, int]  # kind, text, line, column


def _fail(cls: type[Exception], tok: Token, message: str) -> NoReturn:
    """Raise ``cls`` at the token's position (ValidationError keeps it in its text)."""
    _, _, line, col = tok
    if cls is ValidationError:
        raise ValidationError(f"line {line}, column {col}: {message}")
    raise cls(line, col, message)


def _tokenize(text: str, start: int = 0) -> list[Token]:
    """The tokens of ``text[start:]``, positioned in the whole text; ``start``
    is 0 or just past the whitespace after a ``;``."""
    tokens: list[Token] = []
    # end: past the last match other than a comment; EOF's column comes from it.
    line, line_start, end = text.count("\n", 0, start) + 1, text.rfind("\n", 0, start) + 1, start
    for m in _TOKEN.finditer(text, start):
        kind, lexeme = m.lastgroup, m.group()
        if kind == "NL":
            line, line_start, end = line + 1, m.end(), m.end()
            continue
        if kind == "COMMENT":
            continue
        end = m.end()
        if kind == "SKIP":
            continue
        tok = (kind, lexeme, line, m.start() - line_start + 1)
        if kind == "BAD" or (kind == "ID" and not (lexeme[0].isalpha() or lexeme[0] == "_")):
            bad = "unterminated string" if lexeme == '"' else f"unexpected character {lexeme[0]!r}"
            _fail(QasmSyntaxError, tok, bad)
        tokens.append(("STR", lexeme[1:-1], *tok[2:]) if kind == "STR" else tok)
    tokens.append(("EOF", "", line, end - line_start + 1))
    return tokens


def _finite(start: Token, value: float) -> float:
    if not math.isfinite(value):
        _fail(QasmSyntaxError, start, "angle is not finite")
    return value


def _int(tok: Token) -> int:
    """The value of an INT token; int() refuses one past its digit limit."""
    try:
        return int(tok[1])
    except ValueError:
        _fail(QasmSyntaxError, tok, f"integer of {len(tok[1])} digits is too long")


_GATES = {kind.value: kind for kind in GateKind} | {"U": GateKind.U, "CX": GateKind.CX}
# qelib1 names outside the supported vocabulary; recognized so the error says
# "unsupported" rather than "unknown".
_KNOWN_UNSUPPORTED = {
    "u0", "u1", "u2", "u3", "p", "sx", "sxdg", "cy", "ch", "ccx", "cswap",
    "crx", "cry", "crz", "cu1", "cp", "cu3", "csx", "cu", "rxx", "rzz",
    "rccx", "rc3x", "c3x", "c3sqrtx", "c4x",
}


# The statement reader's grammar.  Whitespace may sit between any two tokens,
# as in the token grammar.  Integers stop at nine digits, so int() never
# meets its digit limit here.
_S = r"[ \t\r\n]*"
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_INT = r"[0-9]{1,9}"
_NUM = r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
_HEADER = re.compile(rf"{_S}OPENQASM[ \t\r\n]+2\.0{_S};{_S}")
_STATEMENT = re.compile(
    rf"""(?:
      (?P<decl>[qc])reg[ \t\r\n]+(?P<reg>{_NAME}){_S}\[{_S}(?P<size>{_INT}){_S}\]
    | reset[ \t\r\n]+(?P<reset>{_NAME}){_S}\[{_S}(?P<reset_i>{_INT}){_S}\]
    | measure[ \t\r\n]+(?P<mq>{_NAME}){_S}\[{_S}(?P<mq_i>{_INT}){_S}\]
        {_S}->{_S}(?P<mc>{_NAME}){_S}\[{_S}(?P<mc_i>{_INT}){_S}\]
    | (?P<include>include){_S}"qelib1\.inc"
    | (?:if{_S}\({_S}(?P<cond>{_NAME}){_S}=={_S}(?P<value>{_INT}){_S}\){_S})?
        (?P<gate>{_NAME})
        (?:{_S}\({_S}(?P<params>{_NUM}(?:{_S},{_S}{_NUM})*){_S}\){_S}|[ \t\r\n]+)
        (?P<a>{_NAME}){_S}\[{_S}(?P<a_i>{_INT}){_S}\]
        (?:{_S},{_S}(?P<b>{_NAME}){_S}\[{_S}(?P<b_i>{_INT}){_S}\])?
    ){_S};{_S}""",
    re.VERBOSE,
)


# (gate name, operand count, parameter count) -> kind, for the gate
# statements the statement reader takes.
_SHAPES = {(name, kind.num_qubits, kind.num_params): kind for name, kind in _GATES.items()}


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens: list[Token] = []
        self.pos = 0
        # Name -> a range: a qreg's flat qubit indices, a creg's bit indices.
        self.qregs: dict[str, range] = {}
        self.cregs: dict[str, range] = {}
        self.num_qubits = 0
        self.instructions: list[Instruction] = []

    # token helpers ------------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> Token:
        tok = self.peek()
        if tok[0] != kind or (text is not None and tok[1] != text):
            want = text if text is not None else kind
            got = tok[1] if tok[0] != "EOF" else "end of input"
            _fail(QasmSyntaxError, tok, f"expected {want!r}, found {got!r}")
        return self.next()

    def at_sym(self, sym: str) -> bool:
        tok = self.peek()
        return tok[0] == "SYM" and tok[1] == sym

    def at_pi(self) -> bool:
        tok = self.peek()
        return tok[0] == "ID" and tok[1] == "pi"

    # grammar ------------------------------------------------------------
    def parse(self) -> Circuit:
        start = self.read_statements()
        if start == 0 or start < len(self.text):  # the token grammar reads the rest
            self.tokens = _tokenize(self.text, start)
            if start == 0:
                self.header()
            while self.peek()[0] != "EOF":
                self.statement()
        # both readers check every index, name and count as they read
        cregs = tuple([(name, len(bits)) for name, bits in self.cregs.items()])
        return Circuit._trusted(self.num_qubits, cregs, tuple(self.instructions))

    def read_statements(self) -> int:
        """Read statements at one ``_STATEMENT`` match each; return the offset
        of the first one not taken (0 if the header is not), or the text's end.

        It takes the header, ``include "qelib1.inc"``, ``qreg``/``creg``,
        gates on indexed operands with plain numeric parameters and an
        optional ``if(c==n)``, ``measure a[i] -> b[j]`` and ``reset a[i]``.
        A statement the token grammar rejects is not taken either: unknown
        gates and registers (one declared only later too), indices out of
        range, keywords as names, duplicate or empty registers, angles that
        are not finite, wrong operand or parameter counts and repeated
        operands.  So it never raises, and a statement it takes changes the
        parser as the token grammar would.
        """
        text = self.text
        header = _HEADER.match(text)
        if header is None:
            return 0
        pos, end = header.end(), len(text)
        qregs, cregs, append = self.qregs, self.cregs, self.instructions.append
        match = _STATEMENT.match
        while pos < end:
            m = match(text, pos)
            if m is None:
                return pos
            (decl, reg, size, reset, reset_i, mq, mq_i, mc, mc_i, include,
             cond, value, gate, params, a, a_i, b, b_i) = m.groups()
            try:
                if gate is not None:
                    qubit = qregs[a][int(a_i)]
                    qubits = (qubit,) if b is None else (qubit, qregs[b][int(b_i)])
                    angles = () if params is None else tuple(map(float, params.split(",")))
                    kind = _SHAPES[gate, len(qubits), len(angles)]
                    if ((b is not None and qubit == qubits[1]) or (cond is not None and cond not in cregs)
                            or (params is not None and not all(map(math.isfinite, angles)))):
                        return pos
                    append(Gate(kind, angles, qubits, None if cond is None else (cond, int(value))))
                elif mq is not None:
                    append(Measure(qregs[mq][int(mq_i)], mc, cregs[mc][int(mc_i)]))
                elif reset is not None:
                    append(Reset(qregs[reset][int(reset_i)]))
                elif include is None:
                    count = int(size)
                    if reg in _KEYWORDS or reg in qregs or reg in cregs or count < 1:
                        return pos
                    if decl == "q":
                        qregs[reg] = range(self.num_qubits, self.num_qubits + count)
                        self.num_qubits += count
                    else:
                        cregs[reg] = range(count)
            except (KeyError, IndexError):
                return pos
            pos = m.end()
        return pos

    def header(self) -> None:
        tok = self.peek()
        if tok[:2] != ("ID", "OPENQASM"):
            _fail(QasmSyntaxError, tok, "program must begin with 'OPENQASM 2.0;'")
        self.next()
        version = self.peek()
        if version[0] not in ("REAL", "INT"):
            _fail(QasmSyntaxError, version, "expected version number")
        if version[1] != "2.0":
            _fail(UnsupportedFeature, version, f"only OpenQASM 2.0 is supported, got {version[1]}")
        self.next()
        self.expect("SYM", ";")

    def statement(self) -> None:
        kind, text, _, _ = tok = self.peek()
        if kind != "ID":
            _fail(QasmSyntaxError, tok, f"expected statement, found {text!r}")
        if text == "include":
            self.next()
            path = self.expect("STR")
            if path[1] != "qelib1.inc":
                _fail(UnsupportedFeature, path, f"cannot include {path[1]!r}")
            self.expect("SYM", ";")
        elif text in ("qreg", "creg"):
            self.register_decl(text)
        elif text in ("gate", "opaque"):
            _fail(UnsupportedFeature, tok, f"{text} definitions are not supported")
        elif text == "if":
            self.if_statement()
        elif text == "measure":
            self.measure_statement()
        elif text == "reset":
            self.reset_statement()
        elif text == "barrier":
            self.barrier_statement()
        else:
            self.gate_statement(condition=None)

    def register_decl(self, which: str) -> None:
        self.next()
        name_tok = self.expect("ID")
        name = name_tok[1]
        if name in _KEYWORDS:
            _fail(QasmSyntaxError, name_tok, f"invalid register name {name!r}")
        self.expect("SYM", "[")
        size_tok = self.expect("INT")
        self.expect("SYM", "]")
        self.expect("SYM", ";")
        size = _int(size_tok)
        if size < 1:
            _fail(ValidationError, size_tok, "register size must be positive")
        if name in self.qregs or name in self.cregs:
            _fail(ValidationError, name_tok, f"duplicate register name {name!r}")
        if which == "qreg":
            self.qregs[name] = range(self.num_qubits, self.num_qubits + size)
            self.num_qubits += size
        else:
            self.cregs[name] = range(size)

    def argument(self) -> tuple[Token, int | None]:
        """Register reference: bare name or name[index]."""
        name = self.expect("ID")
        index = None
        if self.at_sym("["):
            self.next()
            index = _int(self.expect("INT"))
            self.expect("SYM", "]")
        return name, index

    def register(self, which: str, name: Token) -> range:
        """The range of the named ``qreg`` or ``creg``."""
        members = (self.qregs if which == "qreg" else self.cregs).get(name[1])
        if members is None:
            _fail(ValidationError, name, f"unknown {which} {name[1]!r}")
        return members

    def resolve(self, which: str, name: Token, index: int | None = None):
        """Members of the named ``qreg`` or ``creg``: all of them, or the
        indexed one.  A qreg's members are its flat qubit indices, a creg's
        are ``(name, bit)`` pairs, built here."""
        members = self.register(which, name)
        if index is not None:
            if not 0 <= index < len(members):
                _fail(ValidationError, name,
                      f"index {index} out of range for {which} {name[1]}[{len(members)}]")
            members = members[index:index + 1]
        return members if which == "qreg" else [(name[1], bit) for bit in members]

    def number(self, message: str = "expected number") -> tuple[Token, float]:
        tok = self.peek()
        if tok[0] not in ("INT", "REAL"):
            _fail(QasmSyntaxError, tok, message)
        if tok[1][-1] in "eE+-":
            _fail(QasmSyntaxError, tok, f"exponent of {tok[1]!r} has no digits")
        return self.next(), float(tok[1])

    def angle(self) -> float:
        """[±]NUM, or [±]pi / NUM*pi / pi*NUM with an optional /NUM."""
        start = self.peek()
        sign = 1.0
        while self.at_sym("-") or self.at_sym("+"):
            if self.next()[1] == "-":
                sign = -sign
        tok = self.peek()
        if tok[0] in ("INT", "REAL"):
            value = self.number()[1]
            if not self.at_sym("*"):
                return _finite(start, sign * value)
            star = self.next()
            if not self.at_pi():
                _fail(UnsupportedFeature, star, "only pi fractions are supported in parameters")
            self.next()
            value *= math.pi
        elif self.at_pi():
            self.next()
            value = math.pi
            if self.at_sym("*"):
                self.next()
                value *= self.number("expected factor after '*'")[1]
        else:
            _fail(UnsupportedFeature, tok,
                  f"parameter {tok[1]!r} is not a numeric literal or pi fraction")
        if self.at_sym("/"):
            self.next()
            den_tok, den = self.number("expected denominator")
            if den == 0.0:
                _fail(QasmSyntaxError, den_tok, "division by zero")
            value /= den
        return _finite(start, sign * value)

    def gate_statement(self, condition: tuple[str, int] | None) -> None:
        name = self.expect("ID")
        kind = _GATES.get(name[1])
        if kind is None:
            if name[1] in _KNOWN_UNSUPPORTED:
                _fail(UnsupportedFeature, name, f"gate {name[1]!r} is outside the supported set")
            _fail(UnsupportedFeature, name, f"unknown gate {name[1]!r}")

        params: list[float] = []
        if self.at_sym("("):
            self.next()
            if not self.at_sym(")"):
                params.append(self.angle())
                while self.at_sym(","):
                    self.next()
                    params.append(self.angle())
            self.expect("SYM", ")")
        if len(params) != kind.num_params:
            _fail(ValidationError, name,
                  f"gate '{kind.value}' expects {kind.num_params} parameter(s), got {len(params)}")

        args = self.arguments()
        if len(args) != kind.num_qubits:
            _fail(ValidationError, name,
                  f"gate '{kind.value}' expects {kind.num_qubits} operand(s), got {len(args)}")

        resolved = [self.resolve("qreg", *arg) for arg in args]
        reg_sizes = {len(r) for r in resolved if len(r) > 1}
        if len(reg_sizes) > 1:
            _fail(ValidationError, name, "broadcast operands must have equal size")
        width = reg_sizes.pop() if reg_sizes else 1
        for i in range(width):
            qubits = tuple(r[i] if len(r) > 1 else r[0] for r in resolved)
            if len(set(qubits)) != len(qubits):
                _fail(ValidationError, name, "gate operands must be distinct")
            self.instructions.append(Gate(kind, tuple(params), qubits, condition))

    def arguments(self) -> list[tuple[Token, int | None]]:
        """Comma-separated register references up to the closing ';'."""
        args = [self.argument()]
        while self.at_sym(","):
            self.next()
            args.append(self.argument())
        self.expect("SYM", ";")
        return args

    def if_statement(self) -> None:
        self.next()
        self.expect("SYM", "(")
        creg = self.expect("ID")
        self.register("creg", creg)
        self.expect("SYM", "==")
        value = self.expect("INT")
        self.expect("SYM", ")")
        body = self.peek()
        if body[0] == "ID" and body[1] in ("measure", "reset", "barrier", "if"):
            _fail(UnsupportedFeature, body, f"conditioned {body[1]!r} is not supported")
        if body[0] != "ID":
            _fail(QasmSyntaxError, body, "expected gate after if(...)")
        self.gate_statement(condition=(creg[1], _int(value)))

    def measure_statement(self) -> None:
        m_tok = self.next()
        src = self.argument()
        self.expect("SYM", "->")
        dst = self.argument()
        self.expect("SYM", ";")
        qubits = self.resolve("qreg", *src)
        bits = self.resolve("creg", *dst)
        if len(qubits) != len(bits):
            _fail(ValidationError, m_tok,
                  f"measure operands differ in size ({len(qubits)} vs {len(bits)})")
        for q, (creg, bit) in zip(qubits, bits):
            self.instructions.append(Measure(q, creg, bit))

    def reset_statement(self) -> None:
        self.next()
        arg = self.argument()
        self.expect("SYM", ";")
        for q in self.resolve("qreg", *arg):
            self.instructions.append(Reset(q))

    def barrier_statement(self) -> None:
        b_tok = self.next()
        qubits = [q for arg in self.arguments() for q in self.resolve("qreg", *arg)]
        if len(set(qubits)) != len(qubits):
            _fail(ValidationError, b_tok, "barrier qubits must be distinct")
        self.instructions.append(Barrier(tuple(qubits)))


def parse_qasm(text: str) -> Circuit:
    """Parse OpenQASM 2.0 source into a validated Circuit.

    Qubits from all qreg declarations are flattened into one index space in
    declaration order; creg declaration order is preserved.
    """
    return _Parser(text).parse()


def _format_angle(value: float) -> str:
    return f"{value:.17g}"


def serialize_qasm(c: Circuit) -> str:
    """Emit OpenQASM 2.0 such that parse_qasm round-trips structurally."""
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";']
    if c.num_qubits > 0:
        lines.append(f"qreg q[{c.num_qubits}];")
    for name, size in c.cregs:
        lines.append(f"creg {name}[{size}];")
    for instr in c.instructions:
        if isinstance(instr, Gate):
            prefix = ""
            if instr.condition is not None:
                prefix = f"if({instr.condition[0]}=={instr.condition[1]}) "
            params = ""
            if instr.params:
                params = "(" + ",".join(_format_angle(p) for p in instr.params) + ")"
            operands = ",".join(f"q[{q}]" for q in instr.qubits)
            lines.append(f"{prefix}{instr.kind.value}{params} {operands};")
        elif isinstance(instr, Measure):
            lines.append(f"measure q[{instr.qubit}] -> {instr.creg}[{instr.bit}];")
        elif isinstance(instr, Reset):
            lines.append(f"reset q[{instr.qubit}];")
        elif isinstance(instr, Barrier):
            operands = ",".join(f"q[{q}]" for q in instr.qubits)
            lines.append(f"barrier {operands};")
    return "\n".join(lines) + "\n"
