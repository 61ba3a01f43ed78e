"""Circuit intermediate representation and structural metrics.

A Circuit is a flat, validated gate-level program: one qubit index space,
named classical registers, and an ordered instruction list supporting
mid-circuit measurement and register-conditioned gates.  The metrics here
(depth, interaction components, separability split) drive routing and
cutting decisions in the task manager.
"""
from __future__ import annotations

from dataclasses import dataclass

from .gates import GateKind


class ValidationError(ValueError):
    """Structurally invalid circuit: bad index, duplicate name, arity mismatch."""


@dataclass(frozen=True)
class Gate:
    kind: GateKind
    params: tuple[float, ...]
    qubits: tuple[int, ...]
    # Applies iff the creg's unsigned value (bit i has weight 2^i) equals value.
    condition: tuple[str, int] | None = None


@dataclass(frozen=True)
class Measure:
    qubit: int
    creg: str
    bit: int


@dataclass(frozen=True)
class Reset:
    qubit: int


@dataclass(frozen=True)
class Barrier:
    qubits: tuple[int, ...]


Instruction = Gate | Measure | Reset | Barrier


@dataclass(frozen=True)
class Circuit:
    num_qubits: int
    cregs: tuple[tuple[str, int], ...] = ()
    instructions: tuple[Instruction, ...] = ()

    def __post_init__(self):
        validate(self)

    @classmethod
    def _trusted(cls, num_qubits: int, cregs: tuple[tuple[str, int], ...],
                 instructions: tuple[Instruction, ...]) -> "Circuit":
        """A circuit from parts its caller has already checked, not validated
        again: the QASM reader's output and the pieces of a valid circuit."""
        circuit = object.__new__(cls)
        object.__setattr__(circuit, "num_qubits", num_qubits)
        object.__setattr__(circuit, "cregs", cregs)
        object.__setattr__(circuit, "instructions", instructions)
        return circuit

    def creg_size(self, name: str) -> int:
        for cname, size in self.cregs:
            if cname == name:
                return size
        raise KeyError(name)

    @property
    def num_clbits(self) -> int:
        return sum(size for _, size in self.cregs)


def validate(c: Circuit) -> None:
    """Raise ValidationError unless every index and name reference is sound."""
    if c.num_qubits < 0:
        raise ValidationError("num_qubits must be non-negative")
    sizes: dict[str, int] = {}
    for name, size in c.cregs:
        if name in sizes:
            raise ValidationError(f"duplicate creg name {name!r}")
        if size < 1:
            raise ValidationError(f"creg {name!r} must have positive size")
        sizes[name] = size

    def check_qubit(q: int) -> None:
        if not 0 <= q < c.num_qubits:
            raise ValidationError(f"qubit index {q} out of range [0, {c.num_qubits})")

    for instr in c.instructions:
        if isinstance(instr, Gate):
            if len(instr.params) != instr.kind.num_params:
                raise ValidationError(
                    f"gate '{instr.kind.value}' expects {instr.kind.num_params} "
                    f"parameter(s), got {len(instr.params)}"
                )
            if len(instr.qubits) != instr.kind.num_qubits:
                raise ValidationError(
                    f"gate '{instr.kind.value}' expects {instr.kind.num_qubits} "
                    f"qubit(s), got {len(instr.qubits)}"
                )
            for q in instr.qubits:
                check_qubit(q)
            if len(set(instr.qubits)) != len(instr.qubits):
                raise ValidationError(
                    f"gate '{instr.kind.value}' operands must be distinct: {instr.qubits}"
                )
            if instr.condition is not None:
                name, value = instr.condition
                if name not in sizes:
                    raise ValidationError(f"condition references unknown creg {name!r}")
                if value < 0:
                    raise ValidationError("condition value must be unsigned")
        elif isinstance(instr, Measure):
            check_qubit(instr.qubit)
            if instr.creg not in sizes:
                raise ValidationError(f"measure into unknown creg {instr.creg!r}")
            if not 0 <= instr.bit < sizes[instr.creg]:
                raise ValidationError(
                    f"bit index {instr.bit} out of range for creg "
                    f"{instr.creg!r}[{sizes[instr.creg]}]"
                )
        elif isinstance(instr, Reset):
            check_qubit(instr.qubit)
        elif isinstance(instr, Barrier):
            for q in instr.qubits:
                check_qubit(q)
            if len(set(instr.qubits)) != len(instr.qubits):
                raise ValidationError(f"barrier qubits must be distinct: {instr.qubits}")
        else:
            raise ValidationError(f"unknown instruction {instr!r}")


class CircuitBuilder:
    """Incremental construction helper; build() returns the validated Circuit."""

    def __init__(self, num_qubits: int, cregs: tuple[tuple[str, int], ...] = ()):
        self.num_qubits = num_qubits
        self.cregs = tuple(cregs)
        self.instructions: list[Instruction] = []

    def gate(self, kind, qubits, params=(), condition=None) -> "CircuitBuilder":
        kind = GateKind(kind)
        self.instructions.append(
            Gate(kind, tuple(float(p) for p in params), tuple(qubits), condition)
        )
        return self

    def h(self, q, condition=None):
        return self.gate(GateKind.H, (q,), condition=condition)

    def x(self, q, condition=None):
        return self.gate(GateKind.X, (q,), condition=condition)

    def y(self, q, condition=None):
        return self.gate(GateKind.Y, (q,), condition=condition)

    def z(self, q, condition=None):
        return self.gate(GateKind.Z, (q,), condition=condition)

    def rx(self, theta, q, condition=None):
        return self.gate(GateKind.RX, (q,), (theta,), condition)

    def ry(self, theta, q, condition=None):
        return self.gate(GateKind.RY, (q,), (theta,), condition)

    def rz(self, lam, q, condition=None):
        return self.gate(GateKind.RZ, (q,), (lam,), condition)

    def u(self, theta, phi, lam, q, condition=None):
        return self.gate(GateKind.U, (q,), (theta, phi, lam), condition)

    def cx(self, control, target, condition=None):
        return self.gate(GateKind.CX, (control, target), condition=condition)

    def cz(self, a, b, condition=None):
        return self.gate(GateKind.CZ, (a, b), condition=condition)

    def swap(self, a, b, condition=None):
        return self.gate(GateKind.SWAP, (a, b), condition=condition)

    def measure(self, qubit, creg, bit):
        self.instructions.append(Measure(qubit, creg, bit))
        return self

    def measure_all(self, creg):
        """Measure qubit i into bit i of the named creg."""
        for q in range(self.num_qubits):
            self.measure(q, creg, q)
        return self

    def reset(self, qubit):
        self.instructions.append(Reset(qubit))
        return self

    def barrier(self, *qubits):
        self.instructions.append(Barrier(tuple(qubits) or tuple(range(self.num_qubits))))
        return self

    def build(self) -> Circuit:
        return Circuit(self.num_qubits, self.cregs, tuple(self.instructions))


def gate_count(c: Circuit) -> int:
    """Number of Gate instructions; measures, resets and barriers excluded."""
    return sum(1 for instr in c.instructions if isinstance(instr, Gate))


def has_conditionals(c: Circuit) -> bool:
    return any(isinstance(i, Gate) and i.condition is not None for i in c.instructions)


def has_mid_circuit(c: Circuit) -> bool:
    """True if any measure or reset is followed by a later gate."""
    seen_collapse = False
    for instr in c.instructions:
        if isinstance(instr, (Measure, Reset)):
            seen_collapse = True
        elif isinstance(instr, Gate) and seen_collapse:
            return True
    return False


def is_static(c: Circuit) -> bool:
    """Static circuits can be sampled from one final state (no feed-forward)."""
    return not has_conditionals(c) and not has_mid_circuit(c)


def depth(c: Circuit) -> int:
    """Longest chain of instructions sharing a qubit or classical bit.

    Standard per-wire layering: barriers synchronize their qubits at depth 0,
    a measure occupies both its qubit and classical-bit wire, and a
    conditioned gate occupies every bit-wire of its condition creg.
    """
    qubit_level = [0] * c.num_qubits
    bit_level = {
        (name, i): 0 for name, size in c.cregs for i in range(size)
    }
    longest = 0
    for instr in c.instructions:
        if isinstance(instr, Barrier):
            if instr.qubits:
                sync = max(qubit_level[q] for q in instr.qubits)
                for q in instr.qubits:
                    qubit_level[q] = sync
            continue
        qwires: tuple[int, ...]
        bwires: list[tuple[str, int]] = []
        if isinstance(instr, Gate):
            qwires = instr.qubits
            if instr.condition is not None:
                name = instr.condition[0]
                bwires = [(name, i) for i in range(c.creg_size(name))]
        elif isinstance(instr, Measure):
            qwires = (instr.qubit,)
            bwires = [(instr.creg, instr.bit)]
        else:  # Reset
            qwires = (instr.qubit,)
        level = max(
            [qubit_level[q] for q in qwires] + [bit_level[b] for b in bwires]
        ) + 1
        for q in qwires:
            qubit_level[q] = level
        for b in bwires:
            bit_level[b] = level
        longest = max(longest, level)
    return longest


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _components_uf(c: Circuit) -> _UnionFind:
    uf = _UnionFind(c.num_qubits)
    writers: dict[str, set[int]] = {}
    first_writer: dict[tuple[str, int], int] = {}
    for instr in c.instructions:
        if isinstance(instr, Measure):
            writers.setdefault(instr.creg, set()).add(instr.qubit)
            # A bit holds its last write, so every writer of one bit shares a
            # component and the overwrite order stays the circuit's.
            uf.union(first_writer.setdefault((instr.creg, instr.bit), instr.qubit),
                     instr.qubit)
    for instr in c.instructions:
        if not isinstance(instr, Gate):
            continue
        for a, b in zip(instr.qubits, instr.qubits[1:]):
            uf.union(a, b)
        if instr.condition is not None:
            # Classical feed-forward couples the conditioned qubits with every
            # qubit whose measurement feeds the condition creg.
            for writer in writers.get(instr.condition[0], ()):
                uf.union(instr.qubits[0], writer)
    return uf


def interaction_components(c: Circuit) -> list[set[int]]:
    """Disjoint qubit sets coupled by multi-qubit gates, feed-forward, or
    measures into the same creg bit.

    Unreferenced qubits form singleton components; the result is sorted by
    smallest member and partitions ``{0..num_qubits-1}``.
    """
    uf = _components_uf(c)
    groups: dict[int, set[int]] = {}
    for q in range(c.num_qubits):
        groups.setdefault(uf.find(q), set()).add(q)
    return sorted(groups.values(), key=min)


def split_circuit(c: Circuit) -> list[Circuit]:
    """Split a circuit into independent pieces, one per interaction component,
    in ``interaction_components`` order.  Piece qubit j is the component's
    j-th smallest original qubit.

    Every piece keeps the circuit's cregs verbatim and writes only the bits
    its own qubits are measured into, so every other bit reads 0 and all
    pieces print keys in the circuit's layout.  No bit has writers in two
    pieces, and a condition's creg is written only inside the reading
    piece, so a piece sees the register values the whole circuit would.
    """
    pieces: list[Circuit] = []
    for comp in interaction_components(c):
        qubits = sorted(comp)
        local = {orig: new for new, orig in enumerate(qubits)}
        instrs: list[Instruction] = []
        for instr in c.instructions:
            if isinstance(instr, Barrier):
                kept = tuple(local[q] for q in instr.qubits if q in local)
                if kept:
                    instrs.append(Barrier(kept))
            elif isinstance(instr, Gate):
                if instr.qubits[0] in local:
                    instrs.append(Gate(instr.kind, instr.params,
                                       tuple(local[q] for q in instr.qubits), instr.condition))
            elif instr.qubit in local:
                instrs.append(Measure(local[instr.qubit], instr.creg, instr.bit)
                              if isinstance(instr, Measure) else Reset(local[instr.qubit]))
        pieces.append(Circuit._trusted(len(qubits), c.cregs, tuple(instrs)))
    return pieces
