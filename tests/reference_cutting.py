"""Reference cut-and-recombine pipeline with per-piece creg layouts.

``split_circuit`` and ``aggregate`` here are the code that cut circuits
before every piece kept the circuit's cregs: a piece's cregs were sliced
to the bits it owned and re-indexed (``CregSlice``), and ``aggregate``
parsed every key back into one integer of the circuit's bits, held as a
Python integer so a layout may be of any width.  They are kept so the
integer-row merge can be held to them bit for bit: same keys, same key
order, same counts.  ``reference_execute`` is the task path around them: run the
whole circuit when it does not cut, else run each piece on its derived
seed and aggregate.
"""
from dataclasses import dataclass, field

import numpy as np

from qorch.circuit import Barrier, Circuit, Gate, Measure, Reset, _UnionFind
from qorch.seeds import derive_seed
from qorch.statevec import Counts, run


@dataclass(frozen=True)
class CregSlice:
    """Subcircuit creg bit ``j`` corresponds to original creg bit ``bits[j]``."""

    name: str
    bits: tuple[int, ...]


@dataclass
class Subcircuit:
    circuit: Circuit
    # subcircuit qubit index -> original qubit index
    qubit_map: dict[int, int] = field(default_factory=dict)
    # ownership of original creg bits, used when recombining results
    owned: tuple[CregSlice, ...] = ()


def _creg_writers(c):
    """creg name -> set of qubits measured into any of its bits."""
    writers = {}
    for instr in c.instructions:
        if isinstance(instr, Measure):
            writers.setdefault(instr.creg, set()).add(instr.qubit)
    return writers


def _components_uf(c):
    uf = _UnionFind(c.num_qubits)
    writers = _creg_writers(c)
    for instr in c.instructions:
        if not isinstance(instr, Gate):
            continue
        for a, b in zip(instr.qubits, instr.qubits[1:]):
            uf.union(a, b)
        if instr.condition is not None:
            for writer in writers.get(instr.condition[0], ()):
                uf.union(instr.qubits[0], writer)
    return uf


def split_circuit(c):
    """Split a circuit into independent subcircuits, one per interaction component.

    Components that write the same creg bit are merged first so each original
    bit has exactly one owner.  Cregs read by a condition but written nowhere
    keep their full width in every reading subcircuit (their value is always
    zero) while a single subcircuit owns their output bits.
    """
    if c.num_qubits == 0:
        slices = tuple(CregSlice(name, tuple(range(size))) for name, size in c.cregs)
        return [Subcircuit(circuit=c, qubit_map={}, owned=slices)]

    uf = _components_uf(c)

    bit_writers = {}
    for instr in c.instructions:
        if isinstance(instr, Measure):
            bit_writers.setdefault((instr.creg, instr.bit), set()).add(instr.qubit)
    for qubits in bit_writers.values():
        first = min(qubits)
        for q in qubits:
            uf.union(first, q)

    groups = {}
    for q in range(c.num_qubits):
        groups.setdefault(uf.find(q), set()).add(q)
    components = sorted(groups.values(), key=min)
    comp_index = {q: i for i, comp in enumerate(components) for q in comp}

    readers = {}
    for instr in c.instructions:
        if isinstance(instr, Gate) and instr.condition is not None:
            readers.setdefault(instr.condition[0], set()).add(
                comp_index[instr.qubits[0]]
            )
    owned_bits = [dict() for _ in components]
    full_width = [set() for _ in components]
    for name, size in c.cregs:
        written = sorted(b for (n, b) in bit_writers if n == name)
        if written:
            owner_of_bit = {}
            for b in written:
                owner_of_bit[b] = comp_index[min(bit_writers[(name, b)])]
            default_owner = owner_of_bit[written[0]]
            for b in range(size):
                owner = owner_of_bit.get(b, default_owner)
                owned_bits[owner].setdefault(name, []).append(b)
        else:
            owner = min(readers[name]) if name in readers else 0
            owned_bits[owner].setdefault(name, []).extend(range(size))
            full_width[owner].add(name)
            for reader in readers.get(name, ()):
                if reader != owner:
                    full_width[reader].add(name)

    subs = []
    for k, comp in enumerate(components):
        qubits = sorted(comp)
        qmap_rev = {orig: new for new, orig in enumerate(qubits)}

        slices = []
        sub_cregs = []
        bit_map = {}
        for name, size in c.cregs:
            if name in full_width[k]:
                sub_cregs.append((name, size))
                for b in range(size):
                    bit_map[(name, b)] = (name, b)
                if name in owned_bits[k]:
                    slices.append(CregSlice(name, tuple(range(size))))
            elif name in owned_bits[k]:
                bits = sorted(owned_bits[k][name])
                sub_cregs.append((name, len(bits)))
                for new, orig in enumerate(bits):
                    bit_map[(name, orig)] = (name, new)
                slices.append(CregSlice(name, tuple(bits)))

        instrs = []
        for instr in c.instructions:
            if isinstance(instr, Gate):
                if instr.qubits[0] in comp:
                    instrs.append(
                        Gate(
                            instr.kind,
                            instr.params,
                            tuple(qmap_rev[q] for q in instr.qubits),
                            instr.condition,
                        )
                    )
            elif isinstance(instr, Measure):
                if instr.qubit in comp:
                    name, bit = bit_map[(instr.creg, instr.bit)]
                    instrs.append(Measure(qmap_rev[instr.qubit], name, bit))
            elif isinstance(instr, Reset):
                if instr.qubit in comp:
                    instrs.append(Reset(qmap_rev[instr.qubit]))
            elif isinstance(instr, Barrier):
                local = tuple(qmap_rev[q] for q in instr.qubits if q in comp)
                if local:
                    instrs.append(Barrier(local))

        subs.append(
            Subcircuit(
                circuit=Circuit(len(qubits), tuple(sub_cregs), tuple(instrs)),
                qubit_map={new: orig for new, orig in enumerate(qubits)},
                owned=tuple(slices),
            )
        )
    return subs


def aggregate(seed, pieces, original_cregs, results):
    """Recombine subtask shot lists into the original creg layout.

    Each subtask's counts expand into a sorted shot list, shuffled by a
    seed-derived permutation so pairing introduces no spurious
    correlations; shot i of every subtask merges into output shot i.
    """
    totals = {counts.total() for counts in results}
    assert len(totals) == 1
    shots = totals.pop()

    offsets = {}
    acc = 0
    for name, size in original_cregs:
        offsets[name] = acc
        acc += size

    # one Python integer per shot, so a layout may hold any number of bits
    merged = np.zeros(shots, dtype=object)
    for k, (piece, counts) in enumerate(zip(pieces, results)):
        contribution = {
            key: _owned_bits_value(key, piece, offsets) for key in counts
        }
        expanded = np.concatenate(
            [
                np.full(counts[key], contribution[key], dtype=object)
                for key in sorted(counts)
            ]
        ) if counts else np.zeros(0, dtype=object)
        rng = np.random.default_rng(derive_seed(seed, "aggregate", k))
        merged |= expanded[rng.permutation(shots)]

    values, tallies = np.unique(merged, return_counts=True)
    out = Counts()
    for value, tally in zip(values, tallies):
        key = " ".join(
            format((int(value) >> offsets[name]) & ((1 << size) - 1), f"0{size}b")
            for name, size in original_cregs
        )
        out[key] = int(tally)
    return Counts(sorted(out.items()))


def _owned_bits_value(key, piece, offsets):
    """Map one subtask outcome bitstring onto the original creg bit positions."""
    groups = key.split(" ") if key else []
    layout = piece.circuit.cregs
    values = {name: int(group, 2) if group else 0 for (name, _), group in zip(layout, groups)}
    packed = 0
    for cslice in piece.owned:
        sub_value = values.get(cslice.name, 0)
        for j, original_bit in enumerate(cslice.bits):
            packed |= ((sub_value >> j) & 1) << (offsets[cslice.name] + original_bit)
    return packed


def reference_execute(c, shots, seed, workers=1):
    """Counts of a task on the ideal simulator: the whole circuit when it
    splits into one piece, else each piece on its derived seed, aggregated."""
    pieces = split_circuit(c)
    if len(pieces) == 1:
        return run(c, shots, seed, workers)[0]
    results = [
        run(piece.circuit, shots, derive_seed(seed, "subtask", k),
            min(workers, 2**piece.circuit.num_qubits))[0]
        for k, piece in enumerate(pieces)
    ]
    return aggregate(seed, pieces, c.cregs, results)
