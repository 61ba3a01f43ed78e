"""Dense state-vector execution with mid-circuit collapse and conditionals.

Amplitudes are stored little-endian (qubit 0 is the least-significant index
bit) and partitioned into ``workers`` equal contiguous chunks to model one
simulator instance spanning multiple workers.  A gate whose targets all fall
below ``n - log2(workers)`` touches amplitude pairs within single chunks;
any other gate pairs amplitudes across chunks, and the trace charges the
full ``2^n`` amplitude exchange for it.  The arithmetic itself is identical
for every worker count, so results never depend on the partitioning.

``run`` samples every circuit with one depth-first walk over classical
histories: a branch of k shots splits by a binomial draw at each measure or
reset before the last gate, and past it samples its remaining measures from
one marginal (O(2^m) numpy work for m measured qubits, Python work per
distinct outcome drawn).  A static circuit is the root branch alone.  At most
one pending sibling per measure level before the last gate is held, each a
2^n copy.  ``ExecutionTrace`` counts the work per branch, not per shot.
"""
from __future__ import annotations

import copy
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Barrier, Circuit, Gate, Instruction, Measure, Reset
from .gates import gate_unitary
from .seeds import derive_seed

MAX_QUBITS = 26  # ~1 GiB of complex128 amplitudes; desk-scale ceiling


class Counts(dict):
    """Measured bitstring -> occurrence count.

    Keys concatenate cregs in declaration order, each creg printed highest
    bit first, cregs separated by a single space.
    """

    def total(self) -> int:
        return sum(self.values())

    def frequency(self, key: str) -> float:
        total = self.total()
        return self.get(key, 0) / total if total else 0.0

    def canonical_line(self) -> str:
        return ";".join(f"{k}:{self[k]}" for k in sorted(self))


@dataclass
class ExecutionTrace:
    gates_applied: int = 0
    measures: int = 0
    exchanged_amplitudes: int = 0
    seed: int = 0

    def __add__(self, other: "ExecutionTrace") -> "ExecutionTrace":
        return ExecutionTrace(
            self.gates_applied + other.gates_applied,
            self.measures + other.measures,
            self.exchanged_amplitudes + other.exchanged_amplitudes,
            self.seed,
        )


def _check_workers(n: int, workers: int) -> None:
    if workers < 1 or workers & (workers - 1):
        raise ValueError(f"workers must be a power of two, got {workers}")
    if workers > 2**n:
        raise ValueError(f"workers {workers} exceeds 2^{n} amplitudes")


class State:
    """Mutable simulator state, confined to one executor at a time."""

    def __init__(self, num_qubits: int, workers: int = 1, seed: int = 0,
                 max_qubits: int = MAX_QUBITS):
        if not 1 <= num_qubits <= max_qubits:
            raise ValueError(
                f"num_qubits must be in [1, {max_qubits}], got {num_qubits}"
            )
        _check_workers(num_qubits, workers)
        self.num_qubits = num_qubits
        self.workers = workers
        self.seed = seed
        self.amplitudes = np.zeros(2**num_qubits, dtype=np.complex128)
        self.amplitudes[0] = 1.0
        self.classical: dict[str, int] = {}
        self.rng = np.random.default_rng(seed)

    @property
    def chunks(self) -> list[np.ndarray]:
        """Views of the per-worker amplitude chunks (fixed boundaries)."""
        return np.split(self.amplitudes, self.workers)

    @property
    def local_qubits(self) -> int:
        """Qubit indices below this are chunk-local for every worker."""
        return self.num_qubits - (self.workers.bit_length() - 1)

    # -- instruction application -----------------------------------------

    def apply(self, instr: Instruction) -> ExecutionTrace:
        """Apply one instruction in place; returns the trace delta."""
        delta = ExecutionTrace(seed=self.seed)
        if isinstance(instr, Gate):
            if instr.condition is not None:
                name, value = instr.condition
                if self.classical.get(name, 0) != value:
                    return delta
            _apply_unitary(self.amplitudes, gate_unitary(instr.kind, instr.params),
                           instr.qubits, self.num_qubits)
            delta.gates_applied = 1
            if any(q >= self.local_qubits for q in instr.qubits):
                delta.exchanged_amplitudes = 2**self.num_qubits
        elif isinstance(instr, (Measure, Reset)):
            self.settle(instr, int(self.rng.random() < self.p_one(instr.qubit)))
            delta.measures = int(isinstance(instr, Measure))
        elif not isinstance(instr, Barrier):
            raise TypeError(f"unknown instruction {instr!r}")
        return delta

    def _halves(self, qubit: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the amplitudes where the qubit reads 0 and where it reads 1."""
        view = self.amplitudes.reshape(-1, 2, 2**qubit)
        return view[:, 0], view[:, 1]

    def p_one(self, qubit: int) -> float:
        """Probability that the qubit reads 1, snapped to 0 or 1 within 1e-12."""
        p = float(np.sum(np.abs(self._halves(qubit)[1]) ** 2))
        return 0.0 if p < 1e-12 else 1.0 if p > 1 - 1e-12 else p

    def settle(self, instr: Measure | Reset, bit: int) -> None:
        """Collapse the qubit onto ``bit`` and renormalize; a measure records
        the bit in its creg, and a reset then moves the qubit to 0."""
        zeros, ones = self._halves(instr.qubit)
        (ones if bit == 0 else zeros)[...] = 0
        self.amplitudes /= np.linalg.norm(self.amplitudes)
        if isinstance(instr, Measure):
            current = self.classical.get(instr.creg, 0)
            self.classical[instr.creg] = (current & ~(1 << instr.bit)) | (bit << instr.bit)
        elif bit == 1:
            zeros[...] = ones
            ones[...] = 0

    def copy(self) -> "State":
        """An independent copy of the amplitudes and classical registers."""
        other = copy.copy(self)
        other.amplitudes = self.amplitudes.copy()
        other.classical = dict(self.classical)
        return other

    def run_circuit(self, c: Circuit) -> ExecutionTrace:
        trace = ExecutionTrace(seed=self.seed)
        for instr in c.instructions:
            trace = trace + self.apply(instr)
        return trace


def _apply_unitary(amps: np.ndarray, matrix: np.ndarray, qubits: tuple[int, ...],
                   width: int) -> None:
    """Contract a 2^k x 2^k matrix into the targeted axes of a 2^width vector.

    The matrix index convention puts the first operand in the least
    significant bit: index = sum(bit(qubits[i]) << i).
    """
    k = len(qubits)
    psi = amps.reshape((2,) * width)
    tensor = matrix.reshape((2,) * (2 * k))
    # tensor axes: (out[q_{k-1}] ... out[q_0], in[q_{k-1}] ... in[q_0])
    in_axes = [width - 1 - q for q in reversed(qubits)]
    contracted = np.tensordot(tensor, psi, axes=(list(range(k, 2 * k)), in_axes))
    result = np.moveaxis(contracted, list(range(k)), in_axes)
    amps[:] = result.reshape(-1)


def probabilities(state: State) -> np.ndarray:
    """|amplitude|^2 per basis index; sums to 1 within 1e-10."""
    return np.abs(state.amplitudes) ** 2


def exchange_cost(c: Circuit, num_qubits: int, workers: int) -> int:
    """Amplitudes logically exchanged between chunks over the whole circuit.

    Per gate: 0 when every target is chunk-local, else 2^n.  Measures are
    modeled as reductions and cost nothing.
    """
    _check_workers(num_qubits, workers)
    local = num_qubits - (workers.bit_length() - 1)
    cost = 0
    for instr in c.instructions:
        if isinstance(instr, Gate) and any(q >= local for q in instr.qubits):
            cost += 2**num_qubits
    return cost


def final_state(c: Circuit, seed: int = 0, workers: int = 1) -> State:
    """Execute the circuit once (with seeded collapse) and return the state."""
    state = State(c.num_qubits, workers, seed=derive_seed(seed, "final"))
    state.run_circuit(c)
    return state


def _static_distribution(state: State, instructions, cregs):
    """Exact creg-bitstring distribution of reading ``state`` out through the
    measures and resets in ``instructions``; gates there are ignored, and a
    creg bit no measure writes keeps its value in ``state.classical``.

    Returns (keys_of, probabilities, measures).  ``probabilities`` lists the
    outcomes in sorted-key order, and ``keys_of(indices)`` formats the keys of
    the given entries.
    """
    n = state.num_qubits
    # Everything left is diagonal, so each creg bit is either a function of
    # the joint basis outcome or a constant: unwritten, or read after a reset.
    writers: dict[tuple[str, int], int] = {}
    values = dict(state.classical)
    reset_seen: set[int] = set()
    n_measures = 0
    for instr in instructions:
        if isinstance(instr, Reset):
            reset_seen.add(instr.qubit)
        elif isinstance(instr, Measure):
            n_measures += 1
            values[instr.creg] = values.get(instr.creg, 0) & ~(1 << instr.bit)
            if instr.qubit in reset_seen:
                writers.pop((instr.creg, instr.bit), None)
            else:
                writers[(instr.creg, instr.bit)] = instr.qubit
    measured = sorted(set(writers.values()))
    probs = np.abs(state.amplitudes) ** 2
    if measured:
        view = probs.reshape((2,) * n)
        drop = tuple(n - 1 - q for q in range(n) if q not in measured)
        marginal = view.sum(axis=drop).reshape(-1) if drop else view.reshape(-1)
        # marginal index bit i corresponds to measured[i] (little-endian:
        # remaining axes keep their relative significance order)
    else:
        marginal = np.array([1.0])

    # Every measured qubit writes at least one creg bit, so outcome -> key is
    # a bijection.  Keys share their layout, so they sort like the bits they
    # print: cregs in declaration order, each highest bit first.  The qubit
    # that first appears in that order at rank r fills bit m-1-r of the
    # sorted index.  Later copies of a qubit and constant bits add nothing to
    # the order.
    m = len(measured)
    rank: dict[int, int] = {}
    shifts = []  # per key character; shift m reads a bit that is always 0
    codes = []
    for k, (name, size) in enumerate(cregs):
        if k:
            shifts.append(m)
            codes.append(ord(" "))
        for bit in reversed(range(size)):
            q = writers.get((name, bit))
            shifts.append(m if q is None else m - 1 - rank.setdefault(q, len(rank)))
            codes.append(ord("0") + (values.get(name, 0) >> bit & 1))
    axis_of = {q: m - 1 - i for i, q in enumerate(measured)}
    perm = [axis_of[q] for q in sorted(rank, key=rank.get)]
    pvec = marginal.reshape((2,) * m).transpose(perm).reshape(-1)
    pvec = pvec / pvec.sum()

    shift = np.array(shifts, dtype=np.int64)
    base = np.array(codes, dtype=np.int64)

    def keys_of(indices: np.ndarray) -> list[str]:
        return format_keys((base + ((indices[:, None] >> shift) & 1)).astype(np.uint8))

    return keys_of, pvec, n_measures


def format_keys(rows: np.ndarray) -> list[str]:
    """Decode each row of ASCII codes into one key."""
    text = rows.tobytes().decode("ascii")
    width = rows.shape[1]
    return [text[j * width:(j + 1) * width] for j in range(len(rows))]


def run(c: Circuit, shots: int, seed: int = 0, workers: int = 1, *,
        max_qubits: int = MAX_QUBITS) -> tuple[Counts, ExecutionTrace]:
    """Execute a circuit for the given number of shots.

    A depth-first walk over classical histories: a branch of k shots splits
    at a measure or reset before the last gate by k1 ~ Binomial(k, p1), and
    past the last gate draws its k shots from ``_static_distribution``.  All
    draws share one stream, so a static circuit is one pass and one draw.
    At most one pending sibling per measure level before the last gate is
    held, each a 2^n copy.  The trace counts work per branch, not per shot.
    Identical (circuit, shots, seed, workers) always produces identical Counts.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if not 1 <= c.num_qubits <= max_qubits:
        raise ValueError(
            f"circuit has {c.num_qubits} qubits, supported range is [1, {max_qubits}]"
        )
    _check_workers(c.num_qubits, workers)

    program = c.instructions
    end = 1 + max((i for i, instr in enumerate(program) if isinstance(instr, Gate)),
                  default=-1)
    rng = np.random.default_rng(derive_seed(seed, "static"))
    trace = ExecutionTrace(seed=seed)
    drawn = []
    pending = [(State(c.num_qubits, workers), 0, shots)]
    while pending:
        state, start, k = pending.pop()
        for pc in range(start, end):
            instr = program[pc]
            if not isinstance(instr, (Measure, Reset)):
                trace = trace + state.apply(instr)
                continue
            ones = int(rng.binomial(k, state.p_one(instr.qubit)))
            trace.measures += isinstance(instr, Measure)
            bit = int(ones == k)
            if 0 < ones < k:
                sibling = state.copy()
                sibling.settle(instr, 1)
                pending.append((sibling, pc + 1, ones))
                k -= ones
            state.settle(instr, bit)
        keys_of, pvec, measures = _static_distribution(state, program[end:], c.cregs)
        trace.measures += measures
        draws = rng.multinomial(k, pvec)
        hits = np.flatnonzero(draws)
        drawn.append(zip(keys_of(hits), draws[hits].tolist()))
    if len(drawn) == 1:  # one branch draws distinct keys in sorted order
        return Counts(drawn[0]), trace
    tally: Counter[str] = Counter()
    for part in drawn:
        tally.update(dict(part))
    return Counts(sorted(tally.items())), trace
