"""Dense state-vector execution with mid-circuit collapse and conditionals.

Amplitudes are stored little-endian (qubit 0 is the least-significant index
bit) and partitioned into ``workers`` equal contiguous chunks to model one
simulator instance spanning multiple workers.  A gate whose targets all fall
below ``n - log2(workers)`` touches amplitude pairs within single chunks;
any other gate pairs amplitudes across chunks, and the trace charges the
full ``2^n`` amplitude exchange for it.  The arithmetic itself is identical
for every worker count, so results never depend on the partitioning.

A static circuit costs one pass of its gates over the state, O(2^m) numpy
work on the marginal of its m measured qubits, and Python work per distinct
outcome drawn; nothing loops over all 2^m outcomes or over shots.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Barrier, Circuit, Gate, Instruction, Measure, Reset, is_static
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
    def chunk_size(self) -> int:
        return 2**self.num_qubits // self.workers

    @property
    def chunks(self) -> list[np.ndarray]:
        """Views of the per-worker amplitude chunks (fixed boundaries)."""
        cs = self.chunk_size
        return [self.amplitudes[k * cs : (k + 1) * cs] for k in range(self.workers)]

    @property
    def local_qubits(self) -> int:
        """Qubit indices below this are chunk-local for every worker."""
        return self.num_qubits - (self.workers.bit_length() - 1)

    # -- instruction application -----------------------------------------

    def apply(self, instr: Instruction) -> ExecutionTrace:
        """Apply one instruction in place; returns the trace delta."""
        delta = ExecutionTrace(seed=self.seed)
        n = self.num_qubits
        if isinstance(instr, Gate):
            if instr.condition is not None:
                name, value = instr.condition
                if self.classical.get(name, 0) != value:
                    return delta
            matrix = gate_unitary(instr.kind, instr.params)
            local = all(q < self.local_qubits for q in instr.qubits)
            if local and self.workers > 1:
                width = self.chunk_size.bit_length() - 1
                for chunk in self.chunks:
                    _apply_unitary(chunk, matrix, instr.qubits, width)
            else:
                _apply_unitary(self.amplitudes, matrix, instr.qubits, n)
            delta.gates_applied = 1
            delta.exchanged_amplitudes = 0 if local else 2**n
        elif isinstance(instr, Measure):
            bit = self._collapse(instr.qubit)
            current = self.classical.get(instr.creg, 0)
            self.classical[instr.creg] = (current & ~(1 << instr.bit)) | (bit << instr.bit)
            delta.measures = 1
        elif isinstance(instr, Reset):
            bit = self._collapse(instr.qubit)
            if bit == 1:
                view = self.amplitudes.reshape((2,) * n)
                axis = n - 1 - instr.qubit
                zeros = [slice(None)] * n
                ones = [slice(None)] * n
                zeros[axis] = 0
                ones[axis] = 1
                view[tuple(zeros)] = view[tuple(ones)]
                view[tuple(ones)] = 0
        elif isinstance(instr, Barrier):
            pass
        else:
            raise TypeError(f"unknown instruction {instr!r}")
        return delta

    def _collapse(self, qubit: int) -> int:
        """Sample the qubit, zero non-matching amplitudes, renormalize."""
        n = self.num_qubits
        view = self.amplitudes.reshape((2,) * n)
        axis = n - 1 - qubit
        ones = [slice(None)] * n
        ones[axis] = 1
        p_one = float(np.sum(np.abs(view[tuple(ones)]) ** 2))
        bit = int(self.rng.random() < p_one)
        discard = [slice(None)] * n
        discard[axis] = 1 - bit
        view[tuple(discard)] = 0
        self.amplitudes /= np.linalg.norm(self.amplitudes)
        return bit

    def run_circuit(self, c: Circuit) -> ExecutionTrace:
        trace = ExecutionTrace(seed=self.seed)
        for instr in c.instructions:
            trace = trace + self.apply(instr)
        return trace

    def creg_bitstring(self, cregs) -> str:
        return " ".join(
            format(self.classical.get(name, 0), f"0{size}b") for name, size in cregs
        )


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


def _static_distribution(c: Circuit, workers: int):
    """Exact creg-bitstring distribution of a static circuit.

    Returns (keys_of, probabilities, gates_applied, measures, exchanged).
    ``probabilities`` lists the outcomes in sorted-key order, and
    ``keys_of(indices)`` formats the keys of the given entries.
    """
    state = State(c.num_qubits, workers)
    trace_gates = 0
    exchanged = 0
    for instr in c.instructions:
        if isinstance(instr, Gate):
            delta = state.apply(instr)
            trace_gates += delta.gates_applied
            exchanged += delta.exchanged_amplitudes
    # Suffix of measures/resets: everything is diagonal, so each creg bit is a
    # function of the joint basis outcome.  A reset forces later reads to 0.
    writers: dict[tuple[str, int], int | None] = {}
    reset_seen: set[int] = set()
    n_measures = 0
    for instr in c.instructions:
        if isinstance(instr, Reset):
            reset_seen.add(instr.qubit)
        elif isinstance(instr, Measure):
            n_measures += 1
            writers[(instr.creg, instr.bit)] = (
                None if instr.qubit in reset_seen else instr.qubit
            )
    measured = sorted({q for q in writers.values() if q is not None})
    probs = np.abs(state.amplitudes) ** 2
    if measured:
        view = probs.reshape((2,) * c.num_qubits)
        drop = tuple(
            c.num_qubits - 1 - q for q in range(c.num_qubits) if q not in measured
        )
        marginal = view.sum(axis=drop).reshape(-1) if drop else view.reshape(-1)
        # marginal index bit i corresponds to measured[i] (little-endian:
        # remaining axes keep their relative significance order)
    else:
        marginal = np.array([1.0])

    # Every measured qubit writes at least one creg bit, so outcome -> key is
    # a bijection.  Keys share their layout, so they sort like the bits they
    # print: cregs in declaration order, each highest bit first.  The qubit
    # that first appears in that order at rank r fills bit m-1-r of the
    # sorted index.  Later copies of a qubit, unwritten bits and bits written
    # after a reset (constant 0) add nothing to the order.
    m = len(measured)
    rank: dict[int, int] = {}
    shifts = []  # per key character; shift m reads a bit that is always 0
    codes = []
    for k, (name, size) in enumerate(c.cregs):
        if k:
            shifts.append(m)
            codes.append(ord(" "))
        for bit in reversed(range(size)):
            q = writers.get((name, bit))
            shifts.append(m if q is None else m - 1 - rank.setdefault(q, len(rank)))
            codes.append(ord("0"))
    axis_of = {q: m - 1 - i for i, q in enumerate(measured)}
    perm = [axis_of[q] for q in sorted(rank, key=rank.get)]
    pvec = marginal.reshape((2,) * m).transpose(perm).reshape(-1)
    pvec = pvec / pvec.sum()

    shift = np.array(shifts, dtype=np.int64)
    base = np.array(codes, dtype=np.int64)

    def keys_of(indices: np.ndarray) -> list[str]:
        return format_keys((base + ((indices[:, None] >> shift) & 1)).astype(np.uint8))

    return keys_of, pvec, trace_gates, n_measures, exchanged


def format_keys(rows: np.ndarray) -> list[str]:
    """Decode each row of ASCII codes into one key."""
    text = rows.tobytes().decode("ascii")
    width = rows.shape[1]
    return [text[j * width:(j + 1) * width] for j in range(len(rows))]


def run(c: Circuit, shots: int, seed: int = 0, workers: int = 1, *,
        force_shot_by_shot: bool = False,
        max_qubits: int = MAX_QUBITS) -> tuple[Counts, ExecutionTrace]:
    """Execute a circuit for the given number of shots.

    Static circuits (terminal measurement, no conditionals) are executed once
    and sampled multinomially: one state pass, O(2^m) numpy work over the m
    measured qubits' marginal, and a key formatted only per distinct outcome
    drawn.  Anything with feed-forward runs shot by shot with collapse.
    Identical (circuit, shots, seed, workers) always produces identical Counts.
    """
    if shots < 1:
        raise ValueError("shots must be positive")
    if not 1 <= c.num_qubits <= max_qubits:
        raise ValueError(
            f"circuit has {c.num_qubits} qubits, supported range is [1, {max_qubits}]"
        )
    _check_workers(c.num_qubits, workers)

    if is_static(c) and not force_shot_by_shot:
        keys_of, pvec, gates, measures, exchanged = _static_distribution(c, workers)
        rng = np.random.default_rng(derive_seed(seed, "static"))
        draws = rng.multinomial(shots, pvec)
        hits = np.flatnonzero(draws)
        counts = Counts(zip(keys_of(hits), draws[hits].tolist()))
        trace = ExecutionTrace(gates, measures, exchanged, seed)
        return counts, trace

    counts = Counts()
    trace = ExecutionTrace(seed=seed)
    for shot in range(shots):
        state = State(c.num_qubits, workers, seed=derive_seed(seed, "shot", shot))
        trace = trace + state.run_circuit(c)
        key = state.creg_bitstring(c.cregs)
        counts[key] = counts.get(key, 0) + 1
    trace.seed = seed
    return Counts(sorted(counts.items())), trace
