"""Dense state-vector execution with mid-circuit collapse and conditionals.

Amplitudes are stored little-endian (qubit 0 is the least-significant index
bit) and partitioned into ``workers`` equal contiguous chunks to model one
simulator instance spanning multiple workers.  A gate whose targets all fall
below ``n - log2(workers)`` touches amplitude pairs within single chunks;
any other gate pairs amplitudes across chunks, and the trace charges the
full ``2^n`` amplitude exchange for it.  The arithmetic itself is identical
for every worker count, so results never depend on the partitioning.

Gates update the amplitudes in place through sliced views, with no per-gate
matrix: a one-qubit gate takes the halves where its qubit reads 0 and 1 from
``amplitudes.reshape(-1, 2, 2^q)``, a two-qubit gate the four blocks of
``reshape(-1, 2, 2^(hi-lo-1), 2, 2^lo)``.  Dense gates (h, y, rx, ry, u) mix
the halves with the four entries from ``gates.gate_entries`` and x swaps
them, one tile of at most 2^12 amplitudes per half at a time, so their
temporaries stay in cache.  On a middle qubit (3 <= q <= 10, below the top
one) a half's rows hold only 2^q contiguous amplitudes, so a dense update
first copies each tile's halves into contiguous buffers, runs its five
multiply/add steps there and copies the results back.  Diagonal gates (z,
s, sdg, t, tdg, rz) multiply the halves in place and id does nothing.  cx
swaps the target's two blocks where the control reads 1, cz negates the 11
block and swap exchanges the 01 and 10 blocks; cx, swap and x exchange
through tiles too, so they copy at most a tile at a time, and cz and the
diagonal gates copy nothing.

On a state of at least ``_FUSE_QUBITS`` (9) qubits, ``State.apply`` holds
each one-qubit gate as a factor of its qubit's 2x2 product instead (the
gate clustering of Haener & Steiger, SC17).  The first two-qubit gate,
``p_one``, ``settle``, ``copy`` or read of ``amplitudes`` applies what is
held: the qubits fall into blocks of ``_BLOCK`` (4) aligned qubits, and
each block's products are applied as one Kronecker-product matrix of at
most 16 x 16, from qubit 0 in the lowest block and from the lowest held
qubit in the others, tile by tile, each tile's ``np.matmul`` written into one
tile-sized buffer and copied back.  A block that holds a single gate runs
that gate's own kernel, and a block of one qubit holding several gates one
dense update.  Fused amplitudes differ from per-gate ones by rounding, at
most about 1e-16; ``apply`` still returns each gate's own trace delta.  The
threshold is measured: on the feed-forward programs of at most 8 qubits the
holding and flushing cost more than the per-gate updates they replace, and
on layered programs of 9 qubits or more fusion is faster.  A flush that a
two-qubit gate starts runs inside ``apply``; one that ``p_one``, ``settle``,
``copy`` or ``amplitudes`` starts runs inside that call.

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
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .circuit import Barrier, Circuit, Gate, Measure, Reset
from .gates import GateKind, gate_entries
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
        return ";".join([f"{k}:{self[k]}" for k in sorted(self)])


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

    def __init__(self, num_qubits: int, workers: int = 1):
        if not 0 <= num_qubits <= MAX_QUBITS:
            raise ValueError(
                f"num_qubits must be in [0, {MAX_QUBITS}], got {num_qubits}"
            )
        _check_workers(num_qubits, workers)
        self.num_qubits = num_qubits
        self.workers = workers
        self._amplitudes = np.zeros(2**num_qubits, dtype=np.complex128)
        self._amplitudes[0] = 1.0
        # qubit -> (entries of the product of its held gates, the gate if only one)
        self._held: dict[int, tuple[tuple[complex, ...], Gate | None]] = {}
        self.classical: dict[str, int] = {}

    @property
    def amplitudes(self) -> np.ndarray:
        """The amplitudes, after every held one-qubit gate is applied."""
        if self._held:
            self._flush()
        return self._amplitudes

    @property
    def local_qubits(self) -> int:
        """Qubit indices below this are chunk-local for every worker."""
        return self.num_qubits - (self.workers.bit_length() - 1)

    # -- instruction application -----------------------------------------

    def apply(self, instr: Gate | Barrier) -> ExecutionTrace:
        """Apply one gate or barrier in place; returns the trace delta.
        Measures and resets collapse through ``p_one`` and ``settle``."""
        delta = ExecutionTrace()
        if isinstance(instr, Gate):
            if instr.condition is not None:
                name, value = instr.condition
                if self.classical.get(name, 0) != value:
                    return delta
            if len(instr.qubits) == 1 and self.num_qubits >= _FUSE_QUBITS:
                self._hold(instr)
            else:
                _KERNELS[instr.kind](self.amplitudes, instr)
            delta.gates_applied = 1
            if max(instr.qubits) >= self.local_qubits:
                delta.exchanged_amplitudes = 2**self.num_qubits
        elif not isinstance(instr, Barrier):
            raise TypeError(f"unknown instruction {instr!r}")
        return delta

    def p_one(self, qubit: int) -> float:
        """Probability that the qubit reads 1, snapped to 0 or 1 within 1e-12."""
        p = float(np.sum(np.abs(_halves(self.amplitudes, qubit)[1]) ** 2))
        return 0.0 if p < 1e-12 else 1.0 if p > 1 - 1e-12 else p

    def settle(self, instr: Measure | Reset, bit: int) -> None:
        """Collapse the qubit onto ``bit`` and renormalize; a measure records
        the bit in its creg, and a reset then moves the qubit to 0."""
        amps = self.amplitudes
        zeros, ones = _halves(amps, instr.qubit)
        (ones if bit == 0 else zeros)[...] = 0
        real, imag = amps.real, amps.imag
        amps /= math.sqrt(real.dot(real) + imag.dot(imag))  # np.linalg.norm's arithmetic
        if isinstance(instr, Measure):
            current = self.classical.get(instr.creg, 0)
            self.classical[instr.creg] = (current & ~(1 << instr.bit)) | (bit << instr.bit)
        elif bit == 1:
            zeros[...] = ones
            ones[...] = 0

    def copy(self) -> "State":
        """An independent copy of the amplitudes and classical registers."""
        other = copy.copy(self)
        other._amplitudes = self.amplitudes.copy()
        other._held = {}
        other.classical = dict(self.classical)
        return other

    def _hold(self, gate: Gate) -> None:
        """Multiply a one-qubit gate onto its qubit's held product."""
        q = gate.qubits[0]
        g00, g01, g10, g11 = gate_entries(gate.kind, gate.params)
        if q not in self._held:
            self._held[q] = ((g00, g01, g10, g11), gate)
            return
        (m00, m01, m10, m11), _ = self._held[q]
        self._held[q] = ((g00 * m00 + g01 * m10, g00 * m01 + g01 * m11,
                          g10 * m00 + g11 * m10, g10 * m01 + g11 * m11), None)

    def _flush(self) -> None:
        """Apply the held gates, block by block of _BLOCK aligned qubits."""
        held, self._held = self._held, {}
        blocks: dict[int, list[int]] = {}
        for q in sorted(held):
            blocks.setdefault(q // _BLOCK, []).append(q)
        for qubits in blocks.values():
            entries, gate = held[qubits[0]]
            if gate is not None and len(qubits) == 1:
                _KERNELS[gate.kind](self._amplitudes, gate)
            elif len(qubits) == 1:
                _dense(self._amplitudes, qubits[0], entries)
            else:
                # block 0 runs from qubit 0 (from qubit 1-3, tiles would be 2-8
                # columns wide); a higher block from its lowest held qubit
                lo, hi = (0 if qubits[0] < _BLOCK else qubits[0]), qubits[-1]
                factors = [held[q][0] if q in held else (1, 0, 0, 1)
                           for q in range(hi, lo - 1, -1)]
                _block(self._amplitudes, lo, _kron(factors))


def _halves(amps: np.ndarray, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Views of the amplitudes where the qubit reads 0 and where it reads 1;
    one-dimensional for qubit 0, which numpy iterates with less overhead."""
    view = amps.reshape(-1, 2, 1 << qubit) if qubit else amps.reshape(-1, 2)
    return view[:, 0], view[:, 1]


def _blocks(amps: np.ndarray, a: int, b: int) -> np.ndarray:
    """A view whose ``[i, j]`` holds the amplitudes where qubit ``a`` reads i
    and qubit ``b`` reads j."""
    lo, hi = sorted((a, b))
    view = amps.reshape(-1, 2, 1 << (hi - lo - 1), 2, 1 << lo)
    return view.transpose((3, 1, 0, 2, 4) if a < b else (1, 3, 0, 2, 4))


_TILE = 1 << 12  # amplitudes per half in one step of a dense update or an exchange
_FUSE_QUBITS = 9  # states this wide hold one-qubit gates and apply them in blocks
_BLOCK = 4  # aligned qubits per fused block, one matrix of at most 16 x 16


def _tiles(view: np.ndarray):
    """Slices of the view of at most _TILE amplitudes each, in order: the
    trailing axes that fit whole, and chunks of the axis before them."""
    if view.size <= _TILE:
        yield view
        return
    axis, inner = view.ndim - 1, 1
    while inner * view.shape[axis] <= _TILE:
        inner *= view.shape[axis]
        axis -= 1
    step = _TILE // inner
    for index in np.ndindex(view.shape[:axis]):
        for start in range(0, view.shape[axis], step):
            yield view[index + (slice(start, start + step),)]


def _exchange(one: np.ndarray, other: np.ndarray) -> None:
    """Swap two equal-shaped views tile by tile.  numpy copies an
    overlapping source before it assigns, so the temporaries are two tiles."""
    pairs = zip(_tiles(one), _tiles(other)) if one.size > _TILE else ((one, other),)
    for a, b in pairs:
        kept = a.copy()
        a[...] = b
        b[...] = kept


def _tiled_halves(amps: np.ndarray, qubit: int):
    """The halves of ``_halves`` as pairs of views of at most _TILE amplitudes
    each, so work on one pair stays in cache.  Rows of at most four amplitudes
    are cut into single columns, indexed by number, so numpy walks long
    strided runs rather than many short ones."""
    zeros, ones = _halves(amps, qubit)
    if zeros.size <= _TILE:
        yield zeros, ones
        return
    view = amps.reshape(-1, 2, 1 << qubit)
    rows, columns = view.shape[0], view.shape[2]
    if columns <= 4:
        cuts, width = range(columns), 1
    else:
        width = min(columns, _TILE)
        cuts = [slice(c, c + width) for c in range(0, columns, width)]
    step = _TILE // width
    for r in range(0, rows, step):
        for cut in cuts:
            yield view[r:r + step, 0, cut], view[r:r + step, 1, cut]


def _mix(amps: np.ndarray, gate: Gate) -> None:
    """A dense one-qubit gate."""
    _dense(amps, gate.qubits[0], gate_entries(gate.kind, gate.params))


def _dense(amps: np.ndarray, q: int, entries: tuple[complex, ...]) -> None:
    """new0 = m00 a0 + m01 a1, new1 = m10 a0 + m11 a1 on qubit q.

    On a middle qubit below the top one, each tile's halves are strided
    rows of 2^q amplitudes, which numpy walks slowly; they are updated in
    contiguous buffers instead, by the same steps, and copied back."""
    m00, m01, m10, m11 = entries
    if not (3 <= q <= 10 and amps.size > 2 << q):
        for zeros, ones in _tiled_halves(amps, q):
            carry = ones * m01
            ones *= m11
            ones += zeros * m10
            zeros *= m00
            zeros += carry
        return
    buffers = None
    for zeros, ones in _tiled_halves(amps, q):
        if buffers is None:
            buffers = [np.empty(zeros.shape, dtype=amps.dtype) for _ in range(4)]
        a0, a1, carry, temp = buffers
        np.copyto(a0, zeros)
        np.copyto(a1, ones)
        np.multiply(a1, m01, out=carry)
        a1 *= m11
        a1 += np.multiply(a0, m10, out=temp)
        a0 *= m00
        a0 += carry
        zeros[...] = a0
        ones[...] = a1


def _kron(factors: list[tuple[complex, ...]]) -> np.ndarray:
    """The Kronecker product of 2x2 matrices given by their entries, the
    first factor on the most significant bit."""
    matrix = np.ones((1, 1), dtype=np.complex128)
    for entries in factors:
        factor = np.array(entries, dtype=np.complex128).reshape(2, 2)
        size = 2 * len(matrix)
        matrix = (matrix[:, None, :, None] * factor[None, :, None, :]).reshape(size, size)
    return matrix


def _block(amps: np.ndarray, lo: int, matrix: np.ndarray) -> None:
    """Apply a 2^k x 2^k matrix to qubits lo..lo+k-1, whose amplitudes sit
    on the middle axis of ``reshape(-1, 2^k, 2^lo)``: each tile of at most
    _TILE amplitudes is multiplied into one buffer and copied back."""
    size = len(matrix)
    view = amps.reshape(-1, size, 1 << lo)
    rows, _, columns = view.shape
    width = min(columns, max(_TILE // size, 1))
    step = min(rows, max(_TILE // (size * width), 1))
    buffer = np.empty((step, size, width), dtype=amps.dtype)
    if columns == 1:  # rows of 2^k contiguous amplitudes: rows @ matrix^T
        flat, out, transposed = view[:, :, 0], buffer[:, :, 0], matrix.T
        for r in range(0, rows, step):
            tile = flat[r:r + step]
            np.matmul(tile, transposed, out=out)
            tile[...] = out
        return
    for r in range(0, rows, step):
        for c in range(0, columns, width):
            tile = view[r:r + step, :, c:c + width]
            np.matmul(matrix, tile, out=buffer)
            tile[...] = buffer


def _phase(amps: np.ndarray, gate: Gate) -> None:
    zeros, ones = _halves(amps, gate.qubits[0])
    d0, _, _, d1 = gate_entries(gate.kind, gate.params)
    if d0 != 1:
        zeros *= d0
    ones *= d1


def _flip(amps: np.ndarray, gate: Gate) -> None:
    for zeros, ones in _tiled_halves(amps, gate.qubits[0]):
        _exchange(zeros, ones)


def _cx(amps: np.ndarray, gate: Gate) -> None:
    blocks = _blocks(amps, *gate.qubits)
    _exchange(blocks[1, 0], blocks[1, 1])


def _cz(amps: np.ndarray, gate: Gate) -> None:
    both = _blocks(amps, *gate.qubits)[1, 1]
    np.negative(both, out=both)


def _swap(amps: np.ndarray, gate: Gate) -> None:
    blocks = _blocks(amps, *gate.qubits)
    _exchange(blocks[0, 1], blocks[1, 0])


_KERNELS = {
    GateKind.ID: lambda amps, gate: None,
    GateKind.X: _flip,
    **dict.fromkeys((GateKind.H, GateKind.Y, GateKind.RX, GateKind.RY, GateKind.U), _mix),
    **dict.fromkeys((GateKind.Z, GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                     GateKind.RZ), _phase),
    GateKind.CX: _cx,
    GateKind.CZ: _cz,
    GateKind.SWAP: _swap,
}


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
    """Execute the circuit once and return the state; a measure or reset reads
    1 when a draw of the ``derive_seed(seed, "final")`` stream is below p_one."""
    state = State(c.num_qubits, workers)
    rng = np.random.default_rng(derive_seed(seed, "final"))
    for instr in c.instructions:
        if isinstance(instr, (Measure, Reset)):
            state.settle(instr, int(rng.random() < state.p_one(instr.qubit)))
        else:
            state.apply(instr)
    return state


def _static_distribution(instructions, cregs):
    """The readout of a state through the measures and resets in
    ``instructions``, as a function of the state; gates there are ignored,
    and a creg bit no measure writes keeps its value in ``state.classical``.

    The layout of the keys depends only on the instructions and the cregs,
    so it is built once; the returned ``read(state)`` gives the exact
    creg-bitstring distribution as (keys_of, probabilities, measures).
    ``probabilities`` lists the outcomes in sorted-key order, and
    ``keys_of(indices)`` formats the keys of the given entries.
    """
    # Everything left is diagonal, so each creg bit is either a function of
    # the joint basis outcome or a constant: 0 when a measure writes it after
    # a reset, else its value in state.classical when no measure writes it.
    writers: dict[tuple[str, int], int] = {}
    written: set[tuple[str, int]] = set()
    reset_seen: set[int] = set()
    n_measures = 0
    for instr in instructions:
        if isinstance(instr, Reset):
            reset_seen.add(instr.qubit)
        elif isinstance(instr, Measure):
            n_measures += 1
            written.add((instr.creg, instr.bit))
            if instr.qubit in reset_seen:
                writers.pop((instr.creg, instr.bit), None)
            else:
                writers[(instr.creg, instr.bit)] = instr.qubit
    measured = sorted(set(writers.values()))

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
    kept = []  # (character, creg, bit) of the bits that keep their classical value
    for k, (name, size) in enumerate(cregs):
        if k:
            shifts.append(m)
            codes.append(ord(" "))
        for bit in reversed(range(size)):
            q = writers.get((name, bit))
            if (name, bit) not in written:
                kept.append((len(shifts), name, bit))
            shifts.append(m if q is None else m - 1 - rank.setdefault(q, len(rank)))
            codes.append(ord("0"))
    axis_of = {q: m - 1 - i for i, q in enumerate(measured)}
    perm = [axis_of[q] for q in sorted(rank, key=rank.get)]

    # m <= MAX_QUBITS, so indices, shifts and codes fit 32 bits, the width
    # of the code points format_keys reads
    shift = np.array(shifts, dtype=np.uint32)
    zeros = np.array(codes, dtype=np.uint32)
    characters = [index for index, _, _ in kept]

    def read(state: State):
        n = state.num_qubits
        probs = np.abs(state.amplitudes) ** 2
        if measured:
            view = probs.reshape((2,) * n)
            drop = tuple(n - 1 - q for q in range(n) if q not in axis_of)
            marginal = view.sum(axis=drop).reshape(-1) if drop else view.reshape(-1)
            # marginal index bit i corresponds to measured[i] (little-endian:
            # remaining axes keep their relative significance order)
        else:
            marginal = np.array([1.0])
        pvec = marginal.reshape((2,) * m).transpose(perm).reshape(-1)
        pvec = pvec / pvec.sum()
        base = zeros
        bits = [state.classical.get(name, 0) >> bit & 1 for _, name, bit in kept]
        if any(bits):
            base = zeros.copy()
            base[characters] += np.array(bits, dtype=np.uint32)

        def keys_of(indices: np.ndarray) -> list[str]:
            return format_keys(base + ((indices.astype(np.uint32)[:, None] >> shift) & 1))

        return keys_of, pvec, n_measures

    return read


def format_keys(rows: np.ndarray) -> list[str]:
    """Decode each row of character codes into one key: the rows, as
    little-endian 32-bit code points, are one array of ``<U{width}``
    strings.  Keys hold no NUL, which that view would drop at a key's end."""
    width = rows.shape[1]
    if not width:
        return [""] * len(rows)
    codes = np.ascontiguousarray(rows, dtype="<u4")
    return codes.view(f"<U{width}").ravel().tolist()


def run(c: Circuit, shots: int, seed: int = 0,
        workers: int = 1) -> tuple[Counts, ExecutionTrace]:
    """Execute a circuit for the given number of shots.

    A depth-first walk over classical histories: a branch of k shots splits
    at a measure or reset before the last gate by k1 ~ Binomial(k, p1), and
    past the last gate draws its k shots from ``_static_distribution``, whose
    key layout is built once per call.  All draws share one stream, so a
    static circuit is one pass and one draw.  At most one pending sibling per
    measure level before the last gate is held, each a 2^n copy.  The trace
    counts work per branch, not per shot.
    Identical (circuit, shots, seed, workers) always produces identical Counts.
    """
    if shots < 1:
        raise ValueError("shots must be positive")

    program = c.instructions
    end = 1 + max((i for i, instr in enumerate(program) if isinstance(instr, Gate)),
                  default=-1)
    rng = np.random.default_rng(derive_seed(seed, "static"))
    read = _static_distribution(program[end:], c.cregs)
    gates = measures = exchanged = 0
    drawn = []
    pending = [(State(c.num_qubits, workers), 0, shots)]
    while pending:
        state, start, k = pending.pop()
        for pc in range(start, end):
            instr = program[pc]
            if not isinstance(instr, (Measure, Reset)):
                delta = state.apply(instr)
                gates += delta.gates_applied
                exchanged += delta.exchanged_amplitudes
                continue
            ones = int(rng.binomial(k, state.p_one(instr.qubit)))
            measures += isinstance(instr, Measure)
            bit = int(ones == k)
            if 0 < ones < k:
                sibling = state.copy()
                sibling.settle(instr, 1)
                pending.append((sibling, pc + 1, ones))
                k -= ones
            state.settle(instr, bit)
        keys_of, pvec, read_out = read(state)
        measures += read_out
        draws = rng.multinomial(k, pvec)
        hits = np.flatnonzero(draws)
        drawn.append(zip(keys_of(hits), draws[hits].tolist()))
    trace = ExecutionTrace(gates, measures, exchanged, seed)
    if len(drawn) == 1:  # one branch draws distinct keys in sorted order
        return Counts(drawn[0]), trace
    tally: Counter[str] = Counter()
    for part in drawn:
        tally.update(dict(part))
    return Counts(sorted(tally.items())), trace
