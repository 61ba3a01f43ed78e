"""Reference loops for sampling and mock-hardware readout flips.

These are the per-outcome key loop and the per-shot flip loop that
``qorch.statevec`` and ``qorch.qpm`` used before both were vectorised, kept
unchanged so the vectorised code can be held to them bit for bit: same keys,
same key order, same counts.  ``reference_shot_by_shot`` is the loop that
sampled feed-forward circuits before the shot-branching walk: it re-runs the
whole circuit from |0...0> for every shot, so it can only be compared with
the walk in distribution.
"""
import numpy as np

from qorch.circuit import Gate, Measure, Reset
from qorch.seeds import derive_seed
from qorch.statevec import Counts, ExecutionTrace, State


def reference_static_distribution(c, workers=1):
    """(sorted keys, probabilities) built by formatting all 2^m outcomes."""
    state = State(c.num_qubits, workers)
    for instr in c.instructions:
        if isinstance(instr, Gate):
            state.apply(instr)
    writers: dict[tuple[str, int], int | None] = {}
    reset_seen: set[int] = set()
    for instr in c.instructions:
        if isinstance(instr, Reset):
            reset_seen.add(instr.qubit)
        elif isinstance(instr, Measure):
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
    else:
        marginal = np.array([1.0])

    outcome_probs: dict[str, float] = {}
    m = len(measured)
    pos_of = {q: i for i, q in enumerate(measured)}
    for z in range(2**m):
        values: dict[str, int] = {}
        for (creg, bit), q in writers.items():
            b = 0 if q is None else (z >> pos_of[q]) & 1
            current = values.get(creg, 0)
            values[creg] = (current & ~(1 << bit)) | (b << bit)
        key = " ".join(
            format(values.get(name, 0), f"0{size}b") for name, size in c.cregs
        )
        outcome_probs[key] = outcome_probs.get(key, 0.0) + float(marginal[z])
    keys = sorted(outcome_probs)
    pvec = np.array([outcome_probs[k] for k in keys])
    pvec = pvec / pvec.sum()
    return keys, pvec


def reference_run(c, shots, seed=0, workers=1):
    """Counts of a static circuit, sampled over the reference distribution."""
    keys, pvec = reference_static_distribution(c, workers)
    rng = np.random.default_rng(derive_seed(seed, "static"))
    draws = rng.multinomial(shots, pvec)
    counts = Counts()
    for key, count in zip(keys, draws):
        if count:
            counts[key] = int(count)
    return counts


def reference_shot_by_shot(c, shots, seed=0, workers=1):
    """(counts, trace) of any circuit, collapsing shot by shot: shot s reads
    1 at a measure or reset when a draw of its ``derive_seed(seed, "shot",
    s)`` stream is below the qubit's ``p_one``."""
    counts = Counts()
    trace = ExecutionTrace(seed=seed)
    for shot in range(shots):
        state = State(c.num_qubits, workers)
        rng = np.random.default_rng(derive_seed(seed, "shot", shot))
        for instr in c.instructions:
            if isinstance(instr, (Measure, Reset)):
                state.settle(instr, int(rng.random() < state.p_one(instr.qubit)))
                trace.measures += isinstance(instr, Measure)
            else:
                trace = trace + state.apply(instr)
        key = " ".join(
            format(state.classical.get(name, 0), f"0{size}b") for name, size in c.cregs
        )
        counts[key] = counts.get(key, 0) + 1
    trace.seed = seed
    return Counts(sorted(counts.items())), trace


def reference_flip(counts, shots, seed, p):
    """Apply readout flips shot by shot, as mock hardware did."""
    keys = sorted(counts)
    if not keys or keys == [""]:
        return counts
    positions = [i for i, ch in enumerate(keys[0]) if ch != " "]
    rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "readout")))
    flips = rng.random((shots, len(positions))) < p
    out = Counts()
    shot = 0
    for key in keys:
        for _ in range(counts[key]):
            chars = list(key)
            for j, pos in enumerate(positions):
                if flips[shot, j]:
                    chars[pos] = "1" if chars[pos] == "0" else "0"
            flipped = "".join(chars)
            out[flipped] = out.get(flipped, 0) + 1
            shot += 1
    return Counts(sorted(out.items()))
