"""Quantum Platform Manager: the uniform backend plugin contract.

A registry maps backend descriptors to implementations behind one execute /
calibration API.  Two backends ship with the system: an ideal state-vector
simulator and a mock hardware device that reuses the ideal simulation and
flips readout bits with a calibrated probability.  Every backend registers
with an implementation; an external plugin is any object with ``execute``
and ``service_time``.

Each backend owns its timing model: ``service_time(circuit, shots, workers)``
is a pure function of the request and the one price of a piece, which
``qtm.task_service_time`` reads once per request; ``execute`` only runs.  All
service times are logical model values (seconds), never wall clock, so the
schedulers stay deterministic.

``BackendDescriptor`` and each engine are frozen dataclasses whose fields with
a default are the keys of a ``[backend:<id>]`` config section, each with one
default and its ``range`` bounds.  ``ENGINES`` maps each kind to its engine
class.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .circuit import Circuit, gate_count, has_conditionals, has_mid_circuit
from .seeds import derive_seed
from .statevec import MAX_QUBITS, Counts, ExecutionTrace, exchange_cost, format_keys, run


class BackendKind(str, Enum):
    STATE_VECTOR = "state_vector"
    HARDWARE = "hardware"


class DuplicateId(ValueError):
    pass


class UnknownBackend(KeyError):
    pass


class CircuitTooLarge(ValueError):
    pass


class MidCircuitUnsupported(ValueError):
    pass


@dataclass(frozen=True)
class BackendDescriptor:
    id: str
    kind: BackendKind
    max_qubits: int = field(default=MAX_QUBITS, metadata={"range": (1, None)})
    supports_mid_circuit: bool = True
    supports_conditionals: bool = True


@dataclass(frozen=True)
class CalibrationInfo:
    readout_flip_probability: float


@dataclass(frozen=True)
class ExecuteRequest:
    task_id: str
    circuit: Circuit
    shots: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class ExecuteResult:
    task_id: str
    counts: Counts
    trace: ExecutionTrace
    backend_id: str


@dataclass(frozen=True)
class StateVectorBackend:
    """Ideal chunked state-vector execution timed as

        T(circuit, w) = alpha + beta * gates * 2^n / w + gamma * exchange_cost(w)
    """

    alpha: float = field(default=1e-3, metadata={"range": (0.0, None)})
    beta: float = field(default=1e-9, metadata={"range": (0.0, None)})
    gamma: float = field(default=1e-9, metadata={"range": (0.0, None)})

    def service_time(self, circuit: Circuit, shots: int, workers: int) -> float:
        n = circuit.num_qubits
        compute = self.beta * gate_count(circuit) * 2**n / workers
        comm = self.gamma * exchange_cost(circuit, n, workers) if n else 0.0
        return self.alpha + compute + comm

    def execute(self, request: ExecuteRequest, descriptor: BackendDescriptor) -> ExecuteResult:
        counts, trace = run(request.circuit, request.shots, request.seed, request.workers)
        return ExecuteResult(request.task_id, counts, trace, descriptor.id)

    def calibration(self) -> CalibrationInfo:
        return CalibrationInfo(0.0)


@dataclass(frozen=True)
class MockHardwareBackend:
    """Ideal simulation plus independent readout bit flips with probability
    ``readout_flip_probability``, timed as

        T(circuit, shots) = alpha_q + beta_q * shots * gates

    Flip draws come from one counter-keyed stream indexed by (shot, bit), so
    they are a pure function of (request seed, shot, bit) regardless of how
    the shot list is enumerated.  They are applied as one XOR of the flip
    rows, as ``key_values`` integers, over the expanded shot list (each
    sorted key repeated by its count), and only the distinct results are
    formatted as keys.
    """

    readout_flip_probability: float = field(default=0.0, metadata={"range": (0.0, 1.0)})
    alpha_q: float = field(default=1.0, metadata={"range": (0.0, None)})
    beta_q: float = field(default=1e-6, metadata={"range": (0.0, None)})

    def service_time(self, circuit: Circuit, shots: int, workers: int) -> float:
        return self.alpha_q + self.beta_q * shots * gate_count(circuit)

    def execute(self, request: ExecuteRequest, descriptor: BackendDescriptor) -> ExecuteResult:
        counts, trace = run(request.circuit, request.shots, request.seed, workers=1)
        if self.readout_flip_probability > 0.0:
            counts = self._flip(counts, request.shots, request.seed)
        return ExecuteResult(request.task_id, counts, trace, descriptor.id)

    def _flip(self, counts: Counts, shots: int, seed: int) -> Counts:
        keys = sorted(counts)
        width = len(keys[0]) - keys[0].count(" ")
        if not width:
            return counts
        rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "readout")))
        flips = rng.random((shots, width)) < self.readout_flip_probability
        # Shot s reads the s-th key of the sorted keys, each repeated by its
        # count, so its readout is that key XOR flip row s.
        values = np.repeat(key_values(keys, width), [counts[k] for k in keys])
        values ^= _bit_values(flips)
        return count_values(values, keys[0])

    def calibration(self) -> CalibrationInfo:
        return CalibrationInfo(self.readout_flip_probability)


ENGINES: dict[BackendKind, type] = {
    BackendKind.STATE_VECTOR: StateVectorBackend,
    BackendKind.HARDWARE: MockHardwareBackend,
}


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack rows of bits into big-endian uint64 words, first bit most significant.

    Rows of up to 64 bits pack into one word, so the word order is the
    order of the rows read as bit strings; wider rows take one more word
    per 64 bits and compare word by word.  Rows are padded with zero bits
    to whole bytes, the flat array is packed in one call, and the bytes are
    padded to whole words: one ``packbits`` over short rows costs more per
    row than the copies.
    """
    rows, width = bits.shape
    nbytes = -(-width // 8)
    if width % 8:
        padded = np.zeros((rows, nbytes * 8), dtype=bool)
        padded[:, :width] = bits
        bits = padded
    packed = np.packbits(bits.reshape(-1)).reshape(rows, nbytes)
    if nbytes % 8:
        words = np.zeros((rows, -(-nbytes // 8) * 8), dtype=np.uint8)
        words[:, :nbytes] = packed
        packed = words
    return packed.view(">u8")


def _bit_values(bits: np.ndarray) -> np.ndarray:
    """Rows of bits as ``key_values`` integers, first bit most significant."""
    width = bits.shape[1]
    words = _pack_rows(bits)
    if width <= 64:
        return words[:, 0].astype(np.uint64) >> np.uint64(64 - width)
    pad = words.shape[1] * 64 - width
    return np.array([int.from_bytes(row.tobytes(), "big") >> pad for row in words], dtype=object)


def key_values(keys: list[str], width: int) -> np.ndarray:
    """Keys of one layout of ``width`` bits as integers of their bits, the
    spaces dropped and the first bit most significant, so they sort as the
    keys do: ``uint64`` up to 64 bits, Python integers above."""
    return np.array([int("0" + key.replace(" ", ""), 2) for key in keys],
                    dtype=np.uint64 if width <= 64 else object)


def count_values(values: np.ndarray, template: str) -> Counts:
    """Tally ``key_values`` integers into Counts, keys sorted, printed in
    the layout of the ``template`` key.  Up to 16 bits the tally is by
    value, which lists the keys in order with no sort; wider ones sort."""
    width = len(template) - template.count(" ")
    if width <= 16:
        tally = np.bincount(values.astype(np.intp))
        distinct = tally.nonzero()[0]
        tally = tally[distinct]
    else:
        distinct, tally = np.unique(values, return_counts=True)
    if " " not in template and width and len(distinct) <= 64:
        keys = [format(v, f"0{width}b") for v in distinct.tolist()]
    else:
        keys = _layout_keys(distinct, template)
    return Counts(zip(keys, tally.tolist()))


def _layout_keys(values: np.ndarray, template: str) -> list[str]:
    """The keys of distinct ``key_values`` integers in the template's layout."""
    width = len(template) - template.count(" ")
    if values.dtype == object:  # wider than 64 bits
        nbytes = -(-width // 8)
        data = b"".join([v.to_bytes(nbytes, "big") for v in values.tolist()])
    else:
        nbytes, data = 8, values.astype(">u8").tobytes()
    octets = np.frombuffer(data, dtype=np.uint8).reshape(len(values), nbytes)
    bits = np.unpackbits(octets, axis=1)[:, nbytes * 8 - width:]
    rows = np.full((len(values), len(template)), ord(" "), dtype=np.uint32)
    rows[:, [i for i, ch in enumerate(template) if ch != " "]] = ord("0") + bits
    return format_keys(rows)


@dataclass
class _Entry:
    descriptor: BackendDescriptor
    implementation: object


class BackendRegistry:
    """Read-mostly registry shared by routing and execution."""

    def __init__(self):
        self._entries: dict[str, _Entry] = {}

    def register(self, descriptor: BackendDescriptor, implementation) -> None:
        if descriptor.id in self._entries:
            raise DuplicateId(f"backend {descriptor.id!r} already registered")
        self._entries[descriptor.id] = _Entry(descriptor, implementation)

    def list(self) -> list[BackendDescriptor]:
        return [e.descriptor for e in self._entries.values()]

    def descriptor(self, backend_id: str) -> BackendDescriptor:
        return self._entry(backend_id).descriptor

    def get_calibration(self, backend_id: str) -> CalibrationInfo:
        impl = self._entry(backend_id).implementation
        return impl.calibration() if hasattr(impl, "calibration") else CalibrationInfo(0.0)

    def execute(self, backend_id: str, request: ExecuteRequest) -> ExecuteResult:
        entry = self._entry(backend_id)
        check_compatible(entry.descriptor, request.circuit)
        return entry.implementation.execute(request, entry.descriptor)

    def service_time(self, backend_id: str, request: ExecuteRequest) -> float:
        """The modeled seconds the backend takes to run this request."""
        engine = self._entry(backend_id).implementation
        return engine.service_time(request.circuit, request.shots, request.workers)

    def _entry(self, backend_id: str) -> _Entry:
        try:
            return self._entries[backend_id]
        except KeyError:
            raise UnknownBackend(backend_id) from None


def check_compatible(desc: BackendDescriptor, c: Circuit) -> None:
    """Raise if the backend cannot take the circuit at all."""
    if c.num_qubits > desc.max_qubits:
        raise CircuitTooLarge(
            f"circuit has {c.num_qubits} qubits, backend {desc.id!r} "
            f"supports at most {desc.max_qubits}"
        )
    if not desc.supports_mid_circuit and has_mid_circuit(c):
        raise MidCircuitUnsupported(
            f"backend {desc.id!r} does not support mid-circuit measurement"
        )
    if not desc.supports_conditionals and has_conditionals(c):
        raise MidCircuitUnsupported(
            f"backend {desc.id!r} does not support conditioned gates"
        )
