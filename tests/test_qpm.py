import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qorch.circuit import CircuitBuilder
from qorch.qpm import (
    BackendDescriptor,
    BackendKind,
    BackendRegistry,
    CircuitTooLarge,
    DuplicateId,
    ExecuteRequest,
    MidCircuitUnsupported,
    MockHardwareBackend,
    StateVectorBackend,
    UnknownBackend,
    _bit_values,
    _pack_rows,
    count_values,
    key_values,
)


def bell():
    return (
        CircuitBuilder(2, (("c", 2),))
        .h(0)
        .cx(0, 1)
        .measure(0, "c", 0)
        .measure(1, "c", 1)
        .build()
    )


def sv_descriptor(backend_id="statevec", max_qubits=26):
    return BackendDescriptor(backend_id, BackendKind.STATE_VECTOR, max_qubits)


def hw_descriptor(backend_id="mock-hw"):
    return BackendDescriptor(
        backend_id, BackendKind.HARDWARE, max_qubits=12,
        supports_mid_circuit=False, supports_conditionals=False,
    )


@pytest.fixture
def registry():
    reg = BackendRegistry()
    reg.register(sv_descriptor(), StateVectorBackend())
    reg.register(hw_descriptor(), MockHardwareBackend(readout_flip_probability=0.02))
    return reg


# -- registration ----------------------------------------------------------


def test_register_and_list_order(registry):
    ids = [d.id for d in registry.list()]
    assert ids == ["statevec", "mock-hw"]


def test_duplicate_id_rejected(registry):
    with pytest.raises(DuplicateId):
        registry.register(sv_descriptor(), StateVectorBackend())
    assert [d.id for d in registry.list()] == ["statevec", "mock-hw"]


# -- calibration -------------------------------------------------------------


def test_statevec_calibration_is_ideal(registry):
    cal = registry.get_calibration("statevec")
    assert cal.readout_flip_probability == 0.0


def test_mock_hw_calibration_echoes_config(registry):
    cal = registry.get_calibration("mock-hw")
    assert cal.readout_flip_probability == 0.02


def test_unknown_backend(registry):
    with pytest.raises(UnknownBackend):
        registry.get_calibration("nope")


# -- execute -----------------------------------------------------------------


def test_execute_bell_on_statevec(registry):
    res = registry.execute("statevec", ExecuteRequest("t1", bell(), 100, seed=1))
    assert set(res.counts) <= {"00", "11"}
    assert res.counts.total() == 100
    assert res.backend_id == "statevec"
    assert registry.service_time("statevec", ExecuteRequest("t1", bell(), 100, seed=1)) > 0


def test_mock_hw_flip_rate():
    reg = BackendRegistry()
    reg.register(hw_descriptor(), MockHardwareBackend(readout_flip_probability=0.1))
    res = reg.execute("mock-hw", ExecuteRequest("t2", bell(), 10000, seed=3))
    odd = res.counts.frequency("01") + res.counts.frequency("10")
    # ideal Bell is half "00" half "11": P(exactly one flip) = 2 p (1-p) = 0.18
    assert abs(odd - 0.18) < 0.02


def test_mock_hw_p_zero_matches_statevec(registry):
    reg = BackendRegistry()
    reg.register(hw_descriptor(), MockHardwareBackend(readout_flip_probability=0.0))
    hw = reg.execute("mock-hw", ExecuteRequest("t", bell(), 2000, seed=11))
    sv = registry.execute("statevec", ExecuteRequest("t", bell(), 2000, seed=11))
    assert hw.counts == sv.counts


def test_circuit_too_large(registry):
    big = CircuitBuilder(30).build()
    with pytest.raises(CircuitTooLarge):
        registry.execute("statevec", ExecuteRequest("t", big, 10, seed=0))


def test_mid_circuit_unsupported_on_hardware(registry):
    c = (
        CircuitBuilder(1, (("c", 1),))
        .h(0)
        .measure(0, "c", 0)
        .x(0, condition=("c", 1))
        .build()
    )
    with pytest.raises(MidCircuitUnsupported):
        registry.execute("mock-hw", ExecuteRequest("t", c, 10, seed=0))


def test_external_plugin_runs_when_registered(registry):
    class FakePlugin:
        def execute(self, request, descriptor):
            from qorch.qpm import ExecuteResult
            from qorch.statevec import Counts, ExecutionTrace

            return ExecuteResult(
                request.task_id, Counts({"0": request.shots}),
                ExecutionTrace(), descriptor.id,
            )

    registry.register(sv_descriptor("plugin"), FakePlugin())
    res = registry.execute("plugin", ExecuteRequest("t", bell(), 7, seed=0))
    assert res.counts == {"0": 7}
    assert registry.get_calibration("plugin").readout_flip_probability == 0.0


def test_service_time_monotonicity():
    sv = StateVectorBackend(alpha=1e-3, beta=1e-9, gamma=0.0)
    c = bell()
    assert sv.service_time(c, 10, workers=2) <= sv.service_time(c, 10, workers=1)

    hw = MockHardwareBackend(readout_flip_probability=0.0, alpha_q=1.0, beta_q=1e-6)
    assert hw.service_time(c, 1000, workers=1) >= hw.service_time(c, 10, workers=1)


def test_execute_does_not_mutate_request(registry):
    req = ExecuteRequest("t", bell(), 50, seed=5)
    registry.execute("statevec", req)
    assert req.shots == 50 and req.seed == 5


def test_results_reproducible(registry):
    a = registry.execute("mock-hw", ExecuteRequest("t", bell(), 500, seed=9))
    b = registry.execute("mock-hw", ExecuteRequest("t", bell(), 500, seed=9))
    assert a.counts == b.counts


def test_pack_rows_equals_row_wise_packbits_padded_to_words():
    rng = np.random.default_rng(0)
    for width in range(131):
        for rows in (0, 1, 2, 7, 64, 300):
            bits = rng.random((rows, width)) < 0.5
            packed = np.packbits(bits, axis=1)
            expected = np.zeros((rows, -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
            expected[:, :packed.shape[1]] = packed
            words = _pack_rows(bits)
            assert words.dtype == np.dtype(">u8")
            assert np.array_equal(words, expected.view(">u8")), (width, rows)


@settings(max_examples=200, deadline=None)
@given(width=st.integers(1, 20) | st.integers(60, 130), rows=st.integers(1, 400),
       p=st.floats(0.02, 0.98), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_count_values_tallies_keys_in_order(width, rows, p, seed, data):
    # rows of bits and the keys they print give the same integers; keys of
    # up to 16 bits are tallied by value, wider ones by np.unique, and both
    # give the sorted keys of a plain tally, in the template's layout
    rng = np.random.default_rng(seed)
    bits = rng.random((rows, width)) < p
    cuts = sorted(data.draw(st.sets(st.integers(1, width - 1), max_size=3)) if width > 1 else [])
    spans = list(zip([0] + cuts, cuts + [width]))

    def key(row):
        text = "".join("1" if b else "0" for b in row)
        return " ".join(text[a:b] for a, b in spans)

    values = _bit_values(bits)
    assert np.array_equal(values, key_values([key(row) for row in bits], width))
    counts = count_values(values, key(bits[0]))
    assert list(counts.items()) == sorted(Counter(key(row) for row in bits).items())
