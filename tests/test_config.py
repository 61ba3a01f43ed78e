from dataclasses import MISSING, fields

import pytest

from qorch.config import ConfigError, default_config_text, load_config, parse_config
from qorch.qpm import BackendDescriptor, BackendKind, MockHardwareBackend, StateVectorBackend
from qorch.simenv import configure


def test_default_config_parses():
    cfg = parse_config(default_config_text())
    assert cfg.nodes == 8
    assert cfg.device == "statevec"
    assert [desc.id for desc, _ in cfg.backends] == ["statevec", "mock-hw"]
    assert cfg.routing.sv_max == 24
    assert cfg.routing.local_qubits_per_worker == 20
    engine = cfg.backends[0][1]
    assert engine.alpha == 1e-3
    assert engine.gamma == 1e-9
    assert cfg.partitions == ((BackendKind.STATE_VECTOR, None),)


def test_default_registry_has_two_backends():
    cfg = load_config()
    registry = cfg.build_registry()
    descs = registry.list()
    assert [d.id for d in descs] == ["statevec", "mock-hw"]
    assert descs[1].kind is BackendKind.HARDWARE
    assert registry.get_calibration("mock-hw").readout_flip_probability == 0.02


def test_custom_config_file(tmp_path):
    path = tmp_path / "sys.ini"
    path.write_text(
        "[cluster]\nnodes = 4\ndevice = sv\n\n"
        "[backend:sv]\nkind = state_vector\nmax_qubits = 10\n\n"
        "[simenv]\npartitions = state_vector:2,tensor_network:1\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.nodes == 4
    assert cfg.partitions == (("state_vector", 2), ("tensor_network", 1))


def test_env_var_config(tmp_path, monkeypatch):
    path = tmp_path / "sys.ini"
    path.write_text(
        "[cluster]\nnodes = 3\n\n[backend:sv]\nkind = state_vector\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("QORCH_CONFIG", str(path))
    assert load_config().nodes == 3


def test_unknown_device_rejected():
    with pytest.raises(ConfigError):
        parse_config("[cluster]\ndevice = ghost\n\n[backend:sv]\nkind = state_vector\n")


def test_device_without_engine_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[cluster]\ndevice = tn\n\n[backend:tn]\nkind = tensor_network\n\n"
                     "[backend:sv]\nkind = state_vector\n")
    assert str(info.value) == (
        "[cluster] device: 'tn' is a tensor_network backend, which has no engine")


def test_no_backends_rejected():
    with pytest.raises(ConfigError):
        parse_config("[cluster]\nnodes = 2\n")


def test_bad_kind_rejected():
    with pytest.raises(ConfigError):
        parse_config("[backend:x]\nkind = abacus\n")


@pytest.mark.parametrize("text, section, key", [
    ("[cluster]\nnodes = abc\n", "[cluster]", "nodes"),
    ("[cluster]\nnodes = 0\n", "[cluster]", "nodes"),
    ("[backend:hw]\nkind = hardware\nreadout_flip_probability = 2\n",
     "[backend:hw]", "readout_flip_probability"),
    ("[backend:fast]\nkind = state_vector\nalpha = -5\n", "[backend:fast]", "alpha"),
    ("[backend:fast]\nkind = state_vector\nbeta = -1e-9\n", "[backend:fast]", "beta"),
    ("[backend:fast]\nkind = state_vector\ngamma = -1e-9\n", "[backend:fast]", "gamma"),
    ("[backend:hw]\nkind = hardware\nalpha_q = -1\n", "[backend:hw]", "alpha_q"),
    ("[backend:hw]\nkind = hardware\nbeta_q = -1e-6\n", "[backend:hw]", "beta_q"),
    ("[backend:fast]\nkind = state_vector\nmax_qubits = 0\n", "[backend:fast]", "max_qubits"),
    ("[backend:fast]\nkind = state_vector\nmax_qubits = -3\n", "[backend:fast]", "max_qubits"),
    ("[backend:tn]\nkind = tensor_network\nmax_qubits = 0\n", "[backend:tn]", "max_qubits"),
    ("[backend:fast]\nkind = state_vector\nmax_qubits = 30\n", "[backend:fast]", "max_qubits"),
    ("[backend:hw]\nkind = hardware\nmax_qubits = 27\n", "[backend:hw]", "max_qubits"),
    ("[backend:fast]\nkind = state_vector\nalpha = nan\n", "[backend:fast]", "alpha"),
    ("[backend:fast]\nkind = state_vector\nbeta = inf\n", "[backend:fast]", "beta"),
    ("[backend:hw]\nkind = hardware\nreadout_flip_probability = nan\n",
     "[backend:hw]", "readout_flip_probability"),
    ("[routing]\ngang_limit = 0\n", "[routing]", "gang_limit: must be >= 1"),
    ("[routing]\nsv_max = -1\n", "[routing]", "sv_max: must be >= 0"),
    ("[routing]\ntn_depth_max = -1\n", "[routing]", "tn_depth_max: must be >= 0"),
    ("[routing]\nlocal_qubits_per_worker = -3\n", "[routing]",
     "local_qubits_per_worker: must be >= 0"),
])
def test_bad_value_names_section_and_key(text, section, key):
    with pytest.raises(ConfigError) as info:
        parse_config(text + "\n[backend:sv]\nkind = state_vector\n")
    assert section in str(info.value) and key in str(info.value)


def test_tensor_network_max_qubits_may_pass_the_state_vector_ceiling():
    cfg = parse_config("[backend:tn]\nkind = tensor_network\nmax_qubits = 64\n\n"
                       "[backend:sv]\nkind = state_vector\nmax_qubits = 26\nalpha = 0\n")
    assert [desc.max_qubits for desc, _ in cfg.backends] == [64, 26]
    assert cfg.backends[1][1].alpha == 0.0


@pytest.mark.parametrize("kind, key", [
    ("hardware", "alpha"),
    ("hardware", "gamma"),
    ("state_vector", "readout_flip_probability"),
    ("state_vector", "alpha_q"),
    ("tensor_network", "alpha"),
    ("tensor_network", "beta_q"),
])
def test_key_of_another_kind_rejected(kind, key):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[backend:x]\nkind = {kind}\n{key} = 0.5\n\n"
                     "[backend:sv]\nkind = state_vector\n")
    message = str(info.value)
    assert message.startswith(f"[backend:x] {key}: unknown key (have ")
    assert key not in message.split("(have ")[1].split(", ")


def test_every_backend_key_reaches_the_registry():
    cfg = parse_config(
        "[backend:sv]\nkind = state_vector\nmax_qubits = 20\nsupports_mid_circuit = false\n"
        "supports_conditionals = false\nalpha = 2e-3\nbeta = 3e-9\ngamma = 5e-9\n\n"
        "[backend:hw]\nkind = hardware\nmax_qubits = 10\nsupports_mid_circuit = false\n"
        "supports_conditionals = false\nreadout_flip_probability = 0.05\n"
        "alpha_q = 0.5\nbeta_q = 2e-6\n"
    )
    sv = BackendDescriptor("sv", BackendKind.STATE_VECTOR, 20, False, False)
    hw = BackendDescriptor("hw", BackendKind.HARDWARE, 10, False, False)
    sv_engine = StateVectorBackend(alpha=2e-3, beta=3e-9, gamma=5e-9)
    hw_engine = MockHardwareBackend(readout_flip_probability=0.05, alpha_q=0.5, beta_q=2e-6)
    # every key is set away from its default, so a key that is dropped shows
    for record in (sv, hw, sv_engine, hw_engine):
        for f in fields(record):
            assert f.default is MISSING or getattr(record, f.name) != f.default, f.name
    assert cfg.backends == ((sv, sv_engine), (hw, hw_engine))
    registry = cfg.build_registry()
    assert registry.list() == [sv, hw]
    for desc, engine in cfg.backends:
        assert registry._entries[desc.id].implementation is engine


@pytest.mark.parametrize("key", ["alpha", "beta", "gamma"])
def test_leftover_simenv_timing_key_rejected(key):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[backend:sv]\nkind = state_vector\n\n[simenv]\n{key} = 1e-3\n")
    message = str(info.value)
    assert "[simenv]" in message and key in message and "[backend:<id>]" in message


@pytest.mark.parametrize("text, named", [
    ("[cluster]\nbackfil = true\n", "[cluster] backfil"),
    ("[routng]\nsv_max = 20\n", "[routng]"),
    ("[backend:hw]\nkind = hardware\nalpah = 5\n", "[backend:hw] alpah"),
    ("[backend]\nkind = hardware\n", "[backend]"),
])
def test_unknown_section_or_key_rejected(text, named):
    with pytest.raises(ConfigError) as info:
        parse_config(text + "\n[backend:sv]\nkind = state_vector\n")
    assert named in str(info.value)


def test_backend_section_without_id_rejected():
    with pytest.raises(ConfigError) as info:
        parse_config("[backend:]\nkind = state_vector\n")
    assert "[backend:]" in str(info.value)


def test_partitions_all_honours_its_kind():
    cfg = parse_config(
        "[backend:sv]\nkind = state_vector\n\n[simenv]\npartitions = tensor_network:all\n"
    )
    assert cfg.partitions == ((BackendKind.TENSOR_NETWORK, None),)
    assert configure(3, cfg.partitions) == ((BackendKind.TENSOR_NETWORK, 3),)


@pytest.mark.parametrize("entry", ["bogus:all", "bogus:3", "state_vector:2,bogus:1",
                                   "state_vector:all,tensor_network:1", "state_vector:two", ""])
def test_bad_partition_entry_rejected(entry):
    with pytest.raises(ConfigError) as info:
        parse_config(f"[backend:sv]\nkind = state_vector\n\n[simenv]\npartitions = {entry}\n")
    assert "[simenv] partitions" in str(info.value)


@pytest.mark.parametrize("entry", ["state_vector:-1", "state_vector:0"])
def test_partition_count_below_one_rejected(entry):
    with pytest.raises(ConfigError) as info:
        parse_config("[backend:sv]\nkind = state_vector\n\n"
                     f"[simenv]\npartitions = {entry},tensor_network:3\n")
    message = str(info.value)
    assert "[simenv] partitions" in message and entry in message
