"""System configuration: one INI document with cluster, backend, routing,
and simulation-environment blocks.

A backend block takes the keys of ``qpm.BackendDescriptor`` plus those of the
engine class its kind maps to in ``qpm.ENGINES`` (so each kind carries its
own timing coefficients); the simulation environment block holds only the
partition plan.  Sections, keys and values are checked here, so an unknown
or bad key, or a key that only another kind reads, fails with its section
and name before anything runs.

Resolution order for the config path: explicit argument, the QORCH_CONFIG
environment variable, then the packaged default.
"""
from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, fields
from importlib import resources
from pathlib import Path

from .qpm import ENGINES, BackendDescriptor, BackendKind, BackendRegistry
from .qtm import RoutingConfig
from .statevec import MAX_QUBITS

ENV_CONFIG = "QORCH_CONFIG"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SystemConfig:
    nodes: int
    device: str | None
    backfill: bool
    backends: tuple[tuple[BackendDescriptor, object], ...]  # (descriptor, engine)
    routing: RoutingConfig
    partitions: tuple[tuple[BackendKind, int | None], ...]  # count None = every sim node
    text: str = ""  # verbatim snapshot for run directories

    def build_registry(self) -> BackendRegistry:
        registry = BackendRegistry()
        for descriptor, engine in self.backends:
            registry.register(descriptor, engine)
        return registry


# the keys each section holds; a [backend:<id>] section takes those of its kind
_KEYS = {
    "cluster": {"nodes", "device", "backfill"},
    "routing": {f.name for f in fields(RoutingConfig)},
    "simenv": {"partitions"},
}
# the kinds a [simenv] partition can hold; hardware is never simulated there
_SIMULATOR_KINDS = {kind.value: kind for kind in BackendKind if kind is not BackendKind.HARDWARE}


def default_config_text() -> str:
    return resources.files("qorch.data").joinpath("default.ini").read_text("utf-8")


def load_config(path: str | Path | None = None) -> SystemConfig:
    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path is None:
        return parse_config(default_config_text())
    return parse_config(Path(path).read_text("utf-8"))


def parse_config(text: str) -> SystemConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    backends = []
    for name in parser.sections():
        if name.startswith("backend:"):
            backends.append(_parse_backend(name, parser[name]))
        else:
            _check_keys(name, parser[name], _KEYS.get(name))

    def section(name: str):
        return parser[name] if parser.has_section(name) else {}

    cluster = section("cluster")
    nodes = _number(cluster, "cluster", "nodes", 8, int, low=1)
    device = cluster.get("device") or None
    backfill = _as_bool(cluster, "cluster", "backfill", False)

    if not backends:
        raise ConfigError("config declares no [backend:*] sections")
    if device is not None and device not in {desc.id for desc, _ in backends}:
        raise ConfigError(f"[cluster] device: {device!r} is not a configured backend")

    routing = RoutingConfig(**_field_values(RoutingConfig, section("routing"), "routing"))

    partitions = _parse_partitions(section("simenv").get("partitions", "state_vector:all"))

    return SystemConfig(
        nodes=nodes,
        device=device,
        backfill=backfill,
        backends=tuple(backends),
        routing=routing,
        partitions=partitions,
        text=text,
    )


def _parse_backend(name: str, raw) -> tuple[BackendDescriptor, object]:
    """One [backend:<id>] section: its descriptor, and an engine of the class
    its kind maps to in ``ENGINES``."""
    backend_id = name.split(":", 1)[1]
    if not backend_id:
        raise ConfigError(f"[{name}]: a backend section needs an id, as in [backend:<id>]")
    try:
        kind = BackendKind(raw.get("kind", "state_vector"))
    except ValueError as exc:
        raise ConfigError(f"[{name}] kind: {exc}") from exc
    engine = ENGINES[kind]
    _check_keys(name, raw, {f.name for cls in (BackendDescriptor, engine)
                            for f in fields(cls)} - {"id"})
    descriptor = BackendDescriptor(backend_id, kind,
                                   **_field_values(BackendDescriptor, raw, name))
    if descriptor.max_qubits > MAX_QUBITS:
        raise ConfigError(
            f"[{name}] max_qubits: a {kind.value} backend simulates at most "
            f"{MAX_QUBITS} qubits, got {descriptor.max_qubits}"
        )
    return descriptor, engine(**_field_values(engine, raw, name))


def _check_keys(name: str, raw, known: set[str] | None) -> None:
    """Refuse a section or key that nothing reads, naming it."""
    if known is None:
        raise ConfigError(
            f"[{name}]: unknown section (have [cluster], [backend:<id>], [routing], [simenv])"
        )
    for key in raw:
        if key in known:
            continue
        if name == "simenv" and key in ("alpha", "beta", "gamma"):
            raise ConfigError(
                f"[simenv] {key}: timing coefficients live in [backend:<id>]; "
                f"move {key} there"
            )
        raise ConfigError(f"[{name}] {key}: unknown key (have {', '.join(sorted(known))})")


def _field_values(cls, raw, section: str) -> dict:
    """The fields of the dataclass ``cls`` that the section sets, each read as
    the type of its default, bounded by its ``range`` metadata; a field the
    section leaves out keeps its default."""
    values = {}
    for f in fields(cls):
        if f.default is MISSING or f.name not in raw:
            continue
        if isinstance(f.default, bool):
            values[f.name] = _as_bool(raw, section, f.name, f.default)
        else:
            values[f.name] = _number(raw, section, f.name, f.default, type(f.default),
                                     *f.metadata.get("range", ()))
    return values


def _number(raw, section: str, key: str, default, kind=float, low=None, high=None):
    """Read one numeric key, naming its section and key when it is bad."""
    text = raw.get(key)
    if text is None:
        return default
    try:
        value = kind(text)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: expected {kind.__name__}, got {text!r}"
        ) from None
    if not math.isfinite(value):
        raise ConfigError(f"[{section}] {key}: must be finite, got {text}")
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"[{section}] {key}: must be {bounds}, got {text}")
    return value


def _parse_partitions(raw: str):
    """Simulator ``kind:count`` entries, or one ``kind:all`` that gives the kind every node."""
    entries = [item.strip() for item in raw.split(",") if item.strip()]
    if not entries:
        raise ConfigError("[simenv] partitions: no entries")
    plan = []
    for entry in entries:
        kind, _, count = (part.strip() for part in entry.partition(":"))
        kind = _SIMULATOR_KINDS.get(kind)
        if kind is None:
            raise ConfigError(f"[simenv] partitions: {entry!r} names no simulator kind")
        if count == "all" and len(entries) == 1:
            plan.append((kind, None))
            continue
        try:
            nodes = int(count)
        except ValueError:
            raise ConfigError(f"[simenv] partitions: bad entry {entry!r}") from None
        if nodes < 1:
            raise ConfigError(f"[simenv] partitions: count below 1 in {entry!r}")
        plan.append((kind, nodes))
    return tuple(plan)


def _as_bool(raw, section: str, key: str, default: bool) -> bool:
    text = raw.get(key)
    if text is None:
        return default
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected boolean, got {text!r}")
