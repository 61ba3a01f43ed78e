"""System configuration: one INI document with cluster, backend, routing,
and simulation-environment blocks.

Each backend block carries its own timing coefficients; the simulation
environment block holds only the partition plan.  Sections, keys and values
are checked here, so an unknown or bad key fails with its section and name
before anything runs.

Resolution order for the config path: explicit argument, the QORCH_CONFIG
environment variable, then the packaged default.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path

from .qpm import (
    BackendDescriptor,
    BackendKind,
    BackendRegistry,
    MockHardwareBackend,
    StateVectorBackend,
)
from .qtm import RoutingConfig

ENV_CONFIG = "QORCH_CONFIG"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class BackendSettings:
    id: str
    kind: BackendKind
    max_qubits: int
    supports_mid_circuit: bool = True
    supports_conditionals: bool = True
    concurrency: int = 1
    readout_flip_probability: float = 0.0
    alpha: float = 1e-3
    beta: float = 1e-9
    gamma: float = 1e-9
    alpha_q: float = 1.0
    beta_q: float = 1e-6

    def descriptor(self) -> BackendDescriptor:
        return BackendDescriptor(
            self.id, self.kind, self.max_qubits,
            self.supports_mid_circuit, self.supports_conditionals, self.concurrency,
        )

    def implementation(self):
        if self.kind is BackendKind.STATE_VECTOR:
            return StateVectorBackend(self.alpha, self.beta, self.gamma)
        if self.kind is BackendKind.HARDWARE:
            return MockHardwareBackend(
                self.readout_flip_probability, self.alpha_q, self.beta_q
            )
        return None  # tensor-network slots need an external plugin


@dataclass(frozen=True)
class SystemConfig:
    nodes: int
    device: str | None
    backfill: bool
    backends: tuple[BackendSettings, ...]
    routing: RoutingConfig
    partitions: tuple[tuple[BackendKind, int | None], ...]  # count None = every sim node
    text: str = ""  # verbatim snapshot for run directories

    def build_registry(self) -> BackendRegistry:
        registry = BackendRegistry()
        for settings in self.backends:
            registry.register(settings.descriptor(), settings.implementation())
        return registry


# the keys each section holds; "backend:" stands for every [backend:<id>]
_KEYS = {
    "cluster": {"nodes", "device", "backfill"},
    "backend:": {f.name for f in fields(BackendSettings)} - {"id"},
    "routing": {f.name for f in fields(RoutingConfig)},
    "simenv": {"partitions"},
}


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
    for name in parser.sections():
        _check_keys(name, parser[name])

    def section(name: str):
        return parser[name] if parser.has_section(name) else {}

    cluster = section("cluster")
    nodes = _number(cluster, "cluster", "nodes", 8, int, low=1)
    device = cluster.get("device") or None
    backfill = _as_bool(cluster, "cluster", "backfill", False)

    backends: list[BackendSettings] = []
    for name in parser.sections():
        if not name.startswith("backend:"):
            continue
        raw = parser[name]
        backend_id = name.split(":", 1)[1]
        try:
            kind = BackendKind(raw.get("kind", "state_vector"))
        except ValueError as exc:
            raise ConfigError(f"[{name}] kind: {exc}") from exc
        backends.append(
            BackendSettings(
                id=backend_id,
                kind=kind,
                max_qubits=_number(raw, name, "max_qubits", 26, int),
                supports_mid_circuit=_as_bool(raw, name, "supports_mid_circuit", True),
                supports_conditionals=_as_bool(raw, name, "supports_conditionals", True),
                concurrency=_number(raw, name, "concurrency", 1, int),
                readout_flip_probability=_number(
                    raw, name, "readout_flip_probability", 0.0, low=0.0, high=1.0
                ),
                alpha=_number(raw, name, "alpha", 1e-3),
                beta=_number(raw, name, "beta", 1e-9),
                gamma=_number(raw, name, "gamma", 1e-9),
                alpha_q=_number(raw, name, "alpha_q", 1.0),
                beta_q=_number(raw, name, "beta_q", 1e-6),
            )
        )
    if not backends:
        raise ConfigError("config declares no [backend:*] sections")
    if device is not None and device not in {b.id for b in backends}:
        raise ConfigError(f"[cluster] device: {device!r} is not a configured backend")

    routing_raw = section("routing")
    routing = RoutingConfig(
        sv_max=_number(routing_raw, "routing", "sv_max", 24, int),
        tn_depth_max=_number(routing_raw, "routing", "tn_depth_max", 1000, int),
        local_qubits_per_worker=_number(
            routing_raw, "routing", "local_qubits_per_worker", 20, int
        ),
        gang_limit=_number(routing_raw, "routing", "gang_limit", 8, int),
    )

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


def _check_keys(name: str, raw) -> None:
    """Refuse a section or key that nothing reads, naming it."""
    prefix, colon, _ = name.partition(":")
    known = _KEYS.get(prefix + colon)
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
    if (low is not None and value < low) or (high is not None and value > high):
        bounds = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"[{section}] {key}: must be {bounds}, got {text}")
    return value


def _parse_partitions(raw: str):
    """``kind:count`` entries, or one ``kind:all`` that gives the kind every node."""
    entries = [item.strip() for item in raw.split(",") if item.strip()]
    plan = []
    for entry in entries:
        kind, _, count = (part.strip() for part in entry.partition(":"))
        try:
            kind = BackendKind(kind)
        except ValueError:
            raise ConfigError(f"[simenv] partitions: unknown kind in {entry!r}") from None
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
