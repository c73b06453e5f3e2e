"""Mock quantum cloud: a device catalog, job submission and attack modes.

The catalog decouples what a device advertises from how it actually behaves.
Three operating modes model a provider:

* honest - jobs run on the requested device's true noise;
* substitution - jobs for one victim device are silently routed to another
  machine (no re-transpilation: the bait-and-switch reruns the same circuit);
* fabrication - one device advertises a doctored calibration profile while
  still executing with its true noise.

Users of the platform only ever see advertised profiles and counts.
``JobResult.executed_on`` and ``QuantumCloud.true_entry`` expose ground
truth for experiment scoring and tests; detection code must not read them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .circuit import TranspiledCircuit
from .device import DeviceProfile, ProfileError, _unique_keys, fabricate, load_profile
from .devicesim import Counts, NoiseSpec, run_rounds

__all__ = [
    "CatalogEntry",
    "AttackConfig",
    "JobResult",
    "QuantumCloud",
    "load_fleet",
]


@dataclass(frozen=True)
class CatalogEntry:
    """Advertised profile and ground-truth noise for one listed device."""

    device_id: str
    advertised: DeviceProfile
    true_noise: NoiseSpec

    def __post_init__(self) -> None:
        truth = self.true_noise.true_profile
        if not (self.device_id == self.advertised.device_id == truth.device_id):
            raise ValueError("catalog entry mixes device ids")
        if self.advertised.topology != truth.topology:
            raise ValueError("advertised topology differs from the real one")


@dataclass(frozen=True)
class AttackConfig:
    """Which fraud, if any, the platform is currently committing."""

    mode: str = "honest"
    victim: str | None = None
    actual: str | None = None
    device_id: str | None = None
    scale: float | None = None
    overrides: Mapping[str, float] | None = None

    def __post_init__(self) -> None:
        if self.mode == "honest":
            return
        if self.mode == "substitution":
            if not (self.victim and self.actual):
                raise ValueError("substitution needs victim and actual device ids")
            return
        if self.mode == "fabrication":
            if not self.device_id:
                raise ValueError("fabrication needs a device id")
            if (self.scale is None) == (self.overrides is None):
                raise ValueError("fabrication needs exactly one of scale / overrides")
            return
        raise ValueError(f"unknown attack mode {self.mode!r}")

    @classmethod
    def honest(cls) -> AttackConfig:
        return cls()

    @classmethod
    def substitution(cls, victim: str, actual: str) -> AttackConfig:
        return cls(mode="substitution", victim=victim, actual=actual)

    @classmethod
    def fabrication(cls, device_id: str, *, scale: float | None = None,
                    overrides: Mapping[str, float] | None = None) -> AttackConfig:
        return cls(mode="fabrication", device_id=device_id, scale=scale,
                   overrides=overrides)


@dataclass(frozen=True)
class JobResult:
    """Counts for a submitted job.

    ``executed_on`` records where the job really ran; it exists for scoring
    experiments and is not available to detection logic, which sees only the
    counts.
    """

    counts: Counts
    requested: str
    executed_on: str


class QuantumCloud:
    """Synchronous in-process stand-in for a cloud provider."""

    def __init__(self, attack: AttackConfig | None = None):
        self._catalog: dict[str, CatalogEntry] = {}
        self._attack = attack or AttackConfig.honest()

    @property
    def attack(self) -> AttackConfig:
        return self._attack

    def set_attack(self, attack: AttackConfig) -> None:
        for name in (attack.victim, attack.actual, attack.device_id):
            if name is not None and name not in self._catalog:
                raise KeyError(f"attack references unknown device {name!r}")
        self._attack = attack

    def device_ids(self) -> list[str]:
        return sorted(self._catalog)

    def register(self, entry: CatalogEntry) -> None:
        if entry.device_id in self._catalog:
            raise ValueError(f"device {entry.device_id!r} already registered")
        self._catalog[entry.device_id] = entry

    def get_profile(self, device_id: str) -> DeviceProfile:
        """Advertised profile, doctored when a fabrication attack targets it."""
        entry = self._entry(device_id)
        attack = self._attack
        if attack.mode == "fabrication" and attack.device_id == device_id:
            return fabricate(entry.advertised, scale=attack.scale,
                             overrides=attack.overrides)
        return entry.advertised

    def submit(self, device_id: str, circuit: TranspiledCircuit, shots: int,
               rounds: int, seed: int) -> JobResult:
        """Run a probe, honouring whatever attack mode is active.

        Raises TopologyError (from ``run_rounds``) when the circuit does not
        fit the device that would actually execute it.
        """
        entry = self._entry(device_id)
        target = entry
        attack = self._attack
        if attack.mode == "substitution" and attack.victim == device_id:
            target = self._entry(attack.actual)
        counts: Counts = run_rounds(circuit, target.true_noise, shots, rounds, seed)
        return JobResult(counts=counts, requested=device_id,
                         executed_on=target.device_id)

    def true_entry(self, device_id: str) -> CatalogEntry:
        """Ground-truth catalog entry; diagnostic hook for tests and scoring."""
        return self._entry(device_id)

    def _entry(self, device_id: str) -> CatalogEntry:
        try:
            return self._catalog[device_id]
        except KeyError:
            raise KeyError(f"no device {device_id!r} in catalog") from None


def _entry_from_config(profile: DeviceProfile, hidden_rate: float,
                       fabrication: Mapping | None) -> CatalogEntry:
    advertised = profile
    if fabrication is not None:
        advertised = fabricate(profile, scale=fabrication.get("scale"),
                               overrides=fabrication.get("overrides"))
    return CatalogEntry(
        device_id=profile.device_id,
        advertised=advertised,
        true_noise=NoiseSpec(true_profile=profile, hidden_rate=hidden_rate),
    )


def _reject_unknown_keys(obj: dict, known: tuple[str, ...]) -> None:
    for key in obj:
        if key not in known:
            raise ValueError(f"unknown key {key!r}")


def _check_fleet_entry(item) -> None:
    """Raise ValueError naming the first malformed field of a fleet entry."""
    if not isinstance(item, dict):
        raise ValueError("must be a JSON object")
    _reject_unknown_keys(item, ("profile_path", "hidden_rate", "fabrication"))
    if "profile_path" not in item:
        raise ValueError("missing profile_path")
    for name, kind, what in (("profile_path", str, "a string"),
                             ("hidden_rate", (int, float), "a number"),
                             ("fabrication", dict, "a JSON object")):
        if name in item and (not isinstance(item[name], kind) or isinstance(item[name], bool)):
            raise ValueError(f"{name}: must be {what}")
    try:
        _reject_unknown_keys(item.get("fabrication", {}), ("scale", "overrides"))
    except ValueError as exc:
        raise ValueError(f"fabrication: {exc}") from None


def load_fleet(config_path: str | Path, *, hidden_rate: float | None = None) -> QuantumCloud:
    """Build a cloud from a fleet config: a JSON list of device entries.

    Each entry holds ``profile_path`` (relative paths resolve against the
    config file), optional ``fabrication`` ({"scale": f} or
    {"overrides": {label: rate}}) baked into the advertised profile, and
    optional ``hidden_rate``.  A ``hidden_rate`` argument overrides the
    per-device values for the whole fleet.  A malformed entry raises
    ValueError with its field path, e.g. ``fleet entry 2: hidden_rate: ...``;
    an entry whose profile, forgery or rate is bad also names its file, e.g.
    ``fleet entry 1 (bad.json): edges: ...``.  A key given twice in one JSON
    object is an error, as in profiles, and so is a key an entry or its
    ``fabrication`` does not know.  An unreadable profile file raises
    OSError.
    """
    # checked before the entries, so that a bad argument is not blamed on one of them
    if hidden_rate is not None and not (0.0 <= hidden_rate < 1.0):
        raise ValueError(f"hidden_rate {hidden_rate} outside [0, 1)")
    config_path = Path(config_path)
    try:
        raw = json.loads(config_path.read_text(), object_pairs_hook=_unique_keys)
    except RecursionError:
        raise ValueError("fleet config nests too deeply") from None
    except ProfileError as exc:
        raise ValueError(f"fleet config: {exc}") from None
    if not isinstance(raw, list):
        raise ValueError("fleet config must be a JSON list")
    cloud = QuantumCloud()
    for i, item in enumerate(raw):
        try:
            _check_fleet_entry(item)
        except ValueError as exc:
            raise ValueError(f"fleet entry {i}: {exc}") from None
        path = Path(item["profile_path"])
        if not path.is_absolute():
            path = config_path.parent / path
        rate = hidden_rate if hidden_rate is not None else item.get("hidden_rate", 0.0)
        try:
            profile = load_profile(path.read_text())
            cloud.register(_entry_from_config(profile, rate, item.get("fabrication")))
        except ValueError as exc:
            raise ValueError(f"fleet entry {i} ({item['profile_path']}): {exc}") from None
    return cloud
