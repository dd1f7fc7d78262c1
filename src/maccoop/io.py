"""Scenario files, result tables, and scenario fingerprints.

Scenario files are JSON with a fixed canonical key order; parsing a
canonical file and serializing it back is byte-identical.  Parse errors
are anchored to a line/column (syntax) or a field path (semantics).

Result tables are CSV preceded by ``#``-prefixed metadata lines (tool
version, scenario fingerprint, seed, tolerances) so that identical
inputs always produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .errors import ScenarioFormatError
from .model import (
    PerAntenna,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    SumPower,
    UserSpec,
)

TOOL_VERSION = "0.1.0"


# ---------------------------------------------------------------------------
# scenario files


def _require(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioFormatError(f"{where}: missing required key '{key}'")
    return mapping[key]


def _as_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioFormatError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _as_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioFormatError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_receiver(doc: Any) -> Sud | SicFixed | SicTimeShare:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("receiver: expected an object")
    kind = _require(doc, "type", "receiver")
    if kind == "sud":
        return Sud()
    if kind == "sic_fixed":
        order = _require(doc, "base_order", "receiver")
        if not isinstance(order, list):
            raise ScenarioFormatError("receiver.base_order: expected a list")
        return SicFixed(tuple(_as_int(u, "receiver.base_order") for u in order))
    if kind == "sic_timeshare":
        weights = doc.get("weights")
        if weights is None:
            return SicTimeShare()
        if not isinstance(weights, list):
            raise ScenarioFormatError("receiver.weights: expected a list")
        return SicTimeShare(tuple(_as_number(w, "receiver.weights") for w in weights))
    raise ScenarioFormatError(f"receiver.type: unknown receiver '{kind}'")


def _parse_user(doc: Any, index: int) -> UserSpec:
    where = f"users[{index}]"
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{where}: expected an object")
    uid = _as_int(_require(doc, "id", where), f"{where}.id")
    antennas = _as_int(_require(doc, "antennas", where), f"{where}.antennas")
    channel = _require(doc, "channel", where)
    if not isinstance(channel, list) or not all(isinstance(r, list) for r in channel):
        raise ScenarioFormatError(f"{where}.channel: expected a list of rows")
    rows = [[_as_number(x, f"{where}.channel") for x in r] for r in channel]
    if len({len(r) for r in rows}) > 1:
        raise ScenarioFormatError(f"{where}.channel: ragged rows")
    power_doc = _require(doc, "power", where)
    if not isinstance(power_doc, dict):
        raise ScenarioFormatError(f"{where}.power: expected an object")
    mode = _require(power_doc, "mode", f"{where}.power")
    values = _require(power_doc, "values", f"{where}.power")
    if not isinstance(values, list):
        values = [values]
    vals = [_as_number(v, f"{where}.power.values") for v in values]
    if mode == "sum":
        if len(vals) != 1:
            raise ScenarioFormatError(f"{where}.power.values: sum mode takes one value")
        power: SumPower | PerAntenna = SumPower(vals[0])
    elif mode == "per_antenna":
        power = PerAntenna(tuple(vals))
    else:
        raise ScenarioFormatError(f"{where}.power.mode: unknown mode '{mode}'")
    try:
        return UserSpec(uid, antennas, np.asarray(rows, dtype=np.float64), power)
    except ValueError as exc:
        raise ScenarioFormatError(f"{where}: {exc}") from exc


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse a scenario document; errors name the offending line or field."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{source}: top level must be an object")
    rx = _as_int(_require(doc, "rx_antennas", source), "rx_antennas")
    noise = _as_number(_require(doc, "noise_N0", source), "noise_N0")
    receiver = _parse_receiver(_require(doc, "receiver", source))
    users_doc = _require(doc, "users", source)
    if not isinstance(users_doc, list):
        raise ScenarioFormatError("users: expected a list")
    users = tuple(_parse_user(u, i) for i, u in enumerate(users_doc))
    try:
        return Scenario(users, rx, noise, receiver)
    except ValueError as exc:
        raise ScenarioFormatError(f"{source}: {exc}") from exc


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read(), source=str(path))


def _receiver_dict(receiver) -> dict[str, Any]:
    if isinstance(receiver, Sud):
        return {"type": "sud"}
    if isinstance(receiver, SicFixed):
        return {"type": "sic_fixed", "base_order": list(receiver.base_order)}
    out: dict[str, Any] = {"type": "sic_timeshare"}
    if receiver.weights is not None:
        out["weights"] = list(receiver.weights)
    return out


def scenario_dict(scenario: Scenario) -> dict[str, Any]:
    """Canonical plain-data form of a scenario (fixed key order)."""
    users = []
    for u in scenario.users:
        if isinstance(u.power, SumPower):
            power = {"mode": "sum", "values": [u.power.total]}
        else:
            power = {"mode": "per_antenna", "values": list(u.power.caps)}
        users.append(
            {
                "id": u.id,
                "antennas": u.antennas,
                "channel": u.channel.tolist(),
                "power": power,
            }
        )
    return {
        "rx_antennas": scenario.rx_antennas,
        "noise_N0": scenario.noise,
        "receiver": _receiver_dict(scenario.receiver),
        "users": users,
    }


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_dict(scenario), indent=2) + "\n"


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_scenario(scenario))


def fingerprint(scenario: Scenario) -> str:
    """Hash of the canonical serialization; identifies the game instance."""
    return hashlib.sha256(serialize_scenario(scenario).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# result tables


def format_value(value: Any) -> str:
    """Fixed-width-free deterministic cell formatting, 12 significant digits."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (np.floating, float)):
        x = float(value)
        if math.isnan(x):
            return "nan"
        return format(x, ".12g")
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


def write_table(fh, columns: Sequence[str], rows: Iterable[Sequence[Any]],
                meta: Mapping[str, Any] | None = None) -> None:
    """Write a CSV table preceded by '#'-prefixed metadata lines."""
    for key, value in (meta or {}).items():
        fh.write(f"# {key}: {format_value(value)}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(cell) for cell in row])


def table_meta(scenario: Scenario | None = None, *, seed: int | None = None,
               tol_lp: float | None = None, **extra: Any) -> dict[str, Any]:
    """Standard metadata block for result tables."""
    meta: dict[str, Any] = {"tool_version": TOOL_VERSION}
    if scenario is not None:
        meta["fingerprint"] = fingerprint(scenario)
    if seed is not None:
        meta["seed"] = seed
    if tol_lp is not None:
        meta["tol_lp"] = tol_lp
    meta.update(extra)
    return meta
