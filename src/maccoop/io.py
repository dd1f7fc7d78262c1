"""Scenario files, result tables, and scenario fingerprints.

Scenario files are JSON with a fixed canonical key order; parsing a
canonical file and serializing it back is byte-identical.  Parse errors
are anchored to a line/column (syntax) or a field path (semantics).

Result tables are CSV preceded by ``#``-prefixed metadata lines (tool
version, scenario fingerprint, seed, units) so that identical inputs
always produce identical bytes.  Tables are handed over by column, and
each column's kind gives its field of one row template: float64 arrays
``%.12g`` (12 significant digits; it spells ``nan``, ``inf`` and
``-inf``), integer arrays ``%d``, and any other column ``%s`` over its
formatted, quoted text.  ``CHUNK_ROWS`` rows at a time go through the
template and are written, so a table's text is never all alive at once.
A text column whose values repeat can be handed over as distinct labels
plus integer codes (:class:`Coded`); its labels are formatted and quoted
once per table.  Quoting is the ``csv`` module's minimal quoting.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain
from typing import Any, Mapping, Sequence

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
    _grand_power,
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


def _built(make, *args, source: str, where: str):
    """``make(*args)``; the ValueError (InvalidArgument) a model type raises on
    a value it rejects becomes a ScenarioFormatError naming the source and field."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ScenarioFormatError(f"{source}: {where}: {exc}") from exc


def _parse_receiver(doc: Any, source: str) -> Sud | SicFixed | SicTimeShare:
    if not isinstance(doc, dict):
        raise ScenarioFormatError("receiver: expected an object")
    kind = _require(doc, "type", "receiver")
    if kind == "sud":
        return Sud()
    if kind == "sic_fixed":
        order = _require(doc, "base_order", "receiver")
        if not isinstance(order, list):
            raise ScenarioFormatError("receiver.base_order: expected a list")
        return _built(SicFixed, tuple(_as_int(u, "receiver.base_order") for u in order),
                      source=source, where="receiver.base_order")
    if kind == "sic_timeshare":
        weights = doc.get("weights")
        if weights is None:
            return SicTimeShare()
        if not isinstance(weights, list):
            raise ScenarioFormatError("receiver.weights: expected a list")
        return _built(SicTimeShare, tuple(_as_number(w, "receiver.weights") for w in weights),
                      source=source, where="receiver.weights")
    raise ScenarioFormatError(f"receiver.type: unknown receiver '{kind}'")


def _parse_user(doc: Any, index: int, source: str) -> UserSpec:
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
        make, arg = SumPower, vals[0]
    elif mode == "per_antenna":
        make, arg = PerAntenna, tuple(vals)
    else:
        raise ScenarioFormatError(f"{where}.power.mode: unknown mode '{mode}'")
    power = _built(make, arg, source=source, where=f"{where}.power.values")
    return _built(UserSpec, uid, antennas, np.asarray(rows, dtype=np.float64), power,
                  source=source, where=where)


def parse_scenario(text: str, source: str = "<scenario>") -> Scenario:
    """Parse a scenario document; errors name the offending line or field.

    A noise level at which the grand coalition's received power over N0
    (:func:`maccoop.model._grand_power`) is not finite is an error naming
    ``noise_N0``, as ``SweepSpec`` and ``approx_ratio`` reject such SNRs.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"{source}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{source}: top level must be an object")
    rx = _as_int(_require(doc, "rx_antennas", source), "rx_antennas")
    noise = _as_number(_require(doc, "noise_N0", source), "noise_N0")
    receiver = _parse_receiver(_require(doc, "receiver", source), source)
    users_doc = _require(doc, "users", source)
    if not isinstance(users_doc, list):
        raise ScenarioFormatError("users: expected a list")
    users = tuple(_parse_user(u, i, source) for i, u in enumerate(users_doc))
    try:
        scenario = Scenario(users, rx, noise, receiver)
    except ValueError as exc:
        raise ScenarioFormatError(f"{source}: {exc}") from exc
    if not _grand_power(scenario) / noise < math.inf:
        raise ScenarioFormatError(f"{source}: noise_N0 = {noise!r} is too small: the grand "
                                  f"coalition's received power over N0 is not finite")
    return scenario


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
        return format(float(value), ".12g")  # spells nan, inf and -inf
    if isinstance(value, (np.integer, int)):
        return str(int(value))
    return str(value)


#: Rows formatted and written by one row template at a time.
CHUNK_ROWS = 2048


@dataclass(frozen=True)
class Coded:
    """A text column handed over as its distinct ``labels`` and, per row, the
    integer ``codes`` that index them: row r's cell is ``labels[codes[r]]``.

    The writer formats and quotes the labels once per table, so a label
    that many rows repeat is never formatted or quoted row by row.
    """

    labels: Sequence[Any]
    codes: np.ndarray

    def __len__(self) -> int:
        return len(self.codes)


def _quoted(cells: list[str]) -> list[str]:
    """Cells as csv's ``QUOTE_MINIMAL`` writes them, with this dialect's ','
    delimiter, '"' quote and '\\n' line terminator: a cell holding ',', '"'
    or a newline goes in double quotes, its '"' doubled ('\\r' is not quoted)."""
    text = "\r".join(cells)
    if "," not in text and '"' not in text and "\n" not in text:
        return cells
    if '"' in text:  # a cell holding '"' is quoted, so every '"' doubles
        cells = [c.replace('"', '""') for c in cells]
    return [f'"{c}"' if "," in c or '"' in c or "\n" in c else c for c in cells]


def _text(column: Sequence[Any], alone: bool) -> list[str]:
    """A column's cells as quoted CSV text: str arrays as they stand, anything
    else through ``format_value`` (numpy arrays after ``tolist``).

    The empty cell of a column that is ``alone`` in its table is written
    '""', as csv writes a row of one empty field, so that the line is not
    read back as a row of no fields.
    """
    cells = column.tolist() if isinstance(column, np.ndarray) else column
    if not (isinstance(column, np.ndarray) and column.dtype.kind == "U"):
        cells = list(map(format_value, cells))
    cells = _quoted(cells)
    return [c or '""' for c in cells] if alone else cells


def _field(column, alone: bool):
    """A column's field of the row template, and the function that gives the
    template's arguments for a slice of its rows.

    float64 arrays go in as floats under ``%.12g``, which equals
    ``format_value``'s ``.12g`` on every double, nan and the infinities
    included; integer arrays as ints under ``%d``; neither needs quoting.
    Every other column goes in under ``%s`` as its text (:func:`_text`),
    a :class:`Coded` column as its labels' text, made once here.
    """
    if isinstance(column, Coded):
        labels = np.array(_text(column.labels, alone), dtype=object)
        return "%s", lambda rows: labels.take(column.codes[rows]).tolist()
    if isinstance(column, np.ndarray) and column.dtype == np.float64:
        return "%.12g", lambda rows: column[rows].tolist()
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return "%d", lambda rows: column[rows].tolist()
    return "%s", lambda rows: _text(column[rows], alone)


def write_table(fh, header: Sequence[str], columns: Sequence[Sequence[Any]],
                meta: Mapping[str, Any] | None = None) -> None:
    """Write a CSV table preceded by '#'-prefixed metadata lines.

    ``columns`` holds one column per ``header`` name, all of one length.
    A column is a :class:`Coded` column or anything with ``len`` and
    slicing: a numpy array, a list, or an object that computes each slice
    of rows when asked.  Each ``CHUNK_ROWS`` slice of every column is
    taken (:func:`_field`) and its rows written through one row template
    of the columns' fields before the next slice is taken.  The bytes are
    those of ``csv.writer(fh, lineterminator="\\n")`` writing the rows'
    ``format_value`` cells, as Python 3.11's csv module writes them.
    """
    n = len(columns[0]) if columns else 0
    if len(columns) != len(header) or any(len(col) != n for col in columns):
        raise ValueError(f"{len(header)} header names need as many columns of one length")
    for key, value in (meta or {}).items():
        fh.write(f"# {key}: {format_value(value)}\n")
    # no header names make one empty line, as csv writes a row of no fields
    fh.write(",".join(_text(list(header), len(header) == 1)) + "\n")
    fields = [_field(col, len(columns) == 1) for col in columns]
    template = ",".join(field for field, _ in fields) + "\n"
    for start in range(0, n, CHUNK_ROWS):
        rows = slice(start, start + CHUNK_ROWS)
        args = chain.from_iterable(zip(*(cells(rows) for _, cells in fields)))
        fh.write(template * min(CHUNK_ROWS, n - start) % tuple(args))


def table_meta(scenario: Scenario | None = None, *, seed: int | None = None,
               **extra: Any) -> dict[str, Any]:
    """Standard metadata block for result tables."""
    meta: dict[str, Any] = {"tool_version": TOOL_VERSION}
    if scenario is not None:
        meta["fingerprint"] = fingerprint(scenario)
    if seed is not None:
        meta["seed"] = seed
    meta.update(extra)
    return meta
