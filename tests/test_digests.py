"""Closed-form answers pinned by digest.

Every one-receive-antenna closed-form table of a set of seeded games, and
the demands and core answers of K=8 games shaped like the benchmark's
``core_large_k`` inputs, are hashed with sha256 and compared with the
digests in ``closed_form_digests.json``.  Changes to the table layout,
the demand reads or the core LP must keep those bytes, bit for bit.

The digests depend on numpy's float routines (``log``, the LP's
``inv``), so the file records the numpy version and platform they were
taken on; a mismatch names both and the first game that differs.
Regenerate the file, once a change of bytes is intended, with
``PYTHONPATH=src python tests/test_digests.py > tests/closed_form_digests.json``.
"""

import hashlib
import json
import platform
import sys
from pathlib import Path

import numpy as np

from maccoop.analysis import symmetric_scenario
from maccoop.cores import ExpectationModel, check_core, demand_vector, grand_value
from maccoop.equilibrium import utility_table
from maccoop.model import SicFixed, Sud

from conftest import random_scenario

DIGESTS = Path(__file__).with_name("closed_form_digests.json")
MODELS = list(ExpectationModel)


def _environment() -> dict:
    return {"numpy": np.__version__, "platform": f"{platform.system()} {platform.machine()}"}


def _seeded_game(k: int, receiver: str, mode: str):
    """A seeded one-receive-antenna game: random-order SIC or SUD, pooled or per-antenna."""
    gen = np.random.default_rng([26, k, receiver == "sic", mode == "sum"])
    rx = SicFixed(tuple(int(u) + 1 for u in gen.permutation(k))) if receiver == "sic" else Sud()
    n0 = float(10.0 ** gen.uniform(-2.0, 2.0))
    return random_scenario(gen, k=k, m=1, mode=mode, receiver=rx, n0=n0)


def _core_game(slot: int, receiver: str, mode: str):
    """A K=8 game like ``core_large_k``'s: one antenna per user under a pooled
    budget, one or two under antenna caps."""
    gen = np.random.default_rng([26, 8, slot])
    rx = SicFixed(tuple(int(u) + 1 for u in gen.permutation(8))) if receiver == "sic" else Sud()
    n0 = float(10.0 ** gen.uniform(-1.0, 1.0))
    return random_scenario(gen, k=8, m=1, mode=mode, receiver=rx, n0=n0,
                           max_antennas=1 if mode == "sum" else 2)


def _hash_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _answer_bytes(result) -> bytes:
    parts = [result.verdict, float(result.slack).hex()]
    if result.nonempty:
        parts += [x.hex() for x in result.allocation.tolist()]
    else:
        cert = result.certificate
        parts += [f"{m}:{w.hex()}" for m, w in sorted(cert.weights.items())]
        parts.append(float(cert.margin).hex())
    return "|".join(parts).encode()


def _table_games():
    for k in range(1, 11):
        for receiver in ("sic", "sud"):
            for mode in ("sum", "caps"):
                yield f"table k={k} {receiver} {mode}", _seeded_game(k, receiver, mode)
    for k in range(2, 11):
        yield f"table symmetric k={k}", symmetric_scenario(k)


_CORE_SLOTS = (("sic", "sum"), ("sud", "caps"), ("sud", "sum"), ("sic", "caps"))


def compute_digests() -> dict:
    """Game name -> sha256 of its table bytes, or of its demands and core answers."""
    out = {}
    for name, s in _table_games():
        table = utility_table(s)
        out[name] = _hash_arrays(table.masks, table.counts, table.values)
    for slot, (receiver, mode) in enumerate(_CORE_SLOTS):
        s = _core_game(slot, receiver, mode)
        table = utility_table(s)
        h = hashlib.sha256(float(grand_value(s, table=table)).hex().encode())
        for model in MODELS:
            demands = demand_vector(s, model, table=table)
            h.update(np.array(list(demands.items())).tobytes())
            h.update(_answer_bytes(check_core(s, model, table=table)))
            h.update(_answer_bytes(check_core(s, model)))
        out[f"core k=8 {receiver} {mode}"] = h.hexdigest()
    return out


def test_closed_form_answers_match_their_digests():
    pinned = json.loads(DIGESTS.read_text())
    got = compute_digests()
    assert list(got) == list(pinned["digests"])
    differ = [name for name in got if got[name] != pinned["digests"][name]]
    if differ:
        raise AssertionError(
            f"{len(differ)} of {len(got)} digests differ, first {differ[0]!r}; pinned on "
            f"{pinned['environment']}, run on {_environment()}")


if __name__ == "__main__":
    json.dump({"environment": _environment(), "digests": compute_digests()}, sys.stdout,
              indent=1)
    sys.stdout.write("\n")
