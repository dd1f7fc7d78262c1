import contextlib
import csv
import dataclasses
import hashlib
import io as _io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maccoop import _kernels, cli, cores, equilibrium, io
from maccoop.errors import InvalidArgument, ScenarioFormatError
from maccoop.model import (
    Coalition,
    PerAntenna,
    Scenario,
    SicFixed,
    SicTimeShare,
    Sud,
    SumPower,
    UserSpec,
    enumerate_partitions,
    rgs_matrix,
)

from conftest import random_scenario, rank_one_sud_160db, symmetric


def sym4_text():
    return io.serialize_scenario(symmetric(4, 1.0, SicFixed((1, 2, 3, 4))))


def sym3_ts_text():
    return io.serialize_scenario(symmetric(3, 0.5, SicTimeShare()))


class TestScenarioFiles:
    def test_round_trip_is_byte_identical(self):
        text = sym4_text()
        again = io.serialize_scenario(io.parse_scenario(text))
        assert again == text

    def test_round_trip_per_antenna_and_weights(self):
        users = (
            UserSpec(1, 2, np.array([[0.5, -1.25], [2.0, 0.0]]), PerAntenna((1.0, 0.5))),
            UserSpec(2, 1, np.array([[1.0], [-1.0]]), PerAntenna((2.0,))),
        )
        s = Scenario(users, 2, 0.25, SicTimeShare((0.25, 0.75)))
        text = io.serialize_scenario(s)
        assert io.serialize_scenario(io.parse_scenario(text)) == text

    def test_syntax_error_is_line_anchored(self):
        with pytest.raises(ScenarioFormatError, match=r":2:"):
            io.parse_scenario('{\n "rx_antennas": ,\n}', source="bad.cfg")

    def test_missing_key_is_field_anchored(self):
        with pytest.raises(ScenarioFormatError, match="noise_N0"):
            io.parse_scenario('{"rx_antennas": 1, "receiver": {"type": "sud"}, "users": []}')

    def test_bad_field_is_path_anchored(self):
        doc = json.loads(sym4_text())
        doc["users"][2]["channel"] = [[1.0], [2.0, 3.0]]
        with pytest.raises(ScenarioFormatError, match=r"users\[2\]\.channel"):
            io.parse_scenario(json.dumps(doc))

    def test_semantic_error_carries_source(self):
        doc = json.loads(sym4_text())
        doc["noise_N0"] = -1.0
        with pytest.raises(ScenarioFormatError, match="noise"):
            io.parse_scenario(json.dumps(doc), source="neg.cfg")

    @pytest.mark.parametrize("text, field, value, message", [
        (sym4_text, "users[0].power.values", {"mode": "sum", "values": [-1.0]},
         "sum power must be finite and >= 0, got -1.0"),
        (sym4_text, "users[1].power.values", {"mode": "per_antenna", "values": [-0.5]},
         "per-antenna caps must be finite and nonnegative, got (-0.5,)"),
        (sym4_text, "receiver.base_order", [1, 3, 3, 4],
         "base_order must be a permutation of 1..K, got (1, 3, 3, 4)"),
        (sym3_ts_text, "receiver.weights", [0.5, 0.25],
         "time-share weights must sum to 1, got 0.75"),
    ], ids=["sum_power", "per_antenna_caps", "base_order", "weights"])
    def test_rejected_model_value_names_source_and_field(self, text, field, value, message):
        # the model types reject these values; the parse error says where they sit
        doc = json.loads(text())
        if field.startswith("users"):
            doc["users"][int(field[6])]["power"] = value
        else:
            doc["receiver"][field.split(".")[1]] = value
        with pytest.raises(ScenarioFormatError) as raised:
            io.parse_scenario(json.dumps(doc), source="bad.cfg")
        assert str(raised.value) == f"bad.cfg: {field}: {message}"

    @pytest.mark.parametrize("field, where", [
        ("noise_N0", "noise N0"), ("power", "sum power"), ("weights", "weights"),
    ])
    def test_infinity_is_rejected(self, field, where):
        # Python's json reads Infinity and NaN; the model rejects them
        doc = json.loads(sym3_ts_text())
        for bad in (math.inf, math.nan):
            if field == "noise_N0":
                doc["noise_N0"] = bad
            elif field == "power":
                doc["users"][1]["power"]["values"] = [bad]
            else:
                doc["receiver"]["weights"] = [bad, 1.0]
            with pytest.raises(InvalidArgument, match=f"{where} must be finite"):
                io.parse_scenario(json.dumps(doc), source="inf.cfg")

    @pytest.mark.parametrize("mode", ["sum", "caps"])
    def test_noise_whose_power_ratio_overflows_is_rejected(self, mode):
        users = tuple(UserSpec(u, 1, np.array([[1.0]]), SumPower(1.0) if mode == "sum"
                               else PerAntenna((1.0,))) for u in (1, 2, 3))
        for n0, ok in ((1e-300, True), (1e-310, False)):  # 9 / N0 overflows at 1e-310
            text = io.serialize_scenario(Scenario(users, 1, n0, Sud()))
            if ok:
                assert io.serialize_scenario(io.parse_scenario(text)) == text
            else:
                with pytest.raises(ScenarioFormatError, match=r"tiny\.cfg: noise_N0 = 1e-310"):
                    io.parse_scenario(text, source="tiny.cfg")

    def test_fingerprint_stable_and_sensitive(self):
        s = symmetric(3, 1.0, SicFixed((1, 2, 3)))
        assert io.fingerprint(s) == io.fingerprint(s)
        assert io.fingerprint(s) != io.fingerprint(s.with_noise(2.0))

    def test_load_save(self, tmp_path):
        path = tmp_path / "sym4.cfg"
        path.write_text(sym4_text())
        s = io.load_scenario(path)
        io.save_scenario(s, tmp_path / "copy.cfg")
        assert (tmp_path / "copy.cfg").read_text() == sym4_text()


def reference_write_table(fh, columns, rows, meta=None):
    """The per-cell writer the columnar one replaced: every cell through format_value."""
    for key, value in (meta or {}).items():
        fh.write(f"# {key}: {io.format_value(value)}\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([io.format_value(cell) for cell in row])


def written(write, *args):
    fh = _io.StringIO()
    write(fh, *args)
    return fh.getvalue()


class _Recorded(list):
    """A list column that records the length of every slice the writer takes."""

    def __init__(self, cells, taken):
        super().__init__(cells)
        self.taken = taken

    def __getitem__(self, rows):
        out = super().__getitem__(rows)
        self.taken.append(len(out))
        return out


def listed(column):
    """A column's cells as the per-cell writer is handed them."""
    if isinstance(column, io.Coded):
        return [column.labels[code] for code in column.codes.tolist()]
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert io.format_value(math.log(19.0) / 3) == "0.981479659722"
        assert io.format_value(1.0) == "1"
        assert io.format_value(True) == "true"
        assert io.format_value(np.float64(0.25)) == "0.25"
        assert [io.format_value(x) for x in (math.nan, -math.nan, math.inf, -math.inf, -0.0)] == [
            "nan", "nan", "inf", "-inf", "-0"]

    @pytest.mark.parametrize("n", [0, 1, io.CHUNK_ROWS - 1, io.CHUNK_ROWS, io.CHUNK_ROWS + 1])
    def test_columns_write_the_bytes_of_the_per_cell_writer(self, n):
        floats = np.resize(np.array([
            math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300,
            1e-300, 1.7976931348623157e308, math.log(19.0) / 3, 0.1 + 0.2, 123456789012345.0,
            -1.0, 2.0 ** 60, 1e16, 1e-5,
        ]), n)
        ints = np.resize(np.array([0, -1, 7, 127, -128, 32767, 5 - 2 ** 62, 2 ** 62]), n)
        strs = ["a,b", 'say "hi"', "two\nlines", " padded ", "", "plain", "1 2|3"]
        mixed = ["", 0.5, 3, True, "x,y", np.float64(math.nan), np.int16(-4), None]
        labels = ["a,b", 'say "hi"', "two\nlines", "cr\ronly", "", "plain", 0.5, True]
        # runs of three equal codes, so that a run crosses each chunk boundary
        codes = np.arange(n) // 3 % len(labels)
        taken = []
        columns = {
            "f64": floats,
            "f64_list": floats.tolist(),
            "i8": ints.astype(np.int8),
            "i16": ints.astype(np.int16),
            "i64": ints,
            "u8": ints.astype(np.uint8),
            "py_int": ints.tolist(),
            "bool": np.resize(np.array([True, False, False]), n),
            "py_bool": np.resize(np.array([False, True]), n).tolist(),
            "str": np.resize(np.array(strs), n),
            "str_list": np.resize(np.array(strs), n).tolist(),
            "mixed": [mixed[i % len(mixed)] for i in range(n)],
            "object": np.resize(np.array(mixed, dtype=object), n),
            "recorded": _Recorded(np.resize(floats, n).tolist(), taken),
            "coded": io.Coded(labels, codes),
            "coded_str": io.Coded(np.array(strs), codes[::-1] % len(strs)),
        }
        header = list(columns)
        meta = {"tool_version": io.TOOL_VERSION, "grand": math.log(5.0), "flag": False,
                "note": "a, b"}
        rows = zip(*map(listed, columns.values()))
        got = written(io.write_table, header, list(columns.values()), meta)
        assert got == written(reference_write_table, header, rows, meta)
        assert len(got.splitlines()) >= len(meta) + 1 + n
        assert sum(taken) == n and all(t <= io.CHUNK_ROWS for t in taken)

    ADVERSARIAL = ["a,b", 'say "hi"', '"', '""', ',"', "two\nlines", "cr\ronly", "crlf\r\n",
                   "\r", " padded ", "  ", "", "nan", "-inf", "x|y z", "é,ü"]

    @pytest.mark.parametrize("n", [1, io.CHUNK_ROWS + 3, 2 * io.CHUNK_ROWS + 1])
    def test_adversarial_cells_write_the_bytes_of_csv(self, n):
        texts = np.resize(np.array(self.ADVERSARIAL), n)
        floats = np.resize(np.array([math.nan, math.inf, -math.inf, 0.5, -0.0]), n)
        columns = {
            'a "quoted", header': texts,
            "": texts.tolist()[::-1],
            "floats": floats,
            "plain": np.resize(np.array(["p", "q"]), n),
            "ints": np.arange(n),
        }
        header = list(columns)
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values()))
        got = written(io.write_table, header, list(columns.values()), {"note": "a\rb"})
        assert got == written(reference_write_table, header, rows, {"note": "a\rb"})

    @pytest.mark.parametrize("cells", [[""], ["", "a", ""], [" "], ["\r"], [",", "\n", '"']])
    def test_one_column_tables_write_the_bytes_of_csv(self, cells):
        # csv quotes a row of one empty field, so that it is not read as no fields
        labels = list(dict.fromkeys(cells))
        coded = io.Coded(labels, np.array([labels.index(c) for c in cells]))
        for header in (["name"], [""]):
            for column in (cells, np.array(cells), coded):
                got = written(io.write_table, header, [column])
                assert got == written(reference_write_table, header, [[c] for c in cells])
        floats = [math.nan, math.inf, -math.inf]
        assert (written(io.write_table, ["x"], [np.array(floats)])
                == written(reference_write_table, ["x"], [[x] for x in floats]))

    def test_no_columns_write_one_empty_line(self):
        assert written(io.write_table, [], []) == written(reference_write_table, [], [])

    def test_columns_of_unequal_length_raise(self):
        with pytest.raises(ValueError):
            written(io.write_table, ["a", "b"], [np.arange(3), np.arange(2)])
        with pytest.raises(ValueError):
            written(io.write_table, ["a", "b"], [np.arange(3)])


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_partitions_count_only(self, capsys):
        code, out, _ = run_cli(["partitions", "--k", "4", "--count-only"], capsys)
        assert code == 0
        assert out.strip() == "15"

    def test_module_runs_the_cli(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "maccoop", "partitions", "--k", "4", "--count-only"],
            cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "15"

    @pytest.mark.parametrize("k", range(1, 8))
    def test_partitions_table_is_the_per_partition_one(self, tmp_path, capsys, k):
        code, _, _ = run_cli(["partitions", "--k", str(k), "--out", str(tmp_path)], capsys)
        assert code == 0
        rows = [(i, ",".join(map(str, p.rgs)),
                 "|".join(" ".join(map(str, b.members)) for b in p.blocks), len(p))
                for i, p in enumerate(enumerate_partitions(k))]
        meta = io.table_meta(seed=0, unit="nats", k=k)
        want = written(reference_write_table, ["index", "rgs", "blocks", "n_blocks"], rows, meta)
        assert (tmp_path / "partitions.csv").read_text() == want

    @pytest.mark.parametrize("bits", [False, True])
    def test_utilities_table_is_the_per_entry_one(self, tmp_path, capsys, bits):
        # K=7: 877 rows and 3 263 entries, so the table crosses a chunk boundary
        s = random_scenario(np.random.default_rng(7), k=7, m=1, mode="per_antenna",
                            receiver=SicFixed((3, 1, 7, 5, 2, 6, 4)))
        (tmp_path / "s.cfg").write_text(io.serialize_scenario(s))
        code, _, _ = run_cli(["utilities", "--scenario", str(tmp_path / "s.cfg"),
                              "--out", str(tmp_path)] + ["--bits"] * bits, capsys)
        assert code == 0
        unit = "bits" if bits else "nats"
        entries = equilibrium.utility_table(s).entries
        rows = [(",".join(map(str, key)), mask, " ".join(map(str, Coalition(mask).members)),
                 value / math.log(2.0) if bits else value)
                for key in sorted(entries) for mask, value in sorted(entries[key].items())]
        assert len(entries) == 877 and len(rows) == 3263 > io.CHUNK_ROWS
        want = written(reference_write_table, ["rgs", "coalition_mask", "members",
                                               f"utility_{unit}"], rows,
                       io.table_meta(s, seed=0, unit=unit))
        # by line: pytest's diff of two long strings that differ takes minutes
        assert (tmp_path / "utilities.csv").read_text().splitlines() == want.splitlines()

    def test_partitions_table(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["partitions", "--k", "3", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        body = (tmp_path / "partitions.csv").read_text()
        assert body.count("\n") >= 6  # meta + header + 5 rows
        summary = json.loads(out)
        assert summary["data"]["count"] == 5

    def test_core_empty_with_certificate(self, tmp_path, capsys):
        cfg = tmp_path / "sym4.cfg"
        cfg.write_text(sym4_text())
        code, out, _ = run_cli(
            ["core", "--scenario", str(cfg), "--model", "rational",
             "--out", str(tmp_path)], capsys
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["verdict"] == "empty"
        cert = summary["certificate"]
        assert cert["margin"] > 0
        weights = {int(m): w for m, w in cert["weights"].items()}
        for i in range(4):
            cover = sum(w for m, w in weights.items() if m >> i & 1)
            assert cover == pytest.approx(1.0, abs=1e-9)
        assert (tmp_path / "certificate.csv").exists()
        assert (tmp_path / "demands.csv").exists()

    def test_core_tables_carry_no_lp_tolerance(self, tmp_path, capsys):
        cfg = tmp_path / "sym4.cfg"
        cfg.write_text(sym4_text())
        code, _, _ = run_cli(
            ["core", "--scenario", str(cfg), "--model", "rational", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        header = [line for line in (tmp_path / "demands.csv").read_text().splitlines()
                  if line.startswith("#")]
        assert header and not any("tol_lp" in line for line in header)

    def test_lp_tolerance_is_not_a_flag(self, tmp_path, capsys):
        cfg = tmp_path / "sym4.cfg"
        cfg.write_text(sym4_text())
        code, _, err = run_cli(
            ["core", "--scenario", str(cfg), "--model", "rational", "--tol-lp", "1e-6",
             "--out", str(tmp_path)], capsys
        )
        assert code == 1
        assert "--tol-lp" in err

    def test_region_contains_equal_split(self, tmp_path, capsys):
        cfg = tmp_path / "sym3_ts_3db.cfg"
        cfg.write_text(sym3_ts_text())
        code, out, _ = run_cli(
            ["region", "--scenario", str(cfg), "--model", "rational",
             "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "nonempty"
        rows = [
            line.split(",")
            for line in (tmp_path / "region.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ][1:]
        vertices = [(float(r[1]), float(r[2])) for r in rows]
        split = math.log(19.0) / 3
        # winding test: the equal split is inside the polygon
        inside = True
        n = len(vertices)
        for (a1, a2), (b1, b2) in zip(vertices, vertices[1:] + vertices[:1]):
            cross = (b1 - a1) * (split - a2) - (b2 - a2) * (split - a1)
            inside &= cross >= -1e-9
        assert inside

    def test_least_core_epsilon(self, tmp_path, capsys):
        cfg = tmp_path / "sym4.cfg"
        cfg.write_text(sym4_text())
        code, out, _ = run_cli(
            ["least-core", "--scenario", str(cfg), "--model", "rational",
             "--out", str(tmp_path)], capsys
        )
        assert code == 0
        summary = json.loads(out)
        expected = (3 * math.log(10.0) + math.log(5.5)) / 4 - 0.75 * math.log(17.0)
        assert summary["epsilon_star"] == pytest.approx(expected, abs=1e-8)
        assert summary["verdict"] == "empty"

    def test_bits_flag_rescales(self, tmp_path, capsys):
        cfg = tmp_path / "sym4.cfg"
        cfg.write_text(sym4_text())
        _, out_nats, _ = run_cli(
            ["least-core", "--scenario", str(cfg), "--model", "rational",
             "--out", str(tmp_path / "a")], capsys
        )
        _, out_bits, _ = run_cli(
            ["least-core", "--scenario", str(cfg), "--model", "rational",
             "--out", str(tmp_path / "b"), "--bits"], capsys
        )
        nats = json.loads(out_nats)["epsilon_star"]
        bits = json.loads(out_bits)["epsilon_star"]
        assert bits == pytest.approx(nats / math.log(2.0), rel=1e-12)

    @pytest.mark.parametrize("name, verdict", [("sym4", "empty"), ("sud3", "nonempty")])
    def test_bits_flag_rescales_core(self, tmp_path, capsys, name, verdict):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(_pinned_scenarios()[name]))
        runs = []
        for sub, flags in (("a", []), ("b", ["--bits"])):
            code, out, _ = run_cli(["core", "--scenario", str(cfg), "--model", "rational",
                                    "--out", str(tmp_path / sub), *flags], capsys)
            assert code == 0
            runs.append(json.loads(out))
        nats, bits = runs
        assert nats["verdict"] == bits["verdict"] == verdict
        for key in ("grand_value", "min_slack"):
            assert bits["data"][key] == nats["data"][key] / cli.LN2
        if verdict == "empty":
            assert bits["certificate"]["margin"] == nats["certificate"]["margin"] / cli.LN2
            assert bits["certificate"]["weights"] == nats["certificate"]["weights"]
        else:
            assert bits["allocation"] == [x / cli.LN2 for x in nats["allocation"]]

    def test_bits_flag_rescales_properties(self, tmp_path, capsys, monkeypatch):
        # every pinned game's worst gap is 0.0, which reads the same in both units
        original = cli.verify_superadditivity
        monkeypatch.setattr(cli, "verify_superadditivity", lambda *a: dataclasses.replace(
            original(*a), cohesiveness_worst=0.75))
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym4_text())
        for sub, flags, want in (("a", [], 0.75), ("b", ["--bits"], 0.75 / cli.LN2)):
            code, out, _ = run_cli(["properties", "--scenario", str(cfg), "--trials", "5",
                                    "--out", str(tmp_path / sub), *flags], capsys)
            assert code == 0
            assert json.loads(out)["data"]["cohesiveness_worst"] == want
            meta = (tmp_path / sub / "properties.csv").read_text().splitlines()
            assert f"# cohesiveness_worst: {io.format_value(want)}" in meta

    def test_utilities_and_determinism(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym3_ts_text())
        outs = []
        for sub in ("a", "b"):
            code, out, _ = run_cli(
                ["utilities", "--scenario", str(cfg), "--out", str(tmp_path / sub)],
                capsys,
            )
            assert code == 0
            outs.append(
                ((tmp_path / sub / "utilities.csv").read_bytes(),
                 (tmp_path / sub / "summary.json").read_bytes(), out)
            )
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("k", [1, 2, 5, 12])
    def test_member_names_one_per_mask(self, k):
        names = cli._member_names(k)
        assert len(names) == 1 << k
        for mask in range(1, 1 << k):
            assert names[mask] == " ".join(map(str, Coalition(mask).members))

    def test_sweep(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["sweep", "--k-min", "4", "--k-max", "4", "--snr-min", "-30",
             "--snr-max", "0", "--snr-step", "10", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        threshold = json.loads(out)["data"]["thresholds"]["4"]
        assert -30.0 < threshold < 0.0

    def test_ratio(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym3_ts_text())
        code, out, _ = run_cli(
            ["ratio", "--scenario", str(cfg), "--snr", "40,60", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        body = (tmp_path / "ratio.csv").read_text().splitlines()
        data = [line for line in body if line and not line.startswith("#")]
        assert len(data) == 1 + 6  # header + 2 SNRs x 3 sizes

    def test_externalities_and_properties(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym4_text())
        code, out, _ = run_cli(
            ["externalities", "--scenario", str(cfg), "--trials", "10",
             "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "negative"
        code, out, _ = run_cli(
            ["properties", "--scenario", str(cfg), "--trials", "20",
             "--out", str(tmp_path)], capsys
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run_cli(["partitions", "--k", "4", "--frobnicate"], capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_scenario_exits_one(self, capsys):
        code, _, err = run_cli(
            ["core", "--scenario", "/nonexistent.cfg", "--model", "rational"], capsys
        )
        assert code == 1

    def test_bad_scenario_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("{ not json")
        code, _, err = run_cli(
            ["core", "--scenario", str(cfg), "--model", "rational"], capsys
        )
        assert code == 1
        assert "bad.cfg" in err

    def test_negative_budget_exits_one_naming_file_and_field(self, tmp_path, capsys):
        doc = json.loads(sym4_text())
        doc["users"][0]["power"]["values"] = [-1]
        cfg = tmp_path / "f.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run_cli(["core", "--scenario", str(cfg), "--model", "rational"], capsys)
        assert code == 1
        assert err.strip() == (f"error: {cfg}: users[0].power.values: "
                               f"sum power must be finite and >= 0, got -1.0")

    @pytest.mark.parametrize("command", ["core", "least-core"])
    def test_one_user_core_exits_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(io.serialize_scenario(symmetric(1, 1.0, SicFixed((1,)))))
        code, _, err = run_cli(
            [command, "--scenario", str(cfg), "--model", "merging", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "at least 2 users" in err

    @pytest.mark.parametrize("command", ["core", "least-core"])
    def test_core_over_the_cap_exits_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(symmetric(11, 1.0, SicFixed(tuple(range(1, 12))))))
        code, _, err = run_cli(
            [command, "--scenario", str(cfg), "--model", "merging", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 1
        assert "capped at 10 users" in err

    def test_sixteen_user_externalities_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(symmetric(16, 1.0, SicFixed(tuple(range(1, 17))))))
        code, _, err = run_cli(["externalities", "--scenario", str(cfg), "--trials", "5",
                                "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "at most 15 users" in err

    def test_rational_core_at_160_db_exits_zero(self, tmp_path, capsys):
        # demands and v(N) both come from the closed-form table
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(symmetric(3, 1e-16, Sud())))
        code, out, _ = run_cli(["core", "--scenario", str(cfg), "--model", "rational",
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "nonempty" in out

    @pytest.mark.parametrize("model", ["merging", "singleton"])
    def test_fixed_model_core_at_160_db_exits_zero(self, tmp_path, capsys, model):
        # the fixed arrangements and v(N) come from closed-form rows
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(symmetric(3, 1e-16, Sud())))
        code, out, _ = run_cli(["core", "--scenario", str(cfg), "--model", model,
                                "--out", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] == "nonempty"

    @pytest.mark.parametrize("mode", ["sum", "per_antenna"])
    @pytest.mark.parametrize("receiver", [SicFixed((2, 3, 1)), Sud()])
    def test_single_antenna_commands_run_no_generic_solve(self, tmp_path, capsys,
                                                          monkeypatch, receiver, mode):
        cfg = tmp_path / "s.cfg"
        gen = np.random.default_rng(3)
        cfg.write_text(io.serialize_scenario(
            random_scenario(gen, k=3, m=1, mode=mode, receiver=receiver)))

        def no_solve(*args, **kwargs):
            raise AssertionError("generic per-partition solve")

        monkeypatch.setattr(equilibrium, "ne_utilities", no_solve)
        monkeypatch.setattr(_kernels, "sic_backward", no_solve)
        monkeypatch.setattr(_kernels, "sud_fixed_point", no_solve)
        monkeypatch.setattr(_kernels, "sud_lockstep", no_solve)
        runs = [[cmd, "--model", model] for cmd in ("core", "least-core", "region")
                for model in ("rational", "merging", "cautious", "singleton")]
        runs += [["utilities"], ["properties", "--trials", "20"],
                 ["externalities", "--trials", "20"]]
        for argv in runs:
            code, _, err = run_cli(argv + ["--scenario", str(cfg), "--out", str(tmp_path)],
                                   capsys)
            assert code == 0, (argv, err)

    @pytest.mark.parametrize("command", ["core", "least-core", "region"])
    @pytest.mark.parametrize("model", ["rational", "cautious"])
    @pytest.mark.parametrize("mode, receiver", [("per_antenna", "sic"), ("sum", "sud")])
    def test_rational_and_cautious_read_the_merging_rows(self, tmp_path, capsys, monkeypatch,
                                                        command, model, mode, receiver):
        # one receive antenna: 2^(K-1) rows, and the bytes of the every-partition route
        k = 3 if command == "region" else 8
        gen = np.random.default_rng([k, len(mode)])
        rx = SicFixed(tuple(int(u) + 1 for u in gen.permutation(k))) if receiver == "sic" else Sud()
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(random_scenario(gen, k=k, m=1, mode=mode,
                                                             receiver=rx)))
        rows, table_of = [], cores._table_of
        monkeypatch.setattr(cores, "_table_of", lambda s, rgs: rows.append(len(rgs))
                            or table_of(s, rgs))

        def run(out):
            code, stdout, err = run_cli([command, "--scenario", str(cfg), "--model", model,
                                         "--out", str(out)], capsys)
            assert code == 0, err
            return stdout, {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        got = run(tmp_path / "merging-rows")
        assert rows == [1 << (k - 1)]
        monkeypatch.setattr(cores, "_closed_form_applies", lambda s: False)
        assert run(tmp_path / "every-partition") == got
        assert rows[1:] == [len(rgs_matrix(k))]

    @pytest.mark.parametrize("flags", [
        ["--snr-step", "0"], ["--snr-step", "-5"], ["--snr-step", "nan"], ["--snr-step", "inf"],
        ["--snr-max", "nan"], ["--snr-max", "inf"], ["--snr-min=-inf"],
    ])
    def test_sweep_rejects_bad_grid_flags(self, tmp_path, capsys, flags):
        code, _, err = run_cli(["sweep", *flags, "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "error: --snr-min, --snr-max and --snr-step must be finite" in err

    @pytest.mark.parametrize("flags", [
        # np.arange raised "Maximum allowed size exceeded" out of the CLI here
        ["--snr-min", "0", "--snr-max", "1e300", "--snr-step", "1"],
        ["--snr-min=-1e308", "--snr-max", "1e308", "--snr-step", "1e-300"],
        # cap + 1 points: 0, 1, ..., cap
        ["--snr-min", "0", "--snr-max", str(cli.SWEEP_MAX_POINTS), "--snr-step", "1"],
    ])
    def test_sweep_rejects_a_grid_over_the_cap_before_building_it(self, tmp_path, capsys,
                                                                  monkeypatch, flags):
        def no_grid(*args, **kwargs):
            raise AssertionError("grid built")

        monkeypatch.setattr(np, "arange", no_grid)
        code, _, err = run_cli(["sweep", *flags, "--out", str(tmp_path)], capsys)
        assert code == 1
        assert f"more than {cli.SWEEP_MAX_POINTS} points" in err
        assert not (tmp_path / "boundary.csv").exists()

    def test_sweep_takes_a_grid_of_cap_points(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "SWEEP_MAX_POINTS", 3)
        code, out, _ = run_cli(["sweep", "--k-max", "2", "--snr-min", "-20", "--snr-max", "0",
                                "--snr-step", "10", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["data"]["thresholds"].keys() == {"2"}
        code, _, err = run_cli(["sweep", "--k-max", "2", "--snr-min", "-20", "--snr-max", "0",
                                "--snr-step", "6.5", "--out", str(tmp_path)], capsys)
        assert code == 1 and "more than 3 points" in err

    @pytest.mark.parametrize("snr, first", [
        (["--snr-min", "3050", "--snr-max", "3100"], "3080.0"),
        (["--snr-min=-3200", "--snr-max=-3150"], "-3200.0"),
    ], ids=["high", "low"])
    def test_sweep_outside_float_range_exits_one(self, tmp_path, capsys, snr, first):
        # the high end exited 2 ("grand-coalition value inf is not finite") after an
        # overflow warning, the low end raised OverflowError out of the CLI
        code, _, err = run_cli(["sweep", "--k-max", "2", *snr, "--snr-step", "5",
                                "--out", str(tmp_path)], capsys)
        assert code == 1
        assert f"error: SNR {first} dB is out of range" in err
        assert not (tmp_path / "boundary.csv").exists()

    def test_sweep_inside_float_range_runs(self, tmp_path, capsys):
        code, out, _ = run_cli(["sweep", "--k-max", "2", "--snr-min", "3000", "--snr-max",
                                "3050", "--snr-step", "5", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert json.loads(out)["data"]["thresholds"].keys() == {"2"}

    def test_one_parser_serves_every_call(self, tmp_path, capsys, monkeypatch):
        # usage errors, a help-free success and a user error, each run twice on the
        # shared parser, print what a parser built for that call alone prints
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym4_text())
        argvs = [["partitions"], ["core", "--scenario", str(cfg), "--model", "bogus"],
                 ["sweep", "--snr-step", "x"], ["nope"], [],
                 ["partitions", "--k", "4", "--count-only"],
                 ["core", "--scenario", str(cfg), "--model", "merging",
                  "--out", str(tmp_path / "core")],
                 ["sweep", "--k-min", "5", "--k-max", "2", "--out", str(tmp_path)]]

        def outputs():
            runs = []
            for argv in argvs:
                code, out, err = run_cli(list(argv), capsys)
                runs.append((code, out, err.split("elapsed: ")[0]))
            return runs

        assert cli._parser() is cli._parser()
        shared = outputs()
        assert outputs() == shared
        monkeypatch.setattr(cli, "_parser", cli._build_parser)
        assert outputs() == shared
        assert [code for code, _, _ in shared] == [1, 1, 1, 1, 1, 0, 0, 1]

    def test_sweep_rejects_an_empty_k_range(self, tmp_path, capsys):
        code, _, err = run_cli(["sweep", "--k-min", "5", "--k-max", "2", "--out",
                                str(tmp_path)], capsys)
        assert code == 1
        assert "one or more K" in err
        assert not (tmp_path / "boundary.csv").exists()

    @pytest.mark.parametrize("command", [["utilities"], ["core", "--model", "rational"]],
                             ids=["utilities", "core"])
    def test_infinite_noise_exits_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym4_text().replace('"noise_N0": 1.0', '"noise_N0": Infinity'))
        code, _, err = run_cli([*command, "--scenario", str(cfg), "--out", str(tmp_path)],
                               capsys)
        assert code == 1
        assert "noise N0 must be finite" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command", ["properties", "externalities"])
    def test_negative_seed_exits_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym4_text())
        code, _, err = run_cli([command, "--scenario", str(cfg), "--trials", "5", "--seed", "-1",
                                "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "error:" in err and "seed must be a nonnegative integer, got -1" in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("snr", ["abc", "0,x", "nan", "0,inf", ","])
    def test_ratio_rejects_bad_snr_lists(self, tmp_path, capsys, snr):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym3_ts_text())
        code, _, err = run_cli(["ratio", "--scenario", str(cfg), "--snr", snr,
                                "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "error: --snr needs a comma-separated list of finite dB values" in err

    @pytest.mark.parametrize("snr", ["-3200", "3100"], ids=["low", "high"])
    def test_ratio_outside_float_range_exits_one(self, tmp_path, capsys, snr):
        # the low end raised OverflowError out of the CLI; the high end exited 0 after an
        # overflow warning, with approx 0, exact 0 and ratio 1 for every size
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym3_ts_text())
        code, _, err = run_cli(["ratio", "--scenario", str(cfg), f"--snr=40,{snr}",
                                "--out", str(tmp_path)], capsys)
        assert code == 1
        assert f"error: SNR {float(snr)!r} dB is out of range" in err
        assert not (tmp_path / "ratio.csv").exists()

    def test_ratio_inside_float_range_runs(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym3_ts_text())
        code, _, _ = run_cli(["ratio", "--scenario", str(cfg), "--snr=-3000,3070",
                              "--out", str(tmp_path)], capsys)
        assert code == 0
        body = (tmp_path / "ratio.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in body if line[:1].isdigit()][-3:] == [
            ["3070", "1"], ["3070", "2"], ["3070", "3"]]

    @pytest.mark.parametrize("argv", [
        ["utilities"], ["core", "--model", "merging"], ["least-core", "--model", "merging"],
        ["region", "--model", "merging"], ["externalities"], ["properties"], ["ratio"],
    ], ids=lambda argv: argv[0])
    def test_overflowing_scenario_exits_one(self, tmp_path, capsys, argv):
        # at N0 = 1e-310 the grand coalition's K^2 / N0 overflows to inf, and
        # the file is rejected before any utility is computed
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(symmetric(3, 1e-310, SicFixed((1, 2, 3)))))
        code, _, err = run_cli(argv + ["--scenario", str(cfg), "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "noise_N0 = 1e-310 is too small" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_failed_factorization_exits_two(self, tmp_path, capsys):
        # at 160 dB every SUD sweep meets a singular N0 I + received covariance
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(rank_one_sud_160db()))
        code, _, err = run_cli(["core", "--scenario", str(cfg), "--model", "merging",
                                "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "numerical failure" in err and "partition {1}{2,3}" in err

    def test_numerical_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        from maccoop.errors import NumericalFailure

        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym4_text())

        def boom(*a, **k):
            raise NumericalFailure("synthetic LP breakdown")

        monkeypatch.setattr(cli, "_cmd_core", lambda args: boom())
        code, _, err = run_cli(
            ["core", "--scenario", str(cfg), "--model", "rational"], capsys
        )
        assert code == 2
        assert "numerical failure" in err


def _pinned_scenarios():
    """One-antenna closed-form and K=3 time-share games: no value of theirs goes through BLAS."""
    sic4 = Scenario((
        UserSpec(1, 1, np.array([[0.8]]), PerAntenna((1.5,))),
        UserSpec(2, 2, np.array([[1.1, -0.4]]), PerAntenna((0.7, 1.2))),
        UserSpec(3, 1, np.array([[-0.6]]), PerAntenna((2.0,))),
        UserSpec(4, 2, np.array([[0.3, 0.9]]), PerAntenna((1.0, 0.5))),
    ), 1, 0.5, SicFixed((2, 4, 1, 3)))
    sud3 = Scenario(tuple(
        UserSpec(i + 1, 1, np.array([[g]]), SumPower(p))
        for i, (g, p) in enumerate([(0.9, 1.0), (1.3, 2.0), (0.5, 0.8)])
    ), 1, 0.3, Sud())
    ts3 = Scenario(tuple(
        UserSpec(i + 1, 1, np.array([[g]]), SumPower(p))
        for i, (g, p) in enumerate([(1.2, 0.6), (0.7, 1.5), (1.0, 1.0)])
    ), 1, 0.4, SicTimeShare())
    return {"sic4": sic4, "sud3": sud3, "ts3": ts3,
            "sym4": symmetric(4, 1.0, SicFixed((1, 2, 3, 4))),
            "sym3ts": symmetric(3, 0.5, SicTimeShare())}


#: (label, scenario name or None, argv before --scenario/--out)
PINNED_RUNS = (
    ("partitions-k1", None, ["partitions", "--k", "1"]),
    ("partitions-k4", None, ["partitions", "--k", "4"]),
    ("utilities-sic4", "sic4", ["utilities"]),
    ("utilities-sic4-bits", "sic4", ["utilities", "--bits"]),
    ("utilities-ts3", "ts3", ["utilities"]),
    ("core-empty", "sym4", ["core", "--model", "rational"]),
    ("core-nonempty", "sud3", ["core", "--model", "rational"]),
    ("core-sic4-merging", "sic4", ["core", "--model", "merging"]),
    ("least-core", "ts3", ["least-core", "--model", "cautious"]),
    ("least-core-bits", "sym4", ["least-core", "--model", "rational", "--bits"]),
    ("region", "sym3ts", ["region", "--model", "rational"]),
    ("region-sud3", "sud3", ["region", "--model", "merging"]),
    ("sweep", None, ["sweep", "--k-min", "2", "--k-max", "4", "--snr-min", "-30",
                     "--snr-max", "0", "--snr-step", "10"]),
    ("externalities", "sic4", ["externalities", "--trials", "20", "--seed", "3"]),
    ("properties", "sic4", ["properties", "--trials", "20"]),
    ("properties-ts3", "ts3", ["properties", "--trials", "10"]),
    ("ratio", "sym3ts", ["ratio", "--snr", "0,20,40"]),
)


def pinned_run_digests(workdir, label):
    """Exit code, sha256 of stdout, and sha256 of every file the run writes by file name."""
    _, name, argv = next(run for run in PINNED_RUNS if run[0] == label)
    argv = list(argv)
    if name is not None:
        path = workdir / f"{name}.cfg"
        path.write_text(io.serialize_scenario(_pinned_scenarios()[name]))
        argv += ["--scenario", str(path)]
    out = workdir / label
    stdout = _io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(_io.StringIO()):
        code = cli.main(argv + ["--out", str(out)])
    files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}
    return code, hashlib.sha256(stdout.getvalue().encode()).hexdigest(), files


#: What each of ``PINNED_RUNS`` writes, by sha256 (see the test below).
PINNED_DIGESTS = {
    "partitions-k1": {
        "partitions.csv": "b18ef3271651a090f0df7e1ef463af4b771a77a6927f6539f6cb336473289915",
        "summary.json": "c5e6e5e8a4a633612aa4d6b69b9e580660b098a16197986b2ba7e0bf33897fa5",
    },
    "partitions-k4": {
        "partitions.csv": "c3097ff15377deda07badb9423d575cfb4376f21ff4abf9154d0e49efb7772e7",
        "summary.json": "8a08158f5ed5404773f0caf2475589df54026c9a1bb722ffc1434178fd19b6eb",
    },
    "utilities-sic4": {
        "summary.json": "602bf93a37b4b756196bdafa636509ad90a4af23d9ac9be994655fa0bc5c58a1",
        "utilities.csv": "400cc19ec6e54b2384895badffd29d62199e5ad88fad67743b1d95bce74aa296",
    },
    "utilities-sic4-bits": {
        "summary.json": "602bf93a37b4b756196bdafa636509ad90a4af23d9ac9be994655fa0bc5c58a1",
        "utilities.csv": "1c8b9b636df20b61593751c3cf1e1d35a6809113c34455bcb0e8694f09fe992b",
    },
    "utilities-ts3": {
        "summary.json": "13033631e6f1a984b13ada6196c5e8a138b0223e1e7ee43c70bc1523e60454ea",
        "utilities.csv": "1b80f6f4bc1ccf05f4e715057dc137239231481e867065af4b306f511c5f31a3",
    },
    "core-empty": {
        "certificate.csv": "fb91824a8de48068fc9fae86b176dc90ceef7c035baa7ff4c64c290562544e86",
        "demands.csv": "fd3792f4d5a29eb6cdc6742198e8dfdf57c95c262b30008042a9625aafc9186f",
        "summary.json": "03122d426e2f931a62c1fb8aec2199865eafb07ce084abbda59e56a343d41e1b",
    },
    "core-nonempty": {
        "demands.csv": "65aa4a07e2630fcda005b856a1b1f1628f9af5584a6f9e9a0237bebb8d41b8c2",
        "summary.json": "21f5dfa6bf4236c3854e93260fa6778934284c99672679c17d251e89feac2fc4",
    },
    "core-sic4-merging": {
        "certificate.csv": "08134ad5ac7455459c341ac1d9849e2873a7a4e1f17442d71961e967a4c19b4c",
        "demands.csv": "07a73f0f33292b90d7fe1a48c8efe9849b5ff5b75a5b7aa93c8edc5104cd6aef",
        "summary.json": "8d0d53898229819cfe3fc2605f914c2e40d3f7648eed35a41a705f8fc5a1cbc8",
    },
    "least-core": {
        "least_core.csv": "b5325b8c7a6ea58df2478d11e667772755f9e602a8f55b5b5f740544eb89a7bd",
        "summary.json": "a37646cd40106127ffb94c39194de62dfb5315144479d725955f921c7a9ed440",
    },
    "least-core-bits": {
        "least_core.csv": "0af7deeb363c8436c74149feda8313fccfa5fb8deafe0218de7791340b1b698b",
        "summary.json": "f0c503fd5636c5b8fc6dab2ae4750278c458b86be0b7af77da4c571f0d557d0b",
    },
    "region": {
        "region.csv": "fac660d7e29aebd31f54576d18397baf21e4539da7d1b9293919ed61acd1c117",
        "summary.json": "95971023c3cdee1e5541083b8f94da669d808acfe30ae549f299e4e9bcd26471",
    },
    "region-sud3": {
        "region.csv": "4723ad447297e07cefe3c6fa53c523676af7614c2d02befd49edd44b1091fcff",
        "summary.json": "7aadedc6b933c5a919b5f95b6fa528e0a5b4f7b8c083ffd0eadba43dcff3ee23",
    },
    "sweep": {
        "boundary.csv": "b27460a58a6fc3bac5cfcb2d39fc20cbaa2f8f24bb6e3f192335be52d4a49ea0",
        "summary.json": "16ebbad3525e16fbdc2ee396fb4c7678676c006cd57d5f9945fbd46eb087af1e",
    },
    "externalities": {
        "externalities.csv": "cade352f7edc410bdb976c4f2afbd0bd17fa00e05a87bb798881403bb645774f",
        "summary.json": "b602ee523a0a20db9f1e531c7bfb7a3cb777e4b5957cfb442f871ad9d299f608",
    },
    "properties": {
        "properties.csv": "08fa47149657782772b16406c502c54c14cac6ba5bdbce67cb57f30cc71fd588",
        "summary.json": "4886e7284f020292c464fc69354686669bfb382f9b0994f0d04ec9a7f27c2e0e",
    },
    "properties-ts3": {
        "properties.csv": "dc15000772a5924047deec0c2ddd5c92f731bd9ce8fe5d1529ff2c7f0f624373",
        "summary.json": "a7b62af5066fe08ab676b2151b9f1cd9c8d9d424747364384f779aee582cc3f0",
    },
    "ratio": {
        "ratio.csv": "98a78014d3d840f4fee5c164ba11687e7767e41f26652905559a320309ba1393",
        "summary.json": "e5bd3c1b6da795e485331b3ff4f025ec9ce2bee6ca45180fe3452009685c1459",
    },
}


@pytest.mark.parametrize("label", [run[0] for run in PINNED_RUNS])
def test_cli_files_are_byte_identical_to_the_per_cell_writer(tmp_path, label):
    """Every file a subcommand writes has the bytes of the per-cell writer.

    The digests were computed by ``pinned_run_digests`` on a separate
    checkout of commit dd7b727, the parent of the columnar writer, whose
    ``write_table`` sent every cell through ``format_value``.  Two were
    re-pinned since: ``least-core``'s summary.json, whose time-share
    allocation moved in its last digit (1.0924890014927644 to
    1.092489001492765) when pooled blocks moved to equivalent channels;
    and ``core-sic4-merging``'s summary.json, whose certificate margin
    moved in its last digits (0.1675441963069111 to 0.16754419630691153)
    when cancellation heard power became the sum of the blocks decoded
    later instead of a running total less the block's own power.  Its CSV
    bytes did not move.
    """
    code, stdout, files = pinned_run_digests(tmp_path, label)
    assert code == 0
    assert files == PINNED_DIGESTS[label]
    assert stdout == files["summary.json"]
