import json
import math

import numpy as np
import pytest

from maccoop import _kernels, cli, equilibrium, io
from maccoop.errors import ScenarioFormatError
from maccoop.model import Coalition, PerAntenna, Scenario, SicFixed, SicTimeShare, Sud, UserSpec

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


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert io.format_value(math.log(19.0) / 3) == "0.981479659722"
        assert io.format_value(1.0) == "1"
        assert io.format_value(True) == "true"
        assert io.format_value(np.float64(0.25)) == "0.25"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCli:
    def test_partitions_count_only(self, capsys):
        code, out, _ = run_cli(["partitions", "--k", "4", "--count-only"], capsys)
        assert code == 0
        assert out.strip() == "15"

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

    @pytest.mark.parametrize("flags", [
        ["--snr-step", "0"], ["--snr-step", "-5"], ["--snr-step", "nan"], ["--snr-step", "inf"],
        ["--snr-max", "nan"], ["--snr-max", "inf"], ["--snr-min=-inf"],
    ])
    def test_sweep_rejects_bad_grid_flags(self, tmp_path, capsys, flags):
        code, _, err = run_cli(["sweep", *flags, "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "error: --snr-min, --snr-max and --snr-step must be finite" in err

    @pytest.mark.parametrize("snr", ["abc", "0,x", "nan", "0,inf", ","])
    def test_ratio_rejects_bad_snr_lists(self, tmp_path, capsys, snr):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(sym3_ts_text())
        code, _, err = run_cli(["ratio", "--scenario", str(cfg), "--snr", snr,
                                "--out", str(tmp_path)], capsys)
        assert code == 1
        assert "error: --snr needs a comma-separated list of finite dB values" in err

    def test_failed_factorization_exits_two(self, tmp_path, capsys):
        # at 160 dB the grand partition's SUD sweep factors n0 + 9 - 9 = 0
        cfg = tmp_path / "s.cfg"
        cfg.write_text(io.serialize_scenario(rank_one_sud_160db()))
        code, _, err = run_cli(["core", "--scenario", str(cfg), "--model", "merging",
                                "--out", str(tmp_path)], capsys)
        assert code == 2
        assert "numerical failure" in err and "partition {1,2,3}" in err

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
