import ast
import csv
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from entrokit import alphabet, cli, montecarlo, sampling
from entrokit.alphabet import MAX_ALPHABET_SIZE
from entrokit.cli import EXIT_CONFIG, EXIT_DEGENERATE, EXIT_OK, canonical_json, main
from entrokit.exact import MdpSchedule

LN2 = math.log(2.0)


def run_cli(args):
    return main(args)


def _field_by_field(value):
    """``value`` with each record a dict built field by field, in order, and each array a list of floats."""
    if dataclasses.is_dataclass(value):
        return {f.name: _field_by_field(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, (list, tuple)):
        return [_field_by_field(v) for v in value]
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    return value


class TestCanonicalJson:
    def test_floats_keep_17_digits_and_round_trip(self):
        values = [1.0, 0.1, 1e300, 1e-300, 2.0 / 3.0, math.pi, -0.0, 123456.75]
        text = canonical_json({"v": values})
        parsed = json.loads(text)
        assert parsed["v"] == values

    def test_float_never_degrades_to_int(self):
        assert json.loads(canonical_json(1.0)) == 1.0
        assert isinstance(json.loads(canonical_json(1.0)), float)
        assert isinstance(json.loads(canonical_json(1)), int)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            canonical_json(float("inf"))
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_stable_bytes(self):
        record = {"b": [1, 2.5], "a": {"x": None, "y": True}}
        assert canonical_json(record) == canonical_json(record)

    def test_empty_containers_inside_a_record(self):
        record = {"a": {}, "b": [], "c": ({}, [])}
        assert canonical_json(record) == '{\n  "a": {},\n  "b": [],\n  "c": [\n    {},\n    []\n  ]\n}\n'

    @pytest.mark.parametrize("run", ["run_clt", "run_be_sweep", "run_mdp"])
    def test_a_record_is_written_as_its_fields(self, run):
        # MDP_ARGS' config: its second mdp cell is infeasible, with null fields
        config = montecarlo.ExperimentConfig(
            family="harmonic",
            k_rule=montecarlo.KRule("fixed", 10),
            n_grid=(1000, 1000000),
            replicates=100,
            master_seed=42,
            mdp=MdpSchedule(rho=0.1, epsilon=1.0, r=1.0),
        )
        records = getattr(montecarlo, run)(config)
        assert canonical_json({"results": records}) == canonical_json({"results": _field_by_field(records)})

    def test_nan_inside_a_record_array_is_refused(self):
        z_samples = np.array([0.0, np.nan])
        summary = montecarlo.EcdfSummary(1000, 2, 2, 0.6, 0.4, 0.3, 0.0, 1.0, 0.0, 0.0, 0.001, z_samples)
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"experiments": [summary]})

    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, b"x", np.int64(3), np.float32(0.5)],
        ids=("object", "set", "bytes", "int64", "float32"),
    )
    def test_unsupported_object_is_type_error(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            canonical_json({"results": [value]})

    def test_a_non_finite_result_writes_no_file(self, tmp_path, monkeypatch, capsys):
        real = cli.run_clt

        def run_clt_with_a_nan(config):
            return [dataclasses.replace(s, z_samples=np.append(s.z_samples[:-1], np.nan)) for s in real(config)]

        monkeypatch.setattr(cli, "run_clt", run_clt_with_a_nan)
        out, csv_path = tmp_path / "clt.json", tmp_path / "clt.csv"
        assert run_cli(CLT_ARGS + ["--out", str(out), "--csv", str(csv_path)]) == EXIT_CONFIG
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists() and not csv_path.exists()


class TestDescribe:
    def test_uniform_flags_degenerate(self, tmp_path, capsys):
        out = tmp_path / "u.json"
        code = run_cli(["describe", "--family", "uniform:8", "--out", str(out)])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        results = record["results"]
        assert results["entropy"] == pytest.approx(math.log(8.0), abs=1e-13)
        assert results["sigma2"] == 0.0
        assert results["degenerate"] is True
        assert results["exp_moment"] is None

    def test_delta_zero_has_no_exponential_moments(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli(["describe", "--family", "harmonic:10", "--delta", "0", "--out", str(out)]) == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert (results["exp_moment"], results["exp_moment_envelope"]) == (None, None)
        assert results["notes"] == ["delta is zero: exponential moments are trivially 1"]
        assert results["abs_central_moment"] == pytest.approx(results["sigma2"], rel=1e-14)

    def test_one_symbol_has_positive_zero_entropy(self, tmp_path):
        out = tmp_path / "u.json"
        assert run_cli(["describe", "--family", "uniform:1", "--out", str(out)]) == EXIT_OK
        text = out.read_text()
        assert '"entropy": 0.0,' in text and "-0.0" not in text

    def test_harmonic_two_matches_hand_values(self, tmp_path):
        out = tmp_path / "h.json"
        assert run_cli(["describe", "--family", "harmonic:2", "--out", str(out)]) == EXIT_OK
        results = json.loads(out.read_text())["results"]
        # (2/3, 1/3): entropy ln 3 - (2/3) ln 2, variance (2/9) ln^2 2
        assert results["entropy"] == pytest.approx(math.log(3.0) - (2.0 / 3.0) * LN2, rel=1e-14)
        assert results["sigma2"] == pytest.approx((2.0 / 9.0) * LN2**2, rel=1e-13)
        assert results["normalizer"] == pytest.approx(1.5, abs=0.0)

    def test_harmonic_large_ratio_near_one(self, tmp_path):
        out = tmp_path / "big.json"
        assert run_cli(["describe", "--family", "harmonic:1000000", "--out", str(out)]) == EXIT_OK
        results = json.loads(out.read_text())["results"]
        ratio = 12.0 * results["sigma2"] / results["ln_K"] ** 2
        assert 0.7 < ratio < 1.3

    def test_custom_file(self, tmp_path):
        probs = tmp_path / "p.json"
        probs.write_text("[0.25, 0.75]")
        out = tmp_path / "c.json"
        assert run_cli(["describe", "--family", f"custom:{probs}", "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["results"]["K"] == 2

    @pytest.mark.parametrize(
        "name, content, sha",
        [
            (
                "p.json",
                "[0.3222468932, 0.1611234466, 0.1074156311, 0.0805617233, 0.06444937864, 0.05370781553, "
                "0.04603527046, 0.04028086165, 0.03580521036, 0.03222468932, 0.02929517211, 0.02685390777]",
                "3a534a002557e952ba6449afd33c555b990385a7b6d168aa2cc1bbb948eab4b5",
            ),
            (
                "p.txt",
                "# six-digit weights\n0.123456\n0.234567\n\n0.341977\n0.3\n",
                "240fcc32997aa4e73443793ebeb7982230a6f4281ed3342199ea3e0913a48c71",
            ),
        ],
        ids=("json", "text"),
    )
    def test_custom_file_payload_matches_recorded_hash(self, tmp_path, monkeypatch, name, content, sha):
        # the json file sums to 1 + 4e-11, so its load renormalizes it
        monkeypatch.chdir(tmp_path)
        Path(name).write_text(content)
        assert run_cli(["describe", "--family", f"custom:{name}", "--out", "out.json"]) == EXIT_OK
        assert hashlib.sha256(Path("out.json").read_bytes()).hexdigest() == sha

    def test_envelope_overflow_is_null_with_a_note(self, tmp_path):
        probs = tmp_path / "f.json"
        probs.write_text("[0.500001, 0.499999]")
        out = tmp_path / "o.json"
        assert run_cli(["describe", "--family", f"custom:{probs}", "--out", str(out)]) == EXIT_OK
        results = json.loads(out.read_text())["results"]
        assert results["exp_moment_envelope"] is None
        assert "exponential moment overflowed float range for this delta" in results["notes"]

    def test_parse_failure_is_config_error(self, capsys):
        assert run_cli(["describe", "--family", "harmonic"]) == EXIT_CONFIG
        assert "error" in capsys.readouterr().err

    def test_wrongly_typed_custom_entry_is_config_error(self, tmp_path, capsys):
        probs = tmp_path / "f.json"
        probs.write_text('[{"p": 0.5}, 0.5]')
        assert run_cli(["describe", "--family", f"custom:{probs}"]) == EXIT_CONFIG
        assert "must hold numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("entries", ['["0.5", "0.5"]', "[true, false]", "[0.5, true]", "[[0.5], [0.5]]"])
    def test_custom_entries_must_be_json_numbers(self, tmp_path, capsys, entries):
        probs = tmp_path / "s.json"
        probs.write_text(entries)
        assert run_cli(["describe", "--family", f"custom:{probs}"]) == EXIT_CONFIG
        assert "must hold numbers" in capsys.readouterr().err

    def test_one_log_pass_over_the_pmf(self, tmp_path, monkeypatch):
        real_log = np.log
        sizes = []

        def counting_log(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real_log(x, *args, **kwargs)

        monkeypatch.setattr(np, "log", counting_log)
        out = tmp_path / "h.json"
        assert run_cli(["describe", "--family", "harmonic:1000", "--out", str(out)]) == EXIT_OK
        assert sizes.count(1000) == 1


class TestExperimentValidation:
    def test_missing_seed(self, capsys):
        code = run_cli(
            ["clt", "--family", "harmonic", "--K-rule", "fixed:8", "--n-grid", "500", "--reps", "200"]
        )
        assert code == EXIT_CONFIG
        assert "--seed" in capsys.readouterr().err

    def test_zero_replicates(self, capsys):
        code = run_cli(
            [
                "clt",
                "--family",
                "harmonic",
                "--K-rule",
                "fixed:8",
                "--n-grid",
                "500",
                "--reps",
                "0",
                "--seed",
                "1",
            ]
        )
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["clt", "mdp"])
    def test_replicates_beyond_the_cap_are_config_error(self, capsys, no_family_weights, command):
        args = [command, "--family", "harmonic", "--K-rule", "fixed:8", "--n-grid", "500", "--seed", "1"]
        args += ["--reps", str((1 << 24) + 1)]
        if command == "mdp":
            args += ["--mdp-rho", "0.1", "--mdp-eps", "1.0", "--mdp-r", "1.0"]
        assert run_cli(args) == EXIT_CONFIG
        assert "replicates must be <= 2^24 per grid point" in capsys.readouterr().err

    def test_uniform_family_degenerate_exit(self, capsys):
        code = run_cli(
            [
                "clt",
                "--family",
                "uniform",
                "--K-rule",
                "fixed:8",
                "--n-grid",
                "500",
                "--reps",
                "200",
                "--seed",
                "1",
            ]
        )
        assert code == EXIT_DEGENERATE


CLT_ARGS = [
    "clt",
    "--family",
    "harmonic",
    "--K-rule",
    "fixed:8",
    "--n-grid",
    "500,1000",
    "--reps",
    "150",
    "--seed",
    "77",
]


class TestCltCommand:
    def test_record_shape_and_csv(self, tmp_path):
        out = tmp_path / "clt.json"
        csv_path = tmp_path / "z.csv"
        code = run_cli(CLT_ARGS + ["--out", str(out), "--csv", str(csv_path)])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["schema_version"] == "1.0.0"
        assert record["command"] == "clt"
        experiments = record["results"]["experiments"]
        assert [e["n"] for e in experiments] == [500, 1000]
        assert all(len(e["z_samples"]) == 150 for e in experiments)
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "K", "rank", "z"]
        assert len(rows) == 1 + 2 * 150

    def test_workers_do_not_change_bytes(self, tmp_path):
        out1 = tmp_path / "w1.json"
        out2 = tmp_path / "w2.json"
        assert run_cli(CLT_ARGS + ["--workers", "1", "--out", str(out1)]) == EXIT_OK
        assert run_cli(CLT_ARGS + ["--workers", "2", "--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize(
        "args",
        [
            ["clt", "--family", "harmonic", "--K-rule", "fixed:2", "--n-grid", "100,10000", "--reps", "600"],
            ["mdp", "--family", "expgeom", "--K-rule", "logpow:0.4", "--n-grid", "1000,10000", "--reps", "600"]
            + ["--mdp-rho", "0.1", "--mdp-eps", "1.0", "--mdp-r", "1.1"],
        ],
        ids=["clt", "mdp"],
    )
    def test_k2_bytes_at_one_and_two_workers(self, tmp_path, args):
        # K=2 replicates repeat their counts, so most decompose calls are memo
        # hits, and each worker keeps its Pmf's memo across its tasks
        outs = [tmp_path / f"w{workers}.json" for workers in (1, 2)]
        for workers, out in zip((1, 2), outs):
            assert run_cli(args + ["--seed", "5", "--workers", str(workers), "--out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        [records] = json.loads(outs[0].read_text())["results"].values()
        assert {record["K"] for record in records} == {2}

    def test_pool_fits_the_largest_grid_point(self, tmp_path, monkeypatch):
        # at 100 replicates mdp-tail's cells take 710, 3493 and 39 666 (3, 14
        # and 155 chunks): the pool fits the last cell, not the first
        pools = []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        monkeypatch.setattr(montecarlo.concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        args = ["mdp", "--family", "expgeom", "--K-rule", "logpow:0.4", "--n-grid", "1000,10000,100000"]
        args += ["--reps", "100", "--mdp-rho", "0.1", "--mdp-eps", "1.0", "--mdp-r", "1.1", "--seed", "42"]
        outs = [tmp_path / f"w{workers}.json" for workers in (1, 2, 4)]
        for workers, out in zip((1, 2, 4), outs):
            assert run_cli(args + ["--workers", str(workers), "--out", str(out)]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
        cells = json.loads(outs[0].read_text())["results"]["cells"]
        assert [cell["replicates_used"] for cell in cells] == [710, 3493, 39666]
        assert pools == [2, 4]
        # a large --workers claims no more processes than a run's chunks
        pools.clear()
        argv = CLT_ARGS + ["--reps", "300", "--workers", "4", "--out", str(tmp_path / "clt.json")]
        assert run_cli(argv) == EXIT_OK
        assert pools == [2]

    def test_categorical_grid_bytes_at_one_and_two_workers(self, tmp_path, monkeypatch):
        # 16-replicate chunks give 7 tasks a grid point, so each worker
        # switches its grid point (K=100, then 316) between tasks of one pool
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(montecarlo, "_WORKER_CHUNK", 16)
        args = ["clt", "--family", "harmonic", "--K-rule", "pow:0.5", "--n-grid", "10000,100000", "--reps", "100"]
        outs = [tmp_path / f"w{workers}.json" for workers in (1, 2)]
        for workers, out in zip((1, 2), outs):
            argv = args + ["--sampler", "categorical", "--seed", "3", "--workers", str(workers), "--out", str(out)]
            assert run_cli(argv) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()
        [records] = json.loads(outs[0].read_text())["results"].values()
        assert [record["K"] for record in records] == [100, 316]

    def test_config_file_round_trip_bytes(self, tmp_path):
        config = {
            "family": "harmonic",
            "K_rule": "fixed:8",
            "n_grid": [500, 1000],
            "reps": 150,
            "seed": 77,
            "delta": 1.0,
            "sampler": "multinomial",
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(canonical_json(config))
        out = tmp_path / "out.json"
        assert run_cli(["clt", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        echoed = json.loads(out.read_text())["config"]
        assert canonical_json(echoed) == cfg_path.read_text()

    def test_flags_override_config_file(self, tmp_path):
        config = {
            "family": "harmonic",
            "K_rule": "fixed:8",
            "n_grid": [500],
            "reps": 150,
            "seed": 77,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(canonical_json(config))
        out = tmp_path / "out.json"
        code = run_cli(["clt", "--config", str(cfg_path), "--reps", "200", "--out", str(out)])
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert record["config"]["reps"] == 200
        assert record["results"]["experiments"][0]["replicates"] == 200

    def test_null_config_value_takes_the_default(self, tmp_path):
        config = {"family": "harmonic", "K_rule": "fixed:8", "n_grid": [500], "reps": 150, "seed": 77}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**config, "delta": None, "sampler": None}))
        out = tmp_path / "out.json"
        assert run_cli(["clt", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        echoed = json.loads(out.read_text())["config"]
        assert (echoed["delta"], echoed["sampler"]) == (1.0, "multinomial")

    @pytest.mark.parametrize(
        "text, message",
        [("{not json", "cannot read config file"), ("null", "must hold a JSON object"), ("[1]", "must hold a JSON object")],
        ids=["not-json", "null", "list"],
    )
    def test_config_file_must_hold_a_json_object(self, tmp_path, capsys, text, message):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        assert run_cli(["clt", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_grid_flag_of_non_integers_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["clt", "--n-grid", "1000,x"])
        assert exc.value.code == EXIT_CONFIG
        assert "entries must be integers" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"family": "harmonic", "n_reps": 5}))
        assert run_cli(["clt", "--config", str(cfg_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, value",
        [
            ("reps", [150]),
            ("delta", {}),
            ("reps", 150.9),
            ("reps", 150.0),
            ("reps", "150"),
            ("reps", True),
            ("seed", 7.9),
            ("seed", "7"),
            ("seed", False),
            ("workers", 1.5),
            ("workers", "2"),
            ("workers", True),
            ("delta", "1.0"),
            ("delta", True),
            ("sampler", ""),
            ("sampler", False),
            ("sampler", 0),
            ("sampler", []),
            ("n_grid", "500"),
            ("n_grid", 500),
            ("n_grid", [500.0]),
            ("family", 5),
            ("K_rule", 8),
            pytest.param("delta", 10**400, id="delta-beyond-float-range"),
        ],
    )
    def test_wrongly_typed_config_value_is_config_error(self, tmp_path, capsys, key, value):
        config = {"family": "harmonic", "K_rule": "fixed:8", "n_grid": [500], "reps": 150, "seed": 77}
        config[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli(["clt", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["mdp_rho", "mdp_eps", "mdp_r"])
    @pytest.mark.parametrize("value", ["0.1", True, [0.1], pytest.param(10**400, id="beyond-float-range")])
    def test_wrongly_typed_mdp_value_is_config_error(self, tmp_path, capsys, key, value):
        config = {
            "family": "harmonic",
            "K_rule": "fixed:4",
            "n_grid": [1000],
            "reps": 100,
            "seed": 9,
            "mdp_rho": 0.05,
            "mdp_eps": 1,
            "mdp_r": 5.0,
        }
        config[key] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli(["mdp", "--config", str(cfg_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["clt", "be"])
    @pytest.mark.parametrize("key", ["mdp_rho", "mdp_eps", "mdp_r"])
    def test_mdp_values_are_checked_under_every_command(self, tmp_path, capsys, command, key):
        # one config file may serve all three commands, so its mdp keys are
        # checked even where they go unused
        config = {"family": "harmonic", "K_rule": "fixed:8", "n_grid": [500], "reps": 150, "seed": 77, key: "x"}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli([command, "--config", str(cfg_path)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err

    def test_integer_delta_is_a_number(self, tmp_path):
        config = {"family": "harmonic", "K_rule": "fixed:8", "n_grid": [500], "reps": 150, "seed": 77, "delta": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out.json"
        assert run_cli(["clt", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["config"]["delta"] == 1.0


    @pytest.mark.parametrize("rule", ["pow:inf", "fixed:inf", "logpow:inf", "fixed:1e400", "pow:nan", "pow:1000"])
    def test_k_rule_without_a_finite_k_is_config_error(self, capsys, rule):
        args = ["clt", "--family", "harmonic", "--K-rule", rule, "--n-grid", "1000", "--reps", "100", "--seed", "1"]
        assert run_cli(args) == EXIT_CONFIG
        assert "K rule" in capsys.readouterr().err


@pytest.fixture
def no_family_weights(monkeypatch):
    """Fail the test, before anything is allocated, if family weights are built."""

    def refuse(kind, size):
        raise AssertionError(f"family_weights({kind!r}, {size}) was reached")

    monkeypatch.setattr(alphabet, "family_weights", refuse)


class TestAlphabetCap:
    def test_describe_beyond_the_cap_is_config_error(self, capsys, no_family_weights):
        assert run_cli(["describe", "--family", f"uniform:{MAX_ALPHABET_SIZE + 1}"]) == EXIT_CONFIG
        assert str(MAX_ALPHABET_SIZE) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rule, n, size",
        [(f"fixed:{MAX_ALPHABET_SIZE + 1}", 1000, MAX_ALPHABET_SIZE + 1), ("pow:1.5", 10**6, 10**9)],
    )
    def test_grid_point_beyond_the_cap_is_config_error(self, capsys, no_family_weights, rule, n, size):
        args = ["clt", "--family", "harmonic", "--K-rule", rule, "--n-grid", str(n), "--reps", "100", "--seed", "1"]
        assert run_cli(args) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"K rule {rule}" in err and f"K={size} at n={n}" in err


    def test_expgeom_beyond_its_size_limit_is_refused_before_any_grid_point(self, capsys, no_family_weights):
        # K = floor(n^0.75) is 177 at n=1000 but 1000 at n=10000, past expgeom's
        # 745; the first grid point used to be sampled before the run exited
        args = ["clt", "--family", "expgeom", "--K-rule", "pow:0.75", "--n-grid", "1000,10000", "--reps", "2000"]
        assert run_cli(args + ["--seed", "1"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "K rule pow:0.75 gives K=1000 at n=10000; expgeom weights underflow to zero beyond size 745" in err

    def test_describe_expgeom_beyond_its_size_limit_is_config_error(self, capsys, no_family_weights):
        assert run_cli(["describe", "--family", "expgeom:746"]) == EXIT_CONFIG
        assert "beyond size 745" in capsys.readouterr().err


class TestSamplerDomain:
    @pytest.mark.parametrize(
        "command, rule, n",
        [("clt", "fixed:10", (1 << 62) + 1), ("clt", "pow:0.3", 10**400), ("mdp", "fixed:10", 10**400)],
        ids=("clt-2^62+1", "clt-pow-401-digits", "mdp-401-digits"),
    )
    def test_n_beyond_2_62_is_config_error(self, capsys, no_family_weights, command, rule, n):
        args = [command, "--family", "harmonic", "--K-rule", rule, "--n-grid", str(n), "--reps", "100", "--seed", "1"]
        if command == "mdp":
            args += ["--mdp-rho", "0.1", "--mdp-eps", "1.0", "--mdp-r", "1.0"]
        assert run_cli(args) == EXIT_CONFIG
        assert "2^62" in capsys.readouterr().err

    def test_categorical_run_beyond_its_draw_budget_is_config_error(self, capsys, no_family_weights):
        # alias draws cost O(n): one replicate at n = 2^62 would take millennia
        args = ["clt", "--family", "harmonic", "--K-rule", "fixed:2", "--n-grid", str(1 << 62), "--reps", "100"]
        started = time.perf_counter()
        assert run_cli(args + ["--sampler", "categorical", "--seed", "1"]) == EXIT_CONFIG
        assert time.perf_counter() - started < 1.0
        assert "--sampler multinomial" in capsys.readouterr().err


class TestBeCommand:
    def test_one_csv_row_per_grid_point(self, tmp_path):
        out = tmp_path / "be.json"
        csv_path = tmp_path / "be.csv"
        code = run_cli(
            [
                "be",
                "--family",
                "harmonic",
                "--K-rule",
                "pow:0.2",
                "--n-grid",
                "500,1000,2000",
                "--reps",
                "150",
                "--seed",
                "3",
                "--out",
                str(out),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == EXIT_OK
        record = json.loads(out.read_text())
        assert len(record["results"]["rows"]) == 3
        with open(csv_path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + 3
        bounds = [r["bound_shape"] for r in record["results"]["rows"]]
        assert bounds == sorted(bounds, reverse=True)


class TestMdpCommand:
    def test_admissible_interior_exponents_complete(self, tmp_path):
        out = tmp_path / "mdp.json"
        code = run_cli(
            [
                "mdp",
                "--family",
                "harmonic",
                "--K-rule",
                "pow:0.2",
                "--n-grid",
                "1000,10000",
                "--reps",
                "400",
                "--seed",
                "9",
                "--mdp-rho",
                "0.05",
                "--mdp-eps",
                "1.0",
                "--mdp-r",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        cells = json.loads(out.read_text())["results"]["cells"]
        assert [c["flag"] for c in cells] == ["ok", "ok"]
        assert all(c["scaled_log_prob"] < 0.0 for c in cells)

    def test_csv_columns_are_the_json_cell_keys(self, tmp_path):
        out = tmp_path / "mdp.json"
        csv_path = tmp_path / "mdp.csv"
        code = run_cli(
            [
                "mdp",
                "--family",
                "harmonic",
                "--K-rule",
                "fixed:4",
                "--n-grid",
                "1000",
                "--reps",
                "100",
                "--seed",
                "9",
                "--mdp-rho",
                "0.05",
                "--mdp-eps",
                "1.0",
                "--mdp-r",
                "5.0",
                "--out",
                str(out),
                "--csv",
                str(csv_path),
            ]
        )
        assert code == EXIT_OK
        [cell] = json.loads(out.read_text())["results"]["cells"]
        assert cell["flag"] == "infeasible"
        with open(csv_path, newline="") as handle:
            header, row = list(csv.reader(handle))
        assert header == list(cell)
        assert "threshold" in header
        assert row[header.index("p_hat")] == ""
        assert row[header.index("threshold")] == repr(cell["threshold"])

    def test_missing_mdp_flags(self, capsys):
        code = run_cli(
            [
                "mdp",
                "--family",
                "expgeom",
                "--K-rule",
                "logpow:0.4",
                "--n-grid",
                "1000",
                "--reps",
                "200",
                "--seed",
                "4",
            ]
        )
        assert code == EXIT_CONFIG
        assert "--mdp-rho" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, setting",
        [("--mdp-eps", "inf", "epsilon"), ("--mdp-r", "inf", "threshold r"), ("--mdp-r", "nan", "threshold r")],
    )
    def test_non_finite_setting_is_config_error(self, capsys, no_family_weights, flag, value, setting):
        mdp_flags = {"--mdp-rho": "0.1", "--mdp-eps": "1.0", "--mdp-r": "1.0", flag: value}
        args = ["mdp", "--family", "harmonic", "--K-rule", "fixed:10", "--n-grid", "1000", "--reps", "100", "--seed", "1"]
        args += [text for pair in mdp_flags.items() for text in pair]
        assert run_cli(args) == EXIT_CONFIG
        assert f"{setting} must be finite" in capsys.readouterr().err

    def test_r_with_an_overflowing_square_is_config_error(self, capsys, no_family_weights):
        # r = 1e200 is finite, but r*r and the rate target -r^2/2 are not
        args = ["mdp", "--family", "harmonic", "--K-rule", "fixed:2", "--n-grid", "1000", "--reps", "100", "--seed", "1"]
        args += ["--mdp-rho", "0.1", "--mdp-eps", "1.0", "--mdp-r", "1e200"]
        assert run_cli(args) == EXIT_CONFIG
        assert "threshold r must be finite and >= 0 with r*r finite" in capsys.readouterr().err

    def test_eps_overflowing_the_condition_is_config_error(self, capsys):
        # every exponent of the summability condition overflows to -inf
        args = ["mdp", "--family", "harmonic", "--K-rule", "fixed:2", "--n-grid", "1000", "--reps", "100", "--seed", "1"]
        args += ["--mdp-rho", "0.1", "--mdp-eps", "1e308", "--mdp-r", "1.0"]
        assert run_cli(args) == EXIT_CONFIG
        assert "epsilon=1e+308, n=1000" in capsys.readouterr().err


def test_stdout_default_and_wall_time_on_stderr(capsys):
    assert run_cli(["describe", "--family", "uniform:4"]) == EXIT_OK
    captured = capsys.readouterr()
    record = json.loads(captured.out)
    assert record["command"] == "describe"
    assert "wall time" in captured.err
    assert "wall time" not in captured.out


# sha256 of CLI outputs, recorded before the CSV exports were derived from
# the JSON record and before the functionals shared one cached log pass;
# they pin the be payload and the clt and be exports byte for byte.  The mdp
# entry, one "ok" cell and one "infeasible" cell with null fields, was
# recorded before the result records became the payload.
BE_ARGS = [
    "be",
    "--family",
    "harmonic",
    "--K-rule",
    "pow:0.2",
    "--n-grid",
    "500,1000,2000",
    "--reps",
    "150",
    "--seed",
    "3",
]
MDP_ARGS = [
    "mdp",
    "--family",
    "harmonic",
    "--K-rule",
    "fixed:10",
    "--n-grid",
    "1000,1000000",
    "--reps",
    "100",
    "--seed",
    "42",
    "--mdp-rho",
    "0.1",
    "--mdp-eps",
    "1.0",
    "--mdp-r",
    "1.0",
]
GOLDEN_OUTPUTS = (
    (CLT_ARGS, "87260216d6ff34ac249120f715cab20c19bea3ca123721638266c2f713585f33",
     "4162e44fe71ac781f517b09d67b69658a405ce9d73fd244fa4591de0af9988e9"),
    (BE_ARGS, "b7d1d58d4406473812eea3782340b97429924a58d0421efcc53746c07c8272e7",
     "46e55a44532b0a3ffcb7efb9bb6b348748e248178e0c912ca24d8ebfed674d9f"),
    (MDP_ARGS, "cc71fb88d981aa77dc21821b1ffe25c870682bd41d60e63bf1b89fdc444e8fad",
     "6c62bbfe765c8af5f46dbce959230a3f7536505d1800182b85b63c659d538935"),
)


@pytest.mark.parametrize("args, json_sha, csv_sha", GOLDEN_OUTPUTS, ids=("clt", "be", "mdp"))
def test_payload_and_csv_match_recorded_hashes(tmp_path, args, json_sha, csv_sha):
    out = tmp_path / "out.json"
    csv_path = tmp_path / "out.csv"
    assert run_cli(args + ["--out", str(out), "--csv", str(csv_path)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == json_sha
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha


def _benchmark_workloads():
    """The benchmark's workload table module, loaded from its file."""
    path = Path(__file__).parents[1] / "benchmarks" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_payloads_match_their_pins(tmp_path):
    # every call of every benchmark workload at the default seed, each with its
    # own --workers, against benchmarks/pins.json: a moved byte shows in tier-1
    workloads = _benchmark_workloads()
    pins = workloads.load_pins()
    assert set(pins) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        for index, (call, pin) in enumerate(zip(workload.calls, pins[name], strict=True)):
            out = tmp_path / f"{name}-{index}.json"
            assert run_cli(call.args(workloads.DEFAULT_SEED, out)) == EXIT_OK
            assert hashlib.sha256(out.read_bytes()).hexdigest() == pin, f"{name} call {index}"


def test_payload_keys_are_the_record_fields(tmp_path):
    def names(record_type):
        return [f.name for f in dataclasses.fields(record_type)]

    results = {}
    for args in (CLT_ARGS, BE_ARGS, MDP_ARGS):
        out = tmp_path / f"{args[0]}.json"
        assert run_cli(args + ["--out", str(out)]) == EXIT_OK
        results[args[0]] = json.loads(out.read_text())["results"]
    assert all(list(e) == names(montecarlo.EcdfSummary) for e in results["clt"]["experiments"])
    assert list(results["be"]) == names(montecarlo.BeSweepResult)
    assert all(list(r) == names(montecarlo.BeSweepRow) for r in results["be"]["rows"])
    assert all(list(c) == names(montecarlo.MdpCell) for c in results["mdp"]["cells"])


def _fresh_python(code, blas_threads=None):
    """stdout of ``code`` run in a new interpreter, with OPENBLAS_NUM_THREADS unset or at ``blas_threads``.

    This process's own environment may hold the variable: importing the CLI sets it.
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    if blas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = blas_threads
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_cli_import_leaves_the_process_pool_unloaded():
    # concurrent.futures loads its process module on first use of
    # ProcessPoolExecutor, which only a multi-process run reaches
    code = "import sys, entrokit.cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh_python(code) == "False"


def test_package_import_loads_no_numpy_and_sets_nothing():
    code = "import os, sys, entrokit; print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_python(code) == "False None"


def _module_tree(module):
    return ast.parse(Path(cli.__file__).with_name(f"{module}.py").read_text(encoding="utf-8"))


def _entrokit_imports(module):
    """The entrokit modules that ``module`` imports at run time, read from its relative imports.

    Imports under ``if TYPE_CHECKING:`` serve annotations only, so they are left out.
    """
    tree = _module_tree(module)
    typing_only = {
        id(node)
        for block in ast.walk(tree)
        if isinstance(block, ast.If) and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
        for statement in block.body
        for node in ast.walk(statement)
    }
    return {
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level and id(node) not in typing_only
    }


@pytest.mark.parametrize(
    "module, imports",
    [("alphabet", set()), ("exact", {"alphabet"}), ("sampling", {"alphabet"}), ("estimator", {"alphabet", "exact"})],
    ids=["alphabet", "exact", "sampling", "estimator"],
)
def test_input_contracts_sit_at_the_bottom_of_the_import_graph(module, imports):
    # alphabet holds the contracts every module checks its inputs by, so the
    # population functionals and the sampler need nothing above it, and the
    # estimator needs only the Pmf and its functionals
    assert _entrokit_imports(module) == imports


def test_input_contracts_are_defined_in_alphabet_only():
    contracts = {"_is_integer", "_is_real", "_as_float", "_check_total", "_check_seed"}
    homes = {name: set() for name in contracts}
    for path in Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(_module_tree(path.stem)):
            if isinstance(node, ast.FunctionDef):
                names = {node.name}
            elif isinstance(node, ast.Assign):
                names = {target.id for target in node.targets if isinstance(target, ast.Name)}
            else:
                continue
            for name in names & contracts:
                homes[name].add(path.stem)
    assert homes == {name: {"alphabet"} for name in contracts}


def test_cli_does_not_import_the_sampler():
    assert "sampling" not in _entrokit_imports("cli")


def test_exact_import_leaves_the_sampler_unloaded():
    assert _fresh_python("import sys, entrokit.exact; print('entrokit.sampling' in sys.modules)") == "False"


def test_estimator_import_leaves_the_sampler_unloaded():
    # the estimator names CountVector in annotations only
    assert _fresh_python("import sys, entrokit.estimator; print('entrokit.sampling' in sys.modules)") == "False"


def _numpy_uses_openblas():
    # only OpenBLAS reads OPENBLAS_NUM_THREADS; another BLAS may start threads of its own
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "openblas" in blas.get("name", "").lower()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc to count threads")
def test_cli_import_starts_no_blas_threads():
    # numpy's OpenBLAS starts one thread per core at import unless told otherwise
    code = "import os, entrokit.cli; print(len(os.listdir('/proc/self/task')), os.environ['OPENBLAS_NUM_THREADS'])"
    threads, variable = _fresh_python(code).split()
    assert variable == "1"
    if not _numpy_uses_openblas():
        pytest.skip("numpy is not linked to OpenBLAS")
    assert threads == "1"


def test_cli_import_keeps_a_preset_blas_thread_count():
    code = "import os, entrokit.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, blas_threads="3") == "3"


def test_every_public_name_resolves_and_is_listed():
    code = (
        "import json, entrokit\n"
        "listed = set(dir(entrokit))\n"
        "names = entrokit.__all__\n"
        "print(json.dumps([len(names), sorted(set(names) - listed),\n"
        "    [n for n in names if getattr(entrokit, n, None) is None], hasattr(entrokit, 'lindeberg_residual')]))"
    )
    count, unlisted, unresolved, removed = json.loads(_fresh_python(code))
    assert count > 40
    assert (unlisted, unresolved, removed) == ([], [], False)


def test_submodules_resolve_as_package_attributes():
    # README calls entrokit.exact.log_law, which is not in __all__, after a plain import
    code = (
        "import entrokit\n"
        "modules = ['alphabet', 'estimator', 'exact', 'montecarlo', 'sampling']\n"
        "print(callable(entrokit.exact.log_law), all(m in dir(entrokit) for m in modules),\n"
        "    [getattr(entrokit, m).__name__ for m in modules] == ['entrokit.' + m for m in modules])"
    )
    assert _fresh_python(code) == "True True True"


def _trace_points():
    """(module, name) of every TRACE_POINTS entry of the benchmark's traced run."""
    tree = ast.parse((Path(__file__).parents[1] / "benchmarks" / "layers.py").read_text())
    [table] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACE_POINTS"]
    ]
    return [(entry.elts[0].id, entry.elts[1].value) for entry in table.elts]


def test_benchmark_trace_hooks_are_called(tmp_path, monkeypatch):
    # The traced benchmark swaps wrappers in for these module globals; a
    # name the CLI no longer looks up at call time would silently zero its
    # per-layer metric.
    modules = {"cli": cli, "montecarlo": montecarlo, "sampling": sampling}
    points = _trace_points()
    assert {module for module, _ in points} <= set(modules)
    called = set()

    def spy(key, fn):
        def wrapper(*args, **kwargs):
            called.add(key)
            return fn(*args, **kwargs)

        return wrapper

    for key in points:
        module = modules[key[0]]
        monkeypatch.setattr(module, key[1], spy(key, getattr(module, key[1])))
    out = str(tmp_path / "out.json")
    experiment = ["--family", "harmonic", "--K-rule", "fixed:4", "--n-grid", "1000", "--reps", "100", "--seed", "9"]
    assert run_cli(["describe", "--family", "harmonic:100", "--out", out]) == EXIT_OK
    assert run_cli(["clt", *experiment, "--sampler", "categorical", "--out", out]) == EXIT_OK
    mdp = ["--mdp-rho", "0.05", "--mdp-eps", "1.0", "--mdp-r", "0.5"]
    assert run_cli(["mdp", *experiment, *mdp, "--out", out]) == EXIT_OK
    assert sorted(set(points) - called) == []
