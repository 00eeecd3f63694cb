import json
import math
import os
import subprocess
import sys

import pytest

from reuselab import cli, experiments
from reuselab.cli import main, parse_config
from reuselab.datasets import GENERATOR_KINDS, DatasetSpec, export_csv, make_dataset
from reuselab.experiments import ExperimentConfig
from reuselab.selection import load_trace

MINIMAL_CONFIG = {
    "dataset": {"kind": "uniform-line", "n": 200},
    "test_prop": 0.25,
    "repetitions": 2,
    "strategies": ["random"],
    "consumers": [{"kind": "least-squares"}, {"kind": "online-linear"}],
    "n_grid": [10, 40, 100],
    "base_seed": 3,
}


# Every consumer kind, each with non-default values.
EVERY_CONSUMER = [
    {"kind": "online-linear", "eta0": 0.2, "passes": 2, "name": "ol-2"},
    {"kind": "least-squares", "ridge": 0.01},
    {"kind": "lda", "name": "lda-a"},
    {"kind": "qda", "name": "qda-a"},
    {"kind": "svm-linear", "cost": 2.0},
    {"kind": "svm-poly3", "cost": 0.5},
    {"kind": "svm-rbf", "cost": 3.0, "gamma": 0.7},
]
SECTIONS = {
    "iwal": {"gk_mode": "exact-erm", "erm_grid_resolution": 16},
    "selector": {"eta0": 0.2},
}
# A CSV spec whose file is never read: its checks come first.
CSV_SPEC = {"kind": "csv", "path": "never-read.csv", "label_column": "label",
            "positive_values": ["y"], "schema": {"a": "numeric"}}
# (test id, config edit, the key the error must name)
BAD_VALUES = [
    ("test_prop-x", {"test_prop": "x"}, "test_prop"),
    ("test_prop-1.5", {"test_prop": 1.5}, "test_prop"),
    ("c0_grid-x", {"c0_grid": ["x"]}, "c0_grid"),
    ("c0_grid-Infinity", {"c0_grid": [math.inf]}, "c0_grid"),
    ("base_seed-true", {"base_seed": True}, "base_seed"),
    ("n_grid-true", {"n_grid": [True, 10]}, "n_grid"),
    ("repetitions-true", {"repetitions": True}, "repetitions"),
    ("strategies-string", {"strategies": "random"}, "strategies"),
    ("iwal.erm_grid_resolution-64.5", {"iwal": {"erm_grid_resolution": 64.5}},
     "erm_grid_resolution"),
    ("selector.eta0-0.9", {"selector": {"eta0": 0.9}}, "eta0"),
    ("consumer.cost-x", {"consumers": [{"kind": "svm-rbf", "cost": "x"}]}, "cost"),
    ("consumer.gamma-x", {"consumers": [{"kind": "svm-rbf", "gamma": "x"}]}, "gamma"),
    ("consumer.cost-Infinity", {"consumers": [{"kind": "svm-rbf", "cost": math.inf}]}, "cost"),
    ("consumer.gamma-Infinity", {"consumers": [{"kind": "svm-rbf", "gamma": math.inf}]},
     "gamma"),
    ("consumer.passes-2.5", {"consumers": [{"kind": "online-linear", "passes": 2.5}]}, "passes"),
    ("consumer.eta0-0.9", {"consumers": [{"kind": "online-linear", "eta0": 0.9}]}, "eta0"),
    ("consumer.ridge-x", {"consumers": [{"kind": "least-squares", "ridge": "x"}]}, "ridge"),
    ("consumer.ridge-Infinity",
     {"consumers": [{"kind": "least-squares", "ridge": math.inf}]}, "ridge"),
    ("consumer.name-5", {"consumers": [{"kind": "lda", "name": 5}]}, "name"),
    ("dataset.header-no", {"dataset": {**CSV_SPEC, "header": "no"}}, "header"),
    ("dataset.scale_numeric-no", {"dataset": {**CSV_SPEC, "scale_numeric": "no"}},
     "scale_numeric"),
    ("dataset.positive_values-yes", {"dataset": {**CSV_SPEC, "positive_values": "yes"}},
     "positive_values"),
    ("dataset.schema-5", {"dataset": {**CSV_SPEC, "schema": 5}}, "schema"),
    ("dataset.label_column-1.5", {"dataset": {**CSV_SPEC, "label_column": 1.5}}, "label_column"),
    ("dataset.path-5", {"dataset": {**CSV_SPEC, "path": 5}}, "path"),
    ("dataset.circle_prob-NaN", {"dataset": {"kind": "circle", "n": 200, "circle_prob": math.nan}},
     "circle_prob"),
    # integers too large for a float
    ("c0_grid-10**400", {"c0_grid": [10**400]}, "c0_grid"),
    ("consumer.ridge-10**400", {"consumers": [{"kind": "least-squares", "ridge": 10**400}]},
     "ridge"),
    ("consumer.cost-10**400", {"consumers": [{"kind": "svm-rbf", "cost": 10**400}]}, "cost"),
    ("consumer.gamma-10**400", {"consumers": [{"kind": "svm-rbf", "gamma": 10**400}]}, "gamma"),
    # integers too long for an array
    ("dataset.n-10**400", {"dataset": {"kind": "uniform-line", "n": 10**400}}, "dataset n"),
    ("iwal.erm_grid_resolution-10**400", {"iwal": {"erm_grid_resolution": 10**400}},
     "erm_grid_resolution"),
] + [
    (f"dataset.schema-levels-{name}",
     {"dataset": {**CSV_SPEC, "schema": {"a": {"kind": "categorical", **entry}}}}, "schema")
    for name, entry in [("5", {"levels": 5}), ("null", {"levels": None}),
                        ("string", {"levels": "xz"}), ("empty", {"levels": []}),
                        ("repeated", {"levels": ["x", "z", "x"]}), ("int", {"levels": [1, 2]}),
                        ("extra-key", {"order": ["x"]})]
]


# numpy's message for a pool of n 10**11; the tests raise it rather than
# ask for that much memory, which a host that overcommits might page in.
NUMPY_OUT_OF_MEMORY = ("Unable to allocate 745. GiB for an array with shape "
                       "(100000000000, 1) and data type float64")
OUT_OF_MEMORY_LINE = f"error: out of memory: {NUMPY_OUT_OF_MEMORY}"


def raise_out_of_memory(*args, **kwargs):
    raise MemoryError(NUMPY_OUT_OF_MEMORY)


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestGen:
    def test_writes_rows_and_reports_stats(self, tmp_path, capsys):
        out = tmp_path / "ring.csv"
        code = main([
            "gen", "circle", "--n", "5000", "--circle-prob", "0.001",
            "--seed", "4", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5001
        assert lines[0] == "f0,f1,label"
        assert "instances=5000" in capsys.readouterr().out

    def test_four_cluster_balance_printed(self, tmp_path, capsys):
        out = tmp_path / "line.csv"
        assert main(["gen", "four-cluster-line", "--n", "1000", "--seed", "5",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        frac = float(text.split("positive_fraction=")[1].split()[0])
        # binomial 5-sigma band around 0.5 at n=1000
        assert abs(frac - 0.5) < 0.08

    @pytest.mark.parametrize("argv, message", [
        (["--n", "1"], "n must be at least 2"),
        (["--n", "100", "--circle-prob", "0.7"], "circle_prob must lie in (0, 0.5)"),
    ], ids=["n-1", "circle-prob-0.7"])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "ring.csv"
        assert main(["gen", "circle", *argv, "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_kinds_come_from_the_generator_kinds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "GENERATOR_KINDS", ("circle",))
        out = tmp_path / "line.csv"
        assert main(["gen", "uniform-line", "--n", "10", "--out", str(out)]) == 2
        assert main(["gen", "circle", "--n", "10", "--out", str(out)]) == 0

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "uniform-line", "--n", "500", "--seed", "6", "--out", str(a)])
        main(["gen", "uniform-line", "--n", "500", "--seed", "6", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_minimal_run_row_count(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
        lines = (out / "curve.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2  # header + |n_grid| x |consumers|
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["base_seed"] == 3
        assert manifest["config"]["dataset"]["kind"] == "uniform-line"

    def test_missing_n_grid_gets_the_default_grid(self, tmp_path):
        payload = {k: v for k, v in MINIMAL_CONFIG.items() if k != "n_grid"}
        cfg = write_config(tmp_path, {
            **payload, "test_prop": 0.5, "strategies": ["random", "iwal"], "c0_grid": [1.0],
            "consumers": [{"kind": "least-squares"}]})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        grid = [10, 13, 17, 22, 28, 36, 46, 60, 77, 100]
        assert manifest["n_train"] == 100 and manifest["config"]["n_grid"] == grid
        rows = (out / "curve.csv").read_text().splitlines()[1:]
        assert [row.split(",")[2] for row in rows if row.startswith("random,")] == [
            f"n={n}" for n in grid]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_CONFIG)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", cfg, "--out-dir", str(out1)])
        main(["run", "--config", cfg, "--out-dir", str(out2), "--jobs", "2"])
        assert (out1 / "curve.csv").read_bytes() == (out2 / "curve.csv").read_bytes()
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()

    def test_quiet_stdout_is_pure_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path, MINIMAL_CONFIG)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (out / "curve.csv").read_text()
        assert captured.err == ""

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path, MINIMAL_CONFIG)
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out-dir", str(out), "--seed", "99"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["base_seed"] == 99

    def test_out_dir_env_default(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, MINIMAL_CONFIG)
        env_dir = tmp_path / "envout"
        monkeypatch.setenv("REUSELAB_OUT_DIR", str(env_dir))
        assert main(["run", "--config", cfg]) == 0
        assert (env_dir / "curve.csv").exists()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**MINIMAL_CONFIG, "bogus": True})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_unknown_consumer_key_is_config_error(self, tmp_path):
        bad = dict(MINIMAL_CONFIG)
        bad["consumers"] = [{"kind": "least-squares", "mystery": 1}]
        cfg = write_config(tmp_path, bad)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key, value", [
        ("iwal", 5), ("selector", "x"), ("consumers", 5),
    ])
    def test_section_of_wrong_type_is_config_error(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {**MINIMAL_CONFIG, key: value})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"config error: config.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("save_traces", "false", "save_traces must be true or false"),
        ("repetitions", 2.9, "repetitions must be an integer"),
        ("n_grid", [10, 10], "n_grid entries must be distinct"),
        ("c0_grid", [1.0, 1.0], "c0_grid entries must be distinct"),
        ("consumers", [{"kind": "bogus"}], "bad consumer #0: unknown consumer kind 'bogus'"),
        ("strategies", ["bogus"], "unknown strategies ['bogus']"),
        ("strategies", [], "need at least one strategy"),
        ("consumers", [], "need at least one consumer"),
        ("consumers", [{"kind": "lda"}, {"kind": "lda"}], "consumer names must be unique"),
        ("strategies", ["iwal"], "IWAL strategies need a non-empty c0_grid"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, key, value, message):
        cfg = write_config(tmp_path, {**MINIMAL_CONFIG, key: value})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, key", [
        ({"base_seed": 2.9}, "base_seed"),
        ({"n_grid": [10.7]}, "n_grid"),
        ({"iwal": {"erm_grid_resolution": 64.5}}, "erm_grid_resolution"),
    ])
    def test_non_integral_number_is_config_error(self, tmp_path, capsys, edit, key):
        cfg = write_config(tmp_path, {
            **MINIMAL_CONFIG, "strategies": ["random", "iwal"], "c0_grid": [1.0], **edit,
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("config error: ") and key in err

    def test_minimal_config_keeps_every_default(self):
        # the default strategies include IWAL, which needs a c0_grid
        spec = {"kind": "uniform-line", "n": 200}
        config = parse_config(json.dumps({"dataset": spec, "test_prop": 0.25, "c0_grid": [1]}))
        assert config == ExperimentConfig(DatasetSpec(**spec), 0.25, c0_grid=(1.0,))

    def test_log_base_is_an_unknown_key(self, tmp_path, capsys):
        # the probability rule's only constant is c0; the natural-log rule
        # that a null log_base meant is the rule itself
        cfg = write_config(tmp_path, {
            **MINIMAL_CONFIG, "strategies": ["random", "iwal"], "c0_grid": [1.0],
            "iwal": {"log_base": None},
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "config error: unknown keys in config.iwal: log_base"

    @pytest.mark.parametrize("text, message", [
        ('{"dataset": ', "config is not valid JSON: Expecting value: line 1 column 13 (char 12)"),
        (json.dumps({k: v for k, v in MINIMAL_CONFIG.items() if k != "dataset"}),
         "config is missing required key 'dataset'"),
    ], ids=["not-json", "no-dataset"])
    def test_unreadable_config_is_config_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"config error: {message}"

    def test_single_class_pool_is_an_error(self, tmp_path, capsys):
        data = tmp_path / "one-class.csv"
        data.write_text("a,label\n" + "".join(f"{v},n\n" for v in range(20)))
        cfg = write_config(tmp_path, {
            **MINIMAL_CONFIG, "n_grid": [5],
            "dataset": {"kind": "csv", "path": str(data), "positive_values": ["y"],
                        "schema": {"a": "numeric"}}})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"error: {data}: all rows map to a single class")

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path)]) == 4

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"dataset": "caf\xe9"}')
        assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith(f"config error: {cfg}: 'utf-8' codec can't decode byte 0xe9")

    def test_grid_beyond_the_budget_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            **MINIMAL_CONFIG, "dataset": {"kind": "circle", "n": 200, "circle_prob": 0.05},
            "strategies": ["iwal"], "c0_grid": [1.0],
            "iwal": {"gk_mode": "exact-erm", "erm_grid_resolution": 10**6}})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "config error: erm_grid_resolution 1000000 needs more than 64 MiB of grid")

    def test_out_of_memory_is_an_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "make_dataset", raise_out_of_memory)
        cfg = write_config(tmp_path, MINIMAL_CONFIG)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == OUT_OF_MEMORY_LINE

    def test_all_cells_empty_is_degenerate(self, tmp_path):
        data = tmp_path / "flat.csv"
        rows = ["a,b,label"] + [f"{v},{2*v},{'y' if v % 2 else 'n'}" for v in range(40)]
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, {
            "dataset": {
                "kind": "csv", "path": str(data), "label_column": "label",
                "positive_values": ["y"],
                "schema": {"a": "numeric", "b": "numeric"},
            },
            "test_prop": 0.25,
            "repetitions": 2,
            "strategies": ["random"],
            "consumers": [{"kind": "lda"}],
            "n_grid": [20],
            "base_seed": 1,
        })
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "o")]) == 3


class TestConfigSchema:
    @pytest.mark.parametrize("source", ["generated", "csv"])
    def test_manifest_snapshot_parses_back_to_the_config(self, tmp_path, source):
        dataset = {"kind": "circle", "n": 240, "circle_prob": 0.05}
        if source == "csv":
            path = tmp_path / "circle.csv"
            export_csv(make_dataset(DatasetSpec(**dataset, seed=3)), path)
            dataset = {"kind": "csv", "path": str(path), "label_column": 2,
                       "positive_values": ["1"], "schema": {"f0": "numeric", "f1": "numeric"},
                       "header": True, "scale_numeric": False}
        payload = {
            "dataset": dataset, "test_prop": 0.25, "repetitions": 2,
            "strategies": ["random", "uncertainty", "iwal", "iwal-no-weights"],
            "consumers": EVERY_CONSUMER, "n_grid": [40, 20], "c0_grid": [1, 0.05],
            "base_seed": 5, "save_traces": True, **SECTIONS,
        }
        out = tmp_path / "out"
        cfg = write_config(tmp_path, payload)
        assert main(["run", "--config", cfg, "--out-dir", str(out), "--quiet"]) == 0
        snapshot = json.loads((out / "manifest.json").read_text())["config"]
        config = parse_config(json.dumps(payload))
        assert parse_config(json.dumps(snapshot)) == config
        assert {key: snapshot[key] for key in SECTIONS} == SECTIONS
        assert config.c0_grid == (1.0, 0.05)
        assert [c.name for c in config.consumers][:4] == ["ol-2", "least-squares", "lda-a", "qda-a"]

    @pytest.mark.parametrize("log_base", [None, 2])
    def test_old_manifest_with_log_base_is_config_error(self, tmp_path, capsys, log_base):
        # a manifest written before the rule lost its base carries
        # iwal.log_base; run on its snapshot, it fails as an unknown key
        payload = {**MINIMAL_CONFIG, "strategies": ["random", "iwal"], "c0_grid": [1.0]}
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, payload),
                     "--out-dir", str(out), "--quiet"]) == 0
        snapshot = json.loads((out / "manifest.json").read_text())["config"]
        assert "log_base" not in snapshot["iwal"]
        snapshot["iwal"]["log_base"] = log_base
        old = tmp_path / "old-manifest-config.json"
        old.write_text(json.dumps(snapshot))
        capsys.readouterr()
        assert main(["run", "--config", str(old), "--out-dir", str(tmp_path / "again")]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "config error: unknown keys in config.iwal: log_base"

    @pytest.mark.parametrize("edit, key", [case[1:] for case in BAD_VALUES],
                             ids=[case[0] for case in BAD_VALUES])
    def test_bad_value_stops_the_run_before_any_pool(self, tmp_path, capsys, monkeypatch,
                                                     edit, key):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was drawn before the config was checked")

        monkeypatch.setattr(experiments, "make_dataset", no_pool)
        monkeypatch.setattr(experiments, "parse_csv", no_pool)
        cfg = write_config(tmp_path, {**MINIMAL_CONFIG, **edit})
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("config error: ") and key in err


class TestReplay:
    """Replay on the traces of a run whose IWAL passes take ``g`` from the
    surrogate or from exact ERM. Once an exact-ERM run has finished, the
    sequential pass raises, so every outcome on its IWAL traces comes from
    the pass rebuilt from the rows the trace labels."""

    @pytest.fixture(params=["surrogate", "exact-erm"])
    def gk_mode(self, request):
        return request.param

    @pytest.fixture(autouse=True)
    def _keep_monkeypatch(self, monkeypatch):
        self.monkeypatch = monkeypatch

    @staticmethod
    def _traces_of(tmp_path, payload):
        """The traces of ``payload`` run with all four strategies, in name
        order. A run writes an iwal-no-weights cell's trace only when it has
        no iwal cell, so those come from the same config without iwal."""
        traces = []
        for out, strategies in (("out", ["random", "uncertainty", "iwal", "iwal-no-weights"]),
                                ("out-no-iwal", ["iwal-no-weights"])):
            cfg = write_config(tmp_path, {**payload, "strategies": strategies,
                                          "save_traces": True})
            assert main(["run", "--config", cfg, "--out-dir", str(tmp_path / out)]) == 0
            traces += (tmp_path / out / "traces").iterdir()
        return sorted(traces, key=lambda t: t.name)

    def _run_with_traces(self, tmp_path, gk_mode):
        traces = self._traces_of(tmp_path, {**MINIMAL_CONFIG, "c0_grid": [1.0],
                                            "iwal": {"gk_mode": gk_mode}})
        assert sum("_iwal" in t.name for t in traces) == 4
        if gk_mode == "exact-erm":
            def no_pass(*args, **kwargs):
                raise AssertionError("replay ran the sequential pass")

            self.monkeypatch.setattr(experiments, "select_iwal", no_pass)
        return traces

    def test_untouched_traces_verify(self, tmp_path, capsys, gk_mode):
        for trace in self._run_with_traces(tmp_path, gk_mode):
            assert main(["replay", str(trace)]) == 0
            assert capsys.readouterr().out.strip() == "ok"

    def test_scaled_csv_traces_verify(self, tmp_path, capsys):
        data = tmp_path / "circle.csv"
        export_csv(make_dataset(DatasetSpec(kind="circle", n=240, circle_prob=0.05, seed=8)), data)
        traces = self._traces_of(tmp_path, {
            "dataset": {"kind": "csv", "path": str(data), "label_column": "label",
                        "positive_values": ["1"], "schema": {"f0": "numeric", "f1": "numeric"}},
            "test_prop": 0.25, "repetitions": 2, "n_grid": [20], "c0_grid": [0.1],
            "base_seed": 4,
        })
        capsys.readouterr()
        assert len(traces) == 8
        for trace in traces:
            assert main(["replay", str(trace)]) == 0
            assert capsys.readouterr().out.strip() == "ok"
        # the scaling is part of the recipe: replayed unscaled, the pass differs
        trace = [t for t in traces if "iwal_c0" in t.name][0]
        assert load_trace(trace)[0]["split"]["scale_numeric"] is True
        self._edit_header(trace, lambda h: {**h, "split": {**h["split"], "scale_numeric": False}})
        assert main(["replay", str(trace)]) == 1
        assert "divergence" in capsys.readouterr().out

    def test_flipped_coin_detected(self, tmp_path, capsys, gk_mode):
        traces = self._run_with_traces(tmp_path, gk_mode)
        for trace in (traces[-1], [t for t in traces if "iwal_c0" in t.name][0]):
            lines = trace.read_text().splitlines()
            parts = lines[4].split(",")
            parts[3] = "1" if parts[3] == "0" else "0"
            lines[4] = ",".join(parts)
            trace.write_text("\n".join(lines) + "\n")
            assert main(["replay", str(trace)]) == 1
            assert "divergence at row 2" in capsys.readouterr().out

    def test_removed_last_row_detected(self, tmp_path, capsys, gk_mode):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        lines = trace.read_text().splitlines()
        last = len(lines) - 3  # row number of the last row; two header lines
        trace.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["replay", str(trace)]) == 1
        out = capsys.readouterr().out
        assert f"divergence at row {last}, column index: trace has None, recomputed {last}" in out

    def test_added_row_detected(self, tmp_path, capsys, gk_mode):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        lines = trace.read_text().splitlines()
        extra = len(lines) - 2
        lines.append(f"{extra},0.0,1.0,0,0,0.0")
        trace.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(trace)]) == 1
        out = capsys.readouterr().out
        assert f"divergence at row {extra}, column index: trace has {extra}, recomputed None" in out

    @pytest.mark.parametrize("column, row", [("g", -20), ("weight", -1)])
    def test_one_ulp_off_is_reported(self, tmp_path, capsys, gk_mode, column, row):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        lines = trace.read_text().splitlines()
        j = lines[1].split(",").index(column)
        parts = lines[row].split(",")
        was = float(parts[j])
        parts[j] = repr(math.nextafter(was, math.inf))
        lines[row] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(trace)]) == 1
        at = len(lines) + row - 2
        assert capsys.readouterr().out.strip() == (
            f"divergence at row {at}, column {column}: "
            f"trace has {float(parts[j])!r}, recomputed {was!r}")

    @pytest.mark.parametrize("column, was, now", [("g", "0.0", "-0.0"), ("weight", "1.0", "1")])
    def test_same_number_written_differently_is_reported(self, tmp_path, capsys, gk_mode,
                                                         column, was, now):
        # the edited field parses to a number equal to the recomputed one
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        lines = trace.read_text().splitlines()
        j = lines[1].split(",").index(column)
        at = next(row for row, line in enumerate(lines[2:]) if line.split(",")[j] == was)
        parts = lines[at + 2].split(",")
        parts[j] = now
        lines[at + 2] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["replay", str(trace)]) == 1
        assert capsys.readouterr().out.strip() == (
            f"divergence at row {at}, column {column}: trace has {float(now)!r}, "
            f"recomputed {float(was)!r} (equal as numbers, written differently)")

    def test_blank_line_is_reported_outside_the_rows(self, tmp_path, capsys, gk_mode):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        lines = trace.read_text().splitlines()
        lines.insert(4, "")
        trace.write_text("\n".join(lines) + "\n")
        assert load_trace(trace)[1]["index"][2] == 2  # the rows still load
        assert main(["replay", str(trace)]) == 1
        assert capsys.readouterr().out.strip() == (
            f"divergence outside the rows: trace has '', recomputed {lines[5]!r}")

    def test_crlf_trace_verifies(self, tmp_path, capsys, gk_mode):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        trace.write_bytes(trace.read_bytes().replace(b"\n", b"\r\n"))
        assert main(["replay", str(trace)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_crlf_trace_with_flipped_coin_detected(self, tmp_path, capsys, gk_mode):
        traces = self._run_with_traces(tmp_path, gk_mode)
        for trace in (traces[-1], [t for t in traces if "iwal_c0" in t.name][0]):
            lines = trace.read_text().splitlines()
            parts = lines[4].split(",")
            parts[3] = "1" if parts[3] == "0" else "0"
            lines[4] = ",".join(parts)
            trace.write_bytes(("\r\n".join(lines) + "\r\n").encode())
            assert main(["replay", str(trace)]) == 1
            assert "divergence at row 2, column coin: " in capsys.readouterr().out

    @staticmethod
    def _edit_header(trace, edit):
        """Rewrite the trace's header line as ``edit(header)`` returns it."""
        lines = trace.read_text().splitlines()
        prefix = "# reuselab-trace v1 "
        header = json.loads(lines[0][len(prefix):])
        lines[0] = prefix + json.dumps(edit(header), sort_keys=True)
        trace.write_text("\n".join(lines) + "\n")

    def test_header_c0_mismatch_detected(self, tmp_path, capsys, gk_mode):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        self._edit_header(trace, lambda h: {**h, "c0": h["c0"] * 10})
        assert main(["replay", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "divergence" in out and "probability" in out

    @pytest.mark.parametrize("strategy", ["iwal", "iwal-no-weights"])
    def test_flipped_use_weights_detected(self, tmp_path, capsys, gk_mode, strategy):
        traces = self._run_with_traces(tmp_path, gk_mode)
        trace = [t for t in traces if f"_{strategy}_c0" in t.name][0]
        self._edit_header(trace, lambda h: {**h, "use_weights": not h["use_weights"]})
        assert main(["replay", str(trace)]) == 1
        assert ", column weight: " in capsys.readouterr().out

    @pytest.mark.parametrize("key", ["c0", "dataset"])
    def test_header_missing_key_is_trace_error(self, tmp_path, capsys, gk_mode, key):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        self._edit_header(trace, lambda h: {k: v for k, v in h.items() if k != key})
        assert main(["replay", str(trace)]) == 2
        assert f"trace error: trace header lacks {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("path, value, named", [
        ("dataset", 5, "dataset"), ("c0", "x", "c0"), ("split", 5, "split"),
        ("seed", "x", "seed"), ("selector_eta0", "x", "eta0"),
        ("erm_grid_resolution", "x", "erm_grid_resolution"),
        ("dataset.n", "x", "n must be"), ("split.test_prop", "x", "test_prop"),
        ("split.scale_numeric", "no", "scale_numeric"),
        ("dataset.schema", {"f0": {"kind": "categorical", "levels": ["x", "x"]}}, "schema"),
        ("use_weights", "yes", "use_weights"), ("use_weights", 0, "use_weights"),
        ("strategy", "bogus", "value: unknown strategy 'bogus'"),
    ])
    def test_header_bad_value_is_trace_error(self, tmp_path, capsys, gk_mode, path, value, named):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]

        def edit(header):
            *outer, key = path.split(".")
            inner = header[outer[0]] if outer else header
            inner[key] = value
            return header

        self._edit_header(trace, edit)
        assert main(["replay", str(trace)]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("trace error: trace header has a bad ") and named in err

    def test_new_iwal_header_has_no_log_base(self, tmp_path, gk_mode):
        # the rule takes the natural log only, so new headers record c0 alone
        iwal = [t for t in self._run_with_traces(tmp_path, gk_mode) if "_iwal" in t.name]
        for trace in iwal:
            header, _ = load_trace(trace)
            assert "log_base" not in header
            assert {"c0", "gk_mode", "erm_grid_resolution", "seed",
                    "selector_eta0"} <= header.keys()

    def test_header_null_log_base_replays_ok(self, tmp_path, capsys, gk_mode):
        # older IWAL traces carry "log_base": null, the natural-log rule
        for trace in self._run_with_traces(tmp_path, gk_mode):
            if "_iwal" in trace.name:
                self._edit_header(trace, lambda h: {**h, "log_base": None})
                assert '"log_base": null' in trace.read_text().partition("\n")[0]
            assert main(["replay", str(trace)]) == 0
            assert capsys.readouterr().out.strip() == "ok"

    @pytest.mark.parametrize("strategy", ["iwal", "iwal-no-weights"])
    def test_header_log_base_is_trace_error(self, tmp_path, capsys, gk_mode, strategy):
        traces = self._run_with_traces(tmp_path, gk_mode)
        trace = [t for t in traces if f"_{strategy}_c0" in t.name][0]
        self._edit_header(trace, lambda h: {**h, "log_base": 2})
        assert main(["replay", str(trace)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "trace error: trace header sets log_base 2; "
            "the probability rule now uses the natural log only")

    @pytest.mark.parametrize("strategy", ["iwal", "iwal-no-weights"])
    def test_header_unknown_keys_are_trace_error(self, tmp_path, capsys, gk_mode, strategy):
        # a key the pass does not read, such as a floor, is refused by name, not ignored
        traces = self._run_with_traces(tmp_path, gk_mode)
        trace = [t for t in traces if f"_{strategy}_c0" in t.name][0]
        self._edit_header(trace, lambda h: {**h, "p_min": 0.5, "c0_typo": 9})

        def no_draw(*args, **kwargs):
            raise AssertionError("replay drew the pool")

        # named before the pool is drawn, however large a pool the header asks for
        self.monkeypatch.setattr(experiments, "make_dataset", no_draw)
        assert main(["replay", str(trace)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "trace error: trace header has unknown keys: c0_typo, p_min")

    @pytest.mark.parametrize("strategy, key, value", [
        ("random", "c0", 1.0), ("random", "selector_eta0", 0.3),
        ("uncertainty", "gk_mode", "surrogate"), ("random", "log_base", None),
    ])
    def test_header_key_of_another_strategy_is_trace_error(self, tmp_path, capsys, strategy,
                                                           key, value):
        # only an IWAL header may carry a null log_base, an older trace's
        traces = self._run_with_traces(tmp_path, "surrogate")
        trace = [t for t in traces if f"_{strategy}_n" in t.name][0]
        self._edit_header(trace, lambda h: {**h, key: value})
        assert main(["replay", str(trace)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"trace error: trace header has unknown keys: {key}")

    def test_header_unknown_split_key_is_trace_error(self, tmp_path, capsys):
        trace = [t for t in self._run_with_traces(tmp_path, "exact-erm") if "iwal_c0" in t.name][0]
        self._edit_header(trace, lambda h: {**h, "split": {**h["split"], "stratify": True}})
        assert main(["replay", str(trace)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "trace error: trace header's split has unknown keys: stratify")

    def test_header_dataset_without_kind_is_trace_error(self, tmp_path, capsys, gk_mode):
        trace = [t for t in self._run_with_traces(tmp_path, gk_mode) if "iwal_c0" in t.name][0]
        self._edit_header(trace, lambda h: {**h, "dataset": {
            k: v for k, v in h["dataset"].items() if k != "kind"}})
        assert main(["replay", str(trace)]) == 2
        err = capsys.readouterr().err.splitlines()[-1]
        assert err == "trace error: trace header has a bad value: dataset spec lacks 'kind'"

    def test_header_not_an_object_is_trace_error(self, tmp_path, capsys, gk_mode):
        trace = self._run_with_traces(tmp_path, gk_mode)[0]
        self._edit_header(trace, lambda h: [])
        assert main(["replay", str(trace)]) == 2
        assert "header is not a JSON object" in capsys.readouterr().err

    def test_non_utf8_trace_is_trace_error(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b'# reuselab-trace v1 {"strategy": "caf\xe9"}\n')
        assert main(["replay", str(bad)]) == 2
        assert "trace error: " in capsys.readouterr().err

    def test_header_grid_beyond_the_budget_is_trace_error(self, tmp_path, capsys):
        trace = [t for t in self._run_with_traces(tmp_path, "exact-erm") if "iwal_c0" in t.name][0]
        self._edit_header(trace, lambda h: {**h, "erm_grid_resolution": 10**7})
        assert main(["replay", str(trace)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "trace error: trace header has a bad value: erm_grid_resolution 10000000 needs "
            "more than 64 MiB of grid")

    def test_out_of_memory_is_an_error(self, tmp_path, capsys):
        trace = self._run_with_traces(tmp_path, "surrogate")[0]
        self.monkeypatch.setattr(experiments, "make_dataset", raise_out_of_memory)
        assert main(["replay", str(trace)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == OUT_OF_MEMORY_LINE

    def test_header_not_json_is_trace_error(self, tmp_path, capsys):
        bad = tmp_path / "bad-header.csv"
        bad.write_text('# reuselab-trace v1 {"strategy": \n')
        assert main(["replay", str(bad)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"trace error: {bad}: corrupt header: Expecting value: line 1 column 14 (char 13)")

    def test_trace_without_its_column_row_is_trace_error(self, tmp_path, capsys):
        trace = self._run_with_traces(tmp_path, "surrogate")[0]
        lines = trace.read_text().split("\n")
        trace.write_text("\n".join(lines[:1] + lines[2:]))
        assert main(["replay", str(trace)]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"trace error: {trace}: missing column row")

    def test_corrupt_trace_is_usage_error(self, tmp_path):
        bad = tmp_path / "broken.csv"
        bad.write_text("not a trace\n")
        assert main(["replay", str(bad)]) == 2


class TestReportMerge:
    def test_merges_rows(self, tmp_path):
        payload = {**MINIMAL_CONFIG, "strategies": ["random", "iwal"], "c0_grid": [1.0]}
        cfg = write_config(tmp_path, payload)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["run", "--config", cfg, "--out-dir", str(out1)])
        main(["run", "--config", cfg, "--out-dir", str(out2), "--seed", "77"])
        merged = tmp_path / "merged.csv"
        assert main(["report-merge", str(out1 / "report.csv"), str(out2 / "report.csv"),
                     "--out", str(merged)]) == 0
        lines = merged.read_text().splitlines()
        n1 = len((out1 / "report.csv").read_text().splitlines()) - 1
        n2 = len((out2 / "report.csv").read_text().splitlines()) - 1
        assert len(lines) == 1 + n1 + n2

    def test_rejects_non_utf8_report(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"caf\xe9\n")
        assert main(["report-merge", str(bad), "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: 'utf-8' codec")
        assert not (tmp_path / "m.csv").exists()

    def test_rejects_non_report_csv(self, tmp_path):
        other = tmp_path / "other.csv"
        other.write_text("a,b\n1,2\n")
        assert main(["report-merge", str(other), "--out", str(tmp_path / "m.csv")]) == 2


class TestEntrypoint:
    def test_console_invocation(self, tmp_path):
        out = tmp_path / "x.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "reuselab.cli", "gen", "uniform-line",
             "--n", "50", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert out.exists()

    def test_import_leaves_out_the_process_pool(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, reuselab.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('concurrent.futures.process', 'multiprocessing'))))"],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.strip() == "[]"

    def test_one_parser_per_generator_kinds(self, tmp_path, monkeypatch):
        built = []

        def counted():
            built.append(cli.GENERATOR_KINDS)
            return build_parser()

        build_parser = cli.build_parser
        monkeypatch.setattr(cli, "_PARSERS", {})
        monkeypatch.setattr(cli, "build_parser", counted)
        out = str(tmp_path / "x.csv")
        for _ in range(3):
            assert main(["gen", "circle", "--n", "10", "--out", out]) == 0
            assert main(["run"]) == 2
        monkeypatch.setattr(cli, "GENERATOR_KINDS", ("circle",))
        for _ in range(2):
            assert main(["gen", "uniform-line", "--n", "10", "--out", out]) == 2
        assert built == [GENERATOR_KINDS, ("circle",)]

    def test_dispatch_runs_the_current_command_function(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_replay", lambda args: seen.append(args.trace) or 7)
        assert main(["replay", "some/trace.csv"]) == 7
        assert seen == ["some/trace.csv"]

    def test_usage_error_exit_code(self):
        assert main(["run"]) == 2  # missing --config

    @pytest.mark.parametrize("argv, message", [
        (["gen", "bogus", "--n", "10", "--out", "x.csv"], "invalid choice: 'bogus'"),
        (["run", "--config", "c.json", "--jobs", "x"], "invalid int value: 'x'"),
    ], ids=["gen-kind", "run-jobs"])
    def test_usage_error_names_the_bad_argument(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: reuselab ")
        assert message in err

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, capsys, monkeypatch, jobs):
        def no_run(*a, **k):
            raise AssertionError("run_experiment must not be reached")

        monkeypatch.setattr(cli, "run_experiment", no_run)
        cfg = write_config(tmp_path, MINIMAL_CONFIG)
        assert main(["run", "--config", cfg, "--out-dir", str(tmp_path), "--jobs", jobs]) == 2
        assert f"--jobs must be at least 1, not {jobs}" in capsys.readouterr().err
