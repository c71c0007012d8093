import json

import pytest

from atree.boosting import BoostConfig
from atree.cli import RunConfig, _training_log_lines, main
from atree.dataset import generate_gaussian_blobs, load_csv
from atree.svm import KernelSpec
from atree.tree import (AtreeConfig, InternalNode, deserialize, iter_nodes, load, predict,
                        serialize, train_atree)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def blob_csvs(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    assert run("--quiet", "synth", "blobs", "--classes", 4, "--per-class", 30,
               "--dim", 3, "--spread", 0.6, "--seed", 7, "--out", train) == 0
    # same distribution, fresh noise: reuse the seed for means via the
    # generator, then split off a test half instead
    assert run("--quiet", "synth", "blobs", "--classes", 4, "--per-class", 30,
               "--dim", 3, "--spread", 0.6, "--seed", 7, "--out", test) == 0
    return train, test


class TestSynth:
    def test_blobs_row_count_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run("--quiet", "synth", "blobs", "--classes", 20, "--per-class", 100,
                       "--dim", 16, "--spread", 0.5, "--seed", 7, "--out", out) == 0
        assert a.read_text().count("\n") == 2000
        assert a.read_bytes() == b.read_bytes()

    def test_two_cluster_row_count(self, tmp_path):
        out = tmp_path / "tc.csv"
        assert run("--quiet", "synth", "two-cluster-2d", "--count", 3000,
                   "--seed", 1, "--out", out) == 0
        assert out.read_text().count("\n") == 3000

    def test_invalid_count_exits_2(self, tmp_path):
        assert run("--quiet", "synth", "two-cluster-2d", "--count", 2,
                   "--out", tmp_path / "x.csv") == 2


class TestTrain:
    def test_small_tree_node_budget(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model,
                   "--delta", 0.6, "--max-depth", 4) == 0
        tree = load(model)
        assert sum(1 for _ in iter_nodes(tree.root)) <= 15

    def test_delta_below_half_rejected_with_message(self, blob_csvs, tmp_path, capsys):
        train, _ = blob_csvs
        code = run("--quiet", "train", train, "--out", tmp_path / "m.json", "--delta", 0.49)
        assert code == 2
        assert "0.5" in capsys.readouterr().err

    def test_retrain_is_byte_identical(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            assert run("--quiet", "--seed", 3, "train", train, "--out", out,
                       "--delta", 0.7, "--max-depth", 4) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_log_without_timestamp_is_deterministic(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        logs = []
        for name in ("l1", "l2"):
            log = tmp_path / name
            assert run("--quiet", "--no-timestamp", "train", train,
                       "--out", tmp_path / f"{name}.json", "--log", log,
                       "--delta", 0.6, "--max-depth", 4) == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]
        assert b"# generated" not in logs[0]

    @pytest.mark.parametrize("max_passes", [1, None])
    def test_log_counts_converged_node_solves(self, blob_csvs, tmp_path, max_passes):
        train, _ = blob_csvs
        log, model = tmp_path / "log.txt", tmp_path / "m.json"
        flags = [] if max_passes is None else ["--max-passes", max_passes]
        assert run("--quiet", "--no-timestamp", "train", train, "--out", model,
                   "--log", log, "--delta", 0.6, "--max-depth", 4, *flags) == 0
        config = RunConfig(delta=0.6, max_depth=4)
        if max_passes is not None:
            config.max_passes = max_passes
        tree = train_atree(load_csv(train), config.to_atree_config())
        records = [n.svm.convergence for n in iter_nodes(tree.root)
                   if isinstance(n, InternalNode)]
        converged = sum(r.converged for r in records)
        if max_passes == 1:
            assert converged == 0
        assert log.read_text().splitlines()[-1] == (
            f"svm: converged={converged}/{len(records)}")
        # records stay out of the model file
        assert all(n.svm.convergence is None for n in iter_nodes(load(model).root)
                   if isinstance(n, InternalNode))

    @pytest.mark.parametrize("kernel", [KernelSpec("linear"), KernelSpec("rbf", 0.5)],
                             ids=lambda k: k.kind)
    def test_log_of_a_reloaded_tree_counts_solves_without_record(self, kernel):
        data = generate_gaussian_blobs(4, 20, 3, 0.8, seed=5)
        tree = train_atree(data, AtreeConfig(max_depth=4, kernel=kernel,
                                             boost=BoostConfig(max_rounds=5)))
        fresh = _training_log_lines(tree, include_timestamp=False)
        solves = sum(isinstance(n, InternalNode) for n in iter_nodes(tree.root))
        assert solves > 0
        assert "without record" not in fresh[-1]
        loaded = _training_log_lines(deserialize(serialize(tree)), include_timestamp=False)
        assert loaded[:-1] == fresh[:-1]
        assert loaded[-1] == f"svm: converged=0/0 ({solves} without record)"

    def test_timestamp_line_present_by_default(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        log = tmp_path / "log.txt"
        assert run("--quiet", "train", train, "--out", tmp_path / "m.json",
                   "--log", log, "--max-depth", 3) == 0
        assert log.read_text().startswith("# generated")

    def test_config_file_supplies_defaults(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"delta": 0.75, "max_depth": 3, "max_rounds": 10}))
        model = tmp_path / "m.json"
        assert run("--quiet", "--config", cfg, "train", train, "--out", model) == 0
        assert load(model).config.delta == 0.75

    def test_unknown_config_key_rejected(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"deltas": [0.5]}))
        assert run("--quiet", "--config", cfg, "train", train,
                   "--out", tmp_path / "m.json") == 2


    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_training_data_exits_2(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0,1.0,2.0\n1,{cell},3.0\n0,1.5,2.5\n1,4.0,3.5\n")
        assert run("--quiet", "train", bad, "--out", tmp_path / "m.json") == 2
        assert "finite" in capsys.readouterr().err


class TestEval:
    def _trained(self, blob_csvs, tmp_path):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model,
                   "--delta", 0.6, "--max-depth", 4) == 0
        return train, test, model

    def test_metrics_row_per_method_with_baseline(self, blob_csvs, tmp_path):
        train, test, model = self._trained(blob_csvs, tmp_path)
        metrics = tmp_path / "metrics.csv"
        assert run("--quiet", "eval", model, test, "--baseline", "ova",
                   "--train-csv", train, "--out-metrics", metrics) == 0
        lines = metrics.read_text().strip().splitlines()
        assert lines[0].startswith("method,")
        methods = [l.split(",")[0] for l in lines[1:]]
        assert methods == ["atree", "ova"]
        ova_row = lines[2].split(",")
        assert ova_row[-1] == "1.0"

    def test_missing_baseline_leaves_relative_empty(self, blob_csvs, tmp_path):
        _, test, model = self._trained(blob_csvs, tmp_path)
        metrics = tmp_path / "metrics.csv"
        assert run("--quiet", "eval", model, test, "--out-metrics", metrics) == 0
        lines = metrics.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1].endswith(",")

    def test_trace_rows_per_instance(self, blob_csvs, tmp_path):
        _, test, model = self._trained(blob_csvs, tmp_path)
        metrics = tmp_path / "m.csv"
        traces = tmp_path / "t.csv"
        assert run("--quiet", "eval", model, test, "--out-metrics", metrics,
                   "--out-traces", traces) == 0
        lines = traces.read_text().strip().splitlines()
        assert len(lines) == 1 + 120
        assert lines[0].split(",")[0] == "instance"
        tree = load(model)
        data = load_csv(test)
        for i, line in enumerate(lines[1:]):
            instance, _, predicted, evaluations, _, node_ids = line.split(",")
            label, trace = predict(tree, data.features[i])
            assert int(instance) == i
            assert predicted == str(tree.label_names[label])
            assert int(evaluations) == len(trace)
            assert node_ids == ";".join(str(nid) for nid, _ in trace)

    def test_config_file_sets_baseline_svm(self, blob_csvs, tmp_path):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--delta", 0.6,
                   "--max-depth", 3, "--kernel", "rbf", "--kernel-gamma", 0.5) == 0
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"c": 0.01}))
        outputs = {}
        for name, before, after in (("config", ("--config", cfg), ()),
                                    ("flag", (), ("--c", 0.01)), ("default", (), ())):
            out = tmp_path / f"{name}.csv"
            assert run("--quiet", *before, "eval", model, test, "--baseline", "ova",
                       "--train-csv", train, "--out-metrics", out, *after) == 0
            outputs[name] = out.read_bytes()
        assert outputs["config"] == outputs["flag"]
        assert outputs["config"] != outputs["default"]

    def test_unknown_config_key_rejected(self, blob_csvs, tmp_path):
        _, test, model = self._trained(blob_csvs, tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"deltas": [0.5]}))
        assert run("--quiet", "--config", cfg, "eval", model, test,
                   "--out-metrics", tmp_path / "m.csv") == 2

    def test_flag_before_command_is_not_an_abbreviated_config(self, blob_csvs, tmp_path,
                                                             monkeypatch, capsys):
        _, test, model = self._trained(blob_csvs, tmp_path)
        # a readable config file named like the flag's value must stay unread
        (tmp_path / "0.01").write_text(json.dumps({"c": 0.01}))
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run("--c", "0.01", "eval", model, test, "--out-metrics", tmp_path / "m.csv")
        assert exc.value.code == 2
        assert not (tmp_path / "m.csv").exists()
        assert "cannot read config file" not in capsys.readouterr().err

    def test_svm_flag_after_command(self, blob_csvs, tmp_path):
        train, test, model = self._trained(blob_csvs, tmp_path)
        out = tmp_path / "m.csv"
        assert run("--quiet", "eval", model, test, "--baseline", "ova", "--train-csv", train,
                   "--out-metrics", out, "--c", "0.01") == 0
        assert out.read_text().count("\n") == 3

    def test_baseline_requires_training_data(self, blob_csvs, tmp_path):
        _, test, model = self._trained(blob_csvs, tmp_path)
        assert run("--quiet", "eval", model, test, "--baseline", "ova",
                   "--out-metrics", tmp_path / "m.csv") == 2

    def test_dimension_mismatch_exits_2(self, blob_csvs, tmp_path):
        train, _, model = self._trained(blob_csvs, tmp_path)
        bad = tmp_path / "bad.csv"
        assert run("--quiet", "synth", "blobs", "--classes", 3, "--per-class", 5,
                   "--dim", 2, "--spread", 0.5, "--seed", 1, "--out", bad) == 0
        assert run("--quiet", "eval", model, bad, "--out-metrics", tmp_path / "m.csv") == 2


    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_model_with_a_truncated_node_classifier_exits_2(self, blob_csvs, tmp_path,
                                                           capsys, kernel):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3,
                   "--kernel", kernel, *(["--kernel-gamma", 0.5] if kernel == "rbf" else [])) == 0
        doc = json.loads(model.read_text())
        svm = next(n["svm"] for n in doc["nodes"] if "split" in n)
        svm["weights" if kernel == "linear" else "dual_coefficients"].pop()
        model.write_text(json.dumps(doc))
        assert run("--quiet", "eval", model, test, "--out-metrics", tmp_path / "m.csv") == 2
        err = capsys.readouterr().err
        assert "node" in err and "dimension mismatch" not in err

    def test_non_finite_test_data_exits_2(self, blob_csvs, tmp_path, capsys):
        _, test, model = self._trained(blob_csvs, tmp_path)
        lines = test.read_text().splitlines()
        label = lines[0].split(",")[0]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines + [f"{label},nan,0.0,0.0"]) + "\n")
        assert run("--quiet", "eval", model, bad, "--out-metrics", tmp_path / "m.csv") == 2
        assert "finite" in capsys.readouterr().err


class TestSweep:
    def test_delta_sweep_row_count(self, blob_csvs, tmp_path):
        train, test = blob_csvs
        out = tmp_path / "sweep.csv"
        assert run("--quiet", "sweep", "--train-csv", train, "--test-csv", test,
                   "--deltas", "0.5,0.6,0.7,0.8,0.9", "--max-depth", 4,
                   "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 5
        deltas = [float(l.split(",")[1]) for l in lines[1:]]
        assert deltas == [0.5, 0.6, 0.7, 0.8, 0.9]

    def test_class_count_sweep_rows(self, tmp_path):
        out = tmp_path / "growth.csv"
        assert run("--quiet", "sweep", "--classes", "4,8", "--per-class", 20,
                   "--dim", 6, "--spread", 0.8, "--delta", 0.6, "--max-depth", 5,
                   "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 2
        assert [int(l.split(",")[2]) for l in lines[1:]] == [4, 8]

    def test_empty_delta_list_rejected(self, blob_csvs, tmp_path):
        train, test = blob_csvs
        assert run("--quiet", "sweep", "--train-csv", train, "--test-csv", test,
                   "--deltas", "", "--out", tmp_path / "s.csv") == 2

    def test_sweep_without_mode_rejected(self, tmp_path):
        assert run("--quiet", "sweep", "--out", tmp_path / "s.csv") == 2

    def test_parallel_matches_serial(self, blob_csvs, tmp_path):
        train, test = blob_csvs
        serial = tmp_path / "serial.csv"
        parallel = tmp_path / "parallel.csv"
        common = ["sweep", "--train-csv", train, "--test-csv", test,
                  "--deltas", "0.5,0.7", "--max-depth", 4]
        assert run("--quiet", *common, "--out", serial) == 0
        assert run("--quiet", "--jobs", 2, *common, "--out", parallel) == 0
        assert serial.read_bytes() == parallel.read_bytes()


class TestExportTree:
    def test_dot_output_and_depth_cut(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 4) == 0
        full = tmp_path / "full.dot"
        top = tmp_path / "top.dot"
        assert run("--quiet", "export-tree", model, "--out", full) == 0
        assert run("--quiet", "export-tree", model, "--out", top, "--max-depth", 2) == 0
        assert full.read_text().startswith("digraph")
        assert top.read_text().count("[shape=") <= 3

    def test_malformed_model_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run("--quiet", "export-tree", bad, "--out", tmp_path / "o.dot") == 2

    def test_schema3_model_exits_2(self, blob_csvs, tmp_path, capsys):
        train, _ = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3) == 0
        doc = json.loads(model.read_text())
        doc["version"] = 3
        model.write_text(json.dumps(doc))
        assert run("--quiet", "export-tree", model, "--out", tmp_path / "o.dot") == 2
        assert "version 3" in capsys.readouterr().err
