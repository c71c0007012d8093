import hashlib
import json
import os
import stat
import threading
import warnings

import pytest

from atree import cli
from atree.cli import RunConfig, main
from atree.dataset import Dataset, load_csv, write_csv
from atree.errors import AtreeError
from atree.tree import InternalNode, iter_nodes, load, predict, save, train_atree
from oracles import BAD_PACKINGS, model_table, packed, set_model_table, unpacked


def run(*argv):
    return main([str(a) for a in argv])


def _digest(path):
    """sha256 of a file's bytes: two files match exactly when their digests
    do, and a failed comparison reports two short strings."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


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
        assert _digest(a) == _digest(b)

    def test_two_cluster_row_count(self, tmp_path):
        out = tmp_path / "tc.csv"
        assert run("--quiet", "synth", "two-cluster-2d", "--count", 3000,
                   "--seed", 1, "--out", out) == 0
        assert out.read_text().count("\n") == 3000

    def test_invalid_count_exits_2(self, tmp_path):
        assert run("--quiet", "synth", "two-cluster-2d", "--count", 2,
                   "--out", tmp_path / "x.csv") == 2

    @pytest.mark.parametrize("kind", ["two-cluster-2d", "blobs"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, kind):
        out = tmp_path / "x.csv"
        assert run("--quiet", "synth", kind, "--seed", -1, "--out", out) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_defaults_to_the_training_seed(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        small = ("--classes", 2, "--per-class", 3, "--dim", 1)
        assert run("--quiet", "synth", "blobs", *small, "--out", a) == 0
        assert run("--quiet", "synth", "blobs", *small, "--seed", 0, "--out", b) == 0
        assert _digest(a) == _digest(b)


def _repeat_first_support_vector(doc):
    """Node 0 names its first support vector a second time, with the same
    dual coefficient."""
    svm = doc["nodes"][0]["svm"]
    svm["sv_ids"].append(svm["sv_ids"][0])
    coefficients = unpacked(svm["dual_coefficients"])
    svm["dual_coefficients"] = packed(coefficients + coefficients[:1])


def _set_packed(doc, path, index, value):
    """Set entry ``index`` of the packed float array at ``path`` in doc."""
    owner = doc
    for key in path[:-1]:
        owner = owner[key]
    values = unpacked(owner[path[-1]])
    values[index] = value
    owner[path[-1]] = packed(values)


class TestTrain:
    def test_small_tree_node_budget(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model,
                   "--delta", 0.6, "--max-depth", 4) == 0
        tree = load(model)
        assert sum(1 for _ in iter_nodes(tree.root)) <= 15

    @pytest.mark.parametrize("before,after", [(("--seed", -1), ()), ((), ("--seed", -1))])
    def test_negative_seed_exits_2(self, blob_csvs, tmp_path, capsys, before, after):
        train, _ = blob_csvs
        model = tmp_path / "m.json"
        assert run("--quiet", *before, "train", train, "--out", model, *after) == 2
        assert "seed" in capsys.readouterr().err
        assert not model.exists()

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
        assert _digest(a) == _digest(b)

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

    def test_timestamp_line_present_by_default(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        log = tmp_path / "log.txt"
        assert run("--quiet", "train", train, "--out", tmp_path / "m.json",
                   "--log", log, "--max-depth", 3) == 0
        assert log.read_text().startswith("# generated")

    def test_config_file_supplies_defaults(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        cfg = tmp_path / "run.json"
        # an integer where a float is due, null where the field allows None
        cfg.write_text(json.dumps({"delta": 0.75, "max_depth": 3, "max_rounds": 10,
                                   "c": 2, "kernel_gamma": None, "kernel": "linear"}))
        model = tmp_path / "m.json"
        assert run("--quiet", "--config", cfg, "train", train, "--out", model) == 0
        assert load(model).config.delta == 0.75
        assert load(model).config.svm.c == 2

    def test_unknown_config_key_rejected(self, blob_csvs, tmp_path):
        train, _ = blob_csvs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"deltas": [0.5]}))
        assert run("--quiet", "--config", cfg, "train", train,
                   "--out", tmp_path / "m.json") == 2

    @pytest.mark.parametrize("key,value", [("delta", "0.7"), ("delta", True), ("c", None),
                                           ("max_rounds", 2.5), ("max_rounds", True),
                                           ("max_depth", "3"), ("seed", 1.0),
                                           ("kernel", 1), ("kernel", None),
                                           ("kernel_gamma", [0.5]),
                                           # the removed support-vector budget search
                                           ("sv_budget", [2, 5])])
    def test_config_value_that_fits_no_field_exits_2(self, blob_csvs, tmp_path, capsys,
                                                  key, value):
        train, _ = blob_csvs
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        assert run("--quiet", "--config", cfg, "train", train,
                   "--out", tmp_path / "m.json") == 2
        assert repr(key) in capsys.readouterr().err


    @pytest.mark.parametrize("flags", [("--kernel", "rbf", "--kernel-gamma", "nan"),
                                       ("--kernel", "rbf", "--kernel-gamma", "inf"),
                                       ("--c", "nan"), ("--c", "inf")],
                             ids=["gamma-nan", "gamma-inf", "c-nan", "c-inf"])
    def test_non_finite_solver_parameter_exits_2(self, blob_csvs, tmp_path, capsys, flags):
        train, _ = blob_csvs
        model = tmp_path / "m.json"
        assert run("--quiet", "train", train, "--out", model, *flags) == 2
        assert "finite" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("path,value", [(("svm", "c"), "NaN"), (("svm", "c"), "Infinity"),
                                            (("kernel", "gamma"), "NaN")],
                             ids=["c-nan", "c-inf", "gamma-nan"])
    def test_model_with_a_non_finite_solver_parameter_exits_2(self, blob_csvs, tmp_path,
                                                             capsys, path, value):
        train, _ = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3,
                   "--kernel", "rbf", "--kernel-gamma", 0.5) == 0
        doc = json.loads(model.read_text())
        # json writes and reads NaN and Infinity as bare tokens
        doc["config"][path[0]][path[1]] = float(value.replace("Infinity", "inf"))
        model.write_text(json.dumps(doc))
        assert value in model.read_text()
        assert run("--quiet", "export-tree", model, "--out", tmp_path / "o.dot") == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", [("chi_square", "--kernel-gamma", 0.5),
                                        ("histogram_intersection",)], ids=lambda k: k[0])
    def test_model_with_a_negative_support_vector_exits_2(self, blob_csvs, tmp_path, capsys,
                                                          kernel):
        # nonnegative features, as both kernels require
        blobs = load_csv(blob_csvs[0])
        train = tmp_path / "nonnegative.csv"
        write_csv(Dataset(abs(blobs.features), blobs.labels, blobs.weights, blobs.num_classes,
                          blobs.label_names), train)
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3,
                   "--kernel", *kernel) == 0
        doc = json.loads(model.read_text())
        _set_packed(doc, ("support_vectors", "rows"), 0, -0.5)
        model.write_text(json.dumps(doc))
        assert run("--quiet", "eval", model, train, "--out-metrics", tmp_path / "m.csv",
                   "--out-traces", tmp_path / "t.csv") == 2
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("mutation,named,kernel", [
        (lambda doc: doc["config"]["svm"].update(max_passes=2.5), "'max_passes'", "linear"),
        (lambda doc: doc["config"]["svm"].update(max_passes=float("inf")), "'max_passes'",
         "linear"),
        (lambda doc: doc["config"]["svm"].update(seed="x"), "'seed'", "linear"),
        (lambda doc: doc["config"].update(delta=True), "'delta'", "linear"),
        (lambda doc: doc["config"]["boost"].update(max_rounds=2.5), "'max_rounds'", "linear"),
        (lambda doc: doc["nodes"][0].update(svm=None), "node 0", "linear"),
        (lambda doc: [n.update(label=99) for n in doc["nodes"] if "label" in n], "leaf node",
         "linear"),
        (lambda doc: doc["nodes"][0]["svm"].update(bias=float("nan")), "finite", "linear"),
        (lambda doc: _set_packed(doc, ("nodes", 0, "svm", "weights"), 0, float("inf")),
         "finite", "linear"),
        (lambda doc: doc["nodes"][0]["svm"].update(bias=float("nan")), "finite", "rbf"),
        (lambda doc: _set_packed(doc, ("support_vectors", "rows"), 0, float("nan")), "finite",
         "rbf"),
        (lambda doc: _set_packed(doc, ("nodes", 0, "svm", "dual_coefficients"), 0,
                                 float("nan")), "finite", "rbf"),
        (lambda doc: doc["nodes"][0].update(right=doc["nodes"][0]["left"]),
         "child of exactly one node", "linear"),
        (lambda doc: doc["nodes"].append({"label": 0, "purity": 1.0}),
         "child of exactly one node", "linear"),
        (lambda doc: set_model_table(doc, model_table(doc) + [[999999, [0.0, 0.0, 0.0]]]),
         "support vectors that node classifiers name", "rbf"),
        (lambda doc: doc["nodes"][0].update(pos_classes="ab"), "pos_classes", "linear"),
        (lambda doc: doc["nodes"][0].update(pos_classes=[99]), "pos_classes", "linear"),
        (lambda doc: doc["nodes"][0].update(pos_classes=[]), "pos_classes", "linear"),
        (lambda doc: doc["nodes"][0].update(neg_classes=doc["nodes"][0]["neg_classes"] * 2),
         "neg_classes", "linear"),
        (lambda doc: doc["nodes"][0].update(binary_distribution="ab"), "binary_distribution",
         "linear"),
        (lambda doc: doc["nodes"][0].update(binary_distribution=[1]), "binary_distribution",
         "linear"),
        (lambda doc: doc["nodes"][0].update(binary_distribution=[float("nan"), 1]),
         "binary_distribution", "linear"),
        (_repeat_first_support_vector, "sv_ids", "rbf"),
        (lambda doc: doc.update(dimension=doc["dimension"] + 0.5), "dimension", "linear"),
        (lambda doc: doc.update(label_names="abcd"), "label_names", "linear"),
        (lambda doc: [n.update(purity="x") for n in doc["nodes"] if "label" in n], "purity",
         "linear"),
        (lambda doc: [n.update(purity=7.5) for n in doc["nodes"] if "label" in n], "purity",
         "linear"),
        (lambda doc: [n.update(purity=float("nan")) for n in doc["nodes"] if "label" in n],
         "purity", "linear"),
    ], ids=["max-passes-fraction", "max-passes-inf", "seed-string", "delta-bool",
            "max-rounds-fraction", "null-classifier", "leaf-label-99", "bias-nan",
            "weight-inf", "rbf-bias-nan", "table-row-nan", "dual-coefficient-nan",
            "same-child", "orphan-node", "orphan-support-vector", "pos-classes-string",
            "pos-classes-99", "pos-classes-empty", "neg-classes-repeated", "masses-string", "masses-one",
            "masses-nan", "sv-ids-repeated", "dimension-fraction", "label-names-string",
            "purity-string", "purity-above-one", "purity-nan"])
    def test_model_the_program_could_not_have_written_exits_2(self, blob_csvs, tmp_path,
                                                             capsys, mutation, named, kernel):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3,
                   "--kernel", kernel, *(("--kernel-gamma", 0.5) if kernel == "rbf" else ())) == 0
        doc = json.loads(model.read_text())
        assert "svm" in doc["nodes"][0]
        mutation(doc)
        model.write_text(json.dumps(doc))
        assert run("--quiet", "eval", model, test, "--out-metrics", tmp_path / "m.csv",
                   "--out-traces", tmp_path / "t.csv") == 2
        assert named in capsys.readouterr().err
        assert run("--quiet", "export-tree", model, "--out", tmp_path / "o.dot") == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_training_data_exits_2(self, tmp_path, capsys, cell):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"0,1.0,2.0\n1,{cell},3.0\n0,1.5,2.5\n1,4.0,3.5\n")
        assert run("--quiet", "train", bad, "--out", tmp_path / "m.json") == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("kernel", [("--kernel", "linear"),
                                        ("--kernel", "rbf", "--kernel-gamma", 0.5)],
                             ids=["linear", "rbf"])
    def test_features_whose_squares_overflow_exit_2(self, blob_csvs, tmp_path, capsys,
                                                    kernel):
        """Training rows scaled by 1e155 are finite but their squared norms
        are not: training and the baseline's training exit 2 with one error
        line that names the features, before any numpy warning, and write
        nothing."""
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 2, *kernel) == 0
        big = tmp_path / "big.csv"
        big.write_text("".join(f"{label},{','.join(repr(float(v) * 1e155) for v in rest)}\n"
                               for label, *rest in (line.split(",") for line in
                                                    train.read_text().splitlines())))
        capsys.readouterr()
        outputs = [tmp_path / "big.json", tmp_path / "big_metrics.csv"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("--quiet", "train", big, "--out", outputs[0], *kernel) == 2
            first = capsys.readouterr().err
            assert run("--quiet", "eval", model, test, "--baseline", "ova", "--train-csv", big,
                       "--out-metrics", outputs[1]) == 2
            second = capsys.readouterr().err
        for err in (first, second):
            assert err.startswith("error: features too large") and err.count("\n") == 1
        assert not any(path.exists() for path in outputs)


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

    def test_kernel_trace_rows_per_instance(self, blob_csvs, tmp_path):
        train, test = blob_csvs
        model, traces = tmp_path / "model.json", tmp_path / "t.csv"
        assert run("--quiet", "train", train, "--out", model, "--delta", 0.6, "--max-depth", 4,
                   "--kernel", "rbf", "--kernel-gamma", 0.5) == 0
        assert run("--quiet", "eval", model, test, "--out-metrics", tmp_path / "m.csv",
                   "--out-traces", traces) == 0
        tree = load(model)
        data = load_csv(test)
        rows = [line.split(",") for line in traces.read_text().splitlines()[1:]]
        assert len(rows) == len(data)
        assert len({row[2:] for row in map(tuple, rows)}) > 1
        for i, row in enumerate(rows):
            label, trace = predict(tree, data.features[i])
            # the union of the support vectors of the classifiers on the path
            met = {k for nid, _ in trace for k in tree.nodes[nid].svm.sv_ids.tolist()}
            assert row == [str(i), str(tree.label_names[data.labels[i]]),
                           str(tree.label_names[label]), str(len(trace)), str(len(met)),
                           ";".join(str(nid) for nid, _ in trace)]

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
    def test_baseline_training_data_of_another_width_exits_2(self, blob_csvs, tmp_path,
                                                            capsys, kernel):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3,
                   "--kernel", kernel, *(["--kernel-gamma", 0.5] if kernel == "rbf" else [])) == 0
        wide = tmp_path / "wide.csv"
        assert run("--quiet", "synth", "blobs", "--classes", 4, "--per-class", 10,
                   "--dim", 4, "--spread", 0.6, "--seed", 7, "--out", wide) == 0
        capsys.readouterr()
        assert run("--quiet", "eval", model, test, "--baseline", "ova", "--train-csv", wide,
                   "--out-metrics", tmp_path / "m.csv") == 2
        err = capsys.readouterr().err
        assert "dimension 3" in err and "--train-csv has 4" in err


    @pytest.mark.parametrize("kernel", ["linear", "rbf"])
    def test_model_with_a_truncated_node_classifier_exits_2(self, blob_csvs, tmp_path,
                                                           capsys, kernel):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3,
                   "--kernel", kernel, *(["--kernel-gamma", 0.5] if kernel == "rbf" else [])) == 0
        doc = json.loads(model.read_text())
        svm = next(n["svm"] for n in doc["nodes"] if "svm" in n)
        key = "weights" if kernel == "linear" else "dual_coefficients"
        svm[key] = packed(unpacked(svm[key])[:-1])
        model.write_text(json.dumps(doc))
        assert run("--quiet", "eval", model, test, "--out-metrics", tmp_path / "m.csv") == 2
        err = capsys.readouterr().err
        assert "node" in err and "dimension mismatch" not in err

    @pytest.mark.parametrize("case", sorted(BAD_PACKINGS))
    @pytest.mark.parametrize("field", ["rows", "dual_coefficients", "weights"])
    def test_model_with_a_bad_packed_field_exits_2(self, blob_csvs, tmp_path, capsys, field,
                                                   case):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        kernel = ["linear"] if field == "weights" else ["rbf", "--kernel-gamma", 0.5]
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3,
                   "--kernel", *kernel) == 0
        doc = json.loads(model.read_text())
        owner = doc["support_vectors"] if field == "rows" else doc["nodes"][0]["svm"]
        owner[field] = BAD_PACKINGS[case](owner[field])
        model.write_text(json.dumps(doc))
        assert run("--quiet", "eval", model, test, "--out-metrics", tmp_path / "m.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("finite" if case == "nan" else field) in err

    def test_test_file_with_a_byte_order_mark_reads_as_without(self, blob_csvs, tmp_path):
        _, test, model = self._trained(blob_csvs, tmp_path)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + test.read_bytes())
        for name, path in (("plain", test), ("bom", bom)):
            assert run("--quiet", "eval", model, path, "--out-metrics", tmp_path / f"{name}_m.csv",
                       "--out-traces", tmp_path / f"{name}_t.csv") == 0
        for kind in ("m", "t"):
            assert _digest(tmp_path / f"bom_{kind}.csv") == _digest(tmp_path / f"plain_{kind}.csv")

    def test_cell_only_float_reads_exits_2_naming_its_line(self, blob_csvs, tmp_path, capsys):
        _, test, model = self._trained(blob_csvs, tmp_path)
        lines = test.read_text().splitlines()
        cells = lines[2].split(",")
        cells[1] = "1_0"
        lines[2] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        assert run("--quiet", "eval", model, bad, "--out-metrics", tmp_path / "m.csv") == 2
        assert "line 3: non-numeric feature value" in capsys.readouterr().err

    def test_non_finite_test_data_exits_2(self, blob_csvs, tmp_path, capsys):
        _, test, model = self._trained(blob_csvs, tmp_path)
        lines = test.read_text().splitlines()
        label = lines[0].split(",")[0]
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines + [f"{label},nan,0.0,0.0"]) + "\n")
        assert run("--quiet", "eval", model, bad, "--out-metrics", tmp_path / "m.csv") == 2
        assert "finite" in capsys.readouterr().err


def _relabelled(path, out, relabel):
    """A copy of the CSV at path, each row's label replaced by
    relabel(line number, label), or the row dropped where that is None."""
    lines = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        label, rest = line.split(",", 1)
        new = relabel(lineno, int(label))
        if new is not None:
            lines.append(f"{new},{rest}")
    out.write_text("\n".join(lines) + "\n")
    return out


class TestTestLabelsAreTheModelsClasses:
    """A test file's labels map through the model's label names; a label the
    model does not know, or a class without test rows, exits 2 naming it."""

    def _trained(self, blob_csvs, tmp_path, relabel=lambda lineno, label: label):
        train, test = blob_csvs
        train = _relabelled(train, tmp_path / "train_named.csv", relabel)
        test = _relabelled(test, tmp_path / "test_named.csv", relabel)
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model,
                   "--delta", 0.6, "--max-depth", 4) == 0
        return train, test, model

    @pytest.mark.parametrize("second", [int, str], ids=["repeated", "same-str"])
    def test_model_whose_label_names_collide_exits_2_naming_the_model(self, blob_csvs,
                                                                      tmp_path, capsys, second):
        # [0, 0, 2, 3] or [0, "0", 2, 3]: a test file could not tell classes 0 and 1 apart
        _, test, model = self._trained(blob_csvs, tmp_path)
        doc = json.loads(model.read_text())
        doc["label_names"][1] = second(doc["label_names"][0])
        model.write_text(json.dumps(doc))
        assert run("--quiet", "eval", model, test, "--out-metrics", tmp_path / "m.csv") == 2
        err = capsys.readouterr().err
        assert "label_names" in err and test.name not in err

    def test_shifted_labels_exit_2_naming_the_first_unknown_label(self, blob_csvs,
                                                                  tmp_path, capsys):
        train, test, model = self._trained(blob_csvs, tmp_path)
        shifted = _relabelled(test, tmp_path / "shifted.csv", lambda lineno, label: label + 5)
        first = int(shifted.read_text().split(",", 1)[0])
        metrics = tmp_path / "m.csv"
        assert run("--quiet", "eval", model, shifted, "--out-metrics", metrics) == 2
        assert f"line 1: label {first} is not one of the 4 known" in capsys.readouterr().err
        assert not metrics.exists()
        # the sweep maps its test file through the training file's labels
        assert run("--quiet", "sweep", "--train-csv", train, "--test-csv", shifted,
                   "--deltas", "0.6", "--max-depth", 3, "--out", tmp_path / "s.csv") == 2
        assert f"label {first} is not one of the 4 known" in capsys.readouterr().err
        # and the baseline's training file through the model's
        assert run("--quiet", "eval", model, test, "--baseline", "ova",
                   "--train-csv", shifted, "--out-metrics", metrics) == 2
        assert f"label {first} is not one of the 4 known" in capsys.readouterr().err

    def test_missing_class_exits_2_naming_its_label(self, blob_csvs, tmp_path, capsys):
        # labels 100..103: a class's dense id and its name differ
        _, test, model = self._trained(blob_csvs, tmp_path,
                                       lambda lineno, label: label + 100)
        assert run("--quiet", "eval", model, test, "--out-metrics", tmp_path / "ok.csv") == 0
        no_first = _relabelled(test, tmp_path / "no_first.csv",
                               lambda lineno, label: None if label == 100 else label)
        assert run("--quiet", "eval", model, no_first,
                   "--out-metrics", tmp_path / "m.csv") == 2
        assert "class 100 has no test instances" in capsys.readouterr().err

    def test_half_relabelled_class_exits_2_naming_the_label_and_line(self, blob_csvs,
                                                                     tmp_path, capsys):
        _, test, model = self._trained(blob_csvs, tmp_path)
        threes = [n for n, line in enumerate(test.read_text().splitlines(), start=1)
                  if line.startswith("3,")]
        moved = set(threes[::2])
        half = _relabelled(test, tmp_path / "half.csv",
                           lambda lineno, label: 9 if lineno in moved else label)
        assert run("--quiet", "eval", model, half, "--out-metrics", tmp_path / "m.csv") == 2
        assert f"line {min(moved)}: label 9 is not one of the 4 known" in (
            capsys.readouterr().err)

    def test_named_labels_report_the_names(self, blob_csvs, tmp_path):
        _, test, model = self._trained(blob_csvs, tmp_path,
                                       lambda lineno, label: label * 10 + 7)
        metrics, traces = tmp_path / "m.csv", tmp_path / "t.csv"
        assert run("--quiet", "eval", model, test, "--out-metrics", metrics,
                   "--out-traces", traces) == 0
        rows = [line.split(",") for line in traces.read_text().splitlines()[1:]]
        names = {"7", "17", "27", "37"}
        assert {true for _, true, *_ in rows} == names
        assert {predicted for _, _, predicted, *_ in rows} <= names


    def test_string_named_model_reads_its_names_as_written(self, blob_csvs, tmp_path):
        # a tree trained through the API on data whose class names are strings
        # serializes them; its test file holds those names as write_csv writes them
        train, test = blob_csvs
        data = load_csv(train)
        named = Dataset(data.features, data.labels, data.weights, data.num_classes,
                        [str(name) for name in data.label_names])
        config = RunConfig(delta=0.6, max_depth=4).to_atree_config()
        outputs = {}
        for kind, source in (("int", data), ("str", named)):
            model = tmp_path / f"{kind}.json"
            save(train_atree(source, config), model)
            metrics, traces = tmp_path / f"{kind}_m.csv", tmp_path / f"{kind}_t.csv"
            assert run("--quiet", "eval", model, test, "--out-metrics", metrics,
                       "--out-traces", traces) == 0
            outputs[kind] = _digest(metrics), _digest(traces)
        assert load(tmp_path / "str.json").label_names == ["0", "1", "2", "3"]
        assert outputs["str"] == outputs["int"]


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

    def test_empty_delta_list_rejected(self, blob_csvs, tmp_path, capsys):
        train, test = blob_csvs
        assert run("--quiet", "sweep", "--train-csv", train, "--test-csv", test,
                   "--deltas", "", "--out", tmp_path / "s.csv") == 2
        # an empty list is named as empty, not as a missing mode
        assert "--deltas must not be empty" in capsys.readouterr().err
        assert run("--quiet", "sweep", "--classes", "", "--out", tmp_path / "s.csv") == 2
        assert "--classes must not be empty" in capsys.readouterr().err

    def test_fractional_class_count_rejected(self, tmp_path):
        assert run("--quiet", "sweep", "--classes", "2.5", "--per-class", 10,
                   "--out", tmp_path / "s.csv") == 2

    def test_sweep_without_mode_rejected(self, tmp_path):
        assert run("--quiet", "sweep", "--out", tmp_path / "s.csv") == 2

    def test_deltas_and_classes_together_rejected(self, blob_csvs, tmp_path, capsys):
        # one sweep is a delta sweep or a class-count sweep, never both
        train, test = blob_csvs
        with pytest.raises(SystemExit) as exc:
            run("--quiet", "sweep", "--train-csv", train, "--test-csv", test,
                "--deltas", "0.7", "--classes", "3,4", "--out", tmp_path / "s.csv")
        assert exc.value.code == 2
        assert "--classes: not allowed with argument --deltas" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_a_bug_inside_an_entry_shows_its_own_exception(self, monkeypatch, tmp_path):
        # as in train and eval: a fault that is no input error is not
        # turned into an exit code
        def broken(*args):
            raise ZeroDivisionError("inside one-vs-all")

        monkeypatch.setattr(cli.mt, "train_one_vs_all", broken)
        with pytest.raises(ZeroDivisionError, match="inside one-vs-all"):
            run("--quiet", "sweep", "--classes", "3", "--per-class", 10, "--dim", 2,
                "--max-depth", 2, "--out", tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()


def test_an_error_of_the_base_class_exits_2(monkeypatch, tmp_path, capsys):
    # exit 2 is the code of every package error, not only ValidationError's
    def fail(path):
        raise AtreeError("bare")

    monkeypatch.setattr(cli.tr, "load", fail)
    assert run("--quiet", "export-tree", "m.json", "--out", tmp_path / "x.dot") == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


class TestFileErrors:
    """A file that cannot be read or written exits 2 with one error line,
    and no traceback: missing, not UTF-8, or in a missing directory."""

    @pytest.mark.parametrize("argv", [
        ("train", "{missing}.csv", "--out", "{tmp}/m.json"),
        ("eval", "{missing}.json", "{test}", "--out-metrics", "{tmp}/o.csv"),
        ("eval", "{model}", "{missing}.csv", "--out-metrics", "{tmp}/o.csv"),
        ("export-tree", "{missing}.json", "--out", "{tmp}/x.dot"),
        ("synth", "blobs", "--out", "{missing}/x.csv"),
        ("eval", "{model}", "{undecodable}", "--out-metrics", "{tmp}/o.csv"),
        ("eval", "{undecodable}", "{test}", "--out-metrics", "{tmp}/o.csv"),
        ("sweep", "--train-csv", "{missing}.csv", "--test-csv", "{test}", "--deltas", "0.7",
         "--out", "{tmp}/s.csv"),
    ], ids=["train-missing-csv", "eval-missing-model", "eval-missing-csv",
            "export-tree-missing-model", "synth-missing-directory", "eval-undecodable-csv",
            "eval-undecodable-model", "sweep-missing-csv"])
    def test_exits_2_with_one_error_line(self, blob_csvs, tmp_path, capsys, argv):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 2) == 0
        undecodable = tmp_path / "undecodable"
        undecodable.write_bytes(b"\xff\xfe0,1.0\n")
        capsys.readouterr()
        paths = {"missing": tmp_path / "missing", "tmp": tmp_path, "test": test,
                 "model": model, "undecodable": undecodable}
        assert run("--quiet", *(a.format(**paths) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestNoOutputOnFailure:
    """A command that fails leaves none of its outputs behind: no file it
    would have written, no stand-in, and an earlier file at an output path
    unchanged."""

    @pytest.mark.parametrize("argv,outputs", [
        (("eval", "{model}", "{test}", "--out-metrics", "{tmp}/o.csv",
          "--out-traces", "{tmp}/nodir/t.csv"), ["o.csv"]),
        (("train", "{train}", "--out", "{tmp}/m.json", "--log", "{tmp}/nodir/log.txt"),
         ["m.json"]),
        (("eval", "{model}", "{undecodable}", "--out-metrics", "{tmp}/o.csv",
          "--out-traces", "{tmp}/t.csv"), ["o.csv", "t.csv"]),
        (("train", "{undecodable}", "--out", "{tmp}/m.json", "--log", "{tmp}/log.txt"),
         ["m.json", "log.txt"]),
        (("sweep", "--train-csv", "{train}", "--test-csv", "{undecodable}", "--deltas", "0.7",
          "--out", "{tmp}/s.csv"), ["s.csv"]),
        (("export-tree", "{undecodable}", "--out", "{tmp}/x.dot"), ["x.dot"]),
    ], ids=["eval-traces-in-missing-directory", "train-log-in-missing-directory",
            "eval-undecodable-csv", "train-undecodable-csv", "sweep-undecodable-csv",
            "export-tree-undecodable-model"])
    @pytest.mark.parametrize("earlier", [False, True], ids=["fresh", "over-earlier-file"])
    def test_exits_2_and_writes_nothing(self, blob_csvs, tmp_path, capsys, argv, outputs,
                                        earlier):
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 2) == 0
        undecodable = tmp_path / "undecodable"
        undecodable.write_bytes(b"\xff\xfe0,1.0\n")
        out = tmp_path / "out"
        out.mkdir()
        for name in outputs if earlier else ():
            (out / name).write_text("earlier\n")
        capsys.readouterr()
        paths = {"tmp": out, "train": train, "test": test, "model": model,
                 "undecodable": undecodable}
        assert run("--quiet", *(a.format(**paths) for a in argv)) == 2
        assert capsys.readouterr().err.startswith("error:")
        expected = {name: "earlier\n" for name in outputs} if earlier else {}
        assert {p.name: p.read_text() for p in out.iterdir()} == expected

    @pytest.mark.parametrize("argv", [
        ("train", "{train}", "--out", "{tmp}/same.json", "--log", "{tmp}/same.json"),
        ("eval", "{model}", "{test}", "--out-metrics", "{tmp}/same.csv",
         "--out-traces", "{tmp}/../out/./same.csv"),
    ], ids=["train", "eval"])
    def test_two_outputs_that_name_one_file_exit_2_before_any_work(
            self, blob_csvs, tmp_path, capsys, monkeypatch, argv):
        # the second output written would replace the first, so the command
        # fails before it reads an input
        train, test = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 2) == 0
        out = tmp_path / "out"
        out.mkdir()
        capsys.readouterr()

        def unread(*args):
            raise AssertionError("an input was read")

        monkeypatch.setattr(cli, "load_csv", unread)
        monkeypatch.setattr(cli.tr, "load", unread)
        paths = {"tmp": out, "train": train, "test": test, "model": model}
        assert run("--quiet", *(a.format(**paths) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: outputs name one file") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ("train", "{train}", "--out", "{train}"),
        ("train", "{train}", "--out", "{dir}/m.json", "--log", "{dir}/../data/train.csv"),
        ("train", "{train}", "--out", "{config}", "--config", "{config}"),
        ("eval", "{model}", "{test}", "--out-metrics", "{model}"),
        ("eval", "{model}", "{test}", "--out-metrics", "{dir}/m.csv", "--out-traces", "{test}"),
        ("eval", "{model}", "{test}", "--baseline", "ova", "--train-csv", "{train}",
         "--out-metrics", "{train}"),
        ("sweep", "--train-csv", "{train}", "--test-csv", "{test}", "--deltas", "0.7",
         "--out", "{test}"),
        ("export-tree", "{model}", "--out", "{model}"),
        ("synth", "blobs", "--config", "{config}", "--out", "{config}"),
    ], ids=["train-out", "train-log", "train-config", "eval-model", "eval-test",
            "eval-train", "sweep", "export-tree", "synth-config"])
    def test_output_that_names_an_input_exits_2_and_keeps_it(self, tmp_path, capsys, argv):
        # the output's stand-in would replace the input once the command succeeded
        data = tmp_path / "data"
        data.mkdir()
        paths = {"dir": tmp_path / "out", "train": data / "train.csv",
                 "test": data / "test.csv", "model": data / "model.json",
                 "config": data / "config.json"}
        paths["dir"].mkdir()
        for name in ("train", "test"):
            assert run("--quiet", "synth", "blobs", "--classes", 3, "--per-class", 10,
                       "--dim", 2, "--out", paths[name]) == 0
        assert run("--quiet", "train", paths["train"], "--out", paths["model"],
                   "--max-depth", 2) == 0
        paths["config"].write_text('{"max_depth": 2}')
        before = {p.name: _digest(p) for p in data.iterdir()}
        capsys.readouterr()
        assert run("--quiet", *(a.format(**paths) for a in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: output ") and "names an input" in err
        assert err.count("\n") == 1
        assert {p.name: _digest(p) for p in data.iterdir()} == before
        assert list(paths["dir"].iterdir()) == []

    def test_a_pipe_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        read = []
        reader = threading.Thread(target=lambda: read.append(pipe.read_text()), daemon=True)
        reader.start()
        assert run("--quiet", "synth", "blobs", "--classes", 2, "--per-class", 3,
                   "--dim", 2, "--out", pipe) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert read[0].count("\n") == 6
        assert stat.S_ISFIFO(pipe.stat().st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["pipe"]

    def test_outputs_appear_only_on_success(self, blob_csvs, tmp_path):
        train, test = blob_csvs
        assert run("--quiet", "train", train, "--out", tmp_path / "m.json",
                   "--log", tmp_path / "log.txt", "--max-depth", 2, "--no-timestamp") == 0
        assert run("--quiet", "eval", tmp_path / "m.json", test,
                   "--out-metrics", tmp_path / "o.csv", "--out-traces", tmp_path / "t.csv") == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["log.txt", "m.json", "o.csv", "t.csv", "test.csv", "train.csv"]


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

    @pytest.mark.parametrize("version", [3, 4, 5, 6, 7])
    def test_schema3_model_exits_2(self, blob_csvs, tmp_path, capsys, version):
        train, _ = blob_csvs
        model = tmp_path / "model.json"
        assert run("--quiet", "train", train, "--out", model, "--max-depth", 3) == 0
        doc = json.loads(model.read_text())
        doc["version"] = version
        model.write_text(json.dumps(doc))
        assert run("--quiet", "export-tree", model, "--out", tmp_path / "o.dot") == 2
        err = capsys.readouterr().err
        assert f"version {version}" in err and "retrain" in err
