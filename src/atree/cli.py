"""Command-line surface: synth, train, eval, sweep, export-tree.

Every command is deterministic given its inputs, flags, and --seed; logs can
carry a timestamp line, suppressible with --no-timestamp. Exit codes: 0 on
success, 2 on every error of this package (invalid input or configuration)
and on files that cannot be read or written (missing, undecodable, or in a
missing directory). Any other exception is a bug and shows its traceback.
A command that fails leaves none of its output files behind.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import sys
from dataclasses import dataclass, fields, replace

from . import metrics as mt
from . import tree as tr
from .boosting import BoostConfig, error_bound
from .dataset import (generate_gaussian_blobs, generate_two_cluster_2d,
                      load_csv, split_train_test, write_csv)
from .errors import AtreeError, ValidationError, check_field_types
from .svm import KERNEL_KINDS, KernelSpec, SvmConfig

METRIC_COLUMNS = ("method", "delta", "num_classes", "kernel", "accuracy",
                  "mean_evals", "mean_kernel_computations", "relative_complexity")
TRACE_COLUMNS = ("instance", "true", "predicted", "evaluations", "kernel_computations",
                 "node_ids")


@dataclass
class RunConfig:
    """Flat view of every training knob; round-trips through a JSON file.
    Defaults are those of the config classes it builds."""

    delta: float = tr.AtreeConfig.delta
    max_depth: int | None = tr.AtreeConfig.max_depth
    kernel: str = "linear"
    kernel_gamma: float | None = KernelSpec.gamma
    c: float = SvmConfig.c
    tolerance: float = SvmConfig.tolerance
    max_passes: int = SvmConfig.max_passes
    max_rounds: int = BoostConfig.max_rounds
    boost_gamma: float = BoostConfig.gamma
    min_node_samples: int = tr.AtreeConfig.min_node_samples
    seed: int = SvmConfig.seed

    def __post_init__(self):
        check_field_types(self)

    def to_svm_config(self):
        return SvmConfig(c=self.c, tolerance=self.tolerance,
                         max_passes=self.max_passes, seed=self.seed)

    def to_atree_config(self):
        return tr.AtreeConfig(
            delta=self.delta,
            max_depth=self.max_depth,
            boost=BoostConfig(max_rounds=self.max_rounds, gamma=self.boost_gamma),
            svm=self.to_svm_config(),
            kernel=KernelSpec(self.kernel, self.kernel_gamma),
            min_node_samples=self.min_node_samples,
        )


def _resolve_run_config(args):
    """Layered merge: explicit flags > --config file > defaults."""
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        unknown = set(loaded) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return RunConfig(**values)


def _parse_list(text, flag, kind):
    """A comma-separated list of kind (int or float) values."""
    try:
        items = [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValidationError(f"{flag} expects a comma-separated list of "
                              f"{kind.__name__} values") from None
    if not items:
        raise ValidationError(f"{flag} must not be empty")
    return items


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path, columns, rows):
    """Write a header of columns, then one line per row of formatted cells."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(cells) + "\n" for cells in rows)


def _write_metrics(path, rows):
    _write_rows(path, METRIC_COLUMNS,
                ([_fmt(row[c]) for c in METRIC_COLUMNS] for row in rows))


@contextlib.contextmanager
def _outputs(*paths, inputs=()):
    """Stand-ins for a command's output paths (None for an output it does
    not write): an empty temporary file beside each, made before any work,
    so an output that cannot be written fails the command before it starts.
    The command writes each stand-in; once it has succeeded every stand-in
    replaces its path, and if it fails they are all removed. A path that
    exists but is no regular file, such as /dev/stdout or a pipe, is its
    own stand-in and is written in place. Two paths that resolve to one
    file would keep only the last written, and a path that resolves to one
    of the command's ``inputs`` (None for an input it does not read) would
    replace it, so both are errors."""
    temps = [path if path is None or os.path.exists(path) and not os.path.isfile(path)
             else f"{path}.{os.getpid()}-{k}.tmp" for k, path in enumerate(paths)]
    files = [os.path.realpath(path) for temp, path in zip(temps, paths) if temp != path]
    if len(set(files)) < len(files):
        raise ValidationError(f"outputs name one file: {' and '.join(filter(None, paths))}")
    read = {os.path.realpath(path) for path in inputs if path is not None}
    for temp, path in zip(temps, paths):
        if temp != path and os.path.realpath(path) in read:
            raise ValidationError(f"output {path} names an input file")
    made = []
    try:
        for temp, path in zip(temps, paths):
            if temp != path:
                try:
                    open(temp, "w").close()
                except OSError as exc:
                    raise type(exc)(exc.errno, exc.strerror, path) from None
                made.append((temp, path))
        yield temps
        for temp, path in made:
            os.replace(temp, path)
    except BaseException:
        for temp, _ in made:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise


def _say(args, message):
    if not getattr(args, "quiet", False):
        print(message)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    seed = _resolve_run_config(args).seed
    with _outputs(args.out, inputs=(args.config,)) as (out,):
        if args.kind == "two-cluster-2d":
            data = generate_two_cluster_2d(args.count, seed)
        else:
            data = generate_gaussian_blobs(args.classes, args.per_class, args.dim,
                                           args.spread, seed)
        write_csv(data, out)
    _say(args, f"wrote {args.out}: samples={len(data)} classes={data.num_classes} "
               f"dimension={data.dimension}")
    return 0


# ---------------------------------------------------------------------------
# train


def _training_log_lines(tree, include_timestamp):
    """The log of a freshly trained tree, which still holds its phase-one
    learners and solver records; a loaded tree holds neither."""
    lines = []
    if include_timestamp:
        lines.append(f"# generated {datetime.datetime.now().isoformat()}")
    cfg = tree.config
    lines.append(f"config: delta={_fmt(cfg.delta)} max_depth={cfg.max_depth} "
                 f"kernel={cfg.kernel.kind} min_node_samples={cfg.min_node_samples}")
    for node in tree.nodes:
        if isinstance(node, tr.LeafNode):
            lines.append(f"node {node.node_id} depth={tree.levels[node.node_id]} leaf "
                         f"label={tree.label_names[node.label]} "
                         f"purity={node.purity:.6f} samples={node.n_training}")
            continue
        boost = node.boost
        eps = "[" + ",".join(f"{e:.6f}" for e in boost.round_errors) + "]"
        bound = (f"{error_bound(boost):.6f}" if boost.round_errors else "n/a")
        svm = "linear" if cfg.kernel.is_linear else f"kernel svs={node.svm.n_support}"
        svm_desc = f"svm={svm} cost={tr.node_cost(node):.6f}"
        lines.append(
            f"node {node.node_id} depth={tree.levels[node.node_id]} internal "
            f"samples={node.n_training} "
            f"split=f{node.split.feature_index}<{node.split.threshold:.6g} "
            f"objective={node.split.objective:.6f} "
            f"Zpos={node.pos_classes} Zneg={node.neg_classes} "
            f"binary_dist=({node.binary_distribution[0]:.6f},"
            f"{node.binary_distribution[1]:.6f}) "
            f"eps={eps} bound={bound} exited_early={boost.exited_early} {svm_desc}")
    lines.append(f"tree: nodes={len(tree.nodes)} depth={tree.depth}")
    records = [entry.node.svm.convergence for entry in tree.table]
    lines.append(f"svm: converged={sum(r.converged for r in records)}/{len(records)}")
    return lines


def cmd_train(args):
    run_config = _resolve_run_config(args)
    config = run_config.to_atree_config()
    with _outputs(args.out, args.log, inputs=(args.train_csv, args.config)) as (out, log):
        data = load_csv(args.train_csv, args.has_header)
        tree = tr.train_atree(data, config)
        tr.save(tree, out)
        if log:
            log_lines = _training_log_lines(tree, include_timestamp=not args.no_timestamp)
            with open(log, "w", encoding="utf-8") as fh:
                fh.write("\n".join(log_lines) + "\n")
    _say(args, f"trained tree: nodes={len(tree.nodes)} depth={tree.depth} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _metrics_row(run, tree_delta, kernel_kind, reference, label_names):
    acc = mt.mean_per_class_accuracy(run.predictions, run.truths, run.num_classes,
                                     label_names)
    row = {"method": run.method, "delta": tree_delta, "kernel": kernel_kind,
           "num_classes": run.num_classes, "accuracy": acc,
           "mean_evals": float(run.classifier_evaluations.mean()),
           "mean_kernel_computations": (
               float(run.kernel_computations.mean())
               if run.kernel_computations is not None else None),
           "relative_complexity": None}
    if reference is not None:
        row["relative_complexity"] = mt.complexity_report(run, reference).relative_complexity
    return row


def cmd_eval(args):
    svm_config = _resolve_run_config(args).to_svm_config()
    inputs = (args.model, args.test_csv, args.train_csv, args.config)
    with _outputs(args.out_metrics, args.out_traces, inputs=inputs) as (metrics_out, traces_out):
        tree = tr.load(args.model)
        # both files' labels are the model's classes
        test = load_csv(args.test_csv, args.has_header, tree.label_names)
        if test.dimension != tree.dimension:
            raise ValidationError(f"model expects dimension {tree.dimension}, "
                                  f"test data has {test.dimension}")
        atree_run = mt.evaluate_atree(tree, test)
        kernel_kind = tree.config.kernel.kind
        rows = []
        reference = None
        baseline_runs = []
        if args.baseline != "none":
            if not args.train_csv:
                raise ValidationError("--baseline requires --train-csv to train the reference")
            train = load_csv(args.train_csv, args.has_header, tree.label_names)
            if train.dimension != tree.dimension:
                raise ValidationError(f"model expects dimension {tree.dimension}, "
                                      f"--train-csv has {train.dimension}")
            ova = mt.train_one_vs_all(train, tree.config.kernel, svm_config)
            reference = mt.evaluate_one_vs_all(ova, test)
            baseline_runs.append(reference)
            if args.baseline == "ovo":
                ovo = mt.train_one_vs_one(train, tree.config.kernel, svm_config)
                baseline_runs.append(mt.evaluate_one_vs_one(ovo, test))
        rows.append(_metrics_row(atree_run, tree.config.delta, kernel_kind, reference,
                                 tree.label_names))
        for run in baseline_runs:
            rows.append(_metrics_row(run, None, kernel_kind, reference, tree.label_names))
        _write_metrics(metrics_out, rows)
        if traces_out:
            # a row is the instance, its true label and its leaf's part, made
            # once per leaf: the leaf's label, path length, kernel
            # computations and node ids
            names = [str(name) for name in tree.label_names]
            kernel = ([""] * len(tree.leaves) if tree.leaf_kernel_computations is None
                      else tree.leaf_kernel_computations[:, 0].tolist())
            leaf_parts = [f"{names[leaf.label]},{len(path)},{computations},"
                          + ";".join(str(node.node_id) for node in path)
                          for leaf, path, computations in zip(tree.leaves, tree.paths, kernel)]
            _write_rows(traces_out, TRACE_COLUMNS, zip(
                map(str, range(len(test))),
                [names[k] for k in test.labels.tolist()],
                map(leaf_parts.__getitem__, atree_run.leaves.tolist())))
    _say(args, f"evaluated {len(test)} instances -> {args.out_metrics}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _tradeoff_rows(run_configs, train, test):
    """Sweep rows on one split, a tree per run config, all against one
    one-vs-all reference: the configs differ in delta only, on which the
    reference does not depend."""
    config = run_configs[0].to_atree_config()
    reference = mt.evaluate_one_vs_all(mt.train_one_vs_all(train, config.kernel, config.svm), test)
    rows = []
    for run_config in run_configs:
        tree = tr.train_atree(train, run_config.to_atree_config())
        rows.append(_metrics_row(mt.evaluate_atree(tree, test), run_config.delta,
                                 run_config.kernel, reference, train.label_names))
    return rows


def cmd_sweep(args):
    run_config = _resolve_run_config(args)
    with _outputs(args.out, inputs=(args.train_csv, args.test_csv, args.config)) as (out,):
        rows = _sweep_rows(args, run_config)
        _write_metrics(out, rows)
    _say(args, f"swept {len(rows)} configurations -> {args.out}")
    return 0


def _sweep_rows(args, run_config):
    if args.deltas is not None:
        if not (args.train_csv and args.test_csv):
            raise ValidationError("a delta sweep needs --train-csv and --test-csv")
        deltas = _parse_list(args.deltas, "--deltas", float)
        train = load_csv(args.train_csv, args.has_header)
        test = load_csv(args.test_csv, args.has_header, train.label_names)
        return _tradeoff_rows([replace(run_config, delta=delta) for delta in deltas], train, test)
    if args.classes is not None:
        rows = []
        for n in _parse_list(args.classes, "--classes", int):
            data = generate_gaussian_blobs(n, args.per_class, args.dim, args.spread,
                                           run_config.seed)
            rows += _tradeoff_rows([run_config], *split_train_test(
                data, args.train_fraction, run_config.seed, stratified=True))
        return rows
    raise ValidationError("sweep needs --deltas or --classes")


# ---------------------------------------------------------------------------
# export-tree


def cmd_export_tree(args):
    with _outputs(args.out, inputs=(args.model,)) as (out,):
        tree = tr.load(args.model)
        text = tr.to_dot(tree, max_depth=args.max_depth)
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    _say(args, f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_run_config_flags(p):
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=None)
    p.add_argument("--kernel", choices=KERNEL_KINDS, default=None)
    p.add_argument("--kernel-gamma", dest="kernel_gamma", type=float, default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--max-passes", dest="max_passes", type=int, default=None)
    p.add_argument("--max-rounds", dest="max_rounds", type=int, default=None)
    p.add_argument("--boost-gamma", dest="boost_gamma", type=float, default=None)
    p.add_argument("--min-node-samples", dest="min_node_samples", type=int, default=None)


def _add_global_flags(p, suppress):
    # Global flags are accepted before or after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber values parsed
    # ahead of the command word.
    d = argparse.SUPPRESS if suppress else None
    b = argparse.SUPPRESS if suppress else False
    p.add_argument("--seed", type=int, default=d)
    p.add_argument("--config", default=d)
    p.add_argument("--quiet", action="store_true", default=b)
    p.add_argument("--no-timestamp", dest="no_timestamp", action="store_true", default=b)


def build_parser():
    parser = argparse.ArgumentParser(prog="atree", allow_abbrev=False)
    _add_global_flags(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic dataset as CSV")
    p.add_argument("kind", choices=("two-cluster-2d", "blobs"))
    p.add_argument("--count", type=int, default=3000)
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", dest="per_class", type=int, default=100)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--out", required=True)
    _add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train a tree from a CSV")
    p.add_argument("train_csv")
    p.add_argument("--has-header", dest="has_header", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--log", default=None)
    _add_run_config_flags(p)
    _add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on a test CSV")
    p.add_argument("model")
    p.add_argument("test_csv")
    p.add_argument("--has-header", dest="has_header", action="store_true")
    p.add_argument("--baseline", choices=("ova", "ovo", "none"), default="none")
    p.add_argument("--train-csv", dest="train_csv", default=None)
    p.add_argument("--out-metrics", dest="out_metrics", required=True)
    p.add_argument("--out-traces", dest="out_traces", default=None)
    p.add_argument("--c", type=float, default=None)
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--max-passes", dest="max_passes", type=int, default=None)
    _add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy/complexity tradeoff sweeps")
    p.add_argument("--train-csv", dest="train_csv", default=None)
    p.add_argument("--test-csv", dest="test_csv", default=None)
    p.add_argument("--has-header", dest="has_header", action="store_true")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--deltas", default=None)
    mode.add_argument("--classes", default=None)
    p.add_argument("--per-class", dest="per_class", type=int, default=50)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--train-fraction", dest="train_fraction", type=float, default=0.5)
    p.add_argument("--out", required=True)
    _add_run_config_flags(p)
    _add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("export-tree", help="write a Graphviz DOT rendering")
    p.add_argument("model")
    p.add_argument("--out", required=True)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=None)
    _add_global_flags(p, suppress=True)
    p.set_defaults(fn=cmd_export_tree)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (AtreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
