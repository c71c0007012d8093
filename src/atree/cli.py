"""Command-line surface: synth, train, eval, sweep, export-tree.

Every command is deterministic given its inputs, flags, and --seed; logs can
carry a timestamp line, suppressible with --no-timestamp. Exit codes: 0 on
success, 2 on validation errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import datetime
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields

from . import metrics as mt
from . import tree as tr
from .boosting import BoostConfig, error_bound
from .dataset import (generate_gaussian_blobs, generate_two_cluster_2d,
                      load_csv, split_train_test, write_csv)
from .errors import AtreeError, ValidationError
from .svm import KERNEL_KINDS, KernelSpec, SvmConfig

METRIC_COLUMNS = ("method", "delta", "num_classes", "kernel", "accuracy",
                  "mean_evals", "mean_kernel_computations", "relative_complexity")


@dataclass
class RunConfig:
    """Flat view of every training knob; round-trips through a JSON file."""

    delta: float = 0.7
    max_depth: int | None = None
    kernel: str = "linear"
    kernel_gamma: float | None = None
    c: float = 1.0
    tolerance: float = 1e-3
    max_passes: int = SvmConfig.max_passes
    max_rounds: int = 50
    boost_gamma: float = 0.48
    min_node_samples: int = 5
    sv_budget: list | None = None
    seed: int = 0

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
            sv_budget_search=self.sv_budget,
        )


def _resolve_run_config(args):
    """Layered merge: explicit flags > --config file > defaults."""
    values = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                loaded = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read config file {args.config}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValidationError(f"config file {args.config} must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(loaded) - known
        if unknown:
            raise ValidationError(f"unknown config keys: {sorted(unknown)}")
        values.update(loaded)
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    return RunConfig(**values)


def _parse_float_list(text, flag):
    try:
        items = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise ValidationError(f"{flag} expects a comma-separated list of numbers") from None
    if not items:
        raise ValidationError(f"{flag} must not be empty")
    return items


def _parse_int_list(text, flag):
    return [int(v) for v in _parse_float_list(text, flag)]


def _fmt(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_rows(path, columns, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(c)) for c in columns) + "\n")


def _say(args, message):
    if not getattr(args, "quiet", False):
        print(message)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    if args.kind == "two-cluster-2d":
        data = generate_two_cluster_2d(args.count, args.seed)
    else:
        data = generate_gaussian_blobs(args.classes, args.per_class, args.dim,
                                       args.spread, args.seed)
    write_csv(data, args.out)
    _say(args, f"wrote {args.out}: samples={len(data)} classes={data.num_classes} "
               f"dimension={data.dimension}")
    return 0


# ---------------------------------------------------------------------------
# train


def _training_log_lines(tree, include_timestamp):
    lines = []
    if include_timestamp:
        lines.append(f"# generated {datetime.datetime.now().isoformat()}")
    cfg = tree.config
    lines.append(f"config: delta={_fmt(cfg.delta)} max_depth={cfg.max_depth} "
                 f"kernel={cfg.kernel.kind} min_node_samples={cfg.min_node_samples}")
    levels = tr.path_levels(tree.root)
    for node in sorted(tr.iter_nodes(tree.root), key=lambda n: n.node_id):
        if isinstance(node, tr.LeafNode):
            lines.append(f"node {node.node_id} depth={levels[node.node_id]} leaf "
                         f"label={tree.label_names[node.label]} "
                         f"purity={node.purity:.6f} samples={node.n_training}")
            continue
        boost = node.boost
        eps = "[" + ",".join(f"{e:.6f}" for e in boost.round_errors) + "]"
        bound = (f"{error_bound(boost):.6f}" if boost.round_errors else "n/a")
        if cfg.kernel.is_linear:
            svm_desc = f"svm=linear cost={tr.node_cost(node):.6f}"
        else:
            svm_desc = (f"svm=kernel svs={node.svm.n_support} "
                        f"cost={tr.node_cost(node):.6f}")
        lines.append(
            f"node {node.node_id} depth={levels[node.node_id]} internal "
            f"samples={node.n_training} "
            f"split=f{node.split.feature_index}<{node.split.threshold:.6g} "
            f"objective={node.split.objective:.6f} "
            f"Zpos={node.pos_classes} Zneg={node.neg_classes} "
            f"binary_dist=({node.binary_distribution[0]:.6f},"
            f"{node.binary_distribution[1]:.6f}) "
            f"eps={eps} bound={bound} exited_early={boost.exited_early} {svm_desc}")
    lines.append(f"tree: nodes={len(levels)} depth={tree.depth}")
    # a model read back from a file carries no solver record
    solves = [n.svm.convergence for n in tr.iter_nodes(tree.root)
              if isinstance(n, tr.InternalNode)]
    records = [r for r in solves if r is not None]
    line = f"svm: converged={sum(r.converged for r in records)}/{len(records)}"
    if len(records) < len(solves):
        line += f" ({len(solves) - len(records)} without record)"
    lines.append(line)
    return lines


def cmd_train(args):
    run_config = _resolve_run_config(args)
    config = run_config.to_atree_config()
    data = load_csv(args.train_csv, args.has_header)
    tree = tr.train_atree(data, config)
    tr.save(tree, args.out)
    log_lines = _training_log_lines(tree, include_timestamp=not args.no_timestamp)
    if args.log:
        with open(args.log, "w", encoding="utf-8") as fh:
            fh.write("\n".join(log_lines) + "\n")
    n_nodes = sum(1 for _ in tr.iter_nodes(tree.root))
    _say(args, f"trained tree: nodes={n_nodes} depth={tree.depth} -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def _metrics_row(run, tree_delta, kernel_kind, reference):
    acc = mt.mean_per_class_accuracy(run.predictions, run.truths, run.num_classes)
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
    tree = tr.load(args.model)
    test = load_csv(args.test_csv, args.has_header)
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
        train = load_csv(args.train_csv, args.has_header)
        ova = mt.train_one_vs_all(train, tree.config.kernel, svm_config)
        reference = mt.evaluate_one_vs_all(ova, test)
        baseline_runs.append(reference)
        if args.baseline == "ovo":
            ovo = mt.train_one_vs_one(train, tree.config.kernel, svm_config)
            baseline_runs.append(mt.evaluate_one_vs_one(ovo, test))
    rows.append(_metrics_row(atree_run, tree.config.delta, kernel_kind, reference))
    for run in baseline_runs:
        rows.append(_metrics_row(run, None, kernel_kind, reference))
    _write_rows(args.out_metrics, METRIC_COLUMNS, rows)
    if args.out_traces:
        node_ids = [None] * len(test)
        for group in atree_run.paths:
            joined = ";".join(str(node.node_id) for node in group.nodes)
            for row in group.rows.tolist():
                node_ids[row] = joined
        trace_rows = []
        nonlinear = atree_run.kernel_computations is not None
        for i, ids in enumerate(node_ids):
            trace_rows.append({
                "instance": i,
                "true": test.label_names[test.labels[i]],
                "predicted": tree.label_names[atree_run.predictions[i]],
                "evaluations": int(atree_run.classifier_evaluations[i]),
                "kernel_computations": (int(atree_run.kernel_computations[i])
                                        if nonlinear else None),
                "node_ids": ids,
            })
        _write_rows(args.out_traces,
                    ("instance", "true", "predicted", "evaluations",
                     "kernel_computations", "node_ids"), trace_rows)
    _say(args, f"evaluated {len(test)} instances -> {args.out_metrics}")
    return 0


# ---------------------------------------------------------------------------
# sweep


def _tradeoff_entry(payload):
    """One sweep entry: train a tree and a one-vs-all reference, return a row."""
    run_config = RunConfig(**payload["run_config"])
    if payload["mode"] == "delta":
        train = load_csv(payload["train_csv"], payload["has_header"])
        test = load_csv(payload["test_csv"], payload["has_header"])
    else:
        data = generate_gaussian_blobs(payload["num_classes"], payload["per_class"],
                                       payload["dim"], payload["spread"],
                                       run_config.seed)
        train, test = split_train_test(data, payload["train_fraction"],
                                       run_config.seed, stratified=True)
    config = run_config.to_atree_config()
    tree = tr.train_atree(train, config)
    atree_run = mt.evaluate_atree(tree, test)
    ova = mt.train_one_vs_all(train, config.kernel, config.svm)
    reference = mt.evaluate_one_vs_all(ova, test)
    row = _metrics_row(atree_run, run_config.delta, run_config.kernel, reference)
    row["num_classes"] = train.num_classes
    return row


def cmd_sweep(args):
    run_config = _resolve_run_config(args)
    base = asdict(run_config)
    payloads = []
    if args.deltas:
        if not (args.train_csv and args.test_csv):
            raise ValidationError("a delta sweep needs --train-csv and --test-csv")
        for delta in _parse_float_list(args.deltas, "--deltas"):
            entry = dict(base)
            entry["delta"] = delta
            payloads.append({"mode": "delta", "run_config": entry,
                             "train_csv": args.train_csv, "test_csv": args.test_csv,
                             "has_header": args.has_header})
    elif args.classes:
        for n in _parse_int_list(args.classes, "--classes"):
            payloads.append({"mode": "classes", "run_config": dict(base),
                             "num_classes": n, "per_class": args.per_class,
                             "dim": args.dim, "spread": args.spread,
                             "train_fraction": args.train_fraction})
    else:
        raise ValidationError("sweep needs --deltas or --classes")
    jobs = args.jobs or 1
    try:
        if jobs > 1:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                rows = list(pool.map(_tradeoff_entry, payloads))
        else:
            rows = [_tradeoff_entry(p) for p in payloads]
    except AtreeError:
        raise
    except Exception as exc:
        raise AtreeError(f"sweep entry failed: {exc}") from exc
    _write_rows(args.out, METRIC_COLUMNS, rows)
    _say(args, f"swept {len(rows)} configurations -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# export-tree


def cmd_export_tree(args):
    tree = tr.load(args.model)
    text = tr.to_dot(tree, max_depth=args.max_depth)
    with open(args.out, "w", encoding="utf-8") as fh:
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
    p.add_argument("--sv-budget", dest="sv_budget", type=lambda s: _parse_int_list(s, "--sv-budget"),
                   default=None)


def _add_global_flags(p, suppress):
    # Global flags are accepted before or after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber values parsed
    # ahead of the command word.
    d = argparse.SUPPRESS if suppress else None
    b = argparse.SUPPRESS if suppress else False
    p.add_argument("--seed", type=int, default=d)
    p.add_argument("--jobs", type=int, default=d)
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
    p.add_argument("--deltas", default=None)
    p.add_argument("--classes", default=None)
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
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AtreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
