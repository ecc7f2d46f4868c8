"""Command-line pipeline: benchmark splits, training, evaluation, rule
verification, and score ensembling.

All commands share one flat key=value config file; every key has a default
and unknown keys are rejected.  Logs go to standard error, data to files.
Exit codes: 0 success, 1 runtime failure, 2 bad configuration or input.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from .benchgen import SamplerConfig, sample_inductive_pair, write_benchmark
from .evaluate import (
    align_score_tables,
    auc_pr,
    ensemble_gain,
    evaluate,
    late_fusion,
    parse_labels_file,
    parse_score_file,
    write_labels_file,
    write_report,
    write_scores_file,
    write_triplet_csv,
)
from .kg import KnowledgeGraph, atomic_open, load_triples
from .logic import verify_theorem1
from .model import GnnConfig
from .subgraph import feature_dim, parse_aux_features
from .train import (
    ResumeError,
    TrainConfig,
    load_checkpoint,
    parse_setting,
    save_checkpoint,
    scorer_from_checkpoint,
    setting_text,
    train,
    write_loss_log,
)

CONFIG_DEFAULTS: dict[str, object] = {
    # model and training (seed is shared); input_dim follows from hops and the aux features
    **{f.name: f.default for f in fields(GnnConfig) if f.name != "input_dim"},
    **{f.name: f.default for f in fields(TrainConfig)},
    # evaluation
    "eval_negatives": 50,
    # benchmark sampling
    "train_num_roots": 20,
    "train_hops": 3,
    "train_max_new_per_hop": 50,
    "train_target_edges": 5000,
    "test_num_roots": 10,
    "test_hops": 3,
    "test_max_new_per_hop": 50,
    "test_target_edges": 1000,
    "valid_fraction": 0.10,
    "test_fraction": 0.10,
}


class ConfigError(Exception):
    pass


def load_run_config(path: str | None) -> dict[str, object]:
    cfg = dict(CONFIG_DEFAULTS)
    if path is None:
        return cfg
    text = _read_file(path)
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped == "" or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        if key not in CONFIG_DEFAULTS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            cfg[key] = parse_setting(key, CONFIG_DEFAULTS[key], raw)
        except ValueError as e:
            raise ConfigError(f"{path}:{lineno}: {e}") from None
    return cfg


def _read_file(path: str) -> str:
    if not os.path.isfile(path):
        raise ConfigError(f"no such file: {path}")
    with open(path, encoding="utf-8") as f:
        return f.read()


def _load_graph(path: str) -> KnowledgeGraph:
    text = _read_file(path)
    try:
        return load_triples(text)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _parse_edges_against(path: str, g: KnowledgeGraph, what: str) -> list[tuple[int, int, int]]:
    """Read a triple file and resolve names in an existing graph's vocabulary."""
    edges = []
    for lineno, line in enumerate(_read_file(path).split("\n"), start=1):
        line = line.removesuffix("\r")
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 tab-separated fields")
        h, r, t = parts
        if h not in g.entity_ids or t not in g.entity_ids:
            raise ConfigError(f"{path}:{lineno}: {what} entity not in the graph vocabulary")
        if r not in g.relation_ids:
            raise ConfigError(f"{path}:{lineno}: {what} relation not in the graph vocabulary")
        edges.append((g.entity_ids[h], g.relation_ids[r], g.entity_ids[t]))
    if not edges:
        raise ConfigError(f"{path}: no {what} triples found")
    return edges


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _seed(args, cfg: dict[str, object]) -> int:
    return args.seed if args.seed is not None else int(cfg["seed"])


def cmd_split(args) -> int:
    cfg = load_run_config(args.config)
    seed = _seed(args, cfg)
    g = _load_graph(args.input)
    cfg_train = SamplerConfig(
        num_roots=int(cfg["train_num_roots"]),
        hops=int(cfg["train_hops"]),
        max_new_per_hop=int(cfg["train_max_new_per_hop"]),
        target_edges=int(cfg["train_target_edges"]),
        seed=seed,
    )
    cfg_test = SamplerConfig(
        num_roots=int(cfg["test_num_roots"]),
        hops=int(cfg["test_hops"]),
        max_new_per_hop=int(cfg["test_max_new_per_hop"]),
        target_edges=int(cfg["test_target_edges"]),
        seed=seed + 1,
    )
    g_train, g_ind = sample_inductive_pair(g, cfg_train, cfg_test)
    stats = write_benchmark(
        args.out_dir,
        g_train,
        g_ind,
        seed=seed,
        valid_fraction=float(cfg["valid_fraction"]),
        test_fraction=float(cfg["test_fraction"]),
    )
    for name, row in stats.items():
        _log(f"{name}: relations={row['relations']} nodes={row['nodes']} links={row['links']}")
    return 0


def _dataclass_config(cls, cfg: dict[str, object], **fixed):
    """Build a config dataclass from the run config's keys, with some fields fixed."""
    return cls(**{f.name: cfg[f.name] for f in fields(cls) if f.name not in fixed}, **fixed)


def cmd_train(args) -> int:
    cfg = load_run_config(args.config)
    seed = _seed(args, cfg)
    g_train = _load_graph(args.train)
    valid = _parse_edges_against(args.valid, g_train, "validation")
    aux = None
    aux_dim = 0
    if args.aux_features is not None:
        try:
            aux = parse_aux_features(_read_file(args.aux_features))
        except ValueError as e:
            raise ConfigError(f"{args.aux_features}: {e}") from e
        aux_dim = next(iter(aux.values())).shape[0]
    try:
        tcfg = _dataclass_config(TrainConfig, cfg, seed=seed)
        gcfg = _dataclass_config(GnnConfig, cfg, input_dim=feature_dim(tcfg.hops, aux_dim))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    start = None
    if args.from_checkpoint is not None:
        if not os.path.isfile(args.from_checkpoint):
            raise ConfigError(f"no such file: {args.from_checkpoint}")
        start = load_checkpoint(args.from_checkpoint)
    try:
        best, final, history = train(
            g_train, valid, tcfg, gcfg, aux_features=aux, start=start, log_fn=_log
        )
    except ResumeError as e:  # raised before any epoch runs
        raise ConfigError(f"{args.from_checkpoint}: {e}") from e
    save_checkpoint(best, args.out)
    save_checkpoint(final, args.out + ".final")
    loss_log = args.loss_log if args.loss_log is not None else args.out + ".loss.csv"
    write_loss_log(history, loss_log)
    _log(f"best: epoch={best.epoch} val_auc_pr={best.val_metric:.4f} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config)
    if int(cfg["eval_negatives"]) < 1:
        raise ConfigError(f"eval_negatives must be >= 1, got {cfg['eval_negatives']}")
    seed = _seed(args, cfg)
    if not os.path.isfile(args.checkpoint):
        raise ConfigError(f"no such file: {args.checkpoint}")
    ck = load_checkpoint(args.checkpoint)
    aux = None
    if args.aux_features is not None:
        try:
            aux = parse_aux_features(_read_file(args.aux_features))
        except ValueError as e:
            raise ConfigError(f"{args.aux_features}: {e}") from e
    try:
        scorer = scorer_from_checkpoint(ck, aux_features=aux)
    except ValueError as e:
        raise ConfigError(f"{args.checkpoint}: {e}") from e
    g_ind = _load_graph(args.graph)
    test_edges = _parse_edges_against(args.test, g_ind, "test")
    report = evaluate(
        scorer,
        g_ind,
        test_edges,
        num_negatives=int(cfg["eval_negatives"]),
        seed=seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    write_report(report, os.path.join(args.out_dir, "report.txt"))
    write_triplet_csv(report, os.path.join(args.out_dir, "ranks.csv"))
    write_scores_file(report, os.path.join(args.out_dir, "scores.tsv"))
    write_labels_file(report, os.path.join(args.out_dir, "labels.tsv"))
    _log(f"auc_pr={report.auc_pr:.4f} hits_at_10={report.hits_at_10:.4f} n={report.num_test}")
    return 0


def cmd_verify(args) -> int:
    report = verify_theorem1(
        args.trials, args.max_rule_len, np.random.default_rng(args.seed)
    )
    with atomic_open(args.out) as f:
        f.write(report.to_text())
    _log(
        f"trials={report.trials} agreements={report.agreements} "
        f"walk_count_max_rel_err={report.walk_count_max_err:.3g} ok={report.ok}"
    )
    return 0 if report.ok else 1


def cmd_ensemble(args) -> int:
    if len(args.scores) < 2:
        raise ConfigError("ensembling needs at least two --scores files")
    if args.test_scores is not None and len(args.test_scores) != len(args.scores):
        raise ConfigError("--test-scores must list one file per --scores file")
    try:
        tables = [parse_score_file(_read_file(p)) for p in args.scores]
        keys = align_score_tables(tables)
        labels_table = parse_labels_file(_read_file(args.valid_labels))
    except ValueError as e:
        raise ConfigError(str(e)) from e
    missing = [k for k in keys if k not in labels_table]
    if missing:
        raise ConfigError(f"{args.valid_labels}: no label for {missing[0]}")
    test_keys: list[tuple[str, str, str]] = []
    x_test = np.zeros((0, len(tables)))
    if args.test_scores is not None:
        try:
            test_tables = [parse_score_file(_read_file(p)) for p in args.test_scores]
            test_keys = align_score_tables(test_tables)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        x_test = np.array([[tab[k] for tab in test_tables] for k in test_keys])
    x_valid = np.array([[tab[k] for tab in tables] for k in keys])
    y = np.array([labels_table[k] for k in keys], dtype=np.float64)
    # one fit fuses both tables, so validation and test share one formula
    fused, _, losses = late_fusion(x_valid, y, np.concatenate([x_valid, x_test]))
    fused_valid, fused_test = fused[: len(keys)], fused[len(keys) :]
    os.makedirs(args.out_dir, exist_ok=True)

    def write_scores(path: str, names, values) -> None:
        with atomic_open(path) as f:
            for (h, r, t), s in zip(names, values):
                f.write(f"{h}\t{r}\t{t}\t{float(s)!r}\n")

    write_scores(os.path.join(args.out_dir, "fused_valid.tsv"), keys, fused_valid)
    if args.test_scores is not None:
        write_scores(os.path.join(args.out_dir, "fused_test.tsv"), test_keys, fused_test)
    aucs = [auc_pr(x_valid[y == 1.0, i], x_valid[y == 0.0, i]) for i in range(len(tables))]
    fused_auc = auc_pr(fused_valid[y == 1.0], fused_valid[y == 0.0])
    # the best of the two highest is the best of all methods
    gain = ensemble_gain(*sorted(aucs)[-2:], fused_auc)
    with atomic_open(os.path.join(args.out_dir, "gains.tsv")) as f:
        f.write("method\tauc_pr\n")
        for path, auc in zip(args.scores, aucs):
            f.write(f"{path}\t{auc!r}\n")
        f.write(f"fused\t{fused_auc!r}\n")
        f.write(f"gain_over_best\t{gain!r}\n")
    with atomic_open(os.path.join(args.out_dir, "fusion_loss.csv")) as f:
        f.write("iteration,loss\n")
        for i, loss in enumerate(losses):
            f.write(f"{i},{loss!r}\n")
    _log(f"fused_auc_pr={fused_auc:.4f} gain_over_best={gain:+.4%}")
    return 0


def _config_epilog() -> str:
    lines = ["config file keys (key=value per line, # comments) and defaults:"]
    lines += [f"  {key}={setting_text(val)}" for key, val in CONFIG_DEFAULTS.items()]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grail",
        description="Subgraph-reasoning link prediction over knowledge graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    epilog = _config_epilog()
    fmt = argparse.RawDescriptionHelpFormatter

    p = sub.add_parser(
        "split",
        help="sample an entity-disjoint train/test benchmark from a triple file",
        epilog=epilog,
        formatter_class=fmt,
    )
    p.add_argument("--input", required=True, help="source triple file (head<TAB>rel<TAB>tail)")
    p.add_argument("--out-dir", required=True, help="directory for the emitted split files")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser(
        "train",
        help="train a scorer and save the best-validation checkpoint",
        epilog=epilog,
        formatter_class=fmt,
    )
    p.add_argument("--train", required=True, help="training graph triple file")
    p.add_argument("--valid", required=True, help="validation triple file")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--loss-log", default=None, help="loss CSV path (default: <out>.loss.csv)")
    p.add_argument("--from-checkpoint", default=None, help="resume from this checkpoint")
    p.add_argument("--aux-features", default=None, help="entity<TAB>f1,f2,... feature file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "eval",
        help="rank held-out edges against an inductive test graph",
        epilog=epilog,
        formatter_class=fmt,
    )
    p.add_argument("--checkpoint", required=True, help="trained checkpoint")
    p.add_argument("--graph", required=True, help="inductive test graph triple file")
    p.add_argument("--test", required=True, help="held-out test triples (removed before scoring)")
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out-dir", required=True, help="directory for report and score files")
    p.add_argument("--aux-features", default=None, help="entity<TAB>f1,f2,... feature file")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "verify",
        help="check the rule-expressiveness property on random graphs",
    )
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--max-rule-len", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="verify_report.txt", help="report output path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "ensemble",
        help="fuse per-method score tables with logistic late fusion",
    )
    p.add_argument("--scores", nargs="+", required=True, help="validation score TSVs, one per method")
    p.add_argument("--valid-labels", required=True, help="validation label TSV")
    p.add_argument("--test-scores", nargs="+", default=None, help="test score TSVs, one per method")
    p.add_argument("--out-dir", required=True, help="directory for fused scores and gain table")
    p.set_defaults(func=cmd_ensemble)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        _log(f"error: {e}")
        return 2
    except Exception as e:  # noqa: BLE001 - surface runtime failures as exit 1
        _log(f"error: {type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
