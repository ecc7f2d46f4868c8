"""Seeded end-to-end benchmark of grail: train a model, then rank-evaluate it.

    python3 benchmarks/run.py --workload rule --seed 1 --seconds 45 --trace 0

Each workload generates its inputs from the seed (see inputs.py), trains
one model on its training graph, then rank-evaluates that model on an
entity-disjoint inductive graph (each test edge against 50 corruptions)
round after round until --seconds have passed since training began.  All of
it runs in this one process on one thread.  The outputs are then checked:
every round must give the same report, a seeded sample of scored candidates
is recomputed by reference.py, the reported AUC-PR is recomputed from the
scores, and on `rule` the learned model must rank the rule's facts
high (Hits@10 at least 0.9).

With --trace 0 the last line of output is the end-to-end metrics; with
--trace 1 the calls into each layer are timed from outside (tracing.py) and
the last line is the per-layer metrics.  Either way the full result is also
written under benchmarks/results/.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"  # before numpy loads: one thread, as stated above

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import reference as ref
from inputs import WORKLOADS, make_inputs
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

# set-up is short, so it is repeated (for at least a second) and the median kept
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 50, 1.0
NUM_TRAININGS = 2
MIN_ROUNDS = 2
NUM_NEGATIVES = 50
REFERENCE_SAMPLE = 12


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_grail():
    src = ROOT / "src"
    if not (src / "grail" / "__init__.py").is_file():
        raise SystemExit(f"error: no grail package under {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import grail  # noqa: F401  (loads every submodule into sys.modules)

    return sys.modules


def _setup(mods, workload: str, seed: int):
    """Inputs, graphs and configs: everything before the first timed call."""
    kg, model, subgraph, train = (mods[f"grail.{m}"] for m in ("kg", "model", "subgraph", "train"))
    inp = make_inputs(workload, seed)
    g_train = kg.from_parts(inp.train.entity_names, inp.relation_names, inp.train.triples)
    g_ind = kg.from_parts(inp.ind.entity_names, inp.relation_names, inp.ind.triples)
    # the acceptance-test training config
    tcfg = train.TrainConfig(margin=4.0, lr=0.02, l2=1e-4, clip_norm=1000.0, epochs=6,
                             eval_every=2, batch_size=16, neg_per_pos=1, hops=2, seed=seed)
    gcfg = model.GnnConfig(num_layers=2, hidden_dim=16, num_bases=2, attention_enabled=True,
                           jk_enabled=True, edge_dropout_rate=0.2,
                           input_dim=subgraph.feature_dim(tcfg.hops))
    return inp, g_train, g_ind, tcfg, gcfg


def _epoch_scored(tcfg, epoch: int, num_positives: int, num_valid: int) -> int:
    """Candidate triples one training epoch scores: every positive and its
    negatives, plus both validation sets on a validation epoch."""
    validates = epoch % tcfg.eval_every == 0 or epoch == tcfg.epochs
    return num_positives * (1 + tcfg.neg_per_pos) + (2 * num_valid if validates else 0)


def _check(mods, workload, inp, g_ind, tcfg, gcfg, best, reports, seed) -> list[str]:
    kg, subgraph = mods["grail.kg"], mods["grail.subgraph"]
    errors = []
    first = reports[0]
    for i, rep in enumerate(reports[1:], start=2):
        if (rep.auc_pr, rep.hits_at_10, rep.records) != (first.auc_pr, first.hits_at_10, first.records):
            errors.append(f"evaluation round {i} differs from round 1")

    pos = [r["score"] for r in first.records if r["label"] == 1]
    neg = [r["score"] for r in first.records if r["label"] == 0]
    auc = ref.reference_auc_pr(pos, neg)
    if abs(auc - first.auc_pr) > 1e-12:
        errors.append(f"reported AUC-PR {first.auc_pr!r} != {auc!r} recomputed from its scores")
    hits = sum(1 for r in first.records if r["label"] == 1 and r["rank"] <= 10) / len(pos)
    if hits != first.hits_at_10:
        errors.append(f"reported Hits@10 {first.hits_at_10!r} != {hits!r} from its ranks")
    if len(pos) != len(inp.test):
        errors.append(f"{len(pos)} positives scored, expected {len(inp.test)}")

    # a seeded sample of scored candidates, recomputed apart from the program
    ids = {name: i for i, name in enumerate(inp.ind.entity_names)}
    rel_ids = {name: i for i, name in enumerate(inp.relation_names)}
    model_rel = {best.config[f"relation.{i}"]: i for i in range(int(best.config["num_relations"]))}
    to_model = {rel_ids[n]: model_rel[n] for n in inp.relation_names}
    weights = {k: v for k, v in best.tensors.items() if not k.startswith("adam.")}
    held_out = set(inp.test)
    ref_graph = ref.ReferenceGraph(len(inp.ind.entity_names), [t for t in inp.ind.triples if t not in held_out])
    msg_graph = kg.without_triples(g_ind, inp.test)
    rng = np.random.default_rng([seed, 4242])
    sample = rng.choice(len(first.records), size=min(REFERENCE_SAMPLE, len(first.records)), replace=False)
    for j in sorted(int(x) for x in sample):
        rec = first.records[j]
        h, r, t = ids[rec["head"]], rel_ids[rec["rel"]], ids[rec["tail"]]
        what = f"candidate ({rec['head']}, {rec['rel']}, {rec['tail']})"
        nodes, edges = ref.enclosing_subgraph(ref_graph, h, t, r, tcfg.hops)
        sub = subgraph.extract_enclosing(msg_graph, h, t, r, tcfg.hops)
        prog_edges = [(sub.nodes[a], rel, sub.nodes[b]) for a, rel, b in sub.edges]
        bad = ref.subgraph_mismatch(what, sub.nodes, prog_edges, nodes, edges)
        if bad is None:
            labels = ref.node_labels(nodes, edges, h, t, tcfg.hops)
            model_edges = [(a, to_model[rel], b) for a, rel, b in edges]
            expect = ref.score(weights, gcfg.num_layers, nodes, model_edges, labels,
                               h, to_model[r], t, tcfg.hops)
            bad = ref.score_mismatch(what, rec["score"], expect)
        if bad:
            errors.append(bad)

    if workload == "rule" and (bad := ref.rule_recovery_failure(first.hits_at_10)):
        errors.append(bad)
    return errors


def _add(acc, before, after):
    """acc + (after - before) for tracer snapshots; acc may be None."""
    out = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = {n: value[n] - before[key][n] + (acc[key][n] if acc else 0) for n in value}
        else:
            out[key] = value - before[key] + (acc[key] if acc else 0)
    return out


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    mods = _import_grail()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    train_mod, evaluate_mod = mods["grail.train"], mods["grail.evaluate"]

    setup_times = []
    while len(setup_times) < MIN_SETUPS or (sum(setup_times) < SETUP_BUDGET_S and len(setup_times) < MAX_SETUPS):
        gc.collect()
        if tracer:
            before_setup = tracer.snapshot()
        t0 = time.perf_counter()
        inp, g_train, g_ind, tcfg, gcfg = _setup(mods, workload, seed)
        setup_times.append(time.perf_counter() - t0)
    if tracer:
        graph_build_s = tracer.total_s["kg.build_indices"] - before_setup["total_s"]["kg.build_indices"]

    # Two identical trainings, each followed by evaluation rounds, so that
    # both rates are sampled across the whole run rather than in one stretch.
    per_round = len(inp.test) * (2 + NUM_NEGATIVES)
    checkpoints, epoch_s, round_s, reports = [], [], [], []
    spans = {"train": None, "eval": None}
    first_sizes = []
    start = time.perf_counter()
    for i in range(NUM_TRAININGS):
        before = tracer.snapshot() if tracer else None
        ends = [time.perf_counter()]
        best, _, _ = train_mod.train(g_train, inp.valid, tcfg, gcfg,
                                     log_fn=lambda _: ends.append(time.perf_counter()))
        epoch_s.append([b - a for a, b in zip(ends, ends[1:])])
        checkpoints.append(best)
        if tracer:
            after = tracer.snapshot()
            spans["train"] = _add(spans["train"], before, after)
            if i == 0:
                first_sizes += tracer.subgraph_sizes[before["sizes"]:after["sizes"]]
        scorer = train_mod.scorer_from_checkpoint(best)
        done = 0
        while done < MIN_ROUNDS or (i == NUM_TRAININGS - 1 and time.perf_counter() - start < seconds):
            before = tracer.snapshot() if tracer else None
            t0 = time.perf_counter()
            reports.append(evaluate_mod.evaluate(scorer, g_ind, inp.test, num_negatives=NUM_NEGATIVES, seed=seed))
            round_s.append(time.perf_counter() - t0)
            done += 1
            if tracer:
                after = tracer.snapshot()
                spans["eval"] = _add(spans["eval"], before, after)
                if len(reports) == 1:
                    first_sizes += tracer.subgraph_sizes[before["sizes"]:after["sizes"]]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.uninstall()

    epoch_scored = [_epoch_scored(tcfg, e, len(g_train.triples), len(inp.valid))
                    for e in range(1, tcfg.epochs + 1)]
    errors = _check(mods, workload, inp, g_ind, tcfg, gcfg, checkpoints[0], reports, seed)
    for ck in checkpoints[1:]:
        if ck.tensors.keys() != checkpoints[0].tensors.keys() or not all(
                np.array_equal(ck.tensors[k], checkpoints[0].tensors[k]) for k in ck.tensors):
            errors.append("a second training from the same inputs gave other weights")
    # Best of the steady epochs (the first also fills the subgraph cache) and
    # best of the rounds: every sample does the same work, so the fastest one
    # is the least disturbed by the host's speed drift.
    train_rate = max(n / t for times in epoch_s for n, t in zip(epoch_scored[1:], times[1:]))
    eval_rate = max(per_round / t for t in round_s)
    result = {
        "correct": not errors,
        "attempted": NUM_TRAININGS * sum(epoch_scored) + per_round * len(reports),
        "failed": 0,
    }
    if not tracer:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "train_triples_per_s": {"value": train_rate, "unit": "triples/s"},
            "eval_triples_per_s": {"value": eval_rate, "unit": "triples/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "test_auc_pr": {"value": reports[0].auc_pr, "unit": "AUC-PR"},
            "test_hits_at_10": {"value": reports[0].hits_at_10, "unit": "fraction"},
        }
    else:
        result["metrics"] = _layer_metrics(spans, len(reports), first_sizes, graph_build_s,
                                           train_rate, eval_rate)
        result["trace"] = tracer.report()
    result["timings"] = {"setup_s": setup_times, "epoch_s": epoch_s, "round_s": round_s}
    result["errors"] = errors
    return result


def _layer_metrics(spans, rounds, sizes, graph_build_s, train_rate, eval_rate):
    """Per-layer figures for one pass: one training plus one evaluation round
    (every training and every round does the same work, so they are averaged)."""
    train, ev = spans["train"], spans["eval"]

    def one_pass(kind: str, name: str) -> float:
        return train[kind][name] / NUM_TRAININGS + ev[kind][name] / rounds

    def calls(name: str) -> int:
        return round(one_pass("calls", name))

    nodes = [n for n, _ in sizes]
    edges = [e for _, e in sizes]
    extract, score = "subgraph.extract_enclosing", "model.score_triplet"
    tensors = train["tensors"] / NUM_TRAININGS + ev["tensors"] / rounds
    m = {
        "kg.khop_nodes.calls": (calls("kg.khop_nodes"), "count"),
        "kg.khop_nodes.self_s": (one_pass("self_s", "kg.khop_nodes"), "s"),
        "kg.graph_build_s": (graph_build_s, "s"),
        "subgraph.extract_enclosing.calls": (calls(extract), "count"),
        "subgraph.extract_enclosing.self_s": (one_pass("self_s", extract), "s"),
        "subgraph.extractions_per_scored_triple.train": (train["calls"][extract] / train["calls"][score], "ratio"),
        "subgraph.extractions_per_scored_triple.eval": (ev["calls"][extract] / ev["calls"][score], "ratio"),
        "subgraph.nodes_p50": (float(np.percentile(nodes, 50)), "nodes"),
        "subgraph.nodes_p99": (float(np.percentile(nodes, 99)), "nodes"),
        "subgraph.edges_p50": (float(np.percentile(edges, 50)), "edges"),
        "subgraph.edges_p99": (float(np.percentile(edges, 99)), "edges"),
        "subgraph.label_nodes.self_s": (one_pass("self_s", "subgraph.label_nodes"), "s"),
        "model.score_triplet.calls": (calls(score), "count"),
        "model.score_triplet.self_s": (one_pass("self_s", score), "s"),
        "model.layer_forward.self_s": (one_pass("self_s", "model.layer_forward"), "s"),
        "autodiff.tensors_per_scored_triple": (tensors / one_pass("calls", score), "tensors"),
        "autodiff.backward.calls": (calls("autodiff.backward"), "count"),
        "autodiff.backward.self_s": (one_pass("self_s", "autodiff.backward"), "s"),
        "train.adam_step.self_s": (one_pass("self_s", "train.adam_step"), "s"),
        "train.clip_gradients.self_s": (one_pass("self_s", "train.clip_gradients"), "s"),
        "train.train.self_s": (one_pass("self_s", "train.train"), "s"),
        "evaluate.scorer.self_s": (one_pass("self_s", "evaluate.scorer"), "s"),
        "evaluate.sample_negative.self_s": (one_pass("self_s", "evaluate.sample_negative"), "s"),
        "evaluate.evaluate.self_s": (one_pass("self_s", "evaluate.evaluate"), "s"),
        "trace.train_triples_per_s": (train_rate, "triples/s"),
        "trace.eval_triples_per_s": (eval_rate, "triples/s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    for err in result["errors"]:
        print(f"CHECK FAILED: {err}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
