"""The benchmark's own checks catch what they exist to catch.

A wrong score or a wrong node set in a scored candidate must fail the
reference check, a model short of the rule-recovery bound must fail the
rule check, inputs must follow from the seed alone, and the tracer must
account self time correctly and put back everything it patched.
"""

import copy
import math
import sys

import numpy as np
import pytest

import grail.subgraph
from grail.evaluate import auc_pr, evaluate
from grail.kg import from_parts
from grail.model import GnnConfig, init_params, score_triplet
from grail.subgraph import extract_enclosing, feature_dim, label_nodes

import reference as ref
import run
from inputs import RA, RB, RT, GraphLaw, Inputs, RuleGraph, make_inputs, relation_names, rule_graph
from tracing import Tracer

K = 2


def _small_graph(seed: int):
    rels = relation_names(3)
    rg = rule_graph(np.random.default_rng(seed), "n", GraphLaw(40, 25, 25, 20, 30), rels)
    return rg, from_parts(rg.entity_names, rels, rg.triples)


def _candidates(rg, count: int):
    rng = np.random.default_rng(0)
    out = [rg.rule_facts[i] for i in range(min(count, len(rg.rule_facts)))]
    while len(out) < 2 * count:
        u, v = (int(x) for x in rng.integers(len(rg.entity_names), size=2))
        if u != v:
            out.append((u, int(rng.integers(len(rg.relation_names))), v))
    return out


def _program_and_reference(rg, g, params, cfg, cand):
    h, r, t = cand
    sub = extract_enclosing(g, h, t, r, K)
    program_edges = [(sub.nodes[a], rel, sub.nodes[b]) for a, rel, b in sub.edges]
    program_score = score_triplet(label_nodes(sub), params, cfg).item()
    nodes, edges = ref.enclosing_subgraph(ref.ReferenceGraph(len(rg.entity_names), rg.triples), h, t, r, K)
    weights = {name: tensor.data for name, tensor in params.named_tensors().items()}
    ref_score = ref.score(weights, cfg.num_layers, nodes, edges, ref.node_labels(nodes, edges, h, t, K),
                          h, r, t, K)
    return sub.nodes, program_edges, program_score, nodes, edges, ref_score


@pytest.fixture(scope="module")
def scored():
    rg, g = _small_graph(5)
    cfg = GnnConfig(num_layers=2, hidden_dim=8, num_bases=2, edge_dropout_rate=0.0, input_dim=feature_dim(K))
    params = init_params(cfg, len(rg.relation_names), np.random.default_rng(1))
    return [_program_and_reference(rg, g, params, cfg, c) for c in _candidates(rg, 12)]


def test_reference_agrees_with_program(scored):
    assert max(len(s[0]) for s in scored) > 4, "no candidate has a nontrivial subgraph"
    for p_nodes, p_edges, p_score, r_nodes, r_edges, r_score in scored:
        assert ref.subgraph_mismatch("c", p_nodes, p_edges, r_nodes, r_edges) is None
        assert ref.score_mismatch("c", p_score, r_score) is None


def test_perturbed_score_fails_the_check(scored):
    for *_, p_score, _, _, r_score in scored:
        off = 1e-6 * max(1.0, abs(p_score))
        assert ref.score_mismatch("c", p_score + off, r_score) is not None
        assert ref.score_mismatch("c", p_score - off, r_score) is not None


def test_perturbed_node_set_fails_the_check(scored):
    p_nodes, p_edges, _, r_nodes, r_edges, _ = max(scored, key=lambda s: len(s[0]))
    dropped = p_nodes[-1]
    fewer = [n for n in p_nodes if n != dropped]
    fewer_edges = [e for e in p_edges if dropped not in (e[0], e[2])]
    assert ref.subgraph_mismatch("c", fewer, fewer_edges, r_nodes, r_edges) is not None
    assert ref.subgraph_mismatch("c", p_nodes + [10_000], p_edges, r_nodes, r_edges) is not None
    assert ref.subgraph_mismatch("c", p_nodes, p_edges[1:], r_nodes, r_edges) is not None


def test_rule_recovery_bound():
    assert ref.rule_recovery_failure(0.90) is None
    assert ref.rule_recovery_failure(0.8999) is not None
    assert ref.rule_recovery_failure(float("nan")) is not None


def test_reference_auc_pr_matches_the_metric_definition():
    rng = np.random.default_rng(3)
    for _ in range(50):
        pos = rng.integers(0, 6, size=int(rng.integers(1, 10))).astype(float)
        neg = rng.integers(0, 6, size=int(rng.integers(1, 10))).astype(float)
        assert math.isclose(ref.reference_auc_pr(pos, neg), auc_pr(pos, neg), abs_tol=1e-12)
    assert ref.reference_auc_pr([2.0, 3.0], [1.0]) == 1.0


def _tiny_run():
    """A two-epoch training and one evaluation on a small rule graph."""
    rels = relation_names(3)
    rng = np.random.default_rng(9)
    train_rg = rule_graph(rng, "a", GraphLaw(60, 30, 30, 20, 20), rels)
    ind = rule_graph(rng, "b", GraphLaw(60, 30, 30, 20, 20), rels)
    valid = train_rg.rule_facts[:4]
    train_rg = RuleGraph(train_rg.entity_names, rels, [t for t in train_rg.triples if t not in valid],
                         train_rg.rule_facts[4:])
    inp = Inputs(rels, train_rg, valid, ind, ind.rule_facts[:5])
    mods = sys.modules
    train = mods["grail.train"]
    tcfg = train.TrainConfig(margin=4.0, lr=0.02, epochs=2, eval_every=2, hops=K, seed=0)
    gcfg = GnnConfig(num_layers=2, hidden_dim=8, num_bases=2, input_dim=feature_dim(K))
    g_train = from_parts(train_rg.entity_names, rels, train_rg.triples)
    g_ind = from_parts(ind.entity_names, rels, ind.triples)
    best, _, _ = train.train(g_train, valid, tcfg, gcfg)
    report = evaluate(train.scorer_from_checkpoint(best), g_ind, inp.test, num_negatives=10, seed=0)
    return mods, inp, g_ind, tcfg, gcfg, best, report


@pytest.fixture(scope="module")
def tiny():
    return _tiny_run()


def test_run_check_passes_on_program_output(tiny):
    mods, inp, g_ind, tcfg, gcfg, best, report = tiny
    assert run._check(mods, "wide", inp, g_ind, tcfg, gcfg, best, [report, report], 0) == []


def test_run_check_fails_on_a_perturbed_score(tiny):
    mods, inp, g_ind, tcfg, gcfg, best, report = tiny
    for label in (0, 1):
        bad = copy.deepcopy(report)
        rec = next(r for r in bad.records if r["label"] == label)
        rec["score"] += 1e-6 * max(1.0, abs(rec["score"]))
        errors = run._check(mods, "wide", inp, g_ind, tcfg, gcfg, best, [bad], 0)
        assert any("program score" in e for e in errors), errors


def test_run_check_fails_on_a_perturbed_node_set(tiny, monkeypatch):
    mods, inp, g_ind, tcfg, gcfg, best, report = tiny
    original = grail.subgraph.extract_enclosing

    def one_node_short(g, u, v, r, k, mode="enclosing"):
        sub = original(g, u, v, r, k, mode)
        if len(sub.nodes) > 2:
            gone = len(sub.nodes) - 1
            sub.nodes = sub.nodes[:-1]
            sub.edges = [e for e in sub.edges if gone not in (e[0], e[2])]
        return sub

    monkeypatch.setattr(grail.subgraph, "extract_enclosing", one_node_short)
    errors = run._check(mods, "wide", inp, g_ind, tcfg, gcfg, best, [report], 0)
    assert any("node set differs" in e for e in errors), errors


def test_run_check_fails_on_rounds_that_differ_and_on_weak_rule_recovery(tiny):
    mods, inp, g_ind, tcfg, gcfg, best, report = tiny
    other = copy.deepcopy(report)
    other.records[0]["score"] += 1.0
    errors = run._check(mods, "wide", inp, g_ind, tcfg, gcfg, best, [report, other], 0)
    assert any("round 2 differs" in e for e in errors), errors
    weak = copy.deepcopy(report)
    weak.hits_at_10 = 0.5
    errors = run._check(mods, "rule", inp, g_ind, tcfg, gcfg, best, [weak], 0)
    assert any("Hits@10" in e for e in errors), errors


def test_inputs_follow_the_seed_and_the_rule():
    a, b, c = make_inputs("rule", 3), make_inputs("rule", 3), make_inputs("rule", 4)
    assert a == b
    assert a.ind.triples != c.ind.triples
    for g in (a.train, a.ind):
        by_rel = {rel: {(h, t) for h, r, t in g.triples if r == rel} for rel in (RA, RB, RT)}
        composed = {(x, z) for x, y in by_rel[RA] for y2, z in by_rel[RB] if y == y2 and x != z}
        assert composed >= by_rel[RT]
    full = {(x, z) for x, y in {(h, t) for h, r, t in a.ind.triples if r == RA}
            for y2, z in {(h, t) for h, r, t in a.ind.triples if r == RB} if y == y2 and x != z}
    assert full == {(h, t) for h, r, t in a.ind.triples if r == RT}
    assert not set(a.train.entity_names) & set(a.ind.entity_names)
    assert set(a.test) <= set(a.ind.triples)
    assert not set(a.valid) & set(a.train.triples)


def test_tracer_accounts_self_time_and_restores_the_program():
    rg, g = _small_graph(6)
    cfg = GnnConfig(num_layers=2, hidden_dim=8, num_bases=2, input_dim=feature_dim(K))
    params = init_params(cfg, len(rg.relation_names), np.random.default_rng(1))
    khop = grail.subgraph.khop_nodes
    backward = sys.modules["grail.autodiff"].Tensor.backward
    tracer = Tracer()
    tracer.install()
    try:
        assert grail.subgraph.khop_nodes is not khop
        h, r, t = rg.rule_facts[0]
        sub = sys.modules["grail.subgraph"].extract_enclosing(g, h, t, r, K)
        before = tracer.tensors
        sys.modules["grail.model"].score_triplet(label_nodes(sub), params, cfg)
        made = tracer.tensors - before - 1
    finally:
        tracer.uninstall()
    assert grail.subgraph.khop_nodes is khop
    assert sys.modules["grail.autodiff"].Tensor.backward is backward
    assert tracer.calls["subgraph.extract_enclosing"] == 1
    assert tracer.calls["kg.khop_nodes"] == 2
    assert tracer.calls["model.layer_forward"] == cfg.num_layers
    assert tracer.subgraph_sizes == [(len(sub.nodes), len(sub.edges))]
    assert made > 10
    ext = "subgraph.extract_enclosing"
    assert tracer.self_s[ext] == pytest.approx(tracer.total_s[ext] - tracer.total_s["kg.khop_nodes"])
    assert ("subgraph.extract_enclosing", "kg.khop_nodes") in tracer.callers
