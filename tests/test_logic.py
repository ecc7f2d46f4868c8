"""Path rules, the walk-counting oracle, and the hand-set recognizer model."""

import numpy as np
import pytest

from grail.kg import from_parts, load_triples
from grail.logic import (
    PathRule,
    construct_rule_params,
    count_satisfied,
    count_walks,
    rule_satisfied,
    score_rule_construction,
    verify_theorem1,
)

from oracles import attention_weight, random_kg, rule_walks_oracle


def test_path_rule_validation():
    with pytest.raises(ValueError, match="at least one"):
        PathRule(head=0, body=())
    with pytest.raises(ValueError, match="non-negative"):
        PathRule(head=-1, body=(0,))
    with pytest.raises(ValueError, match="non-negative"):
        PathRule(head=0, body=(0, -2))


def test_rule_satisfied_chain():
    g = load_triples("a\tp\tb\nb\tq\tc\n")
    a, b, c = (g.entity_ids[x] for x in "abc")
    p, q = g.relation_ids["p"], g.relation_ids["q"]
    rule = PathRule(head=p, body=(p, q))
    ok, witness = rule_satisfied(g, rule, a, c)
    assert ok and witness == [b]
    ok, witness = rule_satisfied(g, rule, a, b)
    assert not ok and witness is None
    # single-relation body: witness is the empty interior
    ok, witness = rule_satisfied(g, PathRule(head=p, body=(p,)), a, b)
    assert ok and witness == []


def test_rule_satisfied_allows_repeated_entities():
    g = load_triples("a\tp\ta\na\tp\tb\n")
    a, b = g.entity_ids["a"], g.entity_ids["b"]
    rule = PathRule(head=0, body=(0, 0, 0))
    ok, witness = rule_satisfied(g, rule, a, b)
    assert ok and witness == [a, a]


def test_rule_satisfied_validates_vocab():
    g = load_triples("a\tp\tb\n")
    with pytest.raises(ValueError, match="invalid relation id"):
        rule_satisfied(g, PathRule(head=5, body=(0,)), 0, 1)


def test_count_walks_examples():
    # two parallel p-edges into b, then one q-edge: 2 walks
    g = load_triples("a\tp\tb\nc\tp\tb\nb\tq\td\na\tp\tc\n")
    a, d = g.entity_ids["a"], g.entity_ids["d"]
    rule = PathRule(head=0, body=(g.relation_ids["p"], g.relation_ids["q"]))
    assert count_walks(g, rule, a, d) == 1
    # a -> b -> d and a -> c -> b -> d is length 3, not counted by a 2-body
    g2 = load_triples("a\tp\tb\na\tp\tc\nb\tq\td\nc\tq\td\n")
    rule2 = PathRule(head=0, body=(0, 1))
    assert count_walks(g2, rule2, g2.entity_ids["a"], g2.entity_ids["d"]) == 2


def test_count_walks_matches_bruteforce():
    rng = np.random.default_rng(0)
    for _ in range(120):
        g = random_kg(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)),
                      int(rng.integers(0, 22)), allow_self_loops=True)
        if g.num_relations == 0:
            continue
        body = tuple(int(r) for r in rng.integers(0, g.num_relations,
                                                  size=int(rng.integers(1, 4))))
        rule = PathRule(head=0, body=body)
        u, v = int(rng.integers(g.num_entities)), int(rng.integers(g.num_entities))
        want = rule_walks_oracle(g, body, u, v)
        assert count_walks(g, rule, u, v) == want
        assert rule_satisfied(g, rule, u, v)[0] == (want > 0)


def test_count_satisfied():
    g = load_triples("a\tp\tb\nb\tq\tc\na\tq\tc\n")
    a, c = g.entity_ids["a"], g.entity_ids["c"]
    p, q = g.relation_ids["p"], g.relation_ids["q"]
    rules = [PathRule(head=q, body=(p, q)), PathRule(head=q, body=(q,)),
             PathRule(head=q, body=(p, p))]
    assert count_satisfied(g, rules, a, c) == 2
    with pytest.raises(ValueError, match="share one head"):
        count_satisfied(g, [PathRule(head=0, body=(0,)), PathRule(head=1, body=(0,))], a, c)


def test_construct_rule_params_shapes_and_errors():
    rule = PathRule(head=1, body=(0, 2))
    params, cfg = construct_rule_params(rule, num_relations=3)
    assert cfg.num_layers == 2 and cfg.hidden_dim == 1 and cfg.input_dim == 1
    assert cfg.aggregate_in_neighbors and not cfg.jk_enabled
    assert len(params.layers) == 2
    assert params.attn_rel_emb.data.tolist() == [[0.0], [1.0], [2.0]]
    with pytest.raises(ValueError, match="outside the vocabulary"):
        construct_rule_params(rule, num_relations=2)
    with pytest.raises(ValueError, match="num_relations"):
        construct_rule_params(rule, num_relations=0)


def test_constructed_attention_is_relation_indicator():
    rule = PathRule(head=0, body=(2, 0, 1))
    params, cfg = construct_rule_params(rule, num_relations=4)
    for layer, want_rel in enumerate(rule.body):
        for r in range(4):
            gate = attention_weight(params, cfg, layer, np.zeros(1), np.zeros(1), r, 0)
            if r == want_rel:
                assert gate > 1.0 - 1e-8
            else:
                assert gate < 1e-8


def test_construction_is_graph_independent():
    rule = PathRule(head=0, body=(1, 0))
    p1, c1 = construct_rule_params(rule, num_relations=2)
    p2, c2 = construct_rule_params(rule, num_relations=2)
    assert c1 == c2
    for name, t in p1.named_tensors().items():
        assert np.array_equal(t.data, p2.named_tensors()[name].data)


def test_score_counts_labeled_walks():
    g = load_triples("a\tp\tb\na\tp\tc\nb\tq\td\nc\tq\td\nd\tp\ta\n")
    a, d = g.entity_ids["a"], g.entity_ids["d"]
    rule = PathRule(head=0, body=(g.relation_ids["p"], g.relation_ids["q"]))
    assert score_rule_construction(g, rule, a, d) == pytest.approx(2.0, abs=1e-9)
    # unsatisfied direction scores exactly zero
    assert score_rule_construction(g, rule, d, a) == 0.0


def test_score_disjoint_paths_scale_linearly():
    # beta distinct interior paths produce score == beta
    for beta in (1, 2, 3):
        lines = ["s\thead\tt\n"]
        for i in range(beta):
            lines.append(f"s\tp\tm{i}\n")
            lines.append(f"m{i}\tq\tt\n")
        g = load_triples("".join(lines))
        rule = PathRule(head=g.relation_ids["head"],
                        body=(g.relation_ids["p"], g.relation_ids["q"]))
        s, t = g.entity_ids["s"], g.entity_ids["t"]
        assert score_rule_construction(g, rule, s, t) == pytest.approx(float(beta), abs=1e-9)


def test_score_on_edgeless_graph():
    g = from_parts(["a", "b"], ["r"], [])
    rule = PathRule(head=0, body=(0,))
    assert score_rule_construction(g, rule, 0, 1) == 0.0


def test_verify_theorem1_passes():
    report = verify_theorem1(trials=60, rng=np.random.default_rng(1))
    assert report.ok
    assert report.trials == 60 and report.agreements == 60
    assert report.walk_count_checked == 60
    assert report.walk_count_max_err <= 1e-9
    assert report.set_trials == 12 and not report.set_failures
    text = report.to_text()
    assert "ok=true" in text and "disagreements=0" in text


def test_verify_theorem1_validation():
    with pytest.raises(ValueError, match="trials"):
        verify_theorem1(trials=0)
    with pytest.raises(ValueError, match="max_rule_len"):
        verify_theorem1(trials=1, max_rule_len=0)


def test_verify_report_formats_counterexamples():
    from grail.logic import VerifyReport

    report = VerifyReport(trials=1, agreements=0)
    report.disagreements.append({"rule": "0 <- [1]", "u": 0, "v": 1,
                                 "triples": "a\tr\tb\n", "score": 1.0, "oracle": False})
    text = report.to_text()
    assert "ok=false" in text
    assert "--- disagreement" in text
    assert "rule=0 <- [1]" in text
