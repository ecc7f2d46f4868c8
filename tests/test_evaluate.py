"""AUC-PR, ranking, inductive evaluation, score files, and late fusion."""

import copy
import csv
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from grail.evaluate import (
    EvalReport,
    GrailScorer,
    align_score_tables,
    auc_pr,
    ensemble_gain,
    evaluate,
    late_fusion,
    parse_labels_file,
    parse_score_file,
    rank_from_scores,
    sample_negative,
    sample_negatives,
    write_labels_file,
    write_report,
    write_scores_file,
    write_triplet_csv,
)
from grail.kg import from_parts, load_triples, without_triples
from grail.model import GnnConfig, init_params, score_triplet
from grail.subgraph import extract_enclosing, feature_dim, label_nodes
from grail.train import TrainConfig, model_from_checkpoint, scorer_from_checkpoint, train

from oracles import auc_pr_reference, random_kg, sample_negative_reference


def test_auc_pr_matches_reference():
    rng = np.random.default_rng(0)
    for trial in range(100):
        n_pos = int(rng.integers(1, 30))
        n_neg = int(rng.integers(1, 30))
        if trial % 3 == 0:
            # coarse grid forces heavy ties
            pos = rng.integers(0, 4, size=n_pos).astype(float)
            neg = rng.integers(0, 4, size=n_neg).astype(float)
        else:
            pos = rng.standard_normal(n_pos)
            neg = rng.standard_normal(n_neg)
        assert auc_pr(pos, neg) == pytest.approx(auc_pr_reference(pos, neg), abs=1e-12)


def test_auc_pr_perfect_and_constant():
    assert auc_pr([2.0, 3.0], [0.0, 1.0]) == 1.0
    # constant scorer: single threshold, precision = prevalence
    assert auc_pr([1.0] * 3, [1.0] * 9) == pytest.approx(0.25)
    # worst case: every negative above every positive
    assert auc_pr([0.0], [1.0] * 9) == pytest.approx(0.1)


def test_auc_pr_ties_are_pessimistic():
    # the tied positive enters together with the negative, not ahead of it
    tied = auc_pr([1.0], [1.0, 0.0])
    assert tied == pytest.approx(0.5)
    ahead = auc_pr([1.0], [0.5, 0.0])
    assert ahead == 1.0


def test_auc_pr_monotone_invariance():
    rng = np.random.default_rng(1)
    pos, neg = rng.standard_normal(20), rng.standard_normal(25)
    base = auc_pr(pos, neg)
    assert auc_pr(3.0 * pos + 7.0, 3.0 * neg + 7.0) == pytest.approx(base, abs=1e-12)


def test_auc_pr_errors():
    with pytest.raises(ValueError, match="at least one"):
        auc_pr([], [1.0])
    with pytest.raises(ValueError, match="at least one"):
        auc_pr([1.0], [])
    with pytest.raises(ValueError, match="non-finite"):
        auc_pr([np.nan], [1.0])


def test_sample_negative_contract():
    rng = np.random.default_rng(2)
    g = random_kg(rng, 8, 2, 30)
    pos = g.triples[0]
    h, r, t = pos
    for _ in range(200):
        nh, nr, nt = sample_negative(g, pos, rng)
        assert (nh, nr, nt) != pos
        assert nh != nt
        assert nr == r
        assert nh == h or nt == t  # exactly one side corrupted


def test_sample_negative_deterministic():
    rng = np.random.default_rng(3)
    g = random_kg(rng, 8, 2, 30)
    a = [sample_negative(g, g.triples[0], np.random.default_rng(5)) for _ in range(5)]
    b = [sample_negative(g, g.triples[0], np.random.default_rng(5)) for _ in range(5)]
    assert a == b


def test_sample_negative_too_few_entities():
    g = load_triples("a\tr\tb\n")
    with pytest.raises(ValueError, match="too few entities"):
        sample_negative(g, (0, 0, 1), np.random.default_rng(0))


def _states_equal(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_states_equal(a[key], b[key]) for key in a)
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def _sampling_cases(rng):
    """(graph, positives) pairs: 2 and 3 entities, where most draws are
    rejected, self-loop positives, and graphs large enough that a block
    holds several rejections or none."""
    for n in (2, 3, 4, 17, 400):
        g = from_parts([f"e{i}" for i in range(n)], ["r0", "r1"], [(0, 0, 1)])
        positives = []
        for i in range(240):
            h, t = (int(x) for x in rng.integers(n, size=2))
            positives.append((h, int(rng.integers(2)), h if n == 2 or i % 5 == 0 else t))
        yield g, positives


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937,
                                           np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("block", [1, 7, None])
def test_sample_negatives_equal_the_scalar_draws_and_leave_the_same_state(
        monkeypatch, bit_generator, block):
    if block is not None:
        monkeypatch.setattr(sys.modules["grail.evaluate"], "_NEGATIVE_BLOCK", block)
    for seed, (g, positives) in enumerate(_sampling_cases(np.random.default_rng(40))):
        assert any(h == t for h, _, t in positives)
        want_rng, got_rng = (np.random.Generator(bit_generator(seed)) for _ in range(2))
        want = [sample_negative_reference(g, p, want_rng) for p in positives]
        got = sample_negatives(g, positives, got_rng)
        assert got == want and all(type(x) is int for x in got[0])
        assert _states_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
        assert got_rng.integers(1 << 40) == want_rng.integers(1 << 40)
        # one positive at a time on one generator, as training's groups and sample_negative call it
        one_rng = np.random.Generator(bit_generator(seed))
        assert [sample_negative(g, p, one_rng) for p in positives] == want
    # an array of positives draws what the list draws
    rngs = [np.random.Generator(bit_generator(9)) for _ in range(2)]
    assert sample_negatives(g, np.array(positives), rngs[0]) == sample_negatives(g, positives, rngs[1])


def test_sample_negatives_of_no_positives_draw_nothing():
    g = from_parts(["a", "b", "c"], ["r"], [(0, 0, 1)])
    rng = np.random.default_rng(41)
    before = rng.bit_generator.state
    assert sample_negatives(g, [], rng) == []
    assert rng.bit_generator.state == before


def test_sample_negatives_name_the_first_bad_positive():
    g = from_parts(["a", "b", "c"], ["r0", "r1"], [(0, 0, 1)])
    good = [(0, 0, 1), (1, 1, 0), (2, 0, 2)]
    # each bad positive fails a check in the scalar order: h, then t, then r, then the count
    bad = [(3, 5, 0), (-1, 0, 1), (0, 5, 3), (1, 0, -2), (0, 2, 1), (1, -1, 2)]
    for trip in bad:
        with pytest.raises(ValueError) as alone:
            sample_negative_reference(g, trip, np.random.default_rng(0))
        for positives in (good + [trip], good[:1] + [trip] + good[1:], [trip] + bad):
            with pytest.raises(ValueError) as bulk:
                sample_negatives(g, positives, np.random.default_rng(0))
            assert str(bulk.value) == str(alone.value)
    two = from_parts(["a", "b"], ["r"], [(0, 0, 1)])
    with pytest.raises(ValueError, match=r"too few entities \(2\) to corrupt triple \(1,0,0\)"):
        sample_negatives(two, [(0, 0, 0), (1, 0, 0), (0, 0, 2)], np.random.default_rng(0))


def test_rank_from_scores():
    assert rank_from_scores(5.0, [1.0, 2.0, 3.0]) == 1
    assert rank_from_scores(0.0, [1.0, 2.0, 3.0]) == 4
    assert rank_from_scores(2.0, [1.0, 3.0]) == 2
    # ties count half, floored
    assert rank_from_scores(1.0, [1.0, 1.0, 1.0]) == 2
    assert rank_from_scores(1.0, [1.0]) == 1
    assert rank_from_scores(1.0, [2.0, 1.0, 1.0]) == 3


def scorer_fixture(relations, hops=2, seed=0):
    cfg = GnnConfig(num_layers=2, hidden_dim=4, num_bases=2,
                    edge_dropout_rate=0.0, input_dim=feature_dim(hops))
    params = init_params(cfg, len(relations), np.random.default_rng(seed))
    return GrailScorer(params, cfg, relations, hops=hops)


def test_scorer_matches_relations_by_name():
    scorer = scorer_fixture(["p", "q"])
    g1 = load_triples("a\tp\tb\nb\tq\tc\nc\tp\td\n")
    g2 = load_triples("b\tq\tc\na\tp\tb\nc\tp\td\n")  # same edges, ids permuted
    s1 = scorer(g1, [(g1.entity_ids["a"], g1.relation_ids["p"], g1.entity_ids["b"])], set())
    s2 = scorer(g2, [(g2.entity_ids["a"], g2.relation_ids["p"], g2.entity_ids["b"])], set())
    assert s1 == s2


def test_scorer_rejects_unknown_relation():
    scorer = scorer_fixture(["p"])
    g = load_triples("a\tp\tb\nb\tz\tc\n")
    with pytest.raises(ValueError, match="absent from model vocabulary"):
        scorer(g, [(0, 0, 1)], set())


def test_scorer_forbidden_edge_assertion():
    scorer = scorer_fixture(["p", "q"])
    g = load_triples("a\tp\tb\nb\tp\tc\na\tq\tc\n")
    a, b, c = (g.entity_ids[n] for n in "abc")
    p, q = g.relation_ids["p"], g.relation_ids["q"]
    with pytest.raises(AssertionError, match=r"leaked into message passing: \('a', 'p', 'b'\)"):
        scorer(g, [(a, q, c)], {(a, p, b)})
    # the candidate edge itself may be held out: it is what is scored
    assert np.all(np.isfinite(scorer(g, [(a, q, c)], {(a, q, c)})))
    assert np.all(np.isfinite(scorer(g, [(a, q, c)], set())))


def test_a_leak_in_a_later_union_member_is_named():
    # two components: x1-x2-x3 and the a, b, c triangle
    scorer = scorer_fixture(["p", "q"])
    g = load_triples("x1\tp\tx2\nx2\tp\tx3\na\tp\tb\nb\tp\tc\na\tq\tc\n")
    e = g.entity_ids
    p, q = g.relation_ids["p"], g.relation_ids["q"]
    chain, triangle = (e["x1"], q, e["x3"]), (e["a"], q, e["c"])
    with pytest.raises(AssertionError, match=r"leaked into message passing: \('a', 'p', 'b'\)"):
        scorer(g, [chain, chain, triangle], {(e["a"], p, e["b"])})
    # each member's own candidate edge may be held out, wherever it sits
    # (pruning leaves x1-x2 and x2-x3 only their own edge)
    first, last = (e["x1"], p, e["x2"]), (e["x2"], p, e["x3"])
    for candidates in ([first, triangle, last], [last, triangle, first]):
        held = {first, triangle}
        assert scorer(g, candidates, held) == scorer(g, candidates, set())


def test_a_held_out_triple_outside_the_graph_is_named():
    # as id keys, (a, r3, c) would collide with (b, r1, c), an edge of the graph;
    # and an entity id of 5 or -1 would be silently ignored
    scorer = scorer_fixture(["r0", "r1"])
    g = load_triples("a\tr0\tb\nb\tr1\tc\nc\tr0\ta\na\tr1\tc\n")
    for bad in ((0, 3, 2), (5, 0, 1), (-1, 0, 1), (0, -1, 1), (0, 0, 3)):
        with pytest.raises(ValueError, match=rf"held-out triple \({bad[0]}, {bad[1]}, {bad[2]}\) "
                                             r"is outside the graph's 3 entities and 2 relations"):
            scorer(g, [(0, 0, 1)], {bad})
    assert np.isfinite(scorer(g, [(0, 0, 1)], {(0, 0, 1)})[0])


def test_a_bad_id_in_a_later_member_fails_the_scorer_as_it_fails_alone():
    scorer = scorer_fixture(["p", "q"])
    g = load_triples("a\tp\tb\nb\tp\tc\na\tq\tc\n")
    good = [(0, 0, 1), (1, 1, 2)]
    for u, r, v in ((0, 0, 3), (0, 2, 1), (2, 0, 2)):
        with pytest.raises(ValueError) as alone:
            extract_enclosing(g, u, v, r, 2)
        with pytest.raises(ValueError) as in_union:
            scorer(g, good + [(u, r, v)], set())
        assert str(in_union.value) == str(alone.value)


def test_failed_evaluate_clears_forbidden_edges():
    scorer = scorer_fixture(["p", "q"])
    g = load_triples("a\tp\tc\nc\tp\tb\nb\tunknown\td\n")
    test_edge = (g.entity_ids["a"], g.relation_ids["p"], g.entity_ids["c"])
    with pytest.raises(ValueError, match="absent from model vocabulary"):
        evaluate(scorer, g, [test_edge], num_negatives=2)
    # another graph whose subgraph holds (a, p, c) scores without a leak error
    g2 = load_triples("a\tp\tc\nc\tp\tb\na\tq\tb\n")
    cand = (g2.entity_ids["a"], g2.relation_ids["q"], g2.entity_ids["b"])
    assert np.isfinite(scorer(g2, [cand], set())[0])


@pytest.mark.parametrize("mode", ["enclosing", "full_khop"])
def test_chunked_round_matches_one_scorer_call_per_test_edge(monkeypatch, mode):
    g = random_kg(np.random.default_rng(13), 40, 3, 200)
    scorer = scorer_fixture(g.relation_names)
    scorer.mode = mode
    test_edges = g.triples[:10]
    per = 2 + 20

    def per_edge(graph, candidates, held_out):
        return [s for lo in range(0, len(candidates), per)
                for s in scorer(graph, candidates[lo:lo + per], held_out)]

    want = evaluate(per_edge, g, test_edges, num_negatives=20, seed=4)
    chunks = []
    unions = sys.modules["grail.evaluate"].bounded_unions

    def spied(*args):
        for union in unions(*args):
            chunks.append(len(union.member_sizes))
            yield union

    monkeypatch.setattr(sys.modules["grail.evaluate"], "bounded_unions", spied)
    monkeypatch.setattr(sys.modules["grail.subgraph"], "NODE_BUDGET", 300)
    got = evaluate(scorer, g, test_edges, num_negatives=20, seed=4)
    # several chunks, and their boundaries cut through test edges' candidate lists
    assert len(chunks) > 2 and sum(chunks) == len(test_edges) * per
    assert any(n % per for n in chunks)
    assert (got.auc_pr, got.hits_at_10) == (want.auc_pr, want.hits_at_10)
    assert len(got.records) == len(want.records)
    for a, b in zip(got.records, want.records):
        assert [a[key] for key in ("head", "rel", "tail", "label")] == \
            [b[key] for key in ("head", "rel", "tail", "label")]
        assert abs(a["score"] - b["score"]) <= 1e-12 * max(1.0, abs(b["score"]))


def test_records_are_slotted_and_read_and_write_by_key():
    g = random_kg(np.random.default_rng(14), 20, 2, 80)
    scorer = scorer_fixture(g.relation_names)
    report = evaluate(scorer, g, g.triples[:4], num_negatives=5, seed=1)
    again = evaluate(scorer, g, g.triples[:4], num_negatives=5, seed=1)
    assert report.records == again.records and report.records is not again.records
    rec = report.records[0]
    assert not hasattr(rec, "__dict__")
    assert (rec["head"], rec["label"], rec["rank"]) == (rec.head, 1, rec.rank)
    assert report.records[-1]["rank"] is None
    copied = copy.deepcopy(report)
    assert copied.records == report.records and copied.records[0] is not rec
    rec["score"] += 1.0
    assert rec.score == copied.records[0]["score"] + 1.0 and report.records != again.records
    for bad in ("nope", "__class__"):
        with pytest.raises(KeyError):
            rec[bad]
        with pytest.raises(KeyError):
            rec[bad] = 0


# (entities, edge draws, test edges, negatives per positive, extraction mode,
# self-loops allowed) of each golden evaluation; on 3 and 4 entities most
# corrupting draws hit an end of the positive and are drawn again
GOLDEN_EVALUATIONS = [
    (3, 8, 3, 7, "enclosing", False),
    (4, 12, 4, 20, "enclosing", True),
    (5, 16, 5, 50, "full_khop", False),
    (12, 50, 8, 50, "enclosing", True),
    (30, 120, 10, 13, "full_khop", False),
]
GOLDEN_EVALUATION_SHA256 = "a93277118486e7858f62debe45323d60596d558de88416362b518dbd732e4ded"


def _evaluation_digest() -> str:
    """sha256 over the metrics and every record (names, label, score bits,
    rank) of the seeded evaluations in GOLDEN_EVALUATIONS, each scored by the
    best checkpoint of one seeded toy training."""
    g = random_kg(np.random.default_rng(0), 12, 2, 50)
    tcfg = TrainConfig(margin=2.0, lr=0.05, l2=1e-4, clip_norm=5.0, epochs=2,
                       eval_every=1, batch_size=8, hops=2, seed=0)
    gcfg = GnnConfig(num_layers=2, hidden_dim=4, num_bases=2, edge_dropout_rate=0.2,
                     input_dim=feature_dim(2))
    best, _, _ = train(g, g.triples[:3], tcfg, gcfg)
    scorer = scorer_from_checkpoint(best)
    digest = hashlib.sha256()
    for seed, (n, draws, tests, negs, mode, loops) in enumerate(GOLDEN_EVALUATIONS):
        g_test = random_kg(np.random.default_rng([seed, 1]), n, 2, draws, allow_self_loops=loops)
        scorer.mode = mode
        report = evaluate(scorer, g_test, g_test.triples[:tests], num_negatives=negs, seed=seed)
        digest.update(np.array([report.auc_pr, report.hits_at_10]).tobytes())
        digest.update(np.array([report.num_test, report.skipped_self_loops]).tobytes())
        for rec in report.records:
            rank = -1 if rec["rank"] is None else rec["rank"]
            digest.update(f"{rec['head']}\t{rec['rel']}\t{rec['tail']}\t{rec['label']}\t{rank}".encode())
            digest.update(np.float64(rec["score"]).tobytes())
    return digest.hexdigest()


def test_seeded_evaluations_reproduce_the_golden_digest():
    """Evaluation's negatives and scores, bit for bit: any change in how a
    corruption is drawn, or in the order of a sum in scoring, moves the hash.

    Pinned with numpy 2.4.6 on OpenBLAS 0.3.31 (scipy-openblas, DYNAMIC_ARCH,
    x86-64 with AVX-512).  Another BLAS, or another kernel chosen for another
    CPU, may round a product differently and so move the hash without any
    change to the code.
    """
    assert _evaluation_digest() == GOLDEN_EVALUATION_SHA256


def test_evaluate_leak_check_fires_when_test_edges_stay_in_the_graph(monkeypatch):
    g = random_kg(np.random.default_rng(11), 8, 2, 40)
    scorer = scorer_fixture(g.relation_names)
    test_edges = g.triples[:6]
    evaluate(scorer, g, test_edges, num_negatives=3, seed=0)
    monkeypatch.setattr(sys.modules["grail.evaluate"], "without_triples", lambda graph, _: graph)
    with pytest.raises(AssertionError, match="held-out edge leaked into message passing"):
        evaluate(scorer, g, test_edges, num_negatives=3, seed=0)


def test_aux_features_are_looked_up_by_entity_name():
    rng = np.random.default_rng(12)
    g = random_kg(rng, 12, 2, 50)
    aux = {name: rng.standard_normal(3) for name in g.entity_names}
    tcfg = TrainConfig(margin=2.0, lr=0.05, epochs=1, batch_size=8, hops=2, seed=3)
    gcfg = GnnConfig(num_layers=2, hidden_dim=4, num_bases=2, edge_dropout_rate=0.2,
                     input_dim=feature_dim(2, 3))
    best, _, _ = train(g, g.triples[:3], tcfg, gcfg, aux_features=aux)
    # the same graph, its entity ids permuted against the order of the aux table
    perm = [int(i) for i in rng.permutation(g.num_entities)]
    new_id = {old: new for new, old in enumerate(perm)}
    g2 = from_parts([g.entity_names[old] for old in perm], g.relation_names,
                    [(new_id[h], r, new_id[t]) for h, r, t in g.triples])
    test_edges = g2.triples[:4]
    report = evaluate(scorer_from_checkpoint(best, aux), g2, test_edges, num_negatives=3, seed=0)
    params, gcfg, _ = model_from_checkpoint(best)
    msg = without_triples(g2, test_edges)
    aux_by_id = {g2.entity_ids[name]: vec for name, vec in aux.items()}
    assert len(report.records) == 2 * len(test_edges)
    for rec in report.records:
        h, r, t = g2.entity_ids[rec["head"]], g2.relation_ids[rec["rel"]], g2.entity_ids[rec["tail"]]
        sub = label_nodes(extract_enclosing(msg, h, t, r, 2), aux_features=aux_by_id)
        expect = score_triplet(sub, params, gcfg).item()
        assert abs(rec["score"] - expect) <= 1e-12 * max(1.0, abs(expect))
    # an entity without a vector is named
    name = g2.entity_names[test_edges[0][0]]
    partial = {k: v for k, v in aux.items() if k != name}
    with pytest.raises(ValueError, match=f"auxiliary features missing entity '{name}'"):
        evaluate(scorer_from_checkpoint(best, partial), g2, test_edges, num_negatives=3)


def test_evaluate_removes_test_edges_before_scoring():
    rng = np.random.default_rng(5)
    g = random_kg(rng, 10, 2, 40)
    test_edges = g.triples[:4]

    def scorer(graph, candidates, held_out):
        assert held_out == set(test_edges)
        return [float(len(graph.triples))] * len(candidates)

    report = evaluate(scorer, g, test_edges, num_negatives=5, seed=0)
    for rec in report.records:
        assert rec["score"] == float(len(g.triples) - len(test_edges))


def test_evaluate_perfect_scorer():
    rng = np.random.default_rng(6)
    g = random_kg(rng, 12, 2, 50)
    test_edges = [t for t in g.triples[:5]]
    truth = set(test_edges)

    def scorer(graph, candidates, held_out):
        return [1.0 if cand in truth else 0.0 for cand in candidates]

    report = evaluate(scorer, g, test_edges, num_negatives=20, seed=1)
    assert report.auc_pr == 1.0
    assert report.hits_at_10 == 1.0
    assert report.num_test == 5
    assert len(report.records) == 2 * 5


def test_evaluate_constant_scorer():
    rng = np.random.default_rng(7)
    g = random_kg(rng, 12, 2, 50)
    report = evaluate(lambda g, cands, held: [0.0] * len(cands), g, g.triples[:6],
                      num_negatives=50, seed=2)
    assert report.auc_pr == pytest.approx(0.5)  # prevalence with 1 neg per pos
    # rank of a fully tied positive among 50 negatives is 26
    assert report.hits_at_10 == 0.0


def test_evaluate_skips_self_loops():
    g = load_triples("a\tr\tb\nb\tr\tc\nc\tr\ta\nd\tr\td\na\tr\tc\n")
    test_edges = [(g.entity_ids["d"], 0, g.entity_ids["d"]),
                  (g.entity_ids["a"], 0, g.entity_ids["c"])]
    report = evaluate(lambda g, cands, held: [1.0] * len(cands), g, test_edges,
                      num_negatives=2, seed=0)
    assert report.skipped_self_loops == 1
    assert report.num_test == 1
    with pytest.raises(ValueError, match="self-loops"):
        evaluate(lambda g, cands, held: [1.0] * len(cands), g, [test_edges[0]],
                 num_negatives=2, seed=0)


def test_evaluate_input_validation():
    g = load_triples("a\tr\tb\nb\tr\tc\n")
    with pytest.raises(ValueError, match="no test edges"):
        evaluate(lambda g, cands, held: [1.0] * len(cands), g, [], num_negatives=2)
    # no rank negatives would rank every positive first
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"num_negatives must be >= 1, got {bad}"):
            evaluate(lambda g, cands, held: [1.0] * len(cands), g, [(0, 0, 1)], num_negatives=bad)


def test_report_files_roundtrip(tmp_path):
    report = EvalReport(
        auc_pr=0.875, hits_at_10=0.5, num_test=2, num_negatives=3, seed=9,
        records=[
            {"head": "a", "rel": "r", "tail": "b", "label": 1, "score": 1.5, "rank": 1},
            {"head": "a", "rel": "r", "tail": "c", "label": 0, "score": -0.5, "rank": None},
        ],
    )
    rp = str(tmp_path / "report.txt")
    write_report(report, rp)
    text = open(rp).read()
    assert "auc_pr=0.875" in text and "hits_at_10=0.5" in text

    cp = str(tmp_path / "trip.csv")
    write_triplet_csv(report, cp)
    lines = open(cp).read().splitlines()
    assert lines[0] == "head,rel,tail,label,score,rank"
    assert lines[1] == "a,r,b,1,1.5,1"
    assert lines[2] == "a,r,c,0,-0.5,"

    sp = str(tmp_path / "scores.tsv")
    write_scores_file(report, sp)
    scores = parse_score_file(open(sp).read())
    assert scores == {("a", "r", "b"): 1.5, ("a", "r", "c"): -0.5}

    lp = str(tmp_path / "labels.tsv")
    write_labels_file(report, lp)
    labels = parse_labels_file(open(lp).read())
    assert labels == {("a", "r", "b"): 1, ("a", "r", "c"): 0}


def test_triplet_csv_quotes_names_with_commas_and_quotes(tmp_path):
    records = [
        {"head": "Paris, France", "rel": 'capital "of"', "tail": "France", "label": 1,
         "score": 2.25, "rank": 3},
        {"head": "a", "rel": "r", "tail": "b", "label": 0, "score": -0.5, "rank": None},
    ]
    report = EvalReport(auc_pr=1.0, hits_at_10=1.0, num_test=1, num_negatives=1, seed=0,
                        records=records)
    cp = str(tmp_path / "ranks.csv")
    write_triplet_csv(report, cp)
    with open(cp, newline="") as f:
        rows = list(csv.reader(f))
    assert rows == [
        ["head", "rel", "tail", "label", "score", "rank"],
        ["Paris, France", 'capital "of"', "France", "1", "2.25", "3"],
        ["a", "r", "b", "0", "-0.5", ""],
    ]


def test_score_file_first_entry_wins():
    table = parse_score_file("a\tr\tb\t1.0\na\tr\tb\t2.0\n")
    assert table == {("a", "r", "b"): 1.0}


def test_parse_errors():
    with pytest.raises(ValueError, match="malformed score line 1"):
        parse_score_file("a,r,b,1.0\n")
    with pytest.raises(ValueError, match="non-numeric score"):
        parse_score_file("a\tr\tb\tzap\n")
    with pytest.raises(ValueError, match="no score lines"):
        parse_score_file("")
    with pytest.raises(ValueError, match="malformed label line 1"):
        parse_labels_file("a\tr\tb\t2\n")
    with pytest.raises(ValueError, match="no label lines"):
        parse_labels_file("\n")


def test_align_score_tables():
    t1 = {("a", "r", "b"): 1.0, ("a", "r", "c"): 2.0}
    t2 = {("a", "r", "c"): 3.0, ("a", "r", "b"): 4.0}
    assert align_score_tables([t1, t2]) == [("a", "r", "b"), ("a", "r", "c")]
    with pytest.raises(ValueError, match="at least two"):
        align_score_tables([t1])
    t3 = {("a", "r", "b"): 5.0}
    with pytest.raises(ValueError, match="method 2 is missing"):
        align_score_tables([t1, t2, t3])


def fusion_data(rng, n, informative_noise=0.1):
    labels = (rng.random(n) < 0.5).astype(float)
    good = labels + informative_noise * rng.standard_normal(n)
    junk = rng.standard_normal(n)
    return np.column_stack([good, junk]), labels


def test_late_fusion_learns_informative_method():
    rng = np.random.default_rng(9)
    xv, yv = fusion_data(rng, 200)
    xt, yt = fusion_data(rng, 200)
    fused, w, losses = late_fusion(xv, yv, xt)
    assert losses[0] > losses[-1]
    assert np.all(np.isfinite(fused)) and fused.shape == (200,)
    assert w.shape == (3,)
    single = auc_pr(xt[yt == 1, 0], xt[yt == 0, 0])
    combined = auc_pr(fused[yt == 1], fused[yt == 0])
    assert combined >= single - 0.01
    # the informative method dominates the junk one
    assert abs(w[0]) > abs(w[1])


def test_late_fusion_of_identical_methods_preserves_ranking():
    rng = np.random.default_rng(10)
    xv, yv = fusion_data(rng, 150)
    x_same_v = np.column_stack([xv[:, 0], xv[:, 0]])
    x_same_t = np.column_stack([xv[:, 0], xv[:, 0]])
    fused, _, _ = late_fusion(x_same_v, yv, x_same_t)
    base = auc_pr(xv[yv == 1, 0], xv[yv == 0, 0])
    got = auc_pr(fused[yv == 1], fused[yv == 0])
    assert got == pytest.approx(base, abs=1e-6)


def test_late_fusion_validation():
    x = np.ones((4, 2))
    y = np.array([0.0, 1.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="m >= 2"):
        late_fusion(np.ones((4, 1)), y, np.ones((4, 1)))
    with pytest.raises(ValueError, match="same method count"):
        late_fusion(x, y, np.ones((4, 3)))
    with pytest.raises(ValueError, match="0/1"):
        late_fusion(x, np.array([0.0, 2.0, 0.0, 1.0]), x)


def test_ensemble_gain_formula():
    assert ensemble_gain(0.90, 0.92, 0.93) == pytest.approx(0.93 / 0.92 - 1.0, abs=1e-12)
    assert ensemble_gain(0.90, 0.92, 0.93) == pytest.approx(0.010870, abs=1e-5)
    assert ensemble_gain(0.92, 0.90, 0.92) == 0.0
    assert ensemble_gain(0.50, 0.40, 0.45) == pytest.approx(-0.1)
    with pytest.raises(ValueError, match="positive inputs"):
        ensemble_gain(0.0, 0.5, 0.5)


def test_ensemble_gain_benchmark_tables():
    # frozen four-pair fusion tables: singles, a shared partner method, and
    # the fused pair results; the mean relative gain is the quoted statistic
    partner_a = 90.91
    singles_a = [93.73, 93.08, 92.45, 93.55]
    fused_a = [94.30, 95.04, 94.78, 94.28]
    gains_a = [ensemble_gain(s, partner_a, f) for s, f in zip(singles_a, fused_a)]
    assert np.mean(gains_a) == pytest.approx(0.015036, abs=1e-5)

    partner_b = 97.79
    singles_b = [98.73, 97.73, 97.66, 98.54]
    fused_b = [98.87, 98.79, 98.85, 98.75]
    gains_b = [ensemble_gain(s, partner_b, f) for s, f in zip(singles_b, fused_b)]
    assert np.mean(gains_b) == pytest.approx(0.006154, abs=1e-5)


TRAIN_THEN_EVALUATE = """
import sys
from synth import rule_benchmark
from grail.evaluate import evaluate
from grail.model import GnnConfig
from grail.subgraph import feature_dim
from grail.train import TrainConfig, scorer_from_checkpoint, train
g_train, valid, g_ind, test = rule_benchmark(seed=0)
tcfg = TrainConfig(epochs=1, hops=2)
gcfg = GnnConfig(num_layers=1, hidden_dim=4, num_bases=1, input_dim=feature_dim(2))
best, _, _ = train(g_train, valid, tcfg, gcfg)
evaluate(scorer_from_checkpoint(best), g_ind, test, num_negatives=10)
print("numpy.ma" in sys.modules)
"""


def test_train_and_evaluate_leave_numpy_ma_unloaded():
    # np.unique, isin, intersect1d and union1d import numpy.ma: 1.3 MB of resident memory
    here = os.path.dirname(os.path.abspath(__file__))
    paths = [os.path.join(os.path.dirname(here), "src"), here]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    run = subprocess.run([sys.executable, "-c", TRAIN_THEN_EVALUATE], env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
