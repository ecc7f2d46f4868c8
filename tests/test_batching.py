"""Scoring a disjoint union of subgraphs in one pass, and scoring without a tape.

A union must give every member the score and the gradient it gets alone,
training and evaluation must keep reaching the model through
`score_triplet` (one `layer_forward` call per layer), and scoring that never
runs backward must build no tape.
"""

import sys

import numpy as np
import pytest

import grail.autodiff as ad
from grail.autodiff import grad_check
from grail.evaluate import GrailScorer, evaluate
from grail.model import GnnConfig, batch_subgraphs, init_params, sample_edge_masks, score_triplet
from grail.subgraph import EXTRACTION_MODES, extract_enclosing, feature_dim, label_nodes
from grail.train import TrainConfig, hinge_loss, scorer_from_checkpoint, train

from oracles import random_kg, zero_grads

K = 2


def _cfg(**kw):
    base = dict(num_layers=2, hidden_dim=5, num_bases=2, edge_dropout_rate=0.3,
                input_dim=feature_dim(K))
    base.update(kw)
    return GnnConfig(**base)


def _random_sub(rng, mode, rel=None):
    g = random_kg(rng, int(rng.integers(4, 10)), 3, int(rng.integers(4, 28)),
                  allow_self_loops=True)
    u, v = (int(x) for x in rng.choice(g.num_entities, size=2, replace=False))
    rel = int(rng.integers(3)) if rel is None else rel
    return label_nodes(extract_enclosing(g, u, v, rel, K, mode=mode))


def test_union_scores_and_gradients_match_each_subgraph_alone():
    rng = np.random.default_rng(21)
    for trial in range(30):
        # every combination of attention, JK and message direction, both modes
        cfg = _cfg(attention_enabled=bool(trial & 1), jk_enabled=bool(trial & 2),
                   aggregate_in_neighbors=bool(trial & 4))
        mode = EXTRACTION_MODES[(trial // 8) % 2]
        params = init_params(cfg, 3, rng)
        named = list(params.named_tensors().values())
        subs = [_random_sub(rng, mode) for _ in range(int(rng.integers(1, 9)))]
        masks = [sample_edge_masks(s, cfg, rng) for s in subs]
        weights = rng.standard_normal(len(subs))

        zero_grads(named)
        union_masks = [np.concatenate(layer) for layer in zip(*masks)]
        scores = score_triplet(batch_subgraphs(subs), params, cfg, dropout_masks=union_masks)
        assert scores.shape == (len(subs), 1)
        ad.sum_all(ad.apply_mask(scores, weights.reshape(-1, 1))).backward()
        union_grads = [p.grad.copy() for p in named]

        zero_grads(named)
        for i, (sub, m) in enumerate(zip(subs, masks)):
            alone = score_triplet(sub, params, cfg, dropout_masks=m)
            got = scores.data[i, 0]
            assert abs(got - alone.item()) <= 1e-12 * max(1.0, abs(alone.item())), (trial, i)
            ad.sum_all(ad.apply_mask(alone, weights[i])).backward()  # grads accumulate
        for p, union_grad in zip(named, union_grads):
            scale = max(1.0, float(np.max(np.abs(p.grad))))
            assert np.max(np.abs(union_grad - p.grad)) <= 1e-10 * scale, trial


def test_batched_hinge_loss_gradients_check_out():
    rng = np.random.default_rng(22)
    cfg = _cfg(hidden_dim=4)
    params = init_params(cfg, 3, rng)
    # positives score relation 0 and negatives 1 or 2: where a positive and a
    # negative share a relation, its readout embedding's gradient cancels to
    # zero exactly and the finite difference measures only roundoff
    subs = [_random_sub(rng, "enclosing", rel=rel) for rel in (0, 1, 0, 2, 0, 1)]
    masks = [sample_edge_masks(s, cfg, rng) for s in subs]
    union = batch_subgraphs(subs)
    union_masks = [np.concatenate(layer) for layer in zip(*masks)]

    def loss():
        scores = score_triplet(union, params, cfg, dropout_masks=union_masks)
        pos, neg = ad.slice_rows(scores, [0, 2, 4]), ad.slice_rows(scores, [1, 3, 5])
        return ad.sum_all(hinge_loss(pos, neg, 10.0))

    err = grad_check(loss, list(params.named_tensors().values()), eps=1e-4,
                     max_coords_per_param=6, rng=np.random.default_rng(0))
    assert err < 1e-4


def _toy_run():
    rng = np.random.default_rng(23)
    g = random_kg(rng, 14, 2, 50)
    valid, test = g.triples[:3], g.triples[3:5]
    tcfg = TrainConfig(margin=2.0, lr=0.05, epochs=2, eval_every=1, batch_size=8, hops=K, seed=1)
    cfg = GnnConfig(num_layers=3, hidden_dim=4, num_bases=2, edge_dropout_rate=0.2,
                    input_dim=feature_dim(K))
    return g, valid, test, tcfg, cfg


def test_train_and_evaluate_score_through_the_traced_entry_points(monkeypatch):
    # The benchmark's tracer replaces `score_triplet` where grail.train and
    # grail.evaluate bind it and `layer_forward` in grail.model; per-layer
    # metrics divide by these call counts.
    g, valid, test, tcfg, cfg = _toy_run()
    model_mod = sys.modules["grail.model"]
    layer_forward, score = model_mod.layer_forward, model_mod.score_triplet
    layers = [0]
    calls = []

    def counted_layer(*args, **kwargs):
        layers[0] += 1
        return layer_forward(*args, **kwargs)

    def counted_score(*args, **kwargs):
        before = layers[0]
        out = score(*args, **kwargs)
        calls.append((layers[0] - before, out.shape[0], bool(out._parents)))
        return out

    monkeypatch.setattr(model_mod, "layer_forward", counted_layer)
    for name in ("grail.train", "grail.evaluate"):
        monkeypatch.setattr(sys.modules[name], "score_triplet", counted_score)

    best, _, _ = train(g, valid, tcfg, cfg)
    positives = [t for t in g.triples if t[0] != t[2]]
    batches = -(-len(positives) // tcfg.batch_size)
    # per epoch: one taped call per minibatch, then one untaped call per validation set
    per_epoch = [(cfg.num_layers, min(tcfg.batch_size, len(positives) - lo) * 2, True)
                 for lo in range(0, len(positives), tcfg.batch_size)]
    per_epoch += [(cfg.num_layers, len(valid), False)] * 2
    assert len(per_epoch) == batches + 2
    assert calls == per_epoch * tcfg.epochs

    calls.clear()
    evaluate(scorer_from_checkpoint(best), g, test, num_negatives=4, seed=0)
    # one untaped call per test edge: the positive, its AUC negative and its rank negatives
    assert calls == [(cfg.num_layers, 2 + 4, False)] * len(test)
    # the tracer patches this name on the class; without it, it would wrap type.__call__
    assert "__call__" in vars(GrailScorer)


def test_scorer_score_is_bit_identical_to_the_taped_score_and_has_no_parents(monkeypatch):
    rng = np.random.default_rng(24)
    g = random_kg(rng, 12, 3, 40)
    cfg = _cfg(edge_dropout_rate=0.0)
    params = init_params(cfg, 3, rng)
    scorer = GrailScorer(params, cfg, g.relation_names, hops=K)
    returned = []

    def keep(*args, **kwargs):
        out = score_triplet(*args, **kwargs)
        returned.append(out)
        return out

    monkeypatch.setattr(sys.modules["grail.evaluate"], "score_triplet", keep)
    candidates = [(h, r, t) for h, r, t in g.triples[:10] if h != t]
    got = scorer(g, candidates, set())
    assert len(returned) == 1
    assert returned[0]._parents == () and not returned[0].requires_grad
    subs = [label_nodes(extract_enclosing(g, h, t, r, K)) for h, r, t in candidates]
    taped = score_triplet(batch_subgraphs(subs), params, cfg)
    assert taped._parents and taped.requires_grad
    assert got == taped.data[:, 0].tolist()
    for score, sub in zip(got, subs):
        alone = score_triplet(sub, params, cfg).item()
        assert abs(score - alone) <= 1e-12 * max(1.0, abs(alone))


def test_batch_needs_members_and_labels():
    rng = np.random.default_rng(25)
    cfg = _cfg()
    params = init_params(cfg, 3, rng)
    sub = _random_sub(rng, "enclosing")
    bare = extract_enclosing(random_kg(rng, 6, 3, 12), 0, 1, 0, K)
    with pytest.raises(ValueError, match="at least one"):
        batch_subgraphs([])
    with pytest.raises(ValueError, match="unlabeled"):
        score_triplet(batch_subgraphs([sub, bare]), params, cfg)
