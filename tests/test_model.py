"""Gated relational message passing: init, forward agreement, dropout, readout."""

from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest

import grail.autodiff as ad
from grail.autodiff import grad_check
from grail.kg import load_triples
from grail.model import (
    GnnConfig,
    init_params,
    layer_forward,
    sample_edge_masks,
    score_triplet,
)
from grail.subgraph import extract_enclosing, feature_dim, join, label_nodes

import tape_ops as ops
from oracles import attention_weight, dense_gnn_reference, layer_forward_chain, random_kg


def small_cfg(**kw):
    base = dict(num_layers=2, hidden_dim=4, num_bases=2, edge_dropout_rate=0.0,
                input_dim=feature_dim(2))
    base.update(kw)
    return GnnConfig(**base)


def random_labeled(rng, k=2):
    while True:
        g = random_kg(rng, int(rng.integers(4, 10)), 3, int(rng.integers(4, 28)),
                      allow_self_loops=True)
        u, v = (int(x) for x in rng.choice(g.num_entities, size=2, replace=False))
        sub = extract_enclosing(g, u, v, int(rng.integers(3)), k, mode="full_khop")
        if sub.num_nodes >= 3:
            return label_nodes(sub)


def test_config_validation():
    with pytest.raises(ValueError, match="num_layers"):
        GnnConfig(num_layers=0)
    with pytest.raises(ValueError, match="hidden_dim"):
        GnnConfig(hidden_dim=0)
    with pytest.raises(ValueError, match="num_bases"):
        GnnConfig(num_bases=0)
    with pytest.raises(ValueError, match="edge_dropout_rate"):
        GnnConfig(edge_dropout_rate=1.0)


def test_readout_dim():
    assert small_cfg(jk_enabled=True).readout_dim() == 2 * 4 * 4
    assert small_cfg(jk_enabled=False).readout_dim() == 4 * 4


def test_init_shapes():
    cfg = small_cfg()
    p = init_params(cfg, num_relations=3, rng=np.random.default_rng(0))
    assert len(p.layers) == 2
    lp0, lp1 = p.layers
    assert lp0.bases[0].shape == (cfg.input_dim, 4)
    assert lp1.bases[0].shape == (4, 4)
    assert lp0.coeffs.shape == (3, 2)
    assert lp0.attn_w1.shape == (2 * cfg.input_dim + 2 * 4, 4)
    assert lp1.attn_w1.shape == (2 * 4 + 2 * 4, 4)
    assert p.attn_rel_emb.shape == (3, 4)
    assert p.target_rel_emb.shape == (3, 4)
    assert p.readout_w.shape == (cfg.readout_dim(), 1)
    assert p.num_relations == 3
    # biases start at zero
    assert np.all(lp0.attn_b1.data == 0.0) and np.all(lp0.attn_b2.data == 0.0)


def test_init_deterministic():
    cfg = small_cfg()
    a = init_params(cfg, 3, np.random.default_rng(7))
    b = init_params(cfg, 3, np.random.default_rng(7))
    for name, t in a.named_tensors().items():
        assert np.array_equal(t.data, b.named_tensors()[name].data)
    c = init_params(cfg, 3, np.random.default_rng(8))
    assert not np.array_equal(a.readout_w.data, c.readout_w.data)


def test_init_rejects_bad_relation_count():
    with pytest.raises(ValueError, match="num_relations"):
        init_params(small_cfg(), 0, np.random.default_rng(0))


def test_attention_disabled_gate_is_one():
    cfg = small_cfg(attention_enabled=False)
    p = init_params(cfg, 3, np.random.default_rng(2))
    w = attention_weight(p, cfg, 0, np.ones(cfg.input_dim), np.ones(cfg.input_dim), 0, 1)
    assert w == 1.0


def test_attention_gate_in_unit_interval():
    cfg = small_cfg()
    p = init_params(cfg, 3, np.random.default_rng(3))
    rng = np.random.default_rng(4)
    for _ in range(10):
        w = attention_weight(p, cfg, 1, rng.standard_normal(4), rng.standard_normal(4),
                             int(rng.integers(3)), int(rng.integers(3)))
        assert 0.0 < w < 1.0


def test_forward_matches_dense_reference():
    rng = np.random.default_rng(5)
    variants = [
        dict(),
        dict(attention_enabled=False),
        dict(jk_enabled=False),
        dict(num_bases=1),
        dict(num_bases=3),
        dict(aggregate_in_neighbors=True),
        dict(num_layers=3),
        dict(attention_enabled=False, jk_enabled=False, aggregate_in_neighbors=True),
    ]
    for kw in variants:
        cfg = small_cfg(**kw)
        p = init_params(cfg, 3, rng)
        for _ in range(6):
            sub = random_labeled(rng)
            got = score_triplet(sub, p, cfg).item()
            want = dense_gnn_reference(sub, p, cfg)
            assert got == pytest.approx(want, abs=1e-10)


def test_forward_matches_dense_reference_with_dropout():
    rng = np.random.default_rng(6)
    cfg = small_cfg(edge_dropout_rate=0.5)
    p = init_params(cfg, 3, rng)
    for _ in range(8):
        sub = random_labeled(rng)
        masks = sample_edge_masks(sub, cfg, rng)
        got = score_triplet(sub, p, cfg, dropout_masks=masks).item()
        want = dense_gnn_reference(sub, p, cfg, dropout_masks=masks)
        assert got == pytest.approx(want, abs=1e-10)


def test_dropout_masks():
    rng = np.random.default_rng(7)
    sub = random_labeled(rng)
    cfg = small_cfg(edge_dropout_rate=0.5)
    masks = sample_edge_masks(sub, cfg, rng)
    assert len(masks) == cfg.num_layers
    for m in masks:
        assert m.shape == (len(sub.edges),)
        assert set(np.unique(m)) <= {0.0, 1.0}
        assert m[sub.target_edge_pos] == 1.0
    # rate 0 keeps everything
    for m in sample_edge_masks(sub, small_cfg(), rng):
        assert np.all(m == 1.0)


def test_split_uniform_draws_equal_one_draw():
    # a union's masks come from one draw where each member used to draw per
    # layer; they agree because consecutive draws continue one stream
    for a, b in ((0, 5), (3, 4), (17, 1), (100, 31)):
        stream = np.random.default_rng(9)
        split = np.concatenate([stream.random(a), stream.random(b)])
        assert np.array_equal(split, np.random.default_rng(9).random(a + b))


def test_union_masks_are_each_members_layer_draws_in_turn():
    rng = np.random.default_rng(14)
    cfg = small_cfg(num_layers=3, edge_dropout_rate=0.4)
    for _ in range(20):
        parts = [random_labeled(rng) for _ in range(int(rng.integers(1, 9)))]
        union = join(parts)
        seed = int(rng.integers(1 << 30))
        got = sample_edge_masks(union, cfg, np.random.default_rng(seed))
        # member after member, and within a member layer after layer
        stream = np.random.default_rng(seed)
        per_part = []
        for part in parts:
            masks = [(stream.random(len(part.edges)) >= 0.4).astype(float) for _ in range(3)]
            for m in masks:
                m[part.target_edge_pos] = 1.0
            per_part.append(masks)
        assert len(got) == cfg.num_layers
        for layer, mask in enumerate(got):
            assert np.array_equal(mask, np.concatenate([m[layer] for m in per_part]))
            assert np.all(mask[union.target_edge_pos] == 1.0)
    # rate 0 keeps every edge and draws nothing
    state = rng.bit_generator.state
    assert all(np.all(m == 1.0) for m in sample_edge_masks(union, small_cfg(), rng))
    assert rng.bit_generator.state == state


def test_dropout_keep_rate_statistics():
    rng = np.random.default_rng(8)
    sub = random_labeled(rng)
    cfg = small_cfg(num_layers=1, edge_dropout_rate=0.3)
    keeps = []
    for _ in range(400):
        m = sample_edge_masks(sub, cfg, rng)[0]
        keeps.append(np.delete(m, sub.target_edge_pos).mean())
    assert np.mean(keeps) == pytest.approx(0.7, abs=0.05)


def test_dropped_edge_changes_nothing_downstream():
    # zeroing an edge's mask must equal deleting its message entirely
    rng = np.random.default_rng(9)
    sub = random_labeled(rng)
    cfg = small_cfg(num_layers=1)
    p = init_params(cfg, 3, rng)
    pos = int(sub.target_edge_pos[0])
    e = 0 if pos != 0 else 1
    if len(sub.edges) <= max(e, pos):
        pytest.skip("degenerate draw")
    mask = np.ones(len(sub.edges))
    mask[e] = 0.0
    got = score_triplet(sub, p, cfg, dropout_masks=[mask]).item()
    pruned = replace(
        sub,
        edges=np.delete(sub.edges, e, axis=0),
        edge_target_rels=np.delete(sub.edge_target_rels, e),
        target_edge_pos=sub.target_edge_pos - (1 if e < pos else 0),
    )
    want = score_triplet(pruned, p, cfg).item()
    assert got == pytest.approx(want, abs=1e-12)


def test_layer_forward_mask_shape_error():
    rng = np.random.default_rng(10)
    sub = random_labeled(rng)
    cfg = small_cfg()
    p = init_params(cfg, 3, rng)
    import grail.autodiff as ad

    with pytest.raises(ValueError, match="dropout mask shape"):
        layer_forward(sub, ad.constant(sub.features), 0, p, cfg,
                      dropout_mask=np.ones(len(sub.edges) + 1))


def _run_layer(fn, batch, h_prev, layer, params, cfg, mask, snap, weights):
    """fn's output data, then the .grad of every parameter and of h_prev after
    backward from a loss that also reads h_prev (so its adjoint already holds a
    contribution when the layer's arrive)."""
    named = list(params.named_tensors().values())
    for t in named + [h_prev]:
        t.zero_grad()
    out = fn(batch, h_prev, layer, params, cfg, dropout_mask=mask, snap_alpha=snap)
    if ad.is_recording():
        first = ops.sum_all(ops.mul(out, ad.constant(weights[0])))
        ops.add(first, ops.sum_all(ops.mul(h_prev, ad.constant(weights[1])))).backward()
    return out.data, [t.grad.copy() for t in named + [h_prev]]


def test_fused_layer_equals_the_op_chain_bit_for_bit():
    rng = np.random.default_rng(31)
    for trial in range(64):
        attention, inward, dropout, snap, taped = ((trial >> bit) & 1 == 1 for bit in range(5))
        cfg = small_cfg(hidden_dim=int(rng.choice([1, 3, 5])), num_bases=int(rng.integers(1, 4)),
                        attention_enabled=attention, aggregate_in_neighbors=inward,
                        edge_dropout_rate=0.4 if dropout else 0.0)
        params = init_params(cfg, 3, rng)
        if snap:
            for lp in params.layers:
                lp.attn_w2.data *= 300.0  # saturate some gates, so that snapping moves them
        batch = join([random_labeled(rng) for _ in range(int(rng.integers(1, 6)))])
        layer = 1 if taped else 0
        if taped:
            h_prev = ad.parameter(rng.standard_normal((batch.num_nodes, cfg.hidden_dim)))
        else:
            h_prev = ad.constant(batch.features)
        before = h_prev.data.copy()
        mask = sample_edge_masks(batch, cfg, rng)[layer] if dropout else None
        weights = (rng.standard_normal((batch.num_nodes, cfg.hidden_dim)),
                   rng.standard_normal(h_prev.shape))
        for recording in (True, False):
            with nullcontext() if recording else ad.no_grad():
                want, want_grads = _run_layer(layer_forward_chain, batch, h_prev, layer,
                                              params, cfg, mask, snap, weights)
                got, got_grads = _run_layer(layer_forward, batch, h_prev, layer,
                                            params, cfg, mask, snap, weights)
            assert np.array_equal(got, want), (trial, recording)
            for g, w in zip(got_grads, want_grads):
                assert np.array_equal(g, w), (trial, recording)
            assert any(np.any(w != 0.0) for w in want_grads) == recording, trial
            assert np.array_equal(h_prev.data, before), trial


@pytest.mark.parametrize("recording", [True, False])
def test_layer_forward_rejects_an_edge_index_out_of_range(recording):
    rng = np.random.default_rng(14)
    sub = random_labeled(rng)
    cfg = small_cfg()
    p = init_params(cfg, 3, rng)
    h = ad.constant(sub.features)
    for col, value in [(0, -1), (2, -1), (1, -1), (0, sub.num_nodes), (2, sub.num_nodes), (1, 3)]:
        edges = sub.edges.copy()
        edges[0, col] = value
        with nullcontext() if recording else ad.no_grad():
            with pytest.raises(ValueError, match="edge index out of range"):
                layer_forward(replace(sub, edges=edges), h, 0, p, cfg)
    targets = sub.edge_target_rels.copy()
    targets[-1] = -1
    with nullcontext() if recording else ad.no_grad():
        with pytest.raises(ValueError, match="edge index out of range"):
            layer_forward(replace(sub, edge_target_rels=targets), h, 0, p, cfg)


def test_score_triplet_errors():
    rng = np.random.default_rng(11)
    cfg = small_cfg()
    p = init_params(cfg, 3, rng)
    sub = random_labeled(rng)
    bare = replace(sub, features=None)
    with pytest.raises(ValueError, match="unlabeled"):
        score_triplet(bare, p, cfg)
    with pytest.raises(ValueError, match="dropout masks"):
        score_triplet(sub, p, cfg, dropout_masks=[np.ones(len(sub.edges))])
    cfg_bad = small_cfg(input_dim=3)
    with pytest.raises(ValueError, match="input_dim"):
        score_triplet(sub, p, cfg_bad)


def test_score_gradients_check_out():
    rng = np.random.default_rng(12)
    cfg = small_cfg()
    p = init_params(cfg, 3, rng)
    sub = random_labeled(rng)
    params = list(p.named_tensors().values())
    err = grad_check(lambda: ops.sum_all(score_triplet(sub, p, cfg)), params,
                     max_coords_per_param=6, rng=np.random.default_rng(0))
    assert err < 1e-4


def test_grad_flows_to_every_parameter_family():
    rng = np.random.default_rng(13)
    cfg = small_cfg()
    p = init_params(cfg, 3, rng)
    g = load_triples("a\tr0\tb\nb\tr1\tc\nc\tr2\ta\nb\tr0\ta\n")
    sub = label_nodes(extract_enclosing(g, 0, 1, 0, 2))
    out = score_triplet(sub, p, cfg)
    out.backward()
    named = p.named_tensors()
    for family in ["layers.0.bases.0", "layers.0.coeffs", "layers.0.w_self",
                   "attn_rel_emb", "target_rel_emb", "readout_w"]:
        assert np.any(named[family].grad != 0.0), family
