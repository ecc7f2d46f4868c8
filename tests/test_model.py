"""Gated relational message passing: init, forward agreement, dropout, readout."""

import numpy as np
import pytest

from grail.autodiff import grad_check
from grail.kg import load_triples
from grail.model import (
    GnnConfig,
    batch_subgraphs,
    init_params,
    layer_forward,
    params_from_named,
    sample_edge_masks,
    score_triplet,
)
from grail.subgraph import extract_enclosing, feature_dim, label_nodes

from oracles import attention_weight, dense_gnn_reference, random_kg


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


def test_init_zero_flag():
    p = init_params(small_cfg(), 3, np.random.default_rng(0), zero=True)
    for t in p.named_tensors().values():
        assert np.all(t.data == 0.0)


def test_init_rejects_bad_relation_count():
    with pytest.raises(ValueError, match="num_relations"):
        init_params(small_cfg(), 0, np.random.default_rng(0))


def test_named_roundtrip():
    p = init_params(small_cfg(), 3, np.random.default_rng(1))
    named = {k: t.data for k, t in p.named_tensors().items()}
    q = params_from_named(named)
    qn = q.named_tensors()
    assert set(qn) == set(named)
    for k in named:
        assert np.array_equal(named[k], qn[k].data)


def test_params_from_named_errors():
    p = init_params(small_cfg(), 3, np.random.default_rng(1))
    named = {k: t.data for k, t in p.named_tensors().items()}
    gap = {k: v for k, v in named.items() if not k.startswith("layers.0.")}
    with pytest.raises(ValueError, match="contiguous"):
        params_from_named(gap)
    nobases = {k: v for k, v in named.items() if ".bases." not in k}
    with pytest.raises(ValueError, match="no basis"):
        params_from_named(nobases)


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
    e = 0 if sub.target_edge_pos != 0 else 1
    if len(sub.edges) <= max(e, sub.target_edge_pos):
        pytest.skip("degenerate draw")
    mask = np.ones(len(sub.edges))
    mask[e] = 0.0
    got = score_triplet(sub, p, cfg, dropout_masks=[mask]).item()
    pruned = type(sub)(
        nodes=sub.nodes,
        edges=np.delete(sub.edges, e, axis=0),
        target=sub.target,
        target_edge_pos=sub.target_edge_pos - (1 if e < sub.target_edge_pos else 0),
        k=sub.k,
        dist_u=sub.dist_u,
        dist_v=sub.dist_v,
        features=sub.features,
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
        layer_forward(batch_subgraphs([sub]), ad.constant(sub.features), 0, p, cfg,
                      dropout_mask=np.ones(len(sub.edges) + 1))


def test_score_triplet_errors():
    rng = np.random.default_rng(11)
    cfg = small_cfg()
    p = init_params(cfg, 3, rng)
    sub = random_labeled(rng)
    bare = type(sub)(nodes=sub.nodes, edges=sub.edges, target=sub.target,
                     target_edge_pos=sub.target_edge_pos, k=sub.k,
                     dist_u=sub.dist_u, dist_v=sub.dist_v)
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
    from grail.autodiff import sum_all

    err = grad_check(lambda: sum_all(score_triplet(sub, p, cfg)), params,
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
