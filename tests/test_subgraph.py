"""Enclosing-subgraph extraction and double-radius labeling."""

import numpy as np
import pytest

from grail.kg import load_triples, without_triples
from grail.subgraph import (
    extract_enclosing,
    feature_dim,
    label_nodes,
    parse_aux_features,
)

from oracles import enclosing_set_oracle, induced_edges_oracle, khop_set_oracle, random_kg

CHAIN = "u\tr\tm1\nm1\tr\tm2\nm2\tr\tv\nu\ts\tv\nx\tr\tu\nv\tr\ty\n"


def chain_graph():
    return load_triples(CHAIN)


def test_extraction_matches_walk_oracle():
    rng = np.random.default_rng(0)
    for _ in range(150):
        g = random_kg(rng, num_entities=int(rng.integers(3, 13)),
                      num_relations=int(rng.integers(1, 4)),
                      num_edges=int(rng.integers(2, 36)),
                      allow_self_loops=True)
        u, v = rng.choice(g.num_entities, size=2, replace=False)
        u, v = int(u), int(v)
        k = int(rng.integers(1, 4))
        sub = extract_enclosing(g, u, v, 0, k)
        assert set(sub.nodes) == enclosing_set_oracle(g, u, v, k)


def test_full_khop_is_union():
    rng = np.random.default_rng(1)
    for _ in range(60):
        g = random_kg(rng, 8, 2, 20)
        u, v = (int(x) for x in rng.choice(8, size=2, replace=False))
        k = int(rng.integers(1, 4))
        sub = extract_enclosing(g, u, v, 0, k, mode="full_khop")
        assert set(sub.nodes) == khop_set_oracle(g, u, k) | khop_set_oracle(g, v, k)


def test_enclosing_subset_of_full_khop():
    rng = np.random.default_rng(2)
    for _ in range(40):
        g = random_kg(rng, 10, 3, 30)
        u, v = (int(x) for x in rng.choice(10, size=2, replace=False))
        enc = extract_enclosing(g, u, v, 0, 2)
        full = extract_enclosing(g, u, v, 0, 2, mode="full_khop")
        assert set(enc.nodes) <= set(full.nodes)


def test_canonical_node_order():
    g = chain_graph()
    u, v = g.entity_ids["u"], g.entity_ids["v"]
    sub = extract_enclosing(g, u, v, g.relation_ids["s"], 2)
    assert sub.nodes[0] == u and sub.nodes[1] == v
    assert sub.nodes[2:] == sorted(sub.nodes[2:])
    assert sub.local_index == {n: i for i, n in enumerate(sub.nodes)}


def test_induced_edges_complete():
    rng = np.random.default_rng(3)
    for num_relations in [3, 60] * 20:
        g = random_kg(rng, 9, num_relations, 25, allow_self_loops=True)
        u, v = (int(x) for x in rng.choice(9, size=2, replace=False))
        r_t = int(rng.integers(num_relations))
        for mode in ("full_khop", "enclosing"):
            sub = extract_enclosing(g, u, v, r_t, 2, mode=mode)
            want = induced_edges_oracle(g, sub.nodes)
            if sub.target not in want:  # the candidate edge is appended last
                want.append(sub.target)
            assert sub.edges == want


def test_target_edge_present_exactly_once():
    g = chain_graph()
    u, v = g.entity_ids["u"], g.entity_ids["v"]
    s = g.relation_ids["s"]
    # (u, s, v) is a real edge: no duplicate appended
    sub = extract_enclosing(g, u, v, s, 2)
    assert sub.edges.count(sub.target) == 1
    assert sub.edges[sub.target_edge_pos] == sub.target
    # remove it from the graph: extraction appends it at the end
    g2 = without_triples(g, [(u, s, v)])
    sub2 = extract_enclosing(g2, u, v, s, 2)
    assert sub2.edges.count(sub2.target) == 1
    assert sub2.target_edge_pos == len(sub2.edges) - 1


def test_extraction_validates():
    g = chain_graph()
    with pytest.raises(ValueError, match="must differ"):
        extract_enclosing(g, 0, 0, 0, 2)
    with pytest.raises(ValueError, match="k must be"):
        extract_enclosing(g, 0, 1, 0, 0)
    with pytest.raises(ValueError, match="extraction mode"):
        extract_enclosing(g, 0, 1, 0, 2, mode="bogus")
    with pytest.raises(ValueError, match="invalid relation id"):
        extract_enclosing(g, 0, 1, 99, 2)


def test_pruning_drops_dead_ends():
    # x and y hang off the ends of the u..v chain; they sit inside both 2-hop
    # balls (via the shortcut edge u-v) but on no admissible walk, so pruning
    # must drop them while keeping the chain interior m1, m2
    g = chain_graph()
    u, v = g.entity_ids["u"], g.entity_ids["v"]
    x, y = g.entity_ids["x"], g.entity_ids["y"]
    sub = extract_enclosing(g, u, v, g.relation_ids["s"], 2)
    kept = set(sub.nodes)
    assert x not in kept and y not in kept
    assert g.entity_ids["m1"] in kept and g.entity_ids["m2"] in kept


def test_double_radius_labels():
    g = chain_graph()
    u, v = g.entity_ids["u"], g.entity_ids["v"]
    sub = label_nodes(extract_enclosing(g, u, v, g.relation_ids["s"], 2))
    lu, lv = sub.local_index[u], sub.local_index[v]
    assert (sub.dist_u[lu], sub.dist_v[lu]) == (0, 1)
    assert (sub.dist_u[lv], sub.dist_v[lv]) == (1, 0)
    m1, m2 = sub.local_index[g.entity_ids["m1"]], sub.local_index[g.entity_ids["m2"]]
    # distances computed with the opposite target removed
    assert (sub.dist_u[m1], sub.dist_v[m1]) == (1, 2)
    assert (sub.dist_u[m2], sub.dist_v[m2]) == (2, 1)


def test_label_invariants_random():
    rng = np.random.default_rng(4)
    for _ in range(120):
        g = random_kg(rng, int(rng.integers(3, 12)), 2, int(rng.integers(2, 30)))
        u, v = (int(x) for x in rng.choice(g.num_entities, size=2, replace=False))
        k = int(rng.integers(1, 4))
        mode = "full_khop" if rng.random() < 0.5 else "enclosing"
        sub = label_nodes(extract_enclosing(g, u, v, 0, k, mode=mode))
        cap = k + 1
        assert all(0 <= d <= cap for d in sub.dist_u)
        assert all(0 <= d <= cap for d in sub.dist_v)
        feats = sub.features
        assert feats.shape == (sub.num_nodes, feature_dim(k))
        # exactly one hot per half
        assert np.array_equal(feats[:, : k + 2].sum(axis=1), np.ones(sub.num_nodes))
        assert np.array_equal(feats[:, k + 2 :].sum(axis=1), np.ones(sub.num_nodes))
        # feature rows encode the stored distances
        assert np.array_equal(np.argmax(feats[:, : k + 2], axis=1), sub.dist_u)
        assert np.array_equal(np.argmax(feats[:, k + 2 :], axis=1), sub.dist_v)


def test_constant_labels():
    g = chain_graph()
    sub = label_nodes(
        extract_enclosing(g, 0, 1, 0, 2), scheme="constant"
    )
    assert set(sub.dist_u) == {1} and set(sub.dist_v) == {1}
    assert np.all(sub.features[:, 1] == 1.0)


def test_unknown_scheme_rejected():
    g = chain_graph()
    sub = extract_enclosing(g, 0, 1, 0, 2)
    with pytest.raises(ValueError, match="labeling scheme"):
        label_nodes(sub, scheme="nope")


def test_aux_features_appended():
    g = chain_graph()
    u, v = g.entity_ids["u"], g.entity_ids["v"]
    sub = extract_enclosing(g, u, v, g.relation_ids["s"], 2)
    aux = {n: np.array([float(n), 2.0 * n]) for n in sub.nodes}
    lab = label_nodes(sub, aux_features=aux)
    assert lab.features.shape[1] == feature_dim(2, aux_dim=2)
    for i, orig in enumerate(lab.nodes):
        assert np.array_equal(lab.features[i, -2:], aux[orig])


def test_aux_features_errors():
    g = chain_graph()
    sub = extract_enclosing(g, 0, 1, 0, 2)
    with pytest.raises(ValueError, match="missing entity id"):
        label_nodes(sub, aux_features={sub.nodes[0]: np.ones(2)})
    bad = {n: np.ones(2) for n in sub.nodes}
    bad[sub.nodes[0]] = np.ones(3)
    with pytest.raises(ValueError, match="mixed dimensions"):
        label_nodes(sub, aux_features=bad)


def test_parse_aux_features():
    table = parse_aux_features("a\t1.0,2.0\nb\t3.0,4.0\n")
    assert set(table) == {"a", "b"}
    assert np.array_equal(table["a"], [1.0, 2.0])
    with pytest.raises(ValueError, match="malformed feature line 1"):
        parse_aux_features("a,1.0\n")
    with pytest.raises(ValueError, match="non-numeric"):
        parse_aux_features("a\t1.0,zap\n")
    with pytest.raises(ValueError, match="expected 2"):
        parse_aux_features("a\t1.0,2.0\nb\t1.0\n")
    with pytest.raises(ValueError, match="no feature lines"):
        parse_aux_features("\n")
