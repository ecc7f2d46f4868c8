"""Enclosing-subgraph extraction and double-radius labeling."""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

import grail.subgraph
from grail.kg import from_parts, load_triples, without_triples
from grail.subgraph import (
    EXTRACTION_MODES,
    LABEL_SCHEMES,
    bounded_unions,
    extract_enclosing,
    extract_union,
    feature_dim,
    join,
    label_nodes,
    node_bounds,
    parse_aux_features,
    take_members,
)

from oracles import (
    double_radius_oracle,
    enclosing_set_oracle,
    induced_edges_oracle,
    khop_set_oracle,
    random_kg,
)

CHAIN = "u\tr\tm1\nm1\tr\tm2\nm2\tr\tv\nu\ts\tv\nx\tr\tu\nv\tr\ty\n"


def chain_graph():
    return load_triples(CHAIN)


def target(sub) -> tuple[int, int, int]:
    """The candidate edge of a one-member union, over its node rows."""
    return int(sub.u_rows[0]), int(sub.target_rels[0]), int(sub.v_rows[0])


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
    assert sub.nodes[2:].tolist() == sorted(sub.nodes[2:].tolist())
    assert target(sub) == (0, g.relation_ids["s"], 1)


def test_induced_edges_complete():
    rng = np.random.default_rng(3)
    for num_relations in [3, 60] * 20:
        g = random_kg(rng, 9, num_relations, 25, allow_self_loops=True)
        u, v = (int(x) for x in rng.choice(9, size=2, replace=False))
        r_t = int(rng.integers(num_relations))
        for mode in ("full_khop", "enclosing"):
            sub = extract_enclosing(g, u, v, r_t, 2, mode=mode)
            want = induced_edges_oracle(g, sub.nodes.tolist())
            if target(sub) not in want:  # the candidate edge is appended last
                want.append(target(sub))
            assert sub.edges.dtype == np.intp and sub.edges.shape == (len(want), 3)
            assert [tuple(e) for e in sub.edges.tolist()] == want


def _random_candidates(rng, g, count):
    pairs = [rng.choice(g.num_entities, size=2, replace=False) for _ in range(count)]
    return [(int(u), int(rng.integers(g.num_relations)), int(v)) for u, v in pairs]


def test_node_bounds_cover_every_member():
    rng = np.random.default_rng(31)
    tight = 0
    for trial in range(24):
        # sparse graphs leave isolated endpoints, whose members are u and v alone
        g = random_kg(rng, int(rng.integers(6, 30)), 3, int(rng.integers(2, 60)),
                      allow_self_loops=True)
        candidates = _random_candidates(rng, g, int(rng.integers(1, 12)))
        for mode in EXTRACTION_MODES:
            for k in (1, 2, 3):
                bounds = node_bounds(g, candidates, k, mode)
                sizes = extract_union(g, candidates, k, mode).member_sizes
                assert bounds.shape == sizes.shape and np.all(bounds >= sizes), (trial, mode, k)
                tight += int(np.sum(bounds == sizes))
    assert tight > 0  # a bound one node lower would miss some member


def _candidates_of(union) -> list[list[int]]:
    nodes = union.nodes
    return np.stack([nodes[union.u_rows], union.target_rels, nodes[union.v_rows]], axis=1).tolist()


def test_bounded_chunks_lay_the_candidates_end_to_end(monkeypatch):
    rng = np.random.default_rng(32)
    g = random_kg(rng, 40, 3, 120)
    candidates = _random_candidates(rng, g, 50)
    khop = type(g).khop
    looked_up = []

    def counted(self, nodes, k):
        looked_up.append(len(nodes))
        return khop(self, nodes, k)

    for mode in EXTRACTION_MODES:
        bounds = node_bounds(g, candidates, 2, mode)
        for budget in (1, 30, int(bounds.sum()) // 3, grail.subgraph.NODE_BUDGET):
            monkeypatch.setattr(grail.subgraph, "NODE_BUDGET", budget)
            monkeypatch.setattr(type(g), "khop", counted)
            looked_up.clear()
            unions = list(bounded_unions(g, candidates, 2, mode))
            monkeypatch.setattr(type(g), "khop", khop)
            # each candidate's k-hop sets are looked up once, for its bound and its extraction
            assert looked_up == [len(candidates)] * 2
            chunks = [_candidates_of(union) for union in unions]
            assert sum(chunks, []) == [list(c) for c in candidates]
            ends = np.cumsum([len(part) for part in chunks])
            for lo, hi, union in zip([0, *ends[:-1]], ends, unions):
                total = int(bounds[lo:hi].sum())
                assert total <= budget or hi - lo == 1
                # a chunk closes only where its next candidate would take it past the budget
                assert hi == len(bounds) or total + bounds[hi] > budget
                _assert_same_union(union, extract_union(g, candidates[lo:hi], 2, mode))
        monkeypatch.setattr(grail.subgraph, "NODE_BUDGET", 10**9)
        assert len(list(bounded_unions(g, candidates, 2, mode))) == 1
    # checked as extract_union checks, before any union is built
    with pytest.raises(ValueError, match="target nodes must differ"):
        next(bounded_unions(g, candidates + [(3, 0, 3)], 2))


def test_an_oversized_candidate_is_a_chunk_of_its_own(monkeypatch):
    # a 10-clique among 30 otherwise isolated entities: a candidate inside the
    # clique is bounded by 12 nodes at k=1, one between isolated entities by 3
    clique = [(a, 0, b) for a in range(10) for b in range(10) if a < b]
    g = from_parts([f"n{i}" for i in range(30)], ["r"], clique)
    small = [(10 + 2 * i, 0, 11 + 2 * i) for i in range(8)]
    candidates = small[:5] + [(0, 0, 1)] + small[5:]
    assert node_bounds(g, candidates, 1).tolist() == [3] * 5 + [12] + [3] * 3
    # three small bounds reach the budget exactly, so their chunk closes there
    monkeypatch.setattr(grail.subgraph, "NODE_BUDGET", 9)
    chunks = [_candidates_of(union) for union in bounded_unions(g, candidates, 1)]
    assert [len(part) for part in chunks] == [3, 2, 1, 3]
    assert chunks[2] == [[0, 0, 1]]


def test_target_edge_present_exactly_once():
    g = chain_graph()
    u, v = g.entity_ids["u"], g.entity_ids["v"]
    s = g.relation_ids["s"]
    # (u, s, v) is a real edge: no duplicate appended
    sub = extract_enclosing(g, u, v, s, 2)
    rows = [tuple(e) for e in sub.edges.tolist()]
    assert rows.count(target(sub)) == 1
    assert rows[sub.target_edge_pos[0]] == target(sub)
    # remove it from the graph: extraction appends it at the end
    g2 = without_triples(g, [(u, s, v)])
    sub2 = extract_enclosing(g2, u, v, s, 2)
    rows2 = [tuple(e) for e in sub2.edges.tolist()]
    assert rows2.count(target(sub2)) == 1
    assert sub2.target_edge_pos.tolist() == [len(rows2) - 1]


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


def test_one_pruning_pass_reaches_the_fixed_point():
    # a second pass over the returned nodes would prune nothing, and the
    # filtered edges and distances are those of the returned node set
    rng = np.random.default_rng(12)
    pruned = 0
    for _ in range(300):
        g = random_kg(rng, int(rng.integers(3, 16)), int(rng.integers(1, 4)),
                      int(rng.integers(2, 40)), allow_self_loops=True)
        u, v = (int(x) for x in rng.choice(g.num_entities, size=2, replace=False))
        for k in (1, 2, 3):
            for mode in EXTRACTION_MODES:
                sub = extract_enclosing(g, u, v, 0, k, mode=mode)
                du, dv = double_radius_oracle(g, sub.nodes.tolist(), k, u, v)
                assert (sub.dist_u.tolist(), sub.dist_v.tolist()) == (du, dv)
                want = induced_edges_oracle(g, sub.nodes.tolist())
                if target(sub) not in want:
                    want.append(target(sub))
                assert [tuple(e) for e in sub.edges.tolist()] == want
                if mode == "enclosing":
                    assert all(a + b <= k + 1 for a, b in zip(du[2:], dv[2:]))
                    assert set(sub.nodes) == enclosing_set_oracle(g, u, v, k)
                    ball = khop_set_oracle(g, u, k) & khop_set_oracle(g, v, k)
                    pruned += len(sub.nodes) < len(ball | {u, v})
    assert pruned > 100  # the pass did drop nodes, so the filter was exercised


# _extraction_digest(250) of the reference extraction (iterative pruning until
# nothing is pruned); any change to a subgraph, a distance or a feature moves it
GOLDEN_EXTRACTION_SHA256 = "402e9c3f9d0a5be077f8f30d1a0959f1a9d8c1955799b262f559a72dfd960eb1"


def _digest_graphs(num_graphs: int):
    """The digests' seeded random graphs, each with its k and four candidates (u, r, v)."""
    rng = np.random.default_rng(13)
    for _ in range(num_graphs):
        g = random_kg(rng, int(rng.integers(3, 30)), int(rng.integers(1, 6)),
                      int(rng.integers(2, 60)), allow_self_loops=True)
        k = int(rng.integers(1, 4))
        candidates = []
        for _ in range(4):
            u, v = (int(x) for x in rng.choice(g.num_entities, size=2, replace=False))
            candidates.append((u, int(rng.integers(g.num_relations)), v))
        yield g, k, candidates


def _hash_member(digest, sub, features) -> None:
    ints = np.concatenate([sub.nodes, sub.dist_u, sub.dist_v, sub.target_edge_pos])
    digest.update(ints.astype(np.int64).tobytes())
    digest.update(sub.edges.astype(np.int64).tobytes())
    for feats in features:
        digest.update(feats.tobytes())


def _extraction_digest(num_graphs: int) -> str:
    """sha256 over 8 seeded extractions per graph, labeled under both schemes.

    Four candidates on each random graph (self-loops included, k = 1-3), each
    extracted in both modes, so later candidates reuse the graph's k-hop memo.
    Hashes nodes, distances, target position, edge rows and feature bytes.
    """
    digest = hashlib.sha256()
    for g, k, candidates in _digest_graphs(num_graphs):
        for u, r, v in candidates:
            for mode in EXTRACTION_MODES:
                sub = extract_enclosing(g, u, v, r, k, mode=mode)
                _hash_member(digest, sub, [label_nodes(sub, s).features for s in LABEL_SCHEMES])
    return digest.hexdigest()


def _union_digest(num_graphs: int) -> str:
    """_extraction_digest's hash, with every extraction made inside a union.

    Per graph and mode, the four candidates are shuffled among 0-8 seeded
    filler candidates (extracted, never hashed) and extracted in seeded
    unions of 1-8 members.  Each union is labeled as a whole under both
    schemes, and each candidate's member is hashed as take_members gives it.
    """
    rng = np.random.default_rng(14)
    digest = hashlib.sha256()
    for g, k, candidates in _digest_graphs(num_graphs):
        members = {}
        for mode in EXTRACTION_MODES:
            queue = list(candidates)
            for _ in range(int(rng.integers(0, 9))):
                u, v = (int(x) for x in rng.choice(g.num_entities, size=2, replace=False))
                queue.append((u, int(rng.integers(g.num_relations)), v))
            order = rng.permutation(len(queue)).tolist()
            while order:
                size = int(rng.integers(1, 9))
                chunk, order = order[:size], order[size:]
                union = extract_union(g, [queue[i] for i in chunk], k, mode)
                labeled = [label_nodes(union, s) for s in LABEL_SCHEMES]
                for j, i in enumerate(chunk):
                    alone = [take_members(lab, [j]) for lab in labeled]
                    members[i, mode] = (alone[0], [sub.features for sub in alone])
        for i in range(len(candidates)):
            for mode in EXTRACTION_MODES:
                _hash_member(digest, *members[i, mode])
    return digest.hexdigest()


def test_extraction_is_bit_identical_to_the_golden_hash():
    # 2,000 extractions; a change here means subgraphs or labels moved
    assert _extraction_digest(250) == GOLDEN_EXTRACTION_SHA256


def test_unions_reproduce_the_golden_hash():
    # the same 2,000 extractions made inside unions of 1-8 members: a row or
    # edge offset that slips across members moves some member's hash
    assert _union_digest(250) == GOLDEN_EXTRACTION_SHA256


def _assert_same_union(a, b) -> None:
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


def test_take_members_gathers_what_join_concatenates():
    # over random unions of 1-8 members in both modes, labeled or not
    rng = np.random.default_rng(15)
    for trial in range(120):
        g = random_kg(rng, int(rng.integers(3, 16)), int(rng.integers(1, 4)),
                      int(rng.integers(2, 40)), allow_self_loops=True)
        mode = EXTRACTION_MODES[trial % 2]
        parts = []
        for _ in range(int(rng.integers(1, 9))):
            u, v = (int(x) for x in rng.choice(g.num_entities, size=2, replace=False))
            parts.append(extract_enclosing(g, u, v, int(rng.integers(g.num_relations)), 2, mode))
        if trial % 3:
            parts = [label_nodes(p, LABEL_SCHEMES[trial % 2]) for p in parts]
        perm = rng.permutation(len(parts))
        _assert_same_union(take_members(join(parts), perm), join([parts[i] for i in perm]))
        rows = rng.integers(len(parts), size=int(rng.integers(1, 12)))  # repeats and omissions
        _assert_same_union(take_members(join(parts), rows), join([parts[i] for i in rows]))
        # a union of the reordered candidates is the reordered union
        candidates = [(int(p.nodes[0]), int(p.target_rels[0]), int(p.nodes[1])) for p in parts]
        _assert_same_union(take_members(extract_union(g, candidates, 2, mode), perm),
                           extract_union(g, [candidates[i] for i in perm], 2, mode))
    with pytest.raises(ValueError, match="at least one union"):
        join([])


def test_unions_own_their_node_and_edge_arrays():
    # scorers rewrite edges[:, 1] in place, so no union may alias the graph's read-only arrays
    g = chain_graph()
    for mode in EXTRACTION_MODES:
        union = extract_union(g, [(0, 0, 1), (0, 1, 3), (2, 0, 0)], 2, mode)
        shared = [g.out_indptr, g.out_rels, g.out_tails, g.und_indptr, g.und_nbrs,
                  *g._khop.values()]
        for a in (union.nodes, union.edges):
            assert a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in shared)
        union.edges[:, 1] = 0


def test_a_bad_later_member_fails_the_union_as_it_fails_alone():
    g = chain_graph()
    n, m = g.num_entities, g.num_relations
    good = [(0, 0, 1), (1, 1, 2)]
    for u, r, v in ((0, 0, n), (-1, 0, 1), (0, m, 1), (2, 0, 2)):
        with pytest.raises(ValueError) as alone:
            extract_enclosing(g, u, v, r, 2)
        for candidates in (good + [(u, r, v)], good + [(u, r, v)] + good):
            with pytest.raises(ValueError) as in_union:
                extract_union(g, candidates, 2)
            assert str(in_union.value) == str(alone.value)
    assert str(alone.value) == "target nodes must differ, got u == v == 2"
    with pytest.raises(ValueError, match="at least one candidate"):
        extract_union(g, [], 2)


def test_double_radius_labels():
    g = chain_graph()
    u, v = g.entity_ids["u"], g.entity_ids["v"]
    sub = label_nodes(extract_enclosing(g, u, v, g.relation_ids["s"], 2))
    nodes = sub.nodes.tolist()
    lu, lv = nodes.index(u), nodes.index(v)
    assert (sub.dist_u[lu], sub.dist_v[lu]) == (0, 1)
    assert (sub.dist_u[lv], sub.dist_v[lv]) == (1, 0)
    m1, m2 = nodes.index(g.entity_ids["m1"]), nodes.index(g.entity_ids["m2"])
    # distances computed with the opposite target removed
    assert (sub.dist_u[m1], sub.dist_v[m1]) == (1, 2)
    assert (sub.dist_u[m2], sub.dist_v[m2]) == (2, 1)


def test_labels_match_double_radius_oracle():
    # labels are distances inside the extracted subgraph, in both modes
    rng = np.random.default_rng(5)
    for _ in range(60):
        g = random_kg(rng, int(rng.integers(3, 14)), int(rng.integers(1, 4)),
                      int(rng.integers(2, 40)), allow_self_loops=True)
        u, v = (int(x) for x in rng.choice(g.num_entities, size=2, replace=False))
        for k in (1, 2, 3):
            for mode in EXTRACTION_MODES:
                sub = extract_enclosing(g, u, v, 0, k, mode=mode)
                du, dv = double_radius_oracle(g, sub.nodes.tolist(), k, u, v)
                assert (sub.dist_u.tolist(), sub.dist_v.tolist()) == (du, dv)
                feats = label_nodes(sub).features
                assert np.argmax(feats[:, : k + 2], axis=1).tolist() == du
                assert np.argmax(feats[:, k + 2 :], axis=1).tolist() == dv


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
    sub = extract_enclosing(g, 0, 1, 0, 2)
    lab = label_nodes(sub, scheme="constant")
    # every row encodes (1, 1); the stored distances stay as extracted
    want = np.zeros((sub.num_nodes, feature_dim(2)))
    want[:, [1, 5]] = 1.0  # a 1 in each half of width k + 2 = 4
    assert np.array_equal(lab.features, want)
    assert np.array_equal(lab.dist_u, sub.dist_u) and np.array_equal(lab.dist_v, sub.dist_v)


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


class _LookupOnly(dict):
    """A feature table that may be looked up but not scanned as a whole."""

    def values(self):
        raise AssertionError("the whole feature table was scanned")


def test_aux_features_looked_up_per_node_only():
    g = chain_graph()
    u, v = g.entity_ids["u"], g.entity_ids["v"]
    sub = extract_enclosing(g, u, v, g.relation_ids["s"], 2)
    aux = {n: np.array([float(n), 1.0]) for n in range(g.num_entities)}
    outside = next(n for n in range(g.num_entities) if n not in sub.nodes)
    aux[outside] = np.ones(3)  # read by no node of this subgraph
    lab = label_nodes(sub, aux_features=_LookupOnly(aux))
    want = label_nodes(sub, aux_features={n: aux[n] for n in sub.nodes})
    assert np.array_equal(lab.features, want.features)
    aux[sub.nodes[-1]] = np.ones(3)
    with pytest.raises(ValueError, match="mixed dimensions"):
        label_nodes(sub, aux_features=_LookupOnly(aux))


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


def test_parse_aux_features_rejects_a_repeated_entity():
    # a second line for an entity would silently replace its first vector
    with pytest.raises(ValueError, match="entity 'a' has features on lines 1 and 3"):
        parse_aux_features("a\t1,2\nb\t3,4\na\t5,6\n")
