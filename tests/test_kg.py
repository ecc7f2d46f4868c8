"""Graph container, triple parsing, and neighborhood queries."""

import gc
import weakref

import numpy as np
import pytest

import grail.kg
from grail.kg import (
    KnowledgeGraph,
    from_parts,
    khop_nodes,
    load_triples,
    load_triples_file,
    out_neighbors,
    save_triples_file,
    to_lines,
    without_triples,
)

from oracles import graphs_equal, khop_set_oracle, random_kg, undirected_dist_matrix

TOY = "a\tr1\tb\nb\tr2\tc\na\tr1\tc\n"


def test_parse_first_appearance_order():
    g = load_triples(TOY)
    assert g.entity_names == ["a", "b", "c"]
    assert g.relation_names == ["r1", "r2"]
    assert g.triples == [(0, 0, 1), (1, 1, 2), (0, 0, 2)]
    assert g.num_entities == 3 and g.num_relations == 2
    assert g.duplicates_dropped == 0


def test_parse_head_interned_before_tail():
    g = load_triples("x\tr\ty\ny\tr\tx\n")
    assert g.entity_ids == {"x": 0, "y": 1}


def test_duplicates_dropped_and_counted():
    g = load_triples(TOY + "a\tr1\tb\na\tr1\tb\n")
    assert g.duplicates_dropped == 2
    assert len(g.triples) == 3


def test_blank_lines_skipped():
    g = load_triples("\na\tr\tb\n\n\nb\tr\tc\n\n")
    assert len(g.triples) == 2


def test_crlf_line_endings_stripped():
    g = load_triples("a\tr\tb\r\nb\tr\tc\r\n")
    assert g.entity_names == ["a", "b", "c"]


def test_malformed_line_reports_lineno():
    with pytest.raises(ValueError, match="line 2"):
        load_triples("a\tr\tb\na\tr\n")
    with pytest.raises(ValueError, match="line 1"):
        load_triples("a\tr\tb\tc\n")
    with pytest.raises(ValueError, match="line 1"):
        load_triples("a\t\tb\n")


def test_empty_input_rejected():
    with pytest.raises(ValueError, match="no triples"):
        load_triples("")
    with pytest.raises(ValueError, match="no triples"):
        load_triples("\n\n")


def test_to_lines_roundtrip():
    g = load_triples(TOY)
    g2 = load_triples(to_lines(g))
    assert graphs_equal(g, g2)


def test_file_roundtrip(tmp_path):
    g = load_triples(TOY)
    p = str(tmp_path / "kg.txt")
    save_triples_file(g, p)
    g2 = load_triples_file(p)
    assert graphs_equal(g, g2)


def test_from_parts_validates_ids():
    with pytest.raises(ValueError, match="entity id out of range"):
        from_parts(["a"], ["r"], [(0, 0, 1)])
    with pytest.raises(ValueError, match="relation id out of range"):
        from_parts(["a", "b"], ["r"], [(0, 1, 1)])


def test_from_parts_dedups():
    g = from_parts(["a", "b"], ["r"], [(0, 0, 1), (0, 0, 1)])
    assert g.triples == [(0, 0, 1)] and g.duplicates_dropped == 1


def test_without_triples_keeps_vocab():
    g = load_triples(TOY)
    g2 = without_triples(g, [(0, 0, 1)])
    assert g2.entity_names == g.entity_names
    assert g2.relation_names == g.relation_names
    assert g2.triples == [(1, 1, 2), (0, 0, 2)]
    # rebuilt adjacency reflects the removal
    assert g2.out_indptr.tolist() == [0, 1, 2, 2]
    assert g2.out_rels.tolist() == [0, 1] and g2.out_tails.tolist() == [2, 2]
    assert g2.und_indptr.tolist() == [0, 1, 2, 4]
    assert g2.und_nbrs.tolist() == [2, 2, 0, 1]


def test_neighbor_queries_sorted():
    g = load_triples("a\tr\tc\na\tr\tb\nd\tr\tb\n")
    a, b, c, d = (g.entity_ids[x] for x in "abcd")
    assert out_neighbors(g, a, 0) == sorted([b, c])
    assert out_neighbors(g, d, 0) == [b]
    assert out_neighbors(g, b, 0) == []


def test_neighbor_queries_validate():
    g = load_triples(TOY)
    with pytest.raises(ValueError, match="invalid entity id"):
        out_neighbors(g, 99, 0)
    with pytest.raises(ValueError, match="invalid relation id"):
        out_neighbors(g, 0, 99)


def test_khop_validates():
    g = load_triples(TOY)
    with pytest.raises(ValueError, match="invalid entity id -1"):
        khop_nodes(g, [0, -1], 1)
    with pytest.raises(ValueError, match="invalid entity id 3"):
        khop_nodes(g, [3, 0], 1)
    with pytest.raises(ValueError, match="k must be"):
        khop_nodes(g, [0], 0)
    assert khop_nodes(g, [], 1) == []


def test_khop_matches_distance_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        g = random_kg(rng, num_entities=int(rng.integers(2, 14)),
                      num_relations=int(rng.integers(1, 4)),
                      num_edges=int(rng.integers(1, 30)))
        sources = [int(x) for x in rng.integers(g.num_entities, size=int(rng.integers(1, 6)))]
        k = int(rng.integers(1, 4))
        found = khop_nodes(g, sources, k)
        assert len(found) == len(sources)
        for u, (nodes, _) in zip(sources, found):
            assert nodes.dtype == np.intp and list(nodes) == sorted(khop_set_oracle(g, u, k))


def test_khop_distances_match_the_distance_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    for trial in range(60):
        g = random_kg(rng, num_entities=int(rng.integers(2, 14)),
                      num_relations=int(rng.integers(1, 4)),
                      num_edges=int(rng.integers(1, 30)), allow_self_loops=True)
        d = undirected_dist_matrix(g.num_entities, g.triples)
        # every node, then a repeated source
        sources = list(range(g.num_entities)) + [int(rng.integers(g.num_entities))]
        # every other graph is searched three sources at a time
        pairs = 3 * g.num_entities if trial % 2 else grail.kg.SEARCH_PAIRS
        monkeypatch.setattr(grail.kg, "SEARCH_PAIRS", pairs)
        for k in (1, 2, 3):
            found = khop_nodes(g, sources, k)
            assert len(found) == len(sources)
            for x, (nodes, dist) in zip(sources, found):
                assert dist.dtype == np.uint8 and dist.shape == nodes.shape
                assert nodes.tolist() == np.flatnonzero(d[x] <= k).tolist()
                assert dist.tolist() == d[x, nodes].astype(int).tolist()
        monkeypatch.undo()


def test_khop_levels_past_one_signed_byte():
    # a path 0 - 1 - ... - 199: levels up to 130 pass the 127 of a signed byte
    g = from_parts([f"n{i}" for i in range(200)], ["r"], [(i, 0, i + 1) for i in range(199)])
    [(nodes, dist)] = khop_nodes(g, [0], 130)
    assert nodes.tolist() == list(range(131)) and dist.tolist() == list(range(131))
    assert dist.dtype == np.uint8
    [(nodes, dist)] = khop_nodes(g, [150], 130)
    assert nodes.tolist() == list(range(20, 200))
    assert dist.tolist() == [abs(x - 150) for x in range(20, 200)]
    # k + 1 past one unsigned byte widens the levels
    [(nodes, dist), (_, back)] = khop_nodes(g, [0, 199], 255)
    assert dist.dtype == back.dtype == np.uint16 and nodes.tolist() == list(range(200))
    assert dist.tolist() == list(range(200)) and back.tolist() == list(range(199, -1, -1))


def test_khop_ignores_direction():
    g = load_triples("a\tr\tb\nc\tr\tb\n")
    assert khop_nodes(g, [g.entity_ids["a"]], 2)[0][0].tolist() == [0, 1, 2]


def test_khop_memo_matches_distance_oracle():
    rng = np.random.default_rng(3)
    for _ in range(60):
        g = random_kg(rng, num_entities=int(rng.integers(2, 14)),
                      num_relations=int(rng.integers(1, 4)),
                      num_edges=int(rng.integers(1, 30)), allow_self_loops=True)
        d = undirected_dist_matrix(g.num_entities, g.triples)
        for k in (1, 2, 3):
            # a node may be asked for twice in one call
            nodes = list(range(g.num_entities)) + [0]
            for x, (found, dist) in zip(nodes, g.khop(nodes, k)):
                assert isinstance(found, np.ndarray) and found.dtype == np.intp
                assert found.tolist() == sorted(khop_set_oracle(g, x, k))
                assert dist.tolist() == d[x, found].astype(int).tolist()


def _counting_khop_nodes(monkeypatch) -> list:
    runs = []
    search = grail.kg.khop_nodes

    def counted(g, nodes, k):
        runs.append((list(nodes), k))
        return search(g, nodes, k)

    monkeypatch.setattr(grail.kg, "khop_nodes", counted)
    return runs


def test_khop_memo_searches_once_per_node_and_k(monkeypatch):
    runs = _counting_khop_nodes(monkeypatch)
    g = load_triples(TOY)
    [first] = g.khop([0], 1)
    assert g.khop([0], 1)[0] is first
    assert runs == [([0], 1)]
    g.khop([0], 2)
    g.khop([1, 0, 2, 1], 1)  # only the nodes not memoized yet, each once, in one search
    g.khop([0, 2], 2)
    assert runs == [([0], 1), ([0], 2), ([1, 2], 1), ([2], 2)]
    g.khop([2, 1, 0], 1)
    assert len(runs) == 4
    with pytest.raises(ValueError, match="k must be"):
        g.khop([0], 0)
    with pytest.raises(ValueError, match="invalid entity id"):
        g.khop([99], 1)


def test_khop_searches_in_chunks_of_the_pair_budget(monkeypatch):
    rng = np.random.default_rng(41)
    g = random_kg(rng, 30, 3, 70)
    nodes = [int(x) for x in rng.integers(30, size=40)]
    whole = khop_nodes(g, nodes, 3)
    searched = []
    search = grail.kg._search

    def counted(graph, sources, k):
        searched.append(sources.tolist())
        return search(graph, sources, k)

    monkeypatch.setattr(grail.kg, "_search", counted)
    monkeypatch.setattr(grail.kg, "SEARCH_PAIRS", 7 * g.num_entities + 5)  # 7 sources a search
    g.khop(nodes[:6], 3)
    searched.clear()
    got = g.khop(nodes, 3)
    for a, b in zip(got, whole, strict=True):
        for x, y in zip(a, b, strict=True):
            assert x.dtype == y.dtype and not x.flags.writeable and np.array_equal(x, y)
    # each node not memoized yet, once, in order, seven at a time
    todo = [x for x in dict.fromkeys(nodes) if x not in nodes[:6]]
    assert [x for chunk in searched for x in chunk] == todo
    assert [len(chunk) for chunk in searched[:-1]] == [7] * (len(searched) - 1) and len(searched) > 2
    # a budget below one entity row still searches one source at a time
    monkeypatch.setattr(grail.kg, "SEARCH_PAIRS", 1)
    searched.clear()
    assert all(np.array_equal(x, y) for a, b in zip(khop_nodes(g, nodes[:3], 3), whole)
               for x, y in zip(a, b, strict=True))
    assert searched == [[x] for x in nodes[:3]]


def test_khop_memo_does_not_cross_graphs(monkeypatch):
    g = load_triples("a\tr\tb\nb\tr\tc\n")
    a = g.entity_ids["a"]
    assert g.khop([a], 2)[0][0].tolist() == [0, 1, 2]
    runs = _counting_khop_nodes(monkeypatch)
    g2 = without_triples(g, [(1, 0, 2)])
    assert g2._khop == {}
    assert g2.khop([a], 2)[0][0].tolist() == [0, 1]  # searched again on the smaller graph
    assert runs == [([a], 2)]
    assert g.khop([a], 2)[0][0].tolist() == [0, 1, 2]


def test_khop_memo_takes_no_part_in_equality():
    warm, fresh = load_triples(TOY), load_triples(TOY)
    warm.khop(range(warm.num_entities), 2)
    assert warm._khop and not fresh._khop
    assert warm == fresh
    assert "_khop" not in repr(warm)


def test_khop_memo_is_freed_with_its_graph():
    g = load_triples(TOY)
    g.khop(range(g.num_entities), 2)
    ref = weakref.ref(g)
    del g
    gc.collect()
    assert ref() is None


def test_graphs_equal_detects_difference():
    g = load_triples(TOY)
    g2 = load_triples(TOY + "c\tr2\ta\n")
    assert graphs_equal(g, g)
    assert not graphs_equal(g, g2)


def _check_csrs(g: KnowledgeGraph) -> None:
    """Both CSRs against brute force from g.triples."""
    n = g.num_entities
    assert g.out_indptr.tolist() == [0] + np.cumsum(
        [sum(h == x for h, _, _ in g.triples) for x in range(n)]).tolist()
    for x in range(n):
        lo, hi = g.out_indptr[x], g.out_indptr[x + 1]
        out = list(zip(g.out_rels[lo:hi].tolist(), g.out_tails[lo:hi].tolist()))
        assert out == sorted((r, t) for h, r, t in g.triples if h == x)  # repeats kept
        lo, hi = g.und_indptr[x], g.und_indptr[x + 1]
        touching = {t for h, _, t in g.triples if h == x} | {h for h, _, t in g.triples if t == x}
        assert g.und_nbrs[lo:hi].tolist() == sorted(touching)  # x itself if it has a self-loop
    assert g.und_indptr[-1] == len(g.und_nbrs)
    for a in (g.out_indptr, g.out_rels, g.out_tails, g.und_indptr, g.und_nbrs):
        assert a.dtype == np.intp


def test_indices_cover_all_triples():
    rng = np.random.default_rng(1)
    with_loops = 0
    for _ in range(20):
        g = random_kg(rng, int(rng.integers(1, 14)), int(rng.integers(1, 4)),
                      int(rng.integers(0, 50)), allow_self_loops=True)
        _check_csrs(g)
        with_loops += any(h == t for h, _, t in g.triples)
    assert with_loops >= 5


def test_graph_arrays_are_read_only():
    g = load_triples(TOY)
    found = [a for pair in g.khop([0, 1], 2) + khop_nodes(g, [2], 1) for a in pair]
    assert len(found) == 6
    for a in (g.out_indptr, g.out_rels, g.out_tails, g.und_indptr, g.und_nbrs, *found):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_direct_construction_rejects_out_of_range_ids():
    for bad in [(0, 0, -1), (-1, 0, 1), (0, 0, 3), (3, 0, 0)]:
        with pytest.raises(ValueError, match="entity id out of range"):
            KnowledgeGraph(["a", "b", "c"], ["r"], [(0, 0, 1), bad])
    for bad in [(0, -1, 1), (0, 1, 1)]:
        with pytest.raises(ValueError, match="relation id out of range"):
            KnowledgeGraph(["a", "b", "c"], ["r"], [bad])
    # the first bad triple is named, whichever check it fails
    with pytest.raises(ValueError, match=r"triple \(0,1,1\) has relation id"):
        KnowledgeGraph(["a", "b", "c"], ["r"], [(0, 0, 1), (0, 1, 1), (0, 0, 3)])


def test_direct_construction_builds_indices():
    g = KnowledgeGraph(["a", "b", "c"], ["r", "s"], [(0, 1, 1), (0, 0, 1), (2, 0, 2), (0, 1, 1)])
    _check_csrs(g)
    assert g.out_indptr.tolist() == [0, 3, 3, 4]
    assert g.out_rels.tolist() == [0, 1, 1, 0] and g.out_tails.tolist() == [1, 1, 1, 2]
    assert g.und_indptr.tolist() == [0, 1, 2, 3] and g.und_nbrs.tolist() == [1, 0, 2]
