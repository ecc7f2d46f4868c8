"""Graph container, triple parsing, and neighborhood queries."""

import numpy as np
import pytest

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

from oracles import graphs_equal, khop_set_oracle, random_kg

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
    assert g2.out_edges == [[(0, 2)], [(1, 2)], []]
    assert g2.neighbors == [[2], [2], [0, 1]]


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
    with pytest.raises(ValueError, match="invalid entity id"):
        khop_nodes(g, -1, 1)
    with pytest.raises(ValueError, match="k must be"):
        khop_nodes(g, 0, 0)


def test_khop_matches_distance_oracle():
    rng = np.random.default_rng(0)
    for _ in range(60):
        g = random_kg(rng, num_entities=int(rng.integers(2, 14)),
                      num_relations=int(rng.integers(1, 4)),
                      num_edges=int(rng.integers(1, 30)))
        u = int(rng.integers(g.num_entities))
        k = int(rng.integers(1, 4))
        assert khop_nodes(g, u, k) == khop_set_oracle(g, u, k)


def test_khop_ignores_direction():
    g = load_triples("a\tr\tb\nc\tr\tb\n")
    assert khop_nodes(g, g.entity_ids["a"], 2) == {0, 1, 2}


def test_graphs_equal_detects_difference():
    g = load_triples(TOY)
    g2 = load_triples(TOY + "c\tr2\ta\n")
    assert graphs_equal(g, g)
    assert not graphs_equal(g, g2)


def test_indices_cover_all_triples():
    rng = np.random.default_rng(1)
    g = random_kg(rng, 10, 3, 40, allow_self_loops=True)
    indexed = [(h, r, t) for h, edges in enumerate(g.out_edges) for r, t in edges]
    assert sorted(indexed) == sorted(g.triples)  # each triple exactly once
    assert all(edges == sorted(edges) for edges in g.out_edges)
    for n in range(g.num_entities):
        touching = {t for h, _, t in g.triples if h == n} | {h for h, _, t in g.triples if t == n}
        assert g.neighbors[n] == sorted(touching)


def test_direct_construction_rejects_out_of_range_ids():
    for bad in [(0, 0, -1), (-1, 0, 1), (0, 0, 3), (3, 0, 0)]:
        with pytest.raises(ValueError, match="entity id out of range"):
            KnowledgeGraph(["a", "b", "c"], ["r"], [(0, 0, 1), bad])
    for bad in [(0, -1, 1), (0, 1, 1)]:
        with pytest.raises(ValueError, match="relation id out of range"):
            KnowledgeGraph(["a", "b", "c"], ["r"], [bad])


def test_direct_construction_builds_indices():
    g = KnowledgeGraph(["a", "b", "c"], ["r"], [(0, 0, 1)])
    assert g.out_edges == [[(0, 1)], [], []]
    assert g.neighbors == [[1], [0], []]
