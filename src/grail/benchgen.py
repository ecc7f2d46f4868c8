"""Fully-inductive benchmark generation: disjoint train / test graph pairs.

The sampler unions capped BFS neighborhoods around uniformly chosen roots,
removes the sampled entities (and every edge touching them) from the source
graph, and repeats on the remainder to obtain a test graph whose entity set
is provably disjoint from training.  Test triples using relations the train
graph never exhibits are dropped, so the train relation vocabulary covers
the test graph.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .kg import KnowledgeGraph, atomic_open, from_parts, save_triples_file, without_triples

__all__ = [
    "SamplerConfig",
    "sample_inductive_pair",
    "split_test_edges",
    "write_benchmark",
]


@dataclass
class SamplerConfig:
    num_roots: int = 20
    hops: int = 3
    max_new_per_hop: int = 50
    target_edges: int = 5000
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_roots, self.hops, self.max_new_per_hop, self.target_edges) < 1:
            raise ValueError("all sampler counts must be >= 1")


def _capped_neighborhood(
    g: KnowledgeGraph, root: int, hops: int, cap: int, rng: np.random.Generator
) -> set[int]:
    """BFS from root keeping at most cap unvisited neighbors per frontier node,
    drawn uniformly without replacement."""
    visited = {root}
    frontier = [root]
    for _ in range(hops):
        nxt: list[int] = []
        for node in frontier:
            around = g.und_nbrs[g.und_indptr[node] : g.und_indptr[node + 1]].tolist()
            nbrs = [n for n in around if n not in visited]
            if not nbrs:
                continue
            if len(nbrs) > cap:
                idx = rng.choice(len(nbrs), size=cap, replace=False)
                chosen = [nbrs[i] for i in sorted(int(j) for j in idx)]
            else:
                chosen = nbrs
            for n in chosen:
                visited.add(n)
                nxt.append(n)
        if not nxt:
            break
        frontier = nxt
    return visited


def _count_induced(g: KnowledgeGraph, nodes: set[int]) -> int:
    return sum(1 for h, _, t in g.triples if h in nodes and t in nodes)


def _sample_nodes(g: KnowledgeGraph, cfg: SamplerConfig) -> set[int]:
    rng = np.random.default_rng(cfg.seed)
    n = g.num_entities
    num_roots = min(cfg.num_roots, n)
    roots = [int(r) for r in rng.choice(n, size=num_roots, replace=False)]
    nodes: set[int] = set()
    for root in roots:
        nodes |= _capped_neighborhood(g, root, cfg.hops, cfg.max_new_per_hop, rng)
        if _count_induced(g, nodes) >= cfg.target_edges:
            break
    return nodes


def _induced_graph(g: KnowledgeGraph, nodes: set[int]) -> KnowledgeGraph:
    """Compact subgraph on the node set; relation vocabulary shrinks to the
    relations its edges actually use."""
    order = sorted(nodes)
    ent_map = {old: new for new, old in enumerate(order)}
    raw = [(h, r, t) for h, r, t in g.triples if h in nodes and t in nodes]
    used = sorted({r for _, r, _ in raw})
    rel_map = {old: new for new, old in enumerate(used)}
    triples = [(ent_map[h], rel_map[r], ent_map[t]) for h, r, t in raw]
    return from_parts(
        [g.entity_names[i] for i in order],
        [g.relation_names[r] for r in used],
        triples,
    )


def sample_inductive_pair(
    g: KnowledgeGraph, cfg_train: SamplerConfig, cfg_test: SamplerConfig
) -> tuple[KnowledgeGraph, KnowledgeGraph]:
    """Sample an entity-disjoint (train graph, inductive test graph) pair.

    The train graph is the union of capped neighborhoods around cfg_train
    roots (induced edges), growing root by root until target_edges is
    reached.  Its entities and all their edges are removed, and the test
    graph is sampled from what remains with cfg_test.  Test triples whose
    relation the train graph lacks are dropped.  Disjointness and relation
    containment are asserted before returning.
    """
    train_nodes = _sample_nodes(g, cfg_train)
    g_train = _induced_graph(g, train_nodes)
    if not g_train.triples:
        raise ValueError("sampled train graph has no edges; increase sampler counts")
    rest_nodes = set(range(g.num_entities)) - train_nodes
    if not rest_nodes:
        raise ValueError(
            "removing the train sample leaves no entities; use a smaller train sampler config"
        )
    remainder = _induced_graph(g, rest_nodes)
    if not remainder.triples:
        raise ValueError(
            "removing the train sample leaves no edges; use a smaller train sampler config"
        )
    test_nodes = _sample_nodes(remainder, cfg_test)
    g_ind = _induced_graph(remainder, test_nodes)
    train_rels = set(g_train.relation_names)
    kept = [
        (h, r, t) for h, r, t in g_ind.triples if g_ind.relation_names[r] in train_rels
    ]
    if len(kept) != len(g_ind.triples):
        used_nodes = sorted({h for h, _, t in kept} | {t for h, _, t in kept})
        g_ind = _induced_graph(
            from_parts(g_ind.entity_names, g_ind.relation_names, kept), set(used_nodes)
        )
    if not g_ind.triples:
        raise ValueError(
            "inductive test graph is empty after sampling; adjust sampler configs"
        )
    assert not set(g_train.entity_names) & set(g_ind.entity_names), "entity sets overlap"
    assert set(g_ind.relation_names) <= train_rels, "test relation outside train vocabulary"
    return g_train, g_ind


def split_test_edges(
    g: KnowledgeGraph, fraction: float = 0.10, rng: np.random.Generator | None = None
) -> tuple[KnowledgeGraph, list[tuple[int, int, int]]]:
    """Withdraw ceil(fraction * |E|) uniformly chosen edges as test edges.

    Every withdrawn edge must keep both endpoints visible in the remaining
    message graph; violators are swapped for random survivors up to a bound,
    and any stragglers are returned to the message graph.  Message edges plus
    test edges always reconstitute the input graph exactly.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    if rng is None:
        rng = np.random.default_rng(0)
    m = len(g.triples)
    if m == 0:
        raise ValueError("cannot split an empty graph")
    want = math.ceil(fraction * m)
    if want >= m:
        raise ValueError(f"fraction {fraction} leaves an empty message graph ({m} edges)")
    test_idx = {int(i) for i in rng.choice(m, size=want, replace=False)}

    def violators() -> list[int]:
        seen: set[int] = set()
        for i, (h, _, t) in enumerate(g.triples):
            if i not in test_idx:
                seen.add(h)
                seen.add(t)
        return sorted(
            i for i in test_idx if g.triples[i][0] not in seen or g.triples[i][2] not in seen
        )

    bad = violators()
    budget = 50 * want + 200
    while bad and budget > 0:
        budget -= 1
        out = bad[0]
        swap_in = int(rng.integers(m))
        if swap_in in test_idx:
            continue
        test_idx.remove(out)
        test_idx.add(swap_in)
        bad = violators()
    for i in bad:
        test_idx.remove(i)
    test_edges = [g.triples[i] for i in sorted(test_idx)]
    message = without_triples(g, test_edges)
    if not message.triples:
        raise ValueError("split left an empty message graph")
    return message, test_edges


def _edge_lines(g: KnowledgeGraph, edges: list[tuple[int, int, int]]) -> str:
    return "".join(
        f"{g.entity_names[h]}\t{g.relation_names[r]}\t{g.entity_names[t]}\n"
        for h, r, t in edges
    )


def write_benchmark(
    out_dir: str,
    g_train: KnowledgeGraph,
    g_ind: KnowledgeGraph,
    seed: int = 0,
    valid_fraction: float = 0.10,
    test_fraction: float = 0.10,
) -> dict[str, dict[str, int]]:
    """Emit train.txt / valid.txt / test.txt / ind_test_graph.txt plus stats.tsv.

    valid.txt is carved out of the train graph (train.txt holds the rest);
    ind_test_graph.txt keeps all its edges, and test.txt lists the held-out
    fraction that evaluation must remove before message passing.
    """
    os.makedirs(out_dir, exist_ok=True)
    msg_train, valid_edges = split_test_edges(
        g_train, valid_fraction, np.random.default_rng([seed, 21])
    )
    _, test_edges = split_test_edges(
        g_ind, test_fraction, np.random.default_rng([seed, 22])
    )
    save_triples_file(msg_train, os.path.join(out_dir, "train.txt"))
    with atomic_open(os.path.join(out_dir, "valid.txt")) as f:
        f.write(_edge_lines(g_train, valid_edges))
    save_triples_file(g_ind, os.path.join(out_dir, "ind_test_graph.txt"))
    with atomic_open(os.path.join(out_dir, "test.txt")) as f:
        f.write(_edge_lines(g_ind, test_edges))
    stats = {
        "train": {
            "relations": g_train.num_relations,
            "nodes": g_train.num_entities,
            "links": len(g_train.triples),
        },
        "ind_test": {
            "relations": g_ind.num_relations,
            "nodes": g_ind.num_entities,
            "links": len(g_ind.triples),
        },
    }
    with atomic_open(os.path.join(out_dir, "stats.tsv")) as f:
        f.write("graph\trelations\tnodes\tlinks\n")
        for name, row in stats.items():
            f.write(f"{name}\t{row['relations']}\t{row['nodes']}\t{row['links']}\n")
    return stats
