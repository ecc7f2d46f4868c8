"""Enclosing-subgraph extraction and double-radius node labeling."""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, replace
from itertools import chain

import numpy as np

from .kg import KnowledgeGraph, khop_nodes

UNREACHABLE = -1

EXTRACTION_MODES = ("enclosing", "full_khop")
LABEL_SCHEMES = ("double_radius", "constant")


@dataclass
class LabeledSubgraph:
    """A candidate edge's local neighborhood with positional node features.

    Nodes are original graph ids in canonical order (u, v, then ascending);
    edges are (E, 3) directed (head, relation, tail) rows over local indices.
    The scored candidate edge appears in `edges` exactly once, at position
    `target_edge_pos`.  dist_u/dist_v are the double-radius distances of
    each node; features are set by label_nodes.
    """

    nodes: list[int]
    edges: np.ndarray
    target: tuple[int, int, int]
    target_edge_pos: int
    k: int
    dist_u: list[int]
    dist_v: list[int]
    features: np.ndarray | None = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


def _undirected_adjacency(num_nodes: int, edges: list[tuple[int, int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(num_nodes)]
    for h, _, t in edges:
        if h != t:
            adj[h].add(t)
            adj[t].add(h)
    return adj


def _bfs_without(adj: list[set[int]], start: int, removed: int) -> list[int]:
    """Undirected BFS distances from start with one node (and its edges) removed."""
    dist = [UNREACHABLE] * len(adj)
    if start == removed:
        return dist
    dist[start] = 0
    q = deque([start])
    while q:
        cur = q.popleft()
        for nxt in adj[cur]:
            if nxt == removed or dist[nxt] != UNREACHABLE:
                continue
            dist[nxt] = dist[cur] + 1
            q.append(nxt)
    return dist


def extract_enclosing(
    g: KnowledgeGraph,
    u: int,
    v: int,
    r_t: int,
    k: int,
    mode: str = "enclosing",
) -> LabeledSubgraph:
    """Extract the local subgraph evidence for candidate edge (u, r_t, v).

    enclosing: intersection of the k-hop neighborhoods of u and v, then
    iterative pruning of nodes whose distance-to-u (computed with v removed)
    plus distance-to-v (computed with u removed) exceeds k + 1 inside the
    induced subgraph.  The surviving set is exactly the nodes lying on a
    u-v path of length <= k + 1 whose u-side stays clear of v and whose
    v-side stays clear of u; isolated and unreachable nodes go too.

    full_khop: union of the two k-hop neighborhoods, no pruning.

    Both modes keep the distances of the final node set as the
    double-radius labels: each one is a shortest undirected path in the
    subgraph with the other target node removed, capped at k + 1 (which
    unreachable nodes get too), and the targets themselves are pinned to
    (0, 1) and (1, 0) so the model can identify them.  The candidate edge
    never shortens a path, since each search removes one of its ends.

    The candidate edge is appended to the edge list if not already induced,
    so message passing can always see it.
    """
    g.check_entity(u)
    g.check_entity(v)
    g.check_relation(r_t)
    if u == v:
        raise ValueError(f"target nodes must differ, got u == v == {u}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode not in EXTRACTION_MODES:
        raise ValueError(f"unknown extraction mode {mode!r}, expected one of {EXTRACTION_MODES}")

    nu = khop_nodes(g, u, k)
    nv = khop_nodes(g, v, k)
    keep = nu | nv if mode == "full_khop" else (nu & nv) | {u, v}
    while True:
        nodes = [u, v] + sorted(keep - {u, v})
        edges = _induced_edges(g, {n: i for i, n in enumerate(nodes)})
        adj = _undirected_adjacency(len(nodes), edges)
        du = _bfs_without(adj, 0, 1)
        dv = _bfs_without(adj, 1, 0)
        if mode == "full_khop":
            break
        pruned = {
            n
            for i, n in enumerate(nodes[2:], start=2)
            if du[i] == UNREACHABLE or dv[i] == UNREACHABLE or du[i] + dv[i] > k + 1
        }
        if not pruned:
            break
        keep -= pruned

    cap = k + 1
    dist_u = [cap if d == UNREACHABLE else min(d, cap) for d in du]
    dist_v = [cap if d == UNREACHABLE else min(d, cap) for d in dv]
    dist_u[0], dist_v[0] = 0, 1
    dist_u[1], dist_v[1] = 1, 0
    target = (0, r_t, 1)
    try:
        pos_t = edges.index(target)
    except ValueError:
        edges.append(target)
        pos_t = len(edges) - 1
    return LabeledSubgraph(
        nodes=nodes,
        edges=np.fromiter(chain.from_iterable(edges), np.intp, 3 * len(edges)).reshape(-1, 3),
        target=target,
        target_edge_pos=pos_t,
        k=k,
        dist_u=dist_u,
        dist_v=dist_v,
    )


def _induced_edges(g: KnowledgeGraph, local_index: dict[int, int]) -> list[tuple[int, int, int]]:
    """All graph edges between the given nodes, as sorted local-index triples."""
    edges = [
        (i, r, local_index[t])
        for h, i in local_index.items()
        for r, t in g.out_edges[h]
        if t in local_index
    ]
    edges.sort()
    return edges


def label_nodes(
    sub: LabeledSubgraph,
    scheme: str = "double_radius",
    aux_features: Mapping[int, np.ndarray] | None = None,
) -> LabeledSubgraph:
    """Attach one-hot node features; dist_u/dist_v stay as extracted.

    double_radius: node i is encoded by its (dist_u[i], dist_v[i]).

    constant: every node is encoded as (1, 1); an ablation that erases
    position.

    Features are one-hot(dist_u) ++ one-hot(dist_v) over values 0..k+1,
    length 2 * (k + 2), with optional auxiliary vectors appended; only the
    subgraph's own entities are looked up in aux_features.
    """
    if scheme not in LABEL_SCHEMES:
        raise ValueError(f"unknown labeling scheme {scheme!r}, expected one of {LABEL_SCHEMES}")
    n = sub.num_nodes
    width = sub.k + 2
    feats = np.zeros((n, 2 * width), dtype=np.float64)
    if scheme == "constant":
        feats[:, [1, width + 1]] = 1.0
    else:
        for i, (du, dv) in enumerate(zip(sub.dist_u, sub.dist_v)):
            feats[i, du] = 1.0
            feats[i, width + dv] = 1.0
    if aux_features is not None:
        aux = []
        for orig in sub.nodes:
            vec = aux_features.get(orig)
            if vec is None:
                raise ValueError(f"auxiliary features missing entity id {orig}")
            aux.append(vec)
        dims = {a.shape[0] for a in aux}
        if len(dims) > 1:
            raise ValueError(f"auxiliary feature vectors have mixed dimensions {sorted(dims)}")
        feats = np.concatenate([feats, np.array(aux, dtype=np.float64)], axis=1)
    return replace(sub, features=feats)


def feature_dim(k: int, aux_dim: int = 0) -> int:
    return 2 * (k + 2) + aux_dim


def parse_aux_features(text: str) -> dict[str, np.ndarray]:
    """Parse `entity<TAB>f1,f2,...` lines into a name-keyed feature table."""
    table: dict[str, np.ndarray] = {}
    dim = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ValueError(f"malformed feature line {lineno}: {line!r}")
        name, raw = parts
        try:
            vec = np.array([float(x) for x in raw.split(",")], dtype=np.float64)
        except ValueError as e:
            raise ValueError(f"feature line {lineno} has a non-numeric value: {e}") from e
        if dim is None:
            dim = vec.shape[0]
        elif vec.shape[0] != dim:
            raise ValueError(f"feature line {lineno} has {vec.shape[0]} values, expected {dim}")
        table[name] = vec
    if not table:
        raise ValueError("no feature lines found in input")
    return table
