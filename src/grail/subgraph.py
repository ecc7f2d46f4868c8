"""Enclosing-subgraph extraction and double-radius node labeling."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .kg import KnowledgeGraph, khop_nodes

UNREACHABLE = -1

EXTRACTION_MODES = ("enclosing", "full_khop")
LABEL_SCHEMES = ("double_radius", "constant")


@dataclass
class LabeledSubgraph:
    """A candidate edge's local neighborhood with positional node features.

    Nodes are original graph ids in canonical order (u, v, then ascending);
    edges are directed triples over local indices.  The scored candidate edge
    appears in `edges` exactly once, at position `target_edge_pos`.
    """

    nodes: list[int]
    local_index: dict[int, int]
    edges: list[tuple[int, int, int]]
    target: tuple[int, int, int]
    target_edge_pos: int
    k: int
    dist_u: list[int] | None = None
    dist_v: list[int] | None = None
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
        local_index = {n: i for i, n in enumerate(nodes)}
        edges = _induced_edges(g, local_index)
        if mode == "full_khop":
            break
        adj = _undirected_adjacency(len(nodes), edges)
        du = _bfs_without(adj, 0, 1)
        dv = _bfs_without(adj, 1, 0)
        pruned = {
            n
            for i, n in enumerate(nodes[2:], start=2)
            if du[i] == UNREACHABLE or dv[i] == UNREACHABLE or du[i] + dv[i] > k + 1
        }
        if not pruned:
            break
        keep -= pruned

    target = (local_index[u], r_t, local_index[v])
    try:
        pos_t = edges.index(target)
    except ValueError:
        edges.append(target)
        pos_t = len(edges) - 1
    return LabeledSubgraph(
        nodes=nodes,
        local_index=local_index,
        edges=edges,
        target=target,
        target_edge_pos=pos_t,
        k=k,
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
    aux_features: dict[int, np.ndarray] | None = None,
) -> LabeledSubgraph:
    """Attach per-node distance labels and one-hot features.

    double_radius: node i gets (d(i, u), d(i, v)) where each distance is a
    shortest undirected path in the subgraph with the other target node
    removed, capped at k + 1 when unreachable.  The targets themselves are
    pinned to (0, 1) and (1, 0) so the model can identify them.

    constant: every node gets (1, 1); an ablation that erases position.

    Features are one-hot(dist_u) ++ one-hot(dist_v) over values 0..k+1,
    length 2 * (k + 2), with optional auxiliary vectors appended.
    """
    if scheme not in LABEL_SCHEMES:
        raise ValueError(f"unknown labeling scheme {scheme!r}, expected one of {LABEL_SCHEMES}")
    k = sub.k
    cap = k + 1
    n = sub.num_nodes
    lu, _, lv = sub.target
    if scheme == "constant":
        dist_u = [1] * n
        dist_v = [1] * n
    else:
        adj = _undirected_adjacency(n, sub.edges)
        du = _bfs_without(adj, lu, lv)
        dv = _bfs_without(adj, lv, lu)
        dist_u = [cap if d == UNREACHABLE else min(d, cap) for d in du]
        dist_v = [cap if d == UNREACHABLE else min(d, cap) for d in dv]
        dist_u[lu], dist_v[lu] = 0, 1
        dist_u[lv], dist_v[lv] = 1, 0
    width = k + 2
    feats = np.zeros((n, 2 * width), dtype=np.float64)
    for i in range(n):
        feats[i, dist_u[i]] = 1.0
        feats[i, width + dist_v[i]] = 1.0
    if aux_features is not None:
        dims = {a.shape[0] for a in aux_features.values()}
        if len(dims) > 1:
            raise ValueError(f"auxiliary feature vectors have mixed dimensions {sorted(dims)}")
        aux_dim = dims.pop() if dims else 0
        aux = np.zeros((n, aux_dim), dtype=np.float64)
        for i, orig in enumerate(sub.nodes):
            vec = aux_features.get(orig)
            if vec is None:
                raise ValueError(f"auxiliary features missing entity id {orig}")
            aux[i] = vec
        feats = np.concatenate([feats, aux], axis=1)
    return replace(sub, dist_u=dist_u, dist_v=dist_v, features=feats)


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
