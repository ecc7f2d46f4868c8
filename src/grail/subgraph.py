"""Enclosing-subgraph extraction and double-radius node labeling."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, replace

import numpy as np

# extraction reads g.khop; khop_nodes stays reachable as grail.subgraph.khop_nodes
from .kg import KnowledgeGraph, _firsts, _ranges, _starts, khop_nodes  # noqa: F401

EXTRACTION_MODES = ("enclosing", "full_khop")
LABEL_SCHEMES = ("double_radius", "constant")

# a chunk of candidates (bounded_unions) closes once its members' node bounds sum to this
NODE_BUDGET = 20_000


@dataclass
class SubgraphBatch:
    """A disjoint union of candidate edges' subgraphs, scored in one pass.

    The one subgraph record: a single candidate's subgraph is a union of
    one member.  Member i owns a contiguous block of node rows, starting at
    the sum of the earlier members' sizes, in canonical order (u, v, then
    ascending graph id), and a contiguous block of edge rows; edges are
    (head, relation, tail) rows over union node rows, each member's in its
    own order, and each member's candidate edge appears in its block
    exactly once.  dist_u/dist_v are each node's double-radius distances;
    features are set by label_nodes.
    """

    nodes: np.ndarray             # (N,) graph id of each node row
    edges: np.ndarray             # (E, 3) int
    edge_target_rels: np.ndarray  # (E,) scored relation of the member owning each edge
    node_member: np.ndarray       # (N,) member of each node row
    member_sizes: np.ndarray      # (B,) nodes per member
    u_rows: np.ndarray            # (B,) union row of each member's u
    v_rows: np.ndarray            # (B,) union row of each member's v
    target_rels: np.ndarray       # (B,) scored relation per member
    target_edge_pos: np.ndarray   # (B,) union edge row of each member's candidate edge
    k: int
    dist_u: np.ndarray            # (N,)
    dist_v: np.ndarray            # (N,)
    features: np.ndarray | None   # (N, input_dim); None if any member is unlabeled

    @property
    def num_nodes(self) -> int:
        return self.node_member.shape[0]

    @property
    def edge_counts(self) -> np.ndarray:
        """(B,) edges per member."""
        return np.bincount(self.node_member[self.edges[:, 0]], minlength=len(self.member_sizes))


def extract_enclosing(
    g: KnowledgeGraph,
    u: int,
    v: int,
    r_t: int,
    k: int,
    mode: str = "enclosing",
) -> SubgraphBatch:
    """Extract the local subgraph evidence for candidate edge (u, r_t, v).

    enclosing: intersection of the k-hop neighborhoods of u and v, then one
    pruning pass that drops the nodes whose distance-to-u (computed with v
    removed) plus distance-to-v (computed with u removed) exceeds k + 1
    inside the induced subgraph; isolated and unreachable nodes go too.
    The edges and distances are then filtered to the kept nodes.  A second
    pass could prune nothing: every node on a kept node's shortest path to
    u or to v has no larger d_u + d_v, so it is kept and those distances
    stand.  The surviving set is exactly the nodes lying on a u-v path of
    length <= k + 1 whose u-side stays clear of v and whose v-side stays
    clear of u.

    full_khop: union of the two k-hop neighborhoods, no pruning.

    The k-hop sets come from g.khop, so candidates that share an endpoint
    on one graph share its search.

    Both modes keep the distances of the final node set as the
    double-radius labels: each one is a shortest undirected path in the
    subgraph with the other target node removed, capped at k + 1 (which
    unreachable nodes get too), and the targets themselves are pinned to
    (0, 1) and (1, 0) so the model can identify them.  The candidate edge
    never shortens a path, since each search removes one of its ends.

    The candidate edge is appended to the edge list if not already induced,
    so message passing can always see it.  The result is the one-member
    union of extract_union.
    """
    return extract_union(g, [(u, r_t, v)], k, mode)


def extract_union(
    g: KnowledgeGraph,
    candidates: list[tuple[int, int, int]],
    k: int,
    mode: str = "enclosing",
) -> SubgraphBatch:
    """The unlabeled disjoint union of the subgraphs of candidates (u, r_t, v).

    Member i is candidate i's subgraph as extract_enclosing describes it,
    and all members are built together in array passes: g.khop finds the
    k-hop sets of all u's in one call and of all v's in a second, one sort
    of their (member, node) keys gives every member's node set, the
    out-edges of every member's nodes are gathered from g's out-CSR and kept
    where the tail is in the same member, one sort puts them in canonical
    (local head, relation, local tail) order, each side runs one
    level-synchronous search over all members for at most k levels (a
    node not reached by then would read k + 1 anyway, and would be pruned
    in enclosing mode), the pruning is one mask, and each candidate edge
    that is not induced is appended after its member's edges.
    """
    cands = _candidate_array(g, candidates, k, mode)
    us, _, vs = cands.T
    return _union(g, cands, g.khop(us.tolist(), k), g.khop(vs.tolist(), k), k, mode)


def _union(
    g: KnowledgeGraph,
    cands: np.ndarray,
    near_u: list[np.ndarray],
    near_v: list[np.ndarray],
    k: int,
    mode: str,
) -> SubgraphBatch:
    """extract_union of the checked (C, 3) candidates, given the k-hop sets
    g.khop finds for their u's and v's."""
    us, rts, vs = cands.T
    # one sort of the (member, node) keys near each u and each v (every sort
    # here is stable, the sort code auc_pr loads anyway): a key near both is a pair
    n = g.num_entities
    near = near_u + near_v
    keys = np.repeat(np.tile(np.arange(len(us)) * n, 2), list(map(len, near)))
    keys = np.sort(keys + np.concatenate(near), kind="stable")
    keys = keys[_firsts(keys)] if mode == "full_khop" else keys[1:][keys[1:] == keys[:-1]]
    rest_member, rest = np.divmod(keys, n)
    others = (rest != us[rest_member]) & (rest != vs[rest_member])
    rest_member, rest = rest_member[others], rest[others]
    # member i's rows: u, v, then the rest ascending, after 2 * i rows of earlier u's and v's
    sizes = np.bincount(rest_member, minlength=len(us)) + 2
    starts = _starts(sizes)
    nodes = np.empty(int(sizes.sum()), dtype=np.intp)
    nodes[starts], nodes[starts + 1] = us, vs
    nodes[np.arange(len(rest)) + 2 * (rest_member + 1)] = rest
    member = np.repeat(np.arange(len(sizes)), sizes)

    # rows by (member, graph id), so one search finds the row of an edge's tail
    keys = member * n + nodes
    by_key = np.argsort(keys, kind="stable")
    keys = np.append(keys[by_key], -1)  # -1: past the last key
    first = g.out_indptr[nodes]
    degree = g.out_indptr[nodes + 1] - first
    heads = np.repeat(np.arange(len(nodes)), degree)
    at = _ranges(first, degree)
    tail_keys = member[heads] * n + g.out_tails[at]
    found = np.searchsorted(keys[:-1], tail_keys)
    inside = keys[found] == tail_keys
    tails = by_key[found[inside]]
    rels = g.out_rels[at][inside]
    heads = heads[inside]
    num_rel = g.num_relations
    order = np.argsort((heads * num_rel + rels) * len(nodes) + tails, kind="stable")
    edges = np.stack([heads, rels, tails], axis=1)[order]

    loops = edges[:, 0] == edges[:, 2]
    src = np.concatenate([edges[~loops, 0], edges[~loops, 2]])
    dst = np.concatenate([edges[~loops, 2], edges[~loops, 0]])
    dist_u = _levels(src, dst, len(nodes), starts, starts + 1, k)
    dist_v = _levels(src, dst, len(nodes), starts + 1, starts, k)
    if mode == "enclosing":
        keep = dist_u + dist_v <= k + 1  # u and v read (0, 1) and (1, 0), so they stay
        if not keep.all():
            renumber = np.cumsum(keep) - 1
            edges = edges[keep[edges[:, 0]] & keep[edges[:, 2]]]
            edges[:, 0] = renumber[edges[:, 0]]
            edges[:, 2] = renumber[edges[:, 2]]
            nodes, member, dist_u, dist_v = nodes[keep], member[keep], dist_u[keep], dist_v[keep]
            sizes = np.bincount(member, minlength=len(sizes))
            starts = _starts(sizes)

    # the edge rows still ascend in (head, relation, tail), so one search
    # finds each candidate edge; missing ones go after their member's edges
    num = len(nodes)
    edge_keys = (edges[:, 0] * num_rel + edges[:, 1]) * num + edges[:, 2]
    target_keys = (starts * num_rel + rts) * num + starts + 1
    at = np.searchsorted(edge_keys, target_keys)
    found = np.append(edge_keys, -1)[at] == target_keys
    ends = np.cumsum(np.bincount(member[edges[:, 0]], minlength=len(sizes)))
    missing = ~found
    appended_before = np.cumsum(missing) - missing
    target_pos = np.where(found, at, ends) + appended_before
    if missing.any():
        # each edge moves down by the candidate edges appended before its member's block
        grown = np.empty((len(edges) + int(missing.sum()), 3), dtype=np.intp)
        grown[np.arange(len(edges)) + appended_before[member[edges[:, 0]]]] = edges
        grown[target_pos[missing]] = np.stack([starts, rts, starts + 1], axis=1)[missing]
        edges = grown
    return SubgraphBatch(
        nodes=nodes,
        edges=edges,
        edge_target_rels=rts[member[edges[:, 0]]],
        node_member=member,
        member_sizes=sizes,
        u_rows=starts,
        v_rows=starts + 1,
        target_rels=rts,
        target_edge_pos=target_pos,
        k=k,
        dist_u=dist_u,
        dist_v=dist_v,
        features=None,
    )


def _candidate_array(g: KnowledgeGraph, candidates, k: int, mode: str) -> np.ndarray:
    """candidates (u, r_t, v) as a (C, 3) intp array.  Raises ValueError for
    the first bad candidate, as its own extraction would, then for a bad k,
    a bad mode or no candidates."""
    cands = np.asarray(candidates, dtype=np.intp).reshape(-1, 3)
    us, rts, vs = cands.T
    n = g.num_entities
    bad = (us < 0) | (us >= n) | (vs < 0) | (vs >= n) | (us == vs)
    bad |= (rts < 0) | (rts >= g.num_relations)
    if bad.any():
        u, r_t, v = cands[bad.argmax()].tolist()
        g.check_entity(u)
        g.check_entity(v)
        g.check_relation(r_t)
        raise ValueError(f"target nodes must differ, got u == v == {u}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode not in EXTRACTION_MODES:
        raise ValueError(f"unknown extraction mode {mode!r}, expected one of {EXTRACTION_MODES}")
    if not len(cands):
        raise ValueError("need at least one candidate to extract")
    return cands


def node_bounds(
    g: KnowledgeGraph,
    candidates,
    k: int,
    mode: str = "enclosing",
) -> np.ndarray:
    """(C,) upper bounds on the node counts of the members of
    extract_union(g, candidates, k, mode), read from the k-hop sets of g.khop
    without extracting: min(|N_k(u)|, |N_k(v)|) + 2 for enclosing, whose
    member is u, v and nodes of both sets, and |N_k(u)| + |N_k(v)| for
    full_khop, whose member is the union of the two sets."""
    us, _, vs = _candidate_array(g, candidates, k, mode).T
    return _bounds(g.khop(us.tolist(), k), g.khop(vs.tolist(), k), mode)


def _bounds(near_u: list[np.ndarray], near_v: list[np.ndarray], mode: str) -> np.ndarray:
    size_u = np.fromiter(map(len, near_u), np.intp, len(near_u))
    size_v = np.fromiter(map(len, near_v), np.intp, len(near_v))
    return np.minimum(size_u, size_v) + 2 if mode == "enclosing" else size_u + size_v


def bounded_unions(
    g: KnowledgeGraph,
    candidates,
    k: int,
    mode: str = "enclosing",
):
    """extract_union(g, chunk, k, mode) of consecutive chunks of candidates,
    in order, one union at a time.  A chunk closes once its node_bounds sum
    to NODE_BUDGET: a chunk's bounds sum to at most NODE_BUDGET, except that
    a candidate whose bound alone exceeds it is a chunk of its own, so the
    size of each union is bounded before any of it is built.  Each
    candidate's k-hop sets are read from g.khop once, for its bound and for
    its extraction."""
    cands = _candidate_array(g, candidates, k, mode)
    us, _, vs = cands.T
    near_u, near_v = g.khop(us.tolist(), k), g.khop(vs.tolist(), k)
    total = np.cumsum(_bounds(near_u, near_v, mode))
    lo = 0
    while lo < len(total):
        below = total[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(total, below + NODE_BUDGET, side="right")))
        yield _union(g, cands[lo:hi], near_u[lo:hi], near_v[lo:hi], k, mode)
        lo = hi


def _levels(
    src: np.ndarray, dst: np.ndarray, num: int, start: np.ndarray, blocked: np.ndarray, k: int
) -> np.ndarray:
    """Distances from the start rows along the arcs src -> dst, at most k levels deep.

    The blocked rows are never entered and read 1 (the pinned distance
    between the two targets); rows not reached within k levels read k + 1.
    """
    dist = np.full(num, k + 1, dtype=np.intp)
    dist[blocked] = -1
    dist[start] = 0
    for level in range(1, k + 1):
        reached = dst[dist[src] == level - 1]
        dist[reached[dist[reached] == k + 1]] = level
    dist[blocked] = 1
    return dist


def join(unions: list[SubgraphBatch]) -> SubgraphBatch:
    """Concatenate unions into one, members in the given order; the result
    is labeled only if every part is."""
    if not unions:
        raise ValueError("need at least one union to join")
    node_at = _starts([part.num_nodes for part in unions])

    def cat(name: str, shifts=(0,) * len(unions)) -> np.ndarray:
        return np.concatenate([getattr(part, name) + at for part, at in zip(unions, shifts)])

    unlabeled = any(part.features is None for part in unions)
    return SubgraphBatch(
        nodes=cat("nodes"),
        edges=cat("edges", [np.array([at, 0, at]) for at in node_at]),
        edge_target_rels=cat("edge_target_rels"),
        node_member=cat("node_member", _starts([len(part.member_sizes) for part in unions])),
        member_sizes=cat("member_sizes"),
        u_rows=cat("u_rows", node_at),
        v_rows=cat("v_rows", node_at),
        target_rels=cat("target_rels"),
        target_edge_pos=cat("target_edge_pos", _starts([len(part.edges) for part in unions])),
        k=unions[0].k,
        dist_u=cat("dist_u"),
        dist_v=cat("dist_v"),
        features=None if unlabeled else cat("features"),
    )


def take_members(union: SubgraphBatch, rows) -> SubgraphBatch:
    """The union of members rows[0], rows[1], ... of union, in that order."""
    rows = np.asarray(rows, dtype=np.intp)
    edge_counts = union.edge_counts
    sizes, counts = union.member_sizes[rows], edge_counts[rows]
    node_starts, edge_starts = _starts(union.member_sizes)[rows], _starts(edge_counts)[rows]
    at_nodes = _ranges(node_starts, sizes)
    at_edges = _ranges(edge_starts, counts)
    shift = _starts(sizes) - node_starts  # each member's node rows move by this
    edges = union.edges[at_edges]
    edge_shift = np.repeat(shift, counts)
    edges[:, 0] += edge_shift
    edges[:, 2] += edge_shift
    return SubgraphBatch(
        nodes=union.nodes[at_nodes],
        edges=edges,
        edge_target_rels=union.edge_target_rels[at_edges],
        node_member=np.repeat(np.arange(len(rows)), sizes),
        member_sizes=sizes,
        u_rows=union.u_rows[rows] + shift,
        v_rows=union.v_rows[rows] + shift,
        target_rels=union.target_rels[rows],
        target_edge_pos=union.target_edge_pos[rows] - edge_starts + _starts(counts),
        k=union.k,
        dist_u=union.dist_u[at_nodes],
        dist_v=union.dist_v[at_nodes],
        features=None if union.features is None else union.features[at_nodes],
    )


def label_nodes(
    sub: SubgraphBatch,
    scheme: str = "double_radius",
    aux_features: Mapping[int, np.ndarray] | None = None,
) -> SubgraphBatch:
    """Attach one-hot node features to every member; distances stay as extracted.

    double_radius: node i is encoded by its (dist_u[i], dist_v[i]).

    constant: every node is encoded as (1, 1); an ablation that erases
    position.

    Features are one-hot(dist_u) ++ one-hot(dist_v) over values 0..k+1,
    length 2 * (k + 2), with optional auxiliary vectors appended; only the
    subgraph's own entities are looked up in aux_features.
    """
    if scheme not in LABEL_SCHEMES:
        raise ValueError(f"unknown labeling scheme {scheme!r}, expected one of {LABEL_SCHEMES}")
    n = len(sub.nodes)
    width = sub.k + 2
    feats = np.zeros((n, 2 * width), dtype=np.float64)
    if scheme == "constant":
        feats[:, [1, width + 1]] = 1.0
    else:
        rows = np.arange(n)
        feats[rows, sub.dist_u] = 1.0
        feats[rows, width + sub.dist_v] = 1.0
    if aux_features is not None:
        aux = []
        for orig in sub.nodes.tolist():
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
    line_of: dict[str, int] = {}
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
        if name in line_of:
            raise ValueError(f"entity {name!r} has features on lines {line_of[name]} and {lineno}")
        line_of[name] = lineno
        table[name] = vec
    if not table:
        raise ValueError("no feature lines found in input")
    return table
