"""Independent reference implementations the test suite checks the library
against.  Everything here is deliberately naive: exhaustive enumeration and
dense loops, no shared code with the package internals.  The exceptions
are minibatches_reference, which builds minibatches the simple way from the
public extraction functions and sample_negative_reference, so that
training's grouped construction can be compared with it, and
layer_forward_chain, the GNN layer as a chain of autodiff primitives,
against which the fused layer's floats and gradients are compared bit for
bit."""

import numpy as np

import grail.autodiff as ad
from grail.kg import KnowledgeGraph, from_parts
from grail.subgraph import extract_union, join, label_nodes, take_members

import tape_ops as ops


def random_kg(
    rng: np.random.Generator,
    num_entities: int,
    num_relations: int,
    num_edges: int,
    allow_self_loops: bool = False,
) -> KnowledgeGraph:
    triples = []
    for _ in range(num_edges):
        h = int(rng.integers(num_entities))
        t = int(rng.integers(num_entities))
        if not allow_self_loops and h == t:
            continue
        triples.append((h, int(rng.integers(num_relations)), t))
    return from_parts(
        [f"n{i}" for i in range(num_entities)],
        [f"r{j}" for j in range(num_relations)],
        triples,
    )


def undirected_dist_matrix(n: int, edges) -> np.ndarray:
    """All-pairs shortest undirected hop counts by Floyd-Warshall."""
    inf = float("inf")
    d = np.full((n, n), inf)
    np.fill_diagonal(d, 0.0)
    for h, _, t in edges:
        if h != t:
            d[h, t] = 1.0
            d[t, h] = 1.0
    for mid in range(n):
        d = np.minimum(d, d[:, mid : mid + 1] + d[mid : mid + 1, :])
    return d


def graphs_equal(a: KnowledgeGraph, b: KnowledgeGraph) -> bool:
    return (
        a.entity_names == b.entity_names
        and a.relation_names == b.relation_names
        and a.triples == b.triples
    )


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()


def khop_set_oracle(g: KnowledgeGraph, node: int, k: int) -> set:
    d = undirected_dist_matrix(g.num_entities, g.triples)
    return {i for i in range(g.num_entities) if d[node, i] <= k}


def enclosing_set_oracle(g: KnowledgeGraph, u: int, v: int, k: int) -> set:
    """Exhaustive walk enumeration for the enclosing node set.

    Keep u, v, and every node lying on an undirected u-v walk of length at
    most k+1, restricted to the intersection of the two k-hop balls, whose
    interior never touches u or v.
    """
    base = (khop_set_oracle(g, u, k) & khop_set_oracle(g, v, k)) | {u, v}
    adj = {i: set() for i in base}
    for h, _, t in g.triples:
        if h != t and h in base and t in base:
            adj[h].add(t)
            adj[t].add(h)
    kept = {u, v}
    budget = k + 1

    def dfs(node: int, path: list) -> None:
        # path = [u, interior..., node]; interiors never touch u or v
        if len(path) - 1 >= budget:
            return
        for nxt in adj[node]:
            if nxt == u:
                continue
            if nxt == v:
                kept.update(path)
            else:
                dfs(nxt, path + [nxt])

    dfs(u, [u])
    return kept


def induced_edges_oracle(g: KnowledgeGraph, nodes: list) -> list:
    pos = {n: i for i, n in enumerate(nodes)}
    keep = set(nodes)
    out = []
    for h, r, t in g.triples:
        if h in keep and t in keep:
            out.append((pos[h], r, pos[t]))
    return sorted(out)


def double_radius_oracle(g: KnowledgeGraph, nodes: list, k: int, u: int, v: int) -> tuple:
    """(dist_u, dist_v) of each node, in the order of nodes.

    Level-by-level BFS that rescans the edges of g induced on nodes, once
    from u with v removed and once from v with u removed; unreachable
    nodes and distances past k + 1 read k + 1, and u and v are pinned to
    (0, 1) and (1, 0).
    """
    keep = set(nodes)
    pairs = [(h, t) for h, _, t in g.triples if h in keep and t in keep and h != t]

    def distances(src: int, removed: int) -> list:
        dist = {src: 0}
        level = [src]
        while level:
            nxt = []
            for a, b in pairs + [(t, h) for h, t in pairs]:
                if a in level and b != removed and b not in dist:
                    dist[b] = dist[a] + 1
                    nxt.append(b)
            level = nxt
        return [min(dist.get(n, k + 1), k + 1) for n in nodes]

    du, dv = distances(u, v), distances(v, u)
    iu, iv = nodes.index(u), nodes.index(v)
    du[iu], dv[iu] = 0, 1
    du[iv], dv[iv] = 1, 0
    return du, dv


def auc_pr_reference(pos_scores, neg_scores) -> float:
    """O(n^2) threshold enumeration; ties enter the curve as one group."""
    scored = [(float(s), 1) for s in pos_scores] + [(float(s), 0) for s in neg_scores]
    num_pos = len(pos_scores)
    auc = 0.0
    prev_recall = 0.0
    for th in sorted({s for s, _ in scored}, reverse=True):
        tp = sum(1 for s, y in scored if y == 1 and s >= th)
        fp = sum(1 for s, y in scored if y == 0 and s >= th)
        if tp + fp == 0:
            continue
        precision = tp / (tp + fp)
        recall = tp / num_pos
        auc += (recall - prev_recall) * precision
        prev_recall = recall
    return auc


def rule_walks_oracle(g: KnowledgeGraph, body, u: int, v: int) -> int:
    """Count body-labeled walks u -> v by exhaustive interior enumeration."""
    import itertools

    edge_set = set(g.triples)
    k = len(body)
    if k == 1:
        return 1 if (u, body[0], v) in edge_set else 0
    count = 0
    for mids in itertools.product(range(g.num_entities), repeat=k - 1):
        chain = (u,) + mids + (v,)
        if all((chain[i], body[i], chain[i + 1]) in edge_set for i in range(k)):
            count += 1
    return count


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def attention_weight(params, cfg, layer, h_s, h_t, r, r_t) -> float:
    """Gate value in (0, 1) of one edge of relation r, sending h_s into h_t,
    while relation r_t is scored; exactly 1.0 when attention is disabled."""
    if not cfg.attention_enabled:
        return 1.0
    lp = params.layers[layer]
    emb = params.attn_rel_emb.data
    x = np.concatenate([np.ravel(h_s), np.ravel(h_t), emb[r], emb[r_t]])
    hid = np.maximum(0.0, x @ lp.attn_w1.data + lp.attn_b1.data)
    return float(sigmoid((hid @ lp.attn_w2.data + lp.attn_b2.data)[0]))


def dense_gnn_reference(sub, params, cfg, dropout_masks=None) -> float:
    """Per-edge loop re-implementation of the scorer, no tape, no batching."""
    feats = sub.features
    n = feats.shape[0]
    h = feats.copy()
    lu, r_t, lv = sub.u_rows[0], sub.target_rels[0], sub.v_rows[0]
    per_layer = []
    for layer in range(cfg.num_layers):
        lp = params.layers[layer]
        w_rel = {}
        coeffs = lp.coeffs.data
        for r in range(coeffs.shape[0]):
            w = sum(coeffs[r, b] * lp.bases[b].data for b in range(len(lp.bases)))
            w_rel[r] = w
        agg = np.zeros((n, lp.w_self.data.shape[1]))
        for e, (eh, er, et) in enumerate(sub.edges):
            if cfg.aggregate_in_neighbors:
                src, dst = eh, et
            else:
                src, dst = et, eh
            gate = attention_weight(params, cfg, layer, h[src], h[dst], er, r_t)
            msg = gate * (h[src] @ w_rel[er])
            if dropout_masks is not None:
                msg = dropout_masks[layer][e] * msg
            agg[dst] += msg
        h = np.maximum(0.0, h @ lp.w_self.data + agg)
        per_layer.append(h)
    e_rt = params.target_rel_emb.data[r_t]
    chosen = per_layer if cfg.jk_enabled else per_layer[-1:]
    blocks = [
        np.concatenate([hk.mean(axis=0), hk[lu], hk[lv], e_rt]) for hk in chosen
    ]
    readout = np.concatenate(blocks)
    return float(readout @ params.readout_w.data[:, 0])


def adam_reference(grads, lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, theta0=0.0, l2=0.0):
    """Scalar Adam trajectory for a fixed gradient sequence."""
    m = v = 0.0
    theta = theta0
    out = []
    for t, g in enumerate(grads, start=1):
        g = g + l2 * theta
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def sample_negative_reference(g, positive, rng):
    """Corrupt head or tail (fair coin) with a uniform entity, one scalar draw
    at a time: grail.evaluate.sample_negative before it drew in bulk."""
    h, r, t = positive
    g.check_entity(h)
    g.check_entity(t)
    g.check_relation(r)
    n = g.num_entities
    if n - len({h, t}) < 1:
        raise ValueError(f"too few entities ({n}) to corrupt triple ({h},{r},{t})")
    side = int(rng.integers(2))
    while True:
        e = int(rng.integers(n))
        cand = (e, r, t) if side == 0 else (h, r, e)
        if cand == positive or cand[0] == cand[2]:
            continue
        return cand


def minibatches_reference(g, positives, pos_union, order, tcfg, rng_neg, aux_ids):
    """One epoch's (positive indices, labeled union) per minibatch, built one
    minibatch at a time: its negatives drawn and extracted as one union, joined
    after its positives, then gathered as each positive followed by its
    negatives."""
    n = tcfg.neg_per_pos
    for lo in range(0, len(order), tcfg.batch_size):
        batch = np.sort(order[lo : lo + tcfg.batch_size])
        negs = [sample_negative_reference(g, positives[idx], rng_neg)
                for idx in batch.tolist() for _ in range(n)]
        neg_union = label_nodes(extract_union(g, negs, tcfg.hops, tcfg.extraction_mode),
                                tcfg.labeling, aux_ids)
        members = []
        for i in range(len(batch)):
            members.append(i)
            members.extend(len(batch) + i * n + j for j in range(n))
        yield batch, take_members(join([take_members(pos_union, batch), neg_union]), members)


def adam_step_reference(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8, l2=0.0):
    """Adam over named tensors one at a time; state holds dicts m and v and step t."""
    state["t"] += 1
    t = state["t"]
    for name, p in params.items():
        g = p.grad + l2 * p.data
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
        m = state["m"].get(name, np.zeros_like(p.data))
        v = state["v"].get(name, np.zeros_like(p.data))
        state["m"][name] = m = beta1 * m + (1.0 - beta1) * g
        state["v"][name] = v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


def layer_forward_chain(batch, h_prev, layer, params, cfg, dropout_mask=None, snap_alpha=False):
    """grail.model.layer_forward as a chain of 19 autodiff primitives, each
    with its own tape node (the generic ones from tape_ops): the sums the
    fused layer must reproduce."""
    lp = params.layers[layer]
    heads, rels, tails = batch.edges.T
    senders, receivers = (heads, tails) if cfg.aggregate_in_neighbors else (tails, heads)
    h_src = ad.slice_rows(h_prev, senders)
    msg = ops.basis_matmul(h_src, ad.slice_rows(lp.coeffs, rels), lp.bases)
    if cfg.attention_enabled:
        h_dst = ad.slice_rows(h_prev, receivers)
        emb = params.attn_rel_emb
        a_in = ad.concat([h_src, h_dst, ad.slice_rows(emb, rels),
                          ad.slice_rows(emb, batch.edge_target_rels)])
        s = ops.relu(ops.add(ad.matmul(a_in, lp.attn_w1), lp.attn_b1))
        alpha = ops.sigmoid(ops.add(ad.matmul(s, lp.attn_w2), lp.attn_b2))
        if snap_alpha:
            data = alpha.data.copy()
            data[data < 1e-6] = 0.0
            data[data > 1.0 - 1e-6] = 1.0
            alpha = ad.constant(data)
        msg = ops.mul(msg, alpha)
    if dropout_mask is not None:
        mask = np.asarray(dropout_mask, dtype=np.float64)
        if mask.shape != (len(rels),):
            raise ValueError(f"dropout mask shape {mask.shape} != ({len(rels)},)")
        msg = ad.apply_mask(msg, mask.reshape(-1, 1))
    agg = ad.segment_sum(msg, receivers, batch.num_nodes)
    return ops.relu(ops.add(ad.matmul(h_prev, lp.w_self), agg))
