"""Attention-gated multi-relational GNN scoring candidate edges on labeled subgraphs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .subgraph import SubgraphBatch


@dataclass
class GnnConfig:
    num_layers: int = 3
    hidden_dim: int = 32
    num_bases: int = 4
    attention_enabled: bool = True
    jk_enabled: bool = True
    edge_dropout_rate: float = 0.5
    input_dim: int = 10
    aggregate_in_neighbors: bool = False

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_dim < 1 or self.input_dim < 1:
            raise ValueError("hidden_dim and input_dim must be >= 1")
        if self.num_bases < 1:
            raise ValueError(f"num_bases must be >= 1, got {self.num_bases}")
        if not (0.0 <= self.edge_dropout_rate < 1.0):
            raise ValueError(f"edge_dropout_rate must be in [0, 1), got {self.edge_dropout_rate}")

    def layer_in_dim(self, layer: int) -> int:
        return self.input_dim if layer == 0 else self.hidden_dim

    def readout_dim(self) -> int:
        per_layer = 4 * self.hidden_dim  # pooled graph, u, v, target-relation embedding
        return per_layer * self.num_layers if self.jk_enabled else per_layer


@dataclass
class LayerParams:
    bases: list[Tensor]  # num_bases matrices (d_in, d)
    coeffs: Tensor       # (R, num_bases) basis-sharing coefficients
    w_self: Tensor       # (d_in, d)
    attn_w1: Tensor      # (2*d_in + 2*d_attn, attn_hidden)
    attn_b1: Tensor      # (attn_hidden,)
    attn_w2: Tensor      # (attn_hidden, 1)
    attn_b2: Tensor      # (1,)


@dataclass
class GnnParams:
    layers: list[LayerParams]
    attn_rel_emb: Tensor    # (R, d_attn), queried at the edge and target relations
    target_rel_emb: Tensor  # (R, d), readout embedding of the scored relation
    readout_w: Tensor       # (readout_dim, 1)

    def named_tensors(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for i, lp in enumerate(self.layers):
            for b, basis in enumerate(lp.bases):
                out[f"layers.{i}.bases.{b}"] = basis
            out[f"layers.{i}.coeffs"] = lp.coeffs
            out[f"layers.{i}.w_self"] = lp.w_self
            out[f"layers.{i}.attn_w1"] = lp.attn_w1
            out[f"layers.{i}.attn_b1"] = lp.attn_b1
            out[f"layers.{i}.attn_w2"] = lp.attn_w2
            out[f"layers.{i}.attn_b2"] = lp.attn_b2
        out["attn_rel_emb"] = self.attn_rel_emb
        out["target_rel_emb"] = self.target_rel_emb
        out["readout_w"] = self.readout_w
        return out

    @property
    def num_relations(self) -> int:
        return self.attn_rel_emb.data.shape[0]


def init_params(cfg: GnnConfig, num_relations: int, rng: np.random.Generator) -> GnnParams:
    """Xavier-uniform weights and zero biases.

    Its named_tensors() is the one description of the parameter layout:
    checkpoints, their loading and Adam's flat moments all follow it.
    """
    if num_relations < 1:
        raise ValueError(f"num_relations must be >= 1, got {num_relations}")
    d = cfg.hidden_dim
    d_attn = cfg.hidden_dim
    attn_hidden = cfg.hidden_dim

    def draw(shape: tuple[int, int]) -> Tensor:
        limit = np.sqrt(6.0 / (shape[0] + shape[1]))
        return ad.parameter(rng.uniform(-limit, limit, size=shape))

    layers = []
    for layer in range(cfg.num_layers):
        d_in = cfg.layer_in_dim(layer)
        layers.append(
            LayerParams(
                bases=[draw((d_in, d)) for _ in range(cfg.num_bases)],
                coeffs=draw((num_relations, cfg.num_bases)),
                w_self=draw((d_in, d)),
                attn_w1=draw((2 * d_in + 2 * d_attn, attn_hidden)),
                attn_b1=ad.parameter(np.zeros(attn_hidden)),
                attn_w2=draw((attn_hidden, 1)),
                attn_b2=ad.parameter(np.zeros(1)),
            )
        )
    return GnnParams(
        layers=layers,
        attn_rel_emb=draw((num_relations, d_attn)),
        target_rel_emb=draw((num_relations, d)),
        readout_w=draw((cfg.readout_dim(), 1)),
    )


def _bias_grad(g: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """The adjoint of a bias added to every row of g, summed as the tests'
    tape_ops.add sums it."""
    return np.sum(g).reshape(bias.shape) if bias.size == 1 else np.sum(g, axis=0)


def layer_forward(
    batch: SubgraphBatch,
    h_prev: Tensor,
    layer: int,
    params: GnnParams,
    cfg: GnnConfig,
    dropout_mask: np.ndarray | None = None,
    snap_alpha: bool = False,
) -> Tensor:
    """One message-passing layer: gated relational aggregation plus a self loop.

    By default node t pulls messages from its outgoing neighbors (edge
    (t, r, s) sends W_r h_s into t); with cfg.aggregate_in_neighbors messages
    flow along edge direction instead (edge (s, r, t) sends into t).  W_r is
    the relation's mixture of the layer's bases (R-GCN basis decomposition),
    and with cfg.attention_enabled each message is gated by
    sigmoid(MLP([h_s, h_t, e_r, e_rt])), e_rt embedding the relation that
    the edge's member scores.  With snap_alpha (the rule verifier's mode)
    saturated gates are pushed to exact 0/1 and held constant: gradients
    still flow through the messages, not through the gates.  Of batch it
    reads only edges, edge_target_rels and num_nodes.

    The layer is one tape node with a hand-written vjp.  It returns the same
    floats, forward and backward, as the chain of autodiff primitives it
    replaces (tests/oracles.layer_forward_chain, built from the ops of
    tests/tape_ops.py): it lists a parent once per use, in the reverse of
    the order in which the chain made the uses, so backward adds the
    contributions in the chain's order.  Outside no_grad it keeps
    what its vjp needs; inside, it updates its buffers in place and frees
    each as soon as it is spent.
    """
    lp = params.layers[layer]
    h = h_prev.data
    n = batch.num_nodes
    edges = batch.edges
    num_edges = len(edges)
    num_rels = lp.coeffs.data.shape[0]
    attention = cfg.attention_enabled
    if h.shape[0] != n:
        raise ValueError(f"layer_forward: {h.shape[0]} node states for {n} nodes")
    heads, rels, tails = edges.T
    # every gather below indexes with unchecked (clipping) takes, so the rows are checked here
    if num_edges:
        bad = edges.min() < 0 or heads.max() >= n or tails.max() >= n or rels.max() >= num_rels
        if attention:
            targets = batch.edge_target_rels
            bad = bad or targets.min() < 0 or targets.max() >= num_rels
        if bad:
            raise ValueError(
                f"layer_forward: edge index out of range for {n} nodes and {num_rels} relations"
            )
    mask = None
    if dropout_mask is not None:
        mask = np.asarray(dropout_mask, dtype=np.float64)
        if mask.shape != (num_edges,):
            raise ValueError(f"dropout mask shape {mask.shape} != ({num_edges},)")
        mask = mask.reshape(-1, 1)
    recording = ad.is_recording()
    senders, receivers = (heads, tails) if cfg.aggregate_in_neighbors else (tails, heads)
    d_in = h.shape[1]

    # the basis product: row e times its relation's mixture of the bases
    h_src = np.take(h, senders, axis=0, mode="clip")
    num_bases, d = len(lp.bases), lp.bases[0].data.shape[1]
    flat = np.concatenate([b.data for b in lp.bases], axis=1)  # (d_in, B * d), columns [b, d]
    coef = np.take(lp.coeffs.data, rels, axis=0, mode="clip")
    proj = (h_src @ flat).reshape(num_edges, num_bases, d)
    msg = np.einsum("eb,ebd->ed", coef, proj)
    # inside no_grad every buffer is freed where the op chain freed it: a
    # higher peak makes glibc grow and trim its heap, with page faults, per chunk
    if not recording:
        del coef, proj
    gated = msg
    if attention:
        # the attention MLP's input [h_src, h_dst, e_r, e_rt]
        emb = params.attn_rel_emb.data
        d_attn = emb.shape[1]
        a_in = np.empty((num_edges, 2 * d_in + 2 * d_attn))
        cols = [0, d_in, 2 * d_in, 2 * d_in + d_attn, 2 * d_in + 2 * d_attn]
        a_in[:, : cols[1]] = h_src
        sources = [(h, receivers), (emb, rels), (emb, batch.edge_target_rels)]
        for i, (table, idx) in enumerate(sources, start=1):
            # a contiguous take, then a copy: a take into the strided block is several times slower
            a_in[:, cols[i] : cols[i + 1]] = np.take(table, idx, axis=0, mode="clip")
        hidden = a_in @ lp.attn_w1.data
        if not recording:
            del a_in
        hidden += lp.attn_b1.data
        keep_hidden = hidden > 0.0
        np.putmask(hidden, ~keep_hidden, 0.0)
        logit = hidden @ lp.attn_w2.data
        if not recording:
            del hidden, keep_hidden
        logit += lp.attn_b2.data
        alpha = ad.logistic(logit)
        del logit
        if snap_alpha:
            alpha[alpha < 1e-6] = 0.0
            alpha[alpha > 1.0 - 1e-6] = 1.0
        # the vjp reads msg, so recording keeps it
        gated = msg * alpha if recording else np.multiply(msg, alpha, out=msg)
    if mask is not None:
        gated *= mask
    out = h @ lp.w_self.data
    out += ad.scatter_rows(gated, receivers, n)
    keep_out = out > 0.0
    np.putmask(out, ~keep_out, 0.0)
    if not recording:
        return Tensor(out)

    track_h = h_prev.requires_grad
    through_gates = attention and not snap_alpha

    def vjp(g: np.ndarray):
        g = g * keep_out
        g_self = g @ lp.w_self.data.T if track_h else None
        g_msg = np.take(g, receivers, axis=0, mode="clip")
        if mask is not None:
            g_msg = g_msg * mask
        g_basis = g_msg * alpha if attention else g_msg
        attn_grads = ()
        if through_gates:
            g_alpha = g_msg * msg
            if d != 1:  # as the tests' tape_ops.mul: one message column does not broadcast the gate
                g_alpha = np.sum(g_alpha, axis=1, keepdims=True)
            g_logit = g_alpha * alpha * (1.0 - alpha)
            g_hidden = (g_logit @ lp.attn_w2.data.T) * keep_hidden
            g_a_in = g_hidden @ lp.attn_w1.data.T
            g_dst = ad.scatter_rows(g_a_in[:, cols[1] : cols[2]], receivers, n) if track_h else None
            g_rel = ad.scatter_rows(g_a_in[:, cols[2] : cols[3]], rels, emb.shape[0])
            g_tgt = ad.scatter_rows(g_a_in[:, cols[3] :], batch.edge_target_rels, emb.shape[0])
            attn_grads = (
                g_tgt, g_rel,
                a_in.T @ g_hidden, _bias_grad(g_hidden, lp.attn_b1.data),
                hidden.T @ g_logit, _bias_grad(g_logit, lp.attn_b2.data),
            )
        g_proj = (coef[:, :, None] * g_basis[:, None, :]).reshape(num_edges, num_bases * d)
        g_coef = np.einsum("ed,ebd->eb", g_basis, proj)
        g_flat = (h_src.T @ g_proj).reshape(d_in, num_bases, d)
        g_src = None
        if track_h:
            g_src = g_proj @ flat.T
            if through_gates:
                g_src = g_a_in[:, : cols[1]] + g_src
            g_src = ad.scatter_rows(g_src, senders, n)
        h_grads = (g_self, g_dst, g_src) if through_gates else (g_self, g_src)
        g_bases = tuple(g_flat[:, b, :] for b in range(num_bases))
        return (*h_grads, h.T @ g, *g_bases, ad.scatter_rows(g_coef, rels, num_rels), *attn_grads)

    # h_prev once per use: the self loop, the receivers' gather, the senders' gather
    parents = [h_prev, h_prev, h_prev] if through_gates else [h_prev, h_prev]
    parents += [lp.w_self, *lp.bases, lp.coeffs]
    if through_gates:
        # attn_rel_emb once per use: the target relations' gather, then the edges'
        parents += [params.attn_rel_emb, params.attn_rel_emb,
                    lp.attn_w1, lp.attn_b1, lp.attn_w2, lp.attn_b2]
    return Tensor(out, _parents=tuple(parents), _vjp=vjp)


def sample_edge_masks(
    union: SubgraphBatch, cfg: GnnConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Per-layer Bernoulli keep masks over the union's edges; no member's
    candidate edge is dropped.

    One rng.random call draws them all, read member by member and, within a
    member, layer by layer: the order of drawing each member's layers in
    turn.  At rate 0 nothing is drawn.  No 1/(1-p) rescaling: evaluation
    simply runs with all-ones masks.
    """
    num_edges, layers = len(union.edges), cfg.num_layers
    if cfg.edge_dropout_rate == 0.0:
        return [np.ones(num_edges) for _ in range(layers)]
    counts = union.edge_counts
    # member m's draws begin at layers * (its first edge row), one block of counts[m] per layer
    first = (layers - 1) * np.repeat(np.cumsum(counts) - counts, counts) + np.arange(num_edges)
    at = first + np.arange(layers).reshape(-1, 1) * np.repeat(counts, counts)
    masks = (rng.random(layers * num_edges)[at] >= cfg.edge_dropout_rate).astype(np.float64)
    masks[:, union.target_edge_pos] = 1.0
    return list(masks)


def score_triplet(
    batch: SubgraphBatch,
    params: GnnParams,
    cfg: GnnConfig,
    dropout_masks: list[np.ndarray] | None = None,
) -> Tensor:
    """Plausibility scores of a labeled union's candidate edges, shape (members, 1).

    dropout_masks holds one mask per layer over the union's edges.  Each
    member's readout concatenates [mean of its own node states, u, v,
    target-relation embedding]; with jk_enabled the block from every layer
    is concatenated, otherwise only the final layer's.
    """
    if batch.features is None:
        raise ValueError("subgraph is unlabeled; call label_nodes before scoring")
    if dropout_masks is not None and len(dropout_masks) != cfg.num_layers:
        raise ValueError(f"need {cfg.num_layers} dropout masks, got {len(dropout_masks)}")
    if batch.features.shape[1] != cfg.input_dim:
        raise ValueError(
            f"feature dim {batch.features.shape[1]} != configured input_dim {cfg.input_dim}"
        )
    h = ad.constant(batch.features)
    per_layer: list[Tensor] = []
    for layer in range(cfg.num_layers):
        mask = dropout_masks[layer] if dropout_masks is not None else None
        h = layer_forward(batch, h, layer, params, cfg, dropout_mask=mask)
        per_layer.append(h)
    e_rt = ad.slice_rows(params.target_rel_emb, batch.target_rels)
    inv_sizes = (1.0 / batch.member_sizes).reshape(-1, 1)
    num_members = len(batch.member_sizes)
    parts = []
    for h_k in per_layer if cfg.jk_enabled else per_layer[-1:]:
        pooled = ad.apply_mask(ad.segment_sum(h_k, batch.node_member, num_members), inv_sizes)
        parts += [pooled, ad.slice_rows(h_k, batch.u_rows), ad.slice_rows(h_k, batch.v_rows), e_rt]
    return ad.matmul(ad.concat(parts), params.readout_w)
