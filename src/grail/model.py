"""Attention-gated multi-relational GNN scoring candidate edges on labeled subgraphs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .subgraph import LabeledSubgraph


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


def _glorot(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-limit, limit, size=shape)


def init_params(
    cfg: GnnConfig, num_relations: int, rng: np.random.Generator, zero: bool = False
) -> GnnParams:
    """Xavier-uniform weights, zero biases; pass zero=True for an all-zero test model."""
    if num_relations < 1:
        raise ValueError(f"num_relations must be >= 1, got {num_relations}")
    d = cfg.hidden_dim
    d_attn = cfg.hidden_dim
    attn_hidden = cfg.hidden_dim

    def draw(shape: tuple[int, int]) -> Tensor:
        if zero:
            return ad.parameter(np.zeros(shape))
        return ad.parameter(_glorot(rng, shape))

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


def params_from_named(named: dict[str, np.ndarray]) -> GnnParams:
    """Rebuild GnnParams from a checkpoint's named arrays; shapes come from the data."""
    layer_ids = set()
    for name in named:
        if name.startswith("layers."):
            layer_ids.add(int(name.split(".")[1]))
    if not layer_ids or sorted(layer_ids) != list(range(max(layer_ids) + 1)):
        raise ValueError("checkpoint tensor names do not describe a contiguous layer stack")
    layers = []
    for i in sorted(layer_ids):
        basis_names = sorted(
            (n for n in named if n.startswith(f"layers.{i}.bases.")),
            key=lambda n: int(n.split(".")[-1]),
        )
        if not basis_names:
            raise ValueError(f"checkpoint layer {i} has no basis tensors")
        layers.append(
            LayerParams(
                bases=[ad.parameter(named[n]) for n in basis_names],
                coeffs=ad.parameter(named[f"layers.{i}.coeffs"]),
                w_self=ad.parameter(named[f"layers.{i}.w_self"]),
                attn_w1=ad.parameter(named[f"layers.{i}.attn_w1"]),
                attn_b1=ad.parameter(named[f"layers.{i}.attn_b1"]),
                attn_w2=ad.parameter(named[f"layers.{i}.attn_w2"]),
                attn_b2=ad.parameter(named[f"layers.{i}.attn_b2"]),
            )
        )
    return GnnParams(
        layers=layers,
        attn_rel_emb=ad.parameter(named["attn_rel_emb"]),
        target_rel_emb=ad.parameter(named["target_rel_emb"]),
        readout_w=ad.parameter(named["readout_w"]),
    )


def _snap_alpha(alpha: Tensor) -> Tensor:
    """Verifier-mode gate hardening: push saturated sigmoid outputs to exact 0/1."""
    data = alpha.data.copy()
    data[data < 1e-6] = 0.0
    data[data > 1.0 - 1e-6] = 1.0
    return ad.constant(data)


@dataclass
class SubgraphBatch:
    """A disjoint union of labeled subgraphs, scored in one pass.

    Member i owns a contiguous block of node rows, starting at the sum of
    the earlier members' sizes; edges are (head, relation, tail) rows over
    union node rows, each member's edges in its own order.
    """

    edges: np.ndarray             # (E, 3) int
    edge_target_rels: np.ndarray  # (E,) scored relation of the member owning each edge
    node_member: np.ndarray       # (N,) member of each node row
    member_sizes: np.ndarray      # (B,) nodes per member
    u_rows: np.ndarray            # (B,) union row of each member's u
    v_rows: np.ndarray            # (B,) union row of each member's v
    target_rels: np.ndarray       # (B,) scored relation per member
    features: np.ndarray | None   # (N, input_dim); None if any member is unlabeled

    @property
    def num_nodes(self) -> int:
        return self.node_member.shape[0]


def batch_subgraphs(subs: list[LabeledSubgraph]) -> SubgraphBatch:
    """Offset and concatenate subgraphs into one disjoint union, in the given order."""
    if not subs:
        raise ValueError("need at least one subgraph to batch")
    sizes = np.array([s.num_nodes for s in subs], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    edge_counts = np.array([len(s.edges) for s in subs], dtype=np.intp)
    edges = np.concatenate([s.edges for s in subs])
    edge_starts = np.repeat(starts, edge_counts)
    edges[:, 0] += edge_starts
    edges[:, 2] += edge_starts
    targets = np.array([s.target for s in subs], dtype=np.intp)
    unlabeled = any(s.features is None for s in subs)
    return SubgraphBatch(
        edges=edges,
        edge_target_rels=np.repeat(targets[:, 1], edge_counts),
        node_member=np.repeat(np.arange(len(subs)), sizes),
        member_sizes=sizes,
        u_rows=starts + targets[:, 0],
        v_rows=starts + targets[:, 2],
        target_rels=targets[:, 1],
        features=None if unlabeled else np.concatenate([s.features for s in subs]),
    )


def _attention(
    h_src: Tensor,
    h_dst: Tensor,
    rels: np.ndarray,
    target_rels: np.ndarray,
    lp: LayerParams,
    attn_rel_emb: Tensor,
) -> Tensor:
    """(E, 1) gates from an MLP over [h_src, h_dst, e_r, e_rt], one row per edge."""
    a_in = ad.concat(
        [h_src, h_dst, ad.slice_rows(attn_rel_emb, rels), ad.slice_rows(attn_rel_emb, target_rels)]
    )
    s = ad.relu(ad.add(ad.matmul(a_in, lp.attn_w1), lp.attn_b1))
    return ad.sigmoid(ad.add(ad.matmul(s, lp.attn_w2), lp.attn_b2))


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
    flow along edge direction instead (edge (s, r, t) sends into t).
    """
    lp = params.layers[layer]
    heads, rels, tails = batch.edges.T
    senders, receivers = (heads, tails) if cfg.aggregate_in_neighbors else (tails, heads)
    h_src = ad.slice_rows(h_prev, senders)
    msg = ad.basis_matmul(h_src, ad.slice_rows(lp.coeffs, rels), lp.bases)
    if cfg.attention_enabled:
        h_dst = ad.slice_rows(h_prev, receivers)
        alpha = _attention(h_src, h_dst, rels, batch.edge_target_rels, lp, params.attn_rel_emb)
        if snap_alpha:
            alpha = _snap_alpha(alpha)
        msg = ad.mul(msg, alpha)
    if dropout_mask is not None:
        mask = np.asarray(dropout_mask, dtype=np.float64)
        if mask.shape != (len(rels),):
            raise ValueError(f"dropout mask shape {mask.shape} != ({len(rels)},)")
        msg = ad.apply_mask(msg, mask.reshape(-1, 1))
    agg = ad.segment_sum(msg, receivers, batch.num_nodes)
    return ad.relu(ad.add(ad.matmul(h_prev, lp.w_self), agg))


def sample_edge_masks(
    sub: LabeledSubgraph, cfg: GnnConfig, rng: np.random.Generator
) -> list[np.ndarray]:
    """Per-layer Bernoulli keep masks; the candidate edge is never dropped.

    No 1/(1-p) rescaling: evaluation simply runs with all-ones masks.
    """
    num_edges = len(sub.edges)
    masks = []
    for _ in range(cfg.num_layers):
        if cfg.edge_dropout_rate == 0.0:
            mask = np.ones(num_edges)
        else:
            mask = (rng.random(num_edges) >= cfg.edge_dropout_rate).astype(np.float64)
            mask[sub.target_edge_pos] = 1.0
        masks.append(mask)
    return masks


def score_triplet(
    sub: LabeledSubgraph | SubgraphBatch,
    params: GnnParams,
    cfg: GnnConfig,
    dropout_masks: list[np.ndarray] | None = None,
) -> Tensor:
    """Plausibility scores of candidate edges, shape (members, 1).

    sub is one labeled subgraph (a batch of one) or a disjoint union from
    batch_subgraphs; dropout_masks holds one mask per layer over the
    union's edges.  Each member's readout concatenates [mean of its own
    node states, u, v, target-relation embedding]; with jk_enabled the block
    from every layer is concatenated, otherwise only the final layer's.
    """
    batch = sub if isinstance(sub, SubgraphBatch) else batch_subgraphs([sub])
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
