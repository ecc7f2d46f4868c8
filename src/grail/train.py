"""Margin-loss training loop, Adam optimizer, and binary checkpoints."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evaluate import GrailScorer, auc_pr, sample_negatives
from .kg import KnowledgeGraph, atomic_open
from .model import GnnConfig, GnnParams, init_params, sample_edge_masks, score_triplet
from .subgraph import (
    EXTRACTION_MODES,
    LABEL_SCHEMES,
    SubgraphBatch,
    extract_enclosing,
    extract_union,
    feature_dim,
    join,
    label_nodes,
    take_members,
)

__all__ = [
    "TrainConfig",
    "AdamState",
    "Checkpoint",
    "hinge_loss",
    "adam_step",
    "clip_gradients",
    "train",
    "save_checkpoint",
    "load_checkpoint",
    "setting_text",
    "parse_setting",
    "config_text",
    "config_from_text",
    "model_from_checkpoint",
    "resume_params",
    "ResumeError",
    "scorer_from_checkpoint",
    "write_loss_log",
]

# rng sub-stream tags; epoch-scoped streams make resumed runs replay exactly
_S_INIT = 1
_S_SHUFFLE = 2
_S_NEG = 3
_S_DROPOUT = 4
_S_VALID = 5

# a group of minibatches closes once it holds this many negatives; each
# group's negatives are extracted as one union, so this bounds its size
_GROUP_NEGATIVES = 128

# marks a TrainConfig field that shapes the subgraphs the model reads, so a
# resumed run must keep the checkpoint's value
_MODEL_INPUT = {"model_input": True}


@dataclass
class TrainConfig:
    margin: float = 10.0
    lr: float = 0.01
    l2: float = 5e-4
    clip_norm: float = 1000.0
    epochs: int = 50
    eval_every: int = 3
    batch_size: int = 16
    neg_per_pos: int = 1
    hops: int = field(default=3, metadata=_MODEL_INPUT)
    seed: int = 0
    labeling: str = field(default="double_radius", metadata=_MODEL_INPUT)
    extraction_mode: str = field(default="enclosing", metadata=_MODEL_INPUT)

    def __post_init__(self) -> None:
        if self.margin <= 0 or self.lr <= 0 or self.clip_norm <= 0:
            raise ValueError("margin, lr and clip_norm must be positive")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        if self.epochs < 1 or self.eval_every < 1 or self.batch_size < 1 or self.neg_per_pos < 1:
            raise ValueError("epochs, eval_every, batch_size and neg_per_pos must be >= 1")
        if self.hops < 1:
            raise ValueError(f"hops must be >= 1, got {self.hops}")
        if self.labeling not in LABEL_SCHEMES:
            raise ValueError(f"unknown labeling scheme {self.labeling!r}")
        if self.extraction_mode not in EXTRACTION_MODES:
            raise ValueError(f"unknown extraction mode {self.extraction_mode!r}")


def hinge_loss(scores: Tensor, pos_rows, neg_rows, margin: float) -> Tensor:
    """The summed margin loss sum_i max(0, scores[neg_i] - scores[pos_i] + margin).

    scores is a column of scores, one row per scored member; pos_rows[i]
    and neg_rows[i] name the rows of pair i, and a row may appear in many
    pairs.  One tape node: backward scatters the negatives' adjoint into
    scores before the positives', the order in which the chain of gathers
    it replaces added them.
    """
    pos_rows = np.asarray(pos_rows, dtype=np.intp)
    neg_rows = np.asarray(neg_rows, dtype=np.intp)
    num_rows = scores.data.shape[0]
    if scores.data.ndim != 2 or pos_rows.ndim != 1 or pos_rows.shape != neg_rows.shape:
        raise ValueError(
            f"hinge_loss: need 2-D scores and two row lists of one length, got shapes "
            f"{scores.data.shape}, {pos_rows.shape} and {neg_rows.shape}"
        )
    rows = np.concatenate([pos_rows, neg_rows])
    if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
        raise ValueError(f"hinge_loss: row index out of range for {num_rows} scores")
    hinge = scores.data[neg_rows] - scores.data[pos_rows] + margin
    keep = hinge > 0.0

    def vjp(g: np.ndarray):
        g_hinge = np.broadcast_to(g, hinge.shape).copy() * keep
        from_neg = ad.scatter_rows(g_hinge, neg_rows, num_rows)
        return (from_neg + ad.scatter_rows(-g_hinge, pos_rows, num_rows),)

    return Tensor(np.sum(np.where(keep, hinge, 0.0)), _parents=(scores,), _vjp=vjp)


@dataclass
class AdamState:
    """Adam's step count and moments.

    m and v are flat buffers over all parameters, laid out in the order of
    adam_step's params dict; both are None before the first step.
    """

    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def _unflatten(flat: np.ndarray, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Each parameter's view of flat, a buffer laid out in the order of params."""
    views, lo = {}, 0
    for name, p in params.items():
        views[name] = flat[lo : lo + p.data.size].reshape(p.data.shape)
        lo += p.data.size
    return views


def adam_step(
    params: dict[str, Tensor],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    l2: float = 0.0,
) -> None:
    """One Adam update from the tensors' accumulated .grad buffers.

    Classical L2 regularization: l2 * theta is added to the gradient before
    the moment updates, so it flows through both moving averages.  All
    parameters are updated as one flat vector, elementwise exactly as one
    tensor at a time; a non-finite gradient raises before anything changes.
    """
    tensors = list(params.values())
    g = np.concatenate([p.grad.ravel() for p in tensors])
    g += l2 * np.concatenate([p.data.ravel() for p in tensors])
    if not np.isfinite(g).all():
        name = next(n for n, part in _unflatten(g, params).items() if not np.isfinite(part).all())
        raise ValueError(f"non-finite gradient for parameter {name!r}")
    if state.m is None:
        state.m, state.v = np.zeros(g.size), np.zeros(g.size)
    elif state.m.shape != g.shape:
        raise ValueError(f"Adam moments hold {state.m.size} values for {g.size} parameter values")
    state.t += 1
    t = state.t
    m, v = state.m, state.v
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    step = lr * (m / (1.0 - beta1**t)) / (np.sqrt(v / (1.0 - beta2**t)) + eps)
    for name, part in _unflatten(step, params).items():
        params[name].data -= part


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all .grad buffers so the global L2 norm is at most max_norm.

    Returns the pre-clip norm.
    """
    if max_norm <= 0:
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    total = 0.0
    for p in params.values():
        total += float(np.sum(p.grad * p.grad))
    norm = float(np.sqrt(total))
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            g = p.grad
            g *= factor  # in place; .grad is a read-only view of the buffer
    return norm


MAGIC = b"GRAILCK1"


@dataclass
class Checkpoint:
    config: dict[str, str]
    tensors: dict[str, np.ndarray]
    epoch: int
    val_metric: float


def save_checkpoint(ck: Checkpoint, path: str) -> None:
    """Binary layout: magic, u32 tensor count, per tensor (u16 name length,
    name bytes, u8 rank, u32 dims, little-endian float64 data), then a
    u32-length-prefixed UTF-8 key=value config blob."""
    buf = bytearray(MAGIC)
    buf += struct.pack("<I", len(ck.tensors))
    for name, arr in ck.tensors.items():
        nb = name.encode("utf-8")
        if len(nb) > 0xFFFF:
            raise ValueError(f"tensor name too long: {name!r}")
        # asarray keeps rank-0 tensors rank 0 (ascontiguousarray would not)
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim > 0xFF:
            raise ValueError(f"tensor rank too large: {arr.ndim}")
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            buf += struct.pack("<I", dim)
        buf += arr.astype("<f8").tobytes(order="C")
    cfg = dict(ck.config)
    cfg["epoch"] = str(ck.epoch)
    cfg["val_auc_pr"] = repr(ck.val_metric)
    blob = "\n".join(f"{k}={v}" for k, v in cfg.items()).encode("utf-8")
    buf += struct.pack("<I", len(blob)) + blob
    with atomic_open(path, binary=True) as f:
        f.write(bytes(buf))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        raw = f.read()
    off = 0

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(raw):
            raise ValueError(f"truncated checkpoint file {path!r}")
        chunk = raw[off : off + n]
        off += n
        return chunk

    if take(len(MAGIC)) != MAGIC:
        raise ValueError(f"bad checkpoint magic in {path!r}")
    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<B", take(1))
        shape = tuple(struct.unpack("<I", take(4))[0] for _ in range(rank))
        size = 1
        for dim in shape:
            size *= dim
        data = np.frombuffer(take(8 * size), dtype="<f8").reshape(shape).copy()
        if name in tensors:
            raise ValueError(f"duplicate tensor name {name!r} in checkpoint")
        tensors[name] = data
    (blob_len,) = struct.unpack("<I", take(4))
    blob = take(blob_len).decode("utf-8")
    if off != len(raw):
        raise ValueError(f"trailing bytes after checkpoint payload in {path!r}")
    config: dict[str, str] = {}
    for line in blob.split("\n"):
        if line == "":
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line in checkpoint: {line!r}")
        key, val = line.split("=", 1)
        config[key] = val
    epoch = int(config.pop("epoch", "0"))
    val_metric = float(config.pop("val_auc_pr", "nan"))
    return Checkpoint(config=config, tensors=tensors, epoch=epoch, val_metric=val_metric)


def setting_text(value: object) -> str:
    """One setting as a config or checkpoint value: true/false, repr for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def parse_setting(key: str, default: object, raw: str) -> object:
    """Parse raw by the type of the setting's default (the inverse of setting_text)."""
    if isinstance(default, bool):
        if raw not in ("true", "false"):
            raise ValueError(f"config key {key!r} expects true or false, got {raw!r}")
        return raw == "true"
    if isinstance(default, (int, float)):
        try:
            return type(default)(raw)
        except ValueError:
            what = "an integer" if isinstance(default, int) else "a number"
            raise ValueError(f"config key {key!r} expects {what}, got {raw!r}") from None
    return raw


def config_text(cfg) -> dict[str, str]:
    """A config dataclass as key=value text, one entry per field in declared order."""
    return {f.name: setting_text(getattr(cfg, f.name)) for f in fields(cfg)}


def config_from_text(cls, text: dict[str, str]):
    """Build cls from key=value text; keys that are not fields of cls are
    ignored and a field without a key keeps its default."""
    return cls(**{
        f.name: parse_setting(f.name, f.default, text[f.name]) for f in fields(cls) if f.name in text
    })


def relations_from_checkpoint(ck: Checkpoint) -> list[str]:
    count = int(ck.config["num_relations"])
    return [ck.config[f"relation.{i}"] for i in range(count)]


def model_from_checkpoint(ck: Checkpoint) -> tuple[GnnParams, GnnConfig, TrainConfig]:
    """The weights and both configs of a checkpoint.

    Every weight tensor must have the name and shape that init_params gives
    for the stored config, so a checkpoint whose config does not describe its
    tensors fails here instead of at its first score.  The weights are
    copies: training them leaves ck as it was.
    """
    gcfg = config_from_text(GnnConfig, ck.config)
    tcfg = config_from_text(TrainConfig, ck.config)
    named = {k: v for k, v in ck.tensors.items() if not k.startswith("adam.")}
    params = init_params(gcfg, int(ck.config["num_relations"]), np.random.default_rng(0))
    layout = params.named_tensors()
    for name in [*layout, *(n for n in named if n not in layout)]:
        got = named[name].shape if name in named else None
        want = layout[name].data.shape if name in layout else None
        if got != want:
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {got} but its config gives {want}"
            )
        layout[name].data[...] = named[name]
    return params, gcfg, tcfg


class ResumeError(ValueError):
    """A start checkpoint that cannot be resumed on this graph with this config."""


def resume_params(
    start: Checkpoint, relation_names: list[str], gcfg: GnnConfig, tcfg: TrainConfig
) -> tuple[GnnParams, AdamState]:
    """The weights and the Adam state to resume training from, copied out of start.

    Raises ResumeError if start was trained on another relation vocabulary,
    if its weights do not match its own config, if any GnnConfig field or
    model-input TrainConfig field differs, if its Adam moments do not cover
    every parameter with its shape, or if it is already at tcfg.epochs;
    epochs and the optimiser settings may change.
    """
    try:
        if relations_from_checkpoint(start) != relation_names:
            raise ValueError("checkpoint relation vocabulary does not match the training graph")
        params, ck_gcfg, ck_tcfg = model_from_checkpoint(start)
        pairs = [(f, ck_gcfg, gcfg) for f in fields(gcfg)]
        pairs += [(f, ck_tcfg, tcfg) for f in fields(tcfg) if f.metadata.get("model_input")]
        for f, old, new in pairs:
            was, now = getattr(old, f.name), getattr(new, f.name)
            if was != now:
                raise ValueError(
                    f"cannot resume: the checkpoint has {f.name}={setting_text(was)} "
                    f"but the config has {f.name}={setting_text(now)}"
                )
        adam = _adam_state_from_tensors(start.tensors, params.named_tensors())
        if start.epoch >= tcfg.epochs:
            raise ValueError(
                f"checkpoint is already at epoch {start.epoch}; nothing to train "
                f"with epochs={tcfg.epochs}"
            )
    except ValueError as e:
        raise ResumeError(str(e)) from e
    return params, adam


def scorer_from_checkpoint(
    ck: Checkpoint, aux_features: dict[str, np.ndarray] | None = None
) -> GrailScorer:
    params, gcfg, tcfg = model_from_checkpoint(ck)
    return GrailScorer(
        params,
        gcfg,
        relations_from_checkpoint(ck),
        hops=tcfg.hops,
        labeling=tcfg.labeling,
        mode=tcfg.extraction_mode,
        aux_features=aux_features,
    )


def _checkpoint_tensors(params: GnnParams, state: AdamState) -> dict[str, np.ndarray]:
    """The weights, Adam's moments per parameter once it has stepped, then its step count."""
    named = params.named_tensors()
    out = {name: t.data.copy() for name, t in named.items()}
    for key, flat in (("m", state.m), ("v", state.v)):
        if flat is not None:
            for name, part in _unflatten(flat, named).items():
                out[f"adam.{key}.{name}"] = part.copy()
    out["adam.t"] = np.array(float(state.t))
    return out


def _adam_state_from_tensors(
    tensors: dict[str, np.ndarray], params: dict[str, Tensor]
) -> AdamState:
    """The Adam state _checkpoint_tensors stored, its moments in the order of params;
    they must cover every parameter with its shape, or be absent altogether."""
    state = AdamState()
    if "adam.t" in tensors:
        state.t = int(np.asarray(tensors["adam.t"]).reshape(-1)[0])
    stored = [n for n in tensors if n.startswith(("adam.m.", "adam.v."))]
    if not stored:
        return state
    unknown = next((n for n in stored if n[len("adam.m.") :] not in params), None)
    if unknown is not None:
        raise ValueError(f"checkpoint tensor {unknown!r} holds Adam moments of no parameter")
    for name, p in params.items():
        for key in (f"adam.m.{name}", f"adam.v.{name}"):
            if key not in tensors:
                raise ValueError(f"checkpoint has Adam moments, but no {key!r}")
            if tensors[key].shape != p.data.shape:
                raise ValueError(
                    f"Adam moments of {name!r} have shape {tensors[key].shape}, "
                    f"but the parameter has shape {p.data.shape}"
                )
    state.m, state.v = (
        np.concatenate([tensors[f"adam.{key}.{name}"].ravel() for name in params]) for key in "mv"
    )
    return state


def _minibatches(
    g_train: KnowledgeGraph,
    positives: np.ndarray,
    pos_union: SubgraphBatch,
    order: np.ndarray,
    tcfg: TrainConfig,
    rng_neg: np.random.Generator,
    aux_ids: dict[int, np.ndarray] | None,
):
    """One epoch's minibatches as (positive indices, labeled union).

    positives is the (P, 3) integer array of the training positives.
    Minibatch i is order[i * batch_size : (i + 1) * batch_size], sorted; its
    union holds each positive, then its neg_per_pos negatives drawn from
    rng_neg.  Whole minibatches are grouped in order until a group holds at
    least _GROUP_NEGATIVES negatives, and each group's negatives are drawn
    in one sample_negatives call and extracted and labeled as one union, so
    the cost fixed per draw and per extraction is paid once per group while
    its memory stays bounded.  Each minibatch is then one gather from its
    group: the same members, in the same order, as one extraction per
    minibatch would give.
    """
    size, n = tcfg.batch_size, tcfg.neg_per_pos
    batches = [np.sort(order[lo : lo + size]) for lo in range(0, len(order), size)]
    per_group = -(-_GROUP_NEGATIVES // (size * n))
    for at in range(0, len(batches), per_group):
        group = batches[at : at + per_group]
        group_pos = np.concatenate(group)
        negs = sample_negatives(g_train, positives[np.repeat(group_pos, n)], rng_neg)
        neg_union = extract_union(g_train, negs, tcfg.hops, tcfg.extraction_mode)
        union = join([take_members(pos_union, group_pos),
                      label_nodes(neg_union, tcfg.labeling, aux_ids)])
        lo = 0
        for batch in group:
            pos_rows = lo + np.arange(len(batch))
            neg_rows = len(group_pos) + n * pos_rows[:, None] + np.arange(n)
            yield batch, take_members(union, np.column_stack([pos_rows, neg_rows]).ravel())
            lo += len(batch)


def train(
    g_train: KnowledgeGraph,
    valid_triples: list[tuple[int, int, int]],
    tcfg: TrainConfig,
    gcfg: GnnConfig,
    aux_features: dict[str, np.ndarray] | None = None,
    start: Checkpoint | None = None,
    log_fn=None,
) -> tuple[Checkpoint, Checkpoint, list[dict]]:
    """Train on every non-self-loop triple of g_train with sampled negatives.

    Per positive, neg_per_pos corrupted negatives are drawn and every
    candidate edge is scored on its extracted subgraph with per-layer edge
    dropout.  Each minibatch is scored as one disjoint union of those
    subgraphs, each positive (in ascending index order) then its negatives,
    and its loss is the sum of the `hinge_loss` terms.  The positives'
    subgraphs are extracted once, before the first epoch; the negatives'
    are extracted once per group of minibatches holding at least
    _GROUP_NEGATIVES of them, and each minibatch gathers its members from
    its group (see _minibatches).  Adam updates all parameters as one flat
    vector.  Every eval_every epochs (and on the final
    epoch) validation AUC-PR is computed against fixed, seed-derived
    corruptions of valid_triples, and the best-scoring parameters are kept.

    Returns (best checkpoint, final-epoch checkpoint, per-epoch history).
    Resuming from the final-epoch checkpoint replays the exact same epoch
    streams, so the resumed parameter trajectory is bit-identical to an
    uninterrupted run.  Best-checkpoint selection seeds from the start
    checkpoint's own validation metric (when it has one) and the resumed
    epochs' evaluations.  A start that cannot be resumed raises
    resume_params' ResumeError before any epoch runs.
    """
    if not g_train.triples:
        raise ValueError("training graph has no triples")
    if not valid_triples:
        raise ValueError("validation set is empty")
    positives = np.array([trip for trip in g_train.triples if trip[0] != trip[2]],
                         dtype=np.int64).reshape(-1, 3)
    if not len(positives):
        raise ValueError("training graph has no non-self-loop triples to score")
    valid_pos = [trip for trip in valid_triples if trip[0] != trip[2]]
    if not valid_pos:
        raise ValueError("validation set has no non-self-loop triples to score")
    aux_ids = None
    aux_dim = 0
    if aux_features is not None:
        missing = next((nm for nm in g_train.entity_names if nm not in aux_features), None)
        if missing is not None:
            raise ValueError(f"auxiliary features missing entity {missing!r}")
        aux_ids = dict(enumerate(aux_features[nm] for nm in g_train.entity_names))
        aux_dim = aux_ids[0].shape[0]
        odd = next((i for i, vec in aux_ids.items() if vec.shape[0] != aux_dim), None)
        if odd is not None:
            raise ValueError(
                f"auxiliary features of entity {g_train.entity_names[odd]!r} have width "
                f"{aux_ids[odd].shape[0]}, but {g_train.entity_names[0]!r} has width {aux_dim}"
            )
    expected_dim = feature_dim(tcfg.hops, aux_dim)
    if gcfg.input_dim != expected_dim:
        raise ValueError(
            f"gnn input_dim {gcfg.input_dim} != {expected_dim} required by "
            f"hops={tcfg.hops} and aux dim {aux_dim}"
        )

    seed = tcfg.seed
    if start is not None:
        params, adam = resume_params(start, g_train.relation_names, gcfg, tcfg)
        first_epoch = start.epoch + 1
    else:
        params = init_params(gcfg, g_train.num_relations, np.random.default_rng([seed, _S_INIT]))
        adam = AdamState()
        first_epoch = 1
    named_params = params.named_tensors()

    def labeled_union(trips: list[tuple[int, int, int]]):
        union = extract_union(g_train, trips, tcfg.hops, tcfg.extraction_mode)
        return label_nodes(union, tcfg.labeling, aux_ids)

    # every positive's subgraph, fixed for the run, as one labeled union
    pos_subs = [extract_enclosing(g_train, h, t, r, tcfg.hops, tcfg.extraction_mode)
                for h, r, t in positives.tolist()]
    pos_union = label_nodes(join(pos_subs), tcfg.labeling, aux_ids)

    # validation positives/negatives and their subgraphs are fixed for the run
    rng_valid = np.random.default_rng([seed, _S_VALID])
    valid_negs = sample_negatives(g_train, valid_pos, rng_valid)
    valid_pos_batch = labeled_union(valid_pos)
    valid_neg_batch = labeled_union(valid_negs)

    def validation_auc() -> float:
        with ad.no_grad():
            ps = score_triplet(valid_pos_batch, params, gcfg)
            ns = score_triplet(valid_neg_batch, params, gcfg)
        return auc_pr(ps.data[:, 0], ns.data[:, 0])

    history: list[dict] = []
    best: Checkpoint | None = None
    snapshot = {**config_text(gcfg), **config_text(tcfg)}
    snapshot["num_relations"] = str(g_train.num_relations)
    snapshot.update((f"relation.{i}", name) for i, name in enumerate(g_train.relation_names))
    if start is not None and not np.isnan(start.val_metric):
        best = start
    n = tcfg.neg_per_pos
    for epoch in range(first_epoch, tcfg.epochs + 1):
        rng_shuffle = np.random.default_rng([seed, _S_SHUFFLE, epoch])
        rng_neg = np.random.default_rng([seed, _S_NEG, epoch])
        rng_drop = np.random.default_rng([seed, _S_DROPOUT, epoch])
        order = rng_shuffle.permutation(len(positives))
        total_loss = 0.0
        for _, union in _minibatches(g_train, positives, pos_union, order, tcfg, rng_neg, aux_ids):
            for p in named_params.values():
                p.zero_grad()
            masks = sample_edge_masks(union, gcfg, rng_drop)
            scores = score_triplet(union, params, gcfg, dropout_masks=masks)
            rows = np.arange(len(union.member_sizes)).reshape(-1, n + 1)  # a positive, then its negatives
            loss = hinge_loss(scores, np.repeat(rows[:, 0], n), rows[:, 1:].ravel(), tcfg.margin)
            loss.backward()
            clip_gradients(named_params, tcfg.clip_norm)
            adam_step(named_params, adam, tcfg.lr, l2=tcfg.l2)
            total_loss += loss.item()
        mean_loss = total_loss / (len(positives) * tcfg.neg_per_pos)
        val = None
        if epoch % tcfg.eval_every == 0 or epoch == tcfg.epochs:
            val = validation_auc()
            if best is None or val > best.val_metric:
                best = Checkpoint(
                    config=dict(snapshot),
                    tensors=_checkpoint_tensors(params, adam),
                    epoch=epoch,
                    val_metric=val,
                )
        history.append({"epoch": epoch, "loss": mean_loss, "val_auc_pr": val})
        if log_fn is not None:
            val_txt = "" if val is None else f" val_auc_pr={val:.4f}"
            log_fn(f"epoch {epoch}: loss={mean_loss:.4f}{val_txt}")
    assert best is not None
    final_val = history[-1]["val_auc_pr"] if history else float("nan")
    final = Checkpoint(
        config=dict(snapshot),
        tensors=_checkpoint_tensors(params, adam),
        epoch=tcfg.epochs,
        val_metric=float("nan") if final_val is None else final_val,
    )
    return best, final, history


def write_loss_log(history: list[dict], path: str) -> None:
    with atomic_open(path) as f:
        f.write("epoch,loss,val_auc_pr\n")
        for row in history:
            val = "" if row["val_auc_pr"] is None else repr(row["val_auc_pr"])
            f.write(f"{row['epoch']},{row['loss']!r},{val}\n")
