"""Margin-loss training loop, Adam optimizer, and binary checkpoints."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .evaluate import GrailScorer, auc_pr, sample_negative
from .kg import KnowledgeGraph, atomic_open
from .model import (
    GnnConfig,
    GnnParams,
    batch_subgraphs,
    init_params,
    params_from_named,
    sample_edge_masks,
    score_triplet,
)
from .subgraph import EXTRACTION_MODES, LABEL_SCHEMES, extract_enclosing, feature_dim, label_nodes

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
    "scorer_from_checkpoint",
    "write_loss_log",
]

# rng sub-stream tags; epoch-scoped streams make resumed runs replay exactly
_S_INIT = 1
_S_SHUFFLE = 2
_S_NEG = 3
_S_DROPOUT = 4
_S_VALID = 5

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


def hinge_loss(pos_score: Tensor, neg_score: Tensor, margin: float) -> Tensor:
    """max(0, neg - pos + margin)."""
    diff = ad.add(neg_score, ad.scale(pos_score, -1.0))
    return ad.relu(ad.add(diff, ad.constant(np.float64(margin))))


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


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
    the moment updates, so it flows through both moving averages.
    """
    state.t += 1
    t = state.t
    for name in params:
        p = params[name]
        g = p.grad + l2 * p.data
        if not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1**t)
        v_hat = state.v[name] / (1.0 - beta2**t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)


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
    tensors fails here instead of at its first score.
    """
    gcfg = config_from_text(GnnConfig, ck.config)
    tcfg = config_from_text(TrainConfig, ck.config)
    named = {k: v for k, v in ck.tensors.items() if not k.startswith("adam.")}
    layout = init_params(gcfg, int(ck.config["num_relations"]), np.random.default_rng(0), zero=True)
    want = {name: t.data.shape for name, t in layout.named_tensors().items()}
    for name in [*want, *(n for n in named if n not in want)]:
        got = named[name].shape if name in named else None
        if got != want.get(name):
            raise ValueError(
                f"checkpoint tensor {name!r} has shape {got} but its config gives {want.get(name)}"
            )
    return params_from_named(named), gcfg, tcfg


def resume_params(
    start: Checkpoint, relation_names: list[str], gcfg: GnnConfig, tcfg: TrainConfig
) -> GnnParams:
    """The weights to resume training from.

    Raises ValueError if start was trained on another relation vocabulary,
    or if any GnnConfig field or model-input TrainConfig field differs;
    epochs and the optimiser settings may change.
    """
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
    return params


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
    out = {name: t.data.copy() for name, t in params.named_tensors().items()}
    for name, arr in state.m.items():
        out[f"adam.m.{name}"] = arr.copy()
    for name, arr in state.v.items():
        out[f"adam.v.{name}"] = arr.copy()
    out["adam.t"] = np.array(float(state.t))
    return out


def _adam_state_from_tensors(tensors: dict[str, np.ndarray]) -> AdamState:
    state = AdamState()
    for name, arr in tensors.items():
        if name.startswith("adam.m."):
            state.m[name[len("adam.m.") :]] = arr.copy()
        elif name.startswith("adam.v."):
            state.v[name[len("adam.v.") :]] = arr.copy()
    if "adam.t" in tensors:
        state.t = int(np.asarray(tensors["adam.t"]).reshape(-1)[0])
    return state


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

    Per positive, a corrupted negative is drawn and both candidate edges are
    scored on their extracted subgraphs with per-layer edge dropout.  Each
    minibatch is scored as one disjoint union of those subgraphs, in
    ascending positive index order, and its loss is the sum of the
    `hinge_loss` terms.  Every eval_every epochs (and on the final
    epoch) validation AUC-PR is computed against fixed, seed-derived
    corruptions of valid_triples, and the best-scoring parameters are kept.

    Returns (best checkpoint, final-epoch checkpoint, per-epoch history).
    Resuming from the final-epoch checkpoint replays the exact same epoch
    streams, so the resumed parameter trajectory is bit-identical to an
    uninterrupted run.  Best-checkpoint selection seeds from the start
    checkpoint's own validation metric (when it has one) and the resumed
    epochs' evaluations.
    """
    if not g_train.triples:
        raise ValueError("training graph has no triples")
    if not valid_triples:
        raise ValueError("validation set is empty")
    positives = [trip for trip in g_train.triples if trip[0] != trip[2]]
    if not positives:
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
        params = resume_params(start, g_train.relation_names, gcfg, tcfg)
        adam = _adam_state_from_tensors(start.tensors)
        first_epoch = start.epoch + 1
        if first_epoch > tcfg.epochs:
            raise ValueError(
                f"checkpoint is already at epoch {start.epoch}; nothing to train "
                f"with epochs={tcfg.epochs}"
            )
    else:
        params = init_params(gcfg, g_train.num_relations, np.random.default_rng([seed, _S_INIT]))
        adam = AdamState()
        first_epoch = 1
    named_params = params.named_tensors()

    sub_cache: dict[tuple[int, int, int], object] = {}

    def labeled_sub(trip: tuple[int, int, int], cache: bool):
        if cache and trip in sub_cache:
            return sub_cache[trip]
        h, r, t = trip
        sub = extract_enclosing(g_train, h, t, r, tcfg.hops, tcfg.extraction_mode)
        sub = label_nodes(sub, tcfg.labeling, aux_ids)
        if cache:
            sub_cache[trip] = sub
        return sub

    # validation positives/negatives and their subgraphs are fixed for the run
    rng_valid = np.random.default_rng([seed, _S_VALID])
    valid_negs = [sample_negative(g_train, trip, rng_valid) for trip in valid_pos]
    valid_pos_batch = batch_subgraphs([labeled_sub(t, cache=False) for t in valid_pos])
    valid_neg_batch = batch_subgraphs([labeled_sub(t, cache=False) for t in valid_negs])

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
    for epoch in range(first_epoch, tcfg.epochs + 1):
        rng_shuffle = np.random.default_rng([seed, _S_SHUFFLE, epoch])
        rng_neg = np.random.default_rng([seed, _S_NEG, epoch])
        rng_drop = np.random.default_rng([seed, _S_DROPOUT, epoch])
        order = rng_shuffle.permutation(len(positives))
        total_loss = 0.0
        for lo in range(0, len(order), tcfg.batch_size):
            batch = sorted(int(i) for i in order[lo : lo + tcfg.batch_size])
            for p in named_params.values():
                p.zero_grad()
            # one union per minibatch: each positive, then its negatives
            subs, masks, pos_rows, neg_rows = [], [], [], []
            for idx in batch:
                pos = positives[idx]
                pos_row = len(subs)
                subs.append(labeled_sub(pos, cache=True))
                masks.append(sample_edge_masks(subs[-1], gcfg, rng_drop))
                for _ in range(tcfg.neg_per_pos):
                    neg = sample_negative(g_train, pos, rng_neg)
                    pos_rows.append(pos_row)
                    neg_rows.append(len(subs))
                    subs.append(labeled_sub(neg, cache=False))
                    masks.append(sample_edge_masks(subs[-1], gcfg, rng_drop))
            union_masks = [np.concatenate(layer) for layer in zip(*masks)]
            scores = score_triplet(batch_subgraphs(subs), params, gcfg, dropout_masks=union_masks)
            pos_scores = ad.slice_rows(scores, pos_rows)
            neg_scores = ad.slice_rows(scores, neg_rows)
            loss = ad.sum_all(hinge_loss(pos_scores, neg_scores, tcfg.margin))
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
