"""Ranking metrics, model application to held-out graphs, and late-fusion ensembling."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .kg import KnowledgeGraph, atomic_open, without_triples
from .model import GnnConfig, GnnParams, score_triplet
from .subgraph import SubgraphBatch, bounded_unions, feature_dim, label_nodes


def auc_pr(pos_scores, neg_scores) -> float:
    """Area under the precision-recall curve by threshold-step integration.

    Thresholds are the distinct score values walked in descending order; tied
    scores enter together, so a positive never counts ahead of an equally
    scored negative.  Perfect separation gives 1.0; a constant scorer gives
    the positive prevalence.
    """
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("auc_pr needs at least one positive and one negative score")
    if not (np.all(np.isfinite(pos)) and np.all(np.isfinite(neg))):
        raise ValueError("auc_pr: non-finite scores")
    scores = np.concatenate([pos, neg])
    labels = np.concatenate([np.ones(pos.size), np.zeros(neg.size)])
    order = np.argsort(-scores, kind="stable")
    scores = scores[order]
    labels = labels[order]
    area = 0.0
    tp = 0
    fp = 0
    prev_recall = 0.0
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j < n and scores[j] == scores[i]:
            j += 1
        tp += int(np.sum(labels[i:j]))
        fp += (j - i) - int(np.sum(labels[i:j]))
        recall = tp / pos.size
        precision = tp / (tp + fp)
        area += (recall - prev_recall) * precision
        prev_recall = recall
        i = j
    return float(area)


def sample_negative(
    g: KnowledgeGraph, positive: tuple[int, int, int], rng: np.random.Generator
) -> tuple[int, int, int]:
    """Corrupt head or tail (fair coin) with a uniform entity.

    Draws are rejected while the corruption reproduces the positive itself or
    produces a self-loop candidate (self-loops cannot be scored, since the two
    target nodes must differ).  The corruption may coincide with another true
    triple: sampling is unfiltered.  The coin is one rng.integers(2) draw and
    each entity one rng.integers(num_entities) draw, in that order.
    """
    return tuple(sample_negatives(g, [positive], rng)[0].tolist())


# negatives drawn per array draw; a rejection replays its block up to the
# rejected draw, so a longer block replays more
_NEGATIVE_BLOCK = 512


def sample_negatives(g: KnowledgeGraph, positives, rng: np.random.Generator) -> np.ndarray:
    """[sample_negative(g, p, rng) for p in positives] as a (P, 3) integer
    array, drawn in bulk.

    Returns the same negatives, and leaves rng in the same state, as that
    loop.  A block of negatives is one rng.integers call whose array of
    upper bounds (2, num_entities, 2, num_entities, ...) draws the coin and
    the first entity of each negative in the loop's order, element by element
    with the scalar calls' bounded draw.  A drawn entity is rejected exactly
    when it is an end of its positive; at the first rejection in a block the
    generator is rewound to the block's start, the draws are replayed up to
    that entity, the entity is drawn again one at a time until accepted, and
    the next block starts after that negative.  The positives are checked
    first, and the first bad one raises sample_negative's message.
    """
    pos = np.asarray(positives, dtype=np.int64).reshape(-1, 3)
    heads, rels, tails = pos.T
    n = g.num_entities
    bad = (heads < 0) | (heads >= n) | (tails < 0) | (tails >= n)
    bad |= (rels < 0) | (rels >= g.num_relations) | (n - 1 - (heads != tails) < 1)
    if bad.any():
        h, r, t = pos[bad.argmax()].tolist()
        g.check_entity(h)
        g.check_entity(t)
        g.check_relation(r)
        raise ValueError(f"too few entities ({n}) to corrupt triple ({h},{r},{t})")
    highs = np.tile(np.array([2, n], dtype=np.int64), min(_NEGATIVE_BLOCK, len(pos)))
    draws = np.empty((len(pos), 2), dtype=np.int64)  # (side, entity) per negative
    at = 0
    while at < len(pos):
        size = min(_NEGATIVE_BLOCK, len(pos) - at)
        state = rng.bit_generator.state
        block = rng.integers(0, highs[: 2 * size]).reshape(-1, 2)
        h, t = heads[at : at + size], tails[at : at + size]
        rejected = (block[:, 1] == h) | (block[:, 1] == t)
        if rejected.any():
            size = int(rejected.argmax()) + 1
            rng.bit_generator.state = state
            rng.integers(0, highs[: 2 * size])
            ends = (h[size - 1], t[size - 1])
            while block[size - 1, 1] in ends:
                block[size - 1, 1] = rng.integers(n)
        draws[at : at + size] = block[:size]
        at += size
    on_head = draws[:, 0] == 0
    ents = draws[:, 1]
    return np.column_stack([np.where(on_head, ents, heads), rels, np.where(on_head, tails, ents)])


def rank_from_scores(pos_score: float, neg_scores) -> int:
    """1-based rank of the positive among its negatives; ties count half (floored)."""
    neg = np.asarray(neg_scores, dtype=np.float64)
    greater = int(np.sum(neg > pos_score))
    ties = int(np.sum(neg == pos_score))
    return 1 + greater + ties // 2


class GrailScorer:
    """Applies trained parameters to candidate edges of an arbitrary graph.

    Relations are matched by name against the training vocabulary, and
    auxiliary features are looked up by entity name, so the entity
    vocabulary of the scored graph is free to be disjoint from training (the
    inductive setting).  A call checks the vocabulary and builds the held-out
    keys once, then extracts, labels and scores its candidates in
    node-bounded chunks, each as one disjoint union of their labeled
    subgraphs, with dropout off and no tape.
    """

    def __init__(
        self,
        params: GnnParams,
        cfg: GnnConfig,
        relation_names: list[str],
        hops: int,
        labeling: str = "double_radius",
        mode: str = "enclosing",
        aux_features: dict[str, np.ndarray] | None = None,
    ) -> None:
        aux_dim = next(iter(aux_features.values())).shape[0] if aux_features else 0
        if cfg.input_dim != feature_dim(hops, aux_dim):
            raise ValueError(
                f"model input_dim {cfg.input_dim} needs aux width "
                f"{cfg.input_dim - feature_dim(hops)} at hops={hops}, "
                f"but the aux features have width {aux_dim}"
            )
        self.params = params
        self.cfg = cfg
        self.relation_ids = {n: i for i, n in enumerate(relation_names)}
        self.hops = hops
        self.labeling = labeling
        self.mode = mode
        self.aux_features = aux_features

    def _aux_by_id(self, g: KnowledgeGraph, nodes: np.ndarray) -> dict[int, np.ndarray] | None:
        if self.aux_features is None:
            return None
        try:
            return {n: self.aux_features[g.entity_names[n]] for n in nodes}
        except KeyError as e:
            raise ValueError(f"auxiliary features missing entity {e.args[0]!r}") from None

    def __call__(
        self,
        g: KnowledgeGraph,
        candidates: np.ndarray,
        held_out: set[tuple[int, int, int]],
    ) -> list[float]:
        """Scores of the (C, 3) integer array of candidates (h, r, t) of g,
        in order.

        The candidates are scored in the consecutive node-bounded unions of
        bounded_unions, so a call's memory is bounded by NODE_BUDGET however
        many candidates it holds.  held_out holds id triples of g that must
        not reach message passing: an AssertionError names the first one
        found in a candidate's subgraph other than as the candidate edge
        itself.
        """
        unknown = [n for n in g.relation_names if n not in self.relation_ids]
        if unknown:
            raise ValueError(
                "graph relations absent from model vocabulary: " + ", ".join(sorted(unknown))
            )
        rel_map = np.array([self.relation_ids[n] for n in g.relation_names], dtype=np.intp)
        held_keys = _held_out_keys(g, held_out)
        scores = []
        for batch in bounded_unions(g, candidates, self.hops, self.mode):
            batch = label_nodes(batch, self.labeling, self._aux_by_id(g, batch.nodes))
            _check_held_out(g, batch, held_keys)
            batch.edges[:, 1] = rel_map[batch.edges[:, 1]]
            batch.edge_target_rels = rel_map[batch.edge_target_rels]
            batch.target_rels = rel_map[batch.target_rels]
            with ad.no_grad():
                scores += score_triplet(batch, self.params, self.cfg).data[:, 0].tolist()
        return scores


def _held_out_keys(g: KnowledgeGraph, held_out: set[tuple[int, int, int]]) -> np.ndarray:
    """The sorted integer keys (h * m + r) * n + t of the held-out triples;
    ValueError names a triple with an id outside g (its key could alias
    another edge's)."""
    n, m = g.num_entities, g.num_relations
    held = np.array(list(held_out), dtype=np.intp).reshape(-1, 3)
    outside = ((held < 0) | (held >= (n, m, n))).any(axis=1)
    if outside.any():
        bad = tuple(held[np.argmax(outside)].tolist())
        raise ValueError(
            f"held-out triple {bad} is outside the graph's {n} entities and {m} relations"
        )
    return np.sort((held[:, 0] * m + held[:, 1]) * n + held[:, 2], kind="stable")


def _check_held_out(g: KnowledgeGraph, batch: SubgraphBatch, held_keys: np.ndarray) -> None:
    """Raise AssertionError naming the first held-out edge of the union that
    is not its member's candidate edge."""
    if not len(held_keys):
        return
    n, m = g.num_entities, g.num_relations
    heads, tails = batch.nodes[batch.edges[:, 0]], batch.nodes[batch.edges[:, 2]]
    rels = batch.edges[:, 1]
    keys = (heads * m + rels) * n + tails
    # a search, not np.isin: its np.unique imports numpy.ma, 1.3 MB of resident memory;
    # stable sorts share the sorting code that auc_pr already loads
    at = np.minimum(np.searchsorted(held_keys, keys), len(held_keys) - 1)
    leaked = held_keys[at] == keys
    leaked[batch.target_edge_pos] = False
    if leaked.any():
        i = int(np.argmax(leaked))
        names = (g.entity_names[heads[i]], g.relation_names[rels[i]], g.entity_names[tails[i]])
        raise AssertionError(f"held-out edge leaked into message passing: {names}")


@dataclass(slots=True)
class EvalRecord:
    """One scored triple of a report, read and written by key like a dict
    (rec["score"]); slots keep a round's records small."""

    head: str
    rel: str
    tail: str
    label: int
    score: float
    rank: int | None

    def __getitem__(self, key: str):
        if key not in self.__slots__:
            raise KeyError(key)
        return getattr(self, key)

    def __setitem__(self, key: str, value) -> None:
        if key not in self.__slots__:
            raise KeyError(key)
        setattr(self, key, value)


@dataclass
class EvalReport:
    auc_pr: float
    hits_at_10: float
    num_test: int
    num_negatives: int
    seed: int
    skipped_self_loops: int = 0
    records: list[EvalRecord] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"auc_pr={self.auc_pr!r}",
            f"hits_at_10={self.hits_at_10!r}",
            f"num_test={self.num_test}",
            f"num_negatives={self.num_negatives}",
            f"seed={self.seed}",
            f"skipped_self_loops={self.skipped_self_loops}",
        ]
        return "\n".join(lines) + "\n"


_AUC_STREAM = 11
_RANK_STREAM = 12


def evaluate(
    scorer,
    g_ind_test: KnowledgeGraph,
    test_edges: list[tuple[int, int, int]],
    num_negatives: int = 50,
    seed: int = 0,
) -> EvalReport:
    """Score held-out test edges against the ind-test graph minus those edges.

    AUC-PR uses one sampled corruption per positive; Hits@10 ranks each
    positive among num_negatives corruptions.  All negatives are drawn up
    front from two seeded streams, each in one sample_negatives call, so
    results are reproducible bit-for-bit for a given seed.
    scorer(graph, candidates, held_out) returns one score per candidate; it
    is called once per round, with candidates a (C, 3) integer array of
    every scoreable test edge's [positive, AUC negative, *rank negatives]
    rows laid end to end, and held_out the test edges, which the message
    graph keeps out of every subgraph.
    """
    if not test_edges:
        raise ValueError("no test edges to evaluate")
    if num_negatives < 1:
        raise ValueError(f"num_negatives must be >= 1, got {num_negatives}")
    msg_graph = without_triples(g_ind_test, test_edges)
    scoreable = [trip for trip in test_edges if trip[0] != trip[2]]
    skipped = len(test_edges) - len(scoreable)
    if not scoreable:
        raise ValueError("all test edges are self-loops; nothing can be scored")
    rng_auc = np.random.default_rng([seed, _AUC_STREAM])
    rng_rank = np.random.default_rng([seed, _RANK_STREAM])
    pos = np.array(scoreable, dtype=np.int64).reshape(-1, 3)
    auc_negs = sample_negatives(msg_graph, pos, rng_auc)
    rank_negs = sample_negatives(msg_graph, np.repeat(pos, num_negatives, axis=0), rng_rank)
    per_edge = [pos[:, None], auc_negs[:, None], rank_negs.reshape(len(pos), num_negatives, 3)]
    candidates = np.concatenate(per_edge, axis=1).reshape(-1, 3)
    scores = scorer(msg_graph, candidates, set(test_edges))
    if len(scores) != len(candidates):
        raise ValueError(f"scorer returned {len(scores)} scores for {len(candidates)} candidates")
    per = 2 + num_negatives
    pos_scores, neg_scores = scores[::per], scores[1::per]
    ents, rels = g_ind_test.entity_names, g_ind_test.relation_names  # msg_graph's too
    records = []
    hits = 0
    for i, (h, r, t) in enumerate(scoreable):
        rank = rank_from_scores(pos_scores[i], scores[i * per + 2:(i + 1) * per])
        hits += rank <= 10
        records.append(EvalRecord(ents[h], rels[r], ents[t], 1, pos_scores[i], rank))
    for (h, r, t), neg in zip(auc_negs.tolist(), neg_scores):
        records.append(EvalRecord(ents[h], rels[r], ents[t], 0, neg, None))
    return EvalReport(
        auc_pr=auc_pr(pos_scores, neg_scores),
        hits_at_10=hits / len(scoreable),
        num_test=len(scoreable),
        num_negatives=num_negatives,
        seed=seed,
        skipped_self_loops=skipped,
        records=records,
    )


def write_report(report: EvalReport, path: str) -> None:
    with atomic_open(path) as f:
        f.write(report.to_text())


def write_triplet_csv(report: EvalReport, path: str) -> None:
    """One CSV row per scored triple; a name holding a comma or a quote is quoted."""
    with atomic_open(path) as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["head", "rel", "tail", "label", "score", "rank"])
        for rec in report.records:
            rank = "" if rec["rank"] is None else rec["rank"]
            out.writerow([rec["head"], rec["rel"], rec["tail"], rec["label"], repr(rec["score"]), rank])


def write_scores_file(report: EvalReport, path: str) -> None:
    """Per-triplet scores as head<TAB>rel<TAB>tail<TAB>score, first score wins on repeats."""
    seen = set()
    with atomic_open(path) as f:
        for rec in report.records:
            key = (rec["head"], rec["rel"], rec["tail"])
            if key in seen:
                continue
            seen.add(key)
            f.write(f"{rec['head']}\t{rec['rel']}\t{rec['tail']}\t{rec['score']!r}\n")


def write_labels_file(report: EvalReport, path: str) -> None:
    seen = set()
    with atomic_open(path) as f:
        for rec in report.records:
            key = (rec["head"], rec["rel"], rec["tail"])
            if key in seen:
                continue
            seen.add(key)
            f.write(f"{rec['head']}\t{rec['rel']}\t{rec['tail']}\t{rec['label']}\n")


def parse_score_file(text: str) -> dict[tuple[str, str, str], float]:
    out: dict[tuple[str, str, str], float] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"malformed score line {lineno}: {line!r}")
        try:
            val = float(parts[3])
        except ValueError as e:
            raise ValueError(f"score line {lineno} has a non-numeric score: {e}") from e
        key = (parts[0], parts[1], parts[2])
        if key not in out:
            out[key] = val
    if not out:
        raise ValueError("no score lines found in input")
    return out


def parse_labels_file(text: str) -> dict[tuple[str, str, str], int]:
    out: dict[tuple[str, str, str], int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 4 or parts[3] not in ("0", "1"):
            raise ValueError(f"malformed label line {lineno}: {line!r}")
        key = (parts[0], parts[1], parts[2])
        if key not in out:
            out[key] = int(parts[3])
    if not out:
        raise ValueError("no label lines found in input")
    return out


def align_score_tables(
    tables: list[dict[tuple[str, str, str], float]],
) -> list[tuple[str, str, str]]:
    """Shared sorted key list; raises naming the first key missing somewhere."""
    if len(tables) < 2:
        raise ValueError("late fusion needs at least two score tables")
    keys = set(tables[0])
    for tab in tables[1:]:
        keys |= set(tab)
    for key in sorted(keys):
        for i, tab in enumerate(tables):
            if key not in tab:
                raise ValueError(f"score tables misaligned: method {i} is missing {key}")
    return sorted(keys)


def late_fusion(
    valid_scores: np.ndarray,
    valid_labels: np.ndarray,
    test_scores: np.ndarray,
    lr: float = 0.5,
    iterations: int = 2000,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Logistic regression over per-method score vectors, fit by gradient descent.

    Returns (fused test scores as probabilities, weights with trailing bias,
    per-iteration training losses).
    """
    x = np.asarray(valid_scores, dtype=np.float64)
    y = np.asarray(valid_labels, dtype=np.float64)
    xt = np.asarray(test_scores, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("valid_scores must be (n, m) with m >= 2 methods")
    if xt.ndim != 2 or xt.shape[1] != x.shape[1]:
        raise ValueError("test_scores must have the same method count as valid_scores")
    if y.shape != (x.shape[0],) or not np.all((y == 0) | (y == 1)):
        raise ValueError("valid_labels must be 0/1 and match valid_scores rows")
    n, m = x.shape
    xb = np.concatenate([x, np.ones((n, 1))], axis=1)
    w = np.zeros(m + 1)
    losses = []
    for _ in range(iterations):
        z = np.clip(xb @ w, -500.0, 500.0)  # sigmoid saturates long before the clip
        p = 1.0 / (1.0 + np.exp(-z))
        eps = 1e-12
        loss = float(-np.mean(y * np.log(p + eps) + (1.0 - y) * np.log(1.0 - p + eps)))
        losses.append(loss)
        grad = xb.T @ (p - y) / n
        w -= lr * grad
    if not np.all(np.isfinite(w)):
        raise ValueError("late fusion diverged to non-finite weights; lower lr")
    zt = np.clip(np.concatenate([xt, np.ones((xt.shape[0], 1))], axis=1) @ w, -500.0, 500.0)
    fused = 1.0 / (1.0 + np.exp(-zt))
    return fused, w, losses


def ensemble_gain(p1: float, p2: float, p12: float) -> float:
    """Relative improvement of the fused score over the best constituent."""
    if min(p1, p2, p12) <= 0.0:
        raise ValueError(f"ensemble_gain needs positive inputs, got {p1}, {p2}, {p12}")
    best = max(p1, p2)
    return (p12 - best) / best
