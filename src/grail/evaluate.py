"""Ranking metrics, model application to held-out graphs, and late-fusion ensembling."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .kg import KnowledgeGraph, atomic_open, without_triples
from .model import GnnConfig, GnnParams, batch_subgraphs, score_triplet
from .subgraph import extract_enclosing, feature_dim, label_nodes


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
    triple: sampling is unfiltered.
    """
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
    inductive setting).  A call scores a list of candidates as one disjoint
    union of their labeled subgraphs, with dropout off and no tape.
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

    def _aux_by_id(self, g: KnowledgeGraph, nodes: list[int]) -> dict[int, np.ndarray] | None:
        if self.aux_features is None:
            return None
        try:
            return {n: self.aux_features[g.entity_names[n]] for n in nodes}
        except KeyError as e:
            raise ValueError(f"auxiliary features missing entity {e.args[0]!r}") from None

    def __call__(
        self,
        g: KnowledgeGraph,
        candidates: list[tuple[int, int, int]],
        held_out: set[tuple[int, int, int]],
    ) -> list[float]:
        """Scores of candidates (h, r, t) of g, in order.

        held_out holds id triples of g that must not reach message passing:
        an AssertionError names the first one found in a candidate's
        subgraph other than as the candidate edge itself.
        """
        unknown = [n for n in g.relation_names if n not in self.relation_ids]
        if unknown:
            raise ValueError(
                "graph relations absent from model vocabulary: " + ", ".join(sorted(unknown))
            )
        subs = []
        for h, r, t in candidates:
            sub = extract_enclosing(g, h, t, r, self.hops, self.mode)
            sub = label_nodes(sub, self.labeling, self._aux_by_id(g, sub.nodes))
            for pos, (lh, lr, lt) in enumerate(sub.edges.tolist()):
                edge = (sub.nodes[lh], lr, sub.nodes[lt])
                if pos != sub.target_edge_pos and edge in held_out:
                    names = (g.entity_names[edge[0]], g.relation_names[lr], g.entity_names[edge[2]])
                    raise AssertionError(f"held-out edge leaked into message passing: {names}")
            subs.append(sub)
        batch = batch_subgraphs(subs)
        rel_map = np.array([self.relation_ids[n] for n in g.relation_names], dtype=np.intp)
        batch.edges[:, 1] = rel_map[batch.edges[:, 1]]
        batch.edge_target_rels = rel_map[batch.edge_target_rels]
        batch.target_rels = rel_map[batch.target_rels]
        with ad.no_grad():
            return score_triplet(batch, self.params, self.cfg).data[:, 0].tolist()


@dataclass
class EvalReport:
    auc_pr: float
    hits_at_10: float
    num_test: int
    num_negatives: int
    seed: int
    skipped_self_loops: int = 0
    records: list[dict] = field(default_factory=list)

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
    front from seeded streams, so results are reproducible bit-for-bit for a
    given seed.  scorer(graph, candidates, held_out) returns one score per
    candidate; it is called once per scoreable test edge, with candidates
    [positive, AUC negative, *rank negatives] and held_out the test edges,
    which the message graph keeps out of every subgraph.
    """
    if not test_edges:
        raise ValueError("no test edges to evaluate")
    msg_graph = without_triples(g_ind_test, test_edges)
    scoreable = [trip for trip in test_edges if trip[0] != trip[2]]
    skipped = len(test_edges) - len(scoreable)
    if not scoreable:
        raise ValueError("all test edges are self-loops; nothing can be scored")
    rng_auc = np.random.default_rng([seed, _AUC_STREAM])
    rng_rank = np.random.default_rng([seed, _RANK_STREAM])
    auc_negs = [sample_negative(msg_graph, trip, rng_auc) for trip in scoreable]
    rank_negs = [
        [sample_negative(msg_graph, trip, rng_rank) for _ in range(num_negatives)]
        for trip in scoreable
    ]
    held_out = set(test_edges)
    results = [
        scorer(msg_graph, [trip, auc_neg, *negs], held_out)
        for trip, auc_neg, negs in zip(scoreable, auc_negs, rank_negs)
    ]
    pos_scores = [res[0] for res in results]
    neg_scores = [res[1] for res in results]
    records = []
    hits = 0
    for trip, pos, res in zip(scoreable, pos_scores, results):
        rank = rank_from_scores(pos, res[2:])
        if rank <= 10:
            hits += 1
        h, r, t = trip
        records.append(
            {
                "head": g_ind_test.entity_names[h],
                "rel": g_ind_test.relation_names[r],
                "tail": g_ind_test.entity_names[t],
                "label": 1,
                "score": pos,
                "rank": rank,
            }
        )
    for (h, r, t), neg in zip(auc_negs, neg_scores):
        records.append(
            {
                "head": msg_graph.entity_names[h],
                "rel": msg_graph.relation_names[r],
                "tail": msg_graph.entity_names[t],
                "label": 0,
                "score": neg,
                "rank": None,
            }
        )
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
    with atomic_open(path) as f:
        f.write("head,rel,tail,label,score,rank\n")
        for rec in report.records:
            rank = "" if rec["rank"] is None else str(rec["rank"])
            f.write(
                f"{rec['head']},{rec['rel']},{rec['tail']},{rec['label']},{rec['score']!r},{rank}\n"
            )


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
