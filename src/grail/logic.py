"""Path-rule oracle and a constructive verifier of the model's expressiveness.

A path rule asserts head(X, Y) whenever its body relations chain X to Y:
r_t(X, Y) <- r_1(X, Z_1), r_2(Z_1, Z_2), ..., r_k(Z_{k-1}, Y).  This module
answers rule satisfaction by direct graph search and, independently, builds
explicit one-dimensional GNN parameters whose score on the full graph equals
the number of relation-labeled walks realizing the body.  Comparing the two
routes turns the expressiveness claim into an executable property:
score != 0 exactly when the rule is satisfied, and summed constructions
count satisfied walks of rule sets exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .kg import KnowledgeGraph, from_parts, out_neighbors, to_lines
from .model import GnnConfig, GnnParams, LayerParams, SubgraphBatch, layer_forward

__all__ = [
    "PathRule",
    "rule_satisfied",
    "count_walks",
    "count_satisfied",
    "construct_rule_params",
    "score_rule_construction",
    "VerifyReport",
    "verify_theorem1",
]


@dataclass(frozen=True)
class PathRule:
    """head(X, Y) <- body[0](X, Z_1), ..., body[-1](Z_{k-1}, Y)."""

    head: int
    body: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.body) < 1:
            raise ValueError("rule body must contain at least one relation")
        if self.head < 0 or any(r < 0 for r in self.body):
            raise ValueError("relation ids must be non-negative")

    def check_vocab(self, g: KnowledgeGraph) -> None:
        g.check_relation(self.head)
        for r in self.body:
            g.check_relation(r)


def rule_satisfied(
    g: KnowledgeGraph, rule: PathRule, u: int, v: int
) -> tuple[bool, list[int] | None]:
    """Depth-first search for one body instantiation from u to v.

    Returns (True, [Z_1, ..., Z_{k-1}]) with one witness binding, or
    (False, None).  Intermediate entities may repeat; the walk, not the
    entity set, is what the body quantifies over.
    """
    g.check_entity(u)
    g.check_entity(v)
    rule.check_vocab(g)
    k = len(rule.body)

    def dfs(node: int, i: int) -> list[int] | None:
        if i == k:
            return [] if node == v else None
        for nxt in out_neighbors(g, node, rule.body[i]):
            rest = dfs(nxt, i + 1)
            if rest is not None:
                return [nxt] + rest
        return None

    trail = dfs(u, 0)
    if trail is None:
        return False, None
    return True, trail[:-1]


def count_walks(g: KnowledgeGraph, rule: PathRule, u: int, v: int) -> int:
    """Number of distinct relation-labeled walks u -> v realizing the body."""
    g.check_entity(u)
    g.check_entity(v)
    rule.check_vocab(g)
    counts = {u: 1}
    for r in rule.body:
        nxt: dict[int, int] = {}
        for node, c in counts.items():
            for t in out_neighbors(g, node, r):
                nxt[t] = nxt.get(t, 0) + c
        counts = nxt
        if not counts:
            return 0
    return counts.get(v, 0)


def count_satisfied(g: KnowledgeGraph, rules: list[PathRule], u: int, v: int) -> int:
    """How many rules of a shared-head set are satisfied for (u, v)."""
    heads = {rule.head for rule in rules}
    if len(heads) > 1:
        raise ValueError(f"rules must share one head relation, got heads {sorted(heads)}")
    return sum(1 for rule in rules if rule_satisfied(g, rule, u, v)[0])


def construct_rule_params(rule: PathRule, num_relations: int) -> tuple[GnnParams, GnnConfig]:
    """Hand-set one-dimensional parameters that recognize exactly this rule.

    Layer l passes a message along an edge iff the edge relation equals
    body[l]: relation r embeds as the scalar r, and the attention MLP is a
    tent function peaked at body[l] (hidden pre-activations r - body[l] + 1,
    r - body[l], r - body[l] - 1; output 40 * (t1 - 2 t2 + t3) - 20), so the
    gate's sigmoid input is +20 at the matching relation and <= -20 at every
    other integer.  Relation weights are 1, self weights 0; starting from
    indicator-of-u features, node state after layer l equals the number of
    body-prefix walks from u, and the score reads off the target node's
    final state.  Parameters depend only on the rule and vocabulary size.
    """
    if num_relations < 1:
        raise ValueError(f"num_relations must be >= 1, got {num_relations}")
    if rule.head >= num_relations or any(r >= num_relations for r in rule.body):
        raise ValueError("rule uses relation ids outside the vocabulary")
    cfg = GnnConfig(
        num_layers=len(rule.body),
        hidden_dim=1,
        num_bases=1,
        attention_enabled=True,
        jk_enabled=False,
        edge_dropout_rate=0.0,
        input_dim=1,
        aggregate_in_neighbors=True,
    )
    layers = []
    for r_l in rule.body:
        w1 = np.zeros((4, 3))
        w1[2, :] = 1.0  # attention input row of the edge-relation embedding
        b1 = np.array([1.0 - r_l, 0.0 - r_l, -1.0 - r_l])
        w2 = 40.0 * np.array([[1.0], [-2.0], [1.0]])
        b2 = np.array([-20.0])
        layers.append(
            LayerParams(
                bases=[ad.parameter(np.ones((1, 1)))],
                coeffs=ad.parameter(np.ones((num_relations, 1))),
                w_self=ad.parameter(np.zeros((1, 1))),
                attn_w1=ad.parameter(w1),
                attn_b1=ad.parameter(b1),
                attn_w2=ad.parameter(w2),
                attn_b2=ad.parameter(b2),
            )
        )
    params = GnnParams(
        layers=layers,
        attn_rel_emb=ad.parameter(np.arange(num_relations, dtype=np.float64).reshape(-1, 1)),
        target_rel_emb=ad.parameter(np.zeros((num_relations, 1))),
        readout_w=ad.parameter(np.ones((cfg.readout_dim(), 1))),
    )
    return params, cfg


def score_rule_construction(
    g: KnowledgeGraph,
    rule: PathRule,
    u: int,
    v: int,
    params: GnnParams | None = None,
    cfg: GnnConfig | None = None,
) -> float:
    """Run the constructed model on the full graph; score is the target
    node's final state.

    No subgraph is extracted and no candidate edge is injected: the graph is
    scored exactly as given, with messages along edge direction and saturated
    attention gates snapped to exact 0/1.  Initial features are the
    indicator of u.
    """
    g.check_entity(u)
    g.check_entity(v)
    rule.check_vocab(g)
    if params is None or cfg is None:
        params, cfg = construct_rule_params(rule, g.num_relations)
    n = g.num_entities
    edges = np.array(g.triples, dtype=np.intp).reshape(-1, 3)
    graph = SubgraphBatch(
        edges=edges,
        edge_target_rels=np.full(len(edges), rule.head, dtype=np.intp),
        node_member=np.zeros(n, dtype=np.intp),
        member_sizes=np.array([n]),
        u_rows=np.array([u]),
        v_rows=np.array([v]),
        target_rels=np.array([rule.head]),
        features=None,
    )
    h = ad.constant(np.zeros((n, 1)))
    h.data[u, 0] = 1.0
    for layer in range(cfg.num_layers):
        h = layer_forward(graph, h, layer, params, cfg, snap_alpha=True)
    return float(h.data[v, 0])


@dataclass
class VerifyReport:
    trials: int
    agreements: int
    disagreements: list[dict] = field(default_factory=list)
    walk_count_checked: int = 0
    walk_count_max_err: float = 0.0
    walk_count_failures: list[dict] = field(default_factory=list)
    set_trials: int = 0
    set_failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements and not self.walk_count_failures and not self.set_failures

    def to_text(self) -> str:
        lines = [
            f"trials={self.trials}",
            f"agreements={self.agreements}",
            f"disagreements={len(self.disagreements)}",
            f"walk_count_checked={self.walk_count_checked}",
            f"walk_count_max_rel_err={self.walk_count_max_err!r}",
            f"walk_count_failures={len(self.walk_count_failures)}",
            f"rule_set_trials={self.set_trials}",
            f"rule_set_failures={len(self.set_failures)}",
            f"ok={str(self.ok).lower()}",
        ]
        for kind, items in (
            ("disagreement", self.disagreements),
            ("walk_count_failure", self.walk_count_failures),
            ("rule_set_failure", self.set_failures),
        ):
            for case in items:
                lines.append(f"--- {kind}")
                for key, val in case.items():
                    block = str(val)
                    if "\n" in block:
                        lines.append(f"{key}:")
                        lines.extend("  " + ln for ln in block.rstrip("\n").split("\n"))
                    else:
                        lines.append(f"{key}={block}")
        return "\n".join(lines) + "\n"


def _random_graph(
    rng: np.random.Generator, max_nodes: int, max_relations: int
) -> KnowledgeGraph:
    n = int(rng.integers(2, max_nodes + 1))
    m = int(rng.integers(1, max_relations + 1))
    num_edges = int(rng.integers(0, 3 * n + 1))
    triples = [
        (int(rng.integers(n)), int(rng.integers(m)), int(rng.integers(n)))
        for _ in range(num_edges)
    ]
    return from_parts(
        [f"n{i}" for i in range(n)], [f"r{j}" for j in range(m)], triples
    )


def _case(g: KnowledgeGraph, rule: PathRule, u: int, v: int, **extra) -> dict:
    case = {
        "rule": f"{rule.head} <- {list(rule.body)}",
        "u": u,
        "v": v,
        "triples": to_lines(g) if g.triples else "(no edges)",
    }
    case.update(extra)
    return case


def verify_theorem1(
    trials: int,
    max_rule_len: int = 3,
    rng: np.random.Generator | None = None,
    max_nodes: int = 12,
    max_relations: int = 4,
    tol: float = 1e-9,
) -> VerifyReport:
    """Monte Carlo check of the expressiveness property on random graphs.

    Per trial: sample a graph, a rule, and a node pair; assert that the
    constructed model's score is nonzero exactly when the path oracle says
    the rule body is satisfied, and that the score equals the exact
    relation-labeled walk count to relative tolerance tol.  Every few trials
    a shared-head rule set is drawn and the summed construction is compared
    against the oracle's total walk count and satisfied-rule count.
    Failures are collected in the report, never raised.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 1 <= max_rule_len:
        raise ValueError(f"max_rule_len must be >= 1, got {max_rule_len}")
    if rng is None:
        rng = np.random.default_rng(0)
    report = VerifyReport(trials=trials, agreements=0)

    def rel_err(score: float, count: int) -> float:
        return abs(score - count) / max(1.0, abs(count))

    for trial in range(trials):
        g = _random_graph(rng, max_nodes, max_relations)
        m = g.num_relations
        body = tuple(int(r) for r in rng.integers(0, m, size=int(rng.integers(1, max_rule_len + 1))))
        rule = PathRule(head=int(rng.integers(m)), body=body)
        u = int(rng.integers(g.num_entities))
        v = int(rng.integers(g.num_entities))
        score = score_rule_construction(g, rule, u, v)
        sat, _ = rule_satisfied(g, rule, u, v)
        if (score != 0.0) == sat:
            report.agreements += 1
        else:
            report.disagreements.append(_case(g, rule, u, v, score=score, oracle=sat))
        walks = count_walks(g, rule, u, v)
        err = rel_err(score, walks)
        report.walk_count_checked += 1
        report.walk_count_max_err = max(report.walk_count_max_err, err)
        if err > tol:
            report.walk_count_failures.append(
                _case(g, rule, u, v, score=score, walks=walks, rel_err=err)
            )
        if trial % 5 == 0:
            head = int(rng.integers(m))
            rules = [
                PathRule(
                    head=head,
                    body=tuple(
                        int(r)
                        for r in rng.integers(0, m, size=int(rng.integers(1, max_rule_len + 1)))
                    ),
                )
                for _ in range(int(rng.integers(1, 4)))
            ]
            report.set_trials += 1
            total_score = sum(score_rule_construction(g, rl, u, v) for rl in rules)
            total_walks = sum(count_walks(g, rl, u, v) for rl in rules)
            beta = count_satisfied(g, rules, u, v)
            nonzero = sum(1 for rl in rules if score_rule_construction(g, rl, u, v) != 0.0)
            if rel_err(total_score, total_walks) > tol or beta != nonzero:
                report.set_failures.append(
                    _case(
                        g,
                        rules[0],
                        u,
                        v,
                        rules=", ".join(f"{rl.head} <- {list(rl.body)}" for rl in rules),
                        summed_score=total_score,
                        summed_walks=total_walks,
                        beta=beta,
                        nonzero_scores=nonzero,
                    )
                )
    return report
