"""Seeded inputs for the benchmark workloads.

Every workload is a train graph and an entity-disjoint inductive graph that
share one relation vocabulary and one length-2 rule: rt(x, z) holds exactly
when ra(x, y) and rb(y, z) for some y, with the full closure materialized.
Decoy ra/rb edges sit at dead ends (into entities no rb edge leaves, out of
entities no ra edge enters), so they thicken neighbourhoods without adding a
single ra-then-rb walk.  This is the law of `tests/synth.rule_benchmark`,
written out again here so that an edit to the test helpers never moves a
benchmark number.  The workloads differ only in how many relations the
noise edges are spread over.

The program only ever sees the generated triples; the entity and relation
names and the triple lists are also kept here so the reference computation
in `reference.py` can work from them without the program's graph store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GraphLaw:
    """Sizes of one rule-bearing graph; all endpoints are drawn uniformly."""

    num_entities: int
    num_a: int
    num_b: int
    num_decoy: int
    num_noise: int


# The acceptance-test law for training, and twice its size for ranking, so
# that evaluation has 60 test edges rather than the tests' 25.
TRAIN_LAW = GraphLaw(200, 130, 130, 150, 100)
IND_LAW = GraphLaw(400, 260, 260, 300, 200)
NUM_TEST = 60
VALID_FRACTION = 0.25

# Noise relations per workload.  rule: one.  wide: 197, for 200 relations in
# all, the vocabulary size of the FB15k-237 inductive splits; the noise edges
# stay as few as on `rule`, so only the per-relation loops of subgraph
# extraction grow.  (Spreading 3-4x more noise edges over them, or ranking on
# a 2,000-entity graph, left the trained model erratic: test Hits@10 from 0.4
# to 1.0 across seeds.)
WORKLOADS = {"rule": 1, "wide": 197}


@dataclass
class RuleGraph:
    entity_names: list[str]
    relation_names: list[str]
    triples: list[tuple[int, int, int]]
    rule_facts: list[tuple[int, int, int]]


@dataclass
class Inputs:
    relation_names: list[str]
    train: RuleGraph
    valid: list[tuple[int, int, int]]
    ind: RuleGraph
    test: list[tuple[int, int, int]]


RA, RB, RT = 0, 1, 2


def relation_names(num_noise_relations: int) -> list[str]:
    return ["ra", "rb", "rt"] + [f"rc{i}" for i in range(num_noise_relations)]


def _draw(rng: np.random.Generator, n: int, size: int, pool=None) -> list[int]:
    if pool is not None:
        return pool[rng.integers(len(pool), size=size)].tolist()
    return rng.integers(n, size=size).tolist()


def _pairs(rng: np.random.Generator, n: int, count: int, src_pool=None, dst_pool=None,
           taken=frozenset()) -> set[tuple[int, int]]:
    """`count` distinct (x, y) pairs with x != y, none of them in `taken`;
    an endpoint comes from its pool when one is given."""
    out: set[tuple[int, int]] = set()
    while len(out) < count:
        size = 2 * (count - len(out)) + 16
        xs = _draw(rng, n, size, src_pool)
        ys = _draw(rng, n, size, dst_pool)
        for pair in zip(xs, ys):
            if pair[0] != pair[1] and pair not in taken:
                out.add(pair)
                if len(out) == count:
                    break
    return out


def _compose(a_pairs, b_pairs) -> set[tuple[int, int]]:
    after: dict[int, list[int]] = {}
    for y, z in b_pairs:
        after.setdefault(y, []).append(z)
    return {(x, z) for x, y in a_pairs for z in after.get(y, ()) if x != z}


def rule_graph(rng: np.random.Generator, prefix: str, law: GraphLaw,
               rels: list[str]) -> RuleGraph:
    n = law.num_entities
    a_pairs = _pairs(rng, n, law.num_a)
    b_pairs = _pairs(rng, n, law.num_b)
    t_pairs = _compose(a_pairs, b_pairs)
    a_dst = {y for _, y in a_pairs}
    b_src = {y for y, _ in b_pairs}
    free = np.array([e for e in range(n) if e not in a_dst and e not in b_src])
    if len(free) < 8:
        raise ValueError("too few rule-free entities to host decoy edges")
    a_all = a_pairs | _pairs(rng, n, law.num_decoy, dst_pool=free[0::2], taken=a_pairs)
    b_all = b_pairs | _pairs(rng, n, law.num_decoy, src_pool=free[1::2], taken=b_pairs)
    if _compose(a_all, b_all) != t_pairs:
        raise AssertionError("decoy edges changed the rule closure")

    noise_rels = list(range(RT + 1, len(rels)))
    noise = set()
    for x, y in sorted(_pairs(rng, n, law.num_noise)):
        noise.add((x, noise_rels[int(rng.integers(len(noise_rels)))], y))
    rule_facts = sorted((x, RT, z) for x, z in t_pairs)
    triples = (sorted((x, RA, y) for x, y in a_all) + sorted((y, RB, z) for y, z in b_all)
               + rule_facts + sorted(noise))
    return RuleGraph([f"{prefix}{i}" for i in range(n)], list(rels), triples, rule_facts)


def make_inputs(workload: str, seed: int) -> Inputs:
    """Train graph with validation facts withdrawn, and an inductive graph
    whose test facts stay in it (evaluation removes them itself)."""
    rels = relation_names(WORKLOADS[workload])
    rng = np.random.default_rng([seed, 7919])
    full = rule_graph(rng, f"tr{seed}_", TRAIN_LAW, rels)
    ind = rule_graph(rng, f"te{seed}_", IND_LAW, rels)
    n_valid = math.ceil(VALID_FRACTION * len(full.rule_facts))
    if n_valid < 4 or len(ind.rule_facts) < NUM_TEST:
        raise ValueError("rule closure produced too few rt facts for this law")
    valid = [full.rule_facts[int(i)] for i in sorted(rng.permutation(len(full.rule_facts))[:n_valid])]
    gone = set(valid)
    train = RuleGraph(full.entity_names, rels, [t for t in full.triples if t not in gone],
                      [t for t in full.rule_facts if t not in gone])
    return Inputs(rels, train, valid, ind, _spread_sample(rng, ind, NUM_TEST))


def _spread_sample(rng: np.random.Generator, g: RuleGraph, count: int) -> list[tuple[int, int, int]]:
    """`count` rule facts evenly spaced in the order of their endpoints' total
    degree (ties in random order), the first and the last included, so every
    seed tests the same mix of sparse and dense neighbourhoods."""
    degree = np.zeros(len(g.entity_names), dtype=np.int64)
    for h, _, t in g.triples:
        degree[h] += 1
        degree[t] += 1
    tiebreak = rng.permutation(len(g.rule_facts))
    order = sorted(range(len(g.rule_facts)),
                   key=lambda i: (degree[g.rule_facts[i][0]] + degree[g.rule_facts[i][2]], tiebreak[i]))
    picks = [order[j * (len(order) - 1) // (count - 1)] for j in range(count)]
    return sorted(g.rule_facts[i] for i in picks)
