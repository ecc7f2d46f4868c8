"""Contracts of the rule-governed synthetic benchmark generator."""

import numpy as np
import pytest

from oracles import graphs_equal
from synth import RELATIONS, _closure, rule_benchmark


def rel_pairs(g, rel_name):
    r = g.relation_ids[rel_name]
    return sorted((h, t) for h, rr, t in g.triples if rr == r)


def test_relation_vocabulary_and_disjoint_entities():
    g_train, valid, g_ind, test = rule_benchmark(seed=3)
    assert g_train.relation_names == RELATIONS
    assert g_ind.relation_names == RELATIONS
    assert not set(g_train.entity_names) & set(g_ind.entity_names)
    assert g_train.num_entities == 200 and g_ind.num_entities == 200


def test_rule_governs_target_relation_exactly():
    # rt facts = composition closure of the ra/rb edges actually in the
    # graph: decoy edges contribute no walk, so the closure stays exact.
    g_train, valid, g_ind, test = rule_benchmark(seed=1)
    derived = _closure(rel_pairs(g_ind, "ra"), rel_pairs(g_ind, "rb"))
    assert rel_pairs(g_ind, "rt") == derived
    # train graph lost its validation rt facts, nothing else
    derived_tr = _closure(rel_pairs(g_train, "ra"), rel_pairs(g_train, "rb"))
    held = sorted((h, t) for h, r, t in valid)
    assert sorted(rel_pairs(g_train, "rt") + held) == derived_tr


def test_decoys_thicken_without_new_walks():
    # ra/rb decoys exist (edge counts exceed the clean draw) yet the closure
    # check above pins rt; dead ends really are dead: no ra edge finishes
    # where any rb edge starts unless that pair is a clean rule instance.
    g_train, _, g_ind, _ = rule_benchmark(seed=0, num_decoy=150)
    assert len(rel_pairs(g_ind, "ra")) > 150
    assert len(rel_pairs(g_ind, "rb")) > 150
    lean_train, _, lean_ind, _ = rule_benchmark(seed=0, num_decoy=1)
    assert len(rel_pairs(g_ind, "ra")) > len(rel_pairs(lean_ind, "ra")) + 100


def test_holdout_membership():
    g_train, valid, g_ind, test = rule_benchmark(seed=2)
    train_set = set(g_train.triples)
    assert valid and test
    assert all(trip not in train_set for trip in valid)
    assert all(trip in set(g_ind.triples) for trip in test)
    rt = g_ind.relation_ids["rt"]
    assert all(r == rt for _, r, _ in valid + test)


def test_deterministic_per_seed():
    a = rule_benchmark(seed=5)
    b = rule_benchmark(seed=5)
    assert graphs_equal(a[0], b[0]) and graphs_equal(a[2], b[2])
    assert a[1] == b[1] and a[3] == b[3]
    c = rule_benchmark(seed=6)
    assert not graphs_equal(a[0], c[0])


def test_too_sparse_rule_rejected():
    with pytest.raises(ValueError, match="too few rt facts|rule-free"):
        rule_benchmark(num_entities=200, num_a=2, num_b=2)
