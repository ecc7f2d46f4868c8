"""Inductive benchmark sampling: disjointness, containment, exact splits."""

import math
import os

import numpy as np
import pytest

from grail.benchgen import (
    SamplerConfig,
    _capped_neighborhood,
    sample_inductive_pair,
    split_test_edges,
    write_benchmark,
)
from grail.kg import load_triples, load_triples_file

from oracles import graphs_equal, random_kg


def big_graph(seed=0, n=120, m=600):
    return random_kg(np.random.default_rng(seed), n, 4, m)


def small_cfgs():
    tr = SamplerConfig(num_roots=6, hops=2, max_new_per_hop=4, target_edges=60, seed=1)
    te = SamplerConfig(num_roots=4, hops=2, max_new_per_hop=4, target_edges=25, seed=2)
    return tr, te


def test_sampler_config_validation():
    with pytest.raises(ValueError, match="sampler counts"):
        SamplerConfig(num_roots=0)
    with pytest.raises(ValueError, match="sampler counts"):
        SamplerConfig(target_edges=0)


def test_capped_neighborhood_respects_cap():
    # star center with 30 leaves, cap 5: at most 5 leaves survive
    lines = "".join(f"hub\tr\tleaf{i}\n" for i in range(30))
    g = load_triples(lines)
    got = _capped_neighborhood(g, g.entity_ids["hub"], 1, 5, np.random.default_rng(0))
    assert len(got) == 6 and g.entity_ids["hub"] in got


def test_capped_neighborhood_hops_bound():
    g = load_triples("a\tr\tb\nb\tr\tc\nc\tr\td\n")
    got = _capped_neighborhood(g, g.entity_ids["a"], 2, 10, np.random.default_rng(0))
    assert got == {g.entity_ids[x] for x in "abc"}


def test_pair_sampling_contracts():
    rng = np.random.default_rng(3)
    for trial in range(15):
        g = big_graph(seed=trial)
        tr, te = small_cfgs()
        g_train, g_ind = sample_inductive_pair(g, tr, te)
        assert not set(g_train.entity_names) & set(g_ind.entity_names)
        assert set(g_ind.relation_names) <= set(g_train.relation_names)
        assert g_train.triples and g_ind.triples
        # both graphs are induced: every edge lives on sampled entities
        for gr in (g_train, g_ind):
            for h, r, t in gr.triples:
                assert 0 <= h < gr.num_entities and 0 <= t < gr.num_entities


def test_pair_sampling_deterministic():
    g = big_graph(seed=4)
    tr, te = small_cfgs()
    a_train, a_ind = sample_inductive_pair(g, tr, te)
    b_train, b_ind = sample_inductive_pair(g, tr, te)
    assert graphs_equal(a_train, b_train) and graphs_equal(a_ind, b_ind)


def test_pair_sampling_error_when_train_eats_graph():
    g = load_triples("a\tr\tb\nb\tr\tc\nc\tr\ta\n")
    greedy = SamplerConfig(num_roots=3, hops=3, max_new_per_hop=10, target_edges=100)
    with pytest.raises(ValueError, match="smaller train sampler"):
        sample_inductive_pair(g, greedy, greedy)


def test_split_exact_count_and_union():
    rng = np.random.default_rng(5)
    for trial in range(25):
        g = random_kg(np.random.default_rng(trial), 30, 3, 150)
        frac = [0.05, 0.10, 0.25][trial % 3]
        message, test_edges = split_test_edges(g, frac, np.random.default_rng(trial))
        want = math.ceil(frac * len(g.triples))
        # exact unless endpoint-visibility forced drop-backs (rare at these sizes)
        assert len(test_edges) <= want
        assert len(message.triples) + len(test_edges) == len(g.triples)
        assert set(message.triples) | set(test_edges) == set(g.triples)
        assert not set(message.triples) & set(test_edges)
        # every test endpoint still appears in the message graph
        seen = {h for h, _, t in message.triples} | {t for h, _, t in message.triples}
        for h, _, t in test_edges:
            assert h in seen and t in seen


def test_split_usually_hits_exact_count():
    g = random_kg(np.random.default_rng(6), 40, 3, 300)
    _, test_edges = split_test_edges(g, 0.10, np.random.default_rng(0))
    assert len(test_edges) == math.ceil(0.10 * len(g.triples))


def test_split_deterministic():
    g = random_kg(np.random.default_rng(7), 25, 3, 120)
    a = split_test_edges(g, 0.1, np.random.default_rng(9))
    b = split_test_edges(g, 0.1, np.random.default_rng(9))
    assert a[1] == b[1] and graphs_equal(a[0], b[0])


def test_split_validation():
    g = load_triples("a\tr\tb\nb\tr\tc\n")
    with pytest.raises(ValueError, match="fraction must be"):
        split_test_edges(g, 0.0)
    with pytest.raises(ValueError, match="fraction must be"):
        split_test_edges(g, 1.0)
    with pytest.raises(ValueError, match="empty message graph"):
        split_test_edges(g, 0.9)


def test_write_benchmark_files(tmp_path):
    g = big_graph(seed=8)
    tr, te = small_cfgs()
    g_train, g_ind = sample_inductive_pair(g, tr, te)
    out = str(tmp_path / "bench")
    stats = write_benchmark(out, g_train, g_ind, seed=3)

    train = load_triples_file(os.path.join(out, "train.txt"))
    ind = load_triples_file(os.path.join(out, "ind_test_graph.txt"))
    valid_lines = open(os.path.join(out, "valid.txt")).read().strip().splitlines()
    test_lines = open(os.path.join(out, "test.txt")).read().strip().splitlines()

    assert stats["train"]["links"] == len(g_train.triples)
    assert stats["ind_test"]["links"] == len(g_ind.triples)
    # valid edges were carved out of the train graph
    assert len(train.triples) + len(valid_lines) == len(g_train.triples)
    # the inductive graph file keeps everything; test.txt lists a subset of it
    def name_triples(gr):
        return {(gr.entity_names[h], gr.relation_names[r], gr.entity_names[t])
                for h, r, t in gr.triples}

    assert name_triples(ind) == name_triples(g_ind)
    assert {tuple(line.split("\t")) for line in test_lines} <= name_triples(ind)
    assert len(test_lines) == math.ceil(0.10 * len(g_ind.triples))

    header = open(os.path.join(out, "stats.tsv")).read().splitlines()[0]
    assert header == "graph\trelations\tnodes\tlinks"


def test_write_benchmark_deterministic(tmp_path):
    g = big_graph(seed=9)
    tr, te = small_cfgs()
    g_train, g_ind = sample_inductive_pair(g, tr, te)
    d1, d2 = str(tmp_path / "b1"), str(tmp_path / "b2")
    write_benchmark(d1, g_train, g_ind, seed=4)
    write_benchmark(d2, g_train, g_ind, seed=4)
    for name in ("train.txt", "valid.txt", "ind_test_graph.txt", "test.txt", "stats.tsv"):
        assert open(os.path.join(d1, name), "rb").read() == open(os.path.join(d2, name), "rb").read()
