"""Directed multi-relational graph container and triple-file I/O."""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import IO, Iterator

import numpy as np


@dataclass
class KnowledgeGraph:
    """Immutable-by-convention store of (head, relation, tail) triples.

    Entities and relations are interned to dense integer ids in first-appearance
    order; every downstream module works on ids only.  Construction rejects a
    triple whose ids fall outside the vocabularies and builds the graph's two
    read-only CSRs (see build_indices).  k-hop sets are memoized per (node, k)
    on the graph itself (see khop).  The CSRs and the memo are freed with the
    graph and take no part in equality.
    """

    entity_names: list[str]
    relation_names: list[str]
    triples: list[tuple[int, int, int]]
    duplicates_dropped: int = 0
    entity_ids: dict[str, int] = field(default_factory=dict)
    relation_ids: dict[str, int] = field(default_factory=dict)
    out_indptr: np.ndarray = field(init=False, repr=False, compare=False)
    out_rels: np.ndarray = field(init=False, repr=False, compare=False)
    out_tails: np.ndarray = field(init=False, repr=False, compare=False)
    und_indptr: np.ndarray = field(init=False, repr=False, compare=False)
    und_nbrs: np.ndarray = field(init=False, repr=False, compare=False)
    _khop: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if not self.entity_ids:
            self.entity_ids = {n: i for i, n in enumerate(self.entity_names)}
        if not self.relation_ids:
            self.relation_ids = {n: i for i, n in enumerate(self.relation_names)}
        n, m = self.num_entities, self.num_relations
        ids = np.fromiter(chain.from_iterable(self.triples), np.intp, 3 * len(self.triples))
        ids = ids.reshape(-1, 3)
        bad_entity = ((ids[:, ::2] < 0) | (ids[:, ::2] >= n)).any(axis=1)
        bad = bad_entity | (ids[:, 1] < 0) | (ids[:, 1] >= m)
        if bad.any():
            h, r, t = self.triples[i := int(bad.argmax())]
            kind, size = ("entity", n) if bad_entity[i] else ("relation", m)
            raise ValueError(f"triple ({h},{r},{t}) has {kind} id out of range {size}")
        (self.out_indptr, self.out_rels, self.out_tails,
         self.und_indptr, self.und_nbrs) = build_indices(n, ids)

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def khop(self, nodes, k: int) -> list[np.ndarray]:
        """khop_nodes(self, nodes, k), searching only the nodes whose (node, k)
        is not memoized yet, in one call, and memoizing what it finds."""
        memo = self._khop
        todo = [x for x in dict.fromkeys(nodes) if (x, k) not in memo]
        if todo:
            memo.update(zip([(x, k) for x in todo], khop_nodes(self, todo, k)))
        return [memo[x, k] for x in nodes]

    def check_entity(self, node: int) -> None:
        if not (0 <= node < self.num_entities):
            raise ValueError(f"invalid entity id {node} (graph has {self.num_entities} entities)")

    def check_relation(self, rel: int) -> None:
        if not (0 <= rel < self.num_relations):
            raise ValueError(f"invalid relation id {rel} (graph has {self.num_relations} relations)")


def build_indices(num_entities: int, triples: np.ndarray) -> tuple[np.ndarray, ...]:
    """(out_indptr, out_rels, out_tails, und_indptr, und_nbrs): the two read-only
    CSRs of (T, 3) id triples.  Node x's out-edges are
    out_rels[out_indptr[x]:out_indptr[x + 1]] and the matching out_tails,
    ascending in (relation, tail), repeats kept; its undirected neighbours
    are und_nbrs[und_indptr[x]:und_indptr[x + 1]], distinct and ascending,
    x itself among them when it has a self-loop."""
    heads, rels, tails = triples.T
    order = np.lexsort((tails, rels, heads))
    pairs = np.concatenate([heads * num_entities + tails, tails * num_entities + heads])
    pairs = np.sort(pairs, kind="stable")
    pairs = pairs[_firsts(pairs)]
    rows = np.arange(num_entities + 1)
    csrs = (heads[order].searchsorted(rows), rels[order], tails[order],
            (pairs // num_entities).searchsorted(rows), pairs % num_entities)
    for a in csrs:
        a.flags.writeable = False
    return csrs


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first of each run of equal, sorted, non-negative keys: with a
    stable sort, it stands in for np.unique, whose numpy.ma import costs 1.3 MB."""
    return np.diff(keys, prepend=-1) != 0


def _starts(sizes) -> np.ndarray:
    """Where each block starts when blocks of these sizes are laid end to end."""
    sizes = np.asarray(sizes, dtype=np.intp)
    return np.cumsum(sizes) - sizes


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The indices starts[i], ..., starts[i] + lengths[i] - 1 for every i, in order."""
    return np.arange(lengths.sum()) + np.repeat(starts - _starts(lengths), lengths)


def parse_triples(text: str) -> tuple[list[str], list[str], list[tuple[int, int, int]], int]:
    """Parse tab-separated triple lines into vocabularies and id triples.

    Ids are assigned in first-appearance order (heads before tails within a
    line).  Exact duplicate triples after id mapping are dropped and counted.
    A trailing carriage return (CRLF line ending) is stripped from each line.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    parsed: list[tuple[int, int, int]] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 3 or any(p == "" for p in parts):
            raise ValueError(f"malformed triple on line {lineno}: {line!r}")
        h, r, t = parts
        # a new name is interned under the next id
        parsed.append((entity_ids.setdefault(h, len(entity_ids)),
                       relation_ids.setdefault(r, len(relation_ids)),
                       entity_ids.setdefault(t, len(entity_ids))))
    if not parsed:
        raise ValueError("no triples found in input")
    triples = list(dict.fromkeys(parsed))
    return list(entity_ids), list(relation_ids), triples, len(parsed) - len(triples)


def load_triples(text: str) -> KnowledgeGraph:
    """Build a KnowledgeGraph from tab-separated triple text (one triple per line)."""
    entity_names, relation_names, triples, dropped = parse_triples(text)
    return KnowledgeGraph(entity_names, relation_names, triples, duplicates_dropped=dropped)


def load_triples_file(path: str) -> KnowledgeGraph:
    with open(path, encoding="utf-8") as f:
        return load_triples(f.read())


def to_lines(g: KnowledgeGraph) -> str:
    """Serialize back to triple lines (inverse of load_triples up to dropped dupes)."""
    rows = []
    for h, r, t in g.triples:
        rows.append(f"{g.entity_names[h]}\t{g.relation_names[r]}\t{g.entity_names[t]}")
    return "\n".join(rows) + "\n"


@contextmanager
def atomic_open(path: str, binary: bool = False) -> Iterator[IO]:
    """Write path all at once or not at all.

    Yields a new temporary file in path's directory.  When the block
    finishes, the file is flushed to disk and renamed over path with
    os.replace; if the block raises, the file is deleted and path keeps its
    previous contents.  Text mode writes UTF-8 with "\\n" line endings.
    """
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{secrets.token_hex(4)}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, "xb" if binary else "x", **text) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_triples_file(g: KnowledgeGraph, path: str) -> None:
    with atomic_open(path) as f:
        f.write(to_lines(g))


def from_parts(
    entity_names: list[str],
    relation_names: list[str],
    triples: list[tuple[int, int, int]],
) -> KnowledgeGraph:
    """Construct a graph from prebuilt vocabularies and id triples (dedups exact repeats)."""
    kept = list(dict.fromkeys(map(tuple, triples)))
    return KnowledgeGraph(list(entity_names), list(relation_names), kept,
                          duplicates_dropped=len(triples) - len(kept))


def without_triples(g: KnowledgeGraph, removed: list[tuple[int, int, int]]) -> KnowledgeGraph:
    """Copy of g with the given triples removed; vocabularies are preserved."""
    gone = set(removed)
    kept = [t for t in g.triples if t not in gone]
    return KnowledgeGraph(list(g.entity_names), list(g.relation_names), kept)


def out_neighbors(g: KnowledgeGraph, node: int, rel: int) -> list[int]:
    """Sorted tails t of edges (node, rel, t)."""
    g.check_entity(node)
    g.check_relation(rel)
    lo, hi = g.out_indptr[node], g.out_indptr[node + 1]
    first, last = lo + g.out_rels[lo:hi].searchsorted([rel, rel + 1])
    return g.out_tails[first:last].tolist()


# (source, entity) pairs one k-hop search holds at most: two bytes each in its masks
SEARCH_PAIRS = 1 << 18


def khop_nodes(g: KnowledgeGraph, nodes, k: int) -> list[np.ndarray]:
    """For each of nodes, the sorted, read-only intp array of the nodes within
    undirected distance k of it, itself included.  The sources are searched
    in consecutive chunks of at most SEARCH_PAIRS // num_entities (at least
    one), each chunk together, so transient memory is bounded by the chunk,
    not by the call: two bytes per source and entity, plus the neighbours
    one level gathers."""
    nodes = np.asarray(nodes, dtype=np.intp)
    n = g.num_entities
    bad = (nodes < 0) | (nodes >= n)
    if bad.any():
        g.check_entity(int(nodes[bad.argmax()]))
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    step = max(1, SEARCH_PAIRS // max(n, 1))
    return [found for lo in range(0, len(nodes), step)
            for found in _search(g, nodes[lo:lo + step], k)]


def _search(g: KnowledgeGraph, nodes: np.ndarray, k: int) -> list[np.ndarray]:
    """khop_nodes of all of nodes at once, level by level over the undirected
    CSR, on masks of (source, node) pairs."""
    n = g.num_entities
    seen = np.zeros(len(nodes) * n, dtype=bool)  # pair (s, x) at s * n + x
    frontier = np.arange(len(nodes)) * n + nodes
    seen[frontier] = True
    for _ in range(k):
        at = frontier % n
        first = g.und_indptr[at]
        degree = g.und_indptr[at + 1] - first
        reached = np.zeros_like(seen)
        reached[np.repeat(frontier - at, degree) + g.und_nbrs[_ranges(first, degree)]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen[frontier] = True
    keys = np.flatnonzero(seen)
    found = keys % n
    found.flags.writeable = False
    ends = np.cumsum(np.bincount(keys // n, minlength=len(nodes)))
    return np.split(found, ends[:-1])[: len(nodes)]  # no sources, no arrays
