"""Directed multi-relational graph container and triple-file I/O."""

from __future__ import annotations

import os
import secrets
from collections import deque
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
    triple whose ids fall outside the vocabularies.  k-hop sets are memoized
    per (node, k) on the graph itself (see khop), and the flat out-edge
    arrays are built on first use (see out_csr), so both are freed with the
    graph and take no part in equality.
    """

    entity_names: list[str]
    relation_names: list[str]
    triples: list[tuple[int, int, int]]
    duplicates_dropped: int = 0
    entity_ids: dict[str, int] = field(default_factory=dict)
    relation_ids: dict[str, int] = field(default_factory=dict)
    out_edges: list[list[tuple[int, int]]] = field(init=False, repr=False, compare=False)
    neighbors: list[list[int]] = field(init=False, repr=False, compare=False)
    _khop: dict = field(init=False, repr=False, compare=False, default_factory=dict)
    _csr: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if not self.entity_ids:
            self.entity_ids = {n: i for i, n in enumerate(self.entity_names)}
        if not self.relation_ids:
            self.relation_ids = {n: i for i, n in enumerate(self.relation_names)}
        n, m = self.num_entities, self.num_relations
        for h, r, t in self.triples:
            if not (0 <= h < n and 0 <= t < n):
                raise ValueError(f"triple ({h},{r},{t}) has entity id out of range {n}")
            if not (0 <= r < m):
                raise ValueError(f"triple ({h},{r},{t}) has relation id out of range {m}")
        self.out_edges, self.neighbors = build_indices(n, self.triples)

    @property
    def num_entities(self) -> int:
        return len(self.entity_names)

    @property
    def num_relations(self) -> int:
        return len(self.relation_names)

    def khop(self, node: int, k: int) -> frozenset[int]:
        """khop_nodes(self, node, k), searched once per (node, k) and then memoized."""
        found = self._khop.get((node, k))
        if found is None:
            found = self._khop[node, k] = frozenset(khop_nodes(self, node, k))
        return found

    def out_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """out_edges as flat arrays (indptr, relations, tails), built once on first use.

        The out-edges of node are relations[indptr[node]:indptr[node + 1]]
        and the matching tails, in out_edges order.
        """
        if self._csr is None:
            counts = np.fromiter(map(len, self.out_edges), np.intp, self.num_entities)
            flat = np.fromiter(chain.from_iterable(chain.from_iterable(self.out_edges)), np.intp)
            indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
            self._csr = (indptr, flat[0::2].copy(), flat[1::2].copy())
        return self._csr

    def check_entity(self, node: int) -> None:
        if not (0 <= node < self.num_entities):
            raise ValueError(f"invalid entity id {node} (graph has {self.num_entities} entities)")

    def check_relation(self, rel: int) -> None:
        if not (0 <= rel < self.num_relations):
            raise ValueError(f"invalid relation id {rel} (graph has {self.num_relations} relations)")


def build_indices(
    num_entities: int, triples: list[tuple[int, int, int]]
) -> tuple[list[list[tuple[int, int]]], list[list[int]]]:
    """Per-entity adjacency: sorted (relation, tail) out-edges and sorted undirected neighbors."""
    out: list[list[tuple[int, int]]] = [[] for _ in range(num_entities)]
    und: list[set[int]] = [set() for _ in range(num_entities)]
    for h, r, t in triples:
        out[h].append((r, t))
        und[h].add(t)
        und[t].add(h)
    for edges in out:
        edges.sort()
    return out, [sorted(n) for n in und]


def parse_triples(text: str) -> tuple[list[str], list[str], list[tuple[int, int, int]], int]:
    """Parse tab-separated triple lines into vocabularies and id triples.

    Ids are assigned in first-appearance order (heads before tails within a
    line).  Exact duplicate triples after id mapping are dropped and counted.
    A trailing carriage return (CRLF line ending) is stripped from each line.
    """
    entity_names: list[str] = []
    entity_ids: dict[str, int] = {}
    relation_names: list[str] = []
    relation_ids: dict[str, int] = {}
    triples: list[tuple[int, int, int]] = []
    seen: set[tuple[int, int, int]] = set()
    dropped = 0

    def ent(name: str) -> int:
        i = entity_ids.get(name)
        if i is None:
            i = len(entity_names)
            entity_ids[name] = i
            entity_names.append(name)
        return i

    def rel(name: str) -> int:
        i = relation_ids.get(name)
        if i is None:
            i = len(relation_names)
            relation_ids[name] = i
            relation_names.append(name)
        return i

    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.removesuffix("\r")
        if line == "":
            continue
        parts = line.split("\t")
        if len(parts) != 3 or any(p == "" for p in parts):
            raise ValueError(f"malformed triple on line {lineno}: {line!r}")
        h, r, t = parts
        trip = (ent(h), rel(r), ent(t))
        if trip in seen:
            dropped += 1
            continue
        seen.add(trip)
        triples.append(trip)
    if not triples:
        raise ValueError("no triples found in input")
    return entity_names, relation_names, triples, dropped


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
    seen: set[tuple[int, int, int]] = set()
    kept: list[tuple[int, int, int]] = []
    dropped = 0
    for h, r, t in triples:
        if (h, r, t) in seen:
            dropped += 1
            continue
        seen.add((h, r, t))
        kept.append((h, r, t))
    return KnowledgeGraph(list(entity_names), list(relation_names), kept, duplicates_dropped=dropped)


def without_triples(g: KnowledgeGraph, removed: list[tuple[int, int, int]]) -> KnowledgeGraph:
    """Copy of g with the given triples removed; vocabularies are preserved."""
    gone = set(removed)
    kept = [t for t in g.triples if t not in gone]
    return KnowledgeGraph(list(g.entity_names), list(g.relation_names), kept)


def out_neighbors(g: KnowledgeGraph, node: int, rel: int) -> list[int]:
    """Sorted tails t of edges (node, rel, t)."""
    g.check_entity(node)
    g.check_relation(rel)
    return [t for r, t in g.out_edges[node] if r == rel]


def khop_nodes(g: KnowledgeGraph, node: int, k: int) -> set[int]:
    """All nodes within undirected BFS distance k of node (node itself included)."""
    g.check_entity(node)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    seen = {node}
    frontier = deque([(node, 0)])
    while frontier:
        cur, d = frontier.popleft()
        if d == k:
            continue
        for nxt in g.neighbors[cur]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, d + 1))
    return seen

