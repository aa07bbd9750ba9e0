"""Finite simple undirected graphs over dense integer vertex ids.

Vertices are always the ids 0..n-1.  Neighborhoods and all other vertex
subsets are handled as fixed-universe bitsets (:class:`VertexSet`), which
keeps the symmetric-difference-heavy workload of the rest of the package
cheap: every set operation is a couple of machine-word ops on a Python int.

Graphs and vertex sets are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """Bad graph input: self-loop, out-of-range id, or malformed edge list."""


class UniverseMismatchError(ValueError):
    """Two fixed-universe sets (or hypergraphs) with different universe sizes."""


class VertexSet:
    """Immutable subset of {0..n-1}, backed by an int bitmask.

    All binary operations require both operands to share the same universe
    size ``n`` and raise :class:`UniverseMismatchError` otherwise.
    """

    __slots__ = ("n", "mask")

    def __init__(self, n: int, mask: int = 0):
        if n < 0:
            raise ValueError("universe size must be non-negative")
        if mask < 0 or mask >> n:
            raise ValueError("mask has bits outside the universe")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask", mask)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("VertexSet is immutable")

    @classmethod
    def of(cls, n: int, ids: Iterable[int]) -> "VertexSet":
        mask = 0
        for v in ids:
            if not 0 <= v < n:
                raise ValueError(f"vertex id {v} outside universe of size {n}")
            mask |= 1 << v
        return cls(n, mask)

    def _check(self, other: "VertexSet") -> None:
        if not isinstance(other, VertexSet):
            raise TypeError("expected a VertexSet")
        if self.n != other.n:
            raise UniverseMismatchError(
                f"universe sizes differ: {self.n} vs {other.n}"
            )

    def __or__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask | other.mask)

    def __and__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & other.mask)

    def __xor__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask ^ other.mask)

    def __sub__(self, other: "VertexSet") -> "VertexSet":
        self._check(other)
        return VertexSet(self.n, self.mask & ~other.mask)

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def sorted_ids(self) -> list[int]:
        return list(self)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, VertexSet)
            and self.n == other.n
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.n, self.mask))

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


class Graph:
    """Finite simple undirected graph with adjacency stored as bitmasks.

    Duplicate edges in the input are silently deduplicated; self-loops are
    rejected.  Disconnected graphs (including isolated vertices) are legal.
    """

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, adj_masks: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_adj", adj_masks)

    def __setattr__(self, name, value):  # pragma: no cover - defensive
        raise AttributeError("Graph is immutable")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise GraphFormatError("vertex count must be non-negative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise GraphFormatError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    # --- neighborhoods -------------------------------------------------

    def neighbor_mask(self, v: int) -> int:
        """Bitmask of N(v)."""
        return self._adj[v]

    def closed_neighbor_mask(self, v: int) -> int:
        """Bitmask of N[v] = N(v) plus v itself."""
        return self._adj[v] | 1 << v

    def _require_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex id {v} out of range 0..{self.n - 1}")

    def open_neighborhood(self, v: int) -> VertexSet:
        """All vertices adjacent to v (never contains v)."""
        self._require_vertex(v)
        return VertexSet(self.n, self._adj[v])

    def closed_neighborhood(self, v: int) -> VertexSet:
        """Open neighborhood of v together with v itself."""
        self._require_vertex(v)
        return VertexSet(self.n, self._adj[v] | 1 << v)

    def degree(self, v: int) -> int:
        self._require_vertex(v)
        return self._adj[v].bit_count()

    def adjacent(self, u: int, v: int) -> bool:
        self._require_vertex(u)
        self._require_vertex(v)
        return self._adj[u] >> v & 1 == 1

    # --- global structure ----------------------------------------------

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1)
            v = u + 1
            while rest:
                if rest & 1:
                    yield (u, v)
                rest >>= 1
                v += 1

    @property
    def num_edges(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def isolated_vertices(self) -> VertexSet:
        """All vertices with empty open neighborhood."""
        mask = 0
        for v in range(self.n):
            if self._adj[v] == 0:
                mask |= 1 << v
        return VertexSet(self.n, mask)

    def closed_twins(self) -> list[tuple[int, int]]:
        """Adjacent pairs u < v with N[u] = N[v], lexicographically sorted.

        Equal closed rows force adjacency: u is in N[u] = N[v].
        """
        return _equal_row_pairs(m | 1 << v for v, m in enumerate(self._adj))

    def open_twins(self) -> list[tuple[int, int]]:
        """Non-adjacent pairs u < v with N(u) = N(v), lexicographically sorted.

        Equal open rows force non-adjacency: u is not in N(u) = N(v).  Two
        isolated vertices qualify: both open neighborhoods are empty.
        """
        return _equal_row_pairs(self._adj)

    def is_twin_free(self) -> bool:
        """True iff the graph has neither closed nor open twins."""
        return not self.closed_twins() and not self.open_twins()

    def distance(self, u: int, v: int) -> int | float:
        """Shortest-path edge count between u and v; math.inf if disconnected."""
        self._require_vertex(u)
        self._require_vertex(v)
        if u == v:
            return 0
        visited = frontier = 1 << u
        d = 0
        while frontier:
            d += 1
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= self._adj[low.bit_length() - 1]
                frontier ^= low
            nxt &= ~visited
            if nxt >> v & 1:
                return d
            visited |= nxt
            frontier = nxt
        return math.inf

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.num_edges})"


def _equal_row_pairs(rows: Iterable[int]) -> list[tuple[int, int]]:
    """Pairs u < v with rows[u] == rows[v], lexicographically sorted.

    Vertices are grouped by row in one pass, so only pairs inside a group
    are ever formed.
    """
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        groups.setdefault(row, []).append(v)
    return sorted(pair for group in groups.values() for pair in itertools.combinations(group, 2))


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph induced on the given vertices, relabeled to 0..k-1.

    Vertices are relabeled in ascending order of their original ids.
    """
    kept = sorted(set(keep))
    for v in kept:
        if not 0 <= v < g.n:
            raise IndexError(f"vertex id {v} out of range")
    index = {v: i for i, v in enumerate(kept)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u in index and v in index
    ]
    return Graph.from_edges(len(kept), edges)


# --- edge-list text format ----------------------------------------------
#
# First non-comment line: "n m".  Then m lines "u v" with 0-based ids.
# Lines starting with '#' are ignored, as are blank lines.  LF and CRLF
# both accepted.


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format into a Graph."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected header 'n m'")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
            if header[0] < 0 or header[1] < 0:
                raise GraphFormatError(f"line {lineno}: negative header values")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from None
        edges.append((u, v))
    if header is None:
        raise GraphFormatError("missing header line 'n m'")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(f"header announced {m} edges, found {len(edges)}")
    try:
        return Graph.from_edges(n, edges)
    except GraphFormatError as exc:
        raise GraphFormatError(f"bad edge list: {exc}") from None


def format_edge_list(g: Graph) -> str:
    """Serialize a Graph in the edge-list text format (edges lex-sorted)."""
    lines = [f"{g.n} {g.num_edges}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"
