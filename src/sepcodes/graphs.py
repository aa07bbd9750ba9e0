"""Finite simple undirected graphs over dense integer vertex ids.

Vertices are always the ids 0..n-1.  A graph is stored as its rows: the
open neighborhood N(v) of every vertex as an int bitmask (``Graph.rows``),
plus the closed neighborhoods N[v] derived once at construction
(``Graph.closed_rows``).  Every structural question in the package (twins,
isolated vertices, edges, and in :mod:`sepcodes.codes` domination, traces
and hyperedges) is answered by iterating these rows.  An isolated vertex
is a zero row, so G + K1 appends a 0 to the rows and G - x, for an
isolated x, drops row x and closes the gap in the others.  Other vertex
subsets are fixed-universe bitsets (:class:`VertexSet`) over one Python
int; the package combines their masks directly.

Graphs and vertex sets are frozen dataclasses, immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator

# Largest vertex count a graph may have.  Graph.from_edges and FamilySpec
# refuse larger counts before allocating rows or edge lists, so a bad
# header or family size fails with a message instead of a MemoryError.
# Rows are dense ints as wide as their highest neighbor, and closed_rows
# holds a second one per vertex, so even a sparse graph costs about
# n^2 / 8 bytes: path:20000 raises peak RSS by 55 MB.
MAX_VERTICES = 20_000

# Largest edge count a graph may have.  families.generate and
# parse_edge_list refuse larger counts before listing the edges.  Each
# edge costs about 175 bytes across the edge tuples, the edge-list rows
# and the rendered report: `sepcodes family thick:816` (997,560 edges)
# peaks at 182 MB (245 MB with --json), and thick:10000 would need 25 GB.
MAX_EDGES = 1_000_000


class GraphFormatError(ValueError):
    """Bad graph input: self-loop, out-of-range id, too many vertices or
    edges, malformed edge list, or rows that do not fit the vertex count."""


class UniverseMismatchError(ValueError):
    """A fixed-universe set whose universe differs from another set's or a graph's order."""


def check_vertex_count(n: int) -> None:
    """Raise GraphFormatError unless 0 <= n <= MAX_VERTICES."""
    if n < 0:
        raise GraphFormatError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise GraphFormatError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")


def check_edge_count(m: int) -> None:
    """Raise GraphFormatError if m > MAX_EDGES."""
    if m > MAX_EDGES:
        raise GraphFormatError(f"edge count {m} exceeds the limit of {MAX_EDGES}")


def bit_ids(mask: int) -> list[int]:
    """The set bits of a non-negative int, as an ascending list.  The walk
    clears the top bit, which shortens the int; a low-bit walk does not."""
    ids = []
    while mask:
        top = mask.bit_length() - 1
        ids.append(top)
        mask ^= 1 << top
    ids.reverse()
    return ids


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Immutable subset of {0..n-1}, backed by an int bitmask.

    :meth:`issubset` requires both operands to share the same universe
    size ``n`` and raises :class:`UniverseMismatchError` otherwise.
    """

    n: int
    mask: int = 0

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("universe size must be non-negative")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError("mask has bits outside the universe")

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

    def issubset(self, other: "VertexSet") -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and self.mask >> v & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(bit_ids(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def sorted_ids(self) -> list[int]:
        return bit_ids(self.mask)

    def __repr__(self) -> str:
        return f"VertexSet({self.n}, {{{', '.join(map(str, self))}}})"


@dataclass(frozen=True, slots=True)
class Graph:
    """Finite simple undirected graph stored as neighborhood rows.

    ``rows[v]`` is the bitmask of the open neighborhood N(v) and
    ``closed_rows[v]`` that of the closed neighborhood N[v]; the closed
    rows are derived once, at construction.  Equality and hashing use
    ``(n, rows)``.

    Duplicate edges in the input are silently deduplicated; self-loops and
    more than :data:`MAX_VERTICES` vertices are rejected.  Disconnected
    graphs (including isolated vertices) are legal.

    ``Graph(n, rows)`` stores the rows as a tuple and refuses a row count
    other than n, a row with bits at or above n and a row holding its own
    bit, but it does not check that the rows are symmetric (that costs as
    much as building them).  Rows not known to be symmetric must come
    through :meth:`from_edges`.
    """

    n: int
    rows: tuple[int, ...]
    closed_rows: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        rows = tuple(self.rows)
        n = self.n
        if len(rows) != n:
            raise GraphFormatError(f"{len(rows)} rows for {n} vertices")
        closed = []
        for v, row in enumerate(rows):
            if row >> n:
                raise GraphFormatError(f"row {v} has bits outside 0..{n - 1}")
            closed_row = row | 1 << v
            if closed_row == row:
                raise GraphFormatError(f"self-loop at vertex {v}")
            closed.append(closed_row)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "closed_rows", tuple(closed))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        check_vertex_count(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) pairs with u < v, in lexicographic order."""
        for u, row in enumerate(self.rows):
            for v in bit_ids(row >> (u + 1) << (u + 1)):
                yield (u, v)

    @property
    def num_edges(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def closed_twins(self) -> list[tuple[int, int]]:
        """Adjacent pairs u < v with N[u] = N[v], lexicographically sorted.

        Equal closed rows force adjacency: u is in N[u] = N[v].
        """
        return _equal_row_pairs(self.closed_rows)

    def open_twins(self) -> list[tuple[int, int]]:
        """Non-adjacent pairs u < v with N(u) = N(v), lexicographically sorted.

        Equal open rows force non-adjacency: u is not in N(u) = N(v).  Two
        isolated vertices qualify: both open neighborhoods are empty.
        """
        return _equal_row_pairs(self.rows)

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


def first_equal_row_pair(rows: Iterable[int]) -> tuple[int, int] | None:
    """``_equal_row_pairs(rows)[0]``, or None, in one pass that lists no
    pairs: the first pair of a group is its two lowest ids, and the pairs
    of different groups differ in their first id."""
    first: dict[int, int] = {}
    best = None
    for v, row in enumerate(rows):
        u = first.setdefault(row, v)
        if u != v and (best is None or u < best[0]):
            best = (u, v)
    return best


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
            check_edge_count(header[1])
            continue
        if len(edges) == header[1]:
            raise GraphFormatError(f"line {lineno}: more edges than the header announced ({header[1]})")
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
