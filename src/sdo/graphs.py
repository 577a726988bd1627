"""Graph primitives: undirected multigraph, saturating distances, text format."""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, NamedTuple, Union


def _restore_unreachable():
    return UNREACHABLE


class _Unreachable:
    """Distance value for vertices no path reaches.

    Orders after every finite value and absorbs addition, so plain ``min``
    and ``+`` implement saturating arithmetic without sentinel numbers.
    """

    __slots__ = ()

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "UNREACHABLE"

    def __reduce__(self):
        return (_restore_unreachable, ())


UNREACHABLE = _Unreachable()

Distance = Union[int, _Unreachable]


def is_unreachable(value: Distance) -> bool:
    return value is UNREACHABLE


class Edge(NamedTuple):
    """One undirected edge. ``virtual`` marks weighted shortcut edges added
    during oracle construction; input graphs contain only original edges."""

    u: int
    v: int
    weight: int = 1
    virtual: bool = False

    def other(self, x: int) -> int:
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise ValueError(f"vertex {x} is not an endpoint of {self}")


class Graph:
    """Undirected multigraph with dense integer vertex ids in [0, n).

    Immutable after construction: every edge appears in both endpoints'
    adjacency lists, weights are non-negative integers. An edge with an
    endpoint that is not an ``int`` in range, a self-loop or any other weight
    raises ``ValueError`` naming it.

    ``adj`` is for graphs the library derives from a checked one, such as
    the oracle's child graphs: ``edges`` must then be a list of valid edges
    and ``adj`` the lists this constructor would build. Both are kept as
    given, unchecked.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(
        self, n: int, edges: Iterable[Edge] = (), *, adj: list[list[int]] | None = None
    ):
        if adj is not None:
            self.n, self.edges, self.adj = n, edges, adj
            return
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self.n = n
        self.edges: list[Edge] = list(edges)
        self.adj: list[list[int]] = [[] for _ in range(n)]
        adj = self.adj
        for eid, e in enumerate(self.edges):
            u, v, weight, _ = e
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n
                    and u != v and type(weight) is int and weight >= 0):
                raise ValueError(_bad_edge(e, n))
            adj[u].append(eid)
            adj[v].append(eid)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_ids_between(self, x: int, y: int) -> list[int]:
        """All edge ids joining x and y (multigraph: possibly several)."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"vertex pair ({x}, {y}) out of range")
        return [eid for eid in self.adj[x] if self.edges[eid].other(x) == y]

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Graph":
        """Unit-weight original edges from (u, v) pairs."""
        return cls(n, (Edge(u, v) for u, v in pairs))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


def _bad_edge(e: Edge, n: int) -> str:
    """Why ``Graph`` rejects ``e``."""
    if type(e.u) is not int or type(e.v) is not int:
        return f"non-integer endpoint on edge {e}"
    if not (0 <= e.u < n and 0 <= e.v < n):
        return f"edge {e} has an endpoint outside [0, {n})"
    if e.u == e.v:
        return f"self-loop at vertex {e.u}"
    if type(e.weight) is not int:
        return f"non-integer weight on edge {e}"
    return f"negative weight on edge {e}"


class GraphFormatError(ValueError):
    """Raised on malformed graph text; message carries the 1-based line number."""


def parse_graph(text: str) -> Graph:
    """Parse the plain text format: header ``n m``, then m lines ``u v``.

    Vertices are 0-indexed, weights are implicitly 1, ``#`` starts a comment.
    """
    header: tuple[int, int] | None = None
    pairs: list[tuple[int, int]] = []
    n = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise GraphFormatError(f"line {lineno}: expected header 'n m'")
            try:
                n, m = int(fields[0]), int(fields[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: negative counts in header")
            header = (n, m)
            continue
        if len(fields) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v'")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"line {lineno}: vertex id out of range [0, {n})")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop at {u}")
        pairs.append((u, v))
    if header is None:
        raise GraphFormatError("line 1: empty graph file")
    if len(pairs) != header[1]:
        raise GraphFormatError(
            f"header announced {header[1]} edges but file holds {len(pairs)}"
        )
    return Graph.from_pairs(n, pairs)


def format_graph(g: Graph) -> str:
    """Inverse of parse_graph. The text format holds unit-weight original
    edges only, so ValueError names the first edge that is virtual or whose
    weight is not 1."""
    for eid, e in enumerate(g.edges):
        if e.virtual or e.weight != 1:
            what = "is virtual" if e.virtual else f"has weight {e.weight}"
            raise ValueError(
                f"edge {eid} ({e.u}, {e.v}) {what}; text graphs hold unit-weight original edges only"
            )
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{e.u} {e.v}" for e in g.edges)
    return "\n".join(lines) + "\n"


def read_graph(path: str | Path) -> Graph:
    return parse_graph(Path(path).read_text())


def write_graph(g: Graph, path: str | Path) -> None:
    Path(path).write_text(format_graph(g))
