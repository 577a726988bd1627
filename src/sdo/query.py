"""Fault queries over the oracle tree and full single-source enumeration."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Distance, UNREACHABLE
from .oracle import OracleNode, OracleTree
from .spt import is_ancestor, tree_edge_lower


@dataclass(frozen=True, slots=True)
class QueryResult:
    """Answer plus how deep the case dispatch descended (diagnostic)."""

    distance: Distance
    recursion_depth: int


@dataclass(slots=True)
class SsrpOutput:
    """One record per (destination, tree edge above it): the distance from
    the source to that destination when the edge fails."""

    records: list[tuple[int, tuple[int, int], Distance]]

    def to_tsv(self) -> str:
        lines = [
            f"{t}\t{x}\t{y}\t{'INF' if d is UNREACHABLE else d}"
            for t, (x, y), d in self.records
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def _query_node(
    node: OracleNode, t: int, eid: int, d0: Distance, depth: int
) -> tuple[Distance, int]:
    """Descend from ``node`` for destination t and fault eid in its ids.

    At each level the fault lies on the primary path, inside one side (that
    child's edge map holds it) or across the split. A primary-path fault
    offers the level's own candidates, and the descent carries the best of
    them on into side M, where a shorter route may stay. The descent goes on
    into the side holding the fault while t lies there too; ``d0``, the
    unfaulted distance to t, answers wherever the fault misses t's tree path:
    every candidate is a walk from the source, so none beats ``d0``.
    """
    best: Distance = UNREACHABLE
    while not node.is_leaf:
        pos = node.primary_pos_of_edge.get(eid)
        if pos is not None:
            # a destination on the path has an empty departing array, which
            # answers UNREACHABLE
            cand = node.sr_replacements[pos] + node.dist_r[t]
            if cand < best:
                best = cand
            cand = node.dep[t].query(pos)
            if cand < best:
                best = cand
            if t == node.separator or t not in node.left_vertex_map:
                return best, depth
            child, vmap, emap = node.left, node.left_vertex_map, node.left_edge_map
        elif eid in node.left_edge_map:
            child, vmap, emap = node.left, node.left_vertex_map, node.left_edge_map
        elif eid in node.right_edge_map:
            child, vmap, emap = node.right, node.right_vertex_map, node.right_edge_map
        else:
            return d0, depth
        ct = vmap.get(t)
        if ct is None:
            return d0, depth
        node, t, eid, depth = child, ct, emap[eid], depth + 1
    return _least(node.base_table[eid][t], best), depth


def _least(d: Distance, best: Distance) -> Distance:
    """min(d, best); nothing is compared while no candidate is carried."""
    return d if best is UNREACHABLE or d < best else best


def query(oracle: OracleTree, t: int, e: tuple[int, int]) -> QueryResult:
    """Length of the shortest source -> t path avoiding edge e = (x, y).

    Faults off the t tree path leave the distance unchanged; destinations
    outside the source's component answer UNREACHABLE. With parallel edges
    the tree copy fails.
    """
    g = oracle.original_graph
    x, y = e
    if not (0 <= t < g.n):
        raise ValueError(f"destination {t} out of range [0, {g.n})")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"edge endpoints ({x}, {y}) out of range [0, {g.n})")
    spt = oracle.spt
    lower = tree_edge_lower(spt, x, y)
    if lower is None:
        # a tree edge proves the pair is joined; any other pair needs the scan
        if not g.edge_ids_between(x, y):
            raise ValueError(f"no edge between {x} and {y}")
        return QueryResult(spt.dist[t], 0)
    if not is_ancestor(spt, lower, t):
        return QueryResult(spt.dist[t], 0)
    dist, depth = _query_node(oracle.root, t, spt.parent_edge[lower], spt.dist[t], 0)
    return QueryResult(dist, depth)


def ssrp(oracle: OracleTree) -> SsrpOutput:
    """For every reachable destination and every tree edge above it, the
    avoiding distance; records ordered by destination then edge depth."""
    root = oracle.root
    spt = oracle.spt
    source = oracle.original_source
    records: list[tuple[int, tuple[int, int], Distance]] = []
    for t in range(oracle.original_graph.n):
        if t == source or not spt.reachable(t):
            continue
        chain: list[tuple[int, int, int]] = []
        cur = t
        while cur != source:
            p = spt.parent[cur]
            chain.append((p, cur, spt.parent_edge[cur]))
            cur = p
        chain.reverse()
        d0 = spt.dist[t]
        for upper, lower, eid in chain:
            dist, _ = _query_node(root, t, eid, d0, 0)
            records.append((t, (upper, lower), dist))
    return SsrpOutput(records)
