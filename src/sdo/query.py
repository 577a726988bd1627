"""Fault queries over the oracle tree and full single-source enumeration."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Distance, UNREACHABLE
from .oracle import EdgeSide, OracleNode, OracleTree, VertexSide
from .spt import tree_edge_lower, is_ancestor


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
    node: OracleNode, t: int, eid: int, d0: Distance, depth: int, left_on_primary: bool
) -> tuple[Distance, int]:
    """Descend from ``node`` for destination t and fault eid in its ids;
    ``d0`` is the unfaulted distance to t, the answer wherever the fault
    misses t's tree path."""
    while True:
        if node.is_leaf:
            return node.base_table[eid][t], depth

        side_e = node.edge_side[eid]
        if side_e == EdgeSide.CROSSING:
            return d0, depth

        if side_e == EdgeSide.N_SIDE:
            if node.vertex_side[t] == VertexSide.M:
                return d0, depth
            t = node.right_vertex_map[t]
            eid = node.right_edge_map[eid]
            node = node.right
            depth += 1
            continue

        if side_e == EdgeSide.M_OFF_PRIMARY:
            if node.vertex_side[t] == VertexSide.N:
                return d0, depth
            t = node.left_vertex_map[t]
            eid = node.left_edge_map[eid]
            node = node.left
            depth += 1
            continue

        # fault on the primary path; a destination on the path has an empty
        # departing array, which answers UNREACHABLE
        pos = node.primary_pos_of_edge[eid]
        best: Distance = node.sr_replacements[pos] + node.dist_r[t]
        if node.dep is not None:
            dep = node.dep[t].query(pos)
            if dep < best:
                best = dep
        recurse_left = (
            left_on_primary
            and node.vertex_side[t] != VertexSide.N
            and t != node.separator
        )
        if recurse_left:
            sub, sub_depth = _query_node(
                node.left,
                node.left_vertex_map[t],
                node.left_edge_map[eid],
                d0,
                depth + 1,
                left_on_primary,
            )
            if sub < best:
                best = sub
            return best, sub_depth
        return best, depth


def query(
    oracle: OracleTree,
    t: int,
    e: tuple[int, int],
    *,
    _left_recursion_on_primary: bool = True,
) -> QueryResult:
    """Length of the shortest source -> t path avoiding edge e = (x, y).

    Faults off the t tree path leave the distance unchanged; destinations
    outside the source's component answer UNREACHABLE. With parallel edges
    the tree copy fails. The keyword flag exists only so tests can
    demonstrate the recursion branch is load-bearing.
    """
    g = oracle.original_graph
    x, y = e
    if not (0 <= t < g.n):
        raise ValueError(f"destination {t} out of range [0, {g.n})")
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"edge endpoints ({x}, {y}) out of range [0, {g.n})")
    if not g.edge_ids_between(x, y):
        raise ValueError(f"no edge between {x} and {y}")

    spt = oracle.spt
    lower = tree_edge_lower(spt, x, y)
    if lower is None or not is_ancestor(spt, lower, t):
        return QueryResult(spt.dist[t], 0)
    eid = oracle.to_root_edge[spt.parent_edge[lower]]
    dist, depth = _query_node(
        oracle.root, oracle.to_root_id[t], eid, spt.dist[t], 0, _left_recursion_on_primary
    )
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
        rt, d0 = oracle.to_root_id[t], spt.dist[t]
        for upper, lower, eid in chain:
            dist, _ = _query_node(root, rt, oracle.to_root_edge[eid], d0, 0, True)
            records.append((t, (upper, lower), dist))
    return SsrpOutput(records)
