"""Seeded graph families and fault samples for verification and benchmarks.

Spans the regimes the oracle cares about: bridge-heavy trees, trees with few
or many chords, low-diameter grids, a gadget family whose best avoiding
routes rejoin the primary path inside the near side of the split, and nested
arcs whose departing arrays grow like sqrt(n).
"""

from __future__ import annotations

import random

from .graphs import Graph
from .spt import ShortestPathTree


def random_tree_pairs(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform labeled tree on n vertices via a random Pruefer sequence."""
    if n < 1:
        raise ValueError("need at least one vertex")
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    import heapq

    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    pairs: list[tuple[int, int]] = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        pairs.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    pairs.append((u, v))
    return pairs


def tree_plus_chords(n: int, chords: int, seed: int) -> Graph:
    """Connected graph: a uniform random tree plus ``chords`` distinct extra
    edges (capped at the number of available non-edges)."""
    rng = random.Random(seed)
    pairs = random_tree_pairs(n, rng)
    present = {(min(u, v), max(u, v)) for u, v in pairs}
    limit = n * (n - 1) // 2 - len(present)
    chords = min(chords, limit)
    added = 0
    attempts = 0
    while added < chords and attempts < 200 * (chords + 1) + 1000:
        attempts += 1
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        key = (min(u, v), max(u, v))
        if key in present:
            continue
        present.add(key)
        pairs.append((u, v))
        added += 1
    return Graph.from_pairs(n, pairs)


def grid_graph(rows: int, cols: int) -> Graph:
    """Unit grid, vertices numbered row-major."""
    pairs = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                pairs.append((v, v + 1))
            if i + 1 < rows:
                pairs.append((v, v + cols))
    return Graph.from_pairs(rows * cols, pairs)


def gadget_graph(n: int, seed: int) -> Graph:
    """Chain with a heavy tail, off-chain shortcut ladders that rejoin the
    chain, and hanging leaves: forces avoiding routes that merge back into
    the primary path on the near side of the separator."""
    rng = random.Random(seed)
    n = max(n, 8)
    chain_len = max(3, n // 3)
    pairs = [(i, i + 1) for i in range(chain_len)]
    next_id = chain_len + 1
    total = chain_len + 1

    tail = max(2, n // 4)
    attach = chain_len
    for _ in range(tail):
        if next_id >= n:
            break
        pairs.append((attach, next_id))
        if rng.random() < 0.6:
            attach = next_id
        next_id += 1
        total = next_id

    while next_id < n:
        kind = rng.random()
        if kind < 0.55 and chain_len >= 2:
            i = rng.randrange(chain_len - 1)
            j = rng.randrange(i + 1, chain_len + 1)
            hops = j - i
            room = n - next_id
            if room <= 0:
                break
            hops = min(hops, room)
            prev = i
            for _ in range(hops):
                pairs.append((prev, next_id))
                prev = next_id
                next_id += 1
            pairs.append((prev, j))
        else:
            anchor = rng.randrange(next_id)
            pairs.append((anchor, next_id))
            next_id += 1
        total = next_id
    return Graph.from_pairs(total, pairs)


def nested_arcs(k: int) -> tuple[Graph, int]:
    """Path u_0..u_k plus arcs to one destination t, the arc from u_j having
    2(k - j) + 1 edges: every arc is a distinct candidate departing route,
    so |Dep(t)| = k + 1 while n grows like k**2. Returns (graph, t)."""
    pairs = [(i, i + 1) for i in range(k)]
    t = k + 1
    nxt = k + 2
    for j in range(k, -1, -1):
        prev = j
        for _ in range(2 * (k - j)):
            pairs.append((prev, nxt))
            prev = nxt
            nxt += 1
        pairs.append((prev, t))
    return Graph.from_pairs(nxt, pairs), t


def path_faults(
    spt: ShortestPathTree, count: int, rng: random.Random
) -> list[tuple[int, tuple[int, int]]]:
    """``count`` (t, (x, y)) faults on tree paths: t uniform over the
    non-source reachable vertices of ``spt``, then a uniform tree edge on the
    source -> t path."""
    parent, depth = spt.parent, spt.depth
    pool = [v for v in range(len(parent)) if parent[v] is not None]
    cases = []
    for _ in range(count):
        t = pool[rng.randrange(len(pool))]
        hop = t
        for _ in range(rng.randrange(depth[t])):
            hop = parent[hop]
        cases.append((t, (parent[hop], hop)))
    return cases


def verify_corpus(seed: int, count: int, max_n: int):
    """Deterministic stream of (label, graph, source) cases cycling through
    all families."""
    rng = random.Random(seed)
    produced = 0
    family = 0
    while produced < count:
        n = rng.randint(5, max_n)
        sub = rng.randrange(1 << 30)
        if family == 0:
            g = tree_plus_chords(n, 0, sub)
            label = f"tree(n={n},seed={sub})"
        elif family == 1:
            g = tree_plus_chords(n, n // 4, sub)
            label = f"tree+n/4(n={n},seed={sub})"
        elif family == 2:
            g = tree_plus_chords(n, n, sub)
            label = f"tree+n(n={n},seed={sub})"
        elif family == 3:
            g = tree_plus_chords(n, int(n**1.5) // 2, sub)
            label = f"tree+dense(n={n},seed={sub})"
        elif family == 4:
            cols = max(2, int(n**0.5))
            rows = max(2, n // cols)
            g = grid_graph(rows, cols)
            label = f"grid({rows}x{cols})"
        else:
            g = gadget_graph(n, sub)
            label = f"gadget(n={n},seed={sub})"
        source = rng.randrange(g.n)
        yield label, g, source
        produced += 1
        family = (family + 1) % 6
