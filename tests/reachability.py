"""Taxonomy reachability check shared by the test suites."""
from collections import deque

from opendomain.graph import KnowledgeGraph


def check_reachability(g: KnowledgeGraph) -> tuple:
    """Unknown classes whose node no known-class node can reach.

    BFS from the set of known-class nodes over the undirected edges;
    returns the (possibly empty) sorted tuple of unreachable unknown
    class indices.
    """
    neighbors = [[] for _ in range(g.num_nodes)]
    for i, j in g.edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    seen = set(g.class_to_node[: g.known_class_count])
    queue = deque(seen)
    while queue:
        node = queue.popleft()
        for nxt in neighbors[node]:
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return tuple(
        c
        for c in range(g.known_class_count, g.total_class_count)
        if g.class_to_node[c] not in seen
    )
