"""Binary relations over event ids, as plain sets of pairs.

Everything here runs on graphs with at most a couple dozen events, so the
naive algorithms are the right ones.
"""

from __future__ import annotations

from typing import Iterable

Relation = set[tuple[int, int]]


def transitive_closure(relation: Iterable[tuple[int, int]]) -> Relation:
    succ: dict[int, set[int]] = {}
    for a, b in relation:
        succ.setdefault(a, set()).add(b)
    closure: Relation = set()
    for start in succ:
        # Plain BFS from each source node.
        frontier = list(succ[start])
        reached: set[int] = set()
        while frontier:
            node = frontier.pop()
            if node in reached:
                continue
            reached.add(node)
            frontier.extend(succ.get(node, ()))
        closure.update((start, node) for node in reached)
    return closure


def is_irreflexive(relation: Iterable[tuple[int, int]]) -> bool:
    return all(a != b for a, b in relation)


def is_acyclic(relation: Iterable[tuple[int, int]]) -> bool:
    succ: dict[int, set[int]] = {}
    for a, b in relation:
        succ.setdefault(a, set()).add(b)
    WHITE, GREY, BLACK = 0, 1, 2
    color: dict[int, int] = {}

    def visit(node: int) -> bool:
        color[node] = GREY
        for nxt in succ.get(node, ()):
            state = color.get(nxt, WHITE)
            if state == GREY:
                return False
            if state == WHITE and not visit(nxt):
                return False
        color[node] = BLACK
        return True

    return all(visit(node) for node in succ if color.get(node, WHITE) == WHITE)


def restrict(relation: Iterable[tuple[int, int]], nodes: set[int]) -> Relation:
    return {(a, b) for a, b in relation if a in nodes and b in nodes}
