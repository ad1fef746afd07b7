"""Generic forward/backward flow-inequality solver over a semi-lattice.

Forward problems require f(succ) >= T_n(f(n)) for every edge n -> succ plus
f(n) >= init at entry nodes; backward problems are the mirror image.  The
worklist is FIFO, seeded in reverse postorder of the flow graph: a
depth-first search along the flow direction from the init nodes, then from
each node it did not reach, in node order.  A node is then visited after
everything that flows into it, except along back edges, so the transfer runs
exactly once per node on acyclic regions.  The least solution does not depend
on the visit order, so this only changes how fast the solver gets there.
A node's value is stable when joining its inflow leaves it equal, which for a
join (an upper bound of both operands) is the same as inflow <= value.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Sequence

Node = Hashable


@dataclass(frozen=True)
class Lattice:
    bottom: Any
    join: Callable[[Any, Any], Any]
    leq: Callable[[Any, Any], bool]


@dataclass
class FlowProblem:
    nodes: list[Node]
    edges: list[tuple[Node, Node]]
    direction: str  # forward | backward
    transfer: Callable[[Node, Any], Any]
    init: Any
    init_nodes: list[Node]
    lattice: Lattice
    height_hint: int | None = None


class NonMonotoneError(RuntimeError):
    def __init__(self, node):
        super().__init__(f"iteration cap exceeded at node {node!r}; transfer likely non-monotone")
        self.node = node


def reverse_postorder(roots, deps: dict[Node, Sequence[Node]]) -> list[Node]:
    """Reverse postorder of a depth-first search along `deps` from each of
    `roots` in turn that is not yet visited; an explicit stack, since long
    programs would exceed the interpreter's recursion limit."""
    seen: set[Node] = set()
    post: list[Node] = []
    for root in roots:
        if root in seen:
            continue
        seen.add(root)
        stack = [(root, iter(deps[root]))]
        while stack:
            n, it = stack[-1]
            for m in it:
                if m not in seen:
                    seen.add(m)
                    stack.append((m, iter(deps[m])))
                    break
            else:
                stack.pop()
                post.append(n)
    post.reverse()
    return post


def solve(prob: FlowProblem) -> dict[Node, Any]:
    """Least solution of the flow inequalities by worklist iteration."""
    lat = prob.lattice
    # flow runs along edges forward, or against them backward
    deps: dict[Node, list[Node]] = {n: [] for n in prob.nodes}
    for u, v in prob.edges:
        if prob.direction == "forward":
            deps[u].append(v)
        else:
            deps[v].append(u)

    sol = {n: lat.bottom for n in prob.nodes}
    for n in prob.init_nodes:
        sol[n] = lat.join(sol[n], prob.init)

    height = prob.height_hint if prob.height_hint is not None else max(1, len(prob.nodes))
    cap = max(64, len(prob.nodes) * (height + 1) * 4)

    queue = deque(reverse_postorder([*prob.init_nodes, *prob.nodes], deps))
    queued = set(queue)
    ticks = 0
    while queue:
        n = queue.popleft()
        queued.discard(n)
        out = prob.transfer(n, sol[n])
        for m in deps[n]:
            joined = lat.join(sol[m], out)
            if joined != sol[m]:
                ticks += 1
                if ticks > cap:
                    raise NonMonotoneError(m)
                sol[m] = joined
                if m not in queued:
                    queue.append(m)
                    queued.add(m)
    return sol


def set_lattice() -> Lattice:
    return Lattice(frozenset(), lambda a, b: a | b, lambda a, b: a <= b)
