"""Backward union flow solver, and the reverse postorder it seeds from.

`solve` returns the least f with f(n) >= transfer(s, f(s)) for every edge
n -> s, and f(n) >= init at each init node, where facts are frozensets or
int bit masks, joined by `|`.  Liveness, on bit masks, is its one client.
The worklist is FIFO, seeded in reverse postorder of the reversed flow
graph: a depth-first search against the edges from the init nodes, then
from each node it did not reach, in node order.  A node is then visited
after all its successors, except along back edges, so the transfer runs
exactly once per node on acyclic regions.  The least solution does not
depend on the visit order, so this only changes how fast the solver gets
there.  A fact only grows, and the transfer's outputs lie in a finite
universe, so the loop ends.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

Node = Hashable
Fact = "frozenset | int"


# a problem object, not bare arguments: the benchmark's tracer wraps `solve`
# and counts `prob.nodes`
@dataclass
class FlowProblem:
    nodes: list[Node]
    edges: list[tuple[Node, Node]]
    transfer: Callable[[Node, Fact], Fact]
    init: Fact
    init_nodes: list[Node]


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


def solve(prob: FlowProblem) -> dict[Node, Fact]:
    """Least solution of the backward flow inequalities by worklist iteration."""
    preds: dict[Node, list[Node]] = {n: [] for n in prob.nodes}
    for u, v in prob.edges:
        preds[v].append(u)
    sol = dict.fromkeys(prob.nodes, type(prob.init)())
    for n in prob.init_nodes:
        sol[n] = prob.init

    queue = deque(reverse_postorder([*prob.init_nodes, *prob.nodes], preds))
    queued = set(queue)
    while queue:
        n = queue.popleft()
        queued.discard(n)
        out = prob.transfer(n, sol[n])
        for m in preds[n]:
            new = sol[m] | out
            if new != sol[m]:
                sol[m] = new
                if m not in queued:
                    queue.append(m)
                    queued.add(m)
    return sol
