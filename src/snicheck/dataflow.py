"""Generic forward/backward flow-inequality solver over a semi-lattice.

Forward problems require f(succ) >= T_n(f(n)) for every edge n -> succ plus
f(n) >= init at entry nodes; backward problems are the mirror image.  The
worklist is FIFO with node-order tiebreaking, so solutions are deterministic.
A node's value is stable when joining its inflow leaves it equal, which for a
join (an upper bound of both operands) is the same as inflow <= value.
Additional constraints of shape f(n) <= bound are checked post hoc; if the
least solution violates one, no solution satisfies it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable

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


def solve(prob: FlowProblem) -> dict[Node, Any]:
    """Least solution of the flow inequalities by worklist iteration."""
    lat = prob.lattice
    order = {n: i for i, n in enumerate(prob.nodes)}
    # flow runs along edges forward, or against them backward
    deps: dict[Node, list[Node]] = {n: [] for n in prob.nodes}
    for u, v in prob.edges:
        if prob.direction == "forward":
            deps[u].append(v)
        else:
            deps[v].append(u)
    for ms in deps.values():
        ms.sort(key=order.__getitem__)

    sol = {n: lat.bottom for n in prob.nodes}
    for n in prob.init_nodes:
        sol[n] = lat.join(sol[n], prob.init)

    height = prob.height_hint if prob.height_hint is not None else max(1, len(prob.nodes))
    cap = max(64, len(prob.nodes) * (height + 1) * 4)

    queue = deque(prob.nodes)
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


@dataclass(frozen=True)
class ConstraintViolation:
    node: Node
    value: Any
    bound: Any


def check_constraints(sol: dict[Node, Any], constraints: list[tuple[Node, Any]], lat: Lattice) -> list[ConstraintViolation]:
    """Constraints f(node) <= bound that the solution fails."""
    out = []
    for node, bound in constraints:
        if not lat.leq(sol[node], bound):
            out.append(ConstraintViolation(node, sol[node], bound))
    return out


def set_lattice() -> Lattice:
    return Lattice(frozenset(), lambda a, b: a | b, lambda a, b: a <= b)
