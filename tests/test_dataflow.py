import operator

from snicheck.dataflow import FlowProblem, solve

from conftest import check_constraints


def test_single_node_backward():
    prob = FlowProblem(
        nodes=["n"],
        edges=[],
        transfer=lambda n, v: v | {"x"},
        init=frozenset({"i"}),
        init_nodes=["n"],
    )
    assert solve(prob) == {"n": frozenset({"i"})}


def test_diamond_join():
    # a -> b, a -> c, b -> d, c -> d with constant transfers joining backward at a
    const = {"a": frozenset(), "b": frozenset({"B"}), "c": frozenset({"C"}), "d": frozenset()}
    prob = FlowProblem(
        nodes=list("abcd"),
        edges=[("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")],
        transfer=lambda n, v: v | const[n],
        init=frozenset(),
        init_nodes=["d"],
    )
    sol = solve(prob)
    assert sol["a"] == frozenset({"B", "C"})


def test_liveness_of_dce_example():
    """Hand-applied backward transfers: the load's address register stays live
    into the branch even though the loaded register is dead."""
    from snicheck.liveness import live_before, liveness
    from conftest import load_program

    p = load_program("code_dce_source.sp")
    sol = liveness(p)
    assert "a" not in sol["2"]  # dead destination after the load
    assert "i" in live_before(p, sol, "2")
    assert "i" in live_before(p, sol, "1")
    assert "a" in sol["3"]  # the rewrite at 3 is live (full exit fact)


def _kleene(prob: FlowProblem):
    sol = {n: type(prob.init)() for n in prob.nodes}
    for n in prob.init_nodes:
        sol[n] = sol[n] | prob.init
    for _ in range(64):
        new = dict(sol)
        for u, v in prob.edges:
            new[u] = new[u] | prob.transfer(v, sol[v])
        if new == sol:
            return sol
        sol = new
    return sol


def test_least_solution_matches_kleene(rng):
    universe = ["p", "q", "r"]
    for _ in range(200):
        nodes = list("abcde")[: rng.randint(2, 5)]
        edges = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.4]
        gen = {n: frozenset(rng.sample(universe, rng.randint(0, 2))) for n in nodes}
        prob = FlowProblem(
            nodes=nodes,
            edges=edges,
            transfer=lambda n, v, g=gen: v | g[n],
            init=frozenset(rng.sample(universe, rng.randint(0, 2))),
            init_nodes=[nodes[0] if rng.random() < 0.5 else nodes[-1]],
        )
        assert solve(prob) == _kleene(prob)


def test_bit_mask_facts_match_kleene(rng):
    """Facts may be int bit masks, as liveness's are: bottom is 0 and the
    join is bitwise or, on random graphs with cycles."""
    for _ in range(200):
        nodes = list("abcde")[: rng.randint(2, 5)]
        edges = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.4]
        gen = {n: rng.randrange(8) for n in nodes}
        kill = {n: rng.randrange(8) for n in nodes}
        prob = FlowProblem(
            nodes=nodes,
            edges=edges,
            transfer=lambda n, v, g=gen, k=kill: v & ~k[n] | g[n],
            init=rng.randrange(8),
            init_nodes=rng.sample(nodes, rng.randint(0, 2)),
        )
        sol = solve(prob)
        assert sol == _kleene(prob)
        assert all(type(x) is int for x in sol.values())


def test_solution_satisfies_inequalities(rng):
    for _ in range(100):
        nodes = list("abcd")
        edges = [(u, v) for u in nodes for v in nodes if u != v and rng.random() < 0.5]
        gen = {n: frozenset(rng.sample(["x", "y"], rng.randint(0, 2))) for n in nodes}
        prob = FlowProblem(
            nodes=nodes,
            edges=edges,
            transfer=lambda n, v, g=gen: v | g[n],
            init=frozenset({"x"}),
            init_nodes=["a"],
        )
        sol = solve(prob)
        for u, v in edges:
            assert prob.transfer(v, sol[v]) <= sol[u]
        assert prob.init <= sol["a"]


def test_acyclic_graphs_visit_each_node_once(rng):
    """Seeded in reverse postorder, the worklist runs the transfer exactly
    once per node of a DAG, including nodes the init nodes do not reach."""
    for _ in range(300):
        n = rng.randint(1, 12)
        nodes = [f"n{i}" for i in rng.sample(range(n), n)]  # node order unrelated to the edges
        rank = {v: i for i, v in enumerate(rng.sample(nodes, n))}  # edges run up this order
        edges = [(u, v) for u in nodes for v in nodes if rank[u] < rank[v] and rng.random() < 0.3]
        gen = {v: frozenset(rng.sample("pqr", rng.randint(0, 2))) for v in nodes}
        calls = []

        def transfer(v, x, g=gen, calls=calls):
            calls.append(v)
            return x | g[v]

        prob = FlowProblem(
            nodes=nodes,
            edges=edges,
            transfer=transfer,
            init=frozenset({"i"}),
            init_nodes=rng.sample(nodes, rng.randint(0, min(2, n))),
        )
        sol = solve(prob)
        assert sorted(calls) == sorted(nodes)
        assert sol == _kleene(prob)


def test_check_constraints():
    sol = {"a": frozenset({"x", "y"}), "b": frozenset()}
    assert check_constraints(sol, [], operator.le) == []
    top = frozenset({"x", "y", "z"})
    assert check_constraints(sol, [("a", top), ("b", top)], operator.le) == []
    viol = check_constraints(sol, [("a", frozenset({"x"}))], operator.le)
    assert len(viol) == 1 and viol[0].node == "a"
