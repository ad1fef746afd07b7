from snicheck.ir import Load, Nop, Store, parse_program, print_program
from snicheck.liveness import (
    cells_fact,
    dce_transform,
    full_fact,
    live_before,
    live_before_at,
    live_regs,
    liveness,
)

from conftest import (
    load_program,
    load_state,
    random_program,
    random_state,
    random_walk,
    ref_liveness,
    ref_liveness_transfer,
)


def test_ret_only_exit_fact():
    p = parse_program("entry a\na: ret\n")
    sol = liveness(p)
    assert sol["a"] == full_fact(p)
    sol2 = liveness(p, cells_fact(p))
    assert sol2["a"] == cells_fact(p)


def test_dce_example_golden():
    """The dead load becomes a nop; the rewrite stays; successors survive."""
    p = load_program("code_dce_source.sp")
    res = dce_transform(p, liveness(p))
    assert res.target.instrs["2"] == Nop("3")
    assert res.target.instrs["1"] == p.instrs["1"]
    assert res.target.instrs["3"] == p.instrs["3"]
    assert res.replaced == {"1": False, "2": True, "3": False, "4": False}
    assert sorted(res.target.instrs) == sorted(p.instrs)


def test_dce_all_live_unchanged():
    p = parse_program(
        "mem m 2 low\nentry a\na: x = y add z -> b\nb: store m[#0] <- x -> c\nc: ret\n"
    )
    res = dce_transform(p, liveness(p))
    assert res.target.instrs == p.instrs


def test_dce_dead_const_store():
    # the cell is overwritten before the exit fact can see the first store
    p = parse_program(
        "mem m 2 low\nentry a\na: store m[#1] <- x -> b\nb: store m[#1] <- y -> c\nc: ret\n"
    )
    res = dce_transform(p, liveness(p))
    assert res.target.instrs["a"] == Nop("b")
    assert res.target.instrs["b"] == p.instrs["b"]


def test_live_sets_shrink_backward_over_chain():
    p = parse_program(
        "entry a\na: x = u add v -> b\nb: y = x add x -> c\nc: z = y add y -> d\nd: ret\n"
    )
    sol = liveness(p, cells_fact(p))
    assert live_before(p, sol, "c") == {"y"}
    assert live_before(p, sol, "b") == {"x"}
    assert live_before(p, sol, "a") == {"u", "v"}


def test_liveness_guarantee_along_executions(rng):
    """Along any speculative execution, a register used by the current
    instruction is in the live-before set at its pc (full exit fact)."""
    from snicheck.ir import uses_defs

    checked = 0
    for _ in range(1000):
        p = random_program(rng, n_instrs=rng.randint(3, 7))
        sol = liveness(p)
        nu = random_state(rng, p)
        walk = random_walk(rng, p, nu, 8)
        states = [nu] + [w[2] for w in walk]
        for s in states:
            pc = s[-1].pc
            uses, _ = uses_defs(p.instrs[pc])
            lb = live_before(p, sol, pc)
            for r in uses:
                assert r in lb, f"{r} used at {pc} but not live"
                checked += 1
    assert checked >= 1000


def test_liveness_guarantee_memory_cells(rng):
    """Const-addressed loads with a live destination keep their cell live.

    Dead-destination loads are exactly the removable ones, so their cell may
    go dead; the guarantee concerns accesses whose value is consumed.
    """
    checked = 0
    for _ in range(600):
        p = random_program(rng, n_instrs=rng.randint(3, 7))
        sol = liveness(p)
        walk = random_walk(rng, p, random_state(rng, p), 8)
        for _d, _l, s in walk:
            pc = s[-1].pc
            i = p.instrs[pc]
            if isinstance(i, Load) and isinstance(i.addr, int) and i.dst in sol[pc]:
                assert (i.var, i.addr) in live_before(p, sol, pc)
                checked += 1
    assert checked > 50


def _programs_with_every_kind(rng, n):
    """`n` random programs with moves, and their allocations to two or three
    registers, which add fills and spills."""
    from snicheck.regalloc import AllocationInfeasible, allocate

    out = []
    while len(out) < n:
        p = random_program(rng, n_instrs=rng.randint(2, 9), n_regs=rng.randint(1, 4), allow_shuffle=True)
        out.append(p)
        try:
            out.append(allocate(p, rng.randint(2, 3)).target)
        except AllocationInfeasible:
            pass
    return out


def test_liveness_matches_the_match_based_reference(rng):
    """`liveness`, `live_before`, `live_regs` and `dce_transform`, all read
    off `ir.KINDS`, agree with one `match` arm per kind under both exit
    facts, on sources and on allocated targets (fills and spills): the
    register sets before and after each pc are the registers of the
    reference's facts."""
    kinds = set()
    for p in _programs_with_every_kind(rng, 400):
        for ef in (full_fact(p), cells_fact(p)):
            sol = liveness(p, ef)
            assert sol == ref_liveness(p, ef)
            before = {pc: ref_liveness_transfer(p, i, sol[pc], ef) for pc, i in p.instrs.items()}
            assert {pc: live_before(p, sol, pc, ef) for pc in p.instrs} == before
            regs = lambda facts: {pc: frozenset(x for x in f if isinstance(x, str)) for pc, f in facts.items()}
            assert live_regs(p, ef) == (regs(before), regs(ref_liveness(p, ef)))
            ref = dce_transform(p, ref_liveness(p, ef))
            res = dce_transform(p, sol)
            assert (res.target, res.replaced) == (ref.target, ref.replaced)
        kinds |= {type(i).__name__ for i in p.instrs.values()}
    assert {"Load", "Store", "Fill", "Spill", "Move", "Slh"} <= kinds


def test_live_before_at_reads_the_facts_of_live_before(rng):
    """`live_before_at`, which decodes each pc's transfer of one solution's
    masks, gives `live_before`'s fact at every pc, under the default, the
    full and the cells-only exit fact, on sources and allocated targets."""
    for p in _programs_with_every_kind(rng, 300):
        for ef in (None, full_fact(p), cells_fact(p)):
            before = live_before_at(p, ef)
            sol = liveness(p, ef)
            assert {pc: before(pc) for pc in p.instrs} == {pc: live_before(p, sol, pc, ef) for pc in p.instrs}


def test_access_names_the_cell_the_step_touches(rng):
    """For `load`, `store`, `fill` and `spill`, `Kind.access` names the cell
    that `semantics.transitions` reads or writes on an in-bounds access: a
    read puts that cell's value in the destination, and a write changes that
    cell alone, to the source register's value."""
    from snicheck.semantics import D_STEP, transitions

    seen = set()
    for p in _programs_with_every_kind(rng, 300):
        for pc, i in p.instrs.items():
            access = i.kind.access(i)
            assert (access is None) == (i.kind.mnemonic not in ("load", "store", "fill", "spill"))
            if access is None:
                continue
            var, adr, reads = access
            (s,) = random_state(rng, p)
            s = s.at(pc)
            size = p.memvar(var).size
            if not isinstance(adr, int):
                s = s.with_reg(adr, rng.randrange(size))
                adr = s.reg(adr)
            ((d, (nxt,), _),) = transitions(p, (s,))
            assert d == D_STEP
            if reads:
                assert nxt.reg(i.dst) == s.cell(var, adr)
            else:
                assert nxt.cell(var, adr) == s.reg(i.src)
                assert [c for c in p.cells() if nxt.cell(*c) != s.cell(*c)] in ([], [(var, adr)])
            seen.add(i.kind.mnemonic)
    assert seen == {"load", "store", "fill", "spill"}


def test_liveness_memory_is_linear_in_declared_cells():
    """The mask index keeps each key's bit position, not its bit, so solving
    40,000 declared cells stays well under 30 MB (an index of `1 << i` per
    key took over 100 MB there, and quadratic memory in general)."""
    import tracemalloc

    p = parse_program(
        "mem lo 40000 low\nentry 0\n0: load x <- lo[i] -> 1\n1: store lo[#3] <- x -> 2\n"
        "2: a = x lt i -> 3\n3: if a ? 0 : 4\n4: ret\n"
    )
    for solve in (lambda: live_regs(p, cells_fact(p)), lambda: liveness(p)):
        tracemalloc.start()
        try:
            solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30 << 20
    before, after = live_regs(p, cells_fact(p))
    assert before["0"] == {"i"} and after["2"] == {"a", "i"}
    sol = liveness(p)
    assert sol["0"] == cells_fact(p) - {("lo", 3)} | {"i", "x"} and sol["1"] == full_fact(p) - {"a"}
