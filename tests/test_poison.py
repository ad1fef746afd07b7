import pytest

from snicheck.ir import parse_program
from snicheck.poison import (
    BOT,
    H,
    P,
    W,
    Product,
    check_poison_typable,
    fix_ra,
    format_poison_table,
    poison_analysis,
)
from snicheck.regalloc import allocate, AllocationInfeasible, parse_ra_witness, validate_ra
from snicheck.semantics import D_IF, D_RB, D_SPEC, D_STEP, d_load, d_store
from snicheck.cli import corpus_path

from conftest import (
    check_constraints,
    load_program,
    load_state,
    pt_const,
    pt_leq,
    pv_join,
    pv_leq,
    random_program,
    random_state,
)


def test_poison_value_lattice():
    assert pv_leq(BOT, H) and pv_leq(BOT, W) and pv_leq(H, P) and pv_leq(W, P)
    assert not pv_leq(H, W) and not pv_leq(W, H) and not pv_leq(P, H)
    assert pv_join(H, W) == P
    assert pv_join(H, H) == H and pv_join(BOT, W) == W


@pytest.fixture
def prod(ra_witness):
    return Product(ra_witness)


def _attack_prefix(prod, ra_witness):
    """Drive the product through asgn, spill, misprediction, unsafe store."""
    t0 = load_state("code_ra.init", ra_witness.target)[0]
    ps = prod.initial_product(t0)
    trs = []
    for d in (D_STEP, D_STEP, D_STEP, D_SPEC, d_store("stk", 0), D_STEP):
        tr = prod.replay_target_step(ps, d)
        assert tr is not None, f"stuck early on {d}"
        trs.append(tr)
        ps = tr.end
    return ps, trs


def test_product_run_matches_presented_execution(prod, ra_witness):
    """The side-by-side run: the unsafe store poisons the spilled register and
    the cell the source wrote; the fill relocates the poison to the branch."""
    ps, trs = _attack_prefix(prod, ra_witness)
    load_tr, asgn_tr, spill_tr, spec_tr, store_tr, fill_tr = trs
    assert spill_tr.src_dir is None and spill_tr.rule == "shuffle-spill"
    assert spec_tr.rule == "spec" and len(spec_tr.end.src) == 2
    assert store_tr.rule == "store-poison-intro"
    assert store_tr.src_dir == d_store("buf", 0)  # canonical replay into the accessed variable
    pt = prod.pk.unpack(store_tr.end.poisons[-1])
    assert pt["bytes"] == P and pt[("buf", 0)] == P
    assert pt["b"] == H and pt["secret"] == H
    assert fill_tr.rule == "shuffle-fill"
    assert prod.pk.unpack(fill_tr.end.poisons[-1])["bytes"] == P

    # the product is now stuck: the branch would leak the poisoned register
    assert prod.replay_target_step(ps, D_IF) is None
    assert prod.replay_target_step(ps, D_SPEC) is None
    assert prod.replay_target_step(ps, D_RB) is not None


def test_product_transitions_enumerate_unsafe_choices(prod, ra_witness):
    t0 = load_state("code_ra.init", ra_witness.target)[0]
    ps = prod.initial_product(t0)
    for d in (D_STEP, D_STEP, D_STEP, D_SPEC):
        ps = prod.replay_target_step(ps, d).end
    trans = prod.transitions(ps)
    intro = [t for t in trans if t.rule == "store-poison-intro"]
    assert intro and all(t.src_dir.var == "buf" for t in intro)
    hunsafe = [t for t in trans if t.rule == "store-healthy-unsafe"]
    assert {t.tgt_dir.var for t in hunsafe} == {"sec", "buf"}
    assert any(t.rule == "rollback" for t in trans)


def test_matched_nop_keeps_poison():
    src = parse_program("mem m 1 low\nentry 0\n0: nop -> 1\n1: ret\n")
    w = allocate(src, 2)
    prod = Product(w)
    ps = prod.initial_product(random_state(__import__('random').Random(1), w.target)[0])
    tr = prod.replay_target_step(ps, D_STEP)
    assert tr.rule == "nop" and tr.end.poisons == ps.poisons


def test_product_well_definedness(rng):
    """The value-agreement invariant holds after every product transition."""
    checked = 0
    for _ in range(250):
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        try:
            w = allocate(p, rng.randint(2, 4))
        except AllocationInfeasible:
            continue
        prod = Product(w)
        for _run in range(4):
            ps = prod.initial_product(random_state(rng, w.target)[0])
            assert prod.well_formed(ps)
            for _s in range(8):
                trans = prod.transitions(ps)
                if not trans:
                    break
                tr = rng.choice(trans)
                assert prod.well_formed(tr.end), f"invariant broken by {tr.rule}"
                ps = tr.end
                checked += 1
    assert checked >= 1000


def test_spec_free_purity(rng):
    """Depth-1 product runs of safe programs never poison anything."""
    from snicheck.security import check_safety

    checked = 0
    for _ in range(400):
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        try:
            w = allocate(p, 3)
        except AllocationInfeasible:
            continue
        prod = Product(w)
        ps = prod.initial_product(random_state(rng, w.target)[0])
        if check_safety(w.source, ps.src[0]).status != "safe":
            continue
        for _s in range(12):
            trans = [t for t in prod.transitions(ps) if t.end.depth == 1 and ps.depth == 1]
            if not trans:
                break
            ps = rng.choice(trans).end
            assert prod.pk.unpack(ps.poisons[-1]) == pt_const(prod.domain, H)
            checked += 1
    assert checked >= 400


def _below_static(prod, sp, ps) -> int:
    static_stack = sp.stack_for(ps.src, ps.tgt)
    for dyn, stat in zip(ps.poisons, static_stack):
        assert pv_leq(dyn, stat)  # packed: pointwise
    return len(ps.poisons)


def test_static_over_approximates_dynamic(rng):
    """Along guarded product runs of safe programs, the dynamic poison stack
    stays below the static stack (bottom level healthy).  Repaired
    witnesses are searched rather than sampled, with small register values,
    so that speculating runs pass the shuffle `slh` of a repair."""
    from snicheck.security import check_safety
    from snicheck.semantics import State

    checked = 0
    spec_shuffle_slh = 0
    for _ in range(300):
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        try:
            w = allocate(p, 3)
        except AllocationInfeasible:
            continue
        prod = Product(w)
        sp = poison_analysis(w)
        for _run in range(3):
            ps = prod.initial_product(random_state(rng, w.target)[0])
            if check_safety(w.source, ps.src[0]).status != "safe":
                continue
            for _s in range(8):
                checked += _below_static(prod, sp, ps)
                trans = prod.transitions(ps)
                if not trans:
                    break
                ps = rng.choice(trans).end

        fixed, report = fix_ra(w)
        if not report.insertions:
            continue
        prod = Product(fixed)
        sp = poison_analysis(fixed)
        for _run in range(6):
            regs = {r: rng.randrange(3) for r in fixed.target.registers}
            ps = prod.initial_product(State.make(fixed.target.entry, regs))
            if check_safety(fixed.source, ps.src[0]).status != "safe":
                continue
            stack, seen = [(ps, 0)], 0
            while stack and seen < 200:
                ps, steps = stack.pop()
                seen += 1
                checked += _below_static(prod, sp, ps)
                if steps < 12:
                    for tr in prod.transitions(ps):
                        spec_shuffle_slh += tr.rule == "shuffle-slh" and ps.depth >= 2
                        stack.append((tr.end, steps + 1))
    assert checked >= 1000
    assert spec_shuffle_slh >= 20


def test_static_analysis_on_running_example(ra_witness):
    sp = poison_analysis(ra_witness)
    assert sp.assignment[("4", "f")]["bytes"] == P
    assert sp.assignment[("2", "c")]["a"] == H
    assert sp.assignment[("3", "d")]["b"] == H
    table = format_poison_table(sp)
    assert "(4,f)" in table


def test_static_all_healthy_without_stores_or_slh():
    src = parse_program(
        "mem m 2 low\nentry 0\n0: x = y add z -> 1\n1: load y <- m[#0] -> 2\n2: if y ? 3 : 3\n3: ret\n"
    )
    w = allocate(src, 4)
    sp = poison_analysis(w)
    for node, pt in sp.assignment.items():
        for k, v in pt.items():
            if isinstance(k, str) and k == "y" and node[0] in ("2", "3"):
                continue  # the load destination is conservatively poisoned
            assert v in (H, BOT, P) if k == "y" else v in (H, BOT), (node, k, v)


def test_static_sfence_resets_to_healthy():
    src = parse_program(
        "mem m 1 low\nentry 0\n0: store m[x] <- y -> 1\n1: sfence -> 2\n2: if y ? 3 : 3\n3: ret\n"
    )
    w = allocate(src, 4)
    sp = poison_analysis(w)
    node_after = ("2", w.phi["2"])
    assert all(v == H for v in sp.assignment[node_after].values())


def _with(pk, x: int, key, pv: int) -> int:
    """Packed type `x` with `key` set to `pv`."""
    return x & ~(3 << pk.shift[key]) | pv << pk.shift[key]


def test_well_formed_refuses_unpaired_levels(prod):
    """A product state is refused when its stacks differ in depth, when a
    level pairs a source pc with a target pc that is neither its match nor
    on the shuffle chain into it, and when a level below the top shuffles."""
    from snicheck.poison import ProductState
    from snicheck.semantics import State

    S = T = State  # a zero state at a source or a target pc
    h = prod.pk.all_h
    assert prod.well_formed(ProductState((S("1"),), (T("a"),), (h,)))
    assert prod.well_formed(ProductState((S("2"),), (T("b"),), (h,)))  # shuffling toward c = phi(2)
    assert not prod.well_formed(ProductState((), (), ()))
    assert not prod.well_formed(ProductState((S("1"),), (T("a"), T("a")), (h,)))
    assert not prod.well_formed(ProductState((S("1"),), (T("a"),), (h, h)))
    assert not prod.well_formed(ProductState((S("1"),), (T("z"),), (h,)))
    assert prod.well_formed(ProductState((S("2"), S("2")), (T("c"), T("c")), (h, h)))
    assert not prod.well_formed(ProductState((S("2"), S("2")), (T("b"), T("c")), (h, h)))


def test_well_formed_holds_a_weak_key_to_zero_in_the_target(prod):
    """A W key says the target holds 0 there, whatever the source holds; an
    H key says the two agree."""
    from snicheck.poison import ProductState
    from snicheck.semantics import State

    pk = prod.pk
    weak_b = _with(pk, pk.all_h, "b", W)
    src, tgt = State.make("1", {"b": 1}), State.make("a", {"b": 1})
    assert prod.well_formed(ProductState((src,), (tgt,), (pk.all_h,)))
    assert not prod.well_formed(ProductState((src,), (tgt,), (weak_b,)))
    assert prod.well_formed(ProductState((src,), (tgt.with_reg("b", 0),), (weak_b,)))
    assert not prod.well_formed(ProductState((src,), (tgt.with_reg("b", 0),), (pk.all_h,)))
    # a cell too: the W clause compares it with 0 and the H clause with the source
    weak_cell = _with(pk, pk.all_h, ("buf", 0), W)
    tgt_cell = tgt.with_cell("buf", 0, 2)
    assert not prod.well_formed(ProductState((src.with_cell("buf", 0, 2),), (tgt_cell,), (weak_cell,)))
    assert prod.well_formed(ProductState((src.with_cell("buf", 0, 2),), (tgt_cell,), (pk.all_h,)))


# The shuffle `slh x` at s1 leaves `x` weakly poisoned, since statically it
# may run speculating, and the branch at 1 reads it.
_WEAK_BRANCH_SOURCE = "mem buf 1 low\nentry 0\n0: if c ? 1 : 1\n1: if x ? 2 : 2\n2: ret\n"
_WEAK_BRANCH_TARGET = ("mem buf 1 low\nmem stk 1 low\nentry 0\n"
                       "0: if c ? s1 : s1\ns1: slh x -> 1\n1: if x ? 2 : 2\n2: ret\n")


def test_a_weakly_poisoned_branch_is_a_violation_and_gets_a_fence():
    """Branch conditions must be healthy: W is a violation too, and `fix_ra`
    splices an `sfence` in front of the branch, after the `slh`."""
    src, tgt = parse_program(_WEAK_BRANCH_SOURCE), parse_program(_WEAK_BRANCH_TARGET)
    w = parse_ra_witness("phi: 0 -> 0\nphi: 1 -> 1\nphi: 2 -> 2\n", src, tgt)
    assert validate_ra(w) == []
    sp = poison_analysis(w)
    assert sp.assignment[("1", "1")]["x"] == W
    (v,) = check_poison_typable(w, sp)
    assert (v.src_pc, v.tgt_pc, v.reg, v.kind, v.value) == ("1", "1", "x", "branch", W)
    assert str(v) == "(1,1): branch register x is W, needs H"
    fixed, report = fix_ra(w)
    (ins,) = report.insertions
    assert (ins.kind, ins.before, ins.violation) == ("sfence", "1", v)
    assert fixed.target.instrs["s1"].successors() == (ins.pc,) and fixed.target.instrs[ins.pc].successors() == ("1",)
    assert check_poison_typable(fixed, poison_analysis(fixed)) == []


def test_typability_running_example(ra_witness):
    sp = poison_analysis(ra_witness)
    violations = check_poison_typable(ra_witness, sp)
    assert len(violations) == 1
    v = violations[0]
    assert (v.src_pc, v.tgt_pc, v.reg, v.kind) == ("4", "f", "bytes", "branch")


def test_typability_all_healthy_program():
    src = parse_program("mem m 1 low\nentry 0\n0: x = x add x -> 1\n1: if x ? 2 : 2\n2: ret\n")
    w = allocate(src, 3)
    sp = poison_analysis(w)
    assert check_poison_typable(w, sp) == []


def test_fix_running_example(ra_witness):
    fixed, report = fix_ra(ra_witness)
    assert [i.kind for i in report.insertions] == ["sfence"]
    ins = report.insertions[0]
    assert ins.before == "f"
    assert fixed.target.instrs["e"].successors() == (ins.pc,)
    assert fixed.target.instrs[ins.pc].successors() == ("f",)
    assert check_poison_typable(fixed, poison_analysis(fixed)) == []
    assert validate_ra(fixed) == []


def test_fix_idempotent_on_typable(ra_witness):
    fixed, _ = fix_ra(ra_witness)
    again, report = fix_ra(fixed)
    assert report.insertions == []
    assert again.target.instrs == fixed.target.instrs


def test_fix_uses_slh_for_load_address():
    """A filled register used as a load address gets weak protection only."""
    src = parse_program(
        "mem buf 2 low\nentry 0\n"
        "0: a = b lt n -> 1\n"
        "1: if a ? 3 : 2\n"
        "2: store buf[b] <- s -> 3\n"
        "3: load x <- buf[i] -> 4\n"
        "4: if x ? 5 : 5\n"
        "5: ret\n"
    )
    w = allocate(src, 3)
    sp = poison_analysis(w)
    violations = check_poison_typable(w, sp)
    assert [(v.src_pc, v.reg, v.kind) for v in violations] == [
        ("3", "i", "address"),
        ("4", "x", "branch"),
    ]
    fixed, report = fix_ra(w)
    assert check_poison_typable(fixed, poison_analysis(fixed)) == []
    assert [i.kind for i in report.insertions] == ["slh", "sfence"]


def test_fixed_witness_blocks_attack(ra_witness):
    fixed, _ = fix_ra(ra_witness)
    prod = Product(fixed)
    t0 = load_state("code_ra.init", fixed.target)[0]
    ps = prod.initial_product(t0)
    for d in (D_STEP, D_STEP, D_STEP, D_SPEC, d_store("stk", 0), D_STEP):
        ps = prod.replay_target_step(ps, d).end
    # the inserted fence refuses to execute while speculating
    assert prod.replay_target_step(ps, D_STEP) is None
    assert prod.replay_target_step(ps, D_RB) is not None


def test_constraint_checker_flags_branch_node(ra_witness):
    """The generic bound checker sees the same failure: at the (4, f) node,
    the branch register exceeds the healthy bound."""
    sp = poison_analysis(ra_witness)
    domain = sp.domain
    bound = pt_const(domain, P)
    bound["bytes"] = H
    violations = check_constraints(sp.assignment, [(("4", "f"), bound)], pt_leq)
    assert len(violations) == 1 and violations[0].node == ("4", "f")
    top = pt_const(domain, P)
    assert check_constraints(sp.assignment, [(("4", "f"), top)], pt_leq) == []


def test_typable_witness_never_sticks(ra_witness):
    """On poison-typable witnesses, every enabled target directive has a
    canonical replay along bounded runs."""
    from snicheck.security import check_safety
    from snicheck.semantics import enabled_directives

    rng = __import__("random").Random(11)
    fixed, _ = fix_ra(ra_witness)
    candidates = [(fixed, load_state("code_ra.init", fixed.target)[0])]
    while len(candidates) < 12:
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        try:
            w = allocate(p, 3)
        except AllocationInfeasible:
            continue
        w, _ = fix_ra(w)
        if check_poison_typable(w, poison_analysis(w)):
            continue
        tgt0 = random_state(rng, w.target)[0]
        if check_safety(w.source, Product(w).initial_source_state(tgt0)).status != "safe":
            continue
        candidates.append((w, tgt0))

    checked = 0
    for w, tgt0 in candidates:
        prod = Product(w)
        stack = [(prod.initial_product(tgt0), 0)]
        seen = 0
        while stack and seen < 200:
            ps, depth_steps = stack.pop()
            seen += 1
            if depth_steps >= 10:
                continue
            for d in enabled_directives(w.target, ps.tgt):
                tr = prod.replay_target_step(ps, d)
                assert tr is not None, f"stuck on {d} in a typable witness"
                checked += 1
                if len(tr.end.src) <= 2:
                    stack.append((tr.end, depth_steps + 1))
    assert checked >= 300


# hypothesis checks on the poison value lattice


from hypothesis import given, strategies as st

pv = st.sampled_from([BOT, H, W, P])


@given(pv, pv)
def test_pv_join_commutes(a, b):
    assert pv_join(a, b) == pv_join(b, a)


@given(pv, pv, pv)
def test_pv_join_associates(a, b, c):
    assert pv_join(pv_join(a, b), c) == pv_join(a, pv_join(b, c))


@given(pv, pv)
def test_pv_join_is_least_upper_bound(a, b):
    j = pv_join(a, b)
    assert pv_leq(a, j) and pv_leq(b, j)
    for u in (BOT, H, W, P):
        if pv_leq(a, u) and pv_leq(b, u):
            assert pv_leq(j, u)


@given(pv, pv, pv)
def test_pv_leq_partial_order(a, b, c):
    assert pv_leq(a, a)
    if pv_leq(a, b) and pv_leq(b, a):
        assert a == b
    if pv_leq(a, b) and pv_leq(b, c):
        assert pv_leq(a, c)


def test_fix_soundness_end_to_end_random(rng):
    """After repair, bounded SNI of the target holds whenever the source's
    does, on exhaustive width-2 pairs of random safe programs."""
    import itertools

    from snicheck.security import check_safety, check_sni_pair, enumerate_high_states
    from snicheck.semantics import Bounds, State

    b = Bounds(12, 2)
    done = 0
    while done < 12:
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        try:
            w = allocate(p, 3)
        except AllocationInfeasible:
            continue
        fixed, _ = fix_ra(w, width=2)
        base_regs = {r: rng.randrange(4) for r in p.registers}
        src_base = (State.make(p.entry, base_regs),)
        tgt_base = (State.make(fixed.target.entry, base_regs),)
        if check_safety(p, src_base[0], width=2).status != "safe":
            continue
        src_states = enumerate_high_states(p, src_base, 2)
        tgt_states = enumerate_high_states(fixed.target, tgt_base, 2)
        for (sa, sc), (ta, tc) in zip(
            itertools.combinations(src_states, 2), itertools.combinations(tgt_states, 2)
        ):
            vs = check_sni_pair(p, sa, sc, b, 2)
            if vs.secure:
                vt = check_sni_pair(fixed.target, ta, tc, b, 2)
                assert vt.secure, "fixed target leaks where the source does not"
        done += 1


# --- the memory-safety premise ------------------------------------------------------

# Its store at 2 writes out of bounds without speculating whenever r1 is not 0.
UNSAFE_SOURCE = """mem lo 2 low
mem hi 1 high
entry 0
0: load r2 <- hi[r3] -> 1
1: if r0 ? 2 : 3
2: store hi[r1] <- r2 -> 3
3: sfence -> 4
4: sfence -> 5
5: if r0 ? 6 : 6
6: load r3 <- hi[#0] -> 7
7: ret
"""


def test_typable_allocation_of_an_unsafe_source_may_leak():
    """The documented premise, not a bug: typability means the allocation
    preserves SNI only for architecturally memory-safe sources.  This source
    is secure over every value of its high cell, but not memory-safe from
    any of them.  Its allocation is typable as it stands (`fix_ra` inserts
    nothing), and the target leaks: at depth 1, the attacker resolves the
    out-of-bounds store to the spill slot that holds r0, and the branch at 5
    then reads the secret it wrote there."""
    from snicheck.security import PairSource, check_safety, check_sni, enumerate_high_states
    from snicheck.semantics import Bounds, State

    p = parse_program(UNSAFE_SOURCE)
    w = allocate(p, 2)
    fixed, report = fix_ra(w, width=2)
    assert report.insertions == [] and check_poison_typable(fixed, poison_analysis(fixed, 2)) == []
    cells = {("hi", 0): 2, ("lo", 0): 1, ("lo", 1): 1, ("stk", 1): 3, ("stk", 2): 1}
    t0 = (State.make(fixed.target.entry, {}, cells),)
    s0 = (Product(fixed, 2).initial_source_state(t0[0]),)
    b = Bounds(14, 2)
    assert check_sni(p, s0, PairSource("exhaustive"), b, 2).secure
    assert {check_safety(p, s[0], width=2).status for s in enumerate_high_states(p, s0, 2)} == {"unsafe"}
    v = check_sni(fixed.target, t0, PairSource("exhaustive"), b, 2)
    assert not v.secure
    assert [str(d) for d in v.directives] == ["step", "if", "step", "step", "store stk 2", "step", "step", "step", "if"]
