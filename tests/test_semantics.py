from collections import Counter

import pytest

from snicheck.ir import parse_program
from snicheck.semantics import (
    Bounds,
    D_IF,
    D_RB,
    D_SPEC,
    D_STEP,
    Directive,
    Divergent,
    Lanes,
    Leakage,
    State,
    Tainted,
    canonical,
    d_load,
    d_store,
    directive_sort_key,
    enabled_directives,
    eval_op,
    explore_behaviors,
    initial,
    l_if,
    l_load,
    l_store,
    lanes,
    pack,
    parse_directives,
    parse_initial_state,
    run_directives,
    step_spec,
    tainted,
    transition_table,
    transitions,
    unpack,
)

from conftest import (
    load_program,
    load_state,
    random_program,
    random_state,
    random_walk,
    ref_explore_behaviors,
    ref_step_spec,
    ref_transitions,
    same_point,
)


# --- speculation-free stepping -------------------------------------------------


def test_unsafe_store_redirects_to_directive_cell():
    """At the store with an out-of-bounds address, the unsafe-store directive
    picks the written cell while the leak shows the architectural address."""
    p = load_program("code_simplerv1.sp")
    nu = load_state("code_simplerv1.init", p)
    s = nu[0].at("3")
    res = step_spec(p, (s,), d_store("stk", 0))
    assert res is not None
    (s2,), leak = res
    assert s2.cell("stk", 0) == s.reg("secret") == 236
    assert leak == l_store(8)


def directive_universe(p):
    """Every directive that can name a step of `p`: the four plain ones and a
    load and a store per declared cell."""
    univ = [D_STEP, D_IF, D_SPEC, D_RB]
    for v in p.memvars:
        for off in range(v.size):
            univ += [d_load(v.name, off), d_store(v.name, off)]
    return univ


def probe_enabled(p, nu, width=8):
    """Reference for `enabled_directives`: probe the universe with the
    reference step (probing `step_spec`, a view of `transitions`, would be
    circular)."""
    return sorted((d for d in directive_universe(p) if ref_step_spec(p, nu, d, width) is not None), key=directive_sort_key)


def test_final_state_has_no_steps():
    p = parse_program("entry e\ne: ret\n")
    s = State.make("e")
    assert transitions(p, (s,)) == []
    for d in directive_universe(p):
        assert step_spec(p, (s,), d) is None


def test_in_bounds_load_against_table_oracle(rng):
    """Loads with in-bounds addresses read exactly mem[var, addr] and leak it."""
    for _ in range(200):
        p = random_program(rng)
        nu = random_state(rng, p)
        for pc, i in p.instrs.items():
            from snicheck.ir import Load

            if not isinstance(i, Load) or isinstance(i.addr, int):
                continue
            s = nu[0].at(pc)
            a = s.reg(i.addr)
            mv = p.memvar(i.var)
            res = step_spec(p, (s,), D_STEP)
            if a < mv.size:
                (s2,), leak = res
                assert s2.reg(i.dst) == s.cell(i.var, a)
                assert leak == l_load(a)
            else:
                assert res is None


# --- speculating semantics -------------------------------------------------------


def test_spec_pushes_wrong_branch():
    p = load_program("code_simplerv1.sp")
    nu = load_state("code_simplerv1.init", p)
    # after the compare, the condition register is 0 (8 < 8 fails)
    ex = run_directives(p, nu, [D_STEP])
    nu1 = ex.last
    assert nu1[0].reg("a") == 0
    res = step_spec(p, nu1, D_SPEC)
    assert res is not None
    nu2, leak = res
    assert leak == l_if(0)
    assert [s.pc for s in nu2] == ["2", "3"]  # architectural branch goes to 4


def test_rollback_pops():
    p = load_program("code_simplerv1.sp")
    nu = load_state("code_simplerv1.init", p)
    nu1 = run_directives(p, nu, [D_STEP, D_SPEC]).last
    res = step_spec(p, nu1, D_RB)
    assert res is not None
    nu2, leak = res
    assert leak == Leakage("rb")
    assert len(nu2) == 1


def test_sfence_speculating_only_rollback():
    p = parse_program("entry a\na: if c ? b : b\nb: sfence -> c\nc: ret\n")
    nu = (State.make("a", {"c": 1}),)
    nu1, _ = step_spec(p, nu, D_SPEC)
    assert nu1[-1].pc == "b"
    assert enabled_directives(p, nu1) == [D_RB]


def test_slh_wipes_only_while_speculating():
    p = parse_program("entry a\na: if c ? b : b\nb: slh x -> c\nc: ret\n")
    nu = (State.make("a", {"c": 1, "x": 9}),)
    spec, _ = step_spec(p, nu, D_SPEC)
    wiped, _ = step_spec(p, spec, D_STEP)
    assert wiped[-1].reg("x") == 0
    arch, _ = step_spec(p, nu, D_IF)
    kept, _ = step_spec(p, arch, D_STEP)
    assert kept[-1].reg("x") == 9


# --- enabled directives ----------------------------------------------------------


def test_enabled_nonspeculating_if():
    p = parse_program("entry a\na: if c ? b : b\nb: ret\n")
    assert enabled_directives(p, (State.make("a"),)) == [D_IF, D_SPEC]


def test_enabled_unsafe_load_universe():
    """Speculating unsafe load: one directive per declared cell, plus rollback."""
    text = "mem buf 8 low\nmem stk 4 low\nentry a\na: if c ? b : b\nb: load x <- buf[i] -> c\nc: ret\n"
    p = parse_program(text)
    nu = (State.make("a", {"i": 200}),)
    nu1, _ = step_spec(p, nu, D_SPEC)
    en = enabled_directives(p, nu1)
    loads = [d for d in en if d.kind == "load"]
    assert len(loads) == 12
    assert D_RB in en and len(en) == 13


def _assert_enabled_matches_probe(rng, p, nu, steps, max_depth=3, width=8):
    """Walk up to `steps` random directives from `nu`, never deeper than
    `max_depth` frames, comparing `enabled_directives` with the probe (as
    lists, so the order counts too) at every state on the way."""
    for _ in range(steps + 1):
        en = enabled_directives(p, nu, width)
        assert en == probe_enabled(p, nu, width), (nu, en)
        en = [d for d in en if d != D_SPEC or len(nu) < max_depth]
        if not en:
            return
        nu = step_spec(p, nu, rng.choice(en), width)[0]


def test_enabled_matches_step_filter(rng):
    for _ in range(300):
        p = random_program(rng, n_instrs=rng.randint(2, 8), allow_shuffle=True)
        _assert_enabled_matches_probe(rng, p, random_state(rng, p), rng.randrange(12))


def test_enabled_matches_probe_on_allocated_and_fixed_targets(rng):
    """RA targets add `move`/`fill`/`spill` and the `stk` variable; fixed ones
    add `slh`/`sfence`, which only differ from a plain step while speculating."""
    from snicheck.poison import fix_ra
    from snicheck.regalloc import AllocationInfeasible, allocate

    targets = 0
    while targets < 60:
        src = random_program(rng, n_instrs=rng.randint(4, 10), n_regs=4, allow_shuffle=True)
        try:
            w = allocate(src, 2)
        except AllocationInfeasible:
            continue
        fixed, _ = fix_ra(w)
        for t in (w.target, fixed.target):
            targets += 1
            for _ in range(5):
                _assert_enabled_matches_probe(rng, t, random_state(rng, t), rng.randrange(16))


@pytest.mark.parametrize(
    "prog, init",
    [
        ("code_ra_source.sp", "code_ra.init"),
        ("code_ra_target.sp", "code_ra.init"),
        ("code_ra_w2_target.sp", "code_ra_w2.init"),
        ("code_dce_source.sp", "code_dce.init"),
        ("code_simplerv1.sp", "code_simplerv1.init"),
        ("code_specv1.sp", "code_specv1.init"),
    ],
)
def test_enabled_matches_probe_on_corpus(rng, prog, init):
    p = load_program(prog)
    nu = load_state(init, p)
    for _ in range(40):
        _assert_enabled_matches_probe(rng, p, nu, 24)


def _walk_against_reference(rng, p, nu, steps, width, seen, max_depth=3):
    """Walk up to `steps` random transitions from `nu`, never deeper than
    `max_depth` frames.  At every state, `transitions` must equal the
    reference and `step_spec` must equal the reference step on every
    directive of the universe.  `seen` collects (instruction kind, depth,
    whether the access is out of bounds)."""
    univ = directive_universe(p)
    for _ in range(steps + 1):
        ts = transitions(p, nu, width)
        assert ts == ref_transitions(p, nu, width), nu
        for d in univ:
            assert step_spec(p, nu, d, width) == ref_step_spec(p, nu, d, width), (nu, d)
        seen.add((type(p.instrs[nu[-1].pc]).__name__, len(nu), any(t[0].kind in ("load", "store") for t in ts)))
        ts = [t for t in ts if t[0] != D_SPEC or len(nu) < max_depth]
        if not ts:
            return
        nu = rng.choice(ts)[1]


def test_transitions_match_reference_semantics(rng):
    """The one step rule against the reference in `conftest.py`, which has a
    `match` per function (speculation-free step, speculating step, enabled
    directives): 2,000 random programs, half with `move`, at widths 1, 2 and
    8, then allocated and fixed targets, which add `fill`/`spill`, the `stk`
    variable and `slh`/`sfence`."""
    from snicheck.poison import fix_ra
    from snicheck.regalloc import AllocationInfeasible, allocate

    seen = set()
    for k in range(2000):
        p = random_program(rng, n_instrs=rng.randint(2, 8), allow_shuffle=k % 2 == 1)
        width = (1, 2, 8)[k % 3]
        _walk_against_reference(rng, p, random_state(rng, p, width), rng.randrange(12), width, seen)
    targets = 0
    while targets < 40:
        src = random_program(rng, n_instrs=rng.randint(4, 10), n_regs=4, allow_shuffle=True)
        try:
            w = allocate(src, 2)
        except AllocationInfeasible:
            continue
        for t in (w.target, fix_ra(w)[0].target):
            targets += 1
            for width in (2, 8):
                _walk_against_reference(rng, t, random_state(rng, t, width), rng.randrange(16), width, seen)
    kinds = {"Exit", "Nop", "Asgn", "Load", "Store", "If", "Sfence", "Slh", "Move", "Fill", "Spill"}
    assert {k for k, _, _ in seen} == kinds
    assert {k for k, depth, _ in seen if depth == 3} >= kinds - {"Fill", "Spill"}
    oob = {(k, depth > 1) for k, depth, out_of_bounds in seen if out_of_bounds}
    assert oob == {("Load", False), ("Load", True), ("Store", False), ("Store", True)}


# --- run_directives ---------------------------------------------------------------


def test_run_empty_sequence():
    p = parse_program("entry a\na: ret\n")
    ex = run_directives(p, initial(p), [])
    assert ex.status == "final" and ex.steps == []


def test_run_rollback_on_architectural_state_sticks():
    p = parse_program("entry a\na: ret\n")
    ex = run_directives(p, initial(p), [D_RB])
    assert ex.status == "stuck" and ex.stuck_index == 0


def test_specv1_attack_sequence_completes():
    """The classic attack on the looped encoding: one setup step, eight
    iterations, a misprediction, the out-of-bounds store into the spill slot,
    and the reloaded value reaches the final branch."""
    p = load_program("code_specv1.sp")
    nu = load_state("code_specv1.init", p)
    iteration = [D_STEP, D_IF, D_STEP, D_STEP, D_STEP]  # cmp, branch, load, store, incr
    dirs = [D_STEP] + iteration * 8
    dirs += [D_STEP, D_SPEC, D_STEP, d_store("stk", 0), D_STEP, D_STEP, D_IF, D_STEP, D_STEP, D_IF]
    ex = run_directives(p, nu, dirs)
    assert ex.status == "completed"
    secret = nu[0].cell("sec", 8)
    assert ex.steps[-1][1] == l_if(1 if secret < 64 else 0)
    assert d_store("stk", 0) in ex.directives and D_SPEC in ex.directives


# --- behaviour exploration ---------------------------------------------------------


def test_explore_trivial_ret():
    p = parse_program("entry a\na: ret\n")
    bs = explore_behaviors(p, initial(p), Bounds(8, 2))
    assert bs.terminated == {((), ())}
    assert bs.truncated == set()


def test_explore_straight_line_single_behavior():
    p = parse_program("entry a\na: x = x add x -> b\nb: nop -> c\nc: ret\n")
    bs = explore_behaviors(p, initial(p), Bounds(8, 2))
    assert len(bs.terminated) == 1
    (leaks, dirs), = bs.terminated
    assert dirs == (D_STEP, D_STEP)


def test_explore_dce_target_contains_spec_prefix():
    from snicheck.liveness import dce_transform, liveness

    p = load_program("code_dce_source.sp")
    t = dce_transform(p, liveness(p)).target
    nu = load_state("code_dce.init", t)
    bs = explore_behaviors(t, nu, Bounds(8, 3))
    dir_traces = {dirs for _, dirs in bs.terminated}
    assert any(dirs[:3] == (D_SPEC, D_STEP, D_STEP) for dirs in dir_traces)
    assert any(dirs[0] == D_IF for dirs in dir_traces)


def test_explore_records_truncations():
    p = parse_program("entry a\na: nop -> a\n")  # diverging loop
    bs = explore_behaviors(p, initial(p), Bounds(4, 2))
    assert bs.terminated == set()
    assert bs.truncated


def test_explore_stops_past_the_behaviour_cap(monkeypatch):
    """More than `MAX_BEHAVIORS` behaviours is an error; exactly that many is
    a result."""
    from snicheck import semantics

    p = load_program("code_dce_source.sp")
    nu = load_state("code_dce.init", p)
    bs = explore_behaviors(p, nu, Bounds(8, 2))
    n = len(bs.terminated) + len(bs.truncated)
    monkeypatch.setattr(semantics, "MAX_BEHAVIORS", n)
    assert explore_behaviors(p, nu, Bounds(8, 2)) == bs
    monkeypatch.setattr(semantics, "MAX_BEHAVIORS", n - 1)
    with pytest.raises(RuntimeError, match=f"^{n} behaviours within steps=8,depth=2, more than {n - 1}; "):
        explore_behaviors(p, nu, Bounds(8, 2))


def test_explore_matches_reference_enumeration(rng, monkeypatch):
    """`explore_behaviors` counts over a transition table and then walks its
    rows; its behaviours equal a plain enumeration with the reference step,
    and its count is exactly how many it returns: the cap accepts the count
    itself and refuses one below it, naming the count, or, when the count
    stopped early, saying "more than" the cap."""
    from snicheck import semantics

    seen = Counter()
    for i in range(240):
        p = random_program(rng, n_instrs=rng.randint(3, 8), n_regs=rng.randint(2, 3), allow_shuffle=i % 2 == 1)
        width = rng.choice((2, 8))
        nu = random_state(rng, p, width)
        b = Bounds(rng.randint(1, 9), rng.randint(1, 3))
        want = ref_explore_behaviors(p, nu, b, width)
        assert explore_behaviors(p, nu, b, width) == want
        n = len(want.terminated) + len(want.truncated)
        seen["behaviours"] += n
        seen["by depth"] += any(len(dirs) < b.max_steps for _, dirs in want.truncated)
        seen["by steps"] += any(len(dirs) == b.max_steps for _, dirs in want.truncated)
        monkeypatch.setattr(semantics, "MAX_BEHAVIORS", n)
        assert explore_behaviors(p, nu, b, width) == want
        monkeypatch.setattr(semantics, "MAX_BEHAVIORS", n - 1)
        bounds = f"steps={b.max_steps},depth={b.max_spec_depth}"
        with pytest.raises(RuntimeError) as err:
            explore_behaviors(p, nu, b, width)
        named = f"{n} behaviours within {bounds}, more than {n - 1}; lower --bounds"
        early = f"more than {n - 1} behaviours within {bounds}; lower --bounds"
        assert str(err.value) in (named, early)
        seen["named" if str(err.value) == named else "early"] += 1
        monkeypatch.undo()
    assert seen["behaviours"] >= 2_000 and seen["by depth"] >= 20 and seen["by steps"] >= 100, seen
    assert seen["named"] >= 10 and seen["early"] >= 3, seen


# each round loads one of eight distinct cells out of bounds into two running
# sums, so no two executions meet again: 8 ** 4 behaviours within 20 steps
_UNMERGED = """mem buf 8 low
entry 1
1: load a <- buf[i] -> 2
2: s = s mul k3 -> 3
3: s = s add a -> 4
4: t = t mul k5 -> 5
5: t = t add a -> 1
"""
_UNMERGED_INIT = "reg i 8\nreg k3 3\nreg k5 5\n" + "".join(f"cell buf {o} {o + 1}\n" for o in range(8))


def test_explore_stops_early_when_states_do_not_merge(monkeypatch):
    """When states do not merge, counting the behaviours costs as much as
    enumerating them.  Past the cap, `explore` then stops after stepping
    about as many states as the cap's behaviours take, saying "more than"
    the cap instead of the count it did not finish."""
    from snicheck import semantics

    p = parse_program(_UNMERGED)
    nu = parse_initial_state(_UNMERGED_INIT, p, 8)
    b = Bounds(20, 1)
    stepped = Counter()
    real = semantics.transitions

    def counted(*args):
        stepped["states"] += 1
        return real(*args)

    monkeypatch.setattr(semantics, "transitions", counted)
    bs = explore_behaviors(p, nu, b, 8)
    assert (len(bs.terminated), len(bs.truncated)) == (0, 8 ** 4)
    everything = stepped["states"]
    stepped.clear()
    monkeypatch.setattr(semantics, "MAX_BEHAVIORS", 500)
    with pytest.raises(RuntimeError, match=r"^more than 500 behaviours within steps=20,depth=1; lower --bounds$"):
        explore_behaviors(p, nu, b, 8)
    assert stepped["states"] <= everything / 4, (stepped, everything)


# --- semantic properties ------------------------------------------------------------


def test_directive_determinism(rng):
    """At most one successor per (state, directive): stepping twice agrees."""
    for _ in range(1000):
        p = random_program(rng, n_instrs=rng.randint(2, 6))
        nu = random_state(rng, p)
        for _s in range(rng.randrange(3)):
            en = enabled_directives(p, nu)
            if not en:
                break
            nu = step_spec(p, nu, rng.choice(en))[0]
        for d in enabled_directives(p, nu):
            assert step_spec(p, nu, d) == step_spec(p, nu, d)


def test_program_counter_leakage(rng):
    """Same-point states running equal directives with equal leakage stay
    same-point."""
    checked = 0
    for _ in range(1000):
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        nu1 = random_state(rng, p)
        nu2 = random_state(rng, p)
        for _s in range(6):
            assert same_point(nu1, nu2)
            en1 = set(enabled_directives(p, nu1))
            en2 = set(enabled_directives(p, nu2))
            common = sorted(en1 & en2, key=str)
            if not common:
                break
            d = rng.choice(common)
            r1, r2 = step_spec(p, nu1, d), step_spec(p, nu2, d)
            if r1[1] != r2[1]:
                break  # leakage differs: premise gone
            nu1, nu2 = r1[0], r2[0]
            checked += 1
    assert checked > 1000


def test_rollback_erasure(rng):
    """spec . delta . rb with delta above the pushed frame restores the state."""
    checked = 0
    for _ in range(3000):
        if checked >= 150:
            break
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        nu = random_state(rng, p)
        walk = random_walk(rng, p, nu, rng.randrange(4))
        nu = walk[-1][2] if walk else nu
        if step_spec(p, nu, D_SPEC) is None:
            continue
        base_depth = len(nu)
        cur = step_spec(p, nu, D_SPEC)[0]
        for _s in range(5):
            en = [d for d in enabled_directives(p, cur) if d != D_RB]
            if not en or len(cur) <= base_depth:
                break
            nxt = step_spec(p, cur, rng.choice(en))[0]
            if len(nxt) <= base_depth:
                break
            cur = nxt
        if len(cur) > base_depth:
            popped = cur
            while len(popped) > base_depth:
                popped = step_spec(p, popped, D_RB)[0]
            assert popped == nu
            checked += 1
    assert checked >= 150


def test_insensitive_steps_touch_only_top_frame(rng):
    for _ in range(300):
        p = random_program(rng)
        nu = random_state(rng, p)
        walk = random_walk(rng, p, nu, 6)
        for idx in range(1, len(walk)):
            d, _, after = walk[idx]
            before = walk[idx - 1][2]
            if d.kind in ("rb", "spec"):
                continue
            assert after[:-1] == before[:-1]


def test_behavior_set_directive_determinism(rng):
    """Within a behaviour set, the directive trace determines the leak trace."""
    for _ in range(40):
        p = random_program(rng, n_instrs=4)
        bs = explore_behaviors(p, random_state(rng, p), Bounds(6, 2))
        for group in (bs.terminated, bs.truncated):
            seen = {}
            for leaks, dirs in group:
                assert seen.setdefault(dirs, leaks) == leaks


# --- text formats -------------------------------------------------------------------


def test_directive_script_round_trip():
    p = load_program("code_ra_target.sp")
    text = "step\nif\nspec\nrb\nload buf 3\nstore stk 0\n"
    dirs = parse_directives(text, p)
    assert [str(d) for d in dirs] == text.strip().splitlines()
    with pytest.raises(ValueError):
        parse_directives("load buf 99\n", p)


def test_initial_state_file():
    p = load_program("code_ra_target.sp")
    nu = parse_initial_state("reg b 8\ncell sec 0 300\n", p, 8)
    assert nu[0].reg("b") == 8
    assert nu[0].cell("sec", 0) == 300 % 256  # width-8 wraparound
    with pytest.raises(ValueError):
        parse_initial_state("cell nope 0 1\n", p, 8)


@pytest.mark.parametrize("text, message", [
    ("reg b zz\n", "line 1: bad value 'zz'"),
    ("reg b 1\n\n  # note\ncell buf x 1\n", "line 4: bad offset 'x'"),
    ("cell buf 1 0x1g\n", "line 1: bad value '0x1g'"),
    ("cell nope 0 1\n", "line 1: bad cell nope[0]"),
    ("reg b 1 2\n", "line 1: cannot parse 'reg b 1 2'"),
    # a second line for a register or cell is an error, not an overwrite
    ("reg b 1\nreg b 2\n", "line 2: repeated register b"),
    ("cell buf 1 3\n# again\ncell buf 1 4\n", "line 3: repeated cell buf[1]"),
    ("cell buf 1 3\ncell buf 01 4\n", "line 2: repeated cell buf[1]"),
])
def test_initial_state_errors_name_the_line(text, message):
    p = load_program("code_ra_target.sp")
    with pytest.raises(ValueError) as e:
        parse_initial_state(text, p, 8)
    assert str(e.value) == message


def test_initial_state_accepts_a_register_the_program_does_not_use():
    """States generated for a source program also run its DCE target, which
    may have lost some of the source's registers."""
    p = load_program("code_ra_target.sp")
    nu = parse_initial_state("reg nosuch 5\nreg b 1\n", p, 8)
    assert nu[0].reg("nosuch") == 5 and nu[0].reg("b") == 1


@pytest.mark.parametrize("text, message", [
    ("load buf x\n", "line 1: bad offset 'x'"),
    ("step\n# comment\nfly\n", "line 3: cannot parse directive 'fly'"),
    ("step\nload buf 99\n", "line 2: bad directive target buf[99]"),
])
def test_directive_script_errors_name_the_line(text, message):
    p = load_program("code_ra_target.sp")
    with pytest.raises(ValueError) as e:
        parse_directives(text, p)
    assert str(e.value) == message


# hypothesis checks on the value domain


from hypothesis import given, strategies as st

from snicheck.semantics import eval_op


@given(st.integers(0, 255), st.integers(0, 255), st.sampled_from(["add", "sub", "mul"]))
def test_arith_wraps_to_width(a, b, op):
    v = eval_op(op, a, b, 8)
    assert 0 <= v < 256
    ref = {"add": a + b, "sub": a - b, "mul": a * b}[op] % 256
    assert v == ref


@given(st.integers(0, 255), st.integers(0, 255), st.sampled_from(["lt", "eq"]))
def test_comparisons_produce_bits(a, b, op):
    v = eval_op(op, a, b, 8)
    assert v in (0, 1)
    assert v == int(a < b if op == "lt" else a == b)


# --- state writes -------------------------------------------------------------------


def rebuild(items, k, v):
    """The dict-and-sort rebuild that `State.with_reg`/`with_cell` replace."""
    d = dict(items)
    if v == 0:
        d.pop(k, None)
    else:
        d[k] = v
    return tuple(sorted(d.items()))


def test_writes_match_dict_rebuild(rng):
    """Random write sequences, a third of them zero writes: the spliced
    registers and cells equal the sorted, zero-free rebuild, and the pairs a
    write does not touch are shared with the state before it."""
    regs = ["a", "b", "r0", "r1", "r10", "r2", "x"]
    cells = [("hi", 0), ("lo", 0), ("lo", 1), ("lo", 2), ("stk", 0)]
    for _ in range(300):
        s = State.make("0")
        want_regs, want_mem = (), ()
        for _ in range(rng.randint(1, 20)):
            v = 0 if rng.random() < 0.35 else rng.randrange(1, 4)
            before = s
            if rng.random() < 0.5:
                r = rng.choice(regs)
                s, want_regs = s.with_reg(r, v), rebuild(want_regs, r, v)
                kept = [pair for pair in before.regs if pair[0] != r]
                assert all(any(q is pair for q in s.regs) for pair in kept)
            else:
                var, off = rng.choice(cells)
                s, want_mem = s.with_cell(var, off, v), rebuild(want_mem, (var, off), v)
                kept = [pair for pair in before.mem if pair[0] != (var, off)]
                assert all(any(q is pair for q in s.mem) for pair in kept)
            assert (s.regs, s.mem) == (want_regs, want_mem)
            assert s == State.make("0", dict(want_regs), dict(want_mem))


def test_leakages_are_interned():
    assert l_if(1) is l_if(1) and l_load(2) is l_load(2) and l_store(0) is l_store(0)
    assert l_load(2) == Leakage("load", 2) and l_load(2) != l_store(2)


# --- packed values ------------------------------------------------------------


def lane(nu, i):
    """Lane i of a packed speculative state: every packed value replaced by
    its i-th int, zeros dropped."""
    def proj(items):
        vals = [(k, v[i] if type(v) is Lanes else v) for k, v in items]
        return tuple((k, v) for k, v in vals if v != 0)

    return tuple(State(f.pc, proj(f.regs), proj(f.mem)) for f in nu)


def test_lanes_is_plain_when_every_lane_agrees():
    assert lanes((3, 3)) == 3 and type(lanes((3, 3))) is int
    v = lanes((1, 2))
    assert type(v) is Lanes and tuple(v) == (1, 2) and hash(v) == hash((1, 2))


def test_eval_op_works_lane_by_lane():
    a = Lanes((1, 2, 3))
    assert tuple(eval_op("add", a, 1, 2)) == (2, 3, 0)
    assert tuple(eval_op("sub", 0, a, 2)) == (3, 2, 1)
    assert tuple(eval_op("mul", a, a, 8)) == (1, 4, 9)
    assert tuple(eval_op("lt", a, 2, 8)) == (1, 0, 0)
    assert tuple(eval_op("eq", a, Lanes((1, 0, 3)), 8)) == (1, 0, 1)
    assert tuple(eval_op("or", a, 4, 8)) == (5, 6, 7)
    # results that agree in every lane come back plain
    for op, b, want in (("and", 0, 0), ("lt", 7, 1), ("eq", 9, 0), ("sub", a, 0), ("or", 3, 3)):
        got = eval_op(op, a, b, 8)
        assert type(got) is int and got == want, op
    with pytest.raises(ValueError):
        eval_op("div", a, 1, 8)


def test_questions_with_different_answers_raise_divergent():
    a = Lanes((0, 1))
    for question in (lambda: bool(a), lambda: a == 1, lambda: a != 0, lambda: a < 1, lambda: a + 1,
                     lambda: 1 + a, lambda: a & 1, lambda: -a, lambda: [0, 1][a], lambda: int(a),
                     lambda: Lanes((1, 2, 3)) == Lanes((1, 2, 4)), lambda: Lanes((1, 2)) == Lanes((1, 2, 3))):
        with pytest.raises(Divergent):
            question()
    # every lane answers alike, so the question has one answer
    assert (a == 2) is False and (a < 2) is True and (a >= 0) is True and bool(Lanes((1, 2))) is True
    assert a == Lanes((0, 1)) and a != Lanes((1, 0))


def test_zero_writes_never_ask_a_packed_value():
    """A packed value with a zero lane is kept, not dropped or questioned."""
    a = Lanes((0, 5))
    s = State.make("0", {"x": a, "y": 0}, {("h", 0): a})
    assert s.regs == (("x", a),) and s.mem == ((("h", 0), a),)
    assert s.with_reg("y", a).reg("y") is a and s.with_reg("x", 0).regs == ()


def test_pack_and_canonical_order():
    members = [State.make("0", {"r": 7}, {("h", 0): v, ("h", 1): 3 - v}) for v in range(4)]
    packed = pack(members)
    assert packed.regs == (("r", 7),)
    assert [lane((packed,), i)[0] for i in range(4)] == members
    assert pack([members[0], members[0].at("1")]) is None
    # the same lanes in another order, or repeated, come out equal
    nus = ((packed,), (packed.at("1"),))
    for order in ((3, 1, 0, 2), (2, 2, 1, 0, 3, 0)):
        shuffled = pack([members[i] for i in order])
        got, n = canonical(((shuffled,), (shuffled.at("1"),)))
        assert n == 4 and got == canonical(nus)[0] == nus
    # when the first packed value falls, the lanes are re-sorted
    flipped = pack(members[::-1])
    assert tuple(flipped.mem[0][1]) == (3, 2, 1, 0)
    assert canonical(((flipped,),)) == (((packed,),), 4)


def test_unpack_inverts_pack(rng):
    """`unpack` of `pack(states)` gives back `states` for random states of
    one pc, with zeros and repeats, as long as they are not all one state;
    and frame by frame for pairs of two-frame speculative states."""
    kinds = Counter()
    keys = ["r0", "r1", "r2"]
    cells = [("h", 0), ("h", 1), ("lo", 0)]
    while kinds["packs"] < 300:
        n = rng.randint(2, 6)
        states = [State.make("0", {r: rng.randrange(4) for r in rng.sample(keys, rng.randint(0, 3))},
                             {c: rng.randrange(4) for c in rng.sample(cells, rng.randint(0, 3))})
                  for _ in range(n)]
        if rng.random() < 0.3:
            states[rng.randrange(n)] = states[0]
        if states.count(states[0]) == n:
            continue
        packed = pack(states)
        assert unpack(((packed,),)) == [((st,),) for st in states]
        lower = [st.at("1") for st in states[::-1]]
        nus = ((pack(lower), packed), (packed, pack(lower)))
        assert unpack(nus) == [((lo, st), (st, lo)) for lo, st in zip(lower, states)]
        kinds["packs"] += 1
        kinds["repeats"] += len(set(states)) < n
        kinds["a zero lane"] += any(type(v) is Lanes and 0 in v for _, v in packed.regs + packed.mem)
    assert kinds["repeats"] >= 50 and kinds["a zero lane"] >= 100, kinds
    # a state without a packed value is its own one lane
    plain = ((State.make("0", {"r": 3}),),)
    assert unpack(plain) == [plain]


@pytest.mark.parametrize("width", [2, 3])
def test_packed_transitions_step_every_lane(rng, width):
    """One high assignment per lane: a packed state's transitions raise
    Divergent exactly when its lanes' directives or leaks differ, and
    otherwise each successor is every lane's successor."""
    from snicheck.security import enumerate_high_states

    seen = Counter()
    for _ in range(300):
        p = random_program(rng, n_instrs=rng.randint(4, 9), hi_size=rng.randint(1, 2))
        members = [nu for nu in enumerate_high_states(p, random_state(rng, p, width), width)]
        nu = (pack([m[0] for m in members]),)
        for _step in range(10):
            want = [transitions(p, m, width) for m in members]
            try:
                got = transitions(p, nu, width)
            except Divergent:
                assert len({tuple((d, l) for d, _, l in ts) for ts in want}) > 1
                seen["divergent"] += 1
                break
            assert [(d, l) for d, _, l in got] == [(d, l) for d, _, l in want[0]]
            for k, (_, nxt, _) in enumerate(got):
                assert [lane(nxt, i) for i in range(len(members))] == [ts[k][1] for ts in want]
            seen["steps"] += 1
            seen["packed steps"] += any(type(v) is Lanes for f in nu for _, v in f.regs)
            if not got:
                break
            k = rng.randrange(len(got))
            nu, members = got[k][1], [ts[k][1] for ts in want]
    assert seen["steps"] >= 1500 and seen["divergent"] >= 10 and seen["packed steps"] >= 100, seen


# --- tainted values -----------------------------------------------------------


def test_every_question_about_a_tainted_value_raises_divergent():
    """A tainted value may differ between the runs it stands for, so it
    answers no question: not even one about itself, or one that every value
    of it would answer alike."""
    t, u = tainted(0), tainted(1)
    for question in (lambda: bool(t), lambda: t == 0, lambda: t != 1, lambda: t < 1, lambda: t <= 0,
                     lambda: t > 0, lambda: t >= 0, lambda: 0 == t, lambda: t == t, lambda: t == u,
                     lambda: t + 1, lambda: 1 - t, lambda: t & 0, lambda: u | 1, lambda: -t,
                     lambda: [0, 1][t], lambda: int(t), lambda: l_if(t), lambda: l_load(u), lambda: l_store(u)):
        with pytest.raises(Divergent):
            question()
    p = parse_program("mem a 2 low\nentry 0\n0: if c ? 1 : 1\n1: load x <- a[c] -> 2\n"
                      "2: store a[c] <- x -> 3\n3: ret\n")
    for pc in "012":
        with pytest.raises(Divergent):
            transitions(p, (State.make(pc, {"c": t}),))
    # a tainted value that no question reaches is only carried along
    assert [d for d, _, _ in transitions(p, (State.make("1", {"x": t}),))] == [D_STEP]


@pytest.mark.parametrize("op", ["add", "sub", "mul", "lt", "eq", "and", "or"])
def test_eval_op_keeps_a_tainted_result(op):
    """Every operator with a tainted operand gives a tainted result, holding
    the plain result of the values: also `x and 0`, which every run of x
    takes to 0, and `eq` of two tainted operands, which may differ between
    runs even where their values agree."""
    for a, b in ((tainted(3), 2), (2, tainted(3)), (tainted(3), tainted(3)), (tainted(3), 0), (0, tainted(3))):
        got = eval_op(op, a, b, 2)
        plain = [v.value if type(v) is Tainted else v for v in (a, b)]
        assert type(got) is Tainted and got.value == eval_op(op, *plain, 2), (op, a, b)
    assert eval_op("and", tainted(3), 0, 2) is tainted(0)
    with pytest.raises(ValueError):
        eval_op("div", tainted(1), 1, 8)


def test_a_tainted_zero_is_kept():
    """A tainted 0 is not a 0 that may be dropped: some run may hold another
    value.  Writing a plain 0 over it drops the entry."""
    t = tainted(0)
    s = State.make("0", {"x": t, "y": 0}, {("h", 0): t, ("h", 1): 0})
    assert s.regs == (("x", t),) and s.mem == ((("h", 0), t),)
    assert s.with_reg("y", t).reg("y") is t and s.with_cell("h", 1, t).cell("h", 1) is t
    assert s.with_reg("x", 0).regs == () and s.with_cell("h", 0, 0).mem == ()
    assert unpack(((s,),)) == [((State.make("0"),),)]


def test_equal_tainted_values_intern_to_one_id():
    """Two computations of one tainted value give one object, so their
    states intern to one id of a `transition_table`, and a plain value or a
    tainted other value to another."""
    p = parse_program("mem h 1 high\nentry 0\n0: x = y add c -> 1\n1: ret\n")
    table = transition_table(p, 8)
    one = eval_op("add", tainted(1), 2, 8)
    other = eval_op("sub", eval_op("mul", tainted(5), 1, 8), 2, 8)
    assert one is other is tainted(3)
    regs, mem = {"y": tainted(1), "c": 2}, {("h", 0): tainted(0)}
    ids = [table.id((State.make("1", {**regs, "x": v}, mem),)) for v in (one, other, 3, tainted(4))]
    assert ids[0] == ids[1] and len(set(ids)) == 3
    # a step that computes it again reaches that id
    assert table.row(table.id((State.make("0", regs, mem),)))[1][0][0] == ids[0]
