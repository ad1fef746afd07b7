import itertools
from collections import Counter

import pytest

from snicheck.ir import Fill, Spill, parse_program
from snicheck.security import (
    PairSource,
    _walk,
    _with_high,
    check_safety,
    check_sni,
    check_sni_pair,
    enumerate_high_states,
    high_cells,
    low_equivalent,
)
from snicheck.semantics import (
    D_STEP,
    Bounds,
    State,
    Tainted,
    explore_behaviors,
    initial,
    pack,
    run_directives,
    tainted,
    transition_table,
    unpack,
)

from conftest import (
    load_program,
    load_state,
    random_program,
    random_state,
    ref_check_sni_exhaustive,
    ref_check_sni_pair,
    ref_low_equivalent,
    ref_sni_walk,
    ref_taint_certify,
)


def test_low_equivalence_basics(ra_target):
    s = State.make("z", {"b": 8}, {("sec", 0): 1, ("buf", 0): 2})
    assert low_equivalent(ra_target, s, s)
    assert low_equivalent(ra_target, s, s.with_cell("sec", 0, 99))
    assert not low_equivalent(ra_target, s, s.with_reg("b", 9))
    assert not low_equivalent(ra_target, s, s.with_cell("buf", 0, 3))


def test_low_equivalence_matches_the_pairwise_reference(rng):
    """On pairs of plain states of random programs with 1-3 high cells:
    equal states, and states that differ in one register, one low cell or
    one high cell.  The one intended difference: a cell of an undeclared
    variable must agree, where the reference does not look at it."""
    seen = Counter()
    for _ in range(150):
        p = random_program(rng, n_instrs=rng.randint(3, 8), hi_size=rng.randint(1, 3))
        s = random_state(rng, p)[0]
        flip = lambda v: v ^ rng.randrange(1, 256)
        hi = ("hi", rng.randrange(p.memvar("hi").size))
        lo = rng.choice([c for c in p.cells() if c[0] != "hi"])
        changes = {"equal": s, "high cell": s.with_cell(*hi, flip(s.cell(*hi))),
                   "low cell": s.with_cell(*lo, flip(s.cell(*lo)))}
        if p.registers:
            r = rng.choice(p.registers)
            changes["register"] = s.with_reg(r, flip(s.reg(r)))
        for what, s2 in changes.items():
            want = ref_low_equivalent(p, s, s2)
            assert low_equivalent(p, s, s2) == low_equivalent(p, s2, s) == want, what
            assert want == (what in ("equal", "high cell")), what
            seen[what] += 1
        assert not low_equivalent(p, s, s.with_cell("undeclared", 0, 1))
        assert ref_low_equivalent(p, s, s.with_cell("undeclared", 0, 1))
    assert sum(seen.values()) >= 500 and min(seen.values()) >= 100, seen


def test_safety_of_running_example(ra_source):
    nu = load_state("code_ra.init", ra_source)
    assert check_safety(ra_source, nu[0]).status == "safe"


def test_safety_unsafe_store():
    p = parse_program("mem buf 2 low\nentry a\na: store buf[i] <- x -> b\nb: ret\n")
    s = State.make("a", {"i": 5})
    r = check_safety(p, s)
    assert r.status == "unsafe" and r.step_index == 0


def test_safety_bound_exhausted_on_loop():
    p = parse_program("entry a\na: nop -> a\n")
    assert check_safety(p, State.make("a"), max_steps=16).status == "bound-exhausted"


def test_sni_pair_identical_states_secure(ra_target):
    nu = load_state("code_ra.init", ra_target)
    v = check_sni_pair(ra_target, nu, nu, Bounds(16, 2))
    assert v.secure


def test_sni_pair_rejects_unrelated(ra_target):
    nu = load_state("code_ra.init", ra_target)
    other = (nu[0].with_reg("b", 1),)
    with pytest.raises(ValueError):
        check_sni_pair(ra_target, nu, other, Bounds(8, 2))


def test_running_example_target_violation_source_secure(ra_source, ra_target):
    b = Bounds(32, 3)
    s1, s2 = load_state("code_ra.init", ra_source), load_state("code_ra_alt.init", ra_source)
    assert check_sni_pair(ra_source, s1, s2, b).secure
    t1, t2 = load_state("code_ra.init", ra_target), load_state("code_ra_alt.init", ra_target)
    v = check_sni_pair(ra_target, t1, t2, b)
    assert not v.secure
    dirs = [d.kind for d in v.directives]
    assert "spec" in dirs
    assert any(d.kind == "store" and d.var == "stk" and d.off == 0 for d in v.directives)
    assert v.divergence == "leak"
    assert {v.leak1.value, v.leak2.value} == {42, 7}


def test_sni_pair_counts_its_one_pair_either_way(ra_source, ra_target):
    """A pair check reports `pairs_checked` 1 on a violation as on a secure
    verdict: it checked one pair."""
    b = Bounds(32, 3)
    for p in (ra_source, ra_target):
        v = check_sni_pair(p, load_state("code_ra.init", p), load_state("code_ra_alt.init", p), b)
        assert v.pairs_checked == v.report()["pairs_checked"] == 1
    assert not v.secure


def test_violation_witness_replays(ra_target):
    b = Bounds(32, 3)
    t1, t2 = load_state("code_ra.init", ra_target), load_state("code_ra_alt.init", ra_target)
    v = check_sni_pair(ra_target, t1, t2, b)
    ex1 = run_directives(ra_target, v.state1, list(v.directives))
    ex2 = run_directives(ra_target, v.state2, list(v.directives))
    assert ex1.status != "stuck" and ex2.status != "stuck"
    assert ex1.leaks[:-1] == ex2.leaks[:-1]
    assert {ex1.leaks[-1], ex2.leaks[-1]} == {v.leak1, v.leak2}


def test_sni_pair_symmetry(ra_target, dce_source):
    b = Bounds(24, 2)
    for p, init in ((ra_target, "code_ra.init"), (dce_source, "code_dce.init")):
        s1 = load_state(init, p)
        hi = [v.name for v in p.memvars if v.level == "high"][0]
        s2 = (s1[0].with_cell(hi, 0, 99),)
        v12 = check_sni_pair(p, s1, s2, b)
        v21 = check_sni_pair(p, s2, s1, b)
        assert v12.kind == v21.kind
        if not v12.secure:
            assert v12.directives == v21.directives
            assert {str(v12.leak1), str(v12.leak2)} == {str(v21.leak1), str(v21.leak2)}


TINY_PROGRAMS = [
    # leaks the high cell through a branch after a load
    "mem h 1 high\nentry a\na: load x <- h[#0] -> b\nb: if x ? c : c\nc: ret\n",
    # reads the high cell but never leaks it
    "mem h 1 high\nentry a\na: load x <- h[#0] -> b\nb: x = x add x -> c\nc: ret\n",
    # unsafe store target varies with nothing secret
    "mem h 1 high\nmem lo 2 low\nentry a\na: store lo[i] <- x -> b\nb: ret\n",
    # secret-dependent unsafe load value flows to a later branch under speculation
    "mem h 1 high\nmem lo 2 low\nentry a\na: if c ? d : b\nb: load x <- lo[i] -> c\nc: if x ? d : d\nd: ret\n",
]


def test_sni_agrees_with_behavior_set_oracle(rng):
    """Exhaustive width-2 check: the synchronized search finds a violation iff
    the bounded behaviour sets of the two states differ."""
    b = Bounds(10, 2)
    for text in TINY_PROGRAMS:
        p = parse_program(text)
        base = (State.make(p.entry, {"i": 3, "c": 1}),)
        states = enumerate_high_states(p, base, 2)
        for s1, s2 in itertools.combinations(states, 2):
            v = check_sni_pair(p, s1, s2, b)
            b1 = explore_behaviors(p, s1, b)
            b2 = explore_behaviors(p, s2, b)
            same = (b1.terminated == b2.terminated) and (b1.truncated == b2.truncated)
            assert v.secure == same, f"{text!r}: verdict {v.kind} vs behaviour sets equal={same}"


MEMO_PROGRAM = """mem lo 2 low
mem sec 1 high
entry 0
0: load d <- lo[a] -> 1
1: e = z lt d -> 2
2: if e ? L1 : S1
""" + "".join(f"L{j}: nop -> L{j + 1}\n" for j in range(1, 11)) + """L11: d = z add z -> L12
L12: e = z add z -> C
S1: d = z add z -> S2
S2: e = z add z -> C
C: sfence -> C1
C1: load s <- sec[#0] -> C2
C2: if s ? X : X
X: ret
"""


@pytest.mark.parametrize("steps", [16, 17, 18])
def test_memo_reexpands_a_state_reached_with_more_budget(steps):
    """The tail `C` is first reached late, through the long branch `L1`..`L12`,
    and later early, through the short one.  The short path reaches the secret
    branch within the step bound, so the revisit must be explored again."""
    p = parse_program(MEMO_PROGRAM)
    s = State.make("0", {"a": 5}, {("lo", 1): 1})
    v = check_sni_pair(p, (s.with_cell("sec", 0, 42),), (s.with_cell("sec", 0, 7),), Bounds(steps, 3))
    assert v.kind == "violation"
    assert {str(v.leak1), str(v.leak2)} == {"if 42", "if 7"}
    assert len(v.directives) <= steps
    assert [str(l) for l in run_directives(p, v.state1, list(v.directives)).leaks][-1] == str(v.leak1)


def test_check_sni_exhaustive_modes():
    b = Bounds(10, 2)
    leaky = parse_program(TINY_PROGRAMS[0])
    v = check_sni(leaky, initial(leaky), PairSource("exhaustive"), b, width=2)
    assert not v.secure

    quiet = parse_program(TINY_PROGRAMS[1])
    v = check_sni(quiet, initial(quiet), PairSource("exhaustive"), b, width=2)
    assert v.secure and v.pairs_checked == 6  # C(4, 2) value pairs of one cell


def _first_pair_leak(source: PairSource, width: int):
    """`check_sni` on a program that leaks at the first pair, and the
    tracemalloc peak of the check."""
    import tracemalloc

    p = parse_program("mem hi 1 high\nentry 0\n0: load a <- hi[#0] -> 1\n1: if a ? 2 : 2\n2: ret\n")
    tracemalloc.start()
    try:
        v = check_sni(p, initial(p), source, Bounds(8, 2), width=width)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return v, peak


def test_check_sni_exhaustive_streams_its_pairs():
    """Exhaustive pairs are drawn as the check goes: a program that leaks
    at the first of the 523,776 pairs at width 10 gets its verdict without
    holding them all (32.7 MiB as a list)."""
    v, peak = _first_pair_leak(PairSource("exhaustive"), 10)
    assert not v.secure and v.pairs_checked == 1
    assert peak < 4 << 20


def test_check_sni_sampled_streams_its_pairs():
    """Sampled pairs are drawn as the check goes too: the program above
    leaks at the first of 50,000 pairs at width 12, and drawing them all
    first peaked at 32.1 MiB."""
    v, peak = _first_pair_leak(PairSource("sampled", count=50_000, seed=0), 12)
    assert not v.secure and v.pairs_checked == 1
    assert peak < 4 << 20


def test_check_sni_dce_source_secure_at_width2():
    p = load_program("code_dce_w2_source.sp")
    base = load_state("code_dce_w2.init", p, width=2)
    v = check_sni(p, base, PairSource("exhaustive"), Bounds(16, 2), width=2)
    assert v.secure


def test_check_sni_budget_guard():
    """`PAIR_BUDGET` bits of high state are enumerated; one more is refused.
    Only a program the certificate refuses is enumerated: this one branches
    on a high cell."""
    from snicheck.security import PAIR_BUDGET

    p = parse_program("mem h 4 high\nentry a\na: load x <- h[#0] -> b\nb: if x ? c : c\nc: ret\n")
    with pytest.raises(ValueError, match="budget"):
        check_sni(p, initial(p), PairSource("exhaustive"), Bounds(4, 2), width=8)
    assert PAIR_BUDGET == 12
    assert len(enumerate_high_states(p, initial(p), PAIR_BUDGET // 4)) == 1 << PAIR_BUDGET
    with pytest.raises(ValueError, match="budget"):
        enumerate_high_states(p, initial(p), PAIR_BUDGET // 4 + 1)


def test_certified_program_is_not_enumerated(monkeypatch):
    """A program the certificate accepts is secure beyond `PAIR_BUDGET`,
    with every pair of its high assignments counted, and no state list is
    built."""
    import math

    from snicheck import security

    def refuse(*args):
        raise AssertionError("enumerated a certified program")

    monkeypatch.setattr(security, "enumerate_high_states", refuse)
    p = parse_program("mem h 4 high\nmem l 1 low\nentry a\na: load x <- h[#1] -> b\nb: store l[#0] <- y -> c\nc: ret\n")
    v = check_sni(p, initial(p), PairSource("exhaustive"), Bounds(8, 2), width=8)
    assert v.secure and v.truncated == 0 and v.pairs_checked == math.comb(1 << 32, 2)


def test_check_sni_sampled_deterministic(ra_target):
    base = load_state("code_ra.init", ra_target)
    b = Bounds(24, 2)
    v1 = check_sni(ra_target, base, PairSource("sampled", count=5, seed=7), b)
    v2 = check_sni(ra_target, base, PairSource("sampled", count=5, seed=7), b)
    assert v1.report() == v2.report()


def test_sni_pair_agrees_with_memo_free_enumeration(rng):
    """On random programs, the memoised lockstep search finds a violation iff
    the memo-free enumerations of the two behaviour sets differ."""
    b = Bounds(10, 3)
    for _ in range(300):
        p = random_program(rng, n_instrs=rng.randint(4, 10), n_regs=2)
        nu = random_state(rng, p, width=2)
        other = (nu[0].with_cell("hi", 0, (nu[0].cell("hi", 0) + 1) % 4),)
        v = check_sni_pair(p, nu, other, b, width=2)
        b1, b2 = explore_behaviors(p, nu, b, 2), explore_behaviors(p, other, b, 2)
        same = b1.terminated == b2.terminated and b1.truncated == b2.truncated
        assert v.secure == same


# the two states trade places on every pass of the loop: with h = 0 and h = 1
# the joint state comes back with its sides swapped
SWAPPING = "mem h 1 high\nentry a\na: load x <- h[#0] -> b\nb: x = x eq z -> c\nc: store h[#0] <- x -> d\nd: if z ? a : a\n"


def test_sni_pair_matches_the_table_free_search(rng):
    """On random programs, in both orientations, `check_sni_pair` returns the
    verdict of the table-free search field for field: kind, `truncated`,
    directives, divergence, and the two leaks or enabled sets.  In
    `SWAPPING` the memo is keyed by the ordered joint state, as the
    reference's is, so the swapped pair is walked and its cuts counted."""
    b = Bounds(10, 3)
    kinds = Counter()
    for _ in range(300):
        p = random_program(rng, n_instrs=rng.randint(4, 10), n_regs=2, allow_shuffle=rng.random() < 0.3)
        nu = random_state(rng, p, width=2)
        other = (nu[0].with_cell("hi", 0, (nu[0].cell("hi", 0) + rng.randint(1, 3)) % 4),)
        for a, c in ((nu, other), (other, nu)):
            got = check_sni_pair(p, a, c, b, width=2)
            assert got == ref_check_sni_pair(p, a, c, b, width=2)
            kinds[got.divergence or got.kind] += 1
            kinds["truncated"] += got.truncated > 0
    assert kinds["secure"] >= 300 and kinds["truncated"] >= 50, kinds
    assert kinds["leak"] >= 30 and kinds["enabled"] >= 10, kinds

    p = parse_program(SWAPPING)
    nu, other = (State.make("a"),), (State.make("a", mem={("h", 0): 1}),)
    got = check_sni_pair(p, nu, other, Bounds(20, 1), width=1)
    assert got == ref_check_sni_pair(p, nu, other, Bounds(20, 1), width=1)
    assert got.secure and got.truncated == 2


# --- the packed walk against table-free references ----------------------------


def _cuts(walked):
    """A `_walk` result as the references give it: the cuts, or None when
    the walk found a difference or refused."""
    cuts, found = walked
    return cuts if found is None else None


def _check_against_references(p, base, b, width):
    """Exhaustive `check_sni` against the table-free pairwise loop: the same
    verdict, pair count and `truncated > 0` flag, and for a violation the
    whole report, replays included.  With more than two high assignments,
    the taint certificate counts exactly the cuts of the table-free one, and
    certifies only programs that the pair loop finds secure; the packed walk
    on its own (also where the first pair already differs) finds a
    difference iff some pair does, and counts exactly the cuts of the
    table-free grouped walk.  A secure verdict reports the certificate's
    cuts, else the packed walk's.  Returns the verdict and its route: "two
    states", "certified", "probe" (a violation at the first pair), "packed"
    (secure by the packed walk) or "pair loop" (a difference in the packed
    walk, then the pairs one by one)."""
    got = check_sni(p, base, PairSource("exhaustive"), b, width)
    want = ref_check_sni_exhaustive(p, base, b, width)
    assert (got.kind, got.pairs_checked, got.truncated > 0) == (want.kind, want.pairs_checked, want.truncated > 0)
    states = enumerate_high_states(p, base, width)
    if not got.secure or len(states) <= 2:
        assert got == want
        assert got.report(p, width) == want.report(p, width)
    if len(states) <= 2:
        return got, "two states"
    table = transition_table(p, width)
    cells = high_cells(p)
    certified = _cuts(_walk(table, table.id(_with_high(base, cells, [tainted(0)] * len(cells))), b))
    assert certified == ref_taint_certify(p, states[0], b, width)
    walked = _cuts(_walk(table, table.id((pack([s for s, in states]),)), b))
    assert walked == ref_sni_walk(p, base, b, width)
    assert (walked is None) == (not want.secure)
    if certified is not None:
        assert want.secure and got.truncated == certified
        return got, "certified"
    if not got.secure and got.pairs_checked == 1:
        return got, "probe"
    if walked is None:
        return got, "pair loop"
    assert got.truncated == walked
    return got, "packed"


def _masked_secret(rng, p):
    """`p` behind a prefix that reads the high cell into `x`, masks it
    (`y = x and z` with `z = w sub w`, so `y` is 0) and then branches on `y`
    or addresses `lo` with it.  The taint certificate refuses the prefix,
    while every high assignment takes it alike, so the packed walk decides
    the program unless `p` itself tells them apart."""
    from snicheck import ir

    use = rng.choice([ir.If("y", "m4", "m4"), ir.Load("v", "lo", "y", "m4"), ir.Store("lo", "y", "w", "m4")])
    prefix = {"m0": ir.Load("x", "hi", 0, "m1"), "m1": ir.Asgn("z", "w", "sub", "w", "m2"),
              "m2": ir.Asgn("y", "x", "and", "z", "m3"), "m3": use, "m4": ir.Nop(p.entry)}
    return ir.Program("m0", {**prefix, **p.instrs}, p.memvars)


def test_check_sni_shared_table_matches_fresh_pairs(rng):
    """On random programs at widths 1-3, some with two high cells, some with
    shuffle code and some behind a masked secret, exhaustive `check_sni`
    (the taint certificate, else the first pair, then one packed walk over a
    shared transition table, then the remaining pairs if the walk finds a
    difference) agrees with fresh table-free searches.  It certifies at
    least 90% of the secure unmasked programs with more than two high
    assignments, and the masked ones reach the packed walk."""
    kinds = Counter()
    for _ in range(500):
        hi_size = 2 if rng.random() < 0.25 else 1
        width = rng.randint(1, 3 if hi_size == 1 else 2)
        p = random_program(rng, n_instrs=rng.randint(4, 12), n_regs=2, allow_shuffle=rng.random() < 0.3,
                           hi_size=hi_size)
        masked = rng.random() < 0.25
        if masked:
            p = _masked_secret(rng, p)
        base = random_state(rng, p, width=width)
        b = Bounds(rng.randint(6, 12), rng.randint(1, 3))
        got, route = _check_against_references(p, base, b, width)
        kinds[got.divergence or got.kind] += 1
        kinds[route] += 1
        kinds["after the first pair"] += got.pairs_checked > 1 and not got.secure
        kinds["walked, truncated"] += got.secure and got.truncated > 0 and got.pairs_checked > 1
        kinds["secure, N > 2, unmasked"] += got.secure and got.pairs_checked > 1 and not masked
        kinds["masked, " + route] += masked
    assert kinds["secure"] >= 100 and kinds["leak"] >= 20 and kinds["enabled"] >= 5, kinds
    assert kinds["after the first pair"] >= 3 and kinds["walked, truncated"] >= 50, kinds
    assert kinds["packed"] + kinds["pair loop"] >= 90 and kinds["masked, packed"] >= 80, kinds
    assert kinds["certified"] >= 0.9 * kinds["secure, N > 2, unmasked"], kinds


def test_check_sni_certifies_allocated_targets(rng):
    """Register-allocated targets that spill and fill through `stk`, half of
    them repaired by `fix_ra`: the certificate follows taint through the
    stack slots, agrees with its table-free reference and certifies only
    secure targets, and at least 90% of the secure ones."""
    from snicheck.poison import fix_ra
    from snicheck.regalloc import AllocationInfeasible, allocate

    kinds = Counter()
    while kinds["targets"] < 100:
        p = random_program(rng, n_instrs=rng.randint(4, 9), n_regs=3)
        try:
            w = allocate(p, 2)
        except AllocationInfeasible:
            continue
        if not any(isinstance(i, (Fill, Spill)) for i in w.target.instrs.values()):
            continue
        if kinds["targets"] % 2:
            w, _ = fix_ra(w, width=2)
        kinds["targets"] += 1
        base = random_state(rng, w.target, width=2)
        got, route = _check_against_references(w.target, base, Bounds(rng.randint(6, 12), rng.randint(1, 3)), 2)
        kinds[got.kind] += 1
        kinds[route] += 1
    assert kinds["violation"] >= 5, kinds
    assert kinds["certified"] >= 0.9 * kinds["secure"], kinds


# only the assignment h = 2 differs from the others, so the first pair
# (h = 0 and h = 1) agrees and the walk must find the difference
MIDDLE_LEAKS = [
    # through a branch
    "mem h 1 high\nentry a\na: load x <- h[#0] -> b\nb: y = x eq c -> d\nd: if y ? e : e\ne: ret\n",
    # through the enabled directives of an out-of-bounds load
    "mem h 1 high\nmem lo 1 low\nentry a\na: load x <- h[#0] -> b\nb: y = x eq c -> d\nd: load z <- lo[y] -> e\ne: ret\n",
]


@pytest.mark.parametrize("text", MIDDLE_LEAKS)
def test_check_sni_walk_finds_what_the_first_pair_misses(text):
    p = parse_program(text)
    v, route = _check_against_references(p, (State.make(p.entry, {"c": 2}),), Bounds(10, 2), 2)
    assert route == "pair loop" and v.pairs_checked == 2
    assert [nu[0].cell("h", 0) for nu in (v.state1, v.state2)] == [0, 2]


# `load h 0` and `load h 1` at `d` reach the same state with the same taint at
# `e`, but only `load h 1` reads the secret that `if` leaks: `h[0]` holds
# `x and z`, which is 0 in every assignment
SPLIT_BY_PATH = """mem l 1 low
mem h 2 high
entry a
a: load x <- h[#1] -> b
b: t = x and z -> c
c: store h[#0] <- t -> d
d: load y <- l[i] -> e
e: if y ? f : f
f: ret
"""


@pytest.mark.parametrize("width", [1, 2])
def test_check_sni_finds_a_leak_that_depends_on_the_path(width):
    """A check that memoised a state with its taint would close `e` after
    the `load h 0` path and never expand it after `load h 1`."""
    p = parse_program(SPLIT_BY_PATH)
    v, route = _check_against_references(p, (State.make("a", {"i": 1}),), Bounds(16, 2), width)
    assert not v.secure and route != "certified" and v.divergence == "leak"
    assert [str(d) for d in v.directives] == ["step", "step", "step", "load h 1", "if"]


# `if x` at `d` would leak x, and `load z <- l[y]` at `c` its address y = x,
# but both are at the step cut, where only the enabled sets are compared
STEP_CUT_BRANCH = "mem h 1 high\nentry a\na: load x <- h[#0] -> b\nb: y = x and z -> c\nc: if y ? d : d\nd: if x ? e : e\ne: ret\n"
STEP_CUT_LOAD = "mem h 1 high\nmem l {size} low\nentry a\na: load x <- h[#0] -> b\nb: y = x and m -> c\nc: load z <- l[y] -> d\nd: ret\n"


def test_packed_walk_compares_only_enabled_sets_at_the_step_cut():
    """The certificate refuses each program and the probe pair passes, so
    the packed walk decides.  Its lanes answer the cut node's question
    differently, which is no difference there: the walk splits the node and
    compares the lanes' enabled sets.  They agree unless `y` is out of
    bounds of `l` in some lanes."""
    p = parse_program(STEP_CUT_BRANCH)
    v, route = _check_against_references(p, initial(p), Bounds(3, 2), 2)
    assert route == "packed" and (v.kind, v.pairs_checked, v.truncated) == ("secure", 6, 2)
    base = (State.make("a", {"m": 3}),)
    p = parse_program(STEP_CUT_LOAD.format(size=4))
    v, route = _check_against_references(p, base, Bounds(2, 2), 2)
    assert route == "packed" and (v.kind, v.pairs_checked, v.truncated) == ("secure", 6, 1)
    p = parse_program(STEP_CUT_LOAD.format(size=2))
    v, route = _check_against_references(p, base, Bounds(2, 2), 2)
    assert route == "pair loop" and (v.kind, v.pairs_checked, v.divergence) == ("violation", 2, "enabled")


# `load x` from `lo 0` (= h) or `hi 0` holds x in the lane order of h, and
# from `lo 1` (= m - h) in the reverse order; then everything else is zeroed
ORDERS_PROGRAM = """mem lo 2 low
mem hi 1 high
entry 0
0: load a <- hi[#0] -> 1
1: b = m sub a -> 2
2: store lo[#0] <- a -> 3
3: store lo[#1] <- b -> 4
4: load x <- lo[i] -> 5
5: a = z add z -> 6
6: b = z add z -> 7
7: store lo[#0] <- z -> 8
8: store lo[#1] <- z -> 9
9: store hi[#0] <- z -> 10
10: y = x and z -> 11
11: if y ? 12 : 12
12: nop -> 13
13: ret
"""


@pytest.mark.parametrize("width", [2, 3])
def test_packed_walk_memo_keys_member_sets(width):
    """All three loads reach one set of members at pc 10, which the grouped
    walk expands once, so its `spec` child is cut once.  The packed walk
    must too, although the `lo 1` path holds its lanes in another order."""
    p = parse_program(ORDERS_PROGRAM)
    base = (State.make("0", {"i": 5, "m": (1 << width) - 1}),)
    v, route = _check_against_references(p, base, Bounds(16, 1), width)
    assert route == "packed" and v.truncated == 1


def test_check_sni_keeps_no_state_between_calls(rng):
    """Calls in a row on different programs and bounds each agree with fresh
    table-free searches, so no interned state outlives its call."""
    runs = []
    for _ in range(12):
        p = random_program(rng, n_instrs=rng.randint(4, 12), n_regs=2)
        runs.append((p, random_state(rng, p, width=2), Bounds(rng.randint(6, 12), rng.randint(1, 3))))
    kinds = Counter()
    for p, base, b in runs + runs[::-1]:
        kinds[_check_against_references(p, base, b, 2)[0].kind] += 1
    assert kinds["secure"] and kinds["violation"], kinds


def test_check_sni_decides_every_pair_in_one_walk(monkeypatch):
    """`code_specv1.sp` at width 1 has 512 high assignments, and one walk
    from a state with its high cells tainted decides all 130,816 pairs with
    neither a probe pair nor the packed walk.  A secure program whose taint
    reaches a branch (`y` is `x and 0`) is refused: one probe pair, then one
    walk from a packed start of 4 lanes decides the rest.
    `code_ra_target.sp` at width 12 is refused too, leaks at the probe and
    never packs its 4,096 states."""
    from snicheck import security

    def not_called(*args):
        raise AssertionError("called on a certified program")

    walks = []

    def walking(table, start, b):
        if type(start) is tuple:
            walks.append("pair")
        elif any(type(v) is Tainted for f in table.values[start] for _, v in f.mem):
            walks.append("certificate")
        else:
            walks.append(("packed", len(unpack((table.values[start],)))))
        return _walk(table, start, b)

    monkeypatch.setattr(security, "check_sni_pair", not_called)
    monkeypatch.setattr(security, "_walk", walking)
    p = load_program("code_specv1.sp")
    v = check_sni(p, load_state("code_specv1.init", p, 1), PairSource("exhaustive"), Bounds(32, 3), 1)
    assert v.secure and v.truncated > 0 and v.pairs_checked == 130_816
    assert walks == ["certificate"]

    probes = []

    def probing(*args):
        probes.append(args[1:3])
        return check_sni_pair(*args)

    walks.clear()
    monkeypatch.setattr(security, "check_sni_pair", probing)
    p = parse_program("mem h 1 high\nentry a\na: load x <- h[#0] -> b\nb: y = x and z -> c\nc: if y ? d : d\nd: ret\n")
    v = check_sni(p, initial(p), PairSource("exhaustive"), Bounds(8, 2), 2)
    assert v.secure and v.pairs_checked == 6
    assert probes == [tuple(enumerate_high_states(p, initial(p), 2)[:2])]
    assert walks == ["certificate", "pair", ("packed", 4)]

    walks.clear()
    p = load_program("code_ra_target.sp")
    v = check_sni(p, load_state("code_ra.init", p, 12), PairSource("exhaustive"), Bounds(32, 3), 12)
    assert not v.secure and v.pairs_checked == 1 and len(probes) == 2
    assert walks == ["certificate", "pair"]


# `x` holds the secret at `b`, which is exactly at the step cut of Bounds(1, 2)
TAINTED_AT_THE_CUT = "mem h 1 high\nmem l 4 low\nentry a\na: load x <- h[#0] -> b\nb: {use}\nc: ret\n"


def test_certificate_at_the_step_cut():
    """At the step cut only the enabled sets are compared.  A branch's are
    the same whatever its condition, so a tainted branch there is a cut and
    the program is certified.  A tainted address decides whether a load is
    in bounds, so the certificate refuses it there, as its reference does,
    although every address is in bounds of `l` at width 2: the packed walk
    then finds the program secure."""
    b = Bounds(1, 2)
    for use, want, route in (("if x ? c : c", (1, None), "certified"),
                             ("load y <- l[x] -> c", (0, (D_STEP,)), "packed")):
        p = parse_program(TAINTED_AT_THE_CUT.format(use=use))
        table = transition_table(p, 2)
        walked = _walk(table, table.id((State.make("a", mem={("h", 0): tainted(0)}),)), b)
        assert walked == want and _cuts(walked) == ref_taint_certify(p, initial(p), b, 2)
        v, got = _check_against_references(p, initial(p), b, 2)
        assert got == route and (v.kind, v.truncated) == ("secure", 1)


# `y` and `z` are computed apart but hold one tainted value, so the
# out-of-bounds `load w <- l[i]` reaches one state by `load a 0` and by
# `load a 1`
RECOMPUTED = """mem h 1 high
mem l 2 low
mem a 2 low
entry 0
0: load x <- h[#0] -> 1
1: y = x add c -> 2
2: store a[#0] <- y -> 3
3: z = x add c -> 4
4: store a[#1] <- z -> 5
5: load w <- l[i] -> 6
6: nop -> 7
7: nop -> 8
8: ret
"""


def test_certificate_merges_equal_tainted_values():
    """Equal tainted values are one value however they were computed, so
    the certificate expands the state after `load a 0` and `load a 1` once,
    and counts the cuts below it once, as its reference does."""
    p = parse_program(RECOMPUTED)
    v, route = _check_against_references(p, (State.make("0", {"c": 1, "i": 2}),), Bounds(7, 1), 2)
    assert route == "certified" and v.truncated == 3


SLH_GUARDED = """mem a 2 low
mem h 1 high
entry 0
0: if c ? 1 : 5
1: load x <- h[#0] -> 2
2: {guard} x -> 3
3: load y <- a[x] -> 4
4: nop -> 5
5: ret
"""


def test_certificate_follows_slh_on_a_mispredicted_path():
    """The secret is loaded only on the mispredicted side of the branch, and
    `slh` zeroes it there before it is used as an address: certified.  With
    a `move x <- x` in place of the `slh`, the address is the secret and
    the program leaks it."""
    b = Bounds(16, 2)
    for guard, secure in (("slh", True), ("move x <-", False)):
        p = parse_program(SLH_GUARDED.format(guard=guard))
        v, route = _check_against_references(p, (State.make(p.entry, {"c": 1}),), b, 2)
        assert v.secure == secure and (route == "certified") == secure
