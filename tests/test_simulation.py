import gc
import itertools
import random
from collections import Counter, deque
from dataclasses import replace

import pytest

from snicheck.ir import parse_program
from snicheck.liveness import dce_transform, liveness
from snicheck.poison import fix_ra
from snicheck.regalloc import allocate, AllocationInfeasible, parse_ra_witness
from snicheck.security import PairSource, check_sni, enumerate_high_states, low_equivalent
from snicheck.semantics import (
    Bounds,
    D_IF,
    D_RB,
    D_SPEC,
    D_STEP,
    Divergent,
    State,
    canonical,
    d_load,
    d_store,
    enabled_directives,
    explore_behaviors,
    is_final,
    pack,
    run_directives,
    step_spec,
    unpack,
)
from snicheck.simulation import (
    ExtractResult,
    SimInterval,
    SimWitness,
    Verdict,
    _describe_missing,
    check_simulation,
    check_snippy_cube,
    dce_witness,
    extract_intervals,
    ra_witness,
)
from snicheck import simulation
from snicheck.cli import corpus_path

from conftest import (
    attack_program,
    load_program,
    load_state,
    random_program,
    random_state,
    ref_dce_intervals,
    ref_lanes_only_high,
    ref_ra_intervals,
)


@pytest.fixture
def dce_wit():
    p = load_program("code_dce_source.sp")
    return dce_witness(p, dce_transform(p, liveness(p)))


@pytest.fixture
def ra_wit(ra_witness):
    return ra_witness_obj(ra_witness)


def ra_witness_obj(w, width=8):
    return ra_witness(w, width)


def w2_fixture(name_src, name_tgt, name_wit):
    src = load_program(name_src)
    tgt = load_program(name_tgt)
    return parse_ra_witness(corpus_path(name_wit).read_text(), src, tgt)


# --- interval extraction -----------------------------------------------------------


def test_dce_intervals_from_stated_initial_states(dce_wit):
    """From the out-of-bounds initial state there are exactly two intervals:
    the full mispredicted straight line, replayed with an unsafe load on the
    source side, and the plain architectural branch."""
    p = dce_wit.source
    s0 = load_state("code_dce.init", p)
    t0 = load_state("code_dce.init", dce_wit.target)
    assert dce_wit.related(t0, s0)
    res = extract_intervals(dce_wit, s0, t0, Bounds(16, 2))
    sigs = {
        (iv.tgt_dirs, iv.src_dirs): (iv.tgt_leaks, iv.src_leaks) for iv in res.intervals
    }
    assert len(res.intervals) == 2
    spec_key = ((D_SPEC, D_STEP, D_STEP), (D_SPEC, d_load("secret", 0), D_STEP))
    if_key = ((D_IF,), (D_IF,))
    assert spec_key in sigs and if_key in sigs
    tgt_leaks, src_leaks = sigs[spec_key]
    assert [str(l) for l in tgt_leaks] == ["if 1", "none", "none"]
    assert [str(l) for l in src_leaks] == ["if 1", "load 8", "none"]
    tgt_leaks, src_leaks = sigs[if_key]
    assert [str(l) for l in tgt_leaks] == ["if 1"] == [str(l) for l in src_leaks]


def test_final_pair_has_no_intervals(dce_wit):
    p = dce_wit.source
    s = load_state("code_dce.init", p)[0].at("4")
    assert extract_intervals(dce_wit, (s,), (s,), Bounds(8, 2)).intervals == []


def test_ra_interval_covers_matched_step_and_shuffle_tail(ra_wit, ra_witness):
    """From the pair after the initial load, the compare's interval carries the
    spill along: one source step against two target steps."""
    t0 = load_state("code_ra.init", ra_witness.target)
    s0 = (ra_wit.initial_map(t0[0]),)
    # advance both through the matched load
    t1 = step_spec(ra_witness.target, t0, D_STEP)[0]
    s1 = step_spec(ra_witness.source, s0, D_STEP)[0]
    assert ra_wit.related(t1, s1)
    res = extract_intervals(ra_wit, s1, t1, Bounds(16, 3))
    assert len(res.intervals) == 1
    iv = res.intervals[0]
    assert iv.tgt_dirs == (D_STEP, D_STEP)
    assert iv.src_dirs == (D_STEP,)
    assert [str(l) for l in iv.tgt_leaks] == ["none", "store 0"]
    assert iv.end_tgt[-1].pc == "c" and iv.end_src[-1].pc == "2"


def test_ra_rollback_interval_variants(ra_wit, ra_witness):
    """A speculating store interval exists in a rollback-ended variant for
    every prefix of its shuffle tail."""
    t0 = load_state("code_ra.init", ra_witness.target)
    s0 = (ra_wit.initial_map(t0[0]),)
    ex_t = run_directives(ra_witness.target, t0, [D_STEP, D_STEP, D_STEP, D_SPEC])
    ex_s = run_directives(ra_witness.source, s0, [D_STEP, D_STEP, D_SPEC])
    t1, s1 = ex_t.last, ex_s.last
    assert ra_wit.related(t1, s1)
    res = extract_intervals(ra_wit, s1, t1, Bounds(16, 3))
    store_ivs = [iv for iv in res.intervals if iv.tgt_dirs[0] == d_store("stk", 0)]
    shapes = {iv.tgt_dirs for iv in store_ivs}
    assert shapes == {
        (d_store("stk", 0), D_STEP),  # through the fill to the next matched pair
        (d_store("stk", 0), D_RB),  # rollback before the fill
    }
    for iv in store_ivs:
        assert iv.src_dirs[0] == d_store("buf", 0)
    # a rollback after the completed tail starts the next interval
    red = next(iv for iv in store_ivs if iv.tgt_dirs[-1] == D_STEP)
    res2 = extract_intervals(ra_wit, red.end_src, red.end_tgt, Bounds(16, 3))
    assert any(iv.tgt_dirs == (D_RB,) and iv.src_dirs == (D_RB,) for iv in res2.intervals)


def test_interval_projections_replay(dce_wit, ra_witness):
    wits = [dce_wit, ra_witness_obj(ra_witness)]
    inits = ["code_dce.init", "code_ra.init"]
    for wit, init in zip(wits, inits):
        t0 = load_state(init, wit.target)
        s0 = (wit.initial_map(t0[0]),)
        res = extract_intervals(wit, s0, t0, Bounds(16, 3))
        assert res.intervals
        for iv in res.intervals:
            ex_t = run_directives(wit.target, t0, list(iv.tgt_dirs))
            ex_s = run_directives(wit.source, s0, list(iv.src_dirs))
            assert ex_t.status != "stuck" and ex_t.leaks == iv.tgt_leaks and ex_t.last == iv.end_tgt
            assert ex_s.status != "stuck" and ex_s.leaks == iv.src_leaks and ex_s.last == iv.end_src


def test_ra_interval_ends_related(ra_wit, ra_witness):
    seen = set()
    queue = [((ra_wit.initial_map(load_state("code_ra.init", ra_witness.target)[0]),),
              load_state("code_ra.init", ra_witness.target))]
    b = Bounds(24, 3)
    while queue:
        s, t = queue.pop()
        if (s, t) in seen or is_final(ra_witness.target, t):
            continue
        seen.add((s, t))
        for iv in extract_intervals(ra_wit, s, t, b).intervals:
            assert ra_wit.related(iv.end_tgt, iv.end_src)
            if len(iv.end_tgt) <= 2:
                queue.append((iv.end_src, iv.end_tgt))
    assert len(seen) > 5


# --- simulation check ----------------------------------------------------------------


def test_check_simulation_dce_pass(dce_wit):
    t0 = load_state("code_dce.init", dce_wit.target)[0]
    v = check_simulation(dce_wit, t0, Bounds(24, 2))
    assert v.ok


def test_check_simulation_fixed_ra_pass(ra_witness):
    fixed, _ = fix_ra(ra_witness)
    wit = ra_witness_obj(fixed)
    t0 = load_state("code_ra.init", fixed.target)[0]
    v = check_simulation(wit, t0, Bounds(24, 3))
    assert v.ok


def test_check_simulation_detects_missing_rollback_branch(ra_witness):
    """Dropping every rollback-ended interval leaves speculating target
    continuations uncovered."""
    fixed, _ = fix_ra(ra_witness)
    base = ra_witness_obj(fixed)

    def pruned(s, t, b, tables):
        res = base.intervals(s, t, b, tables)
        kept = [iv for iv in res.intervals if D_RB not in iv.tgt_dirs]
        return ExtractResult(kept, res.truncated)

    wit = replace(base, intervals=pruned)
    t0 = load_state("code_ra.init", fixed.target)[0]
    v = check_simulation(wit, t0, Bounds(24, 3))
    assert not v.ok
    assert v.reason == "target continuation has no interval"
    assert v.directive == D_RB


def test_behavior_decomposes_into_intervals(dce_wit, ra_witness):
    """Every terminated target behaviour factors into extracted intervals,
    with rollback-balanced speculation segments erased where the witness
    canonicalises the episode (rollback restores the pre-speculation state)."""
    b = Bounds(10, 2)

    def factors(wit, nu_src, nu_tgt, dirs):
        if not dirs:
            return True
        res = extract_intervals(wit, nu_src, nu_tgt, b)
        for iv in res.intervals:
            n = len(iv.tgt_dirs)
            if tuple(dirs[:n]) == iv.tgt_dirs and factors(wit, iv.end_src, iv.end_tgt, dirs[n:]):
                return True
        if dirs[0] == D_SPEC:
            depth0 = len(nu_tgt)
            cur = nu_tgt
            for i, d in enumerate(dirs):
                cur = step_spec(wit.target, cur, d)[0]
                if len(cur) == depth0:
                    return cur == nu_tgt and factors(wit, nu_src, nu_tgt, dirs[i + 1:])
        return False

    cases = [
        (dce_wit, "code_dce.init"),
        (ra_witness_obj(ra_witness), "code_ra.init"),
    ]
    for wit, init in cases:
        t0 = load_state(init, wit.target)
        s0 = (wit.initial_map(t0[0]),)
        bs = explore_behaviors(wit.target, t0, b)
        assert bs.terminated
        for _leaks, dirs in sorted(bs.terminated, key=str):
            assert factors(wit, s0, t0, list(dirs)), [str(d) for d in dirs]


def test_initial_mapping_respects_levels(dce_wit, ra_witness, rng):
    for wit in (dce_wit, ra_witness_obj(ra_witness)):
        base = random_state(rng, wit.target)[0].at(wit.target.entry)
        states = [base]
        for _ in range(12):
            v = rng.choice(wit.target.registers)
            s = base.with_reg(v, rng.randrange(256))
            for var, off in wit.target.cells():
                if rng.random() < 0.3:
                    s = s.with_cell(var, off, rng.randrange(256))
            states.append(s)
        for t1, t2 in itertools.combinations(states, 2):
            s1, s2 = wit.initial_map(t1), wit.initial_map(t2)
            assert low_equivalent(wit.target, t1, t2) == low_equivalent(wit.source, s1, s2)


# --- snippy cube ----------------------------------------------------------------------


def w2_base(prog, init_name):
    return load_state(init_name, prog, width=2)[0]


def test_cube_dce_pass_width2():
    p = load_program("code_dce_w2_source.sp")
    wit = dce_witness(p, dce_transform(p, liveness(p)), width=2)
    v = check_snippy_cube(wit, w2_base(wit.target, "code_dce_w2.init"), Bounds(24, 2))
    assert v.ok and v.truncated == 0


def test_cube_unfixed_ra_fails_width2():
    w = w2_fixture("code_ra_w2_source.sp", "code_ra_w2_target.sp", "code_ra_w2.witness")
    wit = ra_witness_obj(w, width=2)
    v = check_snippy_cube(wit, w2_base(w.target, "code_ra_w2.init"), Bounds(24, 2))
    assert not v.ok
    assert "different target leaks" in v.reason
    assert v.interval.tgt_dirs[0].kind in ("if", "spec")


def test_cube_fixed_ra_passes_width2():
    w = w2_fixture("code_ra_w2_source.sp", "code_ra_w2_target.sp", "code_ra_w2.witness")
    fixed, _ = fix_ra(w, width=2)
    wit = ra_witness_obj(fixed, width=2)
    v = check_snippy_cube(wit, w2_base(fixed.target, "code_ra_w2.init"), Bounds(24, 2))
    assert v.ok


def test_cube_detects_planted_leak_difference():
    """A target that branches on a secret where its source does not trips
    the two-pair condition, while the simulation holds from each state."""
    wit = _leaky_witness(width=1)
    t1 = State.make("0", {"i": 5}, {("h", 0): 1})
    t0 = t1.with_cell("h", 0, 0)
    b = Bounds(8, 2)
    assert all(check_simulation(wit, t, b).ok for t in (t0, t1))
    v = check_snippy_cube(wit, t1, b)
    assert not v.ok and v.reason.startswith("same directives, different target leaks")
    assert v.interval.tgt_dirs[0] in (D_IF, D_SPEC) and v.pair[1][-1].pc == v.other[1][-1].pc == "2"
    assert v.interval.signature not in {iv.signature for iv in extract_intervals(wit, *v.other, b).intervals}


def test_dce_lockstep_replay_on_random_programs(rng):
    """Every single target step from a related pair has a source replay whose
    step lands in the relation again (random programs, random walks)."""
    from snicheck.liveness import dce_transform, liveness as live

    checked = 0
    for _ in range(150):
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        res = dce_transform(p, live(p))
        wit = dce_witness(p, res)
        t = random_state(rng, res.target)
        s = (wit.initial_map(t[0]),)
        assert wit.related(t, s)
        for _step in range(8):
            if is_final(res.target, t):
                break
            from snicheck.semantics import enabled_directives

            ext = extract_intervals(wit, s, t, Bounds(16, 3))
            en = enabled_directives(res.target, t)
            heads = {iv.tgt_dirs[0] for iv in ext.intervals}
            assert set(en) <= heads
            iv = rng.choice(ext.intervals)
            assert wit.related(iv.end_tgt, iv.end_src)
            s, t = iv.end_src, iv.end_tgt
            checked += 1
            if len(t) > 3:
                break
    assert checked >= 300


# --- distance-aware revisits ------------------------------------------------------

# All memory starts at 0 and `i` is out of bounds, so `load m 0` and `load m 1`
# at pc 0 reach the same state at pc 1; `load h 0` reads the high cell.
REVISIT_PROGRAM = """mem m 2 low
mem h 1 high
entry 0
0: load x <- m[i] -> 1
1: if z ? 0 : 2
2: nop -> 3
3: ret
"""


def _revisit_witness():
    """Identity witness whose `load m 0` interval at pc 0 runs the loop once
    more (`load m 0 ; if ; load m 0`, 3 steps), while `load m 1` reaches the
    same pair in 1 step.  The long interval comes first in the queue.  The
    pairs that mispredict into pc 2 with x = 0 count as unrelated."""
    from snicheck.semantics import enabled_directives

    p = parse_program(REVISIT_PROGRAM)
    longer = (d_load("m", 0), D_IF, d_load("m", 0))

    def related(nu_tgt, nu_src):
        return nu_tgt == nu_src and not any(s.pc == "2" and s.reg("x") == 0 for s in nu_tgt)

    def intervals(s, t, b, tables):
        nu_tgt = tables[1].values[t]
        out = []
        for d in enabled_directives(p, nu_tgt):
            dirs = longer if nu_tgt[-1].pc == "0" and d == longer[0] else (d,)
            run = run_directives(p, nu_tgt, list(dirs))
            out.append(SimInterval(dirs, run.leaks, dirs, run.leaks, run.last, run.last))
        return ExtractResult(out)

    return p, SimWitness("revisit", p, p, related, lambda s: s, intervals)


def test_check_simulation_reexpands_a_pair_reached_nearer():
    """The pair at pc 1 with x = 0 is first dequeued at distance 3 and cut by
    the step bound; its later visit at distance 1 must still be expanded."""
    from snicheck.semantics import State

    p, wit = _revisit_witness()
    t0 = State.make("0", {"i": 5}, {("h", 0): 1})
    v = check_simulation(wit, t0, Bounds(3, 2))
    assert not v.ok and v.reason == "interval end not related"
    assert v.pair[1][-1].pc == "2"


# Source and target differ only at pc 2: the target branches on `x`, which a
# `load h 0` at pc 1 fills with the high cell, and the source on `z`.  Both
# branches at pc 0 go to pc 1.
LEAKY_SOURCE = """mem m 2 low
mem h 1 high
entry 0
0: if z ? 1 : 1
1: load x <- m[i] -> 2
2: if z ? 3 : 3
3: ret
"""
LEAKY_TARGET = LEAKY_SOURCE.replace("2: if z", "2: if x")


def _leaky_witness(longer=(), width=1):
    """A witness from LEAKY_SOURCE to LEAKY_TARGET whose intervals are single
    target directives, replayed by both programs, with every pair related,
    so the simulation holds.  A nonempty `longer` is one more interval at
    pc 0, listed first.  At width 1 a cube has two members, h = 0 and 1;
    `i` = 5 is out of bounds at any width, since it is never computed."""
    from snicheck.semantics import enabled_directives

    src, tgt = parse_program(LEAKY_SOURCE), parse_program(LEAKY_TARGET)

    def intervals(s, t, b, tables):
        nu_src, nu_tgt = tables[0].values[s], tables[1].values[t]
        heads = [longer] if longer and nu_tgt[-1].pc == "0" else []
        out = []
        for dirs in heads + [(d,) for d in enabled_directives(tgt, nu_tgt, width)]:
            rt, rs = run_directives(tgt, nu_tgt, list(dirs), width), run_directives(src, nu_src, list(dirs), width)
            out.append(SimInterval(dirs, rt.leaks, dirs, rs.leaks, rs.last, rt.last))
        return ExtractResult(out)

    return SimWitness("leaky", src, tgt, lambda nu_tgt, nu_src: True, lambda s: s, intervals, width)


def test_cube_refuses_an_initial_mapping_that_does_not_respect_levels():
    """The high assignments of one target state must map to low-equivalent
    source states."""
    wit = _leaky_witness()
    t1 = State.make("0", {"i": 5}, {("h", 0): 1})
    splits = replace(wit, initial_map=lambda t: t.with_reg("x", t.cell("h", 0)))
    v = check_snippy_cube(splits, t1, Bounds(8, 2))
    assert not v.ok and v.reason == "initial-state mapping does not respect levels"
    assert check_snippy_cube(wit, t1, Bounds(8, 2)).reason != v.reason
    # a mapping that asks about a high value (Divergent on the packed state)
    # maps each assignment alone, and is judged the same way
    asks = replace(wit, initial_map=lambda t: t.at("0") if t.cell("h", 0) == 1 else t)
    assert check_snippy_cube(asks, t1, Bounds(8, 2)) == check_snippy_cube(wit, t1, Bounds(8, 2))
    asks_splits = replace(wit, initial_map=lambda t: t.with_reg("x", 1) if t.cell("h", 0) == 1 else t)
    assert check_snippy_cube(asks_splits, t1, Bounds(8, 2)) == v


def test_snippy_cube_reexpands_a_quadruple_reached_nearer():
    """The group of both runs at pc 1 is first dequeued at distance 3, by
    `spec ; rb ; if`, and cut by the step bound; its later visit at distance
    1, by `if`, must still be expanded, since its `load h 0` child at pc 2 is
    where the target leaks the secret.  The depth bound cuts the other way
    there, through the speculative pc 1."""
    wit = _leaky_witness(longer=(D_SPEC, D_RB, D_IF))
    t1 = State.make("0", {"i": 5}, {("h", 0): 1})
    v = check_snippy_cube(wit, t1, Bounds(3, 1))
    assert not v.ok and v.reason.startswith("same directives, different target leaks")
    assert v.interval.tgt_dirs == (D_IF,) and v.pair[1][-1].pc == "2"


# --- the interval and premise tables against the uncached loops --------------------


def dce_with_ref(p, width):
    """The DCE witness of `p` and its reference interval builder."""
    res = dce_transform(p, liveness(p))
    return dce_witness(p, res, width), ref_dce_intervals(p, res, width)


def ra_with_ref(w, width):
    return ra_witness(w, width), ref_ra_intervals(w, width)


def ref_extract(wit, ref):
    """`extract_intervals` over the reference builder `ref`."""
    return lambda nu_src, nu_tgt, b: ExtractResult([]) if is_final(wit.target, nu_tgt) else ref(nu_src, nu_tgt, b)


def reference_check_simulation(wit, ref, t0, b):
    """`check_simulation` without tables: every expansion of a pair builds its
    intervals afresh with the reference builder `ref` and replays them with
    `run_directives`."""
    extract = ref_extract(wit, ref)
    width = wit.width
    checked = truncated = 0
    nearest = {}
    s0 = wit.initial_map(t0)
    if not wit.related((t0,), (s0,)):
        return Verdict("fail", checked, truncated, "initial states not related", ((s0,), (t0,)))
    queue = deque([((s0,), (t0,), 0)])
    while queue:
        nu_src, nu_tgt, dist = queue.popleft()
        key = (nu_src, nu_tgt)
        if key in nearest and nearest[key] <= dist:
            continue
        nearest[key] = dist
        if is_final(wit.target, nu_tgt):
            continue
        if dist >= b.max_steps:
            truncated += 1
            continue
        res = extract(nu_src, nu_tgt, b)
        truncated += res.truncated
        for d in enabled_directives(wit.target, nu_tgt, width):
            if not any(iv.tgt_dirs[0] == d for iv in res.intervals):
                return Verdict("fail", checked, truncated, "target continuation has no interval",
                               (nu_src, nu_tgt), d)
        for iv in res.intervals:
            checked += 1
            tgt_run = run_directives(wit.target, nu_tgt, list(iv.tgt_dirs), width)
            if tgt_run.status == "stuck" or tgt_run.leaks != iv.tgt_leaks or tgt_run.last != iv.end_tgt:
                return Verdict("fail", checked, truncated, "interval target projection does not replay",
                               (nu_src, nu_tgt))
            src_run = run_directives(wit.source, nu_src, list(iv.src_dirs), width)
            if src_run.status == "stuck" or src_run.leaks != iv.src_leaks or src_run.last != iv.end_src:
                return Verdict("fail", checked, truncated, "interval source projection does not replay",
                               (nu_src, nu_tgt))
            if not wit.related(iv.end_tgt, iv.end_src):
                return Verdict("fail", checked, truncated, "interval end not related", (iv.end_src, iv.end_tgt))
            if len(iv.end_tgt) > b.max_spec_depth:
                truncated += 1
                continue
            queue.append((iv.end_src, iv.end_tgt, dist + len(iv.tgt_dirs)))
    return Verdict("pass", checked, truncated)


def reference_check_snippy_cube(wit, ref, initial_target_pairs, b):
    """The two-pair condition alone, one pair of runs at a time, without
    tables: a breadth-first walk over quadruples from each low-equivalent
    initial pair, whose intervals are built with the reference builder
    `ref` and whose source premise is replayed with `run_directives`, afresh
    for every quadruple.  `check_snippy_cube` passes exactly when this
    passes on every pair of its states and `reference_check_simulation`
    passes from each of them."""
    extract = ref_extract(wit, ref)

    def premise(nu_src, iv):
        run = run_directives(wit.source, nu_src, list(iv.src_dirs), wit.width)
        return run.status != "stuck" and run.leaks == iv.src_leaks

    checked = truncated = 0
    for t1, t2 in initial_target_pairs:
        s1, s2 = wit.initial_map(t1), wit.initial_map(t2)
        t_low = low_equivalent(wit.target, t1, t2)
        if t_low != low_equivalent(wit.source, s1, s2):
            return Verdict("fail", checked, truncated, "initial-state mapping does not respect levels")
        if not t_low:
            continue
        nearest = {}
        queue = deque([((s1,), (t1,), (s2,), (t2,), 0)])
        while queue:
            n1s, n1t, n2s, n2t, dist = queue.popleft()
            key = (n1s, n1t, n2s, n2t)
            if key in nearest and nearest[key] <= dist:
                continue
            nearest[key] = dist
            if is_final(wit.target, n1t) and is_final(wit.target, n2t):
                continue
            if dist >= b.max_steps:
                truncated += 1
                continue
            r1 = extract(n1s, n1t, b)
            r2 = extract(n2s, n2t, b)
            truncated += r1.truncated + r2.truncated
            sig2 = {iv.signature for iv in r2.intervals}
            sig1 = {iv.signature for iv in r1.intervals}
            for iv in r1.intervals:
                if not premise(n2s, iv):
                    continue
                checked += 1
                if iv.signature not in sig2:
                    reason = _describe_missing(iv, r2.intervals)
                    return Verdict("fail", checked, truncated, reason, (n1s, n1t), interval=iv, other=(n2s, n2t))
            for iv in r2.intervals:
                if not premise(n1s, iv):
                    continue
                checked += 1
                if iv.signature not in sig1:
                    reason = _describe_missing(iv, r1.intervals)
                    return Verdict("fail", checked, truncated, reason, (n2s, n2t), interval=iv, other=(n1s, n1t))
            by_sig = {iv.signature: iv for iv in r2.intervals}
            for iv in r1.intervals:
                other = by_sig.get(iv.signature)
                if other is None:
                    continue
                if len(iv.end_tgt) > b.max_spec_depth:
                    truncated += 1
                    continue
                queue.append((iv.end_src, iv.end_tgt, other.end_src, other.end_tgt, dist + len(iv.tgt_dirs)))
    return Verdict("pass", checked, truncated)


PLANTS = ("tgt-leak", "src-leak", "tgt-end", "src-end")


def _random_witnesses(rng, count, width=2, plant=True, hi_size=1):
    """(witness, reference builder) pairs over random programs with
    `hi_size` high cells: DCE, RA as allocated and RA after `fix_ra`.  With
    `plant`, about half carry one of `PLANTS` on the runs whose first high
    cell is 1, so that checks fail too."""
    out = []
    while len(out) < count:
        p = random_program(rng, n_instrs=rng.randint(4, 9), n_regs=3, hi_size=hi_size)
        kind = rng.choice(["dce", "ra", "ra-fixed"])
        if kind == "dce":
            pair = dce_with_ref(p, width)
        else:
            try:
                w = allocate(p, 2)
            except AllocationInfeasible:
                continue
            if kind == "ra-fixed":
                w, _ = fix_ra(w, width=width)
            pair = ra_with_ref(w, width)
        if plant and rng.random() < 0.5:
            pair = _planted(*pair, rng.choice(PLANTS))
        out.append(pair)
    return out


def _planted(wit, ref, what):
    """`wit` and `ref` with the same defect planted, on the runs whose first
    high cell is 1: every interval's first target or source leak becomes
    `if 3`, or its target or source end becomes the state it starts from."""
    from snicheck.semantics import l_if

    def plant(res, nu_src, nu_tgt):
        if nu_tgt[0].cell("hi", 0) != 1:
            return res
        out = []
        for iv in res.intervals:
            if what == "tgt-leak":
                iv = replace(iv, tgt_leaks=(l_if(3),) + iv.tgt_leaks[1:])
            elif what == "src-leak" and iv.src_leaks:
                iv = replace(iv, src_leaks=(l_if(3),) + iv.src_leaks[1:])
            elif what == "tgt-end":
                iv = replace(iv, end_tgt=nu_tgt)
            elif what == "src-end":
                iv = replace(iv, end_src=nu_src)
            out.append(iv)
        return ExtractResult(out, res.truncated)

    def planted(s, t, b, tables):
        return plant(wit.intervals(s, t, b, tables), tables[0].values[s], tables[1].values[t])

    def planted_ref(nu_src, nu_tgt, b):
        return plant(ref(nu_src, nu_tgt, b), nu_src, nu_tgt)

    return replace(wit, kind=what, intervals=planted), planted_ref


def _assert_cubes_agree(wit, ref, base, b):
    """`check_snippy_cube` from `base` passes exactly when the reference
    cube passes on every pair of its high assignments and the reference
    simulation from each.  A failed two-pair condition names an interval of
    its `pair` whose source directives replay with its source leaks from the
    `other` member's source, and whose signature that member lacks."""
    got = check_snippy_cube(wit, base, b)
    states = [s for s, in enumerate_high_states(wit.target, (base,), wit.width)]
    sims = [reference_check_simulation(wit, ref, t, b) for t in states]
    if all(v.ok for v in sims):
        assert got.ok == reference_check_snippy_cube(wit, ref, list(itertools.combinations(states, 2)), b).ok
    else:
        assert not got.ok, [v.reason for v in sims]
    if got.interval is not None:
        extract = ref_extract(wit, ref)
        iv, (o_src, o_tgt) = got.interval, got.other
        assert iv in extract(*got.pair, b).intervals
        run = run_directives(wit.source, o_src, list(iv.src_dirs), wit.width)
        assert run.status != "stuck" and run.leaks == iv.src_leaks
        assert iv.signature not in {o.signature for o in extract(o_src, o_tgt, b).intervals}
    return got


def _assert_simulations_agree(wit, ref, t0, b):
    """The whole verdict: status, counts, reason, pair and directive."""
    got = check_simulation(wit, t0, b)
    want = reference_check_simulation(wit, ref, t0, b)
    assert got == want
    assert got.report() == want.report()
    return got


def test_interval_builders_match_reference(rng):
    """The table-walking interval builders equal the reference builders,
    which step every state with `step_spec`: random DCE and RA witnesses at
    widths 2 and 8, on pairs reached by random interval walks, through one
    pair of tables per witness and through fresh ones.  Both are functions
    of any pair, so each reached pair also gets a twin whose target frames
    keep their pcs but take fresh values: on related pairs the source and
    the target agree on every register a DCE replay reads."""
    from snicheck.semantics import transition_table

    seen = Counter()
    for width in (2, 8):
        for wit, ref in _random_witnesses(rng, 200, width, plant=False):
            tables = transition_table(wit.source, width), transition_table(wit.target, width)
            b = Bounds(rng.randint(1, 12), rng.randint(1, 3))
            t = random_state(rng, wit.target, width)
            s = (wit.initial_map(t[0]),)
            for _step in range(12):
                if is_final(wit.target, t):
                    break
                got = extract_intervals(wit, s, t, b, tables)
                assert got == ref(s, t, b)
                if _step == 0:
                    assert extract_intervals(wit, s, t, b) == got
                seen[wit.kind, width] += 1
                seen["truncated"] += got.truncated > 0
                for iv in got.intervals:
                    seen["rollback"] += iv.tgt_dirs[-1] == D_RB and len(iv.tgt_dirs) > 1
                    seen["spec line"] += iv.tgt_dirs[0] == D_SPEC and len(iv.tgt_dirs) > 1
                    seen[wit.kind, "replayed"] += iv.src_dirs != iv.tgt_dirs
                twin = tuple(random_state(rng, wit.target, width)[0].at(f.pc) for f in t)
                got_twin = extract_intervals(wit, s, twin, b, tables)
                assert got_twin == ref(s, twin, b)
                seen[wit.kind, "twin replayed"] += any(iv.src_dirs != iv.tgt_dirs for iv in got_twin.intervals)
                if not got.intervals:
                    break
                iv = rng.choice(got.intervals)
                if len(iv.end_tgt) > 3:
                    break
                s, t = iv.end_src, iv.end_tgt
    assert all(seen[kind, width] >= 200 for kind in ("dce", "ra") for width in (2, 8)), seen
    assert seen["truncated"] >= 20 and seen["rollback"] >= 20 and seen["spec line"] >= 20, seen
    assert seen["dce", "replayed"] >= 5 and seen["ra", "replayed"] >= 20, seen
    assert seen["dce", "twin replayed"] >= 5, seen


def test_snippy_cube_tables_match_uncached_loop(rng):
    """The grouped walk is the pairwise cube plus the simulation from every
    high assignment: random DCE and RA witnesses, planted defects included,
    exhaustive over one or two high cells at width 2."""
    seen = Counter()
    for hi_size, count in ((1, 460), (2, 40)):
        for wit, ref in _random_witnesses(rng, count, hi_size=hi_size):
            base = random_state(rng, wit.target, width=2)[0]
            b = Bounds(rng.randint(6, 12), rng.randint(1, 3))
            v = _assert_cubes_agree(wit, ref, base, b)
            seen[wit.kind, v.status] += 1
            seen[hi_size, v.status] += 1
            seen["truncated"] += v.truncated > 0
            seen[v.reason] += 1
    assert seen["dce", "pass"] and seen["ra", "pass"] and seen["truncated"], seen
    assert all(seen[what, "fail"] >= 5 for what in PLANTS), seen
    assert seen[2, "pass"] >= 10 and seen[2, "fail"] >= 10, seen
    assert seen["ra", "fail"] >= 20 and seen["interval end not related"] >= 20, seen


def _corpus_witnesses():
    p = load_program("code_dce_w2_source.sp")
    w = w2_fixture("code_ra_w2_source.sp", "code_ra_w2_target.sp", "code_ra_w2.witness")
    fixed, _ = fix_ra(w, width=2)
    return dce_with_ref(p, 2), ra_with_ref(w, 2), ra_with_ref(fixed, 2)


def test_snippy_cube_tables_match_uncached_loop_on_corpus():
    dce, ra, fixed = _corpus_witnesses()
    cubes = [(dce, "code_dce_w2.init"), (ra, "code_ra_w2.init"), (fixed, "code_ra_w2.init")]
    assert [_assert_cubes_agree(*pair, w2_base(pair[0].target, init), Bounds(24, 2)).status
            for pair, init in cubes] == ["pass", "fail", "pass"]


def test_packed_source_low_equivalence_matches_the_lane_scan(rng):
    """`low_equivalent` of one packed source state, as `check_snippy_cube`
    asks it, agrees with the scan for packed values outside high cells: on
    the packed sources of random and corpus DCE, RA and fixed-RA cubes, and
    on those sources with the lanes of the first high cell also moved into
    a register or a low cell, as a mapping that leaks them would."""
    corpus = [(wit, w2_base(wit.target, init)) for (wit, _), init in
              zip(_corpus_witnesses(), ("code_dce_w2.init", "code_ra_w2.init", "code_ra_w2.init"))]
    randoms = [(wit, random_state(rng, wit.target, width=2)[0])
               for hi_size in (1, 2) for wit, _ in _random_witnesses(rng, 60, plant=False, hi_size=hi_size)]
    seen = Counter()
    for wit, base in corpus + randoms:
        targets = [t for t, in enumerate_high_states(wit.target, (base,), wit.width)]
        t0 = pack(targets)
        try:
            s0 = wit.initial_map(t0)
        except Divergent:
            s0 = pack([wit.initial_map(t) for t in targets])
        hi = next(v.name for v in wit.source.memvars if v.level == "high")
        lo = next(c for c in wit.source.cells() if wit.source.memvar(c[0]).level == "low")
        lanes = s0.cell(hi, 0)
        for what, s in (("mapped", s0), ("register", s0.with_reg("leak", lanes)), ("low cell", s0.with_cell(*lo, lanes))):
            got = low_equivalent(wit.source, s)
            assert got == ref_lanes_only_high(wit.source, s) == (what == "mapped"), (wit.kind, what)
            seen[wit.kind, what] += 1
    assert all(seen[kind, "mapped"] >= 4 for kind in ("dce", "ra")), seen


def test_unfixed_allocations_fail_the_two_pair_condition(rng):
    """Random programs shaped like the corpus attack, allocated with two
    registers and left unfixed, fail the two-pair condition itself on many
    cubes, from random initial values.  Every verdict agrees with the
    reference cube and equals the all-split walk's."""
    seen = Counter()
    while seen["cubes"] < 200:
        try:
            w = allocate(attack_program(rng), 2)
        except AllocationInfeasible:
            continue
        wit, ref = ra_with_ref(w, 2)
        base = random_state(rng, w.target, width=2)[0]
        b = Bounds(24, 2)
        got = _assert_cubes_agree(wit, ref, base, b)
        assert got == _all_split_cube(wit, base, b)
        seen["cubes"] += 1
        seen[got.status] += 1
        seen["two-pair"] += got.interval is not None
    assert seen["two-pair"] >= 20 and seen["pass"] >= 20, seen


def test_check_simulation_table_matches_uncached_loop(rng):
    """`check_simulation` reuses the intervals of a pair that comes back
    nearer; its verdicts equal the uncached loop's, planted failures and
    planted end states included."""
    statuses, seen = Counter(), Counter()
    for wit, ref in _random_witnesses(rng, 90):
        b = Bounds(rng.randint(6, 12), rng.randint(1, 3))
        for _ in range(3):
            got = _assert_simulations_agree(wit, ref, random_state(rng, wit.target, width=2)[0], b)
            statuses[got.status] += 1
            seen[wit.kind, got.status] += 1
            seen[got.reason] += 1
            seen["truncated"] += got.truncated > 0
    assert statuses["pass"] >= 20 and statuses["fail"] >= 5, statuses
    assert seen["dce", "pass"] and seen["ra", "pass"] and seen["truncated"], seen
    assert all(seen[what, "fail"] >= 2 for what in PLANTS), seen
    assert seen["interval target projection does not replay"] >= 4, seen
    assert seen["interval source projection does not replay"] >= 4, seen


def test_searches_keep_no_state_between_calls():
    """Calls in a row on different witnesses and bounds each equal the
    uncached loops, so no interned id or row outlives its call."""
    dce, ra, fixed = _corpus_witnesses()
    runs = [(dce, "code_dce_w2.init", Bounds(24, 2)), (ra, "code_ra_w2.init", Bounds(12, 3)),
            (fixed, "code_ra_w2.init", Bounds(24, 2)), (dce, "code_dce_w2.init", Bounds(8, 1)),
            (ra, "code_ra_w2.init", Bounds(24, 2))]
    statuses = []
    for (wit, ref), init, b in runs + runs[::-1]:
        base = w2_base(wit.target, init)
        statuses.append(_assert_cubes_agree(wit, ref, base, b).status)
        _assert_simulations_agree(wit, ref, base, b)
    assert statuses[:5] == ["pass", "fail", "pass", "pass", "fail"]


def test_searches_leave_no_reference_cycles():
    """A search call's tables are freed when it returns, not at the next run
    of the cyclic garbage collector, so they cannot pile up across calls."""
    w = w2_fixture("code_ra_w2_source.sp", "code_ra_w2_target.sp", "code_ra_w2.witness")
    wit = ra_witness(w, 2)
    base = load_state("code_ra_w2.init", wit.target, width=2)
    b = Bounds(24, 2)
    gc.collect()
    gc.disable()
    try:
        check_snippy_cube(wit, base[0], b)
        check_simulation(wit, base[0], b)
        check_sni(wit.target, base, PairSource("exhaustive"), b, width=2)
        explore_behaviors(wit.target, base, Bounds(12, 2), 2)
        assert extract_intervals(wit, (wit.initial_map(base[0]),), base, b).intervals
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- the packed walk against the all-split walk -------------------------------------


def _all_split(wit):
    """`wit` with an interval builder that raises Divergent on every packed
    pair, so every expansion of one splits it into its members."""

    def intervals(s, t, b, tables):
        if canonical((tables[0].values[s], tables[1].values[t]))[1] > 1:
            raise Divergent("every packed pair splits")
        return wit.intervals(s, t, b, tables)

    return replace(wit, intervals=intervals)


def _all_split_cube(wit, base, b):
    """`check_snippy_cube` on the all-split `wit`: a walk over members."""
    return check_snippy_cube(_all_split(wit), base, b)


def _count_splits(monkeypatch) -> Counter:
    """Counts the walk's splits of packed pairs ("splits") and the members
    they give ("members")."""
    splits = Counter()

    def counted(nus):
        lanes = unpack(nus)
        splits["splits"] += 1
        splits["members"] += len(lanes)
        return lanes

    monkeypatch.setattr(simulation, "unpack", counted)
    return splits


def test_packed_cube_equals_member_walk(rng, monkeypatch):
    """The walk that splits a packed pair only where it diverges or fails
    returns the all-split walk's whole verdict (status, counts, reason,
    pair, interval, other): random DCE and RA witnesses, planted defects
    included, at widths 2 and 3 over one or two high cells.  Some cubes must
    pass and fail without a split, and some after one."""
    splits, seen = _count_splits(monkeypatch), Counter()
    for width, hi_size, count in ((2, 1, 500), (2, 2, 80), (3, 1, 200), (3, 2, 30)):
        for wit, _ in _random_witnesses(rng, count, width, hi_size=hi_size):
            base = random_state(rng, wit.target, width)[0]
            b = Bounds(rng.randint(6, 12), rng.randint(1, 3))
            before = splits["splits"]
            got = check_snippy_cube(wit, base, b)
            route = "split" if splits["splits"] > before else "packed"
            want = _all_split_cube(wit, base, b)
            assert got == want and got.report() == want.report()
            seen[got.status, route] += 1
            seen[got.status, route, width, hi_size] += 1
            seen["truncated", route] += got.truncated > 0
    assert all(seen["pass", "packed", width, hi_size] >= 10 for width in (2, 3) for hi_size in (1, 2)), seen
    assert seen["pass", "packed"] >= 250 and seen["truncated", "packed"] >= 20, seen
    assert seen["pass", "split"] >= 5 and seen["fail", "split"] >= 100, seen


def test_packed_cube_keeps_the_low_equivalence_classes():
    """A program that never reads its registers, so no question diverges:
    an initial-state mapping that splits the class of a state's high
    assignments is still refused, because source lanes outside the high
    cells leave the cube to the member walk."""
    from snicheck.semantics import enabled_directives

    p = parse_program("mem h 1 high\nentry 0\n0: nop -> 1\n1: ret\n")

    def intervals(s, t, b, tables):
        nu_src, nu_tgt = tables[0].values[s], tables[1].values[t]
        out = []
        for d in enabled_directives(p, nu_tgt):
            rt, rs = run_directives(p, nu_tgt, [d]), run_directives(p, nu_src, [d])
            out.append(SimInterval((d,), rt.leaks, (d,), rs.leaks, rs.last, rt.last))
        return ExtractResult(out)

    keeps = SimWitness("keeps", p, p, lambda nu_tgt, nu_src: True, lambda t: t, intervals, width=1)
    splits = replace(keeps, initial_map=lambda t: t.with_reg("x", t.cell("h", 0)))
    base = State.make("0", {"z": 1})
    b = Bounds(8, 1)
    assert check_snippy_cube(keeps, base, b) == Verdict("pass", 2, 0)
    v = check_snippy_cube(splits, base, b)
    assert not v.ok and v.reason == "initial-state mapping does not respect levels"


# Two paths reach one member set in different lane orders: after `load x`
# from lo[0] (x = h) or from lo[1] (x = m - h, with m = 2**width - 1), the
# program zeroes everything else, so each path holds {x = v | every v}.
# `i` is out of bounds, so `load lo 0`, `load lo 1` and `load hi 0` each
# choose the loaded cell.
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
10: nop -> 11
11: nop -> 12
12: ret
"""


@pytest.mark.parametrize("width", [2, 3])
def test_packed_cube_memo_keys_member_sets(monkeypatch, width):
    """The all-split walk meets the zeroed state once, as one set of
    members, from all three loads; the packed walk must too, although the
    `lo 1` path holds its lanes in the reverse order."""
    p = parse_program(ORDERS_PROGRAM)
    wit = dce_witness(p, dce_transform(p, liveness(p)), width)
    base = State.make("0", {"i": 5, "m": (1 << width) - 1})
    splits = _count_splits(monkeypatch)
    b = Bounds(16, 1)
    got = check_snippy_cube(wit, base, b)
    assert not splits
    want = _all_split_cube(wit, base, b)
    assert got == want and got.ok
    # per member: 4 steps to the load and its 3 intervals; `lo 0` and `hi 0`
    # load the same x, so 2 paths of 5 steps to pc 10, and then 2 steps, once
    assert got.intervals_checked == (1 << width) * (4 + 3 + 2 * 5 + 2)


@pytest.mark.parametrize("width", [2, 3])
def test_a_split_path_and_a_packed_path_meet_at_one_member_set(monkeypatch, width):
    """`ORDERS_PROGRAM` with a witness that asks `x <= a` at pc 5: on the
    `lo 0` and `hi 0` paths x is a and every lane answers yes, but on the
    `lo 1` path x is m - a and the lanes differ, so that pair alone splits.
    Its members' ends are packed again, and at pc 10 that path's set of
    members is the packed path's, expanded once: the counts are the
    all-split walk's."""
    p = parse_program(ORDERS_PROGRAM)
    dce = dce_witness(p, dce_transform(p, liveness(p)), width)

    def intervals(s, t, b, tables):
        top = tables[1].values[t][-1]
        if top.pc == "5":
            _ = top.reg("x") <= top.reg("a")  # asked, and the answer dropped
        return dce.intervals(s, t, b, tables)

    wit = replace(dce, intervals=intervals)
    base = State.make("0", {"i": 5, "m": (1 << width) - 1})
    splits = _count_splits(monkeypatch)
    b = Bounds(16, 1)
    got = check_snippy_cube(wit, base, b)
    assert splits == {"splits": 1, "members": 1 << width}
    assert got == _all_split_cube(wit, base, b) and got.ok
    assert got.intervals_checked == (1 << width) * (4 + 3 + 2 * 5 + 2)


INSPECTIONS = {
    "arithmetic": lambda v: v + 1 > 2,
    "reflected arithmetic": lambda v: 3 - v > 1,
    "bits": lambda v: v & 1,
    "truth": lambda v: bool(v),
    "order": lambda v: v > 1,
    "index": lambda v: (0, 1, 1, 0)[v],
    "int": lambda v: int(v) == 2,
}


def _inspecting(wit, inspect, plants):
    """`wit` with an interval builder that inspects the target's first high
    cell with `INSPECTIONS[inspect]`; with `plants`, it drops every interval
    but the first where the inspection holds."""

    def intervals(s, t, b, tables):
        res = wit.intervals(s, t, b, tables)
        if INSPECTIONS[inspect](tables[1].values[t][0].cell("secret", 0)) and plants:
            return ExtractResult(res.intervals[:1], res.truncated)
        return res

    return replace(wit, intervals=intervals)


@pytest.mark.parametrize("plants", [False, True])
@pytest.mark.parametrize("inspect", list(INSPECTIONS))
def test_a_witness_that_inspects_values_falls_back(monkeypatch, inspect, plants):
    """An interval builder that computes on, or branches on, a high value
    gets Divergent from the packed value and not a TypeError; the pair is
    split into its members, and the cube gets the all-split walk's
    verdict.  With `plants`, the builder drops intervals, so it fails."""
    p = load_program("code_dce_w2_source.sp")
    inspecting = _inspecting(dce_witness(p, dce_transform(p, liveness(p)), width=2), inspect, plants)
    base = w2_base(inspecting.target, "code_dce_w2.init")
    splits = _count_splits(monkeypatch)
    got = check_snippy_cube(inspecting, base, Bounds(24, 2))
    assert splits["splits"] >= 1
    assert got == _all_split_cube(inspecting, base, Bounds(24, 2))
    assert got.ok != plants


def test_corpus_cubes_pass_on_the_packed_route_at_width_8(monkeypatch):
    """The DCE and the fixed RA corpus cubes at width 8 (256 members) pass
    without a split, with the all-split walk's counts."""
    p = load_program("code_dce_w2_source.sp")
    w = w2_fixture("code_ra_w2_source.sp", "code_ra_w2_target.sp", "code_ra_w2.witness")
    fixed, _ = fix_ra(w, width=8)
    b = Bounds(24, 2)
    for wit, init in ((dce_witness(p, dce_transform(p, liveness(p)), 8), "code_dce_w2.init"),
                      (ra_witness(fixed, 8), "code_ra_w2.init")):
        base = load_state(init, wit.target, width=8)[0]
        want = _all_split_cube(wit, base, b)
        with monkeypatch.context() as m:
            splits = _count_splits(m)
            got = check_snippy_cube(wit, base, b)
        assert not splits
        assert got == want and got.ok and got.intervals_checked > 0


def test_each_check_walks_once(monkeypatch):
    """`check_snippy_cube` and `check_simulation` each make one pair of
    tables, also when packed pairs split: on the unfixed RA corpus cube at
    width 8, which fails after splits, and with a witness that inspects
    high values."""
    made = []
    witness_tables = simulation.witness_tables
    monkeypatch.setattr(simulation, "witness_tables", lambda wit: made.append(wit) or witness_tables(wit))
    w = w2_fixture("code_ra_w2_source.sp", "code_ra_w2_target.sp", "code_ra_w2.witness")
    ra = ra_witness(w, 8)
    p = load_program("code_dce_w2_source.sp")
    truth = _inspecting(dce_witness(p, dce_transform(p, liveness(p)), width=2), "truth", True)
    for wit, base, status in ((ra, load_state("code_ra_w2.init", ra.target, width=8)[0], "fail"),
                              (truth, w2_base(truth.target, "code_dce_w2.init"), "fail")):
        with monkeypatch.context() as m:
            splits = _count_splits(m)
            assert check_snippy_cube(wit, base, Bounds(24, 2)).status == status
        assert splits["splits"] >= 1 and made == [wit]
        made.clear()
        check_simulation(wit, base, Bounds(24, 2))
        assert made == [wit]
        made.clear()
