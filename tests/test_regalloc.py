import re
from collections import Counter

import pytest

from snicheck.ir import Fill, Program, Spill, parse_program, print_program
from snicheck.regalloc import (
    AllocationInfeasible,
    RAWitness,
    allocate,
    analyze_structure,
    is_slot,
    parse_ra_witness,
    serialize_ra_witness,
    validate_ra,
)
from snicheck.cli import corpus_path
from snicheck.poison import fix_ra

from conftest import load_program, load_state, random_program


def test_bundled_witness_validates(ra_witness):
    assert validate_ra(ra_witness) == []
    st = analyze_structure(ra_witness)
    assert st.chains[("1", 0)] == ["b"]  # the spill sits between the compare and the branch
    assert st.chains[("2", 0)] == ["e"]  # the fill sits on the fall-through edge
    assert ra_witness.rho["c"]["bytes"] == ("stk", 0)
    assert ra_witness.rho["f"]["bytes"] == "a"


def test_witness_mutation_unmapped_live_register(ra_witness):
    rho = {pc: dict(m) for pc, m in ra_witness.rho.items()}
    del rho["f"]["bytes"]
    w = RAWitness(ra_witness.source, ra_witness.target, dict(ra_witness.phi), rho)
    diags = validate_ra(w)
    assert any(d.kind == "obeying-liveness" and "bytes" in d.message for d in diags)


def test_out_of_range_slot_reported_at_every_pc(ra_witness):
    """A slot outside `stk` is reported at every pc that holds it, not only
    at the first map where `validate_ra` meets it."""
    from conftest import ref_validate_ra

    rho = {pc: {r: ("stk", 3) if loc == ("stk", 0) else loc for r, loc in m.items()} for pc, m in ra_witness.rho.items()}
    w = RAWitness(ra_witness.source, ra_witness.target, dict(ra_witness.phi), rho)
    diags = validate_ra(w)
    assert sum(d.message == "slot 3 outside stk size 1" for d in diags) >= 2
    assert diags == ref_validate_ra(w)


def test_witness_mutation_spill_to_occupied_slot(ra_witness):
    # park another live register in the slot the spill writes
    rho = {pc: dict(m) for pc, m in ra_witness.rho.items()}
    for pc in ("z", "a", "b"):
        rho.setdefault(pc, dict(rho["z"]))
    rho["z"]["secret"] = ("stk", 0)
    rho["a"]["secret"] = ("stk", 0)
    rho["b"]["secret"] = ("stk", 0)
    w = RAWitness(ra_witness.source, ra_witness.target, dict(ra_witness.phi), rho)
    diags = validate_ra(w)
    assert any(d.kind == "shuffle-conformity" and "free" in d.message for d in diags)


def _corrupted(rng, w):
    """`w` with one random change to phi or rho, or unchanged."""
    phi, rho = dict(w.phi), {pc: dict(m) for pc, m in w.rho.items()}
    pc = rng.choice(sorted(rho))
    kind = rng.randrange(5)
    if kind == 0 and rho[pc]:
        del rho[pc][rng.choice(sorted(rho[pc]))]
    elif kind == 1 and rho[pc]:
        r = rng.choice(sorted(rho[pc]))
        rho[pc][r] = rng.choice([*sorted({x for x in rho[pc].values() if isinstance(x, str)}), ("stk", 0), ("stk", 9)])
    elif kind == 2:
        s_pc = rng.choice(sorted(phi))
        phi[s_pc] = rng.choice(sorted(w.target.instrs))
    elif kind == 3:
        del rho[pc]
    return RAWitness(w.source, w.target, phi, rho)


def test_validate_ra_with_precomputed_facts(rng):
    """Passing live registers, structure and live relocations, as a `Product`
    does, gives the same diagnostics as computing them.  A valid witness
    passes with a `Product`'s own facts; an invalid one is refused when its
    `Product` is built, with the first diagnostic."""
    import re

    from snicheck.poison import Product
    from snicheck.regalloc import rho_live, source_live_regs

    checked = flagged = 0
    while checked < 300:
        p = random_program(rng, n_instrs=rng.randint(2, 10), n_regs=rng.randint(1, 4), allow_shuffle=True)
        try:
            w = _corrupted(rng, allocate(p, rng.randint(2, 3)))
        except AllocationInfeasible:
            continue
        want = validate_ra(w)
        live = source_live_regs(w)
        st = analyze_structure(w)
        rl = None if st.errors else rho_live(w, st, live)
        assert validate_ra(w, live, st, rl) == want
        if not want:
            prod = Product(w)
            assert validate_ra(w, prod.live, prod.st, prod.rho) == []
        else:
            with pytest.raises(ValueError, match=re.escape(f"invalid witness: {want[0]}")):
                Product(w)
        checked += 1
        flagged += bool(want)
    assert flagged >= 100


def _field_swapped(rng, w):
    """`w` with one target instruction changed: a matched one with a single
    successor may become a `nop` or `sfence`; otherwise one field other than
    a successor takes another register, operator, variable, address or slot."""
    from dataclasses import replace

    from snicheck.ir import OPS, Nop, Program, Sfence

    tgt = w.target
    pc = rng.choice(tgt.pcs())
    i = tgt.instrs[pc]
    k = i.kind
    fields = [f for f in k.fields if f not in k.succs]
    if pc in w.phi.values() and len(k.succs) == 1 and (not fields or rng.random() < 0.2):
        new = rng.choice((Nop, Sfence))(i.successors()[0])
    elif fields:
        f = rng.choice(fields)
        regs = sorted({*tgt.registers, *w.source.registers, "h9"})
        values = {"op": OPS, "var": [v.name for v in tgt.memvars], "slot": [0, 1], "addr": [0, 1, *regs]}
        new = replace(i, **{f: rng.choice(values.get(f, regs))})
    else:
        return w
    return RAWitness(w.source, Program(tgt.entry, {**tgt.instrs, pc: new}, list(tgt.memvars)), w.phi, w.rho)


def test_validate_ra_matches_per_kind_reference(rng):
    """Matching and shuffle conformity read from `ir.KINDS` give the same
    diagnostics, in the same order, as one hand-written rule per kind; and
    the per-register scans that `validate_ra` runs only where a cheap check
    fails find what the reference's full scans find.  Each scan is reached:
    an unmapped live register, two registers at one location, a slot beyond
    `stk`, and a register that moves without a shuffle."""
    from collections import Counter

    from conftest import ref_validate_ra

    checked, seen = 0, Counter()
    scans = {"unmapped": "unmapped", "both at": "shared", "outside stk": "slot", "without a shuffle": "moved"}
    while checked < 2000:
        p = random_program(rng, n_instrs=rng.randint(2, 10), n_regs=rng.randint(1, 4), allow_shuffle=True)
        try:
            w = allocate(p, rng.randint(2, 3))
        except AllocationInfeasible:
            continue
        if rng.random() < 0.7:
            w = _corrupted(rng, w)
        if rng.random() < 0.6:
            w = _field_swapped(rng, w)
        want = ref_validate_ra(w)
        assert validate_ra(w) == want, print_program(w.target) + serialize_ra_witness(w)
        for d in want:
            words = d.message.split()
            if "mismatch" in words or "relocates" in words or "differ:" in words:
                seen[words[0], words[-1]] += 1
            seen.update(name for text, name in scans.items() if text in d.message)
        checked += 1
    for name in ("assign", "load", "store", "branch", "slh", "move"):
        assert seen[name, "relocation"] >= 20, seen
    assert seen["instruction", "Nop"] + seen["instruction", "Sfence"] >= 20, seen
    assert seen["fill", "register"] >= 10 and seen["spill", "register"] >= 10 and seen["move", "register"] >= 1, seen
    assert all(seen[name] >= 10 for name in scans.values()), seen


_SHUFFLE_SOURCE = "mem m 1 low\nentry 0\n0: nop -> 1\n1: z = x add y -> 2\n2: ret\n"
_SHUFFLE_TARGET = "mem m 1 low\nmem stk 1 low\nentry 0\n0: {first} -> s\ns: {shuffle} -> 1\n1: z = x add y -> 2\n2: ret\n"


@pytest.mark.parametrize("first, shuffle, rho, message", [
    ("nop", "move y <- x", "rho s: x -> x\nrho s: y -> y\nrho 1: x -> y\nrho 1: y -> y", "move target y is not free"),
    ("nop", "fill y <- stk#0", "rho s: x -> stk#0\nrho s: y -> y\nrho 1: x -> y\nrho 1: y -> y", "fill target y is not free"),
    ("nop", "spill stk#0 <- x", "rho s: x -> x\nrho s: y -> stk#0\nrho 1: x -> stk#0\nrho 1: y -> stk#0",
     "spill slot stk#0 is not free"),
    ("nop", "slh x", "rho s: x -> x\nrho s: y -> y\nrho 1: x -> y\nrho 1: y -> x", "slh register x must stay allocated in place"),
    ("sfence", "sfence", "", "instruction kinds differ: Nop vs Sfence"),
])
def test_planted_shuffle_and_kind_diagnostics(first, shuffle, rho, message):
    """Each message that random witnesses do not reach, planted once and
    checked against the per-kind reference."""
    from conftest import ref_validate_ra

    src = parse_program(_SHUFFLE_SOURCE)
    tgt = parse_program(_SHUFFLE_TARGET.format(first=first, shuffle=shuffle))
    w = parse_ra_witness("phi: 0 -> 0\nphi: 1 -> 1\nphi: 2 -> 2\n" + rho, src, tgt)
    diags = validate_ra(w)
    assert message in [d.message for d in diags]
    assert diags == ref_validate_ra(w)


def test_source_fill_matches_nothing():
    """A fill or spill in source code is a kind mismatch even against the
    same instruction."""
    from snicheck import ir
    from conftest import ref_validate_ra

    instrs = {"0": Fill("x", 0, "1"), "1": ir.Exit()}
    src = ir.Program("0", instrs, [])
    tgt = ir.Program("0", instrs, [ir.MemVar("stk", 1, "low")])
    w = RAWitness(src, tgt, {"0": "0", "1": "1"}, {"0": {}, "1": {}})
    diags = validate_ra(w)
    assert [d.message for d in diags] == ["instruction kinds differ: Fill vs Fill"]
    assert diags == ref_validate_ra(w)


def test_witness_mutation_instruction_mismatch(ra_witness):
    rho = {pc: dict(m) for pc, m in ra_witness.rho.items()}
    rho["f"]["bytes"] = "b"  # branch at f reads a, not b
    w = RAWitness(ra_witness.source, ra_witness.target, dict(ra_witness.phi), rho)
    diags = validate_ra(w)
    assert any(d.kind == "instruction-matching" and "f" in d.pcs for d in diags)


def test_witness_structure_rejects_bad_phi(ra_witness):
    phi = dict(ra_witness.phi)
    phi["4"] = "g"  # collides with phi[5]
    w = RAWitness(ra_witness.source, ra_witness.target, phi, ra_witness.rho)
    assert any(d.kind == "structure" for d in validate_ra(w))


def test_allocate_identity_for_tiny_program():
    p = parse_program("mem m 2 low\nentry 0\n0: x = x add x -> 1\n1: ret\n")
    w = allocate(p, 8)
    assert validate_ra(w) == []
    assert w.rho[w.phi["0"]] == {"x": "x"}
    shuffles = [pc for pc in w.target.instrs if pc not in w.phi.values()]
    assert shuffles == []


RA5 = """
mem buf 8 low
entry 1
1: a = b lt bufsize -> 2
2: if a ? 4 : 3
3: store buf[b] <- secret -> 4
4: if bytes ? 5 : 5
5: ret
"""


def test_allocate_forced_spill_shape():
    """With three hardware registers, one of the two long-lived registers is
    parked on the stack across the branch and filled right before its use."""
    p = parse_program(RA5)
    w = allocate(p, 3)
    assert validate_ra(w) == []
    from snicheck.ir import uses_defs

    parked = [r for r, loc in w.rho[w.phi["2"]].items() if is_slot(loc)]
    assert parked, "register pressure must push something onto the stack"
    fills = [i for i in w.target.instrs.values() if isinstance(i, Fill)]
    assert fills, "the parked register must be filled before its use"
    for r in parked:
        use_pcs = [pc for pc, i in p.instrs.items() if r in uses_defs(i)[0]]
        for pc in use_pcs:
            assert isinstance(w.rho[w.phi[pc]][r], str), f"{r} must be back in a register at {pc}"
    assert w.target.memvar("stk") is not None


def test_allocate_infeasible_when_k_too_small():
    p = parse_program("entry 0\n0: a = b add c -> 1\n1: x = a add b -> 2\n2: if c ? 3 : 3\n3: if x ? 4 : 4\n4: ret\n")
    with pytest.raises(AllocationInfeasible):
        allocate(p, 2)


def test_allocate_cost_does_not_grow_with_k():
    """A k beyond the source registers names no more hardware registers, so
    it allocates exactly what k = 3 does, in memory that does not grow with
    k (padding the names up to k took 7.5 MiB at k = 10**5)."""
    import tracemalloc

    p = parse_program(
        "mem m 2 low\nentry 0\n0: load a <- m[#0] -> 1\n1: b = a add a -> 2\n2: store m[#1] <- b -> 3\n3: ret\n"
    )
    small = allocate(p, 3)
    tracemalloc.start()
    try:
        big = allocate(p, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert print_program(big.target) == print_program(small.target)
    assert serialize_ra_witness(big) == serialize_ra_witness(small)
    assert peak < 1 << 20


def test_allocate_random_programs_validate(rng):
    """Allocator output always passes witness validation."""
    done = 0
    for _ in range(1000):
        p = random_program(rng, n_instrs=rng.randint(3, 7), n_regs=rng.randint(2, 4))
        k = rng.randint(2, 4)
        try:
            w = allocate(p, k)
        except AllocationInfeasible:
            continue
        diags = validate_ra(w)
        assert diags == [], f"{print_program(p)} k={k}: {[str(d) for d in diags]}"
        done += 1
    assert done >= 600


CHAIN_LABEL_CLASH = """
mem lo 3 low
mem hi 1 high
entry 0
0: r2 = r1 and r2 -> 1
1: nop -> 2
2: load r2 <- lo[r1] -> 3
3: slh r2 -> 4
4: r2 = r0 or r2 -> 5
5: nop -> 3.0.0
3.0.0: ret
"""


def test_allocate_chain_labels_skip_source_pcs():
    """The fill on the edge 3 -> 4 would be labelled 3.0.0, which the source
    already uses; it used to replace the source's `ret` there, so 3 jumped
    straight to the end."""
    p = parse_program(CHAIN_LABEL_CLASH)
    w = allocate(p, 2)
    assert validate_ra(w) == []
    assert w.target.instrs["3.0.0"] == p.instrs["3.0.0"]
    assert isinstance(w.target.instrs["3.0.0_"], Fill) and w.target.instrs["3.0.0_"].succ == "4"


def _relabelled(rng, p):
    """`p` with some pcs renamed to dotted labels that chain labels may take."""
    from dataclasses import replace

    pcs = p.pcs()
    ren = {pc: pc for pc in pcs}
    for pc in rng.sample(pcs, rng.randint(1, len(pcs))):
        label = f"{rng.choice(pcs)}.{rng.randint(0, 1)}.0"
        if label not in ren.values():
            ren[pc] = label
    instrs = {ren[pc]: replace(i, **{f: ren[getattr(i, f)] for f in i.kind.succs}) for pc, i in p.instrs.items()}
    return Program(ren[p.entry], instrs, list(p.memvars))


def test_allocate_dotted_source_labels_validate(rng):
    """Source pcs that look like chain labels never lose their instruction."""
    done = extended = 0
    for _ in range(600):
        p = _relabelled(rng, random_program(rng, n_instrs=rng.randint(3, 7), n_regs=rng.randint(3, 4)))
        k = rng.randint(2, 3)
        try:
            w = allocate(p, k)
        except AllocationInfeasible:
            continue
        assert validate_ra(w) == [], print_program(p)
        done += 1
        extended += any(pc.endswith("_") for pc in w.target.instrs)
    assert done >= 300 and extended >= 10, (done, extended)


def test_allocate_programs_with_moves_validate(rng):
    """Sources with `move` instructions allocate without a traceback, and every
    witness returned passes validation."""
    done = 0
    for _ in range(600):
        p = random_program(rng, n_instrs=rng.randint(2, 10), n_regs=rng.randint(1, 4), allow_shuffle=True)
        k = rng.randint(2, 3)
        try:
            w = allocate(p, k)
        except AllocationInfeasible:
            continue
        diags = validate_ra(w)
        assert diags == [], f"{print_program(p)} k={k}: {[str(d) for d in diags]}"
        done += 1
    assert done >= 500


def test_allocate_dead_move():
    """The source of a move whose destination is dead is still live before it,
    so the allocator has a location to read it from."""
    p = parse_program("entry 0\n0: move r1 <- r2 -> 1\n1: ret\n")
    w = allocate(p, 2)
    assert validate_ra(w) == []
    assert w.rho["0"] == {"r2": "r1"}


def test_matched_move_is_checked_by_instruction_matching():
    """A source move is matched, not shuffle code: reading the wrong register
    is an instruction-matching error."""
    from snicheck.ir import Move

    p = parse_program("mem m 1 low\nentry 0\n0: move r1 <- r2 -> 1\n1: store m[#0] <- r1 -> 2\n2: ret\n")
    w = allocate(p, 2)
    assert validate_ra(w) == []
    assert w.target.instrs["0"] == Move("r1", "r1", "1")  # r2 lives in r1
    bad = dict(w.target.instrs)
    bad["0"] = Move("r1", "r2", "1")
    diags = validate_ra(RAWitness(p, type(w.target)(w.target.entry, bad, list(w.target.memvars)), w.phi, w.rho))
    assert [d.kind for d in diags] == ["instruction-matching"]


def test_allocated_target_round_trips_as_text(rng):
    for _ in range(50):
        p = random_program(rng, n_instrs=5)
        try:
            w = allocate(p, 3)
        except AllocationInfeasible:
            continue
        assert parse_program(print_program(w.target)) == w.target


def test_spec_free_refinement_modulo_shuffle_leaks(rng):
    """Running source and target architecturally from relocation-related
    states yields the same leak trace once fill/spill leaks are dropped."""
    from snicheck.poison import Product
    from snicheck.security import check_safety
    from snicheck.semantics import D_IF, D_STEP, State, step_spec
    from snicheck.ir import Exit, If, Fill, Spill

    def arch_trace(p, s, skip_shuffle):
        out = []
        for _ in range(64):
            i = p.instrs[s.pc]
            if isinstance(i, Exit):
                return out, True
            d = D_IF if isinstance(i, If) else D_STEP
            r = step_spec(p, (s,), d)
            if r is None:
                return out, False
            (s2,), leak = r
            if not (skip_shuffle and isinstance(i, (Fill, Spill))):
                out.append(leak)
            s = s2
        return out, True

    done = 0
    for _ in range(300):
        p = random_program(rng, n_instrs=rng.randint(3, 6))
        try:
            w = allocate(p, 3)
        except AllocationInfeasible:
            continue
        prod = Product(w)
        from conftest import random_state

        tgt0 = random_state(rng, w.target)[0]
        if check_safety(w.source, prod.initial_source_state(tgt0)).status != "safe":
            continue
        src_leaks, src_done = arch_trace(w.source, prod.initial_source_state(tgt0), False)
        tgt_leaks, tgt_done = arch_trace(w.target, tgt0, True)
        assert src_done and tgt_done
        assert src_leaks == tgt_leaks
        done += 1
    assert done >= 50


def test_witness_round_trip(ra_witness, rng):
    text = serialize_ra_witness(ra_witness)
    again = parse_ra_witness(text, ra_witness.source, ra_witness.target)
    assert again.phi == ra_witness.phi and again.rho == ra_witness.rho

    fixed = 0
    for _ in range(80):
        p = random_program(rng, n_instrs=rng.randint(3, 14), n_regs=rng.randint(2, 4))
        try:
            w = allocate(p, rng.choice((2, 3)))
        except AllocationInfeasible:
            continue
        w_fix, report = fix_ra(w)
        fixed += bool(report.insertions)
        for x in (w, w_fix):
            again = parse_ra_witness(serialize_ra_witness(x), p, parse_program(print_program(x.target)))
            assert again.phi == x.phi and again.rho == x.rho
    assert fixed >= 10


def test_witness_parse_errors(ra_source, ra_target):
    with pytest.raises(ValueError, match="unknown target pc"):
        parse_ra_witness("phi: 0 -> nowhere\n", ra_source, ra_target)
    with pytest.raises(ValueError, match="malformed"):
        parse_ra_witness("rho z: bytes ->\n", ra_source, ra_target)


def test_witness_line_grammar_reads_as_the_line_reader(monkeypatch, rng):
    """A line the witness line grammar covers reads as the per-line reader
    reads it: on mutated witnesses, including ones with other whitespace,
    `parse_ra_witness` gives the same witness or the same error with the
    grammar switched off."""
    from snicheck import regalloc

    from conftest import MUTATION_TOKENS, mutate_text

    def parse(text, src, tgt):
        try:
            w = parse_ra_witness(text, src, tgt)
        except ValueError as e:
            return str(e)
        return w.phi, w.rho

    cases = [tuple(corpus_path(f"code_ra{v}{n}").read_text() for n in ("_source.sp", "_target.sp", ".witness"))
             for v in ("", "_w2")]
    cases = [(parse_program(s), parse_program(t), w) for s, t, w in cases]
    tokens = (*MUTATION_TOKENS, " ", "\t", ":", "\u00a0", "0", "rho ", "phi: ")
    kinds = Counter()
    for _ in range(1500):
        src, tgt, text = rng.choice(cases)
        text = mutate_text(rng, text, tokens)
        got = parse(text, src, tgt)
        with monkeypatch.context() as m:
            m.setattr(regalloc, "_WITNESS_LINE", re.compile("(?!)"))
            assert parse(text, src, tgt) == got, text
        kinds[isinstance(got, str)] += 1
    assert kinds[True] >= 300 and kinds[False] >= 300, kinds


_JOIN_SOURCE = "entry a\na: if c ? b : b\nb: ret\n"
_JOIN_TARGET = "mem stk 1 low\nentry a\na: if c ? m1 : m2\nm1: nop -> b\nm2: nop -> b\nb: ret\n"


@pytest.mark.parametrize("text, message", [
    ("phi: a -> a\n\nphi a -> a\n", "line 3: cannot parse 'phi a -> a'"),
    ("phi: a -> a -> b\n", "line 1: bad phi entry"),
    ("phi: a a\n", "line 1: bad phi entry"),
    ("phi: m1 -> a\n", "line 1: unknown source pc m1"),
    ("  # comment\nphi: a -> nowhere  # trailing\n", "line 2: unknown target pc nowhere"),
    ("rho q: c -> c\n", "line 1: unknown target pc q"),
    ("rho a:\nrho b: c\n", "line 2: malformed relocation entry"),
    ("rho a: -> c\n", "line 1: malformed relocation entry"),
    ("rho a: c ->\n", "line 1: malformed relocation entry"),
    ("rho a: c -> stk#0 -> c\n", "line 1: malformed relocation entry"),
    ("phi: a -> a\nrho a: c -> stk#x\n", "line 2: bad slot stk#x"),
    ("rho m1: c -> c\nrho m2: c -> stk#0\n", "rho for b inherited from disagreeing predecessors; add an explicit section"),
])
def test_witness_parse_errors_name_the_line(text, message):
    src, tgt = parse_program(_JOIN_SOURCE), parse_program(_JOIN_TARGET)
    with pytest.raises(ValueError) as e:
        parse_ra_witness(text, src, tgt)
    assert str(e.value) == message


def test_witness_inherited_maps():
    """A pc with no section inherits from its predecessors when they agree,
    and an explicit section wins over a disagreement."""
    src, tgt = parse_program(_JOIN_SOURCE), parse_program(_JOIN_TARGET)
    w = parse_ra_witness("rho m1: c -> d\nrho m2: c -> d\n", src, tgt)
    assert w.rho == {"a": {"c": "c"}, "m1": {"c": "d"}, "m2": {"c": "d"}, "b": {"c": "d"}}
    w = parse_ra_witness("rho m1: c -> c\nrho m2: c -> stk#0\nrho b:\n", src, tgt)
    assert w.rho["b"] == {}


def test_serialize_orders_maps_over_other_pcs():
    """Maps that do not cover exactly the program's pcs are written in pc
    order too."""
    src, tgt = parse_program(_JOIN_SOURCE), parse_program(_JOIN_TARGET)
    w = RAWitness(src, tgt, {"b": "b", "a": "a"}, {"m1": {"c": "d"}, "b": {}, "zz": {"c": ("stk", 0)}})
    assert serialize_ra_witness(w) == "phi: a -> a\nphi: b -> b\nrho b:\nrho m1: c -> d\nrho zz: c -> stk#0\n"


def test_witness_empty_rho_defaults_to_identity(ra_source, ra_target):
    text = "\n".join(f"phi: {s} -> {t}" for s, t in
                     (("0", "z"), ("1", "a"), ("2", "c"), ("3", "d"), ("4", "f"), ("5", "g")))
    w = parse_ra_witness(text, ra_source, ra_target)
    ident = {r: r for r in ra_source.registers}
    assert all(w.rho[pc] == ident for pc in ra_target.instrs)


def test_long_straight_line_program_allocates_and_fixes():
    """A 1500-instruction chain is deeper than the interpreter's recursion
    limit; allocation, validation and repair must not recurse on it."""
    from snicheck import ir
    from snicheck.poison import fix_ra

    regs = ["a", "b", "c", "d", "e"]
    n = 1500
    instrs = {}
    for k in range(n - 1):
        r1, r2, r3 = regs[k % 5], regs[(k + 1) % 5], regs[(k + 3) % 5]
        succ = str(k + 1)
        instrs[str(k)] = [
            ir.Asgn(r1, r2, "add", r3, succ),
            ir.Load(r1, "m", k % 4, succ),
            ir.Store("m", (k + 1) % 4, r2, succ),
        ][k % 3]
    instrs[str(n - 1)] = ir.Exit()
    p = ir.Program("0", instrs, [ir.MemVar("m", 4, "low")])
    w = allocate(p, 3)
    assert validate_ra(w) == []
    fixed, report = fix_ra(w)
    assert report.insertions == [] and fixed is w


def _reverse_postorder_recursive(p):
    seen, order = set(), []

    def dfs(pc):
        seen.add(pc)
        for s in p.instrs[pc].successors():
            if s not in seen:
                dfs(s)
        order.append(pc)

    dfs(p.entry)
    for pc in p.pcs():
        if pc not in seen:
            dfs(pc)
    return order[::-1]


def test_reverse_postorder_matches_recursive_dfs(rng):
    """The allocator's visit order: from the entry, then from each pc it did
    not reach."""
    from snicheck.dataflow import reverse_postorder

    for _ in range(200):
        p = random_program(rng, n_instrs=rng.randint(2, 12))
        succs = {pc: i.successors() for pc, i in p.instrs.items()}
        assert reverse_postorder([p.entry, *p.pcs()], succs) == _reverse_postorder_recursive(p)


def test_next_use_is_shortest_distance_to_a_use(rng):
    """`_next_use` gives, per pc and register, the length of a shortest path
    along control flow to an instruction that reads the register, found
    here by a forward breadth-first search from each pc; 1 << 30 when no
    such instruction is reachable.  Sources of up to 40 instructions, with
    moves and branches back (loops), and their allocated targets, whose
    shuffle chains add fills, spills and moves."""
    from collections import deque

    from snicheck.ir import uses_defs
    from snicheck.regalloc import _next_use

    programs, targets = [], []
    while len(programs) < 150:
        p = random_program(rng, n_instrs=rng.randint(2, 40), n_regs=rng.randint(1, 4), allow_shuffle=rng.random() < 0.5)
        programs.append(p)
        try:
            t = allocate(p, rng.randint(2, 3)).target
        except AllocationInfeasible:
            continue
        if len(t.instrs) <= 40:
            targets.append(t)
    assert sum(any(i.kind.mnemonic == "fill" for i in t.instrs.values()) for t in targets) >= 10
    programs += targets
    for p in programs:
        nxt = _next_use(p)
        for r in p.registers:
            for start in p.instrs:
                want, seen, todo = 1 << 30, {start}, deque([(start, 0)])
                while todo:
                    pc, d = todo.popleft()
                    if r in uses_defs(p.instrs[pc])[0]:
                        want = d
                        break
                    for s in p.instrs[pc].successors():
                        if s not in seen:
                            seen.add(s)
                            todo.append((s, d + 1))
                assert nxt[start][r] == want
