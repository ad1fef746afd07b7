import random
from dataclasses import dataclass

import pytest

from snicheck.cli import corpus_path
from snicheck.ir import parse_program
from snicheck.semantics import parse_initial_state


def load_program(name: str):
    return parse_program(corpus_path(name).read_text())


def load_state(name: str, prog, width=8):
    return parse_initial_state(corpus_path(name).read_text(), prog, width)


@pytest.fixture
def ra_source():
    return load_program("code_ra_source.sp")


@pytest.fixture
def ra_target():
    return load_program("code_ra_target.sp")


@pytest.fixture
def ra_witness(ra_source, ra_target):
    from snicheck.regalloc import parse_ra_witness

    return parse_ra_witness(corpus_path("code_ra.witness").read_text(), ra_source, ra_target)


@pytest.fixture
def dce_source():
    return load_program("code_dce_source.sp")


@pytest.fixture
def rng():
    return random.Random(20240817)


# --- random generators shared across property tests ---------------------------


def random_program(rng: random.Random, n_instrs=6, n_regs=3, allow_shuffle=False, hi_size=1):
    """Small valid program over a couple of memory variables, the high one
    of `hi_size` cells."""
    from snicheck import ir

    regs = [f"r{i}" for i in range(n_regs)]
    memvars = [ir.MemVar("lo", rng.randint(1, 3), "low"), ir.MemVar("hi", hi_size, "high")]
    pcs = [str(i) for i in range(n_instrs)]
    instrs = {}
    for idx, pc in enumerate(pcs[:-1]):
        succ = pcs[idx + 1]
        other = rng.choice(pcs)
        kind = rng.randrange(8 if not allow_shuffle else 10)
        r = lambda: rng.choice(regs)
        var = rng.choice(memvars).name
        size = next(v.size for v in memvars if v.name == var)
        if kind == 0:
            instrs[pc] = ir.Nop(succ)
        elif kind in (1, 2):
            instrs[pc] = ir.Asgn(r(), r(), rng.choice(ir.OPS), r(), succ)
        elif kind == 3:
            addr = rng.randrange(size) if rng.random() < 0.4 else r()
            instrs[pc] = ir.Load(r(), var, addr, succ)
        elif kind == 4:
            addr = rng.randrange(size) if rng.random() < 0.4 else r()
            instrs[pc] = ir.Store(var, addr, r(), succ)
        elif kind == 5:
            instrs[pc] = ir.If(r(), succ, other)
        elif kind == 6:
            instrs[pc] = ir.Sfence(succ)
        elif kind == 7:
            instrs[pc] = ir.Slh(r(), succ)
        elif kind == 8:
            instrs[pc] = ir.Move(r(), r(), succ)
        else:
            instrs[pc] = ir.Nop(succ)
    instrs[pcs[-1]] = ir.Exit()
    p = ir.Program(pcs[0], instrs, memvars)
    assert not ir.validate_program(p)
    return p


def attack_program(rng: random.Random):
    """A program shaped like the corpus attack, with random register roles:
    a secret loaded into a register, a bounds check of an index, a branch on
    it around a store of the secret through the index, and a branch on a
    register `x` that is read again only after the store.  The secret, the
    index and `x` are live across the store, more than the two registers of
    `allocate(p, 2)`, so some are spilled, and a mispredicted out-of-bounds
    store may overwrite the slot that `x` is reloaded from."""
    regs = [f"r{i}" for i in range(rng.randint(6, 7))]
    rng.shuffle(regs)
    sec, i, n, ok, x, *extra = regs
    lines = ["mem hi 1 high", f"mem lo {rng.randint(1, 2)} low", "entry 0",
             f"0: load {sec} <- hi[#0] -> 1", f"1: {ok} = {i} lt {n} -> 2", f"2: if {ok} ? 4 : 3",
             f"3: store lo[{i}] <- {sec} -> 4"]
    pc = 4
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(["add", "or", "sub"])
        lines.append(f"{pc}: {rng.choice(extra)} = {rng.choice(extra)} {op} {rng.choice([x, *extra])} -> {pc + 1}")
        pc += 1
    lines += [f"{pc}: if {x} ? {pc + 1} : {pc + 1}", f"{pc + 1}: ret"]
    return parse_program("\n".join(lines) + "\n")


# what the text readers treat specially: the comment and slot markers, the
# arrow, a bare carriage return (a line break once read) and a non-ASCII letter
MUTATION_TOKENS = ("#", "stk#", "->", "\r", "é")


def mutate_text(rng: random.Random, text: str, tokens=MUTATION_TOKENS) -> str:
    """`text` after one or two edits, each inserting or deleting one of
    `tokens` or deleting a run of characters."""
    for _ in range(rng.randint(1, 2)):
        op, tok = rng.randrange(3), rng.choice(tokens)
        if op == 0:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + tok + text[at:]
        elif op == 1 and tok in text:
            at = rng.choice([i for i in range(len(text)) if text.startswith(tok, i)])
            text = text[:at] + text[at + len(tok):]
        else:
            at = rng.randrange(len(text) + 1)
            text = text[:at] + text[at + rng.randint(1, 8):]
    return text


def random_state(rng: random.Random, p, width=8):
    from snicheck.semantics import State

    regs = {x: rng.randrange(1 << width) for x in p.registers}
    mem = {c: rng.randrange(1 << width) for c in p.cells()}
    return (State.make(p.entry, regs, mem),)


def random_walk(rng: random.Random, p, nu, steps, width=8):
    """Random enabled-directive walk; returns the list of (d, leak, state)."""
    from snicheck.semantics import enabled_directives, step_spec

    out = []
    for _ in range(steps):
        en = enabled_directives(p, nu, width)
        if not en:
            break
        d = rng.choice(en)
        nu, leak = step_spec(p, nu, d, width)
        out.append((d, leak, nu))
    return out


# --- reference semantics: the speculation-free step, the speculating step and
# the enabled directives, one `match` over instruction kinds each


def ref_step_spec_free(p, s, d, width=8):
    """One speculation-free step, or None when `d` is not enabled at `s`.

    `sfence` and `slh` carry their non-speculating meaning here (step through,
    keep the register), so target programs can be run architecturally.
    """
    from snicheck.ir import STACK_VAR, Asgn, Exit, Fill, If, Load, Move, Nop, Sfence, Slh, Spill, Store
    from snicheck.semantics import D_IF, D_STEP, L_NONE, eval_op, l_if, l_load, l_store

    i = p.instrs[s.pc]
    match i:
        case Exit():
            return None
        case Nop(succ=succ) | Sfence(succ=succ):
            return (s.at(succ), L_NONE) if d == D_STEP else None
        case Slh(succ=succ):
            return (s.at(succ), L_NONE) if d == D_STEP else None
        case Asgn(dst=dst, lhs=a, op=op, rhs=b, succ=succ):
            if d != D_STEP:
                return None
            return s.at(succ).with_reg(dst, eval_op(op, s.reg(a), s.reg(b), width)), L_NONE
        case Move(dst=dst, src=src, succ=succ):
            if d != D_STEP:
                return None
            return s.at(succ).with_reg(dst, s.reg(src)), L_NONE
        case Fill(dst=dst, slot=slot, succ=succ):
            if d != D_STEP:
                return None
            return s.at(succ).with_reg(dst, s.cell(STACK_VAR, slot)), l_load(slot)
        case Spill(slot=slot, src=src, succ=succ):
            if d != D_STEP:
                return None
            return s.at(succ).with_cell(STACK_VAR, slot, s.reg(src)), l_store(slot)
        case If(cond=c, succ_true=st, succ_false=sf):
            if d != D_IF:
                return None
            v = s.reg(c)
            return s.at(st if v == 0 else sf), l_if(v)
        case Load(dst=dst, var=var, addr=adr, succ=succ):
            a = adr if isinstance(adr, int) else s.reg(adr)
            if p.in_bounds(var, a):
                if d != D_STEP:
                    return None
                return s.at(succ).with_reg(dst, s.cell(var, a)), l_load(a)
            if d.kind != "load" or not p.in_bounds(d.var, d.off):
                return None
            return s.at(succ).with_reg(dst, s.cell(d.var, d.off)), l_load(a)
        case Store(var=var, addr=adr, src=src, succ=succ):
            a = adr if isinstance(adr, int) else s.reg(adr)
            if p.in_bounds(var, a):
                if d != D_STEP:
                    return None
                return s.at(succ).with_cell(var, a, s.reg(src)), l_store(a)
            if d.kind != "store" or not p.in_bounds(d.var, d.off):
                return None
            return s.at(succ).with_cell(d.var, d.off, s.reg(src)), l_store(a)
    return None


def ref_step_spec(p, nu, d, width=8):
    """One speculating step, or None when `d` is not enabled at `nu`."""
    from snicheck.ir import If, Sfence, Slh
    from snicheck.semantics import D_RB, D_SPEC, D_STEP, L_NONE, L_RB, l_if

    if d == D_RB:
        if len(nu) < 2:
            return None
        return nu[:-1], L_RB
    top = nu[-1]
    i = p.instrs[top.pc]
    match i:
        case If(cond=c, succ_true=st, succ_false=sf) if d == D_SPEC:
            v = top.reg(c)
            wrong = sf if v == 0 else st
            return nu + (top.at(wrong),), l_if(v)
        case Sfence(succ=succ):
            if d != D_STEP or len(nu) >= 2:
                return None
            return nu[:-1] + (top.at(succ),), L_NONE
        case Slh(reg=r, succ=succ):
            if d != D_STEP:
                return None
            nxt = top.at(succ)
            if len(nu) >= 2:
                nxt = nxt.with_reg(r, 0)
            return nu[:-1] + (nxt,), L_NONE
        case _:
            res = ref_step_spec_free(p, top, d, width)
            if res is None:
                return None
            s2, leak = res
            return nu[:-1] + (s2,), leak


def ref_enabled_directives(p, nu, width=8):
    """All enabled directives, in `directive_sort_key` order, read off the top
    frame's instruction and the in-bounds test."""
    from snicheck.ir import Exit, If, Load, Sfence, Store
    from snicheck.semantics import D_IF, D_RB, D_SPEC, D_STEP

    top = nu[-1]
    i = p.instrs[top.pc]
    spec = len(nu) >= 2
    match i:
        case Exit():
            out = []
        case If():
            out = [D_IF, D_SPEC]
        case Sfence():
            out = [] if spec else [D_STEP]
        case Load(var=var, addr=adr) | Store(var=var, addr=adr):
            a = adr if isinstance(adr, int) else top.reg(adr)
            if not p.in_bounds(var, a):
                unsafe = p.unsafe_directives[i.kind.mnemonic]
                return [D_RB, *unsafe] if spec else list(unsafe)
            out = [D_STEP]
        case _:
            out = [D_STEP]
    if spec:
        out.append(D_RB)
    return out


def ref_transitions(p, nu, width=8):
    """`semantics.transitions` from the reference: each enabled directive with
    its reference step."""
    return [(d, *ref_step_spec(p, nu, d, width)) for d in ref_enabled_directives(p, nu, width)]


def ref_explore_behaviors(p, nu0, b, width=8):
    """`semantics.explore_behaviors` as a plain recursive enumeration over
    `ref_transitions`: no table, no count and no cap."""
    from snicheck.semantics import BehaviorSet

    bs = BehaviorSet(set(), set())

    def go(nu, leaks, dirs):
        if len(nu) > b.max_spec_depth:
            bs.truncated.add((leaks, dirs))
            return
        ts = ref_transitions(p, nu, width)
        if not ts:
            bs.terminated.add((leaks, dirs))
        elif len(dirs) >= b.max_steps:
            bs.truncated.add((leaks, dirs))
        else:
            for d, nu2, leak in ts:
                go(nu2, leaks + (leak,), dirs + (d,))

    go(nu0, (), ())
    return bs


# --- reference low-equivalence: the pairwise loop over declared low cells, and
# the scan of one packed state for packed values outside high cells


def ref_low_equivalent(p, s1, s2):
    """Same pc, same registers, same value in every cell of every low
    variable; cells of undeclared variables are not compared."""
    if s1.pc != s2.pc or s1.regs != s2.regs:
        return False
    for v in p.memvars:
        if v.level != "low":
            continue
        for off in range(v.size):
            if s1.cell(v.name, off) != s2.cell(v.name, off):
                return False
    return True


def ref_lanes_only_high(p, s):
    """Whether every packed value of `s` is in a high cell of `p`."""
    from snicheck.semantics import Lanes

    high = {v.name for v in p.memvars if v.level == "high"}
    return all(v.__class__ is not Lanes for _, v in s.regs) and all(
        v.__class__ is not Lanes or c[0] in high for c, v in s.mem
    )


# --- reference SNI checks: every joint state asks `enabled_directives` and
# `step_spec`, with no transition table


def ref_check_sni_pair(p, nu1, nu2, b, width=8, steps=None):
    """`security.check_sni_pair` without a transition table.  `steps` keeps
    the `enabled_directives` results by state and the `step_spec` results
    by (state, directive); a caller may share one across pairs of `p`.  Each
    state's leaks are collected as the search recurses."""
    from snicheck.security import SniVerdict
    from snicheck.semantics import enabled_directives, step_spec

    truncated = 0
    budget_seen = {}
    steps = {} if steps is None else steps

    def enabled(nu):
        if nu not in steps:
            steps[nu] = enabled_directives(p, nu, width)
        return steps[nu]

    def step(nu, d):
        if (nu, d) not in steps:
            steps[nu, d] = step_spec(p, nu, d, width)
        return steps[nu, d]

    def rec(a, c, dirs, leaks1, leaks2):
        nonlocal truncated
        e1 = enabled(a)
        e2 = enabled(c)
        if e1 != e2:
            return SniVerdict("violation", b, truncated, state1=nu1, state2=nu2, directives=dirs, divergence="enabled",
                              leaks1=leaks1, leaks2=leaks2, enabled1=tuple(e1), enabled2=tuple(e2))
        if not e1:
            return None
        if len(dirs) >= b.max_steps:
            truncated += 1
            return None
        key, left = (a, c), b.max_steps - len(dirs)
        if budget_seen.get(key, 0) >= left:
            return None
        budget_seen[key] = left
        for d in e1:
            a2, l1 = step(a, d)
            c2, l2 = step(c, d)
            if l1 != l2:
                return SniVerdict("violation", b, truncated, state1=nu1, state2=nu2, directives=dirs + (d,),
                                  divergence="leak", leaks1=leaks1 + (l1,), leaks2=leaks2 + (l2,))
            if len(a2) > b.max_spec_depth:
                truncated += 1
                continue
            r = rec(a2, c2, dirs + (d,), leaks1 + (l1,), leaks2 + (l2,))
            if r is not None:
                return r
        return None

    res = rec(nu1, nu2, (), (), ())
    if res is not None:
        return res._replace(truncated=truncated, pairs_checked=1)
    return SniVerdict("secure", b, truncated, pairs_checked=1)


def ref_check_sni_exhaustive(p, base, b, width=8):
    """Exhaustive `security.check_sni` as the pairwise loop: `ref_check_sni_pair`
    on every pair of high assignments in `itertools.combinations` order, up to
    the first violation.  The pairs share one memo of their steps."""
    import itertools

    from snicheck.security import SniVerdict, enumerate_high_states

    truncated = checked = 0
    steps = {}
    for a, c in itertools.combinations(enumerate_high_states(p, base, width), 2):
        v = ref_check_sni_pair(p, a, c, b, width, steps)
        checked += 1
        truncated += v.truncated
        if not v.secure:
            return v._replace(pairs_checked=checked)
    return SniVerdict("secure", b, truncated, pairs_checked=checked)


def ref_sni_walk(p, base, b, width=8):
    """The grouped walk of exhaustive `security.check_sni` without a table:
    a node is the set of states that every high assignment of `base` reaches
    along one directive sequence.  The number of cuts, or None when two
    members differ in their enabled sets or in a leak."""
    from snicheck.security import enumerate_high_states
    from snicheck.semantics import enabled_directives, step_spec

    cuts = 0
    budget_seen = {}

    def rec(group, steps):
        nonlocal cuts
        if len(next(iter(group))) > b.max_spec_depth:
            cuts += 1
            return True
        enabled = {tuple(enabled_directives(p, nu, width)) for nu in group}
        if len(enabled) > 1:
            return False
        (dirs,) = enabled
        if not dirs:
            return True
        if steps >= b.max_steps:
            cuts += 1
            return True
        if budget_seen.get(group, 0) >= b.max_steps - steps:
            return True
        budget_seen[group] = b.max_steps - steps
        children = []
        for d in dirs:
            succs = [step_spec(p, nu, d, width) for nu in group]
            if len({leak for _, leak in succs}) > 1:
                return False
            children.append(frozenset(nu2 for nu2, _ in succs))
        return all(rec(child, steps + 1) for child in children)

    return cuts if rec(frozenset(enumerate_high_states(p, base, width)), 0) else None


def ref_taint_certify(p, nu0, b, width=8):
    """The taint certificate of `security.check_sni` (a `security._walk`
    from a state whose high cells hold a tainted 0) without a table or
    tainted values: each frame's taint is a set of register names and cells,
    changed by one match arm per instruction kind, and the states are
    stepped by `ref_transitions`.  The number of cuts, or None when a
    tainted register is a branch condition or a load/store address."""
    from snicheck.ir import STACK_VAR, Asgn, Fill, If, Load, Move, Slh, Spill, Store
    from snicheck.security import high_cells

    cuts = 0
    budget_seen = {}

    def cell_of(nu, d, var, addr):
        if d.kind in ("load", "store"):
            return d.var, d.off
        return var, addr if isinstance(addr, int) else nu[-1].reg(addr)

    def flow(nu, d, t):
        """The top frame's taint `t` after stepping `nu` by `d`."""
        match p.instrs[nu[-1].pc]:
            case Asgn(dst=dst, lhs=a, rhs=c):
                return t - {dst} | ({dst} if {a, c} & t else set())
            case Move(dst=dst, src=src):
                return t - {dst} | ({dst} if src in t else set())
            case Load(dst=dst, var=var, addr=addr):
                return t - {dst} | ({dst} if cell_of(nu, d, var, addr) in t else set())
            case Fill(dst=dst, slot=slot):
                return t - {dst} | ({dst} if (STACK_VAR, slot) in t else set())
            case Store(var=var, addr=addr, src=src):
                cell = cell_of(nu, d, var, addr)
                return t - {cell} | ({cell} if src in t else set())
            case Spill(slot=slot, src=src):
                return t - {(STACK_VAR, slot)} | ({(STACK_VAR, slot)} if src in t else set())
            case Slh(reg=r) if len(nu) > 1:
                return t - {r}
        return t

    def rec(nu, taints, steps):
        nonlocal cuts
        if len(nu) > b.max_spec_depth:
            cuts += 1
            return True
        ts = ref_transitions(p, nu, width)
        i = p.instrs[nu[-1].pc]
        if isinstance(i, (Load, Store)) and isinstance(i.addr, str) and i.addr in taints[-1]:
            return False
        if not ts:
            return True
        if steps >= b.max_steps:
            cuts += 1
            return True
        key = (nu, taints)
        if budget_seen.get(key, 0) >= b.max_steps - steps:
            return True
        budget_seen[key] = b.max_steps - steps
        if isinstance(i, If) and i.cond in taints[-1]:
            return False
        for d, nu2, _ in ts:
            if d.kind == "rb":
                nxt = taints[:-1]
            elif d.kind == "spec":
                nxt = taints + (taints[-1],)
            elif d.kind == "if":
                nxt = taints
            else:
                nxt = taints[:-1] + (flow(nu, d, taints[-1]),)
            if not rec(nu2, nxt, steps + 1):
                return False
        return True

    return cuts if rec(nu0, (frozenset(high_cells(p)),), 0) else None


# --- reference liveness: one `match` over instruction kinds


def ref_liveness_transfer(p, i, fact, exit_fact):
    """`liveness.transfer` as one match arm per instruction kind: the fact
    before `i` from the fact after it."""
    from snicheck.ir import STACK_VAR, Asgn, Exit, Fill, If, Load, Move, Nop, Sfence, Slh, Spill, Store

    match i:
        case Exit():
            return exit_fact
        case Nop() | Sfence():
            return fact
        case Asgn(dst=d, lhs=a, rhs=b):
            base = fact - {d} if d in fact else fact
            return base | {a, b}
        case Load(dst=d, var=v, addr=adr):
            if isinstance(adr, int):
                return (fact - {d}) | {(v, adr)} if d in fact else fact
            base = (fact - {d}) | frozenset(p.cells()) if d in fact else fact
            return base | {adr}
        case Store(var=v, addr=adr, src=c):
            if isinstance(adr, int):
                base = fact - {(v, adr)} if (v, adr) in fact else fact
                return base | {c}
            return fact | {adr, c}
        case If(cond=c):
            return fact | {c}
        case Slh(reg=r):
            return fact | {r}
        case Move(dst=d, src=s):
            return (fact - {d}) | {s}
        case Fill(dst=d, slot=sl):
            return (fact - {d}) | {(STACK_VAR, sl)} if d in fact else fact
        case Spill(slot=sl, src=s):
            base = fact - {(STACK_VAR, sl)} if (STACK_VAR, sl) in fact else fact
            return base | {s}
    return fact


def ref_liveness(p, exit_fact):
    """The least solution by round-robin iteration over `ref_liveness_transfer`:
    per pc, the fact after it."""
    sol = {pc: frozenset() for pc in p.instrs}
    changed = True
    while changed:
        changed = False
        for pc, i in p.instrs.items():
            new = exit_fact if not i.successors() else sol[pc]
            for s in i.successors():
                new = new | ref_liveness_transfer(p, p.instrs[s], sol[s], exit_fact)
            if new != sol[pc]:
                sol[pc], changed = new, True
    return sol


# --- reference interval builders: the simulation witnesses' `intervals`,
# stepping every state afresh with `step_spec` instead of through tables


def ref_dce_intervals(p, res, width=8):
    """`simulation.dce_witness(p, res, width).intervals` without tables: a
    function of (source state, target state, bounds)."""
    from snicheck.ir import Load, Store
    from snicheck.semantics import D_SPEC, D_STEP, d_load, d_store, step_spec, transitions
    from snicheck.simulation import ExtractResult, SimInterval

    t = res.target

    def replay_dir(nu_src, d):
        pc = nu_src[-1].pc
        if d != D_STEP or not res.replaced.get(pc, False):
            return d
        i = p.instrs[pc]
        first_var = p.memvars[0].name
        match i:
            case Load(addr=adr):
                a = adr if isinstance(adr, int) else nu_src[-1].reg(adr)
                return D_STEP if 0 <= a < p.memvar(i.var).size else d_load(first_var, 0)
            case Store(addr=adr):
                a = adr if isinstance(adr, int) else nu_src[-1].reg(adr)
                return D_STEP if 0 <= a < p.memvar(i.var).size else d_store(first_var, 0)
        return d

    def intervals(nu_src, nu_tgt, b):
        out, truncated = [], 0
        for d, ct, lt in transitions(t, nu_tgt, width):
            sd = replay_dir(nu_src, d)
            src_step = step_spec(p, nu_src, sd, width)
            if src_step is None:
                continue
            cs, ls = src_step
            tdirs, tleaks, sdirs, sleaks = [d], [lt], [sd], [ls]
            if d == D_SPEC:
                while len(tdirs) < b.max_steps:
                    nxt = step_spec(t, ct, D_STEP, width)
                    if nxt is None:
                        break
                    sd2 = replay_dir(cs, D_STEP)
                    src2 = step_spec(p, cs, sd2, width)
                    if src2 is None:
                        break
                    ct, lt = nxt
                    cs, ls = src2
                    tdirs.append(D_STEP)
                    tleaks.append(lt)
                    sdirs.append(sd2)
                    sleaks.append(ls)
                else:
                    truncated += 1
            out.append(SimInterval(tuple(tdirs), tuple(tleaks), tuple(sdirs), tuple(sleaks), cs, ct))
        return ExtractResult(out, truncated)

    return intervals


def ref_ra_intervals(w, width=8):
    """`simulation.ra_witness(w, width).intervals` without tables: a function
    of (source state, target state, bounds)."""
    from snicheck.poison import Product, replay_directive
    from snicheck.semantics import D_RB, D_STEP, step_spec, transitions
    from snicheck.simulation import ExtractResult, SimInterval

    st = Product(w, width).st

    def joint(cs, ct, d, tgt_step):
        if tgt_step is None:
            return None
        t_pc = ct[-1].pc
        if d == D_RB:
            sd = d
        elif t_pc in st.owner:
            return tgt_step, None, (cs, None)
        else:
            sd = replay_directive(w.source, w.source.instrs[st.matched[t_pc]], cs[-1], d)
        src_step = step_spec(w.source, cs, sd, width)
        if src_step is None:
            return None
        return tgt_step, sd, src_step

    def at_matched(cs, ct):
        return ct[-1].pc in st.matched and st.matched[ct[-1].pc] == cs[-1].pc

    def intervals(nu_src, nu_tgt, b):
        out, truncated = [], 0
        for d, nu2, leak in transitions(w.target, nu_tgt, width):
            first = joint(nu_src, nu_tgt, d, (nu2, leak))
            if first is None:
                continue
            (ct, lt), sd, (cs, ls) = first
            tdirs, tleaks = [d], [lt]
            sdirs = [sd] if sd is not None else []
            sleaks = [ls] if ls is not None else []
            while not at_matched(cs, ct):
                if len(ct) >= 2:
                    rb_t = step_spec(w.target, ct, D_RB, width)
                    rb_s = step_spec(w.source, cs, D_RB, width)
                    if rb_t and rb_s:
                        out.append(SimInterval(
                            tuple(tdirs) + (D_RB,), tuple(tleaks) + (rb_t[1],),
                            tuple(sdirs) + (D_RB,), tuple(sleaks) + (rb_s[1],), rb_s[0], rb_t[0],
                        ))
                if len(tdirs) >= b.max_steps:
                    truncated += 1
                    break
                step = joint(cs, ct, D_STEP, step_spec(w.target, ct, D_STEP, width))
                if step is None:
                    break
                (ct, lt), sd2, (cs, ls2) = step
                tdirs.append(D_STEP)
                tleaks.append(lt)
                if sd2 is not None:
                    sdirs.append(sd2)
                    sleaks.append(ls2)
            else:
                out.append(SimInterval(tuple(tdirs), tuple(tleaks), tuple(sdirs), tuple(sleaks), cs, ct))
        return ExtractResult(out, truncated)

    return intervals


# --- oracles: orders and checks that only tests use -------------------------


def pv_leq(a: int, b: int) -> bool:
    """Poison value order: inclusion of the bit sets H = 0b01, W = 0b10, P = 0b11.
    On packed poison types, whose keys take disjoint bits, it is the
    pointwise order."""
    return a | b == b


def pv_join(a: int, b: int) -> int:
    return a | b


def pt_const(domain, pv: int) -> dict:
    """The unpacked poison type giving every key of `domain` the value `pv`."""
    return {k: pv for k in domain}


def pt_leq(a: dict, b: dict) -> bool:
    """Pointwise order on unpacked poison types."""
    return all(pv_leq(a[k], b[k]) for k in a)


def pt_join(a: dict, b: dict) -> dict:
    return {k: v | b[k] for k, v in a.items()}


def same_point(nu1, nu2) -> bool:
    """Two speculative states at the same pc on every frame."""
    return len(nu1) == len(nu2) and all(a.pc == b.pc for a, b in zip(nu1, nu2))


@dataclass(frozen=True)
class ConstraintViolation:
    node: object
    value: object
    bound: object


def check_constraints(sol: dict, constraints: list, leq) -> list[ConstraintViolation]:
    """Constraints f(node) <= bound, under `leq`, that the solution fails."""
    return [ConstraintViolation(n, sol[n], b) for n, b in constraints if not leq(sol[n], b)]


# --- reference RA checks: one match arm per kind, as `regalloc` had them ------


def ref_moved_register(w, t_pc, ti, m0, m1, out):
    """For a shuffle instruction, the source register it relocates (checked)."""
    from snicheck.ir import SHUFFLE_KINDS, STACK_VAR, Fill, Move, Slh, Spill
    from snicheck.regalloc import RADiagnostic

    if not isinstance(ti, SHUFFLE_KINDS):
        return None

    def occupied(loc) -> bool:
        return loc in m0.values()

    def find(pre, post):
        for r in sorted(set(m0) | set(m1)):
            if m0.get(r) == pre and m1.get(r) == post:
                return r
        return None

    match ti:
        case Move(dst=d, src=s):
            r = find(s, d)
            if r is None:
                out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"move {d} <- {s} relocates no live register"))
            elif occupied(d):
                out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"move target {d} is not free"))
            return r
        case Fill(dst=d, slot=sl):
            r = find((STACK_VAR, sl), d)
            if r is None:
                out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"fill {d} <- stk#{sl} relocates no live register"))
            elif occupied(d):
                out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"fill target {d} is not free"))
            return r
        case Spill(slot=sl, src=s):
            r = find(s, (STACK_VAR, sl))
            if r is None:
                out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"spill stk#{sl} <- {s} relocates no live register"))
            elif occupied((STACK_VAR, sl)):
                out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"spill slot stk#{sl} is not free"))
            return r
        case Slh(reg=a):
            owners = [r for r in sorted(m0) if m0.get(r) == a]
            for r in owners:
                if m1.get(r) == a:
                    return r
            # an owner that stays live must keep its place; a dead one may drop
            for r in owners:
                if r in m1:
                    out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"slh register {a} must stay allocated in place"))
                    break
            return owners[0] if owners else None
        case _:  # sfence moves nothing
            return None


class RefAnyFree:
    """Matches any register not taken by a live value (dead-destination case)."""

    def __init__(self, taken):
        self.taken = taken

    def __eq__(self, other):
        return other not in self.taken

    def __ne__(self, other):
        return other in self.taken


def ref_instr_matches(i, ti, m_use, m_def, live_succ):
    from snicheck.ir import Asgn, Exit, If, Load, Move, Nop, Sfence, Slh, Store

    def use(r):
        loc = m_use.get(r)
        if not isinstance(loc, str):
            return None
        return loc

    def targets(r):
        # a dead destination may land in any register that holds no live value
        if r not in live_succ:
            return RefAnyFree({loc for x, loc in m_def.items() if x != r and x in live_succ})
        loc = m_def.get(r)
        if not isinstance(loc, str):
            return None
        return loc

    match (i, ti):
        case (Exit(), Exit()) | (Nop(), Nop()) | (Sfence(), Sfence()):
            return True, ""
        case (Asgn(dst=d, lhs=a, op=op, rhs=b), Asgn(dst=td, lhs=ta, op=top, rhs=tb)):
            if op != top or use(a) != ta or use(b) != tb or targets(d) != td:
                return False, f"assign mismatch under relocation"
        case (Load(dst=d, var=v, addr=adr), Load(dst=td, var=tv, addr=tadr)):
            ea = adr if isinstance(adr, int) else use(adr)
            if v != tv or ea != tadr or targets(d) != td:
                return False, "load mismatch under relocation"
        case (Store(var=v, addr=adr, src=c), Store(var=tv, addr=tadr, src=tc)):
            ea = adr if isinstance(adr, int) else use(adr)
            if v != tv or ea != tadr or use(c) != tc:
                return False, "store mismatch under relocation"
        case (If(cond=c), If(cond=tc)):
            if use(c) != tc:
                return False, "branch condition mismatch under relocation"
        case (Slh(reg=r), Slh(reg=tr)):
            if use(r) != tr or targets(r) != tr:
                return False, "slh register mismatch under relocation"
        case (Move(dst=d, src=s), Move(dst=td, src=ts)):
            if use(s) != ts or targets(d) != td:
                return False, "move mismatch under relocation"
        case _:
            return False, f"instruction kinds differ: {type(i).__name__} vs {type(ti).__name__}"
    return True, ""


def ref_validate_ra(w):
    """`regalloc.validate_ra` with the reference matching and shuffle rules,
    live registers from `ref_liveness`, and every per-register scan run at
    every target pc and edge, without the checks that skip a clean one."""
    from snicheck.ir import STACK_VAR, uses_defs
    from snicheck.liveness import cells_fact
    from snicheck.regalloc import RADiagnostic, analyze_structure, fmt_loc, is_slot

    st = analyze_structure(w)
    if st.errors:
        return st.errors
    src, tgt = w.source, w.target
    ef = cells_fact(src)
    sol = ref_liveness(src, ef)
    live = {pc: {x for x in ref_liveness_transfer(src, i, sol[pc], ef) if isinstance(x, str)} for pc, i in src.instrs.items()}
    live_at = {t: live[st.matched.get(t, st.owner.get(t))] for t in tgt.pcs()}
    rl = {t: {r: w.rho[t][r] for r in sorted(live_at[t]) if r in w.rho.get(t, {})} for t in tgt.pcs()}
    out = []
    stk = tgt.memvar(STACK_VAR)

    # obeying liveness: coverage and injectivity on live registers
    for t_pc in tgt.pcs():
        m = rl[t_pc]
        for r in sorted(live_at[t_pc] - m.keys()):
            out.append(RADiagnostic("obeying-liveness", (t_pc,), f"live register {r} unmapped"))
        items = sorted(m.items())
        locs = {}
        for r, loc in items:
            if loc in locs:
                out.append(RADiagnostic("obeying-liveness", (t_pc,), f"{locs[loc]} and {r} both at {fmt_loc(loc)}"))
            locs[loc] = r
        for r, loc in items:
            if is_slot(loc) and not 0 <= loc[1] < stk.size:
                out.append(RADiagnostic("obeying-liveness", (t_pc,), f"slot {loc[1]} outside stk size {stk.size}"))

    # instruction matching at phi pairs
    for s_pc in src.pcs():
        t_pc = w.phi[s_pc]
        i, ti = src.instrs[s_pc], tgt.instrs[t_pc]
        t_succs = ti.successors()
        succ_map = rl[t_succs[0]] if t_succs else {}
        live_succ = live_at[t_succs[0]] if t_succs else frozenset()
        ok, msg = ref_instr_matches(i, ti, rl[t_pc], succ_map, live_succ)
        if not ok:
            out.append(RADiagnostic("instruction-matching", (s_pc, t_pc), msg))

    # shuffle conformity: per-instruction frame condition + shuffle table
    for t_pc in tgt.pcs():
        ti = tgt.instrs[t_pc]
        t_uses, t_defs = uses_defs(ti)
        for t_next in ti.successors():
            m0, m1 = rl[t_pc], rl[t_next]
            moved = ref_moved_register(w, t_pc, ti, m0, m1, out) if t_pc in st.owner else None
            for r in sorted([r for r in live_at[t_pc] & live_at[t_next] if m0.get(r) != m1.get(r)]):
                l0, l1 = m0.get(r), m1.get(r)
                if l0 is None or l1 is None:
                    continue
                if (not is_slot(l0) and l0 in t_uses) or (not is_slot(l1) and l1 in t_defs):
                    continue
                if r != moved:
                    out.append(
                        RADiagnostic("shuffle-conformity", (t_pc, t_next), f"{r} moves {fmt_loc(l0)} -> {fmt_loc(l1)} without a shuffle")
                    )
    return out


def ref_full_witness_text(w):
    """Witness text with every `phi` pair and every target pc's whole `rho`
    map (a bare `rho <pc>:` header for an empty one), in pc order: the full
    form, which reads back to `w` with no map inherited."""
    from snicheck.ir import pc_key
    from snicheck.regalloc import fmt_loc

    lines = [f"phi: {s} -> {w.phi[s]}" for s in sorted(w.phi, key=pc_key)]
    for pc in sorted(w.rho, key=pc_key):
        m = w.rho[pc]
        lines += [f"rho {pc}: {r} -> {fmt_loc(loc)}" for r, loc in sorted(m.items())] or [f"rho {pc}:"]
    return "\n".join(lines) + "\n"
