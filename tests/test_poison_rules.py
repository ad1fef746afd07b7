"""The shared poison rules against hand-written references.

`reference_steps` is the dynamic product step written out by hand, one
update per instruction kind and address case, over dict-valued poison
types.  The product must agree with it on every transition of random walks,
and the packed static transfer of every product node must agree with the
dict-valued reference transfer of `test_fix_session` on random poison types.
"""

import random

from snicheck.ir import STACK_VAR, Asgn, If, Load, Move, Nop, Sfence, Slh, Store, parse_program
from snicheck.poison import BOT, H, P, W, Product, ProductState, ProductTransition, RepairSession, fix_ra
from snicheck.regalloc import AllocationInfeasible, allocate, parse_ra_witness, validate_ra
from snicheck.semantics import (
    D_IF,
    D_RB,
    D_SPEC,
    D_STEP,
    State,
    d_load,
    d_store,
    enabled_directives,
    step_spec,
)

from conftest import random_program, random_state
from test_fix_session import _reference_transfer


# --- the reference product step ----------------------------------------------


def _mk(ps, src_step, tgt_step, pts, tgt_dir, src_dir, rule):
    (nsrc, sleak) = src_step if src_step else (ps.src, None)
    (ntgt, tleak) = tgt_step
    end = ProductState(nsrc, ntgt, pts)
    sdir = src_dir if src_step else None
    return ProductTransition(tgt_dir, tleak, sdir, sleak, end, rule)


def pack(pk, pt: dict) -> int:
    return sum(v << pk.shift[k] for k, v in pt.items())


def reference_steps(prod, ps, d, canonical_only):
    """`_dict_steps` on the unpacked poison stack of `ps`, with the stacks of
    the transitions it builds packed again."""
    unpacked = ps._replace(poisons=tuple(prod.pk.unpack(x) for x in ps.poisons))
    out = []
    for t in _dict_steps(prod, unpacked, d, canonical_only):
        packed = t.end._replace(poisons=tuple(pack(prod.pk, pt) for pt in t.end.poisons))
        out.append(t._replace(end=packed))
    return out


def _dict_steps(prod, ps, d, canonical_only):
    w, width = prod.w, prod.width
    tgt_step = step_spec(w.target, ps.tgt, d, width)
    if tgt_step is None:
        return []
    pts = ps.poisons
    pt = pts[-1]
    speculating = ps.depth >= 2

    if d == D_RB:
        if ps.depth < 2:
            return []
        src_step = step_spec(w.source, ps.src, D_RB, width)
        if src_step is None:
            return []
        return [_mk(ps, src_step, tgt_step, pts[:-1], d, D_RB, "rollback")]

    t_pc = ps.tgt[-1].pc
    s_top = ps.src[-1]

    if t_pc in prod.st.owner:
        ti = w.target.instrs[t_pc]
        rule = f"shuffle-{ti.kind.mnemonic}"
        if isinstance(ti, Slh):
            owner = [r for r, loc in prod.rho[t_pc].items() if loc == ti.reg]
            pt2 = dict(pt)
            if owner:
                a = sorted(owner)[0]
                pt2[a] = pt[a] if not speculating else W
            return [_mk(ps, None, tgt_step, pts[:-1] + (pt2,), d, None, rule)]
        return [_mk(ps, None, tgt_step, pts, d, None, rule)]

    i = w.source.instrs[s_top.pc]
    match i:
        case Nop():
            src_step = step_spec(w.source, ps.src, D_STEP, width)
            return [_mk(ps, src_step, tgt_step, pts, d, D_STEP, "nop")]
        case Sfence():
            src_step = step_spec(w.source, ps.src, D_STEP, width)
            if src_step is None:
                return []
            return [_mk(ps, src_step, tgt_step, pts, d, D_STEP, "sfence")]
        case Slh(reg=r):
            src_step = step_spec(w.source, ps.src, D_STEP, width)
            pt2 = dict(pt)
            pt2[r] = pt[r] if not speculating else H
            return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "slh")]
        case Asgn(dst=dst, lhs=a, rhs=b):
            pt2 = dict(pt)
            pt2[dst] = H if (pt[a] == H and pt[b] == H) else P
            src_step = step_spec(w.source, ps.src, D_STEP, width)
            return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "asgn")]
        case Move(dst=dst, src=sr):
            pt2 = dict(pt)
            pt2[dst] = pt[sr]
            src_step = step_spec(w.source, ps.src, D_STEP, width)
            return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "move")]
        case If(cond=c):
            if pt[c] != H:
                return []
            sd = D_IF if d == D_IF else D_SPEC
            src_step = step_spec(w.source, ps.src, sd, width)
            if src_step is None:
                return []
            if d == D_SPEC:
                return [_mk(ps, src_step, tgt_step, pts + (dict(pt),), d, sd, "spec")]
            return [_mk(ps, src_step, tgt_step, pts, d, sd, "branch")]
        case Load():
            return _reference_load(prod, ps, i, d, tgt_step, canonical_only)
        case Store():
            return _reference_store(prod, ps, i, d, tgt_step, canonical_only)
    return []


def _reference_load(prod, ps, i, d, tgt_step, canonical_only):
    w, width = prod.w, prod.width
    pts, pt = ps.poisons, ps.poisons[-1]
    s_top = ps.src[-1]
    x, dst = i.var, i.dst
    if isinstance(i.addr, int):
        if d != D_STEP:
            return []
        src_step = step_spec(w.source, ps.src, D_STEP, width)
        pt2 = dict(pt)
        pt2[dst] = pt[(x, i.addr)]
        return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "load-const")]
    pb = pt[i.addr]
    if pb == P or pb == BOT:
        return []
    sval = s_top.reg(i.addr)
    in_bounds = 0 <= sval < w.source.memvar(x).size
    out = []
    if pb == H:
        if d == D_STEP:
            if not in_bounds:
                return []
            src_step = step_spec(w.source, ps.src, D_STEP, width)
            pt2 = dict(pt)
            pt2[dst] = pt[(x, sval)]
            return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "load-healthy-safe")]
        if d.kind != "load":
            return []
        if d.var != STACK_VAR:
            sd = d_load(d.var, d.off)
            src_step = step_spec(w.source, ps.src, sd, width)
            if src_step is None:
                return []
            pt2 = dict(pt)
            pt2[dst] = pt[(d.var, d.off)]
            return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, sd, "load-healthy-unsafe")]
        pt2 = dict(pt)
        pt2[dst] = P
        choices = [(x, 0)] if canonical_only else [c for c in w.source.cells()]
        for var, off in choices:
            sd = d_load(var, off)
            src_step = step_spec(w.source, ps.src, sd, width)
            if src_step is not None:
                out.append(_mk(ps, src_step, tgt_step, pts[:-1] + (dict(pt2),), d, sd, "load-poison-intro"))
                if canonical_only:
                    break
        return out
    if d != D_STEP:
        return []
    pt2 = dict(pt)
    pt2[dst] = P
    if in_bounds:
        src_step = step_spec(w.source, ps.src, D_STEP, width)
        return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "load-weak-safe")]
    choices = [(x, 0)] if canonical_only else [(x, off) for off in range(w.source.memvar(x).size)]
    for var, off in choices:
        sd = d_load(var, off)
        src_step = step_spec(w.source, ps.src, sd, width)
        if src_step is not None:
            out.append(_mk(ps, src_step, tgt_step, pts[:-1] + (dict(pt2),), d, sd, "load-weak-unsafe"))
            if canonical_only:
                break
    return out


def _reference_store(prod, ps, i, d, tgt_step, canonical_only):
    w, width = prod.w, prod.width
    pts, pt = ps.poisons, ps.poisons[-1]
    s_top = ps.src[-1]
    x, c = i.var, i.src
    if isinstance(i.addr, int):
        if d != D_STEP:
            return []
        src_step = step_spec(w.source, ps.src, D_STEP, width)
        pt2 = dict(pt)
        pt2[(x, i.addr)] = pt[c]
        return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "store-const")]
    pb = pt[i.addr]
    if pb == P or pb == BOT:
        return []
    sval = s_top.reg(i.addr)
    in_bounds = 0 <= sval < w.source.memvar(x).size
    out = []
    if pb == H:
        if d == D_STEP:
            if not in_bounds:
                return []
            src_step = step_spec(w.source, ps.src, D_STEP, width)
            pt2 = dict(pt)
            pt2[(x, sval)] = pt[c]
            return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "store-healthy-safe")]
        if d.kind != "store":
            return []
        if d.var != STACK_VAR:
            sd = d_store(d.var, d.off)
            src_step = step_spec(w.source, ps.src, sd, width)
            if src_step is None:
                return []
            pt2 = dict(pt)
            pt2[(d.var, d.off)] = pt[c]
            return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, sd, "store-healthy-unsafe")]
        tgt_next_pc = tgt_step[0][-1].pc
        owners = [r for r, loc in prod.rho.get(tgt_next_pc, {}).items() if loc == (STACK_VAR, d.off)]
        choices = [(x, 0)] if canonical_only else [(x, off) for off in range(w.source.memvar(x).size)]
        for var, off in choices:
            sd = d_store(var, off)
            src_step = step_spec(w.source, ps.src, sd, width)
            if src_step is None:
                continue
            pt2 = dict(pt)
            for r in owners:
                pt2[r] = P
            pt2[(var, off)] = P
            out.append(_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, sd, "store-poison-intro"))
            if canonical_only:
                break
        return out
    if d != D_STEP:
        return []
    if in_bounds:
        src_step = step_spec(w.source, ps.src, D_STEP, width)
        pt2 = dict(pt)
        pt2[(x, sval)] = P
        pt2[(x, 0)] = P
        return [_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, D_STEP, "store-weak-safe")]
    choices = [(x, 0)] if canonical_only else [(x, off) for off in range(w.source.memvar(x).size)]
    for var, off in choices:
        sd = d_store(var, off)
        src_step = step_spec(w.source, ps.src, sd, width)
        if src_step is None:
            continue
        pt2 = dict(pt)
        pt2[(x, off)] = P
        pt2[(x, 0)] = P
        out.append(_mk(ps, src_step, tgt_step, pts[:-1] + (pt2,), d, sd, "store-weak-unsafe"))
        if canonical_only:
            break
    return out


def reference_transitions(prod, ps):
    return [t for d in enabled_directives(prod.w.target, ps.tgt, prod.width) for t in reference_steps(prod, ps, d, False)]


# --- witnesses ----------------------------------------------------------------


def _witnesses(rng, count):
    """Allocations of random sources, with and without matched moves, and
    their `fix_ra` repairs."""
    out = []
    while len(out) < count:
        p = random_program(rng, n_instrs=rng.randint(3, 9), n_regs=rng.randint(2, 4), allow_shuffle=rng.random() < 0.5)
        try:
            w = allocate(p, rng.choice((2, 3)))
        except AllocationInfeasible:
            continue
        out.append(w)
        fixed, report = fix_ra(w)
        if report.insertions:
            out.append(fixed)
    return out


# a speculating path through a shuffle slh on each address register: the
# accesses behind them run with weakly poisoned addresses, which random
# allocations almost never reach
_WEAK_SOURCE = """mem buf 2 low
entry 0
0: if c ? 1 : 1
1: store buf[i] <- v -> 2
2: load x <- buf[j] -> 3
3: ret
"""
_WEAK_TARGET = """mem buf 2 low
mem stk 1 low
entry 0
0: if c ? s1 : s1
s1: slh i -> 1
1: store buf[i] <- v -> s2
s2: slh j -> 2
2: load x <- buf[j] -> 3
3: ret
"""
_WEAK_WITNESS = "phi: 0 -> 0\nphi: 1 -> 1\nphi: 2 -> 2\nphi: 3 -> 3\n"


def weak_witness():
    w = parse_ra_witness(_WEAK_WITNESS, parse_program(_WEAK_SOURCE), parse_program(_WEAK_TARGET))
    assert validate_ra(w) == []
    return w


ALL_RULES = {
    "rollback", "nop", "sfence", "slh", "asgn", "move", "spec", "branch",
    "shuffle-move", "shuffle-spill", "shuffle-fill", "shuffle-slh", "shuffle-sfence",
    "load-const", "load-healthy-safe", "load-healthy-unsafe", "load-poison-intro", "load-weak-safe", "load-weak-unsafe",
    "store-const", "store-healthy-safe", "store-healthy-unsafe", "store-poison-intro", "store-weak-safe", "store-weak-unsafe",
}


def _walk_and_compare(rng, w, initial_states, steps, seen):
    prod = Product(w)
    compared = 0
    for tgt0 in initial_states:
        ps = prod.initial_product(tgt0)
        for _ in range(steps):
            trans = prod.transitions(ps)
            assert trans == reference_transitions(prod, ps)
            for d in enabled_directives(w.target, ps.tgt, prod.width):
                ref = reference_steps(prod, ps, d, True)
                assert prod.replay_target_step(ps, d) == (ref[0] if ref else None)
            seen.update(t.rule for t in trans)
            compared += len(trans)
            if not trans:
                break
            ps = rng.choice(trans).end
    return compared


def test_product_matches_reference_and_hits_every_rule():
    rng = random.Random(7070)
    seen: set[str] = set()
    compared = 0
    for w in _witnesses(rng, 300):
        compared += _walk_and_compare(rng, w, [random_state(rng, w.target)[0] for _ in range(3)], 10, seen)
    w = weak_witness()
    starts = [State.make("0", {"c": c, "i": i, "j": j}) for c in (0, 1) for i in (1, 5) for j in (0, 7)] * 8
    compared += _walk_and_compare(rng, w, starts, 8, seen)
    assert compared > 5000
    assert seen == ALL_RULES


def _random_packed(rng, pk):
    pt = {k: rng.choice((H, W, P)) for k in pk.shift}
    return pt, pack(pk, pt)


def test_static_transfers_match_reference():
    """Every node's compiled transfer, on random poison types, equals the
    dict-valued reference transfer."""
    rng = random.Random(5151)
    nodes = 0
    for w in _witnesses(rng, 200) + [weak_witness()]:
        session = RepairSession(w)
        ref = _reference_transfer(w, session.rho_live, session.domain)
        for node in session.fns:
            for _ in range(4):
                pt, x = _random_packed(rng, session.pk)
                assert session.pk.unpack(session.fns[node](x)) == ref(node, pt), node
            nodes += 1
    assert nodes > 1000
