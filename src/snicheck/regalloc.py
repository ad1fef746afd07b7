"""Register-allocation witnesses: representation, validation, construction.

A witness relates a source program P and a target program T through an
injective map `phi` from source pcs to their matched target pcs and a
relocation map `rho`: at each target pc, where each source register currently
lives (a hardware register or a stack slot of the reserved low variable
`stk`).  Every target pc outside the image of `phi` must hold a shuffle
instruction (move/fill/spill/slh/sfence), and each such pc sits on a
straight-line chain leading to the matched image of a unique source pc.

Validation enforces the three witness conditions:

  instruction matching   matched instructions are equal up to relocation of
                         uses (at the instruction) and defs (at its successor)
  shuffle conformity     untouched registers keep their location across every
                         instruction; each shuffle moves exactly one source
                         register to a location free of live registers
  obeying liveness       live registers are always mapped, and no location is
                         allocated to two live registers at once

The first two read `ir.KINDS`: matching checks each field by its role there,
and a move, fill or spill relocates its use field (or stack slot) to its def
field (or stack slot); only slh and sfence are special cases.

Liveness here means live-before sets computed with registers dead at exit;
dead registers may be dropped from or linger in `rho` without complaint.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field, replace

from .ir import (
    Asgn,
    Fill,
    If,
    Instr,
    LABEL,
    Load,
    MemVar,
    Move,
    Pc,
    Program,
    Reg,
    Sfence,
    Slh,
    Spill,
    Store,
    STACK_VAR,
    SHUFFLE_KINDS,
    pc_key,
    strip_comment,
    uses_defs,
)
from .dataflow import reverse_postorder
from .liveness import cells_fact, live_regs

Loc = "Reg | tuple[str, int]"  # hardware register or ("stk", slot)


def is_slot(loc) -> bool:
    return isinstance(loc, tuple)


def fmt_loc(loc) -> str:
    return f"{STACK_VAR}#{loc[1]}" if is_slot(loc) else loc


@dataclass
class RAWitness:
    source: Program
    target: Program
    phi: dict[Pc, Pc]
    rho: dict[Pc, dict[Reg, "Loc"]]


@dataclass(frozen=True)
class RADiagnostic:
    kind: str  # instruction-matching | shuffle-conformity | obeying-liveness | structure
    pcs: tuple[Pc, ...]
    message: str

    def __str__(self):
        return f"[{self.kind}] {','.join(self.pcs)}: {self.message}"


@dataclass
class Structure:
    matched: dict[Pc, Pc]  # target pc -> source pc
    owner: dict[Pc, Pc]  # shuffle target pc -> source pc it precedes
    chains: dict[tuple[Pc, int], list[Pc]]  # (source pc, successor index) -> shuffle pcs
    errors: list[RADiagnostic] = field(default_factory=list)


def analyze_structure(w: RAWitness) -> Structure:
    """Check phi/shuffle shape and recover chain ownership."""
    errs: list[RADiagnostic] = []
    src, tgt = w.source, w.target
    if sorted(w.phi) != sorted(src.instrs):
        errs.append(RADiagnostic("structure", (), "phi must be total on source pcs"))
    image = list(w.phi.values())
    if len(set(image)) != len(image):
        errs.append(RADiagnostic("structure", (), "phi must be injective"))
    for s_pc, t_pc in w.phi.items():
        if t_pc not in tgt.instrs:
            errs.append(RADiagnostic("structure", (s_pc,), f"phi image {t_pc} not in target"))
    if errs:
        return Structure({}, {}, {}, errs)
    if w.phi.get(src.entry) != tgt.entry:
        errs.append(RADiagnostic("structure", (src.entry,), "target entry must be phi(source entry)"))
    stk = tgt.memvar(STACK_VAR)
    if stk is None:
        errs.append(RADiagnostic("structure", (), "target must declare stk"))
    if src.memvar(STACK_VAR) is not None:
        errs.append(RADiagnostic("structure", (), "source must not declare stk"))

    matched = {t: s for s, t in w.phi.items()}
    for t_pc in tgt.pcs():
        if t_pc not in matched and not isinstance(tgt.instrs[t_pc], SHUFFLE_KINDS):
            errs.append(RADiagnostic("structure", (t_pc,), "non-matched target pc must hold a shuffle instruction"))

    owner: dict[Pc, Pc] = {}
    chains: dict[tuple[Pc, int], list[Pc]] = {}
    for s_pc in src.pcs():
        t_pc = w.phi[s_pc]
        s_succs = src.instrs[s_pc].successors()
        t_succs = tgt.instrs[t_pc].successors()
        if len(s_succs) != len(t_succs):
            errs.append(RADiagnostic("structure", (s_pc, t_pc), "successor arity mismatch"))
            continue
        for idx, (s_next, t_next) in enumerate(zip(s_succs, t_succs)):
            chain: list[Pc] = []
            cur = t_next
            seen = set()
            while cur not in matched:
                if cur in seen or cur not in tgt.instrs or not isinstance(tgt.instrs[cur], SHUFFLE_KINDS):
                    errs.append(RADiagnostic("structure", (s_pc, cur), "shuffle chain does not reach a matched pc"))
                    chain = None
                    break
                seen.add(cur)
                chain.append(cur)
                nxt = tgt.instrs[cur].successors()
                if len(nxt) != 1:
                    errs.append(RADiagnostic("structure", (cur,), "shuffle instruction must have one successor"))
                    chain = None
                    break
                cur = nxt[0]
            if chain is None:
                continue
            if matched[cur] != s_next:
                errs.append(
                    RADiagnostic("structure", (s_pc, cur), f"chain ends at {cur} matched to {matched[cur]}, expected {s_next}")
                )
                continue
            chains[(s_pc, idx)] = chain
            for c in chain:
                prev = owner.get(c)
                if prev is not None and prev != s_next:
                    errs.append(RADiagnostic("structure", (c,), "shuffle pc shared between different source pcs"))
                owner[c] = s_next
    # shuffle pcs not on any chain are unreachable from matched code; flag them
    for t_pc in tgt.pcs():
        if t_pc not in matched and t_pc not in owner:
            errs.append(RADiagnostic("structure", (t_pc,), "shuffle pc unreachable from any matched pc"))
    return Structure(matched, owner, chains, errs)


def source_live_regs(w: RAWitness) -> dict[Pc, frozenset[Reg]]:
    """Registers live before each source pc, registers dead at exit."""
    return live_regs(w.source, cells_fact(w.source))[0]


def rho_live(w: RAWitness, st: Structure, live: dict[Pc, frozenset[Reg]] | None = None) -> dict[Pc, dict[Reg, "Loc"]]:
    """rho restricted to live registers at every target pc: those live
    before the source pc it is matched to, or whose shuffle chain it is on.
    `live` is `source_live_regs(w)`, computed here when not given."""
    if live is None:
        live = source_live_regs(w)
    out = {}
    for t_pc in w.target.pcs():
        m = w.rho.get(t_pc, {})
        out[t_pc] = {r: m[r] for r in sorted(live[st.matched.get(t_pc, st.owner.get(t_pc))]) if r in m}
    return out


def validate_ra(
    w: RAWitness,
    live: dict[Pc, frozenset[Reg]] | None = None,
    st: Structure | None = None,
    rl: dict[Pc, dict[Reg, "Loc"]] | None = None,
) -> list[RADiagnostic]:
    """All witness diagnostics; empty iff the three conditions hold.

    `live` is `source_live_regs(w)`, `st` is `analyze_structure(w)` and `rl`
    is `rho_live(w, st, live)`; each is computed here when not given.  The
    per-register scans run only where a cheap check fails: live count against
    map size, locations repeated or not yet seen in range, maps unequal on an edge."""
    if st is None:
        st = analyze_structure(w)
    if st.errors:
        return st.errors
    if live is None:
        live = source_live_regs(w)
    if rl is None:
        rl = rho_live(w, st, live)
    out: list[RADiagnostic] = []
    src, tgt = w.source, w.target
    live_at = {t: live[st.matched.get(t, st.owner.get(t))] for t in tgt.pcs()}  # as in `rho_live`
    stk = tgt.memvar(STACK_VAR)  # declared, or the structure check failed
    in_range = {(STACK_VAR, i) for i in range(stk.size)}  # and every register met below

    # obeying liveness: coverage and injectivity on live registers
    for t_pc in tgt.pcs():
        m = rl[t_pc]  # live registers only, so none is unmapped when the sizes agree
        for r in sorted(live_at[t_pc] - m.keys()) if len(m) != len(live_at[t_pc]) else ():
            out.append(RADiagnostic("obeying-liveness", (t_pc,), f"live register {r} unmapped"))
        held = set(m.values())
        if len(held) == len(m) and held <= in_range:
            continue
        in_range |= {loc for loc in held if not is_slot(loc)}
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
        ok, msg = _instr_matches(i, ti, rl[t_pc], succ_map, live_succ)
        if not ok:
            out.append(RADiagnostic("instruction-matching", (s_pc, t_pc), msg))

    # shuffle conformity: per-instruction frame condition + shuffle table
    for t_pc in tgt.pcs():
        ti = tgt.instrs[t_pc]
        for t_next in ti.successors():
            m0, m1 = rl[t_pc], rl[t_next]
            # a matched move is a source instruction, checked by instruction matching
            moved = _moved_register(t_pc, ti, m0, m1, out) if t_pc in st.owner else None
            if m0 == m1:
                continue  # no register changes its location
            t_uses, t_defs = uses_defs(ti)
            # only a register whose location differs can move without a shuffle
            for r in sorted([r for r in live_at[t_pc] & live_at[t_next] if m0.get(r) != m1.get(r)]):
                l0, l1 = m0.get(r), m1.get(r)
                if l0 is None or l1 is None:
                    continue  # coverage already diagnosed
                if (not is_slot(l0) and l0 in t_uses) or (not is_slot(l1) and l1 in t_defs):
                    continue
                if r != moved:
                    out.append(
                        RADiagnostic("shuffle-conformity", (t_pc, t_next), f"{r} moves {fmt_loc(l0)} -> {fmt_loc(l1)} without a shuffle")
                    )
    return out


def _moved_register(t_pc: Pc, ti: Instr, m0: dict, m1: dict, out: list) -> Reg | None:
    """For a shuffle instruction, the source register it relocates (checked).

    A move, fill or spill relocates one register from its use field to its
    def field, its stack slot standing in for the field it lacks, into a
    location no live register holds."""
    if isinstance(ti, Sfence):  # moves nothing
        return None
    if isinstance(ti, Slh):
        a = ti.reg
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
    k, access = ti.kind, ti.kind.access(ti)
    slot = access[:2] if access else None  # a fill or spill's (stk, slot)
    pre = getattr(ti, k.uses[0]) if k.uses else slot
    post = getattr(ti, k.defs[0]) if k.defs else slot
    r = next((r for r in sorted(set(m0) | set(m1)) if m0.get(r) == pre and m1.get(r) == post), None)
    if r is None:
        text = k.format(ti).partition(" -> ")[0]
        out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"{text} relocates no live register"))
    elif post in m0.values():
        role = "target" if k.defs else "slot"
        out.append(RADiagnostic("shuffle-conformity", (t_pc,), f"{k.mnemonic} {role} {fmt_loc(post)} is not free"))
    return r


# how a mismatch message names each kind that has fields other than successors
_MISMATCH_NAMES = {Asgn: "assign", Load: "load", Store: "store", If: "branch condition", Slh: "slh register", Move: "move"}


def _instr_matches(i: Instr, ti: Instr, m_use: dict, m_def: dict, live_succ: frozenset) -> tuple[bool, str]:
    """Whether `ti` is `i` relocated, field by field by its `KINDS` role: a
    use equals its `m_use` location, a def its `m_def` location, or any
    register no other live value holds if it is dead after `i`, and any
    other field (`op`, `var`, a `#n` address) is equal.  Successors are
    structure's concern; fill and spill never occur in source code."""
    k = i.kind
    if ti.kind is not k or k.cls in (Fill, Spill):
        return False, f"instruction kinds differ: {type(i).__name__} vs {type(ti).__name__}"
    for f, r, tr in zip(k.fields, k.values(i), k.values(ti)):
        if f in k.succs:
            continue
        ok = True
        if f in k.defs:
            if r in live_succ:
                ok = m_def.get(r) == tr
            else:
                ok = all(m_def.get(x) != tr for x in live_succ)
        if f in k.uses and isinstance(r, str):
            ok = ok and m_use.get(r) == tr
        elif f not in k.defs:
            ok = r == tr
        if not ok:
            return False, f"{_MISMATCH_NAMES[k.cls]} mismatch under relocation"
    return True, ""


# --- allocator ----------------------------------------------------------------


class AllocationInfeasible(ValueError):
    pass


def _next_use(p: Program) -> dict[Pc, dict[Reg, int]]:
    """Per pc and register, the fewest steps to an instruction that reads it
    (1 << 30 when none does): one breadth-first search per register against
    control flow, from the pcs that read it."""
    preds: dict[Pc, list[Pc]] = {pc: [] for pc in p.instrs}
    readers: dict[Reg, list[Pc]] = {r: [] for r in p.registers}
    for pc, i in p.instrs.items():
        for s in i.successors():
            preds[s].append(pc)
        for r in uses_defs(i)[0]:
            readers[r].append(pc)
    dist = {pc: dict.fromkeys(readers, 1 << 30) for pc in p.instrs}
    for r, frontier in readers.items():
        seen, d = set(frontier), 0
        while frontier:
            for pc in frontier:
                dist[pc][r] = d
            frontier = {u for pc in frontier for u in preds[pc]} - seen
            seen |= frontier
            d += 1
    return dist


def allocate(p: Program, k: int) -> RAWitness:
    """Greedy allocation with k hardware registers; spills furthest next use.

    Hardware names are the first k source registers (identity relocation for
    small programs).  A k beyond the source registers adds none: at most
    every source register is placed at once.  Excess live-at-entry registers
    start on the stack; repairs between instructions become shuffle chains.
    """
    if k < 2:
        raise AllocationInfeasible("need at least 2 hardware registers")
    if p.memvar(STACK_VAR) is not None:
        raise AllocationInfeasible("source already declares stk")
    lb, la = live_regs(p, cells_fact(p))
    # from the entry first; unreachable code still needs a slot in the order
    rpo = reverse_postorder([p.entry, *p.pcs()], {pc: i.successors() for pc, i in p.instrs.items()})
    nxt = _next_use(p)

    hw = sorted(p.registers)[:k]

    slot_of: dict[Reg, int] = {}

    def slot(r: Reg):
        return (STACK_VAR, slot_of.setdefault(r, len(slot_of)))

    def free_hw(m: dict) -> list[Reg]:
        used = set(m.values())
        return [h for h in hw if h not in used]

    def furthest(pc: Pc, regs, at: dict, what: str) -> Reg:
        """The register of `regs` in a hardware register under `at` whose
        next use is furthest from `pc`, the least name on a tie."""
        v = min((r for r in regs if isinstance(at.get(r), str)), key=lambda r: (-nxt[pc][r], r), default=None)
        if v is None:
            raise AllocationInfeasible(f"{pc}: cannot place {what} with k={k}")
        return v

    def plan(pc: Pc, cand: dict | None) -> tuple[dict, dict]:
        """Map at the instruction and map after it (def placed, dead dropped)."""
        i = p.instrs[pc]
        uses, defs = uses_defs(i)
        live = lb[pc]
        m = {r: cand[r] for r in sorted(live) if cand and r in cand} if cand else {}
        for r in sorted(live - set(m)):
            fr = free_hw(m)
            m[r] = fr[0] if fr else slot(r)
        for u in sorted(uses & live):
            if isinstance(m[u], str):
                continue
            fr = free_hw(m)
            if not fr:
                v = furthest(pc, live - uses, m, f"use {u}")
                m[v] = slot(v)
                fr = free_hw(m)
            m[u] = fr[0]
        out = {r: m[r] for r in sorted(la[pc] - defs) if r in m}
        for d in sorted(defs):
            if isinstance(i, Slh):
                out[d] = m[d]  # slh leaves the location unchanged
                continue
            fr = [h for h in hw if h not in out.values()]
            while not fr:
                v = furthest(pc, la[pc] - defs - uses, out, f"def {d}")
                out[v] = m[v] = slot(v)
                fr = [h for h in hw if h not in out.values()]
            out[d] = fr[0]
        return m, out

    maps_in: dict[Pc, dict] = {}
    maps_out: dict[Pc, dict] = {}
    cand_in: dict[Pc, dict] = {}
    for pc in rpo:
        m_in, m_out = plan(pc, cand_in.get(pc))
        maps_in[pc], maps_out[pc] = m_in, m_out
        for s in p.instrs[pc].successors():
            cand_in.setdefault(s, m_out)

    # chain repairs per edge, then assemble the target program
    instrs: dict[Pc, Instr] = {}
    rho: dict[Pc, dict] = {}
    phi = {pc: pc for pc in p.instrs}

    def fresh_label(label: Pc) -> Pc:
        """`label`, extended until no source pc has it: source labels may hold
        dots.  Chain labels `{pc}.{idx}.{j}` differ and end in a digit, so the
        extended ones cannot meet each other either."""
        while label in p.instrs:
            label += "_"
        return label

    def build_chain(cur0: dict, goal: dict, regs) -> list[tuple[Instr, dict]]:
        cur = {r: cur0[r] for r in regs}
        ops: list[tuple[Instr, dict]] = []

        def emit(r: Reg, dst):
            src_loc = cur[r]
            snapshot = dict(cur)
            if is_slot(src_loc) and not is_slot(dst):
                op = Fill(dst, src_loc[1], "")
            elif not is_slot(src_loc) and is_slot(dst):
                op = Spill(dst[1], src_loc, "")
            elif not is_slot(src_loc) and not is_slot(dst):
                op = Move(dst, src_loc, "")
            else:
                raise AssertionError("slot-to-slot transfers never scheduled")
            ops.append((op, snapshot))
            cur[r] = dst

        pending = {r for r in regs if cur[r] != goal[r]}
        while pending:
            r = next((r for r in sorted(pending) if goal[r] not in {loc for x, loc in cur.items() if x != r}), None)
            if r is None:  # all-register cycle; park the smallest register in its slot
                r0 = min(r for r in pending if not is_slot(cur[r]))
                emit(r0, slot(r0))
            else:
                emit(r, goal[r])
                pending.discard(r)
        return ops

    for pc in rpo:
        i = p.instrs[pc]
        m_in, m_out = maps_in[pc], maps_out[pc]
        new_succs = []
        for idx, s in enumerate(i.successors()):
            ops = build_chain(m_out, maps_in[s], sorted(lb[s]))
            labels = [fresh_label(f"{pc}.{idx}.{j}") for j in range(len(ops))] + [s]
            for j, (op, snapshot) in enumerate(ops):
                instrs[labels[j]] = replace(op, succ=labels[j + 1])
                rho[labels[j]] = snapshot
            new_succs.append(labels[0])
        instrs[pc] = _rename_instr(i, m_in, m_out, new_succs)
        rho[pc] = dict(m_in)

    stk_size = max(1, len(slot_of))
    memvars = list(p.memvars) + [MemVar(STACK_VAR, stk_size, "low")]
    t = Program(p.entry, instrs, memvars)
    return RAWitness(p, t, phi, rho)


def _rename_instr(i: Instr, m_in: dict, m_out: dict, succs: list[Pc]) -> Instr:
    """`i` with uses placed by `m_in`, defs by `m_out` and successors `succs`."""
    k = i.kind
    fields = dict(zip(k.fields, k.values(i)))
    for f in k.uses:
        r = getattr(i, f)
        if isinstance(r, str):  # a const address (an int) stays
            fields[f] = _placed(m_in, r, "use")
    for f in k.defs:
        fields[f] = _placed(m_out, getattr(i, f), "def")
    fields.update(zip(k.succs, succs))
    return k.cls(**fields)


def _placed(m: dict, r: Reg, role: str) -> Reg:
    loc = m[r]
    if not isinstance(loc, str):
        raise AllocationInfeasible(f"{role} {r} not in a register")
    return loc


# --- witness text format --------------------------------------------------------

_SLOT_PREFIX = f"{STACK_VAR}#"


def _pc_order(keys: dict, p: Program) -> list[Pc]:
    """The keys of `keys` in `pc_key` order: `p`'s cached order when they are
    exactly its pcs, as in every witness `allocate` or `parse_ra_witness`
    builds."""
    return p.pcs() if keys.keys() == p.instrs.keys() else sorted(keys, key=pc_key)


def serialize_ra_witness(w: RAWitness) -> str:
    lines = [f"phi: {s_pc} -> {w.phi[s_pc]}" for s_pc in _pc_order(w.phi, w.source)]
    for t_pc in _pc_order(w.rho, w.target):
        if m := w.rho[t_pc]:
            head = f"rho {t_pc}: "
            lines += [f"{head}{r} -> {loc if loc.__class__ is str else f'{_SLOT_PREFIX}{loc[1]}'}"
                      for r, loc in sorted(m.items())]
        else:
            lines.append(f"rho {t_pc}:")
    return "\n".join(lines) + "\n"


# A witness line as `serialize_ra_witness` writes it, or blank, or a comment:
# groups (phi source pc, phi target pc) or (rho pc, register, slot or
# location), and none for a blank line.  Only spaces and tabs count as
# whitespace here; any other line goes through `_witness_line`.
_WITNESS_LINE = re.compile(
    rf"[ \t]*(?:(?:phi:[ \t]*({LABEL})[ \t]*->[ \t]*({LABEL})"
    rf"|rho [ \t]*({LABEL})[ \t]*:(?:[ \t]*({LABEL})[ \t]*->[ \t]*(?:{_SLOT_PREFIX}([0-9]+)|({LABEL})))?)"
    r"(?:[ \t]+(?:#.*)?)?|#.*)?"
)


def _witness_line(raw: str, lineno: int, target: Program) -> tuple:
    """The `_WITNESS_LINE` groups of any other line: a comment is stripped
    and whitespace around each part is ignored.  Raises ValueError naming
    the line if it is malformed or its rho pc is not a target pc."""
    line = strip_comment(raw)
    if not line:
        return (None,) * 6
    if line.startswith("phi:"):
        s_pc, arrow, t_pc = line[4:].partition("->")
        if not arrow or "->" in t_pc:
            raise ValueError(f"line {lineno}: bad phi entry")
        return s_pc.strip(), t_pc.strip(), None, None, None, None
    if line.startswith("rho "):
        head, _, rest = line[4:].partition(":")
        t_pc = head.strip()
        if t_pc not in target.instrs:  # before the entry is read, so that this error wins
            raise ValueError(f"line {lineno}: unknown target pc {t_pc}")
        rest = rest.strip()
        if not rest:
            return None, None, t_pc, None, None, None
        r, arrow, loc_s = rest.partition("->")
        r, loc_s = r.strip(), loc_s.strip()
        if not arrow or not r or not loc_s or "->" in loc_s:
            raise ValueError(f"line {lineno}: malformed relocation entry")
        if loc_s.startswith(_SLOT_PREFIX):
            try:
                return None, None, t_pc, r, int(loc_s[len(_SLOT_PREFIX) :]), None
            except ValueError:
                raise ValueError(f"line {lineno}: bad slot {loc_s}") from None
        return None, None, t_pc, r, None, loc_s
    raise ValueError(f"line {lineno}: cannot parse {line!r}")


def parse_ra_witness(text: str, source: Program, target: Program) -> RAWitness:
    """Parse phi/rho sections.

    Each line is read by one line grammar (`_WITNESS_LINE`): blank and
    comment lines, `phi: <pc> -> <pc>`, and `rho <pc>:` with an optional
    `<reg> -> <reg | stk#n>`, each with an optional trailing comment.  `#`
    starts a comment at the start of a line or after whitespace.  A line the
    grammar does not cover, such as one with other whitespace, is read by
    `_witness_line`, which raises on a malformed line with its line number.

    A target pc with no rho section inherits its predecessor's map (the entry
    defaults to the identity on source registers), so a file with no rho
    sections at all means identity relocation everywhere.  A pc that inherits
    shares the map object it inherits, so copy a map before changing it.
    """
    phi: dict[Pc, Pc] = {}
    explicit: dict[Pc, dict] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        m = _WITNESS_LINE.fullmatch(raw)
        s_pc, phi_t, t_pc, r, slot, loc = m.groups() if m else _witness_line(raw, lineno, target)
        if s_pc is not None:
            if s_pc not in source.instrs:
                raise ValueError(f"line {lineno}: unknown source pc {s_pc}")
            if phi_t not in target.instrs:
                raise ValueError(f"line {lineno}: unknown target pc {phi_t}")
            phi[s_pc] = phi_t
        elif t_pc is not None:
            if t_pc not in target.instrs:
                raise ValueError(f"line {lineno}: unknown target pc {t_pc}")
            section = explicit.setdefault(t_pc, {})
            if r is not None:
                section[r] = loc if slot is None else (STACK_VAR, int(slot))

    # propagate maps breadth-first along target control flow; explicit
    # sections win.  A pc inherits from the predecessors placed before it,
    # which must agree.
    identity = {r: r for r in source.registers}
    rho: dict[Pc, dict] = {}
    inherited: dict[Pc, dict] = {}
    disagree: set[Pc] = set()
    queue, seen = deque([target.entry]), {target.entry}
    while queue:
        pc = queue.popleft()
        if pc in disagree:
            raise ValueError(f"rho for {pc} inherited from disagreeing predecessors; add an explicit section")
        m = rho[pc] = explicit[pc] if pc in explicit else inherited.get(pc, identity)
        for s in target.instrs[pc].successors():
            if s not in seen:
                seen.add(s)
                queue.append(s)
            if s not in rho and s not in explicit and inherited.setdefault(s, m) != m:
                disagree.add(s)
    for pc in target.pcs():
        rho.setdefault(pc, explicit.get(pc, identity))
    return RAWitness(source, target, phi, rho)
