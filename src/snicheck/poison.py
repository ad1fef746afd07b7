"""Poison-tracking product of a source program and its register allocation.

The product executes source and target side by side and tracks, per
speculation level, a poison type: for every source register and every memory
cell outside the spill frame, whether the two runs agree on its value.

  H (healthy)          equal up to relocation
  W (weakly poisoned)  the target holds 0 (result of a speculative slh)
  P (poisoned)         no guarantee

Poison is born when a speculating unsafe access in the target hits the spill
frame `stk`: the source cannot touch a relocated register through memory, so
the runs diverge on the spilled register (loads poison the destination;
stores poison the slot's owner and the cell the source wrote instead).
Transitions that would leak a poisoned value (branches on non-healthy
registers, accesses through poisoned address registers) simply do not exist:
the product is stuck there.

Every poison update is written once, as a rule listing the writes of one
step (`matched_rule`, `shuffle_rule`); an access through a register also
takes its address case (healthy, spill or weak).  `Product` applies the rule
of the case its states determine, and adds only where it is stuck and which
source directives replay a target directive (`replay_directive`, shared with
the simulation witness, is the canonical one).

The static analysis is a forward flow problem over the product's program
points: matched pairs (pc, phi(pc)) and shuffle pairs (pc, s) for shuffle
pcs s on the chain into phi(pc).  A node's transfer joins its rule over all
that a node cannot rule out: speculation, and every address case and cell
of an access, with every register an owner of the unknown slot.  So every
dynamic update stays below the static one.  Two transfers are static only:
a fence makes every key H and a non-healthy branch every key P.

A witness is poison-typable when the least solution keeps every leaking
operand within bounds: address registers at most weakly poisoned, branch
conditions healthy.  `fix_ra` repairs failures by splicing `slh` (addresses)
or `sfence` (branches) at the end of the shuffle sequence in front of the
offending target pc until the witness is typable.

Typable means "the allocation preserves SNI" only for sources that are
architecturally memory-safe (`security.check_safety`) from every initial
state that matters.  The analysis treats speculation-free steps as pure: an
out-of-bounds access the source makes without speculating, which an
attacker may resolve to a spill slot in the target, poisons nothing.  So an
unsafe source can be secure while its typable target is not.

A poison type is one int, two bits per key (`_Packing`), so the join is
bitwise or.  The product and the analysis of a witness share one packing
and apply every rule through its compiled transfer: the product the rule of
its case, the analysis the join of the rules of a node.
`StaticPoison.assignment` unpacks a solution into dicts for the table, its
JSON and the tests.  `poison_analysis` is a `RepairSession` with no splices;
`fix_ra` runs all its rounds in one session, which reads the structure and
the live relocations of one `Product`, builds the product graph once and
patches the graph per splice.  One routine solves the flow problem,
strongly connected component by component in topological order: at
construction it solves every component, and after a splice only those whose
inflow changed.  Every
analysis refuses an invalid witness when its `Product` is built, and
`fix_ra` validates only its input, since a splice keeps it as valid as it
was.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

from . import dataflow
from .ir import (
    Asgn,
    If,
    Instr,
    Load,
    Move,
    Pc,
    Program,
    Reg,
    Sfence,
    Slh,
    Store,
    STACK_VAR,
    loc_text,
    pc_key,
)
from .regalloc import (
    RAWitness,
    Structure,
    analyze_structure,
    is_slot,
    rho_live,
    source_live_regs,
    validate_ra,
)
from .semantics import (
    DEFAULT_WIDTH,
    D_RB,
    D_SPEC,
    D_STEP,
    Directive,
    Leakage,
    SpecState,
    State,
    step_spec,
    transitions,
)

BOT, H, W, P = 0, 1, 2, 3
PV_NAMES = {BOT: "_", H: "H", W: "W", P: "P"}

# as bit sets (H = 0b01, W = 0b10, P = 0b11) the order is inclusion: H and W
# are incomparable, and the least upper bound is bitwise or

PoisonType = dict  # register or cell -> poison value, total over the witness domain: an unpacked `_Packing` int


def poison_domain(w: RAWitness) -> list:
    regs = sorted(w.source.registers)
    cells = [c for c in w.source.cells() if c[0] != STACK_VAR]
    return regs + cells


# --- poison rules --------------------------------------------------------------
#
# A rule is the tuple of (key, value) poison writes one step makes; keys it
# does not write keep their value.  Every value is read from the poison type
# before the step: an int is that constant, a key is that key's value, and
# Both(a, b) is H when a and b are both H, else P.


class Both(NamedTuple):
    a: Reg
    b: Reg


# address cases of a matched load or store through a register
HEALTHY = "healthy"  # the source touches the same cell, or makes the same out-of-bounds choice
SPILL = "spill"  # the target hit a slot of the spill frame, whose owners are poisoned
WEAK = "weak"  # the address is weakly poisoned, so the target uses offset 0


def matched_rule(i: Instr, spec: bool, case: str, cell, owners) -> tuple:
    """The poison writes of a matched pair running source instruction `i`,
    speculating when `spec`.  A load or store through a register also takes
    its address case, the cell the source touches, and (SPILL) the registers
    relocated to the slot the target overwrote."""
    match i:
        case Asgn(dst=d, lhs=a, rhs=b):
            return ((d, Both(a, b)),)
        case Move(dst=d, src=src):
            return ((d, src),)
        case Slh(reg=r) if spec:
            return ((r, H),)  # both runs zero r
        case Load(dst=d, var=x, addr=int(adr)):
            return ((d, (x, adr)),)
        case Store(var=x, addr=int(adr), src=c):
            return (((x, adr), c),)
        case Load(dst=d):
            return ((d, cell if case == HEALTHY else P),)
        case Store(src=c) if case == HEALTHY:
            return ((cell, c),)
        case Store() if case == SPILL:
            return tuple((r, P) for r in owners) + ((cell, P),)
        case Store(var=x):
            return ((cell, P), ((x, 0), P))
    return ()


def shuffle_rule(i: Instr, spec: bool, rho_at: dict) -> tuple:
    """The poison writes of shuffle instruction `i` under live relocation
    `rho_at`: a speculating `slh` zeroes its register in the target only, so
    the first source register located there becomes W."""
    if spec and isinstance(i, Slh):
        owner = sorted(r for r, loc in rho_at.items() if loc == i.reg)
        if owner:
            return ((owner[0], W),)
    return ()


def replay_directive(source: Program, i: Instr, s: State, d: Directive) -> Directive:
    """The canonical source directive replaying target directive `d` at a
    matched pc whose source instruction is `i`, from source state `s`.

    For a load or store of x through a register, `step` stays `step` when the
    source access is in bounds and otherwise becomes (x, 0), and a target
    choice of the spill frame becomes (x, 0).  Any other directive replays as
    it is."""
    if isinstance(i, (Load, Store)) and isinstance(i.addr, str):
        if d == D_STEP and 0 <= s.reg(i.addr) < source.memvar(i.var).size:
            return d
        if d == D_STEP or d.var == STACK_VAR:
            return Directive(i.kind.mnemonic, i.var, 0)
    return d


@dataclass
class ProductState:
    """Source and target stacks with one packed poison type per level."""

    src: SpecState
    tgt: SpecState
    poisons: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.src)


@dataclass
class ProductTransition:
    tgt_dir: Directive
    tgt_leak: Leakage
    src_dir: Directive | None  # None on shuffle steps, where only the target moves
    src_leak: Leakage | None
    end: ProductState
    rule: str


class Product:
    """Product semantics and pairing structure for a valid witness.

    Every analysis of a witness builds its `Product` first, and the product
    refuses a witness that `validate_ra` refuses, with its first diagnostic,
    checked with the live registers, structure and live relocations it
    keeps."""

    def __init__(self, w: RAWitness, width: int = DEFAULT_WIDTH):
        self.w = w
        self.width = width
        self.live = source_live_regs(w)
        self.st: Structure = analyze_structure(w)
        self.rho = {} if self.st.errors else rho_live(w, self.st, self.live)
        bad = validate_ra(w, self.live, self.st, self.rho)
        if bad:
            raise ValueError(f"invalid witness: {bad[0]}")
        self.domain = poison_domain(w)
        self.pk = _Packing(self.domain)  # shared with this witness's `RepairSession`

    # -- state plumbing ---------------------------------------------------

    def is_matched(self, s_pc: Pc, t_pc: Pc) -> bool:
        return self.w.phi.get(s_pc) == t_pc

    def eval_loc(self, s: State, loc) -> int:
        return s.cell(*loc) if is_slot(loc) else s.reg(loc)

    def level_agrees(self, src: State, tgt: State, x: int) -> bool:
        m = self.rho.get(tgt.pc, {})
        for k, sk in self.pk.shift.items():
            pv = (x >> sk) & 3
            if pv not in (H, W):
                continue
            if isinstance(k, str):
                if k not in m:
                    continue  # dead register, no target location to compare
                got = self.eval_loc(tgt, m[k])
                want = src.reg(k) if pv == H else 0
            else:
                got = tgt.cell(*k)
                want = src.cell(*k) if pv == H else 0
            if got != want:
                return False
        return True

    def well_formed(self, ps: ProductState) -> bool:
        if not (len(ps.src) == len(ps.tgt) == len(ps.poisons) >= 1):
            return False
        for i, (s, t) in enumerate(zip(ps.src, ps.tgt)):
            top = i == len(ps.src) - 1
            if self.is_matched(s.pc, t.pc):
                pass
            elif top and t.pc in self.st.owner and self.st.owner[t.pc] == s.pc:
                pass  # shuffling toward the next matched pc
            else:
                return False
            if not self.level_agrees(s, t, ps.poisons[i]):
                return False
        return True

    def initial_source_state(self, tgt0: State) -> State:
        """Initial-state mapping: read each register through the entry relocation."""
        m = self.rho.get(self.w.target.entry, {})
        regs = {}
        for r in self.w.source.registers:
            regs[r] = self.eval_loc(tgt0, m[r]) if r in m else tgt0.reg(r)
        mem = {c: v for c, v in tgt0.mem if c[0] != STACK_VAR}
        return State.make(self.w.source.entry, regs, mem)

    def initial_product(self, tgt0: State) -> ProductState:
        src0 = self.initial_source_state(tgt0)
        return ProductState((src0,), (tgt0,), (self.pk.all_h,))

    # -- dynamic steps ----------------------------------------------------

    def _mk(self, src_step, tgt_step, pts, tgt_dir, src_dir, rule) -> ProductTransition:
        (nsrc, sleak), (ntgt, tleak) = src_step, tgt_step
        return ProductTransition(tgt_dir, tleak, src_dir, sleak, ProductState(nsrc, ntgt, pts), rule)

    def transitions(self, ps: ProductState) -> list[ProductTransition]:
        """All enabled product transitions (every unsafe-target choice)."""
        out = []
        for d, nu2, leak in transitions(self.w.target, ps.tgt, self.width):
            out.extend(self._steps_for(ps, d, (nu2, leak), canonical_only=False))
        return out

    def replay_target_step(self, ps: ProductState, d: Directive) -> ProductTransition | None:
        """The canonical replay of one target directive, or None if `d` is
        not enabled or the product is stuck on it (a poisoned guard)."""
        tgt_step = step_spec(self.w.target, ps.tgt, d, self.width)
        res = self._steps_for(ps, d, tgt_step, canonical_only=True) if tgt_step else []
        return res[0] if res else None

    def _steps_for(self, ps: ProductState, d: Directive, tgt_step, canonical_only: bool) -> list[ProductTransition]:
        """The transitions on target directive `d`, which steps the target to
        `tgt_step`.  This decides where the product is stuck and which source
        directives replay `d`; the poison updates are the compiled
        `shuffle_rule` and `matched_rule`, applied to the top level."""
        w, width, rule, sh = self.w, self.width, self.pk.rule, self.pk.shift
        pts, spec = ps.poisons, ps.depth >= 2
        if d == D_RB:
            src_step = step_spec(w.source, ps.src, D_RB, width)
            return [self._mk(src_step, tgt_step, pts[:-1], d, D_RB, "rollback")] if src_step else []
        t_pc = ps.tgt[-1].pc
        if t_pc in self.st.owner:  # shuffling state: the source stutters
            ti = w.target.instrs[t_pc]
            pts = pts[:-1] + (rule(shuffle_rule(ti, spec, self.rho.get(t_pc, {})))(pts[-1]),)
            return [self._mk((ps.src, None), tgt_step, pts, d, None, f"shuffle-{ti.kind.mnemonic}")]

        s_top, pt = ps.src[-1], pts[-1]
        i = w.source.instrs[s_top.pc]
        name = "asgn" if isinstance(i, Asgn) else i.kind.mnemonic
        case, owners, step_cell = HEALTHY, (), None
        sds = [replay_directive(w.source, i, s_top, d)]
        match i:
            case If(cond=c) if (pt >> sh[c]) & 3 != H:
                return []  # stuck: the branch would leak a non-healthy condition
            case If():
                pts, name = (pts + (pt,), "spec") if d == D_SPEC else (pts, "branch")
            case Load(addr=int()) | Store(addr=int()):
                name += "-const"  # in bounds, so only `step` replays
            case Load(var=x, addr=str(a)) | Store(var=x, addr=str(a)):
                size, kind, pb = w.source.memvar(x).size, name, (pt >> sh[a]) & 3
                step_cell = (x, s_top.reg(a))
                in_bounds = 0 <= step_cell[1] < size
                if pb == H and (d == D_STEP and in_bounds or d.kind == kind and d.var != STACK_VAR):
                    name += "-healthy-safe" if d == D_STEP else "-healthy-unsafe"
                elif pb == H and d.kind == kind:
                    case, name = SPILL, kind + "-poison-intro"
                    owners = [r for r, loc in self.rho.get(tgt_step[0][-1].pc, {}).items() if loc == (STACK_VAR, d.off)]
                    if not canonical_only:
                        cells = w.source.cells() if kind == "load" else [(x, o) for o in range(size)]
                        sds = [Directive(kind, v, o) for v, o in cells]
                elif pb == W and d == D_STEP:
                    case, name = WEAK, kind + ("-weak-safe" if in_bounds else "-weak-unsafe")
                    if not (canonical_only or in_bounds):
                        sds = [Directive(kind, x, o) for o in range(size)]
                else:
                    return []  # stuck: the access would leak a poisoned address
        out = []
        for sd in sds:
            src_step = step_spec(w.source, ps.src, sd, width)
            if src_step is not None:
                cell = step_cell if sd == D_STEP else (sd.var, sd.off)
                new = pts[:-1] + (rule(matched_rule(i, spec, case, cell, owners))(pts[-1]),)
                out.append(self._mk(src_step, tgt_step, new, d, sd, name))
        return out


# --- static analysis -----------------------------------------------------------


@dataclass
class StaticPoison:
    """The least static solution: each product node's packed poison type,
    in the order the analysis met the nodes."""

    values: dict[tuple[Pc, Pc], int]
    pk: _Packing

    @property
    def domain(self) -> list:
        return list(self.pk.shift)

    @cached_property
    def assignment(self) -> dict[tuple[Pc, Pc], PoisonType]:
        """The unpacked view, for the table, its JSON and the tests."""
        return {n: self.pk.unpack(x) for n, x in self.values.items()}

    def stack_for(self, src: SpecState, tgt: SpecState) -> tuple[int, ...]:
        """Per-level static poison stack; the bottom level is forced healthy."""
        out = []
        for idx, (s, t) in enumerate(zip(src, tgt)):
            out.append(self.pk.all_h if idx == 0 else self.values.get((s.pc, t.pc), self.pk.all_p))
        return tuple(out)


def prod_graph(w: RAWitness, st: Structure) -> tuple[dict, dict]:
    """Successor and predecessor lists of the product program points: the
    matched nodes, then the shuffle nodes in first-seen order."""
    phi = w.phi
    succ: dict[tuple[Pc, Pc], list] = {(s_pc, phi[s_pc]): [] for s_pc in w.source.pcs()}
    pred: dict[tuple[Pc, Pc], list] = {n: [] for n in succ}
    for s_pc in w.source.pcs():
        for idx, s_next in enumerate(w.source.instrs[s_pc].successors()):
            prev = (s_pc, phi[s_pc])
            for c in st.chains[(s_pc, idx)] + [phi[s_next]]:
                node = (s_next, c)
                if node not in succ:
                    succ[node], pred[node] = [], []
                if node not in succ[prev]:  # chains into one pc may share a tail
                    succ[prev].append(node)
                    pred[node].append(prev)
                prev = node
    return succ, pred


class _Packing:
    """Poison types packed into one int, two bits per domain key in domain
    order.  BOT, H, W and P are 0b00, 0b01, 0b10 and 0b11, so the join is
    bitwise or, bottom is 0, and comparing two types is one int comparison.
    Transfers are compiled from the shared rules, once per distinct rule or
    access shape; a `Product` and its `RepairSession` share one packing, so
    the dynamic and the static updates run the same compiled rules."""

    def __init__(self, domain):
        self.shift = {k: 2 * i for i, k in enumerate(domain)}
        ones = sum(1 << s for s in self.shift.values())  # 0b01 at every key
        self.all_h, self.all_p = ones * H, ones * P
        self.regs = [k for k in domain if isinstance(k, str)]
        self.cells = [k for k in domain if not isinstance(k, str)]
        self._compiled: dict[tuple, object] = {}  # per rule, and per access shape

    def unpack(self, x: int) -> PoisonType:
        return {k: (x >> s) & 3 for k, s in self.shift.items()}

    def rule(self, writes: tuple):
        """The transfer making `writes`, compiled once per packing."""
        fn = self._compiled.get(writes)
        if fn is None:
            fn = self._compiled[writes] = self.compile([writes])
        return fn

    def compile(self, rules: list[tuple]):
        """The transfer that gives every key the join of its values over
        `rules`; a key some rule leaves alone joins its own value."""
        sh, values = self.shift, {}
        for writes in rules:
            for k, v in writes:
                values.setdefault(k, set()).add(v)
        if not values:
            return lambda x: x
        everywhere = set.intersection(*({k for k, _ in writes} for writes in rules)) if rules[1:] else values
        clear = const = 0
        copies: dict[int, int] = {}  # shift of a copied key -> 0b01 at every key joining it
        boths = []
        for k, vs in values.items():
            sk = sh[k]
            if P in vs:  # P absorbs every other value
                const |= P << sk
                clear |= 3 << sk
                continue
            if k in vs or k not in everywhere:
                vs.discard(k)  # k joins its own value: it keeps its bits
            else:
                clear |= 3 << sk
            for v in vs:
                if isinstance(v, int):
                    const |= v << sk
                elif isinstance(v, Both):
                    boths.append((sh[v.a], sh[v.b], sk))
                else:
                    copies[sh[v]] = copies.get(sh[v], 0) | 1 << sk
        keep = ~clear
        if boths:  # only an assignment writes a Both, and it writes nothing else
            ((sa, sb, sd),) = boths
            return lambda x: (x & keep) | ((H if (x >> sa) & 3 == H and (x >> sb) & 3 == H else P) << sd)
        if copies:  # every key copied in one rule set is the same key
            ((ss, mult),) = copies.items()
            return lambda x: (x & keep) | const | ((x >> ss) & 3) * mult
        return lambda x: (x & keep) | const

    def transfer(self, i: Instr, rho_at: dict | None):
        """Transfer of a node running `i`: a matched pair when `rho_at` is
        None, else shuffle code under live relocation `rho_at`."""
        match i:
            case Sfence():
                # static only: a speculating run never passes a fence, so past
                # one there is the healthy bottom level and what `spec` copies
                all_h = self.all_h
                return lambda x: all_h
            case If(cond=c):
                # static only: the product is stuck on a non-healthy branch,
                # after which the two runs may have parted ways
                sc, all_p = self.shift[c], self.all_p
                return lambda x: x if (x >> sc) & 3 == H else all_p
            case Load(addr=str()) | Store(addr=str()):
                return self._access(i)
        if rho_at is None:
            return self.rule(matched_rule(i, True, HEALTHY, None, ()))
        return self.rule(shuffle_rule(i, True, rho_at))

    def _access(self, i: Load | Store):
        """The join of a load or store through a register over its address
        cases and cells; a spill has every register as an owner of its slot."""
        shape = (i.kind, i.var, i.addr, i.dst if isinstance(i, Load) else i.src)
        fn = self._compiled.get(shape)
        if fn is None:
            xs = [c for c in self.cells if c[0] == i.var]
            rules = [matched_rule(i, True, HEALTHY, c, ()) for c in self.cells]
            rules += [matched_rule(i, True, case, c, self.regs) for case in (SPILL, WEAK) for c in xs]
            fn = self._compiled[shape] = self.compile(rules)
        return fn

    def node(self, node, source: Program, target_instrs: dict, phi: dict, rho: dict):
        s_pc, t_pc = node
        if phi.get(s_pc) == t_pc:
            return self.transfer(source.instrs[s_pc], None)
        return self.transfer(target_instrs[t_pc], rho.get(t_pc, {}))


def poison_analysis(w: RAWitness, width: int = DEFAULT_WIDTH) -> StaticPoison:
    """Least forward solution over the product program points, healthy at entry."""
    return RepairSession(w).static_poison()


@dataclass(frozen=True)
class TypabilityViolation:
    src_pc: Pc
    tgt_pc: Pc
    reg: Reg
    kind: str  # address | branch
    value: int

    def __str__(self):
        need = "at most W" if self.kind == "address" else "H"
        return f"({self.src_pc},{self.tgt_pc}): {self.kind} register {self.reg} is {PV_NAMES[self.value]}, needs {need}"

    @property
    def key(self) -> tuple:
        return (self.src_pc, self.tgt_pc, self.reg, self.kind)


def _violation(i: Instr, node, x: int, shift: dict) -> TypabilityViolation | None:
    """The leakage guard of matched node `node` running source instruction
    `i`, whose packed poison type is `x`."""
    match i:
        case Load(addr=str(b)) | Store(addr=str(b)):
            if (x >> shift[b]) & 3 == P:
                return TypabilityViolation(*node, b, "address", P)
        case If(cond=c) if (pv := (x >> shift[c]) & 3) in (W, P):
            return TypabilityViolation(*node, c, "branch", pv)
    return None


def _order(v: TypabilityViolation) -> tuple:
    return (v.tgt_pc, v.reg)


def check_poison_typable(w: RAWitness, sp: StaticPoison) -> list[TypabilityViolation]:
    """Leakage guards on the static solution at the matched nodes, in
    (target pc, register) order: addresses <= W, branches = H."""
    nodes = ((s_pc, w.phi[s_pc]) for s_pc in w.source.pcs())
    out = (_violation(w.source.instrs[n[0]], n, sp.values[n], sp.pk.shift) for n in nodes)
    return sorted(filter(None, out), key=_order)


@dataclass
class FixInsertion:
    pc: Pc
    kind: str  # sfence | slh
    before: Pc
    violation: TypabilityViolation


@dataclass
class FixReport:
    insertions: list[FixInsertion] = field(default_factory=list)
    iterations: int = 0


class RepairSession:
    """The static poison analysis of one witness, kept current while
    `fix_ra` splices fences into its target.

    The structure, the live relocations and the packing come from one
    `Product`, which the session reads and never changes.  Splicing a fresh
    pc f in front of the matched target pc t = phi(S) patches the session's
    own target and product graph in one place each: f relocates exactly like
    t, and every product edge into (S, t) now enters (S, f), which flows
    into (S, t).  The product's structure does not learn of f.

    Construction indexes the product graph: pred and succ lists, its
    strongly connected components (SCCs) and a topological rank for each.
    It then solves every SCC in rank order, each from bottom and its inflow,
    since upstream values are final by then; a node that stays bottom
    passes nothing on.  f joins the SCC of (S, t) when that SCC is cyclic,
    and otherwise gets a fresh SCC ranked just before it.  A splice then
    solves the same way only the SCCs of (S, f) and (S, t), and, in rank
    order, each SCC that a node whose value changed flows into (Ryder &
    Paull's incremental data flow).  Resuming the old solution would be
    wrong: an `slh` turns its owner from H into W, and the two are
    incomparable.
    """

    def __init__(self, w: RAWitness, prod: Product | None = None):
        """`prod` is `w`'s product if the caller has one; the session leaves
        it as it was."""
        prod = prod if prod is not None else Product(w)
        self.w, self.domain, self.rho_live = w, prod.domain, prod.rho
        self.instrs = dict(w.target.instrs)
        self.rho = dict(w.rho)  # a splice adds a map, and changes none
        self.tgt_preds: dict[Pc, list[Pc]] = {pc: [] for pc in self.instrs}
        for pc, i in self.instrs.items():
            for s in dict.fromkeys(i.successors()):
                self.tgt_preds[s].append(pc)
        self.pk = prod.pk
        self.succ, self.pred = prod_graph(w, prod.st)
        self.fns = {n: self.pk.node(n, w.source, self.instrs, w.phi, self.rho_live) for n in self.succ}
        self.insertions: list[FixInsertion] = []
        self._counter = 0
        self._prev_key = None
        self._init = (w.source.entry, w.target.entry)
        self._index()
        self.values = dict.fromkeys(self.succ, 0)
        self._viol: dict = {}  # matched node -> its violation, or None
        self._resolve(set(range(len(self.members))))

    def static_poison(self) -> StaticPoison:
        """`poison_analysis(self.witness())`."""
        return StaticPoison(dict(self.values), self.pk)

    def witness(self) -> RAWitness:
        """The current witness: the input one until the first splice."""
        if not self.insertions:
            return self.w
        t = self.w.target
        target = Program(t.entry, dict(self.instrs), list(t.memvars))
        return RAWitness(self.w.source, target, dict(self.w.phi), {pc: dict(m) for pc, m in self.rho.items()})

    def repair_one(self) -> FixInsertion | None:
        """Splice one fence for the first violation; None when typable."""
        if not self.violations:
            return None
        v = self.violations[0]
        # an slh does not discharge a constraint whose node also joins healthy
        # inflow (H and W join to P); escalate to a fence in that case
        escalate = self._prev_key in {x.key for x in self.violations}
        if escalate:
            v = next(x for x in self.violations if x.key == self._prev_key)
        self._prev_key = v.key
        while f"fx{self._counter}" in self.instrs:
            self._counter += 1
        fresh = f"fx{self._counter}"
        if v.kind == "branch" or escalate:
            new_instr, kind = Sfence(v.tgt_pc), "sfence"
        else:
            hw = self.rho[v.tgt_pc][v.reg]
            if is_slot(hw):
                raise RuntimeError(f"cannot slh a stack-resident address register {v.reg}")
            new_instr, kind = Slh(hw, v.tgt_pc), "slh"
        self._splice(fresh, new_instr, v.src_pc, v.tgt_pc)
        ins = FixInsertion(fresh, kind, v.tgt_pc, v)
        self.insertions.append(ins)
        return ins

    def _index(self):
        """The SCCs of the product graph, found in topological order by
        Kosaraju's search against the flow, rooted in reverse postorder of
        the flow."""
        self.rank: list[tuple] = []  # SCC id -> its topological rank
        order = dataflow.reverse_postorder([self._init, *self.succ], self.succ)
        comp: dict = {}  # node -> SCC id
        for root in order:
            if root in comp:
                continue
            c = comp[root] = len(self.rank)
            self.rank.append((c,))  # tuples, so a rank can be split
            stack = [root]
            while stack:
                for u in self.pred[stack.pop()]:
                    if u not in comp:
                        comp[u] = c
                        stack.append(u)
        self.comp = comp
        self.members: list[list] = [[] for _ in self.rank]  # SCC id -> its nodes, in `order`
        for n in order:
            self.members[comp[n]].append(n)

    def _splice(self, fresh: Pc, new_instr: Instr, s_pc: Pc, t_pc: Pc):
        for pc in self.tgt_preds[t_pc]:
            self.instrs[pc] = _redirect(self.instrs[pc], t_pc, fresh)
        self.instrs[fresh] = new_instr
        self.tgt_preds[fresh], self.tgt_preds[t_pc] = self.tgt_preds[t_pc], [fresh]
        self.rho[fresh] = dict(self.rho.get(t_pc, {}))
        # product graph: edges into (S, t) now enter (S, f), which flows into (S, t)
        old, new = (s_pc, t_pc), (s_pc, fresh)
        succ, pred, comp = self.succ, self.pred, self.comp
        c = comp[old]
        cyclic = len(self.members[c]) > 1 or old in succ[old]
        for u in pred[old]:
            succ[u][succ[u].index(old)] = new
        pred[new], pred[old], succ[new] = pred[old], [new], [old]
        self.values[new] = 0
        self.fns[new] = self.pk.transfer(new_instr, self.rho_live[t_pc])  # f relocates like t
        if cyclic:
            self.members[c].insert(self.members[c].index(old), new)
            comp[new] = c
        else:
            # f takes t's rank; t's rank gains a suffix, which sorts it after
            # f and still before every rank that sorted after it
            comp[new] = len(self.members)
            self.members.append([new])
            self.rank.append(self.rank[c])
            self.rank[c] += (0,)
        self._resolve({comp[new], c})

    def _resolve(self, dirty: set):
        """Solve the SCCs in `dirty`, and each SCC that a node whose value
        changed flows into, in rank order, each from bottom and its inflow."""
        values, fns, pred, succ, comp, rank = self.values, self.fns, self.pred, self.succ, self.comp, self.rank
        phi, instrs, viol, shift = self.w.phi, self.w.source.instrs, self._viol, self.pk.shift
        init, all_h = self._init, self.pk.all_h
        todo = sorted((rank[c], c) for c in dirty)
        head = 0
        while head < len(todo):
            c = todo[head][1]
            head += 1
            members = self.members[c]
            before = [values[n] for n in members]
            for n in members:
                x = all_h if n == init else 0
                for u in pred[n]:
                    if comp[u] != c and values[u]:
                        x |= fns[u](values[u])
                values[n] = x
            if len(members) > 1 or members[0] in succ[members[0]]:
                work, queued = deque(members), set(members)
                while work:
                    n = work.popleft()
                    queued.discard(n)
                    if not values[n]:
                        continue
                    out = fns[n](values[n])
                    for m in succ[n]:
                        if comp[m] == c and values[m] | out != values[m]:
                            values[m] |= out
                            if m not in queued:
                                work.append(m)
                                queued.add(m)
            for n, x in zip(members, before):
                if values[n] == x:
                    continue
                if phi[n[0]] == n[1]:
                    viol[n] = _violation(instrs[n[0]], n, values[n], shift)
                for m in succ[n]:
                    if comp[m] not in dirty:
                        dirty.add(comp[m])
                        insort(todo, (rank[comp[m]], comp[m]), head)
        self.violations = sorted(filter(None, viol.values()), key=_order)


def fix_ra(w: RAWitness, width: int = DEFAULT_WIDTH) -> tuple[RAWitness, FixReport]:
    """Insert fences until poison-typable.

    One violation is fixed per round, in (target pc, register) order: `slh` on
    the relocated register when weak poison suffices (addresses), `sfence`
    when health is required (branches).  The new pc is spliced in front of the
    violating target pc, inheriting its relocation.

    The rounds share one `RepairSession`, which patches the analysis per
    splice instead of rerunning `poison_analysis`.  A splice keeps a witness
    valid as it was (the new pc relocates like the pc it precedes, `sfence`
    moves nothing and `slh` keeps its register in place), so the witness is
    validated once, when the session's `Product` is built: an invalid input
    raises `ValueError` even when it needs no fence.  `width` is accepted for
    symmetry with `poison_analysis`; the static analysis does not depend on
    it.
    """
    session = RepairSession(w)
    report = FixReport(session.insertions)
    cap = 2 * len(w.target.instrs) * max(1, len(w.source.registers)) + 1
    for it in range(cap):
        report.iterations = it
        if session.repair_one() is None:
            return session.witness(), report
    raise RuntimeError(f"fix iteration cap {cap} exceeded; witness still not typable")


def _redirect(i: Instr, old: Pc, new: Pc) -> Instr:
    """`i` with every successor `old` replaced by `new`."""
    moved = {f: new for f in i.kind.succs if getattr(i, f) == old}
    return replace(i, **moved) if moved else i


def format_poison_table(sp: StaticPoison) -> str:
    keys = sp.domain
    head = "node".ljust(16) + " ".join(loc_text(k).rjust(8) for k in keys)
    lines = [head]
    for node in sorted(sp.values, key=lambda n: (pc_key(n[0]), pc_key(n[1]))):
        pt = sp.assignment[node]
        lines.append(
            f"({node[0]},{node[1]})".ljust(16)
            + " ".join(PV_NAMES[pt[k]].rjust(8) for k in keys)
        )
    return "\n".join(lines) + "\n"
