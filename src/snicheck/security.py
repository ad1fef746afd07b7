"""Low-equivalence, program safety, and bounded speculative non-interference.

Two initial states are indistinguishable to the attacker when they share the
program counter and register file and agree on every cell of every low
variable; only high memory may differ.  A program is SNI when indistinguishable
initial states have the same behaviour: the same directive sequences are
executable and produce the same leakage.

`check_sni_pair` walks two states in lockstep over the joint directive tree,
comparing enabled-directive sets before each step and leakages after it.
A joint state is expanded again only when it comes back with more of the step
budget left than at any earlier visit: what lies beyond a state depends only
on the state and that budget, so a revisit with no more budget cannot find a
new divergence.  Branches cut by the step or depth bound are counted and make
a Secure verdict explicitly "secure up to bounds".

Exhaustive `check_sni` first tries to certify all pairs of the N high
assignments with one run (`_certify`), before it enumerates them: a
taint-labelled search from one of them in which high cells start tainted,
as in Denning and Denning's flow certification done over the directive
semantics.  If no tainted register decides a branch or an address within
the bounds, every assignment takes the same directives with the same
leaks, and the verdict is secure.  A program it refuses has its N
assignments enumerated, within `PAIR_BUDGET`, and is decided with one walk
(`_walk_group`), the N-way self-composition grouped by what the attacker
observes: a node is the set of states that the assignments reach along one
directive sequence, and each member is compared with one member, so by
transitivity a walk with no difference has checked every pair.  The first
pair is checked alone before it (the probe), so a leak there costs one pair
search, not N members per node.  After a difference, the other pairs are
checked one by one, so the violation reported is the pairwise one.

The enabled directives of a single state and the successor and leak of each
are a pure function of that state, the program and the width.  The searches
therefore read them from a `semantics.transition_table`: every speculative
state they meet is interned to a dense id, and the row of an id holds the
state's enabled directives and, for each, the successor's id and the leak,
filled when the state is first expanded.  The memos and the stacks hold ids,
so a revisit hashes a few ints instead of stacks of states.  `check_sni`
passes one table to the probe, the walk and every pair it checks: each run
takes part in many pairs, and each still checks exactly what it checked
stepping afresh.  The certificate fills the table first, and a refused
program's probe and walk reuse its rows.  The table lives for one call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .ir import If, Program, Slh
from .semantics import (
    Bounds,
    D_IF,
    D_STEP,
    DEFAULT_WIDTH,
    Directive,
    Interner,
    Leakage,
    SpecState,
    State,
    step_spec,
    transition_table,
)


def low_equivalent(p: Program, s1: State, s2: State) -> bool:
    """Same pc, same registers, same low memory; high cells are free."""
    if s1.pc != s2.pc or s1.regs != s2.regs:
        return False
    for v in p.memvars:
        if v.level != "low":
            continue
        for off in range(v.size):
            if s1.cell(v.name, off) != s2.cell(v.name, off):
                return False
    return True


@dataclass
class SafetyResult:
    status: str  # safe | unsafe | bound-exhausted
    step_index: int | None = None


def check_safety(p: Program, s0: State, max_steps: int = 1024, width: int = DEFAULT_WIDTH) -> SafetyResult:
    """Run the deterministic speculation-free semantics from s0.

    Unsafe as soon as a step would need a load/store directive, i.e. an
    out-of-bounds access is reached architecturally.  A depth-1 state under
    `step` and `if` is that semantics.
    """
    from .ir import Exit, If

    s = s0
    for idx in range(max_steps):
        i = p.instrs[s.pc]
        if isinstance(i, Exit):
            return SafetyResult("safe")
        d = D_IF if isinstance(i, If) else D_STEP
        res = step_spec(p, (s,), d, width)
        if res is None:
            return SafetyResult("unsafe", idx)
        s = res[0][0]
    return SafetyResult("bound-exhausted")


@dataclass
class SniVerdict:
    kind: str  # secure | violation
    bounds: Bounds
    truncated: int = 0
    pairs_checked: int = 0
    state1: SpecState | None = None
    state2: SpecState | None = None
    directives: tuple[Directive, ...] = ()
    divergence: str = ""  # leak | enabled
    leak1: Leakage | None = None
    leak2: Leakage | None = None
    enabled1: tuple[Directive, ...] = ()
    enabled2: tuple[Directive, ...] = ()

    @property
    def secure(self) -> bool:
        return self.kind == "secure"

    def report(self, p: Program | None = None, width: int = DEFAULT_WIDTH) -> dict:
        """Machine-readable verdict; for violations with the program available,
        includes the two initial-state files, the directive script, and both
        replayed leakage traces."""
        out = {"verdict": self.kind, "truncated": self.truncated, "pairs_checked": self.pairs_checked}
        if self.kind == "violation":
            out["directives"] = [str(d) for d in self.directives]
            out["divergence"] = self.divergence
            if self.divergence == "leak":
                out["leak1"], out["leak2"] = str(self.leak1), str(self.leak2)
            else:
                out["enabled1"] = [str(d) for d in self.enabled1]
                out["enabled2"] = [str(d) for d in self.enabled2]
            if p is not None:
                from .semantics import format_initial_state, run_directives

                out["state1"] = format_initial_state(self.state1)
                out["state2"] = format_initial_state(self.state2)
                ex1 = run_directives(p, self.state1, list(self.directives), width)
                ex2 = run_directives(p, self.state2, list(self.directives), width)
                out["leaks1"] = [str(l) for l in ex1.leaks]
                out["leaks2"] = [str(l) for l in ex2.leaks]
        return out


def check_sni_pair(
    p: Program,
    nu1: SpecState,
    nu2: SpecState,
    b: Bounds,
    width: int = DEFAULT_WIDTH,
    table: Interner | None = None,
) -> SniVerdict:
    """Synchronized bounded search for a behavioural difference of nu1 vs nu2.

    Each side's transitions are read from `table` (`transition_table` of `p`
    at `width`), whose rows are filled on first use; a caller checking several
    pairs of one program at one width passes the same table to all of them
    (see `check_sni`)."""
    if len(nu1) != 1 or len(nu2) != 1 or not low_equivalent(p, nu1[0], nu2[0]):
        raise ValueError("initial states are not low-equivalent: they must agree on pc, registers and low memory")

    if table is None:
        table = transition_table(p, width)
    states, row = table.values, table.row
    truncated = 0
    budget_seen: dict[tuple[int, int], int] = {}  # joint state ids -> most steps left

    # an explicit stack, children pushed in reverse and each checked when
    # popped: the recursive preorder, with its leak checks, bound counts and
    # memo updates in the same order, without Python's recursion limit.
    stack = [(table.id(nu1), table.id(nu2), (), None, None)]
    while stack:
        a, c, dirs, l1, l2 = stack.pop()
        if l1 != l2:
            return SniVerdict(
                "violation", b, truncated, state1=nu1, state2=nu2,
                directives=dirs, divergence="leak", leak1=l1, leak2=l2,
            )
        if len(states[a]) > b.max_spec_depth:
            truncated += 1
            continue
        e1, steps1 = row(a)
        e2, steps2 = row(c)
        if e1 != e2:
            return SniVerdict(
                "violation", b, truncated, state1=nu1, state2=nu2, directives=dirs,
                divergence="enabled", enabled1=e1, enabled2=e2,
            )
        if not e1:
            continue
        if len(dirs) >= b.max_steps:
            truncated += 1
            continue
        key, left = (a, c), b.max_steps - len(dirs)
        if budget_seen.get(key, 0) >= left:
            continue
        budget_seen[key] = left
        for d, (a2, l1), (c2, l2) in reversed(tuple(zip(e1, steps1, steps2))):
            stack.append((a2, c2, dirs + (d,), l1, l2))
    return SniVerdict("secure", b, truncated, pairs_checked=1)


def _walk_group(table: Interner, ids: list[int], b: Bounds) -> int | None:
    """`check_sni_pair` on every pair of `ids` at once: the number of cuts, or
    None when two of them differ.  Its bounds, leaf test and memo are those
    of `check_sni_pair`, keyed by a node's set of ids.  A node merged to one
    id is still walked, as the pairs inside it would be."""
    states, row = table.values, table.row
    cuts = 0
    budget_seen: dict[frozenset, int] = {}  # ids -> most steps left
    stack = [(frozenset(ids), 0)]
    while stack:
        group, steps = stack.pop()
        if len(states[next(iter(group))]) > b.max_spec_depth:
            cuts += 1
            continue
        rows = [row(i) for i in group]
        dirs = rows[0][0]
        if any(r[0] != dirs for r in rows):
            return None
        if not dirs:
            continue
        if steps >= b.max_steps:
            cuts += 1
            continue
        left = b.max_steps - steps
        if budget_seen.get(group, 0) >= left:
            continue
        budget_seen[group] = left
        # a column holds each member's (successor, leak) on one directive
        for column in reversed(tuple(zip(*[r[1] for r in rows]))):
            kids, leaks = zip(*column)
            if leaks.count(leaks[0]) != len(leaks):
                return None
            stack.append((frozenset(kids), steps + 1))
    return cuts


def _certify(p: Program, table: Interner, base_id: int, b: Bounds) -> int | None:
    """A taint certificate that every high assignment of the state `base_id`
    behaves alike within `b`: the number of cuts, or None when a tainted
    register decides a branch or an address.

    One search over `table` from `base_id`, in `_walk_group`'s bound order,
    with a taint stack beside each state, one packed int per frame over
    `p.registers` and `p.cells()`; high cells start tainted.  A step taints
    what it defines iff it uses a tainted value.  The cell a `load`/`fill`
    reads is one of its uses and the cell a `store`/`spill` writes one of
    its defs: the in-bounds address, else the directive's cell.  `slh` uses
    nothing while speculating, so it clears its register.  `spec` pushes a
    copy of the top frame's taint and `rb` pops it.  An untainted value is
    then the same in every assignment, and so are the enabled directives
    and the leaks.  An address is checked before the step cut, since the
    enabled directives of a cut node are compared too; a branch leaks only
    when it is expanded.  The memo is keyed by (id, taint stack), so it can
    close a cycle of states that the walk, keyed by groups, cuts at the step
    bound: then the certificate counts fewer cuts."""
    regs = {r: 1 << k for k, r in enumerate(p.registers)}
    cells = {c: 1 << k for k, c in enumerate(p.cells(), len(regs))}
    # pc -> (address guard, branch guard, uses, uses while speculating, defs,
    # `Kind.access` of the instruction)
    rules = {}
    for pc, i in p.instrs.items():
        addr = uses = defs = 0
        for f in i.kind.uses:
            r = getattr(i, f)
            if f == "addr":
                addr = regs.get(r, 0)  # a `#n` address is no register
            else:
                uses |= regs[r]
        for f in i.kind.defs:
            defs |= regs[getattr(i, f)]
        branch = uses if isinstance(i, If) else 0
        rules[pc] = addr, branch, uses, 0 if isinstance(i, Slh) else uses, defs, i.kind.access(i)
    states, row = table.values, table.row
    cuts = 0
    budget_seen: dict[tuple, int] = {}  # (id, taint stack) -> most steps left
    stack = [(base_id, (sum(cells[c] for c in high_cells(p)),), 0)]
    while stack:
        i, taints, steps = stack.pop()
        nu = states[i]
        if len(nu) > b.max_spec_depth:
            cuts += 1
            continue
        dirs, succs = row(i)
        top, t = nu[-1], taints[-1]
        addr, branch, uses, spec_uses, defs, access = rules[top.pc]
        if t & addr:
            return None
        if not dirs:
            continue
        if steps >= b.max_steps:
            cuts += 1
            continue
        key, left = (i, taints), b.max_steps - steps
        if budget_seen.get(key, 0) >= left:
            continue
        budget_seen[key] = left
        if t & branch:
            return None
        if len(nu) > 1:
            uses = spec_uses
        for d, (j, _) in reversed(tuple(zip(dirs, succs))):
            if d.kind == "rb":
                nxt = taints[:-1]
            elif d.kind == "spec":
                nxt = taints + (t,)
            elif d.kind == "if":
                nxt = taints
            else:
                u, w = uses, defs
                if access:
                    var, a, reads = access
                    if d.var:
                        var, a = d.var, d.off
                    elif not isinstance(a, int):
                        a = top.reg(a)
                    if reads:
                        u |= cells[var, a]
                    else:
                        w |= cells[var, a]
                nxt = taints[:-1] + ((t | w) if t & u else (t & ~w),)
            stack.append((j, nxt, steps + 1))
    return cuts


def high_cells(p: Program) -> list[tuple[str, int]]:
    return [(v.name, off) for v in p.memvars if v.level == "high" for off in range(v.size)]


# the largest `|high cells| * width` an exhaustive check enumerates
PAIR_BUDGET = 12


def _with_high(base: SpecState, cells: list, values) -> SpecState:
    """`base` with high cell `cells[k]` set to `values[k]`."""
    s = base[0]
    for (var, off), v in zip(cells, values):
        s = s.with_cell(var, off, v)
    return (s,)


def enumerate_high_states(p: Program, base: SpecState, width: int) -> list[SpecState]:
    """All initial states that agree with `base` except on high cells, the
    one with every high cell 0 first.

    Their number N is `2 ** (|high cells| * width)`, and that exponent must
    stay within `PAIR_BUDGET`.  Exhaustive `check_sni` enumerates them only
    for a program its certificate refuses, and then walks all N together:
    every node of its walk compares up to N members, and its table holds a
    row for each state that any of them reaches."""
    cells = high_cells(p)
    if len(cells) * width > PAIR_BUDGET:
        raise ValueError(f"exhaustive pair budget exceeded: {len(cells)} high cells at width {width}")
    return [_with_high(base, cells, combo) for combo in itertools.product(range(1 << width), repeat=len(cells))]


@dataclass
class PairSource:
    mode: str  # exhaustive | sampled | file
    count: int = 0
    seed: int = 0
    pairs: list[tuple[SpecState, SpecState]] = field(default_factory=list)


def _sampled_pairs(base: SpecState, cells: list, source: PairSource, width: int):
    """`source.count` pairs drawn from `source.seed` as the check asks for
    them, each cell of the first state, then of the second."""
    import random

    rng = random.Random(source.seed)
    for _ in range(source.count):
        values = [rng.randrange(1 << width) for _ in range(2 * len(cells))]
        yield _with_high(base, cells, values[0::2]), _with_high(base, cells, values[1::2])


def check_sni(
    p: Program,
    base: SpecState,
    source: PairSource,
    b: Bounds,
    width: int = DEFAULT_WIDTH,
) -> SniVerdict:
    """First violation over the selected pairs, else Secure.

    Every pair must be low-equivalent: a file pair that is not raises
    ValueError, and exhaustive and sampled pairs always are.  Exhaustive
    mode covers every assignment of the high cells at the given width, N of
    them.  With N > 2 it first runs the taint certificate (`_certify`) from
    the assignment with every high cell 0, before it enumerates any; a
    certified program is secure with `pairs_checked` = C(N, 2) and the
    certificate's cuts as `truncated`, whatever N.  Only a refused program
    enumerates the N assignments, guarded by `|high cells| * width <=
    PAIR_BUDGET` (`enumerate_high_states`).  It has its first pair checked,
    then all C(N, 2) pairs decided in one walk (`_walk_group`), whose cuts a
    secure verdict reports as `truncated`; if the walk finds a difference,
    the other pairs are checked in order.  Exhaustive and sampled pairs are
    drawn as the check goes, so a violation found early never waits on the
    rest.
    """
    truncated = 0
    checked = 0
    table = transition_table(p, width)
    if source.mode == "file":
        pairs = source.pairs
    elif source.mode == "sampled":
        pairs = _sampled_pairs(base, high_cells(p), source, width)
    elif source.mode == "exhaustive":
        cells = high_cells(p)
        n = 1 << (len(cells) * width)
        if n > 2:
            cuts = _certify(p, table, table.id(_with_high(base, cells, [0] * len(cells))), b)
            if cuts is not None:
                return SniVerdict("secure", b, cuts, pairs_checked=math.comb(n, 2))
        states = enumerate_high_states(p, base, width)
        pairs = itertools.combinations(states, 2)  # streamed: millions of pairs at the budget
        if n > 2:
            v = check_sni_pair(p, *next(pairs), b, width, table)
            if not v.secure:
                v.pairs_checked = 1
                return v
            cuts = _walk_group(table, [table.id(s) for s in states], b)
            if cuts is not None:
                return SniVerdict("secure", b, cuts, pairs_checked=math.comb(n, 2))
            checked, truncated = 1, v.truncated
    else:
        raise ValueError(f"unknown pair source {source.mode}")

    for a, c in pairs:
        v = check_sni_pair(p, a, c, b, width, table)
        checked += 1
        truncated += v.truncated
        if not v.secure:
            v.pairs_checked = checked
            return v
    return SniVerdict("secure", b, truncated, pairs_checked=checked)
