"""Low-equivalence, program safety, and bounded speculative non-interference.

Two initial states are indistinguishable to the attacker (`low_equivalent`)
when they share the pc and registers and agree on all memory outside the high
variables, as do the lanes of a packed state without packed values there.  A
program is SNI when indistinguishable initial states have the same behaviour:
the same directive sequences are executable and produce the same leakage.

Every SNI search is one loop, `_walk`: bounded self-composition (Barthe,
D'Argenio and Rezk) over the joint directive tree.  A node stands for the
states that the starting states reach along one directive sequence; the walk
compares their enabled directives at each node and their leaks on each step.
A node is expanded again only when it comes back with more of the step budget
left than at any earlier visit: what lies beyond it depends only on the node
and that budget.  Branches cut by the step or depth bound are counted and
make a secure verdict explicitly "secure up to bounds".  It has three starts.
The last two differ only in the values of their one start state: below the
step cut, a question about a value that the runs it stands for may answer
differently (`semantics.Divergent`) stops the walk.

- `check_sni_pair`: the two states of a pair, in order.
- The taint certificate: one state whose high cells hold a tainted 0
  (`semantics.Tainted`), which stands for every high assignment (Denning
  and Denning's flow certification, carried by the values).  If no tainted
  value decides a branch or an address within the bounds, every assignment
  takes the same directives with the same leaks.
- The packed walk: all N high assignments as one state, a lane each
  (`semantics.pack`), stepped in lockstep.  In this semantics a branch leaks
  its condition and an access its address, so every question that the lanes
  answer differently is a leak or an enabled set in which two assignments
  differ.  A walk with no such question checks every pair at once.

Exhaustive `check_sni` runs the certificate before it enumerates anything.
A program it refuses has its N assignments enumerated, within `PAIR_BUDGET`,
and its first pair checked alone (the probe); then the packed walk decides
the rest.  The probe stays because a leak at the first pair is common, and a
pair search finds it sooner than a walk over N lanes.  After a difference,
the pairs are checked one by one, so the violation reported is the pairwise
one.  A violation keeps both states' leak traces from the walk's own replay
of its directives through the table, and its report prints those: no state
is run a second time.

The walk reads each state's enabled directives, and the successor and leak
of each, from a `semantics.transition_table`: every speculative state it
meets is interned to a dense id whose row is filled when it is first
expanded.  The memo and the stack hold ids, so a revisit hashes a few ints
instead of stacks of states.  `check_sni` passes one table to every walk of
a call, so a state that two walks meet has its row filled once; the
certificate's states hold tainted values, so it shares few with the others.
The table lives for one call.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .ir import Exit, If, Program
from .semantics import (
    Bounds,
    D_IF,
    D_STEP,
    DEFAULT_WIDTH,
    Directive,
    Divergent,
    Interner,
    Lanes,
    Leakage,
    SpecState,
    State,
    canonical,
    pack,
    step_spec,
    tainted,
    transition_table,
    unpack,
    walk,
)


def low_equivalent(p: Program, *states: State) -> bool:
    """Whether the attacker sees `states` as one: the same pc, registers and
    memory outside the high variables of `p`, and no packed value there.  Of
    one packed state (`semantics.pack`): whether its lanes are low-equivalent."""
    high = {v.name for v in p.memvars if v.level == "high"}
    views = [(s.pc, s.regs, tuple([c for c in s.mem if c[0][0] not in high])) for s in states]
    kinds = {v.__class__ for _, regs, low in views for _, v in regs + low}
    return Lanes not in kinds and views.count(views[0]) == len(views)


class SafetyResult(NamedTuple):
    status: str  # safe | unsafe | bound-exhausted
    step_index: int | None = None


def check_safety(p: Program, s0: State, max_steps: int = 1024, width: int = DEFAULT_WIDTH) -> SafetyResult:
    """Run the deterministic speculation-free semantics from s0.

    Unsafe as soon as a step would need a load/store directive, i.e. an
    out-of-bounds access is reached architecturally.  A depth-1 state under
    `step` and `if` is that semantics.
    """
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


class SniVerdict(NamedTuple):
    kind: str  # secure | violation
    bounds: Bounds
    truncated: int = 0
    pairs_checked: int = 0
    state1: SpecState | None = None
    state2: SpecState | None = None
    directives: tuple[Directive, ...] = ()
    divergence: str = ""  # leak | enabled
    leaks1: tuple[Leakage, ...] = ()  # each state's leaks along `directives`
    leaks2: tuple[Leakage, ...] = ()
    enabled1: tuple[Directive, ...] = ()
    enabled2: tuple[Directive, ...] = ()

    @property
    def secure(self) -> bool:
        return self.kind == "secure"

    def report(self, full: bool = False) -> dict:
        """Machine-readable verdict.  A violation's `full` report adds the two
        initial-state files and both leak traces, as the walk replayed the
        directives."""
        out = {"verdict": self.kind, "truncated": self.truncated, "pairs_checked": self.pairs_checked}
        if self.kind == "violation":
            out["directives"] = [str(d) for d in self.directives]
            out["divergence"] = self.divergence
            if self.divergence == "leak":
                out["leak1"], out["leak2"] = str(self.leaks1[-1]), str(self.leaks2[-1])
            else:
                out["enabled1"] = [str(d) for d in self.enabled1]
                out["enabled2"] = [str(d) for d in self.enabled2]
            if full:
                from .semantics import format_initial_state

                out["state1"] = format_initial_state(self.state1)
                out["state2"] = format_initial_state(self.state2)
                out["leaks1"] = [str(l) for l in self.leaks1]
                out["leaks2"] = [str(l) for l in self.leaks2]
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
    (see `check_sni`).  The walk returns the directives to a difference, and
    each side replays them through the table: the verdict keeps both leak
    traces, which a violation report prints, and the enabled sets where
    they differ."""
    if len(nu1) != 1 or len(nu2) != 1 or not low_equivalent(p, nu1[0], nu2[0]):
        raise ValueError("initial states are not low-equivalent: they must agree on pc, registers and low memory")

    if table is None:
        table = transition_table(p, width)
    i1, i2 = table.id(nu1), table.id(nu2)
    cuts, dirs = _walk(table, (i1, i2), b)
    if dirs is None:
        return SniVerdict("secure", b, cuts, pairs_checked=1)
    (end1, leaks1), (end2, leaks2) = walk(table, i1, dirs), walk(table, i2, dirs)
    v = SniVerdict("violation", b, cuts, 1, nu1, nu2, dirs, leaks1=leaks1, leaks2=leaks2)
    if leaks1 != leaks2:
        return v._replace(divergence="leak")
    return v._replace(divergence="enabled", enabled1=table.row(end1)[0], enabled2=table.row(end2)[0])


def _walk(table: Interner, start: int | tuple, b: Bounds) -> tuple[int, tuple | None]:
    """The bounded walk from `start` in `table`: the number of cuts, and
    None, or the directives to the first difference or refusal.

    A node is one id, or an ordered pair of ids until they are equal: a
    pair's memo is keyed by its joint state, which tells apart a pair whose
    states have swapped sides.  Per node, in this order: a leak difference
    on the step into it (so in preorder), the spec-depth cut, a difference
    in the enabled sets or a `Divergent` row, no directives, the step cut,
    the memo (keyed by the node alone), the children.

    A one-id node stands for the runs its values hold: a lane each of a
    packed value, every high assignment of a tainted one.  A `Divergent`
    row is a leak or an enabled set that they may differ in: a difference,
    or for a tainted node a refusal.  At the step cut only the enabled sets
    count, so the node is split there by `semantics.unpack` into its lanes,
    each with its own row; a tainted one unpacks to its all-zero run alone.
    A tainted row asks only about a branch condition, which leaves the
    enabled set alone, or an address, which decides it: at the cut a branch
    is cut and an address refuses.

    A packed node is keyed by its state in `semantics.canonical` order, so
    one id stands for one set of members; a start without a packed value
    skips that.  A tainted value keeps only its all-zero run, so the
    certificate's memo can close a cycle that the packed walk cuts at the
    step bound, and count fewer cuts."""
    states, row = table.values, table.row
    max_depth, max_steps = b.max_spec_depth, b.max_steps
    packed = type(start) is int and canonical((states[start],))[1] > 1
    canon: dict[int, int] = {}  # in a packed walk: id -> the id of its state in canonical order
    node = start[0] if type(start) is tuple and start[0] == start[1] else start
    cuts = 0
    seen: dict = {}  # node -> most steps left
    # a stack of (node, steps, directive, parent entry), children pushed in
    # reverse: the recursive preorder without Python's recursion limit.  A
    # pair's child whose two leaks differ is pushed as node None.
    stack = [(node, 0, None, None)]
    push = stack.append
    while stack:
        entry = stack.pop()
        node, steps, _, _ = entry
        if node is None:
            break
        if type(node) is int:
            if packed:
                if node not in canon:
                    canon[node] = table.id(canonical((states[node],))[0][0])
                node = canon[node]
            nu = states[node]
            if len(nu) > max_depth:
                cuts += 1
                continue
            try:
                dirs, succs = row(node)
            except Divergent:  # a difference or a refusal, unless at the step cut the enabled sets agree
                if steps < max_steps:
                    break
                enabled = {row(table.id(lane))[0] for lane, in unpack((nu,))}
                if len(enabled) > 1 or not packed and D_IF not in enabled.pop():
                    break
                cuts += 1
                continue
        else:
            a, c = node
            if len(states[a]) > max_depth:
                cuts += 1
                continue
            (dirs, succs), (other, succs2) = row(a), row(c)
            if other != dirs:
                break
        if not dirs:
            continue
        if steps >= max_steps:
            cuts += 1
            continue
        left = max_steps - steps
        if seen.get(node, 0) >= left:
            continue
        seen[node] = left
        steps += 1
        if type(node) is int:
            for d, (j, _) in zip(reversed(dirs), reversed(succs)):
                push((j, steps, d, entry))
        else:
            for d, (a, l1), (c, l2) in zip(reversed(dirs), reversed(succs), reversed(succs2)):
                push((None if l1 != l2 else a if a == c else (a, c), steps, d, entry))
    else:
        return cuts, None
    dirs = []  # the directives from the start to `entry`, by its parent links
    while entry[3] is not None:
        dirs.append(entry[2])
        entry = entry[3]
    return cuts, tuple(reversed(dirs))


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
    for a program its certificate refuses, and then packs them into one
    state: every packed value of its walk holds up to N lanes."""
    cells = high_cells(p)
    if len(cells) * width > PAIR_BUDGET:
        raise ValueError(f"exhaustive pair budget exceeded: {len(cells)} high cells at width {width}")
    return [_with_high(base, cells, combo) for combo in itertools.product(range(1 << width), repeat=len(cells))]


class PairSource(NamedTuple):
    mode: str  # exhaustive | sampled | file
    count: int = 0
    seed: int = 0
    pairs: list[tuple[SpecState, SpecState]] | tuple = ()


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
    them, by the routes the module docstring gives.  A secure verdict over
    N > 2 reports `pairs_checked` = C(N, 2), and as `truncated` the cuts of
    the certificate's walk, or of the packed walk for a program the
    certificate refuses.  Exhaustive and sampled pairs are drawn as the
    check goes, so a violation found early never waits on the rest.
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
            cuts, refused = _walk(table, table.id(_with_high(base, cells, [tainted(0)] * len(cells))), b)
            if refused is None:
                return SniVerdict("secure", b, cuts, pairs_checked=math.comb(n, 2))
        states = enumerate_high_states(p, base, width)
        pairs = itertools.combinations(states, 2)  # streamed: millions of pairs at the budget
        if n > 2:
            v = check_sni_pair(p, *next(pairs), b, width, table)
            if not v.secure:
                return v
            cuts, diff = _walk(table, table.id((pack([s for s, in states]),)), b)
            if diff is None:
                return SniVerdict("secure", b, cuts, pairs_checked=math.comb(n, 2))
            checked, truncated = 1, v.truncated
    else:
        raise ValueError(f"unknown pair source {source.mode}")

    for a, c in pairs:
        v = check_sni_pair(p, a, c, b, width, table)
        checked += 1
        truncated += v.truncated
        if not v.secure:
            return v._replace(pairs_checked=checked)
    return SniVerdict("secure", b, truncated, pairs_checked=checked)
