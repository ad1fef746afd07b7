"""Directive-transforming simulation witnesses and their bounded checks.

A witness for a transformation provides three pieces: a relation between
target and source states, a mapping from target initial states to source
initial states, and an interval enumerator that pairs each target
continuation from a related pair with its canonical source replay.  A
witness is built for one width.  The enumerator is handed the pair as its
ids in the `semantics.transition_table`s of both programs at that width
(`Tables`) and steps through them; `extract_intervals` takes the pair's
states, and makes fresh tables when it is not handed any.

Intervals for dead code elimination are single joint steps, except that a
misprediction extends greedily through plain steps until the target can no
longer step (speculated straight-line code runs to its end in one interval).
Intervals for register allocation follow the product: one matched step, then
the shuffle chain in the target while the source waits, ending either at the
next matched pair or early with a joint rollback.

`check_simulation` and `check_snippy_cube` are two entry points to one
breadth-first walk over pairs of runs.  `check_simulation` starts from one
initial target state; `check_snippy_cube` from all its high assignments at
the witness's width (`security.enumerate_high_states`, within
`security.PAIR_BUDGET`), packed into one state (`semantics.Lanes`, a lane per
assignment) and mapped once, to a source whose lanes are low-equivalent
(`security.low_equivalent`).  A node is one pair id in `semantics.canonical`
order, so it stands for one set of members (pairs of plain runs), and every
count is multiplied by them.

Each expansion checks its pair with the simulation conditions: every enabled
target directive heads an interval, both projections of every interval
replay, and interval ends are related again.  While every question asked of
a packed pair has one answer for all lanes, its members take the same
intervals with the same signatures: the two-pair condition holds among them,
and each interval's end is a child.  A question the lanes answer differently
(`semantics.Divergent`), or a fail of more than one member, splits the pair
into its members (`semantics.unpack`, in lane order) for that expansion
alone.  Each then meets the simulation conditions, and together the two-pair
condition: a member whose source runs a member's interval's source
directives with the same leaks offers that interval too.  Their ends under
each signature are packed again into one child.  Children beyond the depth
bound are cut.  So a passing cube means the simulation from every high
assignment as well as the two-pair condition, and a fail names one member.
A Pass is evidence up to the given bounds, not a proof.

Neither check says anything about a source that accesses memory out of
bounds without speculating, and neither tests for one.  The preservation
argument behind them, like the poison analysis (`poison.py`), treats
speculation-free steps as pure, so a passing cube (or a typable allocation)
preserves SNI only for sources that are architecturally memory-safe
(`security.check_safety`) from every initial state checked.

Each check makes one transition table per program per call, at the witness's
width, and steps every state through it once.  The walk interns pairs of
(source id, target id) to dense ids (`semantics.Interner`) and keeps a row
per pair id, built on first expansion: its intervals and, per interval, the
ids of its signature and of its end pair.  Interval ends are interned by the
check, not taken from the enumerator, so a wrong end state is still caught.
Projections are `semantics.walk`s over the tables, each made where it is
checked; `related` is kept per end pair id.  A pair that comes back nearer
is expanded again, and its split redone if it needs one.  All tables live
for one call.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, NamedTuple

from .ir import Pc, Program
from .liveness import DceResult, live_before_at
from .semantics import (
    DEFAULT_WIDTH,
    D_RB,
    D_SPEC,
    D_STEP,
    Bounds,
    Directive,
    Divergent,
    Interner,
    Leakage,
    SpecState,
    State,
    canonical,
    d_load,
    d_store,
    is_final,
    pack,
    step,
    transition_table,
    unpack,
    walk,
)
from .security import enumerate_high_states, low_equivalent

if TYPE_CHECKING:
    from .regalloc import RAWitness


class SimInterval(NamedTuple):
    tgt_dirs: tuple[Directive, ...]
    tgt_leaks: tuple[Leakage, ...]
    src_dirs: tuple[Directive, ...]
    src_leaks: tuple[Leakage, ...]
    end_src: SpecState
    end_tgt: SpecState

    @property
    def signature(self):
        return (self.tgt_dirs, self.tgt_leaks, self.src_dirs, self.src_leaks)


class ExtractResult(NamedTuple):
    intervals: list[SimInterval]
    truncated: int = 0


Tables = tuple[Interner, Interner]  # `transition_table`s of the source and the target


class SimWitness(NamedTuple):
    kind: str  # dce | ra
    source: Program
    target: Program
    related: Callable[[SpecState, SpecState], bool]  # (target, source)
    initial_map: Callable[[State], State]
    # the intervals of the pair with these (source id, target id) in the tables
    intervals: Callable[[int, int, Bounds, Tables], ExtractResult]
    width: int = DEFAULT_WIDTH  # the width the witness is built for; its checks step at it


def witness_tables(wit: SimWitness) -> Tables:
    return transition_table(wit.source, wit.width), transition_table(wit.target, wit.width)


def extract_intervals(
    wit: SimWitness,
    nu_src: SpecState,
    nu_tgt: SpecState,
    b: Bounds,
    tables: Tables | None = None,
    ids: tuple[int, int] | None = None,
) -> ExtractResult:
    """The intervals of a (source, target) pair, stepped through `tables`
    (fresh ones when not given).  A caller that has the pair's ids in the
    tables passes them as `ids`, so the states are not interned again."""
    if tables is None:
        tables = witness_tables(wit)
    s0, t0 = ids or (tables[0].id(nu_src), tables[1].id(nu_tgt))
    return wit.intervals(s0, t0, b, tables)


# --- dead code elimination witness ------------------------------------------------


def dce_witness(p: Program, res: DceResult, width: int = DEFAULT_WIDTH) -> SimWitness:
    t = res.target
    before = None  # `live_before_at(p)`, every register and cell live at exit, solved on first use
    live: dict[Pc, tuple[list[str], list[tuple[str, int]]]] = {}  # pc -> registers and cells live before it

    def related(nu_tgt: SpecState, nu_src: SpecState) -> bool:
        nonlocal before
        if len(nu_tgt) != len(nu_src):
            return False
        for st, ss in zip(nu_tgt, nu_src):
            try:
                if st == ss:
                    continue
            except Divergent:
                pass  # equal in some lanes only: equal frames also pass the comparison below
            if st.pc != ss.pc:
                return False
            if ss.pc not in live:
                before = before or live_before_at(p)
                items = before(ss.pc)
                live[ss.pc] = [x for x in items if isinstance(x, str)], [x for x in items if not isinstance(x, str)]
            regs, cells = live[ss.pc]
            if any(st.reg(r) != ss.reg(r) for r in regs) or any(st.cell(*c) != ss.cell(*c) for c in cells):
                return False
        return True

    def initial_map(tgt0: State) -> State:
        return tgt0.at(p.entry)

    def replay_dir(nu_src: SpecState, d: Directive) -> Directive:
        """Source directive matching one target step (identity off replaced pcs)."""
        pc = nu_src[-1].pc
        if d != D_STEP or not res.replaced.get(pc, False):
            return d
        i = p.instrs[pc]
        access = i.kind.access(i)
        if access is None:  # a removed assignment
            return d
        var, a, reads = access
        if not isinstance(a, int):
            a = nu_src[-1].reg(a)
        if p.in_bounds(var, a):
            return D_STEP
        return (d_load if reads else d_store)(p.memvars[0].name, 0)

    def intervals(s0: int, t0: int, b: Bounds, tables: Tables) -> ExtractResult:
        src_tab, tgt_tab = tables
        srcs, tgts = src_tab.values, tgt_tab.values
        out: list[SimInterval] = []
        truncated = 0
        for d, (ct, lt) in zip(*tgt_tab.row(t0)):
            sd = replay_dir(srcs[s0], d)
            src_step = step(src_tab, s0, sd)
            if src_step is None:
                continue
            cs, ls = src_step
            tdirs, tleaks, sdirs, sleaks = [d], [lt], [sd], [ls]
            if d == D_SPEC:
                # run the mispredicted straight line to its end in one interval
                while len(tdirs) < b.max_steps:
                    nxt = step(tgt_tab, ct, D_STEP)
                    if nxt is None:
                        break
                    sd2 = replay_dir(srcs[cs], D_STEP)
                    src2 = step(src_tab, cs, sd2)
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
            out.append(
                SimInterval(tuple(tdirs), tuple(tleaks), tuple(sdirs), tuple(sleaks), srcs[cs], tgts[ct])
            )
        return ExtractResult(out, truncated)

    return SimWitness("dce", p, t, related, initial_map, intervals, width)


# --- register allocation witness -----------------------------------------------


def ra_witness(w: RAWitness, width: int = DEFAULT_WIDTH) -> SimWitness:
    """Raises ValueError on a witness that `validate_ra` refuses, as its
    `Product` does: the poison analysis behind `related` assumes a valid
    one."""
    # imported here, so that a DCE check loads neither `poison` nor `regalloc`
    from .poison import Product, ProductState, RepairSession, replay_directive

    prod = Product(w, width)
    sp = RepairSession(w, prod).static_poison()

    def related(nu_tgt: SpecState, nu_src: SpecState) -> bool:
        if len(nu_tgt) != len(nu_src):
            return False
        return prod.well_formed(ProductState(nu_src, nu_tgt, sp.stack_for(nu_src, nu_tgt)))

    def initial_map(tgt0: State) -> State:
        return prod.initial_source_state(tgt0)

    def intervals(s0: int, t0: int, b: Bounds, tables: Tables) -> ExtractResult:
        src_tab, tgt_tab = tables
        srcs, tgts = src_tab.values, tgt_tab.values

        def joint(cs: int, ct: int, d: Directive, tgt_step):
            """The target step on `d`, `tgt_step`, and the source's canonical
            replay of it from id `cs`, where the source waits on shuffle code."""
            if tgt_step is None:
                return None
            t_pc = tgts[ct][-1].pc
            if d == D_RB:
                sd = d
            elif t_pc in prod.st.owner:
                return tgt_step, None, (cs, None)
            else:
                sd = replay_directive(w.source, w.source.instrs[prod.st.matched[t_pc]], srcs[cs][-1], d)
            src_step = step(src_tab, cs, sd)
            if src_step is None:
                return None
            return tgt_step, sd, src_step

        def at_matched(cs: int, ct: int) -> bool:
            t_pc = tgts[ct][-1].pc
            return t_pc in prod.st.matched and prod.st.matched[t_pc] == srcs[cs][-1].pc

        out: list[SimInterval] = []
        truncated = 0
        for d, tgt_step in zip(*tgt_tab.row(t0)):
            first = joint(s0, t0, d, tgt_step)
            if first is None:
                continue
            (ct, lt), sd, (cs, ls) = first
            tdirs, tleaks = [d], [lt]
            sdirs = [sd] if sd is not None else []
            sleaks = [ls] if ls is not None else []
            # walk the shuffle chain; every speculating prefix may also roll back
            while not at_matched(cs, ct):
                if len(tgts[ct]) >= 2:
                    rb_t = step(tgt_tab, ct, D_RB)
                    rb_s = step(src_tab, cs, D_RB)
                    if rb_t and rb_s:
                        out.append(
                            SimInterval(
                                tuple(tdirs) + (D_RB,),
                                tuple(tleaks) + (rb_t[1],),
                                tuple(sdirs) + (D_RB,),
                                tuple(sleaks) + (rb_s[1],),
                                srcs[rb_s[0]],
                                tgts[rb_t[0]],
                            )
                        )
                if len(tdirs) >= b.max_steps:
                    truncated += 1
                    break
                nxt = joint(cs, ct, D_STEP, step(tgt_tab, ct, D_STEP))
                if nxt is None:
                    break  # fenced off: only the rollback variants remain
                (ct, lt), sd2, (cs2, ls2) = nxt
                cs = cs2
                tdirs.append(D_STEP)
                tleaks.append(lt)
                if sd2 is not None:
                    sdirs.append(sd2)
                    sleaks.append(ls2)
            else:
                out.append(
                    SimInterval(tuple(tdirs), tuple(tleaks), tuple(sdirs), tuple(sleaks), srcs[cs], tgts[ct])
                )
        return ExtractResult(out, truncated)

    return SimWitness("ra", w.source, w.target, related, initial_map, intervals, width)


# --- the walk ---------------------------------------------------------------------


class Verdict(NamedTuple):
    """A failed simulation condition names its (source, target) `pair` and
    any uncovered `directive`; a failed cube condition names the `pair` with
    `interval` and the `other` that replays its source side but lacks it."""

    status: str  # pass | fail
    intervals_checked: int = 0
    truncated: int = 0
    reason: str = ""
    pair: tuple[SpecState, SpecState] | None = None
    directive: Directive | None = None
    interval: SimInterval | None = None
    other: tuple[SpecState, SpecState] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def report(self) -> dict:
        out = {"verdict": self.status, "intervals_checked": self.intervals_checked, "truncated": self.truncated}
        if self.status == "fail":
            out["reason"] = self.reason
            if self.directive is not None:
                out["directive"] = str(self.directive)
            if self.interval is not None:
                out["interval"] = {
                    "target_directives": [str(d) for d in self.interval.tgt_dirs],
                    "target_leaks": [str(l) for l in self.interval.tgt_leaks],
                    "source_directives": [str(d) for d in self.interval.src_dirs],
                    "source_leaks": [str(l) for l in self.interval.src_leaks],
                }
        return out


class _Row(NamedTuple):
    """What the walk needs about one (source, target) pair, built once."""

    truncated: int
    intervals: list[SimInterval]
    src: int  # the pair's ids in the source and the target tables
    tgt: int
    sigs: tuple[int, ...]  # per interval: the id of its signature
    ends: tuple[int, ...]  # per interval: the id of its end pair
    near: tuple[bool, ...]  # per interval: its end is within the depth bound


def check_simulation(wit: SimWitness, t0: State, b: Bounds) -> Verdict:
    """The simulation from the initial target state `t0`."""
    return _walk(wit, wit.initial_map(t0), t0, b)


def check_snippy_cube(wit: SimWitness, base: State, b: Bounds) -> Verdict:
    """The simulation and the two-pair condition from every high assignment
    of the initial target state `base`, at the witness's width, walked from
    one packed pair.  `initial_map` must keep them low-equivalent."""
    targets = [t for t, in enumerate_high_states(wit.target, (base,), wit.width)]
    t0 = pack(targets)
    try:
        s0 = wit.initial_map(t0)
    except Divergent:  # a mapping that asks about a high value maps each lane
        s0 = pack([wit.initial_map(t) for t in targets])
    if s0 is None or not low_equivalent(wit.source, s0):
        return Verdict("fail", reason="initial-state mapping does not respect levels")
    return _walk(wit, s0, t0, b)


def _walk(wit: SimWitness, s0: State, t0: State, b: Bounds) -> Verdict:
    """Breadth-first over pair ids from the pair of initial states, which
    may be packed; the module docstring gives the conditions and the split."""
    checked = 0
    truncated = 0
    tables = src_tab, tgt_tab = witness_tables(wit)
    srcs, tgts = src_tab.values, tgt_tab.values
    depth = b.max_spec_depth
    sigs: dict[tuple, int] = {}  # signature -> id
    start = ((s0,), (t0,))
    packed = canonical(start)[1] > 1
    canon: dict[int, int] = {}  # packed pair id -> the id of the pair in canonical order
    weight: dict[int, int] = {}  # canonical packed pair id -> its members; any other pair is one

    def members(p: int) -> int:
        """The id that stands for the members of pair id `p` in the memo and
        the queue: in a packed walk its pair in canonical order."""
        if not packed:
            return p
        c = canon.get(p)
        if c is None:
            s, t = pair_ids[p]
            pair = (srcs[s], tgts[t])
            nus, n = canonical(pair)
            c = p if nus is pair else pairs.id((src_tab.id(nus[0]), tgt_tab.id(nus[1])))
            canon[p] = canon[c] = c
            if n > 1:
                weight[c] = n
        return c

    def repack(ends: list[int]) -> int:
        """The id that stands for the plain pairs with ids `ends`, whose
        frames share their pcs: the pairs packed frame by frame."""
        sides = zip(*[(srcs[s], tgts[t]) for s, t in map(pair_ids.__getitem__, ends)])
        s, t = (tuple(map(pack, zip(*side))) for side in sides)
        return members(pairs.id((src_tab.id(s), tgt_tab.id(t))))

    def fill(pair: tuple[int, int], intern) -> _Row:
        res = extract_intervals(wit, srcs[pair[0]], tgts[pair[1]], b, tables, pair)
        ivs = res.intervals
        return _Row(
            res.truncated, ivs, *pair,
            tuple([sigs.setdefault(iv.signature, len(sigs)) for iv in ivs]),
            tuple([intern((src_tab.id(iv.end_src), tgt_tab.id(iv.end_tgt))) for iv in ivs]),
            tuple([len(iv.end_tgt) <= depth for iv in ivs]),
        )

    pairs = Interner(fill)  # (source id, target id) -> id
    row, pair_ids = pairs.row, pairs.values
    related: dict[int, bool] = {}  # end pair id -> `wit.related` of it

    def simulation(p: int, n: int) -> Verdict | None:
        """The fail of the simulation conditions at pair id `p`, or None;
        the counts are per expansion, times `n`."""
        nonlocal checked, truncated
        r = row(p)
        truncated += r.truncated * n
        pair = (srcs[r.src], tgts[r.tgt])
        heads = {iv.tgt_dirs[0] for iv in r.intervals}
        for d in tgt_tab.row(r.tgt)[0]:
            if d not in heads:
                return Verdict("fail", checked, truncated, "target continuation has no interval", pair, d)
        for iv, end, near in zip(r.intervals, r.ends, r.near):
            checked += n
            end_src, end_tgt = pair_ids[end]
            if walk(tgt_tab, r.tgt, iv.tgt_dirs) != (end_tgt, iv.tgt_leaks):
                return Verdict("fail", checked, truncated, "interval target projection does not replay", pair)
            if walk(src_tab, r.src, iv.src_dirs) != (end_src, iv.src_leaks):
                return Verdict("fail", checked, truncated, "interval source projection does not replay", pair)
            ok = related.get(end)
            if ok is None:
                ok = related[end] = wit.related(iv.end_tgt, iv.end_src)
            if not ok:
                return Verdict("fail", checked, truncated, "interval end not related", (iv.end_src, iv.end_tgt))
            if not near:
                truncated += n
        return None

    try:
        ok = wit.related((t0,), (s0,))
    except Divergent:
        ok = False
    if not ok:
        for s, t in unpack(start):
            if not wit.related(t, s):
                return Verdict("fail", checked, truncated, "initial states not related", (s, t))
    queue = deque([(members(pairs.id((src_tab.id((s0,)), tgt_tab.id((t0,))))), 0)])
    nearest: dict[int, int] = {}  # pair id -> smallest distance expanded
    while queue:
        p, dist = queue.popleft()
        # intervals differ in length, so a pair may come back nearer than its
        # first visit, with more of the step bound left to explore
        if nearest.get(p, dist + 1) <= dist:
            continue
        nearest[p] = dist
        if is_final(wit.target, tgts[pair_ids[p][1]]):
            continue
        n = weight.get(p, 1)
        if dist >= b.max_steps:
            truncated += n
            continue
        counts = checked, truncated
        try:
            fail = simulation(p, n)
        except Divergent as e:  # the lanes answer differently
            fail = e
        if fail is None:
            r = row(p)
            for iv, end, near in zip(r.intervals, r.ends, r.near):
                if near:
                    queue.append((members(end), dist + len(iv.tgt_dirs)))
            continue
        # split: the members answer alone, and a fail names one (a plain pair is its own)
        checked, truncated = counts
        s, t = pair_ids[p]
        rows = []
        for ms, mt in unpack((srcs[s], tgts[t])):
            m = pairs.id((src_tab.id(ms), tgt_tab.id(mt)))
            fail = simulation(m, 1)
            if fail is not None:
                return fail
            rows.append(row(m))
        # the two-pair condition: a member whose source replays some
        # interval's source directives with its source leaks has that
        # interval too; members with the same signatures meet it
        if any(r.sigs != rows[0].sigs for r in rows):
            # (source directives, source leaks) -> signature id -> an interval with it, and its member's row
            buckets: dict[tuple, dict[int, tuple[SimInterval, _Row]]] = {}
            for r in rows:
                for iv, sig in zip(r.intervals, r.sigs):
                    buckets.setdefault((iv.src_dirs, iv.src_leaks), {}).setdefault(sig, (iv, r))
            for (dirs, leaks), held in buckets.items():
                for r in rows:
                    lacks = [held[sig] for sig in held if sig not in r.sigs]
                    run = walk(src_tab, r.src, dirs) if lacks else None
                    if run is None or run[1] != leaks:
                        continue
                    missing, owner = lacks[0]
                    return Verdict(
                        "fail", checked, truncated, _describe_missing(missing, r.intervals),
                        (srcs[owner.src], tgts[owner.tgt]), interval=missing, other=(srcs[r.src], tgts[r.tgt]),
                    )
        # one child per signature: the members' ends under it, which share
        # their depth, since each member's target projection replays
        children: dict[int, list] = {}  # signature id -> [steps, end is near, end pair ids...]
        for r in rows:
            for iv, sig, end, near in zip(r.intervals, r.sigs, r.ends, r.near):
                children.setdefault(sig, [len(iv.tgt_dirs), near]).append(end)
        for steps, near, *ends in children.values():
            if near:
                queue.append((repack(ends), dist + steps))
    return Verdict("pass", checked, truncated)


def _describe_missing(iv: SimInterval, others: list[SimInterval]) -> str:
    for o in others:
        if o.src_dirs == iv.src_dirs and o.tgt_dirs == iv.tgt_dirs:
            if o.tgt_leaks != iv.tgt_leaks:
                return (
                    f"same directives, different target leaks: "
                    f"{[str(l) for l in iv.tgt_leaks]} vs {[str(l) for l in o.tgt_leaks]}"
                )
            return "same directives, different source leaks"
    return "no interval with these directives on the other pair"
