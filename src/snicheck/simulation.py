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

`check_simulation` walks related pairs reachable through intervals and
verifies that every enabled target directive heads an interval, that both
projections of every interval replay, and that interval ends are related
again.  `check_snippy_cube` runs two low-equivalent executions of this walk
side by side and demands that whenever pair 1 takes an interval whose source
directives run with the same leaks from pair 2's source, pair 2 offers the
identical interval.  A Pass is evidence up to the given bounds, not a proof.

Neither check says anything about a source that accesses memory out of
bounds without speculating.  The preservation argument behind them, like
the poison analysis (`poison.py`), treats speculation-free steps as pure, so
a passing cube (or a typable allocation) preserves SNI only for sources
that are architecturally memory-safe (`security.check_safety`) from every
initial state checked.  An unsafe source can be secure while its checked
target is not.

Each check makes one transition table per program per call, at the
witness's width, and steps every state through it once.  A pair is the two
ids of its (source, target) states, and each check interns the pairs it
meets to dense ids as well (`semantics.Interner`).  Per pair id it keeps a
row built when the pair is first expanded: its intervals, built from the
pair's ids, and, for each interval, the id of its end pair.  Interval ends
are interned by the check, not taken from the enumerator, so a witness that
reports a wrong end state is still caught.
The enabled target directives are read from the target table, and each
interval projection is a `semantics.walk` over a table from the pair's ids,
compared with the interval's leaks and end id.  The memo and the queue hold
ids, so a revisit hashes ints, not states.  `check_simulation` reuses a row
when its pair comes back nearer.  `check_snippy_cube` shares rows across both
sides of every quadruple and across all initial pairs, each run taking part
in many pairs.  Its rows also hold, per interval, the ids of its signature
and of its source directives, plus the row's signature -> end pair map,
whose keys are its signature set, so a quadruple visit compares ints instead
of rebuilding sets of signatures.  Source replays are walks kept per (source
id, directive sequence id).  All tables live for one call.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable

from .ir import Load, Program, Store
from .liveness import DceResult, full_fact, live_before
from .poison import Product, ProductState, RepairSession, replay_directive
from .regalloc import RAWitness
from .semantics import (
    DEFAULT_WIDTH,
    D_RB,
    D_SPEC,
    D_STEP,
    Bounds,
    Directive,
    Interner,
    Leakage,
    SpecState,
    State,
    d_load,
    d_store,
    is_final,
    step,
    transition_table,
    walk,
)
from .security import low_equivalent


@dataclass(frozen=True, slots=True)
class SimInterval:
    tgt_dirs: tuple[Directive, ...]
    tgt_leaks: tuple[Leakage, ...]
    src_dirs: tuple[Directive, ...]
    src_leaks: tuple[Leakage, ...]
    end_src: SpecState
    end_tgt: SpecState

    @property
    def signature(self):
        return (self.tgt_dirs, self.tgt_leaks, self.src_dirs, self.src_leaks)


@dataclass
class ExtractResult:
    intervals: list[SimInterval]
    truncated: int = 0


Tables = tuple[Interner, Interner]  # `transition_table`s of the source and the target


@dataclass
class SimWitness:
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
    if is_final(wit.target, nu_tgt):
        return ExtractResult([])
    if tables is None:
        tables = witness_tables(wit)
    s0, t0 = ids or (tables[0].id(nu_src), tables[1].id(nu_tgt))
    return wit.intervals(s0, t0, b, tables)


# --- dead code elimination witness ------------------------------------------------


def dce_witness(p: Program, res: DceResult, width: int = DEFAULT_WIDTH) -> SimWitness:
    t = res.target
    sol = res.solution
    ef = full_fact(p)

    def related(nu_tgt: SpecState, nu_src: SpecState) -> bool:
        if len(nu_tgt) != len(nu_src):
            return False
        for st, ss in zip(nu_tgt, nu_src):
            if st.pc != ss.pc:
                return False
            for item in live_before(p, sol, ss.pc, ef):
                if isinstance(item, str):
                    if st.reg(item) != ss.reg(item):
                        return False
                elif st.cell(*item) != ss.cell(*item):
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
        first_var = p.memvars[0].name
        match i:
            case Load(addr=adr):
                a = adr if isinstance(adr, int) else nu_src[-1].reg(adr)
                mv = p.memvar(i.var)
                return D_STEP if 0 <= a < mv.size else d_load(first_var, 0)
            case Store(addr=adr):
                a = adr if isinstance(adr, int) else nu_src[-1].reg(adr)
                mv = p.memvar(i.var)
                return D_STEP if 0 <= a < mv.size else d_store(first_var, 0)
        return d

    def intervals(s0: int, t0: int, b: Bounds, tables: Tables) -> ExtractResult:
        src_tab, tgt_tab = tables
        srcs, tgts = src_tab.values, tgt_tab.values
        out = ExtractResult([])
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
                    out.truncated += 1
            out.intervals.append(
                SimInterval(tuple(tdirs), tuple(tleaks), tuple(sdirs), tuple(sleaks), srcs[cs], tgts[ct])
            )
        return out

    return SimWitness("dce", p, t, related, initial_map, intervals, width)


# --- register allocation witness -----------------------------------------------


def ra_witness(w: RAWitness, width: int = DEFAULT_WIDTH) -> SimWitness:
    prod = Product(w, width)
    sp = None  # the static poison; only `related` reads it, and the cube never calls that

    def related(nu_tgt: SpecState, nu_src: SpecState) -> bool:
        nonlocal sp
        if len(nu_tgt) != len(nu_src):
            return False
        if sp is None:
            sp = RepairSession(w, prod).static_poison()
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

        out = ExtractResult([])
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
                        out.intervals.append(
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
                    out.truncated += 1
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
                out.intervals.append(
                    SimInterval(tuple(tdirs), tuple(tleaks), tuple(sdirs), tuple(sleaks), srcs[cs], tgts[ct])
                )
        return out

    return SimWitness("ra", w.source, w.target, related, initial_map, intervals, width)


# --- bounded simulation check ----------------------------------------------------


@dataclass
class SimVerdict:
    status: str  # pass | fail
    intervals_checked: int = 0
    truncated: int = 0
    reason: str = ""
    pair: tuple[SpecState, SpecState] | None = None
    directive: Directive | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def report(self) -> dict:
        out = {"verdict": self.status, "intervals_checked": self.intervals_checked, "truncated": self.truncated}
        if self.status == "fail":
            out["reason"] = self.reason
            if self.directive is not None:
                out["directive"] = str(self.directive)
        return out


def check_simulation(wit: SimWitness, initial_targets: list[State], b: Bounds) -> SimVerdict:
    checked = 0
    truncated = 0
    tables = src_tab, tgt_tab = witness_tables(wit)
    srcs, tgts = src_tab.values, tgt_tab.values

    def fill(pair: tuple[int, int], intern):
        res = extract_intervals(wit, srcs[pair[0]], tgts[pair[1]], b, tables, pair)
        return res, tuple([intern((src_tab.id(iv.end_src), tgt_tab.id(iv.end_tgt))) for iv in res.intervals])

    pairs = Interner(fill)  # (source id, target id) -> id; row: intervals, end pair ids
    nearest: dict[int, int] = {}  # pair id -> smallest distance expanded
    queue: deque[tuple[int, int]] = deque()
    for t0 in initial_targets:
        s0 = wit.initial_map(t0)
        if not wit.related((t0,), (s0,)):
            return SimVerdict("fail", checked, truncated, "initial states not related", ((s0,), (t0,)))
        queue.append((pairs.id((src_tab.id((s0,)), tgt_tab.id((t0,)))), 0))

    while queue:
        key, dist = queue.popleft()
        # intervals differ in length, so a pair may come back nearer than its
        # first visit, with more of the step bound left to explore
        if nearest.get(key, dist + 1) <= dist:
            continue
        nearest[key] = dist
        sid, tid = pairs.values[key]
        nu_src, nu_tgt = srcs[sid], tgts[tid]
        if is_final(wit.target, nu_tgt):
            continue
        if dist >= b.max_steps:
            truncated += 1
            continue
        res, ends = pairs.row(key)
        truncated += res.truncated
        for d in tgt_tab.row(tid)[0]:
            if not any(iv.tgt_dirs[0] == d for iv in res.intervals):
                return SimVerdict(
                    "fail", checked, truncated, "target continuation has no interval", (nu_src, nu_tgt), d
                )
        for iv, end in zip(res.intervals, ends):
            checked += 1
            end_src, end_tgt = pairs.values[end]
            if walk(tgt_tab, tid, iv.tgt_dirs) != (end_tgt, iv.tgt_leaks):
                return SimVerdict("fail", checked, truncated, "interval target projection does not replay", (nu_src, nu_tgt))
            if walk(src_tab, sid, iv.src_dirs) != (end_src, iv.src_leaks):
                return SimVerdict("fail", checked, truncated, "interval source projection does not replay", (nu_src, nu_tgt))
            if not wit.related(iv.end_tgt, iv.end_src):
                return SimVerdict("fail", checked, truncated, "interval end not related", (iv.end_src, iv.end_tgt))
            if len(iv.end_tgt) > b.max_spec_depth:
                truncated += 1
                continue
            queue.append((end, dist + len(iv.tgt_dirs)))
    return SimVerdict("pass", checked, truncated)


# --- snippy cube ------------------------------------------------------------------


@dataclass
class CubeVerdict:
    status: str  # pass | fail
    intervals_checked: int = 0
    truncated: int = 0
    reason: str = ""
    quad: tuple | None = None
    interval: SimInterval | None = None

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def report(self) -> dict:
        out = {"verdict": self.status, "intervals_checked": self.intervals_checked, "truncated": self.truncated}
        if self.status == "fail":
            out["reason"] = self.reason
            if self.interval is not None:
                out["interval"] = {
                    "target_directives": [str(d) for d in self.interval.tgt_dirs],
                    "target_leaks": [str(l) for l in self.interval.tgt_leaks],
                    "source_directives": [str(d) for d in self.interval.src_dirs],
                    "source_leaks": [str(l) for l in self.interval.src_leaks],
                }
        return out


_UNSEEN = object()


@dataclass(slots=True)
class _CubeRow:
    """What the cube compares about one (source, target) pair, built once."""

    truncated: int
    intervals: list[SimInterval]
    src: int  # the source state's id in the source table, for premise replays
    src_dirs: tuple[int, ...]  # per interval: the id of its source directives
    sigs: tuple[int, ...]  # per interval: the id of its signature
    ends: tuple[int, ...]  # per interval: the id of its end pair
    end_by_sig: dict[int, int]  # the row's signature ids -> end pair id of the last interval with each


def check_snippy_cube(wit: SimWitness, initial_target_pairs: Iterable[tuple[State, State]], b: Bounds) -> CubeVerdict:
    checked = 0
    truncated = 0
    tables = src_tab, tgt_tab = witness_tables(wit)
    srcs, tgts = src_tab.values, tgt_tab.values
    # plain value -> id maps: source directive sequences, signatures
    src_dirs: dict[tuple[Directive, ...], int] = {}
    sigs: dict[tuple, int] = {}

    def fill(pair: tuple[int, int], intern) -> _CubeRow:
        res = extract_intervals(wit, srcs[pair[0]], tgts[pair[1]], b, tables, pair)
        ivs = res.intervals
        sig = tuple([sigs.setdefault(iv.signature, len(sigs)) for iv in ivs])
        end = tuple([intern((src_tab.id(iv.end_src), tgt_tab.id(iv.end_tgt))) for iv in ivs])
        return _CubeRow(
            res.truncated, ivs, pair[0],
            tuple([src_dirs.setdefault(iv.src_dirs, len(src_dirs)) for iv in ivs]), sig, end, dict(zip(sig, end)),
        )

    pairs = Interner(fill)  # (source id, target id) -> id
    row = pairs.row
    # (source id, source directives id) -> their leaks from that source, or None when stuck
    replays: dict[tuple[int, int], tuple[Leakage, ...] | None] = {}

    def compare(ra: _CubeRow, rb: _CubeRow) -> tuple[int, SimInterval | None]:
        """How many intervals of `ra` have their source directives run from
        `rb`'s source with equal leaks, and the first such interval whose
        signature `rb` lacks, if any."""
        matched = 0
        for iv, dirs, sig in zip(ra.intervals, ra.src_dirs, ra.sigs):
            key = (rb.src, dirs)
            leaks = replays.get(key, _UNSEEN)
            if leaks is _UNSEEN:
                run = walk(src_tab, rb.src, iv.src_dirs)
                leaks = replays[key] = None if run is None else run[1]
            if leaks != iv.src_leaks:
                continue
            matched += 1
            if sig not in rb.end_by_sig:
                return matched, iv
        return matched, None

    for t1, t2 in initial_target_pairs:
        s1, s2 = wit.initial_map(t1), wit.initial_map(t2)
        t_low = low_equivalent(wit.target, t1, t2)
        s_low = low_equivalent(wit.source, s1, s2)
        if t_low != s_low:
            return CubeVerdict("fail", checked, truncated, "initial-state mapping does not respect levels")
        if not t_low:
            continue
        nearest: dict[tuple[int, int], int] = {}  # quadruple as two pair ids -> smallest distance expanded
        p1, p2 = (pairs.id((src_tab.id((s,)), tgt_tab.id((t,)))) for s, t in ((s1, t1), (s2, t2)))
        queue = deque([(p1, p2, 0)])
        while queue:
            p1, p2, dist = queue.popleft()
            key = (p1, p2)
            if nearest.get(key, dist + 1) <= dist:
                continue
            nearest[key] = dist
            if is_final(wit.target, tgts[pairs.values[p1][1]]) and is_final(wit.target, tgts[pairs.values[p2][1]]):
                continue
            if dist >= b.max_steps:
                truncated += 1
                continue
            r1, r2 = row(p1), row(p2)
            truncated += r1.truncated + r2.truncated
            for a, c, ra, rc in ((p1, p2, r1, r2), (p2, p1, r2, r1)):
                n, missing = compare(ra, rc)
                checked += n
                if missing is not None:
                    reason = _describe_missing(missing, rc.intervals)
                    (sa, ta), (sc, tc) = pairs.values[a], pairs.values[c]
                    quad = (srcs[sa], tgts[ta], srcs[sc], tgts[tc])
                    return CubeVerdict("fail", checked, truncated, reason, quad, missing)
            for iv, sig, end in zip(r1.intervals, r1.sigs, r1.ends):
                other = r2.end_by_sig.get(sig)
                if other is None:
                    continue
                if len(iv.end_tgt) > b.max_spec_depth:
                    truncated += 1
                    continue
                queue.append((end, other, dist + len(iv.tgt_dirs)))
    return CubeVerdict("pass", checked, truncated)


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
