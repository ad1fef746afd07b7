"""Speculating execution with attacker directives, from one step rule.

A plain state is (pc, registers, memory); registers and memory cells default
to 0.  A speculating state is a non-empty stack of plain states: the bottom
is the architectural state, the top is currently executing, and every frame
above the bottom is one nested miss-prediction.

Transitions are labelled with a directive (attacker input resolving the
nondeterminism) and a leakage (attacker observation):

  step            advances any speculation-insensitive instruction
  if / spec       correct branch / push a copy redirected to the wrong branch
  rb              pop the top frame (depth >= 2)
  load v o        resolve an out-of-bounds load to cell (v, o)
  store v o       resolve an out-of-bounds store to cell (v, o)

Loads and stores leak the address used (also when out of bounds); branches
leak the value of the condition register; rollbacks leak `rb`.  `sfence`
steps only when not speculating; `slh r` zeroes r exactly when speculating.

`transitions` is the whole relation, one `match` on the top frame's
instruction that lists every enabled (directive, next state, leak).
`step_spec` (one directive) and `enabled_directives` are views of it, and a
depth-1 state stepped by `step` or `if` is the speculation-free semantics.
There is no bound on speculation in the semantics itself; exploration takes
explicit bounds and reports which branches were truncated by them.

The searches step each state once per call.  A `transition_table` interns
the speculative states of one program to dense ids (`Interner`); the row of
an id is the state's `transitions`, with each successor as its id, computed
when first read.  `step` follows one directive from an id and `walk` a
directive sequence, so a replay compares ints and reads rows instead of
stepping states again.  `explore_behaviors` counts the behaviours over such
a table before it enumerates any.

A value may also be packed (`Lanes`): one int per lane, where a lane is one
run of several that share everything else, such as the high assignments of
one low state.  A state holding packed values stands for one state per lane,
and stepping it steps every lane at once: `eval_op` computes lane by lane.
Every other question about a packed value (a branch condition, an address, a
leak, a comparison, truth, arithmetic) has one answer only when all lanes
give it, and raises `Divergent` otherwise, so a step that would send the
lanes apart stops instead.  Each packed operation costs O(lanes).

A value may instead be tainted (`Tainted`): it may differ between the high
assignments of one low state, and only its value under the all-zero one is
kept.  `eval_op` keeps a result with a tainted operand tainted, even
`x and 0`, and every other question about it raises `Divergent`.  A state
whose high cells start tainted 0 then stands for every high assignment, as
long as no step asks: stepping it is Denning and Denning's flow
certification, with the taint carried frame by frame in the values.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import repeat
from operator import add, and_, eq, ge, gt, itemgetter, le, lt, mul, ne, or_, sub
from typing import NamedTuple

from .ir import (
    DEFAULT_WIDTH,
    Asgn,
    Exit,
    Fill,
    If,
    Load,
    Move,
    Nop,
    Pc,
    Program,
    Reg,
    Sfence,
    Slh,
    Spill,
    Store,
    STACK_VAR,
    strip_comment,
)


# --- packed values -------------------------------------------------------------


class Divergent(Exception):
    """A question about a packed or tainted value that its runs may answer
    differently."""


def _answer(answers):
    """The answer every lane gives, else Divergent."""
    seen = set(answers)
    if len(seen) != 1:
        raise Divergent("lanes answer differently")
    return seen.pop()


def _no_answer(*_):
    raise Divergent("a question about a value that may differ between runs")


class _Relational:
    """A value that stands for one int per run: every question about it
    raises Divergent, and arithmetic always does, since only `eval_op`
    computes such results."""

    __slots__ = ()
    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = __bool__ = _no_answer
    __add__ = __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = _no_answer
    __floordiv__ = __rfloordiv__ = __truediv__ = __rtruediv__ = __mod__ = __rmod__ = _no_answer
    __pow__ = __rpow__ = __divmod__ = __rdivmod__ = _no_answer
    __and__ = __rand__ = __or__ = __ror__ = __xor__ = __rxor__ = _no_answer
    __lshift__ = __rlshift__ = __rshift__ = __rrshift__ = _no_answer
    __neg__ = __pos__ = __abs__ = __invert__ = __int__ = __index__ = __float__ = _no_answer


class Lanes(_Relational, tuple):
    """A packed value: one int per lane, never all equal (`lanes` returns the
    plain int then).  It hashes and compares as its tuple of ints, so states
    holding it intern like any other.  A comparison or `bool` answers for
    every lane at once, or raises Divergent."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def _ask(self, op, other):
        if type(other) is not Lanes:
            return _answer(map(op, self, repeat(other, len(self))))
        if len(other) != len(self):  # of two packings: no lane-wise answer
            raise Divergent("packed values over different lanes")
        return _answer(map(op, self, other))

    def __eq__(self, other):
        return self._ask(eq, other)

    def __ne__(self, other):
        return self._ask(ne, other)

    def __lt__(self, other):
        return self._ask(lt, other)

    def __le__(self, other):
        return self._ask(le, other)

    def __gt__(self, other):
        return self._ask(gt, other)

    def __ge__(self, other):
        return self._ask(ge, other)

    def __bool__(self):
        return _answer(map(bool, self))

    def __repr__(self):
        return f"Lanes({tuple.__repr__(self)})"


class Tainted(_Relational):
    """A tainted value: `value` is its value under the all-zero high
    assignment, and it answers no question.  It hashes and compares by
    identity, and `tainted` makes one object per value, so states holding
    equal tainted values are equal."""

    __slots__ = ("value",)
    __hash__ = object.__hash__

    def __init__(self, value: int):
        self.value = value

    def __repr__(self):
        return f"Tainted({self.value})"


@lru_cache(maxsize=4096)
def tainted(v: int) -> Tainted:
    """The tainted value `v`.  The cache is bounded like the leakages': an
    evicted value comes back as a new object, which costs a search only a
    second id for a state it has met."""
    return Tainted(v)


def lanes(vals) -> int | Lanes:
    """`vals`, one int per lane, as one value: the plain int when every lane
    agrees, else a `Lanes`."""
    vals = tuple(vals)
    return vals[0] if vals.count(vals[0]) == len(vals) else Lanes(vals)


_OPS = {"add": add, "sub": sub, "mul": mul, "lt": lt, "eq": eq, "and": and_, "or": or_}


def eval_op(op: str, a: int, b: int, width: int) -> int:
    """`a op b` on words of `width` bits.  A packed or tainted operand makes
    the plain code raise Divergent (a comparison whose lanes agree answers
    instead, which is the lane-wise result).  A result with a tainted
    operand is then tainted, and a packed one is computed lane by lane."""
    mask = (1 << width) - 1
    try:
        if op == "add":
            return (a + b) & mask
        if op == "sub":
            return (a - b) & mask
        if op == "mul":
            return (a * b) & mask
        if op == "lt":
            return 1 if a < b else 0
        if op == "eq":
            return 1 if a == b else 0
        if op == "and":
            return a & b
        if op == "or":
            return a | b
    except Divergent:
        if a.__class__ is Tainted or b.__class__ is Tainted:
            a, b = (v.value if v.__class__ is Tainted else v for v in (a, b))
            return tainted(eval_op(op, a, b, width))
        n = len(a if type(a) is Lanes else b)
        vals = map(_OPS[op], a if type(a) is Lanes else repeat(a, n), b if type(b) is Lanes else repeat(b, n))
        if op in ("add", "sub", "mul"):
            vals = map(and_, vals, repeat(mask, n))
        elif op in ("lt", "eq"):
            vals = map(int, vals)
        return lanes(vals)
    raise ValueError(f"unknown operator {op}")


_key = itemgetter(0)


def _splice(items: tuple, k, v: int) -> tuple:
    """`items` (sorted by key, no zero values) with k set to v.

    Only the entry for k is new; every other (key, value) pair is shared with
    `items`, so states along a search share their register and cell pairs.
    A packed value is never all zeros, and a tainted one is kept even as 0,
    so neither is asked."""
    i = bisect_left(items, k, key=_key)
    hit = i < len(items) and items[i][0] == k
    if v.__class__ is not Lanes and v.__class__ is not Tainted and v == 0:
        return items[:i] + items[i + 1:] if hit else items
    return items[:i] + ((k, v),) + items[i + hit:]


class State(NamedTuple):
    # a tuple, so the searches' interning hashes and compares states in C
    pc: Pc
    regs: tuple[tuple[Reg, int], ...] = ()
    mem: tuple[tuple[tuple[str, int], int], ...] = ()

    @staticmethod
    def make(pc: Pc, regs: dict[Reg, int] | None = None, mem: dict[tuple[str, int], int] | None = None) -> "State":
        return State(
            pc,
            tuple(sorted((r, v) for r, v in (regs or {}).items() if isinstance(v, _Relational) or v != 0)),
            tuple(sorted((c, v) for c, v in (mem or {}).items() if isinstance(v, _Relational) or v != 0)),
        )

    def reg(self, r: Reg) -> int:
        for k, v in self.regs:
            if k == r:
                return v
        return 0

    def cell(self, var: str, off: int) -> int:
        for k, v in self.mem:
            if k == (var, off):
                return v
        return 0

    def with_reg(self, r: Reg, v: int) -> "State":
        return State(self.pc, _splice(self.regs, r, v), self.mem)

    def with_cell(self, var: str, off: int, v: int) -> "State":
        return State(self.pc, self.regs, _splice(self.mem, (var, off), v))

    def at(self, pc: Pc) -> "State":
        return State(pc, self.regs, self.mem)


SpecState = tuple[State, ...]


def pack(states: list[State]) -> State | None:
    """`states` as one state whose lane i is `states[i]`, or None when their
    pcs differ."""
    pc = states[0].pc
    if any(s.pc != pc for s in states):
        return None
    return State(pc, _pack_items([s.regs for s in states]), _pack_items([s.mem for s in states]))


def _pack_items(per_lane: list[tuple]) -> tuple:
    """Sorted (key, value) items, one tuple per lane, as one."""
    if per_lane.count(per_lane[0]) == len(per_lane):
        return per_lane[0]
    dicts = [dict(items) for items in per_lane]
    out = []
    for k in sorted(set().union(*dicts)):
        v = lanes([d.get(k, 0) for d in dicts])
        if v.__class__ is Lanes or v != 0:
            out.append((k, v))
    return tuple(out)


def unpack(nus: tuple[SpecState, ...]) -> list[tuple[SpecState, ...]]:
    """The inverse of `pack` frame by frame: `nus`, speculative states packed
    over the same lanes, as plain ones, one tuple per lane in lane order,
    zeros dropped.  Without a packed value they are their one lane, where a
    tainted value is its value under the all-zero high assignment."""
    n = len(next(_packed_values(nus), (0,)))

    def lane(items: tuple, i: int) -> tuple:
        vals = [(k, v[i] if v.__class__ is Lanes else v.value if v.__class__ is Tainted else v)
                for k, v in items]
        return tuple([(k, v) for k, v in vals if v != 0])

    return [tuple([tuple([State(f.pc, lane(f.regs, i), lane(f.mem, i)) for f in nu]) for nu in nus])
            for i in range(n)]


def _packed_values(nus: tuple[SpecState, ...]):
    """The packed values of `nus` in order: each state's frames, each
    frame's registers then cells."""
    return (v for nu in nus for f in nu for items in (f.regs, f.mem) for _, v in items if v.__class__ is Lanes)


def canonical(nus: tuple[SpecState, ...]) -> tuple[tuple[SpecState, ...], int]:
    """`nus`, speculative states packed over the same lanes, with their lanes
    sorted and each distinct lane kept once, and the number of distinct lanes.

    A lane is the tuple of its values in `_packed_values` order, and lanes
    are sorted as those tuples.  Two packings that differ only in the order
    or the repeats of their lanes therefore come out equal.  When the first
    packed value rises strictly from lane to lane, its lanes are distinct and
    already sorted, and `nus` is returned as it is."""
    first = next(_packed_values(nus), None)
    if first is None:
        return nus, 1
    if all(map(lt, first, first[1:])):
        return nus, len(first)
    cols = list(zip(*_packed_values(nus)))
    order = sorted(set(cols))
    if order == cols:
        return nus, len(cols)
    fresh = iter([Lanes(v) for v in zip(*order)])

    def relane(items: tuple) -> tuple:
        return tuple([(k, next(fresh)) if v.__class__ is Lanes else (k, v) for k, v in items])

    return tuple(tuple([State(f.pc, relane(f.regs), relane(f.mem)) for f in nu]) for nu in nus), len(order)


def initial(p: Program, regs: dict[Reg, int] | None = None, mem: dict[tuple[str, int], int] | None = None) -> SpecState:
    return (State.make(p.entry, regs, mem),)


# --- directives and leakages -------------------------------------------------

_DKINDS = ("step", "if", "spec", "rb", "load", "store")


class Directive(NamedTuple):
    # a tuple, so equality and hashing run in C: `step_spec` and `step`
    # find their directive among the enabled ones by equality
    kind: str
    var: str = ""
    off: int = -1

    def __str__(self):
        if self.kind in ("load", "store"):
            return f"{self.kind} {self.var} {self.off}"
        return self.kind


D_STEP = Directive("step")
D_IF = Directive("if")
D_SPEC = Directive("spec")
D_RB = Directive("rb")


def d_load(var: str, off: int) -> Directive:
    return Directive("load", var, off)


def d_store(var: str, off: int) -> Directive:
    return Directive("store", var, off)


def directive_sort_key(d: Directive) -> tuple:
    return (_DKINDS.index(d.kind), d.var, d.off)


class Leakage(NamedTuple):
    # a tuple, like `Directive`: the searches compare and hash leak sequences
    kind: str  # none | if | load | store | rb
    value: int = -1

    def __str__(self):
        if self.kind in ("if", "load", "store"):
            return f"{self.kind} {self.value}"
        return self.kind


L_NONE = Leakage("none")
L_RB = Leakage("rb")


# one object per (kind, value): the search tables keep many leakages alive.
# A run sees few distinct values; the bound keeps a long-lived process with
# wide words from growing the caches without end.  The attacker sees one
# value, so a packed or tainted one is a question its runs may answer
# differently: it raises (in the body, which such a value always reaches,
# since it is never cached).


def _leak(kind: str, v: int) -> Leakage:
    if isinstance(v, _Relational):
        raise Divergent(f"{kind} leaks a packed or tainted value")
    return Leakage(kind, v)


@lru_cache(maxsize=4096)
def l_if(v: int) -> Leakage:
    return _leak("if", v)


@lru_cache(maxsize=4096)
def l_load(addr: int) -> Leakage:
    return _leak("load", addr)


@lru_cache(maxsize=4096)
def l_store(addr: int) -> Leakage:
    return _leak("store", addr)


# --- the step rule --------------------------------------------------------------


def transitions(p: Program, nu: SpecState, width: int = DEFAULT_WIDTH) -> list[tuple[Directive, SpecState, Leakage]]:
    """Every enabled (directive, next state, leak) at `nu`, in
    `directive_sort_key` order: the speculating step relation, read off the
    top frame's instruction.

    A branch admits `if` and `spec`, an out-of-bounds access one `load`/`store
    v o` per declared cell, `exit` nothing and everything else `step`; `rb`
    is added while speculating.  `sfence` steps only when not speculating and
    `slh r` zeroes r exactly when speculating, so at depth 1 this is the
    speculation-free semantics.
    """
    top, rest = nu[-1], nu[:-1]
    rb = [(D_RB, rest, L_RB)] if rest else []
    match p.instrs[top.pc]:  # cases are tried in order, so the most frequent kinds come first
        case Asgn(dst=dst, lhs=a, op=op, rhs=b, succ=succ):
            nxt, leak = top.at(succ).with_reg(dst, eval_op(op, top.reg(a), top.reg(b), width)), L_NONE
        case If(cond=c, succ_true=st, succ_false=sf):
            v = top.reg(c)
            right, wrong = (st, sf) if v == 0 else (sf, st)
            leak = l_if(v)
            return [(D_IF, rest + (top.at(right),), leak), (D_SPEC, nu + (top.at(wrong),), leak), *rb]
        case Store(var=var, addr=adr, src=src, succ=succ):
            a, v = adr if isinstance(adr, int) else top.reg(adr), top.reg(src)
            nxt, leak = top.at(succ), l_store(a)
            if not p.in_bounds(var, a):
                return rb + [(d, rest + (nxt.with_cell(d.var, d.off, v),), leak)
                             for d in p.unsafe_directives["store"]]
            nxt = nxt.with_cell(var, a, v)
        case Load(dst=dst, var=var, addr=adr, succ=succ):
            a = adr if isinstance(adr, int) else top.reg(adr)
            nxt, leak = top.at(succ), l_load(a)
            if not p.in_bounds(var, a):
                return rb + [(d, rest + (nxt.with_reg(dst, top.cell(d.var, d.off)),), leak)
                             for d in p.unsafe_directives["load"]]
            nxt = nxt.with_reg(dst, top.cell(var, a))
        case Slh(reg=r, succ=succ):
            nxt, leak = top.at(succ), L_NONE
            if rest:
                nxt = nxt.with_reg(r, 0)
        case Exit():
            return rb
        case Sfence() if rest:
            return rb
        case Nop(succ=succ) | Sfence(succ=succ):
            nxt, leak = top.at(succ), L_NONE
        case Fill(dst=dst, slot=slot, succ=succ):
            nxt, leak = top.at(succ).with_reg(dst, top.cell(STACK_VAR, slot)), l_load(slot)
        case Spill(slot=slot, src=src, succ=succ):
            nxt, leak = top.at(succ).with_cell(STACK_VAR, slot, top.reg(src)), l_store(slot)
        case Move(dst=dst, src=src, succ=succ):
            nxt, leak = top.at(succ).with_reg(dst, top.reg(src)), L_NONE
    return [(D_STEP, rest + (nxt,), leak), *rb]


def step_spec(p: Program, nu: SpecState, d: Directive, width: int = DEFAULT_WIDTH) -> tuple[SpecState, Leakage] | None:
    """The step on `d` among `transitions`, or None when `d` is not enabled."""
    for d2, nu2, leak in transitions(p, nu, width):
        if d2 == d:
            return nu2, leak
    return None


def enabled_directives(p: Program, nu: SpecState, width: int = DEFAULT_WIDTH) -> list[Directive]:
    """The directives of `transitions`, in `directive_sort_key` order."""
    return [d for d, _, _ in transitions(p, nu, width)]


def is_final(p: Program, nu: SpecState) -> bool:
    return len(nu) == 1 and isinstance(p.instrs[nu[0].pc], Exit)


# --- per-call interning ----------------------------------------------------------


class Interner:
    """Dense ids for the values one search call meets, and a row per id.

    `id(v)` hashes v and returns its id, the next free one on first sight;
    `values[i]` is the value of id i, and `row(i)` is `fill(values[i], id)`,
    computed on first use, so a search fills only the rows it expands.  A
    search keys its memo and queue by ids: a revisit then hashes a few ints
    instead of whole speculative states, and what the search needs about a
    state is worked out once.  Ids mean nothing outside their interner, so
    every search call makes its own.  `fill` interns what a row refers to
    through the `id` it is passed: a `fill` that held the interner would make
    a reference cycle, and the call's tables would stay in memory until the
    cyclic garbage collector next ran.
    """

    __slots__ = ("ids", "values", "rows", "fill")

    def __init__(self, fill):
        self.ids: dict = {}
        self.values: list = []
        self.rows: list = []
        self.fill = fill

    def id(self, v) -> int:
        i = self.ids.setdefault(v, len(self.values))
        if i == len(self.values):
            self.values.append(v)
            self.rows.append(None)
        return i

    def row(self, i: int):
        r = self.rows[i]
        if r is None:
            r = self.rows[i] = self.fill(self.values[i], self.id)
        return r


def transition_table(p: Program, width: int = DEFAULT_WIDTH) -> Interner:
    """Speculative states of `p` interned to ids.  The row of an id is
    `(enabled directives, ((successor id, leak), ...))`, both in
    `directive_sort_key` order: `transitions` of the state, computed once."""

    def fill(nu: SpecState, intern):
        ts = transitions(p, nu, width)
        return tuple([d for d, _, _ in ts]), tuple([(intern(nu2), leak) for _, nu2, leak in ts])

    return Interner(fill)


def step(table: Interner, i: int, d: Directive) -> tuple[int, Leakage] | None:
    """The (successor id, leak) on `d` from id `i` of a `transition_table`,
    or None when `d` is not enabled."""
    dirs, succs = table.row(i)
    try:
        return succs[dirs.index(d)]
    except ValueError:
        return None


def walk(table: Interner, i: int, dirs) -> tuple[int, tuple[Leakage, ...]] | None:
    """`dirs` run from id `i` of a `transition_table`: the end id and the
    leaks, or None when a directive is not enabled on the way."""
    leaks = []
    for d in dirs:
        nxt = step(table, i, d)
        if nxt is None:
            return None
        i, leak = nxt
        leaks.append(leak)
    return i, tuple(leaks)


# --- executions ----------------------------------------------------------------


class Execution(NamedTuple):
    initial: SpecState
    steps: list[tuple[Directive, Leakage, SpecState]]
    status: str  # completed | final | stuck
    stuck_index: int | None = None

    @property
    def last(self) -> SpecState:
        return self.steps[-1][2] if self.steps else self.initial

    @property
    def leaks(self) -> tuple[Leakage, ...]:
        return tuple(l for _, l, _ in self.steps)

    @property
    def directives(self) -> tuple[Directive, ...]:
        return tuple(d for d, _, _ in self.steps)


def run_directives(p: Program, nu0: SpecState, directives: list[Directive], width: int = DEFAULT_WIDTH) -> Execution:
    steps = []
    nu = nu0
    for idx, d in enumerate(directives):
        res = step_spec(p, nu, d, width)
        if res is None:
            return Execution(nu0, steps, "stuck", idx)
        nu, leak = res
        steps.append((d, leak, nu))
    return Execution(nu0, steps, "final" if is_final(p, nu) else "completed")


class _Bounds(NamedTuple):
    max_steps: int
    max_spec_depth: int


class Bounds(_Bounds):
    __slots__ = ()

    def __new__(cls, max_steps: int = 32, max_spec_depth: int = 3):
        if max_steps < 1 or max_spec_depth < 1:
            raise ValueError("bounds must be >= 1")
        return super().__new__(cls, max_steps, max_spec_depth)


Trace = tuple[tuple[Leakage, ...], tuple[Directive, ...]]


class BehaviorSet(NamedTuple):
    terminated: set[Trace]
    truncated: set[Trace]


# more behaviours than anyone reads; `explore_behaviors` refuses past it
MAX_BEHAVIORS = 100_000


def explore_behaviors(p: Program, nu0: SpecState, b: Bounds, width: int = DEFAULT_WIDTH) -> BehaviorSet:
    """All directive-resolved executions within the bounds.

    Executions that reach a final state land in `terminated`; branches cut by
    max_steps or max_spec_depth land in `truncated` (never silently dropped).
    The states are stepped once each, through one `transition_table`.  The
    behaviours are counted first, memoised on (state id, steps taken), so a
    count is cheap when states merge even if the behaviours are exponential.
    More than `MAX_BEHAVIORS` of them raises `RuntimeError` before any is
    enumerated, naming the count.  When states seldom merge the count itself
    is the expensive part: once the behaviours counted so far and the nodes
    memoised both pass `MAX_BEHAVIORS`, it stops and says "more than" instead,
    after about the work of enumerating that many.
    """
    table = transition_table(p, width)
    states, row = table.values, table.row
    bounds = f"steps={b.max_steps},depth={b.max_spec_depth}"

    def leaf(i: int, k: int) -> bool:
        """Whether id `i`, reached in `k` steps, ends its execution."""
        return len(states[i]) > b.max_spec_depth or k >= b.max_steps or not row(i)[0]

    # depth first along one path of frames [id, steps taken, successors left,
    # behaviours below the successors done]; no recursion limit on long paths
    count: dict[tuple[int, int], int] = {}  # behaviours below a finished (id, steps taken)
    root = table.id(nu0)
    total = 1 if leaf(root, 0) else 0
    frames = [] if total else [[root, 0, iter(row(root)[1]), 0]]
    counted = 0  # the frames' behaviours so far: distinct paths, so at most the total
    while frames:
        f = frames[-1]
        i, k, succs, below = f
        nxt = next(succs, None)
        if nxt is None:
            frames.pop()
            count[i, k] = below
            if frames:
                frames[-1][3] += below
            else:
                total = below
            continue
        key = (nxt[0], k + 1)
        c = count.get(key)
        if c is None:
            if not leaf(*key):
                frames.append([key[0], key[1], iter(row(key[0])[1]), 0])
                continue
            c = count[key] = 1
        f[3] = below + c
        counted += c
        if counted > MAX_BEHAVIORS and len(count) > MAX_BEHAVIORS:
            raise RuntimeError(f"more than {MAX_BEHAVIORS} behaviours within {bounds}; lower --bounds")
    if total > MAX_BEHAVIORS:
        raise RuntimeError(f"{total} behaviours within {bounds}, more than {MAX_BEHAVIORS}; lower --bounds")

    bs = BehaviorSet(set(), set())
    walks = [(root, (), ())]
    while walks:
        i, leaks, dirs = walks.pop()
        if leaf(i, len(dirs)):
            final = len(states[i]) <= b.max_spec_depth and not row(i)[0]
            (bs.terminated if final else bs.truncated).add((leaks, dirs))
            continue
        for d, (j, leak) in zip(*row(i)):
            walks.append((j, leaks + (leak,), dirs + (d,)))
    return bs


# --- text formats ---------------------------------------------------------------


def _int(text: str, what: str, base: int = 10) -> int:
    """`text` as an int, else a ValueError that names `what` it should be."""
    try:
        return int(text, base)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def _parse_lines(text: str, parse_line) -> None:
    """`parse_line` on each line of `text` without its comment (the rule of
    `ir.strip_comment`), blank ones skipped; an error names its line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if line:
            try:
                parse_line(line)
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None


def parse_initial_state(text: str, p: Program, width: int = DEFAULT_WIDTH) -> SpecState:
    """`reg <name> <int>` / `cell <var> <off> <int>` lines, each register and
    cell at most once; unset entries are 0.  A register the program does not
    use is accepted: a state written for a program also runs its DCE target."""
    mask = (1 << width) - 1
    regs: dict[Reg, int] = {}
    mem: dict[tuple[str, int], int] = {}

    def parse_line(line: str):
        parts = line.split()
        if parts[0] == "reg" and len(parts) == 3:
            into, key, what = regs, parts[1], f"register {parts[1]}"
        elif parts[0] == "cell" and len(parts) == 4:
            var, off = parts[1], _int(parts[2], "offset")
            if not p.in_bounds(var, off):
                raise ValueError(f"bad cell {var}[{off}]")
            into, key, what = mem, (var, off), f"cell {var}[{off}]"
        else:
            raise ValueError(f"cannot parse {line!r}")
        if key in into:
            raise ValueError(f"repeated {what}")
        into[key] = _int(parts[-1], "value", 0) & mask

    _parse_lines(text, parse_line)
    return initial(p, regs, mem)


def parse_directive(token_line: str, p: Program) -> Directive:
    parts = token_line.split()
    if parts[0] in ("step", "if", "spec", "rb") and len(parts) == 1:
        return Directive(parts[0])
    if parts[0] in ("load", "store") and len(parts) == 3:
        var, off = parts[1], _int(parts[2], "offset")
        if not p.in_bounds(var, off):
            raise ValueError(f"bad directive target {var}[{off}]")
        return Directive(parts[0], var, off)
    raise ValueError(f"cannot parse directive {token_line!r}")


def parse_directives(text: str, p: Program) -> list[Directive]:
    out = []
    _parse_lines(text, lambda line: out.append(parse_directive(line, p)))
    return out


def format_initial_state(nu: SpecState) -> str:
    """Inverse of parse_initial_state for a depth-1 state."""
    s = nu[0]
    lines = [f"reg {r} {v}" for r, v in s.regs]
    lines += [f"cell {var} {off} {v}" for (var, off), v in s.mem]
    return "\n".join(lines) + ("\n" if lines else "")


def format_pc_stack(nu: SpecState) -> str:
    return ",".join(s.pc for s in nu)


def format_trace(ex: Execution) -> str:
    lines = [f"{d} | {l} | {format_pc_stack(nu)}" for d, l, nu in ex.steps]
    if ex.status == "stuck":
        lines.append(f"stuck at step {ex.stuck_index}")
    return "\n".join(lines) + ("\n" if lines else "")
