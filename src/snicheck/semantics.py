"""Speculation-free and speculating execution with attacker directives.

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
There is no bound on speculation in the semantics itself; exploration takes
explicit bounds and reports which branches were truncated by them.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

from .ir import (
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
)

DEFAULT_WIDTH = 8


def eval_op(op: str, a: int, b: int, width: int) -> int:
    mask = (1 << width) - 1
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
    raise ValueError(f"unknown operator {op}")


_key = itemgetter(0)


def _splice(items: tuple, k, v: int) -> tuple:
    """`items` (sorted by key, no zero values) with k set to v.

    Only the entry for k is new; every other (key, value) pair is shared with
    `items`, so states along a search share their register and cell pairs."""
    i = bisect_left(items, k, key=_key)
    hit = i < len(items) and items[i][0] == k
    if v == 0:
        return items[:i] + items[i + 1:] if hit else items
    return items[:i] + ((k, v),) + items[i + hit:]


@dataclass(frozen=True, slots=True)
class State:
    pc: Pc
    regs: tuple[tuple[Reg, int], ...] = ()
    mem: tuple[tuple[tuple[str, int], int], ...] = ()

    @staticmethod
    def make(pc: Pc, regs: dict[Reg, int] | None = None, mem: dict[tuple[str, int], int] | None = None) -> "State":
        return State(
            pc,
            tuple(sorted((r, v) for r, v in (regs or {}).items() if v != 0)),
            tuple(sorted((c, v) for c, v in (mem or {}).items() if v != 0)),
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


def initial(p: Program, regs: dict[Reg, int] | None = None, mem: dict[tuple[str, int], int] | None = None) -> SpecState:
    return (State.make(p.entry, regs, mem),)


def speculating(nu: SpecState) -> bool:
    return len(nu) >= 2


# --- directives and leakages -------------------------------------------------

_DKINDS = ("step", "if", "spec", "rb", "load", "store")


@dataclass(frozen=True, order=True, slots=True)
class Directive:
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


@dataclass(frozen=True, slots=True)
class Leakage:
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
# wide words from growing the caches without end.


@lru_cache(maxsize=4096)
def l_if(v: int) -> Leakage:
    return Leakage("if", v)


@lru_cache(maxsize=4096)
def l_load(addr: int) -> Leakage:
    return Leakage("load", addr)


@lru_cache(maxsize=4096)
def l_store(addr: int) -> Leakage:
    return Leakage("store", addr)


# --- single steps -------------------------------------------------------------


def _in_bounds(p: Program, var: str, addr: int) -> bool:
    mv = p.memvar(var)
    return mv is not None and 0 <= addr < mv.size


def step_spec_free(p: Program, s: State, d: Directive, width: int = DEFAULT_WIDTH) -> tuple[State, Leakage] | None:
    """One speculation-free step, or None when `d` is not enabled at `s`.

    `sfence` and `slh` carry their non-speculating meaning here (step through,
    keep the register), so target programs can be run architecturally.
    """
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
            if _in_bounds(p, var, a):
                if d != D_STEP:
                    return None
                return s.at(succ).with_reg(dst, s.cell(var, a)), l_load(a)
            if d.kind != "load" or not _in_bounds(p, d.var, d.off):
                return None
            return s.at(succ).with_reg(dst, s.cell(d.var, d.off)), l_load(a)
        case Store(var=var, addr=adr, src=src, succ=succ):
            a = adr if isinstance(adr, int) else s.reg(adr)
            if _in_bounds(p, var, a):
                if d != D_STEP:
                    return None
                return s.at(succ).with_cell(var, a, s.reg(src)), l_store(a)
            if d.kind != "store" or not _in_bounds(p, d.var, d.off):
                return None
            return s.at(succ).with_cell(d.var, d.off, s.reg(src)), l_store(a)
    return None


def step_spec(p: Program, nu: SpecState, d: Directive, width: int = DEFAULT_WIDTH) -> tuple[SpecState, Leakage] | None:
    """One speculating step, or None when `d` is not enabled at `nu`."""
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
            if d != D_STEP or speculating(nu):
                return None
            return nu[:-1] + (top.at(succ),), L_NONE
        case Slh(reg=r, succ=succ):
            if d != D_STEP:
                return None
            nxt = top.at(succ)
            if speculating(nu):
                nxt = nxt.with_reg(r, 0)
            return nu[:-1] + (nxt,), L_NONE
        case _:
            res = step_spec_free(p, top, d, width)
            if res is None:
                return None
            s2, leak = res
            return nu[:-1] + (s2,), leak


def enabled_directives(p: Program, nu: SpecState, width: int = DEFAULT_WIDTH) -> list[Directive]:
    """All enabled directives, in `directive_sort_key` order.

    Read off the top frame's instruction and the in-bounds test: a branch
    admits `if` and `spec`, an out-of-bounds access one `load`/`store v o`
    per declared cell, `sfence` steps only when not speculating, `exit` admits
    nothing and everything else steps; `rb` is added while speculating.  This
    equals the directives d for which step_spec(p, nu, d) is not None among
    `step`, `if`, `spec`, `rb` and a `load`/`store` per declared cell, which
    `tests/test_semantics.py` checks against that probe.
    """
    top = nu[-1]
    i = p.instrs[top.pc]
    spec = speculating(nu)
    match i:
        case Exit():
            out = []
        case If():
            out = [D_IF, D_SPEC]
        case Sfence():
            out = [] if spec else [D_STEP]
        case Load(var=var, addr=adr) | Store(var=var, addr=adr):
            a = adr if isinstance(adr, int) else top.reg(adr)
            if not _in_bounds(p, var, a):
                unsafe = p.unsafe_directives[i.kind.mnemonic]
                return [D_RB, *unsafe] if spec else list(unsafe)
            out = [D_STEP]
        case _:
            out = [D_STEP]
    if spec:
        out.append(D_RB)
    return out


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


# --- executions ----------------------------------------------------------------


@dataclass
class Execution:
    initial: SpecState
    steps: list[tuple[Directive, Leakage, SpecState]] = field(default_factory=list)
    status: str = "completed"  # completed | final | stuck
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
    ex = Execution(nu0)
    nu = nu0
    for idx, d in enumerate(directives):
        res = step_spec(p, nu, d, width)
        if res is None:
            ex.status = "stuck"
            ex.stuck_index = idx
            return ex
        nu, leak = res
        ex.steps.append((d, leak, nu))
    ex.status = "final" if is_final(p, nu) else "completed"
    return ex


@dataclass(frozen=True)
class Bounds:
    max_steps: int = 32
    max_spec_depth: int = 3

    def __post_init__(self):
        if self.max_steps < 1 or self.max_spec_depth < 1:
            raise ValueError("bounds must be >= 1")


Trace = tuple[tuple[Leakage, ...], tuple[Directive, ...]]


@dataclass
class BehaviorSet:
    terminated: set[Trace] = field(default_factory=set)
    truncated: set[Trace] = field(default_factory=set)


# more behaviours than anyone reads; the enumeration stops with an error past it
MAX_BEHAVIORS = 100_000


def explore_behaviors(p: Program, nu0: SpecState, b: Bounds, width: int = DEFAULT_WIDTH) -> BehaviorSet:
    """Depth-first enumeration of all directive-resolved executions.

    Executions that reach a final state land in `terminated`; branches cut by
    max_steps or max_spec_depth land in `truncated` (never silently dropped).
    Raises `RuntimeError` once there are more than `MAX_BEHAVIORS` of them.
    """
    bs = BehaviorSet()

    def record(into: set, trace: Trace):
        into.add(trace)
        if len(bs.terminated) + len(bs.truncated) > MAX_BEHAVIORS:
            bounds = f"steps={b.max_steps},depth={b.max_spec_depth}"
            raise RuntimeError(f"more than {MAX_BEHAVIORS} behaviours within {bounds}; lower --bounds")

    # an explicit stack, children pushed in reverse: the recursive preorder
    # without Python's recursion limit on long executions
    stack = [(nu0, (), ())]
    while stack:
        nu, leaks, dirs = stack.pop()
        if len(nu) > b.max_spec_depth:
            record(bs.truncated, (leaks, dirs))
            continue
        en = enabled_directives(p, nu, width)
        if not en:
            record(bs.terminated, (leaks, dirs))
            continue
        if len(dirs) >= b.max_steps:
            record(bs.truncated, (leaks, dirs))
            continue
        for d in reversed(en):
            nu2, leak = step_spec(p, nu, d, width)
            stack.append((nu2, leaks + (leak,), dirs + (d,)))
    return bs


# --- text formats ---------------------------------------------------------------


def _int(text: str, what: str, base: int = 10) -> int:
    """`text` as an int, else a ValueError that names `what` it should be."""
    try:
        return int(text, base)
    except ValueError:
        raise ValueError(f"bad {what} {text!r}") from None


def _parse_lines(text: str, parse_line) -> None:
    """`parse_line` on each line of `text` without its comment, blank ones
    skipped; an error names its line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                parse_line(line)
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None


def parse_initial_state(text: str, p: Program, width: int = DEFAULT_WIDTH) -> SpecState:
    """`reg <name> <int>` / `cell <var> <off> <int>` lines; unset entries are 0."""
    mask = (1 << width) - 1
    regs: dict[Reg, int] = {}
    mem: dict[tuple[str, int], int] = {}

    def parse_line(line: str):
        parts = line.split()
        if parts[0] == "reg" and len(parts) == 3:
            regs[parts[1]] = _int(parts[2], "value", 0) & mask
        elif parts[0] == "cell" and len(parts) == 4:
            var, off = parts[1], _int(parts[2], "offset")
            mv = p.memvar(var)
            if mv is None or not 0 <= off < mv.size:
                raise ValueError(f"bad cell {var}[{off}]")
            mem[(var, off)] = _int(parts[3], "value", 0) & mask
        else:
            raise ValueError(f"cannot parse {line!r}")

    _parse_lines(text, parse_line)
    return initial(p, regs, mem)


def parse_directive(token_line: str, p: Program) -> Directive:
    parts = token_line.split()
    if parts[0] in ("step", "if", "spec", "rb") and len(parts) == 1:
        return Directive(parts[0])
    if parts[0] in ("load", "store") and len(parts) == 3:
        var, off = parts[1], _int(parts[2], "offset")
        mv = p.memvar(var)
        if mv is None or not 0 <= off < mv.size:
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
