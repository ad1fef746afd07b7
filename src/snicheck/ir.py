"""Core IR: instructions, programs, textual format, structural validation.

A program maps program-counter labels to instructions.  Memory is a fixed set
of named variables, each with a static size and a security level.  Values are
unsigned machine words of a configurable bit width (default 8) with
wraparound arithmetic; the width lives with the semantics, not the program
text.

Branch convention: ``if r ? T : F`` goes to T when the register equals 0 and
to F otherwise.  Comparison operators produce 0/1, so a branch on the result
of ``lt``/``eq`` takes the T side when the comparison is *false*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property

Reg = str
Pc = str
Addr = "int | Reg"  # const offset or address register

OPS = ("add", "sub", "mul", "lt", "eq", "and", "or")

STACK_VAR = "stk"


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass(frozen=True)
class MemVar:
    """Named memory region: `size` addressable cells, level `low` or `high`."""

    name: str
    size: int
    level: str

    def __post_init__(self):
        if self.size < 1:
            raise ValueError(f"memvar {self.name}: size must be >= 1")
        if self.level not in ("low", "high"):
            raise ValueError(f"memvar {self.name}: level must be low|high")


class Instr:
    """Base class; concrete instructions are frozen dataclasses below."""

    __slots__ = ()

    def successors(self) -> tuple[Pc, ...]:
        raise NotImplementedError


@dataclass(frozen=True)
class Exit(Instr):
    def successors(self):
        return ()


@dataclass(frozen=True)
class Nop(Instr):
    succ: Pc

    def successors(self):
        return (self.succ,)


@dataclass(frozen=True)
class Asgn(Instr):
    dst: Reg
    lhs: Reg
    op: str
    rhs: Reg
    succ: Pc

    def successors(self):
        return (self.succ,)


@dataclass(frozen=True)
class Load(Instr):
    dst: Reg
    var: str
    addr: "int | Reg"
    succ: Pc

    def successors(self):
        return (self.succ,)


@dataclass(frozen=True)
class Store(Instr):
    var: str
    addr: "int | Reg"
    src: Reg
    succ: Pc

    def successors(self):
        return (self.succ,)


@dataclass(frozen=True)
class If(Instr):
    cond: Reg
    succ_true: Pc
    succ_false: Pc

    def successors(self):
        return (self.succ_true, self.succ_false)


@dataclass(frozen=True)
class Sfence(Instr):
    succ: Pc

    def successors(self):
        return (self.succ,)


@dataclass(frozen=True)
class Slh(Instr):
    reg: Reg
    succ: Pc

    def successors(self):
        return (self.succ,)


@dataclass(frozen=True)
class Move(Instr):
    dst: Reg
    src: Reg
    succ: Pc

    def successors(self):
        return (self.succ,)


@dataclass(frozen=True)
class Fill(Instr):
    dst: Reg
    slot: int
    succ: Pc

    def successors(self):
        return (self.succ,)


@dataclass(frozen=True)
class Spill(Instr):
    slot: int
    src: Reg
    succ: Pc

    def successors(self):
        return (self.succ,)


SHUFFLE_KINDS = (Move, Fill, Spill, Slh, Sfence)


def pc_key(pc: Pc) -> tuple:
    """Sort key that orders numeric label fragments numerically (1 < 2 < 10)."""
    return tuple(
        (0, int(t), "") if t.isdigit() else (1, 0, t) for t in re.findall(r"\d+|\D+", pc)
    )


@dataclass
class Program:
    """A program is never mutated after construction: transformations build a
    new one.  `pcs()`, `cells()` and `registers` are computed on first use and
    cached on that assumption; each call returns a fresh list."""

    entry: Pc
    instrs: dict[Pc, Instr]
    memvars: list[MemVar] = field(default_factory=list)

    def memvar(self, name: str) -> MemVar | None:
        for v in self.memvars:
            if v.name == name:
                return v
        return None

    @cached_property
    def _sorted_pcs(self) -> tuple[Pc, ...]:
        return tuple(sorted(self.instrs, key=pc_key))

    @cached_property
    def _cells(self) -> tuple[tuple[str, int], ...]:
        return tuple((v.name, off) for v in self.memvars for off in range(v.size))

    @cached_property
    def _registers(self) -> tuple[Reg, ...]:
        regs: set[Reg] = set()
        for i in self.instrs.values():
            u, d = uses_defs(i)
            regs |= u | d
        return tuple(sorted(regs))

    def pcs(self) -> list[Pc]:
        return list(self._sorted_pcs)

    def cells(self) -> list[tuple[str, int]]:
        return list(self._cells)

    @property
    def registers(self) -> list[Reg]:
        return list(self._registers)

    def __eq__(self, other):
        return (
            isinstance(other, Program)
            and self.entry == other.entry
            and self.instrs == other.instrs
            and self.memvars == other.memvars
        )


def uses_defs(i: Instr) -> tuple[frozenset[Reg], frozenset[Reg]]:
    """Registers read and written by the step rule for `i`.

    Register-addressed accesses use their address register; const-addressed
    ones do not.  `slh` conditionally rewrites its register, so it both uses
    and defines it.
    """
    match i:
        case Asgn(dst=d, lhs=a, rhs=b):
            return frozenset({a, b}), frozenset({d})
        case Load(dst=d, addr=adr):
            u = frozenset({adr}) if isinstance(adr, str) else frozenset()
            return u, frozenset({d})
        case Store(addr=adr, src=s):
            u = {s} | ({adr} if isinstance(adr, str) else set())
            return frozenset(u), frozenset()
        case If(cond=c):
            return frozenset({c}), frozenset()
        case Slh(reg=r):
            return frozenset({r}), frozenset({r})
        case Move(dst=d, src=s):
            return frozenset({s}), frozenset({d})
        case Fill(dst=d):
            return frozenset(), frozenset({d})
        case Spill(src=s):
            return frozenset({s}), frozenset()
        case _:
            return frozenset(), frozenset()


@dataclass(frozen=True)
class Diagnostic:
    pc: Pc | None
    message: str

    def __str__(self):
        return f"{self.pc}: {self.message}" if self.pc else self.message


def validate_program(p: Program, warnings: list[Diagnostic] | None = None) -> list[Diagnostic]:
    """Structural validation; returns an empty list iff all invariants hold.

    A missing reachable exit is only reported through `warnings`.
    """
    out: list[Diagnostic] = []
    if p.entry not in p.instrs:
        out.append(Diagnostic(None, f"entry {p.entry} not defined"))
    names = [v.name for v in p.memvars]
    for n in names:
        if names.count(n) > 1:
            out.append(Diagnostic(None, f"duplicate memvar {n}"))
            break
    stk = p.memvar(STACK_VAR)
    if stk is not None and stk.level != "low":
        out.append(Diagnostic(None, "stk must be declared low"))
    for pc in p.pcs():
        i = p.instrs[pc]
        for s in i.successors():
            if s not in p.instrs:
                out.append(Diagnostic(pc, f"unknown successor {s}"))
        match i:
            case Load(var=v, addr=int(adr)) | Store(var=v, addr=int(adr)):
                mv = p.memvar(v)
                if mv is None:
                    out.append(Diagnostic(pc, f"unknown memvar {v}"))
                elif not 0 <= adr < mv.size:
                    out.append(Diagnostic(pc, f"const address out of bounds: {v}[{adr}]"))
            case Load(var=v) | Store(var=v):
                if p.memvar(v) is None:
                    out.append(Diagnostic(pc, f"unknown memvar {v}"))
            case Fill(slot=sl) | Spill(slot=sl):
                if stk is None:
                    out.append(Diagnostic(pc, "fill/spill require a declared stk variable"))
                elif not 0 <= sl < stk.size:
                    out.append(Diagnostic(pc, f"stack slot out of bounds: {sl}"))
            case Asgn(op=op):
                if op not in OPS:
                    out.append(Diagnostic(pc, f"unknown operator {op}"))
    if warnings is not None and p.entry in p.instrs and not out:
        seen, todo = set(), [p.entry]
        while todo:
            pc = todo.pop()
            if pc in seen:
                continue
            seen.add(pc)
            todo.extend(p.instrs[pc].successors())
        if not any(isinstance(p.instrs[pc], Exit) for pc in seen):
            warnings.append(Diagnostic(p.entry, "no exit reachable from entry"))
    return out


# --- textual format ---------------------------------------------------------

_LABEL = r"[A-Za-z0-9_.]+"
_ADDR = rf"(?:#(\d+)|({_LABEL}))"

_LINE_RES = [
    ("mem", re.compile(rf"mem\s+({_LABEL})\s+(\d+)\s+(low|high)$")),
    ("entry", re.compile(rf"entry\s+({_LABEL})$")),
    ("ret", re.compile(rf"({_LABEL})\s*:\s*ret$")),
    ("nop", re.compile(rf"({_LABEL})\s*:\s*nop\s*->\s*({_LABEL})$")),
    ("asgn", re.compile(rf"({_LABEL})\s*:\s*({_LABEL})\s*=\s*({_LABEL})\s+({'|'.join(OPS)})\s+({_LABEL})\s*->\s*({_LABEL})$")),
    ("load", re.compile(rf"({_LABEL})\s*:\s*load\s+({_LABEL})\s*<-\s*({_LABEL})\[{_ADDR}\]\s*->\s*({_LABEL})$")),
    ("store", re.compile(rf"({_LABEL})\s*:\s*store\s+({_LABEL})\[{_ADDR}\]\s*<-\s*({_LABEL})\s*->\s*({_LABEL})$")),
    ("if", re.compile(rf"({_LABEL})\s*:\s*if\s+({_LABEL})\s*\?\s*({_LABEL})\s*:\s*({_LABEL})$")),
    ("sfence", re.compile(rf"({_LABEL})\s*:\s*sfence\s*->\s*({_LABEL})$")),
    ("slh", re.compile(rf"({_LABEL})\s*:\s*slh\s+({_LABEL})\s*->\s*({_LABEL})$")),
    ("move", re.compile(rf"({_LABEL})\s*:\s*move\s+({_LABEL})\s*<-\s*({_LABEL})\s*->\s*({_LABEL})$")),
    ("fill", re.compile(rf"({_LABEL})\s*:\s*fill\s+({_LABEL})\s*<-\s*{STACK_VAR}#(\d+)\s*->\s*({_LABEL})$")),
    ("spill", re.compile(rf"({_LABEL})\s*:\s*spill\s+{STACK_VAR}#(\d+)\s*<-\s*({_LABEL})\s*->\s*({_LABEL})$")),
]


def parse_program(text: str) -> Program:
    """Parse the line-oriented program format; `#` starts a comment."""
    entry: Pc | None = None
    instrs: dict[Pc, Instr] = {}
    memvars: list[MemVar] = []

    def add(lineno: int, pc: Pc, i: Instr):
        if pc in instrs:
            raise ParseError(f"duplicate label {pc}", lineno)
        instrs[pc] = i

    for lineno, raw in enumerate(text.splitlines(), start=1):
        # `#` opens a comment only at line start or after whitespace; `[#0]`
        # and `stk#0` use it as the const-address marker
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        for kind, rx in _LINE_RES:
            m = rx.match(line)
            if not m:
                continue
            g = m.groups()
            if kind == "mem":
                if any(v.name == g[0] for v in memvars):
                    raise ParseError(f"duplicate memvar {g[0]}", lineno)
                memvars.append(MemVar(g[0], int(g[1]), g[2]))
            elif kind == "entry":
                entry = g[0]
            elif kind == "ret":
                add(lineno, g[0], Exit())
            elif kind == "nop":
                add(lineno, g[0], Nop(g[1]))
            elif kind == "asgn":
                add(lineno, g[0], Asgn(g[1], g[2], g[3], g[4], g[5]))
            elif kind == "load":
                adr = int(g[3]) if g[3] is not None else g[4]
                add(lineno, g[0], Load(g[1], g[2], adr, g[5]))
            elif kind == "store":
                adr = int(g[2]) if g[2] is not None else g[3]
                add(lineno, g[0], Store(g[1], adr, g[4], g[5]))
            elif kind == "if":
                add(lineno, g[0], If(g[1], g[2], g[3]))
            elif kind == "sfence":
                add(lineno, g[0], Sfence(g[1]))
            elif kind == "slh":
                add(lineno, g[0], Slh(g[1], g[2]))
            elif kind == "move":
                add(lineno, g[0], Move(g[1], g[2], g[3]))
            elif kind == "fill":
                add(lineno, g[0], Fill(g[1], int(g[2]), g[3]))
            elif kind == "spill":
                add(lineno, g[0], Spill(int(g[1]), g[2], g[3]))
            break
        else:
            raise ParseError(f"cannot parse: {line!r}", lineno, raw.index(line.split()[0]) if line else 0)

    if entry is None:
        raise ParseError("missing entry declaration", 1)
    p = Program(entry, instrs, memvars)
    errs = validate_program(p)
    if errs:
        raise ParseError("; ".join(str(e) for e in errs), 0)
    return p


def _fmt_addr(addr: "int | Reg") -> str:
    return f"#{addr}" if isinstance(addr, int) else addr


def print_program(p: Program) -> str:
    """Inverse of parse_program on valid programs."""
    lines = [f"mem {v.name} {v.size} {v.level}" for v in p.memvars]
    lines.append(f"entry {p.entry}")
    for pc in p.pcs():
        i = p.instrs[pc]
        match i:
            case Exit():
                lines.append(f"{pc}: ret")
            case Nop(succ=s):
                lines.append(f"{pc}: nop -> {s}")
            case Asgn(dst=d, lhs=a, op=op, rhs=b, succ=s):
                lines.append(f"{pc}: {d} = {a} {op} {b} -> {s}")
            case Load(dst=d, var=v, addr=adr, succ=s):
                lines.append(f"{pc}: load {d} <- {v}[{_fmt_addr(adr)}] -> {s}")
            case Store(var=v, addr=adr, src=r, succ=s):
                lines.append(f"{pc}: store {v}[{_fmt_addr(adr)}] <- {r} -> {s}")
            case If(cond=c, succ_true=t, succ_false=f):
                lines.append(f"{pc}: if {c} ? {t} : {f}")
            case Sfence(succ=s):
                lines.append(f"{pc}: sfence -> {s}")
            case Slh(reg=r, succ=s):
                lines.append(f"{pc}: slh {r} -> {s}")
            case Move(dst=d, src=r, succ=s):
                lines.append(f"{pc}: move {d} <- {r} -> {s}")
            case Fill(dst=d, slot=sl, succ=s):
                lines.append(f"{pc}: fill {d} <- {STACK_VAR}#{sl} -> {s}")
            case Spill(slot=sl, src=r, succ=s):
                lines.append(f"{pc}: spill {STACK_VAR}#{sl} <- {r} -> {s}")
    return "\n".join(lines) + "\n"
