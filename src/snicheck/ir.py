"""Core IR: instructions, programs, textual format, structural validation.

A program maps program-counter labels to instructions.  Memory is a fixed set
of named variables, each with a static size and a security level.  Values are
unsigned machine words of a configurable bit width (`DEFAULT_WIDTH`, 8)
with wraparound arithmetic; the width lives with the semantics, not the
program text.

Branch convention: ``if r ? T : F`` goes to T when the register equals 0 and
to F otherwise.  Comparison operators produce 0/1, so a branch on the result
of ``lt``/``eq`` takes the T side when the comparison is *false*.

`KINDS` is the one place where an instruction kind's text syntax, its
fields (the holes of its text), its register and successor fields and its
memory access are declared.  Each entry builds its kind's class, with the
constructor, equality and `repr`.  `Instr.successors`, `uses_defs`,
`Kind.access`, `parse_program` and `print_program` are derived from it, and
rewriters retarget or rename an instruction through its field lists.
Liveness, the witness check of shuffles and the dead-code witness read a
memory access through `Kind.access` alone; the taint certificate steps
`semantics.transitions`.

`Program.in_bounds` alone says whether `(var, off)` is a declared cell, for
the step rule (does an access need a `load`/`store` directive?), the text
formats, `validate_program`, the witnesses and the poison product.
"""

from __future__ import annotations

import re
from functools import cached_property, lru_cache
from operator import attrgetter
from typing import ClassVar, NamedTuple

Reg = str
Pc = str

OPS = ("add", "sub", "mul", "lt", "eq", "and", "or")

STACK_VAR = "stk"

DEFAULT_WIDTH = 8


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}:{col}: {message}")
        self.message = message
        self.line = line
        self.col = col


class _MemVar(NamedTuple):
    name: str
    size: int
    level: str


class MemVar(_MemVar):
    """Named memory region: `size` addressable cells, level `low` or `high`."""

    __slots__ = ()

    def __new__(cls, name: str, size: int, level: str):
        if size < 1:
            raise ValueError(f"memvar {name}: size must be >= 1")
        if level not in ("low", "high"):
            raise ValueError(f"memvar {name}: level must be low|high")
        return super().__new__(cls, name, size, level)


class Instr:
    """Base class of the instruction classes, each built by its `KINDS` entry.

    An instruction is an immutable value: two are equal when they are of one
    kind with equal fields.  Equality, the hash, `repr` (`Load(dst='x', ...)`)
    and pickling read the fields through `kind.values`."""

    __slots__ = ()

    kind: ClassVar[Kind]

    def successors(self) -> tuple[Pc, ...]:
        """Successor pcs, read by the class's own `KINDS` entry."""
        raise NotImplementedError

    def replace(self, **fields) -> Instr:
        """This instruction with the named fields changed."""
        k = self.kind
        return self.__class__(**dict(zip(k.fields, k.values(self)), **fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind.values(self) == self.kind.values(other)

    def __hash__(self):
        return hash(self.kind.values(self))

    def __repr__(self):
        k = self.kind
        args = ", ".join(f"{f}={v!r}" for f, v in zip(k.fields, k.values(self)))
        return f"{self.__class__.__qualname__}({args})"

    def __reduce__(self):
        return self.__class__, self.kind.values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# --- instruction table ----------------------------------------------------------

LABEL = r"[A-Za-z0-9_.]+"


def _fmt_addr(addr: "int | Reg") -> str:
    return f"#{addr}" if isinstance(addr, int) else addr


# holes that are not labels: name -> pattern
_HOLE_PATTERNS = {"addr": rf"#\d+|{LABEL}", "slot": r"\d+", "op": "|".join(OPS)}
# holes whose value is not their text: name -> text -> value (printing needs
# `_fmt_addr` for `addr`; `str.format` gives the rest)
_HOLE_PARSERS = {"addr": lambda t: int(t[1:]) if t.startswith("#") else t, "slot": int}


def _reader(names: tuple[str, ...]):
    """A function from an instruction to the tuple of its fields `names`; a
    plain function, so that it also binds as a method."""
    if not names:
        return lambda i: ()
    get = attrgetter(*names)
    if len(names) == 1:
        return lambda i: (get(i),)
    return lambda i: get(i)


def _constructor(cls: type, fields: tuple[str, ...]):
    """`cls.__init__`, taking `fields` in order or by name; compiled, as
    `dataclasses` and `namedtuple` compile theirs.  It stores each argument
    through its slot's descriptor, since `Instr.__setattr__` refuses."""
    ns = {f"_{f}": getattr(cls, f).__set__ for f in fields}
    body = "".join(f"\n    _{f}(self, {f})" for f in fields) or "\n    pass"
    exec(f"def __init__(self, {', '.join(fields)}):{body}", ns)
    return ns["__init__"]


def _template_regex(text: str) -> str:
    """A space is `\\s+` between two words and `\\s*` next to punctuation; a
    hole is a group of its `_HOLE_PATTERNS` entry, a label by default."""
    out = []
    for m in re.finditer(r"\{(\w+)\}| |[^{ ]+", text):
        if m[1]:
            out.append(f"({_HOLE_PATTERNS.get(m[1], LABEL)})")
        elif m[0] == " ":
            words = re.fullmatch(r"[\w}] [\w{]", text[m.start() - 1 : m.end() + 1])
            out.append(r"\s+" if words else r"\s*")
        else:
            out.append(re.escape(m[0]))
    return "".join(out)


class Kind:
    """The `KINDS` entry of one instruction kind, and the class it builds.

    `text` is the line after `pc: `.  Its `{field}` holes, in order, are the
    `fields` of `cls`, a slotted subclass of `Instr` named `name` whose
    constructor takes them in that order or by name.  `uses` are the fields
    it reads as registers (one holding a `#n` address is not a register),
    `defs` the fields it writes, and `succs` its successor pcs.  `mnemonic`
    is the first word of `text`.  A `load`, `store`, `fill` or `spill`
    declares its memory `access` as (variable field or `stk`, address or
    slot field, whether it reads); `access(i)` is then (variable, address or
    address register, reads) of instruction `i`, and None for every other
    kind.
    """

    def __init__(self, name: str, text: str, uses=(), defs=(), succs=(), access=None):
        self.text, self.uses, self.defs, self.succs = text, uses, defs, succs
        self.mnemonic = text.split()[0]
        holes = tuple(re.findall(r"\{(\w+)\}", text))
        self.regex = re.compile(_template_regex(text))
        self._parsers = [(j, _HOLE_PARSERS[h]) for j, h in enumerate(holes) if h in _HOLE_PARSERS]
        namespace = {"__slots__": holes, "__match_args__": holes, "kind": self, "successors": _reader(succs)}
        self.cls = cls = type(name, (Instr,), namespace)
        cls.__init__ = _constructor(cls, holes)
        # built once per kind, as they run per instruction in every analysis;
        # only a kind with an `addr` hole needs the filter or the conversion.
        # `values` is the bare getter where that gives a tuple, as equality
        # and the hash call it
        uses_of, defs_of = _reader(uses), _reader(defs)
        self.fields = holes
        self.values = holes_of = attrgetter(*holes) if len(holes) > 1 else _reader(holes)
        if "addr" in uses:
            self.uses_defs = lambda i: (frozenset([r for r in uses_of(i) if isinstance(r, str)]), frozenset(defs_of(i)))
        else:
            self.uses_defs = lambda i: (frozenset(uses_of(i)), frozenset(defs_of(i)))
        if access is None:
            self.access = lambda i: None
        else:
            var, where, reads = access
            get_var = attrgetter(var) if var in holes else lambda i: var  # `stk` is no field
            get_where = attrgetter(where)
            self.access = lambda i: (get_var(i), get_where(i), reads)
        fmt = re.sub(r"\{\w+\}", "{}", text).format
        if "addr" in holes:
            self.format = lambda i: fmt(*map(_fmt_addr, holes_of(i)))
        else:
            self.format = lambda i: fmt(*holes_of(i))

    def parse(self, groups: tuple[str, ...]) -> Instr:
        """The instruction whose holes matched `groups`."""
        if not self._parsers:
            return self.cls(*groups)
        vals = list(groups)
        for j, conv in self._parsers:
            vals[j] = conv(vals[j])
        return self.cls(*vals)


KINDS = (
    Kind("Exit", "ret"),
    Kind("Nop", "nop -> {succ}", succs=("succ",)),
    Kind("Asgn", "{dst} = {lhs} {op} {rhs} -> {succ}", uses=("lhs", "rhs"), defs=("dst",), succs=("succ",)),
    Kind("Load", "load {dst} <- {var}[{addr}] -> {succ}", uses=("addr",), defs=("dst",), succs=("succ",),
         access=("var", "addr", True)),
    Kind("Store", "store {var}[{addr}] <- {src} -> {succ}", uses=("addr", "src"), succs=("succ",),
         access=("var", "addr", False)),
    Kind("If", "if {cond} ? {succ_true} : {succ_false}", uses=("cond",), succs=("succ_true", "succ_false")),
    Kind("Sfence", "sfence -> {succ}", succs=("succ",)),
    Kind("Slh", "slh {reg} -> {succ}", uses=("reg",), defs=("reg",), succs=("succ",)),
    Kind("Move", "move {dst} <- {src} -> {succ}", uses=("src",), defs=("dst",), succs=("succ",)),
    Kind("Fill", "fill {dst} <- stk#{slot} -> {succ}", defs=("dst",), succs=("succ",), access=(STACK_VAR, "slot", True)),
    Kind("Spill", "spill stk#{slot} <- {src} -> {succ}", uses=("src",), succs=("succ",), access=(STACK_VAR, "slot", False)),
)
Exit, Nop, Asgn, Load, Store, If, Sfence, Slh, Move, Fill, Spill = (k.cls for k in KINDS)

SHUFFLE_KINDS = (Move, Fill, Spill, Slh, Sfence)


def loc_text(loc: Reg | tuple[str, int]) -> str:
    """A register as itself, a memory cell (var, offset) as `var[offset]`."""
    return loc if isinstance(loc, str) else f"{loc[0]}[{loc[1]}]"


_PC_PARTS = re.compile(r"\d+|\D+")


# cached, as every new `Program` sorts its pcs once and the labels recur:
# `allocate`'s chain labels (`3.0.1`) are the same from program to program
@lru_cache(maxsize=4096)
def pc_key(pc: Pc) -> tuple:
    """Sort key that orders numeric label fragments numerically (1 < 2 < 10).

    The key ends with the label itself, so distinct labels that read as the
    same numbers (`01` and `1`, `1.0` and `1.00`) still get distinct keys and
    the order is total."""
    if pc.isdecimal():
        return ((0, int(pc), ""),), pc
    return tuple((0, int(t), "") if t.isdigit() else (1, 0, t) for t in _PC_PARTS.findall(pc)), pc


class Program:
    """A program is never mutated after construction: transformations build a
    new one.  `pcs()`, `cells()`, `registers` and the `memvar` index are
    computed on first use and cached on that assumption; each call of the
    first three returns a fresh list.  Two programs are equal when their
    entries, instructions and memory variables are."""

    def __init__(self, entry: Pc, instrs: dict[Pc, Instr], memvars: list[MemVar]):
        self.entry, self.instrs, self.memvars = entry, instrs, memvars

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.entry, self.instrs, self.memvars) == (other.entry, other.instrs, other.memvars)

    @cached_property
    def _memvar_index(self) -> dict[str, MemVar]:
        # reversed, so that the first declaration of a name wins, as in a scan
        return {v.name: v for v in reversed(self.memvars)}

    def memvar(self, name: str) -> MemVar | None:
        return self._memvar_index.get(name)

    def in_bounds(self, var: str, off: int) -> bool:
        """Whether `(var, off)` is a declared cell.  A packed or tainted `off`
        raises `semantics.Divergent`, unless every lane gives one answer."""
        mv = self._memvar_index.get(var)
        return mv is not None and 0 <= off < mv.size

    @cached_property
    def _sorted_pcs(self) -> tuple[Pc, ...]:
        return tuple(sorted(self.instrs, key=pc_key))

    @cached_property
    def _cells(self) -> tuple[tuple[str, int], ...]:
        return tuple((v.name, off) for v in self.memvars for off in range(v.size))

    @cached_property
    def unsafe_directives(self) -> dict[str, tuple]:
        """`load` and `store` -> the directives an out-of-bounds access of that
        kind admits: one per declared cell, sorted by (variable, offset)."""
        from .semantics import Directive

        cells = sorted(self._cells)
        return {k: tuple(Directive(k, v, off) for v, off in cells) for k in ("load", "store")}

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


def uses_defs(i: Instr) -> tuple[frozenset[Reg], frozenset[Reg]]:
    """Registers read and written by the step rule for `i`, from its `KINDS`
    entry.

    Register-addressed accesses use their address register; const-addressed
    ones do not.  `slh` conditionally rewrites its register, so it both uses
    and defines it.
    """
    return i.kind.uses_defs(i)


class Diagnostic(NamedTuple):
    pc: Pc | None
    message: str

    def __str__(self):
        return f"{self.pc}: {self.message}" if self.pc else self.message


def validate_program(p: Program) -> list[Diagnostic]:
    """Structural validation; returns an empty list iff all invariants hold.

    The diagnostics without a pc come first; those of an instruction follow
    in `pc_key` order of their pcs, each pc's successors before its memory
    access or operator.  A program need not reach an exit: a search cuts
    its loops at the step bound.
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
    # instructions in insertion order; their diagnostics are sorted below
    at_pcs: list[Diagnostic] = []
    for pc, i in p.instrs.items():
        for s in i.successors():
            if s not in p.instrs:
                at_pcs.append(Diagnostic(pc, f"unknown successor {s}"))
        if acc := i.kind.access(i):
            var, where, _ = acc
            mv = p.memvar(var)
            if isinstance(i, (Fill, Spill)):
                if mv is None:
                    at_pcs.append(Diagnostic(pc, "fill/spill require a declared stk variable"))
                elif not p.in_bounds(var, where):
                    at_pcs.append(Diagnostic(pc, f"stack slot out of bounds: {where}"))
            elif mv is None:
                at_pcs.append(Diagnostic(pc, f"unknown memvar {var}"))
            elif isinstance(where, int) and not p.in_bounds(var, where):
                at_pcs.append(Diagnostic(pc, f"const address out of bounds: {var}[{where}]"))
        elif isinstance(i, Asgn) and i.op not in OPS:
            at_pcs.append(Diagnostic(pc, f"unknown operator {i.op}"))
    if len(at_pcs) > 1:
        at_pcs.sort(key=lambda d: pc_key(d.pc))  # stable: a pc keeps its own order
    out += at_pcs
    return out


# --- textual format ---------------------------------------------------------

_MEM_RE = re.compile(rf"mem\s+({LABEL})\s+(\d+)\s+(low|high)$")
_ENTRY_RE = re.compile(rf"entry\s+({LABEL})$")
_PC_RE = re.compile(rf"({LABEL})\s*:\s*")
_WORD_RE = re.compile(LABEL)
# `#` opens a comment only at line start or after whitespace; `[#0]` and
# `stk#0` use it as the const-address marker
_COMMENT_RE = re.compile(r"(?:^|\s)#")
# kinds by the word their text starts with; an assignment starts with a register
_BY_MNEMONIC = {k.mnemonic: k for k in KINDS if k.cls is not Asgn}


def strip_comment(raw: str) -> str:
    """`raw` without its comment and surrounding whitespace."""
    if "#" in raw and (m := _COMMENT_RE.search(raw)):
        raw = raw[: m.start()]
    return raw.strip()


def _parse_instr(line: str, pos: int) -> Instr | None:
    """The instruction written at `line[pos:]`, or None.

    The kind is the one its leading word names, else an assignment; an
    assignment to a register spelled like a mnemonic (`load = x add y -> b`)
    fails the named kind's template and falls back too.  The templates
    exclude each other, so the match is the only one."""
    w = _WORD_RE.match(line, pos)
    named = _BY_MNEMONIC.get(w[0]) if w else None
    for k in (named, Asgn.kind) if named else (Asgn.kind,):
        if m := k.regex.fullmatch(line, pos):
            return k.parse(m.groups())
    return None


def parse_program(text: str) -> Program:
    """Parse the line-oriented program format.

    `#` starts a comment at the start of a line or after whitespace.  A line
    is tried as an instruction (`<pc>: ...`) first, as most lines are, then
    as `mem` and as `entry`; the three forms exclude each other, since only
    an instruction's label is followed by `:`.  The program is then checked
    by `validate_program`, whose diagnostics, in its order, make up the
    message of the error."""
    entry: Pc | None = None
    instrs: dict[Pc, Instr] = {}
    memvars: list[MemVar] = []

    def add(lineno: int, pc: Pc, i: Instr):
        if pc in instrs:
            raise ParseError(f"duplicate label {pc}", lineno)
        instrs[pc] = i

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw)
        if not line:
            continue
        pc = _PC_RE.match(line)
        if pc and (i := _parse_instr(line, pc.end())):
            add(lineno, pc[1], i)
        elif m := _MEM_RE.match(line):
            if any(v.name == m[1] for v in memvars):
                raise ParseError(f"duplicate memvar {m[1]}", lineno)
            memvars.append(MemVar(m[1], int(m[2]), m[3]))
        elif m := _ENTRY_RE.match(line):
            if entry is not None:
                raise ParseError("duplicate entry declaration", lineno)
            entry = m[1]
        else:
            raise ParseError(f"cannot parse: {line!r}", lineno, raw.index(line.split()[0]))

    if entry is None:
        raise ParseError("missing entry declaration", 1)
    p = Program(entry, instrs, memvars)
    errs = validate_program(p)
    if errs:
        raise ParseError("; ".join(str(e) for e in errs), 0)
    return p


def print_program(p: Program) -> str:
    """Inverse of parse_program on valid programs."""
    lines = [f"mem {v.name} {v.size} {v.level}" for v in p.memvars]
    lines.append(f"entry {p.entry}")
    for pc in p.pcs():
        i = p.instrs[pc]
        lines.append(f"{pc}: {i.kind.format(i)}")
    return "\n".join(lines) + "\n"
