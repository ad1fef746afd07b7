"""Backward liveness over registers and memory cells, and dead code removal.

Facts are sets of registers and (var, offset) cells, solved as int bit
masks (`Masks`) and decoded to frozensets, each distinct mask once.  The
exit fact is a parameter: security-facing runs keep the default (all
registers and all cells live at exit); register-allocation-facing runs pass
cells only, so registers die at program end.

Every instruction but `ret` kills its defs, then adds its uses, as its
`KINDS` entry says.  A memory read (`load`, `fill`) adds the cell it reads,
or every cell when it reads through a register (speculation may send the
access anywhere), only when one of its defs is live; a write (`store`,
`spill`) through a constant address or slot kills its cell.  Uses count
even when the destination is dead, since the register allocator places
every use; dead code elimination looks only at destinations.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import dataflow
from .ir import Asgn, Exit, Instr, Load, Nop, Pc, Program, Store

Fact = frozenset  # of Reg | (var, off)


def full_fact(p: Program) -> Fact:
    return frozenset(p.registers) | frozenset(p.cells())


def cells_fact(p: Program) -> Fact:
    return frozenset(p.cells())


class Masks:
    """Facts of one program as int bit masks.  `pos` gives each key its bit
    position: the registers in order, then the declared cells, then any
    other key met (an exit-fact member, or a cell at an undeclared or
    out-of-bounds constant address); `keys` lists them by position.  A key's
    bit is formed where a mask is built, so the index takes one small int
    per key, not n bits.  `regs` and `cells` have the bits of the first two
    groups, and `exit` is the exit fact's mask."""

    def __init__(self, p: Program, exit_fact: Fact | None = None):
        self.keys = [*p.registers, *p.cells()]
        self.pos = {k: i for i, k in enumerate(self.keys)}
        self.regs = (1 << len(p.registers)) - 1
        self.cells = (1 << len(self.keys)) - 1 - self.regs
        self.exit = self.regs | self.cells if exit_fact is None else self.mask(exit_fact)
        self._decoded: dict[int, Fact] = {}

    def mask(self, keys) -> int:
        m, pos = 0, self.pos
        for k in keys:
            if k not in pos:
                pos[k] = len(self.keys)
                self.keys.append(k)
            m |= 1 << pos[k]
        return m

    def decode(self, m: int) -> Fact:
        """The keys of `m`'s set bits, in position order, read off its
        binary digits (lowest first)."""
        if m not in self._decoded:
            keys = self.keys
            self._decoded[m] = frozenset([keys[i] for i, b in enumerate(bin(m)[:1:-1]) if b == "1"])
        return self._decoded[m]

    def transfer(self, i: Instr):
        """The mask before `i` as a function of the mask after it, read off
        its `KINDS` entry (a `#n` address is no register)."""
        if i.__class__ is Exit:
            return lambda fact, exit_fact=self.exit: exit_fact
        k, pos = i.kind, self.pos
        d = u = kill = reads = 0
        for f in k.defs:
            d |= 1 << pos[getattr(i, f)]
        for f in k.uses:
            if (r := getattr(i, f)).__class__ is str:
                u |= 1 << pos[r]
        if access := k.access(i):
            var, adr, is_read = access
            const = adr.__class__ is int
            cell = self.mask([(var, adr)]) if const else self.cells
            reads, kill = (cell, 0) if is_read else (0, cell if const else 0)
        keep = ~(d | kill)
        return lambda fact: fact & keep | u | reads if fact & d else fact & keep | u


def _solve(p: Program, exit_fact: Fact | None):
    """`p`'s `Masks`, each pc's transfer, and the mask after each pc."""
    mk = Masks(p, exit_fact)
    fns = {pc: mk.transfer(i) for pc, i in p.instrs.items()}
    nodes = p.pcs()
    edges = [(pc, s) for pc in nodes for s in p.instrs[pc].successors()]
    exits = [pc for pc in nodes if isinstance(p.instrs[pc], Exit)]
    return mk, fns, dataflow.solve(dataflow.FlowProblem(nodes, edges, lambda pc, fact: fns[pc](fact), mk.exit, exits))


def liveness(p: Program, exit_fact: Fact | None = None) -> dict[Pc, Fact]:
    """Least backward solution; sol[pc] is the fact *after* executing pc."""
    mk, _, sol = _solve(p, exit_fact)
    return {pc: mk.decode(m) for pc, m in sol.items()}


def live_before(p: Program, sol: dict[Pc, Fact], pc: Pc, exit_fact: Fact | None = None) -> Fact:
    """The fact before `pc`, where `sol[pc]` is the fact after it."""
    mk = Masks(p, exit_fact)
    return mk.decode(mk.transfer(p.instrs[pc])(mk.mask(sol[pc])))


def live_before_at(p: Program, exit_fact: Fact | None = None) -> Callable[[Pc], Fact]:
    """`pc` -> the fact before `pc`, read off one solution of `p`: the masks
    after each pc stay encoded, so a call decodes one transfer, where
    `live_before` encodes the whole fact after `pc` again."""
    mk, fns, sol = _solve(p, exit_fact)
    return lambda pc: mk.decode(fns[pc](sol[pc]))


def live_regs(p: Program, exit_fact: Fact) -> tuple[dict[Pc, frozenset], dict[Pc, frozenset]]:
    """The registers live before and after each pc."""
    mk, fns, sol = _solve(p, exit_fact)
    return {pc: mk.decode(fns[pc](m) & mk.regs) for pc, m in sol.items()}, {pc: mk.decode(m & mk.regs) for pc, m in sol.items()}


class DceResult(NamedTuple):
    target: Program
    replaced: dict[Pc, bool]


def dce_transform(p: Program, sol: dict[Pc, Fact]) -> DceResult:
    """Replace writes to dead destinations by nops.

    Exactly four cases change: assigns and loads whose destination register
    is dead after the instruction, and const-addressed stores whose cell is
    dead.  Successors are preserved.
    """
    instrs: dict[Pc, Instr] = {}
    replaced: dict[Pc, bool] = {}
    for pc in p.pcs():
        i = p.instrs[pc]
        new = i
        match i:
            case Asgn(dst=d, succ=s) if d not in sol[pc]:
                new = Nop(s)
            case Load(dst=d, succ=s) if d not in sol[pc]:
                new = Nop(s)
            case Store(var=v, addr=int(adr), succ=s) if (v, adr) not in sol[pc]:
                new = Nop(s)
        instrs[pc] = new
        replaced[pc] = new is not i
    t = Program(p.entry, instrs, list(p.memvars))
    return DceResult(t, replaced)
