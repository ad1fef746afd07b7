"""Backward liveness over registers and memory cells, and dead code removal.

Flow facts are sets mixing registers and (var, offset) cells.  The exit fact
is a parameter: security-facing runs keep the default (all registers and all
cells live at exit); register-allocation-facing runs pass cells only, so
registers die at program end.

One rule covers every instruction but `ret`, read off its `KINDS` entry
(`uses_defs` and `Kind.access`): kill its defs, then add its uses.  A
memory read (`load`, `fill`) adds the cell it reads only when one of its
defs is live, and every memory cell when it reads through a register (the
access may go anywhere once speculation is in play); a write (`store`,
`spill`) through a constant address or slot kills exactly its cell.
Register uses are always added, including for instructions (moves too)
whose destination is dead: the register allocator places every use.
Removal decisions depend only on destination liveness, so this does not
change which instructions dead code elimination deletes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dataflow
from .ir import Asgn, Exit, Instr, Load, Nop, Pc, Program, Store, uses_defs

Fact = frozenset  # of Reg | (var, off)


def full_fact(p: Program) -> Fact:
    return frozenset(p.registers) | frozenset(p.cells())


def cells_fact(p: Program) -> Fact:
    return frozenset(p.cells())


def transfer(p: Program, i: Instr, fact: Fact, exit_fact: Fact) -> Fact:
    """The fact before `i` from the fact after it."""
    if isinstance(i, Exit):
        return exit_fact
    uses, defs = uses_defs(i)
    live = not defs.isdisjoint(fact)
    if live:
        fact = fact - defs
    access = i.kind.access(i)
    if access is not None:
        var, adr, reads = access
        if reads:
            if live:
                fact = fact | ({(var, adr)} if isinstance(adr, int) else cells_fact(p))
        elif isinstance(adr, int) and (var, adr) in fact:
            fact = fact - {(var, adr)}
    return fact | uses if uses else fact


def liveness(p: Program, exit_fact: Fact | None = None) -> dict[Pc, Fact]:
    """Least backward solution; sol[pc] is the fact *after* executing pc."""
    ef = full_fact(p) if exit_fact is None else exit_fact
    nodes = p.pcs()
    edges = [(pc, s) for pc in nodes for s in p.instrs[pc].successors()]
    prob = dataflow.FlowProblem(
        nodes=nodes,
        edges=edges,
        direction="backward",
        transfer=lambda pc, fact: transfer(p, p.instrs[pc], fact, ef),
        init=ef,
        init_nodes=[pc for pc in nodes if isinstance(p.instrs[pc], Exit)],
        lattice=dataflow.set_lattice(),
        height_hint=len(p.registers) + len(p.cells()) + 1,
    )
    return dataflow.solve(prob)


def live_before(p: Program, sol: dict[Pc, Fact], pc: Pc, exit_fact: Fact | None = None) -> Fact:
    ef = full_fact(p) if exit_fact is None else exit_fact
    return transfer(p, p.instrs[pc], sol[pc], ef)


def live_regs_before(p: Program, sol: dict[Pc, Fact], exit_fact: Fact) -> dict[Pc, frozenset]:
    """The registers in `live_before` at every pc."""
    return {
        pc: frozenset(r for r in transfer(p, i, sol[pc], exit_fact) if isinstance(r, str))
        for pc, i in p.instrs.items()
    }


@dataclass
class DceResult:
    target: Program
    replaced: dict[Pc, bool] = field(default_factory=dict)
    solution: dict[Pc, Fact] = field(default_factory=dict)


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
    return DceResult(t, replaced, dict(sol))
