"""Backward liveness over registers and memory cells, and dead code removal.

Flow facts are sets mixing registers and (var, offset) cells.  The exit fact
is a parameter: security-facing runs keep the default (all registers and all
cells live at exit); register-allocation-facing runs pass cells only, so
registers die at program end.

Kills: a live assign/load kills its destination; a const-addressed store
kills exactly its cell.  Register-addressed loads make every memory cell
live (the access may go anywhere once speculation is in play).  Register
uses are always added, including for instructions (moves too) whose
destination is dead: the register allocator places every use.  Removal
decisions depend only on destination liveness, so this does not change which
instructions dead code elimination deletes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import dataflow
from .ir import (
    Asgn,
    Exit,
    Fill,
    If,
    Instr,
    Load,
    Move,
    Nop,
    Pc,
    Program,
    Sfence,
    Slh,
    Spill,
    Store,
    STACK_VAR,
)

Fact = frozenset  # of Reg | (var, off)


def full_fact(p: Program) -> Fact:
    return frozenset(p.registers) | frozenset(p.cells())


def cells_fact(p: Program) -> Fact:
    return frozenset(p.cells())


def transfer(p: Program, i: Instr, fact: Fact, exit_fact: Fact) -> Fact:
    match i:
        case Exit():
            return exit_fact
        case Nop() | Sfence():
            return fact
        case Asgn(dst=d, lhs=a, rhs=b):
            base = fact - {d} if d in fact else fact
            return base | {a, b}
        case Load(dst=d, var=v, addr=adr):
            if isinstance(adr, int):
                return (fact - {d}) | {(v, adr)} if d in fact else fact
            base = (fact - {d}) | frozenset(p.cells()) if d in fact else fact
            return base | {adr}
        case Store(var=v, addr=adr, src=c):
            if isinstance(adr, int):
                base = fact - {(v, adr)} if (v, adr) in fact else fact
                return base | {c}
            return fact | {adr, c}
        case If(cond=c):
            return fact | {c}
        case Slh(reg=r):
            return fact | {r}
        case Move(dst=d, src=s):
            return (fact - {d}) | {s}
        case Fill(dst=d, slot=sl):
            return (fact - {d}) | {(STACK_VAR, sl)} if d in fact else fact
        case Spill(slot=sl, src=s):
            base = fact - {(STACK_VAR, sl)} if (STACK_VAR, sl) in fact else fact
            return base | {s}
    return fact


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
