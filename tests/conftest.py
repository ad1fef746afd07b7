import random
from dataclasses import dataclass

import pytest

from snicheck.cli import corpus_path
from snicheck.ir import parse_program
from snicheck.semantics import parse_initial_state


def load_program(name: str):
    return parse_program(corpus_path(name).read_text())


def load_state(name: str, prog, width=8):
    return parse_initial_state(corpus_path(name).read_text(), prog, width)


@pytest.fixture
def ra_source():
    return load_program("code_ra_source.sp")


@pytest.fixture
def ra_target():
    return load_program("code_ra_target.sp")


@pytest.fixture
def ra_witness(ra_source, ra_target):
    from snicheck.regalloc import parse_ra_witness

    return parse_ra_witness(corpus_path("code_ra.witness").read_text(), ra_source, ra_target)


@pytest.fixture
def dce_source():
    return load_program("code_dce_source.sp")


@pytest.fixture
def rng():
    return random.Random(20240817)


# --- random generators shared across property tests ---------------------------


def random_program(rng: random.Random, n_instrs=6, n_regs=3, allow_shuffle=False):
    """Small valid program over a couple of memory variables."""
    from snicheck import ir

    regs = [f"r{i}" for i in range(n_regs)]
    memvars = [ir.MemVar("lo", rng.randint(1, 3), "low"), ir.MemVar("hi", 1, "high")]
    pcs = [str(i) for i in range(n_instrs)]
    instrs = {}
    for idx, pc in enumerate(pcs[:-1]):
        succ = pcs[idx + 1]
        other = rng.choice(pcs)
        kind = rng.randrange(8 if not allow_shuffle else 10)
        r = lambda: rng.choice(regs)
        var = rng.choice(memvars).name
        size = next(v.size for v in memvars if v.name == var)
        if kind == 0:
            instrs[pc] = ir.Nop(succ)
        elif kind in (1, 2):
            instrs[pc] = ir.Asgn(r(), r(), rng.choice(ir.OPS), r(), succ)
        elif kind == 3:
            addr = rng.randrange(size) if rng.random() < 0.4 else r()
            instrs[pc] = ir.Load(r(), var, addr, succ)
        elif kind == 4:
            addr = rng.randrange(size) if rng.random() < 0.4 else r()
            instrs[pc] = ir.Store(var, addr, r(), succ)
        elif kind == 5:
            instrs[pc] = ir.If(r(), succ, other)
        elif kind == 6:
            instrs[pc] = ir.Sfence(succ)
        elif kind == 7:
            instrs[pc] = ir.Slh(r(), succ)
        elif kind == 8:
            instrs[pc] = ir.Move(r(), r(), succ)
        else:
            instrs[pc] = ir.Nop(succ)
    instrs[pcs[-1]] = ir.Exit()
    p = ir.Program(pcs[0], instrs, memvars)
    assert not ir.validate_program(p)
    return p


def random_state(rng: random.Random, p, width=8):
    from snicheck.semantics import State

    regs = {x: rng.randrange(1 << width) for x in p.registers}
    mem = {c: rng.randrange(1 << width) for c in p.cells()}
    return (State.make(p.entry, regs, mem),)


def random_walk(rng: random.Random, p, nu, steps, width=8):
    """Random enabled-directive walk; returns the list of (d, leak, state)."""
    from snicheck.semantics import enabled_directives, step_spec

    out = []
    for _ in range(steps):
        en = enabled_directives(p, nu, width)
        if not en:
            break
        d = rng.choice(en)
        nu, leak = step_spec(p, nu, d, width)
        out.append((d, leak, nu))
    return out


# --- oracles: orders and checks that only tests use -------------------------


def pv_leq(a: int, b: int) -> bool:
    """Poison value order: inclusion of the bit sets H = 0b01, W = 0b10, P = 0b11."""
    return a | b == b


def pv_join(a: int, b: int) -> int:
    return a | b


def pt_leq(a: dict, b: dict) -> bool:
    """Pointwise order on unpacked poison types."""
    return all(pv_leq(a[k], b[k]) for k in a)


def pt_join(a: dict, b: dict) -> dict:
    return {k: v | b[k] for k, v in a.items()}


def same_point(nu1, nu2) -> bool:
    """Two speculative states at the same pc on every frame."""
    return len(nu1) == len(nu2) and all(a.pc == b.pc for a, b in zip(nu1, nu2))


@dataclass(frozen=True)
class ConstraintViolation:
    node: object
    value: object
    bound: object


def check_constraints(sol: dict, constraints: list, lat) -> list[ConstraintViolation]:
    """Constraints f(node) <= bound, under `lat.leq`, that the solution fails."""
    return [ConstraintViolation(n, sol[n], b) for n, b in constraints if not lat.leq(sol[n], b)]
