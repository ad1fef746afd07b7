"""Differential tests of the incremental repair session.

The reference is the from-scratch repair loop: every round runs a fresh
`poison_analysis`, then `check_poison_typable`, then `validate_ra`.  The
reference analysis below solves the same flow problem with plain dict-valued
poison types, so the packed encoding of `poison_analysis` is checked too.
"""

import copy
import random
from collections import deque

import pytest

from snicheck.ir import Asgn, If, Load, Move, Program, Sfence, Slh, Store, parse_program, print_program
from snicheck.poison import (
    BOT,
    FixInsertion,
    FixReport,
    H,
    P,
    W,
    Product,
    RepairSession,
    _redirect,
    check_poison_typable,
    fix_ra,
    poison_analysis,
    poison_domain,
    prod_graph,
)
from snicheck.regalloc import (
    AllocationInfeasible,
    RAWitness,
    allocate,
    analyze_structure,
    is_slot,
    rho_live,
    serialize_ra_witness,
    validate_ra,
)

from conftest import load_program, pt_const, pt_join, pv_join, random_program


def _reference_transfer(w, rho, domain):
    bottom = pt_const(domain, BOT)

    def matched(i, pt):
        out = dict(pt)
        match i:
            case Asgn(dst=d, lhs=a, rhs=b):
                out[d] = H if (pt[a] == H and pt[b] == H) else P
            case Load(dst=d, var=x, addr=adr):
                out[d] = pt[(x, adr)] if isinstance(adr, int) else P
            case Store(var=x, addr=int(adr), src=c):
                out[(x, adr)] = pt[c]
            case Store(var=x, src=c):
                for k in domain:
                    out[k] = P if isinstance(k, str) or k[0] == x else pv_join(pt[k], pt[c])
            case If(cond=c):
                return out if pt[c] == H else pt_const(domain, P)
            case Sfence():
                return pt_const(domain, H)
            case Slh(reg=r):
                out[r] = H
            case Move(dst=d, src=s):
                out[d] = pt[s]
        return out

    def shuffle(t_pc, i, pt):
        match i:
            case Sfence():
                return pt_const(domain, H)
            case Slh(reg=a):
                owner = sorted(r for r, loc in rho.get(t_pc, {}).items() if loc == a)
                if owner:
                    return {**pt, owner[0]: W}
        return dict(pt)

    def transfer(node, pt):
        if pt == bottom:
            return bottom
        s_pc, t_pc = node
        if w.phi.get(s_pc) == t_pc:
            return matched(w.source.instrs[s_pc], pt)
        return shuffle(t_pc, w.target.instrs[t_pc], pt)

    return transfer


def reference_assignment(w):
    """The poison analysis with dict-valued types and per-call transfers,
    solved from scratch by a FIFO worklist over the whole product graph:
    every node starts queued, and a node is queued again when its type
    grows."""
    st = analyze_structure(w)
    rho = rho_live(w, st)
    domain = poison_domain(w)
    succ, _ = prod_graph(w, st)
    transfer = _reference_transfer(w, rho, domain)
    pt = {n: pt_const(domain, BOT) for n in succ}
    pt[(w.source.entry, w.target.entry)] = pt_const(domain, H)
    work, queued = deque(succ), set(succ)
    while work:
        u = work.popleft()
        queued.discard(u)
        out = transfer(u, pt[u])
        for v in succ[u]:
            joined = pt_join(pt[v], out)
            if joined != pt[v]:
                pt[v] = joined
                if v not in queued:
                    queued.add(v)
                    work.append(v)
    return pt


def reference_fix(w, width=8):
    """The from-scratch repair loop; returns its result and every round's
    (witness, static poison, violations)."""
    report = FixReport()
    rounds = []
    cur = w
    cap = 2 * len(w.target.instrs) * max(1, len(w.source.registers)) + 1
    counter = 0
    prev_key = None
    for it in range(cap):
        sp = poison_analysis(cur, width)
        violations = check_poison_typable(cur, sp)
        rounds.append((cur, sp, violations))
        report.iterations = it
        if not violations:
            return cur, report, rounds
        v = violations[0]
        keys = {(x.src_pc, x.tgt_pc, x.reg, x.kind) for x in violations}
        escalate = prev_key in keys
        if escalate:
            v = next(x for x in violations if (x.src_pc, x.tgt_pc, x.reg, x.kind) == prev_key)
        prev_key = (v.src_pc, v.tgt_pc, v.reg, v.kind)
        while f"fx{counter}" in cur.target.instrs:
            counter += 1
        fresh = f"fx{counter}"
        if v.kind == "branch" or escalate:
            new_instr, kind = Sfence(v.tgt_pc), "sfence"
        else:
            hw = cur.rho[v.tgt_pc][v.reg]
            assert not is_slot(hw)
            new_instr, kind = Slh(hw, v.tgt_pc), "slh"
        instrs = {pc: _redirect(i, v.tgt_pc, fresh) for pc, i in cur.target.instrs.items()}
        instrs[fresh] = new_instr
        rho = {pc: dict(m) for pc, m in cur.rho.items()}
        rho[fresh] = dict(cur.rho.get(v.tgt_pc, {}))
        target = Program(cur.target.entry, instrs, list(cur.target.memvars))
        cur = RAWitness(cur.source, target, dict(cur.phi), rho)
        report.insertions.append(FixInsertion(fresh, kind, v.tgt_pc, v))
        bad = validate_ra(cur)
        assert not bad, f"reference splice produced an invalid witness: {bad[0]}"
    raise AssertionError("reference fix hit its iteration cap")


def _text(w):
    return print_program(w.target), serialize_ra_witness(w)


def check_session_against_reference(w):
    ref_fixed, ref_report, rounds = reference_fix(w)
    session = RepairSession(w)
    for idx, (cur, sp, violations) in enumerate(rounds):
        now = session.witness()
        assert _text(now) == _text(cur)
        assert session.static_poison().assignment == sp.assignment == reference_assignment(cur)
        assert session.violations == violations
        assert validate_ra(now) == []
        ins = session.repair_one()
        if idx + 1 < len(rounds):
            assert ins == ref_report.insertions[idx]
        else:
            assert ins is None
    fixed, report = fix_ra(w)
    assert _text(fixed) == _text(ref_fixed)
    assert report == ref_report
    return len(report.insertions)


def _allocated(rng, count, sizes, regs):
    out = []
    while len(out) < count:
        p = random_program(rng, n_instrs=rng.randint(*sizes), n_regs=rng.randint(*regs))
        try:
            out.append(allocate(p, rng.choice((2, 3))))
        except AllocationInfeasible:
            continue
    return out


@pytest.mark.parametrize("seed, count, sizes, regs", [(2407, 150, (3, 9), (3, 3)), (15080, 100, (3, 14), (2, 4))])
def test_session_matches_reference_on_small_random_programs(seed, count, sizes, regs):
    inserted = 0
    for w in _allocated(random.Random(seed), count, sizes, regs):
        inserted += check_session_against_reference(w)
    assert inserted > 10


def test_session_matches_reference_on_larger_allocations():
    inserted = 0
    for seed, n in ((1, 40), (2, 56), (3, 64), (4, 80)):
        p = random_program(random.Random(seed * 1000 + n), n, 6)
        inserted += check_session_against_reference(allocate(p, 3))
    assert inserted >= 8


def test_session_matches_reference_on_corpus_witnesses(ra_witness):
    assert check_session_against_reference(ra_witness) == 1
    check_session_against_reference(allocate(load_program("code_ra_source.sp"), 3))


def test_session_leaves_its_product_unchanged(ra_witness):
    """A session reads the structure and live relocations of the `Product`
    it is given and splices only into its own copies, so a caller that
    shares the product (`simulation.ra_witness`) keeps the relation it
    built."""
    spliced = 0
    for w in [ra_witness, *_allocated(random.Random(3407), 40, (4, 12), (3, 4))]:
        prod = Product(w)
        before = copy.deepcopy((prod.st.owner, prod.st.chains, prod.rho))
        session = RepairSession(w, prod)
        while session.repair_one() is not None:
            spliced += 1
        assert (prod.st.owner, prod.st.chains, prod.rho) == before
    assert spliced > 10


def _without_bufsize_at_z(w):
    """`w` with `bufsize`, live before source pc 0, dropped from `rho z`."""
    rho = {pc: dict(m) for pc, m in w.rho.items()}
    del rho["z"]["bufsize"]
    return RAWitness(w.source, w.target, dict(w.phi), rho)


def test_fix_still_rejects_an_invalid_result(ra_witness):
    """Validation runs once, on the input, and still catches a witness that
    breaks a condition the analysis does not read."""
    broken = _without_bufsize_at_z(ra_witness)
    assert [d.kind for d in validate_ra(broken)] == ["obeying-liveness"]
    with pytest.raises(ValueError, match="invalid witness: .*bufsize unmapped"):
        fix_ra(broken)


def test_every_ra_analysis_refuses_an_invalid_witness(ra_witness):
    """Each analysis of an RA witness builds a `Product`, which refuses a
    witness that `validate_ra` refuses, so none of them types, repairs or
    simulates one."""
    from snicheck.simulation import ra_witness as simulation_witness

    broken = _without_bufsize_at_z(ra_witness)
    for build in (poison_analysis, RepairSession, fix_ra, simulation_witness):
        with pytest.raises(ValueError, match="invalid witness: .*bufsize unmapped"):
            build(broken)


def test_fix_rejects_an_unmapped_slh_register():
    """The register that needs an slh has no location at its target pc: fix
    reports the witness diagnostic instead of failing on the lookup."""
    rng = random.Random(640)
    for w in _allocated(rng, 200, (4, 12), (3, 4)):
        _, report = fix_ra(w)
        if report.insertions and report.insertions[0].kind == "slh":
            break
    else:
        pytest.fail("no random allocation needed an slh")
    v = report.insertions[0].violation
    rho = {pc: dict(m) for pc, m in w.rho.items()}
    del rho[v.tgt_pc][v.reg]
    broken = RAWitness(w.source, w.target, dict(w.phi), rho)
    assert validate_ra(broken)
    with pytest.raises(ValueError, match=f"invalid witness: .*{v.reg} unmapped"):
        fix_ra(broken)


def _straight_line(n):
    """n instructions of straight-line code over five registers, with loads
    and stores through registers: `allocate(_, 3)` spills, and nearly every
    access through a spilled register needs a fence."""
    from snicheck import ir

    regs = ["a", "b", "c", "d", "e"]
    instrs = {}
    for k in range(n - 1):
        r1, r2, r3 = regs[k % 5], regs[(k + 1) % 5], regs[(k + 3) % 5]
        succ = str(k + 1)
        instrs[str(k)] = [Asgn(r1, r2, "add", r3, succ), Load(r1, "m", r2, succ), Store("m", r3, r2, succ)][k % 3]
    instrs[str(n - 1)] = ir.Exit()
    return Program("0", instrs, [ir.MemVar("m", 4, "low")])


def _on_cycle(w, node):
    """Whether product node `node` of witness `w` lies on a cycle."""
    succ, _ = prod_graph(w, analyze_structure(w))
    seen, todo = set(), list(succ[node])
    while todo:
        n = todo.pop()
        if n == node:
            return True
        if n not in seen:
            seen.add(n)
            todo.extend(succ[n])
    return False


def test_session_matches_reference_where_splices_land_in_loops():
    """Splices inside a loop join its strongly connected component, which is
    then solved again from bottom: an slh turns its owner from H to W, so
    the values of the old solution are no lower bound."""
    in_loop = set()
    for w in _allocated(random.Random(7731), 400, (6, 16), (3, 5)):
        fixed, report = fix_ra(w)
        kinds = {ins.kind for ins in report.insertions if _on_cycle(fixed, (ins.violation.src_pc, ins.pc))}
        if kinds:
            check_session_against_reference(w)
            in_loop |= {(kind, len(report.insertions) > 1) for kind in kinds}
    assert in_loop == {("slh", False), ("slh", True), ("sfence", False), ("sfence", True)}


def test_session_matches_reference_on_long_straight_line_code():
    assert check_session_against_reference(allocate(_straight_line(160), 3)) == 104


def _counted_session(monkeypatch, w):
    """A repair session on `w` whose transfers, from construction on, each
    append to the returned list when they run."""
    from snicheck import poison

    calls = []
    compiled = poison._Packing.transfer

    def transfer(self, i, rho_at):
        fn = compiled(self, i, rho_at)

        def counted(x):
            calls.append(None)
            return fn(x)

        return counted

    monkeypatch.setattr(poison._Packing, "transfer", transfer)
    return RepairSession(w), calls


def test_construction_work_is_bounded_on_straight_line_code(monkeypatch):
    """The first solve is the incremental one with every SCC dirty: on this
    chain it runs about one transfer per product node, never a number that
    grows with the product of nodes and rounds."""
    session, calls = _counted_session(monkeypatch, allocate(_straight_line(800), 3))
    assert len(session.values) > 1600
    assert len(calls) <= 2 * len(session.values)


def test_splice_work_is_bounded_on_straight_line_code(monkeypatch):
    """A splice re-solves only what it changes: on this chain each runs at
    most a handful of node transfers, where solving the whole product graph
    again runs about one per node (thousands here)."""
    session, calls = _counted_session(monkeypatch, allocate(_straight_line(800), 3))
    per_splice = []
    while True:
        calls.clear()
        if session.repair_one() is None:
            break
        per_splice.append(len(calls))
    assert len(session.values) > 1600 and len(per_splice) == 530
    assert max(per_splice) <= 100


@pytest.mark.parametrize("branch", ["if a ? 2 : 2", "if a ? 1 : 2"])
def test_unreachable_nodes_stay_bottom(branch):
    """Pc 1 is unreachable, so its product node stays bottom and must pass
    nothing on: the transfer of its branch on `a` would make every key P at
    pc 2, and `fix` would then guard the load through `b` there.  The
    second branch loops on itself, so its node is solved as a cyclic SCC."""
    p = parse_program(
        "mem buf 4 low\nentry 0\n"
        "0: load b <- buf[#0] -> 2\n"
        f"1: {branch}\n"
        "2: load c <- buf[b] -> 3\n"
        "3: ret\n"
    )
    w = allocate(p, 3)
    sp = RepairSession(w).static_poison()
    assert set(sp.assignment[("1", "1")].values()) == {BOT}
    assert sp.assignment == reference_assignment(w)
    assert check_poison_typable(w, sp) == []
    assert fix_ra(w)[1].insertions == []
