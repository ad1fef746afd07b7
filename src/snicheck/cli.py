"""Command-line driver.

Exit codes: 0 pass/secure, 1 violation or failed check, 2 inconclusive
(bounds were hit before the search finished), 3 usage or parse error, an
unreadable input file, or a check that could not finish (for example `fix`
hitting its iteration cap).
JSON output carries `schema: 1` and is byte-stable for a fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import poison, regalloc, security, simulation
from .ir import ParseError, Program, parse_program, print_program
from .liveness import cells_fact, dce_transform, full_fact, liveness
from .semantics import (
    Bounds,
    DEFAULT_WIDTH,
    explore_behaviors,
    format_trace,
    initial,
    parse_directives,
    parse_initial_state,
    run_directives,
)

SCHEMA = 1

CORPUS = Path(__file__).parent / "corpus"


def corpus_path(name: str) -> Path:
    return CORPUS / name


def _parse_bounds(spec: str) -> Bounds:
    steps, depth = 32, 3
    for part in spec.split(","):
        k, _, v = part.partition("=")
        if k == "steps":
            steps = int(v)
        elif k == "depth":
            depth = int(v)
        else:
            raise ValueError(f"bad bounds component {part!r}")
    return Bounds(steps, depth)


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def pair_count(text: str) -> int | None:
    """`--pairs`: None for `exhaustive`, n for `random:<n>` with n >= 1."""
    if text == "exhaustive":
        return None
    kind, _, n = text.partition(":")
    if kind != "random" or not n.isdecimal() or int(n) < 1:
        raise argparse.ArgumentTypeError(f"expected exhaustive or random:<n> with n >= 1, got {text!r}")
    return int(n)


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps({"schema": SCHEMA, **payload}, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load_program(path: str) -> Program:
    return parse_program(Path(path).read_text())


def _load_state(path: str, p: Program, width: int):
    return parse_initial_state(Path(path).read_text(), p, width)


def _initial_state(args, p: Program):
    """The `--state` file read against `p`, or the all-zero state without one."""
    return _load_state(args.state, p, args.width) if args.state else initial(p)


def _witness(args):
    src = _load_program(args.source)
    tgt = _load_program(args.target)
    return regalloc.parse_ra_witness(Path(args.witness).read_text(), src, tgt)


def cmd_run(args) -> int:
    p = _load_program(args.program)
    nu0 = _initial_state(args, p)
    dirs = parse_directives(Path(args.directives).read_text(), p) if args.directives else []
    ex = run_directives(p, nu0, dirs, args.width)
    payload = {
        "command": "run",
        "status": ex.status,
        "stuck_index": ex.stuck_index,
        "leaks": [str(l) for l in ex.leaks],
    }
    _emit(args, payload, format_trace(ex) or "(no steps)\n")
    return 0 if ex.status in ("completed", "final") else 1


def cmd_explore(args) -> int:
    p = _load_program(args.program)
    nu0 = _initial_state(args, p)
    bs = explore_behaviors(p, nu0, args.bounds, args.width)
    fmt = lambda tr: {"leaks": [str(l) for l in tr[0]], "directives": [str(d) for d in tr[1]]}
    payload = {
        "command": "explore",
        "terminated": sorted((fmt(t) for t in bs.terminated), key=str),
        "truncated_count": len(bs.truncated),
    }
    text = [f"terminated behaviours: {len(bs.terminated)}"]
    for leaks, dirs in sorted(bs.terminated, key=str):
        text.append("  " + " ; ".join(str(d) for d in dirs) + " | " + " ; ".join(str(l) for l in leaks))
    text.append(f"truncated behaviours: {len(bs.truncated)}")
    _emit(args, payload, "\n".join(text) + "\n")
    return 2 if bs.truncated else 0


def cmd_check_safe(args) -> int:
    p = _load_program(args.program)
    nu0 = _initial_state(args, p)
    r = security.check_safety(p, nu0[0], args.bounds.max_steps, args.width)
    _emit(args, {"command": "check-safe", "status": r.status, "step": r.step_index}, f"{r.status}\n")
    return {"safe": 0, "unsafe": 1, "bound-exhausted": 2}[r.status]


def _sni_exit(v) -> int:
    if not v.secure:
        return 1
    return 2 if v.truncated else 0


def cmd_check_sni(args) -> int:
    p = _load_program(args.program)
    base = _initial_state(args, p)
    if args.state2:
        other = _load_state(args.state2, p, args.width)
        src = security.PairSource("file", pairs=[(base, other)])
    elif args.pairs is not None:
        src = security.PairSource("sampled", count=args.pairs, seed=args.seed)
    else:
        # a certified program counts C(2**bits, 2) pairs, which must print
        cells, limit = len(security.high_cells(p)), sys.get_int_max_str_digits()
        bits = cells * args.width
        if limit and (2 * bits - 1) * math.log10(2) >= limit:
            raise ValueError(f"{cells} high cells at width {args.width} are {bits} bits, and C(2**{bits}, 2) pairs "
                             f"would print more than {limit} digits (sys.get_int_max_str_digits())")
        src = security.PairSource("exhaustive")
    v = security.check_sni(p, base, src, args.bounds, args.width)
    text = f"{v.kind} (pairs={v.pairs_checked}, truncated={v.truncated})\n"
    if not v.secure:
        text += "directives: " + " ; ".join(str(d) for d in v.directives) + "\n"
        if v.divergence == "leak":
            text += f"diverging leak: {v.leak1} vs {v.leak2}\n"
        else:
            text += "diverging enabled sets\n"
    _emit(args, {"command": "check-sni", **v.report(p, args.width)}, text)
    return _sni_exit(v)


def cmd_dce(args) -> int:
    p = _load_program(args.program)
    sol = liveness(p)
    res = dce_transform(p, sol)
    out_text = print_program(res.target)
    if args.out:
        Path(args.out).write_text(out_text)
    mapping = {pc: ("replaced" if res.replaced[pc] else "unchanged") for pc in p.pcs()}
    if args.map_out:
        Path(args.map_out).write_text("".join(f"{pc} {v}\n" for pc, v in mapping.items()))
    _emit(args, {"command": "dce", "program": out_text, "map": mapping}, out_text)
    return 0


def cmd_liveness(args) -> int:
    p = _load_program(args.program)
    ef = cells_fact(p) if args.exit_fact == "cells" else full_fact(p)
    sol = liveness(p, ef)
    fmt_item = lambda it: it if isinstance(it, str) else f"{it[0]}[{it[1]}]"
    payload = {"command": "liveness", "after": {pc: sorted(fmt_item(i) for i in sol[pc]) for pc in p.pcs()}}
    text = "\n".join(f"{pc}: {' '.join(sorted(fmt_item(i) for i in sol[pc]))}" for pc in p.pcs())
    _emit(args, payload, text + "\n")
    return 0


def cmd_allocate(args) -> int:
    p = _load_program(args.program)
    w = regalloc.allocate(p, args.k)
    target, witness = print_program(w.target), regalloc.serialize_ra_witness(w)
    if args.out_target:
        Path(args.out_target).write_text(target)
    if args.out_witness:
        Path(args.out_witness).write_text(witness)
    _emit(args, {"command": "allocate", "target": target, "witness": witness}, target)
    return 0


def cmd_validate_ra(args) -> int:
    w = _witness(args)
    diags = regalloc.validate_ra(w)
    payload = {"command": "validate-ra", "diagnostics": [str(d) for d in diags]}
    _emit(args, payload, ("\n".join(str(d) for d in diags) + "\n") if diags else "witness valid\n")
    return 1 if diags else 0


def cmd_product_run(args) -> int:
    w = _witness(args)
    prod = poison.Product(w, args.width)
    tgt0 = _initial_state(args, w.target)[0]
    ps = prod.initial_product(tgt0)
    dirs = parse_directives(Path(args.directives).read_text(), w.target) if args.directives else []
    lines = []
    stuck_at = None
    for idx, d in enumerate(dirs):
        tr = prod.replay_target_step(ps, d)
        if tr is None:
            stuck_at = idx
            break
        src_part = f"{tr.src_dir} / {tr.src_leak}" if tr.src_dir is not None else "(wait)"
        lines.append(f"{tr.tgt_dir} / {tr.tgt_leak} || {src_part} [{tr.rule}]")
        ps = tr.end
    payload = {"command": "product-run", "steps": lines, "stuck_index": stuck_at}
    text = "\n".join(lines)
    if stuck_at is not None:
        text += f"\nproduct stuck at step {stuck_at} ({dirs[stuck_at]})"
    _emit(args, payload, text + "\n")
    return 0 if stuck_at is None else 1


def cmd_poison_analyze(args) -> int:
    w = _witness(args)
    sp = poison.poison_analysis(w, args.width)
    table = poison.format_poison_table(sp)
    payload = {
        "command": "poison-analyze",
        "table": {
            f"{n[0]},{n[1]}": {
                (k if isinstance(k, str) else f"{k[0]}[{k[1]}]"): poison.PV_NAMES[sp.assignment[n][k]]
                for k in sp.domain
            }
            for n in sp.values
        },
    }
    _emit(args, payload, table)
    return 0


def cmd_check_typable(args) -> int:
    w = _witness(args)
    sp = poison.poison_analysis(w, args.width)
    violations = poison.check_poison_typable(w, sp)
    payload = {"command": "check-typable", "violations": [str(v) for v in violations]}
    _emit(args, payload, ("\n".join(str(v) for v in violations) + "\n") if violations else "poison-typable\n")
    return 1 if violations else 0


def cmd_fix(args) -> int:
    w = _witness(args)
    fixed, report = poison.fix_ra(w, args.width)
    if args.out_target:
        Path(args.out_target).write_text(print_program(fixed.target))
    if args.out_witness:
        Path(args.out_witness).write_text(regalloc.serialize_ra_witness(fixed))
    ins = [{"pc": i.pc, "kind": i.kind, "before": i.before, "violation": str(i.violation)} for i in report.insertions]
    text = "\n".join(f"inserted {i.kind} at {i.pc} before {i.before} ({i.violation})" for i in report.insertions)
    _emit(args, {"command": "fix", "insertions": ins, "iterations": report.iterations}, (text or "already typable") + "\n")
    return 0


def _sim_witness(args, width: int):
    if args.witness_kind == "dce":
        p = _load_program(args.source)
        res = dce_transform(p, liveness(p))
        return simulation.dce_witness(p, res, width)
    if not args.target or not args.witness:
        raise ValueError("--witness-kind ra requires --target and --witness")
    w = _witness(args)
    return simulation.ra_witness(w, width)


def cmd_check_sim(args) -> int:
    wit = _sim_witness(args, args.width)
    t0 = _initial_state(args, wit.target)[0]
    v = simulation.check_simulation(wit, [t0], args.bounds)
    _emit(args, {"command": "check-sim", **v.report()}, f"{v.status} (intervals={v.intervals_checked}, truncated={v.truncated})\n" + (v.reason + "\n" if v.reason else ""))
    return 0 if v.ok and not v.truncated else (2 if v.ok else 1)


def cmd_check_snippy(args) -> int:
    wit = _sim_witness(args, args.width)
    base = _initial_state(args, wit.target)[0]
    states = [s[0] for s in security.enumerate_high_states(wit.target, (base,), args.width)]
    v = simulation.check_snippy_cube(wit, states, args.bounds)
    text = f"{v.status} (intervals={v.intervals_checked}, truncated={v.truncated})\n"
    if not v.ok:
        text += v.reason + "\n"
    _emit(args, {"command": "check-snippy", **v.report()}, text)
    return 0 if v.ok and not v.truncated else (2 if v.ok else 1)


def cmd_demo_codera(args) -> int:
    """One-shot reproduction: attack, analysis, fix, and re-check."""
    width = 8
    bounds = Bounds(32, 3)
    src = parse_program(corpus_path("code_ra_source.sp").read_text())
    tgt = parse_program(corpus_path("code_ra_target.sp").read_text())
    w = regalloc.parse_ra_witness(corpus_path("code_ra.witness").read_text(), src, tgt)
    base_t = parse_initial_state(corpus_path("code_ra.init").read_text(), tgt, width)
    alt_t = parse_initial_state(corpus_path("code_ra_alt.init").read_text(), tgt, width)
    base_s = parse_initial_state(corpus_path("code_ra.init").read_text(), src, width)
    alt_s = parse_initial_state(corpus_path("code_ra_alt.init").read_text(), src, width)

    out = []
    ok = True

    v_src = security.check_sni(src, base_s, security.PairSource("file", pairs=[(base_s, alt_s)]), bounds, width)
    out.append(f"source verdict: {v_src.kind}")
    ok &= v_src.secure

    v_tgt = security.check_sni(tgt, base_t, security.PairSource("file", pairs=[(base_t, alt_t)]), bounds, width)
    out.append(f"target verdict: {v_tgt.kind}")
    ok &= not v_tgt.secure
    if not v_tgt.secure:
        out.append("attack directives: " + " ; ".join(str(d) for d in v_tgt.directives))
        out.append(f"diverging leak: {v_tgt.leak1} vs {v_tgt.leak2}")

    sp = poison.poison_analysis(w, width)
    violations = poison.check_poison_typable(w, sp)
    for v in violations:
        out.append(f"poison violation: {v}")
    ok &= len(violations) == 1

    fixed, report = poison.fix_ra(w, width)
    for i in report.insertions:
        out.append(f"inserted {i.kind} at {i.pc} before {i.before}")
    ok &= len(report.insertions) == 1

    fixed_base = parse_initial_state(corpus_path("code_ra.init").read_text(), fixed.target, width)
    fixed_alt = parse_initial_state(corpus_path("code_ra_alt.init").read_text(), fixed.target, width)
    v_fixed = security.check_sni(
        fixed.target, fixed_base, security.PairSource("file", pairs=[(fixed_base, fixed_alt)]), bounds, width
    )
    out.append(f"fixed target verdict: {v_fixed.kind}")
    ok &= v_fixed.secure

    payload = {
        "command": "demo-codera",
        "ok": ok,
        "log": out,
        "source": v_src.report(),
        "target": v_tgt.report(),
        "fixed": v_fixed.report(),
        "violations": [str(v) for v in violations],
    }
    _emit(args, payload, "\n".join(out) + "\n")
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: building it costs far more than a
    `parse_args` call, and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(prog="snicheck", description="speculative non-interference toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(sp, state=True):
        sp.add_argument("--bounds", type=_parse_bounds, default=Bounds(32, 3), help="steps=<n>,depth=<n>")
        sp.add_argument("--width", type=positive_int, default=DEFAULT_WIDTH)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("text", "json"), default="text")
        if state:
            sp.add_argument("--state", help="initial-state file")

    sp = sub.add_parser("run")
    sp.add_argument("program")
    sp.add_argument("--directives")
    common(sp)
    sp.set_defaults(fn=cmd_run)

    sp = sub.add_parser("explore")
    sp.add_argument("program")
    common(sp)
    sp.set_defaults(fn=cmd_explore)

    sp = sub.add_parser("check-safe")
    sp.add_argument("program")
    common(sp)
    sp.set_defaults(fn=cmd_check_safe)

    sp = sub.add_parser("check-sni")
    sp.add_argument("program")
    pair_source = sp.add_mutually_exclusive_group()
    pair_source.add_argument("--state2", help="second initial-state file (explicit pair)")
    pair_source.add_argument("--pairs", type=pair_count, default="exhaustive", help="exhaustive | random:<n>, n >= 1")
    common(sp)
    sp.set_defaults(fn=cmd_check_sni)

    sp = sub.add_parser("dce")
    sp.add_argument("program")
    sp.add_argument("--out")
    sp.add_argument("--map-out")
    common(sp, state=False)
    sp.set_defaults(fn=cmd_dce)

    sp = sub.add_parser("liveness")
    sp.add_argument("program")
    sp.add_argument("--exit-fact", choices=("full", "cells"), default="full")
    common(sp, state=False)
    sp.set_defaults(fn=cmd_liveness)

    sp = sub.add_parser("allocate")
    sp.add_argument("program")
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--out-target")
    sp.add_argument("--out-witness")
    common(sp, state=False)
    sp.set_defaults(fn=cmd_allocate)

    for name, fn, extra in (
        ("validate-ra", cmd_validate_ra, ()),
        ("product-run", cmd_product_run, ("--state", "--directives")),
        ("poison-analyze", cmd_poison_analyze, ()),
        ("check-typable", cmd_check_typable, ()),
        ("fix", cmd_fix, ("--out-target", "--out-witness")),
    ):
        sp = sub.add_parser(name)
        sp.add_argument("--source", required=True)
        sp.add_argument("--target", required=True)
        sp.add_argument("--witness", required=True)
        for opt in extra:
            sp.add_argument(opt)
        common(sp, state=False)
        sp.set_defaults(fn=fn)

    for name, fn in (("check-sim", cmd_check_sim), ("check-snippy", cmd_check_snippy)):
        sp = sub.add_parser(name)
        sp.add_argument("--witness-kind", choices=("dce", "ra"), required=True)
        sp.add_argument("--source", required=True)
        sp.add_argument("--target")
        sp.add_argument("--witness")
        common(sp)
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("demo-codera")
    common(sp, state=False)
    sp.set_defaults(fn=cmd_demo_codera)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 3 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ParseError, ValueError, OSError, RuntimeError) as e:
        # OSError covers unreadable inputs (missing files, directories);
        # RuntimeError covers fix_ra giving up and RecursionError on deep inputs
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
