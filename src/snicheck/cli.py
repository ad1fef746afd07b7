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
from .ir import ParseError, Program, loc_text, parse_program, print_program
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
    """`--bounds`: steps=<n>,depth=<n>, either part optional.  The error
    names the bad component or the bound, which argparse prints."""
    bounds = {"steps": 32, "depth": 3}
    for part in spec.split(","):
        k, _, v = part.partition("=")
        try:
            if k not in bounds:
                raise ValueError
            bounds[k] = int(v)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad bounds component {part!r}") from None
    try:
        return Bounds(bounds["steps"], bounds["depth"])
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


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
        print(json.dumps({"schema": SCHEMA, "command": args.cmd, **payload}, sort_keys=True))
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _read(path: str | Path) -> str:
    """The text of an input file, decoded as `Path.read_text` does (the
    locale's encoding, universal newlines) without building a `Path`."""
    with open(path) as f:
        return f.read()


def _write(path: str | Path, text: str) -> None:
    """`text` written to an output file as `Path.write_text` does."""
    with open(path, "w") as f:
        f.write(text)


def _load_program(path: str | Path) -> Program:
    return parse_program(_read(path))


def _load_state(path: str | Path, p: Program, width: int):
    return parse_initial_state(_read(path), p, width)


def _initial_state(args, p: Program):
    """The `--state` file read against `p`, or the all-zero state without one."""
    return _load_state(args.state, p, args.width) if args.state else initial(p)


def _witness(args):
    src = _load_program(args.source)
    tgt = _load_program(args.target)
    return regalloc.parse_ra_witness(_read(args.witness), src, tgt)


def cmd_run(args) -> int:
    p = _load_program(args.program)
    nu0 = _initial_state(args, p)
    dirs = parse_directives(_read(args.directives), p) if args.directives else []
    ex = run_directives(p, nu0, dirs, args.width)
    payload = {
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
    r = security.check_safety(p, nu0[0], args.steps, args.width)
    _emit(args, {"status": r.status, "step": r.step_index}, f"{r.status}\n")
    return {"safe": 0, "unsafe": 1, "bound-exhausted": 2}[r.status]


def _verdict_exit(ok: bool, truncated: int) -> int:
    """0 for a pass, 1 for a failure, 2 for a pass that the bounds cut short."""
    if not ok:
        return 1
    return 2 if truncated else 0


def cmd_check_sni(args) -> int:
    if args.seed is not None and args.pairs is None:
        raise ValueError("--seed is read only with --pairs random:<n>")
    p = _load_program(args.program)
    base = _initial_state(args, p)
    if args.state2:
        other = _load_state(args.state2, p, args.width)
        src = security.PairSource("file", pairs=[(base, other)])
    elif args.pairs is not None:
        src = security.PairSource("sampled", count=args.pairs, seed=args.seed or 0)
    else:
        # a certified program counts C(2**bits, 2) pairs, which must print
        cells, limit = len(security.high_cells(p)), getattr(sys, "get_int_max_str_digits", lambda: 0)()
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
    _emit(args, v.report(p, args.width), text)
    return _verdict_exit(v.secure, v.truncated)


def cmd_dce(args) -> int:
    p = _load_program(args.program)
    sol = liveness(p)
    res = dce_transform(p, sol)
    out_text = print_program(res.target)
    if args.out:
        _write(args.out, out_text)
    mapping = {pc: ("replaced" if res.replaced[pc] else "unchanged") for pc in p.pcs()}
    if args.map_out:
        _write(args.map_out, "".join(f"{pc} {v}\n" for pc, v in mapping.items()))
    _emit(args, {"program": out_text, "map": mapping}, out_text)
    return 0


def cmd_liveness(args) -> int:
    p = _load_program(args.program)
    ef = cells_fact(p) if args.exit_fact == "cells" else full_fact(p)
    sol = liveness(p, ef)
    after = {pc: sorted(map(loc_text, sol[pc])) for pc in p.pcs()}
    _emit(args, {"after": after}, "".join(f"{pc}: {' '.join(locs)}\n" for pc, locs in after.items()))
    return 0


def cmd_allocate(args) -> int:
    p = _load_program(args.program)
    w = regalloc.allocate(p, args.k)
    target, witness = print_program(w.target), regalloc.serialize_ra_witness(w)
    if args.out_target:
        _write(args.out_target, target)
    if args.out_witness:
        _write(args.out_witness, witness)
    _emit(args, {"target": target, "witness": witness}, target)
    return 0


def cmd_validate_ra(args) -> int:
    w = _witness(args)
    diags = regalloc.validate_ra(w)
    payload = {"diagnostics": [str(d) for d in diags]}
    _emit(args, payload, ("\n".join(str(d) for d in diags) + "\n") if diags else "witness valid\n")
    return 1 if diags else 0


def cmd_product_run(args) -> int:
    w = _witness(args)
    prod = poison.Product(w, args.width)
    tgt0 = _initial_state(args, w.target)[0]
    ps = prod.initial_product(tgt0)
    dirs = parse_directives(_read(args.directives), w.target) if args.directives else []
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
    payload = {"steps": lines, "stuck_index": stuck_at}
    text = "\n".join(lines)
    if stuck_at is not None:
        text += f"\nproduct stuck at step {stuck_at} ({dirs[stuck_at]})"
    _emit(args, payload, text + "\n")
    return 0 if stuck_at is None else 1


def cmd_poison_analyze(args) -> int:
    w = _witness(args)
    sp = poison.poison_analysis(w)
    table = {
        f"{n[0]},{n[1]}": {loc_text(k): poison.PV_NAMES[sp.assignment[n][k]] for k in sp.domain} for n in sp.values
    }
    _emit(args, {"table": table}, poison.format_poison_table(sp))
    return 0


def cmd_check_typable(args) -> int:
    w = _witness(args)
    violations = poison.check_poison_typable(w, poison.poison_analysis(w))
    payload = {"violations": [str(v) for v in violations]}
    _emit(args, payload, ("\n".join(str(v) for v in violations) + "\n") if violations else "poison-typable\n")
    return 1 if violations else 0


def cmd_fix(args) -> int:
    w = _witness(args)
    fixed, report = poison.fix_ra(w)
    if args.out_target:
        _write(args.out_target, print_program(fixed.target))
    if args.out_witness:
        _write(args.out_witness, regalloc.serialize_ra_witness(fixed))
    ins = [{"pc": i.pc, "kind": i.kind, "before": i.before, "violation": str(i.violation)} for i in report.insertions]
    text = "\n".join(f"inserted {i.kind} at {i.pc} before {i.before} ({i.violation})" for i in report.insertions)
    _emit(args, {"insertions": ins, "iterations": report.iterations}, (text or "already typable") + "\n")
    return 0


def _sim_witness(args):
    if args.witness_kind == "dce":
        if args.target or args.witness:
            raise ValueError("--target and --witness are read only with --witness-kind ra")
        p = _load_program(args.source)
        return simulation.dce_witness(p, dce_transform(p, liveness(p)), args.width)
    if not args.target or not args.witness:
        raise ValueError("--witness-kind ra requires --target and --witness")
    return simulation.ra_witness(_witness(args), args.width)


def _emit_sim(args, v: simulation.Verdict) -> int:
    text = f"{v.status} (intervals={v.intervals_checked}, truncated={v.truncated})\n"
    _emit(args, v.report(), text + (v.reason + "\n" if v.reason else ""))
    return _verdict_exit(v.ok, v.truncated)


def cmd_check_sim(args) -> int:
    wit = _sim_witness(args)
    t0 = _initial_state(args, wit.target)[0]
    return _emit_sim(args, simulation.check_simulation(wit, t0, args.bounds))


def cmd_check_snippy(args) -> int:
    wit = _sim_witness(args)
    base = _initial_state(args, wit.target)[0]
    return _emit_sim(args, simulation.check_snippy_cube(wit, base, args.bounds))


def cmd_demo_codera(args) -> int:
    """One-shot reproduction: attack, analysis, fix, and re-check."""
    width = 8
    bounds = Bounds(32, 3)
    src = _load_program(corpus_path("code_ra_source.sp"))
    tgt = _load_program(corpus_path("code_ra_target.sp"))
    w = regalloc.parse_ra_witness(_read(corpus_path("code_ra.witness")), src, tgt)

    def pair_verdict(p: Program) -> security.SniVerdict:
        """`p`'s verdict on the corpus pair of initial states."""
        base, alt = (_load_state(corpus_path(f), p, width) for f in ("code_ra.init", "code_ra_alt.init"))
        return security.check_sni(p, base, security.PairSource("file", pairs=[(base, alt)]), bounds, width)

    out = []
    ok = True

    v_src = pair_verdict(src)
    out.append(f"source verdict: {v_src.kind}")
    ok &= v_src.secure

    v_tgt = pair_verdict(tgt)
    out.append(f"target verdict: {v_tgt.kind}")
    ok &= not v_tgt.secure
    if not v_tgt.secure:
        out.append("attack directives: " + " ; ".join(str(d) for d in v_tgt.directives))
        out.append(f"diverging leak: {v_tgt.leak1} vs {v_tgt.leak2}")

    sp = poison.poison_analysis(w)
    violations = poison.check_poison_typable(w, sp)
    for v in violations:
        out.append(f"poison violation: {v}")
    ok &= len(violations) == 1

    fixed, report = poison.fix_ra(w)
    for i in report.insertions:
        out.append(f"inserted {i.kind} at {i.pc} before {i.before}")
    ok &= len(report.insertions) == 1

    v_fixed = pair_verdict(fixed.target)
    out.append(f"fixed target verdict: {v_fixed.kind}")
    ok &= v_fixed.secure

    payload = {
        "ok": ok,
        "log": out,
        "source": v_src.report(),
        "target": v_tgt.report(),
        "fixed": v_fixed.report(),
        "violations": [str(v) for v in violations],
    }
    _emit(args, payload, "\n".join(out) + "\n")
    return 0 if ok else 1


# flag name: argparse keyword arguments of the flag
FLAGS = {
    "--state": dict(help="initial-state file"),
    "--state2": dict(help="second initial-state file (explicit pair)"),
    "--pairs": dict(type=pair_count, default="exhaustive", help="exhaustive | random:<n>, n >= 1"),
    "--seed": dict(type=int, help="seed of --pairs random:<n> (default 0)"),
    "--width": dict(type=positive_int, default=DEFAULT_WIDTH),
    "--bounds": dict(type=_parse_bounds, default=Bounds(32, 3), help="steps=<n>,depth=<n>"),
    "--steps": dict(type=positive_int, default=32, help="step bound of the run"),
    "--directives": {},
    "--out": {},
    "--map-out": {},
    "--exit-fact": dict(choices=("full", "cells"), default="full"),
    "--k": dict(type=int, required=True),
    "--out-target": {},
    "--out-witness": {},
    "--witness-kind": dict(choices=("dce", "ra"), required=True),
    "--source": dict(required=True),
    "--target": dict(required=True),
    "--witness": dict(required=True),
    "--format": dict(choices=("text", "json"), default="text"),
}

# command name: (handler, positional, flags).  Every command also takes
# `--format`.  A flag ending in `?` is optional where FLAGS makes it
# required, and `a|b` makes two flags exclude each other.
COMMANDS = {
    "run": (cmd_run, "program", ("--state", "--width", "--directives")),
    "explore": (cmd_explore, "program", ("--state", "--width", "--bounds")),
    "check-safe": (cmd_check_safe, "program", ("--state", "--width", "--steps")),
    "check-sni": (cmd_check_sni, "program", ("--state", "--width", "--bounds", "--state2|--pairs", "--seed")),
    "dce": (cmd_dce, "program", ("--out", "--map-out")),
    "liveness": (cmd_liveness, "program", ("--exit-fact",)),
    "allocate": (cmd_allocate, "program", ("--k", "--out-target", "--out-witness")),
    "validate-ra": (cmd_validate_ra, None, ("--source", "--target", "--witness")),
    "product-run": (cmd_product_run, None,
                    ("--source", "--target", "--witness", "--state", "--width", "--directives")),
    "poison-analyze": (cmd_poison_analyze, None, ("--source", "--target", "--witness")),
    "check-typable": (cmd_check_typable, None, ("--source", "--target", "--witness")),
    "fix": (cmd_fix, None, ("--source", "--target", "--witness", "--out-target", "--out-witness")),
    "check-sim": (cmd_check_sim, None,
                  ("--witness-kind", "--source", "--target?", "--witness?", "--state", "--width", "--bounds")),
    "check-snippy": (cmd_check_snippy, None,
                     ("--witness-kind", "--source", "--target?", "--witness?", "--state", "--width", "--bounds")),
    "demo-codera": (cmd_demo_codera, None, ()),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser of COMMANDS and FLAGS, built once: building it
    costs far more than a `parse_args` call, and parsing leaves it unchanged.
    `_parse` reads a well-formed command line without it; the parser is the
    one source of help, usage and error text, and reads every other form it
    accepts (`--flag=value`, unambiguous abbreviations, a repeated flag)."""
    ap = argparse.ArgumentParser(prog="snicheck", description="speculative non-interference toolkit")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (fn, positional, names) in COMMANDS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        if positional:
            sp.add_argument(positional)
        for group in (*names, "--format"):
            into = sp.add_mutually_exclusive_group() if "|" in group else sp
            for flag in group.split("|"):
                opts = FLAGS[flag.rstrip("?")]
                into.add_argument(flag.rstrip("?"), **((opts | {"required": False}) if flag.endswith("?") else opts))
    return ap


def _read_args(argv: list[str]) -> argparse.Namespace | None:
    """The namespace `build_parser().parse_args(argv)` gives, read straight
    from COMMANDS and FLAGS, or None unless `argv` has this one form: a known
    command; its exact flag names, each at most once and followed by a value
    that does not start with `-`; its positional, where it takes one; every
    required flag, and at most one flag of each `a|b` group.  A value that
    its flag's type or choices refuse also gives None."""
    fn, positional, groups = COMMANDS[argv[0]]
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        if arg[:1] != "-":
            arg, value = positional, arg
        else:
            value = next(rest, "-")
        if arg is None or arg in given or value[:1] == "-":
            return None
        given[arg] = value
    args = {"cmd": argv[0], "fn": fn}
    if positional:
        if positional not in given:
            return None
        args[positional] = given.pop(positional)
    for group in (*groups, "--format"):
        flags = group.split("|")
        if len(flags) > 1 and sum(flag.rstrip("?") in given for flag in flags) > 1:
            return None
        for flag in flags:
            name = flag.rstrip("?")
            opts = FLAGS[name]
            value = given.pop(name, None)
            if value is None:
                if name == flag and opts.get("required"):
                    return None
                value = opts.get("default")
            if isinstance(value, str):  # a given value, or a default that argparse converts
                try:
                    value = opts.get("type", str)(value)
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
                if "choices" in opts and value not in opts["choices"]:
                    return None
            args[name[2:].replace("-", "_")] = value
    return None if given else argparse.Namespace(**args)


def _parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, read by `_read_args` when `argv`
    has its form, which spares building the parser and argparse's matching.
    Anything else (no argv, `-h`, an unknown command or flag, a value that
    starts with `-` or that its flag refuses) goes to the parser, for its
    namespace or its help and error text."""
    args = _read_args(argv) if argv and argv[0] in COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
