"""Independent checks of request outputs, run outside the timed and traced spans.

Each check takes a request, the (exit code, stdout) of each of its command
lines and the texts of the files it wrote, and returns a `Checked` record:
the problems found (empty when the output is right), the verdict for the
verdict counters and digest, and the fix totals.  A `fail` or `violation` verdict on a random input is a verdict,
not a problem.

What is checked:
  check-sni   exit code agrees with the verdict; exhaustive runs check every
              pair; every violation replays from its two reported initial
              states with `run_directives` and shows the reported diverging
              leak or enabled set after equal leaks
  explore     every terminated behaviour replays to a final state with the
              reported leaks
  allocate    the written target and witness match the output and form a
              valid witness
  fix         the fixed witness passes `validate_ra` with no diagnostics and
              `check_poison_typable` with no violations; the inserted
              instructions are exactly the new slh/sfence instructions
  check-sim / check-snippy / demo-codera
              exit code agrees with the verdict
Corpus requests are also compared with their known answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import comb

from workloads import Request


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    verdict: str = ""
    fix_insertions: int = 0
    target_instrs: int = 0


def check(req: Request, outputs: list[tuple[int, str]], files: dict[str, str | None]) -> Checked:
    out = Checked()
    payloads = []
    for rc, stdout in outputs:
        try:
            payloads.append(json.loads(stdout.strip().splitlines()[-1]))
        except (ValueError, IndexError):
            out.problems.append(f"exit {rc}, output is not one JSON line: {stdout[:200]!r}")
            return out
    codes = [rc for rc, _ in outputs]
    handler = {
        "sni-exhaustive": _check_sni, "sni-pair": _check_sni, "explore": _check_explore,
        "alloc-fix": _check_alloc_fix, "fix": _check_fix_only,
        "cube-dce": _check_sim, "cube-ra": _check_sim, "sim-dce": _check_sim, "sim-ra": _check_sim,
        "demo": _check_demo,
    }[req.kind]
    texts = {**req.inputs, **files}
    try:
        handler(req, codes, payloads, texts, out)
        if req.expect and not out.problems:
            _check_known_answer(req, payloads, texts, out)
    except Exception as e:  # malformed output: a failed check, not a harness crash
        out.problems.append(f"output check raised {type(e).__name__}: {e}")
    return out


def _parse(text: str):
    from snicheck.ir import parse_program

    return parse_program(text)


def _sni_exit(p: dict) -> int:
    if p["verdict"] == "violation":
        return 1
    return 2 if p["truncated"] else 0


def _low_equal(a, b, prog) -> bool:
    """Same pc and registers, same cells outside high variables."""
    high = {v.name for v in prog.memvars if v.level == "high"}
    strip = lambda s: tuple(c for c in s.mem if c[0][0] not in high)
    return a.pc == b.pc and a.regs == b.regs and strip(a) == strip(b)


def _check_sni(req: Request, codes, payloads, texts, out: Checked):
    from snicheck.semantics import enabled_directives, parse_directive, parse_initial_state, run_directives

    rc, p = codes[0], payloads[0]
    out.verdict = p.get("verdict", "?") + ("+truncated" if p.get("truncated") else "")
    if p.get("command") != "check-sni" or p.get("verdict") not in ("secure", "violation"):
        out.problems.append(f"unexpected check-sni payload {p}")
        return
    if rc != _sni_exit(p):
        out.problems.append(f"exit {rc} does not match verdict {p['verdict']} truncated={p['truncated']}")
    if req.kind == "sni-exhaustive" and p["verdict"] == "secure":
        want = comb(1 << req.width, 2)
        if p["pairs_checked"] != want:
            out.problems.append(f"exhaustive secure verdict checked {p['pairs_checked']} of {want} pairs")
    if p["verdict"] != "violation":
        return
    prog = _parse(texts["program.sp"])
    s1 = parse_initial_state(p["state1"], prog, req.width)
    s2 = parse_initial_state(p["state2"], prog, req.width)
    if not _low_equal(s1[0], s2[0], prog):
        out.problems.append("violation states are not low-equivalent")
    dirs = [parse_directive(d, prog) for d in p["directives"]]
    ex1 = run_directives(prog, s1, dirs, req.width)
    ex2 = run_directives(prog, s2, dirs, req.width)
    if ex1.status == "stuck" or ex2.status == "stuck":
        out.problems.append("violation directives do not replay")
        return
    l1, l2 = [str(l) for l in ex1.leaks], [str(l) for l in ex2.leaks]
    if p["divergence"] == "leak":
        ok = l1[:-1] == l2[:-1] and l1[-1:] == [p["leak1"]] and l2[-1:] == [p["leak2"]] and p["leak1"] != p["leak2"]
    else:
        e1 = [str(d) for d in enabled_directives(prog, ex1.last, req.width)]
        e2 = [str(d) for d in enabled_directives(prog, ex2.last, req.width)]
        ok = l1 == l2 and e1 == p["enabled1"] and e2 == p["enabled2"] and e1 != e2
    if not ok:
        out.problems.append(f"violation ({p['divergence']}) does not replay to the reported divergence")


def _check_explore(req: Request, codes, payloads, texts, out: Checked):
    from snicheck.semantics import parse_directive, parse_initial_state, run_directives

    rc, p = codes[0], payloads[0]
    out.verdict = f"terminated={len(p.get('terminated', []))},truncated={p.get('truncated_count')}"
    if rc != (2 if p.get("truncated_count") else 0):
        out.problems.append(f"explore exit {rc} does not match truncated_count")
    prog = _parse(texts["program.sp"])
    nu0 = parse_initial_state(texts["state.init"], prog, req.width)
    for beh in p.get("terminated", []):
        ex = run_directives(prog, nu0, [parse_directive(d, prog) for d in beh["directives"]], req.width)
        if ex.status != "final" or [str(l) for l in ex.leaks] != beh["leaks"]:
            out.problems.append(f"terminated behaviour {beh['directives']} does not replay")
            return


def _check_witness(source: str, target: str, witness: str, what: str, out: Checked):
    from snicheck.regalloc import parse_ra_witness, validate_ra

    w = parse_ra_witness(witness, _parse(source), _parse(target))
    diags = validate_ra(w)
    if diags:
        out.problems.append(f"{what} witness invalid: {diags[0]}")
    return w


def _count_fences(prog) -> int:
    from snicheck.ir import Sfence, Slh

    return sum(isinstance(i, (Sfence, Slh)) for i in prog.instrs.values())


def _check_fix(req: Request, rc: int, p: dict, texts, out: Checked):
    from snicheck.poison import check_poison_typable, poison_analysis

    if rc != 0 or p.get("command") != "fix" or texts["fixed.sp"] is None:
        out.problems.append(f"fix exit {rc}")
        return
    fixed = _check_witness(texts["program.sp"], texts["fixed.sp"], texts["fixed.witness"], "fixed", out)
    violations = check_poison_typable(fixed, poison_analysis(fixed, req.width))
    if violations:
        out.problems.append(f"fixed witness not poison-typable: {violations[0]}")
    ins = p["insertions"]
    added = _count_fences(fixed.target) - _count_fences(_parse(texts["alloc.sp"]))
    if added != len(ins) or any(
        type(fixed.target.instrs.get(i["pc"])).__name__.lower() != i["kind"] for i in ins
    ):
        out.problems.append(f"fix reports {len(ins)} insertions, target gained {added} slh/sfence")
    out.fix_insertions = len(ins)
    out.target_instrs = len(fixed.target.instrs)
    out.verdict = f"insertions={len(ins)}"


def _check_alloc_fix(req: Request, codes, payloads, texts, out: Checked):
    if codes[0] != 0 or payloads[0].get("command") != "allocate":
        out.problems.append(f"allocate exit {codes[0]}")
        return
    if (texts["alloc.sp"], texts["alloc.witness"]) != (payloads[0]["target"], payloads[0]["witness"]):
        out.problems.append("allocate output differs from the files it wrote")
        return
    _check_witness(texts["program.sp"], texts["alloc.sp"], texts["alloc.witness"], "allocated", out)
    _check_fix(req, codes[1], payloads[1], texts, out)


def _check_fix_only(req: Request, codes, payloads, texts, out: Checked):
    _check_fix(req, codes[0], payloads[0], texts, out)


def _check_sim(req: Request, codes, payloads, texts, out: Checked):
    rc, p = codes[0], payloads[0]
    out.verdict = p.get("verdict", "?") + ("+truncated" if p.get("truncated") else "")
    if p.get("verdict") not in ("pass", "fail") or not isinstance(p.get("intervals_checked"), int):
        out.problems.append(f"unexpected simulation payload {p}")
        return
    want = 1 if p["verdict"] == "fail" else (2 if p["truncated"] else 0)
    if rc != want:
        out.problems.append(f"exit {rc} does not match verdict {p['verdict']} truncated={p['truncated']}")
    if p["verdict"] == "fail" and not p.get("reason"):
        out.problems.append("fail verdict without a reason")


def _check_demo(req: Request, codes, payloads, texts, out: Checked):
    p = payloads[0]
    out.verdict = f"ok={p.get('ok')}"
    if codes[0] != (0 if p.get("ok") else 1):
        out.problems.append(f"demo-codera exit {codes[0]} does not match ok={p.get('ok')}")


def _check_known_answer(req: Request, payloads, texts, out: Checked):
    p = payloads[-1]
    key = req.expect
    if key == "corpus-ra-source":
        ok = p["verdict"] == "secure"
    elif key == "corpus-ra-target":
        dirs = p.get("directives", [])
        ok = p["verdict"] == "violation" and "spec" in dirs and "store stk 0" in dirs[dirs.index("spec"):]
    elif key == "corpus-ra-fix":
        ok = len(p["insertions"]) == 1 and _fixed_corpus_secure(texts)
    elif key in ("corpus-dce-cube", "corpus-ra-cube-fixed"):
        ok = p["verdict"] == "pass"
    elif key == "corpus-ra-cube-unfixed":
        ok = p["verdict"] == "fail"
    else:
        ok = p.get("ok") is True
    if not ok:
        out.problems.append(f"known answer not met: {key}")


def _fixed_corpus_secure(texts) -> bool:
    from snicheck.security import PairSource, check_sni
    from snicheck.semantics import Bounds, parse_initial_state

    t = _parse(texts["fixed.sp"])
    s1 = parse_initial_state(texts["state.init"], t, 8)
    s2 = parse_initial_state(texts["state2.init"], t, 8)
    return check_sni(t, s1, PairSource("file", pairs=[(s1, s2)]), Bounds(32, 3), 8).secure
