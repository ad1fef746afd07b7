#!/usr/bin/env python3
"""Verdict sweep over the bundled corpus.

Prints, for each bundled configuration, the SNI verdicts (for given pairs
and exhaustive over high memory), the typability violations, and the
simulation/cube verdicts, at both widths.  Useful as a quick smoke run and
as a template for new experiments.

    python3 scripts/sweep_corpus.py

The package is imported from the checkout's `src/`, so no install is needed.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from snicheck.cli import corpus_path
from snicheck.ir import parse_program
from snicheck.liveness import dce_transform, liveness
from snicheck.poison import check_poison_typable, fix_ra, poison_analysis
from snicheck.regalloc import parse_ra_witness
from snicheck.security import PairSource, check_sni
from snicheck.semantics import Bounds, parse_initial_state
from snicheck.simulation import check_snippy_cube, dce_witness, ra_witness


def load(name):
    return parse_program(corpus_path(name).read_text())


def state(name, prog, width):
    return parse_initial_state(corpus_path(name).read_text(), prog, width)


def row(label, verdict, started):
    print(f"{label:<46} {verdict:<12} {time.monotonic() - started:6.2f}s")


def main() -> int:
    b8, b2 = Bounds(32, 3), Bounds(24, 2)

    src = load("code_ra_source.sp")
    tgt = load("code_ra_target.sp")
    w = parse_ra_witness(corpus_path("code_ra.witness").read_text(), src, tgt)
    s1, s2 = state("code_ra.init", src, 8), state("code_ra_alt.init", src, 8)
    t1, t2 = state("code_ra.init", tgt, 8), state("code_ra_alt.init", tgt, 8)

    t0 = time.monotonic()
    row("allocation source, sni (42 vs 7)", check_sni(src, s1, PairSource("file", pairs=[(s1, s2)]), b8).kind, t0)
    t0 = time.monotonic()
    row("allocation target, sni (42 vs 7)", check_sni(tgt, t1, PairSource("file", pairs=[(t1, t2)]), b8).kind, t0)
    for label, prog, init in (("allocation source", src, s1), ("allocation target", tgt, t1)):
        t0 = time.monotonic()
        row(f"{label}, sni exhaustive (width 8)", check_sni(prog, init, PairSource("exhaustive"), b8).kind, t0)
    spec = load("code_specv1.sp")
    t0 = time.monotonic()
    v = check_sni(spec, state("code_specv1.init", spec, 1), PairSource("exhaustive"), b8, 1)
    row("specv1, sni exhaustive (width 1)", v.kind, t0)

    t0 = time.monotonic()
    violations = check_poison_typable(w, poison_analysis(w))
    row("allocation target, typability", f"{len(violations)} violation(s)", t0)

    t0 = time.monotonic()
    fixed, rep = fix_ra(w)
    f1, f2 = state("code_ra.init", fixed.target, 8), state("code_ra_alt.init", fixed.target, 8)
    row(
        f"fixed target ({len(rep.insertions)} insertion), sni",
        check_sni(fixed.target, f1, PairSource("file", pairs=[(f1, f2)]), b8).kind,
        t0,
    )

    p = load("code_dce_w2_source.sp")
    wit = dce_witness(p, dce_transform(p, liveness(p)), width=2)
    t0 = time.monotonic()
    row("dce width-2, cube", check_snippy_cube(wit, state("code_dce_w2.init", wit.target, 2)[0], b2).status, t0)

    src2, tgt2 = load("code_ra_w2_source.sp"), load("code_ra_w2_target.sp")
    w2 = parse_ra_witness(corpus_path("code_ra_w2.witness").read_text(), src2, tgt2)
    t0 = time.monotonic()
    v = check_snippy_cube(ra_witness(w2, 2), state("code_ra_w2.init", tgt2, 2)[0], b2)
    row("allocation width-2 unfixed, cube", v.status, t0)
    fixed2, _ = fix_ra(w2, 2)
    t0 = time.monotonic()
    v = check_snippy_cube(ra_witness(fixed2, 2), state("code_ra_w2.init", fixed2.target, 2)[0], b2)
    row("allocation width-2 fixed, cube", v.status, t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
