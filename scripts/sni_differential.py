#!/usr/bin/env python3
"""Differential sweep of the bounded SNI walk against table-free references.

For each seeded random program (`tests/conftest.py:random_program`, some
with two high cells or shuffle code, at widths 1-3), compares:

- exhaustive `check_sni` with the pairwise loop `ref_check_sni_exhaustive`:
  verdict, pair count and whether anything was cut, and the whole verdict
  and report for a violation or for two high assignments;
- `check_sni_pair` on the first two high assignments, in both orders, with
  `ref_check_sni_pair`, field for field;
- with more than two high assignments, `_walk` from the taint certificate's
  start (one state with every high cell tainted 0) with `ref_taint_certify`,
  and `_walk` from the packed start (one state, a lane per high assignment)
  with `ref_sni_walk`, the table-free grouped walk: the cuts, or a
  difference on both sides; and a secure verdict's `truncated` with the
  certificate's cuts, else the packed walk's.

    python3 scripts/sni_differential.py --seed 1 --programs 5000

Prints one line per mismatch, then a summary with the verdicts and the route
of each program with more than two high assignments: certified, a violation
at the probe (the first pair), secure by the packed walk, or a difference in
the packed walk and then the pair loop.  The summary ends with the slowest
program: its index, its seconds, and of those the seconds in `check_sni` and
in the references; then, for `check_sni` and for each reference, the
program that spent the most seconds in it, with those seconds.  Exits 1 on
any mismatch.  The package is imported from the checkout's `src/` and the
references from its `tests/`, so no install is needed.
"""

import argparse
import random
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import (  # noqa: E402
    random_program,
    random_state,
    ref_check_sni_exhaustive,
    ref_check_sni_pair,
    ref_sni_walk,
    ref_taint_certify,
)
from snicheck.ir import print_program  # noqa: E402
from snicheck.security import (  # noqa: E402
    PairSource,
    _walk,
    _with_high,
    check_sni,
    check_sni_pair,
    enumerate_high_states,
    high_cells,
)
from snicheck.semantics import Bounds, pack, tainted, transition_table  # noqa: E402


def cuts(walked):
    """A `_walk` result as the references give it: the cuts, or None."""
    n, found = walked
    return n if found is None else None


def timed(spent: Counter, fn, *args):
    """`fn(*args)`, its seconds added to `spent` under `fn`'s name."""
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        spent[fn.__name__] += time.perf_counter() - start


def compare(p, base, b, width, spent: Counter) -> tuple[list[str], str, str]:
    """The mismatches on one program, the kind of its verdict and its route
    (empty with two high assignments or fewer); the seconds of `check_sni`
    and of each reference are added to `spent` under its name."""
    bad = []
    got = timed(spent, check_sni, p, base, PairSource("exhaustive"), b, width)
    want = timed(spent, ref_check_sni_exhaustive, p, base, b, width)
    if (got.kind, got.pairs_checked, got.truncated > 0) != (want.kind, want.pairs_checked, want.truncated > 0):
        bad.append(f"check_sni {got.kind}/{got.pairs_checked}/{got.truncated}, "
                   f"reference {want.kind}/{want.pairs_checked}/{want.truncated}")
    states = enumerate_high_states(p, base, width)
    if not got.secure or len(states) <= 2:
        if got != want or got.report(full=True) != want.report(full=True):
            bad.append("check_sni verdict or report differs from the pairwise reference")
    for a, c in (states[:2], states[1::-1]):
        if check_sni_pair(p, a, c, b, width) != timed(spent, ref_check_sni_pair, p, a, c, b, width):
            bad.append("check_sni_pair differs from ref_check_sni_pair")
    route = ""
    if len(states) > 2:
        table = transition_table(p, width)
        cells = high_cells(p)
        certified = cuts(_walk(table, table.id(_with_high(base, cells, [tainted(0)] * len(cells))), b))
        ref = timed(spent, ref_taint_certify, p, states[0], b, width)
        if certified != ref:
            bad.append(f"certificate {certified}, reference {ref}")
        if certified is not None and not want.secure:
            bad.append("certified an insecure program")
        walked = cuts(_walk(table, table.id((pack([s for s, in states]),)), b))
        ref = timed(spent, ref_sni_walk, p, base, b, width)
        if walked != ref:
            bad.append(f"packed walk {walked}, reference {ref}")
        if got.secure and got.truncated != (walked if certified is None else certified):
            bad.append(f"secure verdict truncated {got.truncated}, walks {certified}/{walked}")
        if certified is not None:
            route = "certified"
        elif not got.secure and got.pairs_checked == 1:
            route = "probe violation"
        else:
            route = "packed secure" if walked is not None else "packed then pair loop"
    return bad, got.divergence or got.kind, route


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--programs", type=int, required=True)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    kinds = Counter()
    routes = Counter()
    mismatches = 0
    slowest = (0.0, None, Counter())  # seconds, index, seconds by part
    slowest_in: dict[str, tuple[float, int]] = {}  # part -> its most seconds on one program, and that program
    started = time.monotonic()
    for k in range(args.programs):
        hi_size = 2 if rng.random() < 0.25 else 1
        width = rng.randint(1, 3 if hi_size == 1 else 2)
        p = random_program(rng, n_instrs=rng.randint(4, 12), n_regs=2, allow_shuffle=rng.random() < 0.3,
                           hi_size=hi_size)
        base = random_state(rng, p, width=width)
        b = Bounds(rng.randint(6, 12), rng.randint(1, 3))
        spent = Counter()
        program_started = time.perf_counter()
        bad, kind, route = compare(p, base, b, width, spent)
        slowest = max(slowest, (time.perf_counter() - program_started, k, spent), key=lambda t: t[0])
        for part, seconds in spent.items():
            slowest_in[part] = max(slowest_in.get(part, (0.0, k)), (seconds, k), key=lambda t: t[0])
        kinds[kind] += 1
        if route:
            routes[route] += 1
        for line in bad:
            mismatches += 1
            print(f"program {k} (width {width}, {b}): {line}\n{print_program(p)}")
    print(f"{args.programs} programs, seed {args.seed}: {mismatches} mismatches; "
          f"verdicts {dict(sorted(kinds.items()))}; routes with N > 2 {dict(sorted(routes.items()))}; "
          f"{time.monotonic() - started:.1f} s; slowest program {slowest[1]}: {slowest[0]:.2f} s "
          f"(check_sni {slowest[2]['check_sni']:.2f} s, "
          f"references {sum(slowest[2].values()) - slowest[2]['check_sni']:.2f} s); slowest in each: "
          + ", ".join(f"{part} program {k} {seconds:.2f} s" for part, (seconds, k) in sorted(slowest_in.items())))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
