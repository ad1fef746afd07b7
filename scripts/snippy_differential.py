#!/usr/bin/env python3
"""Differential sweep of `check-snippy`'s one walk against table-free references.

For each seeded random cube, compares:

- `check_snippy_cube` with the pairwise references of `tests/test_simulation.py`:
  it passes exactly when `reference_check_simulation` passes from every high
  assignment and `reference_check_snippy_cube` on every pair of them, and a
  failed two-pair condition names an interval of its pair that the other
  member lacks although its source replays the interval's source side;
- `check_snippy_cube` with the all-split walk (the same witness with every
  packed pair's intervals raising `Divergent`, so every expansion of one
  splits it into its members): the whole verdict and its report;
- `check_simulation` from the cube's state with `reference_check_simulation`:
  the whole verdict and its report.

The cubes are random DCE, RA and fixed RA witnesses (`_random_witnesses`,
planted defects included) at widths 2 and 3 over one or two high cells, and
unfixed allocations of `tests/conftest.py:attack_program`, which fail the
two-pair condition itself.

    python3 scripts/snippy_differential.py --seed 1 --cubes 500

Prints one line per mismatch, then a summary with the verdicts and the route
of each cube: `packed` (a pass with no split), `split` (a pass after at
least one split) or `fail`; then the slowest cube, its seconds, and of
those the seconds in the checks and in the references.  Exits 1 on any
mismatch.  The package is imported from the checkout's `src/` and the
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

from conftest import attack_program, random_state  # noqa: E402
from snicheck import simulation  # noqa: E402
from snicheck.regalloc import AllocationInfeasible, allocate  # noqa: E402
from snicheck.semantics import Bounds  # noqa: E402
from test_simulation import (  # noqa: E402
    _all_split,
    _assert_cubes_agree,
    _random_witnesses,
    ra_with_ref,
    reference_check_simulation,
)


def timed(spent: Counter, key: str, fn, *args):
    """`fn(*args)`, its seconds added to `spent[key]`."""
    start = time.perf_counter()
    try:
        return fn(*args)
    finally:
        spent[key] += time.perf_counter() - start


def cube(rng: random.Random):
    """A seeded cube: (witness, reference builder, base state, bounds)."""
    if rng.random() < 0.25:
        while True:
            try:
                w = allocate(attack_program(rng), 2)
                break
            except AllocationInfeasible:
                continue
        wit, ref = ra_with_ref(w, 2)
        return wit, ref, random_state(rng, w.target, width=2)[0], Bounds(24, 2)
    width, hi_size = rng.choice([(2, 1), (2, 1), (2, 2), (3, 1)])
    [(wit, ref)] = _random_witnesses(rng, 1, width, hi_size=hi_size)
    return wit, ref, random_state(rng, wit.target, width)[0], Bounds(rng.randint(6, 12), rng.randint(1, 3))


def compare(wit, ref, base, b, spent: Counter) -> tuple[list[str], str, str]:
    """The mismatches on one cube, its verdict and its route; the seconds of
    the checks and of the references are added to `spent`."""
    bad = []
    splits = []
    unpack = simulation.unpack
    simulation.unpack = lambda nus: splits.append(nus) or unpack(nus)
    try:
        got = timed(spent, "checks", simulation.check_snippy_cube, wit, base, b)
    finally:
        simulation.unpack = unpack
    route = "fail" if not got.ok else "split" if splits else "packed"
    try:  # this runs the check once more, within the references' seconds
        timed(spent, "references", _assert_cubes_agree, wit, ref, base, b)
    except AssertionError as e:
        bad.append(f"check_snippy_cube {got.status} ({got.reason}) disagrees with the references: {e}")
    want = timed(spent, "checks", simulation.check_snippy_cube, _all_split(wit), base, b)
    if got != want or got.report() != want.report():
        bad.append(f"check_snippy_cube {got.report()}, all-split walk {want.report()}")
    sim = timed(spent, "checks", simulation.check_simulation, wit, base, b)
    ref_sim = timed(spent, "references", reference_check_simulation, wit, ref, base, b)
    if sim != ref_sim or sim.report() != ref_sim.report():
        bad.append(f"check_simulation {sim.report()}, reference {ref_sim.report()}")
    return bad, got.status, route


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cubes", type=int, required=True)
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    verdicts = Counter()
    routes = Counter()
    mismatches = 0
    slowest = (0.0, None, Counter())  # seconds, index, seconds by part
    started = time.monotonic()
    for k in range(args.cubes):
        wit, ref, base, b = cube(rng)
        spent = Counter()
        cube_started = time.perf_counter()
        bad, status, route = compare(wit, ref, base, b, spent)
        slowest = max(slowest, (time.perf_counter() - cube_started, k, spent), key=lambda t: t[0])
        verdicts[status] += 1
        routes[route] += 1
        for line in bad:
            mismatches += 1
            print(f"cube {k} ({wit.kind}, width {wit.width}, {b}): {line}")
    print(f"{args.cubes} cubes, seed {args.seed}: {mismatches} mismatches; "
          f"verdicts {dict(sorted(verdicts.items()))}; routes {dict(sorted(routes.items()))}; "
          f"{time.monotonic() - started:.1f} s; slowest cube {slowest[1]}: {slowest[0]:.2f} s "
          f"(checks {slowest[2]['checks']:.2f} s, references {slowest[2]['references']:.2f} s)")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
