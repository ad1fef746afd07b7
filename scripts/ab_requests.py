#!/usr/bin/env python3
"""Interleaved in-process A/B of two checkouts on one workload's requests.

    python3 scripts/ab_requests.py A B --workload alloc-fix --seed 101 --requests 200 --repeats 3

Imports `src/snicheck` of checkout A as the package `snicheck_a` and of
checkout B as `snicheck_b`, in one interpreter.  The requests are those of
one benchmark workload, built by the `benchmark/workloads.py` of the
checkout this script sits in, which is only read.  They are built once per
checkout, each in a fresh interpreter with that checkout's `src` first on
its path, so set-up that needs the package (the `sim-cube` witnesses, which
`allocate` and `fix_ra` make) runs the checkout's own.  Each side then runs
its own requests, matched by request id.

Each request runs through both `cli.main` calls `--repeats` times.  Which
checkout goes first alternates from request to request and from repeat to
repeat, so a drift in the machine's speed falls on both alike, and each
request keeps its best time per checkout.  The two sides' inputs (command
lines and input files), and their exit codes, stdout, stderr and the files
a request writes, must be equal byte for byte; a request that only one side
builds differs too.

Prints one line per checkout with `verdicts_per_s` (requests over the sum of
their best times), the median and the 90th percentile of the best times,
then the change from A to B in percent (positive is better for B), and the
number of requests whose inputs or outputs differ; then, for each kind of
request (`Request.kind`, such as `sni-exhaustive` or `explore`), its count
and both sides' `verdicts_per_s` with the change, which shows the kinds a
saving lands on.  Exits 1 on any difference.
"""

import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]


def load_cli(checkout: Path, name: str):
    """`checkout`'s `snicheck.cli`, its package imported as `name`."""
    pkg_dir = checkout / "src" / "snicheck"
    spec = importlib.util.spec_from_file_location(name, pkg_dir / "__init__.py",
                                                  submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    return importlib.import_module(f"{name}.cli")


# run in a fresh interpreter: argv is the checkout's src, the benchmark
# directory, then the workload, seed, request count and work directory
BUILD = """
import dataclasses, json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
from snicheck import cli
wl = workloads.build(sys.argv[3], int(sys.argv[4]), int(sys.argv[5]), Path(sys.argv[6]), cli.CORPUS)
json.dump([dataclasses.asdict(req) for req in wl.requests], sys.stdout)
"""


def build_requests(checkout: Path, workload: str, seed: int, n: int, workdir: Path) -> dict:
    """Request id -> request, built with `checkout`'s package."""
    argv = [sys.executable, "-c", BUILD, str(checkout / "src"), str(ROOT / "benchmark"),
            workload, str(seed), str(n), str(workdir)]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
    return {d["rid"]: SimpleNamespace(**d) for d in json.loads(out)}


def run(cli, req, workdir: Path) -> tuple[float, tuple]:
    """Seconds and (per command line: exit code, stdout, stderr; then the
    written files) of one request, its inputs written first."""
    for name, text in [*req.inputs.items(), *((name, "") for name in req.outputs)]:
        (workdir / name).write_text(text)
    outputs = []
    start = time.perf_counter()
    for argv in req.argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        outputs.append((rc, out.getvalue(), err.getvalue()))
    elapsed = time.perf_counter() - start
    files = tuple((workdir / name).read_bytes() for name in req.outputs)
    return elapsed, (tuple(outputs), files)


def summary(times: list[float]) -> tuple[float, float, float]:
    """verdicts_per_s, p50 and p90 of per-request times."""
    return len(times) / sum(times), statistics.median(times), statistics.quantiles(times, n=10)[-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a", type=Path, help="checkout A (the baseline)")
    ap.add_argument("b", type=Path, help="checkout B")
    ap.add_argument("--workload", required=True, choices=("sni-search", "alloc-fix", "sim-cube"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--requests", type=int, default=200)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)

    clis = [load_cli(args.a.resolve(), "snicheck_a"), load_cli(args.b.resolve(), "snicheck_b")]
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        sides = [build_requests(checkout.resolve(), args.workload, args.seed, args.requests, workdir)
                 for checkout in (args.a, args.b)]
        best, kinds = [[], []], []
        differ = 0
        for idx, rid in enumerate(dict.fromkeys([*sides[0], *sides[1]])):
            reqs = [side.get(rid) for side in sides]
            if None in reqs:
                differ += 1
                print(f"built by one side only: {rid}")
                continue
            times, results = [float("inf")] * 2, [None, None]
            for rep in range(args.repeats):
                for side in (0, 1) if (idx + rep) % 2 == 0 else (1, 0):
                    elapsed, results[side] = run(clis[side], reqs[side], workdir)
                    times[side] = min(times[side], elapsed)
            if (reqs[0].argvs, reqs[0].inputs) != (reqs[1].argvs, reqs[1].inputs):
                differ += 1
                print(f"inputs differ: {rid}")
            elif results[0] != results[1]:
                differ += 1
                print(f"outputs differ: {rid}")
            best[0].append(times[0])
            best[1].append(times[1])
            kinds.append(reqs[0].kind)

    (rate_a, p50_a, p90_a), (rate_b, p50_b, p90_b) = summary(best[0]), summary(best[1])
    for label, (rate, p50, p90) in (("A", (rate_a, p50_a, p90_a)), ("B", (rate_b, p50_b, p90_b))):
        print(f"{label}: verdicts_per_s {rate:.2f}  p50 {p50 * 1e3:.3f} ms  p90 {p90 * 1e3:.3f} ms")
    print(f"{len(best[0])} requests, {args.workload} seed {args.seed}, best of {args.repeats}: "
          f"verdicts_per_s {100 * (rate_b / rate_a - 1):+.1f}%, p50 {100 * (1 - p50_b / p50_a):+.1f}%, "
          f"p90 {100 * (1 - p90_b / p90_a):+.1f}%; {differ} differ")
    for kind in sorted(set(kinds)):
        times = [[t for t, k in zip(side, kinds) if k == kind] for side in best]
        rate_a, rate_b = (len(ts) / sum(ts) for ts in times)
        print(f"  {kind}: {kinds.count(kind)} requests, verdicts_per_s A {rate_a:.2f}, B {rate_b:.2f}, "
              f"{100 * (rate_b / rate_a - 1):+.1f}%")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
