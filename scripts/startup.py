#!/usr/bin/env python3
"""Start-up cost of each command, in fresh `python -m snicheck` processes.

    python3 scripts/startup.py [CHECKOUT] --runs 15

For each command of `cli.COMMANDS`, run on corpus inputs, prints the median
wall time of `--runs` fresh `python -m snicheck` processes of CHECKOUT
(default: this one), the median of bare `python -c pass` as the floor, and
the `snicheck` modules the command loads (read from one `-X importtime` run).
The in-process benchmark imports the package once per set-up, so it cannot
show what a command pays when each verdict is its own process.  Rounds run
every command once, in turn, so a drift in the machine's speed falls on all
alike.  The processes inherit the environment: with
`PYTHONDONTWRITEBYTECODE=1` and no `__pycache__`, every run compiles the
modules it imports.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def command_args(corpus: Path) -> dict[str, list[str]]:
    """Each command's arguments on the bundled corpus."""
    c = lambda name: str(corpus / name)
    ra = ["--source", c("code_ra_source.sp"), "--target", c("code_ra_target.sp"), "--witness", c("code_ra.witness")]
    return {
        "run": [c("code_ra_target.sp"), "--state", c("code_ra.init")],
        "explore": [c("code_ra_source.sp"), "--state", c("code_ra.init"), "--bounds", "steps=8,depth=1"],
        "check-safe": [c("code_ra_source.sp"), "--state", c("code_ra.init")],
        "check-sni": [c("code_ra_source.sp"), "--state", c("code_ra.init"), "--state2", c("code_ra_alt.init")],
        "dce": [c("code_dce_source.sp")],
        "liveness": [c("code_dce_source.sp")],
        "allocate": [c("code_ra_source.sp"), "--k", "3"],
        "validate-ra": ra,
        "product-run": [*ra, "--state", c("code_ra.init")],
        "poison-analyze": ra,
        "check-typable": ra,
        "fix": ra,
        "check-sim": ["--witness-kind", "dce", "--source", c("code_dce_source.sp")],
        "check-snippy": ["--witness-kind", "ra", *ra],
        "demo-codera": [],
    }


def wall(argv: list[str], env: dict) -> float:
    start = time.perf_counter()
    r = subprocess.run(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    elapsed = time.perf_counter() - start
    if r.returncode == 3 or "Traceback" in r.stderr:
        sys.exit(f"error: {' '.join(argv)} exited {r.returncode}: {r.stderr.strip()}")
    return elapsed


def loaded_modules(argv: list[str], env: dict) -> list[str]:
    """The `snicheck` modules `argv` imports, in import order."""
    r = subprocess.run([argv[0], "-X", "importtime", *argv[1:]], env=env, stdout=subprocess.DEVNULL,
                       stderr=subprocess.PIPE, text=True)
    names = [line.rsplit("|", 1)[1].strip() for line in r.stderr.splitlines() if line.startswith("import time:")]
    return [n.removeprefix("snicheck.") for n in names if n.startswith("snicheck.")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkout", nargs="?", type=Path, default=ROOT)
    ap.add_argument("--runs", type=int, default=15, help="processes per command (default 15)")
    args = ap.parse_args(argv)

    src = args.checkout.resolve() / "src"
    if not (src / "snicheck" / "cli.py").is_file():
        print(f"error: no snicheck sources under {src}", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(src)}
    sys.path.insert(0, str(src))
    from snicheck.cli import COMMANDS, CORPUS

    table = command_args(CORPUS)
    missing = set(COMMANDS) - set(table)
    if missing:
        print(f"error: no corpus arguments for {', '.join(sorted(missing))}", file=sys.stderr)
        return 2
    runs = {"python -c pass": [sys.executable, "-c", "pass"]}
    runs |= {cmd: [sys.executable, "-m", "snicheck", cmd, *table[cmd]] for cmd in COMMANDS}
    times = {name: [] for name in runs}
    for _ in range(args.runs):
        for name, cmd in runs.items():
            times[name].append(wall(cmd, env))

    print(f"{args.checkout}: median of {args.runs} fresh processes, "
          f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}")
    floor = statistics.median(times["python -c pass"])
    print(f"{'command':<16} {'ms':>7} {'- floor':>8}  snicheck modules loaded")
    for name, cmd in runs.items():
        ms = statistics.median(times[name]) * 1e3
        mods = "" if name not in COMMANDS else " ".join(loaded_modules(cmd, env))
        print(f"{name:<16} {ms:7.1f} {ms - floor * 1e3:8.1f}  {mods}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
