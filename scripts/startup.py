#!/usr/bin/env python3
"""Start-up cost of each command, in fresh `python -m snicheck` processes.

    python3 scripts/startup.py [CHECKOUT] --runs 15
    python3 scripts/startup.py A B --runs 15

For each command of `cli.COMMANDS`, run on corpus inputs, prints the median
wall time of `--runs` fresh `python -m snicheck` processes of CHECKOUT
(default: this one), the median of bare `python -c pass` as the floor, and
the `snicheck` modules the command loads (read from one `-X importtime` run).
The in-process benchmark imports the package once per set-up, so it cannot
show what a command pays when each verdict is its own process.  Rounds run
every command once, in turn, so a drift in the machine's speed falls on all
alike.

Given two checkouts, A and B, each round runs every command from both, and
which goes first alternates from command to command and from round to
round, as in `scripts/ab_requests.py`, so a drift falls on both sides.  It
prints both medians and B's change from A per command (negative is faster),
the floor included, whose change shows the noise.

The processes inherit the environment: with `PYTHONDONTWRITEBYTECODE=1` and
no `__pycache__`, every run compiles the modules it imports.
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


def side(checkout: Path) -> tuple[dict, dict[str, list[str]]]:
    """The environment and the command lines (the floor first) that time
    `checkout`."""
    src = checkout.resolve() / "src"
    if not (src / "snicheck" / "cli.py").is_file():
        sys.exit(f"error: no snicheck sources under {src}")
    env = {**os.environ, "PYTHONPATH": str(src)}
    r = subprocess.run([sys.executable, "-c", "from snicheck.cli import COMMANDS; print(*COMMANDS)"], env=env,
                       capture_output=True, text=True)
    if r.returncode:
        sys.exit(f"error: cannot read the commands of {checkout}: {r.stderr.strip()}")
    table = command_args(src / "snicheck" / "corpus")
    missing = set(r.stdout.split()) - set(table)
    if missing:
        sys.exit(f"error: no corpus arguments for {', '.join(sorted(missing))}")
    runs = {"python -c pass": [sys.executable, "-c", "pass"]}
    runs |= {cmd: [sys.executable, "-m", "snicheck", cmd, *table[cmd]] for cmd in r.stdout.split()}
    return env, runs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="*", type=Path, metavar="CHECKOUT",
                    help="the checkout to time (default: this one), or two, A and B, to compare")
    ap.add_argument("--runs", type=int, default=15, help="processes per command and checkout (default 15)")
    args = ap.parse_args(argv)
    checkouts = args.checkouts or [ROOT]
    if len(checkouts) > 2:
        ap.error("at most two checkouts")

    sides = [side(c) for c in checkouts]
    names = list(sides[0][1])
    if any(list(runs) != names for _, runs in sides):
        sys.exit("error: the checkouts have different commands")
    times = [{name: [] for name in names} for _ in sides]
    for rnd in range(args.runs):
        for k, name in enumerate(names):
            for i in sorted(range(len(sides)), reverse=(rnd + k) % 2 == 1):
                env, runs = sides[i]
                times[i][name].append(wall(runs[name], env))

    medians = [{name: statistics.median(ts) * 1e3 for name, ts in side_times.items()} for side_times in times]
    mods = [{name: " ".join(loaded_modules(runs[name], env)) for name in names[1:]} for env, runs in sides]
    setting = f"PYTHONDONTWRITEBYTECODE={os.environ.get('PYTHONDONTWRITEBYTECODE', '')!r}"
    if len(sides) == 1:
        print(f"{checkouts[0]}: median of {args.runs} fresh processes, {setting}")
        floor = medians[0]["python -c pass"]
        print(f"{'command':<16} {'ms':>7} {'- floor':>8}  snicheck modules loaded")
        for name in names:
            print(f"{name:<16} {medians[0][name]:7.1f} {medians[0][name] - floor:8.1f}  {mods[0].get(name, '')}")
        return 0
    print(f"A {checkouts[0]}, B {checkouts[1]}: median of {args.runs} fresh processes each, in alternating "
          f"order, {setting}")
    print(f"{'command':<16} {'A ms':>7} {'B ms':>7} {'B - A':>7} {'change':>7}  snicheck modules loaded by B")
    for name in names:
        a, b = medians[0][name], medians[1][name]
        loaded = mods[1].get(name, "")
        if set(mods[0].get(name, "").split()) != set(loaded.split()):
            loaded += f" (A: {mods[0][name]})"
        print(f"{name:<16} {a:7.1f} {b:7.1f} {b - a:+7.1f} {100 * (b / a - 1):+6.1f}%  {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
