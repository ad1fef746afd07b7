#!/usr/bin/env python3
"""`check-snippy` cost against word width on the corpus cubes.

Runs `snicheck check-snippy` in a fresh interpreter on the DCE, unfixed RA
and fixed RA corpus cubes (the width-2 running examples, which take any
width) at widths 6 to 12, with steps=24, depth=2.  Each row gives the wall
time with interpreter start, the child's peak resident memory, the verdict
line and the first 12 hex digits of the SHA-256 of its stdout, so two
checkouts can be compared for speed and for identical output.

    python3 scripts/snippy_widths.py [--widths 6,8,10,12]

The package is imported from the checkout's `src/`.  The fixed RA witness is
made once with `snicheck fix` into a temporary directory.  Peak memory is
the child's own `ru_maxrss` from `os.wait4`: the `RUSAGE_CHILDREN` total of
`resource.getrusage` keeps the largest child seen so far, not this one's.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "snicheck" / "corpus"
BOUNDS = "steps=24,depth=2"


def snicheck(*argv: str) -> tuple[int, str, float, float]:
    """Exit code, stdout, wall seconds and peak RSS in MiB of one CLI run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "snicheck", *argv], stdout=subprocess.PIPE, env=env, text=True)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, time.perf_counter() - start, usage.ru_maxrss / 1024


def cubes(tmp: Path) -> dict[str, list[str]]:
    ra = ["--source", str(CORPUS / "code_ra_w2_source.sp")]
    fixed_tgt, fixed_wit = tmp / "fixed.sp", tmp / "fixed.witness"
    rc, out, _, _ = snicheck("fix", *ra, "--target", str(CORPUS / "code_ra_w2_target.sp"),
                             "--witness", str(CORPUS / "code_ra_w2.witness"),
                             "--out-target", str(fixed_tgt), "--out-witness", str(fixed_wit))
    if rc != 0:
        raise SystemExit(f"snicheck fix exited {rc}: {out}")
    state = ["--state", str(CORPUS / "code_ra_w2.init")]
    return {
        "dce": ["--witness-kind", "dce", "--source", str(CORPUS / "code_dce_w2_source.sp"),
                "--state", str(CORPUS / "code_dce_w2.init")],
        "ra": ["--witness-kind", "ra", *ra, "--target", str(CORPUS / "code_ra_w2_target.sp"),
               "--witness", str(CORPUS / "code_ra_w2.witness"), *state],
        "ra-fixed": ["--witness-kind", "ra", *ra, "--target", str(fixed_tgt), "--witness", str(fixed_wit), *state],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--widths", default="6,8,10,12", help="comma-separated word widths")
    args = ap.parse_args()
    widths = [int(w) for w in args.widths.split(",")]
    print(f"{'cube':<9} {'width':>5} {'wall s':>7} {'max MiB':>8}  {'digest':<12}  verdict")
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cubes(Path(tmp)).items():
            for width in widths:
                rc, out, wall, rss = snicheck("check-snippy", *argv, "--width", str(width), "--bounds", BOUNDS)
                digest = hashlib.sha256(out.encode()).hexdigest()[:12]
                verdict = out.splitlines()[0] if out else f"(exit {rc})"
                print(f"{name:<9} {width:>5} {wall:>7.2f} {rss:>8.1f}  {digest:<12}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
