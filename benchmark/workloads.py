"""Seeded request generation for the snicheck benchmark.

A workload is a list of requests.  Each request is one or more `snicheck`
command lines (run in process through `snicheck.cli.main`) plus the texts of
its input files.  Everything is derived from the seed, so one seed always
gives byte-identical requests.  Requests read and write fixed file names
(`SLOTS`) in one work directory: the request loop writes a request's inputs
just before it runs and reads its outputs back right after, both untimed.
Reusing names keeps file creation, which took 0.1-0.8 ms per file on the ext4
disk the benchmark was tuned on, out of both set-up and requests.

Traffic dimensions of the random programs: size, back-edge density (loops
make `spec`/`rb` cycles), number of high cells, word width, bounds, and the
share of loads that read the high variable (which sets how many searches end
early on a violation).  Programs get at most one loop: with two, about one
exhaustive `check-sni` in a thousand took 16-60 s, and a single such request
swamps a run.  The generator follows `tests/conftest.py`'s
`random_program` but lives here so the benchmark owns its inputs.

Corpus requests carry a hand-written expected answer (`KNOWN_ANSWERS`), taken
from the paper's running example and the README's acceptance criteria, not
from the output of the current code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# snicheck.ir.OPS, copied so that importing snicheck stays inside timed set-up
OPS = ("add", "sub", "mul", "lt", "eq", "and", "or")

WORKLOADS = ("sni-search", "alloc-fix", "sim-cube")

# Requests per second of `--seconds` (measured on a 2-core x86 box at the
# commit that introduced the benchmark).  The request count of a run is fixed
# by `--seconds` and this rate, never by elapsed time, so a run of a faster
# program does the same work in less time and work counters stay exact.
REQUEST_RATE = {"sni-search": 60.0, "alloc-fix": 13.0, "sim-cube": 45.0}
MIN_REQUESTS = 100

# Expected answers for corpus requests (paper running example, README
# acceptance criteria).  Checked on every run; a mismatch is a failed request.
KNOWN_ANSWERS = {
    "corpus-ra-source": "code_ra source is secure on the 42-vs-7 pair at steps=32,depth=3",
    "corpus-ra-target": "code_ra target is a violation whose directives contain spec followed by store stk 0",
    "corpus-ra-fix": "fix inserts exactly one instruction and the fixed target is secure on the 42-vs-7 pair",
    "corpus-dce-cube": "width-2 DCE snippy cube passes",
    "corpus-ra-cube-unfixed": "width-2 unfixed RA snippy cube fails",
    "corpus-ra-cube-fixed": "width-2 fixed RA snippy cube passes",
    "corpus-demo": "demo-codera reports ok: true",
}


SLOTS = ("program.sp", "state.init", "state2.init", "target.sp", "witness.txt",
         "alloc.sp", "alloc.witness", "fixed.sp", "fixed.witness")


@dataclass
class Request:
    rid: str
    kind: str
    argvs: list[list[str]]  # command lines; file arguments are slot paths
    inputs: dict[str, str]  # slot name -> text written before the request
    outputs: tuple[str, ...] = ()  # slot names read back after the request
    expect: str | None = None  # key into KNOWN_ANSWERS
    width: int = 8


@dataclass
class Workload:
    workdir: Path
    requests: list[Request] = field(default_factory=list)
    # requests whose inputs could not be built: (rid, exception type, message)
    setup_failures: list[tuple[str, str, str]] = field(default_factory=list)


def request_count(workload: str, seconds: int) -> int:
    return max(MIN_REQUESTS, round(seconds * REQUEST_RATE[workload]))


def traced_count(n_requests: int) -> int:
    """Requests in a traced run: the first third, at least MIN_REQUESTS."""
    return min(n_requests, max(MIN_REQUESTS, n_requests // 3))


# --- random programs -------------------------------------------------------------


P_BACK = 0.3  # chance that a branch jumps backwards, while no loop exists yet
P_HI = 0.5  # chance that a load or store addresses the high array


def random_program(rng: random.Random, n_instrs: int, n_regs: int, lo_size: int | None = None) -> str:
    """Program text over a low array `lo` (1-3 cells unless `lo_size` is
    given) and a one-cell high array `hi`.

    Branches keep one successor on the fall-through and send the other one
    backwards with probability P_BACK, making at most one loop, and forwards
    otherwise.  Loads and stores pick `hi` with probability P_HI.
    """
    regs = [f"r{i}" for i in range(n_regs)]
    lo = lo_size if lo_size is not None else rng.randint(1, 3)
    sizes = {"lo": lo, "hi": 1}
    lines = [f"mem lo {lo} low", "mem hi 1 high", "entry 0"]
    looped = False
    r = lambda: rng.choice(regs)
    for idx in range(n_instrs - 1):
        pc, succ = str(idx), str(idx + 1)
        kind = rng.randrange(8)
        var = "hi" if rng.random() < P_HI else "lo"
        addr = f"#{rng.randrange(sizes[var])}" if rng.random() < 0.4 else r()
        if kind == 0:
            lines.append(f"{pc}: nop -> {succ}")
        elif kind in (1, 2):
            lines.append(f"{pc}: {r()} = {r()} {rng.choice(OPS)} {r()} -> {succ}")
        elif kind == 3:
            lines.append(f"{pc}: load {r()} <- {var}[{addr}] -> {succ}")
        elif kind == 4:
            lines.append(f"{pc}: store {var}[{addr}] <- {r()} -> {succ}")
        elif kind == 5:
            back = rng.random() < P_BACK and not looped
            looped |= back
            other = rng.randrange(idx + 1) if back else rng.randrange(idx + 1, n_instrs)
            lines.append(f"{pc}: if {r()} ? {succ} : {other}")
        elif kind == 6:
            lines.append(f"{pc}: sfence -> {succ}")
        else:
            lines.append(f"{pc}: slh {r()} -> {succ}")
    lines.append(f"{n_instrs - 1}: ret")
    return "\n".join(lines) + "\n"


def random_state(rng: random.Random, program_text: str, width: int) -> str:
    """Initial-state text: a random word for every register and cell."""
    regs, cells = set(), []
    for line in program_text.splitlines():
        parts = line.split()
        if parts[0] == "mem":
            cells += [(parts[1], off) for off in range(int(parts[2]))]
        elif parts[0] != "entry":
            regs |= {t for t in parts[1:] if t[:1] == "r" and t[1:].isdigit()}
            regs |= {t.split("[")[1].rstrip("]") for t in parts if "[r" in t}
    out = [f"reg {x} {rng.randrange(1 << width)}" for x in sorted(regs)]
    out += [f"cell {v} {off} {rng.randrange(1 << width)}" for v, off in cells]
    return "\n".join(out) + "\n"


def with_high(state_text: str, value: int) -> str:
    """The same state with the high cell set to `value`."""
    keep = [l for l in state_text.splitlines() if not l.startswith("cell hi ")]
    return "\n".join(keep + [f"cell hi 0 {value}"]) + "\n"


# --- workload construction --------------------------------------------------------


def _mix(rng: random.Random, n: int, shares: list[tuple[str, float]]) -> list[str]:
    """Exactly-proportioned, seed-shuffled list of request kinds."""
    kinds: list[str] = []
    for kind, share in shares:
        kinds += [kind] * round(n * share)
    kinds = (kinds + [shares[0][0]] * n)[:n]
    rng.shuffle(kinds)
    return kinds


def build(workload: str, seed: int, n_requests: int, workdir: Path, corpus: Path) -> Workload:
    """Generate the requests of one workload (in memory)."""
    rng = random.Random(f"{workload}:{seed}")
    slot = lambda name: str(workdir / name)
    read = lambda name: (corpus / name).read_text()
    builder = {"sni-search": _sni_search, "alloc-fix": _alloc_fix, "sim-cube": _sim_cube}[workload]
    wl = Workload(workdir)
    corpus_reqs = builder(rng, n_requests, slot, read, wl)
    # corpus requests sit at seed-chosen positions among the random ones
    for req in corpus_reqs:
        wl.requests.insert(rng.randrange(len(wl.requests) + 1), req)
    return wl


def _sni_search(rng, n, slot, read, wl: Workload) -> list[Request]:
    width, bounds = 2, "steps=16,depth=3"
    common = ["--width", str(width), "--format", "json"]
    corpus_reqs = _sni_corpus(slot, read)
    kinds = _mix(rng, n - len(corpus_reqs), [("sni-exhaustive", 0.7), ("sni-pair", 0.15), ("explore", 0.15)])
    for idx, kind in enumerate(kinds):
        prog = random_program(rng, n_instrs=10, n_regs=4)
        state = random_state(rng, prog, width)
        inputs = {"program.sp": prog, "state.init": state}
        argv = [slot("program.sp"), "--state", slot("state.init")]
        if kind == "sni-exhaustive":
            argv = ["check-sni", *argv, "--pairs", "exhaustive", "--bounds", bounds]
        elif kind == "sni-pair":
            hi1, hi2 = rng.sample(range(1 << width), 2)
            inputs["state.init"], inputs["state2.init"] = with_high(state, hi1), with_high(state, hi2)
            argv = ["check-sni", *argv, "--state2", slot("state2.init"), "--bounds", bounds]
        else:
            argv = ["explore", *argv, "--bounds", "steps=8,depth=2"]
        wl.requests.append(Request(f"sni-search/{idx:04d}", kind, [argv + common], inputs, width=width))
    return corpus_reqs


def _sni_corpus(slot, read) -> list[Request]:
    pair = {"state.init": read("code_ra.init"), "state2.init": read("code_ra_alt.init")}
    argv = ["check-sni", slot("program.sp"), "--state", slot("state.init"), "--state2", slot("state2.init"),
            "--bounds", "steps=32,depth=3", "--width", "8", "--format", "json"]
    return [
        Request(f"sni-search/{key}", "sni-pair", [argv], {"program.sp": read(f"code_ra_{side}.sp"), **pair},
                expect=key)
        for key, side in (("corpus-ra-source", "source"), ("corpus-ra-target", "target"))
    ]


# Program sizes double from 10 to 160 with the largest rare; every block of 24
# requests has exactly these sizes, so the size mix never varies with the
# seed, and the median and 90th percentile fall inside a size class rather
# than on a boundary between two.  n=640 (about 15 s per request) and larger
# sizes are left out for run time only.
ALLOC_SIZES = (10,) * 7 + (20,) * 7 + (40,) * 5 + (80,) * 4 + (160,)


def _alloc_fix(rng, n, slot, read, wl: Workload) -> list[Request]:
    outs = ["--out-target", slot("fixed.sp"), "--out-witness", slot("fixed.witness"), "--format", "json"]
    corpus_reqs = [
        Request(
            "alloc-fix/corpus-ra-fix", "fix",
            [["fix", "--source", slot("program.sp"), "--target", slot("alloc.sp"),
              "--witness", slot("alloc.witness"), *outs]],
            {"program.sp": read("code_ra_source.sp"), "alloc.sp": read("code_ra_target.sp"),
             "alloc.witness": read("code_ra.witness"),
             "state.init": read("code_ra.init"), "state2.init": read("code_ra_alt.init")},
            outputs=("fixed.sp", "fixed.witness"), expect="corpus-ra-fix",
        )
    ]
    argvs = [
        ["allocate", slot("program.sp"), "--k", "3", "--out-target", slot("alloc.sp"),
         "--out-witness", slot("alloc.witness"), "--format", "json"],
        ["fix", "--source", slot("program.sp"), "--target", slot("alloc.sp"), "--witness", slot("alloc.witness"),
         *outs],
    ]
    sizes = [size for _ in range(0, n, len(ALLOC_SIZES)) for size in rng.sample(ALLOC_SIZES, len(ALLOC_SIZES))]
    for idx, size in enumerate(sizes[: n - len(corpus_reqs)]):
        prog = random_program(rng, n_instrs=size, n_regs=6)
        wl.requests.append(Request(
            f"alloc-fix/{idx:04d}-n{size}", "alloc-fix", argvs, {"program.sp": prog},
            outputs=("alloc.sp", "alloc.witness", "fixed.sp", "fixed.witness"),
        ))
    return corpus_reqs


def _sim_cube(rng, n, slot, read, wl: Workload) -> list[Request]:
    from snicheck import poison, regalloc
    from snicheck.ir import parse_program, print_program

    width = 2
    common = ["--width", str(width), "--bounds", "steps=16,depth=2", "--format", "json"]
    corpus_reqs = _sim_corpus(slot, read)
    kinds = _mix(
        rng, n - len(corpus_reqs),
        [("cube-dce", 0.35), ("cube-ra", 0.35), ("sim-dce", 0.15), ("sim-ra", 0.15)],
    )
    for idx, kind in enumerate(kinds):
        rid = f"sim-cube/{idx:04d}-{kind}"
        prog = random_program(rng, n_instrs=10, n_regs=4, lo_size=rng.randint(1, 2))
        cmd = "check-snippy" if kind.startswith("cube") else "check-sim"
        argv = [cmd, "--witness-kind", kind.split("-")[1], "--source", slot("program.sp"), "--state", slot("state.init")]
        if kind.endswith("dce"):
            inputs = {"program.sp": prog, "state.init": random_state(rng, prog, width)}
        else:
            # RA witnesses are allocated (and, for the cube, fixed) here in
            # set-up, so the request loop times only the simulation checks
            try:
                w = regalloc.allocate(parse_program(prog), 3)
                if kind == "cube-ra":
                    w, _ = poison.fix_ra(w, width)
            except Exception as e:  # a set-up failure is a failed request
                wl.setup_failures.append((rid, type(e).__name__, str(e)))
                continue
            target = print_program(w.target)
            inputs = {"program.sp": prog, "target.sp": target, "witness.txt": regalloc.serialize_ra_witness(w),
                      "state.init": random_state(rng, target, width)}
            argv += ["--target", slot("target.sp"), "--witness", slot("witness.txt")]
        wl.requests.append(Request(rid, kind, [argv + common], inputs, width=width))
    return corpus_reqs


def _sim_corpus(slot, read) -> list[Request]:
    from snicheck import poison, regalloc
    from snicheck.ir import parse_program, print_program

    common = ["--state", slot("state.init"), "--width", "2", "--bounds", "steps=24,depth=2", "--format", "json"]
    ra_src, ra_tgt, ra_wit = read("code_ra_w2_source.sp"), read("code_ra_w2_target.sp"), read("code_ra_w2.witness")
    fixed, _ = poison.fix_ra(regalloc.parse_ra_witness(ra_wit, parse_program(ra_src), parse_program(ra_tgt)), 2)
    ra_argv = ["check-snippy", "--witness-kind", "ra", "--source", slot("program.sp"), "--target", slot("target.sp"),
               "--witness", slot("witness.txt"), *common]
    ra_inputs = lambda t, w: {"program.sp": ra_src, "target.sp": t, "witness.txt": w, "state.init": read("code_ra_w2.init")}
    return [
        Request("sim-cube/corpus-dce-cube", "cube-dce",
                [["check-snippy", "--witness-kind", "dce", "--source", slot("program.sp"), *common]],
                {"program.sp": read("code_dce_w2_source.sp"), "state.init": read("code_dce_w2.init")},
                expect="corpus-dce-cube", width=2),
        Request("sim-cube/corpus-ra-cube-unfixed", "cube-ra", [ra_argv], ra_inputs(ra_tgt, ra_wit),
                expect="corpus-ra-cube-unfixed", width=2),
        Request("sim-cube/corpus-ra-cube-fixed", "cube-ra", [ra_argv],
                ra_inputs(print_program(fixed.target), regalloc.serialize_ra_witness(fixed)),
                expect="corpus-ra-cube-fixed", width=2),
        Request("sim-cube/corpus-demo", "demo", [["demo-codera", "--format", "json"]], {}, expect="corpus-demo"),
    ]
