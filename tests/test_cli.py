import argparse
import json
import os
import random
import re
import runpy
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import snicheck
from snicheck.cli import COMMANDS, CORPUS, FLAGS, _parse, _read_args, build_parser, corpus_path, main


def run_cli(*args, capsys=None):
    code = main(list(args))
    out = capsys.readouterr().out if capsys else ""
    return code, out


C = lambda name: str(corpus_path(name))


def run_python(*args):
    """`python ARGS` in a subprocess that imports the same package as this
    test run, with or without `PYTHONPATH` set."""
    path = [str(Path(snicheck.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(module, *args):
    return run_python("-m", module, *args)


# the top-level modules that `import snicheck.cli` adds to a fresh interpreter
CLI_IMPORTS = set("__future__ _json argparse gettext json".split())

# the package modules that `import snicheck.cli` loads, and every command's
# run on corpus inputs
CLI_MODULES = {"cli", "ir"}

_SPEC = {"semantics"}
_SNI = _SPEC | {"security"}
_LIVE = {"liveness", "dataflow"}
_RA = _LIVE | {"regalloc"}
_POISON = _RA | {"poison"}

# command: the package modules it loads beyond CLI_MODULES.  Every command
# has a row.
COMMAND_MODULES = {
    "run": _SPEC, "explore": _SPEC, "check-safe": _SNI, "check-sni": _SNI,
    "dce": _LIVE, "liveness": _LIVE,
    "allocate": _RA, "validate-ra": _RA,
    "poison-analyze": _POISON, "check-typable": _POISON, "fix": _POISON,
    # product-run steps the poison product; demo-codera also checks SNI
    "product-run": _POISON | _SPEC, "demo-codera": _POISON | _SNI,
    # check-sim runs a DCE witness, check-snippy an RA one (`scripts/startup.py`)
    "check-sim": _LIVE | _SNI | {"simulation"}, "check-snippy": _POISON | _SNI | {"simulation"},
}

# the commands that never step a speculative state
COMPILE_SIDE = ("dce", "liveness", "allocate", "validate-ra", "poison-analyze", "check-typable", "fix")

STARTUP_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "startup.py"


def test_cli_import_loads_the_pinned_modules():
    """Every module the package loads is paid for by each run in memory and
    start-up time, whether or not the run uses it, so a new import has to
    change these sets.  `import snicheck.cli` loads `ir` alone, and each
    command loads its own modules when it runs: no compile-side command
    loads `semantics` or `security`.  Every command runs in one
    interpreter, from a fresh import of the package each (as the
    benchmark's set-up does), so a handler that lost one of its imports
    fails here.  No command may load
    `dataclasses`, which brings `inspect`, `ast`, `dis` and `tokenize`.  The
    corpus inputs are those `scripts/startup.py` times."""
    code = (
        "import sys; before = set(sys.modules); import snicheck.cli; "
        "print(*sorted(m for m in set(sys.modules) - before if '.' not in m)); "
        "print(*sorted(m for m in sys.modules if m.startswith('snicheck.')))"
    )
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr
    top, package = r.stdout.splitlines()
    assert set(top.split()) - {"snicheck"} == CLI_IMPORTS
    assert set(package.split()) == {f"snicheck.{m}" for m in CLI_MODULES}

    assert set(COMMAND_MODULES) == set(COMMANDS)
    assert not set().union(*(COMMAND_MODULES[cmd] for cmd in COMPILE_SIDE)) & _SNI
    corpus_args = runpy.run_path(str(STARTUP_SCRIPT))["command_args"](CORPUS)
    runs = json.dumps({cmd: [cmd, *corpus_args[cmd]] for cmd in COMMANDS})
    code = (
        "import contextlib, io, json, sys\n"
        f"loaded = {{}}\nfor cmd, argv in json.loads({runs!r}).items():\n"
        "    for m in [m for m in sys.modules if m == 'snicheck' or m.startswith('snicheck.')]:\n"
        "        del sys.modules[m]\n"
        "    import snicheck.cli\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        rc = snicheck.cli.main(argv)\n"
        "    loaded[cmd] = [rc, sorted(m[9:] for m in sys.modules if m.startswith('snicheck.'))]\n"
        "print(json.dumps(loaded))\n"
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    r = run_python("-c", code)
    assert r.returncode == 0, r.stderr
    out, heavy = r.stdout.splitlines()
    assert heavy == ""
    loaded = json.loads(out)
    assert {cmd: rc for cmd, (rc, _) in loaded.items() if rc == 3} == {}, r.stderr
    assert {cmd: set(mods) for cmd, (_, mods) in loaded.items()} == {
        cmd: CLI_MODULES | mods for cmd, mods in COMMAND_MODULES.items()
    }


def test_run_empty_directives(tmp_path, capsys):
    d = tmp_path / "empty.d"
    d.write_text("")
    code, out = run_cli(
        "run", C("code_ra_target.sp"), "--state", C("code_ra.init"), "--directives", str(d),
        capsys=capsys,
    )
    assert code == 0


def test_run_stuck_rollback(tmp_path, capsys):
    d = tmp_path / "rb.d"
    d.write_text("rb\n")
    code, out = run_cli(
        "run", C("code_ra_target.sp"), "--state", C("code_ra.init"), "--directives", str(d),
        capsys=capsys,
    )
    assert code == 1 and "stuck at step 0" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.sp"
    bad.write_text("entry a\na: wat\n")
    code, _ = run_cli("run", str(bad), capsys=capsys)
    assert code == 3


def test_check_sni_pair_exit_codes(capsys):
    code, out = run_cli(
        "check-sni", C("code_ra_target.sp"),
        "--state", C("code_ra.init"), "--state2", C("code_ra_alt.init"),
        "--format", "json", capsys=capsys,
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["schema"] == 1 and payload["verdict"] == "violation"
    assert "store stk 0" in payload["directives"]

    code, out = run_cli(
        "check-sni", C("code_ra_source.sp"),
        "--state", C("code_ra.init"), "--state2", C("code_ra_alt.init"),
        "--format", "json", capsys=capsys,
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "secure"


def test_violation_is_replayable_via_run(tmp_path, capsys):
    code, out = run_cli(
        "check-sni", C("code_ra_target.sp"),
        "--state", C("code_ra.init"), "--state2", C("code_ra_alt.init"),
        "--format", "json", capsys=capsys,
    )
    dirs = json.loads(out)["directives"]
    script = tmp_path / "attack.d"
    script.write_text("\n".join(dirs) + "\n")
    code, out = run_cli(
        "run", C("code_ra_target.sp"), "--state", C("code_ra.init"),
        "--directives", str(script), capsys=capsys,
    )
    assert code == 0


def test_dce_emits_program_and_map(tmp_path, capsys):
    out_p = tmp_path / "t.sp"
    out_m = tmp_path / "t.map"
    code, out = run_cli(
        "dce", C("code_dce_source.sp"), "--out", str(out_p), "--map-out", str(out_m),
        capsys=capsys,
    )
    assert code == 0
    assert "2: nop -> 3" in out_p.read_text()
    assert "2 replaced" in out_m.read_text()
    assert "1 unchanged" in out_m.read_text()


def test_validate_fix_check_typable_flow(tmp_path, capsys):
    args = [
        "--source", C("code_ra_source.sp"),
        "--target", C("code_ra_target.sp"),
        "--witness", C("code_ra.witness"),
    ]
    code, _ = run_cli("validate-ra", *args, capsys=capsys)
    assert code == 0
    code, out = run_cli("check-typable", *args, "--format", "json", capsys=capsys)
    assert code == 1
    assert "(4,f)" in json.loads(out)["violations"][0]

    ft, fw = tmp_path / "fixed.sp", tmp_path / "fixed.witness"
    code, _ = run_cli("fix", *args, "--out-target", str(ft), "--out-witness", str(fw), capsys=capsys)
    assert code == 0
    fixed_args = ["--source", C("code_ra_source.sp"), "--target", str(ft), "--witness", str(fw)]
    code, _ = run_cli("check-typable", *fixed_args, capsys=capsys)
    assert code == 0
    code, _ = run_cli("validate-ra", *fixed_args, capsys=capsys)
    assert code == 0


def test_poison_commands_refuse_an_invalid_witness(tmp_path, capsys):
    """`check-typable`, `poison-analyze`, `product-run` and the RA
    simulation checks judge only witnesses that `validate-ra` accepts;
    otherwise they exit 3 with its first diagnostic, structural or not.  On
    the first witness `product-run` would otherwise step a poison store into
    a slot that no register is relocated to, and the simulation checks
    would fail it."""
    args = ["--source", C("code_ra_source.sp"), "--target", C("code_ra_target.sp"), "--witness", C("code_ra.witness")]
    ft, fw = tmp_path / "fixed.sp", tmp_path / "fixed.witness"
    assert run_cli("fix", *args, "--out-target", str(ft), "--out-witness", str(fw), capsys=capsys)[0] == 0
    fw.write_text(fw.read_text().replace("stk#0", "stk#7"))
    phi = tmp_path / "phi.witness"
    phi.write_text(corpus_path("code_ra.witness").read_text().replace("phi: 2 -> c", "phi: 2 -> d"))
    attack = tmp_path / "attack.d"
    attack.write_text("step\nstep\nstep\nspec\nstore stk 0\nstep\nif\n")
    run = ["--state", C("code_ra.init"), "--directives", str(attack)]
    sim = ["--witness-kind", "ra", "--state", C("code_ra.init")]
    for target, witness, first in ((ft, fw, "[obeying-liveness] c: slot 7 outside stk size 1"),
                                   (C("code_ra_target.sp"), phi, "[structure] : phi must be injective")):
        bad = ["--source", C("code_ra_source.sp"), "--target", str(target), "--witness", str(witness)]
        code, out = run_cli("validate-ra", *bad, capsys=capsys)
        assert code == 1 and out.startswith(first + "\n")
        for cmd, extra in (("check-typable", []), ("poison-analyze", []), ("product-run", run),
                           ("check-sim", sim), ("check-snippy", sim)):
            assert main([cmd, *bad, *extra]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: invalid witness: {first}\n"


def test_fix_refuses_an_invalid_witness_that_needs_no_fence(tmp_path, capsys):
    """`fix` validates its input even when the analysis finds nothing to
    repair.  The edited witness relocates `a` at pc 1 to a register that the
    target never writes, so `fix` must not call it already typable."""
    src, ot, ow = tmp_path / "s.sp", tmp_path / "t.sp", tmp_path / "w.txt"
    src.write_text(
        "mem hi 1 high\nmem lo 2 low\nentry 0\n"
        "0: load a <- hi[#0] -> 1\n1: b = a add a -> 2\n2: store lo[#1] <- b -> 3\n3: ret\n"
    )
    assert run_cli("allocate", str(src), "--k", "2", "--out-target", str(ot), "--out-witness", str(ow), capsys=capsys)[0] == 0
    assert "rho 1: a -> a\n" in ow.read_text()
    ow.write_text(ow.read_text().replace("rho 1: a -> a\n", "rho 1: a -> h9\n"))
    args = ["--source", str(src), "--target", str(ot), "--witness", str(ow)]
    assert run_cli("validate-ra", *args, capsys=capsys)[0] == 1
    for cmd in ("check-typable", "fix"):
        assert main([cmd, *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid witness: [instruction-matching] 0,0: load mismatch under relocation\n"


@pytest.mark.parametrize("cmd, verdict", [("explore", "terminated behaviours: 1\n"), ("check-sni", "secure (pairs=1, truncated=0)\n")])
def test_long_straight_line_gets_a_verdict(tmp_path, capsys, cmd, verdict):
    """Searches deeper than Python's recursion limit still finish."""
    prog = tmp_path / "long.sp"
    prog.write_text("mem h 1 high\nentry 0\n" + "".join(f"{i}: nop -> {i + 1}\n" for i in range(1500)) + "1500: ret\n")
    code, out = run_cli(cmd, str(prog), "--bounds", "steps=3000,depth=3", "--width", "1", capsys=capsys)
    assert code == 0 and out.startswith(verdict)


def test_allocate_writes_witness(tmp_path, capsys):
    ot, ow = tmp_path / "t.sp", tmp_path / "w.txt"
    code, _ = run_cli(
        "allocate", C("code_ra_source.sp"), "--k", "4",
        "--out-target", str(ot), "--out-witness", str(ow), capsys=capsys,
    )
    assert code == 0
    code, _ = run_cli(
        "validate-ra", "--source", C("code_ra_source.sp"),
        "--target", str(ot), "--witness", str(ow), capsys=capsys,
    )
    assert code == 0


def test_allocate_dead_move_gives_a_valid_witness(tmp_path, capsys):
    src, ot, ow = tmp_path / "s.sp", tmp_path / "t.sp", tmp_path / "w.txt"
    src.write_text("entry 0\n0: move r1 <- r2 -> 1\n1: ret\n")
    code, _ = run_cli(
        "allocate", str(src), "--k", "2", "--out-target", str(ot), "--out-witness", str(ow), capsys=capsys,
    )
    assert code == 0
    code, _ = run_cli("validate-ra", "--source", str(src), "--target", str(ot), "--witness", str(ow), capsys=capsys)
    assert code == 0


def test_check_snippy_cli_width2(capsys):
    code, _ = run_cli(
        "check-snippy", "--witness-kind", "ra",
        "--source", C("code_ra_w2_source.sp"), "--target", C("code_ra_w2_target.sp"),
        "--witness", C("code_ra_w2.witness"), "--state", C("code_ra_w2.init"),
        "--width", "2", "--bounds", "steps=24,depth=2", capsys=capsys,
    )
    assert code == 1
    code, _ = run_cli(
        "check-snippy", "--witness-kind", "dce",
        "--source", C("code_dce_w2_source.sp"), "--state", C("code_dce_w2.init"),
        "--width", "2", "--bounds", "steps=24,depth=2", capsys=capsys,
    )
    assert code == 0


def test_check_snippy_checks_the_simulation_from_every_high_assignment(tmp_path, capsys):
    """After `fix` inserts `slh r2`, the two-pair condition holds and the
    simulation holds from the all-zero state, but not from the state with
    `hi[0] = 1`, where the source stores out of bounds.  `check-snippy`
    starts from both, so it fails."""
    src, tgt, wit = tmp_path / "p.sp", tmp_path / "t.sp", tmp_path / "w.txt"
    src.write_text("mem lo 3 low\nmem hi 1 high\nentry 0\n"
                   "0: load r2 <- hi[r1] -> 1\n1: store hi[r2] <- r1 -> 2\n2: ret\n")
    assert run_cli("allocate", str(src), "--k", "2", "--out-target", str(tgt), "--out-witness", str(wit),
                   capsys=capsys)[0] == 0
    args = ["--source", str(src), "--target", str(tgt), "--witness", str(wit)]
    code, out = run_cli("fix", *args, "--out-target", str(tgt), "--out-witness", str(wit), capsys=capsys)
    assert code == 0 and out.startswith("inserted slh at fx0 before 1 ")
    hi = tmp_path / "hi.init"
    hi.write_text("cell hi 0 1\n")
    check = ["--witness-kind", "ra", *args, "--width", "2", "--bounds", "steps=16,depth=2"]
    assert run_cli("check-sim", *check, capsys=capsys) == (0, "pass (intervals=2, truncated=0)\n")
    code, out = run_cli("check-sim", *check, "--state", str(hi), capsys=capsys)
    assert code == 1 and out.endswith("\ninterval end not related\n")
    assert run_cli("check-safe", str(src), "--state", str(hi), "--width", "2", capsys=capsys) == (1, "unsafe\n")
    code, out = run_cli("check-snippy", *check, capsys=capsys)
    assert code == 1 and out.endswith("\ninterval end not related\n")


def test_json_output_deterministic(capsys):
    args = [
        "explore", C("code_dce_source.sp"), "--state", C("code_dce.init"),
        "--bounds", "steps=8,depth=2", "--format", "json",
    ]
    _, out1 = run_cli(*args, capsys=capsys)
    _, out2 = run_cli(*args, capsys=capsys)
    assert out1 == out2


def test_demo_codera(capsys):
    code, out = run_cli("demo-codera", capsys=capsys)
    assert code == 0
    assert "spec ; store stk 0" in out
    assert "(4,f)" in out
    assert "inserted sfence" in out
    assert "fixed target verdict: secure" in out


def test_console_entry_point():
    r = run_module("snicheck.cli", "demo-codera", "--format", "json")
    assert r.returncode == 0
    assert json.loads(r.stdout)["ok"] is True


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 3
    assert main([]) == 3


def _through_top_level(argv, capsys):
    """The top-level parser on `argv` alone: (namespace or exit code, stdout, stderr)."""
    try:
        got = vars(build_parser().parse_args(argv))
    except SystemExit as e:
        got = e.code
    captured = capsys.readouterr()
    return got, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["--help"], ["no-such-command"], ["check-sni", "--help"], ["check-snippy", "-h"], ["check-sni"],
    ["check-sni", "p.sp", "--bogus"], ["check-sni", "p.sp", "--bogus", "x", "--width", "2"],
    ["check-sni", "p.sp", "--width", "0"], ["check-sni", "p.sp", "--width"], ["check-sni", "a", "b"],
    ["check-sni", "p.sp", "--state2", "a", "--pairs", "random:2"], ["dce", "p.sp", "--width", "4"],
    ["demo-codera", "extra"], ["check-sni", "-h", "extra"], ["run", "--", "p.sp"],
    ["check-sni", "p.sp", "--width", "2", "--bounds", "steps=3,depth=1", "--format", "json"],
    ["check-snippy", "--witness-kind", "dce", "--source", "s.sp", "--form", "json"], ["demo-codera"],
    ["check-sni", "p.sp", "--width=2"], ["check-sni", "p.sp", "--seed", "-5"], ["check-sni", "-x"],
    ["check-sni", "p.sp", "--width", "2", "--width", "4"], ["allocate", "p.sp"],
    ["check-sni", "p.sp", "--bounds", "steps=x"],
    ["check-sni", "p.sp", "--pairs", "random:0"], ["check-sim", "--witness-kind", "x", "--source", "s.sp"],
    ["liveness", "p.sp", "--exit-fact", "cells", "--format", "json"],
])
def test_subcommand_dispatch_matches_the_top_level_parser(argv, capsys):
    """`main` reads a well-formed command line without the parser and hands
    anything else to it; the namespace, the help and usage text and the exit
    code are the top-level parser's."""
    assert _through_parse(argv, capsys) == _through_top_level(argv, capsys)


def _through_parse(argv, capsys):
    """`cli._parse` on `argv`: (namespace or exit code, stdout, stderr)."""
    try:
        got = vars(_parse(argv))
    except SystemExit as e:
        got = e.code
    captured = capsys.readouterr()
    return got, captured.out, captured.err


# values each typed flag is read with: (accepted, refused by its type or choices)
FLAG_VALUES = {
    "--pairs": (["exhaustive", "random:2"], ["random:0", "random", "all"]),
    "--seed": (["0", "7"], ["x", "1.5"]),
    "--width": (["1", "2", "8"], ["0", "x"]),
    "--bounds": (["steps=3,depth=1", "depth=2", "steps=9"], ["steps=x", "foo=1", "steps=0"]),
    "--steps": (["5", "32"], ["0", "x"]),
    "--k": (["3", "1"], ["x", ""]),
    "--exit-fact": (["full", "cells"], ["x", "Full"]),
    "--witness-kind": (["dce", "ra"], ["x", "DCE"]),
    "--format": (["text", "json"], ["x", "yaml"]),
}
FILES = ["p.sp", "s.init", "a b.txt", "", "x=1", "out/w"]


def _well_formed(rng, cmd):
    """A command line of `cmd` in the one form `_read_args` reads (some of its
    flags in random order, every required one, at most one of each group),
    and the index of its positional (None without one)."""
    _, positional, groups = COMMANDS[cmd]
    pairs = []
    for group in (*groups, "--format"):
        flag = rng.choice(group.split("|"))
        name = flag.rstrip("?")
        if (FLAGS[name].get("required") and not flag.endswith("?")) or rng.random() < 0.5:
            pairs.append([name, rng.choice(FLAG_VALUES.get(name, (FILES,))[0])])
    rng.shuffle(pairs)
    argv = [cmd, *(tok for pair in pairs for tok in pair)]
    if not positional:
        return argv, None
    at = 1 + 2 * rng.randint(0, len(pairs))
    argv.insert(at, rng.choice(FILES))
    return argv, at


FALLBACKS = ("abbreviation", "equals", "repeated", "missing value", "dash value", "dash file", "double dash",
             "both of a group", "dropped flag", "missing positional", "extra positional", "refused value", "help",
             "unknown command", "unread flag")


def _fallback(rng, argv, at):
    """`argv` from `_well_formed`, its positional at `at`, changed by one
    edit that (mostly) takes it out of the form `_read_args` reads."""
    argv = list(argv)
    if not any(a.startswith("--") for a in argv):
        argv += ["--format", "json"]
    i = rng.choice([i for i, a in enumerate(argv) if a.startswith("--")])
    flag, value = argv[i], argv[i + 1]
    edit = rng.choice(FALLBACKS)
    if edit == "abbreviation":
        argv[i] = flag[:rng.randint(2, len(flag) - 1)]
    elif edit == "equals":
        argv[i:i + 2] = [f"{flag}={value}"]
    elif edit == "repeated":
        argv += [flag, rng.choice([v for v in FLAG_VALUES.get(flag, (FILES,))[0] + FILES if v != value])]
    elif edit == "missing value":
        del argv[i + 1]
    elif edit == "dash value":
        argv[i + 1] = rng.choice(["-5", "-x", "-"])
    elif edit == "dash file":
        argv.insert(rng.randint(1, len(argv)), rng.choice(["-x", "-"]))
    elif edit == "double dash":
        argv.insert(rng.randint(1, len(argv)), "--")
    elif edit == "both of a group":  # a check-sni line with its one group's two flags
        argv = _well_formed(rng, "check-sni")[0]
        for flag in ("--state2", "--pairs"):
            if flag in argv:
                del argv[argv.index(flag):argv.index(flag) + 2]
        both = [["--state2", rng.choice(FILES)], ["--pairs", rng.choice(FLAG_VALUES["--pairs"][0])]]
        rng.shuffle(both)
        argv[1:1] = both[0] + both[1]
    elif edit == "dropped flag":
        del argv[i:i + 2]
    elif edit == "missing positional" and at is not None:
        del argv[at]
    elif edit == "extra positional":
        argv.insert(rng.randint(1, len(argv)), "extra.sp")
    elif edit == "refused value":
        name = rng.choice(list(FLAG_VALUES))
        argv += [name, rng.choice(FLAG_VALUES[name][1])]
    elif edit == "help":
        argv.insert(rng.randint(0, len(argv)), rng.choice(["-h", "--help"]))
    elif edit == "unknown command":
        argv[0] = rng.choice(["check", "no-such-command", "", "CHECK-SNI"])
    elif edit == "unread flag":
        taken = {f.rstrip("?") for group in COMMANDS[argv[0]][2] for f in group.split("|")}
        argv += [rng.choice(sorted(set(FLAGS) - taken - {"--format"})), "2"]
    return argv


def test_reader_matches_the_parser_on_random_command_lines(capsys):
    """On 2,000 seeded command lines of every command, half well formed in
    random flag order and half edited out of that form, `_parse` gives the
    top-level parser's namespace, or its exit code, stdout and stderr; the
    well-formed half is read without the parser."""
    rng = random.Random(2024)
    for case in range(2000):
        argv, at = _well_formed(rng, rng.choice(list(COMMANDS)))
        if case % 2:
            argv = _fallback(rng, argv, at)
        else:
            assert _read_args(argv) is not None, argv
        assert _through_parse(argv, capsys) == _through_top_level(argv, capsys), argv


def test_a_well_formed_command_line_never_builds_the_parser(capsys):
    build_parser.cache_clear()
    code = main(["check-sni", C("code_ra_target.sp"), "--state", C("code_ra.init"), "--width", "8"])
    assert code == 1 and capsys.readouterr().out.startswith("violation")
    assert build_parser.cache_info().misses == 0


def test_unset_bounds_and_width_read_as_their_defaults():
    """`--bounds` defaults to the text `steps=32,depth=3`, which both parse
    routes convert through `_parse_bounds`: every command that takes
    `--bounds` or `--width` reads `Bounds(32, 3)` and 8 when neither is given."""
    from snicheck.semantics import Bounds

    checked = set()
    for cmd, (_, positional, groups) in COMMANDS.items():
        names = {flag.rstrip("?") for group in groups for flag in group.split("|")}
        argv = [cmd, *(["p.sp"] if positional else [])]
        for flag in (flag for group in groups for flag in group.split("|")):
            if FLAGS[flag.rstrip("?")].get("required") and not flag.endswith("?"):
                argv += [flag, FLAG_VALUES.get(flag, (FILES,))[0][0]]
        for args in (_read_args(argv), build_parser().parse_args(argv)):
            if "--bounds" in names:
                assert type(args.bounds) is Bounds and args.bounds == Bounds(32, 3), argv
                checked.add(cmd)
            if "--width" in names:
                assert args.width == 8, argv
                checked.add(cmd)
    assert checked == {"run", "explore", "check-safe", "check-sni", "product-run", "check-sim", "check-snippy"}


@pytest.mark.parametrize("bounds, reason", [
    ("steps=0", "bounds must be >= 1"),
    ("depth=-1", "bounds must be >= 1"),
    ("steps=x", "bad bounds component 'steps=x'"),
    ("foo=1", "bad bounds component 'foo=1'"),
    ("steps=5,depth=", "bad bounds component 'depth='"),
])
def test_bounds_errors_give_their_reason(bounds, reason, capsys):
    code = main(["explore", C("code_dce_source.sp"), "--bounds", bounds])
    err = capsys.readouterr().err
    assert code == 3
    assert f"argument --bounds: {reason}\n" in err and "_parse_bounds" not in err


def test_bounded_secure_exits_inconclusive(tmp_path, capsys):
    """A looping program truncated by the step bound reports secure-up-to-
    bounds through exit code 2."""
    alt = tmp_path / "alt.init"
    alt.write_text(corpus_path("code_specv1.init").read_text().replace("cell sec 8 236", "cell sec 8 9"))
    code, out = run_cli(
        "check-sni", C("code_specv1.sp"),
        "--state", C("code_specv1.init"), "--state2", str(alt),
        "--bounds", "steps=16,depth=2", "--format", "json", capsys=capsys,
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "secure" and payload["truncated"] > 0


def test_violation_report_is_machine_replayable(capsys):
    code, out = run_cli(
        "check-sni", C("code_ra_target.sp"),
        "--state", C("code_ra.init"), "--state2", C("code_ra_alt.init"),
        "--format", "json", capsys=capsys,
    )
    payload = json.loads(out)
    assert "reg b 8" in payload["state1"]
    assert "cell sec 0 42" in payload["state1"] and "cell sec 0 7" in payload["state2"]
    assert payload["leaks1"][:-1] == payload["leaks2"][:-1]
    assert payload["leaks1"][-1] != payload["leaks2"][-1]


GOLDEN = __import__("pathlib").Path(__file__).parent / "golden"


def test_golden_demo_codera_json():
    r = run_module("snicheck.cli", "demo-codera", "--format", "json")
    assert r.stdout == (GOLDEN / "demo_codera.json").read_text()


def test_package_runs_as_a_module():
    r = run_module("snicheck", "demo-codera", "--format", "json")
    assert r.stdout == (GOLDEN / "demo_codera.json").read_text()


def test_golden_explore_json():
    r = run_module(
        "snicheck.cli", "explore", C("code_dce_source.sp"),
        "--state", C("code_dce.init"), "--bounds", "steps=8,depth=2", "--format", "json",
    )
    assert r.stdout == (GOLDEN / "explore_dce.json").read_text()


# (program, initial state, width) of each exhaustive `check-sni` golden case
SNI_EXHAUSTIVE = [
    ("code_specv1.sp", "code_specv1.init", 1),
    ("code_ra_source.sp", "code_ra.init", 8),
    ("code_ra_source.sp", "code_ra.init", 12),
    ("code_dce_source.sp", "code_dce.init", 12),
    ("code_ra_target.sp", "code_ra.init", 8),
]


def test_golden_sni_exhaustive_json(capsys):
    """Exhaustive `check-sni` reports on the corpus, through the certificate
    (the secure cases) and through the probe (the RA target's leak), are
    byte-identical to the recorded ones, exit codes included."""
    doc = {}
    for prog, init, width in SNI_EXHAUSTIVE:
        code, out = run_cli(
            "check-sni", C(prog), "--state", C(init), "--pairs", "exhaustive", "--width", str(width),
            "--format", "json", capsys=capsys,
        )
        doc[f"{prog} width {width}"] = {"exit": code, "output": json.loads(out)}
    assert json.dumps(doc, indent=1, sort_keys=True) + "\n" == (GOLDEN / "sni_exhaustive.json").read_text()


def test_check_sim_ra_requires_target_and_witness(capsys):
    code, _ = run_cli(
        "check-sim", "--witness-kind", "ra", "--source", C("code_ra_source.sp"),
        "--state", C("code_ra.init"), capsys=capsys,
    )
    assert code == 3


def test_runtime_error_exits_3_with_message(monkeypatch, capsys):
    from snicheck import poison

    def give_up(w, width=8):
        raise RuntimeError("fix iteration cap 7 exceeded; witness still not typable")

    monkeypatch.setattr(poison, "fix_ra", give_up)
    code = main([
        "fix", "--source", C("code_ra_source.sp"), "--target", C("code_ra_target.sp"),
        "--witness", C("code_ra.witness"),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: fix iteration cap 7 exceeded")
    assert "Traceback" not in captured.err and captured.out == ""


@pytest.mark.parametrize("cmd", [
    ["check-sim", "--witness-kind", "dce", "--source", C("code_dce_source.sp")],
    ["check-snippy", "--witness-kind", "dce", "--source", C("code_dce_w2_source.sp"),
     "--width", "2", "--bounds", "steps=24,depth=2"],
    ["product-run", "--source", C("code_ra_source.sp"), "--target", C("code_ra_target.sp"),
     "--witness", C("code_ra.witness")],
])
def test_state_defaults_to_all_zero(cmd, tmp_path, capsys):
    """Without `--state` a command starts where an empty state file puts it."""
    zero = tmp_path / "zero.init"
    zero.write_text("")
    with_file = run_cli(*cmd, "--state", str(zero), "--format", "json", capsys=capsys)
    without = run_cli(*cmd, "--format", "json", capsys=capsys)
    assert without == with_file
    assert without[0] == 0


@pytest.mark.parametrize("width", ["0", "-1"])
def test_width_below_one_is_a_usage_error(width, capsys):
    code = main(["check-sni", C("code_ra_source.sp"), "--width", width])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and "--width" in captured.err


@pytest.mark.parametrize("pairs", ["random:0", "random:-3", "bogus", "random", "random:", "random:x", "exhaustive:2"])
def test_check_sni_rejects_a_bad_pairs_spec(pairs, capsys):
    """No pair spec may give a vacuous verdict or silently fall back to the
    exhaustive check."""
    code = main(["check-sni", C("code_specv1.sp"), "--width", "1", "--pairs", pairs])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and f"argument --pairs: expected exhaustive or random:<n> with n >= 1, got {pairs!r}" in captured.err


@pytest.mark.parametrize("pairs, checked", [("random:1", 1), ("random:3", 3), ("exhaustive", 6)])
def test_check_sni_accepts_a_pairs_spec(pairs, checked, capsys):
    code, out = run_cli(
        "check-sni", C("code_ra_source.sp"), "--state", C("code_ra.init"), "--width", "2", "--pairs", pairs,
        capsys=capsys,
    )
    assert code == 0 and out == f"secure (pairs={checked}, truncated=0)\n"


def test_check_sni_refuses_a_pair_that_is_not_low_equivalent(tmp_path, capsys):
    """A `--state2` that differs from `--state` outside high memory names no
    pair the check can judge: exit 3 with a message, not `secure` with no
    pair checked."""
    s2 = tmp_path / "s2"
    s2.write_text("reg r0 5\n")
    code = main(["check-sni", C("code_ra_target.sp"), "--state", C("code_ra.init"), "--state2", str(s2)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: initial states are not low-equivalent: they must agree on pc, registers and low memory\n"


def test_check_sni_cut_flag_depends_on_the_route(tmp_path, capsys):
    """Whether a secure verdict reports cuts depends on the route that
    decided it, not on the program alone.  The taint certificate's state
    repeats after one turn of the loop, so exhaustive `check-sni` reports no
    cut; the explicit pair walks the same loop into its step bound; and the
    table-free pairwise reference counts 5 cuts.  This pins today's
    behaviour until the step bound may be lifted where the walk closes."""
    from conftest import ref_check_sni_exhaustive

    from snicheck.ir import parse_program
    from snicheck.semantics import Bounds, initial

    text = "mem h 1 high\nentry a\na: load x <- h[#0] -> b\nb: y = y add x -> c\nc: nop -> b\n"
    prog, s2 = tmp_path / "p.sp", tmp_path / "s2"
    prog.write_text(text)
    s2.write_text("cell h 0 1\n")
    args = ["check-sni", str(prog), "--width", "2", "--bounds", "steps=6,depth=2"]
    assert run_cli(*args, capsys=capsys) == (0, "secure (pairs=6, truncated=0)\n")
    assert run_cli(*args, "--state2", str(s2), capsys=capsys) == (2, "secure (pairs=1, truncated=1)\n")
    p = parse_program(text)
    want = ref_check_sni_exhaustive(p, initial(p), Bounds(6, 2), 2)
    assert (want.kind, want.pairs_checked, want.truncated) == ("secure", 6, 5)


@pytest.mark.parametrize("cells", [892, 893, 900])
def test_check_sni_refuses_a_pair_count_too_long_to_print(cells, tmp_path, capsys):
    """A certified program is secure with C(N, 2) pairs, N = 2 ** (high cells
    * width).  At width 8, 892 high cells give a count of 4,297 digits, which
    prints; 893 give 4,301, past `sys.get_int_max_str_digits()`, so the
    request exits 3 with a message, not with Python's conversion error."""
    import math

    prog = tmp_path / "p.sp"
    prog.write_text(f"mem h {cells} high\nentry a\na: ret\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code = main(["check-sni", str(prog), "--pairs", "exhaustive"])
    finally:
        sys.set_int_max_str_digits(limit)
    captured = capsys.readouterr()
    bits = 8 * cells
    if cells == 892:
        assert code == 0 and captured.out == f"secure (pairs={math.comb(1 << bits, 2)}, truncated=0)\n"
    else:
        assert code == 3 and captured.out == ""
        assert captured.err == (f"error: {cells} high cells at width 8 are {bits} bits, and C(2**{bits}, 2) pairs "
                                "would print more than 4300 digits (sys.get_int_max_str_digits())\n")


def test_exhaustive_check_sni_needs_no_digit_limit(monkeypatch, capsys):
    """Python before 3.10.7 has no `sys.get_int_max_str_digits`, and no limit
    on the digits an int prints."""
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    code = main(["check-sni", C("code_ra_source.sp"), "--state", C("code_ra.init")])
    assert code == 0 and capsys.readouterr().out.startswith("secure (pairs=")


@pytest.mark.parametrize("pairs", ["random:5", "exhaustive"])
def test_check_sni_rejects_state2_with_pairs(pairs, capsys):
    """`--state2` names the one pair to check and `--pairs` a pair source, so
    the two together are a usage error rather than one silently ignored."""
    code = main([
        "check-sni", C("code_ra_source.sp"), "--state", C("code_ra.init"),
        "--state2", C("code_ra_alt.init"), "--pairs", pairs,
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and "argument --pairs: not allowed with argument --state2" in captured.err


RA_FILES = ["--source", C("code_ra_source.sp"), "--target", C("code_ra_target.sp"), "--witness", C("code_ra.witness")]


@pytest.mark.parametrize("argv", [
    ["dce", C("code_dce_source.sp"), "--width", "4"],
    ["check-safe", C("code_dce_source.sp"), "--bounds", "steps=32,depth=1"],
    ["fix", *RA_FILES, "--width", "2"],
    ["demo-codera", "--bounds", "steps=1,depth=1"],
    ["explore", C("code_dce_source.sp"), "--seed", "1"],
])
def test_a_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    """A command accepts only the flags it reads, so none can look as if it
    changed a verdict that does not depend on it."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_check_safe_steps_bound_the_run(capsys):
    """`check-safe` runs without speculation, so its one bound is `--steps`."""
    argv = ["check-safe", C("code_dce_source.sp"), "--state", C("code_dce.init")]
    assert run_cli(*argv, capsys=capsys) == (0, "safe\n")
    assert run_cli(*argv, "--steps", "1", capsys=capsys) == (2, "bound-exhausted\n")
    assert main([*argv, "--steps", "0"]) == 3
    assert "must be at least 1" in capsys.readouterr().err


SEED_ONLY_SAMPLED = "--seed is read only with --pairs random:<n>"
TARGET_ONLY_RA = "--target and --witness are read only with --witness-kind ra"


@pytest.mark.parametrize("argv, message", [
    (["check-sni", C("code_ra_source.sp"), "--seed", "1"], SEED_ONLY_SAMPLED),
    (["check-sni", C("code_ra_source.sp"), "--pairs", "exhaustive", "--seed", "0"], SEED_ONLY_SAMPLED),
    (["check-sni", C("code_ra_source.sp"), "--state", C("code_ra.init"), "--state2", C("code_ra_alt.init"),
      "--seed", "1"], SEED_ONLY_SAMPLED),
    (["check-sim", "--witness-kind", "dce", "--source", C("code_dce_source.sp"), "--target", C("code_dce_source.sp")],
     TARGET_ONLY_RA),
    (["check-snippy", "--witness-kind", "dce", "--source", C("code_dce_w2_source.sp"), "--width", "2",
      "--witness", C("code_ra_w2.witness")], TARGET_ONLY_RA),
])
def test_a_flag_the_mode_does_not_read_is_refused(argv, message, capsys):
    """`--seed` is read only by sampled `check-sni`, and `--target` and
    `--witness` only by RA simulation checks; elsewhere each is refused."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and captured.err == f"error: {message}\n"


def test_check_sni_seed_picks_the_sampled_pairs(capsys):
    """Each sampled pair leaks on the RA target, so the report names the
    second state that the seed drew."""
    def report(seed):
        code, out = run_cli("check-sni", C("code_ra_target.sp"), "--state", C("code_ra.init"),
                            "--pairs", "random:1", "--seed", seed, "--format", "json", capsys=capsys)
        assert code == 1
        return out

    first = report("0")
    assert json.loads(first)["state2"] != json.loads(report("1"))["state2"]
    assert report("0") == first


def test_readme_command_table_matches_the_parser():
    """The README's command table has one row per subcommand; a row's command
    cell names exactly the flags that command accepts besides `--format`,
    and every flag the row mentions is one of them."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = readme.split("| command | what it does |\n|---|---|\n")[1].split("\n\n")[0].splitlines()
    cells = [re.match(r"\| `([^`]+)` \|", row)[1] for row in rows]
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert [cell.split()[0] for cell in cells] == list(sub.choices)
    flag = re.compile(r"--[a-z][a-z0-9-]*")
    for row, cell in zip(rows, cells):
        accepted = set(sub.choices[cell.split()[0]]._option_string_actions) - {"-h", "--help"}
        assert set(flag.findall(cell)) == accepted - {"--format"}, row
        assert set(flag.findall(row)) <= accepted, row


def test_explore_at_default_bounds_exits_3(capsys):
    """The corpus DCE program has far more behaviours than anyone reads at the
    default bounds; explore counts them and stops with a message before
    enumerating any."""
    import time

    started = time.monotonic()
    code = main(["explore", C("code_dce_source.sp"), "--state", C("code_dce.init")])
    elapsed = time.monotonic() - started
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err == "error: 5124300603911 behaviours within steps=32,depth=3, more than 100000; lower --bounds\n"
    assert elapsed < 2


@pytest.mark.parametrize("flag, text, message", [
    ("--state", "reg b zz\n", "line 1: bad value 'zz'"),
    ("--directives", "step\nload buf x\n", "line 2: bad offset 'x'"),
    ("--directives", "fly\n", "line 1: cannot parse directive 'fly'"),
    ("--state", "cell buf 1 3\ncell buf 1 4\n", "line 2: repeated cell buf[1]"),
])
def test_state_and_directive_errors_name_the_line(flag, text, message, tmp_path, capsys):
    f = tmp_path / "input"
    f.write_text(text)
    code = main(["run", C("code_ra_target.sp"), flag, str(f)])
    captured = capsys.readouterr()
    assert code == 3 and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("cmd, extra, message", [
    ("validate-ra", "phi: 0 -> z\n", "line 17: repeated phi 0"),
    ("validate-ra", "rho f: bytes -> b\n", "line 17: repeated rho f bytes"),
    ("check-typable", "rho  f :\tbytes->a  # the same entry, spaced\n", "line 17: repeated rho f bytes"),
    ("check-sni", "entry z\n", "line 14:0: duplicate entry declaration"),
])
def test_repeated_entry_phi_or_rho_is_an_error(cmd, extra, message, tmp_path, capsys):
    """A program's `entry`, a witness's `phi` source pc and a register of a
    `rho` pc are each declared at most once: a repeat exits 3 naming its
    line, where the last one used to win silently."""
    if cmd == "check-sni":
        f = tmp_path / "p.sp"
        f.write_text(corpus_path("code_ra_target.sp").read_text() + extra)
        argv = [cmd, str(f)]
    else:
        f = tmp_path / "w"
        f.write_text(corpus_path("code_ra.witness").read_text() + extra)
        argv = [cmd, "--source", C("code_ra_source.sp"), "--target", C("code_ra_target.sp"), "--witness", str(f)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("line, message", [
    ("rho c: by tes -> stk#0", "line 15: malformed relocation entry"),
    ("rho f: bytes -> a b", "line 15: malformed relocation entry"),
    ("rho f: bytes -> a[0]", "line 15: malformed relocation entry"),
    ("rho c: bytes -> stk#1_0", "line 15: bad slot stk#1_0"),
    ("rho c: bytes -> stk#\u0661", "line 15: bad slot stk#\u0661"),
    ("rho c: bytes -> stk#+0", "line 15: bad slot stk#+0"),
    ("rho c: bytes -> stk#-0", "line 15: bad slot stk#-0"),
])
def test_a_witness_name_or_slot_off_the_grammar_exits_3(line, message, tmp_path, capsys):
    """A `rho` register or location that is not a label, or a slot that is
    not a run of ASCII digits, is a parse error naming its line, where the
    line reader used to read it (`bytes` unmapped, or slot 0 and a valid
    witness)."""
    lines = corpus_path("code_ra.witness").read_text().splitlines()
    assert lines[14] == "rho c: bytes -> stk#0"
    lines[14] = line
    f = tmp_path / "w"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["validate-ra", "--source", C("code_ra_source.sp"), "--target", C("code_ra_target.sp"), "--witness", str(f)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and captured.err == f"error: {message}\n"


def test_every_ra_reader_reads_the_compact_witness_as_the_full_form(rng, tmp_path, capsys):
    """Each command that reads an RA witness prints the same for the text
    `allocate` and `fix` write as for its full form, on seeded allocations
    and their fixes."""
    from conftest import random_program, ref_full_witness_text
    from snicheck.ir import print_program
    from snicheck.poison import fix_ra
    from snicheck.regalloc import AllocationInfeasible, allocate, serialize_ra_witness

    f = {name: tmp_path / name for name in ("src.sp", "tgt.sp", "compact", "full", "o1", "o2")}
    small = ["--width", "1", "--bounds", "steps=6,depth=1"]
    cmds = [["validate-ra"], ["poison-analyze"], ["check-typable"], ["fix", "--out-target", f["o1"], "--out-witness", f["o2"]],
            ["check-sim", "--witness-kind", "ra", *small], ["check-snippy", "--witness-kind", "ra", *small]]
    witnesses = fewer = 0
    while witnesses < 100:
        p = random_program(rng, n_instrs=rng.randint(3, 12), n_regs=rng.randint(2, 4))
        try:
            w = allocate(p, rng.choice((2, 3)))
        except AllocationInfeasible:
            continue
        f["src.sp"].write_text(print_program(p))
        for x in (w, fix_ra(w)[0]):
            witnesses += 1
            f["tgt.sp"].write_text(print_program(x.target))
            f["compact"].write_text(serialize_ra_witness(x))
            f["full"].write_text(ref_full_witness_text(x))
            fewer += f["compact"].read_text().count("\n") < f["full"].read_text().count("\n")
            for cmd in cmds:
                outs = [run_cli(cmd[0], "--source", str(f["src.sp"]), "--target", str(f["tgt.sp"]),
                                "--witness", str(f[form]), *map(str, cmd[1:]), capsys=capsys) for form in ("compact", "full")]
                assert outs[0] == outs[1], (cmd, f["compact"].read_text())
    assert fewer >= 50


@pytest.mark.parametrize("flag, text, message", [
    ("--state", "reg r1 5#note\n", "line 1: bad value '5#note'"),
    ("--directives", "step#note\n", "line 1: cannot parse directive 'step#note'"),
])
def test_state_and_directive_comments_follow_the_program_rule(flag, text, message, tmp_path, capsys):
    """`#` opens a comment in a state file or a directive script as it does
    in a program: at the start of a line or after whitespace, not inside a
    word."""
    f = tmp_path / "input"
    f.write_text(text.replace("#", " # "))
    assert main(["run", C("code_ra_target.sp"), flag, str(f)]) == 0
    capsys.readouterr()
    f.write_text(text)
    code = main(["run", C("code_ra_target.sp"), flag, str(f)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == "" and captured.err == f"error: {message}\n"


def test_check_snippy_exhaustive_budget(capsys):
    """Nine high cells at width 2 would mean 2**18 states; refuse at once."""
    code = main(["check-snippy", "--witness-kind", "dce", "--source", C("code_specv1.sp"), "--width", "2"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: exhaustive pair budget exceeded: 9 high cells at width 2")


@pytest.mark.parametrize("cmd", [
    lambda d: ["run", d],
    lambda d: ["check-sni", C("code_ra_source.sp"), "--state", d],
])
def test_directory_input_exits_3_with_message(cmd, tmp_path, capsys):
    """A directory where a file is expected is an input error, not a traceback."""
    code = main(cmd(str(tmp_path)))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


def test_sni_differential_script_finds_no_mismatch(tmp_path):
    """The differential sweep runs from a checkout with no `PYTHONPATH` and
    finds the walks equal to their references on a seeded slice."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "sni_differential.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(script), "--seed", "3", "--programs", "40"], capture_output=True,
                       text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.startswith("40 programs, seed 3: 0 mismatches;")


def test_snippy_differential_script_finds_no_mismatch(tmp_path):
    """The `check-snippy` sweep runs from a checkout with no `PYTHONPATH`
    and finds the walk equal to its references on a seeded slice."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "snippy_differential.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(script), "--seed", "3", "--cubes", "40"], capture_output=True,
                       text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert r.stdout.startswith("40 cubes, seed 3: 0 mismatches;")


def test_ab_requests_script_compares_a_checkout_with_itself(tmp_path):
    """The in-process A/B runs from any working directory with no
    `PYTHONPATH`, imports the checkout twice under two package names and
    finds its outputs equal."""
    root = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(root / "scripts" / "ab_requests.py"), str(root), str(root),
                        "--workload", "sni-search", "--seed", "1", "--requests", "6", "--repeats", "1"],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert [line[:18] for line in lines[:2]] == ["A: verdicts_per_s ", "B: verdicts_per_s "]
    assert lines[2].startswith("6 requests, sni-search seed 1, best of 1: ") and lines[2].endswith("; 0 differ")


def test_ab_requests_script_builds_each_sides_requests_with_its_own_checkout(tmp_path):
    """Each side's `sim-cube` set-up runs its own checkout: a copy whose
    `serialize_ra_witness` appends a comment line writes other witness
    files, and the A/B counts those requests as differing."""
    root = Path(__file__).resolve().parents[1]
    copy = tmp_path / "copy"
    shutil.copytree(root / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
    regalloc = copy / "src" / "snicheck" / "regalloc.py"
    text = regalloc.read_text()
    end = '    return "\\n".join(lines) + "\\n"\n'
    assert text.count(end) == 1
    regalloc.write_text(text.replace(end, '    return "\\n".join(lines) + "\\n# serialized\\n"\n'))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(root / "scripts" / "ab_requests.py"), str(root), str(copy),
                        "--workload", "sim-cube", "--seed", "1", "--requests", "6", "--repeats", "1"],
                       capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 1, r.stdout + r.stderr
    lines = r.stdout.splitlines()
    assert "inputs differ: sim-cube/corpus-ra-cube-fixed" in lines
    summary = next(line for line in lines if line.startswith("6 requests, sim-cube seed 1, best of 1: "))
    assert not summary.endswith("; 0 differ")


def test_startup_script_times_every_command(tmp_path):
    """The start-up table runs from any working directory with no
    `PYTHONPATH`: the floor, then one row per command with the modules it
    loaded."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(STARTUP_SCRIPT), "--runs", "1"], capture_output=True, text=True,
                       env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    rows = [line.split() for line in r.stdout.splitlines()[2:]]
    assert [row[0] for row in rows] == ["python", *COMMANDS]
    assert {row[0]: set(row[3:]) for row in rows[1:]} == {
        cmd: CLI_MODULES | mods for cmd, mods in COMMAND_MODULES.items()
    }


def test_startup_script_compares_two_checkouts(tmp_path):
    """Given two checkouts, the start-up table has one row per command and
    the floor, with both medians and B's change; a checkout against itself
    loads the same modules on both sides."""
    root = str(STARTUP_SCRIPT.parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(STARTUP_SCRIPT), root, root, "--runs", "1"], capture_output=True,
                       text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    head, *rows = r.stdout.splitlines()[1:]
    assert head.split() == ["command", "A", "ms", "B", "ms", "B", "-", "A", "change", "snicheck", "modules",
                            "loaded", "by", "B"]
    rows = [line.split() for line in rows]
    assert [row[0] for row in rows] == ["python", *COMMANDS]
    for row in rows[1:]:
        a, b, diff, change = float(row[1]), float(row[2]), float(row[3]), row[4]
        # each printed to 0.1, from the unrounded medians
        assert abs(b - a - diff) < 0.11 and abs(float(change.rstrip("%")) - 100 * (b / a - 1)) < 0.5
    assert {row[0]: set(row[5:]) for row in rows[1:]} == {
        cmd: CLI_MODULES | mods for cmd, mods in COMMAND_MODULES.items()
    }


def test_sweep_corpus_script_runs_from_a_checkout(tmp_path):
    """The corpus sweep imports the package from the checkout it sits in, with
    no `PYTHONPATH` and from any working directory."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "sweep_corpus.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    r = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, cwd=tmp_path)
    assert r.returncode == 0, r.stderr
    verdicts = [line[46:].rsplit(None, 1)[0].strip() for line in r.stdout.splitlines()]
    assert verdicts == ["secure", "violation", "secure", "violation", "secure", "1 violation(s)", "secure", "pass", "fail", "pass"]


def test_mutated_inputs_get_an_exit_code(tmp_path, rng, capsys):
    """Corpus and random programs, states and register-allocation witnesses,
    mutated around the characters their readers treat specially: every
    command that reads them ends with exit code 0-3 and raises nothing."""
    from conftest import mutate_text, random_program, random_state
    from snicheck.ir import print_program
    from snicheck.regalloc import AllocationInfeasible, allocate, serialize_ra_witness
    from snicheck.semantics import format_initial_state

    read = lambda name: corpus_path(name).read_text()
    programs = [(read(f"{n}.sp"), read(f"{s}.init")) for n, s in [
        ("code_ra_source", "code_ra"), ("code_ra_target", "code_ra"), ("code_dce_w2_source", "code_dce_w2"),
        ("code_ra_w2_source", "code_ra_w2"), ("code_simplerv1", "code_simplerv1")]]
    witnesses = [tuple(read(n) for n in ("code_ra_w2_source.sp", "code_ra_w2_target.sp", "code_ra_w2.witness"))]
    for _ in range(12):
        p = random_program(rng, n_instrs=rng.randint(3, 8), n_regs=3)
        programs.append((print_program(p), format_initial_state(random_state(rng, p, width=1))))
        try:
            w = allocate(p, 2)
        except AllocationInfeasible:
            continue
        witnesses.append((print_program(p), print_program(w.target), serialize_ra_witness(w)))
    f = {name: tmp_path / name for name in ("p.sp", "s.init", "src.sp", "tgt.sp", "w.txt", "o1", "o2")}
    small = ["--width", "1", "--bounds", "steps=6,depth=1"]
    program_cmds = [
        ["check-sni", f["p.sp"], "--state", f["s.init"], *small],
        ["explore", f["p.sp"], "--state", f["s.init"], *small],
        ["check-safe", f["p.sp"], "--state", f["s.init"], "--width", "1", "--steps", "8"],
        ["dce", f["p.sp"], "--out", f["o1"], "--map-out", f["o2"]],
        ["allocate", f["p.sp"], "--k", "2", "--out-target", f["o1"], "--out-witness", f["o2"]],
    ]
    ra = ["--source", f["src.sp"], "--target", f["tgt.sp"], "--witness", f["w.txt"]]
    witness_cmds = [
        ["validate-ra", *ra],
        ["fix", *ra, "--out-target", f["o1"], "--out-witness", f["o2"]],
        ["check-snippy", "--witness-kind", "ra", *ra, *small],
    ]
    codes = Counter()
    for case in range(3000):
        if case % 2:
            texts = list(rng.choice(witnesses))
            names, cmds = ("src.sp", "tgt.sp", "w.txt"), witness_cmds
        else:
            texts = list(rng.choice(programs))
            names, cmds = ("p.sp", "s.init"), program_cmds
        j = rng.randrange(len(texts))
        texts[j] = mutate_text(rng, texts[j])
        for name, text in zip(names, texts):
            f[name].write_bytes(text.encode())  # read back in the locale's encoding
        for argv in cmds:
            code = main([str(a) for a in argv])
            capsys.readouterr()
            assert code in (0, 1, 2, 3), (argv, texts)
            codes[code] += 1
    assert codes[0] >= 1000 and codes[1] >= 50 and codes[2] >= 100, codes
