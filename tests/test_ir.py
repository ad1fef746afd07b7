import dataclasses
import re

import pytest

from snicheck import ir
from snicheck.ir import (
    Asgn,
    Exit,
    Fill,
    If,
    Load,
    Nop,
    ParseError,
    Spill,
    Store,
    parse_program,
    print_program,
    uses_defs,
    validate_program,
)

from conftest import load_program, random_program


def test_minimal_program():
    p = parse_program("entry L0\nL0: ret\n")
    assert p.entry == "L0"
    assert p.instrs == {"L0": Exit()}


def test_simplerv1_listing():
    p = load_program("code_simplerv1.sp")
    assert p.entry == "1"
    assert isinstance(p.instrs["2"], If)
    assert p.instrs["2"].successors() == ("4", "3")
    assert p.instrs["3"] == Store("buf", "b", "secret", "4")
    assert p.instrs["4"] == Load("bytes", "stk", 0, "5")
    assert len(p.instrs) == 6


def test_const_address_out_of_bounds_rejected():
    text = "mem buf 8 low\nentry a\na: load a <- buf[#9] -> b\nb: ret\n"
    with pytest.raises(ParseError, match="out of bounds"):
        parse_program(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError) as e:
        parse_program("entry a\na: frobnicate -> b\n")
    assert e.value.line == 2

    with pytest.raises(ParseError, match="duplicate label"):
        parse_program("entry a\na: ret\na: ret\n")


@pytest.mark.parametrize("text, line, col, message", [
    ("entry a\n  a: frobnicate -> b   # note\n", 2, 2, "cannot parse: 'a: frobnicate -> b'"),
    ("entry a\na: ret\n\t load: load x <- buf[#0]\n", 3, 2, "cannot parse: 'load: load x <- buf[#0]'"),
    ("mem buf 2 low\nentry a\na: ret\n   mem buf 1 low\n", 4, 0, "duplicate memvar buf"),
    ("entry a\na: ret\n\n a: nop -> a\n", 4, 0, "duplicate label a"),
    ("# header\na: ret\n", 1, 0, "missing entry declaration"),
    ("entry a\na: load x <- buf[#0] -> b\nb: ret\n", 0, 0, "a: unknown memvar buf"),
])
def test_parse_errors_carry_line_and_column(text, line, col, message):
    with pytest.raises(ParseError) as e:
        parse_program(text)
    assert (e.value.line, e.value.col, e.value.message) == (line, col, message)


def test_registers_named_like_mnemonics_are_assignments():
    """A line is read by the kind its leading word names, and falls back to
    an assignment, whose leading word is a register."""
    text = (
        "mem buf 1 low\nentry a\n"
        "a: load = x add y -> b\n"
        "b: ret = if sub nop -> c\n"
        "c: store = load and move -> d\n"
        "d: load store <- buf[load] -> e\n"
        "e: if load ? f : f\n"
        "f: ret\n"
    )
    p = parse_program(text)
    assert p.instrs["a"] == Asgn("load", "x", "add", "y", "b")
    assert p.instrs["b"] == Asgn("ret", "if", "sub", "nop", "c")
    assert p.instrs["c"] == Asgn("store", "load", "and", "move", "d")
    assert p.instrs["d"] == Load("store", "buf", "load", "e")
    assert p.instrs["e"] == If("load", "f", "f")
    assert p.instrs["f"] == Exit()
    assert parse_program(print_program(p)) == p


def test_validate_unknown_successor_and_slots():
    p = ir.Program("a", {"a": Nop("nowhere")}, [])
    diags = validate_program(p)
    assert len(diags) == 1 and diags[0].pc == "a"

    p = ir.Program(
        "a",
        {"a": Fill("x", 7, "b"), "b": Exit()},
        [ir.MemVar("stk", 4, "low")],
    )
    diags = validate_program(p)
    assert len(diags) == 1 and "slot" in diags[0].message


def test_validate_diagnostics_in_pc_order():
    """The diagnostics without a pc come first, then those of instructions in
    `pc_key` order, whatever order the instructions were inserted in; a pc
    with two diagnostics keeps its successors first."""
    p = ir.Program(
        "nope",
        {
            "10": If("c", "gone", "lost"),
            "9": Load("x", "nomem", 0, "missing"),
            "a": Asgn("x", "x", "xor", "x", "10"),
            "2.1": Fill("x", 3, "9"),
            "3": Store("buf", 5, "x", "10"),
        },
        [ir.MemVar("buf", 2, "low"), ir.MemVar("stk", 1, "high")],
    )
    assert [str(d) for d in validate_program(p)] == [
        "entry nope not defined",
        "stk must be declared low",
        "2.1: stack slot out of bounds: 3",
        "3: const address out of bounds: buf[5]",
        "9: unknown successor missing",
        "9: unknown memvar nomem",
        "10: unknown successor gone",
        "10: unknown successor lost",
        "a: unknown operator xor",
    ]


def test_validate_ok_without_reachable_exit():
    p = parse_program("entry a\na: nop -> a\n")
    assert validate_program(p) == []


def test_uses_defs_table():
    assert uses_defs(Load("a", "buf", "b", "s")) == (frozenset({"b"}), frozenset({"a"}))
    assert uses_defs(Load("a", "buf", 3, "s")) == (frozenset(), frozenset({"a"}))
    assert uses_defs(Nop("s")) == (frozenset(), frozenset())
    assert uses_defs(Asgn("a", "b", "add", "c", "s")) == (frozenset({"b", "c"}), frozenset({"a"}))
    assert uses_defs(Store("buf", "b", "c", "s")) == (frozenset({"b", "c"}), frozenset())
    assert uses_defs(Spill(0, "x", "s")) == (frozenset({"x"}), frozenset())


def test_round_trip_corpus():
    for name in (
        "code_ra_source.sp",
        "code_ra_target.sp",
        "code_dce_source.sp",
        "code_simplerv1.sp",
        "code_specv1.sp",
    ):
        p = load_program(name)
        assert parse_program(print_program(p)) == p


def test_round_trip_random(rng):
    for _ in range(200):
        p = random_program(rng, n_instrs=rng.randint(2, 8), allow_shuffle=False)
        assert parse_program(print_program(p)) == p


def _allocated_programs(rng, count):
    """Random programs with their `allocate` and `fix_ra` targets: only the
    targets hold the move, fill and spill kinds, and `fix_ra` adds slh and
    sfence."""
    from snicheck.poison import fix_ra
    from snicheck.regalloc import AllocationInfeasible, allocate

    out = []
    while len(out) < 3 * count:
        p = random_program(rng, n_instrs=rng.randint(4, 14), n_regs=rng.randint(3, 5))
        try:
            w = allocate(p, rng.choice((2, 3)))
        except AllocationInfeasible:
            continue
        out += [p, w.target, fix_ra(w)[0].target]
    return out


def test_round_trip_allocated_and_fixed(rng):
    kinds = set()
    for p in _allocated_programs(rng, 60):
        assert parse_program(print_program(p)) == p
        kinds |= {type(i) for i in p.instrs.values()}
    assert kinds == {k.cls for k in ir.KINDS}


def test_every_instruction_class_has_a_kind():
    assert {k.cls for k in ir.KINDS} == set(ir.Instr.__subclasses__())
    for k in ir.KINDS:
        assert k.cls.kind is k
        # holes in dataclass field order, so parsed groups feed the constructor
        assert re.findall(r"\{(\w+)\}", k.text) == [f.name for f in dataclasses.fields(k.cls)]


_WORD = re.compile(r"[\w.]")


def test_grammar_whitespace_variants(rng):
    """A space between two words may be any non-empty run of whitespace, any
    other space any run at all; dropping a required one is a parse error on
    that line."""
    seen = set()
    for p in _allocated_programs(rng, 12):
        lines = print_program(p).splitlines()
        for n, line in enumerate(lines):
            if line.startswith(("mem ", "entry ")):
                continue
            seen.add(type(p.instrs[line.split(":")[0]]))
            with_line = lambda text: "\n".join(lines[:n] + [text] + lines[n + 1 :]) + "\n"
            parts = line.split(" ")
            required = [bool(_WORD.match(a[-1]) and _WORD.match(b[0])) for a, b in zip(parts, parts[1:])]
            for _ in range(2):
                spaces = [rng.choice((" ", "\t", "  \t ")) if req else rng.choice(("", " ", "\t", "   ")) for req in required]
                variant = parts[0] + "".join(sp + part for sp, part in zip(spaces, parts[1:]))
                assert parse_program(with_line(variant)) == p, variant
            for j in (j for j, req in enumerate(required) if req):
                with pytest.raises(ParseError, match="cannot parse") as e:
                    parse_program(with_line(" ".join(parts[: j + 1]) + " ".join(parts[j + 1 :])))
                assert e.value.line == n + 1
    assert seen == {k.cls for k in ir.KINDS}


@pytest.mark.parametrize("bad", [
    "a: frobnicate -> b",
    "a: nop ->",
    "a: nop -> b c",
    "a: x = y pow z -> b",
    "a: x = y addz -> b",
    "a: load x <- buf[#] -> b",
    "a: load x <- buf[#1x] -> b",
    "a: load x <- buf [y] -> b",
    "a: store buf[y] <- -> b",
    "a: if c ? b",
    "a: if c ? b : c : d",
    "a: fill x <- stk#y -> b",
    "a: spill stk#-1 <- x -> b",
    "a: move x <- -> b",
    "a: slh -> b",
    "a: sfence b",
    "a: ret b",
    "a ret",
    ": ret",
    "mem buf 2 secret",
    "entry",
])
def test_grammar_rejects_malformed_lines(bad):
    text = "mem buf 2 low\nmem stk 1 low\nentry a\n" + bad + "\nb: ret\n"
    with pytest.raises(ParseError, match="cannot parse") as e:
        parse_program(text)
    assert e.value.line == 4


def test_uses_defs_agrees_with_semantics(rng):
    """Perturbing a non-used register never changes step results on other
    registers; steps write only defined registers."""
    from snicheck.semantics import enabled_directives, step_spec
    from conftest import random_state

    for _ in range(300):
        p = random_program(rng, n_instrs=rng.randint(2, 6))
        nu = random_state(rng, p)
        i = p.instrs[nu[0].pc]
        uses, defs = uses_defs(i)
        en = enabled_directives(p, nu)
        others = [r for r in p.registers if r not in uses]
        if others:
            pert = (nu[0].with_reg(rng.choice(others), rng.randrange(256)),)
            assert [d for d in enabled_directives(p, pert)] == en
            for d in en:
                _, leak1 = step_spec(p, nu, d)
                _, leak2 = step_spec(p, pert, d)
                assert leak1 == leak2
        for d in en:
            nu2, _ = step_spec(p, nu, d)
            changed = {r for r in p.registers if nu2[-1].reg(r) != nu[-1].reg(r)}
            assert changed <= defs


# hypothesis check on label ordering


from hypothesis import given, strategies as st

from snicheck.ir import pc_key

label = st.from_regex(r"[A-Za-z0-9_.]{1,8}", fullmatch=True)


@given(st.lists(label, min_size=1, max_size=8))
def test_pc_key_orders_consistently(labels):
    ordered = sorted(labels, key=pc_key)
    assert sorted(ordered, key=pc_key) == ordered
    assert sorted(["1", "2", "10"], key=pc_key) == ["1", "2", "10"]


def _reference_pc_key(pc):
    parts = tuple((0, int(t), "") if t.isdigit() else (1, 0, t) for t in re.findall(r"\d+|\D+", pc))
    return parts, pc


@given(label, label)
def test_pc_key_is_a_total_order(a, b):
    """Distinct labels get distinct keys, so sorting never falls back on
    insertion order; the all-digit fast path agrees with the general one."""
    assert pc_key(a) == _reference_pc_key(a)
    assert pc_key(b) == _reference_pc_key(b)
    assert (pc_key(a) == pc_key(b)) == (a == b)


def test_pc_key_breaks_numeric_ties_by_label():
    assert sorted(["1.00", "01", "1", "1.0", "2"], key=pc_key) == ["01", "1", "1.0", "1.00", "2"]
    assert sorted(["1", "01"], key=pc_key) == sorted(["01", "1"], key=pc_key)


def test_print_minimal_is_two_lines():
    p = parse_program("entry L0\nL0: ret\n")
    assert print_program(p) == "entry L0\nL0: ret\n"
